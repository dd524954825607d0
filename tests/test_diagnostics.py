import numpy as np
import pytest

from adaptmc.core import PsdMatrix, make_stream
from adaptmc.diagnostics import (BoundTable, HarrisConstants, Observable,
                                 ar_bound_check, check_drift,
                                 containment_profile, default_pi_sampler,
                                 estimate_containment, estimate_diminishing,
                                 harris_constants, lln_curve,
                                 restricted_adaptation_drift_bound,
                                 verify_harris_contraction, _stationary_of)
from adaptmc.errors import (ContractionViolated, HypothesisFailed,
                            ParamOutOfRange, SizeCap)
from adaptmc.kernels import (ArCoef, DiscreteAr, DiscreteBase, DiscreteRwm,
                             GaussianAr, LangevinTuning, MatrixScale, Ula,
                             quadratic_potential)
from adaptmc.process import AdaptiveTrajectory
from adaptmc.adaptation import DiminishingDiscrete


def frozen_traj(tuning, state, horizon, tunings=None):
    ts = tunings if tunings is not None else [tuning] * (horizon + 1)
    return AdaptiveTrajectory(seed=0, stream_id=0, tunings=ts,
                              states=[state] * (horizon + 1))


# ---------------------------------------------------------------------------
# reference samplers

def test_pi_sampler_discrete_ar_is_uniform():
    sampler, meta = default_pi_sampler(DiscreteAr(), DiscreteBase(2))
    draws = sampler(make_stream(1, 0), 20000)
    assert meta["method"] == "exact-uniform"
    assert draws.shape == (20000, 1)
    assert abs(draws.mean() - 0.5) < 0.01
    assert draws.min() >= 0.0 and draws.max() < 1.0


def test_pi_sampler_rwm_matches_stationary_law():
    grid = np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])
    kern = DiscreteRwm(grid, lambda x: np.exp(-0.5 * float(x[0]) ** 2))
    tun = MatrixScale(PsdMatrix.identity(1))
    law = kern.stationary_law(tun)
    sampler, meta = default_pi_sampler(kern, tun)
    assert meta["method"] == "exact-finite"
    draws = sampler(make_stream(2, 0), 4000)
    for i, g in enumerate(grid[:, 0]):
        freq = np.mean(draws[:, 0] == g)
        sd = np.sqrt(law[i] * (1 - law[i]) / 4000)
        assert abs(freq - law[i]) < 5 * sd + 1e-3


def test_pi_sampler_ula_reports_burn_in():
    pot = quadratic_potential([[1.0]])
    tun = LangevinTuning(PsdMatrix.identity(1), 0.4)
    sampler, meta = default_pi_sampler(Ula(pot), tun)
    assert meta["method"] == "pilot-chain"
    assert meta["burn_in"] > 0
    draws = sampler(make_stream(3, 0), 500)
    # invariant variance of the linear chain is 2h/(1-(1-h)^2)
    target = 2 * 0.4 / (1 - 0.6 ** 2)
    assert abs(np.var(draws) - target) < 0.3


def test_pi_sampler_pilot_chain_equals_stepwise_chain():
    pot = quadratic_potential(np.diag([1.0, 3.0]))
    tun = LangevinTuning(PsdMatrix.identity(2), 0.2)
    kern = Ula(pot)
    sampler, meta = default_pi_sampler(kern, tun)
    draws = sampler(make_stream(4, 2), 30)
    stream, x, want = make_stream(4, 2), np.zeros(2), []
    for k in range(meta["burn_in"] + 30):
        x = kern.step(x, tun, stream)
        if k >= meta["burn_in"]:
            want.append(x)
    assert draws.tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# containment

def test_containment_exact_discrete_ar():
    est = estimate_containment(DiscreteAr(), DiscreteBase(2), 0.0, 0.1,
                               "exact", 8, None, 0, make_stream(1, 0))
    # t-step law from 0 is uniform on m/2^t, so the distance is 2^-(t+1)
    want = 0.5 ** (np.arange(9) + 1)
    assert np.allclose(est.distances[0], want, atol=1e-12)
    assert est.m_hat[0] == 3
    assert not est.any_censored


def test_containment_monotone_in_eps():
    est = estimate_containment(DiscreteAr(), DiscreteBase(2), 0.0, 0.1,
                               "exact", 10, None, 0, make_stream(1, 0))
    prev = None
    for eps in (0.02, 0.06, 0.125, 0.3, 0.6):
        m = est.m_hat_at(eps)[0]
        if prev is not None:
            assert m <= prev
        prev = m


def test_containment_censoring_is_explicit():
    est = estimate_containment(DiscreteAr(), DiscreteBase(2), 0.0, 1e-4,
                               "exact", 8, None, 0, make_stream(1, 0))
    assert est.any_censored
    assert est.m_hat[0] == est.n_max + 1
    assert np.all(est.tail_probs == 1.0)


def test_containment_exact_gaussian_closed_form():
    kern = GaussianAr(np.eye(2))
    est = estimate_containment(kern, ArCoef(0.5), np.zeros(2), 0.1,
                               "exact", 5, None, 0, make_stream(1, 0))
    # from a point at the stationary mean the t-step law is
    # N(0, (1-g^{2t}) I), so the capped distance is
    # min(|sqrt(1-g^{2t}) - 1| sqrt(2), 1)
    n = np.arange(6)
    want = np.minimum(np.abs(np.sqrt(1.0 - 0.25 ** n) - 1.0) * np.sqrt(2), 1)
    assert np.allclose(est.distances[0], want, atol=1e-12)
    assert est.m_hat[0] == 2


def test_containment_empirical_gaussian_settles_fast():
    kern = GaussianAr(np.eye(1))
    est = estimate_containment(kern, ArCoef(0.5), np.zeros(1), 0.75,
                               None, 3, None, 128, make_stream(7, 0))
    assert est.meta["route"] == "empirical"
    assert est.m_hat[0] <= 1
    assert est.errors.shape == est.distances.shape


def test_containment_ula_settling_grows_with_log_one_over_eps():
    # anisotropic quadratic at the largest admissible step: the proven
    # coupling factor sqrt(1 - 2 h a b/(a+b)) nearly matches the true
    # decay, so the settling horizon grows like log(1/eps) at that rate.
    # The potential is scaled so the invariant spread sits far below the
    # metric cap; the distance reads the slow coordinate only.
    pot = quadratic_potential(np.diag([25.0, 100.0]))
    h = 1.0 / 125.0
    tun = LangevinTuning(PsdMatrix.identity(2), h, step_min=1e-5)

    def coord0(x, y):
        return np.abs(x[:, :1] - y[:, :1].T)

    est = estimate_containment(Ula(pot), tun, np.array([1.0, 0.0]), 0.6,
                               coord0, 16, None, 200, make_stream(12, 0))
    rate = np.sqrt(1.0 - 2.0 * h * 25.0 * 100.0 / 125.0)
    predicted = 1.0 / np.log(1.0 / rate)
    eps_grid = np.array([0.5, 0.35, 0.25, 0.18, 0.12, 0.08])
    m = np.array([est.m_hat_at(e)[0] for e in eps_grid])
    assert np.all(m <= est.n_max)
    slope = np.polyfit(np.log(1.0 / eps_grid), m.astype(float), 1)[0]
    assert abs(slope - predicted) / predicted < 0.25
    # the distance curve itself decays at the slow-coordinate factor 0.8
    d = est.distances[0][1:10]
    step_ratio = np.exp(np.polyfit(np.arange(9), np.log(d), 1)[0])
    assert abs(step_ratio - 0.8) < 0.08


def test_containment_profile_tail_curve():
    kern = DiscreteAr()
    traj = frozen_traj(DiscreteBase(2), 0.0, 6)
    prof = containment_profile(kern, traj, [0, 2, 4], 0.1, "exact", 8,
                               None, 0, make_stream(1, 0))
    assert prof.distances.shape == (3, 9)
    assert np.all(prof.m_hat == 3)
    # tail curve drops from 1 to 0 after T' = 3
    assert prof.tail_probs[3] == 1.0
    assert prof.tail_probs[4] == 0.0
    with pytest.raises(ParamOutOfRange):
        containment_profile(kern, traj, [7], 0.1, "exact", 2, None, 0,
                            make_stream(1, 0))


def test_containment_rejects_bad_eps():
    with pytest.raises(ParamOutOfRange):
        estimate_containment(DiscreteAr(), DiscreteBase(2), 0.0, 1.5,
                             "exact", 4, None, 0, make_stream(1, 0))


# ---------------------------------------------------------------------------
# diminishing adaptation

def test_diminishing_frozen_discrete_ar_is_exact():
    traj = frozen_traj(DiscreteBase(4), 0.5, 12)
    est = estimate_diminishing(traj, DiscreteAr(), [0.05, 0.2], 8,
                               make_stream(1, 0), noise_avg=2)
    assert np.allclose(est.values[:, 0], 0.05 / 4, atol=1e-12)
    assert np.allclose(est.values[:, 1], 0.2 / 4, atol=1e-12)
    assert not est.non_diminishing


def test_diminishing_frozen_ula_isotropic_is_exact():
    # same tuning on both sides: shared noise cancels and the gap scales
    # by exactly 1 - h for an identity hessian
    pot = quadratic_potential([[1.0]])
    h = 0.3
    tun = LangevinTuning(PsdMatrix.identity(1), h)
    traj = frozen_traj(tun, np.array([0.4]), 6)
    est = estimate_diminishing(traj, Ula(pot), [0.1], 4,
                               make_stream(2, 0), noise_avg=2)
    assert np.allclose(est.values[:, 0], (1.0 - h) * 0.1, atol=1e-12)
    assert not est.non_diminishing


def test_diminishing_flags_adversarial_alternation():
    tunings = [ArCoef(0.05) if t % 2 == 0 else ArCoef(0.95)
               for t in range(31)]
    traj = frozen_traj(None, np.array([2.0]), 30, tunings=tunings)
    est = estimate_diminishing(traj, GaussianAr(np.eye(1)), [0.01], 8,
                               make_stream(3, 0), noise_avg=4)
    assert est.non_diminishing
    assert np.all(est.values <= 1.0 + 1e-12)
    assert np.all(est.values >= 0.0)


def test_diminishing_rejects_bad_grid():
    traj = frozen_traj(DiscreteBase(2), 0.5, 3)
    with pytest.raises(ParamOutOfRange):
        estimate_diminishing(traj, DiscreteAr(), [0.0, 0.1], 4,
                             make_stream(1, 0))


# ---------------------------------------------------------------------------
# drift

def test_drift_gaussian_recovers_exact_constants():
    s = np.diag([1.0, 0.5])
    kern = GaussianAr(s)
    tr_c = np.trace(s @ s)
    gamma = ArCoef(0.6)
    points = [np.zeros(2), np.array([1.0, 0.0]), np.array([2.0, 1.0]),
              np.array([3.0, -2.0]), np.array([0.0, 4.0])]
    rep = check_drift(kern, gamma, lambda x: float(np.dot(x, x)), points,
                      4000, make_stream(5, 0), lam=0.36, L=0.8)
    assert abs(rep.lam_hat - 0.36) < 0.05
    assert abs(rep.L_hat - (1 - 0.36) * tr_c) < 0.35
    assert rep.violations == 0
    assert np.all(rep.residuals <= 1e-12)


def test_drift_zero_potential_is_trivial():
    rep = check_drift(DiscreteAr(), DiscreteBase(2), lambda x: 0.0,
                      [0.1, 0.5, 0.9], 50, make_stream(6, 0), lam=0.5, L=0.0)
    assert rep.lam_hat == 0.0
    assert rep.L_hat == 0.0
    assert rep.violations == 0


def test_drift_ula_quadratic_contracts():
    pot = quadratic_potential(np.diag([1.0, 2.0]))
    tun = LangevinTuning(PsdMatrix.identity(2), 0.3)
    points = [np.zeros(2), np.array([2.0, 0.0]), np.array([0.0, 3.0]),
              np.array([4.0, 4.0])]
    rep = check_drift(Ula(pot), tun, lambda x: float(np.dot(x, x)), points,
                      2000, make_stream(7, 0))
    assert 0.0 < rep.lam_hat < 1.0


def test_drift_multiple_tunings_pool():
    kern = GaussianAr(np.eye(1))
    rep = check_drift(kern, [ArCoef(0.3), ArCoef(0.7)],
                      lambda x: float(np.dot(x, x)),
                      [np.zeros(1), np.array([2.0]), np.array([5.0])],
                      1500, make_stream(8, 0))
    assert len(rep.labels) == 6
    # pooled least squares blends the per-tuning slopes 0.09 and 0.49
    assert 0.09 < rep.lam_hat < 0.49
    assert np.all(rep.residuals <= 1e-12)


# ---------------------------------------------------------------------------
# law of large numbers

def test_lln_discrete_ar_adaptive():
    pol = DiminishingDiscrete(
        candidates=(DiscreteBase(2), DiscreteBase(3), DiscreteBase(4)),
        prob=lambda t: 1.0 / (t + 1.0))
    rep = lln_curve(DiscreteAr(), pol, (DiscreteBase(2), 0.3),
                    Observable("identity", lambda x: float(x), lip=1.0),
                    0.5, [100, 1000, 10000], 8, make_stream(9, 0))
    assert rep.mse[-1] < 5e-5
    assert rep.slope is not None and rep.slope <= -0.8
    assert rep.monotone


def test_lln_constant_observable_is_exact_zero():
    pol = DiminishingDiscrete(candidates=(DiscreteBase(2),),
                              prob=lambda t: 0.0)
    rep = lln_curve(DiscreteAr(), pol, (DiscreteBase(2), 0.3),
                    lambda x: 1.25, 1.25, [10, 100], 4, make_stream(10, 0))
    assert np.all(rep.mse == 0.0)
    assert rep.slope is None
    assert rep.monotone


def test_lln_needs_two_replicas():
    with pytest.raises(ParamOutOfRange, match="replicas"):
        lln_curve(DiscreteAr(), DiminishingDiscrete(
            candidates=(DiscreteBase(2),), prob=lambda t: 0.0),
            (DiscreteBase(2), 0.3), lambda x: x, 0.5, [10], 1,
            make_stream(1, 0))


def test_lln_rejects_bad_grid():
    with pytest.raises(ParamOutOfRange):
        lln_curve(DiscreteAr(), DiminishingDiscrete(
            candidates=(DiscreteBase(2),), prob=lambda t: 0.0),
            (DiscreteBase(2), 0.3), lambda x: x, 0.5, [0, 10], 2,
            make_stream(1, 0))


# ---------------------------------------------------------------------------
# exponential bound tables

def test_ar_bound_table_discrete():
    table = ar_bound_check(DiscreteAr(), DiscreteBase(2), 0.0, 20)
    assert table.all_ok
    t, exact, bound = table.as_arrays()
    assert np.allclose(exact, 0.5 ** (t + 1), atol=1e-10)
    assert np.allclose(bound, 0.5 ** t)


def test_ar_bound_table_discrete_interior_start():
    table = ar_bound_check(DiscreteAr(), DiscreteBase(2), 0.3, 12)
    assert table.all_ok
    _, exact, _ = table.as_arrays()
    # from x the exact distance is 2^-(t+1) (x^2 + (1-x)^2)
    want = 0.5 ** (np.arange(13) + 1) * (0.3 ** 2 + 0.7 ** 2)
    assert np.allclose(exact, want, atol=1e-10)


def test_ar_bound_table_gaussian():
    c_sqrt = np.diag(np.sqrt(1.0 / np.arange(1, 6)))
    kern = GaussianAr(c_sqrt)
    x = np.zeros(5)
    x[0] = 2.0
    table = ar_bound_check(kern, ArCoef(0.6), x, 50)
    assert table.all_ok
    t, exact, bound = table.as_arrays()
    tr_c = np.trace(c_sqrt @ c_sqrt)
    assert np.allclose(bound, 0.6 ** t * (2.0 + np.sqrt(tr_c)))
    assert exact[0] == pytest.approx(np.sqrt(4.0 + tr_c), abs=1e-9)


def test_ar_bound_table_atom_cap():
    with pytest.raises(SizeCap):
        ar_bound_check(DiscreteAr(), DiscreteBase(3), 0.0, 20)


# ---------------------------------------------------------------------------
# explicit contraction constants

def test_stationary_law_rejects_two_closed_classes():
    # states 0 and 2 absorb: every mix of their point masses is stationary
    P = np.array([[1.0, 0.0, 0.0], [0.3, 0.4, 0.3], [0.0, 0.0, 1.0]])
    with pytest.raises(HypothesisFailed, match="closed class"):
        _stationary_of(P)


def test_stationary_law_residual_on_ergodic_chain():
    rng = np.random.default_rng(8)
    P = rng.uniform(size=(8, 8))
    P /= P.sum(axis=1, keepdims=True)
    pi = _stationary_of(P)
    assert np.abs(pi @ P - pi).max() <= 1e-12
    assert pi.min() >= 0.0 and abs(pi.sum() - 1.0) <= 1e-15
    # one closed class plus a transient state: the transient state gets 0
    Q = np.array([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.2, 0.3, 0.5]])
    assert np.abs(_stationary_of(Q) - [1 / 3, 2 / 3, 0.0]).max() <= 1e-12


def test_harris_constants_worked_example():
    c = harris_constants(0.5, 1.0, 0.2, 0.2, 0.1)
    assert c.beta_star == pytest.approx(0.05, abs=1e-15)
    assert c.R == pytest.approx(4.4, abs=1e-12)
    assert c.f1 == pytest.approx(np.sqrt(0.5 * 1.2 / 1.22 + 0.5), abs=1e-12)
    assert c.f2 == pytest.approx(np.sqrt(0.9), abs=1e-12)
    assert c.f3 == pytest.approx(np.sqrt(0.9), abs=1e-12)
    assert c.alpha_star == pytest.approx(0.00411, abs=1e-5)
    assert c.alpha_star == pytest.approx(1.0 - max(c.f1, c.f2, c.f3),
                                         abs=1e-15)
    assert 0.0 < c.alpha_star < 1.0


def test_harris_constants_boundaries():
    c = harris_constants(0.5, 0.05, 0.2, 0.2, 0.1)
    assert c.beta_star == pytest.approx(1.0, abs=1e-15)
    tiny = harris_constants(0.5, 1.0, 1e-6, 0.5, 0.1)
    assert 0.0 < tiny.alpha_star < 1e-5
    for bad in [dict(lam=1.0), dict(kappa=0.0), dict(alpha=1.0),
                dict(delta=0.0), dict(K=0.0)]:
        kw = dict(lam=0.5, K=1.0, kappa=0.2, alpha=0.2, delta=0.1)
        kw.update(bad)
        with pytest.raises(ParamOutOfRange):
            harris_constants(**kw)


def two_state_setup():
    P = np.array([[0.7, 0.3], [0.4, 0.6]])
    V = np.zeros(2)
    rho = 0.5 * (1.0 - np.eye(2))
    c = harris_constants(0.5, 0.1, 0.5, 0.5, 0.1)
    return P, V, rho, c


def test_harris_verify_two_state_chain():
    P, V, rho, c = two_state_setup()
    rep = verify_harris_contraction({"g": P}, V, rho, c, t_max=20)
    assert rep.one_step_margin <= 1e-9
    assert rep.t_step_margin <= 1e-9
    assert rep.t_checked == 20


def test_harris_verify_rank_one_chain():
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    _, V, rho, c = two_state_setup()
    rep = verify_harris_contraction(P, V, rho, c, t_max=5)
    assert rep.one_step_margin <= 1e-9


def test_harris_verify_randomized_chains():
    rng = np.random.default_rng(2024)
    n = 8
    rho = 0.5 * (1.0 - np.eye(n))
    passed = 0
    for trial in range(10):
        raw = rng.uniform(size=(n, n))
        P = 0.2 / n + 0.8 * raw / raw.sum(1, keepdims=True)
        V = rng.uniform(0.0, 3.0, size=n)
        K = float(max((P @ V - 0.5 * V).max(), 0.01) + 0.01)
        c = harris_constants(0.5, K, 0.6, 0.2, 0.1)
        rep = verify_harris_contraction(P, V, rho, c, t_max=10)
        assert rep.one_step_margin <= 1e-9
        passed += 1
    assert passed == 10


def test_harris_hypothesis_failure_is_reported():
    P = np.array([[0.0, 1.0], [0.0, 1.0]])
    V = np.array([0.0, 10.0])
    rho = 0.5 * (1.0 - np.eye(2))
    c = harris_constants(0.5, 0.01, 0.5, 0.5, 0.1)
    with pytest.raises(HypothesisFailed, match="drift"):
        verify_harris_contraction(P, V, rho, c)


def test_harris_doctored_constants_trip_contraction_check():
    P, V, rho, c = two_state_setup()
    fake = HarrisConstants(lam=c.lam, K=c.K, kappa=c.kappa, alpha=c.alpha,
                           delta=c.delta, beta_star=c.beta_star, R=c.R,
                           f1=c.f1, f2=c.f2, f3=c.f3, alpha_star=0.95)
    with pytest.raises(ContractionViolated):
        verify_harris_contraction(P, V, rho, fake)


def test_restricted_adaptation_drift_bound():
    assert restricted_adaptation_drift_bound(0.5, 1.0, 0.0) == 4.0
    assert restricted_adaptation_drift_bound(0.5, 0.0, 2.5) == 2.5
    assert restricted_adaptation_drift_bound(1e-12, 1.0, 1.0) == \
        pytest.approx(3.0, abs=1e-9)
    with pytest.raises(ParamOutOfRange):
        restricted_adaptation_drift_bound(1.0, 1.0, 0.0)
