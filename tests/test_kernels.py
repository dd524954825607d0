import math

import numpy as np
import pytest

from adaptmc.core import EmpiricalMeasure, PsdMatrix, make_stream, psd_sqrt
from adaptmc.errors import (DimensionMismatch, DomainError, Error,
                            StepSizeOutOfRange, VariantMismatch, ZeroDensity)
from adaptmc.kernels import (ArCoef, DiffusionTime1, DiscreteAr, DiscreteBase,
                             DiscreteRwm, GaussianAr, LangevinTuning,
                             MatrixScale, PotentialSpec, Ula, coupled_step,
                             potential_check, quadratic_potential, step)
from adaptmc.transport import sliced_w1, w2_gaussian, w_exact_1d


class FixedStream:
    """Duck-typed stream with forced draws, for noiseless formula checks."""

    def __init__(self, k=0, u=0.0):
        self.k = k
        self.u = u

    def integers(self, low, high, size=None):
        return self.k

    def uniform(self, size=None):
        if size is None:
            return self.u
        return np.full(size, self.u)

    def normal(self, size=None):
        if size is None:
            return 0.0
        return np.zeros(size)


# ------------------------------------------------------------ tuning variants

def test_tuning_validation():
    with pytest.raises(ValueError):
        DiscreteBase(1)
    with pytest.raises(ValueError):
        ArCoef(0.0)
    with pytest.raises(ValueError):
        ArCoef(0.995, gamma_max=0.99)
    with pytest.raises(ValueError):
        MatrixScale(np.eye(2) * 1.5)          # eigenvalue above 1
    with pytest.raises(ValueError):
        MatrixScale(np.eye(2) * 0.01, eig_min=0.05)
    with pytest.raises(StepSizeOutOfRange):
        LangevinTuning(np.eye(2), step=1e-6, step_min=1e-4)


def test_potential_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec(gradient=lambda x: x, convex_param=0.0, lip_param=1.0)
    with pytest.raises(ValueError):
        PotentialSpec(gradient=lambda x: x, convex_param=2.0, lip_param=1.0)


def test_quadratic_potential_constants():
    pot = quadratic_potential(np.diag([1.0, 4.0]))
    assert pot.convex_param == pytest.approx(1.0)
    assert pot.lip_param == pytest.approx(4.0)
    assert potential_check(pot, 2, make_stream(3, 0)) == []


def test_potential_check_catches_false_claims():
    # claiming strong convexity 2 for the identity Hessian is false
    bogus = PotentialSpec(gradient=lambda x: np.asarray(x),
                          convex_param=2.0, lip_param=2.0)
    assert len(potential_check(bogus, 2, make_stream(4, 0))) > 0


# ------------------------------------------------------------------ DiscreteAr

def test_discrete_ar_formula():
    g = DiscreteBase(2)
    assert DiscreteAr().step(0.0, g, FixedStream(k=0)) == 0.0
    assert DiscreteAr().step(0.5, g, FixedStream(u=0.5)) == 0.75


def test_discrete_ar_domain():
    with pytest.raises(DomainError):
        DiscreteAr().step(1.0, DiscreteBase(2), FixedStream())
    with pytest.raises(DomainError):
        DiscreteAr().step(-0.1, DiscreteBase(2), FixedStream())


@pytest.mark.parametrize("g", range(2, 12))
def test_discrete_ar_stays_below_one(g):
    # from the largest float below 1 with the top digit, x/g + (g-1)/g
    # rounds to 1.0; the step must stay in [0, 1) and the next one run
    kern, tun = DiscreteAr(), DiscreteBase(g)
    top = float(np.nextafter(1.0, 0.0))
    y = kern.apply(top, tun, 0.999999)
    assert y == top
    assert 0.0 <= kern.apply(y, tun, 0.5) < 1.0


def test_discrete_ar_t_step_support_enumeration():
    # from x=0 the t-step support is exactly {j/2^t}, every atom equally
    # reachable: iterate the map over all (state, k) pairs
    support = {0.0}
    for t in range(1, 11):
        support = {x / 2.0 + k / 2.0 for x in support for k in (0, 1)}
        expected = {j / 2.0 ** t for j in range(2 ** t)}
        assert support == expected


def test_discrete_ar_refinement_invariance():
    # pushing Unif{j/g^m} one step forward hits Unif{j/g^{m+1}} bijectively
    g = 3
    m = 2
    images = [(j / g ** m) / g + k / g
              for j in range(g ** m) for k in range(g)]
    expected = [j / g ** (m + 1) for j in range(g ** (m + 1))]
    assert sorted(images) == pytest.approx(expected)


def test_discrete_ar_coupling_contracts_exactly():
    kern = DiscreteAr()
    g = DiscreteBase(4)
    stream = make_stream(8, 0)
    x, y = 0.731, 0.112
    for _ in range(50):
        x1, y1 = coupled_step(kern, x, g, y, g, stream)
        assert abs(x1 - y1) == pytest.approx(abs(x - y) / 4.0, abs=1e-15)
        x, y = x1, y1


def test_discrete_ar_coupled_marginal_matches_single():
    kern = DiscreteAr()
    ga, gb = DiscreteBase(2), DiscreteBase(5)
    n = 20000
    sa = make_stream(100, 0)
    coupled_first = np.array([coupled_step(kern, 0.3, ga, 0.6, gb, sa)[0]
                              for _ in range(n)])
    sb = make_stream(100, 1)
    single = np.array([kern.step(0.3, ga, sb) for _ in range(n)])
    sc = make_stream(100, 2)
    single2 = np.array([kern.step(0.3, ga, sc) for _ in range(n)])
    base = w_exact_1d(EmpiricalMeasure(single), EmpiricalMeasure(single2)).cost
    gap = w_exact_1d(EmpiricalMeasure(coupled_first),
                     EmpiricalMeasure(single)).cost
    assert gap <= 3.0 * base + 1e-3


# ------------------------------------------------------------------ GaussianAr

def test_gaussian_ar_noiseless_contraction():
    g = ArCoef(0.7)
    out = GaussianAr(PsdMatrix.identity(2)).step(np.array([1.0, -2.0]), g,
                                                 FixedStream())
    assert np.allclose(out, [0.7, -1.4])


def test_gaussian_ar_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        GaussianAr(PsdMatrix.identity(2)).step(np.zeros(3), ArCoef(0.5),
                                               FixedStream())


def test_gaussian_ar_invariance_one_step():
    # push a stationary ensemble one step; sample covariance stays at C
    c = np.array([[2.0, 0.6], [0.6, 1.0]])
    root = psd_sqrt(c)
    kern = GaussianAr(root)
    g = ArCoef(0.8)
    stream = make_stream(11, 0)
    n = 100000
    ens = kern.stationary_sample(stream, n)
    out = np.empty_like(ens)
    for i in range(n):
        out[i] = kern.step(ens[i], g, stream)
    est = out.T @ out / n
    assert np.abs(est - c).max() <= 0.05 * np.abs(c).max()


def test_gaussian_ar_t_step_closed_form():
    # t-step law from a point: mean gamma^t x, covariance (1 - gamma^2t) C
    c = np.array([[1.0, 0.3], [0.3, 0.5]])
    kern = GaussianAr(psd_sqrt(c))
    g = ArCoef(0.6)
    t, n = 5, 20000
    x0 = np.array([2.0, -1.0])
    stream = make_stream(12, 0)
    out = np.empty((n, 2))
    for i in range(n):
        x = x0
        for _ in range(t):
            x = kern.step(x, g, stream)
        out[i] = x
    mean_target = 0.6 ** t * x0
    cov_target = (1.0 - 0.6 ** (2 * t)) * c
    assert np.abs(out.mean(axis=0) - mean_target).max() < 0.03
    centered = out - out.mean(axis=0)
    assert np.abs(centered.T @ centered / n - cov_target).max() < 0.05


def test_gaussian_ar_coupling_contracts_exactly():
    kern = GaussianAr(psd_sqrt(np.array([[1.5, 0.2], [0.2, 0.7]])))
    g = ArCoef(0.85)
    stream = make_stream(13, 0)
    x = np.array([3.0, 1.0])
    y = np.array([-1.0, 0.5])
    for _ in range(30):
        x1, y1 = coupled_step(kern, x, g, y, g, stream)
        assert np.linalg.norm(x1 - y1) == pytest.approx(
            0.85 * np.linalg.norm(x - y), rel=1e-12)
        x, y = x1, y1


def test_gaussian_ar_coupled_marginal_matches_single():
    kern = GaussianAr(PsdMatrix.identity(2))
    ga, gb = ArCoef(0.3), ArCoef(0.9)
    x0 = np.array([1.0, 0.0])
    y0 = np.array([0.0, 2.0])
    n = 20000
    sa = make_stream(101, 0)
    first = np.array([coupled_step(kern, x0, ga, y0, gb, sa)[0]
                      for _ in range(n)])
    sb = make_stream(101, 1)
    single = np.array([kern.step(x0, ga, sb) for _ in range(n)])
    sc = make_stream(101, 2)
    single2 = np.array([kern.step(x0, ga, sc) for _ in range(n)])
    ma, mb, mc = (EmpiricalMeasure(v) for v in (first, single, single2))
    base = sliced_w1(mb, mc, 16, make_stream(101, 3)).cost
    gap = sliced_w1(ma, mb, 16, make_stream(101, 3)).cost
    assert gap <= 3.0 * base + 1e-3


# ------------------------------------------------------------------------ ULA

def test_ula_noiseless_formula():
    pot = quadratic_potential(np.eye(2))
    tun = LangevinTuning(np.eye(2), step=0.5)
    out = Ula(pot).step(np.array([2.0, -4.0]), tun, FixedStream())
    assert np.allclose(out, [1.0, -2.0])


def test_ula_step_size_window():
    pot = quadratic_potential(np.eye(2))       # alpha = beta = 1, h_max = 1/2
    with pytest.raises(StepSizeOutOfRange):
        Ula(pot).step(np.zeros(2), LangevinTuning(np.eye(2), step=0.6),
                      FixedStream())


def test_ula_coupled_contraction_deterministic():
    # quadratic V with spectrum [1, 4], h = 1/5 = 1/(alpha+beta):
    # |X1 - Y1|^2 <= (1 - 2 h a b/(a+b)) |x-y|^2 = 0.68 |x-y|^2, pathwise
    pot = quadratic_potential(np.diag([1.0, 4.0]))
    kern = Ula(pot)
    tun = LangevinTuning(np.eye(2), step=0.2)
    stream = make_stream(21, 0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(size=2) * 3
        y = rng.normal(size=2) * 3
        x1, y1 = coupled_step(kern, x, tun, y, tun, stream)
        lhs = float((x1 - y1) @ (x1 - y1))
        rhs = 0.68 * float((x - y) @ (x - y))
        assert lhs <= rhs + 1e-12


def test_ula_step_size_difference_drift_bound():
    # with shared noise the drift parts differ by (h - h') M grad(M x); for
    # a quadratic potential with minimum at 0 that is bounded by
    # |h' - h| beta |x| exactly, and the noise parts differ by
    # (sqrt(2h') - sqrt(2h)) z, which must be accounted separately
    pot = quadratic_potential(np.diag([1.0, 4.0]))
    kern = Ula(pot)
    m = np.eye(2)
    stream = make_stream(22, 0)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.normal(size=2) * 2
        h1, h2 = 0.05 + 0.15 * rng.uniform(size=2)
        t1 = LangevinTuning(m, step=float(h1))
        t2 = LangevinTuning(m, step=float(h2))
        x1, x2 = coupled_step(kern, x, t1, x, t2, stream)
        noise_gap = abs(math.sqrt(2 * t1.step) - math.sqrt(2 * t2.step))
        drift_gap = np.linalg.norm(x1 - x2) - 0.0
        bound = abs(t1.step - t2.step) * pot.lip_param * np.linalg.norm(x)
        # recover the shared z from either output to split the two parts
        z1 = (x1 - (x - t1.step * (m @ pot.gradient(m @ x)))) / math.sqrt(2 * t1.step)
        assert np.linalg.norm(x1 - x2) <= bound + noise_gap * np.linalg.norm(z1) + 1e-9
        # drift-only difference obeys the bound exactly
        d1 = x - t1.step * (m @ pot.gradient(m @ x))
        d2 = x - t2.step * (m @ pot.gradient(m @ x))
        assert np.linalg.norm(d1 - d2) <= bound + 1e-12


def test_ula_coupled_marginal_matches_single():
    pot = quadratic_potential(np.eye(2))
    kern = Ula(pot)
    t1 = LangevinTuning(np.eye(2), step=0.5)
    t2 = LangevinTuning(np.eye(2), step=0.25)
    x0 = np.array([1.0, 1.0])
    n = 20000
    sa = make_stream(102, 0)
    first = np.array([coupled_step(kern, x0, t1, x0, t2, sa)[0]
                      for _ in range(n)])
    sb = make_stream(102, 1)
    single = np.array([kern.step(x0, t1, sb) for _ in range(n)])
    sc = make_stream(102, 2)
    single2 = np.array([kern.step(x0, t1, sc) for _ in range(n)])
    ma, mb, mc = (EmpiricalMeasure(v) for v in (first, single, single2))
    base = sliced_w1(mb, mc, 16, make_stream(102, 3)).cost
    gap = sliced_w1(ma, mb, 16, make_stream(102, 3)).cost
    assert gap <= 3.0 * base + 1e-3


# ------------------------------------------------------------- DiffusionTime1

def test_diffusion_zero_drift_brownian():
    # alpha must be positive, so approximate the zero-drift case with a
    # vanishing quadratic; over [0,1] the increment is N(0, 2I) up to 1e-9
    pot = PotentialSpec(gradient=lambda x: 1e-9 * np.asarray(x),
                        convex_param=1e-9, lip_param=1e-9)
    kern = DiffusionTime1(pot, substeps=4)
    tun = MatrixScale(np.eye(2))
    stream = make_stream(31, 0)
    n = 10000
    incr = np.empty((n, 2))
    for i in range(n):
        incr[i] = kern.step(np.array([5.0, -3.0]), tun, stream) - [5.0, -3.0]
    assert np.abs(incr.mean(axis=0)).max() < 0.05
    cov = incr.T @ incr / n
    assert np.abs(cov - 2.0 * np.eye(2)).max() < 0.1


def test_diffusion_ou_moments_match_euler_closed_form():
    # V = |x|^2/2, M = I: the Euler chain is an exact AR(1), so its time-1
    # law has mean (1-dt)^n x and variance 2 dt (1-(1-dt)^{2n})/(1-(1-dt)^2)
    pot = quadratic_potential(np.eye(2))
    n_sub = 8
    kern = DiffusionTime1(pot, substeps=n_sub)
    tun = MatrixScale(np.eye(2))
    x0 = np.array([1.0, 2.0])
    dt = 1.0 / n_sub
    mean_t = (1 - dt) ** n_sub * x0
    var_t = 2 * dt * (1 - (1 - dt) ** (2 * n_sub)) / (1 - (1 - dt) ** 2)
    stream = make_stream(32, 0)
    n = 20000
    out = np.empty((n, 2))
    for i in range(n):
        out[i] = kern.step(x0, tun, stream)
    assert np.abs(out.mean(axis=0) - mean_t).max() < 0.03
    centered = out - out.mean(axis=0)
    assert np.abs(centered.T @ centered / n - var_t * np.eye(2)).max() < 0.05


@pytest.mark.parametrize("n_sub,tol", [(16, 0.05), (64, 0.02), (256, 0.005)])
def test_diffusion_euler_vs_exact_ou_w2(n_sub, tol):
    # closed-form Euler moments against the exact OU time-1 law; the gap
    # shrinks like 1/substeps
    x0 = np.array([1.0, 1.0])
    dt = 1.0 / n_sub
    mean_e = (1 - dt) ** n_sub * x0
    var_e = 2 * dt * (1 - (1 - dt) ** (2 * n_sub)) / (1 - (1 - dt) ** 2)
    mean_x = math.exp(-1.0) * x0
    var_x = 1 - math.exp(-2.0)
    gap = w2_gaussian(mean_e, var_e * np.eye(2), mean_x, var_x * np.eye(2))
    assert gap <= tol


def test_diffusion_coupled_contraction_approaches_rate():
    # coupled difference is deterministic: factor (1 - a/n)^n per Hessian
    # eigenvalue a, largest at a = alpha; increases toward e^{-alpha}
    pot = quadratic_potential(np.diag([1.0, 4.0]))
    tun = MatrixScale(np.eye(2))
    prev = 0.0
    for n_sub in (16, 64, 256):
        kern = DiffusionTime1(pot, substeps=n_sub)
        stream = make_stream(33, 0)
        worst = 0.0
        pairs = [(np.array([1.0, 0.0]), np.array([0.0, 0.0])),
                 (np.array([2.0, 3.0]), np.array([-1.0, 1.0]))]
        for x, y in pairs:
            x1, y1 = coupled_step(kern, x, tun, y, tun, stream)
            worst = max(worst, np.linalg.norm(x1 - y1) / np.linalg.norm(x - y))
        assert worst <= math.exp(-1.0) + 1e-12
        assert worst >= prev
        prev = worst
    assert math.exp(-1.0) - prev <= 0.002


# -------------------------------------------------------------- DiscreteRwm

def grid1d(n, lo=-2.0, hi=2.0):
    return np.linspace(lo, hi, n)


def test_rwm_flat_target_always_accepts():
    kern = DiscreteRwm(grid1d(9), lambda p: 1.0)
    tun = MatrixScale(np.eye(1) * 0.5)
    p = kern.transition_matrix(tun)
    prop, _ = kern._proposal(tun)
    off = ~np.eye(9, dtype=bool)
    assert np.allclose(p[off], prop[off], atol=1e-15)


def test_rwm_two_point_hand_matrix():
    pts = np.array([0.0, 1.0])
    f = np.array([1.0, 0.5])
    kern = DiscreteRwm(pts, f)
    m = 0.7
    tun = MatrixScale(np.eye(1) * m)
    q01 = math.exp(-0.5 * 1.0 / m)
    z = 1.0 + q01            # both rows share the same masked sum
    g01 = q01 / z
    expected = np.array([
        [1.0 - 0.5 * g01, 0.5 * g01],     # accept ratio f1/f0 = 0.5
        [g01, 1.0 - g01],                 # uphill move always accepted
    ])
    assert np.abs(kern.transition_matrix(tun) - expected).max() <= 1e-12


def test_rwm_rows_sum_to_one():
    kern = DiscreteRwm(grid1d(15), lambda p: math.exp(-float(p[0]) ** 2))
    p = kern.transition_matrix(MatrixScale(np.eye(1) * 0.3))
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


def test_rwm_exact_stationary_law_is_target():
    f = lambda p: math.exp(-0.5 * float(p[0]) ** 2)
    kern = DiscreteRwm(grid1d(20), f)
    tun = MatrixScale(np.eye(1) * 0.4)
    pi = kern.stationary_law(tun)
    target = kern.density / kern.density.sum()
    assert np.abs(pi - target).max() <= 1e-10


def test_rwm_stationary_law_ignores_absorbing_zero_density_state():
    # the zero-density state is parked in place, so eigenvalue 1 is double;
    # the law must still be the target, not a point mass on that state
    kern = DiscreteRwm(grid1d(5), np.array([1.0, 0.0, 1.0, 2.0, 1.0]))
    pi = kern.stationary_law(MatrixScale(np.eye(1) * 0.5))
    assert np.array_equal(pi, np.array([1.0, 0.0, 1.0, 2.0, 1.0]) / 5.0)


def test_rwm_stationary_law_checks_residual(monkeypatch):
    kern = DiscreteRwm(grid1d(3), np.array([1.0, 2.0, 1.0]))
    monkeypatch.setattr(kern, "transition_matrix",
                        lambda tuning: np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(Error, match="residual"):
        kern.stationary_law(MatrixScale(np.eye(1) * 0.5))


def test_rwm_detailed_balance():
    f = lambda p: math.exp(-abs(float(p[0])))
    kern = DiscreteRwm(grid1d(12), f)
    tun = MatrixScale(np.eye(1) * 0.6)
    p = kern.transition_matrix(tun)
    target = kern.density / kern.density.sum()
    flux = target[:, None] * p
    assert np.abs(flux - flux.T).max() <= 1e-14


def test_rwm_dobrushin_below_one():
    kern = DiscreteRwm(grid1d(10), lambda p: 1.0 + float(p[0]) ** 2)
    coef = kern.dobrushin_coefficient(MatrixScale(np.eye(1) * 0.8))
    assert 0.0 < coef < 1.0


def test_rwm_zero_density_state_raises():
    f = np.array([1.0, 0.0, 1.0, 1.0])
    kern = DiscreteRwm(grid1d(4), f)
    with pytest.raises(ZeroDensity):
        kern.step(1, MatrixScale(np.eye(1) * 0.5), make_stream(0, 0))


def test_rwm_degenerate_proposal_rejected():
    # trunc_tol large enough to sever all off-diagonal proposals
    pts = np.array([0.0, 100.0])
    with pytest.raises(Error):
        kern = DiscreteRwm(pts, np.array([1.0, 1.0]), trunc_tol=1e-3)
        kern.transition_matrix(MatrixScale(np.eye(1) * 0.5))


def test_rwm_step_index_domain():
    kern = DiscreteRwm(grid1d(5), lambda p: 1.0)
    with pytest.raises(DomainError):
        kern.step(7, MatrixScale(np.eye(1) * 0.5), make_stream(0, 0))


def test_rwm_coupled_diagonal_matches_single_path():
    f = lambda p: math.exp(-0.5 * float(p[0]) ** 2)
    kern = DiscreteRwm(grid1d(11), f)
    tun = MatrixScale(np.eye(1) * 0.5)
    s1 = make_stream(55, 0)
    s2 = make_stream(55, 0)
    i = 4
    for _ in range(200):
        a = kern.step(i, tun, s1)
        b, c = kern.coupled_step(i, tun, i, tun, s2)
        assert a == b == c
        i = a


def test_rwm_occupation_matches_stationary():
    f = lambda p: math.exp(-0.5 * float(p[0]) ** 2)
    kern = DiscreteRwm(grid1d(10), f)
    tun = MatrixScale(np.eye(1) * 0.9)
    stream = make_stream(56, 0)
    n = 100000
    counts = np.zeros(10)
    i = 0
    for _ in range(n):
        i = kern.step(i, tun, stream)
        counts[i] += 1
    occ = counts / n
    pi = kern.stationary_law(tun)
    # 3 sigma with a crude iid error model, plus slack for autocorrelation
    err = 3.0 * np.sqrt(pi * (1 - pi) / n) * 4.0 + 1e-3
    assert np.all(np.abs(occ - pi) <= err)


# ------------------------------------------------------------- coupled_step

def test_coupled_identical_inputs_identical_outputs():
    cases = [
        (DiscreteAr(), 0.42, DiscreteBase(3)),
        (GaussianAr(PsdMatrix.identity(2)), np.array([1.0, 2.0]), ArCoef(0.5)),
        (Ula(quadratic_potential(np.eye(2))), np.array([0.5, 0.5]),
         LangevinTuning(np.eye(2), step=0.4)),
        (DiffusionTime1(quadratic_potential(np.eye(2)), substeps=4),
         np.array([1.0, 0.0]), MatrixScale(np.eye(2))),
    ]
    for kern, x, tun in cases:
        a, b = coupled_step(kern, x, tun, x, tun, make_stream(66, 1))
        assert np.allclose(a, b)


def test_coupled_variant_mismatch():
    kern = GaussianAr(PsdMatrix.identity(2))
    with pytest.raises(VariantMismatch):
        coupled_step(kern, np.zeros(2), ArCoef(0.5), np.zeros(2),
                     DiscreteBase(2), make_stream(0, 0))
    with pytest.raises(VariantMismatch):
        step(DiscreteAr(), 0.5, ArCoef(0.5), make_stream(0, 0))


def _family_cases():
    pot = quadratic_potential(np.diag([1.0, 4.0]))
    rwm = DiscreteRwm(grid1d(11), lambda p: math.exp(-float(p[0]) ** 2))
    return [
        (DiscreteAr(), 0.3, DiscreteBase(3), 0.7, DiscreteBase(5)),
        (GaussianAr(psd_sqrt(np.array([[1.5, 0.2], [0.2, 0.7]]))),
         np.array([1.0, -1.0]), ArCoef(0.7),
         np.array([0.2, 0.3]), ArCoef(0.4)),
        (rwm, 3, MatrixScale(np.eye(1) * 0.5),
         8, MatrixScale(np.eye(1) * 0.2)),
        (Ula(pot), np.array([1.0, 2.0]), LangevinTuning(np.eye(2), step=0.2),
         np.array([-1.0, 0.5]), LangevinTuning(np.eye(2) * 0.5, step=0.1)),
        (DiffusionTime1(pot, substeps=4), np.array([1.0, 2.0]),
         MatrixScale(np.eye(2)), np.array([-1.0, 0.5]),
         MatrixScale(np.eye(2) * 0.5)),
    ]


@pytest.mark.parametrize("case", _family_cases(),
                         ids=lambda c: type(c[0]).__name__)
def test_coupled_outputs_are_single_steps_bit_for_bit(case):
    # each coupled output is the single step on a stream with the same key
    kern, x0, tx, y0, ty = case
    sc, sx, sy = make_stream(71, 5), make_stream(71, 5), make_stream(71, 5)
    x, y, xs, ys = x0, y0, x0, y0
    for _ in range(50):
        x, y = kern.coupled_step(x, tx, y, ty, sc)
        xs = kern.step(xs, tx, sx)
        ys = kern.step(ys, ty, sy)
        assert np.asarray(x).tobytes() == np.asarray(xs).tobytes()
        assert np.asarray(y).tobytes() == np.asarray(ys).tobytes()


@pytest.mark.parametrize("kern,good,bad,tun,err", [
    (DiscreteRwm(grid1d(4), lambda p: 1.0), 1, -1,
     MatrixScale(np.eye(1) * 0.5), DomainError),
    (DiscreteAr(), 0.5, 1.5, DiscreteBase(2), DomainError),
    (GaussianAr(PsdMatrix.identity(2)), np.zeros(2), 0.5, ArCoef(0.5),
     DimensionMismatch),
], ids=["rwm-index", "discrete-ar-domain", "gaussian-ar-scalar"])
def test_coupled_step_checks_states_like_step(kern, good, bad, tun, err):
    with pytest.raises(err):
        kern.step(bad, tun, make_stream(0, 0))
    with pytest.raises(err):
        kern.coupled_step(bad, tun, good, tun, make_stream(0, 0))
    with pytest.raises(err):
        kern.coupled_step(good, tun, bad, tun, make_stream(0, 0))


@pytest.mark.parametrize("case", _family_cases(),
                         ids=lambda c: type(c[0]).__name__)
def test_block_noise_equals_single_draws_bit_for_bit(case):
    # draw_noise(size=T) is T single draws, and applying its rows one
    # after another is T calls of step
    kern, x0, tuning = case[:3]
    blk, one, path = make_stream(72, 3), make_stream(72, 3), make_stream(72, 3)
    block = kern.draw_noise(blk, tuning, size=40)
    assert len(block) == 40
    x, xs = x0, x0
    for row in block:
        single = kern.draw_noise(one, tuning)
        assert np.asarray(row).tobytes() == np.asarray(single).tobytes()
        x = kern.apply(x, tuning, row)
        xs = kern.step(xs, tuning, path)
        assert np.asarray(x).tobytes() == np.asarray(xs).tobytes()
    assert blk.uniform() == one.uniform()


@pytest.mark.parametrize("case", _family_cases(),
                         ids=lambda c: type(c[0]).__name__)
def test_frozen_path_equals_steps_across_blocks(case, monkeypatch):
    # blocks of 3 steps: a 10-step path crosses three block boundaries
    import adaptmc.kernels as kernels
    monkeypatch.setattr(kernels, "BLOCK_STEPS", 3)
    kern, x0, tuning = case[:3]
    sp, ss = make_stream(73, 1), make_stream(73, 1)
    path = list(kern.frozen_path(x0, tuning, sp, 10))
    xs, want = x0, []
    for _ in range(10):
        xs = kern.step(xs, tuning, ss)
        want.append(xs)
    assert [np.asarray(p).tobytes() for p in path] \
        == [np.asarray(w).tobytes() for w in want]
    assert sp.uniform() == ss.uniform()
    assert list(kern.frozen_path(x0, tuning, sp, 0)) == []


def test_frozen_path_checks_variant():
    with pytest.raises(VariantMismatch):
        list(DiscreteAr().frozen_path(0.5, ArCoef(0.5), make_stream(0, 0), 3))
    # like zero calls of step, a zero-step path checks nothing
    assert list(DiscreteAr().frozen_path(0.5, ArCoef(0.5),
                                         make_stream(0, 0), 0)) == []
