import numpy as np
import pytest

from adaptmc.adaptation import (DeterministicStepSchedule, DiminishingContinuous,
                                DiminishingDiscrete, FiniteAdaptation,
                                HistorySummary, RestrictedSet, adapt,
                                matrix_moment_matching, reads_moments,
                                toward_gamma)
from adaptmc.core import PsdMatrix, make_stream
from adaptmc.errors import Error, VariantMismatch
from adaptmc.kernels import (ArCoef, DiscreteBase, LangevinTuning, MatrixScale)


def test_history_summary_exact_moments():
    rng = np.random.default_rng(0)
    states = rng.normal(size=(40, 2))
    hist = HistorySummary.start(ArCoef(0.5), states[0])
    for s in states[1:]:
        hist.advance(ArCoef(0.5), s)
    assert hist.t == 39
    assert np.allclose(hist.mean, states.mean(axis=0))
    outer = np.einsum("ni,nj->ij", states, states) / 40
    assert np.allclose(hist.second_moment, outer)


def test_history_summary_without_moments_tracks_position():
    hist = HistorySummary.start(DiscreteBase(2), 0.1, moments=False)
    hist.advance(DiscreteBase(3), 0.4, point=0.5)
    assert (hist.t, hist.state, hist.point) == (1, 0.4, 0.5)
    assert hist.tuning == DiscreteBase(3)
    assert hist.mean is None and hist.second_moment is None
    with pytest.raises(Error, match="moments"):
        matrix_moment_matching()(hist)


def _discrete():
    return DiminishingDiscrete([DiscreteBase(2), DiscreteBase(3)],
                               prob=lambda t: 0.5)


def _moment_matching():
    return DiminishingContinuous(lambda t: 0.5, matrix_moment_matching())


@pytest.mark.parametrize("make,reads", [
    (_discrete, False),
    (lambda: DiminishingContinuous(lambda t: 0.5, toward_gamma(0.9)), False),
    (_moment_matching, True),
    (lambda: DeterministicStepSchedule(np.eye(2), 0.2, 0.1), False),
    (lambda: FiniteAdaptation(5), False),
    (lambda: FiniteAdaptation(5, base=_discrete()), False),
    (lambda: FiniteAdaptation(5, base=_moment_matching()), True),
    (lambda: RestrictedSet(_discrete(), radius=1.0), False),
    (lambda: RestrictedSet(_moment_matching(), radius=1.0), True),
    (lambda: RestrictedSet(FiniteAdaptation(5, base=_moment_matching()),
                           radius=1.0), True),
], ids=["discrete", "toward-gamma", "moment-matching", "step-schedule",
        "frozen", "finite-discrete", "finite-moments", "restricted-discrete",
        "restricted-moments", "restricted-finite-moments"])
def test_policies_declare_whether_they_read_moments(make, reads):
    # the wrappers forward their inner policy's declaration both ways
    assert reads_moments(make()) is reads


def test_undeclared_policies_and_directions_read_moments():
    class UserPolicy:
        def propose(self, hist, stream):
            return hist.tuning

    assert reads_moments(UserPolicy())
    assert reads_moments(DiminishingContinuous(lambda t: 0.5,
                                               lambda hist: ArCoef(0.5)))


# ------------------------------------------------------------------ freezing

def test_finite_adaptation_frozen_past_t_stop():
    base = DiminishingDiscrete([DiscreteBase(2), DiscreteBase(3)],
                               prob=lambda t: 1.0)
    pol = FiniteAdaptation(5, base=base)
    hist = HistorySummary.start(DiscreteBase(2), 0.1)
    hist.t = 7
    stream = make_stream(1, 0)
    out = adapt(pol, hist, stream)
    assert out is hist.tuning          # frozen exactly, same object
    assert stream.calls == 0           # and no randomness consumed


def test_finite_adaptation_active_before_t_stop():
    base = DiminishingDiscrete([DiscreteBase(9)], prob=lambda t: 1.0)
    pol = FiniteAdaptation(5, base=base)
    hist = HistorySummary.start(DiscreteBase(2), 0.1)
    hist.t = 3
    assert adapt(pol, hist, make_stream(1, 0)) == DiscreteBase(9)


def test_restricted_set_freezes_outside_radius():
    base = DiminishingDiscrete([DiscreteBase(9)], prob=lambda t: 1.0)
    pol = RestrictedSet(base, radius=2.0)
    hist = HistorySummary.start(DiscreteBase(2), np.array([3.0, 0.0]))
    stream = make_stream(2, 0)
    assert adapt(pol, hist, stream) is hist.tuning
    assert stream.calls == 0
    inside = HistorySummary.start(DiscreteBase(2), np.array([1.0, 0.0]))
    assert adapt(pol, inside, make_stream(2, 0)) == DiscreteBase(9)


def test_restricted_set_predicate_form():
    base = DiminishingDiscrete([DiscreteBase(9)], prob=lambda t: 1.0)
    pol = RestrictedSet(base, predicate=lambda x: float(x) < 0.5)
    hist = HistorySummary.start(DiscreteBase(2), 0.9)
    assert adapt(pol, hist, make_stream(0, 0)) is hist.tuning


# --------------------------------------------------------------- discrete rule

def test_diminishing_discrete_change_rate_matches_bernoulli():
    # p_t = 1/(t+1) and a uniform re-draw over 3 candidates that includes
    # the current value: change probability is p_t * 2/3
    cands = [DiscreteBase(2), DiscreteBase(3), DiscreteBase(5)]
    pol = DiminishingDiscrete(cands, prob=lambda t: 1.0 / (t + 1))
    changed = np.zeros((64, 1250))
    stream = make_stream(42, 0)
    for r in range(64):
        sub = stream.substream(r)
        hist = HistorySummary.start(DiscreteBase(2), 0.0, moments=False)
        for t in range(1250):
            new = adapt(pol, hist, sub)
            changed[r, t] = new != hist.tuning
            hist.advance(new, 0.0)
    window = slice(800, 1250)
    est = changed[:, window].mean()
    ts = np.arange(1250)[window]
    oracle = (1.0 / (ts + 1) * (2.0 / 3.0)).mean()
    n_eff = 64 * (1250 - 800)
    sigma = np.sqrt(oracle * (1 - oracle) / n_eff)
    assert abs(est - oracle) <= 3.0 * sigma


def test_diminishing_discrete_variant_check():
    pol = DiminishingDiscrete([DiscreteBase(2)], prob=lambda t: 0.5)
    hist = HistorySummary.start(ArCoef(0.5), 0.0)
    with pytest.raises(VariantMismatch):
        adapt(pol, hist, make_stream(0, 0))


# ------------------------------------------------------------ continuous rule

def test_moment_matching_direction_projects_precision():
    # states drawn from N(0, diag(4, 0.25)): precision diag(0.25, 4)
    # projects onto the box [0.05, 1] as diag(0.25, 1)
    rng = np.random.default_rng(3)
    states = rng.normal(size=(20000, 2)) * np.array([2.0, 0.5])
    hist = HistorySummary.start(MatrixScale(np.eye(2) * 0.5), states[0])
    for s in states[1:]:
        hist.advance(hist.tuning, s)
    target = matrix_moment_matching(eig_min=0.05)(hist)
    w = np.sort(target.matrix.eigenvalues())
    assert abs(w[0] - 0.25) < 0.02
    assert abs(w[1] - 1.0) < 1e-9


def test_diminishing_continuous_blend_and_clip():
    pol = DiminishingContinuous(step_sizes=lambda t: 0.5,
                                direction=toward_gamma(0.85, gamma_max=0.9))
    hist = HistorySummary.start(ArCoef(0.5, gamma_max=0.9), 0.0)
    out = adapt(pol, hist, make_stream(0, 0))
    # halfway toward 0.85, inside the box: no clipping
    assert out.gamma == pytest.approx(0.5 + 0.5 * (0.85 - 0.5))
    # a tighter box on the current tuning clips the same move at its edge
    tight = HistorySummary.start(ArCoef(0.5, gamma_max=0.6), 0.0)
    clipped = adapt(pol, tight, make_stream(0, 0))
    assert clipped.gamma == 0.6


def test_diminishing_continuous_matrix_stays_in_box():
    pol = DiminishingContinuous(
        step_sizes=lambda t: 1.0 / (t + 1),
        direction=matrix_moment_matching(eig_min=0.1))
    hist = HistorySummary.start(MatrixScale(np.eye(2) * 0.5, eig_min=0.1),
                                np.zeros(2))
    rng = np.random.default_rng(5)
    for _ in range(50):
        new = adapt(pol, hist, make_stream(0, 0))
        hist.advance(new, rng.normal(size=2) * 3.0)
        w = new.matrix.eigenvalues()
        assert w[0] >= 0.1 - 1e-12
        assert w[-1] <= 1.0 + 1e-12


def test_diminishing_continuous_rejects_discrete():
    pol = DiminishingContinuous(step_sizes=lambda t: 0.1,
                                direction=toward_gamma(0.5))
    hist = HistorySummary.start(DiscreteBase(2), 0.0)
    with pytest.raises(VariantMismatch):
        adapt(pol, hist, make_stream(0, 0))


# -------------------------------------------------------------- step schedule

def test_step_schedule_formula_and_monotone_gap():
    sched = DeterministicStepSchedule(np.eye(2), h0=0.2, h_limit=0.05)
    hs = np.array([sched.tuning_at(t).step for t in range(1000)])
    assert hs[0] == pytest.approx(0.2)
    gaps = np.abs(hs - 0.05)
    assert np.all(np.diff(gaps) <= 1e-15)
    assert gaps[-1] < 2e-4


def test_step_schedule_propose_advances_time():
    sched = DeterministicStepSchedule(np.eye(2), h0=0.2, h_limit=0.05)
    hist = HistorySummary.start(sched.tuning_at(0), np.zeros(2))
    hist.t = 9
    out = adapt(sched, hist, make_stream(0, 0))
    assert out.step == pytest.approx(sched.tuning_at(10).step)


def test_step_schedule_variant_check():
    sched = DeterministicStepSchedule(np.eye(2), h0=0.2, h_limit=0.05)
    hist = HistorySummary.start(ArCoef(0.5), np.zeros(2))
    with pytest.raises(VariantMismatch):
        adapt(sched, hist, make_stream(0, 0))


def test_adapt_rejects_variant_switch():
    class Bogus:
        def propose(self, hist, stream):
            return ArCoef(0.5)

    hist = HistorySummary.start(DiscreteBase(2), 0.0)
    with pytest.raises(VariantMismatch):
        adapt(Bogus(), hist, make_stream(0, 0))
