import numpy as np
import pytest

from adaptmc.adaptation import (DeterministicStepSchedule,
                                DiminishingContinuous, DiminishingDiscrete,
                                FiniteAdaptation, HistorySummary,
                                RestrictedSet, matrix_moment_matching,
                                reads_moments, toward_gamma)
from adaptmc.core import make_stream
from adaptmc.errors import Error
from adaptmc.kernels import (ArCoef, DiscreteAr, DiscreteBase, DiscreteRwm,
                             GaussianAr, LangevinTuning, MatrixScale, Ula,
                             quadratic_potential)
from adaptmc.process import (AdaptiveTrajectory, iterate_adaptive,
                             run_adaptive, run_ensemble)


def dbase(*gs):
    return tuple(DiscreteBase(g) for g in gs)


def harmonic(t):
    return 1.0 / (t + 1.0)


def test_zero_horizon_is_initialization():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 3, 4), prob=harmonic)
    traj = run_adaptive(kern, pol, (DiscreteBase(2), 0.3), 0,
                        make_stream(1, 0))
    assert len(traj) == 1
    assert traj.horizon == 0
    assert traj.states[0] == 0.3
    assert traj.tunings[0] == DiscreteBase(2)


def test_replay_is_bit_exact():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 3, 4, 8), prob=harmonic)
    init = (DiscreteBase(2), 0.125)
    a = run_adaptive(kern, pol, init, 300, make_stream(9, 5))
    b = run_adaptive(kern, pol, init, 300, make_stream(9, 5))
    assert a.states == b.states
    assert a.tunings == b.tunings
    assert a.seed == 9 and a.stream_id == 5


def test_length_invariant():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 3), prob=harmonic)
    for horizon in (1, 7, 40):
        traj = run_adaptive(kern, pol, (DiscreteBase(3), 0.0), horizon,
                            make_stream(2, 0))
        assert len(traj.states) == horizon + 1
        assert len(traj.tunings) == horizon + 1


def test_callable_init_draws_from_stream():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 3), prob=harmonic)

    def init(stream):
        return DiscreteBase(2), stream.uniform()

    a = run_adaptive(kern, pol, init, 5, make_stream(3, 0))
    b = run_adaptive(kern, pol, init, 5, make_stream(3, 0))
    assert a.states == b.states
    # a different key gives a different initial point
    c = run_adaptive(kern, pol, init, 5, make_stream(3, 1))
    assert c.states[0] != a.states[0]


def test_finite_adaptation_prefix_agrees_bit_for_bit():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 3, 4, 8), prob=harmonic)
    init = (DiscreteBase(2), 0.7)
    t_stop = 60
    full = run_adaptive(kern, pol, init, 200, make_stream(11, 0))
    twin = run_adaptive(kern, FiniteAdaptation(t_stop, pol), init, 200,
                        make_stream(11, 0))
    assert len(twin) == 201
    assert twin.states[:t_stop + 1] == full.states[:t_stop + 1]
    assert twin.tunings[:t_stop + 1] == full.tunings[:t_stop + 1]
    # frozen tail: tuning never moves again
    assert all(g == twin.tunings[t_stop] for g in twin.tunings[t_stop:])
    assert twin.states != full.states


def test_t_stop_at_or_past_horizon_changes_nothing():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 5), prob=harmonic)
    init = (DiscreteBase(2), 0.2)
    full = run_adaptive(kern, pol, init, 80, make_stream(4, 0))
    for t_stop in (80, 200):
        twin = run_adaptive(kern, FiniteAdaptation(t_stop, pol), init, 80,
                            make_stream(4, 0))
        assert twin.states == full.states
        assert twin.tunings == full.tunings


def test_t_stop_zero_is_plain_markov_chain():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 3, 4), prob=harmonic)
    init = (DiscreteBase(4), 0.9)
    twin = run_adaptive(kern, FiniteAdaptation(0, pol), init, 50,
                        make_stream(7, 0))
    assert all(g == DiscreteBase(4) for g in twin.tunings)
    # same draws as a hand-rolled non-adaptive loop on a fresh stream
    stream = make_stream(7, 0)
    x = 0.9
    for t in range(1, 51):
        x = kern.step(x, DiscreteBase(4), stream)
        assert twin.states[t] == x


def test_resume_from_stream_snapshot():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 3, 4, 8), prob=harmonic)
    init = (DiscreteBase(2), 0.5)
    whole = run_adaptive(kern, pol, init, 100, make_stream(21, 0))

    stream = make_stream(21, 0)
    from adaptmc.adaptation import HistorySummary
    tuning, state = init
    hist = HistorySummary.start(tuning, state)
    for _ in iterate_adaptive(kern, pol, None, 50, stream, hist=hist):
        pass
    snap = stream.state()
    frozen_hist_t = hist.t

    resumed = make_stream(21, 0)
    resumed.set_state(snap)
    tail = [state for _, _, state in
            iterate_adaptive(kern, pol, None, 50, resumed, hist=hist)]
    assert hist.t == frozen_hist_t + 50
    assert tail == whole.states[51:]


def test_restricted_set_freezes_outside_region():
    cov = np.diag([1.0, 1.0])
    kern = GaussianAr(cov)
    pol = RestrictedSet(DiminishingContinuous(harmonic, toward_gamma(0.9)),
                        radius=0.8)
    init = (ArCoef(0.5), np.zeros(2))
    traj = run_adaptive(kern, pol, init, 400, make_stream(17, 0))
    saw_frozen = saw_moved = False
    for t in range(traj.horizon):
        if np.linalg.norm(traj.states[t]) > 0.8:
            assert traj.tunings[t + 1] == traj.tunings[t]
            saw_frozen = True
        elif traj.tunings[t + 1] != traj.tunings[t]:
            saw_moved = True
    assert saw_frozen and saw_moved
    assert traj.verify_freeze(pol)


def test_restricted_set_reads_grid_coordinates():
    # on a grid chain the set is tested at the grid point, not the index:
    # the inner policy runs exactly at the steps whose point lies in S
    grid = np.linspace(0.0, 2.0, 41)
    kern = DiscreteRwm(grid, lambda x: float(np.exp(-0.5 * np.dot(x, x))))
    calls = []

    class Recorder:
        def __init__(self, inner):
            self.inner = inner

        def propose(self, hist, stream):
            calls.append(hist.t)
            return self.inner.propose(hist, stream)

    pol = RestrictedSet(Recorder(DiminishingContinuous(
        harmonic, matrix_moment_matching(0.05))), radius=1.0)
    init = (MatrixScale(np.eye(1), eig_min=0.05), 10)
    traj = run_adaptive(kern, pol, init, 300, make_stream(1, 0))
    inside = [t for t in range(traj.horizon)
              if abs(grid[traj.states[t]]) <= 1.0]
    assert calls == inside
    assert any(s > 1 for s in traj.states[:-1] if abs(grid[s]) <= 1.0)
    assert traj.verify_freeze(pol)


def test_verify_freeze_catches_a_doctored_trajectory():
    traj = AdaptiveTrajectory(
        seed=0, stream_id=0,
        tunings=[DiscreteBase(2), DiscreteBase(3)],
        states=[0.1, 0.2])
    pol = DiminishingDiscrete(candidates=dbase(2, 3), prob=harmonic)
    assert traj.verify_freeze(pol)
    assert not traj.verify_freeze(FiniteAdaptation(0, pol))


def test_ensemble_point_init_checkpoint_zero():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 3), prob=harmonic)
    secs = run_ensemble(kern, pol, (DiscreteBase(2), 0.25), 10, 16,
                        [0, 10], make_stream(5, 0))
    assert [s.t for s in secs] == [0, 10]
    first = secs[0].measure
    assert first.support_size == 16
    assert np.all(first.points == 0.25)
    assert np.allclose(first.weights, 1.0 / 16)
    assert secs[1].replicas == 16


def test_ensemble_replica_depends_only_on_seed_and_index():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 3, 4), prob=harmonic)
    init = (DiscreteBase(2), 0.6)
    secs = run_ensemble(kern, pol, init, 30, 8, [30], make_stream(33, 0))
    # replica 3 reproduced by a standalone run on the (seed, 3) stream
    solo = run_adaptive(kern, pol, init, 30, make_stream(33, 3))
    assert secs[0].measure.points[3, 0] == solo.states[30]


def test_rwm_moment_matching_reads_grid_coordinates():
    # the grid over [0, 2] has coordinate variance near 0.25 under pi, so
    # the clipped precision is 1; in index units (variance near 100) it
    # would sit at eig_min
    grid = np.linspace(0.0, 2.0, 41)
    kern = DiscreteRwm(grid, lambda x: float(np.exp(-0.5 * np.dot(x, x))))
    pol = DiminishingContinuous(harmonic, matrix_moment_matching(0.05))
    init = (MatrixScale(np.eye(1), eig_min=0.05), 10)
    traj = run_adaptive(kern, pol, init, 500, make_stream(1, 0))
    assert traj.tunings[-1].matrix.entries[0, 0] == 1.0


def test_ensemble_gaussian_cross_section_mean():
    # frozen gamma, t far past mixing: per-coordinate mean of the
    # cross-section is within 3 sqrt(tr C)/sqrt(R) of zero
    cov = np.array([[1.5, 0.3], [0.3, 0.5]])
    from adaptmc.core import psd_sqrt
    kern = GaussianAr(psd_sqrt(cov))
    pol = FiniteAdaptation(0)
    init = (ArCoef(0.5), np.array([3.0, -2.0]))
    replicas = 500
    secs = run_ensemble(kern, pol, init, 40, replicas, [40],
                        make_stream(101, 0))
    mean = secs[0].measure.mean()
    tol = 3.0 * np.sqrt(np.trace(cov)) / np.sqrt(replicas)
    assert np.all(np.abs(mean) < tol)


def test_ensemble_argument_validation():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 3), prob=harmonic)
    init = (DiscreteBase(2), 0.1)
    with pytest.raises(ValueError):
        run_ensemble(kern, pol, init, 10, 1, [0], make_stream(1, 0))
    with pytest.raises(ValueError):
        run_ensemble(kern, pol, init, 10, 4, [11], make_stream(1, 0))
    with pytest.raises(ValueError):
        FiniteAdaptation(-1, pol)


class _Opaque:
    """A policy that declares nothing, so every run of it keeps moments."""

    def __init__(self, inner):
        self.inner = inner

    def propose(self, hist, stream):
        return self.inner.propose(hist, stream)


def _tuning_bytes(tuning):
    # PsdMatrix has no value equality: compare its bytes, other fields' reprs
    return [v.entries.tobytes() if hasattr(v, "entries") else repr(v)
            for v in vars(tuning).values()]


def _rwm():
    grid = np.linspace(-2.0, 2.0, 21)
    return DiscreteRwm(grid, np.exp(-0.5 * grid ** 2))


def _policy_cases():
    mm = DiminishingContinuous(harmonic, matrix_moment_matching())
    rwm_init = (MatrixScale(np.eye(1) * 0.5), 4)
    return [
        (DiscreteAr(), DiminishingDiscrete(dbase(2, 3, 4), prob=harmonic),
         (DiscreteBase(2), 0.3)),
        (GaussianAr(np.eye(2)),
         DiminishingContinuous(harmonic, toward_gamma(0.9)),
         (ArCoef(0.5), np.array([1.0, -1.0]))),
        (_rwm(), mm, rwm_init),
        (Ula(quadratic_potential(np.diag([1.0, 2.0]))),
         DeterministicStepSchedule(np.eye(2), 0.3, 0.1),
         (LangevinTuning(np.eye(2), step=0.3, step_min=0.1),
          np.array([1.0, 2.0]))),
        (_rwm(), FiniteAdaptation(60, base=mm), rwm_init),
        (_rwm(), RestrictedSet(mm, radius=1.0), rwm_init),
    ]


@pytest.mark.parametrize("case", _policy_cases(), ids=[
    "discrete", "toward-gamma", "moment-matching", "step-schedule",
    "finite-moments", "restricted-moments"])
def test_lazy_moments_run_is_bit_identical(case, monkeypatch):
    kern, pol, init = case
    made = []
    start = HistorySummary.start.__func__

    def recording_start(cls, *args, **kwargs):
        made.append(start(cls, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(HistorySummary, "start", classmethod(recording_start))
    lazy = run_adaptive(kern, pol, init, 150, make_stream(31, 2))
    full = run_adaptive(kern, _Opaque(pol), init, 150, make_stream(31, 2))
    assert [h.mean is None for h in made] == [not reads_moments(pol), False]
    assert [np.asarray(x).tobytes() for x in lazy.states] \
        == [np.asarray(x).tobytes() for x in full.states]
    assert [_tuning_bytes(g) for g in lazy.tunings] \
        == [_tuning_bytes(g) for g in full.tunings]


def test_continued_history_needs_moments_for_readers():
    kern = _rwm()
    pol = DiminishingContinuous(harmonic, matrix_moment_matching())
    hist = HistorySummary.start(MatrixScale(np.eye(1) * 0.5), 4,
                                point=kern.grid[4], moments=False)
    with pytest.raises(Error, match="moments"):
        next(iterate_adaptive(kern, pol, None, 10, make_stream(3, 0),
                              hist=hist))
    # a policy that reads no moments continues a moment-free history
    lazy = HistorySummary.start(DiscreteBase(2), 0.3, moments=False)
    pol = DiminishingDiscrete(dbase(2, 3), prob=harmonic)
    steps = list(iterate_adaptive(DiscreteAr(), pol, None, 10,
                                  make_stream(3, 0), hist=lazy))
    assert len(steps) == 10 and lazy.t == 10 and lazy.mean is None
