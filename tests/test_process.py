import numpy as np
import pytest

from adaptmc.adaptation import (DiminishingContinuous, DiminishingDiscrete,
                                FiniteAdaptation, RestrictedSet,
                                matrix_moment_matching, toward_gamma)
from adaptmc.core import make_stream
from adaptmc.kernels import (ArCoef, DiscreteAr, DiscreteBase, DiscreteRwm,
                             GaussianAr, MatrixScale)
from adaptmc.process import (AdaptiveTrajectory, iterate_adaptive,
                             run_adaptive, run_ensemble,
                             run_finite_adaptation)


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
    twin = run_finite_adaptation(kern, pol, init, t_stop, 140,
                                 make_stream(11, 0))
    assert len(twin) == 201
    assert twin.states[:t_stop + 1] == full.states[:t_stop + 1]
    assert twin.tunings[:t_stop + 1] == full.tunings[:t_stop + 1]
    # frozen tail: tuning never moves again
    assert all(g == twin.tunings[t_stop] for g in twin.tunings[t_stop:])
    assert twin.t_stop == t_stop


def test_t_stop_at_or_past_horizon_changes_nothing():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 5), prob=harmonic)
    init = (DiscreteBase(2), 0.2)
    full = run_adaptive(kern, pol, init, 80, make_stream(4, 0))
    twin = run_finite_adaptation(kern, pol, init, 80, 0, make_stream(4, 0))
    assert twin.states == full.states
    assert twin.tunings == full.tunings


def test_t_stop_zero_is_plain_markov_chain():
    kern = DiscreteAr()
    pol = DiminishingDiscrete(candidates=dbase(2, 3, 4), prob=harmonic)
    init = (DiscreteBase(4), 0.9)
    twin = run_finite_adaptation(kern, pol, init, 0, 50, make_stream(7, 0))
    assert all(g == DiscreteBase(4) for g in twin.tunings)
    # same draws as a hand-rolled non-adaptive loop on a fresh stream
    stream = make_stream(7, 0)
    x = 0.9
    for t in range(1, 51):
        x = kern.step(x, DiscreteBase(4), stream)
        assert twin.states[t] == x


def test_finite_policy_object_matches_t_stop_runner():
    # a FiniteAdaptation policy inside run_adaptive and the t_stop runner
    # freeze the same way and consume the same randomness
    kern = DiscreteAr()
    base = DiminishingDiscrete(candidates=dbase(2, 3, 4), prob=harmonic)
    init = (DiscreteBase(2), 0.4)
    via_policy = run_adaptive(kern, FiniteAdaptation(25, base), init, 100,
                              make_stream(13, 0))
    via_runner = run_finite_adaptation(kern, base, init, 25, 75,
                                       make_stream(13, 0))
    assert via_policy.states == via_runner.states
    assert via_policy.tunings == via_runner.tunings


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
        states=[0.1, 0.2], t_stop=0)
    pol = DiminishingDiscrete(candidates=dbase(2, 3), prob=harmonic)
    assert not traj.verify_freeze(pol)


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
        run_finite_adaptation(kern, pol, init, -1, 5, make_stream(1, 0))
