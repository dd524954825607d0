"""Trajectory runners: adaptive chains, finite-adaptation twins, ensembles.

The joint update order matters and is fixed here once for every caller:
at step t the tuning moves first (G_t from the policy, given history
through t-1), then the state moves under the freshly drawn tuning
(X_t ~ P_{G_t}(X_{t-1}, .)).  A finite-adaptation run executes the same
code, draw for draw, until its stop time, then keeps the tuning frozen and
consumes no further adaptation randomness: that is what makes the two
processes agree bit-for-bit on the shared prefix.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .adaptation import (FiniteAdaptation, HistorySummary, RestrictedSet,
                         adapt, reads_moments)
from .core import EmpiricalMeasure, RngStream, make_stream
from .errors import Error
from .kernels import DiscreteRwm


def _coordinates(kernel, state):
    # what HistorySummary.point and RestrictedSet read of a state: a grid
    # chain's grid point, otherwise the state itself
    if isinstance(kernel, DiscreteRwm):
        return kernel.grid[int(state)]
    return state


def state_point(kernel, state):
    """Embed a kernel state into R^d for measure-level comparisons."""
    return np.atleast_1d(np.asarray(_coordinates(kernel, state), dtype=float))


def _freeze_required(policy, t, point):
    # does the policy's own rule force G_{t+1} = G_t at this point?
    if isinstance(policy, FiniteAdaptation):
        if policy.base is None or t >= policy.t_stop:
            return True
        return _freeze_required(policy.base, t, point)
    if isinstance(policy, RestrictedSet):
        if not policy.allows(point):
            return True
        return _freeze_required(policy.inner, t, point)
    return False


@dataclass
class AdaptiveTrajectory:
    """One realized path of (tuning, state) pairs, replayable by key.

    ``tunings[t]`` is the parameter the state moved under at step t
    (index 0 is the initialization), so len(tunings) == len(states) ==
    horizon + 1.  ``t_stop`` is set when the tail was run with the tuning
    frozen (finite-adaptation comparison process).  ``kernel`` is the
    kernel the states belong to; freeze checks read a grid chain's states
    as grid points through it.
    """

    seed: int
    stream_id: int
    tunings: list
    states: list
    t_stop: Optional[int] = None
    kernel: object = None

    def __len__(self):
        return len(self.states)

    @property
    def horizon(self):
        return len(self.states) - 1

    def states_array(self):
        return np.asarray([np.atleast_1d(np.asarray(s, dtype=float))
                           for s in self.states])

    def verify_freeze(self, policy):
        """Check every forced-freeze point kept its tuning unchanged."""
        for t in range(self.horizon):
            forced = _freeze_required(
                policy, t, _coordinates(self.kernel, self.states[t]))
            if self.t_stop is not None and t >= self.t_stop:
                forced = True
            if forced:
                a, b = self.tunings[t + 1], self.tunings[t]
                if a is not b and a != b:
                    return False
        return True


@dataclass
class EnsembleCrossSection:
    """Empirical time-t marginal over independent replicas."""

    t: int
    measure: EmpiricalMeasure
    replicas: int


def _resolve_init(init, stream):
    if callable(init):
        tuning, state = init(stream)
    else:
        tuning, state = init
    return tuning, state


def iterate_adaptive(kernel, policy, init, horizon, stream, t_stop=None,
                     hist=None):
    """Generator of (t, tuning, state) driving one adaptive path.

    Yields the initialization at t=0, then one triple per step.  With
    ``t_stop`` set, adaptation halts there: later steps reuse the frozen
    tuning and skip the policy entirely (no stream draws), which is the
    finite-adaptation comparison process.  The history keeps running
    moments only when :func:`~adaptmc.adaptation.reads_moments` says the
    policy reads them.  An existing ``hist`` continues a previous run
    instead of re-initializing; it must keep moments if the policy reads
    them.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if hist is None:
        tuning, state = _resolve_init(init, stream)
        hist = HistorySummary.start(tuning, state,
                                    _coordinates(kernel, state),
                                    moments=reads_moments(policy))
        yield hist.t, tuning, state
    elif hist.mean is None and reads_moments(policy):
        raise Error("the policy reads history moments but the continued "
                    "history keeps none")
    end = hist.t + horizon
    while hist.t < end:
        if t_stop is not None and hist.t >= t_stop:
            tuning = hist.tuning
        else:
            tuning = adapt(policy, hist, stream)
        state = kernel.step(hist.state, tuning, stream)
        hist.advance(tuning, state, _coordinates(kernel, state))
        yield hist.t, tuning, state


def run_adaptive(kernel, policy, init, horizon, stream, _t_stop=None):
    """Run one adaptive trajectory of the given horizon.

    ``init`` is a (tuning, state) pair or a callable(stream) sampling one.
    The result replays exactly for a fresh stream with the same key.
    """
    tunings, states = [], []
    for _, tuning, state in iterate_adaptive(kernel, policy, init, horizon,
                                             stream, t_stop=_t_stop):
        tunings.append(tuning)
        states.append(state)
    traj = AdaptiveTrajectory(seed=stream.seed, stream_id=stream.stream_id,
                              tunings=tunings, states=states, t_stop=_t_stop,
                              kernel=kernel)
    if not traj.verify_freeze(policy):
        raise Error("emitted trajectory violates policy freeze rules")
    return traj


def run_finite_adaptation(kernel, policy, init, t_stop, extra_steps, stream):
    """Adapt through t_stop, then run extra_steps with the tuning frozen.

    Under a shared stream key this agrees with run_adaptive bit-for-bit
    through index t_stop (the coupled construction used to compare the
    adaptive process with its finite-adaptation twin).
    """
    if t_stop < 0 or extra_steps < 0:
        raise ValueError("t_stop and extra_steps must be >= 0")
    return run_adaptive(kernel, policy, init, t_stop + extra_steps, stream,
                        _t_stop=t_stop)


def run_ensemble(kernel, policy, init, horizon, replicas, checkpoints,
                 base_stream):
    """Independent replicas; cross-section measures at each checkpoint.

    Replica r draws from the stream keyed (base_stream.seed, r), so its
    path depends on nothing but that key.  The function owns stream ids
    [0, replicas) for its seed; callers needing unrelated streams should
    use other ids or another seed.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    checkpoints = sorted(set(int(t) for t in checkpoints))
    if checkpoints and (checkpoints[0] < 0 or checkpoints[-1] > horizon):
        raise ValueError("checkpoints must lie in [0, horizon]")
    marks = set(checkpoints)
    slots = []
    for r in range(replicas):
        keep = {}
        for t, _, state in iterate_adaptive(kernel, policy, init, horizon,
                                            make_stream(base_stream.seed, r)):
            if t in marks:
                keep[t] = state_point(kernel, state)
        slots.append(keep)

    out = []
    for t in checkpoints:
        pts = np.asarray([slots[r][t] for r in range(replicas)])
        out.append(EnsembleCrossSection(t=t, measure=EmpiricalMeasure(pts),
                                        replicas=replicas))
    return out
