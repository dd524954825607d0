"""History-driven tuning updates and their freeze/diminishing regimes.

A policy is any object with ``propose(hist, stream) -> TuningParam``; the
classes here cover the regimes the convergence theory cares about:

* :class:`FiniteAdaptation`: adapt through T_stop, frozen afterwards.
* :class:`DiminishingDiscrete`: Bernoulli(p_t) re-draw from a finite
  candidate set; admissible whenever p_t -> 0.
* :class:`DiminishingContinuous`: move a step c_t toward a history-derived
  target, projected back into the parameter box; c_t -> 0.
* :class:`DeterministicStepSchedule`: state-independent h_t with a limit.
* :class:`RestrictedSet`: wrapper that freezes whenever the current state
  leaves the allowed region.

Freeze rules are exact: a frozen call returns the current tuning object
unchanged and consumes no randomness, so trajectories replay bit-for-bit.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import PsdMatrix
from .errors import Error, VariantMismatch
from .kernels import (ArCoef, DiscreteBase, LangevinTuning, MatrixScale,
                      TuningParam)


@dataclass
class HistorySummary:
    """Summarized chain history: current position plus running moments.

    The moments are exact functions of the visited states x_0..x_t (plain
    running averages, no decay), which is what the continuous policies
    consume.  They are taken in state coordinates: where a state is not a
    point itself (a grid index), ``start`` and ``advance`` take its
    coordinates as ``point``.  ``point`` holds the current state's
    coordinates, which is what :class:`RestrictedSet` tests.
    """

    t: int
    state: object
    point: object
    tuning: TuningParam
    mean: np.ndarray
    second_moment: np.ndarray
    count: int

    @classmethod
    def start(cls, tuning, state, point=None):
        point = state if point is None else point
        x = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(t=0, state=state, point=point, tuning=tuning,
                   mean=x.copy(), second_moment=np.outer(x, x), count=1)

    def advance(self, tuning, state, point=None):
        """Append one (tuning, state) pair to the summarized prefix."""
        point = state if point is None else point
        x = np.atleast_1d(np.asarray(point, dtype=float))
        self.t += 1
        self.count += 1
        self.state = state
        self.point = point
        self.tuning = tuning
        self.mean = self.mean + (x - self.mean) / self.count
        self.second_moment = self.second_moment \
            + (np.outer(x, x) - self.second_moment) / self.count


def change_magnitude(a, b):
    """Size of a tuning move, by variant: |dgamma|, |dh| + |dM|_F, |dM|_F."""
    if type(a) is not type(b):
        raise VariantMismatch("cannot compare %s with %s"
                              % (type(a).__name__, type(b).__name__))
    if isinstance(a, (DiscreteBase, ArCoef)):
        return abs(float(a.gamma) - float(b.gamma))
    if isinstance(a, MatrixScale):
        return float(np.linalg.norm(a.matrix.entries - b.matrix.entries))
    if isinstance(a, LangevinTuning):
        return abs(a.step - b.step) \
            + float(np.linalg.norm(a.matrix.entries - b.matrix.entries))
    raise VariantMismatch("unknown tuning variant %r" % (a,))


class FiniteAdaptation:
    """Delegate to ``base`` while hist.t < t_stop, frozen forever after.

    With no base policy this is the constant (never-adapting) policy.
    """

    def __init__(self, t_stop, base=None):
        if t_stop < 0:
            raise ValueError("t_stop must be >= 0")
        self.t_stop = int(t_stop)
        self.base = base

    def propose(self, hist, stream):
        if self.base is None or hist.t >= self.t_stop:
            return hist.tuning
        return self.base.propose(hist, stream)


class DiminishingDiscrete:
    """Bernoulli(p_t) re-draw from a finite set of DiscreteBase candidates.

    Consumes one uniform per call, plus one integer draw when the re-draw
    fires.  The re-draw may land on the current value, so the change
    probability is p_t (1 - 1/K) for K distinct candidates.
    """

    def __init__(self, candidates, prob):
        candidates = list(candidates)
        if not candidates:
            raise ValueError("need at least one candidate")
        for c in candidates:
            if not isinstance(c, DiscreteBase):
                raise VariantMismatch("candidates must be DiscreteBase")
        self.candidates = candidates
        self.prob = prob

    def propose(self, hist, stream):
        if not isinstance(hist.tuning, DiscreteBase):
            raise VariantMismatch("DiminishingDiscrete needs DiscreteBase history")
        p = float(self.prob(hist.t))
        if not 0.0 <= p <= 1.0:
            raise Error("schedule returned probability %g outside [0, 1]" % p)
        if float(stream.uniform()) < p:
            k = int(stream.integers(0, len(self.candidates)))
            return self.candidates[k]
        return hist.tuning


def _clip_matrix_to_box(m, eig_min):
    # eigenvalue projection onto [eig_min, 1]; values outside move to the
    # nearest endpoint, which sends collapsed directions toward eig_min
    p = PsdMatrix(m) if not isinstance(m, PsdMatrix) else m
    w = np.clip(p.eigenvalues(), eig_min, 1.0)
    v = p._eigvecs
    return PsdMatrix((v * w) @ v.T)


def _blend(current, target, c):
    """Move fraction c from current toward target, projected back in-box."""
    c = min(max(c, 0.0), 1.0)
    if isinstance(current, ArCoef):
        g = current.gamma + c * (target.gamma - current.gamma)
        g = min(max(g, 1e-12), current.gamma_max)
        return ArCoef(g, gamma_max=current.gamma_max)
    if isinstance(current, MatrixScale):
        mixed = current.matrix.entries \
            + c * (target.matrix.entries - current.matrix.entries)
        proj = _clip_matrix_to_box(mixed, current.eig_min)
        return MatrixScale(proj, eig_min=current.eig_min,
                           descriptor=current.descriptor)
    if isinstance(current, LangevinTuning):
        h = current.step + c * (target.step - current.step)
        mixed = current.matrix.entries \
            + c * (target.matrix.entries - current.matrix.entries)
        proj = _clip_matrix_to_box(mixed, 1e-12)
        return LangevinTuning(proj, step=max(h, current.step_min),
                              step_min=current.step_min)
    raise VariantMismatch("continuous blending undefined for %r" % (current,))


class DiminishingContinuous:
    """Tuning drift c_t of the way toward direction(hist), projected.

    ``step_sizes`` maps t to c_t in [0, 1] with c_t -> 0; ``direction``
    maps the history summary to a target tuning of the same variant.
    Deterministic given the history: consumes no randomness.
    """

    def __init__(self, step_sizes, direction):
        self.step_sizes = step_sizes
        self.direction = direction

    def propose(self, hist, stream):
        if isinstance(hist.tuning, DiscreteBase):
            raise VariantMismatch("use DiminishingDiscrete for integer tunings")
        c = float(self.step_sizes(hist.t))
        if c < 0.0:
            raise Error("step size schedule went negative")
        target = self.direction(hist)
        if type(target) is not type(hist.tuning):
            raise VariantMismatch("direction returned %s for %s history"
                                  % (type(target).__name__,
                                     type(hist.tuning).__name__))
        return _blend(hist.tuning, target, c)


def matrix_moment_matching(eig_min=0.05, ridge=1e-6):
    """Direction rule: empirical precision, eigenvalues clipped to the box.

    Covariance comes from the running moments of the visited states; the
    ridge keeps early singular estimates invertible.
    """

    def direction(hist):
        mean = np.atleast_1d(hist.mean)
        d = mean.shape[0]
        cov = np.atleast_2d(hist.second_moment) - np.outer(mean, mean)
        cov = 0.5 * (cov + cov.T) + ridge * np.eye(d)
        w, v = np.linalg.eigh(cov)
        prec = (v / np.maximum(w, ridge)) @ v.T
        return MatrixScale(_clip_matrix_to_box(0.5 * (prec + prec.T), eig_min),
                           eig_min=eig_min, descriptor="moment-match")

    return direction


def toward_gamma(target, gamma_max=0.99):
    """Direction rule: constant ArCoef target."""
    fixed = ArCoef(target, gamma_max=gamma_max)

    def direction(hist):
        return fixed

    return direction


class DeterministicStepSchedule:
    """State-independent Langevin step schedule with a limit.

    Built-in rule h_t = h_limit + (h0 - h_limit)/(t + 1), so h_0 = h0 and
    |h_t - h_limit| decreases monotonically to zero.  A custom ``schedule``
    callable overrides it; the limit is then the caller's claim.
    """

    def __init__(self, matrix, h0, h_limit, step_min=None, schedule=None):
        if not isinstance(matrix, PsdMatrix):
            matrix = PsdMatrix(matrix)
        if h0 <= 0 or h_limit <= 0:
            raise ValueError("step sizes must be positive")
        self.matrix = matrix
        self.h0 = float(h0)
        self.h_limit = float(h_limit)
        self.step_min = float(step_min) if step_min is not None \
            else min(h0, h_limit)
        self.schedule = schedule

    def tuning_at(self, t):
        """The tuning this schedule assigns to step t (t >= 0)."""
        if self.schedule is not None:
            h = float(self.schedule(t))
        else:
            h = self.h_limit + (self.h0 - self.h_limit) / (t + 1.0)
        return LangevinTuning(self.matrix, step=h, step_min=self.step_min)

    def propose(self, hist, stream):
        if not isinstance(hist.tuning, LangevinTuning):
            raise VariantMismatch("DeterministicStepSchedule needs "
                                  "LangevinTuning history")
        return self.tuning_at(hist.t + 1)


class RestrictedSet:
    """Freeze the inner policy whenever the current state leaves S.

    S is `norm(x) <= radius`, or an explicit predicate of x, where x is
    the current state's coordinates (``hist.point``: the grid point, not
    the index, on a grid chain).  Frozen calls return the current tuning
    and consume no randomness.
    """

    def __init__(self, inner, radius=None, predicate=None):
        if radius is None and predicate is None:
            raise ValueError("give a radius or a predicate")
        self.inner = inner
        self.radius = radius
        self.predicate = predicate

    def allows(self, point):
        if self.predicate is not None:
            return bool(self.predicate(point))
        x = np.atleast_1d(np.asarray(point, dtype=float))
        return float(np.linalg.norm(x)) <= self.radius

    def propose(self, hist, stream):
        if not self.allows(hist.point):
            return hist.tuning
        return self.inner.propose(hist, stream)


def adapt(policy, hist, stream):
    """Draw the next tuning from the policy; enforces variant stability."""
    new = policy.propose(hist, stream)
    if type(new) is not type(hist.tuning):
        raise VariantMismatch("policy switched variant from %s to %s"
                              % (type(hist.tuning).__name__,
                                 type(new).__name__))
    return new


@dataclass
class ScheduleAudit:
    """Empirical picture of how fast a policy's moves die out."""

    ts: np.ndarray               # step indices 1..horizon
    eta_grid: np.ndarray         # change-size thresholds
    probs: np.ndarray            # (horizon, len(eta_grid)) P(change > eta)
    mean_magnitude: np.ndarray   # per-t average change size
    non_diminishing: bool        # late-window activity comparable to early
    early_rate: float
    late_rate: float


def da_schedule_audit(policy, horizon, stream, init_tuning=None,
                      init_state=0.0, replicas=64,
                      eta_grid=(1e-12, 1e-3, 1e-2, 1e-1)):
    """Estimate per-t change probabilities P(|G_{t+1} - G_t| > eta).

    The policy runs against a pinned state (adaptation schedules are
    state-independent for the built-ins; state-dependent rules are audited
    at the given point), ``replicas`` times with independent substreams.

    The non-diminishing flag fires when the smallest-threshold change rate
    over the last tenth of the horizon is both at least half the rate over
    the first tenth and above 0.01: schedules whose activity never decays
    fail the diminishing premise.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if init_tuning is None:
        raise ValueError("init_tuning is required")
    eta = np.asarray(eta_grid, dtype=float)
    hits = np.zeros((horizon, eta.shape[0]))
    mags = np.zeros(horizon)
    for r in range(replicas):
        sub = stream.substream(r)
        hist = HistorySummary.start(init_tuning, init_state)
        for t in range(horizon):
            new = adapt(policy, hist, sub)
            m = change_magnitude(new, hist.tuning)
            mags[t] += m
            hits[t] += m > eta
            hist.advance(new, init_state)
    probs = hits / replicas
    mags = mags / replicas
    tenth = max(horizon // 10, 1)
    early = float(probs[:tenth, 0].mean())
    late = float(probs[-tenth:, 0].mean())
    non_dim = late > 0.01 and late > 0.5 * early
    return ScheduleAudit(ts=np.arange(1, horizon + 1), eta_grid=eta,
                         probs=probs, mean_magnitude=mags,
                         non_diminishing=non_dim, early_rate=early,
                         late_rate=late)
