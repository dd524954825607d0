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

Each policy declares through ``reads_moments`` whether it reads the
history's running moments (see :func:`reads_moments`): only
:class:`DiminishingContinuous` with :func:`matrix_moment_matching` does,
and the wrappers read what their inner policy reads.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import PsdMatrix
from .errors import Error, VariantMismatch
from .kernels import (ArCoef, DiscreteBase, LangevinTuning, MatrixScale,
                      TuningParam)


@dataclass
class HistorySummary:
    """Summarized chain history: current position, optionally running moments.

    The moments are exact functions of the visited states x_0..x_t (plain
    running averages, no decay).  Only moment-matching directions read
    them, so they are kept only when ``start`` is asked for them
    (``moments=True``, the default); ``iterate_adaptive`` asks exactly
    when :func:`reads_moments` says the policy reads them.  Without
    moments, ``mean`` and ``second_moment`` are None and ``advance``
    updates the position alone.  The moments are taken in state
    coordinates: where a state is not a point itself (a grid index),
    ``start`` and ``advance`` take its coordinates as ``point``.
    ``point`` holds the current state's coordinates, which is what
    :class:`RestrictedSet` tests.
    """

    t: int
    state: object
    point: object
    tuning: TuningParam
    mean: Optional[np.ndarray]
    second_moment: Optional[np.ndarray]

    @classmethod
    def start(cls, tuning, state, point=None, moments=True):
        point = state if point is None else point
        mean = second = None
        if moments:
            x = np.atleast_1d(np.asarray(point, dtype=float))
            mean, second = x.copy(), np.outer(x, x)
        return cls(t=0, state=state, point=point, tuning=tuning,
                   mean=mean, second_moment=second)

    def advance(self, tuning, state, point=None):
        """Append one (tuning, state) pair to the summarized prefix."""
        point = state if point is None else point
        self.t += 1
        self.state = state
        self.point = point
        self.tuning = tuning
        if self.mean is None:
            return
        x = np.atleast_1d(np.asarray(point, dtype=float))
        n = self.t + 1
        self.mean = self.mean + (x - self.mean) / n
        self.second_moment = self.second_moment \
            + (np.outer(x, x) - self.second_moment) / n


def reads_moments(policy):
    """Does a policy or direction rule read the history's running moments?

    Every built-in policy declares it as a ``reads_moments`` attribute;
    any other object counts as a reader, so a user policy always sees
    full moments.
    """
    return bool(getattr(policy, "reads_moments", True))


class FiniteAdaptation:
    """Delegate to ``base`` while hist.t < t_stop, frozen forever after.

    With no base policy this is the constant (never-adapting) policy.
    """

    def __init__(self, t_stop, base=None):
        if t_stop < 0:
            raise ValueError("t_stop must be >= 0")
        self.t_stop = int(t_stop)
        self.base = base

    @property
    def reads_moments(self):
        return self.base is not None and reads_moments(self.base)

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

    reads_moments = False

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

    @property
    def reads_moments(self):
        return reads_moments(self.direction)

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
        if hist.mean is None:
            raise Error("moment matching needs a history that keeps moments")
        mean = np.atleast_1d(hist.mean)
        d = mean.shape[0]
        cov = np.atleast_2d(hist.second_moment) - np.outer(mean, mean)
        cov = 0.5 * (cov + cov.T) + ridge * np.eye(d)
        w, v = np.linalg.eigh(cov)
        prec = (v / np.maximum(w, ridge)) @ v.T
        return MatrixScale(_clip_matrix_to_box(0.5 * (prec + prec.T), eig_min),
                           eig_min=eig_min, descriptor="moment-match")

    direction.reads_moments = True
    return direction


def toward_gamma(target, gamma_max=0.99):
    """Direction rule: constant ArCoef target."""
    fixed = ArCoef(target, gamma_max=gamma_max)

    def direction(hist):
        return fixed

    direction.reads_moments = False
    return direction


class DeterministicStepSchedule:
    """State-independent Langevin step schedule with a limit.

    Built-in rule h_t = h_limit + (h0 - h_limit)/(t + 1), so h_0 = h0 and
    |h_t - h_limit| decreases monotonically to zero.  A custom ``schedule``
    callable overrides it; the limit is then the caller's claim.
    """

    reads_moments = False

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

    @property
    def reads_moments(self):
        return reads_moments(self.inner)

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
