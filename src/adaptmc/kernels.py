"""Parameterized Markov kernel families and their shared-noise couplings.

Five families, each split into ``draw_noise(stream, tuning, size=None)``,
which takes one step's randomness from the stream (or a block of ``size``
steps' randomness in one draw), and ``apply(x, tuning, noise)``, which
checks the state and tuning and makes the update:

* :class:`DiscreteAr`: x -> x/g + k/g on [0, 1), k uniform in {0..g-1}.
* :class:`GaussianAr`: x -> g x + sqrt(1 - g^2) S z, invariant N(0, S S').
* :class:`DiscreteRwm`: Metropolis chain on a finite grid with a
  discrete-Gaussian proposal.
* :class:`Ula`: unadjusted Langevin, x -> x - h M grad(M x) + sqrt(2h) z.
* :class:`DiffusionTime1`: Euler integration over [0, 1] of the
  overdamped Langevin diffusion with preconditioner M.

``step``, ``coupled_step`` and ``frozen_path`` are written once, on
:class:`Kernel`: a step applies one draw to one state, a coupled step
applies the same draw to two states, possibly under different tunings,
and a frozen path applies the rows of block draws one after another.
Each coupled output is thus marginally a single step, and the couplings
make the contraction estimates in the diagnostics module deterministic
rather than statistical: same noise in, difference out.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .core import PsdMatrix, RngStream, psd_sqrt
from .errors import (DimensionMismatch, DomainError, Error, StepSizeOutOfRange,
                     VariantMismatch, ZeroDensity)

MATRIX_EIG_TOL = 1e-12   # slack when checking the [eig_min, 1] box
ROW_SUM_TOL = 1e-12      # transition-matrix rows must sum to 1 within this
STATIONARY_TOL = 1e-12   # max |pi P - pi| accepted for a stationary law
BLOCK_STEPS = 4096       # most steps of noise frozen_path draws at once
_BELOW_ONE = float(np.nextafter(1.0, 0.0))  # top of DiscreteAr's domain


# ------------------------------------------------------------- tuning params

@dataclass(frozen=True)
class DiscreteBase:
    """Integer base g >= 2 for the discrete AR kernel."""
    gamma: int

    def __post_init__(self):
        if int(self.gamma) != self.gamma or self.gamma < 2:
            raise ValueError("gamma must be an integer >= 2")
        object.__setattr__(self, "gamma", int(self.gamma))


@dataclass(frozen=True)
class ArCoef:
    """AR(1) coefficient 0 < gamma <= gamma_max < 1."""
    gamma: float
    gamma_max: float = 0.99

    def __post_init__(self):
        if not 0.0 < self.gamma_max < 1.0:
            raise ValueError("gamma_max must lie in (0, 1)")
        if not 0.0 < self.gamma <= self.gamma_max:
            raise ValueError("gamma must lie in (0, gamma_max]")


@dataclass(frozen=True)
class MatrixScale:
    """Preconditioner with eigenvalues confined to [eig_min, 1].

    ``descriptor`` is an optional label for the abstract tuning index the
    matrix was derived from; it plays no computational role.
    """
    matrix: PsdMatrix
    eig_min: float = 0.05
    descriptor: Optional[object] = None

    def __post_init__(self):
        if not isinstance(self.matrix, PsdMatrix):
            object.__setattr__(self, "matrix", PsdMatrix(self.matrix))
        if not 0.0 < self.eig_min <= 1.0:
            raise ValueError("eig_min must lie in (0, 1]")
        w = self.matrix.eigenvalues()
        if w[0] < self.eig_min - MATRIX_EIG_TOL or w[-1] > 1.0 + MATRIX_EIG_TOL:
            raise ValueError("matrix eigenvalues [%g, %g] leave the box "
                             "[%g, 1]" % (w[0], w[-1], self.eig_min))


@dataclass(frozen=True)
class LangevinTuning:
    """Preconditioner M and step size h for the Langevin kernels.

    The step-size upper limit 1/(alpha + beta) depends on the potential, so
    it is enforced where the potential is known (Ula.apply); only the lower
    limit lives here.
    """
    matrix: PsdMatrix
    step: float
    step_min: float = 1e-4

    def __post_init__(self):
        if not isinstance(self.matrix, PsdMatrix):
            object.__setattr__(self, "matrix", PsdMatrix(self.matrix))
        if self.step_min <= 0.0:
            raise ValueError("step_min must be positive")
        if self.step < self.step_min:
            raise StepSizeOutOfRange("step %g below lower limit %g"
                                     % (self.step, self.step_min))


TuningParam = Union[DiscreteBase, ArCoef, MatrixScale, LangevinTuning]


# ----------------------------------------------------------------- potential

@dataclass(frozen=True)
class PotentialSpec:
    """Gradient oracle with strong-convexity and Lipschitz constants.

    The constants are claims about ``gradient``:

        <grad(x) - grad(y), x - y>  >=  convex_param |x - y|^2
        |grad(x) - grad(y)|         <=  lip_param |x - y|

    They are spot-checked by :func:`potential_check` on sampled pairs, not
    taken on faith.
    """
    gradient: Callable
    convex_param: float
    lip_param: float

    def __post_init__(self):
        if self.convex_param <= 0.0:
            raise ValueError("convex_param must be positive")
        if self.lip_param < self.convex_param:
            raise ValueError("lip_param must be >= convex_param")


def quadratic_potential(hessian):
    """PotentialSpec for V(x) = x' A x / 2 with symmetric PD Hessian A."""
    a = PsdMatrix(hessian)
    w = a.eigenvalues()
    if w[0] <= 0.0:
        raise ValueError("hessian must be positive definite")
    entries = a.entries

    def grad(x):
        return entries @ np.asarray(x, dtype=float)

    return PotentialSpec(gradient=grad, convex_param=float(w[0]),
                         lip_param=float(w[-1]))


def potential_check(potential, dim, stream, pairs=256, radius=5.0, tol=1e-9):
    """Spot-check the claimed (convex_param, lip_param) on random pairs.

    Returns a list of (x, y, kind) violations; empty means every sampled
    pair satisfied both inequalities up to ``tol`` slack.
    """
    out = []
    for _ in range(pairs):
        x = stream.normal(dim) * radius
        y = stream.normal(dim) * radius
        dx = x - y
        nrm2 = float(dx @ dx)
        if nrm2 == 0.0:
            continue
        dg = np.asarray(potential.gradient(x)) - np.asarray(potential.gradient(y))
        if float(dg @ dx) < potential.convex_param * nrm2 - tol:
            out.append((x, y, "strong_convexity"))
        if float(dg @ dg) > potential.lip_param ** 2 * nrm2 + tol:
            out.append((x, y, "lipschitz"))
    return out


# ------------------------------------------------------------ kernel families

class Kernel:
    """One update path shared by every family.

    A family defines ``draw_noise(stream, tuning, size=None)``, which takes
    the step's randomness from the stream, and ``apply(x, tuning, noise)``,
    which checks the state and tuning and maps x to its successor.  With
    ``size`` set, ``draw_noise`` returns a block whose row k is the noise of
    step k: a counter-based stream fills a block exactly as it would make
    the same draws one at a time, so the rows equal ``size`` single draws
    bit for bit.  ``step`` applies one draw to one state; ``coupled_step``
    applies the same draw to two states, so each output is marginally a
    single step under its own tuning.
    """

    tuning_variant = None

    def step(self, x, tuning, stream):
        _require_variant(self, tuning)
        return self.apply(x, tuning, self.draw_noise(stream, tuning))

    def coupled_step(self, x, tuning_x, y, tuning_y, stream):
        """Advance two copies off one shared noise draw.

        First output is marginally a P_{tuning_x} step from x, second a
        P_{tuning_y} step from y.  Both tunings must match the kernel's
        variant; mixed variants raise VariantMismatch.
        """
        _require_variant(self, tuning_x, tuning_y)
        noise = self.draw_noise(stream, tuning_x)
        return self.apply(x, tuning_x, noise), self.apply(y, tuning_y, noise)

    def frozen_path(self, x, tuning, stream, steps):
        """Yield x_1..x_steps of the chain started at x, frozen at ``tuning``.

        The noise is drawn in blocks of up to BLOCK_STEPS steps and each
        row is applied on its own, so the states and draws are those of
        ``steps`` calls of ``step``; nothing else may draw from ``stream``
        until the last state is taken.  As in ``step``, the tuning's variant
        is checked only when a step is taken.
        """
        while steps > 0:
            _require_variant(self, tuning)
            k = min(steps, BLOCK_STEPS)
            for noise in self.draw_noise(stream, tuning, size=k):
                x = self.apply(x, tuning, noise)
                yield x
            steps -= k


class DiscreteAr(Kernel):
    """Base-g refinement chain on [0, 1) with invariant law Unif[0, 1).

    One step maps x in [0, 1) to x/g + k/g with k uniform on {0, ..., g-1}.
    The noise is one uniform u, and k = min(floor(u g), g - 1), so a coupled
    pair with different bases still shares its draw.  Near x = 1 the sum
    can round up to 1.0; it is clamped to the largest float below 1 so the
    chain stays in its domain.
    """

    tuning_variant = DiscreteBase

    def draw_noise(self, stream, tuning, size=None):
        """One uniform; with ``size``, a (size,) block of them."""
        u = stream.uniform(size)
        return float(u) if size is None else u

    def apply(self, x, tuning, noise):
        x = float(x)
        if not 0.0 <= x < 1.0:
            raise DomainError("state %r outside [0, 1)" % x)
        g = tuning.gamma
        k = min(int(noise * g), g - 1)
        return min(x / g + k / g, _BELOW_ONE)

    def stationary_sample(self, stream, size=None):
        return stream.uniform(size)

    def __repr__(self):
        return "DiscreteAr()"


class GaussianAr(Kernel):
    """Vector AR(1) chain with invariant law N(0, cov_sqrt @ cov_sqrt).

    One step maps x to g x + sqrt(1 - g^2) S z with z standard normal and
    S = cov_sqrt; the noise is S z.
    """

    tuning_variant = ArCoef

    def __init__(self, cov_sqrt):
        if not isinstance(cov_sqrt, PsdMatrix):
            cov_sqrt = PsdMatrix(cov_sqrt)
        self.cov_sqrt = cov_sqrt
        self.cov = PsdMatrix(cov_sqrt.entries @ cov_sqrt.entries)

    @property
    def dim(self):
        return self.cov_sqrt.dim

    def draw_noise(self, stream, tuning, size=None):
        """S z for one normal vector z; with ``size``, a (size, d) block.

        A block's rows are S z_k taken one at a time: S @ z and z @ S.T
        need not round alike, and the rows must equal single draws.
        """
        s = self.cov_sqrt.entries
        if size is None:
            return s @ stream.normal(self.dim)
        return np.array([s @ z for z in stream.normal((size, self.dim))])

    def apply(self, x, tuning, noise):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.dim:
            raise DimensionMismatch("state shape %s incompatible with cov "
                                    "dim %d" % (x.shape, self.dim))
        g = tuning.gamma
        return g * x + np.sqrt(1.0 - g * g) * noise

    def stationary_sample(self, stream, size=None):
        if size is None:
            return self.cov_sqrt.entries @ stream.normal(self.dim)
        return stream.normal((int(size), self.dim)) @ self.cov_sqrt.entries.T

    def __repr__(self):
        return "GaussianAr(dim=%d)" % self.dim


class DiscreteRwm(Kernel):
    """Metropolis chain on a finite grid with discrete-Gaussian proposals.

    The proposal weight between grid points u, v under preconditioner M is
    q(u, v) = exp(-(u-v)' M^{-1} (u-v) / 2), truncated to zero below
    ``trunc_tol`` (relative to the diagonal weight 1).  Rows are normalized
    by one shared constant (the largest masked row sum) rather than per
    row: per-row normalization on a truncated grid would break the symmetry
    q(u, v) = q(v, u) that makes the accept ratio 1 ∧ f(v)/f(u) correct,
    and with it exact stationarity of f.  The leftover row mass is a
    self-proposal, which Metropolis always accepts.

    States are grid indices, not points.
    """

    tuning_variant = MatrixScale
    _CACHE_LIMIT = 1024  # precompute row CDFs up to this many grid points

    def __init__(self, grid, target_density, trunc_tol=1e-12):
        pts = np.asarray(grid, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise DimensionMismatch("grid must hold at least two points")
        if callable(target_density):
            f = np.asarray([float(target_density(p)) for p in pts])
        else:
            f = np.asarray(target_density, dtype=float)
        if f.shape != (pts.shape[0],):
            raise DimensionMismatch("density values do not match the grid")
        if np.any(f < 0) or not np.all(np.isfinite(f)):
            raise ValueError("density values must be finite and nonnegative")
        if not np.any(f > 0):
            raise ValueError("density vanishes on the whole grid")
        if trunc_tol < 0 or trunc_tol >= 1:
            raise ValueError("trunc_tol must lie in [0, 1)")
        self.grid = pts
        self.grid.setflags(write=False)
        self.density = f
        self.density.setflags(write=False)
        self.trunc_tol = float(trunc_tol)
        self._rows = {}   # tuning-id keyed cache of (proposal_cdf, proposal)

    @property
    def size(self):
        return self.grid.shape[0]

    def _proposal(self, tuning):
        # key by matrix content: tunings are created freely by policies
        key = (tuning.matrix.entries.tobytes(), tuning.eig_min)
        hit = self._rows.get(key)
        if hit is not None:
            return hit
        m = tuning.matrix
        w = m.eigenvalues()
        vecs = m._eigvecs
        minv = (vecs / w) @ vecs.T
        diff = self.grid[:, None, :] - self.grid[None, :, :]
        quad = np.einsum("ijk,kl,ijl->ij", diff, minv, diff)
        q = np.exp(-0.5 * quad)
        # symmetric tail mask: the diagonal weight is exactly 1, so this
        # zeroes pairs contributing less than trunc_tol of the peak
        q[q < self.trunc_tol] = 0.0
        z = q.sum(axis=1).max()
        prop = q / z
        # degenerate rows: a positive-density state must be able to reach
        # some other positive-density state
        live = self.density > 0
        reach = (prop * live[None, :]) - np.diag(np.diag(prop))
        if np.any(live & (reach.sum(axis=1) <= 0.0)):
            raise Error("proposal row is degenerate at trunc_tol=%g"
                        % self.trunc_tol)
        cdf = np.cumsum(prop, axis=1)
        out = (prop, cdf)
        if self.size <= self._CACHE_LIMIT:
            if len(self._rows) >= 128:
                self._rows.clear()
            self._rows[key] = out
        return out

    def _propose(self, i, tuning, u):
        prop, cdf = self._proposal(tuning)
        row_total = cdf[i, -1]
        if u >= row_total:
            return i  # leftover constant-normalizer mass: self-proposal
        return int(np.searchsorted(cdf[i], u, side="right"))

    def draw_noise(self, stream, tuning, size=None):
        """Two uniforms (proposal, accept); with ``size``, a (size, 2) block.

        Every step takes both, so replay and coupling line up.
        """
        if size is None:
            return float(stream.uniform()), float(stream.uniform())
        return stream.uniform((size, 2))

    def apply(self, i, tuning, noise):
        """One Metropolis step from grid index i; returns a grid index."""
        i = int(i)
        if not 0 <= i < self.size:
            raise DomainError("index %d outside grid of size %d"
                              % (i, self.size))
        fi = self.density[i]
        if fi == 0.0:
            raise ZeroDensity("target density vanishes at state %d" % i)
        u_prop, u_acc = noise
        j = self._propose(i, tuning, u_prop)
        if j != i and u_acc <= self.density[j] / fi:
            return j
        return i

    def transition_matrix(self, tuning):
        """Exact one-step transition matrix under the given tuning."""
        prop, _ = self._proposal(tuning)
        f = self.density
        n = self.size
        live = f > 0
        p = np.zeros((n, n))
        # accept ratio min(1, f_k/f_l); zero-density rows have no Metropolis
        # dynamics and are parked in place
        p[live] = np.minimum(1.0, f[None, :] / f[live, None]) * prop[live]
        np.fill_diagonal(p, 0.0)
        diag = 1.0 - p.sum(axis=1)
        p[np.arange(n), np.arange(n)] = diag
        if np.abs(p.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise Error("transition rows failed to normalize")
        return p

    def stationary_law(self, tuning):
        """Stationary law f / sum(f) of transition_matrix.

        Exact by detailed balance: the proposal is symmetric and the accept
        ratio is 1 ^ f(v)/f(u).  Zero-density states get mass 0.  The
        residual max |pi P - pi| is checked against STATIONARY_TOL.
        """
        pi = self.density / self.density.sum()
        resid = np.abs(pi @ self.transition_matrix(tuning) - pi).max()
        if resid > STATIONARY_TOL:
            raise Error("stationary residual %.3g exceeds %g"
                        % (resid, STATIONARY_TOL))
        return pi

    def dobrushin_coefficient(self, tuning):
        """max over state pairs of TV(P(i,.), P(j,.)) for the finite grid.

        The strict-contraction analogue of a minorization constant: values
        below 1 certify uniform ergodicity of the frozen chain.
        """
        p = self.transition_matrix(tuning)
        worst = 0.0
        for a in range(self.size):
            diff = np.abs(p[a + 1:] - p[a]).sum(axis=1)
            if diff.size:
                worst = max(worst, 0.5 * float(diff.max()))
        return worst

    def __repr__(self):
        return "DiscreteRwm(size=%d)" % self.size


class Ula(Kernel):
    """Unadjusted Langevin kernel for a strongly convex potential.

    One step maps x to x - h M grad(M x) + sqrt(2h) z with z standard
    normal.  The step size must satisfy step_min <= h <= 1/(alpha + beta);
    the upper limit is where the one-step contraction estimate degrades, so
    it is a hard error, not a warning.
    """

    tuning_variant = LangevinTuning

    def __init__(self, potential):
        self.potential = potential

    def draw_noise(self, stream, tuning, size=None):
        """One (d,) normal vector; with ``size``, a (size, d) block."""
        d = tuning.matrix.dim
        return stream.normal(d if size is None else (size, d))

    def apply(self, x, tuning, noise):
        h_max = 1.0 / (self.potential.convex_param + self.potential.lip_param)
        if not tuning.step_min <= tuning.step <= h_max + 1e-15:
            raise StepSizeOutOfRange("h=%g outside [%g, %g]"
                                     % (tuning.step, tuning.step_min, h_max))
        m = _matrix_for(x, tuning)
        x = np.asarray(x, dtype=float)
        drift = m @ np.asarray(self.potential.gradient(m @ x))
        return x - tuning.step * drift + np.sqrt(2.0 * tuning.step) * noise

    def __repr__(self):
        return "Ula()"


class DiffusionTime1(Kernel):
    """Euler-Maruyama time-1 map of the preconditioned Langevin diffusion.

    Integrates dX = -M grad(M X) dt + sqrt(2) dW with ``substeps`` equal
    Euler steps; the noise is one (substeps, d) block of standard normals.
    The weak bias against the exact time-1 kernel is O(1/substeps) and is
    measured, not assumed, in the tests.
    """

    tuning_variant = MatrixScale

    def __init__(self, potential, substeps=64):
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        self.potential = potential
        self.substeps = int(substeps)

    def draw_noise(self, stream, tuning, size=None):
        """One (substeps, d) block of normals; with ``size``, one per step."""
        shape = (self.substeps, tuning.matrix.dim)
        return stream.normal(shape if size is None else (size,) + shape)

    def apply(self, x, tuning, noise):
        m = _matrix_for(x, tuning)
        x = np.asarray(x, dtype=float)
        dt = 1.0 / self.substeps
        root = np.sqrt(2.0 * dt)
        grad = self.potential.gradient
        for z in noise:
            x = x - dt * (m @ np.asarray(grad(m @ x))) + root * z
        return x

    def __repr__(self):
        return "DiffusionTime1(substeps=%d)" % self.substeps


def _matrix_for(x, tuning):
    # the tuning's preconditioner, after checking that x is a matching vector
    m = tuning.matrix.entries
    if np.shape(x) != (m.shape[0],):
        raise DimensionMismatch("state shape %s vs matrix dim %d"
                                % (np.shape(x), m.shape[0]))
    return m


def _require_variant(kernel, *tunings):
    want = kernel.tuning_variant
    for t in tunings:
        if not isinstance(t, want):
            raise VariantMismatch("%r expects %s tunings, got %r"
                                  % (kernel, want.__name__, type(t).__name__))


def step(kernel, x, tuning, stream):
    """Dispatch one independent step on any kernel family."""
    return kernel.step(x, tuning, stream)


def coupled_step(kernel, x, tuning_x, y, tuning_y, stream):
    """Advance two copies of the kernel off one shared noise draw."""
    return kernel.coupled_step(x, tuning_x, y, tuning_y, stream)
