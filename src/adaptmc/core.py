"""Counter-based random streams, PSD matrix helpers, weighted point clouds.

Everything stochastic in this package draws from an :class:`RngStream`, a
thin wrapper over numpy's Philox counter-based generator keyed by
``(seed, stream_id)``.  Distinct stream ids give statistically independent
sequences, and a stream's output never depends on what other streams have
consumed, so replicas can run in any order without changing results.
"""

import numpy as np

from .errors import DimensionMismatch, NonPsd

# Tolerances used by the constructors below.  These are contracts, not
# implementation details: tests pin them.
SYM_RTOL = 1e-12        # relative symmetry slack accepted by PsdMatrix
EIG_CLIP_RTOL = 1e-10   # eigenvalues >= -EIG_CLIP_RTOL*lambda_max clip to 0
SQRT_RTOL = 1e-9        # relative reconstruction error allowed for psd_sqrt
WEIGHT_TOL = 1e-12      # weights of an EmpiricalMeasure sum to 1 +/- this

_U64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(z):
    # Standard splitmix64 finalizer; used only to derive substream ids.
    z = (z + 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


class RngStream:
    """Deterministic random stream keyed by ``(seed, stream_id)``.

    ``calls`` counts variate requests made so far (one per method call,
    regardless of size).  The full generator position lives in the Philox
    counter and can be captured exactly with :meth:`state` for
    checkpoint/restart.
    """

    __slots__ = ("seed", "stream_id", "calls", "_gen")

    def __init__(self, seed, stream_id=0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed <= _U64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0 <= stream_id <= _U64:
            raise ValueError("stream_id must fit in an unsigned 64-bit integer")
        self.seed = seed
        self.stream_id = stream_id
        self.calls = 0
        self._gen = np.random.Generator(np.random.Philox(key=[seed, stream_id]))

    def uniform(self, size=None):
        """Uniform draws on [0, 1)."""
        self.calls += 1
        return self._gen.random(size)

    def normal(self, size=None):
        """Standard normal draws."""
        self.calls += 1
        return self._gen.standard_normal(size)

    def integers(self, low, high, size=None):
        """Uniform integers on [low, high)."""
        self.calls += 1
        return self._gen.integers(low, high, size=size)

    def substream(self, k):
        """Derive an independent stream from this one, deterministically in k.

        The child id is a 64-bit hash of (stream_id, k), so nested spawns do
        not collide in practice and never depend on consumption order.
        """
        child_id = _splitmix64(self.stream_id ^ _splitmix64(int(k))) & _U64
        return RngStream(self.seed, child_id)

    def state(self):
        """JSON-serializable snapshot of the exact generator position."""
        st = self._gen.bit_generator.state
        return {
            "seed": self.seed,
            "stream_id": self.stream_id,
            "calls": self.calls,
            "counter": [int(v) for v in st["state"]["counter"]],
            "key": [int(v) for v in st["state"]["key"]],
            "buffer": [int(v) for v in st["buffer"]],
            "buffer_pos": int(st["buffer_pos"]),
            "has_uint32": int(st["has_uint32"]),
            "uinteger": int(st["uinteger"]),
        }

    def set_state(self, snap):
        """Restore a snapshot taken with :meth:`state`."""
        if snap["seed"] != self.seed or snap["stream_id"] != self.stream_id:
            raise ValueError("snapshot belongs to a different stream key")
        st = self._gen.bit_generator.state
        st["state"]["counter"] = np.array(snap["counter"], dtype=np.uint64)
        st["state"]["key"] = np.array(snap["key"], dtype=np.uint64)
        st["buffer"] = np.array(snap["buffer"], dtype=np.uint64)
        st["buffer_pos"] = snap["buffer_pos"]
        st["has_uint32"] = snap["has_uint32"]
        st["uinteger"] = snap["uinteger"]
        self._gen.bit_generator.state = st
        self.calls = snap["calls"]

    def __repr__(self):
        return "RngStream(seed=%d, stream_id=%d, calls=%d)" % (
            self.seed, self.stream_id, self.calls)


def make_stream(seed, stream_id=0):
    """Create an :class:`RngStream` for the given key."""
    return RngStream(seed, stream_id)


class PsdMatrix:
    """Symmetric positive semidefinite matrix with validated construction.

    The input must be square, finite, and symmetric to within ``SYM_RTOL``
    relative to its largest entry.  Eigenvalues may dip as low as
    ``-EIG_CLIP_RTOL * lambda_max`` (they are clipped to zero); anything
    lower raises :class:`~adaptmc.errors.NonPsd`.
    """

    __slots__ = ("entries", "dim", "_eigvals", "_eigvecs")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("expected a square matrix, got shape %s"
                                    % (a.shape,))
        if a.shape[0] == 0:
            raise DimensionMismatch("matrix must be nonempty")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        scale = max(np.abs(a).max(), 1.0)
        if np.abs(a - a.T).max() > SYM_RTOL * scale:
            raise NonPsd("matrix is not symmetric within tolerance")
        a = 0.5 * (a + a.T)
        w, v = np.linalg.eigh(a)
        lmax = max(w[-1], 0.0)
        if w[0] < -EIG_CLIP_RTOL * lmax - np.finfo(float).tiny:
            raise NonPsd("smallest eigenvalue %.3e below clip tolerance" % w[0])
        self._eigvals = np.clip(w, 0.0, None)
        self._eigvecs = v
        self.entries = a
        self.entries.setflags(write=False)
        self.dim = a.shape[0]

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    def eigenvalues(self):
        """Eigenvalues after clipping, ascending."""
        return self._eigvals.copy()

    def trace(self):
        return float(np.trace(self.entries))

    def sqrt(self):
        """Symmetric PSD square root; see :func:`psd_sqrt`."""
        return psd_sqrt(self)

    def __repr__(self):
        return "PsdMatrix(dim=%d)" % self.dim


def psd_sqrt(matrix):
    """Symmetric PSD square root S of a PSD matrix m, with S @ S == m.

    Parameters
    ----------
    matrix : PsdMatrix or array_like
        The matrix to factor.  Arrays are validated through
        :class:`PsdMatrix` first.

    Returns
    -------
    PsdMatrix
        S with ``max|S @ S - m| <= SQRT_RTOL * max(|m|)``.  Failure of that
        reconstruction check raises :class:`~adaptmc.errors.NonPsd`.
    """
    if not isinstance(matrix, PsdMatrix):
        matrix = PsdMatrix(matrix)
    w = matrix._eigvals
    v = matrix._eigvecs
    s = (v * np.sqrt(w)) @ v.T
    s = 0.5 * (s + s.T)
    scale = max(np.abs(matrix.entries).max(), np.finfo(float).tiny)
    if np.abs(s @ s - matrix.entries).max() > SQRT_RTOL * scale:
        raise NonPsd("square-root reconstruction error exceeds tolerance")
    return PsdMatrix(s)


class EmpiricalMeasure:
    """Finite weighted point cloud treated as a probability measure.

    Points are stored as an (n, d) array; scalar or 1-D input is lifted to
    d = 1.  Weights are normalized on construction and always sum to one
    within ``WEIGHT_TOL``.
    """

    __slots__ = ("points", "weights")

    def __init__(self, points, weights=None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        elif pts.ndim != 2:
            raise DimensionMismatch("points must be at most 2-dimensional")
        if pts.shape[0] == 0:
            raise DimensionMismatch("measure needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        n = pts.shape[0]
        if weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (n,):
                raise DimensionMismatch("weights shape %s != (%d,)"
                                        % (w.shape, n))
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ValueError("weights must be finite and nonnegative")
            total = w.sum()
            if total <= 0:
                raise ValueError("weights must have positive total mass")
            w = w / total
        assert abs(w.sum() - 1.0) <= WEIGHT_TOL
        pts = pts.copy()
        pts.setflags(write=False)
        w.setflags(write=False)
        self.points = pts
        self.weights = w

    @property
    def support_size(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def mean(self):
        return self.weights @ self.points

    def __repr__(self):
        return "EmpiricalMeasure(n=%d, d=%d)" % self.points.shape

