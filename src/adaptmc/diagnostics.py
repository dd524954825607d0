"""Checkers for the convergence machinery behind adaptive runs.

Everything here is read-only over trajectories and kernels.  Exact paths
(closed-form distances, finite-chain enumeration) assert deterministically;
Monte Carlo paths report their own error and never silently extrapolate:
an estimate that runs past its horizon is labeled censored.
"""

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Optional

import numpy as np

from .core import EmpiricalMeasure
from .errors import (ContractionViolated, DomainError, HypothesisFailed,
                     ParamOutOfRange, SizeCap)
from .kernels import (STATIONARY_TOL, DiffusionTime1, DiscreteAr, DiscreteRwm,
                      GaussianAr, Ula)
from .process import iterate_adaptive, state_point
from .transport import (bounded_distance, discrete_ot_exact,
                        w1_atoms_vs_uniform01, w2_gaussian)

ATOM_CAP = 2 ** 20


# ---------------------------------------------------------------------------
# reference draws from the target law

def default_pi_sampler(kernel, tuning, burn_factor=10.0):
    """Build a sampler for the kernel's invariant law.

    Exact where the law is known in closed form; otherwise a frozen-kernel
    pilot chain whose burn-in covers 10x the estimated geometric time
    log(0.01)/log(contraction).  Returns (sampler, meta); the sampler maps
    (stream, size) to an (size, d) array of points and meta records the
    method and any burn-in, so reports can say when the reference is
    approximate.
    """
    if isinstance(kernel, DiscreteAr):
        def sampler(stream, size):
            return np.asarray(stream.uniform(size), dtype=float).reshape(-1, 1)
        return sampler, {"method": "exact-uniform"}
    if isinstance(kernel, GaussianAr):
        def sampler(stream, size):
            return np.atleast_2d(kernel.stationary_sample(stream, size))
        return sampler, {"method": "exact-gaussian"}
    if isinstance(kernel, DiscreteRwm):
        law = kernel.stationary_law(tuning)
        cum = np.cumsum(law)

        def sampler(stream, size):
            u = np.asarray(stream.uniform(size))
            idx = np.searchsorted(cum, u, side="right")
            idx = np.minimum(idx, len(law) - 1)
            return kernel.grid[idx]
        return sampler, {"method": "exact-finite"}
    # pilot chain; contraction rate from the coupled-step factor
    if isinstance(kernel, Ula):
        a, b = kernel.potential.convex_param, kernel.potential.lip_param
        rate = np.sqrt(max(1e-12, 1.0 - 2.0 * tuning.step * a * b / (a + b)))
    elif isinstance(kernel, DiffusionTime1):
        rate = np.exp(-kernel.potential.convex_param)
    else:
        rate = 0.9
    burn = int(np.ceil(burn_factor * np.log(0.01) / np.log(rate)))

    def sampler(stream, size, _burn=burn):
        dim = tuning.matrix.dim if hasattr(tuning, "matrix") else 1
        path = kernel.frozen_path(np.zeros(dim), tuning, stream,
                                  _burn + int(size))
        return np.asarray([np.atleast_1d(np.asarray(x, dtype=float))
                           for x in islice(path, _burn, None)])
    return sampler, {"method": "pilot-chain", "burn_in": burn,
                     "note": "approximate reference"}


# ---------------------------------------------------------------------------
# weak containment

@dataclass
class ContainmentEstimate:
    """Distance-to-target curves and the first horizon where they stay
    under eps.

    Each array has one row, for the start point x.  ``distances[0, n]``
    estimates the capped distance after n frozen steps; ``m_hat[0]`` is
    the smallest N with the whole tail [N, n_max] at or under eps, and
    ``censored[0]`` marks that no such N exists within the horizon.
    """

    eps: float
    distances: np.ndarray
    errors: np.ndarray
    m_hat: np.ndarray
    censored: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_max(self):
        return self.distances.shape[1] - 1

    def m_hat_at(self, eps):
        """Recompute m_hat for another eps on the same distance curves."""
        m, c = _first_settled(self.distances, eps)
        return m

    @property
    def any_censored(self):
        return bool(self.censored.any())


def _first_settled(distances, eps):
    # smallest N with suffix max <= eps; censored rows get n_max + 1
    rows, cols = distances.shape
    suffix = np.flip(np.maximum.accumulate(np.flip(distances, 1), 1), 1)
    ok = suffix <= eps
    m = np.where(ok.any(1), ok.argmax(1), cols)
    return m, m == cols


def _closed_form_distances(kernel, tuning, x, t_max):
    # exact distances to the invariant law after t = 0..t_max frozen steps:
    # W1 of the g^t atoms (x+m)/g^t to Unif[0, 1) for the base-g chain,
    # W2 of N(g^t x, (1-g^(2t)) C) to N(0, C) for the Gaussian AR chain
    g = tuning.gamma
    if isinstance(kernel, DiscreteAr):
        if g ** t_max > ATOM_CAP:
            raise SizeCap("gamma^t_max exceeds the exact-atom cap")
        return np.array([
            w1_atoms_vs_uniform01((float(x) + np.arange(g ** t, dtype=float))
                                  / g ** t)
            for t in range(t_max + 1)])
    if isinstance(kernel, GaussianAr):
        cov = kernel.cov.entries
        mean0 = np.zeros(kernel.dim)
        x = np.asarray(x, dtype=float)
        return np.array([w2_gaussian(g ** t * x, (1.0 - g ** (2 * t)) * cov,
                                     mean0, cov)
                         for t in range(t_max + 1)])
    raise DomainError("closed-form distances exist for DiscreteAr and "
                      "GaussianAr")


def estimate_containment(kernel, tuning, x, eps, metric, n_max, pi_sampler,
                         replicas, stream):
    """Estimate the settling horizon of the frozen kernel started at x.

    ``metric`` is a transport metric spec for the empirical route, or the
    string "exact" to use closed-form distances where the kernel family
    has them.  The empirical route runs ``replicas`` frozen chains, takes
    the cross-section cloud at each n, and compares it with a reference
    cloud from ``pi_sampler`` under the capped metric.  Estimates are
    upper-bound flavored, so a censored result means "not settled within
    n_max at this resolution", never a claim about the true value.
    ``meta["ot_routes"]`` counts the exact-OT route of each capped-distance
    solve ("assignment", "discrete-metric", "simplex" or "lp"; see
    ``discrete_ot_exact``); the closed-form route makes none.
    """
    if not 0.0 < eps < 1.0:
        raise ParamOutOfRange("eps must lie in (0, 1)")
    ot_routes = {"assignment": 0, "lp": 0}
    if isinstance(metric, str) and metric == "exact":
        # capped metric: min(W, 1) bounds the capped distance from above
        dist = np.minimum(
            _closed_form_distances(kernel, tuning, x, n_max), 1.0)
        err = np.zeros_like(dist)
        meta = {"route": "exact"}
    else:
        if pi_sampler is None:
            pi_sampler, meta_pi = default_pi_sampler(kernel, tuning)
        else:
            meta_pi = {"method": "caller-supplied"}
        base = metric  # callable (x, y) -> distances, or None for euclidean
        x0 = state_point(kernel, x)
        pts = np.empty((replicas, n_max + 1, x0.shape[0]))
        for r in range(replicas):
            pts[r, 0] = x0
            path = kernel.frozen_path(x, tuning, stream.substream(1000 + r),
                                      n_max)
            for n, xi in enumerate(path, 1):
                pts[r, n] = state_point(kernel, xi)
        ref = EmpiricalMeasure(pi_sampler(stream.substream(1), replicas))
        dist = np.empty(n_max + 1)
        err = np.empty(n_max + 1)
        for n in range(n_max + 1):
            cloud = EmpiricalMeasure(pts[:, n])
            res = bounded_distance(cloud, ref, base_metric=base,
                                   stream=stream.substream(2 + n))
            dist[n], err[n] = res.cost, res.error
            route = res.meta["route"]
            ot_routes[route] = ot_routes.get(route, 0) + 1
        meta = {"route": "empirical", "replicas": replicas,
                "reference": meta_pi}
    meta["ot_routes"] = ot_routes
    dist = dist.reshape(1, -1)
    m, cens = _first_settled(dist, eps)
    return ContainmentEstimate(eps=eps, distances=dist,
                               errors=err.reshape(1, -1), m_hat=m,
                               censored=cens, meta=meta)


# ---------------------------------------------------------------------------
# weak diminishing adaptation

@dataclass
class DiminishingEstimate:
    """Per-step suprema of coupled one-step capped distances.

    ``values[i, k]`` approximates, at trajectory step ts[i] and pair
    separation delta_grid[k], the worst expected capped distance after one
    coupled step under the consecutive tunings.  The supremum is sampled,
    not exact; pair separations are stratified and always include one pair
    at exactly delta.
    """

    delta_grid: np.ndarray
    ts: np.ndarray
    values: np.ndarray
    non_diminishing: bool
    threshold: float


def _pair_at(kernel, states, sep, stream):
    # one (x, y) pair at base distance (close to) sep, anchored at a
    # visited state
    idx = int(stream.integers(0, len(states)))
    x = states[idx]
    if isinstance(kernel, DiscreteAr):
        xf = float(x)
        y = xf - sep if xf - sep >= 0.0 else xf + sep
        if not 0.0 <= y < 1.0:
            y = min(max(y, 0.0), np.nextafter(1.0, 0.0))
        return xf, y, abs(xf - y)
    if isinstance(kernel, DiscreteRwm):
        i = int(x)
        d = np.linalg.norm(kernel.grid - kernel.grid[i], axis=1)
        near = np.flatnonzero((d > 0.0) & (d <= sep))
        if near.size == 0:
            return i, i, 0.0
        j = int(near[np.argmax(d[near])])
        return i, j, float(d[j])
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    u = stream.normal(xv.shape[0])
    n = np.linalg.norm(u)
    u = u / n if n > 0 else np.eye(xv.shape[0])[0]
    return xv, xv + sep * u, sep


def estimate_diminishing(trajectory, kernel, delta_grid, pairs_per_delta,
                         stream, ts=None, noise_avg=8):
    """Sampled check that consecutive-tuning couplings stop moving mass.

    For each retained step t and each delta, draws pairs (x, y) no farther
    than delta apart, runs the shared-noise coupled step under
    (tuning[t+1], tuning[t]), and keeps the worst average capped distance.
    The non-diminishing flag fires when the late-window median at the
    smallest delta stays above max(0.05, 2*delta_min): couplings that
    contract keep it under delta_min, so only genuinely far-apart tuning
    pairs trip it.
    """
    delta_grid = np.asarray(sorted(delta_grid), dtype=float)
    if np.any(delta_grid <= 0):
        raise ParamOutOfRange("deltas must be positive")
    if ts is None:
        ts = range(trajectory.horizon)
    ts = np.asarray(sorted(set(int(t) for t in ts)))
    if ts.size and (ts[0] < 0 or ts[-1] >= trajectory.horizon):
        raise ParamOutOfRange("steps must lie in [0, horizon)")
    states = trajectory.states
    values = np.zeros((ts.size, delta_grid.size))
    for i, t in enumerate(ts):
        g_new, g_old = trajectory.tunings[t + 1], trajectory.tunings[t]
        for k, delta in enumerate(delta_grid):
            worst = 0.0
            for j in range(pairs_per_delta):
                # stratified separations, last one exactly delta
                sep = delta * (j + 1) / pairs_per_delta
                sub = stream.substream(t * 100003 + k * 1009 + j)
                x, y, _ = _pair_at(kernel, states, sep, sub)
                acc = 0.0
                for _ in range(noise_avg):
                    xn, yn = kernel.coupled_step(x, g_new, y, g_old, sub)
                    gap = np.linalg.norm(state_point(kernel, xn)
                                         - state_point(kernel, yn))
                    acc += min(gap, 1.0)
                worst = max(worst, acc / noise_avg)
            values[i, k] = worst
    dmin = float(delta_grid[0])
    threshold = max(0.05, 2.0 * dmin)
    tail = values[max(0, ts.size - max(1, ts.size // 10)):, 0]
    flag = bool(tail.size and np.median(tail) > threshold)
    return DiminishingEstimate(delta_grid=delta_grid, ts=ts, values=values,
                               non_diminishing=flag, threshold=threshold)


# ---------------------------------------------------------------------------
# drift

@dataclass
class DriftReport:
    """Fitted geometric drift over sampled points and tunings.

    The fit is the least-squares slope of the one-step mean of V against
    V, clipped into [0, 1), with the intercept taken as the max positive
    excess, so every sampled point satisfies the fitted inequality by
    construction.  Violations count points breaking a caller-supplied
    (lam, L) beyond three Monte Carlo standard errors.
    """

    labels: list
    v_values: np.ndarray
    pv_estimates: np.ndarray
    pv_stderr: np.ndarray
    lam_hat: float
    L_hat: float
    residuals: np.ndarray
    violations: int
    supplied: Optional[tuple] = None


def check_drift(kernel, tunings, V, test_points, samples_per_point, stream,
                lam=None, L=None):
    """Monte Carlo estimate of one-step V-drift, with a pooled fit."""
    if not isinstance(tunings, (list, tuple)):
        tunings = [tunings]
    labels, vvals, pvs, errs = [], [], [], []
    q = 0
    for g in tunings:
        for x in test_points:
            v = float(V(x))
            if v < 0:
                raise DomainError("V must be nonnegative on test points")
            s = stream.substream(q)
            q += 1
            draws = np.empty(samples_per_point)
            for j in range(samples_per_point):
                draws[j] = V(kernel.step(x, g, s))
            labels.append((g, x))
            vvals.append(v)
            pvs.append(draws.mean())
            errs.append(draws.std(ddof=1) / np.sqrt(samples_per_point)
                        if samples_per_point > 1 else 0.0)
    vvals = np.asarray(vvals)
    pvs = np.asarray(pvs)
    errs = np.asarray(errs)
    spread = vvals.var()
    if spread < 1e-24:
        lam_hat = 0.0
    else:
        lam_hat = float(np.polyfit(vvals, pvs, 1)[0])
        lam_hat = min(max(lam_hat, 0.0), 1.0 - 1e-9)
    L_hat = float(np.maximum(pvs - lam_hat * vvals, 0.0).max())
    residuals = pvs - (lam_hat * vvals + L_hat)
    violations = 0
    supplied = None
    if lam is not None and L is not None:
        supplied = (float(lam), float(L))
        violations = int(np.sum(pvs > lam * vvals + L + 3.0 * errs))
    return DriftReport(labels=labels, v_values=vvals, pv_estimates=pvs,
                       pv_stderr=errs, lam_hat=lam_hat, L_hat=L_hat,
                       residuals=residuals, violations=violations,
                       supplied=supplied)


# ---------------------------------------------------------------------------
# law of large numbers

@dataclass
class Observable:
    name: str
    fn: Callable
    lip: Optional[float] = None


@dataclass
class LLNReport:
    """Replica-averaged squared error of running means against a
    reference value, across a horizon grid."""

    observable: Observable
    reference: float
    t_grid: np.ndarray
    mse: np.ndarray
    mse_stderr: np.ndarray
    slope: Optional[float]
    monotone: bool


def lln_curve(kernel, policy, init, phi, pi_reference_value, t_grid, replicas,
              stream):
    """Mean squared error of time averages of phi along adaptive runs.

    The average at horizon T is over the post-initialization states
    X_1..X_T.  The slope is least squares on the log-log curve (None when
    some MSE is exactly zero), and the monotone flag allows a 2x noise
    band between successive grid points.  The standard errors need at
    least two replicas.
    """
    if not isinstance(phi, Observable):
        phi = Observable(name=getattr(phi, "__name__", "phi"), fn=phi)
    t_grid = np.asarray(sorted(set(int(t) for t in t_grid)))
    if np.any(t_grid < 1):
        raise ParamOutOfRange("horizons must be >= 1")
    if replicas < 2:
        raise ParamOutOfRange("need at least 2 replicas for a standard error")
    horizon = int(t_grid[-1])
    marks = {int(t): i for i, t in enumerate(t_grid)}
    sq = np.zeros((replicas, t_grid.size))
    for r in range(replicas):
        s = stream.substream(r)
        total = 0.0
        for t, _, state in iterate_adaptive(kernel, policy, init, horizon, s):
            if t == 0:
                continue
            total += float(phi.fn(state))
            if t in marks:
                avg = total / t
                sq[r, marks[t]] = (avg - pi_reference_value) ** 2
    mse = sq.mean(0)
    stderr = sq.std(0, ddof=1) / np.sqrt(replicas)
    if np.all(mse > 0):
        slope = float(np.polyfit(np.log(t_grid), np.log(mse), 1)[0])
    else:
        slope = None
    monotone = bool(np.all(mse[1:] <= 2.0 * mse[:-1] + 1e-30))
    return LLNReport(observable=phi, reference=float(pi_reference_value),
                     t_grid=t_grid, mse=mse, mse_stderr=stderr, slope=slope,
                     monotone=monotone)


# ---------------------------------------------------------------------------
# exponential bounds for the two tractable families

@dataclass
class BoundRow:
    t: int
    exact: float
    bound: float
    ok: bool


@dataclass
class BoundTable:
    family: str
    rows: list

    @property
    def all_ok(self):
        return all(r.ok for r in self.rows)

    def as_arrays(self):
        t = np.array([r.t for r in self.rows])
        e = np.array([r.exact for r in self.rows])
        b = np.array([r.bound for r in self.rows])
        return t, e, b


def ar_bound_check(kernel, tuning, x, t_max):
    """Exact t-step distance vs the geometric envelope, per family.

    Base-g refinement: the t-step law from x is uniform on the g^t points
    (x+m)/g^t, so the distance to Unif[0,1) is an exact quantile integral
    and must sit under g^(-t).  Gaussian AR: the t-step law is
    N(g^t x, (1-g^(2t))C), compared in closed form against N(0, C) and
    the envelope g^t (||x|| + sqrt(tr C)).  Every row must pass.
    """
    distances = _closed_form_distances(kernel, tuning, x, t_max)
    discrete = isinstance(kernel, DiscreteAr)
    g = tuning.gamma
    if not discrete:
        scale = np.linalg.norm(np.asarray(x, dtype=float)) \
            + np.sqrt(np.trace(kernel.cov.entries))
    rows = []
    for t, exact in enumerate(distances):
        bound = g ** (-t) if discrete else g ** t * scale
        rows.append(BoundRow(t, float(exact), float(bound),
                             exact <= bound + 1e-12))
    return BoundTable("discrete-ar" if discrete else "gaussian-ar", rows)


# ---------------------------------------------------------------------------
# simultaneous weak Harris constants

@dataclass
class HarrisConstants:
    """Explicit contraction constants from (lam, K, kappa, alpha, delta).

    beta_star scales the drift term inside the metric
    rho_g(u, v) = sqrt((rho ^ 1)(u, v) * (1 + beta_star V(u) + beta_star
    V(v))); alpha_star = 1 - max of the three case factors.
    """

    lam: float
    K: float
    kappa: float
    alpha: float
    delta: float
    beta_star: float
    R: float
    f1: float
    f2: float
    f3: float
    alpha_star: float

    def metric_cost(self, rho_capped, v_left, v_right):
        """Cost matrix of the drift-weighted metric from a capped base
        cost and V tables."""
        w = (1.0 + self.beta_star * np.asarray(v_left)[:, None]
             + self.beta_star * np.asarray(v_right)[None, :])
        return np.sqrt(np.asarray(rho_capped) * w)

    def t_step_envelope(self, t, v_x):
        level = self.beta_star * self.K / (1.0 - self.lam)
        return ((1.0 - self.alpha_star) ** t
                * np.sqrt(1.0 + self.beta_star * np.asarray(v_x) + level))


def harris_constants(lam, K, kappa, alpha, delta):
    for name, v in (("lam", lam), ("kappa", kappa), ("alpha", alpha),
                    ("delta", delta)):
        if not 0.0 < v < 1.0:
            raise ParamOutOfRange(f"{name} must lie in (0, 1)")
    if K <= 0.0:
        raise ParamOutOfRange("K must be positive")
    beta = min(alpha, kappa) / (4.0 * K)
    R = (1.0 + delta) * 2.0 * K / (1.0 - lam)
    f1 = np.sqrt((1.0 - lam) * (1.0 + 2.0 * beta * K / (1.0 - lam))
                 / (1.0 + beta * R) + lam)
    f2 = np.sqrt(1.0 - alpha / 2.0)
    f3 = np.sqrt(1.0 - kappa / 2.0)
    a_star = 1.0 - max(f1, f2, f3)
    return HarrisConstants(lam=lam, K=K, kappa=kappa, alpha=alpha, delta=delta,
                           beta_star=float(beta), R=float(R), f1=float(f1),
                           f2=float(f2), f3=float(f3),
                           alpha_star=float(a_star))


@dataclass
class HarrisReport:
    labels: list
    hypothesis_slack: dict
    one_step_margin: float
    t_step_margin: float
    t_checked: int
    ot_routes: dict


def _w_exact(cost, a, b, routes):
    # counts each solve's exact-OT route in ``routes``
    res = discrete_ot_exact(cost, a, b)
    routes[res.meta["route"]] = routes.get(res.meta["route"], 0) + 1
    return res.cost


def _check_harris_hypotheses(P, V, rho, c, routes):
    n = P.shape[0]
    pv = P @ V
    drift = pv - c.lam * V
    worst = float(drift.max())
    if worst > c.K + 1e-9:
        raise HypothesisFailed(
            f"drift fails at state {int(drift.argmax())}: PV - lam V = "
            f"{worst:.6g} > K = {c.K:.6g}")
    capped = np.minimum(rho, 1.0)
    # when rho never exceeds 1 the smallness LP is the contraction LP
    capped_is_rho = np.array_equal(capped, rho)
    contr_slack = -np.inf
    small_slack = -np.inf
    inside = V <= c.R
    for i in range(n):
        for j in range(i + 1, n):
            w_rho = _w_exact(rho, P[i], P[j], routes)
            gap = w_rho - (1.0 - c.alpha) * rho[i, j]
            contr_slack = max(contr_slack, gap)
            if gap > 1e-9:
                raise HypothesisFailed(
                    f"contraction fails at pair ({i},{j}): "
                    f"W = {w_rho:.6g} > (1-alpha) rho = "
                    f"{(1.0 - c.alpha) * rho[i, j]:.6g}")
            if inside[i] and inside[j]:
                w_cap = (w_rho if capped_is_rho
                         else _w_exact(capped, P[i], P[j], routes))
                gap = w_cap - (1.0 - c.kappa)
                small_slack = max(small_slack, gap)
                if gap > 1e-9:
                    raise HypothesisFailed(
                        f"smallness fails at pair ({i},{j}): "
                        f"W_cap = {w_cap:.6g} > 1 - kappa = "
                        f"{1.0 - c.kappa:.6g}")
    return {"drift": worst - c.K, "contraction": contr_slack,
            "smallness": small_slack}


def _stationary_of(P):
    """Stationary law of a row-stochastic P: (P^T - I) pi = 0, sum(pi) = 1.

    Solved by least squares on the stacked system.  The stacked matrix has
    rank n exactly when P^T - I has rank n - 1, so a smaller rank means
    more than one closed class and no unique law.  The solution must be
    nonnegative and leave max |pi P - pi| within STATIONARY_TOL.
    """
    n = P.shape[0]
    lhs = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    if rank < n:
        raise HypothesisFailed("P^T - I has rank %d < n - 1 = %d: more than "
                               "one closed class" % (rank - 1, n - 1))
    if pi.min() < -STATIONARY_TOL:
        raise HypothesisFailed("stationary law has a negative entry %.3g"
                               % pi.min())
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    resid = float(np.abs(pi @ P - pi).max())
    if resid > STATIONARY_TOL:
        raise HypothesisFailed("stationary residual %.3g exceeds %.3g"
                               % (resid, STATIONARY_TOL))
    return pi


def verify_harris_contraction(chains, V, rho, constants, t_max=20):
    """Enumerate-everything verification of the contraction guarantee.

    ``chains`` maps labels to row-stochastic matrices over at most 64
    states sharing the metric ``rho`` and potential table ``V`` (per-label
    dict allowed).  Hypotheses (drift, contraction, smallness inside the
    sublevel set) are checked exactly first; then every state pair must
    contract in the drift-weighted metric by (1 - alpha_star) in one step,
    and the t-step distance to the stationary law must sit under the
    explicit envelope for t <= t_max.  A failure of the first part raises
    HypothesisFailed; of the second, ContractionViolated.  The report's
    ``ot_routes`` counts the exact-OT route of every solve.
    """
    if not isinstance(chains, dict):
        chains = {"chain": chains}
    labels = list(chains)
    hyp = {}
    one_margin = -np.inf
    t_margin = -np.inf
    routes = {}
    for label in labels:
        P = np.asarray(chains[label], dtype=float)
        n = P.shape[0]
        if n > 64:
            raise SizeCap("enumeration is limited to 64 states")
        if not np.allclose(P.sum(1), 1.0, atol=1e-9) or np.any(P < -1e-12):
            raise DomainError(f"{label}: not a stochastic matrix")
        Vg = np.asarray(V[label] if isinstance(V, dict) else V, dtype=float)
        rho_m = np.asarray(rho, dtype=float)
        hyp[label] = _check_harris_hypotheses(P, Vg, rho_m, constants,
                                              routes)
        capped = np.minimum(rho_m, 1.0)
        cost = constants.metric_cost(capped, Vg, Vg)
        for i in range(n):
            for j in range(i + 1, n):
                w = _w_exact(cost, P[i], P[j], routes)
                gap = w - (1.0 - constants.alpha_star) * cost[i, j]
                one_margin = max(one_margin, gap)
                if gap > 1e-9:
                    raise ContractionViolated(
                        f"{label}: one-step pair ({i},{j}) gap {gap:.3g}")
        pi = _stationary_of(P)
        Pt = np.eye(n)
        for t in range(1, t_max + 1):
            Pt = Pt @ P
            env = constants.t_step_envelope(t, Vg)
            for i in range(n):
                w = _w_exact(cost, Pt[i], pi, routes)
                gap = w - env[i]
                t_margin = max(t_margin, gap)
                if gap > 1e-9:
                    raise ContractionViolated(
                        f"{label}: t-step bound fails at t={t}, state {i}, "
                        f"gap {gap:.3g}")
    return HarrisReport(labels=labels, hypothesis_slack=hyp,
                        one_step_margin=float(one_margin),
                        t_step_margin=float(t_margin), t_checked=t_max,
                        ot_routes=routes)

