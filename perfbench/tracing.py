"""Per-layer spans around adaptmc's public functions, and the OT oracle.

``Tracer.install()`` replaces each traced name where its callers look it
up (a module global or a class attribute) with a wrapper that records a
span; ``uninstall()`` puts the originals back.  Spans nest on a stack, so
a span's self time is its duration minus the time its child spans cover.
Spans are aggregated in memory per name (calls, inclusive time, self
time) and written out when the benchmark ends: a chain-loop round makes
hundreds of thousands of spans, too many to keep one by one.

Every ``discrete_ot_exact`` call is also counted by size, by whether its
weights are uniform with equal sizes, and by whether it repeats an
earlier call of the same round; the calls of one chosen round are kept
for :func:`oracle_check`.
"""

import hashlib
import time
from collections import defaultdict

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from adaptmc import adaptation, core, diagnostics, experiments, kernels
from adaptmc import process, transport

DRAWS = ("uniform", "normal", "integers")
KERNEL_CLASSES = (kernels.DiscreteAr, kernels.GaussianAr, kernels.DiscreteRwm,
                  kernels.Ula, kernels.DiffusionTime1)
DIAGNOSTICS = ("estimate_containment", "estimate_diminishing", "lln_curve",
               "verify_harris_contraction", "harris_constants", "check_drift",
               "ar_bound_check")


class Tracer:
    def __init__(self):
        self._saved = []
        self._stack = []
        self.keep_ot = False
        self.reset()

    def reset(self):
        """Start a new round: zero every aggregate."""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.ot_entries = 0
        self.ot_uniform = 0
        self.ot_repeats = 0
        self._ot_seen = set()
        self.ot_kept = []

    # -- span bookkeeping

    def _close(self, name, t0):
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - child
        if self._stack:
            self._stack[-1] += dt

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, t0)
        return traced

    def wrap_generator(self, name, fn):
        # one span per resumption of the generator
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, t0)
                yield item
        return traced

    def _wrap_ot(self, fn):
        inner = self.wrap("transport.ot", fn)

        def traced(cost, w_mu, w_nu):
            c = np.asarray(cost, dtype=float)
            a = np.asarray(w_mu, dtype=float)
            b = np.asarray(w_nu, dtype=float)
            n, m = c.shape
            self.ot_entries += n * m
            if n == m and np.all(a == a[0]) and np.all(b == b[0]):
                self.ot_uniform += 1
            key = hashlib.blake2b(c.tobytes() + a.tobytes() + b.tobytes()
                                  + repr(c.shape).encode()).digest()
            if key in self._ot_seen:
                self.ot_repeats += 1
            self._ot_seen.add(key)
            res = inner(cost, w_mu, w_nu)
            if self.keep_ot:
                self.ot_kept.append((c.copy(), a.copy(), b.copy(), res.cost))
            return res
        return traced

    def _wrap_pi_sampler(self, fn):
        inner = self.wrap("diagnostics", fn)

        def traced(*args, **kwargs):
            sampler, meta = inner(*args, **kwargs)
            return self.wrap("diagnostics.pi_sampler", sampler), meta
        return traced

    # -- patching

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        rng = core.RngStream
        for meth in DRAWS:
            self._patch(rng, meth, self.wrap("core.draw", getattr(rng, meth)))
        self._patch(rng, "__init__", self.wrap("core.stream", rng.__init__))
        for cls in KERNEL_CLASSES:
            self._patch(cls, "step", self.wrap("kernels.step", cls.step))
            self._patch(cls, "coupled_step",
                        self.wrap("kernels.coupled_step", cls.coupled_step))
        self._patch(process, "adapt",
                    self.wrap("adaptation.adapt", process.adapt))
        hist = adaptation.HistorySummary
        self._patch(hist, "advance",
                    self.wrap("adaptation.advance", hist.advance))
        it = process.iterate_adaptive
        for mod in (process, diagnostics):
            self._patch(mod, "iterate_adaptive",
                        self.wrap_generator("process", it))
        for name in ("run_adaptive", "run_ensemble"):
            self._patch(experiments, name,
                        self.wrap("process", getattr(experiments, name)))
        ot = self._wrap_ot(transport.discrete_ot_exact)
        for mod in (transport, diagnostics, experiments):
            self._patch(mod, "discrete_ot_exact", ot)
        bd = self.wrap("transport.bounded_distance",
                       transport.bounded_distance)
        for mod in (diagnostics, experiments):
            self._patch(mod, "bounded_distance", bd)
        for name in DIAGNOSTICS:
            self._patch(experiments, name,
                        self.wrap("diagnostics", getattr(experiments, name)))
        self._patch(experiments, "default_pi_sampler",
                    self._wrap_pi_sampler(experiments.default_pi_sampler))
        self._patch(experiments, "run_experiment",
                    self.wrap("experiments", experiments.run_experiment))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- per-round figures

    def layer_figures(self):
        """Per-layer figures of the round since the last reset()."""
        c, t, s = self.calls, self.total, self.self_time
        return {
            "core.draw.calls": c["core.draw"], "core.draw.s": t["core.draw"],
            "core.stream.calls": c["core.stream"],
            "core.stream.s": t["core.stream"],
            "kernels.step.calls": c["kernels.step"],
            "kernels.step.s": t["kernels.step"],
            "kernels.coupled_step.calls": c["kernels.coupled_step"],
            "kernels.coupled_step.s": t["kernels.coupled_step"],
            "adaptation.adapt.calls": c["adaptation.adapt"],
            "adaptation.adapt.s": t["adaptation.adapt"],
            "adaptation.advance.calls": c["adaptation.advance"],
            "adaptation.advance.s": t["adaptation.advance"],
            "process.self_s": s["process"],
            "transport.ot.calls": c["transport.ot"],
            "transport.ot.s": t["transport.ot"],
            "transport.ot.entries": self.ot_entries,
            "transport.ot.uniform_calls": self.ot_uniform,
            "transport.ot.repeats": self.ot_repeats,
            "transport.bounded_distance.calls":
                c["transport.bounded_distance"],
            "transport.bounded_distance.self_s":
                s["transport.bounded_distance"],
            "diagnostics.self_s": s["diagnostics"]
                + s["diagnostics.pi_sampler"],
            "diagnostics.pi_sampler.s": t["diagnostics.pi_sampler"],
            "experiments.self_s": s["experiments"],
        }

    def spans(self):
        return {name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)}


# ---------------------------------------------------------------------------
# independent OT solves


def assignment_value(cost):
    """Optimal value for uniform weights on equal sizes: by Birkhoff's
    theorem an optimal plan is a permutation."""
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / cost.shape[0]


def dual_lp_value(cost, a, b):
    """Optimal value from the dual LP max a.u + b.v, u_i + v_j <= c_ij,
    assembled densely here; u_0 = 0 removes the shift invariance."""
    n, m = cost.shape
    scale = float(cost.max())
    if scale == 0.0:
        return 0.0
    a_ub = np.zeros((n * m, n + m))
    rows = np.arange(n * m)
    a_ub[rows, rows // m] = 1.0
    a_ub[rows, n + rows % m] = 1.0
    bounds = [(0.0, 0.0)] + [(None, None)] * (n + m - 1)
    res = linprog(-np.concatenate([a, b]), A_ub=a_ub,
                  b_ub=(cost / scale).ravel(), bounds=bounds,
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError("oracle LP failed: %s" % res.message)
    return -float(res.fun) * scale


def oracle_value(cost, a, b):
    n, m = cost.shape
    if n == m and np.all(a == a[0]) and np.all(b == b[0]):
        return assignment_value(cost)
    return dual_lp_value(cost, a, b)


def oracle_check(kept, tol=1e-9):
    """Compare recorded OT values with independent solves.

    Returns (calls checked, worst absolute difference, failure messages).
    """
    worst = 0.0
    bad = []
    for k, (cost, a, b, value) in enumerate(kept):
        want = oracle_value(cost, a, b)
        diff = abs(value - want)
        worst = max(worst, diff)
        if not diff <= tol:
            bad.append("OT call %d (%dx%d): value %.17g, oracle %.17g"
                       % (k, cost.shape[0], cost.shape[1], value, want))
    return len(kept), worst, bad
