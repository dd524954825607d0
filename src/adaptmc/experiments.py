"""Experiment runners and on-disk report format.

Every runner takes a validated config and writes the same artifact
layout: one or more CSV tables, a ``<table>.meta.json`` sidecar
documenting the columns, a ``summary.json`` with the headline numbers,
and a ``manifest.json`` with the config hash and per-file checksums.
All output is deterministic for a fixed config and seed: floats are
written with repr, JSON keys are sorted, and nothing records the clock.
"""

import csv
import hashlib
import io
import json
import os

import numpy as np

from . import __version__
from .config import build_init, build_kernel, build_policy, build_tuning
from .core import EmpiricalMeasure, make_stream
from .diagnostics import (Observable, ar_bound_check, check_drift,
                          default_pi_sampler, estimate_containment,
                          estimate_diminishing, harris_constants, lln_curve,
                          verify_harris_contraction)
from .errors import (ContractionViolated, Error, HypothesisFailed,
                     MissingArtifact, SchemaError)
from .kernels import ArCoef, DiscreteBase, LangevinTuning, MatrixScale
from .process import run_adaptive, run_ensemble, state_point
from .transport import (bounded_distance, discrete_ot_exact,
                        euclidean_metric, sliced_w1, w2_gaussian, w_exact_1d)


class BoundFalsified(Error):
    """A quantitative claim the experiment set out to reproduce failed."""


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(out_dir, name, columns, rows, describe, extra_meta=None):
    path = os.path.join(out_dir, name + ".csv")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    data = buf.getvalue().encode()
    with open(path, "wb") as f:
        f.write(data)
    meta = {"columns": [{"name": c, "description": describe.get(c, "")}
                        for c in columns],
            "rows": len(rows)}
    if extra_meta:
        meta.update(extra_meta)
    _write_json(out_dir, name + ".meta", meta)
    return [name + ".csv", name + ".meta.json"]


class _JsonEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.bool_,)):
            return bool(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        return super().default(o)


def _write_json(out_dir, name, obj):
    path = os.path.join(out_dir, name + ".json")
    data = json.dumps(obj, sort_keys=True, indent=2, cls=_JsonEncoder)
    with open(path, "wb") as f:
        f.write(data.encode() + b"\n")
    return name + ".json"


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _tuning_label(t):
    if isinstance(t, DiscreteBase):
        return "base=%d" % t.gamma
    if isinstance(t, ArCoef):
        return "coef=" + repr(float(t.gamma))
    if isinstance(t, LangevinTuning):
        return "step=" + repr(float(t.step))
    if isinstance(t, MatrixScale):
        return "scale:tr=" + repr(float(t.matrix.trace()))
    return type(t).__name__


def _build_metric(spec):
    # None -> euclidean base; "exact" handled by the containment runner
    if spec is None or spec.get("type") in (None, "euclidean"):
        return None
    typ = spec.get("type")
    if typ == "exact":
        return "exact"
    if typ == "projection":
        j = int(spec.get("coord", 0))

        def proj(a, b):
            return np.abs(a[:, j:j + 1] - b[:, j:j + 1].T)
        return proj
    raise SchemaError(f"metric.type: unknown metric '{typ}'")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_OBSERVABLES = {
    "first-coordinate": lambda x: float(np.atleast_1d(x)[0]),
    "capped-norm": lambda x: min(float(np.linalg.norm(np.atleast_1d(x))),
                                 1.0),
    "below-half": lambda x: 1.0 if float(np.atleast_1d(x)[0]) < 0.5 else 0.0,
}


def _measure_from_spec(spec):
    if "gaussian" in spec:
        g = spec["gaussian"]
        return ("gaussian", np.asarray(g["mean"], dtype=float),
                np.asarray(g["cov"], dtype=float))
    pts = np.asarray(spec["points"], dtype=float)
    w = spec.get("weights")
    return ("empirical", EmpiricalMeasure(pts, None if w is None
                                          else np.asarray(w, dtype=float)))


# ---------------------------------------------------------------------------
# runners, one per experiment kind


def _run_simulate(cfg, out_dir, stream):
    kernel = build_kernel(cfg.kernel)
    policy = build_policy(cfg.policy)
    init = build_init(cfg.init, kernel)
    horizon = cfg.horizon if cfg.horizon is not None else 100
    files = []
    if cfg.replicas is not None and cfg.replicas >= 2:
        checkpoints = cfg.checkpoints or [0, horizon]
        sections = run_ensemble(kernel, policy, init, horizon, cfg.replicas,
                                checkpoints, stream)
        rows = []
        dim = sections[0].measure.dim
        for sec in sections:
            for r in range(sec.replicas):
                rows.append([sec.t, r] + list(sec.measure.points[r]))
        cols = ["t", "replica"] + ["x%d" % i for i in range(dim)]
        files += _write_csv(
            out_dir, "cross_sections", cols, rows,
            {"t": "checkpoint step", "replica": "replica index",
             **{"x%d" % i: "state coordinate %d" % i for i in range(dim)}})
        last = sections[-1]
        summary = {"kind": cfg.kind, "replicas": cfg.replicas,
                   "horizon": horizon,
                   "final_mean": last.measure.mean().tolist(),
                   "final_t": last.t}
    else:
        traj = run_adaptive(kernel, policy, init, horizon, stream)
        rows = []
        for t in range(len(traj)):
            pt = state_point(kernel, traj.states[t])
            rows.append([t, _tuning_label(traj.tunings[t])] + list(pt))
        dim = len(state_point(kernel, traj.states[0]))
        cols = ["t", "tuning"] + ["x%d" % i for i in range(dim)]
        files += _write_csv(
            out_dir, "trajectory", cols, rows,
            {"t": "step", "tuning": "tuning in force when the state was "
             "drawn",
             **{"x%d" % i: "state coordinate %d" % i for i in range(dim)}})
        summary = {"kind": cfg.kind, "horizon": horizon,
                   "final_state": list(state_point(kernel,
                                                   traj.states[-1])),
                   "final_tuning": _tuning_label(traj.tunings[-1])}
    return files, summary, 0


def _run_distance(cfg, out_dir, stream):
    p = cfg.params
    left = _measure_from_spec(p["left"])
    right = _measure_from_spec(p["right"])
    method = p.get("method", "exact")
    if method == "gaussian":
        if left[0] != "gaussian" or right[0] != "gaussian":
            raise SchemaError("params.method: 'gaussian' needs two gaussian "
                              "measure specs")
        cost = w2_gaussian(left[1], left[2], right[1], right[2])
        err = 0.0
    else:
        if left[0] != "empirical" or right[0] != "empirical":
            raise SchemaError("params.method: point-cloud methods need "
                              "'points' measure specs")
        mu, nu = left[1], right[1]
        if method == "exact-1d":
            res = w_exact_1d(mu, nu, p=p.get("p", 1))
            cost, err = res.cost, res.error
        elif method == "exact":
            res = discrete_ot_exact(euclidean_metric(mu.points, nu.points),
                                    mu.weights, nu.weights)
            cost, err = res.cost, res.error
        elif method == "sliced":
            res = sliced_w1(mu, nu, p.get("projections", 64),
                            stream.substream(1))
            cost, err = res.cost, res.error
        elif method == "capped":
            res = bounded_distance(mu, nu, stream=stream.substream(1))
            cost, err = res.cost, res.error
        else:
            raise SchemaError(f"params.method: unknown method '{method}'")
    files = _write_csv(out_dir, "distance",
                       ["method", "cost", "error"],
                       [[method, float(cost), float(err)]],
                       {"method": "distance routine",
                        "cost": "computed distance",
                        "error": "certified gap or MC standard error"})
    return files, {"kind": cfg.kind, "method": method, "cost": float(cost),
                   "error": float(err)}, 0


def _run_containment(cfg, out_dir, stream):
    kernel = build_kernel(cfg.kernel)
    tuning = build_tuning(cfg.init["tuning"])
    p = cfg.params
    scalar_state = cfg.kernel["family"] in ("discrete-ar", "discrete-rwm")
    x = p["x"]
    x = float(x) if scalar_state else np.atleast_1d(np.asarray(x,
                                                               dtype=float))
    eps_grid = sorted((p["eps"] if isinstance(p["eps"], list)
                       else [p["eps"]]), reverse=True)
    n_max = int(p.get("n_max", 32))
    metric = _build_metric(cfg.metric)
    sampler, meta = default_pi_sampler(kernel, tuning)
    est = estimate_containment(kernel, tuning, x, float(min(eps_grid)),
                               metric, n_max, sampler,
                               int(p.get("replicas", 128)), stream)
    rows = [[n, float(est.distances[0, n]), float(est.errors[0, n])]
            for n in range(n_max + 1)]
    files = _write_csv(out_dir, "containment",
                       ["n", "distance", "error"],
                       rows,
                       {"n": "frozen steps from the start point",
                        "distance": "capped distance to the invariant law",
                        "error": "0 on the closed-form route; the certified "
                        "duality gap when the clouds are solved exactly; "
                        "the bootstrap standard error when subsampled"})
    m_hats = {}
    censored = {}
    for e in eps_grid:
        m = int(est.m_hat_at(float(e))[0])
        m_hats[repr(float(e))] = m
        censored[repr(float(e))] = m > n_max
    notes = []
    if any(censored.values()):
        notes.append("some settling horizons are censored at n_max=%d; "
                     "censored entries report n_max+1 and claim nothing "
                     "about the true value" % n_max)
    if meta.get("method") == "pilot-chain":
        notes.append("reference cloud is a pilot-chain approximation "
                     "(burn-in %d), not an exact draw"
                     % meta.get("burn_in", 0))
    summary = {"kind": cfg.kind, "n_max": n_max, "m_hat": m_hats,
               "censored": censored, "reference": meta.get("method"),
               "ot_routes": est.meta["ot_routes"], "notes": notes}
    return files, summary, 0


def _run_diminishing(cfg, out_dir, stream):
    kernel = build_kernel(cfg.kernel)
    policy = build_policy(cfg.policy)
    init = build_init(cfg.init, kernel)
    horizon = cfg.horizon if cfg.horizon is not None else 200
    p = cfg.params
    traj = run_adaptive(kernel, policy, init, horizon, stream.substream(0))
    est = estimate_diminishing(traj, kernel,
                               p.get("delta_grid", [0.05, 0.1, 0.2]),
                               int(p.get("pairs_per_delta", 8)),
                               stream.substream(1))
    rows = []
    for i, t in enumerate(est.ts):
        for k, d in enumerate(est.delta_grid):
            rows.append([int(t), float(d), float(est.values[i, k])])
    files = _write_csv(out_dir, "diminishing",
                       ["t", "delta", "value"],
                       rows,
                       {"t": "trajectory step",
                        "delta": "pair separation bound",
                        "value": "worst sampled one-step capped distance "
                        "under consecutive tunings"})
    summary = {"kind": cfg.kind, "horizon": horizon,
               "non_diminishing": bool(est.non_diminishing),
               "threshold": float(est.threshold)}
    code = 4 if est.non_diminishing and p.get("expect_diminishing",
                                              False) else 0
    return files, summary, code


def _run_drift(cfg, out_dir, stream):
    kernel = build_kernel(cfg.kernel)
    p = cfg.params
    tunings = [build_tuning(s) for s in p["tunings"]]

    def V(x):
        return float(np.dot(np.atleast_1d(x), np.atleast_1d(x)))
    scalar_state = cfg.kernel["family"] in ("discrete-ar", "discrete-rwm")
    pts = [float(q) if scalar_state else np.atleast_1d(
        np.asarray(q, dtype=float)) for q in p["points"]]
    rep = check_drift(kernel, tunings, V, pts,
                      int(p.get("samples_per_point", 256)), stream,
                      lam=p.get("lam"), L=p.get("L"))
    rows = []
    for i, lab in enumerate(rep.labels):
        rows.append([lab, float(rep.v_values[i]),
                     float(rep.pv_estimates[i]), float(rep.pv_stderr[i]),
                     float(rep.residuals[i])])
    files = _write_csv(out_dir, "drift",
                       ["label", "v", "pv", "stderr", "residual"],
                       rows,
                       {"label": "tuning and test point",
                        "v": "potential at the point",
                        "pv": "one-step mean of the potential",
                        "stderr": "MC standard error of pv",
                        "residual": "pv - (lam_hat v + L_hat)"})
    summary = {"kind": cfg.kind, "lam_hat": float(rep.lam_hat),
               "L_hat": float(rep.L_hat), "violations": int(rep.violations),
               "supplied": list(rep.supplied) if rep.supplied else None}
    code = 4 if rep.supplied and rep.violations > 0 else 0
    return files, summary, code


def _run_lln(cfg, out_dir, stream):
    kernel = build_kernel(cfg.kernel)
    policy = build_policy(cfg.policy)
    init = build_init(cfg.init, kernel)
    p = cfg.params
    name = p.get("phi", "first-coordinate")
    if name not in _OBSERVABLES:
        raise SchemaError(f"params.phi: unknown observable '{name}'")
    phi = Observable(name, _OBSERVABLES[name], lip=1.0)
    reference = p.get("reference")
    if not _is_number(reference):
        raise SchemaError("params.reference: needs a number, the "
                          "observable's mean under pi")
    t_grid = p.get("t_grid", [100, 1000])
    if not (isinstance(t_grid, list) and t_grid
            and all(_is_int(t) and t >= 1 for t in t_grid)):
        raise SchemaError("params.t_grid: must be a non-empty list of "
                          "integers >= 1")
    replicas = p.get("replicas", 64)
    if not (_is_int(replicas) and replicas >= 2):
        raise SchemaError("params.replicas: must be an integer >= 2 (the "
                          "standard error needs two replicas)")
    rep = lln_curve(kernel, policy, init, phi, float(reference), t_grid,
                    replicas, stream)
    rows = [[int(rep.t_grid[i]), float(rep.mse[i]),
             float(rep.mse_stderr[i])] for i in range(len(rep.t_grid))]
    files = _write_csv(out_dir, "lln",
                       ["T", "mse", "stderr"],
                       rows,
                       {"T": "averaging horizon",
                        "mse": "replica-mean squared error of the running "
                        "average against the reference",
                        "stderr": "MC standard error of the mse"})
    summary = {"kind": cfg.kind, "observable": name,
               "slope": None if rep.slope is None else float(rep.slope),
               "monotone": bool(rep.monotone)}
    return files, summary, 0


def _run_ar_bounds(cfg, out_dir, stream):
    kernel = build_kernel(cfg.kernel)
    tuning = build_tuning(cfg.init["tuning"])
    p = cfg.params
    x = p["x"]
    x = float(x) if np.isscalar(x) else np.asarray(x, dtype=float)
    table = ar_bound_check(kernel, tuning, x, int(p.get("t_max", 20)))
    rows = [[r.t, float(r.exact), float(r.bound), bool(r.ok)]
            for r in table.rows]
    files = _write_csv(out_dir, "bounds",
                       ["t", "exact_distance", "bound", "satisfied"],
                       rows,
                       {"t": "number of frozen steps",
                        "exact_distance": "closed-form distance to the "
                        "invariant law",
                        "bound": "geometric envelope",
                        "satisfied": "exact_distance <= bound"})
    summary = {"kind": cfg.kind, "family": table.family,
               "rows": len(table.rows), "all_ok": bool(table.all_ok)}
    return files, summary, 0 if table.all_ok else 4


# the Harris constants and their inputs, as both Harris runners write them
_HARRIS_FIELDS = ("lam", "K", "kappa", "alpha", "delta", "beta_star", "R",
                  "f1", "f2", "f3", "alpha_star")


def _run_harris(cfg, out_dir, stream):
    p = cfg.params
    c = harris_constants(float(p["lam"]), float(p["K"]), float(p["kappa"]),
                         float(p["alpha"]), float(p["delta"]))
    files = _write_csv(out_dir, "harris", list(_HARRIS_FIELDS),
                       [[float(getattr(c, f)) for f in _HARRIS_FIELDS]],
                       {f: "" for f in _HARRIS_FIELDS})
    summary = {"kind": cfg.kind}
    summary.update({f: float(getattr(c, f)) for f in _HARRIS_FIELDS})
    return files, summary, 0


def _run_harris_verify(cfg, out_dir, stream):
    p = cfg.params
    c = harris_constants(float(p["lam"]), float(p["K"]), float(p["kappa"]),
                         float(p["alpha"]), float(p["delta"]))
    chains = {}
    for i, spec in enumerate(p["chains"]):
        chains["chain%d" % i] = np.asarray(spec["matrix"], dtype=float)
    V = np.asarray(p["V"], dtype=float)
    n = len(V)
    if "rho" in p:
        rho = np.asarray(p["rho"], dtype=float)
    else:
        rho = (1.0 - np.eye(n))
    code = 0
    try:
        rep = verify_harris_contraction(chains, V, rho, c,
                                        t_max=int(p.get("t_max", 10)))
        rows = [[lab, float(rep.one_step_margin),
                 float(rep.t_step_margin)] for lab in rep.labels]
        summary = {"kind": cfg.kind, "violated": False,
                   "one_step_margin": float(rep.one_step_margin),
                   "t_step_margin": float(rep.t_step_margin),
                   "t_checked": int(rep.t_checked),
                   "hypothesis_slack": {
                       lab: {k: float(v) for k, v in slack.items()}
                       for lab, slack in rep.hypothesis_slack.items()}}
    except (HypothesisFailed, ContractionViolated) as e:
        rows = []
        summary = {"kind": cfg.kind, "violated": True, "reason": str(e)}
        code = 4
    summary.update({f: float(getattr(c, f)) for f in _HARRIS_FIELDS})
    files = _write_csv(out_dir, "margins",
                       ["chain", "one_step_margin", "t_step_margin"],
                       rows,
                       {"chain": "chain label",
                        "one_step_margin": "worst slack in the one-step "
                        "contraction over state pairs",
                        "t_step_margin": "worst slack in the t-step "
                        "envelope"})
    return files, summary, code


_RUNNERS = {
    "simulate": _run_simulate,
    "distance": _run_distance,
    "containment": _run_containment,
    "diminishing": _run_diminishing,
    "drift": _run_drift,
    "lln": _run_lln,
    "ar-bounds": _run_ar_bounds,
    "harris": _run_harris,
    "harris-verify": _run_harris_verify,
}


def run_experiment(cfg, out_dir):
    """Run one experiment and write its artifacts under out_dir.

    Returns (manifest, exit_code); exit code 4 flags a falsified bound
    claim while 0 covers every healthy outcome, censoring included.
    """
    os.makedirs(out_dir, exist_ok=True)
    stream = make_stream(cfg.seed, 0)
    files, summary, code = _RUNNERS[cfg.kind](cfg, out_dir, stream)
    summary["seed"] = cfg.seed
    files.append(_write_json(out_dir, "summary", summary))
    config_bytes = json.dumps(cfg.raw, sort_keys=True).encode()
    manifest = {
        "tool": "adaptmc " + __version__,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "outputs": {name: _sha256(os.path.join(out_dir, name))
                    for name in sorted(files)},
    }
    _write_json(out_dir, "manifest", manifest)
    return manifest, code


def emit_report(out_dir):
    """Render a short plain-text report from a results directory."""
    man_path = os.path.join(out_dir, "manifest.json")
    sum_path = os.path.join(out_dir, "summary.json")
    if not os.path.exists(man_path) or not os.path.exists(sum_path):
        raise MissingArtifact(f"no experiment artifacts under {out_dir}")
    with open(man_path) as f:
        manifest = json.load(f)
    with open(sum_path) as f:
        summary = json.load(f)
    for name, digest in manifest["outputs"].items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            raise MissingArtifact(f"manifest lists {name} but it is missing")
        if _sha256(path) != digest:
            raise MissingArtifact(f"{name} does not match its checksum")
    kind = manifest["kind"]
    lines = ["%s (seed %d, %s)" % (kind, manifest["seed"], manifest["tool"])]
    if kind == "ar-bounds":
        verdict = "PASS" if summary["all_ok"] else "FAIL"
        lines.append("%s: %s (%d rows, family %s)"
                     % (kind, verdict, summary["rows"], summary["family"]))
    elif kind == "harris":
        lines.append("%s: PASS (alpha_star=%s, beta_star=%s, R=%s)"
                     % (kind, repr(summary["alpha_star"]),
                        repr(summary["beta_star"]), repr(summary["R"])))
    elif kind == "harris-verify":
        if summary["violated"]:
            lines.append("%s: FAIL (%s)" % (kind, summary["reason"]))
        else:
            lines.append("%s: PASS (one-step margin %s, t-step margin %s, "
                         "t<=%d)" % (kind, repr(summary["one_step_margin"]),
                                     repr(summary["t_step_margin"]),
                                     summary["t_checked"]))
    elif kind == "drift":
        verdict = "PASS" if summary["violations"] == 0 else "FAIL"
        lines.append("%s: %s (lam_hat=%s, L_hat=%s, %d violations)"
                     % (kind, verdict, repr(summary["lam_hat"]),
                        repr(summary["L_hat"]), summary["violations"]))
    elif kind == "diminishing":
        verdict = "FLAGGED" if summary["non_diminishing"] else "PASS"
        lines.append("%s: %s (threshold %s)"
                     % (kind, verdict, repr(summary["threshold"])))
    elif kind == "lln":
        slope = summary["slope"]
        verdict = "PASS" if summary["monotone"] else "NON-MONOTONE"
        lines.append("%s: %s (slope %s)"
                     % (kind, verdict,
                        "n/a" if slope is None else repr(slope)))
    elif kind == "containment":
        parts = ", ".join("m_hat(%s)=%d" % (e, m)
                          for e, m in sorted(summary["m_hat"].items()))
        lines.append("%s: %s" % (kind, parts))
        for note in summary.get("notes", []):
            lines.append("note: " + note)
    elif kind == "distance":
        lines.append("%s: cost=%s (method %s, error %s)"
                     % (kind, repr(summary["cost"]), summary["method"],
                        repr(summary["error"])))
    else:
        keys = sorted(k for k in summary if k not in ("kind", "seed"))
        lines.append("%s: %s" % (kind, ", ".join(
            "%s=%s" % (k, summary[k]) for k in keys)))
    return "\n".join(lines) + "\n"
