"""Benchmark inputs and the correctness checks on their artifacts.

Each workload maps one of the paper's checks onto one CLI experiment kind.
``make_config(name, seed)`` turns a benchmark seed into a JSON config; the
sizes are fixed, so the seed moves values and never the amount of work.
``check_round(name, doc, out_dir, code)`` re-derives each headline claim
from the written artifacts with the benchmark's own arithmetic and returns
a list of failure messages (empty when the round is correct).
"""

import csv
import json
import math
import os

import numpy as np

WORKLOADS = ("lln-adaptive", "harris-verify", "containment-capped",
             "diminishing-rwm")

# lln-adaptive
LLN_T_GRID = [10, 100, 1000]
LLN_REPLICAS = 128
LLN_SLOPE_MAX = -0.8
# Running means of the base-g refinement chain have asymptotic variance
# (1/12)(1+1/g)/(1-1/g)/T <= 0.25/T (worst at g=2); the bound allows 4x.
LLN_MSE_FACTOR = 1.0

# harris-verify
HARRIS_CHAINS = 1
HARRIS_STATES = 8
HARRIS_T_MAX = 10
HARRIS_CONSTS = {"lam": 0.5, "kappa": 0.6, "alpha": 0.2, "delta": 0.1}
HARRIS_RHO = 0.5
MARGIN_TOL = 1e-9

# containment-capped
CONT_REPLICAS = 64
CONT_N_MAX = 32
CONT_EPS = [0.8, 0.6, 0.4]
GAP_TOL = 1e-9

# diminishing-rwm
DIM_GRID_POINTS = 41
DIM_HORIZON = 600
DIM_DELTAS = [0.1, 0.2]
DIM_EIG_MIN = 0.05


def make_config(name, seed):
    """Return the JSON config document for a workload and seed."""
    # one independent generator per (workload, seed)
    rng = np.random.default_rng([WORKLOADS.index(name), int(seed)])
    cfg_seed = int(rng.integers(0, 2 ** 31))
    if name == "lln-adaptive":
        return {
            "kind": "lln", "seed": cfg_seed,
            "kernel": {"family": "discrete-ar"},
            "policy": {"type": "discrete-bernoulli", "candidates": [2, 3, 4],
                       "rate": "harmonic"},
            "init": {"tuning": {"variant": "discrete-base",
                                "gamma": int(rng.integers(2, 5))},
                     "state": float(rng.uniform())},
            "params": {"reference": 0.5, "phi": "first-coordinate",
                       "t_grid": LLN_T_GRID, "replicas": LLN_REPLICAS}}
    if name == "harris-verify":
        n = HARRIS_STATES
        chains = []
        v = 3.0 * rng.uniform(size=n)
        k = 0.01
        for _ in range(HARRIS_CHAINS):
            raw = 0.05 + rng.uniform(size=(n, n))
            p = raw / raw.sum(axis=1, keepdims=True)
            # a uniform component keeps every pairwise TV under 0.8
            p = 0.2 / n + 0.8 * p
            chains.append(p)
            k = max(k, float((p @ v - HARRIS_CONSTS["lam"] * v).max()))
        return {
            "kind": "harris-verify", "seed": cfg_seed,
            "params": dict(HARRIS_CONSTS, K=k + 0.01,
                           chains=[{"matrix": p.tolist()} for p in chains],
                           V=v.tolist(),
                           rho=(HARRIS_RHO * (1.0 - np.eye(n))).tolist(),
                           t_max=HARRIS_T_MAX)}
    if name == "containment-capped":
        a = float(rng.uniform(0.8, 1.2))
        b = float(rng.uniform(3.0, 5.0))
        th = float(rng.uniform(0.0, math.pi))
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        hess = rot @ np.diag([a, b]) @ rot.T
        hess = 0.5 * (hess + hess.T)
        w = np.linalg.eigvalsh(hess)
        step = 0.9 / (w[0] + w[-1])
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        rad = float(rng.uniform(3.0, 4.0))
        return {
            "kind": "containment", "seed": cfg_seed,
            "kernel": {"family": "ula", "hessian": hess.tolist()},
            "init": {"tuning": {"variant": "langevin",
                                "matrix": [[1.0, 0.0], [0.0, 1.0]],
                                "step": float(step)}},
            "params": {"x": [rad * math.cos(ang), rad * math.sin(ang)],
                       "eps": CONT_EPS, "n_max": CONT_N_MAX,
                       "replicas": CONT_REPLICAS}}
    if name == "diminishing-rwm":
        lo = float(rng.uniform(-1.0, 0.0))
        grid = [lo + 2.0 * i / (DIM_GRID_POINTS - 1)
                for i in range(DIM_GRID_POINTS)]
        return {
            "kind": "diminishing", "seed": cfg_seed,
            "kernel": {"family": "discrete-rwm", "grid": grid,
                       "density": ["gauss", "peaked"][int(rng.integers(2))]},
            "policy": {"type": "moment-matching", "eig_min": DIM_EIG_MIN,
                       "rate": "harmonic"},
            "init": {"tuning": {"variant": "matrix-scale",
                                "matrix": [[float(rng.uniform(0.1, 1.0))]],
                                "eig_min": DIM_EIG_MIN},
                     "state": int(rng.integers(DIM_GRID_POINTS))},
            "horizon": DIM_HORIZON,
            "params": {"delta_grid": DIM_DELTAS, "pairs_per_delta": 1,
                       "expect_diminishing": True}}
    raise ValueError("unknown workload %r" % (name,))


# ---------------------------------------------------------------------------
# artifact checks


def read_csv(out_dir, name):
    with open(os.path.join(out_dir, name), newline="") as f:
        return list(csv.DictReader(f))


def read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as f:
        return json.load(f)


def first_settled(distances, eps):
    """Smallest N whose whole tail distances[N:] is at or below eps;
    len(distances) when no such N exists."""
    m = len(distances)
    for n in range(len(distances) - 1, -1, -1):
        if distances[n] > eps:
            break
        m = n
    return m


def loglog_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def harris_closed_form(lam, K, kappa, alpha, delta):
    """The paper's explicit constants (beta_star, R, alpha_star)."""
    beta = min(alpha, kappa) / (4.0 * K)
    R = (1.0 + delta) * 2.0 * K / (1.0 - lam)
    f1 = math.sqrt((1.0 - lam) * (1.0 + 2.0 * beta * K / (1.0 - lam))
                   / (1.0 + beta * R) + lam)
    f2 = math.sqrt(1.0 - alpha / 2.0)
    f3 = math.sqrt(1.0 - kappa / 2.0)
    return {"beta_star": beta, "R": R, "alpha_star": 1.0 - max(f1, f2, f3)}


def _check_lln(doc, out_dir):
    bad = []
    rows = read_csv(out_dir, "lln.csv")
    ts = [int(r["T"]) for r in rows]
    mse = [float(r["mse"]) for r in rows]
    if ts != sorted(doc["params"]["t_grid"]):
        bad.append("lln.csv horizons %s differ from the config" % ts)
        return bad
    if any(not m > 0.0 for m in mse):
        bad.append("an MSE is not positive: %s" % mse)
        return bad
    slope = loglog_slope(ts, mse)
    if slope > LLN_SLOPE_MAX:
        bad.append("log-log MSE slope %.4f above %.2f" % (slope,
                                                          LLN_SLOPE_MAX))
    if mse[-1] > LLN_MSE_FACTOR / ts[-1]:
        bad.append("MSE %.3g at T=%d above %.3g"
                   % (mse[-1], ts[-1], LLN_MSE_FACTOR / ts[-1]))
    reported = read_summary(out_dir)["slope"]
    if reported is None or abs(reported - slope) > 1e-9:
        bad.append("summary slope %r disagrees with %.12f" % (reported, slope))
    return bad


def _check_harris(doc, out_dir):
    bad = []
    p = doc["params"]
    s = read_summary(out_dir)
    if s.get("violated", True):
        return ["harris-verify reported a violation: %s" % s.get("reason")]
    for key in ("one_step_margin", "t_step_margin"):
        if not s[key] <= MARGIN_TOL:
            bad.append("%s %r above %g" % (key, s[key], MARGIN_TOL))
    rows = read_csv(out_dir, "margins.csv")
    if len(rows) != len(p["chains"]):
        bad.append("margins.csv has %d rows for %d chains"
                   % (len(rows), len(p["chains"])))
    for r in rows:
        if (float(r["one_step_margin"]) != s["one_step_margin"]
                or float(r["t_step_margin"]) != s["t_step_margin"]):
            bad.append("margins.csv row %s disagrees with summary.json"
                       % r["chain"])
    if s["t_checked"] != p["t_max"]:
        bad.append("t_checked %r, config asks %r" % (s["t_checked"],
                                                     p["t_max"]))
    consts = harris_closed_form(p["lam"], p["K"], p["kappa"], p["alpha"],
                                p["delta"])
    # harris-verify writes no constants, so the ones its margins rest on
    # are read from the public constructor it calls
    from adaptmc import harris_constants
    used = harris_constants(p["lam"], p["K"], p["kappa"], p["alpha"],
                            p["delta"])
    for key, want in consts.items():
        if not abs(getattr(used, key) - want) <= 1e-12 * max(1.0, abs(want)):
            bad.append("%s = %r, closed form %r" % (key, getattr(used, key),
                                                    want))
    # Hypothesis slacks in closed form.  With rho = c (1 - I) the transport
    # distance between two rows is c * TV, and rho <= 1 makes the capped
    # metric the same, so contraction and smallness both reduce to TV.
    v = np.asarray(p["V"])
    c = HARRIS_RHO
    for i, spec in enumerate(p["chains"]):
        P = np.asarray(spec["matrix"])
        want_drift = float((P @ v - p["lam"] * v).max()) - p["K"]
        tv = 0.5 * np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2)
        iu = np.triu_indices(len(v), 1)
        want_contr = float((c * tv - (1.0 - p["alpha"]) * c)[iu].max())
        inside = v <= consts["R"]
        pair_in = (inside[:, None] & inside[None, :])[iu]
        want_small = (float((c * tv[iu] - (1.0 - p["kappa"]))[pair_in].max())
                      if pair_in.any() else -math.inf)
        got = s["hypothesis_slack"]["chain%d" % i]
        for key, want in (("drift", want_drift), ("contraction", want_contr),
                          ("smallness", want_small)):
            if not abs(got[key] - want) <= 1e-9:
                bad.append("chain%d %s slack %r, closed form %r"
                           % (i, key, got[key], want))
    return bad


def _check_containment(doc, out_dir):
    bad = []
    p = doc["params"]
    rows = read_csv(out_dir, "containment.csv")
    if [int(r["n"]) for r in rows] != list(range(p["n_max"] + 1)):
        return ["containment.csv does not cover n = 0..%d" % p["n_max"]]
    dist = [float(r["distance"]) for r in rows]
    err = [float(r["error"]) for r in rows]
    if any(not 0.0 <= d <= 1.0 for d in dist):
        bad.append("a capped distance lies outside [0, 1]")
    # Unsubsampled clouds are solved exactly: the error column is then the
    # LP's certified duality gap, zero up to rounding, not a bootstrap error.
    if any(not 0.0 <= e <= GAP_TOL for e in err):
        bad.append("a distance reports an error above the certificate "
                   "tolerance %g" % GAP_TOL)
    s = read_summary(out_dir)
    for e in p["eps"]:
        want = first_settled(dist, e)
        got = s["m_hat"][repr(float(e))]
        if got != want:
            bad.append("m_hat(%r) = %r, recomputed %r" % (e, got, want))
        if s["censored"][repr(float(e))] != (want > p["n_max"]):
            bad.append("censoring flag at eps %r is wrong" % e)
    if first_settled(dist, max(p["eps"])) > p["n_max"]:
        bad.append("the largest eps %r is censored" % max(p["eps"]))
    if s["reference"] != "pilot-chain":
        bad.append("reference is %r, not the pilot chain" % s["reference"])
    return bad


def _check_diminishing(doc, out_dir):
    bad = []
    p = doc["params"]
    s = read_summary(out_dir)
    rows = read_csv(out_dir, "diminishing.csv")
    deltas = sorted(p["delta_grid"])
    if len(rows) != doc["horizon"] * len(deltas):
        return ["diminishing.csv has %d rows, expected %d"
                % (len(rows), doc["horizon"] * len(deltas))]
    vals = [float(r["value"]) for r in rows]
    if any(not 0.0 <= x <= 1.0 for x in vals):
        bad.append("a capped coupled distance lies outside [0, 1]")
    dmin = deltas[0]
    series = [float(r["value"]) for r in rows if float(r["delta"]) == dmin]
    late = series[len(series) - max(1, len(series) // 10):]
    late.sort()
    k = len(late)
    median = late[k // 2] if k % 2 else 0.5 * (late[k // 2 - 1] + late[k // 2])
    threshold = max(0.05, 2.0 * dmin)
    if median > threshold:
        bad.append("late-window median %.4f above %.4f: a harmonic rate was "
                   "flagged" % (median, threshold))
    if s["non_diminishing"]:
        bad.append("summary flags the harmonic rate as non-diminishing")
    return bad


_CHECKS = {"lln-adaptive": _check_lln, "harris-verify": _check_harris,
           "containment-capped": _check_containment,
           "diminishing-rwm": _check_diminishing}


def check_round(name, doc, out_dir, code):
    """Failure messages for one round's artifacts; empty when correct."""
    if code != 0:
        return ["run_experiment returned exit code %r" % (code,)]
    return _CHECKS[name](doc, out_dir)
