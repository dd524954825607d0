"""End-to-end acceptance gate.

One test per headline claim the toolkit must reproduce, each with its
tolerance pinned and its runtime ceiling enforced.  Every test prints a
single summary line with the measured numbers; pytest -v shows one
PASSED/FAILED line per criterion.
"""

import json
import math
import os
import time
from itertools import permutations

import numpy as np

from adaptmc.adaptation import DiminishingDiscrete, FiniteAdaptation
from adaptmc.cli import main as cli_main
from adaptmc.core import PsdMatrix, make_stream
from adaptmc.diagnostics import (Observable, ar_bound_check,
                                 estimate_diminishing, harris_constants,
                                 lln_curve, verify_harris_contraction)
from adaptmc.kernels import (ArCoef, DiffusionTime1, DiscreteAr,
                             DiscreteBase, DiscreteRwm, GaussianAr,
                             LangevinTuning, MatrixScale, Ula,
                             quadratic_potential)
from adaptmc.process import run_adaptive
from adaptmc.transport import discrete_ot_exact, w_exact_1d
from adaptmc.core import EmpiricalMeasure


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _spectrum_1_4():
    r = _rotation(0.7)
    return r @ np.diag([1.0, 4.0]) @ r.T


class _Clock:
    def __init__(self, limit):
        self.limit = limit
        self.t0 = time.perf_counter()

    def done(self, label, detail):
        elapsed = time.perf_counter() - self.t0
        print(f"{label}: {detail} [{elapsed:.2f}s, limit {self.limit:.0f}s]")
        assert elapsed < self.limit, f"{label} exceeded {self.limit}s"


def test_criterion_01_refinement_distance_halves_each_step():
    clock = _Clock(5.0)
    kernel = DiscreteAr()
    tuning = DiscreteBase(2)
    worst_ratio = 0.0
    for x in (0.0, 0.3, 0.9):
        table = ar_bound_check(kernel, tuning, x, 20)
        for row in table.rows:
            if row.t >= 1:
                assert row.exact <= 2.0 ** (-row.t) + 1e-12
                worst_ratio = max(worst_ratio, row.exact * 2.0 ** row.t)
            if x == 0.0:
                # from 0 the t-step law is the left-endpoint grid, whose
                # distance to uniform is exactly half the envelope
                assert abs(row.exact - 2.0 ** (-(row.t + 1))) <= 1e-12
    clock.done("criterion 1", f"worst exact/envelope ratio {worst_ratio:.4f}")


def test_criterion_02_gaussian_ar_w2_envelope():
    clock = _Clock(5.0)
    lams = 1.0 / np.arange(1, 6)
    kernel = GaussianAr(np.diag(np.sqrt(lams)))
    sqrt_tr = math.sqrt(lams.sum())
    starts = [np.zeros(5),
              np.array([2.0, 0.0, 0.0, 0.0, 0.0]),
              np.full(5, 2.0 / math.sqrt(5.0))]
    worst_gap = np.inf
    for g in (0.3, 0.6, 0.855):
        for x in starts:
            table = ar_bound_check(kernel, ArCoef(g), x, 50)
            for row in table.rows:
                envelope = g ** row.t * (np.linalg.norm(x) + sqrt_tr)
                assert abs(row.bound - envelope) <= 1e-9 * max(envelope, 1.0)
                assert row.exact <= row.bound + 1e-9
                worst_gap = min(worst_gap, row.bound - row.exact)
    clock.done("criterion 2", f"smallest envelope slack {worst_gap:.3e}")


def test_criterion_03_ula_squared_contraction():
    clock = _Clock(1.0)
    kernel = Ula(quadratic_potential(_spectrum_1_4()))
    tun = LangevinTuning(PsdMatrix(np.eye(2)), 0.2)
    stream = make_stream(2024, 0)
    worst = 0.0
    for _ in range(100):
        x = 3.0 * stream.normal(2)
        y = 3.0 * stream.normal(2)
        x1, y1 = kernel.coupled_step(x, tun, y, tun, stream)
        before = float(np.dot(x - y, x - y))
        after = float(np.dot(x1 - y1, x1 - y1))
        assert after <= 0.68 * before + 1e-12
        if before > 0:
            worst = max(worst, after / before)
    clock.done("criterion 3", f"worst squared-distance factor {worst:.4f} "
               "<= 0.68")


def test_criterion_04_diffusion_factor_approaches_limit():
    clock = _Clock(30.0)
    hess = _spectrum_1_4()
    pot = quadratic_potential(hess)
    slow = np.linalg.eigh(hess)[1][:, 0]  # eigenvector of eigenvalue 1
    tun = MatrixScale(PsdMatrix(np.eye(2)))
    stream = make_stream(31, 0)
    probes = [slow] + [stream.normal(2) for _ in range(50)]
    factors = []
    for n in (16, 64, 256):
        kernel = DiffusionTime1(pot, substeps=n)
        fac = 0.0
        for d in probes:
            x = np.array([1.5, -0.5]) + d
            y = np.array([1.5, -0.5]) - d
            x1, y1 = kernel.coupled_step(x, tun, y, tun, stream)
            fac = max(fac, np.linalg.norm(x1 - y1) / np.linalg.norm(x - y))
        factors.append(fac)
    limit = math.exp(-1.0)
    assert factors[0] < factors[1] < factors[2] <= limit + 1e-12
    assert limit - factors[-1] <= 0.02
    clock.done("criterion 4", "factors " +
               ", ".join(f"{f:.5f}" for f in factors) +
               f" -> e^-1 = {limit:.5f}")


def test_criterion_05_adaptive_lln_mse_decay():
    clock = _Clock(120.0)
    kernel = DiscreteAr()
    policy = DiminishingDiscrete(
        tuple(DiscreteBase(g) for g in (2, 3, 4)),
        lambda t: 1.0 / (t + 1.0))
    phi = Observable("identity", lambda x: float(x), lip=1.0)
    rep = lln_curve(kernel, policy, (DiscreteBase(2), 0.25), phi, 0.5,
                    [100, 1000, 10000], 200, make_stream(5, 0))
    assert rep.slope is not None and rep.slope <= -0.8
    assert rep.mse[-1] <= 5e-5
    assert rep.monotone
    clock.done("criterion 5", f"log-log slope {rep.slope:.3f}, "
               f"MSE(1e4) = {rep.mse[-1]:.2e}")


def test_criterion_06_harris_constants_and_randomized_chains():
    clock = _Clock(60.0)
    # (a) the worked constants
    c = harris_constants(0.5, 1.0, 0.2, 0.2, 0.1)
    assert abs(c.beta_star - 0.05) <= 1e-6
    assert abs(c.R - 4.4) <= 1e-6
    f1 = math.sqrt(0.5 * (1.0 + 2.0 * 0.05 * 1.0 / 0.5)
                   / (1.0 + 0.05 * 4.4) + 0.5)
    derived = 1.0 - max(f1, math.sqrt(0.9), math.sqrt(0.9))
    assert abs(c.alpha_star - derived) <= 1e-6
    assert round(c.alpha_star, 5) == 0.00411
    # (b) randomized small chains satisfying the hypotheses by construction
    stream = make_stream(606, 0)
    checked = 0
    for k in range(100):
        n = 2 + int(float(stream.uniform()) * 7.0)  # 2..8 states
        raw = 0.05 + stream.uniform((n, n))
        P = raw / raw.sum(axis=1, keepdims=True)
        P = 0.2 / n + 0.8 * P  # uniform component keeps TV under 0.8
        V = 3.0 * stream.uniform(n)
        K = max(float((P @ V - 0.5 * V).max()), 0.01) + 0.01
        consts = harris_constants(0.5, K, 0.6, 0.2, 0.1)
        rho = 0.5 * (1.0 - np.eye(n))
        rep = verify_harris_contraction({"c%d" % k: P}, V, rho, consts,
                                        t_max=10)
        assert rep.one_step_margin <= 1e-9
        assert rep.t_step_margin <= 1e-9
        checked += 1
    assert checked == 100
    clock.done("criterion 6", f"alpha_star = {c.alpha_star:.7f}; "
               f"{checked} randomized chains, zero violations")


def test_criterion_07_exact_transport_oracles():
    clock = _Clock(60.0)
    stream = make_stream(77, 0)
    perms = np.array(list(permutations(range(6))))
    worst = 0.0
    for _ in range(500):
        cost = stream.uniform((6, 6))
        res = discrete_ot_exact(cost, np.full(6, 1.0 / 6.0),
                                np.full(6, 1.0 / 6.0))
        brute = float(cost[np.arange(6), perms].mean(axis=1).min())
        worst = max(worst, abs(res.cost - brute))
        assert abs(res.cost - brute) <= 1e-12
    worst1d = 0.0
    for k in range(100):
        sub = stream.substream(k)
        m = 2 + int(float(sub.uniform()) * 255.0)
        n = 2 + int(float(sub.uniform()) * 255.0)
        xs = sub.normal(m)
        ys = sub.normal(n)
        wx = 0.1 + sub.uniform(m)
        wy = 0.1 + sub.uniform(n)
        mu = EmpiricalMeasure(xs, wx)
        nu = EmpiricalMeasure(ys, wy)
        fast = w_exact_1d(mu, nu, p=1).cost
        cmat = np.abs(xs[:, None] - ys[None, :])
        lp = discrete_ot_exact(cmat, mu.weights, nu.weights).cost
        worst1d = max(worst1d, abs(fast - lp))
        assert abs(fast - lp) <= 1e-9
    clock.done("criterion 7", f"500 6x6 LP vs permutations (max gap "
               f"{worst:.1e}); 100 1-D quantile vs LP (max gap "
               f"{worst1d:.1e})")


def test_criterion_08_diminishing_adaptation_detector():
    clock = _Clock(10.0)
    # frozen base-2 refinement: the coupled step halves any separation,
    # so the sampled supremum at separation delta is exactly delta/2
    kernel = DiscreteAr()
    traj = run_adaptive(kernel, FiniteAdaptation(0), (DiscreteBase(2), 0.5),
                        60, make_stream(8, 0))
    est = estimate_diminishing(traj, kernel, [0.05, 0.1, 0.2], 6,
                               make_stream(9, 0))
    for k, d in enumerate(est.delta_grid):
        assert np.allclose(est.values[:, k], d / 2.0, atol=1e-12)
    assert not est.non_diminishing

    class Alternating:
        def propose(self, hist, stream):
            return ArCoef(0.05 if hist.t % 2 == 0 else 0.95)

    kernel2 = GaussianAr(np.array([[1.0]]))
    traj2 = run_adaptive(kernel2, Alternating(), (ArCoef(0.5), np.zeros(1)),
                         60, make_stream(10, 0))
    est2 = estimate_diminishing(traj2, kernel2, [0.05, 0.1, 0.2], 6,
                                make_stream(11, 0))
    assert est2.non_diminishing
    clock.done("criterion 8", "frozen chain reports delta/2 exactly; "
               "alternating tunings flagged non-diminishing")


def test_criterion_09_rwm_stationarity_and_occupation():
    clock = _Clock(60.0)
    grid = np.linspace(0.0, 1.0, 20)

    def f(x):
        return math.exp(-50.0 * (float(x[0]) - 0.35) ** 2) + 0.01

    kernel = DiscreteRwm(grid, f)
    tun = MatrixScale(PsdMatrix(np.array([[0.02]])), eig_min=0.01)
    pi = kernel.stationary_law(tun)
    target = np.array([f(np.array([g])) for g in grid])
    target = target / target.sum()
    gap = float(np.abs(pi - target).max())
    assert gap <= 1e-10
    # long-run occupation vs the exact law, batch means for the noise
    stream = make_stream(99, 0)
    steps, batches = 10 ** 6, 100
    per = steps // batches
    batch_freq = np.zeros((batches, kernel.size))
    i = 0
    for b in range(batches):
        counts = np.zeros(kernel.size)
        for _ in range(per):
            i = kernel.step(i, tun, stream)
            counts[i] += 1.0
        batch_freq[b] = counts / per
    occ = batch_freq.mean(axis=0)
    stderr = batch_freq.std(axis=0, ddof=1) / math.sqrt(batches)
    dev = np.abs(occ - target)
    assert np.all(dev <= 3.0 * stderr + 1e-12), \
        f"worst z = {(dev / np.maximum(stderr, 1e-300)).max():.2f}"
    clock.done("criterion 9", f"stationary law gap {gap:.1e}; occupation "
               f"worst z = {(dev / np.maximum(stderr, 1e-300)).max():.2f} "
               "over 20 states")


def test_criterion_10_reproducible_artifacts(tmp_path):
    clock = _Clock(60.0)
    docs = [
        {"kind": "simulate", "seed": 17,
         "kernel": {"family": "gaussian-ar",
                    "cov_sqrt": [[1.0, 0.0], [0.0, 0.5]]},
         "policy": {"type": "continuous-ar", "target": 0.9,
                    "rate": "harmonic"},
         "init": {"tuning": {"variant": "ar-coef", "gamma": 0.5},
                  "state": [0.4, 0.1]},
         "horizon": 50, "replicas": 8, "checkpoints": [0, 25, 50]},
        {"kind": "ar-bounds", "seed": 3,
         "kernel": {"family": "discrete-ar"},
         "init": {"tuning": {"variant": "discrete-base", "gamma": 2},
                  "state": 0.0},
         "params": {"x": 0.3, "t_max": 15}},
    ]
    compared = 0
    for doc in docs:
        cfg_path = tmp_path / (doc["kind"] + ".json")
        cfg_path.write_text(json.dumps(doc))
        blobs = []
        for run in ("a", "b", "c"):
            out = str(tmp_path / (doc["kind"] + "_" + run))
            argv = [doc["kind"], "--config", str(cfg_path), "--out", out]
            assert cli_main(argv) == 0
            blob = {}
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    blob[name] = fh.read()
            blobs.append(blob)
        assert blobs[0] == blobs[1] == blobs[2]
        compared += len(blobs[0])
    clock.done("criterion 10", f"{compared} artifact files byte-identical "
               "across three reruns")
