"""Benchmark of adaptmc over the paper's four checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
The workload's config is generated from the seed, parsed once, and then
``run_experiment`` is called in rounds: one untimed warm-up round, then
timed rounds until S seconds of rounds have been measured.  Every round's
artifacts are re-verified with ``emit_report`` and checked by the
benchmark's own arithmetic (workloads.py).  Set-up is timed separately,
in fresh interpreters (probe.py).

Times are normalized to the machine's speed: a fixed reference task,
independent of adaptmc, is timed before and after every round and every
set-up probe, and each measured time is rescaled to a machine on which
that task takes REF_S seconds (see SpeedGauge).

With ``--trace 0`` the last stdout line reports run_s, setup_s and
peak_rss_mb; with ``--trace 1`` it reports the per-layer figures of
tracing.py, taken from traced rounds that follow the untraced ones, and
every exact-OT value of one traced round is checked against an
independent solve.  Progress and failures go to stderr.
"""

import os

# Fixed before numpy is first imported, here and in every probe.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# Nominal duration of one reference task.  It only sets the scale of the
# normalized seconds; ratios between two commits do not depend on it.
REF_S = 0.03
COUNT_KEYS = ("calls", "entries", "repeats", "bytes_written")


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


class SpeedGauge:
    """Times a fixed reference task to follow the machine's speed.

    The machine's speed drifts by tens of percent over stretches of
    seconds to minutes (other tenants share its cores), in CPU time as
    much as in wall time.  The task mixes the three kinds of work the
    workloads do, in roughly equal parts: Python bytecode, small numpy
    calls, and small HiGHS LPs.  It uses nothing from adaptmc, so a
    change to the program under test cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 6
        self._cost = rng.uniform(size=n * n)
        self._a_eq = np.zeros((2 * n, n * n))
        for i in range(n):
            self._a_eq[i, i * n:(i + 1) * n] = 1.0
            self._a_eq[n + i, i::n] = 1.0
        self._b_eq = np.full(2 * n, 1.0 / n)
        self.times = []

    def _task(self):
        s = 0
        for i in range(20000):
            s += i * i % 7
        v = np.arange(8.0)
        for _ in range(1000):
            v = np.sqrt(v @ v) * 0.01 + v * 0.5
        for _ in range(10):
            linprog(self._cost, A_eq=self._a_eq, b_eq=self._b_eq,
                    method="highs-ds")

    def tick(self):
        """Time one reference task; return its duration."""
        t0 = time.perf_counter()
        self._task()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt


def _normalized(seconds, ref_before, ref_after):
    return seconds * 2.0 * REF_S / (ref_before + ref_after)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup_probes(src, config_path, gauge):
    """Median import, parse+build and normalized set-up times over fresh
    interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    imports, parses, setups = [], [], []
    before = gauge.tick()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), config_path],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        after = gauge.tick()
        fig = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(fig["import_s"])
        parses.append(fig["parse_s"])
        setups.append(_normalized(fig["import_s"] + fig["parse_s"], before,
                                  after))
        before = after
    return (statistics.median(imports), statistics.median(parses),
            statistics.median(setups))


class Rounds:
    """Runs rounds of one parsed config and keeps their tallies."""

    def __init__(self, name, doc, cfg, out_dir, gauge):
        from adaptmc import experiments
        self.experiments = experiments  # patched in place by the tracer
        self.name, self.doc, self.cfg, self.out_dir = name, doc, cfg, out_dir
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0

    def one(self):
        """Run and check one round; return its time, or None if it failed."""
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter()
        try:
            _, code = self.experiments.run_experiment(self.cfg, self.out_dir)
        except Exception as e:  # a crashing round is a failed operation
            _log("%s: round %d raised %s: %s" % (self.name, self.attempted,
                                                 type(e).__name__, e))
            self.failed += 1
            return None
        elapsed = time.perf_counter() - t0
        if code != 0:
            _log("%s: round %d exited %d" % (self.name, self.attempted, code))
            self.failed += 1
            return None
        try:
            self.experiments.emit_report(self.out_dir)
            bad = workloads.check_round(self.name, self.doc, self.out_dir,
                                        code)
        except Exception as e:  # unreadable or tampered artifacts
            bad = ["artifacts unreadable: %s: %s" % (type(e).__name__, e)]
        if bad:
            for msg in bad:
                _log("%s: round %d check failed: %s" % (self.name,
                                                        self.attempted, msg))
            self.failed += 1
            self.check_failures += 1
            return None
        return elapsed

    def timed(self, seconds, after_round=None):
        """Raw and normalized times of rounds until the raw times add up
        to ``seconds`` (at least one round).  ``after_round`` is called
        after each successful round, before the next reference task."""
        raw, norm = [], []
        start = time.perf_counter()
        before = self.gauge.tick()
        while sum(raw) < seconds or not raw:
            if time.perf_counter() - start > 3.0 * seconds:
                break  # rounds keep failing; stop rather than spin
            t = self.one()
            if t is not None and after_round is not None:
                after_round(t)
            after = self.gauge.tick()
            if t is not None:
                raw.append(t)
                norm.append(_normalized(t, before, after))
            before = after
        return raw, norm

    def bytes_written(self):
        return sum(os.path.getsize(os.path.join(self.out_dir, f))
                   for f in os.listdir(self.out_dir))


def _trace_figures(rounds, seconds):
    """Per-layer figures of traced rounds, their raw times, the OT
    oracle's verdict, and the detail written to trace.json."""
    import tracing
    tracer = tracing.Tracer()
    per_round = []
    first = {}

    def collect(t):
        figs = tracer.layer_figures()
        figs["experiments.bytes_written"] = rounds.bytes_written()
        per_round.append(figs)
        if not first:
            first.update(spans=tracer.spans(), kept=tracer.ot_kept)
        tracer.reset()
        tracer.keep_ot = False

    tracer.install()
    try:
        tracer.keep_ot = True
        raw, _ = rounds.timed(seconds, after_round=collect)
    finally:
        tracer.uninstall()
    checked, worst, bad = tracing.oracle_check(first.get("kept", []))
    for msg in bad:
        _log("%s: OT oracle disagrees: %s" % (rounds.name, msg))
    # counts repeat exactly from round to round; times take the median
    out = {key: (per_round[0][key] if key.endswith(COUNT_KEYS)
                 else statistics.median(r[key] for r in per_round))
           for key in (per_round[0] if per_round else {})}
    detail = {"spans_first_traced_round": first.get("spans"),
              "traced_round_s": raw, "oracle_calls": checked,
              "oracle_worst_diff": worst}
    return out, raw, not bad, detail


def main(argv=None):
    args = _parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "adaptmc", "__init__.py")):
        _log("error: no adaptmc sources under %s; run from the root of a "
             "source checkout" % src)
        return 2
    sys.path.insert(0, src)

    run_dir = os.path.join(OUT, "%s-%d" % (args.workload, args.seed))
    os.makedirs(run_dir, exist_ok=True)
    doc = workloads.make_config(args.workload, args.seed)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as f:
        json.dump(doc, f, indent=1)
    gauge = SpeedGauge()
    gauge.tick()  # warm-up
    import_s, parse_s, setup_s = _setup_probes(src, config_path, gauge)

    from adaptmc.config import parse_config
    rounds = Rounds(args.workload, doc, parse_config(json.dumps(doc)),
                    os.path.join(run_dir, "results"), gauge)
    rounds.one()  # warm-up: first-call costs stay out of run_s
    raw, norm = rounds.timed(args.seconds)
    if not raw:
        _log("error: no round of %s succeeded; nothing to report"
             % args.workload)
        return 1
    run_s, raw_s = statistics.median(norm), statistics.median(raw)
    ref_s = statistics.median(gauge.times)
    _log("%s seed %d: %d timed rounds, median %.4f s raw, %.4f s "
         "normalized; reference task median %.4f s"
         % (args.workload, args.seed, len(raw), raw_s, run_s, ref_s))
    if args.trace:
        figs, traced, oracle_ok, detail = _trace_figures(rounds, args.seconds)
        if not traced:
            _log("error: no traced round of %s succeeded" % args.workload)
            return 1
        figs.update({"setup.import_s": import_s, "config.parse.s": parse_s,
                     "trace.overhead_s": statistics.median(traced) - raw_s,
                     "run.raw_s": raw_s, "machine.ref_s": ref_s})
        metrics = {key: {"value": value,
                         "unit": "bytes" if key.endswith("bytes_written")
                         else "count" if key.endswith(COUNT_KEYS) else "s"}
                   for key, value in figs.items()}
        correct = oracle_ok and rounds.check_failures == 0
        detail.update(untraced_round_s=raw, workload=args.workload,
                      seed=args.seed, metrics=figs)
        with open(os.path.join(run_dir, "trace.json"), "w") as f:
            json.dump(detail, f, indent=1, sort_keys=True)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"run_s": {"value": run_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
        correct = rounds.check_failures == 0
    print(json.dumps({"correct": bool(correct),
                      "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
