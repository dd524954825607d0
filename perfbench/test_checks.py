"""Each benchmark check accepts real artifacts and rejects tampered ones.

    python3 -m pytest -q perfbench/test_checks.py

Artifacts come from one real round of each workload (seed 1), written
once per module; every test tampers with its own copy.
"""

import csv
import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from adaptmc import experiments, transport  # noqa: E402
from adaptmc.config import parse_config  # noqa: E402
from adaptmc.errors import MissingArtifact  # noqa: E402


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    base = tmp_path_factory.mktemp("rounds")
    made = {}
    for name in workloads.WORKLOADS:
        doc = workloads.make_config(name, 1)
        out = str(base / name)
        _, code = experiments.run_experiment(parse_config(json.dumps(doc)),
                                             out)
        made[name] = (doc, out, code)
    return made


@pytest.fixture
def copy_of(rounds, tmp_path):
    def make(name):
        doc, out, code = rounds[name]
        dst = str(tmp_path / name)
        shutil.copytree(out, dst)
        return doc, dst, code
    return make


def _edit_csv(out_dir, name, edit):
    path = os.path.join(out_dir, name)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _edit_summary(out_dir, edit):
    path = os.path.join(out_dir, "summary.json")
    with open(path) as f:
        s = json.load(f)
    edit(s)
    with open(path, "w") as f:
        json.dump(s, f)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_real_round_passes(copy_of, name):
    doc, out, code = copy_of(name)
    experiments.emit_report(out)
    assert workloads.check_round(name, doc, out, code) == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_nonzero_exit_fails(copy_of, name):
    doc, out, _ = copy_of(name)
    assert workloads.check_round(name, doc, out, 4)


def test_checksum_catches_an_edited_table(copy_of):
    doc, out, code = copy_of("lln-adaptive")
    _edit_csv(out, "lln.csv", lambda rows: rows[0].update(mse="0.5"))
    with pytest.raises(MissingArtifact):
        experiments.emit_report(out)


def test_config_depends_on_the_seed_only():
    for name in workloads.WORKLOADS:
        assert workloads.make_config(name, 3) == workloads.make_config(name, 3)
        assert workloads.make_config(name, 3) != workloads.make_config(name, 4)


# -- lln-adaptive


def test_lln_flat_mse_fails_slope(copy_of):
    doc, out, code = copy_of("lln-adaptive")
    _edit_csv(out, "lln.csv",
              lambda rows: [r.update(mse=rows[0]["mse"]) for r in rows])
    bad = workloads.check_round("lln-adaptive", doc, out, code)
    assert any("slope" in m for m in bad)
    assert any("MSE" in m for m in bad)


def test_lln_large_final_mse_fails(copy_of):
    doc, out, code = copy_of("lln-adaptive")
    _edit_csv(out, "lln.csv",
              lambda rows: rows[-1].update(mse=repr(2.0 / int(rows[-1]["T"]))))
    bad = workloads.check_round("lln-adaptive", doc, out, code)
    assert any("MSE" in m for m in bad)


def test_lln_reported_slope_must_match(copy_of):
    doc, out, code = copy_of("lln-adaptive")
    _edit_summary(out, lambda s: s.update(slope=s["slope"] - 1e-6))
    bad = workloads.check_round("lln-adaptive", doc, out, code)
    assert any("summary slope" in m for m in bad)


# -- harris-verify


def test_harris_positive_margin_fails(copy_of):
    doc, out, code = copy_of("harris-verify")
    _edit_summary(out, lambda s: s.update(t_step_margin=1e-6))
    bad = workloads.check_round("harris-verify", doc, out, code)
    assert any("t_step_margin" in m for m in bad)


def test_harris_wrong_slack_fails(copy_of):
    doc, out, code = copy_of("harris-verify")

    def edit(s):
        s["hypothesis_slack"]["chain0"]["contraction"] += 1e-6
    _edit_summary(out, edit)
    bad = workloads.check_round("harris-verify", doc, out, code)
    assert any("chain0 contraction" in m for m in bad)


def test_harris_violation_fails(copy_of):
    doc, out, code = copy_of("harris-verify")
    _edit_summary(out, lambda s: s.update(violated=True, reason="x"))
    assert workloads.check_round("harris-verify", doc, out, code)


def test_harris_closed_form_matches_worked_example():
    # the worked constants pinned by the acceptance gate
    c = workloads.harris_closed_form(0.5, 1.0, 0.2, 0.2, 0.1)
    assert abs(c["beta_star"] - 0.05) <= 1e-12
    assert abs(c["R"] - 4.4) <= 1e-12
    assert round(c["alpha_star"], 5) == 0.00411


# -- containment-capped


def test_containment_distance_above_one_fails(copy_of):
    doc, out, code = copy_of("containment-capped")
    _edit_csv(out, "containment.csv",
              lambda rows: rows[3].update(distance="1.25"))
    bad = workloads.check_round("containment-capped", doc, out, code)
    assert any("outside [0, 1]" in m for m in bad)


def test_containment_bootstrap_sized_error_fails(copy_of):
    doc, out, code = copy_of("containment-capped")
    _edit_csv(out, "containment.csv", lambda rows: rows[5].update(error="0.01"))
    bad = workloads.check_round("containment-capped", doc, out, code)
    assert any("error" in m for m in bad)


def test_containment_wrong_m_hat_fails(copy_of):
    doc, out, code = copy_of("containment-capped")
    key = repr(float(max(doc["params"]["eps"])))
    _edit_summary(out, lambda s: s["m_hat"].update({key: s["m_hat"][key] + 1}))
    bad = workloads.check_round("containment-capped", doc, out, code)
    assert any("m_hat" in m for m in bad)


def test_containment_censored_largest_eps_fails(copy_of):
    doc, out, code = copy_of("containment-capped")
    _edit_csv(out, "containment.csv",
              lambda rows: rows[-1].update(distance="0.99"))
    bad = workloads.check_round("containment-capped", doc, out, code)
    assert any("censored" in m for m in bad)


def test_first_settled_reads_the_whole_tail():
    assert workloads.first_settled([1.0, 0.2, 0.5, 0.1], 0.3) == 3
    assert workloads.first_settled([1.0, 0.2, 0.1], 0.3) == 1
    assert workloads.first_settled([1.0, 0.9], 0.3) == 2


# -- diminishing-rwm


def test_diminishing_late_window_above_threshold_fails(copy_of):
    doc, out, code = copy_of("diminishing-rwm")
    dmin = min(doc["params"]["delta_grid"])

    def edit(rows):
        for r in rows[-len(rows) // 5:]:
            if float(r["delta"]) == dmin:
                r["value"] = "0.5"
    _edit_csv(out, "diminishing.csv", edit)
    bad = workloads.check_round("diminishing-rwm", doc, out, code)
    assert any("late-window median" in m for m in bad)


def test_diminishing_value_outside_unit_interval_fails(copy_of):
    doc, out, code = copy_of("diminishing-rwm")
    _edit_csv(out, "diminishing.csv", lambda rows: rows[0].update(value="-0.1"))
    bad = workloads.check_round("diminishing-rwm", doc, out, code)
    assert any("outside [0, 1]" in m for m in bad)


def test_diminishing_flag_fails(copy_of):
    doc, out, code = copy_of("diminishing-rwm")
    _edit_summary(out, lambda s: s.update(non_diminishing=True))
    assert workloads.check_round("diminishing-rwm", doc, out, code)


# -- OT oracle and tracer


def _ot_cases():
    rng = np.random.default_rng(5)
    cases = []
    for n, m, uniform in ((6, 6, True), (32, 32, True), (5, 7, False),
                          (8, 8, False)):
        cost = rng.uniform(size=(n, m))
        if uniform:
            a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        else:
            a = rng.uniform(0.1, 1.0, n)
            b = rng.uniform(0.1, 1.0, m)
            a, b = a / a.sum(), b / b.sum()
        cases.append((cost, a, b))
    return cases


def test_oracle_agrees_with_exact_ot():
    kept = [(c, a, b, transport.discrete_ot_exact(c, a, b).cost)
            for c, a, b in _ot_cases()]
    checked, worst, bad = tracing.oracle_check(kept)
    assert checked == 4 and bad == [] and worst <= 1e-9


@pytest.mark.parametrize("k", range(4))
def test_oracle_rejects_a_tampered_value(k):
    c, a, b = _ot_cases()[k]
    value = transport.discrete_ot_exact(c, a, b).cost + 1e-7
    _, _, bad = tracing.oracle_check([(c, a, b, value)])
    assert len(bad) == 1


def test_tracer_counts_and_restores(tmp_path):
    doc = workloads.make_config("harris-verify", 2)
    doc["params"]["chains"] = doc["params"]["chains"][:1]
    cfg = parse_config(json.dumps(doc))
    originals = (transport.discrete_ot_exact, experiments.run_experiment)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.keep_ot = True
        _, code = experiments.run_experiment(cfg, str(tmp_path / "h"))
        figs = tracer.layer_figures()
    finally:
        tracer.uninstall()
    assert code == 0
    assert (transport.discrete_ot_exact, experiments.run_experiment) \
        == originals
    # one 8-state chain: 28 contraction + 28 smallness (all pairs lie in
    # the sublevel set here) + 28 one-step pairs + 10 x 8 t-step solves
    assert figs["transport.ot.calls"] == len(tracer.ot_kept)
    assert figs["transport.ot.repeats"] == figs["transport.ot.calls"] - 136
    assert figs["transport.ot.entries"] == 64 * figs["transport.ot.calls"]
    assert figs["experiments.self_s"] > 0.0
    assert tracing.oracle_check(tracer.ot_kept)[2] == []
