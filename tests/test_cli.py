import json
import math
import os

import numpy as np
import pytest

from adaptmc.cli import main
from adaptmc.config import parse_config
from adaptmc.diagnostics import harris_constants
from adaptmc.errors import SchemaError, UnknownField


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_all(out_dir):
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            blobs[name] = f.read()
    return blobs


def simulate_cfg(seed=3):
    return {
        "kind": "simulate", "seed": seed,
        "kernel": {"family": "discrete-ar"},
        "policy": {"type": "discrete-bernoulli", "candidates": [2, 3],
                   "rate": "harmonic"},
        "init": {"tuning": {"variant": "discrete-base", "gamma": 2},
                 "state": 0.25},
        "horizon": 30,
    }


# ---------------------------------------------------------------------------
# config validation


def test_parse_minimal_simulate():
    cfg = parse_config(json.dumps(simulate_cfg()))
    assert cfg.kind == "simulate"
    assert cfg.seed == 3
    assert cfg.horizon == 30


def test_missing_seed_named_in_error():
    doc = simulate_cfg()
    del doc["seed"]
    with pytest.raises(SchemaError, match="seed"):
        parse_config(json.dumps(doc))


def test_ula_step_outside_admissible_interval():
    doc = {
        "kind": "simulate", "seed": 1,
        "kernel": {"family": "ula", "hessian": [[1.0, 0.0], [0.0, 4.0]]},
        "policy": {"type": "frozen"},
        "init": {"tuning": {"variant": "langevin",
                            "matrix": [[1.0, 0.0], [0.0, 1.0]],
                            "step": 0.5},
                 "state": [1.0, 0.0]},
        "horizon": 5,
    }
    with pytest.raises(SchemaError, match="admissible interval"):
        parse_config(json.dumps(doc))
    # the right endpoint 1/(alpha+beta) = 0.2 itself is allowed
    doc["init"]["tuning"]["step"] = 0.2
    parse_config(json.dumps(doc))


def test_unknown_field_rejected():
    doc = simulate_cfg()
    doc["extra_knob"] = 1
    with pytest.raises(UnknownField, match="extra_knob"):
        parse_config(json.dumps(doc))


def test_tolerances_field_rejected():
    doc = simulate_cfg()
    doc["tolerances"] = {"mse": 0.1}
    with pytest.raises(UnknownField, match="tolerances"):
        parse_config(json.dumps(doc))


def test_all_violations_collected():
    doc = simulate_cfg()
    del doc["seed"]
    doc["horizon"] = -2
    doc["mystery"] = True
    with pytest.raises(SchemaError) as exc:
        parse_config(json.dumps(doc))
    paths = [p for p, _ in exc.value.violations]
    assert "seed" in paths
    assert "horizon" in paths
    assert "mystery" in paths


def test_variant_kernel_mismatch():
    doc = simulate_cfg()
    doc["init"]["tuning"] = {"variant": "ar-coef", "gamma": 0.5}
    with pytest.raises(SchemaError, match="discrete-base"):
        parse_config(json.dumps(doc))


def test_bad_json_is_schema_error():
    with pytest.raises(SchemaError, match="JSON"):
        parse_config("{not json")


# ---------------------------------------------------------------------------
# experiment runs through the CLI entry point


def test_simulate_writes_trajectory(tmp_path):
    cfg = write_cfg(tmp_path, simulate_cfg())
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,tuning,x0"
    assert len(lines) == 32  # header + states 0..30
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert "trajectory.csv" in manifest["outputs"]


def test_cli_schema_failure_exit_2(tmp_path, capsys):
    doc = simulate_cfg()
    del doc["seed"]
    cfg = write_cfg(tmp_path, doc)
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_kind_subcommand_mismatch(tmp_path):
    cfg = write_cfg(tmp_path, simulate_cfg())
    assert main(["lln", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_missing_config_exit_3(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 3


def test_ar_bounds_csv_and_report(tmp_path, capsys):
    doc = {"kind": "ar-bounds", "seed": 5,
           "kernel": {"family": "discrete-ar"},
           "init": {"tuning": {"variant": "discrete-base", "gamma": 2},
                    "state": 0.0},
           "params": {"x": 0.0, "t_max": 12}}
    cfg = write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main([doc["kind"], "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "out" / "bounds.csv").read_text().splitlines()
    assert rows[0] == "t,exact_distance,bound,satisfied"
    assert all(r.endswith(",true") for r in rows[1:])
    # from x = 0 each exact distance is half the envelope
    t1 = rows[2].split(",")
    assert math.isclose(float(t1[1]), 0.25)
    assert math.isclose(float(t1[2]), 0.5)
    assert main(["report", "--out", out]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gaussian_ensemble_reruns_byte_identical(tmp_path):
    doc = {
        "kind": "simulate", "seed": 11,
        "kernel": {"family": "gaussian-ar",
                   "cov_sqrt": [[1.0, 0.0], [0.0, 0.5]]},
        "policy": {"type": "continuous-ar", "target": 0.9,
                   "rate": "harmonic"},
        "init": {"tuning": {"variant": "ar-coef", "gamma": 0.5},
                 "state": [0.4, 0.1]},
        "horizon": 12, "replicas": 6, "checkpoints": [0, 6, 12],
    }
    cfg = write_cfg(tmp_path, doc)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2]) == 0
    assert read_all(out1) == read_all(out2)


def test_threads_option_rejected(tmp_path):
    cfg = write_cfg(tmp_path, simulate_cfg())
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a"),
              "--threads", "4"])
    assert exc.value.code == 2


def test_seed_override_changes_results(tmp_path):
    cfg = write_cfg(tmp_path, simulate_cfg())
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2,
                 "--seed", "99"]) == 0
    a, b = read_all(out1), read_all(out2)
    assert a["trajectory.csv"] != b["trajectory.csv"]
    assert json.loads(b["manifest.json"])["seed"] == 99


def test_harris_constants_json(tmp_path):
    doc = {"kind": "harris", "seed": 1,
           "params": {"lam": 0.5, "K": 1.0, "kappa": 0.2, "alpha": 0.2,
                      "delta": 0.1}}
    cfg = write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["harris", "--config", cfg, "--out", out]) == 0
    s = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert math.isclose(s["beta_star"], 0.05)
    assert math.isclose(s["R"], 4.4)
    f1 = math.sqrt(0.5 * (1.0 + 0.2) / (1.0 + 0.05 * 4.4) + 0.5)
    want = 1.0 - max(f1, math.sqrt(0.9), math.sqrt(0.9))
    assert abs(s["alpha_star"] - want) < 1e-12
    assert round(s["alpha_star"], 5) == 0.00411


def test_harris_verify_pass_and_fail(tmp_path, capsys):
    base = {"kind": "harris-verify", "seed": 1,
            "params": {"lam": 0.5, "K": 0.1, "kappa": 0.5, "alpha": 0.5,
                       "delta": 0.1, "t_max": 6,
                       "chains": [{"matrix": [[0.7, 0.3], [0.4, 0.6]]}],
                       "V": [0.0, 0.0],
                       "rho": [[0.0, 0.5], [0.5, 0.0]]}}
    cfg = write_cfg(tmp_path, base)
    out = str(tmp_path / "good")
    assert main(["harris-verify", "--config", cfg, "--out", out]) == 0
    s = json.loads((tmp_path / "good" / "summary.json").read_text())
    assert s["violated"] is False
    # margin convention: worst of (achieved - allowed), so <= 0 passes
    assert s["one_step_margin"] <= 1e-9
    p = base["params"]
    c = harris_constants(p["lam"], p["K"], p["kappa"], p["alpha"],
                         p["delta"])
    fields = ("lam", "K", "kappa", "alpha", "delta", "beta_star", "R",
              "f1", "f2", "f3", "alpha_star")
    assert {f: s[f] for f in fields} == {f: getattr(c, f) for f in fields}
    bad = json.loads(json.dumps(base))
    bad["params"]["V"] = [0.0, 10.0]  # drift hypothesis now fails
    cfg2 = write_cfg(tmp_path, bad, name="bad.json")
    out2 = str(tmp_path / "bad")
    assert main(["harris-verify", "--config", cfg2, "--out", out2]) == 4
    s2 = json.loads((tmp_path / "bad" / "summary.json").read_text())
    assert s2["violated"] is True
    assert "drift fails at state 0" in s2["reason"]
    assert {f: s2[f] for f in fields} == {f: getattr(c, f) for f in fields}


def test_containment_censoring_reported(tmp_path, capsys):
    doc = {"kind": "containment", "seed": 2,
           "kernel": {"family": "gaussian-ar", "cov_sqrt": [[1.0]]},
           "init": {"tuning": {"variant": "ar-coef", "gamma": 0.5}},
           "metric": {"type": "exact"},
           "params": {"x": [2.0], "eps": [0.5, 0.001], "n_max": 3}}
    cfg = write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["containment", "--config", cfg, "--out", out]) == 0
    s = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert s["censored"]["0.001"] is True
    assert s["censored"]["0.5"] is False
    assert s["m_hat"]["0.001"] == 4  # n_max + 1 sentinel
    assert any("censored" in n for n in s["notes"])
    assert main(["report", "--out", out]) == 0
    rep = capsys.readouterr().out
    assert "censored" in rep
    assert "claim nothing" in rep


def test_containment_error_column_described(tmp_path):
    doc = {"kind": "containment", "seed": 2,
           "kernel": {"family": "gaussian-ar", "cov_sqrt": [[1.0]]},
           "init": {"tuning": {"variant": "ar-coef", "gamma": 0.5}},
           "metric": {"type": "exact"},
           "params": {"x": [2.0], "eps": [0.5], "n_max": 3}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["containment", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "containment.meta.json").read_text())
    desc = {c["name"]: c["description"] for c in meta["columns"]}["error"]
    for route in ("closed-form", "duality gap", "bootstrap"):
        assert route in desc


@pytest.mark.parametrize("replicas, metric, routes", [
    (16, None, {"assignment": 4, "lp": 0}),      # clouds solved exactly
    (260, None, {"assignment": 4, "lp": 0}),     # subsampled to 256 points
    (16, {"type": "exact"}, {"assignment": 0, "lp": 0}),   # closed form
])
def test_containment_counts_ot_routes(tmp_path, replicas, metric, routes):
    doc = {"kind": "containment", "seed": 4,
           "kernel": {"family": "gaussian-ar", "cov_sqrt": [[1.0]]},
           "init": {"tuning": {"variant": "ar-coef", "gamma": 0.5}},
           "params": {"x": [2.0], "eps": [0.5], "n_max": 3,
                      "replicas": replicas}}
    if metric is not None:
        doc["metric"] = metric
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["containment", "--config", cfg, "--out", str(out)]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["ot_routes"] == routes


def test_distance_exact_1d(tmp_path):
    doc = {"kind": "distance", "seed": 1,
           "params": {"method": "exact-1d",
                      "left": {"points": [0.0, 0.5, 1.0]},
                      "right": {"points": [0.25, 0.75, 1.0]}}}
    cfg = write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["distance", "--config", cfg, "--out", out]) == 0
    s = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert math.isclose(s["cost"], 0.5 / 3.0)
    assert s["error"] == 0.0


def test_diminishing_run(tmp_path):
    doc = {"kind": "diminishing", "seed": 4,
           "kernel": {"family": "discrete-ar"},
           "policy": {"type": "frozen"},
           "init": {"tuning": {"variant": "discrete-base", "gamma": 2},
                    "state": 0.5},
           "horizon": 40,
           "params": {"delta_grid": [0.1, 0.2], "pairs_per_delta": 4}}
    cfg = write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["diminishing", "--config", cfg, "--out", out]) == 0
    s = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert s["non_diminishing"] is False
    rows = (tmp_path / "out" / "diminishing.csv").read_text().splitlines()
    assert rows[0] == "t,delta,value"
    # frozen base-2 coupling halves every separation exactly
    vals = [float(r.split(",")[2]) for r in rows[1:]]
    deltas = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(math.isclose(v, d / 2.0) for v, d in zip(vals, deltas))


def test_drift_run(tmp_path):
    doc = {"kind": "drift", "seed": 6,
           "kernel": {"family": "gaussian-ar", "cov_sqrt": [[1.0]]},
           "params": {"tunings": [{"variant": "ar-coef", "gamma": 0.3},
                                  {"variant": "ar-coef", "gamma": 0.6}],
                      "points": [0.0, 1.0, 2.0, 3.0],
                      "samples_per_point": 128}}
    cfg = write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["drift", "--config", cfg, "--out", out]) == 0
    s = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert 0.0 < s["lam_hat"] < 1.0
    assert s["violations"] == 0


def test_lln_run(tmp_path):
    doc = {"kind": "lln", "seed": 8,
           "kernel": {"family": "discrete-ar"},
           "policy": {"type": "discrete-bernoulli", "candidates": [2, 3],
                      "rate": "harmonic"},
           "init": {"tuning": {"variant": "discrete-base", "gamma": 2},
                    "state": 0.25},
           "params": {"phi": "first-coordinate", "reference": 0.5,
                      "t_grid": [50, 200], "replicas": 16}}
    cfg = write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["lln", "--config", cfg, "--out", out]) == 0
    s = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert s["monotone"] is True


@pytest.mark.parametrize("field,value", [
    ("replicas", 0), ("replicas", 1), ("replicas", -3), ("replicas", 2.5),
    ("t_grid", []), ("t_grid", [10, 2.5]), ("t_grid", ["10"]),
    ("t_grid", [0, 10]), ("reference", None), ("reference", "half"),
], ids=["replicas-0", "replicas-1", "replicas-negative", "replicas-float",
        "t_grid-empty", "t_grid-float", "t_grid-string", "t_grid-zero",
        "reference-missing", "reference-string"])
def test_lln_bad_params_exit_2(tmp_path, capsys, field, value):
    doc = {"kind": "lln", "seed": 8,
           "kernel": {"family": "discrete-ar"},
           "policy": {"type": "frozen"},
           "init": {"tuning": {"variant": "discrete-base", "gamma": 2},
                    "state": 0.25},
           "params": {"reference": 0.5, "t_grid": [10, 20], "replicas": 4}}
    if value is None:
        del doc["params"][field]
    else:
        doc["params"][field] = value
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["lln", "--config", cfg, "--out", str(out)]) == 2
    assert "params." + field in capsys.readouterr().err
    assert not (out / "lln.csv").exists()


def test_report_missing_dir(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "empty")]) == 3
    assert "artifacts" in capsys.readouterr().err


def test_report_detects_tampering(tmp_path):
    doc = {"kind": "harris", "seed": 1,
           "params": {"lam": 0.5, "K": 1.0, "kappa": 0.2, "alpha": 0.2,
                      "delta": 0.1}}
    cfg = write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["harris", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "harris.csv"), "a") as f:
        f.write("tampered\n")
    assert main(["report", "--out", out]) == 3


def test_sidecar_meta_documents_columns(tmp_path):
    cfg = write_cfg(tmp_path, simulate_cfg())
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    meta = json.loads((tmp_path / "out" / "trajectory.meta.json").read_text())
    names = [c["name"] for c in meta["columns"]]
    assert names == ["t", "tuning", "x0"]
    assert all(c["description"] for c in meta["columns"])


def test_rwm_simulate_grid_states(tmp_path):
    doc = {"kind": "simulate", "seed": 9,
           "kernel": {"family": "discrete-rwm",
                      "grid": [0.0, 0.25, 0.5, 0.75, 1.0],
                      "density": "peaked"},
           "policy": {"type": "frozen"},
           "init": {"tuning": {"variant": "matrix-scale",
                               "matrix": [[1.0]]},
                    "state": 2},
           "horizon": 50}
    cfg = write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    states = {float(r.split(",")[2]) for r in rows[1:]}
    assert states <= {0.0, 0.25, 0.5, 0.75, 1.0}


def test_diffusion_simulate_with_matrix_scale(tmp_path):
    doc = {"kind": "simulate", "seed": 4,
           "kernel": {"family": "diffusion",
                      "hessian": [[1.0, 0.0], [0.0, 2.0]], "substeps": 4},
           "policy": {"type": "frozen"},
           "init": {"tuning": {"variant": "matrix-scale",
                               "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                    "state": [1.0, -1.0]},
           "horizon": 10}
    cfg = write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 12  # header + states 0..10


def test_repeat_run_byte_identical(tmp_path):
    for doc in (simulate_cfg(seed=21),
                {"kind": "harris", "seed": 1,
                 "params": {"lam": 0.5, "K": 1.0, "kappa": 0.2,
                            "alpha": 0.2, "delta": 0.1}}):
        cfg = write_cfg(tmp_path, doc, name=doc["kind"] + ".json")
        out1 = str(tmp_path / (doc["kind"] + "_1"))
        out2 = str(tmp_path / (doc["kind"] + "_2"))
        assert main([doc["kind"], "--config", cfg, "--out", out1]) == 0
        assert main([doc["kind"], "--config", cfg, "--out", out2]) == 0
        assert read_all(out1) == read_all(out2)
