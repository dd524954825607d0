"""Experiment config parsing and validation.

Configs are JSON documents.  Validation is eager and complete: every
violation in the document is collected with its field path before the
error is raised, so a bad config never needs several round trips to fix.
Unknown fields are rejected rather than ignored; a silently dropped knob
is worse than an error.
"""

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adaptation import (DeterministicStepSchedule, DiminishingContinuous,
                         DiminishingDiscrete, FiniteAdaptation, RestrictedSet,
                         matrix_moment_matching, toward_gamma)
from .core import PsdMatrix
from .errors import SchemaError, UnknownField
from .kernels import (ArCoef, DiffusionTime1, DiscreteAr, DiscreteBase,
                      DiscreteRwm, GaussianAr, LangevinTuning, MatrixScale,
                      Ula, quadratic_potential)

KINDS = ("simulate", "distance", "containment", "diminishing", "drift",
         "lln", "ar-bounds", "harris", "harris-verify")

TOP_FIELDS = {"kind", "seed", "kernel", "policy", "init", "horizon",
              "replicas", "checkpoints", "metric", "out", "params"}


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    raw: dict
    kernel: Optional[dict] = None
    policy: Optional[dict] = None
    init: Optional[dict] = None
    horizon: Optional[int] = None
    replicas: Optional[int] = None
    checkpoints: Optional[list] = None
    metric: Optional[dict] = None
    params: dict = field(default_factory=dict)
    out: Optional[str] = None


class _Check:
    """Collects (path, reason) pairs, then raises once."""

    def __init__(self):
        self.violations = []
        self.unknown_only = True

    def add(self, path, reason, unknown=False):
        self.violations.append((path, reason))
        if not unknown:
            self.unknown_only = False

    def unknown(self, path, name):
        self.add(f"{path}.{name}" if path else name,
                 "unknown field", unknown=True)

    def raise_if_any(self):
        if not self.violations:
            return
        msg = "; ".join(f"{p}: {r}" for p, r in self.violations)
        err = UnknownField(msg) if self.unknown_only else SchemaError(msg)
        err.violations = list(self.violations)
        raise err


def _require(doc, path, name, types, chk, allow_missing=False):
    if name not in doc:
        if not allow_missing:
            chk.add(f"{path}.{name}" if path else name, "missing")
        return None
    v = doc[name]
    if types is not None and not isinstance(v, types):
        chk.add(f"{path}.{name}" if path else name,
                f"expected {getattr(types, '__name__', types)}")
        return None
    return v


def _check_fields(doc, path, allowed, chk):
    for k in doc:
        if k not in allowed:
            chk.unknown(path, k)


def _matrix(doc, path, name, chk, square=True):
    raw = _require(doc, path, name, list, chk)
    if raw is None:
        return None
    try:
        m = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        chk.add(f"{path}.{name}", "not a numeric matrix")
        return None
    if m.ndim != 2 or (square and m.shape[0] != m.shape[1]):
        chk.add(f"{path}.{name}", "must be a square matrix")
        return None
    return m


def _validate_tuning(doc, path, chk):
    if not isinstance(doc, dict):
        chk.add(path, "tuning spec must be an object")
        return
    variant = _require(doc, path, "variant", str, chk)
    if variant == "discrete-base":
        _check_fields(doc, path, {"variant", "gamma"}, chk)
        g = _require(doc, path, "gamma", int, chk)
        if g is not None and g < 2:
            chk.add(f"{path}.gamma", "must be an integer >= 2")
    elif variant == "ar-coef":
        _check_fields(doc, path, {"variant", "gamma", "gamma_max"}, chk)
        g = _require(doc, path, "gamma", (int, float), chk)
        gm = doc.get("gamma_max", 0.99)
        if g is not None and not 0.0 < g <= gm < 1.0:
            chk.add(f"{path}.gamma", "must satisfy 0 < gamma <= gamma_max < 1")
    elif variant == "matrix-scale":
        _check_fields(doc, path, {"variant", "matrix", "eig_min"}, chk)
        _matrix(doc, path, "matrix", chk)
    elif variant == "langevin":
        _check_fields(doc, path, {"variant", "matrix", "step", "step_min"},
                      chk)
        _matrix(doc, path, "matrix", chk)
        _require(doc, path, "step", (int, float), chk)
    elif variant is not None:
        chk.add(f"{path}.variant", f"unknown tuning variant '{variant}'")


def _validate_kernel(doc, path, chk):
    if doc is None:
        return
    if not isinstance(doc, dict):
        chk.add(path, "kernel spec must be an object")
        return
    fam = _require(doc, path, "family", str, chk)
    if fam == "discrete-ar":
        _check_fields(doc, path, {"family"}, chk)
    elif fam == "gaussian-ar":
        _check_fields(doc, path, {"family", "cov_sqrt"}, chk)
        _matrix(doc, path, "cov_sqrt", chk)
    elif fam == "discrete-rwm":
        _check_fields(doc, path, {"family", "grid", "density"}, chk)
        grid = _require(doc, path, "grid", list, chk)
        if grid is not None and len(grid) < 2:
            chk.add(f"{path}.grid", "need at least two grid points")
        dens = _require(doc, path, "density", str, chk)
        if dens is not None and dens not in _DENSITIES:
            chk.add(f"{path}.density",
                    f"unknown density (choose from {sorted(_DENSITIES)})")
    elif fam in ("ula", "diffusion"):
        allowed = {"family", "hessian"}
        if fam == "diffusion":
            allowed.add("substeps")
        _check_fields(doc, path, allowed, chk)
        _matrix(doc, path, "hessian", chk)
    elif fam is not None:
        chk.add(f"{path}.family", f"unknown kernel family '{fam}'")


def _validate_policy(doc, path, chk):
    if doc is None:
        return
    if not isinstance(doc, dict):
        chk.add(path, "policy spec must be an object")
        return
    typ = _require(doc, path, "type", str, chk)
    if typ == "frozen":
        _check_fields(doc, path, {"type"}, chk)
    elif typ == "finite":
        _check_fields(doc, path, {"type", "t_stop", "base"}, chk)
        t = _require(doc, path, "t_stop", int, chk)
        if t is not None and t < 0:
            chk.add(f"{path}.t_stop", "must be >= 0")
        if "base" in doc:
            _validate_policy(doc["base"], f"{path}.base", chk)
    elif typ == "discrete-bernoulli":
        _check_fields(doc, path, {"type", "candidates", "rate"}, chk)
        cands = _require(doc, path, "candidates", list, chk)
        if cands is not None and (len(cands) == 0 or
                                  any(not isinstance(c, int) or c < 2
                                      for c in cands)):
            chk.add(f"{path}.candidates", "must be integers >= 2")
        _validate_rate(doc.get("rate", "harmonic"), f"{path}.rate", chk)
    elif typ == "continuous-ar":
        _check_fields(doc, path, {"type", "target", "gamma_max", "rate"}, chk)
        t = _require(doc, path, "target", (int, float), chk)
        gm = doc.get("gamma_max", 0.99)
        if t is not None and not 0.0 < t <= gm < 1.0:
            chk.add(f"{path}.target", "must satisfy 0 < target <= gamma_max")
        _validate_rate(doc.get("rate", "harmonic"), f"{path}.rate", chk)
    elif typ == "moment-matching":
        _check_fields(doc, path, {"type", "eig_min", "rate"}, chk)
        _validate_rate(doc.get("rate", "harmonic"), f"{path}.rate", chk)
    elif typ == "step-schedule":
        _check_fields(doc, path, {"type", "matrix", "h0", "h_limit"}, chk)
        _matrix(doc, path, "matrix", chk)
        _require(doc, path, "h0", (int, float), chk)
        _require(doc, path, "h_limit", (int, float), chk)
    elif typ == "restricted":
        _check_fields(doc, path, {"type", "radius", "inner"}, chk)
        r = _require(doc, path, "radius", (int, float), chk)
        if r is not None and r <= 0:
            chk.add(f"{path}.radius", "must be positive")
        inner = _require(doc, path, "inner", dict, chk)
        if inner is not None:
            _validate_policy(inner, f"{path}.inner", chk)
    elif typ is not None:
        chk.add(f"{path}.type", f"unknown policy type '{typ}'")


def _validate_rate(spec, path, chk):
    if isinstance(spec, str):
        if spec not in ("harmonic", "sqrt"):
            chk.add(path, "rate must be 'harmonic', 'sqrt', or a constant")
    elif isinstance(spec, (int, float)):
        if not 0.0 <= spec <= 1.0:
            chk.add(path, "constant rate must lie in [0, 1]")
    else:
        chk.add(path, "rate must be 'harmonic', 'sqrt', or a constant")


def _cross_checks(cfg, chk):
    # variant compatibility and kernel-specific parameter ranges
    kern = cfg.kernel or {}
    fam = kern.get("family")
    tun = (cfg.init or {}).get("tuning") if isinstance(cfg.init, dict) \
        else None
    variant = tun.get("variant") if isinstance(tun, dict) else None
    wants = {"discrete-ar": "discrete-base", "gaussian-ar": "ar-coef",
             "discrete-rwm": "matrix-scale", "ula": "langevin",
             "diffusion": "matrix-scale"}
    if fam in wants and variant is not None and variant != wants[fam]:
        chk.add("init.tuning.variant",
                f"kernel '{fam}' needs variant '{wants[fam]}'")
    if fam == "ula" and isinstance(tun, dict):
        h = tun.get("step")
        hess = kern.get("hessian")
        if isinstance(h, (int, float)) and isinstance(hess, list):
            try:
                w = np.linalg.eigvalsh(np.asarray(hess, dtype=float))
                h_max = 1.0 / (w[0] + w[-1])
                h_min = tun.get("step_min", 1e-4)
                if not h_min <= h <= h_max + 1e-15:
                    chk.add("init.tuning.step",
                            "step must lie in the admissible interval "
                            f"[{h_min:g}, 1/(alpha+beta) = {h_max:g}]")
            except np.linalg.LinAlgError:
                chk.add("kernel.hessian", "not diagonalizable")


def parse_config(text):
    """Parse and validate a JSON experiment config.

    Raises SchemaError carrying every violation found (field path plus
    reason); UnknownField when unrecognized fields are the only problem.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    chk = _Check()
    _check_fields(doc, "", TOP_FIELDS, chk)
    kind = _require(doc, "", "kind", str, chk)
    if kind is not None and kind not in KINDS:
        chk.add("kind", f"unknown experiment kind '{kind}'")
    seed = _require(doc, "", "seed", int, chk)
    _validate_kernel(doc.get("kernel"), "kernel", chk)
    _validate_policy(doc.get("policy"), "policy", chk)
    init = doc.get("init")
    if init is not None:
        if not isinstance(init, dict):
            chk.add("init", "must be an object")
        else:
            _check_fields(init, "init", {"tuning", "state"}, chk)
            if "tuning" in init:
                _validate_tuning(init["tuning"], "init.tuning", chk)
    horizon = _require(doc, "", "horizon", int, chk, allow_missing=True)
    if horizon is not None and horizon < 0:
        chk.add("horizon", "must be >= 0")
    replicas = _require(doc, "", "replicas", int, chk, allow_missing=True)
    if replicas is not None and replicas < 1:
        chk.add("replicas", "must be >= 1")
    for name, typ in (("checkpoints", list), ("metric", dict),
                      ("params", dict), ("out", str)):
        _require(doc, "", name, typ, chk, allow_missing=True)
    cfg = ExperimentConfig(kind=kind or "", seed=seed if seed is not None
                           else -1, raw=doc, kernel=doc.get("kernel"),
                           policy=doc.get("policy"), init=doc.get("init"),
                           horizon=horizon, replicas=replicas,
                           checkpoints=doc.get("checkpoints"),
                           metric=doc.get("metric"),
                           params=doc.get("params", {}), out=doc.get("out"))
    _cross_checks(cfg, chk)
    chk.raise_if_any()
    return cfg


# ---------------------------------------------------------------------------
# builders: validated specs to live objects

_DENSITIES = {
    "gauss": lambda x: float(np.exp(-0.5 * np.dot(x, x))),
    "peaked": lambda x: float(np.exp(-2.0 * np.dot(x, x)) + 0.05),
    "flat": lambda x: 1.0,
}


def build_kernel(spec):
    fam = spec["family"]
    if fam == "discrete-ar":
        return DiscreteAr()
    if fam == "gaussian-ar":
        return GaussianAr(np.asarray(spec["cov_sqrt"], dtype=float))
    if fam == "discrete-rwm":
        grid = np.asarray(spec["grid"], dtype=float)
        return DiscreteRwm(grid, _DENSITIES[spec["density"]])
    if fam == "ula":
        return Ula(quadratic_potential(np.asarray(spec["hessian"],
                                                  dtype=float)))
    if fam == "diffusion":
        pot = quadratic_potential(np.asarray(spec["hessian"], dtype=float))
        return DiffusionTime1(pot, substeps=spec.get("substeps", 64))
    raise SchemaError(f"unknown kernel family '{fam}'")


def build_tuning(spec):
    variant = spec["variant"]
    if variant == "discrete-base":
        return DiscreteBase(spec["gamma"])
    if variant == "ar-coef":
        return ArCoef(spec["gamma"], gamma_max=spec.get("gamma_max", 0.99))
    if variant == "matrix-scale":
        return MatrixScale(PsdMatrix(np.asarray(spec["matrix"], dtype=float)),
                           eig_min=spec.get("eig_min", 0.05))
    if variant == "langevin":
        return LangevinTuning(PsdMatrix(np.asarray(spec["matrix"],
                                                   dtype=float)),
                              spec["step"],
                              step_min=spec.get("step_min", 1e-4))
    raise SchemaError(f"unknown tuning variant '{variant}'")


def _rate_fn(spec):
    if spec == "harmonic":
        return lambda t: 1.0 / (t + 1.0)
    if spec == "sqrt":
        return lambda t: 1.0 / np.sqrt(t + 1.0)
    c = float(spec)
    return lambda t: c


def build_policy(spec):
    typ = spec["type"]
    if typ == "frozen":
        return FiniteAdaptation(0)
    if typ == "finite":
        base = build_policy(spec["base"]) if "base" in spec else None
        return FiniteAdaptation(spec["t_stop"], base=base)
    if typ == "discrete-bernoulli":
        cands = tuple(DiscreteBase(c) for c in spec["candidates"])
        return DiminishingDiscrete(cands, _rate_fn(spec.get("rate",
                                                            "harmonic")))
    if typ == "continuous-ar":
        return DiminishingContinuous(
            _rate_fn(spec.get("rate", "harmonic")),
            toward_gamma(spec["target"], gamma_max=spec.get("gamma_max",
                                                            0.99)))
    if typ == "moment-matching":
        return DiminishingContinuous(
            _rate_fn(spec.get("rate", "harmonic")),
            matrix_moment_matching(eig_min=spec.get("eig_min", 0.05)))
    if typ == "step-schedule":
        return DeterministicStepSchedule(
            PsdMatrix(np.asarray(spec["matrix"], dtype=float)),
            spec["h0"], spec["h_limit"])
    if typ == "restricted":
        return RestrictedSet(build_policy(spec["inner"]),
                             radius=spec["radius"])
    raise SchemaError(f"unknown policy type '{typ}'")


def build_init(spec, kernel):
    tuning = build_tuning(spec["tuning"])
    state = spec.get("state", "stationary")
    if state == "stationary":
        if not hasattr(kernel, "stationary_sample"):
            raise SchemaError(
                "init.state: 'stationary' needs a kernel with an exact "
                "stationary sampler")

        def init(stream):
            return tuning, kernel.stationary_sample(stream)
        return init
    if isinstance(state, (int, float)):
        return tuning, float(state)
    return tuning, np.asarray(state, dtype=float)
