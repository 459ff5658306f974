"""Config-driven experiment runner: every verification pipeline in the
package is reachable through one subcommand and one JSON config, writing a
machine-readable report plus any CSV/JSON artifacts.

Exit codes: 0 all checks pass, 1 a numerical check failed (full report is
still written), 2 config/schema violation (nothing is written). Reports
are deterministic given config + seed, except for the wall_time_s field.
Environment: IPL_THREADS caps internal parallelism (the pipelines here are
sequential NumPy, so the cap is recorded and trivially honored).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._version import __version__
from . import models
from .asymptotics import ExtractionError, decay_exponent, \
    extract_invariants, holonomy_table, poincare_constant, roundtrip_errors
from .gauge import DRIFT_STEPS, PAIRS, asd_residual, flat_connection, \
    monodromy_drift_defect, random_quadratic_form_fixture, self_dual, \
    weitzenbock_defect
from .geometry import TWO_PI, AnnulusGrid, DualTorusPoint, TorusSpec, \
    conventions_hash, conventions_sheet, covering_radius, in_dual_lattice, \
    inradius, lattice_distance, reduce_dual, xi_from_zeta, zeta_from_xi
from .hitchin import hitchin_residual
from .models import KINDS, ModelParams, model_connection, perturb
from .moduli import AnnulusCalculus, apply_complex_structure, \
    complex_structures, fourier_diff, instanton_tangent_residual, k1_chart, \
    l2_metric, moduli_dimension, random_tangent, translation_tangents
from .spectral import R_FAR, BundleModel, fourier_gap, gap_region_scale, \
    in_hypothesis_region, jumping_points, nahm_weights, phi_residue
from .stability import alpha_stable_extension, existence_obstruction, \
    h0_consistency

SCHEMA_VERSION = 1
# the acceptance suite: (subcommand, config file under configs/)
SUITE = (
    ("conventions", "conventions.json"),
    ("model-check", "model_check_exact.json"),
    ("model-check", "model_check_decay.json"),
    ("model-check", "inequalities.json"),
    ("invariants", "invariants_roundtrip.json"),
    ("spectral", "spectral_counting.json"),
    ("spectral", "spectral_dichotomy.json"),
    ("stability", "stability_table.json"),
    ("moduli", "moduli_suite.json"),
)

class ConfigError(ValueError):
    """Config fails schema validation; nothing may be written."""


def max_workers() -> int:
    """Parallelism cap from IPL_THREADS (>= 1)."""
    raw = os.environ.get("IPL_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# config schemas
#
# A schema is a dict from config key to field spec. `_walk` checks a raw
# config against it and returns the parsed tree: every declared key holds
# its parsed value, its parsed default, or None for an absent optional
# block. Unknown keys are errors, and every error names the dotted path of
# the field. Rules that read more than one field run after the walk.

_REQUIRED = object()


@dataclass(frozen=True)
class _Field:
    kind: str  # number, integer, pair, domain, choice, list or object
    default: object = None  # raw JSON; None leaves an absent key None
    positive: bool = False
    minimum: float | None = None
    below: float | None = None  # numbers: exclusive upper bound
    choices: tuple = ()
    item: object = None  # list: the item spec; object: the schema
    min_len: int = 1
    increasing: bool = False


_positive = partial(_Field, "number", positive=True)
_alpha = partial(_Field, "number", minimum=-0.5, below=0.5)
_integer = partial(_Field, "integer")
_pair = partial(_Field, "pair")  # [re, im], parsed to a complex
_domain = partial(_Field, "domain")  # [r_lo, r_hi], 0 < r_lo < r_hi
_choice = partial(_Field, "choice")
_list = partial(_Field, "list")
_NUMBER, _POSITIVE = _Field("number"), _positive()
_radii = partial(_list, item=_positive(), increasing=True)


def _object(schema, default=None) -> _Field:
    return _Field("object", default, item=schema)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _walk(spec: _Field, v, path: str):
    """Checks one value against its spec; returns the parsed value."""
    kind = spec.kind
    if kind == "number":
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not abs(v) <= sys.float_info.max:  # finite, fits a float
            raise ConfigError(f"{path} must be a finite number")
        v = float(v)
        if spec.positive and v <= 0:
            raise ConfigError(f"{path} must be positive")
        if spec.below is not None and not spec.minimum <= v < spec.below:
            raise ConfigError(f"{path} must lie in [{spec.minimum}, "
                              f"{spec.below})")
        return v
    if kind == "integer":
        if isinstance(v, bool) or not isinstance(v, int) or v < spec.minimum:
            raise ConfigError(f"{path} must be an integer >= {spec.minimum}")
        return v
    if kind in ("pair", "domain"):
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            what = "[re, im]" if kind == "pair" else "[r_lo, r_hi]"
            raise ConfigError(f"{path} must be a {what} pair")
        part = _POSITIVE if kind == "domain" else _NUMBER
        a, b = _walk(part, v[0], f"{path}[0]"), _walk(part, v[1], f"{path}[1]")
        if kind == "pair":
            return complex(a, b)
        _expect(a < b, f"{path} must be increasing")
        return (a, b)
    if kind == "choice":
        _expect(isinstance(v, str) and v in spec.choices,
                f"{path} must be one of {spec.choices}")
        return v
    if kind == "list":
        _expect(isinstance(v, (list, tuple)), f"{path} must be a list")
        _expect(len(v) >= spec.min_len,
                f"{path} must list at least {spec.min_len} item(s)")
        out = [_walk(spec.item, x, f"{path}[{j}]") for j, x in enumerate(v)]
        _expect(not spec.increasing
                or all(b > a for a, b in zip(out, out[1:])),
                f"{path} must increase")
        return out
    _expect(isinstance(v, dict), f"{path or 'config'} must be an object")
    prefix = f"{path}." if path else ""
    unknown = v.keys() - spec.item.keys()
    if unknown:
        raise ConfigError(f"{prefix}{min(unknown)} is not a known key; "
                          f"expected one of {', '.join(spec.item)}")
    out = {}
    for key, sub in spec.item.items():
        if key in v:
            out[key] = _walk(sub, v[key], prefix + key)
        elif sub.default is _REQUIRED:
            raise ConfigError(f"{prefix}{key} is required")
        else:
            out[key] = None if sub.default is None \
                else _walk(sub, sub.default, prefix + key)
    return out


_COMMON = {
    "schema_version": _integer(_REQUIRED, minimum=1),
    "seed": _integer(0, minimum=0),
    "torus": _object({"period_x": _positive(TWO_PI),
                      "period_y": _positive(TWO_PI)}, {}),
}

_KIND = _choice("semisimple", choices=KINDS)
# a semisimple model's parameters; the moduli model is always semisimple
_MODEL = {"lambda": _pair([0.0, 0.0]), "mu": _pair([0.0, 0.0]),
          "alpha": _alpha(0.0)}


def _models(**extra) -> dict:
    """The "models" list and "model_grid" block, each with a kind, the
    model parameters and the extra keys."""
    return {
        "models": _list([], item=_object({"kind": _KIND, **_MODEL, **extra}),
                        min_len=0),
        "model_grid": _object({"kind": _KIND,
                               "lambda": _list(_REQUIRED, item=_pair()),
                               "mu": _list(_REQUIRED, item=_pair()),
                               "alpha": _list(_REQUIRED, item=_alpha()),
                               **extra}),
    }


def _validator(schema: dict, rules=None):
    """validate(cfg) for one subcommand: walks the common keys and the
    schema, then applies the subcommand's cross-field rules(cfg, params)."""
    root = _object({**_COMMON, **schema})

    def validate(cfg: dict) -> dict:
        params = _walk(root, cfg, "")
        _expect(params["schema_version"] == SCHEMA_VERSION,
                f"schema_version must be {SCHEMA_VERSION}")
        params["torus"] = TorusSpec(**params["torus"])
        if rules is not None:
            rules(cfg, params)
        return params

    return validate


def _require_seed(cfg: dict) -> None:
    _expect("seed" in cfg, "seed is mandatory for randomized suites")


def _bundle(b: dict, torus: TorusSpec, name: str) -> BundleModel:
    """The BundleModel of a parsed bundle block; its own checks (the
    fibers must stay near the asymptotic splitting) become config errors."""
    try:
        return BundleModel(lam=b["lambda"], mu=b["mu"], r_min=b["r_min"],
                           k=b["k"], torus=torus)
    except ValueError as e:
        raise ConfigError(f"{name}: {e}")


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config is not UTF-8 text: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    except RecursionError:
        raise ConfigError("config nests too deeply to parse")
    _expect(isinstance(cfg, dict), "config root must be a JSON object")
    return cfg


def _nilpotent_rule(params: dict) -> None:
    """The nilpotent model has no parameters: in a nilpotent models entry
    or model_grid, lambda, mu and alpha are 0 or left out."""
    keys, grid = ("lambda", "mu", "alpha"), params["model_grid"]
    fields = [(f"models[{i}].{k}", m["kind"], [m[k]])
              for i, m in enumerate(params["models"]) for k in keys]
    if grid is not None:
        fields += [(f"model_grid.{k}", grid["kind"], grid[k]) for k in keys]
    for path, kind, values in fields:
        _expect(kind != "nilpotent" or not any(values),
                f"{path} must be 0: the nilpotent model has no parameters")


def _model(m: dict, kind: str = "semisimple") -> ModelParams:
    return ModelParams(lam=m["lambda"], mu=m["mu"], alpha=m["alpha"],
                       kind=kind)


def _expand_models(params: dict) -> list:
    """(ModelParams, domain) for the explicit "models" list, then for the
    (lambda, mu, alpha) product of the optional "model_grid" block, in
    deterministic order; a domain is None where the config gives none, and
    always for invariants, whose schema has no domain. Validation calls it
    once, after the nilpotent rule, and stores the list as
    params["models"] for the runner."""
    out = [(_model(m, m["kind"]), m.get("domain")) for m in params["models"]]
    grid = params["model_grid"]
    if grid is not None:
        out += [(ModelParams(lam=lam, mu=mu, alpha=alpha, kind=grid["kind"]),
                 grid.get("domain"))
                for lam in grid["lambda"] for mu in grid["mu"]
                for alpha in grid["alpha"]]
    return out


# ---------------------------------------------------------------------------
# report plumbing

def _jsonable(obj):
    """The JSON form of a report or artifact: a complex is [re, im], an
    array a nested list, and a non-finite float null, so the files stay
    strict JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.complexfloating, complex)):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _check(name, value, tolerance, passed, margin=None, **extra) -> dict:
    """One report check. `margin` is the signed distance from value to the
    check's bound in the check's own units, >= 0 on the passing side; None
    for a check with no numeric bound. A strict check (value > bound)
    fails at margin 0. A value that is NaN or infinite fails with a
    reason, whatever `passed` says, and the report writes it and its
    margin as null."""
    d = {"name": name, "value": value, "tolerance": tolerance,
         "margin": margin, "pass": bool(passed), **extra}
    if isinstance(value, float) and not math.isfinite(value):
        d.update({"pass": False, "reason": f"value is {value}"})
    return d


def _worst_check(worst, name, samples, bound, empty="no samples",
                 **extra) -> dict:
    """The check on the worst of a check's samples: a Python number as it
    stands, so a count stays an integer, and anything else reduced by
    numpy's max or min, which keep a NaN wherever it lies (Python's keep
    one only in first place, so a NaN sample would read as a pass). The
    margin is bound - value for a max and value - bound for a min. An empty
    sample set fails unevaluated, with the reason `empty`."""
    if isinstance(samples, (int, float)):
        value = samples
    elif np.size(samples) == 0:
        return _check(name, None, bound, False, reason=empty, **extra)
    else:
        value = float(worst(samples))
    margin = bound - value if worst is np.max else value - bound
    return _check(name, value, bound, margin >= 0, margin=margin, **extra)


_leq_check = partial(_worst_check, np.max)  # the largest sample <= bound
_geq_check = partial(_worst_check, np.min)  # the least sample >= bound


# ---------------------------------------------------------------------------
# conventions

def _permutation_sign(idx) -> int:
    """The Levi-Civita symbol: the sign of the permutation idx of 0..n-1,
    and 0 when an index repeats."""
    if len(set(idx)) < len(idx):
        return 0
    inversions = sum(a > b for n, a in enumerate(idx) for b in idx[n + 1:])
    return -1 if inversions % 2 else 1


def _run_conventions(params: dict):
    torus = params["torus"]
    sheet = conventions_sheet(torus)
    digest = conventions_hash(torus)

    # the Hodge star on 2-forms from gauge.self_dual's own basis: row i of
    # C holds the self-dual coefficients of the i-th unit 2-form, sqrt(2) C
    # has orthonormal columns spanning the self-dual forms, so the
    # projector on them is 2 C C^T and the star 2 (2 C C^T) - I
    C = self_dual(np.eye(6)[:, :, None])[..., 0]
    star = 4.0 * C @ C.T - np.eye(6)
    invol = np.abs(star @ star - np.eye(6))
    trace = abs(float(np.trace(star)))
    # an involution with zero trace may still pair the slots wrongly or
    # flip a sign: compare it with the star of the PAIRS 2-forms e_i ^ e_j
    # on the sheet's positive coframe (dr, r dtheta, dx, dy),
    # *(e_i ^ e_j) = sum_{k < l} eps_ijkl e_k ^ e_l
    eps = np.array([[_permutation_sign((i, j, k, l)) for k, l in PAIRS]
                    for i, j in PAIRS])
    orientation = np.abs(star - eps)

    # the first generator is real and the second imaginary
    (_, g1_im), (g2_re, _) = sheet["dual_lattice_basis"]
    axis_dev = abs(g1_im) + abs(g2_re)

    lattice_dev = [
        lattice_distance(zeta_from_xi(float(n), float(m), torus), torus)
        for n, m in ((1, 0), (0, 1), (2, -3))]

    checks = [
        _leq_check("hodge_star_involution", invol, 0.0),
        _leq_check("hodge_star_traceless", trace, 0.0),
        _leq_check("hodge_star_orientation", orientation, 0.0),
        _leq_check("dual_lattice_axes", axis_dev, 0.0),
        _leq_check("integer_xi_in_lattice", lattice_dev, 1e-12),
        _check("hash_stable", digest == conventions_hash(torus), None,
               digest == conventions_hash(torus)),
    ]
    artifacts = {"conventions.json": {"sheet": sheet, "hash": digest}}
    return checks, artifacts


# ---------------------------------------------------------------------------
# model-check

_DEFAULT_DOMAIN = {"semisimple": (5.0, 500.0), "nilpotent": (10.0, 1000.0)}
# inner edge of each model family's validity domain (its core)
_R_MIN = {"semisimple": models.DEFAULT_SEMISIMPLE_R_MIN,
          "nilpotent": models.DEFAULT_NILPOTENT_R_MIN}


_MODEL_CHECK = {
    **_models(domain=_domain()),
    "n_points": _integer(1000, minimum=1),
    "tolerances": _object({"asd_residual": _positive(1e-8),
                           "nilpotent_residual": _positive(1e-6)}, {}),
    "decay": _object({
        "exponent_window": _positive(0.05),
        "log_power_window": _positive(0.3),
        "rings_semisimple": _radii(np.geomspace(20.0, 500.0, 8).tolist(),
                                   min_len=6),
        "rings_nilpotent": _radii(
            np.geomspace(math.e ** 2, math.e ** 6, 10).tolist(), min_len=6),
    }),
    "inequalities": _object({
        "fourier_gap": _object({"n_samples": _integer(10000, minimum=1)}),
        "monodromy_drift": _object({"tolerance": _positive(1e-3)}),
        "weitzenbock": _object({"n_fixtures": _integer(20, minimum=1),
                                "tolerance": _positive(1e-6)}),
        "poincare": _object({"xi": _pair([0.3, 0.15]),
                             "rtol": _positive(0.01)}),
    }),
}


def _model_check_rules(cfg: dict, params: dict) -> None:
    _expect(params["models"] or params["model_grid"]
            or params["inequalities"],
            "model-check needs models, model_grid, or inequalities")
    for key in ("n_points", "tolerances", "decay"):  # read by the sweep alone
        _expect(key not in cfg or params["models"] or params["model_grid"],
                f"{key} needs models or model_grid")
    _nilpotent_rule(params)
    _require_seed(cfg)
    starts = [(f"models[{i}].domain", m["kind"], m["domain"])
              for i, m in enumerate(params["models"])]
    if params["model_grid"] is not None:
        starts.append(("model_grid.domain", params["model_grid"]["kind"],
                       params["model_grid"]["domain"]))
    for kind in _R_MIN:
        rings = (params["decay"] or {}).get(f"rings_{kind}")
        _expect(rings is None or rings[-1] >= 10.0 * rings[0],
                f"decay.rings_{kind} must span at least a decade")
        starts.append((f"decay.rings_{kind}", kind, rings))
    for path, kind, radii in starts:
        _expect(radii is None or radii[0] >= _R_MIN[kind],
                f"{path}[0] must be >= {_R_MIN[kind]}, the inner edge of "
                f"the {kind} model's domain")
    ineq = params["inequalities"]
    _expect(ineq is None or any(ineq.values()),
            "inequalities block is empty")
    params["models"] = _expand_models(params)


def _model_tag(j: int, p: ModelParams) -> str:
    return f"model{j}_{p.kind}"


def _run_model_check(params: dict):
    rng = np.random.default_rng(params["seed"])
    torus = params["torus"]
    checks = []
    # each model's worst sample, by kind, and the nilpotent Higgs pairs'
    sups = {kind: [] for kind in KINDS}
    hitchin_sups = []
    mods = params["models"]
    for p, dom in mods:
        lo, hi = dom or _DEFAULT_DOMAIN[p.kind]
        conn = model_connection(p, torus)
        n = params["n_points"]
        pts = np.stack([
            np.exp(rng.uniform(math.log(lo), math.log(hi), size=n)),
            rng.uniform(0.0, TWO_PI, size=n),
            rng.uniform(0.0, torus.period_x, size=n),
            rng.uniform(0.0, torus.period_y, size=n)], axis=-1)
        sups[p.kind].append(np.max(asd_residual(conn, pts)))
        if p.kind == "nilpotent":
            pair = models.hitchin_model(p, torus)
            hitchin_sups += [np.max(rho) for rho in
                             hitchin_residual(pair, pts[:, :2])]
    tol = params["tolerances"]
    for kind, key in zip(KINDS, ("asd_residual", "nilpotent_residual")):
        if sups[kind]:
            checks.append(_leq_check(f"asd_residual_sup_{kind}", sups[kind],
                                     tol[key], n_models=len(sups[kind])))
    if hitchin_sups:
        checks.append(_leq_check("hitchin_residual_sup_nilpotent",
                                 hitchin_sups, tol["nilpotent_residual"]))

    decay_rows = []
    d = params["decay"]
    for j, (p, _) in enumerate(mods if d is not None else ()):
        semi = p.kind == "semisimple"
        if semi and abs(p.mu) == 0.0:
            continue
        tag = _model_tag(j, p)
        rings = d[f"rings_{p.kind}"]
        fit = decay_exponent(model_connection(p, torus), rings, p.kind)
        checks.append(_leq_check(f"decay_exponent_dev_{tag}",
                                 abs(fit["gamma"] + 2.0),
                                 d["exponent_window"], gamma=fit["gamma"]))
        if not semi:
            checks.append(_leq_check(f"decay_log_power_dev_{tag}",
                                     abs(fit["log_power"] + 2.0),
                                     d["log_power_window"],
                                     log_power=fit["log_power"]))
        decay_rows.append({"model": tag, "gamma": fit["gamma"],
                           "log_power": fit["log_power"], "rings": rings})

    ineq_summary = {}
    if params["inequalities"] is not None:
        q = params["inequalities"]
        if q["fourier_gap"] is not None:
            n_samples = q["fourier_gap"]["n_samples"]
            gap_min = _fourier_gap_scan(rng, torus, n_samples)
            checks.append(_geq_check("fourier_gap_min", gap_min, -1e-15,
                                     n_samples=n_samples))
            ineq_summary["fourier_gap_min"] = gap_min
        if q["monodromy_drift"] is not None:
            drift_tol = q["monodromy_drift"]["tolerance"]
            per, halved = _monodromy_families(rng, torus)
            checks.append(_leq_check("monodromy_drift_defect_max",
                                     list(per.values()), drift_tol,
                                     per_family=per))
            step_error = {tag: abs(per[tag] - halved[tag]) for tag in per}
            checks.append(_leq_check(
                "monodromy_drift_step_error", list(step_error.values()),
                DRIFT_STEP_ERROR_SHARE * drift_tol, steps=DRIFT_STEPS,
                per_family=step_error))
            ineq_summary["monodromy_drift"] = per
        if q["weitzenbock"] is not None:
            n_fixtures = q["weitzenbock"]["n_fixtures"]
            worst = _weitzenbock_scan(rng, torus, n_fixtures)
            checks.append(_leq_check("weitzenbock_defect_max", worst,
                                     q["weitzenbock"]["tolerance"],
                                     n_fixtures=n_fixtures))
            ineq_summary["weitzenbock_defect_max"] = worst
        if q["poincare"] is not None:
            xi = q["poincare"]["xi"]
            twist = reduce_dual((xi.real, xi.imag), torus)
            rels = []
            for tag, gamma in (("twisted", twist), ("untwisted", None)):
                c = poincare_constant(gamma, torus)
                oracle = float(np.min(_rayleigh_quotients(gamma, torus)))
                rels.append(abs(c - oracle) / oracle)
                ineq_summary[f"poincare_{tag}"] = {"constant": c,
                                                   "oracle": oracle}
            checks.append(_leq_check("poincare_vs_rayleigh_rel", rels,
                                     q["poincare"]["rtol"]))

    artifacts = {}
    if decay_rows or ineq_summary:
        artifacts["model_check_summary.json"] = {
            "decay_fits": decay_rows, "inequalities": ineq_summary}
    return checks, artifacts


# candidates drawn and region-tested per block of the Fourier-gap scan
GAP_SCAN_BLOCK = 4096


def _fourier_gap_scan(rng, torus: TorusSpec, n_samples: int):
    """Least Fourier-mode gap over n_samples random points of the
    hypothesis region, lam and mu/|w| drawn on the torus's
    `gap_region_scale`. Candidates are drawn in blocks of GAP_SCAN_BLOCK and
    the accepted ones kept in draw order, up to n_samples; each has 1-3
    random modes and, half the time, a constant mode, padded to 4 rows with
    zero coefficients."""
    scale = gap_region_scale(torus)
    B = GAP_SCAN_BLOCK
    block_mins = []
    n_kept = 0
    while n_kept < n_samples:
        mu = 0.5 * (rng.normal(size=B) + 1j * rng.normal(size=B))
        lam = 0.1 * scale * np.sqrt(rng.random(B)) \
            * np.exp(1j * rng.uniform(0.0, TWO_PI, B))
        wmag = (10.0 * np.abs(mu) / scale) * (1.0 + 3.0 * rng.random(B)) \
            + 1e-9
        w = wmag * np.exp(1j * rng.uniform(0.0, TWO_PI, B))
        n_modes = rng.integers(1, 4, B)
        sigma = np.zeros((B, 4, 3), dtype=complex)
        sigma[:, :3, :2] = rng.integers(-3, 4, (B, 3, 2))
        sigma[:, :3, 2] = (rng.normal(size=(B, 3))
                           + 1j * rng.normal(size=(B, 3))) \
            * (np.arange(3) < n_modes[:, None])
        sigma[:, 3, 2] = (rng.normal(size=B) + 1j * rng.normal(size=B)) \
            * (rng.random(B) < 0.5)
        keep = np.flatnonzero(in_hypothesis_region(lam, mu, w, torus))[
            :n_samples - n_kept]
        gap = fourier_gap(lam[keep], mu[keep], w[keep], sigma[keep], torus)
        block_mins.append(np.min(gap, initial=math.inf))
        n_kept += keep.size
    return float(np.min(block_mins))


def _drift_families(rng, torus: TorusSpec):
    """Three drift-inequality test cases (tag, connection, origin, dphi_dt,
    dphi_ds; see gauge.monodromy_drift_defect): a flat connection, an
    abelian model, and a random compactly supported perturbation of flat.
    Each family is the x-circles through (r0 + dr t, 0.3, 0, y0)."""
    flat = flat_connection(reduce_dual((0.3, 0.2), torus), torus)
    abelian = model_connection(
        ModelParams(lam=0.05 + 0.02j, mu=0.4 - 0.1j, alpha=0.1), torus)
    bumped = perturb(flat, delta=0.5, amplitude=0.02,
                     seed=int(rng.integers(0, 2 ** 31)), r_lo=12.0,
                     r_hi=60.0)
    fams = (("flat", flat, 20.0, 10.0, 1.1),
            ("abelian", abelian, 25.0, 10.0, 0.7),
            ("perturbed-flat", bumped, 15.0, 20.0, 2.0))
    return [(tag, conn, (r0, 0.3, 0.0, y0), (dr, 0.0, 0.0, 0.0),
             (0.0, 0.0, torus.period_x, 0.0))
            for tag, conn, r0, dr, y0 in fams]


# tolerance of the drift's step-halving row, as a share of the drift's own:
# a fourth-order rule's |d_N - d_{N/2}| is about 2^4 - 1 = 15 times the
# N-step error, so holding it to a tenth of the tolerance holds the true
# error near 1 % of it
DRIFT_STEP_ERROR_SHARE = 0.1


def _monodromy_families(rng, torus: TorusSpec):
    """Each `_drift_families` defect at gauge.DRIFT_STEPS Magnus steps per
    circle, and again at half as many: two {tag: defect} dicts."""
    families = _drift_families(rng, torus)
    return tuple(
        {tag: monodromy_drift_defect(conn, *family, n_t=33,
                                     steps=steps)["defect"]
         for tag, conn, *family in families}
        for steps in (DRIFT_STEPS, DRIFT_STEPS // 2))


def _weitzenbock_scan(rng, torus: TorusSpec, n_fixtures: int):
    worst = []
    for j in range(n_fixtures):
        form = random_quadratic_form_fixture(rng, 9.0)
        gamma = None if j % 2 == 0 else reduce_dual(
            (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)), torus)
        d = weitzenbock_defect(form, gamma, 3.0, 9.0, torus=torus)
        scale = max(1.0, d["grad_sq"])
        worst += [abs(d["defect"]) / scale, abs(d["outer_term"])]
    return float(np.max(worst))


# torus grid points per period of the Rayleigh-quotient oracle
ORACLE_N_GRID = 24


def _rayleigh_quotients(gamma: DualTorusPoint | None,
                        torus: TorusSpec) -> np.ndarray:
    """Exact Rayleigh quotients of grid-sampled Fourier sections, whose
    least is an independent estimate of the twisted Poincare constant:
    every single wave W = e^{i(2 pi n x/Lx + 2 pi m y/Ly)}, |n|, |m| <= 3,
    in every matrix slot (in the order n, m, slot); inf for a flat-kernel
    member, which is excluded. The slots are sigma3, E_12 and E_21, or
    sigma3 alone when the twist at gamma (None: untwisted) is trivial.

    With the twist g = i c sigma3, entry (a, b) of d(W E) + [g, W E] is
    (dW + t W) E_ab with t = g_a - g_b: 0 on the diagonal and +-2ic off it.
    So a quotient is the sum over axes of |dW + t W|^2 / |W|^2 on the grid
    (both entries of sigma3 have t = 0 and the same ratio). W is the
    product e_n(x) e_m(y) of 1-D waves, so each grid sum splits into 1-D
    sums: sum_x |D e_n + c1 t e_n|^2 sum_y |e_m|^2 for the x-axis, with D
    fourier_diff's spectral matrix on the ORACLE_N_GRID samples of e_n,
    and likewise for y. Mixtures of waves cannot score lower: the waves
    are orthogonal on the grid and the operator acts on each entry apart,
    so a mixture's quotient is a weighted mean of its modes' quotients."""
    c = (0.0, 0.0) if gamma is None else gamma.c
    trivial = gamma is None or gamma.is_trivial(1e-9)
    # the entry twist t / c of each slot: sigma3, E_12, E_21
    slots = np.array([0.0] if trivial else [0.0, 2j, -2j])
    modes = np.arange(-3, 4)
    # per axis: sum_s |D e_n + c t e_n|^2 (7, slots) and sum_s |e_n|^2 (7,)
    sums = []
    for period, c_axis in zip((torus.period_x, torus.period_y), c):
        s = np.linspace(0.0, period, ORACLE_N_GRID, endpoint=False)
        e = np.exp(1j * (TWO_PI * modes * s[:, None] / period))  # (N, 7)
        d = fourier_diff(e, 0, period)
        sums.append((np.sum(np.abs(d[..., None] + c_axis * slots
                                   * e[..., None]) ** 2, axis=0),
                     np.sum(np.abs(e) ** 2, axis=0)))
    (num_x, den_x), (num_y, den_y) = sums
    # (n, m, slot), the wave (n, m) at [n + 3, m + 3]
    num = num_x[:, None] * den_y[:, None] + den_x[:, None, None] * num_y
    den = (den_x[:, None] * den_y)[..., None]
    return np.where(num < 1e-13 * den, math.inf, num / den).ravel()


# ---------------------------------------------------------------------------
# invariants

_INVARIANTS = {
    **_models(),
    "rings": _radii([50.0, 100.0, 200.0, 400.0], min_len=4),
    "tolerances_clean": _object({"lambda": _positive(1e-4),
                                 "alpha": _positive(1e-6),
                                 "mu": _positive(1e-4)}, {}),
    "perturbation": _object({"amplitude": _positive(0.05),
                             "delta": _positive(0.5),
                             "r_lo": _positive(5.0),
                             "r_hi": _positive(600.0),
                             "tolerances": _object({
                                 "lambda": _positive(1e-2),
                                 "alpha": _positive(1e-3),
                                 "mu": _positive(1e-2)}, {})}),
}


def _invariants_rules(cfg: dict, params: dict) -> None:
    _expect(params["models"] or params["model_grid"],
            "invariants needs models or model_grid")
    _nilpotent_rule(params)
    params["models"] = _expand_models(params)
    # the inverse-log fit divides by ln r, and no ring may enter a core
    _expect(params["rings"][0] > 1.0, "rings must start beyond r = 1")
    for kind in sorted({p.kind for p, _ in params["models"]}):
        _expect(params["rings"][0] >= _R_MIN[kind],
                f"rings[0] must be >= {_R_MIN[kind]}, the inner edge of the "
                f"{kind} model's domain")
    if params["perturbation"] is not None:
        _require_seed(cfg)


def _run_invariants(params: dict):
    torus = params["torus"]
    checks = []
    records = []

    def extractions(models, pert):
        """Each model's AsymptoticInvariants or ExtractionError, in model
        order, from one batched holonomy table per kind; perturbed model j
        draws seed + j."""
        out = [None] * len(models)
        for kind in KINDS:
            js = [j for j, (p, _) in enumerate(models) if p.kind == kind]
            if not js:
                continue
            conn = model_connection([models[j][0] for j in js], torus)
            if pert is not None:
                conn = perturb(conn, delta=pert["delta"],
                               amplitude=pert["amplitude"],
                               seed=[params["seed"] + j for j in js],
                               r_lo=pert["r_lo"], r_hi=pert["r_hi"])
            table = holonomy_table(conn, params["rings"])
            for m, j in enumerate(js):
                try:
                    # slow power-law tails make blind kind detection
                    # ill-posed at finite radii, so the noisy pass states
                    # the kind
                    out[j] = extract_invariants(
                        table.model(m), kind=None if pert is None else kind)
                except ExtractionError as e:
                    out[j] = e
        return out

    def one_pass(tag, pert, tols):
        models = params["models"]
        for j, ((p, _), inv) in enumerate(zip(models,
                                              extractions(models, pert))):
            record = {"pass": tag, "model": _model_tag(j, p),
                      "inputs": {"lambda": p.lam, "mu": p.mu,
                                 "alpha": p.alpha, "kind": p.kind}}
            records.append(record)
            if isinstance(inv, ExtractionError):
                record["error"] = str(inv)
                continue
            e = roundtrip_errors(p, inv, torus)
            record.update({
                "extracted": {
                    "xi0": [inv.xi0.xi1, inv.xi0.xi2],
                    "alpha": inv.alpha,
                    "mu": inv.mu,
                    "kind": inv.kind,
                },
                "errors": {k: e[k] for k in ("lambda", "alpha", "mu")},
                "diagnostics": inv.diagnostics,
            })
        rows = records[-len(models):]
        failed = [{"model": r["model"], "error": r["error"]}
                  for r in rows if "error" in r]
        done = [r for r in rows if "errors" in r]
        if failed:
            checks.append(_leq_check(f"extraction_failed_{tag}",
                                     len(failed), 0, models=failed))
        # with no model extracted, these checks fail unevaluated
        reason = f"no model extracted in the {tag} pass"
        for k in ("lambda", "alpha", "mu"):
            checks.append(_leq_check(f"{k}_error_max_{tag}",
                                     [r["errors"][k] for r in done], tols[k],
                                     empty=reason))
        if pert is None:
            name = f"kind_detected_{tag}"
            ok = all(r["extracted"]["kind"] == r["inputs"]["kind"]
                     for r in done)
            checks.append(_check(name, ok, None, ok) if done
                          else _check(name, None, None, False, reason=reason))

    one_pass("clean", None, params["tolerances_clean"])
    if params["perturbation"] is not None:
        one_pass("perturbed", params["perturbation"],
                 params["perturbation"]["tolerances"])
    return checks, {"invariants.json": {"models": records}}


# ---------------------------------------------------------------------------
# spectral

# outer radius of the default counting.domain, [bundle.r_min, 1e4]
_COUNTING_R_HI = 1e4

_SPECTRAL = {
    "bundle": _object({"lambda": _pair([0.0, 0.0]), "mu": _pair([1.0, 0.0]),
                       "r_min": _positive(5.0), "k": _integer(1, minimum=1)},
                      _REQUIRED),
    "counting": _object({"n_samples": _integer(100, minimum=1),
                         "radius": _domain([0.005, 0.02]),
                         "domain": _domain()}),  # see _COUNTING_R_HI
    "residues": _object({"n_mu": _integer(10, minimum=1),
                         "tolerance": _positive(1e-8)}),
    "dichotomy": _object({"n_approach": _integer(6, minimum=3),
                          "n_mu_zero": _integer(50, minimum=1),
                          "annulus": _domain([5.0, 1000.0]),
                          "min_lattice_distance": _positive(0.05)}),
}


def _spectral_rules(cfg: dict, params: dict) -> None:
    _expect(any(params[k] is not None
                for k in ("counting", "residues", "dichotomy")),
            "spectral needs at least one of counting, residues, dichotomy")
    _require_seed(cfg)
    b = params["bundle"] = _bundle(params["bundle"], params["torus"],
                                   "bundle")
    c = params["counting"]
    if c is not None:
        _expect(c["domain"] is not None or b.r_min < _COUNTING_R_HI,
                f"bundle.r_min must be below {_COUNTING_R_HI:g}, the outer "
                "radius of the default counting.domain; give counting.domain")
        c["domain"] = c["domain"] or (b.r_min, _COUNTING_R_HI)
        _expect(c["domain"][0] >= b.r_min,
                "counting.domain must start at or beyond bundle.r_min")
        _expect(abs(b.mu) > 0, "counting needs a nonzero bundle residue")
    # the residue estimate and the blow-up scan read every jumping point
    # out to spectral.R_FAR
    _expect((params["residues"] is None and params["dichotomy"] is None)
            or b.r_min < R_FAR,
            f"bundle.r_min must be below {R_FAR:g}, the outer radius of "
            "the residue and blow-up scans")
    # the residue sampler draws inside a window, and the mu = 0 sampler
    # until a draw lands in one; these two rules keep them nonempty
    if params["residues"] is not None:
        _expect(not in_dual_lattice(2.0 * b.lam, params["torus"], tol=1e-6),
                "residues need distinct +-xi0 (non-order-two lambda)")
        # the window's upper end is linear in r_min
        lo, hi = _residue_mu_window(params["torus"], 1.0)
        _expect(hi * b.r_min > lo,
                f"bundle.r_min must exceed {lo / hi:.6g} for residues: "
                "their |mu| draws lie in (1e-3, 0.9 r_min inradius)")
    if params["dichotomy"] is not None:
        d = params["dichotomy"]
        _expect(abs(b.mu) > 0, "dichotomy blow-up needs a nonzero residue")
        _expect(d["annulus"][0] >= b.r_min,
                "dichotomy.annulus must start at or beyond bundle.r_min")
        # the covering radius, not the inradius: the rule is about the
        # farthest a dual-torus point can lie from the lattice
        cov = covering_radius(params["torus"])
        _expect(d["min_lattice_distance"] < cov / 2.0,
                f"dichotomy.min_lattice_distance must be below "
                f"covering_radius / 2 = {cov / 2.0:.6g}, the distance from "
                "+-xi0 that some dual-torus point always keeps")
    if c is not None:
        # the count finds bundle.k at each twist zeta(lam) + dz, |dz| in
        # counting.radius, only if the plus branch's jumping point |w| =
        # |mu| / |dz| lies in counting.domain and the minus branch's, which
        # solve mu / w = -(2 lam + dz) modulo the dual lattice, stay inside
        # its inner radius; the plus branch's other translates stay out,
        # as the bundle holds |mu| / r_min under the inradius
        (rho_lo, rho_hi), (r_lo, r_hi) = c["radius"], c["domain"]
        m, gap = abs(b.mu), lattice_distance(2.0 * b.lam, params["torus"])
        _expect(m / r_hi <= rho_lo and rho_hi <= m / r_lo,
                "counting cannot count bundle.k: counting.radius must lie in "
                f"[|mu| / r_hi, |mu| / r_lo] = [{m / r_hi:.6g}, "
                f"{m / r_lo:.6g}], [r_lo, r_hi] being counting.domain")
        _expect(m / r_lo + rho_hi < gap,
                "counting cannot count bundle.k: |mu| / r_lo + "
                f"counting.radius[1] = {m / r_lo + rho_hi:.6g} must be below "
                f"{gap:.6g}, the distance from 2 lambda to the dual lattice, "
                "or the other state's jumping points enter counting.domain")


def _residue_mu_window(torus: TorusSpec,
                       r_min: float) -> tuple[float, float]:
    """The residue sampler's |mu| window (1e-3, 0.9 inradius r_min) for a
    bundle with that r_min: its upper end keeps |mu| / r_min under the
    inradius that `BundleModel` accepts."""
    return 1e-3, 0.9 * inradius(torus) * r_min


def _run_spectral(params: dict):
    rng = np.random.default_rng(params["seed"])
    torus = params["torus"]
    bundle = params["bundle"]
    checks = []
    csv_rows = []
    summary = {}

    if params["counting"] is not None:
        c = params["counting"]
        z0 = xi_from_zeta(bundle.lam, torus).zeta
        n_match = 0
        totals = []
        for _ in range(c["n_samples"]):
            rad = rng.uniform(c["radius"][0], c["radius"][1])
            ang = rng.uniform(0.0, TWO_PI)
            dz = rad * complex(math.cos(ang), math.sin(ang))
            xi = xi_from_zeta(z0 + dz, torus)
            sd = jumping_points(bundle, xi, domain=c["domain"], branch="both")
            totals.append(sd.total_multiplicity)
            n_match += sd.total_multiplicity == bundle.k
            for w, m in sd.points:
                csv_rows.append((xi.xi1, xi.xi2, w.real, w.imag, m))
        frac = n_match / c["n_samples"]
        checks.append(_check("counting_total_multiplicity", frac, None,
                             n_match == c["n_samples"],
                             expected_total=bundle.k,
                             n_samples=c["n_samples"]))
        summary["counting"] = {"fraction_matching": frac,
                               "totals_histogram": {
                                   t: totals.count(t) for t in set(totals)}}

    if params["residues"] is not None:
        r = params["residues"]
        errs = []
        rows = []
        # 0.4 (N + iN) conditioned on lo < |mu| < hi, drawn directly: a
        # uniform phase and a Rayleigh(0.4) modulus by its truncated inverse
        # CDF in t = |mu|^2 / 0.32, exact for a window a few 1e-6 wide
        lo, hi = _residue_mu_window(torus, bundle.r_min)
        t_lo, t_hi = lo ** 2 / 0.32, hi ** 2 / 0.32
        for _ in range(r["n_mu"]):
            phase = rng.uniform(0.0, TWO_PI)
            t = t_lo - math.log1p(rng.uniform() * math.expm1(t_lo - t_hi))
            mu = math.sqrt(0.32 * t) * complex(math.cos(phase),
                                               math.sin(phase))
            bi = BundleModel(lam=bundle.lam, mu=mu, r_min=bundle.r_min,
                             k=bundle.k, torus=torus)
            xi0 = xi_from_zeta(bi.lam, torus)
            row = {"mu": mu}
            for tag, pt, want in (("plus", xi0, mu),
                                  ("minus", xi0.minus, -mu)):
                zc = pt.zeta
                # the jumping point sits near |w| = |mu| / |dz|; a start
                # of at most |mu| / (4 r_min) keeps it outside r_min
                start = min(0.02, abs(mu) / (4.0 * bi.r_min))
                approach = [zc + start * (0.5 ** j) * complex(1.0, 0.7)
                            for j in range(6)]
                est, diag = phi_residue(bi, pt, approach)
                errs.append(abs(est - want))
                row[f"{tag}_estimate"] = est
                row[f"{tag}_error"] = errs[-1]
            rows.append(row)
        checks.append(_leq_check("phi_residue_error_max", errs,
                                 r["tolerance"], n_mu=r["n_mu"]))
        summary["residues"] = rows

    if params["dichotomy"] is not None:
        d = params["dichotomy"]
        z0 = xi_from_zeta(bundle.lam, torus).zeta
        ratios = []
        blow_rows = []
        # the jumping point sits near |w| = |mu| / |dz|; a start of at most
        # |mu| / (4 r_min) keeps it outside r_min, as for the residues
        start = min(0.05, abs(bundle.mu) / (4.0 * bundle.r_min))
        for j in range(d["n_approach"]):
            dz = start * (0.5 ** j) * complex(0.8, -0.6)
            xi = xi_from_zeta(z0 + dz, torus)
            sd = jumping_points(bundle, xi, domain=(bundle.r_min, R_FAR),
                                branch="both")
            w_max = max((abs(w) for w, _ in sd.points), default=0.0)
            bound = abs(bundle.mu) / (2.0 * abs(dz))
            ratios.append(w_max / bound)
            blow_rows.append({"dz": dz, "w_max": w_max, "bound": bound})
            for w, m in sd.points:
                csv_rows.append((xi.xi1, xi.xi2, w.real, w.imag, m))
        checks.append(_geq_check("blowup_ratio_min", ratios, 1.0))
        bundle0 = BundleModel(lam=bundle.lam, mu=0.0, r_min=bundle.r_min,
                              k=bundle.k, torus=torus)
        found = 0
        n_done = 0
        while n_done < d["n_mu_zero"]:
            xi = reduce_dual((rng.random(), rng.random()), torus)
            if min(bundle0.state_distances(xi)) < d["min_lattice_distance"]:
                continue
            sd = jumping_points(bundle0, xi, domain=d["annulus"],
                                branch="both")
            found += sd.total_multiplicity
            n_done += 1
        checks.append(_leq_check("mu_zero_jumping_points", found, 0,
                                 n_samples=n_done))
        summary["dichotomy"] = {"blowup": blow_rows,
                                "mu_zero_points_found": found}

    artifacts = {"spectral_summary.json": summary}
    if csv_rows:
        artifacts["jumping_points.csv"] = csv_rows
    return checks, artifacts


# ---------------------------------------------------------------------------
# stability

_STABILITY = {
    "family": _object({
        "b_values": _list([1, 2, 3, 4, 5], item=_integer(minimum=1)),
        "alpha_values": _list([-0.4, -0.2, 0.0, 0.2, 0.4], item=_alpha()),
    }),
    "obstructions": _list(item=_object({
        "k": _integer(1, minimum=1),
        "xi0": _pair(_REQUIRED),
        "mu": _pair([0.0, 0.0]),
        "expect": _choice(_REQUIRED, choices=("blocked_order2_k1",
                                              "blocked_mu0", "ok")),
    })),
    "h0": _object({"lambda": _pair([0.0, 0.25]), "mu": _pair([0.3, 0.0]),
                   "xi": _pair([0.5, 0.0]), "k": _integer(1, minimum=1),
                   "r_min": _positive(5.0),
                   "domain": _domain([5.0, 1000.0])}),
}


def _stability_rules(cfg: dict, params: dict) -> None:
    _expect(any(params[k] is not None
                for k in ("family", "obstructions", "h0")),
            "stability needs at least one of family, obstructions, h0")
    h = params["h0"]
    if h is not None:
        h["bundle"] = _bundle(h, params["torus"], "h0")
        _expect(h["domain"][0] >= h["r_min"],
                "h0.domain must start at or beyond h0.r_min")


def _run_stability(params: dict):
    torus = params["torus"]
    checks = []
    verdicts = {"family": [], "obstructions": [], "h0": None}

    if params["family"] is not None:
        f = params["family"]
        n_unstable = 0
        n_total = 0
        for bval in f["b_values"]:
            for alpha in f["alpha_values"]:
                v = alpha_stable_extension(bval, alpha)
                n_total += 1
                n_unstable += v.verdict == "unstable"
                verdicts["family"].append({
                    "b": bval, "alpha": alpha, "verdict": v.verdict,
                    "witness": {"d_inf": v.witness.d_inf,
                                "side": v.witness.side},
                    "witness_degree": v.witness_degree,
                })
        checks.append(_check("family_all_unstable",
                             f"{n_unstable}/{n_total}", None,
                             n_unstable == n_total))

    if params["obstructions"] is not None:
        n_match = 0
        for case in params["obstructions"]:
            xi0 = case["xi0"]
            xi = reduce_dual((xi0.real, xi0.imag), torus)
            got = existence_obstruction(case["k"], xi, case["mu"])
            ok = got == case["expect"]
            n_match += ok
            verdicts["obstructions"].append({
                "k": case["k"], "xi0": xi0, "mu": case["mu"],
                "expected": case["expect"], "computed": got, "match": ok})
        checks.append(_check("obstruction_table_matches",
                             f"{n_match}/{len(params['obstructions'])}",
                             None, n_match == len(params["obstructions"])))

    if params["h0"] is not None:
        h = params["h0"]
        xi = reduce_dual((h["xi"].real, h["xi"].imag), torus)
        ledger = h0_consistency(h["bundle"], xi, domain=h["domain"])
        contradiction = (not ledger["consistent"]
                         and ledger["h0_total"] > ledger["k"])
        checks.append(_check("h0_contradiction_surfaced",
                             ledger["h0_total"], None, contradiction,
                             k=ledger["k"], note=ledger["note"]))
        verdicts["h0"] = ledger

    return checks, {"stability_verdicts.json": verdicts}


# ---------------------------------------------------------------------------
# moduli

_MODULI = {
    "model": _object(_MODEL, {"lambda": [0.1, 0.05], "mu": [0.3, -0.2],
                              "alpha": 0.15}),
    "grid": _object({"r_min": _positive(8.0), "r_max": _positive(40.0),
                     "n_r": _integer(20, minimum=4),
                     "n_theta": _integer(12, minimum=4),
                     "n_x": _integer(6, minimum=4),
                     "n_y": _integer(6, minimum=4)}, {}),
    "n_alpha": _integer(100, minimum=1),
    "n_random_tangents": _integer(3, minimum=0),
    "chart": _object({"f0": _pair([0.5, 0.2]), "fp0": _pair([1.5, -0.3])},
                     {}),
    "tolerances": _object({"residual_rel": _positive(1e-6)}, {}),
}


# the chart parameters c at which `moduli` checks the chart's constraints
CHART_SAMPLES = (0.0 + 0.0j, 0.1 + 0.05j, -0.2j)


def _moduli_rules(cfg: dict, params: dict) -> None:
    _require_seed(cfg)
    _expect(params["model"]["mu"] != 0,
            "model.mu must be nonzero: at mu = 0 the semisimple model is "
            "flat (F = 0), so both translation tangents vanish")
    _expect(params["grid"]["r_min"] >= _R_MIN["semisimple"],
            f"grid.r_min must be >= {_R_MIN['semisimple']}, the inner edge "
            "of the semisimple model's domain")
    _expect(params["grid"]["r_min"] < params["grid"]["r_max"],
            "grid radii must increase (grid.r_min < grid.r_max)")
    _expect(abs(params["chart"]["fp0"]) > 1e-12, "chart.fp0 must be nonzero")
    chart = params["chart"] = k1_chart(params["chart"]["f0"],
                                       params["chart"]["fp0"])
    for c in CHART_SAMPLES:
        try:
            chart.coefficients(c)
        except ValueError as e:
            raise ConfigError(f"chart f0 and fp0 leave no chart member at "
                              f"the sampled c = {c}: {e}")


def _run_moduli(params: dict):
    rng = np.random.default_rng(params["seed"])
    torus = params["torus"]
    checks = []

    I1, I2, I3 = complex_structures()
    qdev = np.abs(np.stack(
        [M @ M + np.eye(4) for M in (I1, I2, I3)]
        + [I1 @ I2 - I3, I2 @ I1 + I3, I2 @ I3 - I1, I3 @ I1 - I2]))
    checks.append(_leq_check("quaternion_relations", qdev, 0.0))

    balances = []
    for _ in range(params["n_alpha"]):
        alpha = float(rng.uniform(-0.5, 0.5))
        (_, _), balance = nahm_weights(alpha)
        balances.append(abs(balance))
    checks.append(_leq_check("parabolic_weight_zero_sum", balances, 0.0,
                             n_alpha=params["n_alpha"]))

    dim1 = moduli_dimension(1)
    chart = params["chart"]
    f0, fp0 = chart.f0, chart.fp0
    rec = chart.record
    dim_ok = dim1 == 4 and rec["total_real_dim"] == dim1 \
        and rec["matches_dimension_formula"]
    checks.append(_check("dimension_matches_chart", dim1, None, dim_ok,
                         chart_record=rec))
    cdev = []
    for c in CHART_SAMPLES:
        bc, cc, dc = chart.coefficients(c)
        cdev += [abs(bc / dc - f0), abs((dc - bc * cc) / dc ** 2 - fp0)]
    checks.append(_leq_check("chart_constraints", cdev, 1e-12))

    grid = AnnulusGrid(**params["grid"])
    conn = model_connection(_model(params["model"]), torus)
    calc = AnnulusCalculus(conn, grid)
    tx, ty = translation_tangents(calc, np.eye(4)[2:])  # the plane: w1, w2
    tangents = [("translation_x", tx), ("translation_y", ty)]
    for j in range(params["n_random_tangents"]):
        tangents.append((f"random{j}", random_tangent(
            grid, torus, seed=int(rng.integers(0, 2 ** 31)))))

    res_rel = []
    for tag, t in tangents[:2]:
        r1, r2 = instanton_tangent_residual(t, calc)
        scale = max(calc.norm(t.comps), 1e-30)
        res_rel += [r1 / scale, r2 / scale]
    checks.append(_leq_check("translation_tangent_residual_rel", res_rel,
                             params["tolerances"]["residual_rel"]))

    n = len(tangents)
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            gram[i, j] = l2_metric(tangents[i][1], tangents[j][1])
    eigs = np.linalg.eigvalsh(gram)
    checks.append(_leq_check("l2_metric_symmetry", np.abs(gram - gram.T),
                             0.0))
    checks.append(_check("l2_metric_positive", eigs[0], 0.0, eigs[0] > 0,
                         margin=eigs[0]))

    a = tangents[-1][1] if params["n_random_tangents"] else tangents[0][1]
    scale = l2_metric(a, a)
    iso_rel = [abs(l2_metric(aI, aI) - scale) / scale for aI in (
        apply_complex_structure(a, I) for I in (I1, I2, I3))]
    checks.append(_leq_check("complex_structure_isometry_rel", iso_rel,
                             1e-12))

    summary = {
        "gram_matrix": gram,
        "gram_labels": [tag for tag, _ in tangents],
        "gram_eigenvalues": eigs,
        "chart_record": rec,
        "dimension": {"k1": dim1, "k2": moduli_dimension(2)},
    }
    return checks, {"moduli_summary.json": summary}


# ---------------------------------------------------------------------------
# runner

_PIPELINES = {
    "conventions": (_validator({}), _run_conventions),
    "model-check": (_validator(_MODEL_CHECK, _model_check_rules),
                    _run_model_check),
    "invariants": (_validator(_INVARIANTS, _invariants_rules),
                   _run_invariants),
    "spectral": (_validator(_SPECTRAL, _spectral_rules), _run_spectral),
    "stability": (_validator(_STABILITY, _stability_rules), _run_stability),
    "moduli": (_validator(_MODULI, _moduli_rules), _run_moduli),
}
SUBCOMMANDS = tuple(_PIPELINES)

_CSV_COLUMNS = ("xi1", "xi2", "re_w", "im_w", "mult")


def run(subcommand: str, config, out_dir: str = "./out",
        quiet: bool = False):
    """Validates the config, executes the pipeline, writes the report and
    artifacts under out_dir, and returns (report, exit_code). Raises
    ConfigError on schema violations before anything is written."""
    if subcommand not in _PIPELINES:
        raise ConfigError(f"unknown subcommand {subcommand!r}; expected one "
                          f"of {SUBCOMMANDS}")
    # validation only reads the config, and the report's inputs are
    # _jsonable's copy of it; the walk rejects anything but an object
    cfg = _load_config(config) if isinstance(config, (str, os.PathLike)) \
        else config
    validate, execute = _PIPELINES[subcommand]
    params = validate(cfg)
    t0 = time.perf_counter()
    checks, artifacts = execute(params)
    wall = time.perf_counter() - t0
    passed = all(c["pass"] for c in checks)
    torus = params["torus"]
    report = _jsonable({
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "inputs": cfg,
        "checks": checks,
        "passed": passed,
        "provenance": {
            "package": "ipl",
            "package_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "conventions_hash": conventions_hash(torus),
            "threads": max_workers(),
        },
        "artifacts": sorted(artifacts),
        "csv_columns": list(_CSV_COLUMNS),
        "wall_time_s": wall,
    })
    os.makedirs(out_dir, exist_ok=True)
    stem = subcommand.replace("-", "_")
    _write_json(os.path.join(out_dir, f"{stem}_report.json"), report)
    for name, payload in sorted(artifacts.items()):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            _write_csv(path, payload)
        else:
            _write_json(path, _jsonable(payload))
    if not quiet:
        for c in report["checks"]:
            state = "PASS" if c["pass"] else "FAIL"
            tol = "" if c["tolerance"] is None else f" tol={c['tolerance']}"
            print(f"[{state}] {c['name']}: value={c['value']}{tol}")
        print(f"{subcommand}: {'ok' if passed else 'FAILED'} "
              f"({len(checks)} checks, {wall:.2f}s)")
    return report, (0 if passed else 1)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else int(v)
                             for v in row])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ipl",
        description="Verification pipelines for doubly-periodic instanton "
                    "numerics")
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--config", required=True,
                    help="path to the JSON experiment config")
    ap.add_argument("--out", default="./out",
                    help="output directory (default ./out)")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        _, code = run(args.subcommand, cfg, out_dir=args.out,
                      quiet=args.quiet)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
