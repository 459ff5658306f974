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
import copy
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
from . import _su2, models
from .asymptotics import E3, ExtractionError, FlatLimit, asymptotic_states, \
    decay_exponent, extract_invariants, poincare_constant, principal_alpha
from .gauge import CircleFamily, asd_residual, flat_connection, \
    monodromy_drift_defect, random_quadratic_form_fixture, weitzenbock_defect
from .geometry import TWO_PI, AnnulusGrid, TorusSpec, \
    conventions_hash, conventions_sheet, covering_radius, lattice_distance, \
    reduce_dual, xi_from_zeta, zeta_from_xi
from .hitchin import hitchin_residual
from .models import ModelParams, model_connection, perturb
from .moduli import AnnulusCalculus, apply_complex_structure, \
    complex_structures, fourier_diff, instanton_tangent_residual, k1_chart, \
    l2_metric, moduli_dimension, random_tangent, translation_tangent
from .spectral import BundleModel, fourier_gap, in_hypothesis_region, \
    jumping_points, nahm_weights, phi_residue
from .stability import ExtensionBundleSpec, alpha_stable_extension, \
    existence_obstruction, h0_consistency

SCHEMA_VERSION = 1
SUBCOMMANDS = ("conventions", "model-check", "invariants", "spectral",
               "stability", "moduli")
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

_SIGMA3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])


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

_KIND = _choice("semisimple", choices=("semisimple", "nilpotent"))
_MODEL = {"kind": _KIND, "lambda": _pair([0.0, 0.0]),
          "mu": _pair([0.0, 0.0]), "alpha": _alpha(0.0)}
_MODELS = {
    "models": _list([], item=_object({**_MODEL, "domain": _domain()}),
                    min_len=0),
    "model_grid": _object({"kind": _KIND,
                           "lambda": _list(_REQUIRED, item=_pair()),
                           "mu": _list(_REQUIRED, item=_pair()),
                           "alpha": _list(_REQUIRED, item=_alpha()),
                           "domain": _domain()}),
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
        return BundleModel(lam=b["lambda"], mu=b["mu"], tail=b.get("tail", ()),
                           r_min=b["r_min"], k=b["k"], torus=torus)
    except ValueError as e:
        raise ConfigError(f"{name}: {e}")


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
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


def _model(m: dict) -> ModelParams:
    return ModelParams(lam=m["lambda"], mu=m["mu"], alpha=m["alpha"],
                       kind=m["kind"])


def _expand_models(params: dict) -> list:
    """(ModelParams, domain) for the explicit "models" list, then for the
    (lambda, mu, alpha) product of the optional "model_grid" block, in
    deterministic order; a domain is None where the config gives none."""
    out = [(_model(m), m["domain"]) for m in params["models"]]
    grid = params["model_grid"]
    if grid is not None:
        out += [(ModelParams(lam=lam, mu=mu, alpha=alpha, kind=grid["kind"]),
                 grid["domain"])
                for lam in grid["lambda"] for mu in grid["mu"]
                for alpha in grid["alpha"]]
    return out


# ---------------------------------------------------------------------------
# report plumbing

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _check(name, value, tolerance, passed, margin=None, **extra) -> dict:
    """One report check. `margin` is the signed distance from value to the
    check's bound in the check's own units, >= 0 on the passing side; None
    for a check with no numeric bound. A strict check (value > bound)
    fails at margin 0."""
    d = {"name": name, "value": _jsonable(value),
         "tolerance": _jsonable(tolerance), "margin": _jsonable(margin),
         "pass": bool(passed)}
    d.update(_jsonable(extra))
    return d


def _leq_check(name, value, tolerance, **extra) -> dict:
    return _check(name, value, tolerance, value <= tolerance,
                  margin=tolerance - value, **extra)


def _flat_limit_from_lambda(lam: complex, torus: TorusSpec) -> FlatLimit:
    return FlatLimit(lambda1=2.0 * lam.real, lambda2=2.0 * lam.imag,
                     rings=(1.0, 2.0, 3.0, 4.0), per_ring=np.zeros((4, 2)),
                     drift=0.0, axis=E3.copy(), torus=torus)


def _circle_gap(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


# ---------------------------------------------------------------------------
# conventions

def _run_conventions(params: dict):
    torus = params["torus"]
    sheet = conventions_sheet(torus)
    digest = conventions_hash(torus)

    # Hodge star on 2-forms from the self-dual projection convention
    star = np.zeros((6, 6))
    star[5, 0] = star[0, 5] = 1.0
    star[4, 1] = star[1, 4] = -1.0
    star[3, 2] = star[2, 3] = 1.0
    invol = float(np.max(np.abs(star @ star - np.eye(6))))
    trace = abs(float(np.trace(star)))

    # the first generator is real and the second imaginary
    (_, g1_im), (g2_re, _) = sheet["dual_lattice_basis"]
    axis_dev = abs(g1_im) + abs(g2_re)

    lattice_dev = max(
        lattice_distance(zeta_from_xi(float(n), float(m), torus), torus)
        for n, m in ((1, 0), (0, 1), (2, -3)))

    checks = [
        _leq_check("hodge_star_involution", invol, 0.0),
        _leq_check("hodge_star_traceless", trace, 0.0),
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
    **_MODELS,
    "n_points": _integer(1000, minimum=1),
    "tolerances": _object({"asd_residual": _positive(1e-8),
                           "nilpotent_residual": _positive(1e-6)}, {}),
    "decay": _object({
        "exponent_window": _positive(0.05),
        "log_power_window": _positive(0.3),
        "components": _choice("kahler", choices=("all", "kahler")),
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


def _model_tag(j: int, p: ModelParams) -> str:
    return f"model{j}_{p.kind}"


def _run_model_check(params: dict):
    rng = np.random.default_rng(params["seed"])
    torus = params["torus"]
    checks = []
    sup_semi = 0.0
    sup_nilp_asd = 0.0
    sup_nilp_hit = 0.0
    n_semi = n_nilp = 0
    mods = _expand_models(params)
    for p, dom in mods:
        lo, hi = dom or _DEFAULT_DOMAIN[p.kind]
        conn = model_connection(p, torus)
        n = params["n_points"]
        pts = np.stack([
            np.exp(rng.uniform(math.log(lo), math.log(hi), size=n)),
            rng.uniform(0.0, TWO_PI, size=n),
            rng.uniform(0.0, torus.period_x, size=n),
            rng.uniform(0.0, torus.period_y, size=n)], axis=-1)
        sup = float(np.max(asd_residual(conn, pts)))
        if p.kind == "semisimple":
            n_semi += 1
            sup_semi = max(sup_semi, sup)
        else:
            n_nilp += 1
            sup_nilp_asd = max(sup_nilp_asd, sup)
            pair = models.hitchin_model(p, torus)
            rho1, rho2 = hitchin_residual(pair, pts[:, :2])
            sup_nilp_hit = max(sup_nilp_hit,
                               float(np.max(rho1)), float(np.max(rho2)))
    tol = params["tolerances"]
    if n_semi:
        checks.append(_leq_check("asd_residual_sup_semisimple", sup_semi,
                                 tol["asd_residual"], n_models=n_semi))
    if n_nilp:
        checks.append(_leq_check("asd_residual_sup_nilpotent", sup_nilp_asd,
                                 tol["nilpotent_residual"], n_models=n_nilp))
        checks.append(_leq_check("hitchin_residual_sup_nilpotent",
                                 sup_nilp_hit, tol["nilpotent_residual"]))

    decay_rows = []
    d = params["decay"]
    for j, (p, _) in enumerate(mods if d is not None else ()):
        semi = p.kind == "semisimple"
        if semi and abs(p.mu) == 0.0:
            continue
        tag = _model_tag(j, p)
        rings = d[f"rings_{p.kind}"]
        fit = decay_exponent(model_connection(p, torus), rings,
                             components="all" if semi else d["components"],
                             with_log=not semi)
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
            gap_min, n_done = _fourier_gap_scan(
                rng, torus, q["fourier_gap"]["n_samples"])
            checks.append(_check("fourier_gap_min", gap_min, 1e-15,
                                 gap_min >= -1e-15, margin=gap_min + 1e-15,
                                 n_samples=n_done))
            ineq_summary["fourier_gap_min"] = gap_min
        if q["monodromy_drift"] is not None:
            worst, per = _monodromy_families(rng, torus)
            checks.append(_leq_check("monodromy_drift_defect_max", worst,
                                     q["monodromy_drift"]["tolerance"],
                                     per_family=per))
            ineq_summary["monodromy_drift"] = per
        if q["weitzenbock"] is not None:
            worst, n_fix = _weitzenbock_scan(rng, torus,
                                             q["weitzenbock"]["n_fixtures"])
            checks.append(_leq_check("weitzenbock_defect_max", worst,
                                     q["weitzenbock"]["tolerance"],
                                     n_fixtures=n_fix))
            ineq_summary["weitzenbock_defect_max"] = worst
        if q["poincare"] is not None:
            xi = q["poincare"]["xi"]
            lam = complex(TWO_PI * xi.real / torus.period_x,
                          TWO_PI * xi.imag / torus.period_y) / 2.0
            rel_max = 0.0
            for tag, fl in (("twisted", _flat_limit_from_lambda(lam, torus)),
                            ("untwisted", None)):
                c = poincare_constant(fl, torus)
                oracle = _rayleigh_oracle(fl, torus, rng)
                rel = abs(c - oracle) / oracle
                rel_max = max(rel_max, rel)
                ineq_summary[f"poincare_{tag}"] = {"constant": c,
                                                   "oracle": oracle}
            checks.append(_leq_check("poincare_vs_rayleigh_rel", rel_max,
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
    hypothesis region. Candidates are drawn in blocks of GAP_SCAN_BLOCK and
    the accepted ones kept in draw order, up to n_samples; each has 1-3
    random modes and, half the time, a constant mode, padded to 4 rows with
    zero coefficients. Returns (gap_min, n_samples)."""
    cov = covering_radius(torus)
    B = GAP_SCAN_BLOCK
    gap_min = math.inf
    n_kept = 0
    while n_kept < n_samples:
        mu = 0.5 * (rng.normal(size=B) + 1j * rng.normal(size=B))
        lam = 0.1 * cov * np.sqrt(rng.random(B)) \
            * np.exp(1j * rng.uniform(0.0, TWO_PI, B))
        wmag = (10.0 * np.abs(mu) / cov) * (1.0 + 3.0 * rng.random(B)) + 1e-9
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
        gap, _ = fourier_gap(lam[keep], mu[keep], w[keep], sigma[keep], torus)
        gap_min = min(gap_min, float(np.min(gap, initial=math.inf)))
        n_kept += keep.size
    return gap_min, n_kept


def _monodromy_families(rng, torus: TorusSpec):
    """Three drift-inequality test cases: a flat connection, an abelian
    model, and a random compactly supported perturbation of flat."""
    Lx = torus.period_x

    def affine(c0, ct, cs):
        """(t, s) -> c0 + t ct + s cs, a (..., 4) point field."""
        def f(t, s):
            t, s = np.broadcast_arrays(np.asarray(t, float),
                                       np.asarray(s, float))
            return c0 + t[..., None] * ct + s[..., None] * cs
        return f

    def radial_x_family(r0, dr, y0):
        # x-circles at (r0 + dr t, 0.3, ., y0)
        ct = np.array([dr, 0.0, 0.0, 0.0])
        cs = np.array([0.0, 0.0, Lx, 0.0])
        zero = np.zeros(4)
        return CircleFamily(phi=affine(np.array([r0, 0.3, 0.0, y0]), ct, cs),
                            dphi_dt=affine(ct, zero, zero),
                            dphi_ds=affine(cs, zero, zero))

    flat = flat_connection(reduce_dual((0.3, 0.2), torus), torus)
    abelian = model_connection(
        ModelParams(lam=0.05 + 0.02j, mu=0.4 - 0.1j, alpha=0.1), torus)
    bumped = perturb(flat, delta=0.5, amplitude=0.02,
                     seed=int(rng.integers(0, 2 ** 31)), r_lo=12.0,
                     r_hi=60.0)
    fams = [("flat", flat, radial_x_family(20.0, 10.0, 1.1)),
            ("abelian", abelian, radial_x_family(25.0, 10.0, 0.7)),
            ("perturbed-flat", bumped, radial_x_family(15.0, 20.0, 2.0))]
    per = {}
    worst = -math.inf
    for tag, conn, fam in fams:
        d = monodromy_drift_defect(conn, fam, n_t=33)
        per[tag] = d["defect"]
        worst = max(worst, d["defect"])
    return worst, per


def _weitzenbock_scan(rng, torus: TorusSpec, n_fixtures: int):
    worst = 0.0
    for j in range(n_fixtures):
        form = random_quadratic_form_fixture(rng, 9.0)
        gamma = None if j % 2 == 0 else reduce_dual(
            (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)), torus)
        d = weitzenbock_defect(form, gamma, 3.0, 9.0, torus=torus)
        scale = max(1.0, d["grad_sq"])
        worst = max(worst, abs(d["defect"]) / scale, abs(d["outer_term"]))
    return worst, n_fixtures


# torus grid points per period, and random three-mode mixtures, of the
# Rayleigh-quotient oracle
ORACLE_N_GRID, ORACLE_N_RANDOM = 24, 64


def _rayleigh_oracle(fl: FlatLimit | None, torus: TorusSpec, rng) -> float:
    """Independent lower estimate of the twisted Poincare constant: exact
    Rayleigh quotients of grid-sampled Fourier sections, minimized over all
    single modes |n|, |m| <= 3 in every matrix slot plus random mixtures."""
    Lx, Ly = torus.period_x, torus.period_y
    if fl is None:
        c1 = c2 = 0.0
        trivial = True
    else:
        c1, c2 = fl.lambda1, fl.lambda2
        trivial = fl.is_trivial()
    gx = 1j * c1 * _SIGMA3
    gy = 1j * c2 * _SIGMA3
    xs = np.linspace(0.0, Lx, ORACLE_N_GRID, endpoint=False)
    ys = np.linspace(0.0, Ly, ORACLE_N_GRID, endpoint=False)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    E_up = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    E_dn = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

    def quotient(u):
        du_x = fourier_diff(u, 0, Lx) + _su2.comm(gx, u)
        du_y = fourier_diff(u, 1, Ly) + _su2.comm(gy, u)
        num = float(np.sum(np.abs(du_x) ** 2 + np.abs(du_y) ** 2))
        den = float(np.sum(np.abs(u) ** 2))
        if num < 1e-13 * den:
            return None  # flat-kernel member, excluded
        return num / den

    best = math.inf
    for n in range(-3, 4):
        for m in range(-3, 4):
            wave = np.exp(1j * (TWO_PI * n * X / Lx + TWO_PI * m * Y / Ly))
            slots = (_SIGMA3, E_up, E_dn) if not trivial else (_SIGMA3,)
            for E in slots:
                q = quotient(wave[..., None, None] * E)
                if q is not None:
                    best = min(best, q)
    for _ in range(ORACLE_N_RANDOM):
        u = np.zeros((ORACLE_N_GRID, ORACLE_N_GRID, 2, 2), dtype=complex)
        for _ in range(3):
            n, m = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            wave = np.exp(1j * (TWO_PI * n * X / Lx + TWO_PI * m * Y / Ly))
            H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u += wave[..., None, None] * H
        avg = u.mean(axis=(0, 1))
        u -= avg if trivial else np.diag(np.diag(avg))
        q = quotient(u)
        if q is not None:
            best = min(best, q)
    return best


# ---------------------------------------------------------------------------
# invariants

_INVARIANTS = {
    **_MODELS,
    "rings": _radii([50.0, 100.0, 200.0, 400.0], min_len=4),
    "tolerances_clean": _object({"lambda": _positive(1e-4),
                                 "alpha": _positive(1e-6),
                                 "mu": _positive(1e-4)}, {}),
    "perturbation": _object({"amplitude": _positive(0.05),
                             "delta": _positive(0.5),
                             "r_lo": _positive(5.0),
                             "r_hi": _positive(600.0)}),
    "tolerances_perturbed": _object({"lambda": _positive(1e-2),
                                     "alpha": _positive(1e-3),
                                     "mu": _positive(1e-2)}, {}),
}


def _invariants_rules(cfg: dict, params: dict) -> None:
    _expect(params["models"] or params["model_grid"],
            "invariants needs models or model_grid")
    _nilpotent_rule(params)
    # the inverse-log fit divides by ln r, and no ring may enter a core
    _expect(params["rings"][0] > 1.0, "rings must start beyond r = 1")
    for kind in sorted({p.kind for p, _ in _expand_models(params)}):
        _expect(params["rings"][0] >= _R_MIN[kind],
                f"rings[0] must be >= {_R_MIN[kind]}, the inner edge of the "
                f"{kind} model's domain")
    if params["perturbation"] is not None:
        _require_seed(cfg)


def _roundtrip_errors(p: ModelParams, inv, torus: TorusSpec) -> dict:
    """Errors of extracted invariants against the model inputs, in the
    canonical branch frame used by the extractor. At an order-two target
    xi0 the Weyl reflection (xi0, alpha, mu) -> (-xi0, -alpha, -mu) fixes
    xi0, so both branches name the same state: alpha and mu are scored on
    the branch whose larger error is smaller."""
    states = asymptotic_states(_flat_limit_from_lambda(p.lam, torus))
    alpha_t, mu_t = p.alpha, p.mu
    if states.flipped:
        alpha_t = principal_alpha(-alpha_t)
        mu_t = -mu_t
    e_xi = max(_circle_gap(inv.xi0.xi1, states.xi0.xi1),
               _circle_gap(inv.xi0.xi2, states.xi0.xi2))
    fit = inv.diagnostics.get("residue_fit")
    if fit is not None:
        lam_hat = complex(fit["lambda_hat"][0], fit["lambda_hat"][1])
        # lambda + (pi/Lx) m + i (pi/Ly) n names the same state, and
        # zeta = i lambda is defined modulo the dual lattice
        e_lam = lattice_distance(1j * (lam_hat - p.lam), torus)
    else:
        e_lam = 0.0  # nilpotent: the dual point alone carries the limit
    e_alpha = _circle_gap(inv.alpha, alpha_t)
    e_mu = abs(inv.mu - mu_t)
    if states.order_two:
        weyl = (_circle_gap(inv.alpha, principal_alpha(-alpha_t)),
                abs(inv.mu + mu_t))
        if max(weyl) < max(e_alpha, e_mu):
            e_alpha, e_mu = weyl
    return {"lambda": max(e_lam, e_xi), "alpha": e_alpha, "mu": e_mu,
            "kind_ok": inv.kind == p.kind}


def _run_invariants(params: dict):
    torus = params["torus"]
    checks = []
    records = []

    def one_pass(tag, pert, tols):
        errs = {"lambda": 0.0, "alpha": 0.0, "mu": 0.0}
        kinds_ok = True
        failed = []
        models = _expand_models(params)
        for j, (p, _) in enumerate(models):
            conn = model_connection(p, torus)
            kind = None
            if pert is not None:
                conn = perturb(conn, delta=pert["delta"],
                               amplitude=pert["amplitude"],
                               seed=params["seed"] + j,
                               r_lo=pert["r_lo"], r_hi=pert["r_hi"])
                # slow power-law tails make blind kind detection ill-posed
                # at finite radii, so the noisy pass states the kind
                kind = p.kind
            record = {"pass": tag, "model": _model_tag(j, p),
                      "inputs": p.to_json()}
            records.append(record)
            try:
                inv = extract_invariants(conn, params["rings"], kind=kind)
            except ExtractionError as e:
                record["error"] = str(e)
                failed.append({"model": record["model"], "error": str(e)})
                continue
            e = _roundtrip_errors(p, inv, torus)
            kinds_ok = kinds_ok and e["kind_ok"]
            for k in errs:
                errs[k] = max(errs[k], e[k])
            record.update({
                "extracted": {
                    "xi0": [inv.xi0.xi1, inv.xi0.xi2],
                    "alpha": inv.alpha,
                    "mu": [inv.mu.real, inv.mu.imag],
                    "kind": inv.kind,
                },
                "errors": {k: e[k] for k in ("lambda", "alpha", "mu")},
                "diagnostics": _jsonable(inv.diagnostics),
            })
        if failed:
            checks.append(_leq_check(f"extraction_failed_{tag}",
                                     len(failed), 0, models=failed))
        # maxima over zero extracted models would read 0.0 and pass, so
        # with none extracted these checks fail unevaluated
        none_left = len(failed) == len(models)
        reason = f"no model extracted in the {tag} pass"
        for k in ("lambda", "alpha", "mu"):
            name = f"{k}_error_max_{tag}"
            checks.append(_check(name, None, tols[k], False, reason=reason)
                          if none_left
                          else _leq_check(name, errs[k], tols[k]))
        if pert is None:
            name = f"kind_detected_{tag}"
            checks.append(_check(name, None, None, False, reason=reason)
                          if none_left
                          else _check(name, kinds_ok, None, kinds_ok))

    one_pass("clean", None, params["tolerances_clean"])
    if params["perturbation"] is not None:
        one_pass("perturbed", params["perturbation"],
                 params["tolerances_perturbed"])
    return checks, {"invariants.json": {"models": records}}


# ---------------------------------------------------------------------------
# spectral

_SPECTRAL = {
    "bundle": _object({"lambda": _pair([0.0, 0.0]), "mu": _pair([1.0, 0.0]),
                       "tail": _list([], item=_pair(), min_len=0),
                       "r_min": _positive(5.0), "k": _integer(1, minimum=1)},
                      _REQUIRED),
    "domain": _domain(),  # default [bundle.r_min, 1e4]
    "counting": _object({"n_samples": _integer(100, minimum=1),
                         "radius": _domain([0.005, 0.02]),
                         # default bundle.k
                         "expected_total": _integer(minimum=0)}),
    "residues": _object({"n_mu": _integer(10, minimum=1),
                         "tolerance": _positive(1e-8)}),
    "dichotomy": _object({"n_approach": _integer(6, minimum=3),
                          "n_mu_zero": _integer(50, minimum=1),
                          "annulus": _domain([5.0, 1000.0]),
                          "min_lattice_distance": _positive(0.05)}),
}


def _spectral_rules(cfg: dict, params: dict) -> None:
    if any(params[k] is not None
           for k in ("counting", "residues", "dichotomy")):
        _require_seed(cfg)
    b = params["bundle"] = _bundle(params["bundle"], params["torus"],
                                   "bundle")
    if params["domain"] is None:
        params["domain"] = (b.r_min, 1e4)
    _expect(params["domain"][0] >= b.r_min,
            "domain must start at or beyond bundle.r_min")
    if params["counting"] is not None:
        _expect(abs(b.mu) > 0, "counting needs a nonzero bundle residue")
        if params["counting"]["expected_total"] is None:
            params["counting"]["expected_total"] = b.k
    if params["residues"] is not None:
        _expect(lattice_distance(2.0 * b.lam, params["torus"]) > 1e-6,
                "residues need distinct +-xi0 (non-order-two lambda)")
    if params["dichotomy"] is not None:
        _expect(abs(b.mu) > 0, "dichotomy blow-up needs a nonzero residue")
        _expect(params["dichotomy"]["annulus"][0] >= b.r_min,
                "dichotomy.annulus must start at or beyond bundle.r_min")


def _run_spectral(params: dict):
    rng = np.random.default_rng(params["seed"])
    torus = params["torus"]
    bundle = params["bundle"]
    domain = params["domain"]
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
            sd = jumping_points(bundle, xi, domain=domain, branch="both")
            totals.append(sd.total_multiplicity)
            n_match += sd.total_multiplicity == c["expected_total"]
            for w, m in sd.points:
                csv_rows.append((xi.xi1, xi.xi2, w.real, w.imag, m))
        frac = n_match / c["n_samples"]
        checks.append(_check("counting_total_multiplicity", frac, None,
                             n_match == c["n_samples"],
                             expected_total=c["expected_total"],
                             n_samples=c["n_samples"]))
        summary["counting"] = {"fraction_matching": frac,
                               "totals_histogram": {
                                   str(t): totals.count(t)
                                   for t in sorted(set(totals))}}

    if params["residues"] is not None:
        r = params["residues"]
        err_max = 0.0
        rows = []
        cov = covering_radius(torus)
        for _ in range(r["n_mu"]):
            while True:
                mu = complex(rng.normal(), rng.normal()) * 0.4
                if 1e-3 < abs(mu) < 0.9 * cov * bundle.r_min:
                    break
            bi = BundleModel(lam=bundle.lam, mu=mu, r_min=bundle.r_min,
                             k=bundle.k, torus=torus)
            xi0 = xi_from_zeta(bi.lam, torus)
            row = {"mu": [mu.real, mu.imag]}
            for tag, pt, want in (("plus", xi0, mu),
                                  ("minus", xi0.minus, -mu)):
                zc = pt.zeta
                # the jumping point sits near |w| = |mu| / |dz|; a start
                # of at most |mu| / (4 r_min) keeps it outside r_min
                start = min(0.02, abs(mu) / (4.0 * bi.r_min))
                approach = [zc + start * (0.5 ** j) * complex(1.0, 0.7)
                            for j in range(6)]
                est, diag = phi_residue(bi, pt, approach)
                err = abs(est - want)
                err_max = max(err_max, err)
                row[f"{tag}_estimate"] = [est.real, est.imag]
                row[f"{tag}_error"] = err
            rows.append(row)
        checks.append(_leq_check("phi_residue_error_max", err_max,
                                 r["tolerance"], n_mu=r["n_mu"]))
        summary["residues"] = rows

    if params["dichotomy"] is not None:
        d = params["dichotomy"]
        z0 = xi_from_zeta(bundle.lam, torus).zeta
        ratio_min = math.inf
        blow_rows = []
        for j in range(d["n_approach"]):
            dz = 0.05 * (0.5 ** j) * complex(0.8, -0.6)
            xi = xi_from_zeta(z0 + dz, torus)
            sd = jumping_points(bundle, xi, domain=(bundle.r_min, 1e30),
                                branch="both")
            w_max = max((abs(w) for w, _ in sd.points), default=0.0)
            bound = abs(bundle.mu) / (2.0 * abs(dz))
            ratio_min = min(ratio_min, w_max / bound)
            blow_rows.append({"dz": [dz.real, dz.imag], "w_max": w_max,
                              "bound": bound})
            for w, m in sd.points:
                csv_rows.append((xi.xi1, xi.xi2, w.real, w.imag, m))
        checks.append(_check("blowup_ratio_min", ratio_min, 1.0,
                             ratio_min >= 1.0, margin=ratio_min - 1.0))
        bundle0 = BundleModel(lam=bundle.lam, mu=0.0, r_min=bundle.r_min,
                              k=bundle.k, torus=torus)
        found = 0
        n_done = 0
        while n_done < d["n_mu_zero"]:
            xi = reduce_dual((rng.random(), rng.random()), torus)
            if min(lattice_distance(s * xi.zeta - bundle0.lam, torus)
                   for s in (1.0, -1.0)) < d["min_lattice_distance"]:
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
        "xi0": _pair([0.3, 0.2]),
        "k": _integer(1, minimum=1),
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
        xi0 = reduce_dual((f["xi0"].real, f["xi0"].imag), torus)
        n_unstable = 0
        n_total = 0
        for bval in f["b_values"]:
            spec = ExtensionBundleSpec(xi0=xi0, b=bval, k=f["k"])
            for alpha in f["alpha_values"]:
                v = alpha_stable_extension(spec, alpha)
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
                "k": case["k"], "xi0": [xi0.real, xi0.imag],
                "mu": [case["mu"].real, case["mu"].imag],
                "expected": case["expect"], "computed": got, "match": ok})
        checks.append(_check("obstruction_table_matches",
                             f"{n_match}/{len(params['obstructions'])}",
                             None, n_match == len(params["obstructions"])))

    if params["h0"] is not None:
        h = params["h0"]
        xi = reduce_dual((h["xi"].real, h["xi"].imag), torus)
        ledger = h0_consistency(h["bundle"], xi, domain=h["domain"],
                                allow_singular=True)
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
    "model": _object(_MODEL, {"kind": "semisimple", "lambda": [0.1, 0.05],
                              "mu": [0.3, -0.2], "alpha": 0.15}),
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


def _moduli_rules(cfg: dict, params: dict) -> None:
    _require_seed(cfg)
    _expect(params["model"]["kind"] == "semisimple",
            "moduli tangent checks need a semisimple model")
    _expect(params["grid"]["r_min"] < params["grid"]["r_max"],
            "grid radii must increase (grid.r_min < grid.r_max)")
    _expect(abs(params["chart"]["fp0"]) > 1e-12, "chart.fp0 must be nonzero")


def _run_moduli(params: dict):
    rng = np.random.default_rng(params["seed"])
    torus = params["torus"]
    checks = []

    I1, I2, I3 = complex_structures()
    qdev = 0.0
    for M in (I1, I2, I3):
        qdev = max(qdev, float(np.max(np.abs(M @ M + np.eye(4)))))
    qdev = max(qdev, float(np.max(np.abs(I1 @ I2 - I3))),
               float(np.max(np.abs(I2 @ I1 + I3))),
               float(np.max(np.abs(I2 @ I3 - I1))),
               float(np.max(np.abs(I3 @ I1 - I2))))
    checks.append(_leq_check("quaternion_relations", qdev, 0.0))

    wdev = 0.0
    for _ in range(params["n_alpha"]):
        alpha = float(rng.uniform(-0.5, 0.5))
        if alpha >= 0.5:
            alpha = 0.0
        (_, _), balance = nahm_weights(alpha)
        wdev = max(wdev, abs(balance))
    checks.append(_leq_check("parabolic_weight_zero_sum", wdev, 0.0,
                             n_alpha=params["n_alpha"]))

    dim1 = moduli_dimension(1)
    f0, fp0 = params["chart"]["f0"], params["chart"]["fp0"]
    chart = k1_chart(f0, fp0)
    rec = chart.record
    dim_ok = dim1 == 4 and rec["total_real_dim"] == dim1 \
        and rec["matches_dimension_formula"]
    checks.append(_check("dimension_matches_chart", dim1, None, dim_ok,
                         chart_record=rec))
    cdev = 0.0
    for c in (0.0 + 0.0j, 0.1 + 0.05j, -0.2j):
        bc, cc, dc = chart.coefficients(c)
        cdev = max(cdev, abs(bc / dc - f0),
                   abs((dc - bc * cc) / dc ** 2 - fp0))
    checks.append(_leq_check("chart_constraints", cdev, 1e-12))

    g = params["grid"]
    grid = AnnulusGrid(g["r_min"], g["r_max"], n_r=g["n_r"],
                       n_theta=g["n_theta"], n_x=g["n_x"], n_y=g["n_y"])
    conn = model_connection(_model(params["model"]), torus)
    calc = AnnulusCalculus(conn, grid)
    tangents = [("translation_x", translation_tangent(conn, grid, (1.0, 0.0))),
                ("translation_y", translation_tangent(conn, grid, (0.0, 1.0)))]
    for j in range(params["n_random_tangents"]):
        tangents.append((f"random{j}", random_tangent(
            grid, torus, seed=int(rng.integers(0, 2 ** 31)))))

    res_rel_max = 0.0
    for tag, t in tangents[:2]:
        r1, r2 = instanton_tangent_residual(t, calc)
        scale = max(calc.norm(t.comps), 1e-30)
        res_rel_max = max(res_rel_max, r1 / scale, r2 / scale)
    checks.append(_leq_check("translation_tangent_residual_rel",
                             res_rel_max,
                             params["tolerances"]["residual_rel"]))

    n = len(tangents)
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            gram[i, j] = l2_metric(tangents[i][1], tangents[j][1])
    sym_dev = float(np.max(np.abs(gram - gram.T)))
    eigs = np.linalg.eigvalsh(gram)
    checks.append(_leq_check("l2_metric_symmetry", sym_dev, 0.0))
    checks.append(_check("l2_metric_positive", float(eigs[0]), 0.0,
                         bool(eigs[0] > 0), margin=float(eigs[0])))

    iso_dev = 0.0
    a = tangents[-1][1] if params["n_random_tangents"] else tangents[0][1]
    for I in (I1, I2, I3):
        aI = apply_complex_structure(a, I)
        iso_dev = max(iso_dev, abs(l2_metric(aI, aI) - l2_metric(a, a)))
    scale = l2_metric(a, a)
    checks.append(_leq_check("complex_structure_isometry_rel",
                             iso_dev / scale, 1e-12))

    summary = {
        "gram_matrix": gram.tolist(),
        "gram_labels": [tag for tag, _ in tangents],
        "gram_eigenvalues": eigs.tolist(),
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

_CSV_COLUMNS = ("xi1", "xi2", "re_w", "im_w", "mult")


def run(subcommand: str, config, out_dir: str = "./out",
        quiet: bool = False):
    """Validates the config, executes the pipeline, writes the report and
    artifacts under out_dir, and returns (report, exit_code). Raises
    ConfigError on schema violations before anything is written."""
    if subcommand not in _PIPELINES:
        raise ConfigError(f"unknown subcommand {subcommand!r}; expected one "
                          f"of {SUBCOMMANDS}")
    if isinstance(config, (str, os.PathLike)):
        cfg = _load_config(config)
    else:  # the walk rejects anything but an object
        cfg = copy.deepcopy(config)
    validate, execute = _PIPELINES[subcommand]
    params = validate(cfg)
    t0 = time.perf_counter()
    checks, artifacts = execute(params)
    wall = time.perf_counter() - t0
    passed = all(c["pass"] for c in checks)
    torus = params["torus"]
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "inputs": _jsonable(cfg),
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
    }
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
        for c in checks:
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
