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

import numpy as np

from ._version import __version__
from . import _su2, models
from .asymptotics import E3, ExtractionError, FlatLimit, asymptotic_states, \
    decay_exponent, extract_invariants, poincare_constant, principal_alpha
from .gauge import CircleFamily, asd_residual, flat_connection, \
    monodromy_drift_defect, random_quadratic_form_fixture, weitzenbock_defect
from .geometry import TWO_PI, AnnulusGrid, DualTorusPoint, TorusSpec, \
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
# validation helpers

def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


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


def _number(v, name, positive=False) -> float:
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
            f"{name} must be a number")
    v = float(v)
    _expect(math.isfinite(v), f"{name} must be finite")
    if positive:
        _expect(v > 0, f"{name} must be positive")
    return v


def _integer(v, name, minimum=None) -> int:
    _expect(isinstance(v, int) and not isinstance(v, bool),
            f"{name} must be an integer")
    if minimum is not None:
        _expect(v >= minimum, f"{name} must be >= {minimum}")
    return v


def _pair(v, name) -> complex:
    _expect(isinstance(v, (list, tuple)) and len(v) == 2,
            f"{name} must be a [re, im] pair")
    return complex(_number(v[0], f"{name}[0]"), _number(v[1], f"{name}[1]"))


def _validate_tolerances(d, name="tolerances") -> dict:
    _expect(isinstance(d, dict), f"{name} must be an object")
    out = {}
    for k, v in d.items():
        out[k] = _number(v, f"{name}.{k}", positive=True)
    return out


def _validate_common(cfg: dict, needs_seed: bool) -> None:
    _expect("schema_version" in cfg, 'config must declare "schema_version"')
    _expect(cfg["schema_version"] == SCHEMA_VERSION,
            f"schema_version must be {SCHEMA_VERSION}")
    if needs_seed:
        _expect("seed" in cfg, "seed is mandatory for randomized suites")
    if "seed" in cfg:
        _integer(cfg["seed"], "seed", minimum=0)


def _torus_from(cfg: dict) -> TorusSpec:
    t = cfg.get("torus")
    if t is None:
        return TorusSpec()
    _expect(isinstance(t, dict), "torus must be an object")
    return TorusSpec(period_x=_number(t.get("period_x", TWO_PI),
                                      "torus.period_x", positive=True),
                     period_y=_number(t.get("period_y", TWO_PI),
                                      "torus.period_y", positive=True))


def _model_params(entry: dict, where: str) -> ModelParams:
    _expect(isinstance(entry, dict), f"{where} must be an object")
    kind = entry.get("kind", "semisimple")
    _expect(kind in ("semisimple", "nilpotent"),
            f"{where}.kind must be semisimple or nilpotent")
    lam = _pair(entry.get("lambda", [0.0, 0.0]), f"{where}.lambda")
    mu = _pair(entry.get("mu", [0.0, 0.0]), f"{where}.mu")
    alpha = _number(entry.get("alpha", 0.0), f"{where}.alpha")
    _expect(-0.5 <= alpha < 0.5, f"{where}.alpha must lie in [-1/2, 1/2)")
    return ModelParams(lam=lam, mu=mu, alpha=alpha, kind=kind)


def _expand_models(cfg: dict) -> list:
    """Explicit "models" list plus the (lambda, mu, alpha) product of an
    optional "model_grid" block, in deterministic order."""
    out = []
    for j, entry in enumerate(cfg.get("models", [])):
        out.append((_model_params(entry, f"models[{j}]"),
                    entry.get("domain")))
    grid = cfg.get("model_grid")
    if grid is not None:
        _expect(isinstance(grid, dict), "model_grid must be an object")
        kind = grid.get("kind", "semisimple")
        for key in ("lambda", "mu", "alpha"):
            _expect(isinstance(grid.get(key), list) and grid[key],
                    f"model_grid.{key} must be a nonempty list")
        for lam in grid["lambda"]:
            for mu in grid["mu"]:
                for alpha in grid["alpha"]:
                    out.append((_model_params(
                        {"kind": kind, "lambda": lam, "mu": mu,
                         "alpha": alpha}, "model_grid"), grid.get("domain")))
    return out


def _domain(entry, name, default) -> tuple:
    if entry is None:
        return default
    _expect(isinstance(entry, (list, tuple)) and len(entry) == 2,
            f"{name} must be [r_lo, r_hi]")
    lo = _number(entry[0], f"{name}[0]", positive=True)
    hi = _number(entry[1], f"{name}[1]", positive=True)
    _expect(lo < hi, f"{name} must be increasing")
    return (lo, hi)


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


def _check(name, value, tolerance, passed, **extra) -> dict:
    d = {"name": name, "value": _jsonable(value),
         "tolerance": _jsonable(tolerance), "pass": bool(passed)}
    d.update(_jsonable(extra))
    return d


def _leq_check(name, value, tolerance, **extra) -> dict:
    return _check(name, value, tolerance, value <= tolerance, **extra)


def _flat_limit_from_lambda(lam: complex, torus: TorusSpec) -> FlatLimit:
    return FlatLimit(lambda1=2.0 * lam.real, lambda2=2.0 * lam.imag,
                     rings=(1.0, 2.0, 3.0, 4.0), per_ring=np.zeros((4, 2)),
                     drift=0.0, axis=E3.copy(), torus=torus)


def _flat_limit_from_xi(xi1: float, xi2: float, torus: TorusSpec) -> FlatLimit:
    lam = complex(TWO_PI * xi1 / torus.period_x,
                  TWO_PI * xi2 / torus.period_y) / 2.0
    return _flat_limit_from_lambda(lam, torus)


def _circle_gap(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


# ---------------------------------------------------------------------------
# conventions

def _validate_conventions(cfg: dict) -> dict:
    _validate_common(cfg, needs_seed=False)
    return {"torus": _torus_from(cfg)}


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

    g1 = complex(sheet["dual_lattice_basis"][0][0],
                 sheet["dual_lattice_basis"][0][1])
    g2 = complex(sheet["dual_lattice_basis"][1][0],
                 sheet["dual_lattice_basis"][1][1])
    axis_dev = abs(g1.imag) + abs(g2.real)

    lattice_dev = max(
        lattice_distance(zeta_from_xi(float(n), float(m), torus), torus)
        for n, m in ((1, 0), (0, 1), (2, -3)))

    checks = [
        _check("hodge_star_involution", invol, 0.0, invol == 0.0),
        _check("hodge_star_traceless", trace, 0.0, trace == 0.0),
        _check("dual_lattice_axes", axis_dev, 0.0, axis_dev == 0.0),
        _leq_check("integer_xi_in_lattice", lattice_dev, 1e-12),
        _check("hash_stable", digest == conventions_hash(torus), None,
               digest == conventions_hash(torus)),
    ]
    artifacts = {"conventions.json": {"sheet": sheet, "hash": digest}}
    return checks, artifacts


# ---------------------------------------------------------------------------
# model-check

_DEFAULT_DOMAIN = {"semisimple": (5.0, 500.0), "nilpotent": (10.0, 1000.0)}


def _validate_model_check(cfg: dict) -> dict:
    has_models = bool(cfg.get("models") or cfg.get("model_grid"))
    has_ineq = "inequalities" in cfg
    _expect(has_models or has_ineq,
            "model-check needs models, model_grid, or inequalities")
    _validate_common(cfg, needs_seed=True)
    tol = _validate_tolerances(cfg.get("tolerances", {}))
    out = {
        "seed": cfg["seed"],
        "torus": _torus_from(cfg),
        "models": _expand_models(cfg),
        "n_points": _integer(cfg.get("n_points", 1000), "n_points",
                             minimum=1),
        "asd_tol": tol.get("asd_residual", 1e-8),
        "nilpotent_tol": tol.get("nilpotent_residual", 1e-6),
        "decay": None,
        "inequalities": None,
    }
    for p, dom in out["models"]:
        _domain(dom, "model domain", _DEFAULT_DOMAIN[p.kind])
    if "decay" in cfg:
        d = cfg["decay"]
        _expect(isinstance(d, dict), "decay must be an object")
        block = {
            "exponent_window": _number(d.get("exponent_window", 0.05),
                                       "decay.exponent_window",
                                       positive=True),
            "log_power_window": _number(d.get("log_power_window", 0.3),
                                        "decay.log_power_window",
                                        positive=True),
            "components": d.get("components", "kahler"),
            "rings_semisimple": d.get("rings_semisimple"),
            "rings_nilpotent": d.get("rings_nilpotent"),
        }
        _expect(block["components"] in ("all", "kahler"),
                "decay.components must be all or kahler")
        out["decay"] = block
    if has_ineq:
        q = cfg["inequalities"]
        _expect(isinstance(q, dict), "inequalities must be an object")
        block = {}
        if "fourier_gap" in q:
            block["fourier_gap"] = {
                "n_samples": _integer(q["fourier_gap"].get("n_samples", 10000),
                                      "fourier_gap.n_samples", minimum=1)}
        if "monodromy_drift" in q:
            block["monodromy_drift"] = {
                "tolerance": _number(
                    q["monodromy_drift"].get("tolerance", 1e-3),
                    "monodromy_drift.tolerance", positive=True)}
        if "weitzenbock" in q:
            block["weitzenbock"] = {
                "n_fixtures": _integer(
                    q["weitzenbock"].get("n_fixtures", 20),
                    "weitzenbock.n_fixtures", minimum=1),
                "tolerance": _number(q["weitzenbock"].get("tolerance", 1e-6),
                                     "weitzenbock.tolerance", positive=True)}
        if "poincare" in q:
            xi = q["poincare"].get("xi", [0.3, 0.15])
            _pair(xi, "poincare.xi")
            block["poincare"] = {
                "xi": (float(xi[0]), float(xi[1])),
                "rtol": _number(q["poincare"].get("rtol", 0.01),
                                "poincare.rtol", positive=True)}
        _expect(block, "inequalities block is empty")
        out["inequalities"] = block
    return out


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
    for p, dom in params["models"]:
        lo, hi = _domain(dom, "model domain", _DEFAULT_DOMAIN[p.kind])
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
    if n_semi:
        checks.append(_leq_check("asd_residual_sup_semisimple", sup_semi,
                                 params["asd_tol"], n_models=n_semi))
    if n_nilp:
        checks.append(_leq_check("asd_residual_sup_nilpotent", sup_nilp_asd,
                                 params["nilpotent_tol"], n_models=n_nilp))
        checks.append(_leq_check("hitchin_residual_sup_nilpotent",
                                 sup_nilp_hit, params["nilpotent_tol"]))

    decay_rows = []
    if params["decay"] is not None:
        d = params["decay"]
        for j, (p, _) in enumerate(params["models"]):
            conn = model_connection(p, torus)
            if p.kind == "semisimple":
                if abs(p.mu) == 0.0:
                    continue
                rings = d["rings_semisimple"] or np.geomspace(
                    20.0, 500.0, 8).tolist()
                fit = decay_exponent(conn, rings, components="all",
                                     with_log=False)
                dev = abs(fit["gamma"] + 2.0)
                checks.append(_leq_check(
                    f"decay_exponent_dev_{_model_tag(j, p)}", dev,
                    d["exponent_window"], gamma=fit["gamma"]))
            else:
                rings = d["rings_nilpotent"] or np.geomspace(
                    math.e ** 2, math.e ** 6, 10).tolist()
                fit = decay_exponent(conn, rings,
                                     components=d["components"],
                                     with_log=True)
                checks.append(_leq_check(
                    f"decay_exponent_dev_{_model_tag(j, p)}",
                    abs(fit["gamma"] + 2.0), d["exponent_window"],
                    gamma=fit["gamma"]))
                checks.append(_leq_check(
                    f"decay_log_power_dev_{_model_tag(j, p)}",
                    abs(fit["log_power"] + 2.0), d["log_power_window"],
                    log_power=fit["log_power"]))
            decay_rows.append({"model": _model_tag(j, p),
                               "gamma": fit["gamma"],
                               "log_power": fit["log_power"],
                               "rings": list(rings)})

    ineq_summary = {}
    if params["inequalities"] is not None:
        q = params["inequalities"]
        if "fourier_gap" in q:
            gap_min, n_done = _fourier_gap_scan(
                rng, torus, q["fourier_gap"]["n_samples"])
            checks.append(_check("fourier_gap_min", gap_min, 1e-15,
                                 gap_min >= -1e-15, n_samples=n_done))
            ineq_summary["fourier_gap_min"] = gap_min
        if "monodromy_drift" in q:
            worst, per = _monodromy_families(rng, torus)
            checks.append(_leq_check("monodromy_drift_defect_max", worst,
                                     q["monodromy_drift"]["tolerance"],
                                     per_family=per))
            ineq_summary["monodromy_drift"] = per
        if "weitzenbock" in q:
            worst, n_fix = _weitzenbock_scan(rng, torus,
                                             q["weitzenbock"]["n_fixtures"])
            checks.append(_leq_check("weitzenbock_defect_max", worst,
                                     q["weitzenbock"]["tolerance"],
                                     n_fixtures=n_fix))
            ineq_summary["weitzenbock_defect_max"] = worst
        if "poincare" in q:
            xi1, xi2 = q["poincare"]["xi"]
            rel_max = 0.0
            for tag, fl in (("twisted", _flat_limit_from_xi(xi1, xi2, torus)),
                            ("untwisted", None)):
                c = poincare_constant(fl, N=8, torus=torus)
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


def _fourier_gap_scan(rng, torus: TorusSpec, n_samples: int):
    cov = covering_radius(torus)
    gap_min = math.inf
    done = 0
    while done < n_samples:
        mu = complex(rng.normal(), rng.normal()) * 0.5
        u = rng.random()
        ang = rng.uniform(0.0, TWO_PI)
        lam = 0.1 * cov * math.sqrt(u) * complex(math.cos(ang),
                                                 math.sin(ang))
        wmag = (10.0 * abs(mu) / cov) * (1.0 + 3.0 * rng.random()) + 1e-9
        wang = rng.uniform(0.0, TWO_PI)
        w = wmag * complex(math.cos(wang), math.sin(wang))
        if not in_hypothesis_region(lam, mu, w, torus):
            continue
        sigma = []
        for _ in range(int(rng.integers(1, 4))):
            sigma.append((int(rng.integers(-3, 4)), int(rng.integers(-3, 4)),
                          complex(rng.normal(), rng.normal())))
        if rng.random() < 0.5:
            sigma.append((0, 0, complex(rng.normal(), rng.normal())))
        gap, ok = fourier_gap(lam, mu, w, sigma, torus)
        gap_min = min(gap_min, gap)
        done += 1
    return float(gap_min), done


def _monodromy_families(rng, torus: TorusSpec):
    """Three drift-inequality test cases: a flat connection, an abelian
    model, and a random compactly supported perturbation of flat."""
    Lx = torus.period_x

    def radial_x_family(r0, dr, y0):
        def phi(t, s):
            t, s = np.broadcast_arrays(np.asarray(t, float),
                                       np.asarray(s, float))
            out = np.zeros(t.shape + (4,))
            out[..., 0] = r0 + dr * t
            out[..., 1] = 0.3
            out[..., 2] = Lx * s
            out[..., 3] = y0
            return out

        def dphi_dt(t, s):
            t, s = np.broadcast_arrays(np.asarray(t, float),
                                       np.asarray(s, float))
            out = np.zeros(t.shape + (4,))
            out[..., 0] = dr
            return out

        def dphi_ds(t, s):
            t, s = np.broadcast_arrays(np.asarray(t, float),
                                       np.asarray(s, float))
            out = np.zeros(t.shape + (4,))
            out[..., 2] = Lx
            return out

        return CircleFamily(phi=phi, dphi_dt=dphi_dt, dphi_ds=dphi_ds)

    flat = flat_connection(reduce_dual((0.3, 0.2), torus), torus)
    abelian = model_connection(
        ModelParams(lam=0.05 + 0.02j, mu=0.4 - 0.1j, alpha=0.1), torus)
    bumped = perturb(flat, delta=0.5, amplitude=0.02,
                     seed=int(rng.integers(0, 2 ** 31)), r_lo=12.0,
                     r_hi=60.0, max_mode=2)
    fams = [("flat", flat, radial_x_family(20.0, 10.0, 1.1)),
            ("abelian", abelian, radial_x_family(25.0, 10.0, 0.7)),
            ("perturbed-flat", bumped, radial_x_family(15.0, 20.0, 2.0))]
    per = {}
    worst = -math.inf
    for tag, conn, fam in fams:
        d = monodromy_drift_defect(conn, fam, n_t=33, n_s=512)
        per[tag] = d["defect"]
        worst = max(worst, d["defect"])
    return worst, per


def _weitzenbock_scan(rng, torus: TorusSpec, n_fixtures: int):
    worst = 0.0
    for j in range(n_fixtures):
        form = random_quadratic_form_fixture(rng, 3.0, 9.0)
        gamma = None if j % 2 == 0 else reduce_dual(
            (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)), torus)
        d = weitzenbock_defect(form, gamma, 3.0, 9.0, torus=torus)
        scale = max(1.0, d["grad_sq"])
        worst = max(worst, abs(d["defect"]) / scale, abs(d["outer_term"]))
    return worst, n_fixtures


def _rayleigh_oracle(fl: FlatLimit | None, torus: TorusSpec, rng,
                     n_grid: int = 24, n_random: int = 64) -> float:
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
    xs = np.linspace(0.0, Lx, n_grid, endpoint=False)
    ys = np.linspace(0.0, Ly, n_grid, endpoint=False)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    E_diag = _SIGMA3
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
            slots = (E_diag, E_up, E_dn) if not trivial else (E_diag,)
            for E in slots:
                q = quotient(wave[..., None, None] * E)
                if q is not None:
                    best = min(best, q)
    for _ in range(n_random):
        u = np.zeros((n_grid, n_grid, 2, 2), dtype=complex)
        for _ in range(3):
            n, m = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            wave = np.exp(1j * (TWO_PI * n * X / Lx + TWO_PI * m * Y / Ly))
            H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u += wave[..., None, None] * H
        if trivial:
            u -= u.mean(axis=(0, 1))
        else:
            avg = u.mean(axis=(0, 1))
            u -= np.diag(np.diag(avg))
        q = quotient(u)
        if q is not None:
            best = min(best, q)
    return best


# ---------------------------------------------------------------------------
# invariants

def _validate_invariants(cfg: dict) -> dict:
    pert = cfg.get("perturbation")
    _validate_common(cfg, needs_seed=pert is not None)
    mods = _expand_models(cfg)
    _expect(mods, "invariants needs models or model_grid")
    rings = cfg.get("rings", [50.0, 100.0, 200.0, 400.0])
    _expect(isinstance(rings, list) and len(rings) >= 4,
            "rings must list at least 4 radii")
    rings = [_number(r, "rings[]", positive=True) for r in rings]
    _expect(all(b > a for a, b in zip(rings, rings[1:])),
            "rings must increase")
    out = {
        "seed": cfg.get("seed", 0),
        "torus": _torus_from(cfg),
        "models": mods,
        "rings": tuple(rings),
        "tol_clean": None,
        "perturbation": None,
        "tol_perturbed": None,
    }
    tol = _validate_tolerances(cfg.get("tolerances_clean",
                                       cfg.get("tolerances", {})))
    out["tol_clean"] = {"lambda": tol.get("lambda", 1e-4),
                        "alpha": tol.get("alpha", 1e-6),
                        "mu": tol.get("mu", 1e-4)}
    if pert is not None:
        _expect(isinstance(pert, dict), "perturbation must be an object")
        out["perturbation"] = {
            "amplitude": _number(pert.get("amplitude", 0.05),
                                 "perturbation.amplitude", positive=True),
            "delta": _number(pert.get("delta", 0.5), "perturbation.delta",
                             positive=True),
            "r_lo": _number(pert.get("r_lo", 5.0), "perturbation.r_lo",
                            positive=True),
            "r_hi": _number(pert.get("r_hi", 600.0), "perturbation.r_hi",
                            positive=True),
        }
        tp = _validate_tolerances(cfg.get("tolerances_perturbed", {}))
        out["tol_perturbed"] = {"lambda": tp.get("lambda", 1e-2),
                                "alpha": tp.get("alpha", 1e-3),
                                "mu": tp.get("mu", 1e-2)}
    return out


def _roundtrip_errors(p: ModelParams, inv, torus: TorusSpec) -> dict:
    """Errors of extracted invariants against the model inputs, in the
    canonical branch frame used by the extractor."""
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
        e_lam = abs(lam_hat - p.lam)
    else:
        e_lam = 0.0  # nilpotent: the dual point alone carries the limit
    e_alpha = _circle_gap(inv.alpha, alpha_t)
    e_mu = abs(inv.mu - mu_t)
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
        for j, (p, _) in enumerate(params["models"]):
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
                "errors": {k: errs_k for k, errs_k in
                           (("lambda", e["lambda"]), ("alpha", e["alpha"]),
                            ("mu", e["mu"]))},
                "diagnostics": _jsonable(inv.diagnostics),
            })
        if failed:
            checks.append(_check(f"extraction_failed_{tag}", len(failed), 0,
                                 False, models=failed))
        for k in ("lambda", "alpha", "mu"):
            checks.append(_leq_check(f"{k}_error_max_{tag}", errs[k],
                                     tols[k]))
        if pert is None:
            checks.append(_check(f"kind_detected_{tag}", kinds_ok, None,
                                 kinds_ok))

    one_pass("clean", None, params["tol_clean"])
    if params["perturbation"] is not None:
        one_pass("perturbed", params["perturbation"],
                 params["tol_perturbed"])
    return checks, {"invariants.json": {"models": records}}


# ---------------------------------------------------------------------------
# spectral

def _validate_spectral(cfg: dict) -> dict:
    needs_seed = any(k in cfg for k in ("counting", "residues", "dichotomy"))
    _validate_common(cfg, needs_seed=needs_seed)
    b = cfg.get("bundle")
    _expect(isinstance(b, dict), "spectral needs a bundle block")
    torus = _torus_from(cfg)
    lam = _pair(b.get("lambda", [0.0, 0.0]), "bundle.lambda")
    mu = _pair(b.get("mu", [1.0, 0.0]), "bundle.mu")
    tail = tuple(_pair(t, "bundle.tail[]") for t in b.get("tail", []))
    r_min = _number(b.get("r_min", 5.0), "bundle.r_min", positive=True)
    k = _integer(b.get("k", 1), "bundle.k", minimum=1)
    dev = abs(mu) / r_min + sum(
        abs(c) / r_min ** (j + 2) for j, c in enumerate(tail))
    _expect(dev < covering_radius(torus),
            "bundle residue too large for r_min: fibers leave the "
            "asymptotic splitting")
    out = {
        "seed": cfg.get("seed", 0),
        "torus": torus,
        "bundle": {"lam": lam, "mu": mu, "tail": tail, "r_min": r_min,
                   "k": k},
        "domain": _domain(cfg.get("domain"), "domain", (r_min, 1e4)),
        "counting": None, "residues": None, "dichotomy": None,
    }
    _expect(out["domain"][0] >= r_min,
            "domain must sit inside the bundle's validity range")
    if "counting" in cfg:
        c = cfg["counting"]
        _expect(isinstance(c, dict), "counting must be an object")
        rad = c.get("radius", [0.005, 0.02])
        _expect(isinstance(rad, list) and len(rad) == 2
                and 0 < rad[0] < rad[1], "counting.radius must be "
                "[lo, hi] with 0 < lo < hi")
        _expect(abs(mu) > 0, "counting needs a nonzero bundle residue")
        out["counting"] = {
            "n_samples": _integer(c.get("n_samples", 100),
                                  "counting.n_samples", minimum=1),
            "radius": (float(rad[0]), float(rad[1])),
            "expected_total": _integer(c.get("expected_total", k),
                                       "counting.expected_total", minimum=0),
        }
    if "residues" in cfg:
        r = cfg["residues"]
        _expect(isinstance(r, dict), "residues must be an object")
        _expect(lattice_distance(2.0 * lam, torus) > 1e-6,
                "residues need distinct +-xi0 (non-order-two lambda)")
        out["residues"] = {
            "n_mu": _integer(r.get("n_mu", 10), "residues.n_mu", minimum=1),
            "tolerance": _number(r.get("tolerance", 1e-8),
                                 "residues.tolerance", positive=True),
        }
    if "dichotomy" in cfg:
        d = cfg["dichotomy"]
        _expect(isinstance(d, dict), "dichotomy must be an object")
        _expect(abs(mu) > 0, "dichotomy blow-up needs a nonzero residue")
        out["dichotomy"] = {
            "n_approach": _integer(d.get("n_approach", 6),
                                   "dichotomy.n_approach", minimum=3),
            "n_mu_zero": _integer(d.get("n_mu_zero", 50),
                                  "dichotomy.n_mu_zero", minimum=1),
            "annulus": _domain(d.get("annulus"), "dichotomy.annulus",
                               (5.0, 1000.0)),
            "min_lattice_distance": _number(
                d.get("min_lattice_distance", 0.05),
                "dichotomy.min_lattice_distance", positive=True),
        }
    return out


def _run_spectral(params: dict):
    rng = np.random.default_rng(params["seed"])
    torus = params["torus"]
    b = params["bundle"]
    bundle = BundleModel(lam=b["lam"], mu=b["mu"], tail=b["tail"],
                         r_min=b["r_min"], k=b["k"], torus=torus)
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
                if 1e-3 < abs(mu) < 0.9 * cov * b["r_min"]:
                    break
            bi = BundleModel(lam=b["lam"], mu=mu, r_min=b["r_min"],
                             k=b["k"], torus=torus)
            xi0 = xi_from_zeta(bi.lam, torus)
            row = {"mu": [mu.real, mu.imag]}
            for tag, pt, want in (("plus", xi0, mu),
                                  ("minus", xi0.minus, -mu)):
                zc = pt.zeta
                approach = [zc + 0.02 * (0.5 ** j) * complex(1.0, 0.7)
                            for j in range(6)]
                est, diag = phi_residue(bi, pt, approach,
                                        domain=(bi.r_min, 1e30))
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
        checks.append(_check("blowup_ratio_min", ratio_min, None,
                             ratio_min >= 1.0))
        bundle0 = BundleModel(lam=b["lam"], mu=0.0, r_min=b["r_min"],
                              k=b["k"], torus=torus)
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
        checks.append(_check("mu_zero_jumping_points", found, None,
                             found == 0, n_samples=n_done))
        summary["dichotomy"] = {"blowup": blow_rows,
                                "mu_zero_points_found": found}

    artifacts = {"spectral_summary.json": summary}
    if csv_rows:
        artifacts["jumping_points.csv"] = csv_rows
    return checks, artifacts


# ---------------------------------------------------------------------------
# stability

_OBSTRUCTION_VERDICTS = ("blocked_order2_k1", "blocked_mu0", "ok")


def _validate_stability(cfg: dict) -> dict:
    _validate_common(cfg, needs_seed=False)
    torus = _torus_from(cfg)
    out = {"torus": torus, "family": None, "obstructions": None, "h0": None}
    if "family" in cfg:
        f = cfg["family"]
        _expect(isinstance(f, dict), "family must be an object")
        bs = f.get("b_values", [1, 2, 3, 4, 5])
        als = f.get("alpha_values", [-0.4, -0.2, 0.0, 0.2, 0.4])
        _expect(isinstance(bs, list) and bs, "family.b_values must be a "
                "nonempty list")
        _expect(all(isinstance(v, int) and v >= 1 for v in bs),
                "family.b_values must be integers >= 1")
        _expect(isinstance(als, list) and als,
                "family.alpha_values must be a nonempty list")
        for a in als:
            a = _number(a, "family.alpha_values[]")
            _expect(-0.5 <= a < 0.5, "alpha values must lie in [-1/2, 1/2)")
        xi = f.get("xi0", [0.3, 0.2])
        _pair(xi, "family.xi0")
        out["family"] = {"b_values": bs, "alpha_values": [float(a) for a in als],
                         "xi0": (float(xi[0]), float(xi[1])),
                         "k": _integer(f.get("k", 1), "family.k", minimum=1)}
    if "obstructions" in cfg:
        cases = cfg["obstructions"]
        _expect(isinstance(cases, list) and cases,
                "obstructions must be a nonempty list")
        rows = []
        for j, case in enumerate(cases):
            _expect(isinstance(case, dict), f"obstructions[{j}] must be an "
                    "object")
            xi = case.get("xi0")
            _pair(xi, f"obstructions[{j}].xi0")
            expect = case.get("expect")
            _expect(expect in _OBSTRUCTION_VERDICTS,
                    f"obstructions[{j}].expect must be one of "
                    f"{_OBSTRUCTION_VERDICTS}")
            rows.append({
                "k": _integer(case.get("k", 1), f"obstructions[{j}].k",
                              minimum=1),
                "xi0": (float(xi[0]), float(xi[1])),
                "mu": _pair(case.get("mu", [0.0, 0.0]),
                            f"obstructions[{j}].mu"),
                "expect": expect,
            })
        out["obstructions"] = rows
    if "h0" in cfg:
        h = cfg["h0"]
        _expect(isinstance(h, dict), "h0 must be an object")
        lam = _pair(h.get("lambda", [0.0, 0.25]), "h0.lambda")
        mu = _pair(h.get("mu", [0.3, 0.0]), "h0.mu")
        xi = h.get("xi", [0.5, 0.0])
        _pair(xi, "h0.xi")
        out["h0"] = {
            "lam": lam, "mu": mu,
            "xi": (float(xi[0]), float(xi[1])),
            "k": _integer(h.get("k", 1), "h0.k", minimum=1),
            "r_min": _number(h.get("r_min", 5.0), "h0.r_min", positive=True),
            "domain": _domain(h.get("domain"), "h0.domain", (5.0, 1000.0)),
        }
    _expect(any(out[k] is not None for k in ("family", "obstructions", "h0")),
            "stability needs at least one of family, obstructions, h0")
    return out


def _run_stability(params: dict):
    torus = params["torus"]
    checks = []
    verdicts = {"family": [], "obstructions": [], "h0": None}

    if params["family"] is not None:
        f = params["family"]
        xi0 = reduce_dual(f["xi0"], torus)
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
            xi = reduce_dual(case["xi0"], torus)
            got = existence_obstruction(case["k"], xi, case["mu"])
            ok = got == case["expect"]
            n_match += ok
            verdicts["obstructions"].append({
                "k": case["k"], "xi0": list(case["xi0"]),
                "mu": [case["mu"].real, case["mu"].imag],
                "expected": case["expect"], "computed": got, "match": ok})
        checks.append(_check("obstruction_table_matches",
                             f"{n_match}/{len(params['obstructions'])}",
                             None, n_match == len(params["obstructions"])))

    if params["h0"] is not None:
        h = params["h0"]
        bundle = BundleModel(lam=h["lam"], mu=h["mu"], r_min=h["r_min"],
                             k=h["k"], torus=torus)
        xi = reduce_dual(h["xi"], torus)
        ledger = h0_consistency(bundle, xi, domain=h["domain"],
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

def _validate_moduli(cfg: dict) -> dict:
    _validate_common(cfg, needs_seed=True)
    torus = _torus_from(cfg)
    model = _model_params(cfg.get("model", {"kind": "semisimple",
                                            "lambda": [0.1, 0.05],
                                            "mu": [0.3, -0.2],
                                            "alpha": 0.15}), "model")
    _expect(model.kind == "semisimple",
            "moduli tangent checks need a semisimple model")
    g = cfg.get("grid", {})
    _expect(isinstance(g, dict), "grid must be an object")
    grid = {
        "r_min": _number(g.get("r_min", 8.0), "grid.r_min", positive=True),
        "r_max": _number(g.get("r_max", 40.0), "grid.r_max", positive=True),
        "n_r": _integer(g.get("n_r", 20), "grid.n_r", minimum=4),
        "n_theta": _integer(g.get("n_theta", 12), "grid.n_theta", minimum=4),
        "n_x": _integer(g.get("n_x", 6), "grid.n_x", minimum=4),
        "n_y": _integer(g.get("n_y", 6), "grid.n_y", minimum=4),
    }
    _expect(grid["r_min"] < grid["r_max"], "grid radii must increase")
    chart = cfg.get("chart", {})
    _expect(isinstance(chart, dict), "chart must be an object")
    f0 = _pair(chart.get("f0", [0.5, 0.2]), "chart.f0")
    fp0 = _pair(chart.get("fp0", [1.5, -0.3]), "chart.fp0")
    _expect(abs(fp0) > 1e-12, "chart.fp0 must be nonzero")
    tol = _validate_tolerances(cfg.get("tolerances", {}))
    return {
        "seed": cfg["seed"],
        "torus": torus,
        "model": model,
        "grid": grid,
        "n_alpha": _integer(cfg.get("n_alpha", 100), "n_alpha", minimum=1),
        "n_random_tangents": _integer(cfg.get("n_random_tangents", 3),
                                      "n_random_tangents", minimum=0),
        "chart": (f0, fp0),
        "residual_rtol": tol.get("residual_rel", 1e-6),
    }


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
    checks.append(_check("quaternion_relations", qdev, 0.0, qdev == 0.0))

    wdev = 0.0
    for _ in range(params["n_alpha"]):
        alpha = float(rng.uniform(-0.5, 0.5))
        if alpha >= 0.5:
            alpha = 0.0
        (_, _), balance = nahm_weights(alpha)
        wdev = max(wdev, abs(balance))
    checks.append(_check("parabolic_weight_zero_sum", wdev, 0.0,
                         wdev == 0.0, n_alpha=params["n_alpha"]))

    dim1 = moduli_dimension(1)
    f0, fp0 = params["chart"]
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
                       n_theta=g["n_theta"], n_x=g["n_x"], n_y=g["n_y"],
                       spacing="chebyshev")
    conn = model_connection(params["model"], torus)
    calc = AnnulusCalculus(conn, grid)
    tangents = [("translation_x", translation_tangent(conn, grid, (1.0, 0.0))),
                ("translation_y", translation_tangent(conn, grid, (0.0, 1.0)))]
    for j in range(params["n_random_tangents"]):
        tangents.append((f"random{j}", random_tangent(
            grid, torus, seed=int(rng.integers(0, 2 ** 31)),
            compact_radial=True)))

    res_rel_max = 0.0
    for tag, t in tangents[:2]:
        r1, r2 = instanton_tangent_residual(conn, t, calc)
        scale = max(calc.norm(t.comps), 1e-30)
        res_rel_max = max(res_rel_max, r1 / scale, r2 / scale)
    checks.append(_leq_check("translation_tangent_residual_rel",
                             res_rel_max, params["residual_rtol"]))

    n = len(tangents)
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            gram[i, j] = l2_metric(tangents[i][1], tangents[j][1])
    sym_dev = float(np.max(np.abs(gram - gram.T)))
    eigs = np.linalg.eigvalsh(gram)
    checks.append(_check("l2_metric_symmetry", sym_dev, 0.0, sym_dev == 0.0))
    checks.append(_check("l2_metric_positive", float(eigs[0]), None,
                         bool(eigs[0] > 0)))

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
    "conventions": (_validate_conventions, _run_conventions),
    "model-check": (_validate_model_check, _run_model_check),
    "invariants": (_validate_invariants, _run_invariants),
    "spectral": (_validate_spectral, _run_spectral),
    "stability": (_validate_stability, _run_stability),
    "moduli": (_validate_moduli, _run_moduli),
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
    else:
        _expect(isinstance(config, dict), "config must be a JSON object")
        cfg = copy.deepcopy(config)
    validate, execute = _PIPELINES[subcommand]
    params = validate(cfg)
    t0 = time.perf_counter()
    checks, artifacts = execute(params)
    wall = time.perf_counter() - t0
    passed = all(c["pass"] for c in checks)
    torus = params.get("torus") or TorusSpec()
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
