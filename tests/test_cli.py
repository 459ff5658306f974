"""Tests for the verification CLI: config validation before any writes,
report structure, CSV artifacts, seeded determinism, and exit codes."""

import cmath
import copy
import json
import math
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

from ipl import cli, gauge, models
from ipl.cli import GAP_SCAN_BLOCK, ConfigError, SUBCOMMANDS, SUITE, \
    _fourier_gap_scan, _rayleigh_quotients, main, run
from ipl.geometry import TWO_PI, TorusSpec, inradius, lattice_distance, \
    reduce_dual
from ipl.moduli import fourier_diff

from conftest import GAP_TORI, SIGMA3, comm

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
ROOT = os.path.dirname(CONFIGS)
RUN_ALL_SUITES = os.path.join(ROOT, "scripts", "run_all_suites.py")
# the environment of a subprocess that imports ipl from this checkout
SRC_ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")
           + os.pathsep + os.environ.get("PYTHONPATH", "")}
SPECTRAL_CFG = {
    "schema_version": 1,
    "seed": 5,
    "bundle": {"lambda": [0.11, 0.07], "mu": [1.0, 0.0], "r_min": 5.0, "k": 1},
    "counting": {"n_samples": 5, "radius": [0.005, 0.02],
                 "domain": [5.0, 10000.0]},
}


def strict_json(text):
    """Parses text as JSON with no NaN or Infinity token."""
    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def canonical(report):
    rep = dict(report)
    rep.pop("wall_time_s")
    return json.dumps(rep, sort_keys=True)


def test_subcommand_roster():
    assert SUBCOMMANDS == ("conventions", "model-check", "invariants",
                           "spectral", "stability", "moduli")


def test_unknown_subcommand_rejected_before_writes(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigError):
        run("nonsense", SPECTRAL_CFG, out_dir=str(out), quiet=True)
    assert not out.exists()


def test_bad_schema_version_exits_2_and_writes_nothing(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 2}))
    out = tmp_path / "out"
    rc = main(["conventions", "--config", str(cfg_path),
               "--out", str(out), "--quiet"])
    assert rc == 2
    assert not out.exists()


def test_config_that_is_not_utf8_exits_2_and_writes_nothing(tmp_path,
                                                           capsys):
    # a UTF-16 byte-order mark once ended in a UnicodeDecodeError traceback
    # and exit 1, the code of a failed pipeline
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'\xff\xfe{"schema_version": 1}')
    out = tmp_path / "out"
    rc = main(["conventions", "--config", str(cfg_path),
               "--out", str(out), "--quiet"])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


def test_missing_seed_rejected(tmp_path):
    cfg = {k: v for k, v in SPECTRAL_CFG.items() if k != "seed"}
    with pytest.raises(ConfigError):
        run("spectral", cfg, out_dir=str(tmp_path / "out"), quiet=True)
    assert not (tmp_path / "out").exists()


def test_nonpositive_tolerance_rejected(tmp_path):
    cfg = json.loads(json.dumps(SPECTRAL_CFG))
    cfg["residues"] = {"n_mu": 2, "tolerance": 0.0}
    with pytest.raises(ConfigError):
        run("spectral", cfg, out_dir=str(tmp_path / "out"), quiet=True)
    assert not (tmp_path / "out").exists()


def test_report_structure_and_artifacts(tmp_path):
    report, code = run("conventions", {"schema_version": 1},
                       out_dir=str(tmp_path), quiet=True)
    assert code == 0
    assert report["passed"]
    assert report["schema_version"] == 1
    assert report["subcommand"] == "conventions"
    assert sorted(report) == ["artifacts", "checks", "csv_columns", "inputs",
                              "passed", "provenance", "schema_version",
                              "subcommand", "wall_time_s"]
    for key in ("package", "package_version", "python", "numpy",
                "conventions_hash", "threads"):
        assert key in report["provenance"]
    for check in report["checks"]:
        assert check["pass"]
        assert set(check) >= {"name", "value", "tolerance", "pass"}
    assert report["artifacts"] == sorted(report["artifacts"])
    assert (tmp_path / "conventions_report.json").exists()
    for name in report["artifacts"]:
        assert (tmp_path / name).exists()
    on_disk = json.loads((tmp_path / "conventions_report.json").read_text())
    assert canonical(on_disk) == canonical(report)


def test_csv_artifact_columns(tmp_path):
    report, code = run("spectral", SPECTRAL_CFG, out_dir=str(tmp_path),
                       quiet=True)
    assert code == 0
    assert report["csv_columns"] == ["xi1", "xi2", "re_w", "im_w", "mult"]
    lines = (tmp_path / "jumping_points.csv").read_text().splitlines()
    assert lines[0] == "xi1,xi2,re_w,im_w,mult"
    assert len(lines) == 1 + SPECTRAL_CFG["counting"]["n_samples"]
    for line in lines[1:]:
        xi1, xi2, re_w, im_w, mult = line.split(",")
        float(xi1), float(xi2), float(re_w), float(im_w)
        assert int(mult) >= 1


def test_same_seed_runs_are_identical(tmp_path):
    rep_a, _ = run("spectral", SPECTRAL_CFG, out_dir=str(tmp_path / "a"),
                   quiet=True)
    rep_b, _ = run("spectral", SPECTRAL_CFG, out_dir=str(tmp_path / "b"),
                   quiet=True)
    assert canonical(rep_a) == canonical(rep_b)
    csv_a = (tmp_path / "a" / "jumping_points.csv").read_bytes()
    csv_b = (tmp_path / "b" / "jumping_points.csv").read_bytes()
    assert csv_a == csv_b
    sum_a = (tmp_path / "a" / "spectral_summary.json").read_bytes()
    sum_b = (tmp_path / "b" / "spectral_summary.json").read_bytes()
    assert sum_a == sum_b


def test_numerical_failure_exits_1_with_full_report(tmp_path):
    cfg = {
        "schema_version": 1,
        "obstructions": [
            {"k": 1, "xi0": [0.3, 0.2], "mu": [0.5, 0.0],
             "expect": "blocked_mu0"},
        ],
    }
    report, code = run("stability", cfg, out_dir=str(tmp_path), quiet=True)
    assert code == 1
    assert not report["passed"]
    assert (tmp_path / "stability_report.json").exists()
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed


def test_extraction_failure_exits_1_with_full_report(tmp_path):
    # with |mu| = 10 the first default ring (50) is too near the pole: the
    # monodromy exponents drift over the rings and the flat limit fails;
    # the failure must become a failed check in a written report, not a
    # raise
    cfg = {
        "schema_version": 1,
        "models": [{"lambda": [0.0, 0.25], "mu": [10.0, 0.0], "alpha": 0.0},
                   {"lambda": [0.1, 0.0], "mu": [1.0, 0.0], "alpha": 0.25}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(["invariants", "--config", str(cfg_path), "--out", str(out),
               "--quiet"])
    assert rc == 1
    report = json.loads((out / "invariants_report.json").read_text())
    assert not report["passed"]
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["extraction_failed_clean"]
    assert failed[0]["value"] == 1
    assert failed[0]["models"][0]["model"] == "model0_semisimple"
    assert "drift" in failed[0]["models"][0]["error"]
    records = json.loads((out / "invariants.json").read_text())["models"]
    assert records[0]["error"] == failed[0]["models"][0]["error"]
    assert "extracted" not in records[0]
    assert "k_estimate" not in records[1]["extracted"]
    assert records[1]["errors"]["mu"] < 1e-4


# semisimple, nilpotent, a model whose |mu| = 10 puts the first ring too
# near the pole (its exponents drift, so it fails both passes), semisimple;
# should the extraction learn to read the third, swap in another input that
# fails by design
MIXED_MODELS = [{"lambda": [0.1, 0.0], "mu": [1.0, 0.0], "alpha": 0.25},
                {"kind": "nilpotent"},
                {"lambda": [0.0, 0.25], "mu": [10.0, 0.0]},
                {"lambda": [-0.05, 0.07], "mu": [0.3, -0.2], "alpha": -0.25}]


def test_mixed_batch_records_each_model_as_if_alone(tmp_path):
    # each pass samples one table per kind for the whole batch; the records
    # keep the model order, the failing model fails alone, and every record
    # is the one that model writes in a config of its own, perturbed with
    # seed + j
    cfg = {"schema_version": 1, "seed": 20260815, "models": MIXED_MODELS,
           "perturbation": {}}
    report, code = run("invariants", cfg, out_dir=str(tmp_path / "all"),
                       quiet=True)
    assert code == 1
    assert sorted(c["name"] for c in report["checks"] if not c["pass"]) == [
        "extraction_failed_clean", "extraction_failed_perturbed"]
    records = strict_json((tmp_path / "all" / "invariants.json").read_text())[
        "models"]
    kinds = ["semisimple", "nilpotent", "semisimple", "semisimple"]
    assert [(r["pass"], r["model"]) for r in records] == [
        (tag, f"model{j}_{kind}") for tag in ("clean", "perturbed")
        for j, kind in enumerate(kinds)]
    assert ["error" in r for r in records] == [False, False, True, False] * 2
    assert all("drift" in r["error"] for r in records if "error" in r)
    for j, m in enumerate(MIXED_MODELS):
        alone = {**cfg, "seed": cfg["seed"] + j, "models": [m]}
        run("invariants", alone, out_dir=str(tmp_path / str(j)), quiet=True)
        own = strict_json((tmp_path / str(j) / "invariants.json").read_text())[
            "models"]
        for record, mine in zip(records[j::4], own):
            assert {**record, "model": None} == {**mine, "model": None}


def test_pass_with_no_extracted_model_fails_its_error_checks(tmp_path):
    # maxima over zero models must not read 0.0 and pass: with every
    # extraction failed, the error and kind checks are reported unevaluated
    cfg = {"schema_version": 1,
           "models": [{"lambda": [0.0, 0.25], "mu": [10.0, 0.0]}]}
    report, code = run("invariants", cfg, out_dir=str(tmp_path), quiet=True)
    assert code == 1
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["extraction_failed_clean"]["value"] == 1
    for name in ("lambda_error_max_clean", "alpha_error_max_clean",
                 "mu_error_max_clean", "kind_detected_clean"):
        c = checks[name]
        assert c["value"] is None and c["pass"] is False
        assert c["reason"] == "no model extracted in the clean pass"
    saved = json.loads((tmp_path / "invariants_report.json").read_text())
    assert saved["checks"] == report["checks"]


def test_order_two_target_scores_the_nearer_weyl_branch(tmp_path):
    # lambda = 0 is order two. This perturbation (seed 47, the second model
    # of the benchmark's 9-model cut at seed 46) moves the extracted xi0 off
    # 0 by about 4e-7, and the extractor reports the reflected branch
    # (alpha, mu) = (-1/4, -1). It names the input state (1/4, 1), so the
    # errors are small, not alpha 1/2 and mu 2
    cfg = {"schema_version": 1, "seed": 47,
           "models": [{"lambda": [0.0, 0.0], "mu": [1.0, 0.0],
                       "alpha": 0.25}],
           "perturbation": {"amplitude": 0.05, "delta": 0.5, "r_lo": 5.0,
                            "r_hi": 600.0}}
    report, code = run("invariants", cfg, out_dir=str(tmp_path), quiet=True)
    assert code == 0 and report["passed"]
    records = json.loads((tmp_path / "invariants.json").read_text())["models"]
    perturbed = records[1]
    assert perturbed["pass"] == "perturbed"
    assert perturbed["extracted"]["alpha"] == pytest.approx(-0.25, abs=1e-6)
    assert perturbed["extracted"]["mu"][0] == pytest.approx(-1.0, abs=1e-4)
    assert perturbed["errors"]["alpha"] < 1e-6
    assert perturbed["errors"]["mu"] < 1e-4


def test_invariants_records_write_complex_values_as_pairs(tmp_path):
    # the library returns complex numbers and arrays; the written record
    # holds each complex as [re, im] and each array as nested lists
    cfg = {"schema_version": 1,
           "models": [{"lambda": [0.1, -0.2], "mu": [0.3, 0.4],
                       "alpha": -0.25}]}
    _, code = run("invariants", cfg, out_dir=str(tmp_path), quiet=True)
    assert code == 0
    [record] = strict_json((tmp_path / "invariants.json").read_text())[
        "models"]
    assert record["inputs"] == {"lambda": [0.1, -0.2], "mu": [0.3, 0.4],
                                "alpha": -0.25, "kind": "semisimple"}
    re_mu, im_mu = record["extracted"]["mu"]
    assert abs(complex(re_mu, im_mu) - (0.3 + 0.4j)) < 1e-9
    re_lam, im_lam = record["diagnostics"]["residue_fit"]["lambda_hat"]
    assert abs(complex(re_lam, im_lam) - (0.1 - 0.2j)) < 1e-9
    per_ring = record["diagnostics"]["per_ring"]
    assert len(per_ring) == 4 and all(len(row) == 2 for row in per_ring)


@pytest.mark.parametrize("torus", [None, {"period_x": 4.0, "period_y": 7.0}],
                         ids=["2pi-x-2pi", "4-x-7"])
@pytest.mark.parametrize("lam", [[0.4, 0.0], [0.4, 0.1], [-0.45, 0.3],
                                 [0.6, -0.2]])
def test_lambda_error_is_taken_modulo_the_translates_fixing_xi0(
        tmp_path, lam, torus):
    # lambda + (pi/Lx) m + i (pi/Ly) n names the same state, and each of
    # these lambda is extracted as another translate: unreduced, the error
    # read 0.5-0.9 with xi0, alpha and mu exact
    cfg = {"schema_version": 1,
           "models": [{"lambda": lam, "mu": [0.3, -0.2], "alpha": 0.1}]}
    if torus is not None:
        cfg["torus"] = torus
    report, code = run("invariants", cfg, out_dir=str(tmp_path), quiet=True)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["lambda_error_max_clean"]["value"] < 1e-12
    assert code == 0 and report["passed"]


@pytest.mark.parametrize("torus", [(1.0, 30.0), (30.0, 1.0), (50.0, 50.0)],
                         ids=["1-x-30", "30-x-1", "50-x-50"])
def test_roundtrip_config_passes_on_long_and_large_tori(tmp_path, torus):
    # on these tori some x/y phases of a ring straddle +-pi, and the ring
    # exponents of a long period wrap modulo 2 pi / period: averaged and
    # fitted unwrapped, lambda read 1/48 to 0.10 off and alpha and mu
    # followed
    with open(os.path.join(CONFIGS, "invariants_roundtrip.json")) as fh:
        cfg = json.load(fh)
    cfg["torus"] = {"period_x": torus[0], "period_y": torus[1]}
    report, code = run("invariants", cfg, out_dir=str(tmp_path), quiet=True)
    assert code == 0, [(c["name"], c["value"]) for c in report["checks"]
                       if not c["pass"]]


# Seven of the nine shipped configs pass on any torus. The other two hold
# on the 2 pi x 2 pi torus only, with no defect elsewhere: stability_table's
# h0 case needs lambda = 0.25i to be order two, and spectral_counting's
# bundle is a config error on 2 pi x 3 pi, where |mu| / r_min = 0.2 passes
# the inradius 1/6 and 2 lambda lies 0.18 from the dual lattice, under the
# 0.22 that its counting window needs (|mu| / r_lo + counting.radius[1]).
@pytest.mark.parametrize("subcommand, name", [
    (s, n) for s, n in SUITE
    if n not in ("stability_table.json", "spectral_counting.json")])
def test_shipped_configs_pass_on_a_non_square_torus(tmp_path, subcommand,
                                                    name):
    with open(os.path.join(CONFIGS, name)) as fh:
        cfg = json.load(fh)
    cfg["torus"] = {"period_x": 4.0, "period_y": 7.0}
    report, code = run(subcommand, cfg, out_dir=str(tmp_path), quiet=True)
    assert code == 0, [c["name"] for c in report["checks"] if not c["pass"]]


@pytest.mark.parametrize("seed", [2, 3, 5, 7])
def test_spectral_residues_with_small_mu_draws_exit_0(tmp_path, seed):
    # seeds 2 and 7 draw a residue |mu| below 0.12, whose jumping point a
    # fixed approach start would put inside r_min
    out = tmp_path / "out"
    rc = main(["spectral", "--config", os.path.join(CONFIGS,
                                                    "spectral_counting.json"),
               "--out", str(out), "--seed", str(seed), "--quiet"])
    assert rc == 0
    report = json.loads((out / "spectral_report.json").read_text())
    [check] = [c for c in report["checks"]
               if c["name"] == "phi_residue_error_max"]
    assert check["pass"] and check["tolerance"] == 1e-8
    if seed in (2, 7):
        rows = json.loads((out / "spectral_summary.json").read_text())
        assert min(abs(complex(*row["mu"])) for row in rows["residues"]) \
            < 0.12


@pytest.mark.parametrize("mu", [0.2, 0.01])
def test_dichotomy_blowup_holds_at_small_mu(tmp_path, mu):
    # |mu| / r_min = 0.04 and 0.002, below the 0.05 approach cap: a start
    # of |mu| / (4 r_min) keeps the jumping point outside r_min, where the
    # blow-up ratio reads 2
    with open(os.path.join(CONFIGS, "spectral_dichotomy.json")) as fh:
        cfg = json.load(fh)
    cfg["bundle"]["mu"] = [mu, 0.0]
    report, code = run("spectral", cfg, out_dir=str(tmp_path), quiet=True)
    assert code == 0, [(c["name"], c["value"]) for c in report["checks"]
                       if not c["pass"]]
    [blowup] = [c for c in report["checks"]
                if c["name"] == "blowup_ratio_min"]
    assert abs(blowup["value"] - 2.0) < 1e-9


def test_residue_sampler_ends_on_a_narrow_mu_window(tmp_path):
    # just above the bundle.r_min rule the |mu| window (1e-3, 0.9
    # inradius r_min) is 2.4e-6 wide, which a draw of 0.4 (N + iN) hits
    # about once in 7e7 tries; the sampler must draw inside it
    r_min = 0.004455
    cfg = {"schema_version": 1, "seed": 5,
           "bundle": {"lambda": [0.11, 0.07], "mu": [0.0001, 0.0],
                      "r_min": r_min, "k": 1},
           "residues": {"n_mu": 2}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "ipl.cli", "spectral", "--config",
         str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"],
        env=SRC_ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((tmp_path / "out" / "spectral_summary.json")
                      .read_text())["residues"]
    hi = 0.9 * inradius(TorusSpec()) * r_min
    assert hi - 1e-3 < 2.5e-6
    assert len(rows) == 2
    assert all(1e-3 < abs(complex(*row["mu"])) < hi for row in rows)


def test_seed_override_via_main(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SPECTRAL_CFG))
    out = tmp_path / "out"
    rc = main(["spectral", "--config", str(cfg_path), "--out", str(out),
               "--seed", "99", "--quiet"])
    assert rc == 0
    report = json.loads((out / "spectral_report.json").read_text())
    assert report["inputs"]["seed"] == 99


def test_module_entry_point_runs_clean_under_warning_errors(tmp_path):
    # `python -m ipl.cli` is how the CLI runs uninstalled; importing the
    # package must not load ipl.cli first, or runpy warns on every run
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ipl.cli",
         "conventions", "--config", os.path.join(CONFIGS, "conventions.json"),
         "--out", str(tmp_path), "--quiet"],
        env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "conventions_report.json").is_file()


def test_run_all_suites_exits_2_on_a_config_error(tmp_path):
    # a missing config directory once ended in a traceback and exit 1,
    # the code of a failed pipeline
    proc = subprocess.run(
        [sys.executable, RUN_ALL_SUITES, "--configs", str(tmp_path / "none"),
         "--out", str(tmp_path / "out"), "--quiet"],
        env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = proc.stderr.splitlines()
    assert len(errors) == len(SUITE)
    assert errors[0].startswith("config error: conventions: cannot read "
                                "config: ")


def test_thread_budget_recorded(tmp_path, monkeypatch):
    monkeypatch.setenv("IPL_THREADS", "3")
    report, _ = run("conventions", {"schema_version": 1},
                    out_dir=str(tmp_path), quiet=True)
    assert report["provenance"]["threads"] == 3


@pytest.mark.parametrize("n_samples", [1, 4095, 4097, 12345])
def test_fourier_gap_scan_returns_exactly_n_samples(n_samples, monkeypatch):
    assert n_samples % GAP_SCAN_BLOCK
    scored, gap = [], cli.fourier_gap

    def counting_gap(lam, *args):
        scored.append(lam.size)
        return gap(lam, *args)

    monkeypatch.setattr(cli, "fourier_gap", counting_gap)
    gap_min = _fourier_gap_scan(np.random.default_rng(0), TorusSpec(),
                                n_samples)
    assert sum(scored) == n_samples
    assert np.isfinite(gap_min)


def test_fourier_gap_scan_repeats_per_seed():
    a = np.random.default_rng(9)
    b = np.random.default_rng(9)
    assert _fourier_gap_scan(a, TorusSpec(), 5000) \
        == _fourier_gap_scan(b, TorusSpec(), 5000)
    # the stream continues at the same place for the stages after the scan
    assert a.random() == b.random()


def test_fourier_gap_scan_is_nonnegative_on_every_seed():
    worst = {seed: _fourier_gap_scan(np.random.default_rng(seed),
                                     TorusSpec(), 10000)
             for seed in range(41)}
    assert all(g >= -1e-15 for g in worst.values()), worst


@pytest.mark.parametrize("torus", GAP_TORI.values(), ids=GAP_TORI.keys())
def test_fourier_gap_scan_is_nonnegative_on_every_torus(torus):
    # modes scored by the physical symbol 2 pi n / L_x + i 2 pi m / L_y,
    # on a region scaled by the torus's least nonzero symbol: the
    # unit symbol n + i m goes negative on 0.5 x 0.5, and a region scaled
    # by the covering radius on 30 x 1, 1 x 100 and 100 x 1, at every
    # seed here with the shipped 10 000 samples
    worst = {seed: _fourier_gap_scan(np.random.default_rng(seed), torus,
                                     10000)
             for seed in (0, 1, 20260815)}
    assert all(g >= -1e-15 for g in worst.values()), worst


def _grid_quotient(gamma, torus):
    """(wave, quotient): wave(n, m) sampled on the oracle's 24 x 24 grid,
    and the Rayleigh quotient of one sampled section, FFT-differentiated on
    its own."""
    Lx, Ly = torus.period_x, torus.period_y
    c1, c2 = (0.0, 0.0) if gamma is None else gamma.c
    gx, gy = 1j * c1 * SIGMA3, 1j * c2 * SIGMA3
    X, Y = np.meshgrid(np.linspace(0.0, Lx, 24, endpoint=False),
                       np.linspace(0.0, Ly, 24, endpoint=False), indexing="ij")

    def wave(n, m):
        return np.exp(1j * (TWO_PI * n * X / Lx + TWO_PI * m * Y / Ly))

    def quotient(u):
        du_x = fourier_diff(u, 0, Lx) + comm(gx, u)
        du_y = fourier_diff(u, 1, Ly) + comm(gy, u)
        num = float(np.sum(np.abs(du_x) ** 2 + np.abs(du_y) ** 2))
        den = float(np.sum(np.abs(u) ** 2))
        return math.inf if num < 1e-13 * den else num / den

    return wave, quotient


def _rayleigh_reference(gamma, torus):
    """The oracle's quotients one candidate at a time: every single wave in
    every slot, each sampled, differentiated and summed on its own."""
    wave, quotient = _grid_quotient(gamma, torus)
    e_up = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    trivial = gamma is None or gamma.is_trivial(1e-9)
    slots = (SIGMA3,) if trivial else (SIGMA3, e_up, e_up.T)
    return np.array([quotient(wave(n, m)[..., None, None] * E)
                     for n in range(-3, 4) for m in range(-3, 4)
                     for E in slots])


@pytest.mark.parametrize("torus", [TorusSpec(), TorusSpec(4.0, 7.0),
                                   TorusSpec(30.0, 1.0)])
@pytest.mark.parametrize("xi", [(0.0, 0.0), (0.5, 0.0), (0.3, 0.15),
                                (0.01, 0.49)])
def test_rayleigh_oracle_matches_the_per_candidate_reference(torus, xi):
    for gamma in (reduce_dual(xi, torus), None):
        quotients = _rayleigh_quotients(gamma, torus)
        # every quotient, excluded kernel members (inf) included
        np.testing.assert_allclose(quotients,
                                   _rayleigh_reference(gamma, torus),
                                   rtol=1e-12, atol=0.0)
        oracle = float(np.min(quotients))
        # no mixture of waves, its flat-kernel part removed, scores below
        # the best single wave: its quotient is a weighted mean of theirs
        wave, quotient = _grid_quotient(gamma, torus)
        trivial = gamma is None or gamma.is_trivial(1e-9)
        rng = np.random.default_rng(3)
        for _ in range(64):
            u = np.zeros((24, 24, 2, 2), dtype=complex)
            for _ in range(3):
                n, m = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
                H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                u += wave(n, m)[..., None, None] * H
            avg = u.mean(axis=(0, 1))
            u -= avg if trivial else np.diag(np.diag(avg))
            assert quotient(u) >= oracle * (1.0 - 1e-12)


def test_check_margins(tmp_path):
    def checks(subcommand, cfg):
        report, code = run(subcommand, cfg, out_dir=str(tmp_path / subcommand),
                           quiet=True)
        assert code == 0
        return {c["name"]: c for c in report["checks"]}

    conv = checks("conventions", {"schema_version": 1})
    # value <= tolerance: tolerance - value
    lattice = conv["integer_xi_in_lattice"]
    assert lattice["margin"] == lattice["tolerance"] - lattice["value"] > 0
    assert conv["hodge_star_involution"]["margin"] == 0.0
    assert conv["hodge_star_orientation"]["margin"] == 0.0
    # boolean value, no numeric bound
    assert conv["hash_stable"]["margin"] is None
    gap = checks("model-check", {**SEEDED, "inequalities": {
        "fourier_gap": {"n_samples": 100}}})["fourier_gap_min"]
    # value >= tolerance: value - tolerance
    assert gap["tolerance"] == -1e-15
    assert gap["margin"] == gap["value"] - gap["tolerance"] > 0
    # numeric value, no tolerance
    count = checks("spectral", SPECTRAL_CFG)["counting_total_multiplicity"]
    assert count["value"] == 1.0 and count["tolerance"] is None
    assert count["margin"] is None
    dichotomy = checks("spectral", {**SEEDED, "bundle": SPECTRAL_CFG["bundle"],
                                    "dichotomy": {"n_approach": 3,
                                                  "n_mu_zero": 5}})
    # value >= 1: value - 1
    blowup = dichotomy["blowup_ratio_min"]
    assert blowup["tolerance"] == 1.0
    assert blowup["margin"] == blowup["value"] - 1.0 >= 0
    # a count that must stay 0: -value
    zero = dichotomy["mu_zero_jumping_points"]
    assert zero["tolerance"] == 0 and zero["value"] == 0
    assert zero["margin"] == -zero["value"]
    # value > 0, strict: the value itself
    positive = checks("moduli", {**SEEDED, "n_alpha": 1,
                                 "n_random_tangents": 1})["l2_metric_positive"]
    assert positive["tolerance"] == 0.0
    assert positive["margin"] == positive["value"] > 0


def main_in(tmp_path, subcommand, cfg):
    """(exit code, output dir) of `ipl SUBCOMMAND` run on cfg."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main([subcommand, "--config", str(cfg_path), "--out", str(out),
               "--quiet"])
    return rc, out


SEEDED = {"schema_version": 1, "seed": 1}


@pytest.mark.parametrize("subcommand, cfg, path", [
    ("model-check", {**SEEDED, "inequalities": {"fourier_gap": 5}},
     "inequalities.fourier_gap"),
    ("model-check", {**SEEDED, "inequalities": {"poincare": [0.3, 0.1]}},
     "inequalities.poincare"),
    ("model-check", {**SEEDED, "models": [{"mu": [1.0, 0.0]}],
                     "decay": {"rings_semisimple": "abc"}},
     "decay.rings_semisimple"),
    ("model-check", {**SEEDED, "models": [{"mu": [1.0, 0.0]}],
                     "decay": {"rings_semisimple": [20, 40, 30, 60, 80, 400]}},
     "decay.rings_semisimple"),
    ("model-check", {**SEEDED, "models": 5}, "models"),
    ("spectral", {**SPECTRAL_CFG, "counting": {"radius": ["a", "b"]}},
     "counting.radius[0]"),
    ("stability", {"schema_version": 1, "family": {"b_values": [True]}},
     "family.b_values[0]"),
    ("spectral", {**SPECTRAL_CFG, "dichotomy": {"annulus": [1.0, 100.0]}},
     "dichotomy.annulus"),
    ("conventions", {"schema_version": True}, "schema_version"),
    ("conventions", {"schema_version": 1, "torus": {"period_x": 10 ** 400}},
     "torus.period_x"),
    ("invariants", {"schema_version": 1, "models": [{}],
                    "tolerances_clean": [1]}, "tolerances_clean"),
    # radii inside a model's core, or at r <= 1 for the inverse-log fit
    ("model-check", {**SEEDED, "models": [
        {"kind": "nilpotent", "domain": [1.5, 10.0]}]}, "models[0].domain[0]"),
    ("model-check", {**SEEDED, "models": [
        {"mu": [1.0, 0.0]}, {"domain": [5e-4, 10.0]}]}, "models[1].domain[0]"),
    ("model-check", {**SEEDED, "model_grid": {
        "kind": "nilpotent", "lambda": [[0, 0]], "mu": [[0, 0]],
        "alpha": [0.0], "domain": [1.2, 50.0]}}, "model_grid.domain[0]"),
    ("model-check", {**SEEDED, "models": [{"kind": "nilpotent"}],
                     "decay": {"rings_nilpotent": [1, 2, 4, 8, 16, 32]}},
     "decay.rings_nilpotent[0]"),
    ("model-check", {**SEEDED, "models": [{"mu": [1.0, 0.0]}], "decay": {
        "rings_semisimple": [5e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0]}},
     "decay.rings_semisimple[0]"),
    ("invariants", {"schema_version": 1, "models": [{"mu": [1.0, 0.0]}],
                    "rings": [0.5, 1.0, 2.0, 4.0]}, "rings"),
    ("invariants", {"schema_version": 1, "models": [{"mu": [1.0, 0.0]}],
                    "rings": [1.0, 2.0, 4.0, 8.0]}, "rings"),
    ("invariants", {"schema_version": 1, "models": [{"kind": "nilpotent"}],
                    "rings": [1.2, 2.0, 4.0, 8.0]}, "rings[0]"),
    # the nilpotent model has no parameters to set
    ("model-check", {**SEEDED, "models": [{"kind": "nilpotent",
                                           "mu": [1.0, 0.0]}]},
     "models[0].mu"),
    ("invariants", {"schema_version": 1, "model_grid": {
        "kind": "nilpotent", "lambda": [[0, 0]], "mu": [[0, 0]],
        "alpha": [0.0, 0.25]}}, "model_grid.alpha"),
    # sampling windows that no draw can land in
    ("spectral", {**SPECTRAL_CFG, "bundle": {
        "lambda": [0.11, 0.07], "mu": [0.0001, 0.0], "r_min": 0.001, "k": 1},
        "residues": {"n_mu": 2}}, "bundle.r_min"),
    ("spectral", {**SPECTRAL_CFG, "dichotomy": {
        "n_mu_zero": 3, "min_lattice_distance": 0.5}},
     "dichotomy.min_lattice_distance"),
    # a flat moduli model has no translation tangents; a moduli grid
    # inside the semisimple core
    ("moduli", {**SEEDED, "n_random_tangents": 0, "model": {
        "lambda": [0.1, 0.05], "mu": [0, 0], "alpha": 0.15}}, "model.mu"),
    ("moduli", {**SEEDED, "grid": {"r_min": 0.0005, "r_max": 40.0}},
     "grid.r_min"),
    # a counting domain must keep to the bundle's radii
    ("spectral", {**SPECTRAL_CFG, "counting": {"domain": [1.0, 10.0]}},
     "counting.domain"),
    # a bundle with no check block would run nothing and pass
    ("spectral", {"schema_version": 1, "bundle": {
        "lambda": [0.11, 0.07], "mu": [1, 0], "r_min": 5, "k": 1}},
     "spectral"),
    # keys only the model sweep reads need a model to sweep
    ("model-check", {**SEEDED, "n_points": 7,
                     "inequalities": {"poincare": {}}}, "n_points"),
    ("model-check", {**SEEDED, "tolerances": {"asd_residual": 1e-30},
                     "inequalities": {"poincare": {}}}, "tolerances"),
    ("model-check", {**SEEDED, "decay": {"exponent_window": 1e-9},
                     "inequalities": {"poincare": {}}}, "decay"),
    # residues need +-xi0 apart: 2 lambda = 1 lies on the dual lattice
    ("spectral", {**SPECTRAL_CFG, "bundle": {
        "lambda": [0.5, 0.0], "mu": [1.0, 0.0], "r_min": 5.0, "k": 1},
        "residues": {"n_mu": 2}}, "residues"),
    # charts with a degenerate member at a sampled c (d = (1 - c f0) / fp0
    # vanishes at c = 0.1 + 0.05i, at c = -0.2i, and falls under 1e-14 at
    # c = 0), a reversed grid and a vanishing chart derivative
    ("moduli", {**SEEDED, "chart": {"f0": [8, -4]}}, "chart"),
    ("moduli", {**SEEDED, "chart": {"f0": [0, 5]}}, "chart"),
    ("moduli", {**SEEDED, "chart": {"fp0": [1e15, 0]}}, "chart"),
    ("moduli", {**SEEDED, "grid": {"r_min": 50, "r_max": 40}}, "grid"),
    ("moduli", {**SEEDED, "chart": {"fp0": [0, 0]}}, "chart.fp0"),
    # a bundle reaching past the default counting radius 1e4, or past the
    # residue and blow-up scans' outer radius spectral.R_FAR
    ("spectral", {**SEEDED, "bundle": {**SPECTRAL_CFG["bundle"],
                                       "r_min": 2e4}, "counting": {}},
     "bundle.r_min"),
    ("spectral", {**SEEDED, "bundle": {**SPECTRAL_CFG["bundle"],
                                       "r_min": 1e31},
                  "dichotomy": {"annulus": [1e31, 1e32]}}, "bundle.r_min"),
    ("spectral", {**SEEDED, "bundle": {**SPECTRAL_CFG["bundle"],
                                       "r_min": 1e31}, "residues": {}},
     "bundle.r_min"),
])
def test_malformed_nested_input_exits_2(tmp_path, capsys, subcommand, cfg,
                                        path):
    rc, out = main_in(tmp_path, subcommand, cfg)
    assert rc == 2
    assert not out.exists()
    assert f"config error: {path} " in capsys.readouterr().err


def test_counting_is_held_to_the_bundle_charge(tmp_path):
    # a charge-1 bundle declared as k = 2 has one jumping point per generic
    # xi, not two: the count fails, and the report is still written
    with open(os.path.join(CONFIGS, "spectral_counting.json")) as fh:
        cfg = json.load(fh)
    cfg["bundle"]["k"] = 2
    cfg.pop("residues")
    rc, out = main_in(tmp_path, "spectral", cfg)
    assert rc == 1
    report = json.loads((out / "spectral_report.json").read_text())
    count = {c["name"]: c for c in report["checks"]}[
        "counting_total_multiplicity"]
    assert not count["pass"]
    assert count["expected_total"] == 2 and count["value"] == 0.0


@pytest.mark.parametrize("torus", [TorusSpec(), TorusSpec(4.0, 7.0)],
                         ids=["2pi", "4x7"])
@pytest.mark.parametrize("side, code", [(0.999, 0), (1.001, 2)],
                         ids=["under", "over"])
def test_counting_runs_up_to_the_dual_inradius(tmp_path, capsys, torus,
                                               side, code):
    # on |w| >= r_min, |zeta(w) - lam| = |mu| / |w| stays under the dual
    # lattice's inradius, so zeta(w) reaches no second translate of lam.
    # 2 lam is as far from the lattice as a twist can be, so the other
    # state -xi0 stays out of reach as well: just under the bound the
    # count holds, and just over it the bundle is a config error
    with open(os.path.join(CONFIGS, "spectral_counting.json")) as fh:
        cfg = json.load(fh)
    cfg.pop("residues")
    cfg["torus"] = {"period_x": torus.period_x, "period_y": torus.period_y}
    b = cfg["bundle"]
    b["lambda"] = [math.pi / torus.period_y / 4, math.pi / torus.period_x / 4]
    b["mu"] = [side * inradius(torus) * b["r_min"], 0.0]
    rc, out = main_in(tmp_path, "spectral", cfg)
    assert rc == code
    if code == 2:
        assert not out.exists()
        assert "config error: bundle: " in capsys.readouterr().err
    else:
        report = json.loads((out / "spectral_report.json").read_text())
        assert [(c["name"], c["value"]) for c in report["checks"]] \
            == [("counting_total_multiplicity", 1.0)]


def counting_cfg(torus, mu=1.0, radius=None, domain=None):
    """The shipped spectral_counting config on `torus` with no residues
    block, the bundle residue mu and, where given, the counting window."""
    with open(os.path.join(CONFIGS, "spectral_counting.json")) as fh:
        cfg = json.load(fh)
    cfg.pop("residues")
    cfg["torus"] = {"period_x": torus.period_x, "period_y": torus.period_y}
    cfg["bundle"]["mu"] = [mu, 0.0]
    c = cfg["counting"]
    c["radius"], c["domain"] = radius or c["radius"], domain or c["domain"]
    return cfg


@pytest.mark.parametrize("torus", [TorusSpec(), TorusSpec(4.0, 7.0)],
                         ids=["2pi", "4x7"])
@pytest.mark.parametrize("edge", ["outer", "inner", "other-state"])
@pytest.mark.parametrize("side, code", [(1e-3, 0), (-1e-3, 2)],
                         ids=["inside", "outside"])
def test_counting_window_edges(tmp_path, capsys, torus, edge, side, code):
    # |mu| = 1, and 2 lam = 0.22 + 0.14i lies 0.2608 from the dual lattice
    # on both tori. Each window sits a relative 1e-3 inside or outside one
    # of the three inequalities and well inside the other two
    gap = lattice_distance(2 * (0.11 + 0.07j), torus)
    radius, domain = {
        # |mu| / r_hi <= radius[0]: the plus point |w| = |mu| / |dz| stays
        # inside r_hi = 100
        "outer": ([(1 + side) / 100, 0.02], [5.0, 100.0]),
        # radius[1] <= |mu| / r_lo: it stays outside r_lo = 10
        "inner": ([0.005, (1 - side) / 10], [10.0, 1e4]),
        # |mu| / r_lo + radius[1] < gap: the other state's points stay
        # inside r_lo
        "other-state": ([0.005, 0.1], [1 / ((1 - side) * (gap - 0.1)), 1e4]),
    }[edge]
    rc, out = main_in(tmp_path, "spectral",
                      counting_cfg(torus, radius=radius, domain=domain))
    assert rc == code
    if code == 2:
        assert not out.exists()
        assert "config error: counting " in capsys.readouterr().err
    else:
        report = json.loads((out / "spectral_report.json").read_text())
        assert [(c["name"], c["value"]) for c in report["checks"]] \
            == [("counting_total_multiplicity", 1.0)]


@pytest.mark.parametrize("cfg", [
    counting_cfg(TorusSpec(), mu=1.24),
    counting_cfg(TorusSpec(), mu=0.05),
    counting_cfg(TorusSpec(), domain=[5.0, 60.0]),
], ids=["mu-1.24", "mu-0.05", "domain-5-60"])
def test_counting_windows_that_miss_the_charge_exit_2(tmp_path, capsys, cfg):
    # each was accepted, then exited 1 with counting_total_multiplicity
    # 0.88, 0.38 and 0.19: the other state's points entered the domain, or
    # the plus point left it
    rc, out = main_in(tmp_path, "spectral", cfg)
    assert rc == 2
    assert not out.exists()
    assert "config error: counting " in capsys.readouterr().err


def test_counting_rule_decides_seeded_bundles(tmp_path):
    # 500 bundles drawn inside BundleModel's bound, each with 40 samples;
    # neither count is capped. A bundle that meets the three inequalities
    # counts bundle.k at every sample (exit 0), and any other is a config
    # error naming counting (exit 2); without the rule, 296 of the others
    # ran and failed the count, and 10 passed on lucky draws
    rnd = random.Random(3)
    u = rnd.uniform
    codes = {}
    for seed in range(500):
        torus = TorusSpec(10 ** u(-0.5, 1.8), 10 ** u(-0.5, 1.8))
        r_min = 10 ** u(0.0, 2.0)
        mu = u(0.01, 0.99) * inradius(torus) * r_min \
            * cmath.exp(1j * u(0.0, TWO_PI))
        lam = complex(u(-1.0, 1.0), u(-1.0, 1.0))
        r_lo = r_min * 10 ** u(0.0, 0.5)
        r_hi = r_lo * 10 ** u(0.3, 4.0)
        rho = sorted(10 ** u(-3.5, -1.0) for _ in range(2))
        cfg = {"schema_version": 1, "seed": seed,
               "torus": {"period_x": torus.period_x,
                         "period_y": torus.period_y},
               "bundle": {"lambda": [lam.real, lam.imag],
                          "mu": [mu.real, mu.imag], "r_min": r_min, "k": 1},
               "counting": {"n_samples": 40, "radius": rho,
                            "domain": [r_lo, r_hi]}}
        meets = (abs(mu) / r_hi <= rho[0] and rho[1] <= abs(mu) / r_lo
                 and abs(mu) / r_lo + rho[1]
                 < lattice_distance(2 * lam, torus))
        try:
            _, code = run("spectral", cfg, out_dir=str(tmp_path), quiet=True)
        except ConfigError as e:
            assert str(e).startswith("counting "), e
            code = 2
        assert code == (0 if meets else 2), cfg
        codes[code] = codes.get(code, 0) + 1
    assert codes == {0: 194, 2: 306}


@pytest.mark.parametrize("subcommand, cfg, path", [
    ("moduli", {**SEEDED, "n_alpah": 3}, "n_alpah"),
    ("moduli", {**SEEDED, "grid": {"n_rr": 8}}, "grid.n_rr"),
    ("spectral", {**SPECTRAL_CFG, "bundle": {**SPECTRAL_CFG["bundle"],
                                             "residue": [1, 0]}},
     "bundle.residue"),
    ("stability", {"schema_version": 1, "obstructions": [
        {"xi0": [0.3, 0.2], "expect": "ok", "mu": [0.3, 0.0]},
        {"xi0": [0.3, 0.2], "expect": "ok", "mu": [0.3, 0.0], "charge": 1}]},
     "obstructions[1].charge"),
    ("model-check", {**SEEDED, "model_grid": {
        "lambda": [[0, 0]], "mu": [[0, 0]], "alpha": [0.0], "alpah": [0.0]}},
     "model_grid.alpah"),
    ("invariants", {"schema_version": 1, "models": [{"mu": [1.0, 0.0]}],
                    "tolerances": {"mu": 2e-4}}, "tolerances"),
    # keys that changed no result, removed from the schemas
    ("spectral", {**SPECTRAL_CFG, "bundle": {**SPECTRAL_CFG["bundle"],
                                             "tail": [[1.0, 0.0]]}},
     "bundle.tail"),
    ("model-check", {**SEEDED, "models": [{"kind": "nilpotent"}],
                     "decay": {"components": "kahler"}}, "decay.components"),
    ("invariants", {"schema_version": 1, "models": [
        {"mu": [1.0, 0.0], "domain": [50.0, 400.0]}]}, "models[0].domain"),
    ("invariants", {"schema_version": 1, "model_grid": {
        "lambda": [[0, 0]], "mu": [[1, 0]], "alpha": [0.0],
        "domain": [300.0, 301.0]}}, "model_grid.domain"),
    ("stability", {"schema_version": 1, "family": {"xi0": [0.3, 0.2]}},
     "family.xi0"),
    ("stability", {"schema_version": 1, "family": {"k": 1}}, "family.k"),
    ("moduli", {**SEEDED, "model": {"kind": "semisimple"}}, "model.kind"),
    # keys moved into the one block that reads them, or held to bundle.k
    ("spectral", {**SPECTRAL_CFG, "domain": [5.0, 10000.0]}, "domain"),
    ("spectral", {**SPECTRAL_CFG, "counting": {
        **SPECTRAL_CFG["counting"], "expected_total": 1}},
     "counting.expected_total"),
    ("invariants", {"schema_version": 1, "seed": 1,
                    "models": [{"mu": [1.0, 0.0]}], "perturbation": {},
                    "tolerances_perturbed": {"mu": 1e-2}},
     "tolerances_perturbed"),
])
def test_unknown_key_exits_2_naming_its_path(tmp_path, capsys, subcommand,
                                             cfg, path):
    rc, out = main_in(tmp_path, subcommand, cfg)
    assert rc == 2
    assert not out.exists()
    assert f"config error: {path} is not a known key" \
        in capsys.readouterr().err


@pytest.mark.parametrize("xi", [[0.5, 0.0], [0.3, 0.2]])
def test_h0_domain_below_r_min_exits_2(tmp_path, capsys, xi):
    # xi = (0.5, 0) is an asymptotic state of lambda = 0.25i, (0.3, 0.2) is not
    cfg = {"schema_version": 1,
           "h0": {"lambda": [0.0, 0.25], "mu": [0.3, 0.0], "xi": xi,
                  "r_min": 5.0, "domain": [2.0, 1000.0]}}
    rc, out = main_in(tmp_path, "stability", cfg)
    assert rc == 2
    assert not out.exists()
    assert "h0.domain" in capsys.readouterr().err



def test_model_domain_at_the_core_edge_runs(tmp_path):
    cfg = {**SEEDED, "models": [{"kind": "nilpotent", "domain": [
        models.DEFAULT_NILPOTENT_R_MIN, 10.0]}]}
    rc, out = main_in(tmp_path, "model-check", cfg)
    assert rc == 0
    assert (out / "model_check_report.json").exists()


def test_invariant_rings_just_beyond_one_write_a_report(tmp_path):
    # accepted; this close to r = 1 the fits miss their tolerances
    cfg = {"schema_version": 1, "models": [{"mu": [1.0, 0.0]}],
           "rings": [1.1, 2.0, 4.0, 8.0]}
    rc, out = main_in(tmp_path, "invariants", cfg)
    assert rc == 1
    assert (out / "invariants_report.json").exists()


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"schema_version": 1, "deep": ' + "[" * 500 + "]" * 500 + "}",
], ids=["unparsable", "under-an-unknown-key"])
def test_deeply_nested_config_exits_2(tmp_path, capsys, text):
    # the first once ended in json's RecursionError, the second in one from
    # a deep copy of the parsed config: each a traceback and exit 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    rc = main(["conventions", "--config", str(cfg_path), "--out", str(out),
               "--quiet"])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


def test_run_leaves_the_callers_config_unchanged(tmp_path):
    for subcommand, name in SUITE:
        with open(os.path.join(CONFIGS, name)) as fh:
            cfg = json.load(fh)
        before = copy.deepcopy(cfg)
        run(subcommand, cfg, out_dir=str(tmp_path / name), quiet=True)
        assert cfg == before, name


def test_run_all_suites_names_a_deeply_nested_config(tmp_path):
    configs = tmp_path / "configs"
    shutil.copytree(CONFIGS, configs)
    (configs / "conventions.json").write_text("[" * 100000 + "]" * 100000)
    proc = subprocess.run(
        [sys.executable, RUN_ALL_SUITES, "--configs", str(configs),
         "--out", str(tmp_path / "out"), "--quiet"],
        env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "config error: conventions: config nests too deeply to parse"]


def _assert_failed_unevaluated(check, out_dir, report_name):
    assert check["pass"] is False
    assert check["value"] is None and check["margin"] is None
    assert check["reason"] == "value is nan"
    strict_json((out_dir / report_name).read_text())


def test_a_nan_sample_fails_the_model_sweep(tmp_path, monkeypatch):
    # a NaN in the second model's residuals once read as the first model's
    # finite sup: Python's max keeps a NaN only in first place
    calls, residual = [], cli.asd_residual

    def planted(conn, points):
        out = residual(conn, points)
        calls.append(1)
        if len(calls) == 2:
            out[3] = math.nan
        return out

    monkeypatch.setattr(cli, "asd_residual", planted)
    cfg = {**SEEDED, "n_points": 20,
           "models": [{"mu": [1.0, 0.0]}, {"mu": [0.5, 0.0]}]}
    report, code = run("model-check", cfg, out_dir=str(tmp_path), quiet=True)
    assert code == 1 and len(calls) == 2
    [check] = report["checks"]
    assert check["name"] == "asd_residual_sup_semisimple"
    _assert_failed_unevaluated(check, tmp_path, "model_check_report.json")


def test_a_nan_gap_fails_the_fourier_gap_check(tmp_path, monkeypatch):
    # a least gap starting from inf kept inf past a NaN, and inf passed
    gap = cli.fourier_gap

    def planted(*args):
        out = gap(*args)
        out[0] = math.nan
        return out

    monkeypatch.setattr(cli, "fourier_gap", planted)
    report, code = run("model-check", {**SEEDED, "inequalities": {
        "fourier_gap": {"n_samples": 100}}}, out_dir=str(tmp_path),
        quiet=True)
    assert code == 1
    [check] = report["checks"]
    assert check["name"] == "fourier_gap_min"
    _assert_failed_unevaluated(check, tmp_path, "model_check_report.json")


def test_overflowing_model_check_fails_in_strict_json(tmp_path):
    # the model's partials overflow at these radii, so every residual is
    # NaN; the sweep's sup once read 0.0 and passed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        **SEEDED, "n_points": 50,
        "models": [{"mu": [1, 0], "domain": [1e200, 1e300]}]}))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "ipl.cli", "model-check", "--config",
         str(cfg_path), "--out", str(out), "--quiet"],
        env=SRC_ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    report = strict_json((out / "model_check_report.json").read_text())
    [check] = report["checks"]
    assert check["pass"] is False and check["value"] is None
    assert check["reason"] == "value is nan"


@pytest.mark.parametrize("container", [list, np.array],
                         ids=["list", "array"])
@pytest.mark.parametrize("where", [0, 2, 4],
                         ids=["first", "middle", "last"])
@pytest.mark.parametrize("constructor, bound, bad", [
    (cli._leq_check, 1.0, math.nan), (cli._leq_check, 1.0, math.inf),
    (cli._geq_check, -1.0, math.nan), (cli._geq_check, -1.0, -math.inf)],
    ids=["leq-nan", "leq-inf", "geq-nan", "geq-minus-inf"])
def test_a_bad_sample_fails_its_check_wherever_it_lies(
        constructor, bound, bad, where, container):
    samples = [0.1, 0.2, 0.3, 0.4, 0.5]
    samples[where] = bad
    check = constructor("row", container(samples), bound)
    assert check["pass"] is False
    assert check["reason"] == f"value is {bad}"
    assert math.isnan(check["value"]) if math.isnan(bad) \
        else check["value"] == bad


@pytest.mark.parametrize("constructor", [cli._leq_check, cli._geq_check],
                         ids=["leq", "geq"])
@pytest.mark.parametrize("samples", [[], np.zeros(0), np.zeros((0, 3))],
                         ids=["list", "array", "empty-rows"])
def test_no_samples_fail_unevaluated_with_the_callers_reason(constructor,
                                                             samples):
    check = constructor("row", samples, 0.5, empty="nothing to read",
                        n=0)
    assert check == {"name": "row", "value": None, "tolerance": 0.5,
                     "margin": None, "pass": False,
                     "reason": "nothing to read", "n": 0}


def test_an_integer_count_stays_an_integer():
    for count, passed in ((0, True), (3, False)):
        check = cli._leq_check("failed", count, 0)
        assert type(check["value"]) is int and check["value"] == count
        assert type(check["margin"]) is int and check["margin"] == -count
        assert check["pass"] is passed


@pytest.mark.parametrize("bound, tolerance, margin", [
    (1.0, 2.0, 0.5), (1.5, 1.5, 0.0), (2.0, 1.0, -0.5)])
def test_margins_are_signed_on_the_passing_side(bound, tolerance, margin):
    # value - bound for the least sample, tolerance - value for the largest
    low = cli._geq_check("least", np.array([3.0, 1.5, 2.0]), bound)
    high = cli._leq_check("largest", [0.5, 1.5, -3.0], tolerance)
    for check in (low, high):
        assert (check["value"], check["margin"], check["pass"]) \
            == (1.5, margin, margin >= 0)


def _self_dual_doubled(f, axis=-2):
    return gauge.self_dual(f, axis) * 2.0


def _self_dual_slot_twice(f, axis=-2):
    f = np.moveaxis(f, axis, 0)
    return np.stack([f[0] + f[5], f[1] - f[4], f[2] + f[4]], axis=axis) * 0.5


def _self_dual_sign_flipped(f, axis=-2):
    f = np.moveaxis(f, axis, 0)
    return np.stack([f[0] + f[5], f[1] + f[4], f[2] + f[3]], axis=axis) * 0.5


def _self_dual_other_pairing(f, axis=-2):
    f = np.moveaxis(f, axis, 0)
    return np.stack([f[0] + f[5], f[1] + f[3], f[2] + f[4]], axis=axis) * 0.5


@pytest.mark.parametrize("fault, involution, orientation", [
    (_self_dual_doubled, 24.0, 3.0),
    (_self_dual_slot_twice, 2.0, 1.0),
    # every sign choice, and every pairing of the six slots, gives an
    # involution with zero trace; only the star from eps_ijkl on the
    # positive coframe pins the orientation and the pairing
    (_self_dual_sign_flipped, 0.0, 2.0),
    (_self_dual_other_pairing, 0.0, 1.0),
], ids=["factor-one", "slot-twice", "sign-flipped", "pairing-05-13-24"])
def test_hodge_star_checks_read_gauge_self_dual(tmp_path, monkeypatch, fault,
                                                involution, orientation):
    monkeypatch.setattr(cli, "self_dual", fault)
    report, code = run("conventions", {"schema_version": 1},
                       out_dir=str(tmp_path), quiet=True)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["hodge_star_involution"]["value"] == involution
    assert checks["hodge_star_orientation"]["value"] == orientation
    assert not checks["hodge_star_orientation"]["pass"]
    assert code == 1
