"""Tests for the verification CLI: config validation before any writes,
report structure, CSV artifacts, seeded determinism, and exit codes."""

import json
import os

import numpy as np
import pytest

from ipl import models
from ipl.cli import GAP_SCAN_BLOCK, ConfigError, SUBCOMMANDS, SUITE, \
    _fourier_gap_scan, main, run
from ipl.geometry import TorusSpec

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
SPECTRAL_CFG = {
    "schema_version": 1,
    "seed": 5,
    "bundle": {"lambda": [0.11, 0.07], "mu": [1.0, 0.0], "r_min": 5.0, "k": 1},
    "domain": [5.0, 10000.0],
    "counting": {"n_samples": 5, "radius": [0.005, 0.02], "expected_total": 1},
}


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
    # an order-two flat limit with mu != 0 defeats the residue fit; the
    # failure must become a failed check in a written report, not a raise
    cfg = {
        "schema_version": 1,
        "models": [{"lambda": [0.0, 0.25], "mu": [0.3, -0.2], "alpha": 0.0},
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
    assert "residual" in failed[0]["models"][0]["error"]
    records = json.loads((out / "invariants.json").read_text())["models"]
    assert records[0]["error"] == failed[0]["models"][0]["error"]
    assert "extracted" not in records[0]
    assert "k_estimate" not in records[1]["extracted"]
    assert records[1]["errors"]["mu"] < 1e-4


def test_pass_with_no_extracted_model_fails_its_error_checks(tmp_path):
    # maxima over zero models must not read 0.0 and pass: with every
    # extraction failed, the error and kind checks are reported unevaluated
    cfg = {"schema_version": 1,
           "models": [{"lambda": [0.0, 0.25], "mu": [0.3, -0.2]}]}
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


# Seven of the nine shipped configs pass on any torus. The other two expect
# values that hold on the 2 pi x 2 pi torus only, with no defect elsewhere:
# stability_table's h0 case needs lambda = 0.25i to be order two, and
# spectral_counting expects a total of 1, but on 2 pi x 3 pi, 2 lambda
# reduces to 0.18, below |mu| / r_min = 0.2, so the minus branch has a
# genuine root in the annulus.
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
    # these seeds draw a residue |mu| below 0.12, whose jumping point a
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


def test_seed_override_via_main(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SPECTRAL_CFG))
    out = tmp_path / "out"
    rc = main(["spectral", "--config", str(cfg_path), "--out", str(out),
               "--seed", "99", "--quiet"])
    assert rc == 0
    report = json.loads((out / "spectral_report.json").read_text())
    assert report["inputs"]["seed"] == 99


def test_thread_budget_recorded(tmp_path, monkeypatch):
    monkeypatch.setenv("IPL_THREADS", "3")
    report, _ = run("conventions", {"schema_version": 1},
                    out_dir=str(tmp_path), quiet=True)
    assert report["provenance"]["threads"] == 3


@pytest.mark.parametrize("n_samples", [1, 4095, 4097, 12345])
def test_fourier_gap_scan_returns_exactly_n_samples(n_samples):
    assert n_samples % GAP_SCAN_BLOCK
    gap_min, n_done = _fourier_gap_scan(np.random.default_rng(0),
                                        TorusSpec(), n_samples)
    assert n_done == n_samples
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
                                     TorusSpec(), 10000)[0]
             for seed in range(41)}
    assert all(g >= -1e-15 for g in worst.values()), worst


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
    # boolean value, no numeric bound
    assert conv["hash_stable"]["margin"] is None
    gap = checks("model-check", {**SEEDED, "inequalities": {
        "fourier_gap": {"n_samples": 100}}})["fourier_gap_min"]
    # value >= -1e-15: value + 1e-15
    assert gap["margin"] == gap["value"] + 1e-15 > 0
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
])
def test_malformed_nested_input_exits_2(tmp_path, capsys, subcommand, cfg,
                                        path):
    rc, out = main_in(tmp_path, subcommand, cfg)
    assert rc == 2
    assert not out.exists()
    assert f"config error: {path} " in capsys.readouterr().err


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
