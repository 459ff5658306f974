"""Acceptance gate: each numbered criterion drives exactly one CLI
pipeline invocation at its stated tolerance and prints one pass/fail
line; the final criterion replays the whole suite and demands bytewise
agreement up to timing. A last test reads the margins of the shipped
reports' lower-bound checks."""

import json
import time
from pathlib import Path

import pytest

from ipl.cli import SUITE, run
from ipl.gauge import DRIFT_STEPS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_suite(root):
    results = {}
    for subcommand, name in SUITE:
        out_dir = root / name[:-5]
        t0 = time.perf_counter()
        report, code = run(subcommand, str(CONFIG_DIR / name),
                           out_dir=str(out_dir), quiet=True)
        results[name[:-5]] = {
            "report": report,
            "code": code,
            "elapsed": time.perf_counter() - t0,
            "out_dir": out_dir,
        }
    return results


@pytest.fixture(scope="session")
def suite(tmp_path_factory):
    return run_suite(tmp_path_factory.mktemp("acceptance"))


def check(report, name):
    for c in report["checks"]:
        if c["name"] == name:
            return c
    raise AssertionError(f"missing check {name!r}")


def finish(n, label, ok, detail):
    print(f"criterion {n} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {n} ({label}): {detail}"


def test_criterion_1_exact_solution_residuals(suite):
    r = suite["model_check_exact"]
    rep = r["report"]
    semi = check(rep, "asd_residual_sup_semisimple")
    nil = check(rep, "asd_residual_sup_nilpotent")
    hit = check(rep, "hitchin_residual_sup_nilpotent")
    ok = (r["code"] == 0 and rep["passed"]
          and semi["tolerance"] == 1e-8
          and nil["tolerance"] == 1e-6 and hit["tolerance"] == 1e-6
          and rep["inputs"]["n_points"] == 1000
          and r["elapsed"] < 30.0)
    finish(1, "exact-solution residuals", ok,
           f"semisimple sup {semi['value']:.2e} <= 1e-8, nilpotent "
           f"{nil['value']:.2e}/{hit['value']:.2e} <= 1e-6, "
           f"{r['elapsed']:.1f}s < 30s")


def test_criterion_2_decay_laws(suite):
    r = suite["model_check_decay"]
    rep = r["report"]
    devs = [c for c in rep["checks"] if c["name"].startswith("decay_exponent_dev")]
    logs = [c for c in rep["checks"] if c["name"].startswith("decay_log_power_dev")]
    ok = (r["code"] == 0 and rep["passed"]
          and len(devs) == 4 and all(c["tolerance"] == 0.05 for c in devs)
          and len(logs) == 1 and logs[0]["tolerance"] == 0.3
          and r["elapsed"] < 60.0)
    worst = max(c["value"] for c in devs)
    finish(2, "decay laws", ok,
           f"exponent dev max {worst:.2e} <= 0.05, log-power dev "
           f"{logs[0]['value']:.2e} <= 0.3, {r['elapsed']:.1f}s < 60s")


def test_criterion_3_invariant_round_trip(suite):
    r = suite["invariants_roundtrip"]
    rep = r["report"]
    tols = {"lambda_error_max_clean": 1e-4, "alpha_error_max_clean": 1e-6,
            "mu_error_max_clean": 1e-4, "lambda_error_max_perturbed": 1e-2,
            "alpha_error_max_perturbed": 1e-3, "mu_error_max_perturbed": 1e-2}
    pins = all(check(rep, k)["tolerance"] == v for k, v in tols.items())
    grid = rep["inputs"]["model_grid"]
    n_grid = len(grid["lambda"]) * len(grid["mu"]) * len(grid["alpha"])
    ok = (r["code"] == 0 and rep["passed"] and pins
          and check(rep, "kind_detected_clean")["pass"]
          and n_grid == 27
          and r["elapsed"] < 300.0)
    finish(3, "invariant round trip", ok,
           f"clean (lam,alpha,mu) errors "
           f"({check(rep, 'lambda_error_max_clean')['value']:.1e}, "
           f"{check(rep, 'alpha_error_max_clean')['value']:.1e}, "
           f"{check(rep, 'mu_error_max_clean')['value']:.1e}), perturbed "
           f"({check(rep, 'lambda_error_max_perturbed')['value']:.1e}, "
           f"{check(rep, 'alpha_error_max_perturbed')['value']:.1e}, "
           f"{check(rep, 'mu_error_max_perturbed')['value']:.1e}), "
           f"{r['elapsed']:.1f}s < 300s")


def test_criterion_4_spectral_correspondence(suite):
    r = suite["spectral_counting"]
    rep = r["report"]
    count = check(rep, "counting_total_multiplicity")
    res = check(rep, "phi_residue_error_max")
    ok = (r["code"] == 0 and rep["passed"]
          and rep["inputs"]["counting"]["n_samples"] == 100
          and count["pass"] and count["value"] == 1.0
          and rep["inputs"]["residues"]["n_mu"] == 10
          and res["tolerance"] == 1e-8
          and r["elapsed"] < 10.0)
    finish(4, "spectral correspondence", ok,
           f"100/100 samples multiplicity 1, residue error "
           f"{res['value']:.2e} <= 1e-8, {r['elapsed']:.1f}s < 10s")


def test_criterion_5_eigenvalue_dichotomy(suite):
    r = suite["spectral_dichotomy"]
    rep = r["report"]
    blow = check(rep, "blowup_ratio_min")
    zero = check(rep, "mu_zero_jumping_points")
    ok = (r["code"] == 0 and rep["passed"]
          and blow["pass"] and blow["value"] >= 1.0
          and zero["pass"] and zero["value"] == 0
          and r["elapsed"] < 10.0)
    finish(5, "eigenvalue dichotomy", ok,
           f"blow-up ratio min {blow['value']:.3f} >= 1, mu=0 jumping "
           f"points {zero['value']}, {r['elapsed']:.1f}s < 10s")


def test_criterion_6_inequality_suite(suite):
    r = suite["inequalities"]
    rep = r["report"]
    gap = check(rep, "fourier_gap_min")
    drift = check(rep, "monodromy_drift_defect_max")
    step = check(rep, "monodromy_drift_step_error")
    weitz = check(rep, "weitzenbock_defect_max")
    poin = check(rep, "poincare_vs_rayleigh_rel")
    ineq = rep["inputs"]["inequalities"]
    ok = (r["code"] == 0 and rep["passed"]
          and ineq["fourier_gap"]["n_samples"] == 10000
          and gap["value"] >= 0.0
          and drift["tolerance"] == 1e-3
          and step["pass"] and step["tolerance"] == 0.1 * 1e-3
          and step["steps"] == DRIFT_STEPS
          and step["value"] == max(step["per_family"].values())
          and sorted(step["per_family"]) == sorted(drift["per_family"])
          == ["abelian", "flat", "perturbed-flat"]
          and ineq["weitzenbock"]["n_fixtures"] == 20
          and weitz["tolerance"] == 1e-6
          and poin["tolerance"] == 0.01
          and r["elapsed"] < 120.0)
    finish(6, "inequality suite", ok,
           f"gap min {gap['value']:.2e} >= 0 on 10^4 samples, drift "
           f"{drift['value']:.2e} <= 1e-3, its {DRIFT_STEPS}-step halving "
           f"error {step['value']:.2e} <= 1e-4, weitzenbock "
           f"{weitz['value']:.2e} <= 1e-6, poincare rel "
           f"{poin['value']:.2e} <= 1e-2, {r['elapsed']:.1f}s < 120s")


def test_criterion_7_stability_and_obstructions(suite):
    r = suite["stability_table"]
    rep = r["report"]
    fam = check(rep, "family_all_unstable")
    obs = check(rep, "obstruction_table_matches")
    h0 = check(rep, "h0_contradiction_surfaced")
    ok = (r["code"] == 0 and rep["passed"]
          and fam["value"] == "25/25" and obs["value"] == "8/8"
          and h0["pass"] and r["elapsed"] < 1.0)
    finish(7, "stability and obstructions", ok,
           f"family {fam['value']} unstable, obstruction table "
           f"{obs['value']}, h0 contradiction count {h0['value']}, "
           f"{r['elapsed']:.2f}s < 1s")


def test_criterion_8_moduli_layer(suite):
    r = suite["moduli_suite"]
    rep = r["report"]
    quat = check(rep, "quaternion_relations")
    wsum = check(rep, "parabolic_weight_zero_sum")
    dim = check(rep, "dimension_matches_chart")
    sym = check(rep, "l2_metric_symmetry")
    pos = check(rep, "l2_metric_positive")
    ok = (r["code"] == 0 and rep["passed"]
          and quat["value"] == 0.0 and wsum["value"] == 0.0
          and rep["inputs"]["n_alpha"] == 100
          and dim["value"] == 4 and sym["pass"] and pos["pass"]
          and r["elapsed"] < 10.0)
    finish(8, "moduli layer", ok,
           f"quaternion dev {quat['value']}, weight zero-sum "
           f"{wsum['value']} over 100 alpha, dim(1) = {dim['value']} = 2+2 "
           f"chart, metric symmetric/positive, {r['elapsed']:.1f}s < 10s")


def test_criterion_9_determinism(suite, tmp_path_factory):
    t0 = time.perf_counter()
    replay = run_suite(tmp_path_factory.mktemp("acceptance_replay"))
    elapsed_b = time.perf_counter() - t0
    mismatched = []
    for stem, second in replay.items():
        first = suite[stem]
        for path_a in sorted(first["out_dir"].iterdir()):
            path_b = second["out_dir"] / path_a.name
            if path_a.name.endswith("_report.json"):
                rep_a = json.loads(path_a.read_text())
                rep_b = json.loads(path_b.read_text())
                rep_a.pop("wall_time_s")
                rep_b.pop("wall_time_s")
                same = (json.dumps(rep_a, sort_keys=True)
                        == json.dumps(rep_b, sort_keys=True))
            else:
                same = path_a.read_bytes() == path_b.read_bytes()
            if not same:
                mismatched.append(f"{stem}/{path_a.name}")
    total = sum(r["elapsed"] for r in suite.values()) + elapsed_b
    ok = not mismatched and total < 600.0
    finish(9, "determinism", ok,
           f"{len(replay)} pipelines replayed identically up to timing"
           f"{'' if not mismatched else ': ' + ', '.join(mismatched)}, "
           f"two full passes {total:.1f}s < 600s")


def test_lower_bound_rows_report_value_minus_tolerance(suite):
    # the shipped reports' value >= tolerance rows (value > tolerance for
    # l2_metric_positive); their margin is value - tolerance, so a bound
    # reported with the wrong sign shows up here
    rows = {"fourier_gap_min": "inequalities",
            "blowup_ratio_min": "spectral_dichotomy",
            "l2_metric_positive": "moduli_suite"}
    for name, stem in rows.items():
        row = check(suite[stem]["report"], name)
        assert row["margin"] == row["value"] - row["tolerance"], row
