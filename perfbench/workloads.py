"""The benchmark's workloads: which shipped configs run, in which order, and
how the workload seed reaches them.

Each workload is a list of (subcommand, stem, config) triples, run back to
back through `ipl.cli.run` as one pass. The seed is written into every
config as its "seed" key, exactly as `ipl SUBCOMMAND --seed N` does.
"""

from __future__ import annotations

import json
from pathlib import Path

# (subcommand, config stem under configs/)
SUITES = {
    "invariants": (("invariants", "invariants_roundtrip"),),
    "inequalities": (("model-check", "inequalities"),),
    "light-suite": (
        ("conventions", "conventions"),
        ("model-check", "model_check_exact"),
        ("model-check", "model_check_decay"),
        ("spectral", "spectral_counting"),
        ("spectral", "spectral_dichotomy"),
        ("stability", "stability_table"),
        ("moduli", "moduli_suite"),
    ),
}


def latin_square_models(grid: dict) -> list:
    """The 9 of the 27 (lambda, mu, alpha) grid points with index sum
    divisible by 3: every value of each parameter appears three times and
    every pair of values once. One full invariants pass over all 27 models
    takes about 37 s on a 2-core Xeon, too long for two same-seed passes
    inside one benchmark run, so the workload keeps this balanced third."""
    lams, mus, alphas = grid["lambda"], grid["mu"], grid["alpha"]
    kind = grid.get("kind", "semisimple")
    return [{"kind": kind, "lambda": lams[i], "mu": mus[j],
             "alpha": alphas[k]}
            for i in range(len(lams)) for j in range(len(mus))
            for k in range(len(alphas)) if (i + j + k) % 3 == 0]


def config_paths(root: Path, workload: str) -> list:
    return [root / "configs" / f"{stem}.json" for _, stem in SUITES[workload]]


def load(root: Path, workload: str, seed: int) -> list:
    """[(subcommand, stem, config dict)] for one pass of the workload."""
    out = []
    for (sub, stem), path in zip(SUITES[workload],
                                 config_paths(root, workload)):
        with open(path) as fh:
            cfg = json.load(fh)
        cfg["seed"] = seed
        if workload == "invariants":
            cfg["models"] = latin_square_models(cfg.pop("model_grid"))
        out.append((sub, stem, cfg))
    return out
