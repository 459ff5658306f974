"""Run every verification pipeline config and summarize the results.

Usage:
    python3 scripts/run_all_suites.py [--out OUT_DIR] [--quiet]

Exit code is 0 only if every pipeline passes, 1 if some pipeline ran and
failed a check, and 2 if some config could not be read or validated (each
such config is named on stderr as "config error: <stem>: <message>").
"""

import argparse
import sys
import time
from pathlib import Path

from ipl.cli import SUITE, ConfigError, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", default=None,
                    help="config directory (default: configs/ next to this "
                         "script's repository root)")
    ap.add_argument("--out", default="out/suite",
                    help="root output directory (default out/suite)")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the per-check lines")
    args = ap.parse_args()

    root = Path(args.configs) if args.configs else \
        Path(__file__).resolve().parent.parent / "configs"
    out_root = Path(args.out)

    worst = 0
    t0 = time.perf_counter()
    for subcommand, name in SUITE:
        stem = name[:-5]
        t1 = time.perf_counter()
        try:
            report, code = run(subcommand, str(root / name),
                               out_dir=str(out_root / stem), quiet=args.quiet)
        except ConfigError as e:
            print(f"config error: {stem}: {e}", file=sys.stderr)
            worst = 2
            continue
        dt = time.perf_counter() - t1
        n_ok = sum(1 for c in report["checks"] if c["pass"])
        status = "ok" if code == 0 else "FAIL"
        print(f"{stem:24s} {status:4s} {n_ok}/{len(report['checks'])} "
              f"checks  {dt:6.2f}s")
        worst = max(worst, code)
    print(f"total {time.perf_counter() - t0:.1f}s; reports under {out_root}/")
    return worst


if __name__ == "__main__":
    sys.exit(main())
