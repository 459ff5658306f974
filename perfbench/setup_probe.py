"""One set-up sample: a fresh interpreter imports `ipl`, loads the
workload's configs and validates each one, then prints "ready".

    python3 perfbench/setup_probe.py WORKLOAD SEED

run.py times this process from its start until the "ready" line.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ipl.cli as cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    for sub, _, cfg in workloads.load(ROOT, workload, seed):
        validate, _ = cli._PIPELINES[sub]
        validate(cfg)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
