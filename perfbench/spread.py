"""Run-to-run spread of the end-to-end metrics against BENCHMARK.json.

    python3 perfbench/spread.py --workloads invariants light-suite \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--sets 2]

Runs the benchmark once per seed (and per set) for BENCHMARK.json's
run_seconds, then prints for each workload and metric the median, the
quartiles (statistics.quantiles, n=4), the quartile distance as a share of the median next to the metric's
bound, and with two sets how far the second median moved from the first.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    for workload in args.workloads:
        sets = []
        for _ in range(args.sets):
            results = []
            for seed in args.seeds:
                res = run_once(workload, seed, spec["run_seconds"])
                results.append(res)
                print(f"{workload} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      + " ".join(f"{k}={v['value']:.6g}"
                                 for k, v in res["metrics"].items()),
                      flush=True)
            sets.append(results)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for results in sets:
                vals = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                medians.append(med)
                print(f"  {workload:12s} {name:12s} median {med:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {(q3 - q1) / med:.4f} "
                      f"(bound {bound}, a third {bound / 3:.4f})")
            if len(medians) > 1:
                worse = (medians[-1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                print(f"  {workload:12s} {name:12s} second median worse by "
                      f"{worse:+.4f} (bound {bound})")


if __name__ == "__main__":
    main()
