"""ipl benchmark: runs one workload through `ipl.cli.run` in a closed loop
(each pass starts when the previous pass's reports are written) and prints
the end-to-end metrics, or with --trace 1 the per-layer metrics.

    python3 perfbench/run.py --workload invariants --seed 7 --seconds 30 \
        --trace 0

Every pass of a run uses the same seed, so all passes must write the same
reports and artifacts (wall_time_s aside); a run where they differ is
reported as incorrect. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. An operation is one
check of a pass; later passes repeat the first pass's operations (their
outputs are compared with it) and are not counted again, so attempted and
failed depend on the workload and seed alone, not on how many passes fit
into --seconds. See README.md for the
workloads and what each metric is expected to show.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads, so the baseline is a
# plain single-threaded run; the values found are recorded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
THREAD_ENV_FOUND = {v: os.environ.get(v) for v in THREAD_VARS + ("IPL_THREADS",)}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
MARGIN_CAP = 16.0  # decades reported for a value of exactly 0


# ---------------------------------------------------------------------------
# one pass and its output check

def cpu_seconds():
    """CPU time of this process and of its children that have ended, so
    work moved into worker processes still counts."""
    t = os.times()  # 10 ms ticks; process_time is finer for this process
    return time.process_time() + t.children_user + t.children_system


def run_pass(cli, pipelines, out_dirs):
    """Runs every pipeline once; returns (wall_s, cpu_s, outcomes), where an
    outcome is the exit code or the exception the pipeline raised."""
    for d in out_dirs:
        shutil.rmtree(d, ignore_errors=True)
    outcomes = []
    t0, c0 = time.perf_counter(), cpu_seconds()
    for (sub, _, cfg), d in zip(pipelines, out_dirs):
        try:
            _, code = cli.run(sub, cfg, out_dir=str(d), quiet=True)
            outcomes.append(code)
        except Exception as e:  # counted as a failed operation; run goes on
            outcomes.append(e)
    return time.perf_counter() - t0, cpu_seconds() - c0, outcomes


def leq_margin(check):
    """log10(tolerance / value) of a `value <= tolerance` check, else None.
    A check is read as one when both are nonnegative numbers, the
    tolerance is positive and the verdict equals value <= tolerance."""
    v, tol = check.get("value"), check.get("tolerance")
    numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                  for x in (v, tol))
    if not numeric or tol <= 0 or v < 0 or check.get("pass") != (v <= tol):
        return None
    return MARGIN_CAP if v == 0 else min(MARGIN_CAP, math.log10(tol / v))


def inspect_pass(pipelines, out_dirs, outcomes):
    """Reads back every report and artifact the pass wrote. Returns the
    operation counts, the check margins, a snapshot for the same-seed
    comparison (report text without wall_time_s, artifact bytes, or the
    error raised), and any inconsistency between exit code and report."""
    res = {"attempted": 0, "failed": 0, "margins": [], "snapshot": {},
           "problems": [], "raised": [], "failed_checks": []}
    for (sub, stem, _), d, outcome in zip(pipelines, out_dirs, outcomes):
        if isinstance(outcome, Exception):
            msg = f"{type(outcome).__name__}: {outcome}"
            res["attempted"] += 1
            res["failed"] += 1
            res["raised"].append(f"{stem}: {msg}")
            res["snapshot"][stem] = msg
            continue
        report_name = f"{sub.replace('-', '_')}_report.json"
        files = {}
        report = None
        for path in sorted(d.iterdir()):
            if path.name == report_name:
                report = json.loads(path.read_text())
                stripped = dict(report)
                stripped.pop("wall_time_s", None)
                files[path.name] = json.dumps(stripped, sort_keys=True)
            else:
                files[path.name] = path.read_bytes()
        res["snapshot"][stem] = files
        if report is None or not report.get("checks"):
            res["problems"].append(f"{stem}: no report or no checks written")
            res["attempted"] += 1
            res["failed"] += 1
            continue
        checks = report["checks"]
        verdicts = [bool(c["pass"]) for c in checks]
        res["attempted"] += len(checks)
        res["failed"] += verdicts.count(False)
        res["failed_checks"] += [
            f"{stem}/{c['name']}: value {c.get('value')} tolerance "
            f"{c.get('tolerance')}" for c in checks if not c["pass"]]
        if report["passed"] != all(verdicts) \
                or outcome != (0 if all(verdicts) else 1):
            res["problems"].append(
                f"{stem}: exit code {outcome} disagrees with the report")
        if set(files) != set(report["artifacts"]) | {report_name}:
            res["problems"].append(f"{stem}: files written {sorted(files)} "
                                   f"differ from the report's artifacts")
        for c in checks:
            m = leq_margin(c)
            if m is not None:
                res["margins"].append((m, f"{stem}/{c['name']}"))
    return res


def snapshot_diff(a, b):
    """Names of the pipelines/files on which two snapshots differ."""
    out = []
    for stem in sorted(set(a) | set(b)):
        x, y = a.get(stem), b.get(stem)
        if isinstance(x, dict) and isinstance(y, dict):
            out += [f"{stem}/{f}" for f in sorted(set(x) | set(y))
                    if x.get(f) != y.get(f)]
        elif x != y:
            out.append(stem)
    return out


def closed_loop(cli, pipelines, out_dirs, seconds, min_passes, ref=None,
                tracer=None, probes=None):
    """Runs passes back to back for about `seconds` (at least min_passes);
    a pass is not started when half a typical pass would overrun. Each
    pass's outputs are compared with `ref`, the snapshot of the run's first
    pass, at once, so memory does not grow with the pass count. Returns
    (passes, ref). Set-up probes, if given, run between passes."""
    passes = []
    start = time.perf_counter()
    while True:
        if len(passes) >= min_passes:
            typical = statistics.median(p["wall_s"] for p in passes)
            if time.perf_counter() - start + 0.5 * typical >= seconds:
                return passes, ref
        if probes is not None:
            probes.keep_pace((time.perf_counter() - start) / seconds)
        wall, cpu, outcomes = run_pass(cli, pipelines, out_dirs)
        p = {"wall_s": wall, "cpu_s": cpu,
             **inspect_pass(pipelines, out_dirs, outcomes)}
        snapshot = p.pop("snapshot")
        if ref is None:
            ref = snapshot
        p["mismatched"] = snapshot_diff(ref, snapshot)
        if tracer is not None:
            p["layers"] = tracer.pass_metrics(wall)
            p["spans"] = tracer.dump()
            tracer.reset()
            if passes:
                passes[-1].pop("spans")
        passes.append(p)


# ---------------------------------------------------------------------------
# set-up time

class SetupProbes:
    """Set-up samples: seconds from the start of a fresh interpreter until
    it has imported ipl and loaded and validated the workload's configs.
    The samples are spread over the run (a burst of load on the host then
    moves a few of them, not all), and the median is reported."""

    def __init__(self, workload, seed, n):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload,
                    str(seed)]
        self.n = n
        self.times = []

    def _probe(self):
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, env=self.env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        return t1 - t0

    def keep_pace(self, share):
        """Probes until the count matches `share` of the run (at least 1)."""
        while len(self.times) < max(1, math.ceil(self.n * min(share, 1.0))):
            self.times.append(self._probe())


# ---------------------------------------------------------------------------
# reporting

def tail(values):
    """(percentile, value) of the highest percentile that has at least ten
    samples beyond it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name, values, unit):
    med = statistics.median(values)
    t = tail(values)
    extra = (f"p{t[0]:.0f} {t[1]:.6g}" if t
             else "no tail percentile (fewer than 11 samples)")
    return f"  {name:24s} {med:12.6g} {unit:6s} median; {extra}; n={len(values)}"


def provenance(np, cli):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    affinity = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": affinity, "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": commit,
        "thread_env_found": THREAD_ENV_FOUND,
        "thread_env_pinned": {v: os.environ[v] for v in THREAD_VARS},
        "ipl_threads": cli.max_workers(),
    }


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.SUITES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    needed = [ROOT / "src" / "ipl" / "cli.py"] + workloads.config_paths(
        ROOT, args.workload)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not an ipl checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import ipl.cli as cli

    prov = provenance(np, cli)
    print(f"# ipl benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for k, v in prov.items():
        print(f"# {k}: {v}")

    pipelines = workloads.load(ROOT, args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    out_dirs = [work / f"{i}-{stem}" for i, (_, stem, _) in
                enumerate(pipelines)]
    try:
        if args.trace:
            t_start = time.perf_counter()
            plain, ref = closed_loop(cli, pipelines, out_dirs,
                                     args.seconds / 3, 1)
            tracer = layertrace.Tracer(PER_LAYER)
            tracer.install()
            try:
                remaining = args.seconds - (time.perf_counter() - t_start)
                traced, _ = closed_loop(cli, pipelines, out_dirs, remaining,
                                        2, ref, tracer)
            finally:
                tracer.uninstall()
        else:
            probes = SetupProbes(args.workload, args.seed, SETUP_PROBES)
            plain, _ = closed_loop(cli, pipelines, out_dirs, args.seconds, 2,
                                   probes=probes)
            probes.keep_pace(1.0)
            traced = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes = plain + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- output checks ------------------------------------------------------
    problems = sorted({m for p in passes for m in p["problems"]})
    mismatched = sorted({f for p in passes for f in p["mismatched"]})
    count_drift = []
    if traced:
        ref = traced[0]["layers"]
        count_drift = sorted({k for p in traced[1:]
                              for k in tracer.work_counts
                              if p["layers"][k] != ref[k]})
    correct = not (problems or mismatched or count_drift)
    # every pass repeats the first pass's operations (checked above)
    attempted, failed = passes[0]["attempted"], passes[0]["failed"]

    print(f"# passes: {len(plain)} untraced, {len(traced)} traced; wall "
          f"times (s): {' '.join(format(p['wall_s'], '.4g') for p in passes)}")
    for msg in sorted({r for p in passes for r in p["raised"]}):
        print(f"# raised: {msg}")
    for msg in sorted({c for p in passes for c in p["failed_checks"]}):
        print(f"# failed check: {msg}")
    for msg in problems:
        print(f"# report problem: {msg}")
    print(f"# same-seed reports identical across {len(passes)} passes: "
          f"{'yes' if not mismatched else 'NO, ' + ', '.join(mismatched)}")

    walls = [p["wall_s"] for p in plain]
    margins = passes[0]["margins"]
    print("# end-to-end")
    print(describe("run_s", walls, "s"))
    print(describe("cpu_s", [p["cpu_s"] for p in plain], "s"))
    if not args.trace:
        print(describe("setup_s", probes.times, "s"))
    print(f"  {'peak_rss_mb':24s} {peak_rss_mb:12.6g} MB")
    print(f"  {'fail_frac':24s} {failed / attempted:12.6g} ratio  "
          f"({failed} failed of {attempted} attempted operations)")
    if margins:
        m, where = min(margins)
        print(f"  {'accuracy_margin_min':24s} {m:12.6g} decades ({where})")
    else:
        print(f"  {'accuracy_margin_min':24s} {'n/a':>12s} (no value<=tol "
              f"check ran)")

    if args.trace:
        # work counts repeat exactly (checked above), so pass 1 gives them
        layers = {name: traced[0]["layers"][name]
                  if name in tracer.work_counts
                  else statistics.median(p["layers"][name] for p in traced)
                  for name, _ in PER_LAYER
                  if name != "trace.overhead_s"}
        traced_walls = [p["wall_s"] for p in traced]
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        print(f"# traced run_s {statistics.median(traced_walls):.6g} s, "
              f"untraced {statistics.median(walls):.6g} s, overhead "
              f"{layers['trace.overhead_s']:.6g} s")
        print(f"# share of traced run_s outside every layer span: "
              f"{layers['trace.uncovered_share']:.4%}")
        print(f"# work counts repeat across {len(traced)} traced passes: "
              f"{'yes' if not count_drift else 'NO, ' + ', '.join(count_drift)}")
        for hook in tracer.missing:
            print(f"# trace hook missing: {hook}")
        print("# per layer (median over traced passes)")
        for name, unit in PER_LAYER:
            print(f"  {name:42s} {layers[name]:14.6g} {unit}")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(traced[-1]["spans"]))
        print(f"# spans of the last traced pass: "
              f"{spans_path.relative_to(ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {"run_s": statistics.median(walls),
                  "cpu_s": statistics.median(p["cpu_s"] for p in plain),
                  "setup_s": statistics.median(probes.times),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
