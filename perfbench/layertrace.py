"""Layer tracing from outside the `ipl` package.

`Tracer.install()` rebinds each hooked function in every `ipl` module
namespace that holds it by name (so `extract_invariants` is caught both in
`ipl.asymptotics` and in `ipl.cli`), wraps the `evaluate` / `derivative`
callables of the connections returned by `hitchin.lift` and
`models.perturb`, and wraps the CLI's validators, executors and report
writers. Spans (name, start, end, parent) stay in memory; counters count
calls, points and failures at the same boundaries. `uninstall()` restores
every original binding.

A layer's self time is the sum of its span durations minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

import numpy as np

# (module, function, span name, points argument index, points counter);
# a span name of None marks a counter-only hook (calls counted, no span)
SPAN_HOOKS = (
    ("ipl.gauge", "curvature", "gauge.curvature", 1,
     "gauge.curvature.points"),
    ("ipl.gauge", "_path_ordered_product", "gauge.path_ordered_product", 1,
     "gauge.path_ordered_product.steps"),
    ("ipl.gauge", "weitzenbock_defect", "gauge.weitzenbock_defect",
     None, None),
    ("ipl.gauge", "monodromy_drift_defect", "gauge.monodromy_drift_defect",
     None, None),
    ("ipl._su2", "expm_su2", "su2.expm_su2", None, None),
    ("ipl._su2", "project_su2", "su2.project_su2", None, None),
    ("ipl.hitchin", "hitchin_residual", "hitchin.hitchin_residual",
     None, None),
    ("ipl.asymptotics", "extract_invariants",
     "asymptotics.extract_invariants", None, None),
    ("ipl.asymptotics", "flat_limit", "asymptotics.flat_limit", None, None),
    ("ipl.asymptotics", "residue", "asymptotics.residue", None, None),
    ("ipl.asymptotics", "instanton_number", "asymptotics.instanton_number",
     None, None),
    ("ipl.asymptotics", "decay_exponent", "asymptotics.decay_exponent",
     None, None),
    ("ipl.asymptotics", "poincare_constant", "asymptotics.poincare_constant",
     None, None),
    ("ipl.spectral", "fourier_gap", "spectral.fourier_gap", None, None),
    ("ipl.spectral", "jumping_points", "spectral.jumping_points",
     None, None),
    ("ipl.spectral", "phi_residue", "spectral.phi_residue", None, None),
    ("ipl.moduli", "fourier_diff", "moduli.fourier_diff", None, None),
    ("ipl.moduli", "instanton_tangent_residual",
     "moduli.instanton_tangent_residual", None, None),
    ("ipl.moduli", "l2_metric", "moduli.l2_metric", None, None),
) + tuple(("ipl.stability", fn, "stability", None, None) for fn in (
    "parabolic_degree", "alpha_stable_extension", "existence_obstruction",
    "h0_total", "h0_consistency"))

# (module, function, counter prefix, span whose nested calls are also
# counted apart): calls counted, time left to the caller. fourier_gap checks
# the hypothesis region itself, so the scan's draws are the
# in_hypothesis_region calls made outside a fourier_gap span.
COUNT_HOOKS = (
    ("ipl.gauge", "circle_holonomies", "gauge.circle_holonomies", None),
    ("ipl.asymptotics", "limiting_holonomy", "asymptotics.limiting_holonomy",
     None),
    ("ipl.spectral", "in_hypothesis_region", "spectral.in_hypothesis_region",
     "spectral.fourier_gap"),
) + tuple(("ipl.geometry", fn, "geometry", None) for fn in (
    "zeta_from_xi", "xi_from_zeta", "reduce_dual", "dual_lattice",
    "lattice_reduce", "lattice_distance", "in_dual_lattice",
    "covering_radius", "lattice_translates", "conventions_sheet",
    "conventions_hash"))

ANNULUS_METHODS = ("__init__", "d0", "dstar", "d1", "sd_part", "dplus",
                   "inner", "norm")

# every span and counter `install()` records, so that a per-layer metric
# named in BENCHMARK.json that nothing records is caught before a run
SPAN_NAMES = frozenset(
    {name for _, _, name, _, _ in SPAN_HOOKS}
    | {f"{conn}.{fn}" for conn in ("hitchin.lift", "models.perturb")
       for fn in ("evaluate", "derivative")}
    | {"cli.validate", "cli.execute", "cli.write", "moduli.AnnulusCalculus"})
COUNTER_NAMES = frozenset(
    {f"{name}.{kind}" for name in SPAN_NAMES for kind in ("calls", "failed")}
    | {f"{name}.calls" for _, _, name, _ in COUNT_HOOKS}
    | {counter for *_, counter in SPAN_HOOKS if counter}
    | {"hitchin.lift.evaluate.points", "models.perturb.points"})

# metrics computed from several spans or counters, or from the pass time
DERIVED = ("cli.validate_s", "cli.write_s", "cli.self_s",
           "spectral.fourier_gap.accept_ratio", "trace.uncovered_share")
# work metrics without unit "count"; like the counts, they must repeat
# exactly across same-seed passes
RATIO_WORK_COUNTS = ("spectral.fourier_gap.accept_ratio",)


def _n_points(points) -> int:
    """Number of points in a (..., 4) batch."""
    return math.prod(np.shape(points)[:-1])


class Tracer:
    """Spans and counters for one traced pass at a time. `per_layer` is the
    list of (name, unit) metrics to report, as BENCHMARK.json declares them;
    `work_counts` names those that count work."""

    def __init__(self, per_layer):
        self.per_layer = list(per_layer)
        for metric, unit in self.per_layer:
            known = (metric in DERIVED or metric == "trace.overhead_s"
                     or metric.endswith(".self_s")
                     and metric[:-len(".self_s")] in SPAN_NAMES
                     or unit == "count" and metric in COUNTER_NAMES)
            if not known:
                raise ValueError(f"per-layer metric {metric!r} ({unit}) is "
                                 f"recorded by no span or counter")
        self.work_counts = tuple(name for name, unit in self.per_layer
                                 if unit == "count"
                                 or name in RATIO_WORK_COUNTS)
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.missing = []  # hooks whose target no longer exists
        self._stack = []
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, points_arg=None, points_counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if points_counter is not None and len(args) > points_arg:
                counts[points_counter] += _n_points(args[points_arg])
            idx = len(spans)
            spans.append((name,))  # completed in `finally`
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[name + ".failed"] += 1
                raise
            finally:
                spans[idx] = (name, t0, clock(), parent)
                stack.pop()
        return wrapper

    def _counter(self, name, fn, nested_in=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if nested_in is not None and stack \
                    and spans[stack[-1]][0] == nested_in:
                counts[name + ".nested_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _connection_factory(self, prefix, fn, eval_points, deriv_points):
        """Wraps a function returning a ConnectionSource so the returned
        connection's evaluate/derivative callables record spans."""
        span = self._span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            conn = fn(*args, **kwargs)
            conn.evaluate = span(f"{prefix}.evaluate", conn.evaluate, 0,
                                 eval_points)
            if conn.derivative is not None:
                conn.derivative = span(f"{prefix}.derivative",
                                       conn.derivative, 0, deriv_points)
            return conn
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, module, attr, make):
        mod = sys.modules.get(module)
        original = getattr(mod, attr, None) if mod is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(original)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "ipl" or name.startswith("ipl.")):
                continue
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, wrapped)
                    self._undo.append((m, key, original))

    def install(self):
        import ipl  # noqa: F401  (loads every ipl module to be patched)
        import ipl.cli as cli
        import ipl.moduli as moduli

        for module, attr, name, parg, pcount in SPAN_HOOKS:
            self._rebind(module, attr, lambda f, n=name, a=parg, c=pcount:
                         self._span(n, f, a, c))
        for module, attr, name, nested_in in COUNT_HOOKS:
            self._rebind(module, attr, lambda f, n=name, s=nested_in:
                         self._counter(n, f, s))
        self._rebind("ipl.hitchin", "lift", lambda f: self._connection_factory(
            "hitchin.lift", f, "hitchin.lift.evaluate.points", None))
        self._rebind("ipl.models", "perturb",
                     lambda f: self._connection_factory(
                         "models.perturb", f, "models.perturb.points",
                         "models.perturb.points"))
        for attr in ("_write_json", "_write_csv"):
            self._rebind("ipl.cli", attr,
                         lambda f: self._span("cli.write", f))

        pipelines = getattr(cli, "_PIPELINES", None)
        if isinstance(pipelines, dict):
            for sub, (validate, execute) in list(pipelines.items()):
                pipelines[sub] = (self._span("cli.validate", validate),
                                  self._span("cli.execute", execute))
                self._undo.append((pipelines, sub, (validate, execute)))
        else:
            self.missing.append("ipl.cli._PIPELINES")

        cls = getattr(moduli, "AnnulusCalculus", None)
        for meth in ANNULUS_METHODS:
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is None:
                self.missing.append(f"ipl.moduli.AnnulusCalculus.{meth}")
                continue
            setattr(cls, meth, self._span("moduli.AnnulusCalculus", fn))
            self._undo.append((cls, meth, fn))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    # -- aggregation -------------------------------------------------------

    def pass_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the pass recorded since the last reset
        (everything but trace.overhead_s, which needs an untraced pass)."""
        child = [0.0] * len(self.spans)
        total, self_time = Counter(), Counter()
        root_s = 0.0
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                root_s += t1 - t0
        for (name, t0, t1, _), c in zip(self.spans, child):
            total[name] += t1 - t0
            self_time[name] += t1 - t0 - c
        drawn = self.counts["spectral.in_hypothesis_region.calls"] \
            - self.counts["spectral.in_hypothesis_region.nested_calls"]
        derived = {
            "cli.validate_s": total["cli.validate"],
            "cli.write_s": total["cli.write"],
            "cli.self_s": self_time["cli.execute"],
            "spectral.fourier_gap.accept_ratio":
                self.counts["spectral.fourier_gap.calls"] / drawn
                if drawn else 0.0,
            "trace.uncovered_share": max(0.0, wall_s - root_s) / wall_s,
        }
        out = {}
        for metric, unit in self.per_layer:
            if metric in derived:
                out[metric] = derived[metric]
            elif metric.endswith(".self_s"):
                out[metric] = self_time[metric[:-len(".self_s")]]
            elif unit == "count":
                out[metric] = self.counts[metric]
        return out

    def dump(self) -> dict:
        """Spans of the current pass, times relative to its first span."""
        t_ref = min((s[1] for s in self.spans), default=0.0)
        return {"fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[n, t0 - t_ref, t1 - t_ref, p]
                          for n, t0, t1, p in self.spans]}
