"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps public module attributes of riccilab that callers look up
at call time (``geometry.curvature`` and the like), so it sees every call
without any edit to the package.  ``cli`` imports ``load_config`` by name,
so that binding is patched in ``cli`` itself.  A wrapped name that no
longer exists is recorded as absent and its metrics are left out.

Spans are kept in memory as ``[name, start, end, parent, extra]`` and are
written out when the run ends.  A span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

COMMANDS = ("flow", "check", "sweep")

_CHECK_FUNCTIONS = ("check_volume_identity", "check_scalar_identity",
                    "check_n2_bound", "check_c0_bound", "check_lp_evolution",
                    "holder_suite", "check_diameter_bound",
                    "check_sobolev_along_flow", "hypothesis_report")

# (module, attribute, span name); geometry.curvature with plane sampling is
# recorded as geometry.curvature_sampled
TARGETS = (
    ("cli", "load_config", "config.load_config"),
    ("geometry", "ricci_fixed_basis", "geometry.ricci_fixed_basis"),
    ("geometry", "curvature", "geometry.curvature"),
    ("geometry", "rm_norm", "geometry.rm_norm"),
    ("geometry", "volume", "geometry.volume"),
    ("flow", "integrate", "flow.integrate"),
    ("flow", "write_trajectory_csv", "flow.write_trajectory_csv"),
    ("flow", "read_trajectory_csv", "flow.read_trajectory_csv"),
    ("flow", "validate_trajectory", "flow.validate_trajectory"),
    ("checks", "run_suite", "checks.run_suite"),
    *(("checks", f, f"checks.{f}") for f in _CHECK_FUNCTIONS),
    ("sobolev", "witness_norms", "sobolev.witness_norms"),
    ("constants", "constant_chain", "constants.constant_chain"),
)


def _curvature_namer(fn):
    """Span name of one curvature call: sampled planes or not."""
    param = inspect.signature(fn).parameters.get("plane_samples")
    default = 0 if param is None else param.default

    def namer(kwargs):
        if kwargs.get("plane_samples", default) > 0:
            return "geometry.curvature_sampled"
        return "geometry.curvature"

    return namer


def _grid_used(result) -> int:
    return getattr(result, "grid_used", 0)


class Tracer:
    """Records spans while installed; ``absent`` lists names not found."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, namer=None, extra=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [namer(kwargs) if namer else name, perf_counter(), 0.0,
                    stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    span[4] = extra(result)
                return result
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced

    def install(self) -> None:
        """Patch every target; undo with ``uninstall``."""
        for mod_name, attr, name in TARGETS:
            try:
                mod = importlib.import_module(f"riccilab.{mod_name}")
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            namer = extra = None
            if name == "geometry.curvature":
                namer = _curvature_namer(fn)
            elif name == "sobolev.witness_norms":
                extra = _grid_used
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, namer, extra))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def run(self, command: str, call):
        """Run ``call`` as the root span of one command invocation.

        Returns the call's result and the slice of spans it produced.
        """
        lo = len(self.spans)
        self.install()
        try:
            result = self._wrap(f"cli.{command}", call)()
        finally:
            self.uninstall()
        return result, (lo, len(self.spans))

    def aggregate(self, lo: int, hi: int) -> dict[str, list]:
        """Per span name: [calls, total s, self s, max extra] over spans[lo:hi]."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans[lo:hi]:
            child[parent] += t1 - t0
        agg = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for i in range(lo, hi):
            name, t0, t1, _, extra = self.spans[i]
            a = agg[name]
            a[0] += 1
            a[1] += t1 - t0
            a[2] += t1 - t0 - child[i]
            a[3] = max(a[3], extra)
        return agg

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,extra\n")
            for i, (name, t0, t1, parent, extra) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{extra}\n")


_FLOW_CHECK = ("flow", "check")

# name, unit, span, statistic, commands it is summed over.  Statistics:
# calls per invocation, mean time per call (us, ms), self time per
# invocation (self_ms), largest extra value (grid_max).  Each metric is
# scoped to the command whose wall time it should move.
SPAN_METRICS = (
    ("config.load_config.ms", "ms", "config.load_config", "ms", COMMANDS),
    ("geometry.ricci_fixed_basis.calls", "count", "geometry.ricci_fixed_basis", "calls", ("flow",)),
    ("geometry.ricci_fixed_basis.us", "us", "geometry.ricci_fixed_basis", "us", ("flow",)),
    ("geometry.curvature.calls", "count", "geometry.curvature", "calls", ("check",)),
    ("geometry.curvature.us", "us", "geometry.curvature", "us", ("check",)),
    ("geometry.curvature_sampled.calls", "count", "geometry.curvature_sampled", "calls", ("sweep",)),
    ("geometry.curvature_sampled.ms", "ms", "geometry.curvature_sampled", "ms", ("sweep",)),
    ("geometry.rm_norm.calls", "count", "geometry.rm_norm", "calls", _FLOW_CHECK),
    ("geometry.rm_norm.us", "us", "geometry.rm_norm", "us", _FLOW_CHECK),
    ("geometry.volume.calls", "count", "geometry.volume", "calls", _FLOW_CHECK),
    ("geometry.volume.us", "us", "geometry.volume", "us", _FLOW_CHECK),
    ("flow.integrate.self_ms", "ms", "flow.integrate", "self_ms", ("flow",)),
    ("flow.write_trajectory_csv.ms", "ms", "flow.write_trajectory_csv", "ms", ("flow",)),
    ("flow.read_trajectory_csv.self_ms", "ms", "flow.read_trajectory_csv", "self_ms", ("check",)),
    ("flow.validate_trajectory.self_ms", "ms", "flow.validate_trajectory", "self_ms", ("check",)),
    ("checks.run_suite.self_ms", "ms", "checks.run_suite", "self_ms", ("check",)),
    *((f"checks.{f}.ms" if f == "holder_suite" else f"checks.{f}.self_ms",
       "ms", f"checks.{f}", "ms" if f == "holder_suite" else "self_ms", ("check",))
      for f in _CHECK_FUNCTIONS),
    ("sobolev.witness_norms.calls", "count", "sobolev.witness_norms", "calls", ("check",)),
    ("sobolev.witness_norms.ms", "ms", "sobolev.witness_norms", "ms", ("check",)),
    ("sobolev.witness_norms.grid_max", "count", "sobolev.witness_norms", "grid_max", ("check",)),
    ("constants.constant_chain.calls", "count", "constants.constant_chain", "calls", COMMANDS),
    ("constants.constant_chain.ms", "ms", "constants.constant_chain", "ms", COMMANDS),
)

# exact counts read from the artifacts, not from spans
COUNTER_METRICS = (
    ("flow.rhs_evals", "count"),
    ("flow.steps_accepted", "count"),
    ("flow.steps_rejected", "count"),
    ("flow.records", "count"),
    ("flow.rhs_evals_per_record", "evals/record"),
    ("flow.trajectory_bytes", "B"),
    ("geometry.curvature.per_record", "calls/record"),
    ("sweep.rows", "count"),
)

OVERHEAD_METRICS = tuple((f"trace.overhead_frac.{c}", "frac") for c in COMMANDS)


def span_metrics(per_command: dict[str, dict[str, list]]) -> dict[str, float]:
    """Per-layer values of one traced iteration from its per-command aggregates."""
    out = {}
    for name, _, span, stat, scope in SPAN_METRICS:
        calls, total, self_s, extra = 0, 0.0, 0.0, 0
        for cmd in scope:
            a = per_command[cmd].get(span, (0, 0.0, 0.0, 0))
            calls += a[0]
            total += a[1]
            self_s += a[2]
            extra = max(extra, a[3])
        mean = total / calls if calls else 0.0
        out[name] = {"calls": calls, "us": mean * 1e6, "ms": mean * 1e3,
                     "self_ms": self_s * 1e3, "grid_max": extra}[stat]
    return out


def absent_metrics(absent: set[str]) -> set[str]:
    """Metric names that depend on a wrapped name which no longer exists."""
    if "geometry.curvature" in absent:
        absent = absent | {"geometry.curvature_sampled"}
    names = {name for name, _, span, _, _ in SPAN_METRICS if span in absent}
    if "geometry.curvature" in absent:
        names.add("geometry.curvature.per_record")
    return names
