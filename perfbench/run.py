"""riccilab benchmark: wall time of the flow, check and sweep commands.

    python3 perfbench/run.py --workload heisenberg --seed 1 --seconds 35 --trace 0

Run from the repository root.  One client drives a closed loop: each
iteration calls ``riccilab.cli.main(argv)`` in-process for ``flow``, then
``check`` on the trajectory that flow wrote, then ``sweep``, one at a time,
and checks every output (see ``workloads.py``).  A warm-up iteration runs
first and is not timed.  ``--workload all`` runs every workload in turn.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median time
of ``import riccilab.cli`` in a fresh interpreter, and for each command the
median wall time ``<command>_s`` and ``<command>_tail_s``, the highest
percentile that has at least 10 samples beyond it.  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
metrics of ``tracer.py`` plus the tracing overhead per command.

Times are calibrated.  A fixed reference kernel runs before and after
every invocation, and each wall time is scaled by REF_SECONDS over the mean
of those two kernel times; ``setup_s`` is scaled by the time of ``import
numpy`` in the same interpreter instead.  The 2-core Xeon host this was built
on changes speed by up to 1.7x over seconds to minutes: over five runs of
``collapse_sweep`` the quartile spread of the raw medians was 36-41% of
their median, and that of the calibrated ones 5-9%.  Raw times are printed
beside them and kept in the results file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; failed / attempted
is the failed fraction of invocations.  The environment, every sample and
the spans of a traced run are written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# One BLAS thread: the matrices are at most 9x9, and the benchmark must not
# start more threads than there are cores.  A value set by the caller wins.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(HERE))
from tracer import (COMMANDS, COUNTER_METRICS, OVERHEAD_METRICS,  # noqa: E402
                    SPAN_METRICS, Tracer, absent_metrics, span_metrics)
from workloads import OUTPUT_CHECKS, OUTPUTS, WORKLOADS, inputs  # noqa: E402

SETUP_REPEATS = 9       # fresh interpreters timed per run, after one untimed
REF_ROUNDS = 500
REF_SECONDS = 4.5e-3    # the reference kernel on an idle 2-core Xeon, numpy 2.4
IMPORT_REF_SECONDS = 0.07   # ``import numpy`` 2.4 on the same host
MIN_TIMED = 11          # a tail needs 10 samples beyond it
MIN_TRACED = 2
TAIL_BEYOND = 10
MAX_PROBLEMS = 20

_IMPORT_CLI = ("import time; t0 = time.perf_counter(); import numpy; "
               "t1 = time.perf_counter(); import riccilab.cli; "
               "print(repr(t1 - t0), repr(time.perf_counter() - t0))")


_REF_MATRIX = ((2.0, 1.0, 0.0), (1.0, 2.0, 1.0), (0.0, 1.0, 2.0))


def reference_time() -> float:
    """Seconds of a fixed kernel of small numpy calls and Python arithmetic.

    It mixes the same kinds of work as the commands, so it slows down with
    them when the host does.
    """
    import numpy as np
    m = np.array(_REF_MATRIX)
    t0 = perf_counter()
    acc = 0.0
    for i in range(REF_ROUNDS):
        acc += float(np.linalg.eigh(m)[0][0]) * i
        for j in range(20):
            acc += j * 0.5
    return perf_counter() - t0


def calibrated(seconds: float, before: float, after: float) -> float:
    """A wall time expressed at the speed where the kernel takes REF_SECONDS."""
    return seconds * REF_SECONDS / (0.5 * (before + after))


def environment() -> dict:
    """Machine, interpreter and library facts recorded with every result."""
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def measure_setup() -> tuple[list[float], list[float]]:
    """Raw and calibrated seconds of ``import riccilab.cli``, numpy included,
    in fresh interpreters started one at a time.

    Each interpreter times ``import numpy`` first, and the total is scaled
    by IMPORT_REF_SECONDS over that time.  The reference kernel does not
    suit imports, which read files and map memory: scaled by it, setup
    times spread more than raw ones.
    """
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONDONTWRITEBYTECODE", None)    # users import from the cache
    raw, cal = [], []
    for i in range(SETUP_REPEATS + 1):      # the first writes the bytecode cache
        proc = subprocess.run([sys.executable, "-c", _IMPORT_CLI], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        numpy_s, total_s = map(float, proc.stdout.split()[-2:])
        if i:
            raw.append(total_s)
            cal.append(total_s * IMPORT_REF_SECONDS / numpy_s)
    return raw, cal


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its value."""
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / len(s), s[k]


class Call(NamedTuple):
    """One timed invocation and what its output check found."""
    seconds: float              # calibrated
    raw_seconds: float
    spans: tuple[int, int] | None
    ok: bool
    counters: dict


class Bench:
    """One workload's inputs, its invocations and their failure count."""

    def __init__(self, workload, seed: int, out: Path, tamper=None):
        from riccilab import cli
        self.main = cli.main
        self.w = workload
        self.out = out
        self.tamper = tamper
        self.cli_seed, self.values = inputs(workload, seed)
        common = ["--config", str(ROOT / workload.config), "--out", str(out),
                  "--seed", str(self.cli_seed)]
        self.argv = {
            "flow": ["flow", *common],
            "check": ["check", *common, "--trajectory", str(out / "trajectory.csv")],
            "sweep": ["sweep", *common, "--param", workload.sweep_param,
                      "--values", ",".join(map(repr, self.values))],
        }
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _invoke(self, command: str):
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                rc = self.main(self.argv[command])
        except (Exception, SystemExit) as exc:    # an invocation that crashed
            rc = f"raised {exc!r}"
        return perf_counter() - t0, rc

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def _check(self, command: str, rc) -> tuple[bool, dict]:
        self.attempted += 1
        if rc != 0:
            self.fail(f"{command}: exit {rc}")
            return False, {}
        try:
            problems, counters = OUTPUT_CHECKS[command](self.w, self.out, self.values)
        except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
            problems, counters = [f"unreadable output: {exc!r}"], {}
        if problems:
            self.fail(f"{command}: {problems[0]}")
        return not problems, counters

    def iteration(self, tracer: Tracer | None = None) -> dict[str, Call]:
        """Run every command once."""
        for name in OUTPUTS:
            (self.out / name).unlink(missing_ok=True)
        result = {}
        ref = reference_time()
        for command in COMMANDS:
            gc.collect()
            if tracer is None:
                (dt, rc), spans = self._invoke(command), None
            else:
                (dt, rc), spans = tracer.run(command, lambda: self._invoke(command))
            before, ref = ref, reference_time()
            if self.tamper is not None:
                self.tamper(command, self.out)
            ok, counters = self._check(command, rc)
            result[command] = Call(calibrated(dt, before, ref), dt, spans, ok, counters)
        return result


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Timed iterations for ``seconds``; returns metrics and the raw record."""
    setup_raw, setup = measure_setup()
    bench.iteration()                                        # warm-up
    samples = {c: [] for c in COMMANDS}
    raw = {c: [] for c in COMMANDS}
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(samples["flow"]) < MIN_TIMED:
        for command, call in bench.iteration().items():
            samples[command].append(call.seconds)
            raw[command].append(call.raw_seconds)
    metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
    tails = {}
    for command in COMMANDS:
        pct, value = tail(samples[command])
        metrics[f"{command}_s"] = {"value": statistics.median(samples[command]),
                                   "unit": "s"}
        metrics[f"{command}_tail_s"] = {"value": value, "unit": "s"}
        tails[command] = {"percentile": pct, "samples": len(samples[command])}
    raw["setup"] = setup_raw
    return metrics, {"setup_samples": setup, "samples": samples, "raw": raw,
                     "tails": tails}


def traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Alternating untraced and traced iterations; per-layer metrics."""
    tracer = Tracer()
    bench.iteration()                                        # warm-up
    plain = {c: [] for c in COMMANDS}
    timed = {c: [] for c in COMMANDS}
    layers: dict[str, list[float]] = {}
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(timed["flow"]) < MIN_TRACED:
        for command, call in bench.iteration().items():
            plain[command].append(call.seconds)
        it = bench.iteration(tracer)
        for command, call in it.items():
            timed[command].append(call.seconds)
        values = span_metrics({c: tracer.aggregate(*it[c].spans) for c in COMMANDS})
        flow_counters, sweep_counters = it["flow"].counters, it["sweep"].counters
        for key, value in flow_counters.items():
            values[f"flow.{key}"] = value
        if flow_counters:
            records = flow_counters["records"]
            values["flow.rhs_evals_per_record"] = flow_counters["rhs_evals"] / records
            values["geometry.curvature.per_record"] = \
                values["geometry.curvature.calls"] / records
        if sweep_counters:
            values["sweep.rows"] = sweep_counters["rows"]
        _cross_check(bench, it, values, tracer.absent)
        for key, value in values.items():
            layers.setdefault(key, []).append(value)
    units = {name: unit for name, unit, *_ in SPAN_METRICS}
    units.update(COUNTER_METRICS)
    skip = absent_metrics(tracer.absent)
    metrics = {name: {"value": statistics.median(layers[name]), "unit": unit}
               for name, unit in units.items() if name in layers and name not in skip}
    for (name, unit), command in zip(OVERHEAD_METRICS, COMMANDS):
        ratio = statistics.median(timed[command]) / statistics.median(plain[command])
        metrics[name] = {"value": ratio - 1.0, "unit": unit}
    tracer.write_csv(RESULTS / f"{bench.w.name}.spans.csv")
    absent = sorted(set(units) - set(metrics))
    return metrics, {"untraced": plain, "traced": timed, "absent": absent}


def _cross_check(bench: Bench, it: dict[str, Call], values: dict,
                 absent: set) -> None:
    """The trace must see every RHS evaluation and every sweep row."""
    flow, sweep = it["flow"], it["sweep"]
    calls = values["geometry.ricci_fixed_basis.calls"]
    if flow.ok and "geometry.ricci_fixed_basis" not in absent \
            and calls < flow.counters["rhs_evals"]:
        bench.fail(f"trace: {calls} ricci_fixed_basis calls < "
                   f"{flow.counters['rhs_evals']} RHS evals")
    calls = values["geometry.curvature_sampled.calls"]
    if sweep.ok and "geometry.curvature" not in absent \
            and calls != sweep.counters["rows"]:
        bench.fail(f"trace: {calls} sampled curvature calls for "
                   f"{sweep.counters['rows']} sweep rows")


def run(name: str, seed: int, seconds: float, trace: bool, tamper=None) -> dict:
    """Measure one workload; print the summary and return the result object."""
    RESULTS.mkdir(exist_ok=True)
    env = {**environment(), "seed": seed, "loadavg_start": loadavg()}
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=RESULTS) as tmp:
        bench = Bench(WORKLOADS[name], seed, Path(tmp), tamper)
        measure = traced if trace else end_to_end
        metrics, record = measure(bench, seconds)
    env["loadavg_end"] = loadavg()
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    detail = {"workload": name, "seconds": seconds, "trace": trace, "env": env,
              "cli_seed": bench.cli_seed, "sweep_values": bench.values,
              "problems": bench.problems, **record, **result}
    (RESULTS / f"{name}.trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    _summary(name, env, record, result, bench.problems)
    return result


def _summary(name, env, record, result, problems) -> None:
    print(f"workload {name}: seed {env['seed']}, nproc {env['nproc']}, {env['cpu']}, "
          f"python {env['python']}, numpy {env['numpy']}, blas {env['blas']}")
    print(f"  loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    tails = record.get("tails", {})
    raw = {f"{c}_s": v for c, v in record.get("raw", {}).items()}
    for key, m in result["metrics"].items():
        note = ""
        if key in raw:
            note = f"  (raw median {statistics.median(raw[key]):.6g} s)"
        elif key.endswith("_tail_s"):
            t = tails[key[:-len("_tail_s")]]
            note = f"  (p{t['percentile']:.1f} of {t['samples']} samples)"
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}{note}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':40s} {frac:.6g} ({result['failed']} failed of "
          f"{result['attempted']} invocations)")
    for p in problems:
        print(f"  failure: {p}")
    for key in record.get("absent", ()):
        print(f"  absent: {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ["src/riccilab/cli.py", *(w.config for w in WORKLOADS.values())]
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a riccilab checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
