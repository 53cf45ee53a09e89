import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_holds_every_benchmark_metric(path):
    workloads = json.loads(path.read_text())["workloads"]
    assert set(workloads) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, w in workloads.items():
        assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(w["end_to_end"]), name
        assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(w["per_layer"]), name
        for metric in w["end_to_end"].values():
            assert metric["samples"] > 0
            if "q1" in metric:
                assert metric["q1"] <= metric["median"] <= metric["q3"]
        assert all(run["correct"] and run["failed"] == 0 for run in w["runs"].values())


def test_every_traced_name_resolves():
    # a deleted public name would drop its traced metric without an error
    tracer = _load(ROOT / "perfbench" / "tracer.py", "perfbench_tracer")
    for module, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"riccilab.{module}"), attr, None)), \
            f"riccilab.{module}.{attr}"


def test_bench_file_merges_both_runs(tmp_path):
    samples = [0.4, 0.1, 0.3, 0.2, 0.5]
    trace0 = {"seconds": 1.0, "env": {"nproc": 2}, "cli_seed": 3, "sweep_values": [1.0],
              "correct": True, "attempted": 15, "failed": 0, "problems": [],
              "setup_samples": samples, "samples": {"flow": samples},
              "tails": {"flow": {"percentile": 20.0, "samples": 5}},
              "metrics": {"setup_s": {"value": 0.3, "unit": "s"},
                          "flow_s": {"value": 0.3, "unit": "s"},
                          "flow_tail_s": {"value": 0.4, "unit": "s"}}}
    trace1 = {**trace0, "metrics": {"flow.rhs_evals": {"value": 92, "unit": "count"},
                                    "flow.write_trajectory_csv.ms": {"value": 3.5,
                                                                     "unit": "ms"}}}
    (tmp_path / "w.trace0.json").write_text(json.dumps(trace0))
    (tmp_path / "w.trace1.json").write_text(json.dumps(trace1))
    out = tmp_path / "BENCH_x.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_file.py"), "--label", "x",
                    "--results", str(tmp_path), "--out", str(out)], check=True,
                   capture_output=True)
    w = json.loads(out.read_text())["workloads"]["w"]
    assert w["end_to_end"]["flow_s"] == {"median": 0.3, "q1": 0.2, "q3": 0.4,
                                         "samples": 5, "unit": "s"}
    assert w["end_to_end"]["flow_tail_s"] == {"value": 0.4, "percentile": 20.0,
                                              "samples": 5, "unit": "s"}
    assert w["per_layer"]["flow.write_trajectory_csv.ms"] == {"median": 3.5, "unit": "ms"}
    assert w["counters"] == {"rhs_evals": 92}


@pytest.fixture
def perfbench_run(monkeypatch):
    """perfbench/run.py as a module; its import sets the BLAS thread variables,
    puts perfbench/ on sys.path and imports tracer and workloads by name, and
    all of that is undone afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    with mock.patch.dict(os.environ):
        yield _load(ROOT / "perfbench" / "run.py", "perfbench_run")
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_iteration_keeps_the_benchmark_contracts(perfbench_run, tmp_path, workload):
    # the trace must see every sweep row as one sampled curvature call and every
    # RHS evaluation as one ricci_fixed_basis call, else the benchmark fails a run
    run = perfbench_run
    bench = run.Bench(run.WORKLOADS[workload], 101, tmp_path)
    tracer = run.Tracer()
    it = bench.iteration(tracer)
    values = run.span_metrics({c: tracer.aggregate(*it[c].spans) for c in run.COMMANDS})
    run._cross_check(bench, it, values, tracer.absent)
    assert bench.failed == 0, bench.problems
    assert tracer.absent == set()
    assert values["geometry.curvature_sampled.calls"] == len(bench.values) == 8
    assert values["geometry.ricci_fixed_basis.calls"] >= it["flow"].counters["rhs_evals"]
