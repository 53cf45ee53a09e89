"""Self-test of the riccilab benchmark.

    python3 perfbench/selftest.py

Run from the repository root; it takes about two minutes.  It checks that

1. BENCHMARK.json names the workloads of ``workloads.py`` with the same
   one-line reasons;
2. every workload, run at the shortest length with tracing off and on,
   exits 0, is correct, and reports every declared metric as a number with
   its unit;
3. an output corrupted on purpose shows up as a failed invocation;
4. the benchmark fails without printing a result when the package is not
   there.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from tracer import COUNTER_METRICS, OVERHEAD_METRICS, SPAN_METRICS
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def check_workload_reasons() -> None:
    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert declared == {w.name: w.why for w in WORKLOADS.values()}, declared


def check_metrics(name: str, trace: int) -> None:
    proc = _bench("--workload", name, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    if trace:
        assert expected == {n: u for n, u, *_ in (*SPAN_METRICS, *COUNTER_METRICS,
                                                   *OVERHEAD_METRICS)}
    got = result["metrics"]
    assert set(got) == set(expected), set(got) ^ set(expected)
    for key, m in got.items():
        assert m["unit"] == expected[key], (key, m)
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (key, m)
    print(f"ok: {name} --trace {trace}: {len(got)} metrics, "
          f"{result['attempted']} invocations")


def check_corruption_counts() -> None:
    corrupted = []

    def tamper(command: str, out: Path) -> None:
        if command == "flow" and not corrupted:
            path = out / "trajectory.csv"
            lines = path.read_text().splitlines()
            cells = lines[5].split(",")
            cells[1] = repr(float(cells[1]) * 1.001)
            lines[5] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
            corrupted.append(command)

    sys.path.insert(0, str(run.SRC))
    result = run.run("sphere", seed=7, seconds=0, trace=False, tamper=tamper)
    assert corrupted and result["failed"] >= 1 and not result["correct"], result
    print(f"ok: corrupted trajectory counted, failed_frac "
          f"{result['failed']}/{result['attempted']}")


def check_fails_without_package() -> None:
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = _bench("--workload", "sphere", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=Path(tmp))
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok: fails without the package")


def main() -> int:
    check_workload_reasons()
    check_fails_without_package()
    for name in WORKLOADS:
        for trace in (0, 1):
            check_metrics(name, trace)
    check_corruption_counts()
    return 0


if __name__ == "__main__":
    sys.exit(main())
