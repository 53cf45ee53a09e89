"""Merge perfbench result files into one committed BENCH file.

    python3 tools/bench_file.py --label LABEL
    python3 tools/bench_file.py --label LABEL --results path/to/perfbench/results

Reads ``<workload>.trace0.json`` and ``<workload>.trace1.json`` from the
results directory (``perfbench/results`` by default), as written by
``perfbench/run.py --trace 0`` and ``--trace 1``, and writes
``BENCH_<label>.json`` at the repository root.  Per workload it keeps the
environment of each run, the median and quartiles of every end-to-end
metric (a tail metric keeps its value, percentile and sample count), the
median of every per-layer metric, and the work counters.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per-layer metrics that count work rather than time it, by their BENCH name
COUNTERS = {"rhs_evals": "flow.rhs_evals", "steps_accepted": "flow.steps_accepted",
            "steps_rejected": "flow.steps_rejected", "records": "flow.records",
            "trajectory_bytes": "flow.trajectory_bytes", "sweep_rows": "sweep.rows"}


def _spread(samples: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "samples": len(samples), "unit": unit}


def _run(record: dict) -> dict:
    """How one results file was made: its settings, environment and failures."""
    return {key: record[key] for key in ("seconds", "env", "cli_seed", "sweep_values",
                                         "correct", "attempted", "failed", "problems")}


def end_to_end(trace0: dict) -> dict:
    """Median and quartiles of every end-to-end metric of a ``--trace 0`` run."""
    samples = {"setup_s": trace0["setup_samples"],
               **{f"{c}_s": s for c, s in trace0["samples"].items()}}
    out = {}
    for name, metric in trace0["metrics"].items():
        if name.endswith("_tail_s"):
            tail = trace0["tails"][name[:-len("_tail_s")]]
            out[name] = {"value": metric["value"], "percentile": tail["percentile"],
                         "samples": tail["samples"], "unit": metric["unit"]}
        else:
            out[name] = _spread(samples[name], metric["unit"])
    return out


def merge(results: Path, label: str) -> dict:
    workloads = {}
    for path in sorted(results.glob("*.trace0.json")):
        name = path.name[:-len(".trace0.json")]
        trace0 = json.loads(path.read_text())
        trace1 = json.loads((results / f"{name}.trace1.json").read_text())
        layers = trace1["metrics"]
        workloads[name] = {
            "runs": {"trace0": _run(trace0), "trace1": _run(trace1)},
            "end_to_end": end_to_end(trace0),
            "per_layer": {k: {"median": m["value"], "unit": m["unit"]}
                          for k, m in layers.items()},
            "counters": {k: layers[m]["value"] for k, m in COUNTERS.items() if m in layers},
        }
    if not workloads:
        raise SystemExit(f"no *.trace0.json files in {results}")
    return {"label": label, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--results", type=Path, default=ROOT / "perfbench" / "results")
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default: BENCH_<label>.json at the repository root)")
    args = parser.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(merge(args.results, args.label), indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
