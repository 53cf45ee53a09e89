"""Workloads of the riccilab benchmark and the checks on their outputs.

Every workload runs the three user-facing commands on one model, in this
order: ``flow``, then ``check`` on the trajectory that flow wrote, then
``sweep`` over eight parameter values drawn from the seed.  The workloads
differ in the model, and so in which layer dominates the time; ``why``
records the reason each one was chosen.  Every output is compared with a
closed form or with the verdict table of the seed commit.  The tolerances
leave room for a different but correct integrator: no output has to be
byte-identical to the seed's.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SWEEP_POINTS = 8
SWEEP_TOL = 1e-9        # closed-form sweep columns, relative above 1
OUTPUTS = ("trajectory.csv", "run.json", "report.json", "sweep.csv")

# verdicts of the seed commit; diameter and Sobolev witnesses exist only on
# products, so quotient models report them unavailable
_COMMON_VERDICTS = {
    "c0_bound": "ratio-extracted",
    "holder": "pass",
    "hypothesis_report": "pass",
    "lp_evolution_n2": "ratio-extracted",
    "lp_evolution_p2": "ratio-extracted",
    "n2_bound": "hypothesis-not-met",
    "scalar_identity": "pass",
    "volume_identity": "pass",
}
QUOTIENT_VERDICTS = {**_COMMON_VERDICTS, "diameter_bound": "unavailable",
                     "sobolev_along_flow": "unavailable"}
PRODUCT_VERDICTS = {**_COMMON_VERDICTS, "diameter_bound": "pass",
                    "sobolev_along_flow": "hypothesis-not-met"}

_SQRT11 = math.sqrt(11.0)
_SQRT12 = math.sqrt(12.0)
_S3_VOL = 2.0 * math.pi ** 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str                                  # relative to the repo root
    records: int                                 # rows flow must write
    flow_tol: float                              # relative, on the metric
    metric_diag: Callable[[float], list[float]]  # closed-form diagonal g(t)
    sweep_param: str
    sweep_range: tuple[float, float]             # log-uniform draw range
    sweep_expect: Callable[[float], dict]        # closed-form sweep columns
    sec_bracket: Callable[[float], tuple[float, float]]
    verdicts: dict


def _heisenberg_diag(t: float) -> list[float]:
    # Isenberg-Jackson: a = b = (1+3t)^(1/3), c = (1+3t)^(-1/3)
    a = (1.0 + 3.0 * t) ** (1.0 / 3.0)
    return [a, a, 1.0 / a]


def _heisenberg_scaled(lam: float) -> dict:
    # Milnor frame of the unit Heisenberg metric scaled by lam^2
    k = 1.0 / (lam * lam)
    return {"n": 3, "vol": lam ** 3, "diam": math.nan,
            "rm_norm": 0.5 * _SQRT11 * k, "scalar_R": -0.5 * k,
            "ric_min": -0.5 * k, "ric_max": 0.5 * k,
            "rm_n2_norm": 0.5 * _SQRT11}


def _sphere_scaled(lam: float) -> dict:
    # round S^3 of radius lam
    k = 1.0 / (lam * lam)
    return {"n": 3, "vol": _S3_VOL * lam ** 3, "diam": math.pi * lam,
            "rm_norm": _SQRT12 * k, "scalar_R": 6.0 * k,
            "ric_min": 2.0 * k, "ric_max": 2.0 * k,
            "rm_n2_norm": _SQRT12 * _S3_VOL ** (2.0 / 3.0)}


def _collapse_point(r: float) -> dict:
    # unit S^3 times a circle of radius r
    vol = 4.0 * math.pi ** 3 * r
    return {"n": 4, "vol": vol, "diam": math.pi * math.sqrt(1.0 + r * r),
            "rm_norm": _SQRT12, "scalar_R": 6.0, "ric_min": 0.0, "ric_max": 2.0,
            "rm_n2_norm": _SQRT12 * math.sqrt(vol)}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="heisenberg",
        why="nilpotent quotient: the Milnor-frame Ricci kernel and the "
            "grid-clamped DP5(4) loop dominate flow, and check recomputes "
            "curvature per record, so DOP853 and batched curvature show here",
        config="configs/heisenberg.cfg", records=513, flow_tol=1e-7,
        metric_diag=_heisenberg_diag,
        sweep_param="metric_scale", sweep_range=(0.5, 2.0),
        sweep_expect=_heisenberg_scaled,
        sec_bracket=lambda lam: (-0.75 / lam ** 2, 0.25 / lam ** 2),
        verdicts=QUOTIENT_VERDICTS),
    Workload(
        name="sphere",
        why="closed-form product S3: a cheap RHS leaves integrator overhead, "
            "CSV I/O, holder_suite and Sobolev witnesses, so a quotient-kernel "
            "speed-up should barely move flow and check",
        config="configs/sphere.cfg", records=513, flow_tol=1e-8,
        metric_diag=lambda t: [1.0 - 4.0 * t] * 3,
        sweep_param="metric_scale", sweep_range=(0.5, 2.0),
        sweep_expect=_sphere_scaled,
        sec_bracket=lambda lam: (1.0 / lam ** 2, 1.0 / lam ** 2),
        verdicts=PRODUCT_VERDICTS),
    Workload(
        name="collapse_sweep",
        why="S3xS1 collapse family over seeded radii: 10000-plane sampling "
            "dominates sweep, so exact sec extremes show here and integrator or "
            "kernel changes should not move sweep_s",
        config="configs/collapse_sweep.cfg", records=1025, flow_tol=1e-8,
        metric_diag=lambda t: [1.0 - 4.0 * t] * 3 + [0.25],
        sweep_param="factor_radius:1", sweep_range=(0.00390625, 0.5),
        sweep_expect=_collapse_point,
        sec_bracket=lambda r: (0.0, 1.0),
        verdicts=PRODUCT_VERDICTS),
)}


def inputs(w: Workload, seed: int) -> tuple[int, list[float]]:
    """The inputs of one run: the CLI seed and the sweep grid.

    The grid is log-uniform over the workload's range.  The CLI seed is
    drawn too, so any benchmark seed maps to a valid generator seed.
    """
    rng = random.Random(seed)
    lo, hi = w.sweep_range
    values = [lo * (hi / lo) ** rng.random() for _ in range(SWEEP_POINTS)]
    return rng.randrange(2 ** 31), values


def _close(got: float, want: float, tol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= tol * max(1.0, abs(want))


def check_flow(w: Workload, out: Path, values) -> tuple[list[str], dict]:
    """Problems in trajectory.csv and run.json, and the integrator counters."""
    problems = []
    meta = json.loads((out / "run.json").read_text())
    stats = meta["meta"]["integrator"]
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != w.records or meta["records"] != w.records:
        problems.append(f"{len(rows)} rows and {meta['records']} records, "
                        f"expected {w.records}")
    if meta["meta"]["termination"] != "horizon-reached":
        problems.append(f"termination {meta['meta']['termination']!r}")
    n = len(w.metric_diag(0.0))
    worst = 0.0
    for row in rows:
        t = float(row["t"])
        diag = w.metric_diag(t)
        for i in range(n):
            for j in range(i, n):
                got = float(row[f"g_{i}_{j}"])
                err = abs(got / diag[i] - 1.0) if i == j else abs(got)
                worst = max(worst, err)
    if not worst <= w.flow_tol:
        problems.append(f"metric deviates from the closed form by {worst:.3e}")
    counters = {
        "rhs_evals": stats["rhs_evals"],
        "steps_accepted": stats["accepted"],
        "steps_rejected": stats["rejected_err"] + stats["rejected_spd"],
        "records": meta["records"],
        "trajectory_bytes": (out / "trajectory.csv").stat().st_size,
    }
    return problems, counters


def check_check(w: Workload, out: Path, values) -> tuple[list[str], dict]:
    """Problems in report.json: every verdict must match the seed's table."""
    verdicts = {r["name"]: r["status"]
                for r in json.loads((out / "report.json").read_text())}
    if verdicts != w.verdicts:
        wrong = sorted(k for k in set(verdicts) | set(w.verdicts)
                       if verdicts.get(k) != w.verdicts.get(k))
        return [f"verdicts differ from the seed on {wrong}"], {}
    return [], {}


def check_sweep(w: Workload, out: Path, values) -> tuple[list[str], dict]:
    """Problems in sweep.csv against the closed form at every grid value."""
    problems = []
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(values):
        problems.append(f"{len(rows)} sweep rows, expected {len(values)}")
    for row, v in zip(rows, values):
        if row["parameter"] != w.sweep_param or float(row["value"]) != v:
            problems.append(f"row {row['parameter']}={row['value']}, expected "
                            f"{w.sweep_param}={v!r}")
            continue
        for col, want in w.sweep_expect(v).items():
            if not _close(float(row[col]), want, SWEEP_TOL):
                problems.append(f"{col}={row[col]} at {v!r}, expected {want!r}")
        lo, hi = w.sec_bracket(v)
        slack = SWEEP_TOL * max(1.0, abs(lo), abs(hi))
        for col in ("sec_min", "sec_max"):
            if not lo - slack <= float(row[col]) <= hi + slack:
                problems.append(f"{col}={row[col]} at {v!r} outside [{lo!r}, {hi!r}]")
    return problems, {"rows": len(rows)}


OUTPUT_CHECKS = {"flow": check_flow, "check": check_check, "sweep": check_sweep}
