"""Command line interface: flow, check, constants, sweep.

Exit codes: 0 success (including recorded blowup/underflow terminations),
1 when an explicit-constant check failed, 2 for configuration errors,
3 for trajectory files that do not match the mandated CSV schema.
Artifacts are deterministic byte-for-byte for a fixed (config, seed).
--seed, --format, --out, --param and --values stand for the output.seed,
output.format, output.dir, sweep.parameter and sweep.values overrides and
are applied after every --override; without an output directory there,
RICCILAB_OUTDIR is used, then the working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import checks, constants, flow, geometry
from .config import ConfigError, RunConfig, load_config
from .flow import TrajectorySchemaError

OUTDIR_ENV = "RICCILAB_OUTDIR"

# an empty flag value falls back to the config
_FLAG_KEYS = (("seed", "output.seed"), ("format", "output.format"), ("out", "output.dir"),
              ("param", "sweep.parameter"), ("values", "sweep.values"))


def _json_bytes(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out_dir or os.environ.get(OUTDIR_ENV) or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> RunConfig:
    flags = tuple((f"--{name}", key, str(value)) for name, key in _FLAG_KEYS
                  if (value := getattr(args, name, None)) is not None and value != "")
    return load_config(args.config, overrides=tuple(args.override or ()), flags=flags)


def _build_model(cfg: RunConfig) -> geometry.ModelGeometry:
    cfg.require_section("model")
    try:
        return geometry.build_model(cfg.model_spec)
    except geometry.GeometryError as exc:
        raise ConfigError(f"invalid model: {exc}", cfg.source) from None


def cmd_flow(args) -> int:
    cfg = _load(args)
    model = _build_model(cfg)
    out = _out_dir(cfg)
    g0 = geometry.reference_metric(model)
    traj = flow.integrate(model, g0, cfg.flow)
    if cfg.stride > 1:
        traj = _thin(traj, cfg.stride)
    csv_path = out / "trajectory.csv"
    flow.write_trajectory_csv(traj, csv_path)
    sidecar = {
        "meta": traj.meta,
        "primitives": cfg.primitives.describe(),
        "seed": cfg.seed,
        "records": len(traj),
        "artifact": str(csv_path),
    }
    (out / "run.json").write_text(_json_bytes(sidecar))
    if cfg.out_format == "json":
        rows = _trajectory_rows(traj)
        (out / "trajectory.json").write_text(_json_bytes(rows))
    print(f"wrote {csv_path} ({len(traj)} records, {traj.meta['termination']})")
    return 0


def _thin(traj: flow.Trajectory, stride: int) -> flow.Trajectory:
    # keep only aligned indices so the written grid stays uniform (the
    # finite-difference checkers rely on that); the sidecar keeps t_reached
    idx = np.arange(0, len(traj), stride)
    return flow.Trajectory(
        model=traj.model, times=traj.times[idx], mats=traj.mats[idx],
        derived={k: v[idx] for k, v in traj.derived.items()},
        meta={**traj.meta, "record_stride": stride,
              "record_every": stride * traj.meta.get("record_every", 0.0)})


def _trajectory_rows(traj: flow.Trajectory) -> list[dict]:
    cols = flow.csv_columns(traj.model.dim)
    return [dict(zip(cols, row)) for row in flow.trajectory_table(traj).tolist()]


def cmd_check(args) -> int:
    cfg = _load(args)
    model = _build_model(cfg)
    out = _out_dir(cfg)
    # loading also validates the stored derived columns
    traj = flow.read_trajectory_csv(model, args.trajectory, cs0=cfg.flow.cs0,
                                    c_n=cfg.flow.c_n, gamma=cfg.flow.gamma)
    chain = constants.constant_chain(
        cfg.primitives, model.dim, cfg.flow.gamma, traj.meta["vol0"],
        cfg.flow.cs0, traj.meta["rm_n2_0"])
    selected = args.checks.split(",") if args.checks else None
    reports = checks.run_suite(
        traj, chain, cfg.primitives, a_const=cfg.a_const,
        b_const=cfg.b_const, family=cfg.family, grid=cfg.grid,
        kappa=cfg.kappa, seed=cfg.seed, checks=selected)
    payload = [r.to_jsonable() for r in reports]
    (out / "report.json").write_text(_json_bytes(payload))
    for r in reports:
        print(f"{r.name}: {r.status}")
    return 1 if checks.suite_failed(reports) else 0


def cmd_constants(args) -> int:
    cfg = _load(args)
    cfg.require_section("constants")
    n = cfg.constants_n
    if n is None and cfg.model_spec is not None:
        n = _build_model(cfg).dim
    if n is None:
        raise ConfigError("constants.n is required when no model block is given",
                          cfg.source)
    chain = constants.constant_chain(cfg.primitives, n, cfg.flow.gamma,
                                     cfg.vol0, cfg.flow.cs0, cfg.rm_n2_0)
    schedule = constants.moser_schedule(n, cfg.t_prime, cfg.moser_k)
    payload = {
        "chain": chain.describe(),
        "moser": schedule.describe(),
        "primitives": cfg.primitives.describe(),
    }
    text = _json_bytes(payload)
    out = _out_dir(cfg)
    (out / "constants.json").write_text(text)
    sys.stdout.write(text)
    return 0


def _check_sweep_value(parameter: str, value: float) -> None:
    """Reject a grid value whose square overflows or underflows.

    The metric scales by value^2 under metric_scale, a factor's scale is its
    radius^2, and curvature scales by value^2 under bracket_scale, so a
    square outside the normal floats gives inf, NaN or a zero scale.
    """
    sq = value * value
    if parameter == "bracket_scale":
        ok = math.isfinite(sq) and (value == 0 or sq >= sys.float_info.min)
        need = "a finite value whose square is finite and, unless 0, nonzero"
    else:
        ok = value > 0 and sys.float_info.min <= sq < math.inf
        need = "a positive value whose square is finite and nonzero"
    if not ok:
        raise ConfigError(f"sweep parameter {parameter} needs {need}, got {value!r}")


def _sweep_point(model_spec: dict, parameter: str, value: float):
    """Model and initial metric for one sweep grid point."""
    spec = json.loads(json.dumps(model_spec))    # deep copy
    if parameter == "metric_scale":
        model = geometry.build_model(spec)
        g = geometry.scale_metric(geometry.reference_metric(model), value * value)
        return model, g
    if parameter == "bracket_scale":
        if spec.get("kind") != geometry.LIE_GROUP_QUOTIENT:
            raise ConfigError("bracket_scale sweeps need a quotient model")
        spec["brackets"] = [[i, j, k, c * value] for i, j, k, c in spec["brackets"]]
        model = geometry.build_model(spec)
        return model, geometry.reference_metric(model)
    if parameter.startswith("factor_radius:"):
        if spec.get("kind") != geometry.PRODUCT_OF_SPACE_FORMS:
            raise ConfigError("factor_radius sweeps need a product model")
        text = parameter.split(":", 1)[1]
        try:
            idx = int(text)
        except ValueError:
            idx = -1
        if not 0 <= idx < len(spec["factors"]):
            raise ConfigError(f"sweep parameter {parameter} needs a factor index in "
                              f"0..{len(spec['factors']) - 1}, got {text!r}")
        spec["factors"][idx][2] = value
        model = geometry.build_model(spec)
        return model, geometry.reference_metric(model)
    raise ConfigError(f"unknown sweep parameter {parameter!r}; use metric_scale, "
                      "bracket_scale or factor_radius:<index>")


_SWEEP_COLS = ("parameter", "value", "n", "vol", "diam", "rm_norm", "scalar_R",
               "ric_min", "ric_max", "sec_min", "sec_max", "rm_n2_norm",
               "cs_upper", "theta0", "margin_pinching_main",
               "margin_flow_existence", "margin_pinching_diameter")


# columns that are finite on every valid grid point (diam is NaN on
# quotients and a margin is NaN where its theorem does not apply)
_SWEEP_FINITE = ("vol", "rm_norm", "scalar_R", "ric_min", "ric_max", "sec_min",
                 "sec_max", "rm_n2_norm", "cs_upper", "theta0")


def _sweep_row(cfg: RunConfig, parameter: str, v: float) -> dict:
    """Static invariants and hypothesis margins at one grid point, by column."""
    model, g = _sweep_point(cfg.model_spec, parameter, v)
    n = model.dim
    curv = geometry.curvature(model, g, seed=cfg.seed)
    vol = geometry.volume(model, g)
    if vol == 0.0:         # underflowed, so vol^(-1/n) and the n/2-norm are not finite
        raise FloatingPointError(f"volume underflows at {parameter} = {v!r}")
    ric = np.linalg.eigvalsh(curv.ric)
    inv = checks.hypothesis_invariants(model, g, curv.rm_norm, vol, float(ric[0]),
                                       cfg.kappa, cfg.flow.cs0, cfg.primitives)
    chain = constants.constant_chain(cfg.primitives, n, cfg.flow.gamma,
                                     vol, cfg.flow.cs0, inv["rm_n2"])
    rep = checks.hypothesis_report(n, inv, chain, cfg.primitives)
    margins = {t["theorem"]: t["margin"] for t in rep.details["theorems"]}
    return {
        "parameter": parameter, "value": v, "n": n, "vol": vol,
        "diam": inv.get("diam", math.nan),
        "rm_norm": curv.rm_norm, "scalar_R": curv.scalar,
        "ric_min": inv["ric_min"], "ric_max": float(ric[-1]),
        "sec_min": curv.sec_min, "sec_max": curv.sec_max,
        "rm_n2_norm": inv["rm_n2"], "cs_upper": inv["cs_upper"],
        "theta0": inv["rm_n2"] * inv["cs_upper"] * inv["cs_upper"],
        "margin_pinching_main": _nan(margins.get("pinching_main")),
        "margin_flow_existence": _nan(margins.get("flow_existence")),
        "margin_pinching_diameter": _nan(margins.get("pinching_diameter")),
    }


def cmd_sweep(args) -> int:
    cfg = _load(args)
    out = _out_dir(cfg)
    cfg.require_section("model")
    parameter, values = cfg.sweep_parameter, cfg.sweep_values
    if parameter is None or not values:
        raise ConfigError("sweep needs a parameter and a nonempty value grid "
                          "(sweep block or --param/--values)")
    rows = []
    for v in values:
        _check_sweep_value(parameter, v)
        try:
            # an invariant that overflows (the volume scales like value^n) is
            # an error here, not a numpy warning followed by an inf row
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                row = _sweep_row(cfg, parameter, v)
        except ArithmeticError:
            row = None
        if row is None or not all(math.isfinite(row[c]) for c in _SWEEP_FINITE):
            raise ConfigError(f"sweep parameter {parameter} needs a value whose "
                              f"invariants are finite, got {v!r}")
        rows.append(row)
    csv_path = out / "sweep.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(_SWEEP_COLS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(row[c]) for c in _SWEEP_COLS) + "\n")
    if cfg.out_format == "json":
        (out / "sweep.json").write_text(_json_bytes(rows))
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


def _nan(x) -> float:
    return math.nan if x is None else float(x)


def _fmt_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return repr(float(v))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="also emit JSON variants of tabular artifacts")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--override", action="append", metavar="SECTION.KEY=VALUE",
                   help="config override, repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riccilab",
        description="Curvature flow laboratory on homogeneous model geometries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", help="integrate a flow and persist the trajectory")
    _add_common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("check", help="run the estimate checks on a trajectory")
    _add_common(p)
    p.add_argument("--trajectory", required=True, help="trajectory CSV path")
    p.add_argument("--checks", default=None,
                   help="comma-separated check names (default: all)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("constants", help="emit the constant chain and schedule")
    _add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("sweep", help="evaluate static invariants over a grid")
    _add_common(p)
    p.add_argument("--param", default=None,
                   help="metric_scale | bracket_scale | factor_radius:<i>")
    p.add_argument("--values", default=None, help="comma-separated grid values")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrajectorySchemaError as exc:
        print(f"trajectory schema error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, geometry.GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
