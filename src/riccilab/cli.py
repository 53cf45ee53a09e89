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

import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

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
    if not path.is_dir():       # mkdir would raise and catch FileExistsError
        path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> RunConfig:
    flags = tuple((f"--{name}", key, value) for name, key in _FLAG_KEYS
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
        traj, chain, cfg.primitives, a_const=cfg.a_const, b_const=cfg.b_const,
        family=cfg.family, kappa=cfg.kappa, seed=cfg.seed, checks=selected)
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


def _check_sweep_value(parameter: str, value: float, source: str) -> None:
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
        raise ConfigError(f"sweep parameter {parameter} needs {need}, got {value!r}", source)


def _sweep_points(model: geometry.ModelGeometry, parameter: str, source: str):
    """Parse and validate a sweep parameter once; return the function that
    gives the model and initial metric at one grid value.

    ``metric_scale`` and ``factor_radius:<i>`` keep the config's model, so a
    row only scales its reference metric or sets factor i's scale to value^2
    (no radius enters an invariant, only the scale).  ``bracket_scale``
    builds each row's model in full, since scaled brackets are validated
    anew (finite coefficients, Jacobi).  ``source`` names the config in a
    ConfigError.
    """
    if parameter == "metric_scale":
        g = geometry.reference_metric(model)
        return lambda v: (model, geometry.scale_metric(g, v * v))
    if parameter == "bracket_scale":
        if model.kind != geometry.LIE_GROUP_QUOTIENT:
            raise ConfigError("bracket_scale sweeps need a quotient model", source)
        spec = model.describe()

        def scaled(v):
            row = geometry.build_model({**spec, "brackets": [
                [i, j, k, c * v] for i, j, k, c in spec["brackets"]]})
            return row, geometry.reference_metric(row)
        return scaled
    if not parameter.startswith("factor_radius:"):
        raise ConfigError(f"unknown sweep parameter {parameter!r}; use metric_scale, "
                          "bracket_scale or factor_radius:<index>", source)
    if model.kind != geometry.PRODUCT_OF_SPACE_FORMS:
        raise ConfigError("factor_radius sweeps need a product model", source)
    text = parameter.split(":", 1)[1]
    try:
        idx = int(text)
    except ValueError:
        idx = -1
    if not 0 <= idx < len(model.factors):
        raise ConfigError(f"sweep parameter {parameter} needs a factor index in "
                          f"0..{len(model.factors) - 1}, got {text!r}", source)
    scales = [r * r for _, _, r in model.factors]
    return lambda v: (model, geometry.metric_from_scales(
        model, [*scales[:idx], v * v, *scales[idx + 1:]]))


_SWEEP_COLS = ("parameter", "value", "n", "vol", "diam", "rm_norm", "scalar_R",
               "ric_min", "ric_max", "sec_min", "sec_max", "rm_n2_norm",
               "cs_upper", "theta0", "margin_pinching_main",
               "margin_flow_existence", "margin_pinching_diameter")


# columns that are finite on every valid grid point (diam is NaN on
# quotients and a margin is NaN where its theorem does not apply)
_SWEEP_FINITE = ("vol", "rm_norm", "scalar_R", "ric_min", "ric_max", "sec_min",
                 "sec_max", "rm_n2_norm", "cs_upper", "theta0")


def _sweep_row(cfg: RunConfig, parameter: str, v: float, point,
               thresholds: constants.ChainThresholds) -> dict:
    """Static invariants and hypothesis margins at one grid point, by column.

    ``point`` is the sweep's ``_sweep_points`` function and ``thresholds``
    its ``constants.chain_thresholds``, solved once before the first value,
    so a row computes only the initial-data part of its chain.
    """
    model, g = point(v)
    n = model.dim
    curv = geometry.curvature(model, g, seed=cfg.seed)
    if curv.vol == 0.0:    # underflowed, so vol^(-1/n) and the n/2-norm are not finite
        raise FloatingPointError(f"volume underflows at {parameter} = {v!r}")
    inv = checks.hypothesis_invariants(model, g, curv.rm_norm, curv.vol, float(curv.ric_eigs[0]),
                                       cfg.kappa, cfg.flow.cs0, cfg.primitives)
    chain = constants.chain_from_thresholds(thresholds, curv.vol, cfg.flow.cs0, inv["rm_n2"])
    rep = checks.hypothesis_report(n, inv, chain, cfg.primitives)
    margins = {t["theorem"]: t["margin"] for t in rep.details["theorems"]}
    return {
        "parameter": parameter, "value": v, "n": n, "vol": curv.vol,
        "diam": inv.get("diam", math.nan),
        "rm_norm": curv.rm_norm, "scalar_R": curv.scalar,
        "ric_min": inv["ric_min"], "ric_max": float(curv.ric_eigs[-1]),
        "sec_min": curv.sec_min, "sec_max": curv.sec_max,
        "rm_n2_norm": inv["rm_n2"], "cs_upper": inv["cs_upper"],
        "theta0": inv["rm_n2"] * inv["cs_upper"] * inv["cs_upper"],
        "margin_pinching_main": _nan(margins.get("pinching_main")),
        "margin_flow_existence": _nan(margins.get("flow_existence")),
        "margin_pinching_diameter": _nan(margins.get("pinching_diameter")),
    }


def _try_sweep_row(cfg: RunConfig, parameter: str, v: float, point,
                   thresholds: constants.ChainThresholds) -> tuple[dict | None, str | None]:
    """``_sweep_row`` at v and None, or None and why its invariants are not
    finite: the error it raised or its first non-finite column.  Called under
    ``cmd_sweep``'s ``np.errstate``, so an overflow raises."""
    try:
        row = _sweep_row(cfg, parameter, v, point, thresholds)
    except (ArithmeticError, geometry.GeometryError) as exc:
        return None, str(exc)
    bad = next((c for c in _SWEEP_FINITE if not math.isfinite(row[c])), None)
    return (row, None) if bad is None else (None, f"{bad} is {row[bad]!r}")


def _sweep_failure(cfg: RunConfig, parameter: str, v: float, point,
                   thresholds: constants.ChainThresholds) -> str:
    """The message for a row at v whose invariants are not finite: it blames
    the value, unless a metric_scale sweep's reference metric (value 1)
    fails too, when it names the model.  Only this error path evaluates the
    reference row."""
    if parameter == "metric_scale":
        why = _try_sweep_row(cfg, parameter, 1.0, point, thresholds)[1]
        if why is not None:
            return f"the model's invariants are not finite even at its reference metric: {why}"
    return f"sweep parameter {parameter} needs a value whose invariants are finite, got {v!r}"


def cmd_sweep(args) -> int:
    cfg = _load(args)
    model = _build_model(cfg)
    out = _out_dir(cfg)
    parameter, values = cfg.sweep_parameter, cfg.sweep_values
    if parameter is None or not values:
        raise ConfigError("sweep needs a parameter and a nonempty value grid "
                          "(sweep block or --param/--values)", cfg.source)
    point = _sweep_points(model, parameter, cfg.source)
    # every row has the model's n and the config's gamma: a bad gamma is
    # reported here, like a bad parameter, before any value
    thresholds = constants.chain_thresholds(cfg.primitives, model.dim, cfg.flow.gamma)
    rows = []
    # an invariant that overflows (the volume scales like value^n) is an
    # error in every row, and in _sweep_failure's reference row, not a
    # numpy warning followed by an inf row
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for v in values:
            _check_sweep_value(parameter, v, cfg.source)
            row = _try_sweep_row(cfg, parameter, v, point, thresholds)[0]
            if row is None:
                raise ConfigError(_sweep_failure(cfg, parameter, v, point, thresholds),
                                  cfg.source)
            rows.append(row)
    csv_path = out / "sweep.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(_SWEEP_COLS) + "\n")
        for row in rows:    # parameter, value and n, then one float per column
            fh.write(",".join([row["parameter"], repr(row["value"]), str(row["n"]),
                               *[repr(float(row[c])) for c in _SWEEP_COLS[3:]]]) + "\n")
    if cfg.out_format == "json":
        (out / "sweep.json").write_text(_json_bytes(rows))
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


def _nan(x) -> float:
    return math.nan if x is None else float(x)


# the arguments every subcommand takes, as (flag, add_argument keywords)
_COMMON = (
    ("--config", {"required": True, "help": "run configuration file"}),
    ("--out", {"default": None, "help": "output directory"}),
    ("--format", {"metavar": "{csv,json}", "default": None,
                  "help": "also emit JSON variants of tabular artifacts"}),
    ("--seed", {"default": None, "help": "seed override"}),
    ("--override", {"action": "append", "metavar": "SECTION.KEY=VALUE",
                    "help": "config override, repeatable"}),
)


# one entry per subcommand: name -> help, handler and the arguments it adds
# to the common ones
_COMMANDS = {
    "flow": ("integrate a flow and persist the trajectory", cmd_flow, ()),
    "check": ("run the estimate checks on a trajectory", cmd_check, (
        ("--trajectory", {"required": True, "help": "trajectory CSV path"}),
        ("--checks", {"default": None, "help": "comma-separated check names (default: all)"}))),
    "constants": ("emit the constant chain and schedule", cmd_constants, ()),
    "sweep": ("evaluate static invariants over a grid", cmd_sweep, (
        ("--param", {"default": None,
                     "help": "metric_scale | bracket_scale | factor_radius:<i>"}),
        ("--values", {"default": None, "help": "comma-separated grid values"}))),
}


def _add_command(p: argparse.ArgumentParser, name: str, func, extra) -> None:
    for flag, kwargs in (*_COMMON, *extra):
        p.add_argument(flag, **kwargs)
    p.set_defaults(command=name, func=func)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, as ``riccilab -h`` shows it.

    Only help and malformed command lines get here, so argparse (and the
    gettext it loads) is imported here and nowhere else.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="riccilab",
        description="Curvature flow laboratory on homogeneous model geometries")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, extra) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name, func, extra)
    return parser


def _read_flags(name: str, tokens: list[str]) -> SimpleNamespace | None:
    """The namespace of a known command whose arguments are exact
    ``--flag value`` pairs, read from the flag table with the keywords
    argparse gets; None where argparse might parse them otherwise or fail.
    Values stay text: the config schema converts and checks them.

    A value starting with "-" (argparse may take it for a flag), a flag that
    is not exactly one of the command's (help, "--", an abbreviation,
    "--flag=value") and a missing required flag all give None.
    """
    _, func, extra = _COMMANDS[name]
    table = dict((*_COMMON, *extra))
    if len(tokens) % 2:
        return None
    ns = dict.fromkeys(flag[2:] for flag in table)
    for flag, value in zip(tokens[::2], tokens[1::2]):
        kwargs = table.get(flag)
        if kwargs is None or value.startswith("-"):
            return None
        dest = flag[2:]
        ns[dest] = [*(ns[dest] or ()), value] if kwargs.get("action") == "append" else value
    if any(kwargs.get("required") and ns[flag[2:]] is None for flag, kwargs in table.items()):
        return None
    return SimpleNamespace(command=name, func=func, **ns)


def _parse_args(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """The namespace of ``build_parser().parse_args(argv)``, or one with the
    same attributes.

    A known command whose arguments are exact ``--flag value`` pairs is read
    from the flag table by ``_read_flags``, with no parser built and argparse
    not imported.  Every other argv (help, errors, abbreviations,
    "--flag=value", an empty argv, an unknown command) goes to the full
    parser.
    """
    if argv and argv[0] in _COMMANDS:
        args = _read_flags(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command; every parser it builds lives only for this call."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrajectorySchemaError as exc:
        print(f"trajectory schema error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
