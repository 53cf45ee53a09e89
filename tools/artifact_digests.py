"""Print the sha256 of every artifact that ``flow``, ``check``, ``sweep`` and
``constants`` write, or with ``--verdicts`` the verdict of each command.

    python3 tools/artifact_digests.py [--verdicts] [extra.cfg ...]

Runs the commands, in that order, on each config under ``configs/``
and then on each config named on the command line, with the ``riccilab``
package of this checkout (``src/``).  Every config gets its own temporary
directory, which is the working directory while the commands write to
``out/`` there: ``run.json`` records the trajectory's path, so that path is
the same on every run.  ``check`` reads the trajectory ``flow`` wrote.  For
each command the script prints its exit code, the number of warnings it
raised if any, then one line per file the command wrote or changed: the
sha256 and the file's name under the config's label.  The label is the
config's path relative to the repository root, or for a config outside the
repository its path as given, so two checkouts print the same lines.
Command output is discarded, and every warning is counted, not shown.  A
config without a ``[sweep]`` block is swept with ``SWEEP_GRID``, and
``constants`` runs only on a config with a ``[constants]`` block.

``--verdicts`` prints, in place of those lines, one line per command with
its exit code, except for a ``check`` that wrote ``report.json``: it gets one
line per report, with the report's name, its status and its headline number
(``headline``) to 3 significant digits.

Run it from two checkouts and ``diff`` the outputs: equal outputs mean the
two write byte-identical artifacts, or reach the same verdicts, on those
configs.  ``tests/data/artifact_digests.txt`` and ``tests/data/verdicts.txt``
hold both outputs over the shipped configs and ``tests/data/witnesses/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from riccilab.cli import main as riccilab_main
from riccilab.config import ConfigError, parse_text

COMMANDS = ("flow", "check", "sweep", "constants")
SWEEP_GRID = ["--param", "metric_scale", "--values", "0.5,1,2"]
# where a report's headline number is looked up, in order
HEADLINE_KEYS = (("details", "max_residual"), ("fitted_constant",), ("sup_ratio",),
                 ("details", "worst_margin"), ("details", "lhs"))


def _has_block(config: Path, section: str) -> bool:
    try:
        return section in parse_text(config.read_text(), str(config))
    except ConfigError:
        return True         # each command names the config's own error


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def headline(report: dict) -> str:
    """The first number among ``HEADLINE_KEYS`` in one ``report.json`` entry,
    to 3 significant digits, or "-" if there is none."""
    for keys in HEADLINE_KEYS:
        value = report
        for key in keys:
            value = value.get(key) if isinstance(value, dict) else None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return f"{value:.3g}"
    return "-"


def config_lines(config: Path, label: str) -> tuple[list[str], list[str]]:
    """The digest lines and the verdict lines of each command on one config."""
    lines, verdicts = [], []
    config = config.resolve()
    sweep_args = [] if _has_block(config, "sweep") else SWEEP_GRID
    commands = COMMANDS if _has_block(config, "constants") else COMMANDS[:-1]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            out = Path("out")
            out.mkdir()
            before: dict[str, str] = {}
            for command in commands:
                argv = [command, "--config", str(config), "--out", str(out)]
                if command == "check":
                    argv += ["--trajectory", str(out / "trajectory.csv")]
                if command == "sweep":
                    argv += sweep_args
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rc = riccilab_main(argv)
                lines.append(f"{label} {command} exit {rc}")
                if caught:
                    lines.append(f"{label} {command} warnings {len(caught)}")
                after = _digests(out)
                changed = [name for name, digest in after.items() if before.get(name) != digest]
                lines += [f"{after[name]}  {label}/{name}" for name in changed]
                before = after
                if command == "check" and "report.json" in changed:
                    reports = json.loads((out / "report.json").read_text())
                    verdicts += [f"{label} check {r['name']} {r['status']} {headline(r)}"
                                 for r in reports]
                else:
                    verdicts.append(f"{label} {command} exit {rc}")
        finally:
            os.chdir(cwd)
    return lines, verdicts


def _label(config: Path) -> str:
    """The config's path relative to the repository root, else as given."""
    path = config.resolve()
    return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else str(config)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    verdicts = "--verdicts" in args
    extras = [arg for arg in args if arg != "--verdicts"]
    configs = [(p, _label(p))
               for p in [*sorted((ROOT / "configs").glob("*.cfg")), *map(Path, extras)]]
    for config, label in configs:
        if not config.is_file():
            print(f"error: config file not found: {config}", file=sys.stderr)
            return 2
    for config, label in configs:
        print("\n".join(config_lines(config, label)[verdicts]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
