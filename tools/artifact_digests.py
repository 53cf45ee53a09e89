"""Print the sha256 of every artifact that ``flow``, ``check``, ``sweep`` and
``constants`` write.

    python3 tools/artifact_digests.py [extra.cfg ...]

Runs the commands, in that order, on each config under ``configs/``
and then on each config named on the command line, with the ``riccilab``
package of this checkout (``src/``).  Every config gets its own temporary
directory, which is the working directory while the commands write to
``out/`` there: ``run.json`` records the trajectory's path, so that path is
the same on every run.  ``check`` reads the trajectory ``flow`` wrote.  For
each command the script prints its exit code, then one line per file the
command wrote or changed: the sha256 and the file's name under the config's
label.  The label is the config's path relative to the repository root, or
for a config outside the repository its path as given, so two checkouts
print the same lines.  Command output and warnings are discarded.  A config
without a ``[sweep]`` block is swept with ``SWEEP_GRID``, and ``constants``
runs only on a config with a ``[constants]`` block.

Run it from two checkouts and ``diff`` the outputs: equal outputs mean the
two write byte-identical artifacts on those configs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from riccilab.cli import main as riccilab_main
from riccilab.config import ConfigError, parse_text

COMMANDS = ("flow", "check", "sweep", "constants")
SWEEP_GRID = ["--param", "metric_scale", "--values", "0.5,1,2"]


def _has_block(config: Path, section: str) -> bool:
    try:
        return section in parse_text(config.read_text(), str(config))
    except ConfigError:
        return True         # each command names the config's own error


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def config_lines(config: Path, label: str) -> list[str]:
    """The exit code and artifact digests of each command on one config."""
    lines = []
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
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = riccilab_main(argv)
                lines.append(f"{label} {command} exit {rc}")
                after = _digests(out)
                lines += [f"{digest}  {label}/{name}" for name, digest in after.items()
                          if before.get(name) != digest]
                before = after
        finally:
            os.chdir(cwd)
    return lines


def _label(config: Path) -> str:
    """The config's path relative to the repository root, else as given."""
    path = config.resolve()
    return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else str(config)


def main(argv: list[str] | None = None) -> int:
    extras = sys.argv[1:] if argv is None else argv
    configs = [(p, _label(p))
               for p in [*sorted((ROOT / "configs").glob("*.cfg")), *map(Path, extras)]]
    for config, label in configs:
        if not config.is_file():
            print(f"error: config file not found: {config}", file=sys.stderr)
            return 2
    for config, label in configs:
        print("\n".join(config_lines(config, label)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
