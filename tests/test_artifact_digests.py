import difflib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "artifact_digests.txt"


def test_artifact_digests_on_sphere():
    # configs/sphere.cfg runs twice, once as a shipped config and once as an
    # extra one given by its absolute path: both are labelled by the path
    # relative to the repository, and the two blocks agree
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_digests.py"),
                          str(ROOT / "configs" / "sphere.cfg")], cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=300).stdout.splitlines()
    sphere = [line for line in out if "configs/sphere.cfg" in line]
    shipped, extra = sphere[:len(sphere) // 2], sphere[len(sphere) // 2:]
    assert shipped == extra
    assert [re.sub(r"^[0-9a-f]{64}  ", "<sha256> ", line) for line in extra] == [
        "configs/sphere.cfg flow exit 0",
        "<sha256> configs/sphere.cfg/run.json",
        "<sha256> configs/sphere.cfg/trajectory.csv",
        "configs/sphere.cfg check exit 0",
        "<sha256> configs/sphere.cfg/report.json",
        "configs/sphere.cfg sweep exit 0",      # over SWEEP_GRID: no sweep block
        "<sha256> configs/sphere.cfg/sweep.csv",
    ]
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        assert {f"configs/{cfg.name} {command} exit 0"
                for command in ("flow", "check", "sweep")} <= set(out)
        assert f"configs/{cfg.name}/sweep.csv" in " ".join(out)
    # constants runs where there is a [constants] block: heisenberg.cfg only
    assert [line for line in out if " constants exit " in line] == [
        "configs/heisenberg.cfg constants exit 0"]
    assert re.search(r"^[0-9a-f]{64}  configs/heisenberg.cfg/constants.json$", "\n".join(out),
                     re.MULTILINE)


def test_shipped_artifacts_match_the_golden_digests():
    # every artifact of every shipped config, byte for byte, under a header
    # naming the numpy and BLAS whose LAPACK the digests depend on: a change
    # that moves one rewrites tests/data/artifact_digests.txt and says why
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  ROOT / "tools" / "artifact_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    golden = GOLDEN.read_text().splitlines()
    now = [golden[0], f"# numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"]
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        now += tool.config_lines(cfg, f"configs/{cfg.name}")
    diff = list(difflib.unified_diff(golden, now, "golden", "this tree", n=0, lineterm=""))
    assert not diff, "\n".join(diff)
