import difflib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
WITNESSES = sorted((DATA / "witnesses").glob("*.cfg"))


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


def _tool():
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  ROOT / "tools" / "artifact_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_shipped_artifacts_match_the_golden_digests():
    # every artifact and every verdict of every shipped and witness config,
    # in one in-process pass, under a header naming the numpy and BLAS whose
    # LAPACK the digests depend on: a change that moves one rewrites
    # tests/data/artifact_digests.txt or tests/data/verdicts.txt and says why
    tool = _tool()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = f"# numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"
    golden = {name: (DATA / name).read_text().splitlines()
              for name in ("artifact_digests.txt", "verdicts.txt")}
    now = {name: [lines[0], build] for name, lines in golden.items()}
    for cfg in [*sorted((ROOT / "configs").glob("*.cfg")), *WITNESSES]:
        digests, verdicts = tool.config_lines(cfg, str(cfg.relative_to(ROOT)))
        now["artifact_digests.txt"] += digests
        now["verdicts.txt"] += verdicts
    diff = [line for name in golden for line in difflib.unified_diff(
        golden[name], now[name], f"{name} (golden)", "this tree", n=0, lineterm="")]
    assert not diff, "\n".join(diff)


def test_witness_verdicts_and_warnings():
    # the witnesses the golden files hold: five whose check exits 1, and the
    # tiny sphere's warnings counted rather than raised
    lines = (DATA / "artifact_digests.txt").read_text().splitlines()
    witness = "tests/data/witnesses/"
    assert [line for line in lines if " exit 0" not in line and " exit " in line] == [
        f"{witness}{name}.cfg check exit 1" for name in (
            "berger", "e2_fast_start", "h5_fast_start", "heisenberg_subulp", "tiny_sphere")]
    assert [line for line in lines if " warnings " in line] == [
        f"{witness}tiny_sphere.cfg check warnings 25"]
    assert {f"{witness}{cfg.name} flow exit 0" for cfg in WITNESSES} <= set(lines)


def test_headline_is_the_first_number_found():
    headline = _tool().headline
    assert headline({"details": {"max_residual": 4.0712e-3}, "fitted_constant": 1.0}) == "0.00407"
    assert headline({"details": {"max_residual": None}, "fitted_constant": 2.3e13}) == "2.3e+13"
    assert headline({"fitted_constant": None, "sup_ratio": 31.25}) == "31.2"
    assert headline({"details": {"worst_margin": -6.49e-16, "lhs": 1.0}}) == "-6.49e-16"
    assert headline({"details": {"lhs": float("nan")}}) == "nan"
    assert headline({"fitted_constant": True, "details": {"theorems": []}}) == "-"
