import contextlib
import csv
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccilab import geometry
from riccilab.cli import _COMMANDS, _COMMON, main

CONFIGS = Path(__file__).parent.parent / "configs"

SPHERE_CFG = """
[model]
kind = product_of_space_forms
factors = sphere 3 1.0

[flow]
t_end = 0.2
record_every = 0.000390625

[output]
seed = 0
"""

HEIS_CFG = """
[model]
kind = lie_group_quotient
dim = 3
covolume = 1.0
brackets = 1 2 3 1.0

[flow]
t_end = 0.2
record_every = 0.00625
"""

PROD_CFG = """
[model]
kind = product_of_space_forms
factors = sphere 3 1.0 ; circle 1 0.5

[flow]
t_end = 0.05
record_every = 0.00078125

[sweep]
parameter = factor_radius:1
values = 0.5 0.25 0.125 0.0625 0.03125 0.015625 0.0078125 0.00390625
"""

# every length 1e-40, so vol is about 1.2e-158 and |Rm| about 3.5e80
TINY_CFG = """
[model]
kind = product_of_space_forms
factors = sphere 3 1e-40 ; circle 1 1e-40

[flow]
t_end = 1e-81
"""


def _csv_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(path.read_text().splitlines()))


@pytest.fixture
def cfgfile(tmp_path):
    def write(text, name="run.cfg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_flow_writes_mandated_columns(cfgfile, tmp_path):
    out = tmp_path / "runs"
    rc = main(["flow", "--config", cfgfile(SPHERE_CFG), "--out", str(out)])
    assert rc == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
    assert header == ["t", "g_0_0", "g_0_1", "g_0_2", "g_1_1", "g_1_2", "g_2_2",
                      "vol", "rm_norm", "scalar_R", "rm_n2_norm", "J", "theta",
                      "chi", "ric_min", "ric_max"]
    sidecar = json.loads((out / "run.json").read_text())
    assert sidecar["meta"]["termination"] == "horizon-reached"
    assert "integrator" in sidecar["meta"]
    assert sidecar["primitives"]["c_n"] == 1.0


def test_flow_gamma_override_doubles_horizon(cfgfile, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = cfgfile(SPHERE_CFG)
    assert main(["flow", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["flow", "--config", cfg, "--out", str(out2),
                 "--override", "flow.gamma=2"]) == 0
    t1 = json.loads((out1 / "run.json").read_text())["meta"]["T0"]
    t2 = json.loads((out2 / "run.json").read_text())["meta"]["T0"]
    assert math.isclose(t2, 2.0 * t1, rel_tol=1e-12)


def test_flow_missing_model_block(cfgfile, tmp_path, capsys):
    rc = main(["flow", "--config", cfgfile("[flow]\nt_end = 0.1\n"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "[model]" in capsys.readouterr().err


def test_flow_rejects_non_unimodular_model(cfgfile, tmp_path, capsys):
    cfg = HEIS_CFG.replace("brackets = 1 2 3 1.0", "brackets = 1 2 2 1.0 ; 1 3 3 1.0")
    rc = main(["flow", "--config", cfgfile(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "not unimodular" in capsys.readouterr().err


def test_unknown_key_is_line_precise(cfgfile, tmp_path, capsys):
    bad = "[model]\nkind = product_of_space_forms\nfactors = sphere 3 1.0\nboom = 1\n"
    rc = main(["flow", "--config", cfgfile(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert ":4:" in err and "boom" in err


def test_flow_blowup_exits_zero(cfgfile, tmp_path):
    out = tmp_path / "blow"
    rc = main(["flow", "--config", cfgfile(SPHERE_CFG), "--out", str(out),
               "--override", "flow.t_end=0.3"])
    assert rc == 0
    meta = json.loads((out / "run.json").read_text())["meta"]
    assert meta["termination"] == "curvature-blowup"


def test_check_full_suite_on_torus(cfgfile, tmp_path):
    torus = """
[model]
kind = lie_group_quotient
dim = 3
covolume = 1.0

[flow]
t_end = 0.5
record_every = 0.015625
"""
    out = tmp_path / "torus"
    cfg = cfgfile(torus)
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    rc = main(["check", "--config", cfg, "--out", str(out),
               "--trajectory", str(out / "trajectory.csv")])
    assert rc == 0
    reports = json.loads((out / "report.json").read_text())
    statuses = {r["name"]: r["status"] for r in reports}
    assert statuses["volume_identity"] == "pass"
    assert statuses["holder"] == "pass"
    assert "fail" not in statuses.values()


def test_check_filter_single_check(cfgfile, tmp_path):
    out = tmp_path / "s3"
    cfg = cfgfile(SPHERE_CFG)
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    rc = main(["check", "--config", cfg, "--out", str(out),
               "--trajectory", str(out / "trajectory.csv"),
               "--checks", "volume_identity"])
    assert rc == 0
    reports = json.loads((out / "report.json").read_text())
    assert len(reports) == 1
    assert reports[0]["name"] == "volume_identity"
    assert reports[0]["status"] == "pass"


def test_check_corrupted_csv_exit_3(cfgfile, tmp_path, capsys):
    out = tmp_path / "s3"
    cfg = cfgfile(SPHERE_CFG)
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    bad = tmp_path / "corrupt.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["check", "--config", cfg, "--out", str(out),
               "--trajectory", str(bad)])
    assert rc == 3


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_check_non_finite_field_exit_3(cfgfile, tmp_path, capsys, bad):
    out = tmp_path / "s3"
    cfg = cfgfile(SPHERE_CFG)
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    col = lines[0].split(",").index("chi")
    fields = lines[5].split(",")
    fields[col] = bad
    lines[5] = ",".join(fields)
    corrupt = tmp_path / "non_finite.csv"
    corrupt.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["check", "--config", cfg, "--out", str(out),
               "--trajectory", str(corrupt)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "line 6" in err and "'chi'" in err


def test_flow_refuses_to_write_an_overflowing_chi(tmp_path, capsys):
    # chi = c_n exp(8 t delta0 / n) ||Rm||_{n/2} overflows after row 0 on a huge covolume
    cfg = str(CONFIGS / "heisenberg.cfg")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path),
                 "--override", "model.covolume=1e30"]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: cannot write {tmp_path / 'trajectory.csv'}: line 3: column 'chi' "
                   "is inf, expected a finite number: chi = c_n exp(8 t delta0 / n) "
                   "||Rm||_{n/2} overflowed\n")
    assert not (tmp_path / "trajectory.csv").exists() and not (tmp_path / "run.json").exists()


def test_flow_refuses_to_write_an_overflowing_J(tmp_path, capsys):
    # bracket 1e120: ||Rm||_{n/2} ~ 1e240 is finite, its n/2 = 1.5 power is not
    cfg = str(CONFIGS / "heisenberg.cfg")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["flow", "--config", cfg, "--out", str(tmp_path),
                   "--override", "model.brackets=1 2 3 1e120"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / 'trajectory.csv'}: line 2: column 'J' is inf, "
        "expected a finite number: J = ||Rm||_{n/2}^{n/2} overflowed\n")
    assert not (tmp_path / "trajectory.csv").exists()


def _field(ln, col, value):
    """Edit: set column ``col`` of file line ``ln`` (line 1 is the header)."""
    def edit(lines):
        fields = lines[ln - 1].split(",")
        fields[lines[0].split(",").index(col)] = value
        lines[ln - 1] = ",".join(fields)
    return edit


def _short(ln):
    def edit(lines):
        lines[ln - 1] = lines[ln - 1].rsplit(",", 1)[0]
    return edit


def _blank(ln, text=""):
    def edit(lines):
        lines.insert(ln - 1, text)
    return edit


def _append(ln, text):
    def edit(lines):
        lines[ln - 1] += text
    return edit


def _scale(ln, col, factor):
    """Edit: multiply column ``col`` of file line ``ln`` by ``factor``."""
    def edit(lines):
        i = lines[0].split(",").index(col)
        _field(ln, col, repr(float(lines[ln - 1].split(",")[i]) * factor))(lines)
    return edit


def _column(col, value):
    """Edit: set column ``col`` of every data line."""
    def edit(lines):
        for ln in range(2, len(lines) + 1):
            _field(ln, col, value)(lines)
    return edit


def _non_finite(ln, col, value):
    return f"line {ln}: column {col!r} is {value}, expected a finite number"


# every message names the first bad file line, as a line-by-line scan would
MALFORMED_CSV = [
    pytest.param(HEIS_CFG, [_field(4, "g_0_1", "abc")],
                 "line 4: could not convert string to float: 'abc'", id="unparsable"),
    pytest.param(HEIS_CFG, [_short(5)], "line 5: expected 16 fields, got 15",
                 id="short-row"),
    pytest.param(HEIS_CFG, [_field(6, "t", "nan")], _non_finite(6, "t", "nan"), id="nan-t"),
    pytest.param(HEIS_CFG, [_field(6, "t", "-inf")], _non_finite(6, "t", "-inf"),
                 id="neg-inf-t"),
    pytest.param(HEIS_CFG, [_field(7, "g_0_0", "nan")], _non_finite(7, "g_0_0", "nan"),
                 id="nan-g00"),
    pytest.param(HEIS_CFG, [_field(7, "g_0_0", "-inf")], _non_finite(7, "g_0_0", "-inf"),
                 id="neg-inf-g00"),
    pytest.param(HEIS_CFG, [_blank(3)], None, id="blank-line-skipped"),
    pytest.param(HEIS_CFG, [_blank(3), _field(6, "g_0_1", "abc")],
                 "line 6: could not convert string to float: 'abc'", id="blank-keeps-line"),
    pytest.param(HEIS_CFG, [_field(4, "rm_norm", "inf"), _field(9, "g_0_1", "abc")],
                 _non_finite(4, "rm_norm", "inf"), id="non-finite-first"),
    pytest.param(HEIS_CFG, [_field(5, "g_1_1", "x1"), _short(8)],
                 "line 5: could not convert string to float: 'x1'", id="unparsable-first"),
    pytest.param(HEIS_CFG, [_short(5), _field(8, "t", "nan")],
                 "line 5: expected 16 fields, got 15", id="short-row-first"),
    pytest.param(HEIS_CFG, [_field(4, "g_0_1", "#0.0")],
                 "line 4: could not convert string to float: '#0.0'", id="comment-mark"),
    pytest.param(HEIS_CFG, [_field(5, "g_0_0", '"1.0"')],
                 "line 5: could not convert string to float: '\"1.0\"'", id="quoted"),
    pytest.param(HEIS_CFG, [_append(6, ",")], "line 6: expected 16 fields, got 17",
                 id="trailing-comma"),
    pytest.param(HEIS_CFG, [_field(7, "chi", "1e999")], _non_finite(7, "chi", "inf"),
                 id="overflowing-literal"),
    pytest.param(HEIS_CFG, [_field(4, "t", "0x10")],
                 "line 4: could not convert string to float: '0x10'", id="hex"),
    pytest.param(HEIS_CFG, [_blank(3, " \t ")], None, id="whitespace-line-skipped"),
    pytest.param(HEIS_CFG, [_blank(3, "  "), _field(6, "g_0_1", "abc")],
                 "line 6: could not convert string to float: 'abc'",
                 id="whitespace-keeps-line"),
    # vol is about 1.2e-158: its zeros are off by 100%, not by 1e-158
    pytest.param(TINY_CFG, [_column("vol", "0.0")],
                 "line 2: column 'vol' deviates from recomputation by 1.000e+00",
                 id="zeroed-tiny-vol"),
    pytest.param(HEIS_CFG, [_blank(3), _scale(8, "chi", 1.001), _scale(9, "vol", 1.001)],
                 "line 8: column 'chi' deviates from recomputation by 1.000e-03",
                 id="one-chi-field-off"),
    pytest.param(HEIS_CFG, [_blank(3), _field(7, "t", "0.0"), _field(9, "t", "0.0")],
                 "line 7: column 't' must be strictly increasing", id="t-not-increasing"),
    # stored metrics that are not metrics of the model
    pytest.param(HEIS_CFG, [_field(7, "g_2_2", "-1.0")],
                 "line 7: metric is not positive definite: minimum eigenvalue "
                 "-1.000000e+00", id="non-spd-quotient"),
    pytest.param(PROD_CFG, [_field(7, "g_1_1", "5.0"), _field(7, "g_0_1", "0.3")],
                 "line 7: metric entry (0, 1) is 0.3, expected 0.0 in a block-scalar "
                 "product metric", id="non-block-scalar-product"),
]


@pytest.mark.parametrize("cfg_text,edits,message", MALFORMED_CSV)
def test_malformed_csv_names_first_bad_line(cfgfile, tmp_path, capsys, cfg_text, edits,
                                            message):
    from riccilab import build_model, read_trajectory_csv
    from riccilab.config import load_config
    from riccilab.flow import TrajectorySchemaError
    out = tmp_path / "run"
    cfg = cfgfile(cfg_text)
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    for edit in edits:
        edit(lines)
    bad = tmp_path / "malformed.csv"
    bad.write_text("\n".join(lines) + "\n")
    model = build_model(load_config(cfg).model_spec)
    capsys.readouterr()
    rc = main(["check", "--config", cfg, "--out", str(out), "--trajectory", str(bad)])
    if message is None:
        # skipped: the same verdicts as on the file as written
        report = (out / "report.json").read_bytes()
        assert main(["check", "--config", cfg, "--out", str(out),
                     "--trajectory", str(out / "trajectory.csv")]) == rc != 3
        assert (out / "report.json").read_bytes() == report
        assert len(read_trajectory_csv(model, bad)) == len(lines) - 2
        return
    assert rc == 3
    assert capsys.readouterr().err == f"trajectory schema error: {message}\n"
    with pytest.raises(TrajectorySchemaError) as exc:
        read_trajectory_csv(model, bad)
    assert str(exc.value) == message


def test_constants_defaults_n4(cfgfile, tmp_path, capsys):
    cfg = cfgfile("[constants]\nn = 4\n")
    rc = main(["constants", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "constants.json").read_text())
    assert payload["moser"]["mu"] == 1.5
    assert payload["moser"]["q0"] == 4.0
    assert payload["moser"]["limits"]["sum_inv_q_next"] == "1/2"
    assert payload["moser"]["limits"]["sum_inv_q"] == "3/4"
    assert payload["chain"]["c_n_gamma"] > 0


def test_constants_includes_root_for_n3(cfgfile, tmp_path):
    cfg = cfgfile("[constants]\nn = 3\n")
    assert main(["constants", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "constants.json").read_text())
    assert 0.03 < payload["chain"]["c_n_gamma"] < 0.05


def test_constants_missing_block(cfgfile, tmp_path, capsys):
    rc = main(["constants", "--config", cfgfile("[flow]\ngamma = 1.0\n"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "[constants]" in capsys.readouterr().err


def test_constants_missing_block_names_the_file(tmp_path, capsys):
    cfg = str(CONFIGS / "sphere.cfg")
    rc = main(["constants", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"config error: {cfg}: missing required [constants] block\n"


def test_constants_missing_n_names_the_file(cfgfile, tmp_path, capsys):
    cfg = cfgfile("[constants]\nc_n = 1.0\n")
    rc = main(["constants", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (f"config error: {cfg}: constants.n is required "
                                       "when no model block is given\n")


def test_invalid_model_names_the_file(cfgfile, tmp_path, capsys):
    cfg = cfgfile(HEIS_CFG.replace("brackets = 1 2 3 1.0", "brackets = 1 2 2 1.0"))
    rc = main(["flow", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {cfg}: invalid model: ")


def test_constants_rejects_nonpositive_primitive(cfgfile, tmp_path):
    rc = main(["constants", "--config", cfgfile("[constants]\nn = 3\nc_n = -1\n"),
               "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", [
    "flow.gamma", "flow.t_end", "flow.rel_tol", "flow.abs_tol", "flow.max_rm",
    "flow.record_every", "flow.cs0", "constants.c_n", "constants.a_n", "constants.c3",
    "constants.gromov_ruh_eps", "constants.gallot_c0", "sobolev.kappa"])
def test_flow_rejects_non_finite_setting(tmp_path, capsys, key, value):
    def expire(signum, frame):
        pytest.fail(f"flow with {key}={value} ran past 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)            # a NaN max_rm once made the integrator spin forever
    try:
        rc = main(["flow", "--config", str(CONFIGS / "heisenberg.cfg"),
                   "--out", str(tmp_path), "--override", f"{key}={value}"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{key.split('.')[1]} must" in err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("setting", [
    "constants.gallot_c0=nan", "constants.gallot_c0=0", "sobolev.kappa=nan",
    "sobolev.kappa=-0.5"])
def test_check_rejects_bad_gallot_c0_and_kappa(tmp_path, capsys, setting):
    # a NaN here once gave NaN margins under a passing hypothesis_report
    cfg = str(CONFIGS / "sphere.cfg")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = main(["check", "--config", cfg, "--out", str(tmp_path),
               "--trajectory", str(tmp_path / "trajectory.csv"), "--override", setting])
    assert rc == 2
    err = capsys.readouterr().err
    key = setting.split("=")[0].split(".")[1]
    assert err.startswith("config error: ") and f"{key} must" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("setting,need", [
    ("constants.vol0=nan", "positive and finite, got nan"),
    ("constants.vol0=inf", "positive and finite, got inf"),
    ("constants.vol0=0", "positive and finite, got 0.0"),
    ("constants.rm_n2_0=nan", "finite and >= 0, got nan"),
    ("constants.rm_n2_0=-1e-300", "finite and >= 0, got -1e-300"),
    ("constants.t_prime=nan", "positive and finite, got nan"),
    ("sobolev.a_const=nan", "positive and finite, got nan"),
    ("sobolev.b_const=inf", "positive and finite, got inf"),
    ("sobolev.b_const=-1", "positive and finite, got -1.0"),
    ("sobolev.kappa=inf", "finite and >= 0, got inf"),
])
@pytest.mark.parametrize("command", ["constants", "check"])
def test_bad_constants_rejected_at_load(tmp_path, capsys, setting, need, command):
    # the load names the key before any command reads the value (or the trajectory)
    cfg = str(CONFIGS / "heisenberg.cfg")
    rc = main([command, "--config", cfg, "--out", str(tmp_path), "--override", setting,
               *(["--trajectory", str(tmp_path / "absent.csv")] if command == "check" else [])])
    assert rc == 2
    key = setting.split("=")[0]
    assert capsys.readouterr().err == f"config error: override#1: {key} must be {need}\n"
    assert list(tmp_path.iterdir()) == []


_QUOTIENT = "[model]\nkind = lie_group_quotient\ndim = 3\nbrackets = 1 2 3 1.0\n"


@pytest.mark.parametrize("config, args, message", [
    pytest.param("heisenberg", ["--override", "flow.gamma=-1"],
                 "override#1: gamma must be positive and finite, got -1.0", id="flow-override"),
    pytest.param("heisenberg", ["--override", "model.brackets=1 2 x 1.0"],
                 "override#1: malformed model.brackets entry '1 2 x 1.0'", id="model-override"),
    pytest.param(_QUOTIENT + "[constants]\nvol0 = nan\n", [],
                 "{cfg}:6: constants.vol0 must be positive and finite, got nan", id="bound-file"),
    pytest.param(_QUOTIENT + "[flow]\ngamma = -1\n", [],
                 "{cfg}:6: gamma must be positive and finite, got -1.0", id="flow-file"),
    pytest.param(_QUOTIENT.replace("1 2 3 1.0", "1 2 x 1.0"), [],
                 "{cfg}:4: malformed model.brackets entry '1 2 x 1.0'", id="model-file"),
    pytest.param(_QUOTIENT + "brackets = 1 2 x 1.0\n", [],
                 "{cfg}: malformed model.brackets entry '1 2 x 1.0'", id="model-two-lines"),
])
def test_load_errors_name_where_the_value_was_set(cfgfile, tmp_path, capsys, config, args,
                                                  message):
    # an override or flag by its label, a file value by file:line, or by the file
    # alone where the key accumulates over several lines
    cfg = str(CONFIGS / f"{config}.cfg") if "\n" not in config else cfgfile(config)
    assert main(["constants", "--config", cfg, "--out", str(tmp_path), *args]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(cfg=cfg)}\n"


_BRACKETS = "[model]\nkind = lie_group_quotient\ndim = 3\nbrackets = {}\n"
_FACTORS = "[model]\nkind = product_of_space_forms\nfactors = {}\n"


def _model_error(message):
    return "config error: {cfg}: invalid model: " + message


def _schema_error(message):
    return "trajectory schema error: " + message


def _header_only(lines):
    del lines[1:]


def _extra_column(lines):
    lines[0] += ",x"


def _unedited(lines):
    pass


def _one_record(lines):
    del lines[2:]


# the checks that take a time derivative, unavailable on fewer than 3 records
DERIVATIVE_CHECKS = ("lp_evolution_n2", "lp_evolution_p2", "scalar_identity",
                     "volume_identity")

# (config, extra arguments, trajectory edit, exit code, stderr): a config or
# override is rejected by `flow`; a trajectory edit of a heisenberg run's file
# by `check`.  "{cfg}" stands for the config's path.  A trajectory of 1 or 2
# records is not rejected: `check` exits 0, silent, with DERIVATIVE_CHECKS
# unavailable and a verdict from every other check.
REJECTED = [
    pytest.param(_BRACKETS.format("1 2 3"), [], None, 2,
                 "config error: {cfg}:4: malformed model.brackets entry '1 2 3'",
                 id="bracket-of-three-numbers"),
    pytest.param(_BRACKETS.format("1 2 4 1.0"), [], None, 2,
                 _model_error("bracket index out of range 1..3 in [1, 2, 4, 1.0]"),
                 id="bracket-index-out-of-range"),
    pytest.param(_BRACKETS.format("1 1 3 1.0"), [], None, 2,
                 _model_error("antisymmetry violated at index triple (1,1,3)"),
                 id="bracket-i-equals-j"),
    pytest.param(_BRACKETS.format("1 2 3 1.0 ; 2 1 3 1.0"), [], None, 2,
                 _model_error("antisymmetry violated at index triple (2,1,3): "
                              "c^3_{{12}} = 1.0 conflicts with c^3_{{21}} = 1.0"),
                 id="bracket-antisymmetry-conflict"),
    pytest.param(_BRACKETS.format("1 2 3 1.0 ; 1 2 3 2.0"), [], None, 2,
                 _model_error("duplicate bracket entry for index triple (1,2,3)"),
                 id="bracket-duplicate"),
    pytest.param("[model]\nkind = lie_group_quotient\ndim = 2\n", [], None, 2,
                 _model_error("quotient models need dim >= 3, got 2"), id="quotient-dim-2"),
    pytest.param("[model]\nkind = product_of_space_forms\n", [], None, 2,
                 _model_error("product model needs at least one factor"), id="no-factors"),
    pytest.param(_FACTORS.format("cube 3 1.0"), [], None, 2,
                 _model_error("unknown factor type 'cube'"), id="unknown-factor-type"),
    pytest.param(_FACTORS.format("sphere 1 1.0 ; flat_torus 2 1.0"), [], None, 2,
                 _model_error("sphere factor needs dim >= 2, got 1"), id="sphere-dim-1"),
    pytest.param(_FACTORS.format("circle 2 1.0 ; sphere 2 1.0"), [], None, 2,
                 _model_error("circle factor has dim 1, got 2"), id="circle-dim-2"),
    pytest.param(_FACTORS.format("flat_torus 0 1.0 ; sphere 3 1.0"), [], None, 2,
                 _model_error("flat_torus factor needs dim >= 1, got 0"), id="flat-torus-dim-0"),
    pytest.param("[model]\nkind = torus\n", [], None, 2,
                 "config error: {cfg}:2: bad value for model.kind: must be one of "
                 "['lie_group_quotient', 'product_of_space_forms']", id="unknown-kind"),
    pytest.param("[model\nkind = torus\n", [], None, 2,
                 "config error: {cfg}:1: malformed section header", id="section-header"),
    pytest.param("[model]\nkind\n", [], None, 2,
                 "config error: {cfg}:2: expected 'key = value'", id="no-key-value"),
    pytest.param(HEIS_CFG, ["--override", "model.kind"], None, 2,
                 "config error: override#1: override 'model.kind' is not of the form "
                 "section.key=value", id="override-without-equals"),
    pytest.param(HEIS_CFG, ["--override", "kind=torus"], None, 2,
                 "config error: override#1: override key 'kind' needs a section prefix",
                 id="override-without-section"),
    pytest.param(HEIS_CFG + "\n[output]\nstride = 4\n", [], None, 2,
                 "config error: {cfg}:13: unknown key 'stride' in [output]",
                 id="retired-output-stride"),
    pytest.param(HEIS_CFG, ["--override", "shape.kind=torus"], None, 2,
                 "config error: override#1: unknown section [shape]",
                 id="override-unknown-section"),
    pytest.param(HEIS_CFG, ["--config", "{cfg}.missing"], None, 2,
                 "config error: {cfg}.missing: config file not found: {cfg}.missing",
                 id="missing-file"),
    pytest.param(_BRACKETS.replace("dim = 3\n", "").format("1 2 3 1.0"), [], None, 2,
                 "config error: {cfg}: model.dim is required for quotient models",
                 id="quotient-without-dim"),
    pytest.param(HEIS_CFG, [], list.clear, 3, _schema_error("empty trajectory file"),
                 id="empty-trajectory"),
    pytest.param(HEIS_CFG, [], _header_only, 3, _schema_error("trajectory has no states"),
                 id="header-only-trajectory"),
    pytest.param(HEIS_CFG, [], _extra_column, 3, _schema_error("unexpected extra column 'x'"),
                 id="extra-column"),
    pytest.param(HEIS_CFG, ["--override", "flow.t_end=1e-300"], _unedited, 0, "",
                 id="two-record-trajectory"),
    pytest.param(HEIS_CFG, [], _one_record, 0, "", id="one-record-trajectory"),
    pytest.param(HEIS_CFG, [], _field(2, "t", "-1.0"), 3,
                 _schema_error("line 2: column 't' must start at 0"), id="t-not-from-0"),
    # fields that float() reads but numpy's reader refuses
    pytest.param(HEIS_CFG, [], _field(4, "g_0_1", "0_0.0"), 3,
                 _schema_error("line 4: could not convert string to float: '0_0.0'"),
                 id="underscore-in-number"),
    pytest.param(HEIS_CFG, [], _field(5, "g_0_1", "\uff10.0"), 3,
                 _schema_error("line 5: could not convert string to float: '\uff10.0'"),
                 id="non-ascii-digit"),
    # an output directory that is a file, or lies below one
    pytest.param(HEIS_CFG, ["--out", "{cfg}"], None, 2,
                 "error: [Errno 17] File exists: '{cfg}'", id="out-is-a-file"),
    pytest.param(HEIS_CFG, ["--out", "{cfg}/sub"], None, 2,
                 "error: [Errno 20] Not a directory: '{cfg}/sub'", id="out-below-a-file"),
]


@pytest.mark.parametrize("config, args, edit, rc, message", REJECTED)
def test_rejected_input_exits_naming_its_cause(cfgfile, tmp_path, capsys, config, args, edit,
                                               rc, message):
    cfg = cfgfile(config)
    out = tmp_path / "out"
    argv = ["flow", "--config", cfg, "--out", str(out), *(a.format(cfg=cfg) for a in args)]
    if edit is not None:
        assert main(argv) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        edit(lines)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(line + "\n" for line in lines))
        argv = ["check", "--config", cfg, "--out", str(out), "--trajectory", str(bad)]
    capsys.readouterr()
    assert main(argv) == rc
    assert capsys.readouterr().err == (message.format(cfg=cfg) + "\n" if message else "")
    if rc == 0:
        report = json.loads((out / "report.json").read_text())
        unavailable = {r["name"] for r in report if r["status"] == "unavailable"}
        assert unavailable - {"c0_bound", "diameter_bound", "sobolev_along_flow"} == \
            set(DERIVATIVE_CHECKS)
        assert all(r["details"]["records"] == len(lines) - 1 for r in report
                   if r["name"] in DERIVATIVE_CHECKS)


@pytest.mark.parametrize("setting", ["output.stride=0", "output.stride=-3", "output.stride=4",
                                     "sobolev.grid=0", "sobolev.grid=511",
                                     "constants.moser_k=0"])
def test_flow_rejects_stride_and_grid_below_one(tmp_path, capsys, setting):
    # [sobolev] grid and [output] stride are retired: the witness quadrature
    # picks its own resolution and flow.record_every sets the record grid, so
    # any value of either is an unknown key
    rc = main(["flow", "--config", str(CONFIGS / "heisenberg.cfg"),
               "--out", str(tmp_path), "--override", setting])
    assert rc == 2
    err = capsys.readouterr().err
    section, key = setting.split("=")[0].split(".")
    assert err.startswith("config error: ")
    assert (f"override#1: unknown key {key!r} in [{section}]" if key in ("grid", "stride")
            else f"bad value for {section}.{key}: must be >= 1") in err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("gamma,rc_want", [(50, 0), (1000, 2)])
def test_large_gamma_check_and_sweep(tmp_path, capsys, gamma, rc_want):
    # gamma = 50 puts the doubling root near 1e-58; gamma = 1000 puts it below
    # the normal floats, which must be blamed on gamma, not on the grid value
    cfg = str(CONFIGS / "heisenberg.cfg")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 0
    gamma_override = ["--override", f"flow.gamma={gamma}"]
    runs = (["check", "--trajectory", str(tmp_path / "trajectory.csv")],
            ["sweep", "--param", "metric_scale", "--values", "1.0"])
    for run in runs:
        capsys.readouterr()
        assert main([run[0], "--config", cfg, "--out", str(tmp_path), *run[1:],
                     *gamma_override]) == rc_want
        err = capsys.readouterr().err
        if rc_want:
            assert "gamma = 1000.0" in err and "sweep parameter" not in err


def test_sweep_product_scaling_slope(cfgfile, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", cfgfile(PROD_CFG), "--out", str(out)])
    assert rc == 0
    rows = _csv_rows(out / "sweep.csv")
    assert len(rows) == 8
    eps = np.array([float(r["value"]) for r in rows])
    rm = np.array([float(r["rm_n2_norm"]) for r in rows])
    slope = np.polyfit(np.log(eps), np.log(rm), 1)[0]
    assert abs(slope - 0.5) < 1e-6


def test_sweep_single_point(cfgfile, tmp_path):
    out = tmp_path / "one"
    rc = main(["sweep", "--config", cfgfile(PROD_CFG), "--out", str(out),
               "--values", "0.25"])
    assert rc == 0
    rows = _csv_rows(out / "sweep.csv")
    assert len(rows) == 1


def test_sweep_empty_grid(cfgfile, tmp_path):
    cfg = cfgfile(SPHERE_CFG)
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2


def test_sweep_heisenberg_margin_monotone(cfgfile, tmp_path):
    out = tmp_path / "heis"
    rc = main(["sweep", "--config", cfgfile(HEIS_CFG), "--out", str(out),
               "--param", "bracket_scale",
               "--values", "1.0,0.5,0.25,0.125"])
    assert rc == 0
    rows = _csv_rows(out / "sweep.csv")
    margins = [float(r["margin_pinching_main"]) for r in rows]
    assert margins == sorted(margins)    # shrinking bracket raises the margin


@pytest.mark.parametrize("param,value", [
    ("metric_scale", "-1"), ("metric_scale", "0"), ("metric_scale", "nan"),
    ("factor_radius:1", "inf"), ("factor_radius:1", "nan"), ("bracket_scale", "-inf"),
    # squares that overflow or underflow, and a volume (value^3) that overflows
    ("factor_radius:0", "1e300"), ("metric_scale", "1e200"), ("metric_scale", "1e-200"),
    ("bracket_scale", "1e200"), ("bracket_scale", "1e-200"), ("metric_scale", "1e150"),
    # on the Heisenberg quotient, a volume (value^3) that underflows to 0
    ("metric_scale", "1e-150"),
])
def test_sweep_rejects_bad_values(cfgfile, tmp_path, capsys, param, value):
    heis = param == "bracket_scale" or value == "1e-150"
    cfg = cfgfile(HEIS_CFG if heis else PROD_CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path), "--param", param,
                   f"--values=0.5,{value}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and param in err and repr(float(value)) in err
    assert f"sweep parameter {param} needs" in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("index", ["x", "2", "-1"])
def test_sweep_rejects_bad_factor_index(cfgfile, tmp_path, capsys, index):
    rc = main(["sweep", "--config", cfgfile(PROD_CFG), "--out", str(tmp_path),
               "--param", f"factor_radius:{index}", "--values", "0.25"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"sweep parameter factor_radius:{index} needs a factor index in 0..1, " \
           f"got {index!r}" in err


@pytest.mark.parametrize("name, args, message", [
    ("sphere", ["--param", "metric_scale", "--values", "0.5,-1"],
     "sweep parameter metric_scale needs a positive value whose square is finite "
     "and nonzero, got -1.0"),
    ("sphere", ["--param", "metric_scale", "--values", "1e150"],
     "sweep parameter metric_scale needs a value whose invariants are finite, got 1e+150"),
    ("sphere", ["--param", "bogus", "--values", "1"],
     "unknown sweep parameter 'bogus'; use metric_scale, bracket_scale or "
     "factor_radius:<index>"),
    ("sphere", ["--param", "bracket_scale", "--values", "1"],
     "bracket_scale sweeps need a quotient model"),
    ("heisenberg", ["--param", "factor_radius:0", "--values", "1"],
     "factor_radius sweeps need a product model"),
    ("sphere", ["--param", "factor_radius:1", "--values", "1"],
     "sweep parameter factor_radius:1 needs a factor index in 0..0, got '1'"),
    ("sphere", [], "sweep needs a parameter and a nonempty value grid "
                   "(sweep block or --param/--values)"),
])
def test_sweep_config_errors_name_the_file(tmp_path, capsys, name, args, message):
    cfg = str(CONFIGS / f"{name}.cfg")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path), *args]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: {message}\n"


def test_sweep_unknown_parameter_wins_over_a_bad_value(tmp_path, capsys):
    # the parameter is parsed once, before any grid value is checked
    cfg = str(CONFIGS / "sphere.cfg")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                 "--param", "bogus", "--values", "-1"]) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}: unknown sweep parameter 'bogus'; use metric_scale, "
        "bracket_scale or factor_radius:<index>\n")


def _sweep_lines(out: Path, name: str, param: str, values) -> list[str]:
    """Data lines of sweep.csv over ``values``, swept in one invocation."""
    assert main(["sweep", "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(out),
                 "--param", param, "--values", ",".join(map(repr, values))]) == 0
    return (out / "sweep.csv").read_text().splitlines()[1:]


@pytest.mark.parametrize("name, param, values", [
    ("heisenberg", "metric_scale", [0.5, 1.0, 2.0, 0.125, 3.7]),
    ("sphere", "metric_scale", [2.0, 0.25, 1.0, 5.5]),
    ("collapse_sweep", "factor_radius:1", [0.5, 0.25, 0.0078125, 1.3]),
    ("collapse_sweep", "factor_radius:0", [1.0, 0.3, 4.0]),
    ("heisenberg", "bracket_scale", [1.0, 0.5, 0.0, 2.5]),
])
def test_sweep_rows_do_not_depend_on_the_grid(tmp_path, name, param, values):
    # a row swept in a grid equals, byte for byte, the row swept alone or in reverse
    rows = _sweep_lines(tmp_path, name, param, values)
    assert len(rows) == len(values)
    assert _sweep_lines(tmp_path, name, param, values[::-1]) == rows[::-1]
    for v, row in zip(values, rows):
        assert _sweep_lines(tmp_path, name, param, [v]) == [row]


def test_sweep_builds_once_and_solves_the_root_once(tmp_path, monkeypatch):
    from riccilab import constants

    calls = {**_count_calls(monkeypatch, ("build_model", "curvature")),
             **_count_calls(monkeypatch, ("solve_c_n_gamma",), constants)}
    grid = ["--param", "metric_scale", "--values", "0.5,0.75,1,1.5,2,3,4,8"]

    def sweep(*extra):
        for log in calls.values():
            log.clear()
        assert main(["sweep", "--config", str(CONFIGS / "heisenberg.cfg"),
                     "--out", str(tmp_path), *grid, *extra]) == 0
        return {name: len(log) for name, log in calls.items()}

    want = {"build_model": 1, "curvature": 8, "solve_c_n_gamma": 1}
    assert sweep() == want
    assert sweep() == want                    # a second invocation solves again
    # gamma != 1 needs the root at gamma and the root at gamma = 1 for eps_main
    assert sweep("--override", "flow.gamma=2") == {**want, "solve_c_n_gamma": 2}


def test_factor_radius_sweep_builds_its_model_once(tmp_path, monkeypatch):
    # the config's own grid, factor_radius:1 over 8 radii: each row sets one scale
    calls = _count_calls(monkeypatch, ("build_model", "curvature"))
    assert main(["sweep", "--config", str(CONFIGS / "collapse_sweep.cfg"),
                 "--out", str(tmp_path)]) == 0
    assert {name: len(log) for name, log in calls.items()} == {"build_model": 1, "curvature": 8}
    assert len({id(args[0]) for args in calls["curvature"]}) == 1


@pytest.mark.parametrize("factors", ["sphere 3 0 ; circle 1 1", "sphere 3 1.0 ; circle 1 0"])
def test_factor_radius_sweep_names_an_invalid_model_before_any_row(tmp_path, capsys, factors):
    # the model is built once from the config, so its own bad radius is named,
    # not blamed on a grid value, also on the swept factor
    assert main(["sweep", "--config", str(CONFIGS / "collapse_sweep.cfg"), "--out", str(tmp_path),
                 "--override", f"model.factors={factors}"]) == 2
    assert capsys.readouterr().err == (
        f"config error: {CONFIGS / 'collapse_sweep.cfg'}: invalid model: "
        "factor radius must be positive and finite, got 0.0\n")


@pytest.mark.parametrize("grid", [["bracket_scale", "0"], ["bracket_scale", "0.5"],
                                  ["metric_scale", "1"]])
def test_sweep_names_an_invalid_model_as_flow_does(cfgfile, tmp_path, capsys, grid):
    # as in test_invalid_model_names_the_file: the model is named, not the
    # value, also where the scaled brackets vanish
    cfg = cfgfile(_BRACKETS.format("1 2 2 1.0"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                 "--param", grid[0], "--values", grid[1]]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {cfg}: invalid model: not unimodular: ")
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_sec_extremes_exact_and_seed_free(tmp_path):
    # sec_min/sec_max are exact on every shipped model, so no column reads the seed
    for name in ("heisenberg", "sphere", "collapse_sweep"):
        grid = [] if name == "collapse_sweep" else ["--param", "metric_scale",
                                                    "--values", "0.5,1.0,2.0"]
        outs = [tmp_path / name / str(seed) for seed in (0, 7)]
        for out, seed in zip(outs, (0, 7)):
            assert main(["sweep", "--config", str(CONFIGS / f"{name}.cfg"),
                         "--out", str(out), "--seed", str(seed), *grid]) == 0
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()
    rows = {r["value"]: r for r in _csv_rows(tmp_path / "sphere" / "0" / "sweep.csv")}
    assert rows["1.0"]["sec_min"] == rows["1.0"]["sec_max"] == "1.0"


def test_sweep_tiny_curvature_keeps_its_norm(tmp_path):
    # a sphere of radius 1e100 has |Rm| = sqrt(12) 1e-200, whose square underflows
    assert main(["sweep", "--config", str(CONFIGS / "collapse_sweep.cfg"),
                 "--out", str(tmp_path), "--param", "factor_radius:0",
                 "--values", "1e100"]) == 0
    row = {k: float(v) for k, v in _csv_rows(tmp_path / "sweep.csv")[0].items()
           if k != "parameter"}
    assert math.isclose(row["rm_norm"], math.sqrt(12.0) * 1e-200, rel_tol=1e-15)
    assert math.isclose(row["rm_n2_norm"], row["rm_norm"] * math.sqrt(row["vol"]),
                        rel_tol=1e-15)
    assert row["theta0"] == row["rm_n2_norm"] * row["cs_upper"] * row["cs_upper"] > 0.0


def _count_calls(monkeypatch, names=("curvature_batch", "curvature", "volume", "rm_norm"),
                 module=geometry):
    """Record the arguments of each call to the named functions of ``module``."""
    calls = {name: [] for name in names}
    for name in names:
        def record(*args, _fn=getattr(module, name), _log=calls[name], **kwargs):
            _log.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, record)
    return calls


@pytest.mark.parametrize("name", ["heisenberg", "sphere"])
def test_one_curvature_pass_per_command(tmp_path, monkeypatch, name):
    cfg = str(CONFIGS / f"{name}.cfg")
    calls = _count_calls(monkeypatch, names=("curvature_batch", "curvature", "volume",
                                             "rm_norm", "_row"))
    assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 0
    batches = [np.shape(args[1]) for args in calls["curvature_batch"]]
    records = json.loads((tmp_path / "run.json").read_text())["records"]
    n = batches[0][-1]
    # row 0 and each rm_norm call as one metric, the assembly as one stack
    rows = [np.shape(args[1]) for args in calls["_row"]]
    assert calls["rm_norm"] and rows == [(n, n)] * (1 + len(calls["rm_norm"]))
    assert batches == [(records, n, n)]
    assert calls["volume"] == [] and calls["curvature"] == []

    calls = _count_calls(monkeypatch)
    assert main(["check", "--config", cfg, "--out", str(tmp_path),
                 "--trajectory", str(tmp_path / "trajectory.csv")]) == 0
    assert [np.shape(args[1]) for args in calls["curvature_batch"]] == [(records, n, n)]
    assert calls["curvature"] == calls["volume"] == calls["rm_norm"] == []


@pytest.mark.parametrize("name", ["heisenberg", "sphere", "collapse_sweep"])
def test_shipped_commands_reach_no_curvature_operator(tmp_path, monkeypatch, name):
    # n = 3 quotients and products read sec extremes off the batch: no tensor consumer runs
    def no_operator(*args):
        raise AssertionError("a shipped config reached the curvature operator")

    for attr in ("_curvature_operator", "_sec_extremes"):
        monkeypatch.setattr(geometry, attr, no_operator)
    cfg = str(CONFIGS / f"{name}.cfg")
    grid = [] if name == "collapse_sweep" else ["--param", "metric_scale", "--values", "0.5,2"]
    assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["check", "--config", cfg, "--out", str(tmp_path),
                 "--trajectory", str(tmp_path / "trajectory.csv")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path), *grid]) == 0


def test_heisenberg_commands_build_no_milnor_frames(tmp_path, monkeypatch):
    # at n = 3 Ricci gives |Rm| and the tensor: no frame transport anywhere
    def no_frames(*args):
        raise AssertionError("a 3-dim quotient built a Milnor frame or its curvature tensor")

    for name in ("_rm_from_structure", "_frames"):
        monkeypatch.setattr(geometry, name, no_frames)
    cfg = str(CONFIGS / "heisenberg.cfg")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["check", "--config", cfg, "--out", str(tmp_path),
                 "--trajectory", str(tmp_path / "trajectory.csv")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                 "--param", "metric_scale", "--values", "0.5,2"]) == 0


@pytest.mark.parametrize("name", ["heisenberg", "sphere"])
def test_check_hypothesis_margins_match_sweep_at_scale_one(tmp_path, name):
    cfg = str(CONFIGS / f"{name}.cfg")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["check", "--config", cfg, "--out", str(tmp_path),
                 "--trajectory", str(tmp_path / "trajectory.csv")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                 "--param", "metric_scale", "--values", "1.0"]) == 0
    report = {r["name"]: r for r in json.loads((tmp_path / "report.json").read_text())}
    theorems = report["hypothesis_report"]["details"]["theorems"]
    (row,) = _csv_rows(tmp_path / "sweep.csv")
    for thm in theorems:
        column = f"margin_{thm['theorem']}"
        if column in row:
            margin = math.nan if thm["margin"] is None else thm["margin"]
            assert repr(float(margin)) == row[column], column


def test_outputs_byte_identical_across_runs(cfgfile, tmp_path):
    cfg = cfgfile(SPHERE_CFG)

    def run_all(out):
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
        assert main(["check", "--config", cfg, "--out", str(out),
                     "--trajectory", str(out / "trajectory.csv")]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--param", "metric_scale", "--values", "0.5,1.0,2.0"]) == 0
        return {f: (out / f).read_bytes()
                for f in ("trajectory.csv", "run.json", "report.json", "sweep.csv")}

    first = run_all(tmp_path / "r1")
    other = run_all(tmp_path / "r2")
    assert run_all(tmp_path / "r1") == first     # run.json names its output path
    for f in ("trajectory.csv", "report.json", "sweep.csv"):
        assert other[f] == first[f], f


def test_roundtrip_preserves_derived_to_full_precision(cfgfile, tmp_path):
    from riccilab import build_model, read_trajectory_csv
    out = tmp_path / "rt"
    cfg = cfgfile(HEIS_CFG)
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    model = build_model({"kind": "lie_group_quotient", "dim": 3,
                         "covolume": 1.0, "brackets": [[1, 2, 3, 1.0]]})
    traj = read_trajectory_csv(model, out / "trajectory.csv")
    text = (out / "trajectory.csv").read_text().splitlines()
    first = text[1].split(",")
    assert float(first[7]) == traj.derived["vol"][0]
    from riccilab.flow import validate_trajectory
    assert validate_trajectory(traj) <= 1e-10


@pytest.mark.parametrize("name", ["heisenberg", "sphere", "collapse_sweep"])
def test_well_formed_trajectories_parse_in_bulk_at_every_scale(tmp_path, monkeypatch, name):
    # numpy's one-call parse serves every file flow writes; the line scan never runs
    from riccilab import build_model, flow, parabolic_rescale, read_trajectory_csv
    from riccilab import write_trajectory_csv
    from riccilab.config import load_config

    def no_scan(*args):
        raise AssertionError("a well-formed trajectory fell back to the line scan")

    monkeypatch.setattr(flow, "_scan_rows", no_scan)
    cfg = str(CONFIGS / f"{name}.cfg")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["check", "--config", cfg, "--out", str(tmp_path),
                 "--trajectory", str(tmp_path / "trajectory.csv")]) == 0
    model = build_model(load_config(cfg).model_spec)
    traj = read_trajectory_csv(model, tmp_path / "trajectory.csv")
    for lam in (1e-60, 1.0, 1e60):
        scaled = parabolic_rescale(traj, lam)
        # chi grows like exp(8 t delta0 / n) and overflows at large lam:
        # keep the records before its first inf, which the reader refuses
        finite = np.isfinite(scaled.derived["chi"])
        k = len(finite) if finite.all() else int(np.argmin(finite))
        part = flow.Trajectory(model, scaled.times[:k], scaled.mats[:k],
                               {key: scaled.derived[key][:k] for key in flow.DERIVED_KEYS})
        write_trajectory_csv(part, tmp_path / "scaled.csv")
        assert len(read_trajectory_csv(model, tmp_path / "scaled.csv")) == k


def test_json_format_emits_extra_artifacts(cfgfile, tmp_path):
    out = tmp_path / "fmt"
    rc = main(["flow", "--config", cfgfile(SPHERE_CFG), "--out", str(out),
               "--format", "json"])
    assert rc == 0
    rows = json.loads((out / "trajectory.json").read_text())
    assert rows[0]["t"] == 0.0
    assert (out / "trajectory.csv").exists()


def test_sweep_json_rows_equal_the_csv_rows(tmp_path):
    # heisenberg is a quotient, so the NaN diam column is compared too
    assert main(["sweep", "--config", str(CONFIGS / "heisenberg.cfg"), "--out", str(tmp_path),
                 "--format", "json", "--param", "metric_scale", "--values", "0.5,1,2"]) == 0
    rows = json.loads((tmp_path / "sweep.json").read_text())
    assert [{k: str(v) for k, v in row.items()} for row in rows] \
        == _csv_rows(tmp_path / "sweep.csv")
    assert all(math.isnan(row["diam"]) for row in rows)


ALMOST_FLAT_CFG = """
# weak bracket at unit covolume: unit volume, smallness hypothesis holds
[model]
kind = lie_group_quotient
dim = 3
covolume = 1.0
brackets = 1 2 3 0.04

[flow]
t_end = 1.0
record_every = 0.001953125
"""


def test_check_factor_two_bound_through_cli(cfgfile, tmp_path):
    out = tmp_path / "af"
    cfg = cfgfile(ALMOST_FLAT_CFG)
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    rc = main(["check", "--config", cfg, "--out", str(out),
               "--trajectory", str(out / "trajectory.csv"),
               "--checks", "n2_bound,c0_bound,volume_identity,scalar_identity"])
    assert rc == 0
    reports = {r["name"]: r for r in
               json.loads((out / "report.json").read_text())}
    assert reports["n2_bound"]["status"] == "pass"
    assert reports["n2_bound"]["details"]["margin"] > 0.0
    assert reports["volume_identity"]["status"] == "pass"
    assert reports["scalar_identity"]["status"] == "pass"


@pytest.mark.parametrize("name", ["heisenberg", "sphere", "collapse_sweep"])
def test_record_grid_thins_like_a_stride(tmp_path, name):
    # a spacing of 4x the default writes every 4th record of the default run,
    # byte for byte, and run.json counts the RHS evaluations per written record
    cfg = str(CONFIGS / f"{name}.cfg")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    spacing = json.loads((tmp_path / "a" / "run.json").read_text())["meta"]["record_every"]
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--override", f"flow.record_every={4 * spacing!r}"]) == 0
    lines = (tmp_path / "a" / "trajectory.csv").read_bytes().splitlines(keepends=True)
    assert (tmp_path / "b" / "trajectory.csv").read_bytes() == b"".join([lines[0],
                                                                         *lines[1::4]])
    run = json.loads((tmp_path / "b" / "run.json").read_text())
    stats = run["meta"]["integrator"]
    assert run["records"] == len(lines[1::4])
    assert stats["rhs_evals_per_record"] == stats["rhs_evals"] / run["records"]


def test_env_var_default_outdir(cfgfile, tmp_path, monkeypatch):
    monkeypatch.setenv("RICCILAB_OUTDIR", str(tmp_path / "envout"))
    rc = main(["flow", "--config", cfgfile(SPHERE_CFG)])
    assert rc == 0
    assert (tmp_path / "envout" / "trajectory.csv").exists()


def test_seed_flag_zero_beats_config_seed(cfgfile, tmp_path):
    cfg = cfgfile(HEIS_CFG + "\n[output]\nseed = 5\n")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "0"]) == 0
    assert json.loads((tmp_path / "a" / "run.json").read_text())["seed"] == 5
    assert json.loads((tmp_path / "b" / "run.json").read_text())["seed"] == 0


def test_flags_beat_overrides_of_their_key(cfgfile, tmp_path):
    rc = main(["sweep", "--config", cfgfile(PROD_CFG), "--out", str(tmp_path),
               "--override", "sweep.values=0.5;0.25", "--values", "0.125",
               "--override", "sweep.parameter=metric_scale", "--param", "factor_radius:1",
               "--override", "output.format=json", "--format", "csv"])
    assert rc == 0
    rows = _csv_rows(tmp_path / "sweep.csv")
    assert [(r["parameter"], float(r["value"])) for r in rows] == [("factor_radius:1", 0.125)]
    assert not (tmp_path / "sweep.json").exists()


def test_out_flag_beats_config_dir_and_env(cfgfile, tmp_path, monkeypatch):
    monkeypatch.setenv("RICCILAB_OUTDIR", str(tmp_path / "env"))
    cfg = cfgfile(HEIS_CFG + f"\n[output]\ndir = {tmp_path / 'cfg'}\n")
    flag = str(tmp_path / "flag ")          # passed verbatim, trailing space kept
    assert main(["flow", "--config", cfg, "--out", flag]) == 0
    assert (Path(flag) / "trajectory.csv").exists()
    assert not (tmp_path / "cfg").exists() and not (tmp_path / "env").exists()
    assert main(["flow", "--config", cfg, "--out", ""]) == 0      # empty: config wins
    assert (tmp_path / "cfg" / "trajectory.csv").exists()
    assert not (tmp_path / "env").exists()


def test_sweep_bad_values_flag_is_config_error(cfgfile, tmp_path, capsys):
    rc = main(["sweep", "--config", cfgfile(PROD_CFG), "--out", str(tmp_path),
               "--values", "1,abc"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --values: bad value for sweep.values: ")
    assert not (tmp_path / "sweep.csv").exists()


# -- a curvature that overflows ------------------------------------------------

def _heisenberg_with_bracket(bracket: str) -> list[str]:
    return ["--config", str(CONFIGS / "heisenberg.cfg"),
            "--override", f"model.brackets=1 2 3 {bracket}"]


def test_flow_names_an_overflowing_curvature(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["flow", *_heisenberg_with_bracket("1e200"), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == ("error: curvature of the model overflows at this "
                                       "metric: largest bracket coefficient 1e+200\n")
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("bracket", ["1e73", "1e80", "1e90", "1e100"])
def test_flow_starting_step_survives_an_rms_whose_square_overflows(tmp_path, capsys,
                                                                    bracket):
    # |Rm| ~ bracket^2 is finite, but f0 / scale squared is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["flow", *_heisenberg_with_bracket(bracket), "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.endswith("(1 records, step-underflow)\n")


def test_flow_starting_step_is_a_positive_step_when_d2_leaves_the_floats(tmp_path, capsys):
    # bracket 1e80: d2 ~ |Ric|^2 / scale overflows; its logarithm does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["flow", *_heisenberg_with_bracket("1e80"), "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.endswith("(1 records, step-underflow)\n")
    integ = json.loads((tmp_path / "run.json").read_text())["meta"]["integrator"]
    assert 0.0 < integ["h0"] < 1e-150 and integ["accepted"] == 0


def test_flow_starting_step_survives_an_overflowing_f0_over_scale(tmp_path, capsys):
    # bracket 1e150: f0 / scale ~ 1e312 overflows; the step is found, and the
    # one record's J = ||Rm||_{n/2}^{3/2} ~ 1e450 is what cannot be written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["flow", *_heisenberg_with_bracket("1e150"), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / 'trajectory.csv'}: line 2: column 'J' is inf, "
        "expected a finite number: J = ||Rm||_{n/2}^{n/2} overflowed\n")


def test_flow_names_a_starting_probe_that_underflows(tmp_path, capsys):
    # a flat model probes at 1e-6 t_end, which is 0.0 at t_end = 1e-320
    rc = main(["flow", "--config", str(CONFIGS / "sphere.cfg"), "--out", str(tmp_path),
               "--override", "model.factors=flat_torus 3 1.0", "--override", "flow.t_end=1e-320"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: the starting step's probe underflows: "
                                       "h = 0.0 at t_end = 1e-320\n")


@pytest.mark.parametrize("values", ["1,2", "1e100,1e150"])
def test_sweep_names_the_model_when_its_reference_metric_fails(tmp_path, capsys, values):
    # ||Rm||_{n/2} is scale-invariant, so no metric_scale value is to blame
    cfg = str(CONFIGS / "heisenberg.cfg")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", *_heisenberg_with_bracket("1e200"), "--out", str(tmp_path),
                   "--param", "metric_scale", "--values", values])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}: the model's invariants are not finite even at its reference "
        "metric: curvature of the model overflows at this metric: largest bracket "
        "coefficient 1e+200\n")


def test_sweep_reports_a_bad_gamma_from_the_reference_row(tmp_path, capsys):
    # the 1e-110 row's volume underflows, but the chain thresholds are solved
    # before the first value, so their gamma error is the one reported
    rc = main(["sweep", "--config", str(CONFIGS / "heisenberg.cfg"), "--out", str(tmp_path),
               "--param", "metric_scale", "--values", "1e-110", "--override", "flow.gamma=1000"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: gamma = 1000.0 is too large") and "sweep parameter" not in err


def test_sweep_reports_a_bad_gamma_before_a_bad_value(tmp_path, capsys):
    # 0 is no radius, but gamma is checked first, as an unknown parameter is
    rc = main(["sweep", "--config", str(CONFIGS / "collapse_sweep.cfg"), "--out", str(tmp_path),
               "--values", "0", "--override", "flow.gamma=1000"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: gamma = 1000.0 is too large for n = 4")
    assert main(["sweep", "--config", str(CONFIGS / "collapse_sweep.cfg"),
                 "--out", str(tmp_path), "--values", "0"]) == 2
    assert "needs a positive value" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("param", ["metric_scale", "bracket_scale"])
def test_sweep_blames_the_value_when_the_reference_metric_is_finite(tmp_path, capsys, param):
    # bracket 1e100: a metric scaled by 1e-100, or brackets by 1e60, overflow the curvature
    value = "1e-100" if param == "metric_scale" else "1e60"
    assert main(["sweep", *_heisenberg_with_bracket("1e100"), "--out", str(tmp_path),
                 "--param", param, "--values", value]) == 2
    assert capsys.readouterr().err.endswith(
        f"sweep parameter {param} needs a value whose invariants are finite, "
        f"got {float(value)!r}\n")


# -- reading the command line --------------------------------------------------

_PARSER_CASES = [
    ["flow", "-h"], ["check", "-h"], ["constants", "-h"], ["sweep", "-h"], ["flow"],
    ["check", "--config", "x.cfg"],                         # missing --trajectory
    ["flow", "--config", "x.cfg", "--seed", "one"],
    ["sweep", "--config", "x.cfg", "--format", "xml"],
    ["constants", "--config", "x.cfg", "--bogus"],          # unknown option
    ["flow", "--config", "x.cfg", "extra"],                 # top-level "unrecognized"
    ["sweep", "--config", "x.cfg", "--values"],
    ["check", "--config", "x.cfg", "--trajectory", "t.csv", "--checks", "a,b",
     "--override", "flow.gamma=2", "--override", "output.seed=3"],
    ["flow", "--conf", "x.cfg"],                            # an abbreviation
    ["flow", "--config", "x.cfg", "--seed=3"],
    ["sweep", "extra", "--config", "x.cfg", "--param", "metric_scale"],
    ["check", "--config", "x.cfg", "extra"],                # and missing --trajectory
    ["sweep", "--config", "x.cfg", "--format", "xml", "-h"],
    ["flow", "--config", "x.cfg", "--"], ["flow", "--config", "x.cfg", "--", "extra"],
    ["bogus", "--config", "x.cfg"], [], ["-h"],
    ["flow", "--config", "x.cfg", "--seed", "-3"],          # a value starting with "-"
    ["flow", "--config", "x.cfg", "--out", ""],
    ["flow", "--config", "x.cfg", "--seed", "1", "--seed", "2"],
    ["sweep", "--config", "x.cfg", "--override", "a.b=1", "--override", "a.b=2"],
    ["flow", "--config", "x.cfg", "--seed", "5_0"],
]


def _outcome(parse, argv, capsys):
    """The namespace or exit code of ``parse(argv)``, then stdout and stderr."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-args")
def test_one_command_parser_parses_and_prints_as_the_full_parser(argv, capsys):
    from riccilab.cli import _parse_args, build_parser
    result = _outcome(_parse_args, argv, capsys)
    assert result == _outcome(build_parser().parse_args, argv, capsys)
    if isinstance(result[0], dict):
        assert result[0]["command"] == argv[0]


# values both paths read alike, and tokens that argparse reads in more than
# one way: help, "--", abbreviations, "=" forms, values starting with "-" and
# a flag of another command
_PLAIN_VALUES = ["x.cfg", "", "3", "5_0", " 7", "\u0663", "csv", "json", "xml", "a.b=1"]
_ODD_TOKENS = ["-h", "--help", "--", "--conf", "--ov", "--traj", "--seed=3", "--format=json",
               "--bogus", "-s", "-5", "--trajectory", "--values", "extra"]


def _units(command, noisy):
    """(flag, value) pairs of every flag the command declares; if noisy, odd
    tokens and pairs with odd values too."""
    extra = _COMMANDS[command][2] if command in _COMMANDS else ()
    flags = st.sampled_from([flag for flag, _ in (*_COMMON, *extra)])
    pair = st.tuples(flags, st.sampled_from(_PLAIN_VALUES))
    if not noisy:
        return st.lists(pair, max_size=4)
    tokens = st.sampled_from(_PLAIN_VALUES + _ODD_TOKENS)
    return st.lists(st.one_of(pair, st.tuples(tokens), st.tuples(flags, tokens)), max_size=4)


_ARGV_UNITS = {(command, noisy): _units(command, noisy)
               for command in (*_COMMANDS, "bogus") for noisy in (False, True)}


@st.composite
def _argvs(draw):
    """A command, its required flags and drawn units in any order; a noisy
    draw may leave required flags out."""
    command = draw(st.sampled_from([*_COMMANDS, "bogus"]))
    noisy = draw(st.booleans())
    required = [("--config", "x.cfg"), ("--trajectory", "t.csv")][:1 + (command == "check")]
    if noisy:
        required = required[:draw(st.integers(0, 2))]
    units = draw(st.permutations(required + draw(_ARGV_UNITS[command, noisy])))
    return [command, *(token for unit in units for token in unit)]


def _outcome_redirected(parse, argv):
    """The namespace or exit code of ``parse(argv)``, then stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_parse_args_agrees_with_the_full_parser(argv):
    from riccilab.cli import _parse_args, build_parser
    assert _outcome_redirected(_parse_args, argv) == \
        _outcome_redirected(build_parser().parse_args, argv)


def test_main_builds_a_parser_only_for_a_malformed_call(tmp_path, monkeypatch):
    import argparse

    from riccilab import cli

    parsers, full = [], []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: parsers.append(self) or init(self, *a, **kw))
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: full.append(real_build()) or full[-1])
    out = ["--out", str(tmp_path)]
    sphere = ["--config", str(CONFIGS / "sphere.cfg"), *out]
    for argv in (["flow", *sphere],
                 ["check", *sphere, "--trajectory", str(tmp_path / "trajectory.csv")],
                 ["constants", "--config", str(CONFIGS / "heisenberg.cfg"), *out],
                 ["sweep", *sphere, "--param", "metric_scale", "--values", "1"]):
        assert main(argv) == 0
    assert not parsers and not full             # well-formed: read from the flag table
    for _ in range(2):                          # the top-level "unrecognized" error
        with pytest.raises(SystemExit):
            main(["flow", *sphere, "extra"])
    assert len(full) == 2 and full[0] is not full[1]
    # each call builds the top-level parser and one per command, nothing else
    per_call = 1 + len(cli._COMMANDS)
    assert len(parsers) == 2 * per_call
    assert parsers[0] is full[0] and parsers[per_call] is full[1]


def _fresh_cli(*argv):
    """The exit code, stdout and stderr of ``python -m riccilab.cli argv`` in a
    fresh interpreter, where argparse, fractions and decimal are not loaded
    yet (pytest has loaded all three); argparse wraps help at 80 columns, as
    in ``_in_process``."""
    path = [str(CONFIGS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), "COLUMNS": "80"}
    done = subprocess.run([sys.executable, "-m", "riccilab.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def _in_process(argv, capsys, monkeypatch):
    """The exit code, stdout and stderr of ``main(argv)`` in this process."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_fresh_help_and_malformed_calls_import_argparse_on_demand(capsys, monkeypatch):
    # argparse is imported only inside build_parser, which these two reach
    help_argv = ["flow", "-h"]
    extra_argv = ["flow", "--config", str(CONFIGS / "sphere.cfg"), "extra"]
    fresh = [_fresh_cli(*argv) for argv in (help_argv, extra_argv)]
    assert fresh == [_in_process(argv, capsys, monkeypatch) for argv in (help_argv, extra_argv)]
    (rc, out, err), (extra_rc, extra_out, extra_err) = fresh
    assert rc == 0 and out.startswith("usage: riccilab flow [-h] --config CONFIG") and err == ""
    assert extra_rc == 2 and extra_out == ""
    assert extra_err.endswith("riccilab: error: unrecognized arguments: extra\n")


def test_fresh_constants_writes_the_pinned_bytes(tmp_path):
    # the Moser schedule imports fractions on its first call; constants.json
    # is byte for byte what the eager import wrote
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    argv = ["constants", "--config", str(CONFIGS / "heisenberg.cfg"), "--out"]
    rc, out, err = _fresh_cli(*argv, str(fresh))
    assert rc == 0 and err == ""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, str(here)]) == 0
    data = (fresh / "constants.json").read_bytes()
    assert data == (here / "constants.json").read_bytes()
    assert out == data.decode()
    assert hashlib.sha256(data).hexdigest() == \
        "a0ff2911d029b3c2422ca67e402b6c2db7c8fd406458a807b9e58dba04467d21"


def test_no_cache_outlives_a_main_call(tmp_path):
    # constants live on the model or in one call: no module holds a functools
    # cache, and geometry and flow hold no module-level dict that commands fill
    import importlib
    import inspect
    import pkgutil

    import riccilab

    modules = [riccilab, *(importlib.import_module(f"riccilab.{m.name}")
                           for m in pkgutil.iter_modules(riccilab.__path__))]
    for mod in modules:
        assert "functools" not in inspect.getsource(mod), mod.__name__
        assert not [k for k, v in vars(mod).items() if hasattr(v, "cache_info")], mod.__name__
    dicts = {f"{mod.__name__}.{k}": v for mod in modules if mod.__name__ in
             ("riccilab.geometry", "riccilab.flow")
             for k, v in vars(mod).items() if isinstance(v, dict) and not k.startswith("__")}
    assert list(dicts) == ["riccilab.flow._OVERFLOWED"]
    before = {k: dict(v) for k, v in dicts.items()}
    out = ["--out", str(tmp_path)]
    for name in ("heisenberg", "collapse_sweep"):
        cfg = ["--config", str(CONFIGS / f"{name}.cfg"), *out]
        assert main(["flow", *cfg]) == 0
        assert main(["check", *cfg, "--trajectory", str(tmp_path / "trajectory.csv")]) == 0
        assert main(["sweep", *cfg, "--param", "metric_scale", "--values", "0.5,2"]) == 0
    assert main(["sweep", "--config", str(CONFIGS / "collapse_sweep.cfg"), *out]) == 0
    assert dicts == before


_NOT_A_FLOAT = "could not convert string to float: 'abc'"


@pytest.mark.parametrize("gamma, args, message", [
    ("abc", [], f"bad.cfg:6: bad value for flow.gamma: {_NOT_A_FLOAT}"),
    ("1.0", ["--override", "output.seed=abc"], "override#1: bad value for output.seed: "
                                                "invalid literal for int() with base 10: 'abc'"),
    ("1.0", ["--override", "flow.gamma=2", "--override", "flow.gamma=abc"],
     f"override#2: bad value for flow.gamma: {_NOT_A_FLOAT}"),
    ("1.0", ["--values", "1,abc"], f"--values: bad value for sweep.values: {_NOT_A_FLOAT}"),
])
def test_config_error_names_a_value_source_once(tmp_path, monkeypatch, capsys, gamma, args,
                                                message):
    # a file value names file:line, an override its position, a flag itself
    monkeypatch.chdir(tmp_path)
    Path("bad.cfg").write_text("[model]\nkind = product_of_space_forms\n"
                               f"factors = sphere 3 1.0\n\n[flow]\ngamma = {gamma}\n")
    assert main(["sweep", "--config", "bad.cfg", "--param", "metric_scale", *args]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("key, line", [("dim = 4", 4), ("covolume = 2.0", 4),
                                       ("brackets = 1 2 3 1.0", 4)])
def test_product_rejects_quotient_model_keys(cfgfile, tmp_path, capsys, key, line):
    cfg = cfgfile(f"[model]\nkind = product_of_space_forms\nfactors = sphere 3 1.0\n{key}\n")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 2
    name = key.split()[0]
    assert capsys.readouterr().err == (f"config error: {cfg}:{line}: model.{name} does not "
                                       "apply to product_of_space_forms models\n")
    assert list(tmp_path.iterdir()) == [Path(cfg)]


def test_quotient_rejects_factors_set_by_override(tmp_path, capsys):
    assert main(["flow", "--config", str(CONFIGS / "heisenberg.cfg"), "--out", str(tmp_path),
                 "--override", "model.factors=sphere 3 1.0"]) == 2
    assert capsys.readouterr().err == ("config error: override#1: model.factors does not "
                                       "apply to lie_group_quotient models\n")


@pytest.mark.parametrize("command", ["constants", "check"])
def test_constants_n_must_match_the_model(cfgfile, tmp_path, capsys, command):
    # the chain of a 3-dim model is the n = 3 chain, whichever command asks
    cfg = cfgfile(HEIS_CFG + "\n[constants]\nn = 5\n")
    extra = ["--trajectory", str(tmp_path / "absent.csv")] if command == "check" else []
    assert main([command, "--config", cfg, "--out", str(tmp_path), *extra]) == 2
    assert capsys.readouterr().err == (f"config error: {cfg}:13: constants.n = 5 differs "
                                       "from the model's dimension 3\n")
    cfg = cfgfile(HEIS_CFG + "\n[constants]\nn = 3\n", name="same.cfg")
    assert main(["constants", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "constants.json").read_text())
    assert payload["chain"]["n"] == 3


def test_huge_brackets_name_the_overflow_without_a_warning(tmp_path, capsys):
    # the Killing form of 1e160 brackets overflows while the model is built;
    # the curvature pass names that, and no RuntimeWarning comes first
    brackets = "2 3 1 1e160; 3 1 2 1e160; 1 2 3 1e160"
    assert main(["flow", "--config", str(CONFIGS / "heisenberg.cfg"), "--out", str(tmp_path),
                 "--override", f"model.brackets={brackets}"]) == 2
    assert capsys.readouterr().err == ("error: curvature of the model overflows at this "
                                       "metric: largest bracket coefficient 1e+160\n")


def test_filiform4_runs_every_command(tmp_path, monkeypatch):
    # the shipped 4-dim quotient: Thorpe extremes -(1 + sqrt 5)/4 and 1/2 at
    # unit scale, and the quotient verdicts of the benchmark's workloads
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)     # its dataclasses look it up
    spec.loader.exec_module(workloads)
    cfg = ["--config", str(CONFIGS / "filiform4.cfg"), "--out", str(tmp_path)]
    assert main(["flow", *cfg]) == 0
    run = json.loads((tmp_path / "run.json").read_text())
    assert (run["records"], run["meta"]["termination"]) == (513, "horizon-reached")
    assert main(["check", *cfg, "--trajectory", str(tmp_path / "trajectory.csv")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert {r["name"]: r["status"] for r in report} == workloads.QUOTIENT_VERDICTS
    assert main(["sweep", *cfg, "--param", "metric_scale", "--values", "1"]) == 0
    (row,) = _csv_rows(tmp_path / "sweep.csv")
    assert math.isclose(float(row["sec_min"]), -(1.0 + math.sqrt(5.0)) / 4.0, rel_tol=1e-12)
    assert math.isclose(float(row["sec_max"]), 0.5, rel_tol=1e-12)
