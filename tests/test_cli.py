import csv
import json
import math
import signal
import warnings
from pathlib import Path

import numpy as np
import pytest

from riccilab import geometry
from riccilab.cli import main

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


def _blank(ln):
    def edit(lines):
        lines.insert(ln - 1, "")
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


@pytest.mark.parametrize("setting", ["output.stride=0", "output.stride=-3",
                                     "sobolev.grid=0", "sobolev.grid=511",
                                     "constants.moser_k=0"])
def test_flow_rejects_stride_and_grid_below_one(tmp_path, capsys, setting):
    # [sobolev] grid starts the witness-norm refinement, at 512 intervals or more
    rc = main(["flow", "--config", str(CONFIGS / "heisenberg.cfg"),
               "--out", str(tmp_path), "--override", setting])
    assert rc == 2
    err = capsys.readouterr().err
    key = setting.split("=")[0]
    minimum = 512 if key == "sobolev.grid" else 1
    assert err.startswith("config error: ")
    assert f"bad value for {key}: must be >= {minimum}" in err
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


def _count_calls(monkeypatch, names=("curvature_batch", "curvature", "volume", "rm_norm")):
    """Record the arguments of each call to the named geometry functions."""
    calls = {name: [] for name in names}
    for name in names:
        def record(*args, _fn=getattr(geometry, name), _log=calls[name], **kwargs):
            _log.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(geometry, name, record)
    return calls


@pytest.mark.parametrize("name", ["heisenberg", "sphere"])
def test_one_curvature_pass_per_command(tmp_path, monkeypatch, name):
    cfg = str(CONFIGS / f"{name}.cfg")
    calls = _count_calls(monkeypatch)
    assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 0
    batches = [np.shape(args[1]) for args in calls["curvature_batch"]]
    records = json.loads((tmp_path / "run.json").read_text())["records"]
    n = batches[0][-1]
    assert batches == [(n, n), (records, n, n)]       # row 0, then the assembly
    assert calls["volume"] == [] and calls["curvature"] == []

    calls = _count_calls(monkeypatch)
    assert main(["check", "--config", cfg, "--out", str(tmp_path),
                 "--trajectory", str(tmp_path / "trajectory.csv")]) == 0
    assert [np.shape(args[1]) for args in calls["curvature_batch"]] == [(records, n, n)]
    assert calls["curvature"] == calls["volume"] == calls["rm_norm"] == []


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


def test_json_format_emits_extra_artifacts(cfgfile, tmp_path):
    out = tmp_path / "fmt"
    rc = main(["flow", "--config", cfgfile(SPHERE_CFG), "--out", str(out),
               "--format", "json"])
    assert rc == 0
    rows = json.loads((out / "trajectory.json").read_text())
    assert rows[0]["t"] == 0.0
    assert (out / "trajectory.csv").exists()


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


def test_stride_keeps_grid_uniform(cfgfile, tmp_path):
    out = tmp_path / "strided"
    rc = main(["flow", "--config", cfgfile(SPHERE_CFG), "--out", str(out),
               "--override", "output.stride=4"])
    assert rc == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    times = np.array([float(l.split(",")[0]) for l in lines[1:]])
    dts = np.diff(times)
    assert np.abs(dts - dts[0]).max() < 1e-12 * dts[0]


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
