import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riccilab import (
    FlowConfig,
    GeometryError,
    build_model,
    flat_torus_model,
    horizon_T0,
    integrate,
    normalize_to_unit_volume,
    parabolic_rescale,
    read_trajectory_csv,
    reference_metric,
    ricci_rhs,
    scale_metric,
    write_trajectory_csv,
)
from riccilab.config import load_config
from riccilab.flow import (
    TERM_BLOWUP,
    TERM_HORIZON,
    TERM_UNDERFLOW,
    Trajectory,
    TrajectorySchemaError,
    csv_columns,
    trajectory_table,
    validate_trajectory,
)


# -- right-hand side ---------------------------------------------------------

def test_rhs_flat_torus(torus_model):
    rhs = ricci_rhs(torus_model, reference_metric(torus_model))
    assert np.all(rhs == 0.0)


def test_rhs_round_sphere_factor(s3_model):
    rhs = ricci_rhs(s3_model, reference_metric(s3_model))
    assert np.allclose(rhs, -4.0 * np.eye(3), atol=1e-14)   # -2(n-1) g, n = 3


def test_rhs_heisenberg(heis_model):
    rhs = ricci_rhs(heis_model, reference_metric(heis_model))
    assert np.allclose(np.sort(np.linalg.eigvalsh(rhs)), [-1.0, 1.0, 1.0],
                       atol=1e-14)


# -- integration oracles -----------------------------------------------------

def test_shrinking_sphere_closed_form(s3_traj):
    for i in range(len(s3_traj)):
        exact = 1.0 - 4.0 * s3_traj.times[i]
        got = s3_traj.scales[i][0]
        assert abs(got - exact) / exact < 1e-8


def _isenberg_jackson_error(traj):
    # worst deviation from g(t) = diag(u^{1/3}, u^{1/3}, u^{-1/3}), u = 1 + 3t,
    # over every record, relative to u^{1/3}
    u = 1.0 + 3.0 * traj.times
    exact = np.zeros_like(traj.mats)
    exact[:, 0, 0] = exact[:, 1, 1] = u ** (1 / 3)
    exact[:, 2, 2] = u ** (-1 / 3)
    return float((np.abs(traj.mats - exact).max(axis=(1, 2)) / u ** (1 / 3)).max())


def test_heisenberg_closed_form(heis_traj):
    # rel_tol 1e-9, abs_tol 1e-12, 512 records: every record, interpolated or not
    assert len(heis_traj) == 513
    assert _isenberg_jackson_error(heis_traj) <= 1e-8


def test_flat_torus_is_fixed_point(torus_traj):
    assert np.abs(torus_traj.mats - np.eye(3)).max() == 0.0
    assert torus_traj.meta["termination"] == TERM_HORIZON


def test_sphere_blowup_before_extinction(s3_model):
    traj = integrate(s3_model, reference_metric(s3_model), FlowConfig(t_end=0.3))
    assert traj.meta["termination"] == TERM_BLOWUP
    assert traj.meta["t_reached"] < 0.25


def test_sphere_step_underflow_when_blowup_disabled(s3_model):
    traj = integrate(s3_model, reference_metric(s3_model),
                     FlowConfig(t_end=0.3, max_rm=1e30))
    assert traj.meta["termination"] == TERM_UNDERFLOW
    assert abs(traj.meta["t_reached"] - 0.25) < 1e-6


def test_spd_preserved_along_heisenberg(heis_traj):
    for i in range(0, len(heis_traj), 13):
        assert np.linalg.eigvalsh(heis_traj.mats[i])[0] > 0.0


def test_non_spd_initial_metric_rejected(heis_model):
    with pytest.raises(GeometryError):
        integrate(heis_model, np.diag([1.0, -1.0, 1.0]),
                  FlowConfig(t_end=0.1))


def test_max_rm_must_exceed_initial(s3_model):
    with pytest.raises(ValueError, match="max_rm"):
        integrate(s3_model, reference_metric(s3_model),
                  FlowConfig(t_end=0.1, max_rm=1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(rel_tol=2.0)
    with pytest.raises(ValueError):
        FlowConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(record_every=0.0)


def test_integration_deterministic(heis_model):
    cfg = FlowConfig(t_end=0.1, record_every=0.1 / 32)
    a = integrate(heis_model, reference_metric(heis_model), cfg)
    b = integrate(heis_model, reference_metric(heis_model), cfg)
    assert np.array_equal(a.mats, b.mats)
    for k in a.derived:
        assert np.array_equal(a.derived[k], b.derived[k])


def _heis_run(heis_model, rel_tol):
    cfg = FlowConfig(t_end=0.5, record_every=0.5 / 512, rel_tol=rel_tol,
                     abs_tol=1e-3 * rel_tol)
    return integrate(heis_model, reference_metric(heis_model), cfg)


@pytest.mark.parametrize("rel_tol", [0.5e-9, 1e-11])
def test_heisenberg_closed_form_other_tolerances(heis_model, rel_tol):
    traj = _heis_run(heis_model, rel_tol)
    assert len(traj) == 513 and traj.meta["termination"] == TERM_HORIZON
    assert _isenberg_jackson_error(traj) <= 1e-8


def test_heisenberg_error_falls_with_tolerance(heis_model, heis_traj):
    fine = _isenberg_jackson_error(_heis_run(heis_model, 1e-11))
    assert fine < _isenberg_jackson_error(heis_traj)


def test_halved_tolerances_change_trajectory(heis_model, heis_traj):
    # the step is set by error control, so the tolerance must reach the records
    halved = _heis_run(heis_model, 0.5e-9)
    assert np.array_equal(halved.times, heis_traj.times)
    assert not np.array_equal(halved.mats, heis_traj.mats)


def test_heisenberg_cfg_rhs_budget(heis_model):
    cfg = load_config(Path(__file__).parent.parent / "configs" / "heisenberg.cfg")
    traj = integrate(heis_model, reference_metric(heis_model), cfg.flow)
    stats = traj.meta["integrator"]
    assert len(traj) == 513
    assert stats["rhs_evals"] <= 200
    assert stats["accepted"] < len(traj) // 10


def test_integrator_telemetry(heis_traj):
    stats = heis_traj.meta["integrator"]
    assert stats["method"] == "dop853"
    assert 0.0 < stats["h_min"] <= stats["h_median"] <= stats["h_max"] <= 0.5
    assert stats["rhs_evals_per_record"] == stats["rhs_evals"] / len(heis_traj)
    assert 0.0 <= stats["max_err_norm"] <= 1.0
    # 3 interpolant stages per step holding an interior record
    assert 0 < stats["dense_evals"] <= 3 * stats["accepted"]
    assert stats["dense_evals"] % 3 == 0
    assert stats["rhs_evals"] == (1 + 12 * (stats["accepted"] + stats["rejected_err"])
                                  + stats["dense_evals"])


def test_record_on_step_end_needs_no_interpolant(heis_model):
    # a single record at t_end lands on the last step's end exactly
    traj = integrate(heis_model, reference_metric(heis_model),
                     FlowConfig(t_end=0.5, record_every=0.5))
    stats = traj.meta["integrator"]
    assert traj.times.tolist() == [0.0, 0.5]
    assert stats["dense_evals"] == 0
    assert stats["rhs_evals"] == 1 + 12 * stats["accepted"]
    assert _isenberg_jackson_error(traj) <= 1e-8


def test_dop853_tableau_matches_scipy():
    pytest.importorskip("scipy")
    from scipy.integrate._ivp import dop853_coefficients as ref

    from riccilab import _dop853
    for name in ("C", "A", "B", "E3", "E5", "D"):
        assert np.array_equal(getattr(_dop853, name), getattr(ref, name)), name


def test_cli_import_leaves_scipy_out():
    code = "import sys, riccilab.cli; print('scipy' in sys.modules)"
    path = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


# Every module `import riccilab.cli` loads after numpy.  One that goes missing
# was deferred into a function body: the benchmark's in-process runs would
# stop timing it, while every CLI call still pays for it.
CLI_MODULES = (
    "__future__", "_decimal", "_json", "argparse", "decimal", "fractions", "gettext",
    "json", "json.decoder", "json.encoder", "json.scanner", "riccilab",
    "riccilab._dop853", "riccilab.checks", "riccilab.cli", "riccilab.config",
    "riccilab.constants", "riccilab.flow", "riccilab.geometry", "riccilab.sobolev")


def test_cli_import_builds_no_dataclass_and_defers_nothing():
    code = "import sys, numpy, riccilab.cli; print(' '.join(sys.modules))"
    path = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    loaded = set(out.stdout.split())
    assert "dataclasses" not in loaded
    assert [name for name in CLI_MODULES if name not in loaded] == []


# -- horizon -----------------------------------------------------------------

@pytest.mark.parametrize("gamma,vol0,cs0,n,expected", [
    (1.0, 1.0, 2.0, 3, 4.0),
    (1.0, 1.0, 1.0, 5, 1.0),
    (2.0, 8.0, 1.0, 3, 8.0),
])
def test_horizon_values(gamma, vol0, cs0, n, expected):
    assert math.isclose(horizon_T0(gamma, vol0, cs0, n), expected, rel_tol=1e-14)


def test_non_diagonal_initial_metric(heis_model):
    # full matrix ODE: identities must hold off the diagonal ansatz too
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3))
    g0 = a @ a.T + 2.0 * np.eye(3)
    traj = integrate(heis_model, g0, FlowConfig(t_end=0.2, record_every=0.2 / 256))
    assert traj.meta["termination"] == TERM_HORIZON
    from riccilab import check_scalar_identity, check_volume_identity
    assert check_scalar_identity(traj).status == "pass"
    assert check_volume_identity(traj).status == "pass"
    for i in range(0, len(traj), 31):
        assert np.linalg.eigvalsh(traj.mats[i])[0] > 0.0


def test_theta_chi_columns_formula(heis_traj):
    n = 3
    cs0 = heis_traj.meta["cs0"]
    vol0 = heis_traj.derived["vol"][0]
    r0 = heis_traj.derived["scalar_R"][0]
    d0 = cs0 ** -2 + max(0.0, -r0) * vol0 ** (2.0 / n)
    assert math.isclose(heis_traj.meta["delta0"], d0, rel_tol=1e-14)
    rm_n2 = heis_traj.derived["rm_n2_norm"]
    assert np.allclose(heis_traj.derived["theta"], rm_n2 * cs0 ** 2, rtol=1e-13)
    expected_chi = heis_traj.meta["c_n"] * np.exp(
        8.0 * heis_traj.times * d0 / n) * rm_n2
    assert np.allclose(heis_traj.derived["chi"], expected_chi, rtol=1e-12)


def test_trajectory_J_identity(heis_traj):
    n = heis_traj.model.dim
    J = heis_traj.derived["rm_norm"] ** (n / 2.0) * heis_traj.derived["vol"]
    assert np.allclose(J, heis_traj.derived["J"], rtol=1e-12)


# -- parabolic rescaling -----------------------------------------------------

def test_rescale_identity(s3_traj):
    resc = parabolic_rescale(s3_traj, 1.0)
    assert np.array_equal(resc.mats, s3_traj.mats)
    assert np.array_equal(resc.times, s3_traj.times)


def test_rescale_extinction_time(s3_model):
    traj = integrate(s3_model, reference_metric(s3_model), FlowConfig(t_end=0.3))
    resc = parabolic_rescale(traj, 2.0)
    assert abs(resc.meta["t_reached"] - 4.0 * traj.meta["t_reached"]) < 1e-12


def test_rescale_preserves_critical_norm(heis_traj):
    resc = parabolic_rescale(heis_traj, 3.0)
    assert np.allclose(resc.derived["rm_n2_norm"], heis_traj.derived["rm_n2_norm"],
                       rtol=1e-12)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_rescale_commutes_with_integration(heis_model, lam):
    cfg = FlowConfig(t_end=0.2, record_every=0.2 / 128)
    base = integrate(heis_model, reference_metric(heis_model), cfg)
    resc = parabolic_rescale(base, lam)
    cfg2 = FlowConfig(t_end=lam ** 2 * 0.2, record_every=lam ** 2 * 0.2 / 128)
    direct = integrate(heis_model, scale_metric(reference_metric(heis_model),
                                                lam ** 2), cfg2)
    assert np.abs(resc.times - direct.times).max() < 1e-12 * max(1.0, lam ** 2)
    rel = np.abs(resc.mats - direct.mats).max() / np.abs(direct.mats).max()
    assert rel < 1e-7


def test_rescale_domain_error(s3_traj):
    with pytest.raises(ValueError):
        parabolic_rescale(s3_traj, -1.0)


# -- unit-volume normalization ------------------------------------------------

def test_normalize_noop_at_unit_volume(torus_model):
    g = reference_metric(torus_model)
    gn = normalize_to_unit_volume(torus_model, g)
    assert np.array_equal(gn, g)


def test_normalize_unit_sphere(s3_model):
    from riccilab import volume
    gn = normalize_to_unit_volume(s3_model, reference_metric(s3_model))
    assert abs(volume(s3_model, gn) - 1.0) < 1e-12
    assert math.isclose(gn[0, 0], (2.0 * math.pi ** 2) ** (-2.0 / 3.0),
                        rel_tol=1e-14)


def test_normalize_torus_covolume_8():
    from riccilab import volume
    m = flat_torus_model(dim=3, covolume=8.0)
    gn = normalize_to_unit_volume(m, reference_metric(m))
    assert abs(volume(m, gn) - 1.0) < 1e-12
    assert np.allclose(gn, 0.25 * np.eye(3), atol=1e-15)


# -- persistence ---------------------------------------------------------------

def test_csv_round_trip_exact(heis_traj, heis_model, tmp_path):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(heis_traj, path)
    back = read_trajectory_csv(heis_model, path, cs0=1.0, c_n=1.0)
    assert np.array_equal(back.times, heis_traj.times)
    assert np.array_equal(back.mats, heis_traj.mats)
    for k in heis_traj.derived:
        assert np.array_equal(back.derived[k], heis_traj.derived[k])
    assert validate_trajectory(back) == 0.0


@pytest.mark.parametrize("name", ["heisenberg", "sphere", "collapse_sweep"])
def test_csv_bytes_match_per_value_repr(name, tmp_path, monkeypatch):
    from riccilab import cli
    from riccilab import flow as flow_module
    written = []
    real = flow_module.write_trajectory_csv
    monkeypatch.setattr(flow_module, "write_trajectory_csv",
                        lambda traj, path: written.append(traj) or real(traj, path))
    cfg = Path(__file__).parent.parent / "configs" / f"{name}.cfg"
    assert cli.main(["flow", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    (traj,) = written
    lines = [",".join(csv_columns(traj.model.dim))]
    lines += [",".join(repr(float(v)) for v in row) for row in trajectory_table(traj)]
    assert (tmp_path / "trajectory.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_schema_errors(heis_traj, heis_model, tmp_path):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(heis_traj, path)
    text = path.read_text().splitlines()
    bad = tmp_path / "bad.csv"

    bad.write_text("\n".join([text[0].replace("rm_norm", "rmnorm"), *text[1:]]))
    with pytest.raises(TrajectorySchemaError, match="rm_norm"):
        read_trajectory_csv(heis_model, bad)

    swapped = [text[0], text[1], text[3], text[2], *text[4:]]
    bad.write_text("\n".join(swapped))
    with pytest.raises(TrajectorySchemaError, match="strictly increasing"):
        read_trajectory_csv(heis_model, bad)


def test_validate_trajectory_reports_nan(heis_traj):
    derived = {k: v.copy() for k, v in heis_traj.derived.items()}
    derived["chi"][5] = np.nan
    bad = Trajectory(model=heis_traj.model, times=heis_traj.times, mats=heis_traj.mats,
                     derived=derived, meta=heis_traj.meta)
    with pytest.raises(ValueError, match="nan"):
        validate_trajectory(bad)


@pytest.mark.parametrize("build", ["integrate", "parabolic_rescale", "read_trajectory_csv"])
@pytest.mark.parametrize("fixture", ["heis_traj", "prod_traj"])
def test_row0_meta_is_derived_row0(request, tmp_path, build, fixture):
    traj = request.getfixturevalue(fixture)
    if build == "parabolic_rescale":
        traj = parabolic_rescale(traj, 1.7)
    elif build == "read_trajectory_csv":
        write_trajectory_csv(traj, tmp_path / "t.csv")
        traj = read_trajectory_csv(traj.model, tmp_path / "t.csv", gamma=3.0)
    meta, n = traj.meta, traj.model.dim
    assert meta["vol0"] == traj.derived["vol"][0]
    assert meta["rm_n2_0"] == traj.derived["rm_n2_norm"][0]
    assert meta["T0"] == horizon_T0(meta["gamma"], meta["vol0"], meta["cs0"], n)
    r0 = traj.derived["scalar_R"][0]
    assert meta["delta0"] == meta["cs0"] ** -2 + max(0.0, -r0) * meta["vol0"] ** (2.0 / n)
