import importlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from riccilab import geometry
from riccilab.config import load_config
from riccilab.flow import (
    DERIVED_KEYS,
    TERM_BLOWUP,
    TERM_HORIZON,
    TERM_UNDERFLOW,
    Trajectory,
    TrajectorySchemaError,
    _median,
    _parse_rows,
    _rms_ratio,
    _sym_from_tri,
    _tri_indices,
    csv_columns,
    trajectory_table,
    validate_trajectory,
)

CONFIGS = Path(__file__).parent.parent / "configs"


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


def _assert_nilsoliton_closed_form(traj, ric, rm0, tol):
    """A nilsoliton flow from g = I with Ric = diag(ric) = cI + D, D a
    derivation, is self-similar (Lauret 2001): with c = tr Ric^2 / R and
    u = 1 - 2ct, g_ii = u^(Ric_ii / c), vol = u^(R / 2c), |Rm| = |Rm|(0) / u
    and R(t) = R / u.  Every record must match within ``tol``, the metric
    relative to the record's largest entry, off-diagonals included."""
    ric = np.asarray(ric)
    scal = ric.sum()
    c = (ric * ric).sum() / scal
    u = 1.0 - 2.0 * c * traj.times
    exact = np.zeros_like(traj.mats)
    diag = np.arange(len(ric))
    exact[:, diag, diag] = u[:, None] ** (ric / c)
    largest = np.abs(exact).max(axis=(1, 2))
    assert (np.abs(traj.mats - exact).max(axis=(1, 2)) / largest).max() <= tol
    for key, closed in (("vol", u ** (scal / (2.0 * c))), ("rm_norm", rm0 / u),
                        ("scalar_R", scal / u)):
        assert (np.abs(traj.derived[key] - closed) / np.abs(closed)).max() <= tol, key


def test_filiform4_cfg_closed_form():
    # Ric = -(3/2) I + D with D = diag(1/2, 1, 3/2, 2) a derivation of
    # [e1,e2] = e3, [e1,e3] = e4, so u = 1 + 3t, g(t) = diag(u^{2/3}, u^{1/3},
    # 1, u^{-1/3}), vol = u^{1/3}, |Rm| = sqrt 5 / u and R = -1 / u
    cfg = load_config(CONFIGS / "filiform4.cfg")
    model = build_model(cfg.model_spec)
    traj = integrate(model, reference_metric(model), cfg.flow)
    assert traj.meta["termination"] == TERM_HORIZON and len(traj) == 513
    _assert_nilsoliton_closed_form(traj, [-1.0, -0.5, 0.0, 0.5], math.sqrt(5.0),
                                   cfg.flow.rel_tol)


@pytest.mark.parametrize("t_end", [10.0, 1000.0])
def test_h5_nilsoliton_closed_form(t_end):
    # the 5-dim Heisenberg algebra [e1,e2] = [e3,e4] = e5: Ric = -2 I + D with
    # D = diag(3/2, 3/2, 3/2, 3/2, 3) a derivation, so u = 1 + 4t,
    # g_ii = u^{1/4} (i <= 4), g_55 = u^{-1/2}, vol = u^{1/4}, |Rm| = |Rm|(0) / u
    # and R = -1 / u, with |Rm|(0)^2 = 17/2
    model = build_model({"kind": "lie_group_quotient", "dim": 5, "covolume": 1.0,
                         "brackets": [[1, 2, 5, 1.0], [3, 4, 5, 1.0]]})
    cfg = FlowConfig(t_end=t_end, record_every=t_end / 64)
    traj = integrate(model, np.eye(5), cfg)
    assert traj.meta["termination"] == TERM_HORIZON and len(traj) == 65
    _assert_nilsoliton_closed_form(traj, [-0.5, -0.5, -0.5, -0.5, 1.0], math.sqrt(8.5),
                                   cfg.rel_tol)


def test_flat_torus_is_fixed_point(torus_traj):
    assert np.abs(torus_traj.mats - np.eye(3)).max() == 0.0
    assert torus_traj.meta["termination"] == TERM_HORIZON


def test_flat_torus_takes_one_step(torus_traj):
    # f vanishes at y0 and at the probe, so the first step is the horizon
    stats = torus_traj.meta["integrator"]
    assert stats["h0"] == 0.5
    assert stats["accepted"] == 1 and stats["rejected_err"] == stats["rejected_spd"] == 0


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
    cfg = load_config(CONFIGS / "heisenberg.cfg")
    traj = integrate(heis_model, reference_metric(heis_model), cfg.flow)
    stats = traj.meta["integrator"]
    assert len(traj) == 513
    assert stats["rhs_evals"] <= 200
    assert stats["accepted"] < len(traj) // 10


def test_heisenberg_cfg_flow_builds_no_frames(heis_model, monkeypatch):
    # every RHS is the frame-free closed form, and so are row 0, the blow-up
    # test at each accepted step and the assembly: |Rm| comes from Ricci at n = 3
    calls = {"ricci_fixed_basis": 0, "_frames": 0}
    for name in calls:
        def count(*args, _fn=getattr(geometry, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(geometry, name, count)
    cfg = load_config(CONFIGS / "heisenberg.cfg")
    stats = integrate(heis_model, reference_metric(heis_model), cfg.flow).meta["integrator"]
    assert calls["ricci_fixed_basis"] == stats["rhs_evals"] == 92
    assert calls["_frames"] == 0


@pytest.mark.parametrize("name,max_accepted", [
    ("heisenberg", 6), ("sphere", 2), ("collapse_sweep", 2)])
def test_shipped_configs_start_from_error_based_step(name, max_accepted, monkeypatch):
    # every RHS evaluation, the starting-step probe included, is one
    # ricci_fixed_basis call
    calls = []
    real = geometry.ricci_fixed_basis
    monkeypatch.setattr(geometry, "ricci_fixed_basis",
                        lambda *args: calls.append(1) or real(*args))
    cfg = load_config(CONFIGS / f"{name}.cfg")
    model = build_model(cfg.model_spec)
    stats = integrate(model, reference_metric(model), cfg.flow).meta["integrator"]
    assert len(calls) == stats["rhs_evals"]
    assert stats["accepted"] <= max_accepted
    assert stats["rejected_err"] == stats["rejected_spd"] == 0


def test_starting_step_matches_scipy_rule(heis_model):
    # the Hairer-Norsett-Wanner rule as scipy implements it, order 7
    pytest.importorskip("scipy")
    from scipy.integrate._ivp.common import select_initial_step

    from riccilab.flow import _starting_step
    g0 = np.diag([1.0, 2.0, 0.5])
    y0 = g0[_tri_indices(3)]

    def f(t, y):
        return ricci_rhs(heis_model, _sym_from_tri(3, y))[_tri_indices(3)]

    f0 = f(0.0, y0)
    for t_end, rel_tol, abs_tol in ((0.5, 1e-9, 1e-12), (1e-4, 1e-6, 1e-8), (3.0, 1e-3, 1e-6)):
        want = select_initial_step(f, 0.0, y0, t_end, np.inf, f0, 1.0, 7, rel_tol, abs_tol)
        got = _starting_step(f, y0, f0, t_end, abs_tol + rel_tol * np.abs(y0))
        assert math.isclose(got, want, rel_tol=1e-12)


def test_starting_step_falls_back_when_probe_leaves_cone():
    from riccilab.flow import _starting_step

    def f(t, y):
        if t > 0.0:
            raise GeometryError("metric is not positive definite")
        return -y

    y0 = np.ones(3)
    got = _starting_step(f, y0, f(0.0, y0), 2.0, 1e-12 + 1e-9 * y0)
    assert got == 0.01      # the probe step 0.01 d0 / d1


def test_rms_ratio_takes_the_log_past_the_floats():
    scale = np.array([1e-12, 1.0, 1e-9])
    d, log_d = _rms_ratio(np.array([3.0, 4.0, 0.0]), scale)       # today's value
    assert d == math.sqrt((3e12 ** 2 + 16.0) / 3.0) and log_d == math.log(d)
    with np.errstate(all="raise"):
        d, log_d = _rms_ratio(np.array([1e300, -1e300, 0.0]), scale)
    assert d == math.inf        # rms = 1e312 sqrt(1/3 + 1e-24 / 3)
    assert math.isclose(log_d, 312.0 * math.log(10.0) - 0.5 * math.log(3.0), rel_tol=1e-15)


def test_tri_indices_are_numpys():
    for n in range(1, 7):
        got, want = _tri_indices(n), np.triu_indices(n)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))


def test_trajectory_leaves_the_callers_arrays_and_dict_alone(heis_model):
    times, mats, vol = np.array([0.0, 1.0]), np.stack([np.eye(3)] * 2), np.array([1.0, 2.0])
    derived = {"vol": vol}
    traj = Trajectory(heis_model, times, mats, derived)
    assert times.flags.writeable and mats.flags.writeable and vol.flags.writeable
    assert derived == {"vol": vol} and derived["vol"] is vol and traj.derived is not derived
    for mine, theirs in ((traj.times, times), (traj.mats, mats), (traj.derived["vol"], vol)):
        assert not mine.flags.writeable and np.shares_memory(mine, theirs)


def test_sym_from_tri_matches_scatter():
    tri = np.random.default_rng(5).standard_normal((7, 10))
    rows, cols = _tri_indices(4)
    ref = np.zeros((7, 4, 4))
    ref[:, rows, cols] = ref[:, cols, rows] = tri
    assert np.array_equal(_sym_from_tri(4, tri), ref)
    assert np.array_equal(_sym_from_tri(4, tri[3]), ref[3])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=40))
def test_median_is_np_median_bit_for_bit(steps):
    assert _median(steps).hex() == float(np.median(steps)).hex()


def test_tiny_sphere_neither_overflows_nor_stops(tiny_sphere_traj):
    traj, model = tiny_sphere_traj, tiny_sphere_traj.model
    assert traj.meta["termination"] == TERM_HORIZON and len(traj) == 1025
    assert 0.0 < traj.meta["integrator"]["h0"] <= traj.meta["t_end_requested"] == 1e-161
    assert np.all(np.isfinite(traj.derived["J"]))
    rm = [geometry.rm_norm(model, g) for g in traj.mats]
    assert np.allclose(rm, geometry.curvature_batch(model, traj.mats).rm_norm,
                       rtol=1e-12, atol=0.0)


def test_integrator_telemetry(heis_traj):
    stats = heis_traj.meta["integrator"]
    assert stats["method"] == "dop853"
    assert 0.0 < stats["h0"] <= 0.5
    assert 0.0 < stats["h_min"] <= stats["h_median"] <= stats["h_max"] <= 0.5
    assert stats["rhs_evals_per_record"] == stats["rhs_evals"] / len(heis_traj)
    assert 0.0 <= stats["max_err_norm"] <= 1.0
    # 3 interpolant stages per step holding an interior record
    assert 0 < stats["dense_evals"] <= 3 * stats["accepted"]
    assert stats["dense_evals"] % 3 == 0
    # f(0, y0), the starting-step probe, then 12 stages per step tried
    assert stats["rhs_evals"] == (2 + 12 * (stats["accepted"] + stats["rejected_err"])
                                  + stats["dense_evals"])


def test_record_on_step_end_needs_no_interpolant(heis_model):
    # a single record at t_end lands on the last step's end exactly
    traj = integrate(heis_model, reference_metric(heis_model),
                     FlowConfig(t_end=0.5, record_every=0.5))
    stats = traj.meta["integrator"]
    assert traj.times.tolist() == [0.0, 0.5]
    assert stats["dense_evals"] == 0
    assert stats["rhs_evals"] == 2 + 12 * stats["accepted"]
    assert _isenberg_jackson_error(traj) <= 1e-8


def test_berger_su2_blowup_pins_rejection_counters():
    # a squashed Berger metric on su(2) blows up before t_end with both
    # error and SPD rejections, the paths no shipped config reaches
    model = build_model({"kind": "lie_group_quotient", "dim": 3,
                         "covolume": 2.0 * math.pi ** 2,
                         "brackets": [[1, 2, 3, 2.0], [2, 3, 1, 2.0], [3, 1, 2, 2.0]]})
    traj = integrate(model, np.diag([1.0, 1.0, 0.25]), FlowConfig(t_end=0.5))
    stats = traj.meta["integrator"]
    assert traj.meta["termination"] == TERM_BLOWUP
    assert math.isclose(traj.meta["t_reached"], 0.17252157685013825, rel_tol=1e-12)
    assert (stats["accepted"], stats["rejected_err"], stats["rejected_spd"]) == (32, 23, 10)
    assert (stats["rhs_evals"], stats["dense_evals"]) == (786, 72)


# Milnor's unimodular 3-dim classes: [e2, e3] = l1 e1, [e3, e1] = l2 e2, [e1, e2] = l3 e3
_MILNOR = {"su2": (2.0, 2.0, 2.0), "sl2r": (-2.0, 2.0, 2.0), "e2": (1.0, 1.0, 0.0),
           "e11": (1.0, -1.0, 0.0)}


def _milnor_model(name: str, covolume: float = 1.0):
    l1, l2, l3 = _MILNOR[name]
    return build_model({"kind": "lie_group_quotient", "dim": 3, "covolume": covolume,
                        "brackets": [[i, j, k, lam] for (i, j, k), lam in
                                     zip(((2, 3, 1), (3, 1, 2), (1, 2, 3)), (l1, l2, l3))
                                     if lam != 0.0]})


def test_round_su2_flows_as_the_round_sphere(s3_traj):
    # su(2) with cyclic brackets 2 and covolume 2 pi^2 is the round unit S^3
    model = _milnor_model("su2", covolume=2.0 * math.pi ** 2)
    traj = integrate(model, np.eye(3), FlowConfig(t_end=0.2, record_every=0.2 / 512))
    assert np.array_equal(traj.times, s3_traj.times)
    assert np.abs(traj.mats - s3_traj.mats).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(_MILNOR))
def test_milnor_class_flows_match_scipy_dop853(name):
    # an independent integrator at a tight tolerance, from a non-diagonal g0
    pytest.importorskip("scipy")
    from scipy.integrate import solve_ivp

    model = _milnor_model(name)
    a = 0.3 * np.random.default_rng(sorted(_MILNOR).index(name)).standard_normal((3, 3))
    g0 = np.eye(3) + a @ a.T
    traj = integrate(model, g0, FlowConfig(t_end=0.1, record_every=0.1 / 64))
    tri = _tri_indices(3)
    ref = solve_ivp(lambda t, y: ricci_rhs(model, _sym_from_tri(3, y))[tri], (0.0, 0.1),
                    g0[tri], method="DOP853", rtol=1e-13, atol=1e-15, t_eval=traj.times)
    assert ref.success and len(traj) == 65
    want = _sym_from_tri(3, ref.y.T)
    assert np.abs(traj.mats - want).max() <= 1e-8 * np.abs(want).max()


def test_rms_scales_only_vectors_whose_squares_overflow():
    from riccilab.flow import _rms

    v = np.random.default_rng(3).standard_normal(6)
    assert _rms(v) == math.sqrt(float(v @ v) / 6)         # the plain route, bit for bit
    for big in (1e150, 1e200, 1e300):
        with np.errstate(all="raise"):
            assert math.isclose(_rms(big * v), big * _rms(v), rel_tol=1e-15)
    assert _rms(np.array([np.inf, 1.0])) == math.inf     # not NaN, which stalls the loop


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


# Every module `import riccilab.cli` loads after numpy and every `flow` and
# `check` uses.  One that goes missing was deferred into a function body: the
# benchmark's in-process runs would stop timing it, while every CLI call
# still pays for it.
CLI_MODULES = (
    "__future__", "_json", "json", "json.decoder", "json.encoder", "json.scanner",
    "riccilab", "riccilab._dop853", "riccilab.checks", "riccilab.cli", "riccilab.config",
    "riccilab.constants", "riccilab.flow", "riccilab.geometry", "riccilab.sobolev")

# Modules no well-formed flow, check or sweep uses: argparse (and its gettext)
# for help and errors, fractions for the constants command's Moser schedule,
# decimal for an error message at an extreme exponent, and numpy.ma, which
# np.median imports on its first call.
UNUSED_MODULES = ("argparse", "gettext", "fractions", "decimal", "numpy.ma")

_COMMANDS_IN_ONE_PROCESS = """\
import contextlib, io, sys, numpy
import riccilab.cli
print(' '.join(sys.modules))
out, cfg = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["flow"], ["check", "--trajectory", out + "/trajectory.csv"],
                 ["sweep", "--param", "metric_scale", "--values", "0.5,2"]):
        assert riccilab.cli.main([*argv, "--config", cfg, "--out", out]) == 0
print(' '.join(sys.modules))
"""


def test_cli_import_is_eager_and_well_formed_commands_load_no_unused_module(tmp_path):
    # a fresh interpreter, since pytest has argparse, fractions and decimal loaded
    path = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", _COMMANDS_IN_ONE_PROCESS, str(tmp_path),
                          str(CONFIGS / "heisenberg.cfg")],
                         capture_output=True, text=True, check=True, env=env)
    at_import, after_commands = (set(line.split()) for line in out.stdout.splitlines())
    assert "dataclasses" not in at_import
    assert [name for name in CLI_MODULES if name not in at_import] == []
    # not loaded later either: the cost is gone, not moved into a command
    assert [name for name in UNUSED_MODULES if name in after_commands] == []


def test_cli_import_compiles_no_forward_ref():
    # a typed record class compiles one typing.ForwardRef per string annotation
    code = ("import numpy, typing\n"
            "count = [0]\n"
            "init = typing.ForwardRef.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    count[0] += 1\n"
            "    init(self, *args, **kwargs)\n"
            "typing.ForwardRef.__init__ = counted\n"
            "import riccilab.cli\n"
            "print(count[0])\n")
    path = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "0"


# (module, record type) -> (_fields, _field_defaults)
RECORD_TYPES = {
    ("geometry", "ModelGeometry"): (
        ("kind", "dim", "structure_constants", "covolume", "factors", "ricci_terms",
         "layout"),
        {"structure_constants": None, "covolume": None, "factors": None,
         "ricci_terms": None, "layout": None}),
    ("geometry", "CurvatureData"): (
        ("ric", "scalar", "rm_norm", "sec_min", "sec_max", "ric_eigs", "vol"), {}),
    ("geometry", "CurvatureBatch"): (("ric", "scalar", "rm_norm", "ric_eigs", "vol"), {}),
    ("sobolev", "GallotConstant"): (("c0", "growth"), {"c0": 1.0, "growth": "exp_sqrt"}),
    ("sobolev", "SobolevEstimate"): (
        ("upper", "lower", "kappa", "witness", "lower_clamped", "lower_exceeds_upper",
         "strategy"),
        {"witness": None, "lower_clamped": False, "lower_exceeds_upper": False,
         "strategy": None}),
    ("sobolev", "Witness"): (("name", "factor_index", "profile", "dprofile", "breakpoints"),
                             {"breakpoints": ()}),
    ("sobolev", "WitnessNorms"): (
        ("name", "l2_sq", "lq_sq", "grad_sq", "quotient", "grid_used", "converged"), {}),
    ("sobolev", "LowerBound"): (("value", "witness", "clamped", "skipped", "norms"), {}),
    ("constants", "ConstantChain"): (
        ("n", "gamma", "vol0", "cs0", "rm_n2_0", "delta0", "c_n_gamma", "b_n_gamma",
         "eps_n_gamma", "eps1_n_gamma", "eps_n_main", "T0", "T1", "primitives"), {}),
    ("constants", "ChainThresholds"): (
        ("n", "gamma", "c_n_gamma", "b_n_gamma", "eps_n_gamma", "eps1_n_gamma",
         "eps_n_main", "primitives"), {}),
    ("constants", "MoserSchedule"): (
        ("n", "t_prime", "k_max", "p0", "q0", "mu", "q", "tau", "sum_inv_q_next",
         "sum_inv_q", "sum_k_over_q", "limit_sum_inv_q_next", "limit_sum_inv_q",
         "limit_sum_k_over_q", "limit_exponents"), {}),
    ("config", "_Field"): (
        ("kind", "default", "choices", "listlike", "attr", "bound"),
        {"default": None, "choices": (), "listlike": False, "attr": None, "bound": None}),
}


@pytest.mark.parametrize("module,name", list(RECORD_TYPES), ids="{0[1]}".format)
def test_record_types_keep_their_fields_and_defaults(module, name):
    record = getattr(importlib.import_module(f"riccilab.{module}"), name)
    fields, defaults = RECORD_TYPES[module, name]
    assert issubclass(record, tuple)
    assert (record._fields, record._field_defaults) == (fields, defaults)


def test_model_geometry_compares_and_hashes_by_its_description():
    a = build_model({"kind": "lie_group_quotient", "dim": 3, "brackets": [[1, 2, 3, 1.0]]})
    b = build_model(a.describe())
    assert a.structure_constants is not b.structure_constants
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != a._replace(covolume=2.0)
    assert a != tuple(a) and a._asdict()["kind"] == "lie_group_quotient"


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


@pytest.mark.parametrize("traj_name, lam, cause", [
    ("prod_traj", 1e80, "vol is not finite"),              # vol ~ lam^4 overflows
    ("heis_traj", 1e150, "vol is not finite"),
    ("prod_traj", 1e-150, "horizon inputs must be positive"),   # vol underflows to 0
    ("prod_traj", 1e200, "its square is inf"),
    ("heis_traj", 1e-200, "its square is 0.0"),
])
def test_rescale_rejects_a_factor_that_leaves_the_floats(request, traj_name, lam, cause):
    with pytest.raises(ValueError, match=f"^{re.escape(f'rescaling factor {lam!r}')} "
                                         f"leaves the floats: .*{re.escape(cause)}$"):
        parabolic_rescale(request.getfixturevalue(traj_name), lam)


@pytest.mark.parametrize("traj_name", ["s3_traj", "prod_traj", "tiny_sphere_traj", "heis_traj"])
def test_product_rm_norm_records_are_the_blowup_norm(request, traj_name):
    traj = request.getfixturevalue(traj_name)
    assert traj.derived["rm_norm"].tolist() == [geometry.rm_norm(traj.model, g)
                                                for g in traj.mats]


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


def _table_trajectory(model, table):
    """A Trajectory whose ``trajectory_table`` is ``table``, bit for bit."""
    n = model.dim
    rows, cols = _tri_indices(n)
    mats = np.zeros((len(table), n, n))
    mats[:, rows, cols] = table[:, 1:1 + len(rows)]
    derived = table[:, 1 + len(rows):]
    return Trajectory(model, table[:, 0], mats,
                      {k: derived[:, i] for i, k in enumerate(DERIVED_KEYS)})


def _assert_csv_is_per_value_repr(model, table, path):
    """A table with a non-finite field is refused before the file opens;
    its finite rows are written as the repr of each value."""
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        row, col = np.argwhere(~np.isfinite(table))[0]
        col_name, value = csv_columns(model.dim)[col], float(table[row, col])
        field = f"line {row + 2}: column {col_name!r} is {value!r}"
        with pytest.raises(ValueError, match=re.escape(field)):
            write_trajectory_csv(_table_trajectory(model, table), path)
        assert not path.exists()
    if finite.any():
        write_trajectory_csv(_table_trajectory(model, table[finite]), path)
        lines = [",".join(csv_columns(model.dim))]
        lines += [",".join(repr(float(v)) for v in row) for row in table[finite]]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_writer_keeps_every_bit_pattern(heis_model, tmp_path):
    # the writer formats each distinct column once and dedupes a column that
    # is not strictly monotone; these are the values a dedup on float
    # equality, or a wrong notation switch, would get wrong;
    # every row of the first table holds inf, -inf and nan, the second none
    sub = 5e-324
    edge = [0.0, -0.0, math.inf, -math.inf, math.nan, sub, 3 * sub, 2.2e-308,
            1e16, 9999999999999998.0, 1e-5, 9.999999999999999e-05, 1.0,
            math.nextafter(1.0, 2.0), -0.0, 0.0]
    width = len(csv_columns(heis_model.dim))
    for values in (edge, [v for v in edge if math.isfinite(v)]):
        table = np.resize(np.array(values), (len(edge), width))
        table[:, 1] = np.tile([0.0, -0.0], len(edge) // 2)
        traj = _table_trajectory(heis_model, table)
        assert np.array_equal(trajectory_table(traj).view(np.int64), table.view(np.int64))
        _assert_csv_is_per_value_repr(heis_model, table, tmp_path / "edge.csv")


_SIGNED_ZEROS_NAN = np.array([0.0, -0.0, math.nan, -math.nan]).view(np.int64).tolist()


_FLOAT_MAX = sys.float_info.max
_TIES = [-_FLOAT_MAX, -1.5, -0.0, 0.0, 5e-324, 1.0, _FLOAT_MAX]


def _draw_column(data, rows, earlier):
    """One column of a structured table: sorted either way, strictly or with
    ties, a bitwise copy of an earlier column, constant, or with -0.0 next to
    0.0 or -max next to max in an otherwise sorted column."""
    kind = data.draw(st.sampled_from(["strict", "ties", "copy", "constant", "zeros", "max"]))
    if kind == "copy" and earlier:
        return earlier[data.draw(st.integers(0, len(earlier) - 1))].copy()
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if kind == "constant":
        return np.full(rows, data.draw(st.one_of(st.sampled_from(_TIES), finite)))
    if kind == "ties":
        values = data.draw(st.lists(st.sampled_from(_TIES), min_size=rows, max_size=rows))
    else:
        values = data.draw(st.lists(finite, min_size=rows, max_size=rows, unique=True))
    values = sorted(values, reverse=data.draw(st.booleans()))
    if kind in ("zeros", "max"):
        pair = [-0.0, 0.0] if kind == "zeros" else [-_FLOAT_MAX, _FLOAT_MAX]
        i = data.draw(st.integers(0, max(rows - 2, 0)))
        values[i:i + 2] = pair[::data.draw(st.sampled_from([1, -1]))][:rows]
    return np.array(values)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_csv_writer_matches_per_value_repr_on_bit_patterns(heis_model, tmp_path_factory,
                                                           data):
    path = tmp_path_factory.mktemp("bits") / "t.csv"
    shape = (data.draw(st.integers(1, 6)), len(csv_columns(heis_model.dim)))
    if data.draw(st.booleans(), label="structured columns"):
        # columns as a trajectory's are: repeated, monotone or constant
        columns = []
        for _ in range(shape[1]):
            columns.append(_draw_column(data, shape[0], columns))
        tables = [np.column_stack(columns)]
    else:
        # a small pool of arbitrary bit patterns, drawn with repeats, as in a real table
        pool = np.array(data.draw(st.lists(
            st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(_SIGNED_ZEROS_NAN)),
            min_size=1, max_size=8)), dtype=np.int64)
        pick = data.draw(arrays(np.intp, shape, elements=st.integers(0, len(pool) - 1)))
        tables = [pool[pick].view(np.float64)]
        # the same draw over the pool's finite patterns only, which the writer keeps
        finite = pool[np.isfinite(pool.view(np.float64))]
        if finite.size:
            tables.append(finite[pick % finite.size].view(np.float64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # an overflowing monotonicity test fails
        for table in tables:
            _assert_csv_is_per_value_repr(heis_model, table, path)


_EDGE_FINITE = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                sys.float_info.max, -sys.float_info.max, 1e16, 9999999999999998.0, 1e-5,
                9.999999999999999e-05, 0.1, 1.0, math.nextafter(1.0, 2.0), -1.5]


@settings(max_examples=50, deadline=None)
@given(table=arrays(np.float64, st.tuples(st.integers(1, 6), st.just(16)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_bulk_parse_reads_repr_back_bit_for_bit(table):
    # every finite double, written as its repr, parses in one call to the same bits
    expected = csv_columns(3)
    table = np.vstack([_EDGE_FINITE, table])
    lines = [",".join(map(repr, row)) for row in table.tolist()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("riccilab.flow._scan_rows", None)       # the fallback must not run
        data = _parse_rows(lines, expected)
    assert np.array_equal(data.view(np.int64), table.view(np.int64))


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
    with pytest.raises(TrajectorySchemaError,
                       match="^line 4: column 't' must be strictly increasing$"):
        read_trajectory_csv(heis_model, bad)


def test_validate_trajectory_reports_nan(heis_traj):
    derived = {k: v.copy() for k, v in heis_traj.derived.items()}
    derived["chi"][5] = np.nan
    derived["vol"][7] = np.nan
    bad = Trajectory(model=heis_traj.model, times=heis_traj.times, mats=heis_traj.mats,
                     derived=derived, meta=heis_traj.meta)
    # the first bad record by index, not the first bad column
    with pytest.raises(ValueError,
                       match="^record 5: column 'chi' deviates from recomputation by nan$"):
        validate_trajectory(bad)


@pytest.mark.parametrize("traj_name, key, value, worst", [
    ("tiny_sphere_traj", "vol", 0.0, "1.000e+00"),       # vol ~ 6e-239: 100% off
    ("prod_traj", "ric_min", 1e-300, "inf"),            # a column of zeros takes only zeros
])
def test_validate_trajectory_is_relative_below_unit_scale(request, traj_name, key, value,
                                                          worst):
    traj = request.getfixturevalue(traj_name)
    assert validate_trajectory(traj) == 0.0
    derived = {k: v.copy() for k, v in traj.derived.items()}
    derived[key][0] = value
    bad = Trajectory(model=traj.model, times=traj.times, mats=traj.mats,
                     derived=derived, meta=traj.meta)
    with pytest.raises(TrajectorySchemaError, match=f"recomputation by {re.escape(worst)}$"):
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
