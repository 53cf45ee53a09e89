import json
import math

import numpy as np
import pytest

from riccilab import (
    ConstantPrimitives,
    FlowConfig,
    build_model,
    check_c0_bound,
    check_diameter_bound,
    check_holder,
    check_lp_evolution,
    check_n2_bound,
    check_scalar_identity,
    check_sobolev_along_flow,
    check_volume_identity,
    constant_chain,
    holder_suite,
    hypothesis_report,
    integrate,
    parabolic_rescale,
    read_trajectory_csv,
    reference_metric,
    run_suite,
    suite_failed,
    witness_family,
    witness_norms,
    write_trajectory_csv,
)
from riccilab import checks as checks_module
from riccilab.checks import FAIL, HYP_NOT_MET, PASS, RATIO, UNAVAILABLE, grid_derivative
from riccilab.flow import Trajectory, validate_trajectory

P = ConstantPrimitives()


def chain_for(traj, cs0=1.0, gamma=1.0):
    return constant_chain(P, traj.model.dim, gamma, traj.meta["vol0"], cs0,
                          traj.meta["rm_n2_0"])


# -- finite differences -------------------------------------------------------

def test_grid_derivative_fourth_order():
    t = np.linspace(0.0, 1.0, 41)
    v = np.sin(3.0 * t)
    idx, dv, gain, order = grid_derivative(t, v)
    assert order == 4
    assert np.abs(dv - 3.0 * np.cos(3.0 * t[idx])).max() < 2e-5
    # sum |c| over the span 2h: (1 + 8 + 8 + 1) / 6 inside, (3 + 10 + 18 + 6 + 1) / 6 at the ends
    span = t[idx + 1] - t[idx - 1]
    assert np.allclose(gain * span, [38 / 6] + [18 / 6] * (len(idx) - 2) + [38 / 6],
                       rtol=1e-15)


def test_grid_derivative_nonuniform_fallback():
    t = np.array([0.0, 0.1, 0.25, 0.31, 0.5])
    v = 3.0 * t + 1.0
    idx, dv, gain, order = grid_derivative(t, v)
    assert order == 2
    assert np.allclose(dv, 3.0, atol=1e-12)   # exact for affine data
    assert np.array_equal(gain, 2.0 / (t[idx + 1] - t[idx - 1]))   # sum |c| = 1 + 1


@pytest.mark.parametrize("h", [1e-3, 9.77e-304])
@pytest.mark.parametrize("value", [1.0, 2.0 ** -40, 2.0 ** 100])
def test_grid_derivative_of_a_constant_is_exactly_zero(h, value):
    # exact, since the integer weights sum to 0; weights divided by 12 first
    # sum to about 1e-16 and would read 1e-16 * value / h at either end
    t = h * np.arange(17)
    idx, dv, _, order = grid_derivative(t, np.full(len(t), value))
    assert order == 4
    assert np.array_equal(dv, np.zeros(len(idx)))


@pytest.mark.parametrize("records", [1, 2])
def test_grid_derivative_needs_three_states(records):
    t = np.arange(records, dtype=float)
    with pytest.raises(ValueError, match="^need at least 3 recorded states for time "
                                         "derivatives$"):
        grid_derivative(t, t)


# -- volume identity -----------------------------------------------------------

def test_volume_identity_flat_torus(torus_traj):
    rep = check_volume_identity(torus_traj)
    assert rep.status == PASS
    assert rep.details["max_residual"] <= 1e-12   # pure FD roundoff on constants
    assert "vacuous" in " ".join(rep.notes)


def test_volume_identity_sphere(s3_traj):
    rep = check_volume_identity(s3_traj)
    assert rep.status == PASS
    assert rep.details["max_residual"] <= 1e-7
    # the sphere is the extremal case of the frame bound |R| <= sqrt(n(n-1)/2) |Rm|
    assert math.isclose(rep.fitted_constant, math.sqrt(3.0), rel_tol=1e-12)


def test_volume_identity_tiny_sphere(tiny_sphere_traj):
    # |R| ~ 6e160: the R-norm variant's |R|^(n/2) would overflow unscaled;
    # warnings are errors here
    rep = check_volume_identity(tiny_sphere_traj)
    assert rep.status == PASS
    assert math.isfinite(rep.details["r_norm_variant_gap"])


def _hand_built(torus_model, times, **derived):
    """A trajectory on the flat 3-torus carrying only the given derived columns."""
    mats = np.broadcast_to(np.eye(3), (len(times), 3, 3))
    return Trajectory(torus_model, times, mats, derived)


def test_volume_identity_fails_above_the_frame_bound(torus_model):
    # vol = e^-t with R = 1 keeps dvol/dt = -R vol, but |R| / |Rm| = 10 > sqrt(3)
    t = np.linspace(0.0, 1.0, 65)
    traj = _hand_built(torus_model, t, vol=np.exp(-t), scalar_R=np.ones_like(t),
                       rm_norm=np.full_like(t, 0.1))
    rep = check_volume_identity(traj)
    assert rep.status == FAIL
    assert rep.details["max_residual"] <= rep.details["tolerance"]
    assert rep.fitted_constant == pytest.approx(10.0, rel=1e-15)
    assert "fitted |R|/|Rm| exceeds the frame bound" in rep.notes


def test_volume_identity_needs_states(s3_model):
    # two records give no time derivative: each derivative check is unavailable,
    # naming the record count, and the run goes on
    traj = integrate(s3_model, reference_metric(s3_model),
                     FlowConfig(t_end=0.01, record_every=0.01))
    assert len(traj) == 2
    reports = [check_volume_identity(traj), check_scalar_identity(traj),
               check_lp_evolution(traj, 1.5), check_lp_evolution(traj, 2.0)]
    assert [r.name for r in reports] == ["volume_identity", "scalar_identity",
                                         "lp_evolution_p1.5", "lp_evolution_p2"]
    for rep in reports:
        assert (rep.status, rep.samples, rep.sup_ratio, rep.fitted_constant, rep.notes) == \
            (UNAVAILABLE, 0, None, None, ())
        assert rep.details == {"records": 2, "reason": "time derivatives need at least 3 "
                                                       "recorded states, got 2"}


# -- scalar identity -------------------------------------------------------------

def test_scalar_identity_on_fixture_runs(s3_traj, torus_traj, heis_traj, prod_traj):
    for traj in (s3_traj, torus_traj, heis_traj, prod_traj):
        rep = check_scalar_identity(traj)
        assert rep.status == PASS, rep.details


# -- factor-2 bound ---------------------------------------------------------------

def test_n2_bound_flat_torus(torus_traj):
    rep = check_n2_bound(torus_traj, chain_for(torus_traj))
    assert rep.status == PASS
    assert rep.sup_ratio == 0.0


def test_n2_bound_almost_flat_heisenberg(almost_flat_heis_traj):
    rep = check_n2_bound(almost_flat_heis_traj, chain_for(almost_flat_heis_traj))
    assert rep.status == PASS
    assert rep.details["margin"] > 0.0
    assert rep.sup_ratio <= 0.5 + 1e-9   # norm actually decreases


def test_n2_bound_sphere_hypothesis_not_met(s3_traj):
    rep = check_n2_bound(s3_traj, chain_for(s3_traj))
    assert rep.status == HYP_NOT_MET
    assert rep.details["margin"] < 0.0


# -- pointwise bound ratio ----------------------------------------------------------

def test_c0_bound_flat_torus(torus_traj):
    rep = check_c0_bound(torus_traj, cs0=1.0)
    assert rep.status == RATIO
    assert rep.sup_ratio == 0.0


def test_c0_bound_fails_on_curvature_from_a_flat_start(torus_model):
    # a zero initial n/2 norm with later curvature is an integrator defect
    t = np.linspace(0.0, 2.0, 9)
    rm = np.zeros_like(t)
    rm[3] = 1e-6
    traj = _hand_built(torus_model, t, vol=np.ones_like(t), rm_norm=rm,
                       rm_n2_norm=np.zeros_like(t))
    rep = check_c0_bound(traj, cs0=1.0)
    assert (rep.status, rep.samples, rep.fitted_constant) == (FAIL, 4, None)    # t in (0, 1]
    assert rep.details == {"reason": "zero initial n/2 norm but nonzero later curvature: "
                                     "integrator defect"}


def test_c0_bound_is_unavailable_without_a_record_in_its_window():
    # e(2) from the identity: T0 = 1, but the first record after 0 is at 1.5625
    model = build_model({"kind": "lie_group_quotient", "dim": 3,
                         "brackets": [[2, 3, 1, 1.0], [3, 1, 2, 2.0]]})
    traj = integrate(model, reference_metric(model), FlowConfig(t_end=100.0,
                                                                record_every=1.5625))
    assert traj.times[1] == 1.5625 and traj.derived["rm_n2_norm"][0] > 0.0
    rep = check_c0_bound(traj, cs0=1.0)
    assert (rep.status, rep.samples, rep.sup_ratio, rep.fitted_constant, rep.notes) == \
        (UNAVAILABLE, 0, None, None, ())
    assert rep.details == {"T0": 1.0, "cs0": 1.0,
                           "reason": "no record in (0, T0]: lower flow.record_every "
                                     "to put one there"}


def test_c0_bound_sphere_finite_and_rescale_invariant(s3_traj):
    rep = check_c0_bound(s3_traj, cs0=1.0)
    assert rep.status == RATIO
    assert math.isfinite(rep.fitted_constant) and rep.fitted_constant > 0.0
    resc = parabolic_rescale(s3_traj, 2.0)
    rep2 = check_c0_bound(resc, cs0=1.0)
    assert abs(rep2.fitted_constant - rep.fitted_constant) \
        <= 1e-10 * rep.fitted_constant


def test_n2_bound_rescale_invariant(almost_flat_heis_traj):
    rep = check_n2_bound(almost_flat_heis_traj, chain_for(almost_flat_heis_traj))
    resc = parabolic_rescale(almost_flat_heis_traj, 2.0)
    chain2 = constant_chain(P, 3, 1.0, resc.meta["vol0"], 1.0, resc.meta["rm_n2_0"])
    rep2 = check_n2_bound(resc, chain2)
    assert rep2.status == rep.status == PASS
    assert abs(rep2.sup_ratio - rep.sup_ratio) <= 1e-10 * rep.sup_ratio


# -- evolution inequality ratios -------------------------------------------------------

def test_lp_evolution_flat_torus(torus_traj):
    rep = check_lp_evolution(torus_traj, 2.0)
    assert rep.status == RATIO
    assert "vacuous" in " ".join(rep.notes)


def test_lp_evolution_sphere_closed_form(s3_traj):
    # at p = 2 on the shrinking 3-sphere the ratio is the constant 1/(2 sqrt 3)
    rep = check_lp_evolution(s3_traj, 2.0)
    assert rep.status == RATIO
    assert math.isclose(rep.fitted_constant, 1.0 / (2.0 * math.sqrt(3.0)),
                        rel_tol=1e-6)
    # at the critical exponent the integral is constant: every finite
    # difference is rounding noise, none counts as positive, and the fit is 0
    rep_crit = check_lp_evolution(s3_traj, 1.5)
    assert rep_crit.fitted_constant == 0.0
    assert rep_crit.details["positive_derivative_samples"] == 0
    assert "norm nonincreasing along the run: fitted constant 0" in rep_crit.notes


def test_lp_evolution_heisenberg_finite(heis_traj):
    rep = check_lp_evolution(heis_traj, 2.0)
    assert rep.status == RATIO
    assert math.isfinite(rep.fitted_constant)


def test_lp_evolution_pointwise_fit_sphere(s3_traj):
    # |Rm| = sqrt(12)/s with ds/dt = -4: d|Rm|/dt / |Rm|^2 = 4/sqrt(12) = 2/sqrt(3)
    rep = check_lp_evolution(s3_traj, 2.0)
    assert math.isclose(rep.details["pointwise_fit"], 2.0 / math.sqrt(3.0),
                        rel_tol=1e-6)


@pytest.mark.parametrize("model_name,t_end", [("s3_model", 0.2), ("heis_model", 0.5),
                                              ("prod_model", 0.1), ("torus_model", 0.5)])
def test_fits_hold_on_a_grid_thinned_twofold(request, model_name, t_end):
    # acceptance criterion 12's runs, at T/256 and at T/128 (whose records are
    # every second T/256 record): a fit that measures the geometry is exactly
    # 0 or moves by less than 5%, with no absolute floor, while one that
    # reads rounding noise moves with the grid
    model = request.getfixturevalue(model_name)
    fine, coarse = (integrate(model, reference_metric(model),
                              FlowConfig(t_end=t_end, record_every=t_end / records))
                    for records in (256, 128))
    assert np.array_equal(coarse.mats, fine.mats[::2])
    for fit in (lambda traj: check_c0_bound(traj, 1.0),
                lambda traj: check_lp_evolution(traj, 2.0),
                lambda traj: check_lp_evolution(traj, model.dim / 2.0)):
        a, b = fit(fine).fitted_constant, fit(coarse).fitted_constant
        assert a == b == 0.0 or abs(b - a) < 0.05 * abs(a), (a, b)


def test_lp_evolution_domain(s3_traj):
    with pytest.raises(ValueError):
        check_lp_evolution(s3_traj, 0.5)


# -- discrete inequalities ----------------------------------------------------------

def test_holder_single_atom_equality():
    rep = check_holder([(2.0, 1.5)], 2.0, 4)
    assert rep.status == PASS
    m = rep.details["min_margins"]
    assert abs(m["pair_exponent"]) < 1e-12
    assert abs(m["iterated_exponent"]) < 1e-12


def test_holder_two_atom_hand_values():
    # f = (1, 2), w = (1, 1), n = 4, p = 2: both sides by hand
    samples = [(1.0, 1.0), (2.0, 1.0)]
    rep = check_holder(samples, 2.0, 4)
    assert rep.status == PASS
    lhs = 1.0 + 2.0 ** 3
    rhs = (1.0 + 2.0 ** 2) ** (2.0 / 4.0) * (1.0 + 2.0 ** 4) ** (2.0 / 4.0)
    margin = (rhs - lhs) / lhs
    assert math.isclose(rep.details["min_margins"]["pair_exponent"], margin,
                        rel_tol=1e-10)
    assert margin > 0.0


def test_holder_epsilon_split_near_equality_flagged():
    rep = check_holder([(1.0, 1.0)], 2.0, 4,
                       eps_grid=np.logspace(-3, 3, 2001))
    assert any("near equality" in note for note in rep.notes)


def test_holder_domain_errors():
    with pytest.raises(ValueError):
        check_holder([], 2.0, 4)
    with pytest.raises(ValueError):
        check_holder([(-1.0, 1.0)], 2.0, 4)
    with pytest.raises(ValueError):
        check_holder([(1.0, 0.0)], 2.0, 4)


@pytest.mark.parametrize("samples,kwargs,match", [
    ([(math.nan, 1.0)], {}, "values"),
    ([(math.inf, 1.0)], {}, "values"),
    ([(1.0, math.nan)], {}, "weights"),
    ([(1.0, math.inf)], {}, "weights"),
    ([(1.0, 1.0)], {"eps_grid": [0.0]}, "epsilon"),
    ([(1.0, 1.0)], {"eps_grid": [-1.0]}, "epsilon"),
    ([(1.0, 1.0)], {"eps_grid": [math.nan]}, "epsilon"),
    ([(1.0, 1.0)], {"eps_grid": [1.0, math.inf]}, "eps_grid"),
    ([(1.0, 1.0)], {"eps_grid": [0.0, 1.0]}, "eps_grid"),
    ([(1.0, 1.0)], {"p": math.nan}, "p must"),
    ([(1.0, 1.0)], {"p": 0.5}, "p must"),
    ([(1.0, 1.0)], {"n": 2}, "n must"),
])
def test_holder_rejects_out_of_domain_input(samples, kwargs, match):
    args = {"p": 2.0, "n": 3, **kwargs}
    with pytest.raises(ValueError, match=match):
        check_holder(samples, **args)


@pytest.mark.parametrize("kwargs,match", [
    ({"p": 0.5}, "p must"),
    ({"p": math.nan}, "p must"),
    ({"p": math.inf}, "p must"),
    ({"n": 2}, "n must"),
    ({"count": 0}, "count must"),
])
def test_holder_suite_rejects_out_of_domain_arguments(kwargs, match):
    args = {"n": 3, "p": 2.0, "count": 10, **kwargs}
    with pytest.raises(ValueError, match=match):
        holder_suite(**args)


def test_holder_sides_live_zero_atoms_match_unpadded():
    # live atoms of value 0 must still count as 0^e = 0; only weight-0 padding is skipped
    measures = [[(0.0, 1.0), (2.0, 1.5)], [(0.0, 0.7)], [(3.0, 0.2), (0.0, 1.9), (0.5, 1.0)]]
    f, w = np.zeros((len(measures), 4)), np.zeros((len(measures), 4))
    for t, atoms in enumerate(measures):
        f[t, :len(atoms)], w[t, :len(atoms)] = zip(*atoms)
    names, lhs, _, margin, failed = checks_module._holder_sides(f, w, 2.0, 4,
                                                               checks_module._DEFAULT_EPS_GRID)
    assert not failed.any()
    for t, atoms in enumerate(measures):
        margins = check_holder(atoms, 2.0, 4).details["min_margins"]
        for name in margins:
            got = margin[t][[c for c, m in enumerate(names) if m == name]].min()
            assert got == margins[name] or \
                abs(got - margins[name]) <= 1e-12 * max(1.0, abs(margins[name]))
    # the all-zero live measure keeps lhs == 0, hence an infinite margin
    assert np.all(lhs[1] == 0.0) and np.all(margin[1] == math.inf)
    rep = check_holder(measures[1], 2.0, 4)
    assert rep.status == PASS
    assert all(m == math.inf for m in rep.details["min_margins"].values())


@pytest.mark.parametrize("n,seed,worst", [
    (3, 0, "-0x1.f2edcf219d6a1p-51"),
    (3, 2024, "-0x1.668d87e951a04p-50"),
    (4, 0, "-0x1.76325b59360f8p-51"),
    (4, 2024, "-0x1.0b9b1879e948dp-51"),
])
def test_holder_suite_worst_margin_pinned(n, seed, worst):
    # exact values: skipping the zero-weight padding must not move a single bit
    rep = holder_suite(n, 2.0, seed=seed)
    assert float.hex(rep.details["worst_margin"]) == worst


def _holder_suite_loop(n, p, seed, count):
    """Reference: the suite's seeded draw layout, one check_holder call per measure."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 21, count)
    values = np.abs(rng.standard_normal((count, 20))) * 10.0 ** rng.uniform(-2, 2, (count, 1))
    weights = rng.uniform(0.1, 2.0, (count, 20))
    failures, worst = [], math.inf
    for trial in range(count):
        size = sizes[trial]
        rep = check_holder(list(zip(values[trial, :size], weights[trial, :size])), p, n)
        if rep.status == FAIL:
            failures.append({"trial": trial, **rep.details})
        worst = min(worst, min(rep.details["min_margins"].values()))
    return failures, worst


@pytest.mark.parametrize("n,slack", [(3, None), (6, None), (4, -0.5)])
def test_holder_suite_matches_per_trial_loop(n, slack, monkeypatch):
    if slack is not None:
        # the inequalities hold, so only a negative slack exercises failures
        monkeypatch.setattr(checks_module, "_REL_SLACK", slack)
    rep = holder_suite(n, p=2.0, seed=11, count=300)
    failures, worst = _holder_suite_loop(n, 2.0, 11, 300)
    assert rep.status == (FAIL if failures else PASS)
    assert (slack is not None) == bool(failures)
    assert rep.details["failures"] == failures[:5]
    assert abs(rep.details["worst_margin"] - worst) <= 1e-12


def test_holder_suite_draw_layout(monkeypatch):
    seen = []
    real = checks_module._holder_sides
    monkeypatch.setattr(checks_module, "_holder_sides",
                        lambda f, w, *a: seen.append((f, w)) or real(f, w, *a))
    holder_suite(3, p=2.0, seed=7, count=1000)
    ((f, w),) = seen
    sizes = np.random.default_rng(7).integers(1, 21, 1000)   # the first draw
    live = np.arange(20) < sizes[:, None]
    assert set(sizes.tolist()) == set(range(1, 21))
    assert np.all(w[~live] == 0.0) and np.all(f[~live] == 0.0)
    assert np.all(w[live] >= 0.1) and np.all(f[live] > 0.0)


def test_check_path_makes_no_per_record_curvature_calls(heis_traj, heis_model,
                                                        tmp_path, monkeypatch):
    # heis_traj is the flow of configs/heisenberg.cfg: same model, t_end and grid
    path = tmp_path / "traj.csv"
    write_trajectory_csv(heis_traj, path)
    calls, stacks = [], []
    real = checks_module.geometry.curvature
    real_batch = checks_module.geometry.curvature_batch
    monkeypatch.setattr(checks_module.geometry, "curvature",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    monkeypatch.setattr(checks_module.geometry, "curvature_batch",
                        lambda model, mats: stacks.append(np.shape(mats))
                        or real_batch(model, mats))
    traj = read_trajectory_csv(heis_model, path)
    # loading and validating is one stacked pass, with no single-row evaluation
    assert len(traj) > 1
    assert stacks == [(len(traj), 3, 3)]
    validate_trajectory(traj)
    assert check_scalar_identity(traj).status == PASS
    assert not calls                # every per-record value comes from the batch kernel


@pytest.mark.parametrize("n", [3, 4, 6])
def test_holder_suite_no_violations(n):
    rep = holder_suite(n, p=2.0, seed=42, count=300)
    assert rep.status == PASS
    assert rep.details["worst_margin"] > -1e-12


# -- diameter bound --------------------------------------------------------------------

def witnesses_on(model, g, family="eigenfunction"):
    return [witness_norms(model, g, w) for w in witness_family(model, family)]


def test_diameter_bound_unit_sphere(s3_model):
    g = reference_metric(s3_model)
    from riccilab import diameter, volume
    rep = check_diameter_bound(1.0, 1.0, 3, diameter(s3_model, g),
                               volume(s3_model, g), witnesses_on(s3_model, g))
    assert rep.status == PASS
    assert math.isclose(rep.details["lhs"],
                        math.pi / (2.0 * math.pi ** 2) ** (1.0 / 3.0),
                        rel_tol=1e-12)
    assert math.isclose(rep.details["rhs"],
                        2.0 ** 2.5 * (2.0 ** 1.5 + 1.0), rel_tol=1e-12)


def test_diameter_bound_monotone_in_B():
    rhs = lambda B, n=3: 2.0 ** (n / 2 + 1) * (2.0 ** (n / 2) * B ** (n / 2) + 1) \
        * math.sqrt(1.0 / B)
    assert rhs(1.0) < rhs(10.0) < rhs(100.0)


def test_diameter_bound_invalid_pair_gated(s3_model):
    g = reference_metric(s3_model)
    from riccilab import diameter, volume
    rep = check_diameter_bound(1e-6, 1e-6, 3, diameter(s3_model, g),
                               volume(s3_model, g), witnesses_on(s3_model, g))
    assert rep.status == HYP_NOT_MET
    assert "violating_witness" in rep.details


# -- flow-time Sobolev inequality --------------------------------------------------------

def test_sobolev_along_flow_torus_product():
    from riccilab import build_model
    m = build_model({"kind": "product_of_space_forms",
                     "factors": [["flat_torus", 3, 1.0]]})
    traj = integrate(m, reference_metric(m), FlowConfig(t_end=0.5,
                                                        record_every=0.5 / 32))
    rep = check_sobolev_along_flow(traj, cs0=1.0, primitives=P)
    assert rep.status == RATIO
    assert rep.details["first_violation_time"] is None
    assert math.isfinite(rep.fitted_constant)


def test_sobolev_along_flow_sphere_violation_monotone_in_a_n(s3_traj):
    t1 = check_sobolev_along_flow(s3_traj, 0.05, P).details["first_violation_time"]
    t2 = check_sobolev_along_flow(
        s3_traj, 0.05, ConstantPrimitives(a_n=4.0)).details["first_violation_time"]
    assert t1 is not None and t2 is not None
    assert t2 <= t1


def test_sobolev_along_flow_almost_flat_condition_holds(almost_flat_heis_traj):
    rep = check_sobolev_along_flow(almost_flat_heis_traj, 1.0, P)
    assert rep.status == UNAVAILABLE          # quotient: no witnesses
    assert rep.details["first_violation_time"] is None


# -- the fit rule of the ratio-extracted checks ----------------------------------------

NON_FINITE = "non-finite fitted constant"


def test_a_nan_curvature_norm_fails_every_fit_it_reaches(s3_traj):
    # record 100 (t ~ 0.04) lies in the C0 window; its NaN |Rm| makes its C0
    # ratio and the lp derivatives around it NaN, which no fit may drop
    derived = {**s3_traj.derived, "rm_norm": np.array(s3_traj.derived["rm_norm"])}
    derived["rm_norm"][100] = np.nan
    traj = Trajectory(s3_traj.model, s3_traj.times, s3_traj.mats, derived,
                      dict(s3_traj.meta))
    reports = run_suite(traj, chain_for(traj), P,
                        checks=["c0_bound", "lp_evolution_n2", "lp_evolution_p2"])
    assert [(r.name, r.status, r.details["reason"], r.fitted_constant) for r in reports] == [
        ("c0_bound", FAIL, NON_FINITE, None), ("lp_evolution_n2", FAIL, NON_FINITE, None),
        ("lp_evolution_p2", FAIL, NON_FINITE, None)]


def test_a_nan_witness_ratio_fails_the_sobolev_fit(prod_traj, monkeypatch):
    # the NaN is the second ratio, which a running max(fitted, ratio) would drop
    assert check_sobolev_along_flow(prod_traj, 0.05, P).status == RATIO
    real, calls = witness_norms, []

    def norms(model, g, w):
        calls.append(w.name)
        wn = real(model, g, w)
        return wn._replace(lq_sq=math.nan) if len(calls) == 2 else wn

    monkeypatch.setattr(checks_module.sobolev, "witness_norms", norms)
    rep = check_sobolev_along_flow(prod_traj, 0.05, P)
    assert (rep.status, rep.details["reason"], rep.samples) == (FAIL, NON_FINITE, len(calls))


@pytest.mark.parametrize("ratios, detail, status, fitted", [
    ([], [], RATIO, 0.0),                          # the supremum over no ratios
    ([0.5, 2.0], [1.0], RATIO, 2.0),
    ([0.5, math.inf], [1.0], FAIL, None),
    ([0.5, 2.0], [1.0, math.nan], FAIL, None),    # a detail fit follows the same rule
])
def test_fit_report_rule(ratios, detail, status, fitted):
    rep = checks_module._fit_report("fit", np.array(ratios), 7, {"k": 1},
                                    detail_fits={"detail": np.array(detail)})
    assert (rep.status, rep.fitted_constant, rep.sup_ratio, rep.samples) == \
        (status, fitted, fitted, 7)
    assert rep.details == ({"k": 1, "detail": max(detail, default=0.0)} if status == RATIO
                           else {"k": 1, "reason": NON_FINITE})


# -- hypothesis report ----------------------------------------------------------------

def torus_invariants():
    return {"rm_n2": 0.0, "vol": 1.0, "ric_min": 0.0, "ricci_deficit": 0.0,
            "rm_n2_vol_normalized": 0.0}


def test_hypothesis_report_flat_torus(torus_traj):
    chain = chain_for(torus_traj)
    rep = hypothesis_report(3, torus_invariants(), chain, P)
    by_name = {t["theorem"]: t for t in rep.details["theorems"]}
    assert by_name["pinching_main"]["holds"] is True
    assert math.isclose(by_name["pinching_main"]["margin"], chain.eps_n_main,
                        rel_tol=1e-14)
    assert by_name["pinching_diameter"]["holds"] is None   # diam unavailable


def test_hypothesis_report_unit_sphere(s3_model, s3_traj):
    from riccilab import curvature, diameter, rm_lp_norm, volume
    g = reference_metric(s3_model)
    cv = curvature(s3_model, g, plane_samples=0)
    vol = volume(s3_model, g)
    rm_n2 = rm_lp_norm(cv, vol, 1.5)
    unit = ConstantPrimitives(gallot=__import__("riccilab").GallotConstant(
        growth="constant"))
    chain = constant_chain(unit, 3, 1.0, vol, 1.0, rm_n2)
    inv = {"rm_n2": rm_n2, "vol": vol, "diam": diameter(s3_model, g),
           "ric_min": 2.0, "cs_upper": math.pi / (2 * math.pi ** 2) ** (1 / 3),
           "kappa": 0.0}
    rep = hypothesis_report(3, inv, chain, unit)
    by_name = {t["theorem"]: t for t in rep.details["theorems"]}
    thm_c = by_name["pinching_diameter"]
    # hand arithmetic: the scale-free product is far above the threshold
    expected_value = rm_n2 * (inv["diam"] / vol ** (1 / 3)) ** 2
    assert math.isclose(thm_c["value"], expected_value, rel_tol=1e-12)
    assert expected_value > 30.0
    assert thm_c["holds"] is False


def test_hypothesis_report_missing_invariant_marks_unavailable(torus_traj):
    chain = chain_for(torus_traj)
    rep = hypothesis_report(3, {"vol": 1.0}, chain, P)
    by_name = {t["theorem"]: t for t in rep.details["theorems"]}
    assert by_name["pinching_main"]["holds"] is None
    assert "unavailable" in by_name["pinching_main"]["note"]
    rep = hypothesis_report(3, {"rm_n2": 1e-4, "vol": 1.0}, chain, P)
    assert [(t["theorem"], t["holds"], t["note"]) for t in rep.details["theorems"][:2]] == [
        (name, None, "unavailable: missing cs_upper")
        for name in ("pinching_main", "flow_existence")]


def test_hypothesis_report_threshold_monotone(torus_traj):
    # enlarging the configured thresholds never flips holds -> not-holds
    inv = {"rm_n2": 1e-4, "vol": 1.0, "ric_min": 0.0, "cs_upper": 1.0}
    small = ConstantPrimitives(c_n=2.0)      # larger c_n, smaller thresholds
    big = ConstantPrimitives(c_n=0.5)
    chain_small = constant_chain(small, 3, 1.0, 1.0, 1.0, 1e-4)
    chain_big = constant_chain(big, 3, 1.0, 1.0, 1.0, 1e-4)
    assert chain_big.eps_n_main >= chain_small.eps_n_main
    rep_small = hypothesis_report(3, inv, chain_small, small)
    rep_big = hypothesis_report(3, inv, chain_big, big)
    for name in ("pinching_main", "flow_existence"):
        a = {t["theorem"]: t for t in rep_small.details["theorems"]}[name]["holds"]
        b = {t["theorem"]: t for t in rep_big.details["theorems"]}[name]["holds"]
        assert not (a is True and b is False)


@pytest.mark.parametrize("kappa", [0.0, 0.3])
def test_hypothesis_ricci_deficit_is_integral_deficit(heis_traj, kappa):
    from riccilab import curvature, integral_ricci_deficit, volume
    g0 = heis_traj.mats[0]
    reports = run_suite(heis_traj, chain_for(heis_traj), P, kappa=kappa,
                        checks=["hypothesis_report"])
    thm = {t["theorem"]: t for t in reports[0].details["theorems"]}
    got = thm["pinching_integral_ricci"]["value"]["ricci_deficit"]
    expected = integral_ricci_deficit(curvature(heis_traj.model, g0, plane_samples=0),
                                      volume(heis_traj.model, g0), 3.0, kappa)
    assert expected > 0.0                     # Ric = diag(-1/2, -1/2, 1/2) at t = 0
    assert got == expected


# -- suite driver ------------------------------------------------------------------------

def test_run_suite_reports_sorted_and_serializable(s3_traj):
    reports = run_suite(s3_traj, chain_for(s3_traj), P, seed=3)
    names = [r.name for r in reports]
    assert names == sorted(names)
    payload = json.dumps([r.to_jsonable() for r in reports], sort_keys=True)
    assert json.loads(payload)[0]["name"] == names[0]
    assert not suite_failed(reports)


def test_run_suite_deterministic(heis_traj):
    a = run_suite(heis_traj, chain_for(heis_traj), P, seed=5)
    b = run_suite(heis_traj, chain_for(heis_traj), P, seed=5)
    ja = json.dumps([r.to_jsonable() for r in a], sort_keys=True)
    jb = json.dumps([r.to_jsonable() for r in b], sort_keys=True)
    assert ja == jb


def test_run_suite_unknown_check_rejected(s3_traj):
    with pytest.raises(ValueError, match="unknown checks"):
        run_suite(s3_traj, chain_for(s3_traj), P, checks=["nope"])


def test_run_suite_quotient_diameter_unavailable(heis_traj):
    reports = run_suite(heis_traj, chain_for(heis_traj), P,
                        checks=["diameter_bound"])
    assert reports[0].status == UNAVAILABLE


def test_run_suite_stamps_each_report_with_its_own_echo(s3_traj):
    # a check called directly carries an empty echo; the suite stamps every report
    assert check_n2_bound(s3_traj, chain_for(s3_traj)).primitives_echo == {}
    reports = run_suite(s3_traj, chain_for(s3_traj), P)
    assert len(reports) == len(checks_module.SUITE_CHECKS)
    assert all(r.primitives_echo == P.describe() for r in reports)
    assert len({id(r.primitives_echo) for r in reports}) == len(reports)


def test_run_suite_sphere_circle_note_echoed(prod_traj):
    reports = run_suite(prod_traj, chain_for(prod_traj), P,
                        checks=["hypothesis_report"])
    assert "not infranil" in reports[0].details["model_note"]


def test_c0_bound_reports_intermediate_time(s3_traj):
    rep = check_c0_bound(s3_traj, cs0=1.0)
    info = rep.details["intermediate_time"]
    assert info is not None
    assert info["t_ref"] / 3.0 - 1e-12 <= info["t_star"] <= info["t_ref"] / 2.0 + 1e-12
    assert "degenerate" in info["note"]


def _intermediate_time(traj):
    info = check_c0_bound(traj, cs0=1.0).details["intermediate_time"]
    slack = 1e-12 * info["t_ref"]
    assert info["t_ref"] / 3.0 - slack <= info["t_star"] <= info["t_ref"] / 2.0 + slack
    return info["t_star"] / info["t_ref"]


def test_intermediate_time_in_window_at_tiny_scale(tiny_sphere_traj):
    # the whole flow lasts 1e-161, far below any absolute slack
    assert _intermediate_time(tiny_sphere_traj) > 0.0


@pytest.mark.parametrize("name, lam", [
    ("s3_traj", 1e-80), ("s3_traj", 1.0), ("s3_traj", 1e80),
    # lam = 1e80 would overflow the S^3 x S^1 volume, which scales like lam^4
    ("prod_traj", 1e-80), ("prod_traj", 1.0),
])
def test_intermediate_time_scale_invariant(request, name, lam):
    base = request.getfixturevalue(name)
    ratio = _intermediate_time(parabolic_rescale(base, lam))
    assert math.isclose(ratio, _intermediate_time(base), rel_tol=1e-12)
