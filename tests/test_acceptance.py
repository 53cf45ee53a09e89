"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from riccilab import (
    ConstantPrimitives,
    FlowConfig,
    GallotConstant,
    check_c0_bound,
    check_diameter_bound,
    check_lp_evolution,
    check_n2_bound,
    check_scalar_identity,
    check_volume_identity,
    constant_chain,
    curvature,
    diameter,
    holder_suite,
    integrate,
    moser_schedule,
    parabolic_rescale,
    reference_metric,
    rm_lp_norm,
    scale_metric,
    solve_c_n_gamma,
    sphere_circle_model,
    volume,
    witness_family,
    witness_norms,
)
from riccilab.constants import _doubling_lhs

P = ConstantPrimitives()


def report(num, label, ok):
    print(f"\n[acceptance] criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_integrator_oracle(s3_model, heis_model):
    t0 = time.perf_counter()
    traj = integrate(s3_model, reference_metric(s3_model),
                     FlowConfig(t_end=0.2, record_every=0.2 / 512))
    elapsed = time.perf_counter() - t0
    worst = max(abs(traj.scales[i][0] - (1.0 - 4.0 * traj.times[i]))
                / (1.0 - 4.0 * traj.times[i]) for i in range(len(traj)))
    report(1, "shrinking-sphere closed form", worst <= 1e-8 and elapsed < 1.0)
    # the sphere's 1 - 4t is linear; the Isenberg-Jackson Heisenberg solution
    # g(t) = diag(u^(1/3), u^(1/3), u^(-1/3)), u = 1 + 3t, is not
    t0 = time.perf_counter()
    traj = integrate(heis_model, reference_metric(heis_model),
                     FlowConfig(t_end=0.5, record_every=0.5 / 512))
    elapsed = time.perf_counter() - t0
    u = 1.0 + 3.0 * traj.times
    exact = np.zeros_like(traj.mats)
    exact[:, 0, 0] = exact[:, 1, 1] = u ** (1 / 3)
    exact[:, 2, 2] = u ** (-1 / 3)
    worst = float((np.abs(traj.mats - exact).max(axis=(1, 2)) / u ** (1 / 3)).max())
    report(1, "Isenberg-Jackson Heisenberg closed form", worst <= 1e-8 and elapsed < 1.0)


def test_criterion_02_volume_identity(s3_traj, torus_traj, heis_traj, prod_traj):
    worst = 0.0
    for traj in (s3_traj, torus_traj, heis_traj, prod_traj):
        rep = check_volume_identity(traj, tol=1e-7)
        assert rep.status == "pass", rep.details
        worst = max(worst, rep.details["max_residual"])
    report(2, f"volume identity, worst residual {worst:.2e}", worst <= 1e-7)


def test_criterion_03_scalar_identity(s3_traj, torus_traj, heis_traj, prod_traj):
    worst = 0.0
    for traj in (s3_traj, torus_traj, heis_traj, prod_traj):
        rep = check_scalar_identity(traj, tol=1e-7)
        assert rep.status == "pass", rep.details
        worst = max(worst, rep.details["max_residual"])
    report(3, f"scalar identity, worst residual {worst:.2e}", worst <= 1e-7)


def test_criterion_04_scale_invariance(s3_model, prod_model):
    ok = True
    for model in (s3_model, prod_model):
        n = model.dim
        g = reference_metric(model)
        def scale_free(gm):
            cv = curvature(model, gm, plane_samples=0)
            vol = volume(model, gm)
            dm = diameter(model, gm)
            norm = rm_lp_norm(cv, vol, n / 2.0)
            return norm, norm * (dm / vol ** (1.0 / n)) ** 2
        base = scale_free(g)
        for lam in (0.1, 1.0, 10.0):
            got = scale_free(scale_metric(g, lam * lam))
            for a, b in zip(base, got):
                ok = ok and abs(a - b) <= 1e-10 * abs(a)
    report(4, "scale invariance of the critical norm products", ok)


def test_criterion_05_parabolic_rescaling(heis_model, s3_model):
    ok = True
    for model, t_end in ((heis_model, 0.2), (s3_model, 0.1)):
        cfg = FlowConfig(t_end=t_end, record_every=t_end / 128)
        base = integrate(model, reference_metric(model), cfg)
        lam = 2.0
        resc = parabolic_rescale(base, lam)
        cfg2 = FlowConfig(t_end=lam ** 2 * t_end,
                          record_every=lam ** 2 * t_end / 128)
        direct = integrate(model, scale_metric(reference_metric(model), lam ** 2),
                           cfg2)
        rel = np.abs(resc.mats - direct.mats).max() / np.abs(direct.mats).max()
        ok = ok and rel <= 1e-7
    report(5, "parabolic rescaling covariance", ok)


def test_criterion_06_moser_sums_exact():
    ok = True
    for n in range(3, 9):
        ms = moser_schedule(n, 1.0, 48)
        tail = ms.tail_inv_q(ms.k_max)
        ok = ok and (ms.sum_inv_q + tail == 1 - Fraction(4, n * n))
        ok = ok and (ms.sum_inv_q_next + tail / ms.mu == Fraction(n - 2, n))
    ms4 = moser_schedule(4, 1.0, 48)
    ok = ok and ms4.limit_sum_inv_q_next == Fraction(1, 2)
    ok = ok and ms4.limit_sum_inv_q == Fraction(3, 4)
    report(6, "iteration ladder sums in exact rationals, n = 3..8", ok)


def test_criterion_07_root_of_doubling_equation():
    x = solve_c_n_gamma(P, 3, 1.0)
    residual = abs(_doubling_lhs(1.0, 3, 1.0, x) - 8.0) / 8.0
    xs = np.linspace(0.0, 2.0 * x, 1001)
    monotone = bool(np.all(np.diff([_doubling_lhs(1.0, 3, 1.0, t) for t in xs]) > 0))
    grid = np.arange(0.03, 0.05, 1e-6)
    vals = np.array([_doubling_lhs(1.0, 3, 1.0, t) for t in grid])
    crossing = grid[np.argmax(vals >= 8.0)]
    ok = (residual <= 1e-12 and monotone and 0.03 < x < 0.05
          and abs(crossing - x) <= 1e-6)
    report(7, f"doubling-equation root {x:.6f}", ok)


@pytest.mark.parametrize("n", [3, 4])
def test_criterion_08_holder_suite(n):
    rep = holder_suite(n, p=2.0, seed=2024, count=1000)
    ok = rep.status == "pass" and rep.details["worst_margin"] > -1e-12
    report(8, f"discrete inequality suite, n = {n}, 1000 seeded measures", ok)


def test_criterion_09_diameter_bound(s3_model):
    g = reference_metric(s3_model)
    wns = [witness_norms(s3_model, g, w)
           for w in witness_family(s3_model, "eigenfunction")]
    rep = check_diameter_bound(1.0, 1.0, 3, diameter(s3_model, g),
                               volume(s3_model, g), wns)
    lhs, rhs = rep.details["lhs"], rep.details["rhs"]
    ok = (rep.status == "pass"
          and math.isclose(lhs, math.pi / (2 * math.pi ** 2) ** (1 / 3),
                           rel_tol=1e-12)
          and abs(lhs - 1.1633) < 2e-3 and abs(rhs - 21.66) < 1e-2)
    report(9, f"diameter bound {lhs:.4f} <= {rhs:.2f}", ok)


def test_criterion_10_product_scaling_slope():
    eps = np.array([2.0 ** -k for k in range(1, 9)])
    norms = []
    for e in eps:
        m = sphere_circle_model(3, float(e))
        g = reference_metric(m)
        norms.append(rm_lp_norm(curvature(m, g, plane_samples=0),
                                volume(m, g), 2.0))
    slope = float(np.polyfit(np.log(eps), np.log(norms), 1)[0])
    ok = abs(slope - 0.5) <= 1e-6
    report(10, f"collapse-family scaling slope {slope:.9f}", ok)


def test_criterion_11_factor_two_bound(almost_flat_heis_traj):
    traj = almost_flat_heis_traj
    chain = constant_chain(P, 3, 1.0, traj.meta["vol0"], 1.0, traj.meta["rm_n2_0"])
    hyp_margin = chain.eps_n_gamma - traj.meta["rm_n2_0"] * 1.0
    rep = check_n2_bound(traj, chain)
    ok = hyp_margin > 0.0 and rep.status == "pass"
    report(11, f"factor-2 bound under the smallness hypothesis "
               f"(margin {hyp_margin:.2e})", ok)


def _stable(a, b, tol=0.05, floor=1e-8):
    if a is None or b is None:
        return a == b
    if max(abs(a), abs(b)) < floor:
        return True
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _second_half_c0_fit(traj, cs0=1.0):
    t = traj.times
    half = (t >= t[-1] / 2.0) & (t > 0.0)
    rm0_n2 = float(traj.derived["rm_n2_norm"][0])
    if rm0_n2 == 0.0:
        return 0.0
    return float(np.max(traj.derived["rm_norm"][half] * t[half]
                        / (cs0 * cs0 * rm0_n2)))


def test_criterion_12_ratio_stability(s3_model, heis_model, prod_model,
                                      torus_model):
    runs = (
        (s3_model, 0.2),
        (heis_model, 0.5),
        (prod_model, 0.1),
        (torus_model, 0.5),
    )
    ok = True
    for model, t_end in runs:
        base_cfg = FlowConfig(t_end=t_end, record_every=t_end / 256)
        fine_cfg = FlowConfig(t_end=t_end, record_every=t_end / 256,
                              rel_tol=0.5e-9, abs_tol=0.5e-12)
        a = integrate(model, reference_metric(model), base_cfg)
        b = integrate(model, reference_metric(model), fine_cfg)
        pairs = [
            (check_c0_bound(a, 1.0).fitted_constant,
             check_c0_bound(b, 1.0).fitted_constant),
            (check_lp_evolution(a, 2.0).fitted_constant,
             check_lp_evolution(b, 2.0).fitted_constant),
            (check_lp_evolution(a, model.dim / 2.0).fitted_constant,
             check_lp_evolution(b, model.dim / 2.0).fitted_constant),
            # refit on the second half of the refined rerun only
            (check_c0_bound(a, 1.0).fitted_constant, _second_half_c0_fit(b)),
        ]
        ok = ok and all(_stable(x, y) for x, y in pairs)
    report(12, "fitted-constant stability under halved tolerances", ok)
