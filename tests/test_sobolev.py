import math

import numpy as np
import pytest

from riccilab import (
    GallotConstant,
    curvature,
    gallot_upper,
    integral_ricci_deficit,
    reference_metric,
    rm_lp_norm,
    scale_metric,
    sobolev_estimate,
    sobolev_lower,
    sphere_circle_model,
    volume,
    witness_family,
    witness_norms,
)
from riccilab import sobolev as sobolev_module
from riccilab.geometry import GeometryError
from riccilab.sobolev import Witness, _factor_integrals


UNIT = GallotConstant(growth="constant")


def test_rm_lp_norm_flat_torus(torus_model):
    cv = curvature(torus_model, reference_metric(torus_model), plane_samples=0)
    for p in (1.0, 1.5, 2.0, 7.0):
        assert rm_lp_norm(cv, 1.0, p) == 0.0


def test_rm_lp_norm_unit_sphere(s3_model):
    g = reference_metric(s3_model)
    cv = curvature(s3_model, g, plane_samples=0)
    vol = volume(s3_model, g)
    expected = math.sqrt(12.0) * (2.0 * math.pi ** 2) ** (2.0 / 3.0)
    assert math.isclose(rm_lp_norm(cv, vol, 1.5), expected, rel_tol=1e-14)
    assert math.isclose(expected, 25.301355205486924, rel_tol=1e-12)


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.125])
def test_rm_lp_norm_product_epsilon_scaling(eps):
    # n = 4 and p = 2: the norm scales like eps^(2/n) = sqrt(eps)
    m = sphere_circle_model(3, eps)
    g = reference_metric(m)
    cv = curvature(m, g, plane_samples=0)
    vol = volume(m, g)
    expected = math.sqrt(12.0) * math.sqrt(4.0 * math.pi ** 3 * eps)
    assert math.isclose(rm_lp_norm(cv, vol, 2.0), expected, rel_tol=1e-13)


def test_rm_lp_scale_invariance_at_critical_exponent(prod_model):
    g = reference_metric(prod_model)
    n = prod_model.dim
    base = rm_lp_norm(curvature(prod_model, g, plane_samples=0),
                      volume(prod_model, g), n / 2.0)
    for lam in (0.1, 1.0, 10.0):
        gl = scale_metric(g, lam * lam)
        val = rm_lp_norm(curvature(prod_model, gl, plane_samples=0),
                         volume(prod_model, gl), n / 2.0)
        assert math.isclose(val, base, rel_tol=1e-12)


def test_rm_lp_norm_domain_error(s3_model):
    cv = curvature(s3_model, reference_metric(s3_model), plane_samples=0)
    with pytest.raises(ValueError):
        rm_lp_norm(cv, 1.0, 0.5)


# -- Gallot-type upper bound -----------------------------------------------

def test_gallot_monotone_in_kappa():
    lo = gallot_upper(3, 0.0, 2.0, 5.0)
    hi = gallot_upper(3, 1.0, 2.0, 5.0)
    assert lo <= hi


def test_gallot_unit_sphere_value(s3_model):
    g = reference_metric(s3_model)
    got = gallot_upper(3, 0.0, math.pi, volume(s3_model, g), UNIT)
    assert math.isclose(got, math.pi / (2.0 * math.pi ** 2) ** (1.0 / 3.0),
                        rel_tol=1e-14)


def test_gallot_scale_invariant(s3_model):
    g = reference_metric(s3_model)
    vol = volume(s3_model, g)
    base = gallot_upper(3, 0.5, math.pi, vol)
    for lam in (0.1, 10.0):
        assert math.isclose(
            gallot_upper(3, 0.5, lam * math.pi, lam ** 3 * vol), base,
            rel_tol=1e-14)


def test_gallot_rejects_bad_strategy():
    with pytest.raises(ValueError, match="nonpositive"):
        gallot_upper(3, 0.0, 1.0, 1.0, lambda n, k: -1.0)


def test_rm_n2_times_cs_squared_scale_invariant(prod_model):
    g = reference_metric(prod_model)
    n = prod_model.dim
    def product(gm):
        cv = curvature(prod_model, gm, plane_samples=0)
        vol = volume(prod_model, gm)
        from riccilab import diameter
        cs = gallot_upper(n, 0.0, diameter(prod_model, gm), vol)
        return rm_lp_norm(cv, vol, n / 2.0) * cs * cs
    base = product(g)
    for lam in (0.1, 10.0):
        assert math.isclose(product(scale_metric(g, lam * lam)), base,
                            rel_tol=1e-12)


# -- lower bounds from witnesses ---------------------------------------------

CONSTANT = Witness(name="constant", factor_index=0, profile=lambda t: np.ones_like(t),
                   dprofile=lambda t: np.zeros_like(t))


def test_constant_witness_is_null(s3_model):
    # u == 1: the numerator vanishes identically and the witness is skipped
    wn = witness_norms(s3_model, reference_metric(s3_model), CONSTANT)
    vol = volume(s3_model, reference_metric(s3_model))
    lq = math.sqrt(wn.lq_sq)
    l2 = math.sqrt(wn.l2_sq)
    assert abs(lq - vol ** (-1.0 / 3.0) * l2) < 1e-9
    assert wn.grad_sq < 1e-20
    with pytest.raises(ValueError, match="degenerate"):
        sobolev_lower(s3_model, reference_metric(s3_model), [CONSTANT])


def test_sphere_eigenfunction_lower_bound_exact(s3_model):
    # 1D closed form: ||u||_2^2 = pi^2/2, ||u||_6^6 = 5 pi^2/32,
    # ||grad u||^2 = 3 pi^2/2 for u = cos(theta) on the unit 3-sphere
    g = reference_metric(s3_model)
    vol = 2.0 * math.pi ** 2
    exact = ((5.0 * math.pi ** 2 / 32.0) ** (1.0 / 6.0)
             - vol ** (-1.0 / 3.0) * math.sqrt(math.pi ** 2 / 2.0)) \
        / math.sqrt(3.0 * math.pi ** 2 / 2.0)
    lb = sobolev_lower(s3_model, g, "eigenfunction")
    assert lb.value > 0.0
    assert math.isclose(lb.value, exact, rel_tol=2e-6)
    assert lb.witness.startswith("eigenfunction")


def test_lower_bound_two_resolution_agreement(s3_model):
    # each refined cap quotient agrees with one quadrature at 4096 intervals
    g = reference_metric(s3_model)
    coarse = sobolev_lower(s3_model, g, "cap")
    assert all(wn.converged for wn in coarse.norms)
    vol = volume(s3_model, g)
    for wn, w in zip(coarse.norms, witness_family(s3_model, "cap"), strict=True):
        i2, iq, igrad = _factor_integrals(s3_model, g, w, 4096)
        fine = (iq ** (1.0 / 6.0) - vol ** (-1.0 / 3.0) * math.sqrt(i2)) / math.sqrt(igrad)
        assert math.isclose(wn.quotient, fine, rel_tol=0, abs_tol=2e-6)


def test_witness_norms_stop_unconverged_at_the_grid_cap(s3_model, monkeypatch):
    monkeypatch.setattr(sobolev_module, "_REFINE_TOL", 0.0)
    monkeypatch.setattr(sobolev_module, "_MAX_GRID", 2048)
    wn = witness_norms(s3_model, reference_metric(s3_model), witness_family(s3_model, "cap")[0])
    assert wn.converged is False and wn.grid_used == 2048


def test_lower_bound_and_degenerate_witness_at_every_scale(s3_model):
    # the bound is scale-invariant, and so is the test that skips a witness
    # whose gradient vanishes: 0.0657256 on round S^3 at every scale
    family = [*witness_family(s3_model, "eigenfunction"), CONSTANT]
    base = sobolev_lower(s3_model, reference_metric(s3_model), family)
    assert math.isclose(base.value, 0.0657256, rel_tol=1e-6)
    for s in (1e-120, 1e-80, 1.0, 1e80, 1e120):
        g = s * reference_metric(s3_model)
        lb = sobolev_lower(s3_model, g, family)
        assert lb.skipped == ("constant",)
        assert math.isclose(lb.value, base.value, rel_tol=1e-9)
        assert math.isclose(sobolev_estimate(s3_model, g).lower, base.value, rel_tol=1e-9)


@pytest.mark.parametrize("family", ["eigenfunction", "bump", "cap"])
def test_lower_bound_scale_invariant(prod_model, family):
    g = reference_metric(prod_model)
    base = sobolev_lower(prod_model, g, family).value
    for lam in (0.1, 10.0):
        val = sobolev_lower(prod_model, scale_metric(g, lam * lam), family).value
        assert math.isclose(val, base, rel_tol=1e-9)


def test_lower_bound_positive_and_below_upper(prod_model):
    est = sobolev_estimate(prod_model, reference_metric(prod_model))
    assert est.lower is not None and est.lower > 0.0
    assert est.upper is not None
    assert not est.lower_exceeds_upper
    assert est.lower <= est.upper


def test_empty_family_is_error(s3_model):
    with pytest.raises(ValueError, match="empty"):
        sobolev_lower(s3_model, reference_metric(s3_model), [])


def test_aggressive_strategy_flags_lower_exceeds_upper(prod_model):
    # a deliberately tiny configured constant can push the upper bound below
    # the witness lower bound; that is flagged in the estimate, not raised
    est = sobolev_estimate(prod_model, reference_metric(prod_model),
                           c_strategy=GallotConstant(c0=1e-4, growth="constant"))
    assert est.upper is not None and est.lower is not None
    assert est.lower > est.upper
    assert est.lower_exceeds_upper


def test_unknown_gallot_growth_and_witness_family_raise(s3_model):
    with pytest.raises(ValueError, match="unknown gallot growth 'linear'"):
        GallotConstant(growth="linear")(3, 0.0)
    with pytest.raises(ValueError, match="unknown test-function family 'wavelet'"):
        witness_family(s3_model, "wavelet")


def test_quotient_models_have_no_witnesses(heis_model):
    with pytest.raises(GeometryError):
        witness_family(heis_model, "eigenfunction")
    est = sobolev_estimate(heis_model, reference_metric(heis_model),
                           diam_bound=2.0)
    assert est.lower is None and est.upper is not None


# -- integral Ricci deficit --------------------------------------------------

def test_deficit_zero_when_ricci_large(s3_model):
    cv = curvature(s3_model, reference_metric(s3_model), plane_samples=0)
    assert integral_ricci_deficit(cv, 2.0 * math.pi ** 2, 2.0, kappa=1.0) == 0.0


def test_deficit_heisenberg(heis_model):
    cv = curvature(heis_model, reference_metric(heis_model), plane_samples=0)
    assert math.isclose(integral_ricci_deficit(cv, 1.0, 2.0, kappa=0.0), 0.5,
                        rel_tol=1e-14)


def test_deficit_flat_torus(torus_model):
    cv = curvature(torus_model, reference_metric(torus_model), plane_samples=0)
    assert integral_ricci_deficit(cv, 1.0, 2.0, kappa=0.0) == 0.0


def test_deficit_exponent_domain(s3_model):
    cv = curvature(s3_model, reference_metric(s3_model), plane_samples=0)
    with pytest.raises(ValueError, match="p > n/2"):
        integral_ricci_deficit(cv, 1.0, 1.5, kappa=0.0)
