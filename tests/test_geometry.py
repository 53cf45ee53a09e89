import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riccilab import (
    GeometryError,
    build_model,
    curvature,
    curvature_batch,
    diameter,
    heisenberg_model,
    metric_from_scales,
    orthonormalize,
    reference_metric,
    scale_metric,
    sphere_circle_model,
    volume,
)
from riccilab.geometry import (
    _curvature_operator,
    _sampled_sec_extremes,
    factor_scales,
    ricci_fixed_basis,
    rm_norm,
)


def random_spd(rng, n, shift=3.0):
    a = rng.standard_normal((n, n))
    return a @ a.T + shift * np.eye(n)


# -- build_model -----------------------------------------------------------

def test_heisenberg_builds(heis_model):
    assert heis_model.dim == 3
    assert heis_model.structure_constants[2, 0, 1] == 1.0
    assert heis_model.structure_constants[2, 1, 0] == -1.0


def test_abelian_builds(torus_model):
    assert np.all(torus_model.structure_constants == 0.0)


def test_antisymmetry_violation_names_triple():
    with pytest.raises(GeometryError, match=r"antisymmetry.*\(2,1,3\)"):
        build_model({"kind": "lie_group_quotient", "dim": 3, "covolume": 1.0,
                     "brackets": [[1, 2, 3, 1.0], [2, 1, 3, 1.0]]})


def test_jacobi_violation_names_triple():
    # [e1,e2]=e1, [e2,e3]=e2 fails the cyclic identity
    with pytest.raises(GeometryError, match="Jacobi"):
        build_model({"kind": "lie_group_quotient", "dim": 3, "covolume": 1.0,
                     "brackets": [[1, 2, 1, 1.0], [2, 3, 2, 1.0]]})


def test_non_unimodular_brackets_rejected():
    # [e1,e2]=e2, [e1,e3]=e3 is hyperbolic 3-space: tr ad(e1) = 2, no lattice
    with pytest.raises(GeometryError, match=r"not unimodular: tr ad\(e1\) = 2"):
        build_model({"kind": "lie_group_quotient", "dim": 3, "covolume": 1.0,
                     "brackets": [[1, 2, 2, 1.0], [1, 3, 3, 1.0]]})


def test_non_finite_metric_entry_is_named(heis_model):
    mat = np.eye(3)
    mat[0, 2] = mat[2, 0] = np.nan
    for fn in (volume, curvature, ricci_fixed_basis):
        with pytest.raises(GeometryError, match=r"entry \(0, 2\) is not finite: nan"):
            fn(heis_model, mat)
    stack = np.stack([np.eye(3)] * 4)
    stack[2, 1, 1] = np.inf
    with pytest.raises(GeometryError, match=r"entry \(2, 1, 1\) is not finite: inf"):
        curvature_batch(heis_model, stack)


def _with_entries(mat, entries):
    mat = np.array(mat, dtype=float)
    for (i, j), v in entries.items():
        mat[i, j] = mat[j, i] = v
    return mat


PROD_G = np.diag([1.0, 1.0, 1.0, 0.25])          # the S^3 x S^1 of prod_model
BAD_METRICS = {
    "quotient": [
        ("non-square", np.ones((3, 4)), r"got shape \(3, 4\)"),
        ("non-finite", _with_entries(np.eye(3), {(0, 2): np.nan}),
         r"entry \(0, 2\) is not finite"),
        ("non-spd", np.diag([1.0, -2.0, 1.0]), r"not positive definite: minimum eigenvalue"),
        ("stack", np.stack([np.eye(3), 4.0 * np.eye(3)]),
         r"must be an \(3, 3\) matrix, got shape \(2, 3, 3\)"),
    ],
    "product": [
        ("non-square", np.ones((4, 3)), r"got shape \(4, 3\)"),
        ("non-finite", _with_entries(PROD_G, {(3, 3): np.inf}), r"entry \(3, 3\) is not finite"),
        ("non-spd", _with_entries(PROD_G, {(3, 3): -0.25}),
         r"not positive definite: entry \(3, 3\) is -0.25"),
        ("off-block", _with_entries(PROD_G, {(0, 3): 0.1}),
         r"entry \(0, 3\) is 0.1, expected 0.0"),
        ("unequal-diagonal", _with_entries(PROD_G, {(1, 1): 5.0}),
         r"entry \(1, 1\) is 5.0, expected 1.0 in a block-scalar"),
        ("stack", np.stack([PROD_G, 4.0 * PROD_G]),
         r"must be an \(4, 4\) matrix, got shape \(2, 4, 4\)"),
    ],
}
METRIC_FUNCTIONS = {"curvature": curvature, "curvature_batch": curvature_batch,
                    "rm_norm": rm_norm, "ricci_fixed_basis": ricci_fixed_basis,
                    "volume": volume, "diameter": diameter,
                    "orthonormalize": orthonormalize, "factor_scales": factor_scales}
# diameter reads no metric on a quotient: it is declared unavailable there
ONLY_FOR = {"orthonormalize": "quotient", "factor_scales": "product", "diameter": "product"}
TAKES_STACK = ("curvature_batch", "factor_scales")


@pytest.mark.parametrize("name,kind,mat,match", [
    pytest.param(name, kind, mat, match, id=f"{name}-{kind}-{case}")
    for name in METRIC_FUNCTIONS for kind, cases in BAD_METRICS.items()
    for case, mat, match in cases
    if ONLY_FOR.get(name, kind) == kind and not (case == "stack" and name in TAKES_STACK)])
def test_metric_functions_reject_non_metrics(heis_model, prod_model, name, kind, mat, match):
    model = heis_model if kind == "quotient" else prod_model
    with pytest.raises(GeometryError, match=match):
        METRIC_FUNCTIONS[name](model, mat)


def test_product_layout_tolerance_and_stack_index(prod_model):
    # entries within 1e-12 relative of the block-scalar layout pass
    near = _with_entries(PROD_G, {(0, 1): 1e-13, (2, 2): 1.0 + 1e-13})
    assert factor_scales(prod_model, near).tolist() == [1.0, 0.25]
    stack = np.stack([PROD_G] * 3)
    stack[2, 1, 0] = 0.3
    with pytest.raises(GeometryError, match=r"entry \(2, 1, 0\) is 0.3"):
        curvature_batch(prod_model, stack)


def test_no_metric_wrapper_type_is_exported():
    # a metric is its (n, n) array: no *State value type wraps it
    import riccilab
    for module in (riccilab, riccilab.geometry):
        assert not [name for name in dir(module) if name.endswith("State")]


def test_dimension_error():
    with pytest.raises(GeometryError, match="dim"):
        build_model({"kind": "lie_group_quotient", "dim": 2, "covolume": 1.0,
                     "brackets": []})
    with pytest.raises(GeometryError, match="dimension"):
        build_model({"kind": "product_of_space_forms",
                     "factors": [["sphere", 2, 1.0]]})


def test_bad_factor_types():
    with pytest.raises(GeometryError):
        build_model({"kind": "product_of_space_forms",
                     "factors": [["klein_bottle", 2, 1.0]]})
    with pytest.raises(GeometryError):
        build_model({"kind": "product_of_space_forms",
                     "factors": [["sphere", 3, -1.0]]})


@pytest.mark.parametrize("spec,field", [
    ({"kind": "lie_group_quotient", "dim": 3, "brackets": [[1, 2, 3, math.nan]]},
     "bracket coefficient"),
    ({"kind": "lie_group_quotient", "dim": 3, "brackets": [[1, 2, 3, math.inf]]},
     "bracket coefficient"),
    ({"kind": "lie_group_quotient", "dim": 3, "covolume": math.inf, "brackets": []},
     "covolume"),
    ({"kind": "lie_group_quotient", "dim": 3, "covolume": math.nan, "brackets": []},
     "covolume"),
    ({"kind": "product_of_space_forms", "factors": [["sphere", 3, math.inf]]},
     "factor radius"),
    ({"kind": "product_of_space_forms",
      "factors": [["sphere", 3, 1.0], ["circle", 1, math.nan]]}, "factor radius"),
])
def test_non_finite_model_numbers_rejected(spec, field):
    with pytest.raises(GeometryError, match=f"{field} must be .*finite"):
        build_model(spec)


# -- orthonormalize --------------------------------------------------------

def test_orthonormalize_identity(heis_model):
    L, ct = orthonormalize(heis_model, reference_metric(heis_model))
    assert np.allclose(L, np.eye(3))
    assert np.allclose(ct, heis_model.structure_constants)


def test_orthonormalize_scaling_law(heis_model):
    # g = 4 I: frame change is I/2 and the bracket coefficient halves
    L, ct = orthonormalize(heis_model, 4.0 * np.eye(3))
    assert np.allclose(L, 0.5 * np.eye(3))
    assert math.isclose(ct[2, 0, 1], 0.5, rel_tol=0, abs_tol=1e-15)


@pytest.mark.parametrize("seed", range(20))
def test_orthonormalize_random_spd(heis_model, seed):
    rng = np.random.default_rng(seed)
    g = random_spd(rng, 3)
    L, _ = orthonormalize(heis_model, g)
    assert np.abs(L.T @ g @ L - np.eye(3)).max() < 1e-12


def test_orthonormalize_rejects_non_spd(heis_model):
    with pytest.raises(GeometryError, match="minimum eigenvalue"):
        orthonormalize(heis_model, np.diag([1.0, -2.0, 1.0]))


# -- curvature oracles -----------------------------------------------------

def test_unit_sphere_curvature(s3_model):
    g = reference_metric(s3_model)
    cv = curvature(s3_model, g, plane_samples=1000)
    assert np.allclose(cv.ric, 2.0 * np.eye(3), atol=1e-14)
    assert math.isclose(cv.scalar, 6.0, abs_tol=1e-13)
    assert math.isclose(cv.rm_norm, math.sqrt(12.0), rel_tol=1e-13)
    # constant-curvature closed form R_ijkl = g_ik g_jl - g_il g_jk
    eye = np.eye(3)
    expected = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    assert np.abs(cv.rm - expected).max() < 1e-12
    assert abs(cv.sec_min - 1.0) < 1e-14 and abs(cv.sec_max - 1.0) < 1e-14


def test_sphere_radius_closed_form():
    m = build_model({"kind": "product_of_space_forms",
                     "factors": [["sphere", 3, 2.0]]})
    cv = curvature(m, reference_metric(m), plane_samples=0)
    assert math.isclose(cv.scalar, 6.0 / 4.0, rel_tol=1e-14)
    assert math.isclose(cv.rm_norm, math.sqrt(12.0) / 4.0, rel_tol=1e-14)


def test_su2_bi_invariant_matches_round_sphere(s3_model):
    # cross-oracle: the Milnor-frame pipeline on SU(2) with bracket constant 2
    # must reproduce the constant-curvature closed form of the unit 3-sphere
    su2 = build_model({"kind": "lie_group_quotient", "dim": 3, "covolume": 1.0,
                       "brackets": [[1, 2, 3, 2.0], [2, 3, 1, 2.0],
                                    [3, 1, 2, 2.0]]})
    cv = curvature(su2, reference_metric(su2), plane_samples=0)
    ref = curvature(s3_model, reference_metric(s3_model), plane_samples=0)
    assert np.abs(cv.rm - ref.rm).max() < 1e-12
    assert np.allclose(cv.ric, ref.ric, atol=1e-13)


def test_minimum_dimension_product_with_circle():
    m = build_model({"kind": "product_of_space_forms",
                     "factors": [["sphere", 2, 1.0], ["circle", 1, 0.5]]})
    assert m.dim == 3
    cv = curvature(m, reference_metric(m), plane_samples=0)
    assert math.isclose(cv.scalar, 2.0, rel_tol=1e-14)   # only the 2-sphere curves


def test_flat_torus_curvature(torus_model):
    cv = curvature(torus_model, reference_metric(torus_model), plane_samples=100)
    assert cv.rm_norm == 0.0 and cv.scalar == 0.0
    assert cv.sec_min == 0.0 and cv.sec_max == 0.0


def test_heisenberg_fixture(heis_model):
    # Milnor-frame closed form: Ricci eigenvalues (-1/2, -1/2, 1/2), R = -1/2,
    # |Rm| = sqrt(11)/2, sectional extremes (-3/4, 1/4)
    cv = curvature(heis_model, reference_metric(heis_model), plane_samples=5000)
    assert np.allclose(np.linalg.eigvalsh(cv.ric), [-0.5, -0.5, 0.5], atol=1e-13)
    assert math.isclose(cv.scalar, -0.5, abs_tol=1e-14)
    assert math.isclose(cv.rm_norm, math.sqrt(11.0) / 2.0, rel_tol=1e-14)
    assert math.isclose(cv.sec_min, -0.75, abs_tol=1e-14)
    assert math.isclose(cv.sec_max, 0.25, abs_tol=1e-14)


FILIFORM4 = {"kind": "lie_group_quotient", "dim": 4, "covolume": 1.0,
             "brackets": [[1, 2, 3, 1.0], [1, 3, 4, 1.0]]}


def brute_force_curvature(model, g):
    """Independent oracle: Koszul directly in the non-orthonormal fixed basis.

    Index raising uses g^{-1}; no structure-constant transport happens, so
    this path shares nothing with the production pipeline beyond the inputs.
    """
    c = model.structure_constants
    gm = np.asarray(g)
    ginv = np.linalg.inv(gm)
    n = model.dim
    # 2 <nabla_i e_j, e_k> = c^m_ij g_mk - c^m_jk g_mi + c^m_ki g_mj
    low = 0.5 * (np.einsum("mij,mk->ijk", c, gm)
                 - np.einsum("mjk,mi->ijk", c, gm)
                 + np.einsum("mki,mj->ijk", c, gm))
    gamma = np.einsum("lk,ijk->lij", ginv, low)        # nabla_i e_j = gamma^l_ij e_l
    rup = (np.einsum("mjl,kim->kijl", gamma, gamma)
           - np.einsum("mil,kjm->kijl", gamma, gamma)
           - np.einsum("mij,kml->kijl", c, gamma))     # R(e_i,e_j)e_l = rup^k e_k
    rlow = np.einsum("mijl,mk->ijkl", rup, gm)          # <R(e_i,e_j)e_l, e_k>
    rm_norm_sq = np.einsum("ijkl,abcd,ia,jb,kc,ld->", rlow, rlow,
                           ginv, ginv, ginv, ginv)
    return rlow, float(np.sqrt(rm_norm_sq))


@pytest.mark.parametrize("spec,n", [
    ({"kind": "lie_group_quotient", "dim": 3, "covolume": 1.0,
      "brackets": [[1, 2, 3, 1.0]]}, 3),
    (FILIFORM4, 4),
    ({"kind": "lie_group_quotient", "dim": 3, "covolume": 1.0,
      "brackets": [[1, 2, 3, 2.0], [2, 3, 1, 2.0], [3, 1, 2, 2.0]]}, 3),
])
def test_curvature_against_brute_force_koszul(spec, n):
    model = build_model(spec)
    rng = np.random.default_rng(99)
    for _ in range(25):
        g = random_spd(rng, n)
        rlow, rm_n = brute_force_curvature(model, g)
        cv = curvature(model, g, plane_samples=0)
        L, _ = orthonormalize(model, g)
        to_frame = np.einsum("ijkl,ia,jb,kc,ld->abcd", rlow, L, L, L, L)
        assert np.abs(to_frame - cv.rm).max() < 1e-10 * max(1.0, np.abs(cv.rm).max())
        assert math.isclose(rm_n, cv.rm_norm, rel_tol=1e-10)


@pytest.mark.parametrize("model_spec,n", [
    ({"kind": "lie_group_quotient", "dim": 3, "covolume": 1.0,
      "brackets": [[1, 2, 3, 1.0]]}, 3),
    (FILIFORM4, 4),
])
def test_tensor_symmetries_random_metrics(model_spec, n):
    model = build_model(model_spec)
    rng = np.random.default_rng(12345)
    for _ in range(500):
        cv = curvature(model, random_spd(rng, n),
                       plane_samples=0)
        rm = cv.rm
        scale = max(1.0, np.abs(rm).max())
        assert np.abs(rm + rm.transpose(1, 0, 2, 3)).max() < 1e-10 * scale
        assert np.abs(rm + rm.transpose(0, 1, 3, 2)).max() < 1e-10 * scale
        assert np.abs(rm - rm.transpose(2, 3, 0, 1)).max() < 1e-10 * scale
        bianchi = rm + rm.transpose(1, 2, 0, 3) + rm.transpose(2, 0, 1, 3)
        assert np.abs(bianchi).max() < 1e-10 * scale
        assert abs(np.trace(cv.ric) - cv.scalar) < 1e-12 * max(1.0, abs(cv.scalar))
        assert abs(cv.rm_norm ** 2 - np.sum(rm * rm)) < 1e-12 * max(1.0, cv.rm_norm ** 2)
        assert cv.sec_min <= cv.sec_max


@pytest.mark.parametrize("model_spec,n", [
    ({"kind": "lie_group_quotient", "dim": 3, "covolume": 1.0,
      "brackets": [[1, 2, 3, 1.0]]}, 3),
    (FILIFORM4, 4),
    ({"kind": "product_of_space_forms",
      "factors": [["sphere", 3, 1.0], ["circle", 1, 0.3]]}, 4),
])
def test_sampled_sec_matches_four_index_contraction(model_spec, n):
    # the same seeded planes, with sec(u, v) = R_ijkl u^i v^j u^k v^l summed in full
    model = build_model(model_spec)
    rng = np.random.default_rng(5)
    for seed in range(5):
        g = (random_spd(rng, n) if model.kind == "lie_group_quotient"
             else reference_metric(model))
        rm = curvature(model, g, plane_samples=0).rm
        lo, hi = _sampled_sec_extremes(_curvature_operator(rm), 2000, seed)
        draws = np.random.default_rng(seed)
        u, v = draws.standard_normal((2000, n)), draws.standard_normal((2000, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v -= np.sum(u * v, axis=1, keepdims=True) * u
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        k = np.einsum("ijkl,pi,pj,pk,pl->p", rm, u, v, u, v)
        coords = [rm[i, j, i, j] for i in range(n) for j in range(i + 1, n)]
        scale = max(1.0, np.abs(rm).max())
        assert abs(lo - min(k.min(), *coords)) <= 1e-12 * scale
        assert abs(hi - max(k.max(), *coords)) <= 1e-12 * scale


@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_scaling_covariance(heis_model, lam):
    rng = np.random.default_rng(7)
    g = random_spd(rng, 3)
    cv = curvature(heis_model, g, plane_samples=0)
    gl = scale_metric(g, lam * lam)
    cvl = curvature(heis_model, gl, plane_samples=0)
    assert math.isclose(cvl.rm_norm, cv.rm_norm / lam ** 2, rel_tol=1e-10)
    assert math.isclose(cvl.scalar, cv.scalar / lam ** 2, rel_tol=1e-10)
    assert math.isclose(volume(heis_model, gl),
                        volume(heis_model, g) * lam ** 3, rel_tol=1e-10)


# -- volume and diameter ---------------------------------------------------

def test_volume_values(s3_model, torus_model):
    assert math.isclose(volume(torus_model, reference_metric(torus_model)), 1.0)
    assert math.isclose(volume(s3_model, reference_metric(s3_model)),
                        2.0 * math.pi ** 2, rel_tol=1e-14)
    eps = 0.3
    m = sphere_circle_model(3, eps)
    assert math.isclose(volume(m, reference_metric(m)),
                        2.0 * math.pi ** 2 * 2.0 * math.pi * eps, rel_tol=1e-14)


def test_diameter_values(s3_model, heis_model):
    assert math.isclose(diameter(s3_model, reference_metric(s3_model)), math.pi)
    eps = 0.3
    m = sphere_circle_model(3, eps)
    assert math.isclose(diameter(m, reference_metric(m)),
                        math.sqrt(math.pi ** 2 + (math.pi * eps) ** 2),
                        rel_tol=1e-14)
    assert diameter(heis_model, reference_metric(heis_model)) is None


def test_volume_requires_positive_scales(prod_model):
    from riccilab import metric_from_scales
    with pytest.raises(GeometryError):
        volume(prod_model, metric_from_scales(prod_model, [1.0, -0.1]))


def test_ricci_fixed_basis_matches_rhs_expectations(heis_model, s3_model):
    assert np.allclose(ricci_fixed_basis(heis_model, reference_metric(heis_model)),
                       np.diag([-0.5, -0.5, 0.5]), atol=1e-14)
    assert np.allclose(ricci_fixed_basis(s3_model, reference_metric(s3_model)),
                       2.0 * np.eye(3), atol=1e-14)


def test_rm_norm_fast_path_matches_curvature(heis_model, prod_model):
    rng = np.random.default_rng(3)
    g = random_spd(rng, 3)
    assert math.isclose(rm_norm(heis_model, g),
                        curvature(heis_model, g, plane_samples=0).rm_norm,
                        rel_tol=1e-14)
    gp = reference_metric(prod_model)
    assert math.isclose(rm_norm(prod_model, gp),
                        curvature(prod_model, gp, plane_samples=0).rm_norm,
                        rel_tol=1e-14)


# -- batched kernel --------------------------------------------------------

def milnor_model(l1, l2, l3):
    """Milnor's basis: [e2,e3] = l1 e1, [e3,e1] = l2 e2, [e1,e2] = l3 e3."""
    return build_model({"kind": "lie_group_quotient", "dim": 3, "covolume": 1.0,
                        "brackets": [[2, 3, 1, l1], [3, 1, 2, l2], [1, 2, 3, l3]]})


MILNOR_CLASSES = {"su2": (1.0, 1.0, 1.0), "sl2r": (1.0, 1.0, -1.0),
                  "e2": (1.0, 1.0, 0.0), "e11": (1.0, -1.0, 0.0),
                  "nil": (0.0, 0.0, 1.0), "abelian": (0.0, 0.0, 0.0)}


@st.composite
def spd_stacks(draw, n):
    a = draw(arrays(float, (draw(st.integers(1, 5)), n, n),
                    elements=st.floats(-1.0, 1.0)))
    return a @ a.transpose(0, 2, 1) + draw(st.floats(0.5, 3.0)) * np.eye(n)


@pytest.mark.parametrize("model", [
    *(milnor_model(2.0 * l1, 0.5 * l2, 1.5 * l3) for l1, l2, l3 in MILNOR_CLASSES.values()),
    build_model(FILIFORM4),
], ids=[*MILNOR_CLASSES, "filiform4"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_curvature_batch_matches_brute_force(model, data):
    mats = data.draw(spd_stacks(model.dim))
    cb = curvature_batch(model, mats)
    for m, mat in enumerate(mats):
        rlow, rm_n = brute_force_curvature(model, mat)
        ginv = np.linalg.inv(mat)
        ric = np.einsum("ik,ijkl->jl", ginv, rlow)          # fixed-basis Ricci
        eigs = np.sort(np.linalg.eigvals(ginv @ ric).real)
        scale = max(1.0, rm_n)
        assert abs(cb.rm_norm[m] - rm_n) <= 1e-12 * scale
        assert np.abs(cb.ric_eigs[m] - eigs).max() <= 1e-12 * scale
        assert abs(cb.scalar[m] - eigs.sum()) <= 1e-12 * scale
        assert abs(np.trace(cb.ric[m]) - cb.scalar[m]) <= 1e-12 * scale
        assert math.isclose(cb.vol[m], math.sqrt(np.linalg.det(mat)), rel_tol=1e-12)


PRODUCT_FACTORS = [
    [["sphere", 3, 1.0]],
    [["sphere", 3, 1.0], ["circle", 1, 0.5]],
    [["sphere", 2, 1.0], ["flat_torus", 2, 1.0], ["sphere", 4, 2.0]],
]


@pytest.mark.parametrize("factors", PRODUCT_FACTORS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_curvature_batch_products_match_closed_forms(factors, data):
    model = build_model({"kind": "product_of_space_forms", "factors": factors})
    scales = data.draw(arrays(float, (data.draw(st.integers(1, 5)), len(factors)),
                              elements=st.floats(0.05, 20.0)))
    dims = [d for _, d, _ in factors]
    cb = curvature_batch(model, np.stack([np.diag(np.repeat(s, dims)) for s in scales]))
    for m, s in enumerate(scales):
        g = metric_from_scales(model, s)
        # Ric = (d - 1) / s on each sphere direction in an orthonormal frame
        ric = np.diag(ricci_fixed_basis(model, g)) / np.repeat(s, dims)
        scale = max(1.0, rm_norm(model, g))
        assert abs(cb.rm_norm[m] - rm_norm(model, g)) <= 1e-12 * scale
        assert np.abs(cb.ric[m] - np.diag(ric)).max() <= 1e-12 * scale
        assert np.abs(cb.ric_eigs[m] - np.sort(ric)).max() <= 1e-12 * scale
        assert abs(cb.scalar[m] - ric.sum()) <= 1e-12 * scale
        assert math.isclose(cb.vol[m], volume(model, g), rel_tol=1e-12)


@pytest.mark.parametrize("lams", MILNOR_CLASSES.values(), ids=MILNOR_CLASSES.keys())
@settings(max_examples=25, deadline=None)
@given(diag=arrays(float, 3, elements=st.floats(0.1, 10.0)))
def test_milnor_principal_ricci(lams, diag):
    # on g = diag(a) the frame e_i / sqrt(a_i) is Milnor's with rescaled
    # constants; Ric(f_1) = 2 mu_2 mu_3 and cyclically, mu_i = sum(l) / 2 - l_i
    lam = np.array(lams) * np.sqrt(diag / (diag[[1, 2, 0]] * diag[[2, 0, 1]]))
    mu = lam.sum() / 2.0 - lam
    expected = 2.0 * mu[[1, 0, 0]] * mu[[2, 2, 1]]
    cb = curvature_batch(milnor_model(*lams), np.diag(diag)[None])
    assert np.abs(cb.ric[0] - np.diag(expected)).max() <= 1e-12 * max(1.0, np.abs(expected).max())


# -- exact sectional-curvature extremes ---------------------------------------

EXACT_SEC_MODELS = {
    **{name: milnor_model(2.0 * l1, 0.5 * l2, 1.5 * l3)
       for name, (l1, l2, l3) in MILNOR_CLASSES.items()},
    "filiform4": build_model(FILIFORM4),
    **{"x".join(f"{t}{d}" for t, d, _ in factors):
       build_model({"kind": "product_of_space_forms", "factors": factors})
       for factors in PRODUCT_FACTORS},
}


@st.composite
def model_metrics(draw, model):
    """A stack of metric matrices: SPD for quotients, factor scales for products."""
    if model.kind == "lie_group_quotient":
        return draw(spd_stacks(model.dim))
    dims = [d for _, d, _ in model.factors]
    scales = draw(arrays(float, (draw(st.integers(1, 5)), len(dims)),
                         elements=st.floats(0.05, 20.0)))
    return np.stack([np.diag(np.repeat(s, dims)) for s in scales])


def sampled_plane_secs(rm, rng, count=20_000):
    """sec of random orthonormal pairs (u, v) as the full sum R_ijkl u^i v^j u^k v^l."""
    n = rm.shape[0]
    u, v = rng.standard_normal((2, count, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v -= np.sum(u * v, axis=1, keepdims=True) * u
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    uv = (u[:, :, None] * v[:, None, :]).reshape(count, n * n)
    return np.einsum("pa,pa->p", uv @ rm.reshape(n * n, n * n), uv)


@pytest.mark.parametrize("model", EXACT_SEC_MODELS.values(), ids=EXACT_SEC_MODELS.keys())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_exact_sec_extremes_bound_every_sampled_plane(model, data):
    mats = data.draw(model_metrics(model))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    for mat in mats:
        cv = curvature(model, mat)
        k = sampled_plane_secs(cv.rm, rng)
        slack = 1e-14 * max(1.0, np.abs(cv.rm).max())      # rounding of the sums
        assert cv.sec_min - slack <= k.min() and k.max() <= cv.sec_max + slack


@pytest.mark.parametrize("model", [m for m in EXACT_SEC_MODELS.values() if m.dim == 3],
                         ids=[k for k, m in EXACT_SEC_MODELS.items() if m.dim == 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dim3_sec_extremes_are_operator_eigenvalues(model, data):
    # every bivector in dimension 3 is decomposable (Milnor 1976)
    for mat in data.draw(model_metrics(model)):
        cv = curvature(model, mat)
        eigs = np.linalg.eigvalsh(_curvature_operator(cv.rm))
        tol = 1e-14 * np.abs(eigs).max()
        assert abs(cv.sec_min - eigs[0]) <= tol and abs(cv.sec_max - eigs[-1]) <= tol


@settings(max_examples=10, deadline=None)
@given(mats=spd_stacks(4))
def test_thorpe_extremes_match_plane_search_on_filiform4(mats):
    optimize = pytest.importorskip("scipy.optimize")
    cv = curvature(build_model(FILIFORM4), mats[0])
    op = _curvature_operator(cv.rm)
    iu, ju = np.triu_indices(4, 1)

    def sec_and_grad(x, sign):
        # sec of the plane spanned by any independent pair x = (u, v), and its gradient
        u, v = x[:4], x[4:]
        w = np.outer(u, v)
        w = (w - w.T)[iu, ju]
        norm2 = w @ w
        k = (w @ op @ w) / norm2
        dk = np.zeros((4, 4))
        dk[iu, ju] = 2.0 * (op @ w - k * w) / norm2
        dk -= dk.T
        return sign * k, sign * np.concatenate([dk @ v, -dk @ u])

    rng = np.random.default_rng(11)
    lo, hi = (sign * min(optimize.minimize(sec_and_grad, rng.standard_normal(8),
                                           args=(sign,), jac=True, method="BFGS",
                                           options={"gtol": 1e-10}).fun
                         for _ in range(16))
              for sign in (1.0, -1.0))
    scale = max(abs(cv.sec_min), abs(cv.sec_max))
    assert abs(cv.sec_min - lo) <= 1e-8 * scale
    assert abs(cv.sec_max - hi) <= 1e-8 * scale


@pytest.mark.parametrize("factors", PRODUCT_FACTORS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_sec_extremes_closed_form(factors, data):
    model = build_model({"kind": "product_of_space_forms", "factors": factors})
    scales = data.draw(arrays(float, len(factors), elements=st.floats(0.05, 20.0)))
    cv = curvature(model, metric_from_scales(model, scales))
    # a sphere block of scale s has curvature 1/s; a mixed plane (two factors)
    # or a flat plane (a flat factor of dim >= 2) has curvature 0
    secs = [1.0 / s for (ftype, _, _), s in zip(factors, scales) if ftype == "sphere"]
    if len(factors) > 1 or any(ftype != "sphere" and d >= 2 for ftype, d, _ in factors):
        secs.append(0.0)
    assert (cv.sec_min, cv.sec_max) == (min(secs), max(secs))


def test_non_diagonal_dim5_uses_seeded_sampler():
    # no exact answer is known for n >= 5: curvature() reports the sampler's values
    model = build_model({"kind": "lie_group_quotient", "dim": 5, "covolume": 1.0,
                         "brackets": [[1, 2, 3, 1.0], [1, 3, 4, 1.0], [1, 4, 5, 1.0]]})
    g = random_spd(np.random.default_rng(4), 5)
    cv = curvature(model, g, plane_samples=500, seed=3)
    op = _curvature_operator(cv.rm)
    assert (cv.sec_min, cv.sec_max) == _sampled_sec_extremes(op, 500, 3)
    assert (cv.sec_min, cv.sec_max) != _sampled_sec_extremes(op, 500, 4)
