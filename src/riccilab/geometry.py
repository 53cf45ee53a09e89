"""Homogeneous model geometries with algebraic curvature.

Two families of models are supported:

* ``LieGroupQuotient`` -- a compact quotient of a Lie group carrying a
  left-invariant metric, described by structure constants ``c^k_{ij}``
  (``[e_i, e_j] = c^k_{ij} e_k``) in a fixed basis plus the volume of a
  fundamental domain of that basis ("covolume").  Curvature is computed in
  a Milnor frame: orthonormalize the basis, transport the structure
  constants, and apply the closed-form connection coefficients
  ``G^k_{ij} = (c~^k_{ij} - c~^i_{jk} + c~^j_{ki}) / 2``.
* ``ProductOfSpaceForms`` -- a product of round spheres, circles and flat
  tori, where each factor contributes its constant-curvature block.

Sign conventions, fixed once for the whole package: the curvature operator
is ``R(X,Y)Z = grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z`` and the
rank-4 component array is ``R_{ijkl} = <R(f_i, f_j) f_l, f_k>`` in an
orthonormal frame ``f``.  With this choice the unit round sphere satisfies
``R_{ijkl} = g_{ik} g_{jl} - g_{il} g_{jk}``, sectional curvature of a
coordinate plane is ``R_{ijij}``, and ``Ric_{jl} = sum_a R_{ajal}``.

Sectional-curvature extremes are exact wherever an exact answer is known:
when the curvature operator on bivectors is diagonal (every product of
space forms and every diagonal quotient metric), in dimension 3 (its
extreme eigenvalues) and in dimension 4 (Thorpe's trick).  Only quotients
of dimension >= 5 with a non-diagonal curvature operator report sampled
inner values.

A metric is an (n, n) float array in the fixed basis: SPD for quotients,
block-scalar for products (each factor's scale times the identity on its
block, zero off the blocks).  ``curvature_batch`` and ``factor_scales``
also take a stack (M, n, n).  ``factor_scales`` is the one reader of a
product metric's scales and ``metric_from_scales`` the one writer.  The
value types ``ModelGeometry``, ``CurvatureData`` and ``CurvatureBatch`` are
``typing.NamedTuple`` records, with tuple semantics (``==`` compares them as
tuples), and all operations are pure.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "GeometryError",
    "ModelGeometry",
    "CurvatureData",
    "CurvatureBatch",
    "build_model",
    "heisenberg_model",
    "flat_torus_model",
    "sphere_circle_model",
    "reference_metric",
    "metric_from_scales",
    "factor_scales",
    "orthonormalize",
    "curvature",
    "curvature_batch",
    "rm_norm",
    "ricci_fixed_basis",
    "volume",
    "diameter",
    "scale_metric",
]

LIE_GROUP_QUOTIENT = "lie_group_quotient"
PRODUCT_OF_SPACE_FORMS = "product_of_space_forms"

FACTOR_SPHERE = "sphere"
FACTOR_CIRCLE = "circle"
FACTOR_FLAT_TORUS = "flat_torus"

_JACOBI_TOL = 1e-12
_TINY, _HUGE = 5e-324, sys.float_info.max     # the extreme positive floats
_DEFAULT_PLANE_SAMPLES = 10_000
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_THORPE_STEPS = 80                 # 4 * _GOLDEN ** 80 < 1e-16
# Hodge star on the bivectors e_i ^ e_j (i < j) of R^4: *(e0^e1) = e2^e3,
# *(e0^e2) = -e1^e3, *(e0^e3) = e1^e2, and the star is an involution
_HODGE_STAR4 = np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])[::-1]


class GeometryError(ValueError):
    """Invalid model description or metric."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


class ModelGeometry(NamedTuple):
    """Descriptor of a homogeneous model space.

    ``structure_constants`` is stored as ``c[k, i, j] = c^k_{ij}`` for
    quotient models; ``factors`` is a tuple of ``(type, dim, radius)`` for
    products.
    """

    kind: str
    dim: int
    structure_constants: np.ndarray | None = None
    covolume: float | None = None
    factors: tuple[tuple[str, int, float], ...] | None = None

    def factor_slices(self) -> list[slice]:
        out, start = [], 0
        for _, d, _ in self.factors or ():
            out.append(slice(start, start + d))
            start += d
        return out

    def describe(self) -> dict:
        """JSON-serializable description (round-trips through build_model)."""
        if self.kind == LIE_GROUP_QUOTIENT:
            c = self.structure_constants
            brackets = []
            for k in range(self.dim):
                for i in range(self.dim):
                    for j in range(i + 1, self.dim):
                        if c[k, i, j] != 0.0:
                            brackets.append([i + 1, j + 1, k + 1, float(c[k, i, j])])
            return {
                "kind": self.kind,
                "dim": self.dim,
                "covolume": self.covolume,
                "brackets": brackets,
            }
        return {
            "kind": self.kind,
            "dim": self.dim,
            "factors": [[t, d, r] for (t, d, r) in self.factors],
        }


class CurvatureData(NamedTuple):
    """Orthonormal-frame curvature of one metric.

    ``rm[i, j, k, l] = R_{ijkl}`` with the conventions of the module
    docstring; ``ric`` is the orthonormal-frame Ricci matrix, so
    ``trace(ric) == scalar``; ``sec_min``/``sec_max`` are the extremes of
    the sectional curvature over all 2-planes, exact up to rounding when
    the curvature operator on bivectors is diagonal or n <= 4.  Only a
    non-diagonal quotient with n >= 5 reports sampled inner values: the
    extremes over coordinate planes and ``plane_samples`` seeded random
    planes, which the true extremes can lie outside (reporting only).
    ``curvature``, the one builder, makes ``rm`` and ``ric`` read-only.
    """

    rm: np.ndarray
    ric: np.ndarray
    scalar: float
    rm_norm: float
    sec_min: float
    sec_max: float


# ---------------------------------------------------------------------------
# model construction


def _validate_brackets(n: int, entries: Sequence[Sequence[float]]) -> np.ndarray:
    c = np.zeros((n, n, n))
    seen: dict[tuple[int, int, int], float] = {}
    for entry in entries:
        if len(entry) != 4:
            raise GeometryError(f"bracket entry needs 4 numbers 'i j k coeff', got {entry!r}")
        i, j, k = (int(entry[0]) - 1, int(entry[1]) - 1, int(entry[2]) - 1)
        coeff = float(entry[3])
        if not math.isfinite(coeff):
            raise GeometryError(f"bracket coefficient must be finite, got {entry!r}")
        for idx in (i, j, k):
            if not 0 <= idx < n:
                raise GeometryError(f"bracket index out of range 1..{n} in {entry!r}")
        if i == j and coeff != 0.0:
            raise GeometryError(f"antisymmetry violated at index triple ({i+1},{j+1},{k+1})")
        if (j, i, k) in seen and seen[(j, i, k)] != -coeff:
            raise GeometryError(
                f"antisymmetry violated at index triple ({i+1},{j+1},{k+1}): "
                f"c^{k+1}_{{{j+1}{i+1}}} = {seen[(j, i, k)]} conflicts with {coeff}"
            )
        if (i, j, k) in seen and seen[(i, j, k)] != coeff:
            raise GeometryError(f"duplicate bracket entry for index triple ({i+1},{j+1},{k+1})")
        seen[(i, j, k)] = coeff
        seen[(j, i, k)] = -coeff
        c[k, i, j] = coeff
        c[k, j, i] = -coeff
    _check_jacobi(c)
    _check_unimodular(c)
    return c


def _check_jacobi(c: np.ndarray) -> None:
    # cyclic sum c^m_{ij} c^l_{mk} + c^m_{jk} c^l_{mi} + c^m_{ki} c^l_{mj}
    t1 = np.einsum("mij,lmk->lijk", c, c)
    jac = t1 + np.einsum("mjk,lmi->lijk", c, c) + np.einsum("mki,lmj->lijk", c, c)
    cmax = float(np.max(np.abs(c))) if c.size else 0.0
    tol = _JACOBI_TOL * max(1.0, cmax * cmax)
    worst = float(np.max(np.abs(jac)))
    if worst > tol:
        l, i, j, k = np.unravel_index(np.argmax(np.abs(jac)), jac.shape)
        raise GeometryError(
            f"Jacobi identity violated at index triple ({i+1},{j+1},{k+1}) "
            f"(component {l+1}): residual {worst:.3e} > {tol:.1e}"
        )


def _check_unimodular(c: np.ndarray) -> None:
    # a Lie group with a lattice is unimodular (Milnor 1976, Lemma 6.2)
    traces = np.einsum("kik->i", c)          # tr ad_{e_i} = sum_k c^k_{ik}
    i = int(np.argmax(np.abs(traces)))
    if abs(traces[i]) > _JACOBI_TOL * max(1.0, float(np.max(np.abs(c)))):
        raise GeometryError(f"not unimodular: tr ad(e{i+1}) = {traces[i]:.6g} != 0, "
                            "so the group admits no compact quotient")


def build_model(spec: dict) -> ModelGeometry:
    """Build and validate a model from a plain description dict.

    Quotient: ``{"kind": "lie_group_quotient", "dim": n, "covolume": v,
    "brackets": [[i, j, k, coeff], ...]}`` with 1-based indices meaning
    ``[e_i, e_j] = coeff * e_k``.  Product: ``{"kind":
    "product_of_space_forms", "factors": [[type, dim, radius], ...]}``.
    """
    kind = spec.get("kind")
    if kind == LIE_GROUP_QUOTIENT:
        n = int(spec.get("dim", 0))
        if n < 3:
            raise GeometryError(f"quotient models need dim >= 3, got {n}")
        covolume = float(spec.get("covolume", 1.0))
        if not 0 < covolume < math.inf:
            raise GeometryError(f"covolume must be positive and finite, got {covolume}")
        c = _validate_brackets(n, spec.get("brackets", ()))
        return ModelGeometry(kind=kind, dim=n, structure_constants=_readonly(c),
                             covolume=covolume)
    if kind == PRODUCT_OF_SPACE_FORMS:
        raw = spec.get("factors", ())
        if not raw:
            raise GeometryError("product model needs at least one factor")
        factors = []
        for f in raw:
            ftype, d, r = str(f[0]).replace("-", "_"), int(f[1]), float(f[2])
            if ftype not in (FACTOR_SPHERE, FACTOR_CIRCLE, FACTOR_FLAT_TORUS):
                raise GeometryError(f"unknown factor type {f[0]!r}")
            if ftype == FACTOR_SPHERE and d < 2:
                raise GeometryError(f"sphere factor needs dim >= 2, got {d}")
            if ftype == FACTOR_CIRCLE and d != 1:
                raise GeometryError(f"circle factor has dim 1, got {d}")
            if ftype == FACTOR_FLAT_TORUS and d < 1:
                raise GeometryError(f"flat_torus factor needs dim >= 1, got {d}")
            if not 0 < r < math.inf:
                raise GeometryError(f"factor radius must be positive and finite, got {r}")
            factors.append((ftype, d, r))
        n = sum(d for _, d, _ in factors)
        if n < 3:
            raise GeometryError(f"total dimension must be >= 3, got {n}")
        return ModelGeometry(kind=kind, dim=n, factors=tuple(factors))
    raise GeometryError(f"unknown model kind {kind!r}")


def heisenberg_model(covolume: float = 1.0, bracket: float = 1.0) -> ModelGeometry:
    """3-dim nilpotent quotient with [e1, e2] = bracket * e3."""
    return build_model({
        "kind": LIE_GROUP_QUOTIENT, "dim": 3, "covolume": covolume,
        "brackets": [[1, 2, 3, bracket]],
    })


def flat_torus_model(dim: int = 3, covolume: float = 1.0) -> ModelGeometry:
    """Abelian quotient: all structure constants zero."""
    return build_model({"kind": LIE_GROUP_QUOTIENT, "dim": dim,
                        "covolume": covolume, "brackets": []})


def sphere_circle_model(sphere_dim: int = 3, circle_radius: float = 1.0,
                        sphere_radius: float = 1.0) -> ModelGeometry:
    """S^d x S^1 product, the standard collapse family."""
    return build_model({
        "kind": PRODUCT_OF_SPACE_FORMS,
        "factors": [[FACTOR_SPHERE, sphere_dim, sphere_radius],
                    [FACTOR_CIRCLE, 1, circle_radius]],
    })


def reference_metric(model: ModelGeometry) -> np.ndarray:
    """Identity metric (quotients) or the reference radii squared (products)."""
    if model.kind == LIE_GROUP_QUOTIENT:
        return np.eye(model.dim)
    return metric_from_scales(model, [r * r for _, _, r in model.factors])


@lru_cache(maxsize=None)
def _block_layout(factors: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layout of a product with these factors, on n x n forms flattened to
    n * n entries: the index of each factor block's first diagonal entry,
    the 0/1 map (num_factors, n * n) that puts each scale on its block's
    diagonal, and the fixed-basis Ricci form (n, n), the same at every scale."""
    dims = [d for _, d, _ in factors]
    n = sum(dims)
    diag = np.arange(n) * (n + 1)
    spread = np.zeros((len(dims), n * n))
    spread[np.repeat(np.arange(len(dims)), dims), diag] = 1.0
    ric = [d - 1.0 if ftype == FACTOR_SPHERE else 0.0 for ftype, d, _ in factors]
    out = diag[np.cumsum(dims) - dims], spread, np.dot(ric, spread).reshape(n, n)
    for a in out:
        a.setflags(write=False)
    return out


def metric_from_scales(model: ModelGeometry, scales) -> np.ndarray:
    """Block-scalar product metric (n, n) of factor scales (num_factors,),
    or a stack (M, n, n) of scales (M, num_factors)."""
    scales = np.asarray(scales, dtype=float)
    spread = _block_layout(model.factors)[1]
    return np.dot(scales, spread).reshape(*scales.shape[:-1], model.dim, model.dim)


def scale_metric(g: np.ndarray, lam_sq: float) -> np.ndarray:
    """Return lam_sq * g (the metric scaled by lambda^2)."""
    if lam_sq <= 0:
        raise GeometryError(f"metric scale factor must be positive, got {lam_sq}")
    return lam_sq * np.asarray(g, dtype=float)


# ---------------------------------------------------------------------------
# frames and curvature


def _metric_array(model: ModelGeometry, g, stack: bool = True) -> np.ndarray:
    """g as a float array of one metric (n, n), or with ``stack`` also of a
    stack (M, n, n)."""
    g = np.asarray(g, dtype=float)
    n = model.dim
    if g.ndim not in ((2, 3) if stack else (2,)) or g.shape[-2:] != (n, n):
        raise GeometryError(f"metric must be an ({n}, {n}) matrix"
                            f"{' or a stack of them' if stack else ''}, got shape {g.shape}")
    return g


def _check_finite(g: np.ndarray) -> None:
    """Raise GeometryError naming the first non-finite entry by its index in g."""
    if not np.isfinite(g).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(g))[0])
        raise GeometryError(f"metric entry {idx} is not finite: {float(g[idx])!r}")


def _first_deviation(g: np.ndarray, ref: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first entry of g that differs from ref by more than 1e-12
    relative to max(1, max |g|) of its metric, or None."""
    scale = np.maximum(1.0, np.abs(g).max(axis=(-2, -1), keepdims=True))
    bad = np.argwhere(np.abs(g - ref) > 1e-12 * scale)
    return tuple(int(i) for i in bad[0]) if len(bad) else None


def _metric_eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of one quotient metric or a stack from
    ``_metric_array``, after validation."""
    _check_finite(mats)
    mats_t = np.swapaxes(mats, -1, -2)
    if not (mats == mats_t).all():            # exact equality is the hot path
        idx = _first_deviation(mats, mats_t)
        if idx is not None:
            raise GeometryError(f"metric matrix is not symmetric at entry {idx}")
    evals, vecs = np.linalg.eigh(mats)
    if evals[..., 0].min() <= 0:
        raise GeometryError("metric is not positive definite: minimum eigenvalue "
                            f"{evals[..., 0].min():.6e}")
    return evals, vecs


def factor_scales(model: ModelGeometry, g) -> np.ndarray:
    """Factor scales of a product metric: (num_factors,) of one metric (n, n),
    (M, num_factors) of a stack (M, n, n).

    Raises GeometryError naming the first entry that breaks the block-scalar
    layout (beyond 1e-12 relative) or a scale that is not positive.
    """
    g = _metric_array(model, g)
    starts, spread, _ = _block_layout(model.factors)
    scales = g.reshape(*g.shape[:-2], -1).take(starts, axis=-1)
    # hot path: g equals, bit for bit, its rebuild from its scales clamped to
    # [smallest positive float, largest float].  One comparison rules out a
    # non-finite entry, an entry off the layout and a scale <= 0, and the
    # clamp keeps inf * 0 out of the rebuild.
    clamped = np.minimum(np.maximum(scales, _TINY), _HUGE)
    if g.tobytes() == np.dot(clamped, spread).tobytes():
        return scales
    _check_finite(g)
    ref = np.dot(scales, spread).reshape(g.shape)
    idx = _first_deviation(g, ref)
    if idx is not None:
        raise GeometryError(f"metric entry {idx} is {float(g[idx])!r}, expected "
                            f"{float(ref[idx])!r} in a block-scalar product metric")
    if not (scales > 0).all():
        *m, f = (int(i) for i in np.argwhere(~(scales > 0))[0])
        idx = (*m, *divmod(int(starts[f]), model.dim))
        raise GeometryError(f"metric is not positive definite: entry {idx} "
                            f"is {float(g[idx])!r}")
    return scales


def _frames(model: ModelGeometry, mats: np.ndarray):
    """Milnor frames of one metric (n, n) or a stack (M, n, n) from
    ``_metric_array``, as a stack.

    Returns the eigenvalues of each metric, the frame change L (symmetric
    inverse square root), its inverse, and the transported structure
    constants ``ct[m, c, a, b] = Linv[m, c, k] L[m, i, a] L[m, j, b] c^k_{ij}``.
    """
    n = model.dim
    evals, vecs = _metric_eigh(mats)
    evals, vecs = evals.reshape(-1, n), vecs.reshape(-1, n, n)
    root = np.sqrt(evals)[:, None, :]
    vecs_t = np.swapaxes(vecs, 1, 2)
    L = (vecs / root) @ vecs_t
    Linv = (vecs * root) @ vecs_t
    m = len(L)
    # contract j, then i, then k with stacked matmuls
    tmp = model.structure_constants @ L[:, None]              # (m, k, i, b)
    tmp = np.swapaxes(L, 1, 2)[:, None] @ tmp                # (m, k, a, b)
    ct = (Linv @ tmp.reshape(m, n, n * n)).reshape(m, n, n, n)
    return evals, L, Linv, ct


def orthonormalize(model: ModelGeometry, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame change L with L^T g L = I and the transported structure constants.

    The new frame is ``f_a = sum_i L[i, a] e_i``; the transported constants
    satisfy ``c~^c_{ab} = L[i,a] L[j,b] Linv[c,k] c^k_{ij}``.  L is the
    symmetric inverse square root of g, so a diagonal metric keeps a
    diagonal frame change.
    """
    if model.kind != LIE_GROUP_QUOTIENT:
        raise GeometryError("orthonormalize applies to Lie group quotients only")
    _, L, _, ct = _frames(model, _metric_array(model, g, stack=False))
    return L[0], ct[0]


def _rm_from_structure(ct: np.ndarray) -> np.ndarray:
    """Curvature components in orthonormal frames from a stack of structure constants."""
    m, n = ct.shape[:2]
    # gamma[k,i,j] = (ct[k,i,j] - ct[i,j,k] + ct[j,k,i]) / 2 per metric
    gamma = 0.5 * (ct - ct.transpose(0, 3, 1, 2) + ct.transpose(0, 2, 3, 1))
    # t1[i,j,k,l] = gamma[m,j,l] gamma[k,i,m]
    t1 = (gamma.reshape(m, n * n, n) @ gamma.reshape(m, n, n * n))
    t1 = t1.reshape(m, n, n, n, n).transpose(0, 2, 3, 1, 4)
    # t3[i,j,k,l] = ct[m,i,j] gamma[k,m,l]
    t3 = (np.swapaxes(ct.reshape(m, n, n * n), 1, 2)
          @ gamma.transpose(0, 2, 1, 3).reshape(m, n, n * n)).reshape(m, n, n, n, n)
    return t1 - t1.transpose(0, 2, 1, 3, 4) - t3


def _rm_product(model: ModelGeometry, scales: np.ndarray) -> np.ndarray:
    """Stacked rm of products at positive scales (M, num_factors).

    On a sphere factor of scale s, R_{ijkl} = (delta_ik delta_jl -
    delta_il delta_jk) / s for i, j, k, l in its block; zero elsewhere.
    """
    dims = [d for _, d, _ in model.factors]
    sphere = [ftype == FACTOR_SPHERE for ftype, _, _ in model.factors]
    k = np.repeat(np.where(sphere, 1.0 / scales, 0.0), dims, axis=1)   # per direction
    block = np.repeat(np.arange(len(dims)), dims)
    eye = np.eye(model.dim)
    delta = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    return (k[:, :, None] * (block[:, None] == block))[:, :, :, None, None] * delta


def _curvature_operator(rm: np.ndarray) -> np.ndarray:
    """Curvature operator on bivectors in the basis e_i ^ e_j (i < j).

    ``op[a, b] = R(e_ia, e_ja, e_ib, e_jb)``, so for orthonormal u, v the
    sectional curvature is sec(u, v) = w . op w with the bivector w = u ^ v.
    """
    iu, ju = np.triu_indices(rm.shape[0], 1)
    return rm[iu[:, None], ju[:, None], iu, ju]


def _thorpe_min(op: np.ndarray) -> float:
    """Minimum of w . op w over unit decomposable bivectors w of R^4.

    Thorpe (1972): it equals max_t lambda_min(op + t star), where star is
    the Hodge star on the e_i ^ e_j basis and w ^ w = 0 reads w . star w = 0.
    Each lambda_min(op + t star) is a lower bound, the function is concave
    and 1-Lipschitz in t, and its maximum lies in |t| <= 2 |op| (Frobenius
    norm).  Golden-section search keeps the best value seen at c or d; after
    _THORPE_STEPS steps the bracket, and so the gap to the minimum, is below
    1e-16 |op|.
    """
    def lam_min(t):
        return np.linalg.eigvalsh(op + t * _HODGE_STAR4)[0]

    b = 2.0 * float(np.linalg.norm(op))
    a = -b
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = lam_min(c), lam_min(d)
    for _ in range(_THORPE_STEPS):
        if fc >= fd:            # a concave maximum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = lam_min(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = lam_min(d)
    return float(max(fc, fd))


def _sampled_sec_extremes(op: np.ndarray, plane_samples: int,
                          seed: int) -> tuple[float, float]:
    """Sectional curvature extremes over coordinate planes and seeded sampled
    planes: inner values, not bounds.  A sampled plane costs one small
    quadratic form on ``op``."""
    n = (1 + math.isqrt(1 + 8 * len(op))) // 2      # len(op) = n (n - 1) / 2
    iu, ju = np.triu_indices(n, 1)
    lo, hi = np.diag(op).min(), np.diag(op).max()
    if plane_samples > 0:
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((plane_samples, n))
        v = rng.standard_normal((plane_samples, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v -= np.sum(u * v, axis=1, keepdims=True) * u
        keep = np.linalg.norm(v, axis=1) > 1e-8
        u, v = u[keep], v[keep]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w = u[:, iu] * v[:, ju] - u[:, ju] * v[:, iu]
        k = np.einsum("pa,pa->p", w @ op, w)
        lo = min(lo, float(k.min()))
        hi = max(hi, float(k.max()))
    return float(lo), float(hi)


def _sec_extremes(rm: np.ndarray, plane_samples: int, seed: int) -> tuple[float, float]:
    """Sectional curvature extremes, exact wherever an exact answer is known.

    * ``op`` diagonal (products of space forms, diagonal quotient metrics):
      coordinate planes attain the extremes of its diagonal.
    * n = 3: every bivector is decomposable, so the extremes are the extreme
      eigenvalues of ``op`` (Milnor 1976).
    * n = 4: Thorpe's trick, see ``_thorpe_min``.
    * n >= 5 with a non-diagonal ``op``: sampled inner values.
    """
    n = rm.shape[0]
    op = _curvature_operator(rm)
    diag = np.diag(op)
    if np.array_equal(op, np.diag(diag)):
        return float(diag.min()), float(diag.max())
    if n == 3:
        eigs = np.linalg.eigvalsh(op)
        return float(eigs[0]), float(eigs[-1])
    if n == 4:
        return _thorpe_min(op), -_thorpe_min(-op)
    return _sampled_sec_extremes(op, plane_samples, seed)


class CurvatureBatch(NamedTuple):
    """Curvature of a stack of M metrics, one row per metric."""

    rm: np.ndarray          # (M, n, n, n, n) orthonormal-frame R_{ijkl}
    ric: np.ndarray         # (M, n, n) orthonormal-frame Ricci
    scalar: np.ndarray      # (M,)
    rm_norm: np.ndarray     # (M,) pointwise |Rm|
    ric_eigs: np.ndarray    # (M, n) ascending Ricci eigenvalues
    vol: np.ndarray         # (M,) total volume


def curvature_batch(model: ModelGeometry, mats: np.ndarray) -> CurvatureBatch:
    """Curvature tensor, Ricci, scalar, |Rm|, Ricci eigenvalues and volume of a stack.

    ``mats`` has shape (M, n, n), or (n, n) for M = 1.  Quotients share one
    stacked eigendecomposition for frames and volume.  No plane sampling.
    A row whose sum of squares of R_{ijkl} is not a normal float takes |Rm|
    from ``np.hypot``, which neither under- nor overflows.
    """
    if model.kind == LIE_GROUP_QUOTIENT:
        evals, _, _, ct = _frames(model, _metric_array(model, mats))
        rm = _rm_from_structure(ct)
        vol = np.sqrt(np.prod(evals, axis=1)) * model.covolume
    else:
        scales = factor_scales(model, mats).reshape(-1, len(model.factors))
        rm = _rm_product(model, scales)
        vol = np.prod([_factor_volume(ftype, d, scales[:, f])
                       for f, (ftype, d, _) in enumerate(model.factors)], axis=0)
    ric = np.trace(rm, axis1=1, axis2=3)
    ric = 0.5 * (ric + np.swapaxes(ric, 1, 2))
    flat = rm.reshape(len(rm), -1)
    sq = np.einsum("ij,ij->i", flat, flat)
    norm = np.sqrt(sq)
    odd = ~((sq >= sys.float_info.min) & (sq < math.inf))    # the sum under- or overflowed
    norm[odd] = np.hypot.reduce(flat[odd], axis=1)
    return CurvatureBatch(rm=rm, ric=ric, scalar=np.trace(ric, axis1=1, axis2=2),
                          rm_norm=norm, ric_eigs=np.linalg.eigvalsh(ric), vol=vol)


def curvature(model: ModelGeometry, g: np.ndarray, *,
              plane_samples: int = _DEFAULT_PLANE_SAMPLES,
              seed: int = 0) -> CurvatureData:
    """Full orthonormal-frame curvature data of (model, g): the one-metric
    batch plus sectional-curvature extremes.  ``plane_samples`` and ``seed``
    matter only where no exact extremes are known (see ``CurvatureData``)."""
    cb = curvature_batch(model, _metric_array(model, g, stack=False))
    lo, hi = _sec_extremes(cb.rm[0], plane_samples, seed)
    return CurvatureData(rm=_readonly(cb.rm[0]), ric=_readonly(cb.ric[0]),
                         scalar=float(cb.scalar[0]), rm_norm=float(cb.rm_norm[0]),
                         sec_min=lo, sec_max=hi)


def rm_norm(model: ModelGeometry, g: np.ndarray) -> float:
    """Pointwise curvature-tensor norm |Rm| (cheap path for the integrator)."""
    g = _metric_array(model, g, stack=False)
    if model.kind == LIE_GROUP_QUOTIENT:
        rm = _rm_from_structure(_frames(model, g)[3])
        return float(np.sqrt(np.sum(rm * rm)))
    total = 0.0
    for (ftype, d, _), s in zip(model.factors, factor_scales(model, g).tolist()):
        if ftype == FACTOR_SPHERE:
            total += 2.0 * d * (d - 1) / (s * s)
    return math.sqrt(total)


def ricci_fixed_basis(model: ModelGeometry, g: np.ndarray) -> np.ndarray:
    """Ricci tensor as a bilinear form in the fixed basis."""
    g = _metric_array(model, g, stack=False)
    if model.kind == LIE_GROUP_QUOTIENT:
        _, _, Linv, ct = _frames(model, g)
        ric = np.trace(_rm_from_structure(ct)[0], axis1=0, axis2=2)
        out = Linv[0].T @ ric @ Linv[0]
        return 0.5 * (out + out.T)
    factor_scales(model, g)
    return _block_layout(model.factors)[2]      # d - 1 on a d-sphere's block, else 0


# ---------------------------------------------------------------------------
# volume and diameter

_UNIT_SPHERE_VOL = {}


def unit_sphere_volume(d: int) -> float:
    """Riemannian volume of the round unit d-sphere."""
    if d not in _UNIT_SPHERE_VOL:
        _UNIT_SPHERE_VOL[d] = 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
    return _UNIT_SPHERE_VOL[d]


def _factor_volume(ftype: str, d: int, s):
    """Volume of one factor at scale s (a float or an array of scales)."""
    if ftype == FACTOR_SPHERE:
        return unit_sphere_volume(d) * s ** (d / 2.0)
    if ftype == FACTOR_CIRCLE:
        return 2.0 * math.pi * s ** 0.5
    return (2.0 * math.pi * s ** 0.5) ** d


def volume(model: ModelGeometry, g: np.ndarray) -> float:
    """Total volume: sqrt(det g) * covolume, or the product of factor volumes."""
    g = _metric_array(model, g, stack=False)
    if model.kind == LIE_GROUP_QUOTIENT:
        evals, _ = _metric_eigh(g)
        return float(math.sqrt(np.prod(evals)) * model.covolume)
    vol = 1.0
    for (ftype, d, _), s in zip(model.factors, factor_scales(model, g).tolist()):
        vol *= _factor_volume(ftype, d, s)
    return float(vol)


def sphere_circle_note(model: ModelGeometry) -> str | None:
    """Counterexample annotation for sphere-times-circle collapse families."""
    if model.kind != PRODUCT_OF_SPACE_FORMS or model.factors is None \
            or len(model.factors) != 2:
        return None
    kinds = sorted(f[0] for f in model.factors)
    if kinds == [FACTOR_CIRCLE, FACTOR_SPHERE]:
        return ("sphere-times-circle products are not infranil (their universal "
                "cover is not Euclidean space): small ||Rm||_{n/2} alone does "
                "not give the pinching conclusion")
    return None


def diameter(model: ModelGeometry, g: np.ndarray) -> float | None:
    """Exact diameter for products; None (declared unavailable, g unread) for quotients."""
    if model.kind == LIE_GROUP_QUOTIENT:
        return None
    g = _metric_array(model, g, stack=False)
    total = 0.0
    for (ftype, d, _), s in zip(model.factors, factor_scales(model, g).tolist()):
        if ftype == FACTOR_SPHERE or ftype == FACTOR_CIRCLE:
            dm = math.pi * math.sqrt(s)
        else:
            dm = math.pi * math.sqrt(s * d)
        total += dm * dm
    return math.sqrt(total)
