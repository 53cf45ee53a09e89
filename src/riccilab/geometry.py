"""Homogeneous model geometries with algebraic curvature.

Two families of models are supported:

* ``LieGroupQuotient`` -- a compact quotient of a Lie group carrying a
  left-invariant metric, described by structure constants ``c^k_{ij}``
  (``[e_i, e_j] = c^k_{ij} e_k``) in a fixed basis plus the volume of a
  fundamental domain of that basis ("covolume").  Ricci, for the flow and
  the batch alike, is one closed form in the fixed basis (Milnor 1976;
  Besse 7.38), ``Ric_ab = -1/2 g^{ij} g_{kl} c^k_{ai} c^l_{bj} - 1/2 B_ab
  + 1/4 g^{ip} g^{jq} g_{ak} g_{bl} c^k_{ij} c^l_{pq}``, B the Killing form.
  At n = 3 it fixes Rm: ``|Rm|^2 = 4 |Ric_0|^2 + R^2 / 3`` (Hamilton 1982).
  Only at n >= 4 is the tensor built in a Milnor frame: orthonormalize,
  transport the structure constants, apply the connection coefficients
  ``G^k_{ij} = (c~^k_{ij} - c~^i_{jk} + c~^j_{ki}) / 2``.
* ``ProductOfSpaceForms`` -- a product of round spheres, circles and flat
  tori, where each factor contributes its constant-curvature block.  Every
  quantity is a closed form in the factor scales: on a d-sphere of scale s,
  Ricci is (d - 1) / s in each direction, |Rm| gains sqrt(2 d (d - 1)) / s
  and a plane in the sphere has curvature 1 / s.  No product builds a
  rank-4 tensor.

Sign conventions, fixed once for the whole package: the curvature operator
is ``R(X,Y)Z = grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z`` and the
rank-4 component array is ``R_{ijkl} = <R(f_i, f_j) f_l, f_k>`` in an
orthonormal frame ``f``.  With this choice the unit round sphere satisfies
``R_{ijkl} = g_{ik} g_{jl} - g_{il} g_{jk}``, sectional curvature of a
coordinate plane is ``R_{ijij}``, and ``Ric_{jl} = sum_a R_{ajal}``.

Sectional-curvature extremes are exact wherever an exact answer is known.
In dimension 3 they come from Ricci (the curvature operator's eigenvalues
are R/2 - Ric_k), on products from the factor scales, in dimension 4 from
Thorpe's trick on the tensor, and in dimension >= 5 from the diagonal of a
diagonal curvature operator.  Only quotients of dimension >= 5 with a
non-diagonal curvature operator report sampled inner values.

A metric is an (n, n) float array in the fixed basis: SPD for quotients,
block-scalar for products (each factor's scale times the identity on its
block, zero off the blocks).  ``curvature_batch`` and ``factor_scales``
also take a stack (M, n, n); ``curvature`` and ``rm_norm`` read one metric as
a row, bit for bit the batch's.  ``factor_scales`` is the one reader of a
product metric's scales and ``metric_from_scales`` the one writer.  The value
types ``ModelGeometry``, ``CurvatureData`` and ``CurvatureBatch`` are
``collections.namedtuple`` records, with tuple semantics (``==`` compares
them as tuples), except that models compare and hash by ``describe()``; all
operations are pure.  Their field types are comments, so that importing
the module compiles no ``ForwardRef``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import Sequence

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


class ModelGeometry(namedtuple("ModelGeometry", (
        "kind",                 # str
        "dim",                  # int
        "structure_constants",  # np.ndarray | None
        "covolume",             # float | None
        "factors",              # tuple[tuple[str, int, float], ...] | None
        "ricci_terms",          # tuple[np.ndarray, ...] | None
        "layout",               # tuple[np.ndarray, ...] | None
), defaults=(None,) * 5)):
    """Descriptor of a homogeneous model space.

    ``structure_constants`` is stored as ``c[k, i, j] = c^k_{ij}`` for
    quotient models; ``factors`` is a tuple of ``(type, dim, radius)`` for
    products.  ``build_model`` sets the read-only constants of each kind:
    for quotients ``ricci_terms``, those of the fixed-basis Ricci closed
    form (``ad[a, k, i] = c^k_{ai}``, its (n, n * n) reshape, the (n, n * n)
    reshape of ``c`` and the Killing form ``B``); for products ``layout``,
    the block layout of ``_block_layout``, which no radius enters.  These
    arrays follow from the description, so ``==`` and ``hash`` compare
    ``describe()`` and never an array.
    """

    __slots__ = ()

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

    def _key(self) -> tuple:
        return tuple((k, tuple(map(tuple, v)) if isinstance(v, list) else v)
                     for k, v in self.describe().items())

    def __eq__(self, other) -> bool:
        return isinstance(other, ModelGeometry) and self._key() == other._key()

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self._key())


CurvatureData = namedtuple("CurvatureData", (
    "ric",        # np.ndarray
    "scalar",     # float
    "rm_norm",    # float
    "sec_min",    # float
    "sec_max",    # float
    "ric_eigs",   # np.ndarray
    "vol",        # float
))
CurvatureData.__doc__ = """Orthonormal-frame curvature of one metric.

    Every field but ``sec_min``/``sec_max`` is the metric's ``CurvatureBatch``
    row.  ``sec_min``/``sec_max`` are the extremes of the sectional curvature
    over all 2-planes, exact up to rounding but in the last, sampled case:

    * n = 3 quotients: R/2 - Ric_k, the curvature operator's eigenvalues
      (Milnor 1976), since every bivector is decomposable;
    * products: 1/s on a sphere plane of scale s, 0 on a mixed or flat plane;
    * n = 4 quotients: Thorpe's trick on the Milnor-frame tensor;
    * n >= 5 quotients: the diagonal of a diagonal curvature operator, else
      sampled inner values, the extremes over coordinate planes and
      ``plane_samples`` seeded random planes, which the true extremes can
      lie outside (reporting only).

    ``curvature``, the one builder, makes the arrays read-only.
    """


# ---------------------------------------------------------------------------
# model construction


def _integer(x) -> int:
    """``int(x)``, refusing a number that int() would truncate."""
    n = int(x)
    if not isinstance(x, str) and n != x:
        raise ValueError(f"{x!r} is not an integer")
    return n


def _entry(entry, types: tuple, what: str) -> list:
    """One model entry converted item by item; a GeometryError names a malformed one."""
    try:           # a wrong item count fails the strict zip with ValueError too
        return [t(x) for t, x in zip(types, entry, strict=True)]
    except (TypeError, ValueError, OverflowError):
        raise GeometryError(f"{what}, got {entry!r}") from None


def _field(spec: dict, key: str, convert, default, what: str):
    """``spec[key]`` (or the default) converted; a GeometryError names the field."""
    value = spec.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise GeometryError(f"{key} must be {what}, got {value!r}") from None


def _validate_brackets(n: int, entries: Sequence[Sequence[float]]) -> np.ndarray:
    c = np.zeros((n, n, n))
    given: dict[tuple[int, int, int], float] = {}
    for entry in entries:
        i, j, k, coeff = _entry(entry, (_integer, _integer, _integer, float),
                                "bracket entry needs 4 numbers 'i j k coeff'")
        i, j, k = i - 1, j - 1, k - 1
        if not math.isfinite(coeff):
            raise GeometryError(f"bracket coefficient must be finite, got {entry!r}")
        for idx in (i, j, k):
            if not 0 <= idx < n:
                raise GeometryError(f"bracket index out of range 1..{n} in {entry!r}")
        if i == j and coeff != 0.0:
            raise GeometryError(f"antisymmetry violated at index triple ({i+1},{j+1},{k+1})")
        if (j, i, k) in given and given[(j, i, k)] != -coeff:
            raise GeometryError(
                f"antisymmetry violated at index triple ({i+1},{j+1},{k+1}): "
                f"c^{k+1}_{{{j+1}{i+1}}} = {given[(j, i, k)]} conflicts with "
                f"c^{k+1}_{{{i+1}{j+1}}} = {coeff}"
            )
        if (i, j, k) in given and given[(i, j, k)] != coeff:
            raise GeometryError(f"duplicate bracket entry for index triple ({i+1},{j+1},{k+1})")
        given[(i, j, k)] = coeff
        c[k, i, j] = coeff
        c[k, j, i] = -coeff
    cmax = float(np.max(np.abs(c)))
    if cmax:
        # both checks read c in units of 2^e, where max|c| = m 2^e with m in
        # [1/2, 1): the rescaling is exact, the largest products stay near 1
        # at every scale, and so do the tolerances relative to them
        e = math.frexp(cmax)[1]
        unit = np.ldexp(c, -e)
        _check_jacobi(unit, e)
        _check_unimodular(unit, e)
    return c


def _check_jacobi(c: np.ndarray, e: int) -> None:
    """Reject ``c 2^e``, where max|c| is in [1/2, 1), if it breaks Jacobi."""
    # cyclic sum c^m_{ij} c^l_{mk} + c^m_{jk} c^l_{mi} + c^m_{ki} c^l_{mj}: one
    # contraction T[l, i, j, k] = c^m_{ij} c^l_{mk}, read at T[l, j, k, i] and T[l, k, i, j]
    t = np.einsum("mij,lmk->lijk", c, c)
    jac = t + t.transpose(0, 3, 1, 2) + t.transpose(0, 2, 3, 1)
    tol = _JACOBI_TOL * float(np.max(np.abs(c))) ** 2
    worst = float(np.max(np.abs(jac)))
    if worst > tol:
        l, i, j, k = np.unravel_index(np.argmax(np.abs(jac)), jac.shape)
        raise GeometryError(
            f"Jacobi identity violated at index triple ({i+1},{j+1},{k+1}) "
            f"(component {l+1}): residual {_scaled(worst, 2 * e, '.3e')} > "
            f"{_scaled(tol, 2 * e, '.1e')}"
        )


def _check_unimodular(c: np.ndarray, e: int) -> None:
    """Reject ``c 2^e``, where max|c| is in [1/2, 1), if it is not unimodular."""
    # a Lie group with a lattice is unimodular (Milnor 1976, Lemma 6.2)
    traces = np.einsum("kik->i", c)          # tr ad_{e_i} = sum_k c^k_{ik}
    i = int(np.argmax(np.abs(traces)))
    if abs(traces[i]) > _JACOBI_TOL * float(np.max(np.abs(c))):
        raise GeometryError(f"not unimodular: tr ad(e{i+1}) = {_scaled(traces[i], e, '.6g')} "
                            "!= 0, so the group admits no compact quotient")


def _scaled(x: float, e: int, spec: str) -> str:
    """``format(x * 2**e, spec)``, also where that product is not a normal float."""
    x = float(x)
    if x == 0.0 or -1021 <= math.frexp(x)[1] + e <= 1024:
        return format(math.ldexp(x, e), spec)
    from decimal import Decimal         # only an error message at an extreme exponent

    exact = Decimal(x) * Decimal(2) ** e
    k = exact.adjusted()                     # exact = m 10^k with |m| in [1, 10)
    mantissa, _, exponent = format(float(exact.scaleb(-k)), spec).partition("e")
    return f"{mantissa}e{int(exponent or 0) + k:+03d}"


def build_model(spec: dict) -> ModelGeometry:
    """Build and validate a model from a plain description dict.

    Quotient: ``{"kind": "lie_group_quotient", "dim": n, "covolume": v,
    "brackets": [[i, j, k, coeff], ...]}`` with 1-based indices meaning
    ``[e_i, e_j] = coeff * e_k``.  Product: ``{"kind":
    "product_of_space_forms", "factors": [[type, dim, radius], ...]}``.
    """
    kind = spec.get("kind")
    if kind == LIE_GROUP_QUOTIENT:
        n = _field(spec, "dim", _integer, 0, "an integer")
        if n < 3:
            raise GeometryError(f"quotient models need dim >= 3, got {n}")
        covolume = _field(spec, "covolume", float, 1.0, "a number")
        if not 0 < covolume < math.inf:
            raise GeometryError(f"covolume must be positive and finite, got {covolume}")
        c = _validate_brackets(n, spec.get("brackets", ()))
        return ModelGeometry(kind=kind, dim=n, structure_constants=_readonly(c),
                             covolume=covolume, ricci_terms=_ricci_terms(c))
    if kind == PRODUCT_OF_SPACE_FORMS:
        raw = spec.get("factors", ())
        if not raw:
            raise GeometryError("product model needs at least one factor")
        factors = []
        for f in raw:
            ftype, d, r = _entry(f, (str, _integer, float), "factor entry needs 'type dim radius'")
            ftype = ftype.replace("-", "_")
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
        return ModelGeometry(kind=kind, dim=n, factors=tuple(factors),
                             layout=_block_layout(factors))
    raise GeometryError(f"unknown model kind {kind!r}")


def _ricci_terms(c: np.ndarray) -> tuple[np.ndarray, ...]:
    """Constants of ``_ricci_form`` from structure constants (..., n, n, n): ad,
    ad and c reshaped to (..., n, n * n), and the Killing form c^k_{ai} c^i_{bk}.

    The Killing form of brackets near 1e154 or more overflows; that is no
    warning here, since ``_quotient_batch`` names it as the model's overflow.
    """
    ad = np.swapaxes(c, -3, -2).copy()                     # ad[a, k, i] = c^k_{ai}
    flat = ad.shape[:-2] + (ad.shape[-1] ** 2,)
    ad_flat = ad.reshape(flat)
    with np.errstate(over="ignore", invalid="ignore"):
        killing = ad_flat @ np.swapaxes(np.swapaxes(ad, -1, -2).reshape(flat), -1, -2)
    terms = (ad, ad_flat, c.reshape(flat), killing)
    for a in terms:
        a.setflags(write=False)
    return terms


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


def _block_layout(factors: Sequence[tuple[str, int, float]]) -> tuple[np.ndarray, ...]:
    """Layout of a product with these factors, on n x n forms flattened to
    n * n entries, as read-only arrays: the index of each factor block's
    first diagonal entry, the 0/1 map (num_factors, n * n) that puts each
    scale on its block's diagonal, the fixed-basis Ricci form (n, n), the
    same at every scale, the factor of each direction (n,), and the factor
    and sqrt(2 d (d - 1)) of each d-sphere (num_spheres,)."""
    dims = [d for _, d, _ in factors]
    n = sum(dims)
    # plain lists first: a few numpy calls build the arrays, in every model build
    block = [f for f, d in enumerate(dims) for _ in range(d)]
    spread = np.zeros((len(dims), n * n))
    spread[block, range(0, n * n, n + 1)] = 1.0
    ric = [dims[f] - 1.0 if factors[f][0] == FACTOR_SPHERE else 0.0 for f in block]
    sphere = [f for f, (ftype, _, _) in enumerate(factors) if ftype == FACTOR_SPHERE]
    out = (np.array([sum(dims[:f]) * (n + 1) for f in range(len(dims))]), spread,
           np.diag(ric), np.array(block), np.array(sphere, dtype=np.intp),
           np.array([math.sqrt(2.0 * dims[f] * (dims[f] - 1)) for f in sphere]))
    for a in out:
        a.setflags(write=False)
    return out


def metric_from_scales(model: ModelGeometry, scales) -> np.ndarray:
    """Block-scalar product metric (n, n) of factor scales (num_factors,),
    or a stack (M, n, n) of scales (M, num_factors)."""
    scales = np.asarray(scales, dtype=float)
    return np.dot(scales, model.layout[1]).reshape(*scales.shape[:-1], model.dim, model.dim)


def scale_metric(g: np.ndarray, lam_sq: float) -> np.ndarray:
    """Return lam_sq * g (the metric scaled by lambda^2)."""
    if not lam_sq > 0:
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
    relative to max |g| of its metric, at every scale, or None."""
    bad = np.argwhere(np.abs(g - ref) > 1e-12 * np.abs(g).max(axis=(-2, -1), keepdims=True))
    return tuple(int(i) for i in bad[0]) if len(bad) else None


def _metric_eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of one quotient metric or a stack from
    ``_metric_array``, after validation."""
    _check_finite(mats)
    mats_t = np.swapaxes(mats, -1, -2)
    if mats.tobytes() != mats_t.tobytes():    # bitwise equality is the hot path
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
    starts, spread = model.layout[:2]
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


def _frames(model: ModelGeometry, mats: np.ndarray, eigh=None):
    """Milnor frames of one metric (n, n) or a stack (M, n, n) from
    ``_metric_array``, as a stack; ``eigh`` is its ``_metric_eigh``, if taken.

    Returns the eigenvalues of each metric, the frame change L (symmetric
    inverse square root), its inverse, and the transported structure
    constants ``ct[m, c, a, b] = Linv[m, c, k] L[m, i, a] L[m, j, b] c^k_{ij}``.
    """
    n = model.dim
    evals, vecs = _metric_eigh(mats) if eigh is None else eigh
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
    # one output buffer, no temporary for the strided 5-D difference
    rm = np.subtract(t1, t1.transpose(0, 2, 1, 3, 4), out=np.empty(t1.shape))
    rm -= t3
    return rm


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
    """Sectional curvature extremes of a quotient's tensor at n >= 4 (``curvature``
    reads them off the batch at n = 3 and on products).

    * ``op`` diagonal: coordinate planes attain the extremes of its diagonal.
    * n = 4: Thorpe's trick, see ``_thorpe_min``.
    * n >= 5 with a non-diagonal ``op``: sampled inner values.
    """
    op = _curvature_operator(rm)
    diag = np.diag(op)
    if np.array_equal(op, np.diag(diag)):
        return float(diag.min()), float(diag.max())
    if rm.shape[0] == 4:
        return _thorpe_min(op), -_thorpe_min(-op)
    return _sampled_sec_extremes(op, plane_samples, seed)


CurvatureBatch = namedtuple("CurvatureBatch", (
    "ric",        # np.ndarray (M, n, n) orthonormal-frame Ricci
    "scalar",     # np.ndarray (M,)
    "rm_norm",    # np.ndarray (M,) pointwise |Rm|
    "ric_eigs",   # np.ndarray (M, n) ascending Ricci eigenvalues
    "vol",        # np.ndarray (M,) total volume
))
CurvatureBatch.__doc__ = """Curvature of a stack of M metrics, one row per metric: see
    ``_quotient_batch`` and ``_product_batch``."""


def _ricci_form(terms: tuple[np.ndarray, ...], g: np.ndarray,
                ginv: np.ndarray) -> np.ndarray:
    """Fixed-basis Ricci forms (..., n, n) of metrics g (..., n, n), inverses ``ginv``,
    by the closed form of the module docstring; one metric pays no stacking."""
    ad, ad_flat, c_flat, killing = terms
    n = g.shape[-1]
    ginv = ginv[..., None, :, :]                   # an axis for the index a
    flat = g.shape[:-2] + (n, n * n)               # (..., n, n, n) -> (..., n, n * n)
    # g^{ij} g_{kl} c^k_{ai} c^l_{bj}: ad_a against (g ad_b g^-1)
    t1 = ad_flat @ (g[..., None, :, :] @ ad @ ginv).reshape(flat).swapaxes(-1, -2)
    # the lowered constants low[a, i, j] = g_{ak} c^k_{ij}, against g^-1 low_b g^-1
    low = g @ c_flat
    t3 = low @ (ginv @ low.reshape(flat[:-1] + (n, n)) @ ginv).reshape(flat).swapaxes(-1, -2)
    out = 0.125 * t3 - 0.25 * (t1 + killing)       # half of Ric, up to rounding
    return out + out.swapaxes(-1, -2)


def _frame_ricci(model: ModelGeometry, g: np.ndarray, evals: np.ndarray,
                 vecs: np.ndarray, s: np.ndarray | None) -> np.ndarray:
    """L Ric L, L = g^(-1/2), of quotient metrics g (..., n, n) with eigenpairs (evals,
    vecs); Ric is taken in the exactly rescaled basis e_i 2^-s_i, s (..., n), that puts
    each g_ii in [1/2, 2).  An overflow is left as inf or NaN for the caller to name."""
    vecs_t = vecs.swapaxes(-1, -2)
    L = (vecs / np.sqrt(evals)[..., None, :]) @ vecs_t
    ginv = (vecs / evals[..., None, :]) @ vecs_t
    terms, left, right = model.ricci_terms, L, L
    if s is not None:                 # None is s = 0: the flow's Ric, bit for bit
        ss = s[..., :, None] + s[..., None, :]
        terms = _ricci_terms(np.ldexp(model.structure_constants,
                                      s[..., None, None] - ss[..., None, :, :]))
        g, ginv = np.ldexp(g, -ss), np.ldexp(ginv, ss)
        left, right = np.ldexp(L, s[..., None, :]), np.ldexp(L, s[..., :, None])
    with np.errstate(over="ignore", invalid="ignore"):
        ric = left @ _ricci_form(terms, g, ginv) @ right
        return 0.5 * (ric + ric.swapaxes(-1, -2))


def _overflow(model: ModelGeometry) -> GeometryError:
    return GeometryError("curvature of the model overflows at this metric: largest "
                         f"bracket coefficient {float(np.abs(model.structure_constants).max())!r}")


def _dim3_rm_norm(ric_eigs: np.ndarray, scalar):
    """|Rm| = hypot(2 |Ric_0|, R / sqrt(3)) at n = 3, cancelling nothing near Einstein."""
    traceless = np.hypot.reduce(ric_eigs.T - scalar / 3.0, axis=0)
    return np.hypot(2.0 * traceless, scalar / math.sqrt(3.0))


def _quotient_batch(model: ModelGeometry, mats: np.ndarray):
    """The batch of quotient metrics, from one stacked eigendecomposition,
    and at n >= 4 their tensors (else None); Ricci from ``_frame_ricci``."""
    n = model.dim
    evals, vecs = _metric_eigh(mats)
    mats, evals, vecs = mats.reshape(-1, n, n), evals.reshape(-1, n), vecs.reshape(-1, n, n)
    s = np.frexp(mats.diagonal(axis1=1, axis2=2))[1] // 2           # (M, n)
    ric = _frame_ricci(model, mats, evals, vecs, s if s.any() else None)
    with np.errstate(over="ignore", invalid="ignore"):         # checked below
        scalar = np.trace(ric, axis1=1, axis2=2)
    if not (np.isfinite(ric).all() and np.isfinite(scalar).all()):
        raise _overflow(model)
    ric_eigs = np.linalg.eigvalsh(ric)
    if n == 3:
        rm, norms = None, _dim3_rm_norm(ric_eigs, scalar)
    else:                                        # np.hypot neither under- nor overflows
        rm = _rm_from_structure(_frames(model, mats, (evals, vecs))[3])
        norms = np.hypot.reduce(rm.reshape(len(rm), -1), axis=1)
    vol = np.prod(np.sqrt(evals), axis=1) * model.covolume      # det g may overflow
    return CurvatureBatch(ric=ric, scalar=scalar, rm_norm=norms, ric_eigs=ric_eigs, vol=vol), rm


def _quotient_volume(model: ModelGeometry, evals: np.ndarray) -> float:
    return math.prod(map(math.sqrt, evals.tolist())) * model.covolume  # the batch's, in order


def _product_batch(model: ModelGeometry, scales: np.ndarray) -> CurvatureBatch:
    """The batch of products at positive scales (M, num_factors), or a row at (num_factors,),
    in closed form: Ric is (d - 1) / s on each direction of a d-sphere of scale s and 0
    on circles and flat tori; |Rm| adds sqrt(2 d (d - 1)) / s per d-sphere."""
    ric_form, block, sphere, coeff = model.layout[2:]
    ric_mat = ric_form / scales[..., block, None]         # (..., n, n), 0 off the diagonal
    ric = ric_mat.diagonal(axis1=-2, axis2=-1)             # (..., n) per direction
    # left to right, which numpy's sum is not: it pairs terms by memory layout
    scalar = np.add.accumulate(ric, axis=-1)[..., -1]
    norms = np.hypot.reduce(coeff / scales[..., sphere], axis=-1, initial=0.0)
    return CurvatureBatch(ric=ric_mat, scalar=scalar,
                          rm_norm=norms, ric_eigs=np.sort(ric, axis=-1),
                          vol=_product_volume(model, scales))


def _product_volume(model: ModelGeometry, scales: np.ndarray) -> np.ndarray:
    return math.prod(_factor_volume(ftype, d, scales[..., f, None])  # array pow, as the batch's
                     for f, (ftype, d, _) in enumerate(model.factors))[..., 0]


def _row(model: ModelGeometry, g) -> tuple[CurvatureBatch, np.ndarray | None]:
    """``curvature_batch``'s row of one metric g, bit for bit, with floats, and what
    sec extremes need: a product's scales, an n >= 4 quotient's tensor, else None."""
    g = _metric_array(model, g, stack=False)
    if model.kind != LIE_GROUP_QUOTIENT:
        row = _product_batch(model, extra := factor_scales(model, g))
    elif model.dim > 3:
        row, extra = _quotient_batch(model, g)
        row, extra = CurvatureBatch(*(a[0] for a in row)), extra[0]
    else:       # the batch's IEEE operations, in the same order, on 2-D arrays and floats
        evals, vecs = _metric_eigh(g)
        s = [math.frexp(x)[1] // 2 for x in g.diagonal().tolist()]
        ric = _frame_ricci(model, g, evals, vecs, np.array(s) if any(s) else None)
        a, b, c = ric.diagonal().tolist()
        scalar = a + b + c
        if not (math.isfinite(scalar) and np.isfinite(ric).all()):
            raise _overflow(model)
        ric_eigs = np.linalg.eigvalsh(ric)
        return CurvatureBatch(ric, scalar, float(_dim3_rm_norm(ric_eigs, scalar)), ric_eigs,
                              _quotient_volume(model, evals)), None
    return CurvatureBatch(row.ric, float(row.scalar), float(row.rm_norm), row.ric_eigs,
                          float(row.vol)), extra


def curvature_batch(model: ModelGeometry, mats: np.ndarray) -> CurvatureBatch:
    """Ricci, scalar, |Rm|, Ricci eigenvalues and volume of a stack (M, n, n),
    or of one metric (n, n) as M = 1; no plane sampling."""
    mats = _metric_array(model, mats)
    if model.kind == LIE_GROUP_QUOTIENT:
        return _quotient_batch(model, mats)[0]
    return _product_batch(model, factor_scales(model, mats).reshape(-1, len(model.factors)))


def curvature(model: ModelGeometry, g: np.ndarray, *,
              plane_samples: int = _DEFAULT_PLANE_SAMPLES,
              seed: int = 0) -> CurvatureData:
    """The batch row of (model, g) and its sectional-curvature extremes.
    ``plane_samples`` and ``seed`` matter only where no exact extremes are
    known (see ``CurvatureData``)."""
    row, extra = _row(model, g)
    if model.kind != LIE_GROUP_QUOTIENT:    # 1/s on a sphere plane, 0 on a mixed or flat one
        hi = max((1.0 / s for (ftype, _, _), s in zip(model.factors, extra.tolist())
                  if ftype == FACTOR_SPHERE), default=0.0)
        lo = hi if len(model.factors) == 1 else 0.0
    elif extra is None:     # n = 3: the curvature operator's eigenvalues are R/2 - Ric_k
        half = row.scalar / 2.0
        lo, hi = half - float(row.ric_eigs[-1]), half - float(row.ric_eigs[0])
    else:
        lo, hi = _sec_extremes(extra, plane_samples, seed)
    return CurvatureData(ric=_readonly(row.ric), scalar=row.scalar, rm_norm=row.rm_norm,
                         sec_min=lo, sec_max=hi, ric_eigs=_readonly(row.ric_eigs),
                         vol=row.vol)


def rm_norm(model: ModelGeometry, g: np.ndarray) -> float:
    """Pointwise |Rm| for the integrator's blow-up test: the batch row's, so
    it equals the recorded column bit for bit."""
    return _row(model, g)[0].rm_norm


def ricci_fixed_basis(model: ModelGeometry, g: np.ndarray) -> np.ndarray:
    """Ricci tensor as a bilinear form in the fixed basis: ``_ricci_form``
    on quotients, the same form at every scale on products."""
    g = _metric_array(model, g, stack=False)
    if model.kind == LIE_GROUP_QUOTIENT:
        evals, vecs = _metric_eigh(g)
        return _ricci_form(model.ricci_terms, g, (vecs / evals) @ vecs.T)
    factor_scales(model, g)
    return model.layout[2]      # d - 1 on a d-sphere's block, else 0


# ---------------------------------------------------------------------------
# volume and diameter

def unit_sphere_volume(d: int) -> float:
    """Riemannian volume of the round unit d-sphere."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def _factor_volume(ftype: str, d: int, s):
    """Volume of one factor at scale s (a float or an array of scales)."""
    if ftype == FACTOR_SPHERE:
        return unit_sphere_volume(d) * s ** (d / 2.0)
    if ftype == FACTOR_CIRCLE:
        return 2.0 * math.pi * s ** 0.5
    return (2.0 * math.pi * s ** 0.5) ** d


def volume(model: ModelGeometry, g: np.ndarray) -> float:
    """Total volume of one metric, its batch row's, computing no curvature."""
    g = _metric_array(model, g, stack=False)
    if model.kind == LIE_GROUP_QUOTIENT:
        return _quotient_volume(model, _metric_eigh(g)[0])
    return float(_product_volume(model, factor_scales(model, g)))


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
