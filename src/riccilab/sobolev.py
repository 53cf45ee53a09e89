"""Integral curvature norms and two-sided Sobolev constant estimates.

The L^2 Sobolev constant used throughout is the smallest C with

    ||u||_{2n/(n-2)}  <=  C ||grad u||_2 + vol^{-1/n} ||u||_2 ,

which is invariant under metric scaling.  It is never computed exactly:
``gallot_upper`` gives a pluggable upper bound of the form
``c(n, kappa) * diam / vol^{1/n}`` and ``sobolev_lower`` extracts a lower
bound from explicit test functions (any single u bounds the defining sup
from below).  On homogeneous models every integrand is constant, so the
curvature norms reduce to closed forms.  ``GallotConstant``,
``SobolevEstimate``, ``Witness``, ``WitnessNorms`` and ``LowerBound`` are
``collections.namedtuple`` records with tuple semantics, whose field types
are comments, so that importing the module compiles no ``ForwardRef``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    FACTOR_FLAT_TORUS,
    FACTOR_SPHERE,
    LIE_GROUP_QUOTIENT,
    CurvatureData,
    GeometryError,
    ModelGeometry,
    _factor_volume,
    diameter,
    factor_scales,
    unit_sphere_volume,
    volume,
)

__all__ = [
    "GallotConstant",
    "SobolevEstimate",
    "Witness",
    "WitnessNorms",
    "rm_lp_norm",
    "lp_norm_of_constant",
    "gallot_upper",
    "witness_family",
    "witness_norms",
    "sobolev_lower",
    "integral_ricci_deficit",
    "sobolev_estimate",
    "DEFAULT_GALLOT",
]

_REFINE_TOL = 1e-6
_MAX_GRID = 1 << 17
_START_GRID = 512
FAMILY_NAMES = ("eigenfunction", "bump", "cap")

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class GallotConstant(namedtuple("GallotConstant", (
        "c0",       # float
        "growth",   # str
), defaults=(1.0, "exp_sqrt"))):
    """Configurable constant c(n, kappa) for the diameter/volume Sobolev bound.

    The default grows like exp(sqrt(kappa)) from a flat table value at
    kappa = 0; ``growth="constant"`` freezes it at the table value.  Either
    way it is monotone nondecreasing in kappa and is echoed into reports.
    """

    __slots__ = ()

    def __call__(self, n: int, kappa: float) -> float:
        if not kappa >= 0:
            raise ValueError(f"kappa must be nonnegative, got {kappa}")
        if self.growth == "constant":
            return self.c0
        if self.growth == "exp_sqrt":
            return self.c0 * math.exp(math.sqrt(kappa))
        raise ValueError(f"unknown gallot growth {self.growth!r}")

    def describe(self) -> dict:
        return self._asdict()


DEFAULT_GALLOT = GallotConstant()


SobolevEstimate = namedtuple("SobolevEstimate", (
    "upper",                 # float | None
    "lower",                 # float | None
    "kappa",                 # float
    "witness",               # str | None
    "lower_clamped",         # bool
    "lower_exceeds_upper",   # bool
    "strategy",              # dict | None
), defaults=(None, False, False, None))
SobolevEstimate.__doc__ = """Two-sided estimate; either side may be absent (None)."""


def lp_norm_of_constant(value: float, vol: float, p: float) -> float:
    """(integral of value^p)^(1/p) for a constant integrand: value * vol^(1/p)."""
    if not p >= 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    if not vol > 0:
        raise ValueError(f"volume must be positive, got {vol}")
    return float(value) * vol ** (1.0 / p)


def rm_lp_norm(curv: CurvatureData, vol: float, p: float) -> float:
    """L^p norm of |Rm|; at p = n/2 this is the scale-invariant curvature norm."""
    return lp_norm_of_constant(curv.rm_norm, vol, p)


def gallot_upper(n: int, kappa: float, diam: float, vol: float,
                 c_strategy: Callable[[int, float], float] = DEFAULT_GALLOT) -> float:
    """Upper bound c(n, kappa) * diam / vol^(1/n) for the Sobolev constant."""
    if not (diam > 0 and vol > 0):
        raise ValueError(f"diam and vol must be positive, got {diam}, {vol}")
    c = c_strategy(n, kappa)
    if not c > 0:
        raise ValueError(f"Sobolev constant strategy returned nonpositive value {c}")
    return c * diam / vol ** (1.0 / n)


def integral_ricci_deficit(curv: CurvatureData, vol: float, p: float,
                           kappa: float = 0.0) -> float:
    """Normalized L^p norm of the negative part of (lowest Ricci eigenvalue - kappa).

    Homogeneity makes the integrand constant, so the volume-normalized norm
    equals the pointwise deficit max(0, kappa - min eig Ric); ``vol`` is
    validated but drops out.
    """
    n = len(curv.ric_eigs)
    if not p > n / 2.0:
        raise ValueError(f"deficit exponent must satisfy p > n/2 = {n/2}, got {p}")
    if not vol > 0:
        raise ValueError(f"volume must be positive, got {vol}")
    return max(0.0, kappa - float(curv.ric_eigs[0]))


# ---------------------------------------------------------------------------
# test-function witnesses (1D profiles on a sphere/circle factor of a product)


Witness = namedtuple("Witness", (
    "name",           # str
    "factor_index",   # int
    "profile",        # Callable[[np.ndarray], np.ndarray]
    "dprofile",       # Callable[[np.ndarray], np.ndarray]
    "breakpoints",    # tuple[float, ...]
), defaults=((),))
Witness.__doc__ = """Piecewise-smooth profile on one factor, with analytic derivative.

    ``breakpoints`` lists interior coordinates where the profile is not
    smooth (cap kinks); quadrature splits there so each piece converges at
    second order.
    """


WitnessNorms = namedtuple("WitnessNorms", (
    "name",        # str
    "l2_sq",       # float
    "lq_sq",       # float: ||u||_q^2 with q = 2n/(n-2)
    "grad_sq",     # float
    "quotient",    # float: (||u||_q - vol^{-1/n} ||u||_2) / ||grad u||_2
    "grid_used",   # int
    "converged",   # bool
))


def _bump(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


def _dbump(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi)) * (-2.0 * xi / (1.0 - xi * xi) ** 2)
    return out


def _tent(x: np.ndarray, width: float) -> np.ndarray:
    return np.clip(1.0 - x / width, 0.0, 1.0)


def _dtent(x: np.ndarray, width: float) -> np.ndarray:
    return np.where((x >= 0) & (x < width), -1.0 / width, 0.0)


def _profiles(family: str, ftype: str) -> list[tuple[str, Callable, Callable]]:
    # Sphere profiles are functions of the polar angle on [0, pi]; circle and
    # torus profiles live on [0, 2 pi] and must be periodic, so caps and bumps
    # are centered at pi (distance-from-center coordinate r).
    if ftype == FACTOR_SPHERE:
        radial = lambda t: np.asarray(t, dtype=float)
        dradial = lambda t: np.ones_like(np.asarray(t, dtype=float))
        half = math.pi / 2.0
        center = math.pi / 2.0
    else:
        radial = lambda t: np.abs(np.asarray(t, dtype=float) - math.pi)
        dradial = lambda t: np.sign(np.asarray(t, dtype=float) - math.pi)
        half = math.pi
        center = math.pi
    if family == "eigenfunction":
        return [("eigenfunction", np.cos, lambda t: -np.sin(t), ())]
    if family == "bump":
        return [("bump", lambda t: _bump((np.asarray(t, dtype=float) - center) / half),
                 lambda t: _dbump((np.asarray(t, dtype=float) - center) / half) / half,
                 ())]
    if family == "cap":
        out = []
        for label, w in (("narrow", half / 2.0), ("wide", half)):
            if ftype == FACTOR_SPHERE:
                breaks = (w,)
            else:
                breaks = (math.pi - w, math.pi, math.pi + w)
            out.append((f"cap-{label}",
                        lambda t, w=w: _tent(radial(t), w),
                        lambda t, w=w: _dtent(radial(t), w) * dradial(t),
                        breaks))
        return out
    raise ValueError(f"unknown test-function family {family!r}; "
                     f"choose from {FAMILY_NAMES}")


def witness_family(model: ModelGeometry, family: str) -> list[Witness]:
    """All witnesses of a named family, one set per eligible factor."""
    if model.kind == LIE_GROUP_QUOTIENT:
        raise GeometryError(
            "test-function witnesses need a product model with a sphere or "
            "circle factor; Lie group quotients have none")
    out = []
    for idx, (ftype, _, _) in enumerate(model.factors):
        for pname, prof, dprof, breaks in _profiles(family, ftype):
            out.append(Witness(name=f"{pname}[factor{idx}:{ftype}]",
                               factor_index=idx, profile=prof, dprofile=dprof,
                               breakpoints=breaks))
    return out


def _segment_nodes(length: float, breaks: Sequence[float], grid: int) -> list[np.ndarray]:
    """Split [0, length] at interior breakpoints; each piece gets its own grid."""
    cuts = sorted({b for b in breaks if 1e-12 < b < length - 1e-12})
    edges = [0.0, *cuts, length]
    segments = []
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(16, int(round(grid * (b - a) / length)))
        segments.append(np.linspace(a, b, m + 1))
    return segments


def _factor_integrals(model: ModelGeometry, g: np.ndarray, w: Witness,
                      grid: int) -> tuple[float, float, float]:
    """Trapezoid integrals of |u|^2, |u|^q with q = 2n/(n-2) and |grad u|^2
    over the whole manifold.

    ``grid`` counts quadrature intervals; the domain is split at the
    witness's breakpoints so discontinuous derivatives (caps) still
    converge at second order.
    """
    n = model.dim
    q = 2.0 * n / (n - 2.0)
    ftype, d, _ = model.factors[w.factor_index]
    scales = factor_scales(model, g).tolist()
    s = scales[w.factor_index]
    rest = 1.0
    for idx, ((ft, fd, _), fs) in enumerate(zip(model.factors, scales)):
        if idx != w.factor_index:
            rest *= _factor_volume(ft, fd, fs)
    length = math.pi if ftype == FACTOR_SPHERE else 2.0 * math.pi
    i2 = iq = igrad = 0.0
    for x in _segment_nodes(length, w.breakpoints, grid):
        if ftype == FACTOR_SPHERE:
            weight = unit_sphere_volume(d - 1) * s ** (d / 2.0) * np.sin(x) ** (d - 1)
        else:
            base = math.sqrt(s)
            if ftype == FACTOR_FLAT_TORUS:
                base *= (2.0 * math.pi * math.sqrt(s)) ** (d - 1)
            weight = np.full_like(x, base)
        # nudge edge nodes into the segment so dprofile takes one-sided limits
        xs = x.copy()
        shift = 1e-9 * (x[1] - x[0])
        xs[0] += shift
        xs[-1] -= shift
        u = np.abs(np.asarray(w.profile(x), dtype=float))
        du = np.asarray(w.dprofile(xs), dtype=float)
        i2 += rest * float(_trapezoid(u ** 2.0 * weight, x))
        iq += rest * float(_trapezoid(u ** q * weight, x))
        igrad += rest * float(_trapezoid(du * du / s * weight, x))
    return i2, iq, igrad


def witness_norms(model: ModelGeometry, g: np.ndarray, w: Witness) -> WitnessNorms:
    """Norms of one witness, grid-refined until two resolutions agree to 1e-6.

    The quadrature starts at 512 intervals and doubles until the norms
    converge or reach 2**17.
    """
    n = model.dim
    if n < 3:
        raise GeometryError(f"Sobolev norms need dim >= 3, got {n}")
    q = 2.0 * n / (n - 2.0)
    vol = volume(model, g)
    grid = _START_GRID
    prev = None
    converged = False
    while True:
        vals = i2, iq, igrad = _factor_integrals(model, g, w, grid)
        if prev is not None:
            if all(abs(a - b) <= _REFINE_TOL * abs(b) or a == b
                   for a, b in zip(prev, vals)):
                converged = True
                break
            if grid >= _MAX_GRID:
                break
        prev = vals
        grid *= 2
    l2 = math.sqrt(i2)
    lq = iq ** (1.0 / q)
    gr = math.sqrt(igrad)
    quot = float("nan") if gr == 0.0 else (lq - vol ** (-1.0 / n) * l2) / gr
    return WitnessNorms(name=w.name, l2_sq=i2, lq_sq=lq * lq, grad_sq=igrad,
                        quotient=quot, grid_used=grid, converged=converged)


LowerBound = namedtuple("LowerBound", (
    "value",     # float
    "witness",   # str | None
    "clamped",   # bool
    "skipped",   # tuple[str, ...]
    "norms",     # tuple[WitnessNorms, ...]
))


def sobolev_lower(model: ModelGeometry, g: np.ndarray,
                  family: str | Sequence[Witness] = "eigenfunction") -> LowerBound:
    """Best lower bound on the Sobolev constant over a witness family.

    A witness is skipped when its gradient vanishes relative to its own
    norm, grad_sq <= 1e-30 lq_sq: both scale as s^((n-2)/2) under g -> s g,
    so the test holds at every scale.  A negative best value (possible
    only through roundoff) is clamped to 0 with a flag.
    """
    witnesses = witness_family(model, family) if isinstance(family, str) else list(family)
    if not witnesses:
        raise ValueError("empty test-function family")
    best, best_name, skipped, norms = -math.inf, None, [], []
    for w in witnesses:
        wn = witness_norms(model, g, w)
        if wn.grad_sq <= 1e-30 * wn.lq_sq:
            skipped.append(w.name)
            continue
        norms.append(wn)
        if wn.quotient > best:
            best, best_name = wn.quotient, w.name
    if best_name is None:
        raise ValueError("all witnesses in the family are degenerate "
                         f"(skipped: {skipped})")
    clamped = best < 0.0
    return LowerBound(value=max(best, 0.0), witness=best_name, clamped=clamped,
                      skipped=tuple(skipped), norms=tuple(norms))


def sobolev_estimate(model: ModelGeometry, g: np.ndarray, *,
                     kappa: float = 0.0,
                     c_strategy: GallotConstant = DEFAULT_GALLOT,
                     family: str = "eigenfunction",
                     diam_bound: float | None = None) -> SobolevEstimate:
    """Combine upper and lower estimates; either side degrades to None.

    Quotient models have no exact diameter, so the upper bound needs a
    user-supplied ``diam_bound``; witnesses exist on products only.  A
    configured strategy can make lower exceed upper; that is flagged, not
    raised.
    """
    n = model.dim
    vol = volume(model, g)
    diam = diameter(model, g)
    if diam is None:
        diam = diam_bound
    upper = None if diam is None else gallot_upper(n, kappa, diam, vol, c_strategy)
    lower = witness = None
    clamped = False
    try:
        lb = sobolev_lower(model, g, family=family)
        lower, witness, clamped = lb.value, lb.witness, lb.clamped
    except (GeometryError, ValueError):
        pass
    exceeds = upper is not None and lower is not None and lower > upper
    strategy = c_strategy.describe() if hasattr(c_strategy, "describe") else None
    return SobolevEstimate(upper=upper, lower=lower, kappa=kappa, witness=witness,
                           lower_clamped=clamped, lower_exceeds_upper=exceeds,
                           strategy=strategy)
