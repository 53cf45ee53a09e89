"""Identity, inequality and hypothesis checks along trajectories.

Verdicts come in two tiers.  Statements whose constants are fully explicit
(the volume identity, the discrete Hoelder suite, the diameter bound, the
factor-2 curvature-norm bound once its threshold chain is configured) get a
boolean ``pass``/``fail``.  Statements whose universal constants exist but
are never valued get ``ratio-extracted``: the check reports the supremum of
LHS over the structural right-hand side as a fitted constant and asserts
only finiteness and cross-run stability.  Hypothesis-style statements
report ``hypothesis-not-met`` with the margin instead of failing.

Time derivatives use fourth-order finite differences on the uniform record
grid (offset stencils one node in from each end), falling back to plain
central differences when the grid is not uniform.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import geometry, sobolev
from .constants import ConstantChain, ConstantPrimitives, theorem_c_threshold
from .flow import Trajectory, delta0_from_row0, horizon_T0
from .geometry import LIE_GROUP_QUOTIENT
from .sobolev import WitnessNorms

__all__ = [
    "CheckReport",
    "grid_derivative",
    "check_volume_identity",
    "check_scalar_identity",
    "check_n2_bound",
    "check_c0_bound",
    "check_lp_evolution",
    "check_holder",
    "holder_suite",
    "check_diameter_bound",
    "check_sobolev_along_flow",
    "hypothesis_report",
    "hypothesis_invariants",
    "run_suite",
    "suite_failed",
    "SUITE_CHECKS",
]

PASS = "pass"
FAIL = "fail"
RATIO = "ratio-extracted"
HYP_NOT_MET = "hypothesis-not-met"
UNAVAILABLE = "unavailable"

_REL_SLACK = 1e-12
_IDENTITY_TOL = 1e-7          # residual tolerance of the two exact identities
_WORST_TOP = 3                # worst residuals listed per identity report
_MAX_WITNESS_TIMES = 17       # record times at which Sobolev witnesses are evaluated


class CheckReport:
    """One check outcome, a slot class; ``details`` carries the worst offenders."""

    __slots__ = ("name", "status", "sup_ratio", "fitted_constant", "samples", "details",
                 "primitives_echo", "notes")

    def __init__(self, name: str, status: str, sup_ratio: float | None = None,
                 fitted_constant: float | None = None, samples: int = 0,
                 details: dict | None = None, primitives_echo: dict | None = None,
                 notes: tuple[str, ...] = ()):
        self.name, self.status, self.sup_ratio = name, status, sup_ratio
        self.fitted_constant, self.samples, self.notes = fitted_constant, samples, notes
        self.details = {} if details is None else details
        self.primitives_echo = {} if primitives_echo is None else primitives_echo

    def to_jsonable(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["notes"] = list(self.notes)
        return out


# ---------------------------------------------------------------------------
# finite differences on the record grid

_STENCIL_LEFT = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
_STENCIL_MID = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_STENCIL_RIGHT = np.array([-1.0, 6.0, -18.0, 10.0, 3.0]) / 12.0


def grid_derivative(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """d(values)/dt at the interior record times.

    Returns (interior indices, derivative, order).  Order 4 on uniform
    grids with at least five points, otherwise order 2 central differences.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(t) < 3:
        raise ValueError("need at least 3 recorded states for time derivatives")
    idx = np.arange(1, len(t) - 1)
    dt = np.diff(t)
    h = dt[0]
    uniform = np.max(np.abs(dt - h)) <= 1e-9 * h
    if not uniform or len(t) < 5:
        deriv = (v[idx + 1] - v[idx - 1]) / (t[idx + 1] - t[idx - 1])
        return idx, deriv, 2
    deriv = np.empty(len(idx))
    deriv[0] = _STENCIL_LEFT @ v[0:5] / h
    deriv[-1] = _STENCIL_RIGHT @ v[-5:] / h
    if len(idx) > 2:
        core = np.arange(2, len(t) - 2)
        deriv[1:-1] = (v[core - 2] - 8 * v[core - 1] + 8 * v[core + 1]
                       - v[core + 2]) / (12.0 * h)
    return idx, deriv, 4


def _worst(idx: np.ndarray, times: np.ndarray, residuals: np.ndarray) -> list[dict]:
    order = np.argsort(residuals)[::-1][:_WORST_TOP]
    return [{"t": float(times[idx[i]]), "residual": float(residuals[i])}
            for i in order]


# ---------------------------------------------------------------------------
# trajectory checks


def check_volume_identity(traj: Trajectory, tol: float = _IDENTITY_TOL) -> CheckReport:
    """dvol/dt = -R vol as an explicit identity, plus the norm-bound variants.

    The scalar-norm variant |R| vol <= (|R|^{n/2} vol)^{2/n} vol^{(n-2)/n}
    is an equality on homogeneous spaces and is asserted as such; the
    curvature-norm variant only fixes |R| <= c |Rm| up to the frame bound
    sqrt(n(n-1)/2), so its constant is fitted and checked against that bound.
    """
    if len(traj) < 3:
        raise ValueError("volume identity needs at least 3 recorded states")
    n = traj.model.dim
    t = traj.times
    vol = traj.derived["vol"]
    R = traj.derived["scalar_R"]
    rm = traj.derived["rm_norm"]
    idx, dvol, order = grid_derivative(t, vol)
    resid = np.abs(dvol + R[idx] * vol[idx]) / (np.abs(R[idx]) * vol[idx] + 1.0)
    ok = bool(np.max(resid) <= tol)

    # scalar-norm variant: exact equality at homogeneity; |R| is divided by
    # its maximum before the n/2 power, which overflows on tiny spheres
    abs_r = np.abs(R)
    r_max = float(abs_r.max()) or 1.0
    lhs = abs_r * vol
    rhs = r_max * ((abs_r / r_max) ** (n / 2.0) * vol) ** (2.0 / n) \
        * vol ** ((n - 2.0) / n)
    norm_gap = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, rhs)))
    ok = ok and norm_gap <= 1e-10

    curved = rm > 0.0
    frame_bound = math.sqrt(n * (n - 1) / 2.0)
    notes = ["equality at homogeneity for the R-norm variant"]
    fitted = None
    if np.any(curved):
        fitted = float(np.max(np.abs(R[curved]) / rm[curved]))
        if fitted > frame_bound * (1.0 + _REL_SLACK):
            ok = False
            notes.append("fitted |R|/|Rm| exceeds the frame bound")
    else:
        notes.append("vacuous: zero curvature throughout")
    return CheckReport(
        name="volume_identity",
        status=PASS if ok else FAIL,
        fitted_constant=fitted,
        samples=len(idx),
        details={
            "max_residual": float(np.max(resid)),
            "tolerance": tol,
            "fd_order": order,
            "r_norm_variant_gap": norm_gap,
            "frame_bound_on_R_over_Rm": frame_bound,
            "worst": _worst(idx, t, resid),
        },
        notes=tuple(notes),
    )


def check_scalar_identity(traj: Trajectory, tol: float = _IDENTITY_TOL) -> CheckReport:
    """dR/dt = 2 |Ric|^2, the homogeneous reduction of the scalar evolution.

    |Ric|^2 is the sum of the squared Ricci eigenvalues stored per record.
    """
    if len(traj) < 3:
        raise ValueError("scalar identity needs at least 3 recorded states")
    t = traj.times
    R = traj.derived["scalar_R"]
    idx, dR, order = grid_derivative(t, R)
    ric2 = np.sum(traj.derived["ric_eigs"][idx] ** 2, axis=1)
    resid = np.abs(dR - 2.0 * ric2) / (2.0 * ric2 + 1.0)
    ok = bool(np.max(resid) <= tol)
    return CheckReport(
        name="scalar_identity",
        status=PASS if ok else FAIL,
        samples=len(idx),
        details={"max_residual": float(np.max(resid)), "tolerance": tol,
                 "fd_order": order, "worst": _worst(idx, t, resid)},
    )


def check_n2_bound(traj: Trajectory, chain: ConstantChain) -> CheckReport:
    """Factor-2 bound on the n/2 curvature norm up to the horizon T0.

    Gated on the smallness hypothesis ||Rm||_{n/2}(0) cs0^2 <= eps(n, gamma)
    under the chain's configured primitives; if the hypothesis fails the
    report carries the margin instead of a verdict.
    """
    rm_n2 = traj.derived["rm_n2_norm"]
    theta0 = float(rm_n2[0]) * chain.cs0 ** 2
    margin = chain.eps_n_gamma - theta0
    notes = []
    vol0 = float(traj.derived["vol"][0])
    if abs(vol0 - 1.0) > 1e-9:
        notes.append(f"initial volume is {vol0!r}, not 1: rescaled statement")
    if margin < 0.0:
        return CheckReport(
            name="n2_bound", status=HYP_NOT_MET, samples=len(traj),
            details={"theta0": theta0, "threshold": chain.eps_n_gamma,
                     "margin": margin},
            primitives_echo=dict(chain.primitives), notes=tuple(notes))
    window = traj.times <= chain.T0 * (1.0 + 1e-12)
    rm0 = float(rm_n2[0])
    if rm0 == 0.0:
        vacuous = bool(np.max(rm_n2[window]) == 0.0)
        notes.append("vacuous: zero initial curvature norm")
        return CheckReport(
            name="n2_bound", status=PASS if vacuous else FAIL,
            sup_ratio=0.0 if vacuous else math.inf, samples=int(np.sum(window)),
            details={"theta0": theta0, "threshold": chain.eps_n_gamma,
                     "margin": margin, "T0": chain.T0},
            primitives_echo=dict(chain.primitives), notes=tuple(notes))
    sup_ratio = float(np.max(rm_n2[window]) / (2.0 * rm0))
    ok = sup_ratio <= 1.0 + _REL_SLACK
    worst_i = int(np.argmax(rm_n2[window]))
    return CheckReport(
        name="n2_bound", status=PASS if ok else FAIL, sup_ratio=sup_ratio,
        samples=int(np.sum(window)),
        details={"theta0": theta0, "threshold": chain.eps_n_gamma, "margin": margin,
                 "T0": chain.T0, "worst_t": float(traj.times[worst_i]),
                 "rm_n2_0": rm0, "rm_n2_max": float(np.max(rm_n2[window]))},
        primitives_echo=dict(chain.primitives), notes=tuple(notes))


def _intermediate_time_readout(traj: Trajectory, t_ref: float) -> dict | None:
    """Minimizer of ||Rm||_{p0/2} over recorded times in [t_ref/3, t_ref/2].

    The refined-control step picks such an intermediate time via a vanishing
    gradient integral; on homogeneous models that integral is identically
    zero, so the selection is degenerate and this is reported, not asserted.
    """
    n = traj.model.dim
    p = n * n / (2.0 * (n - 2.0))           # p0 / 2
    t = traj.times
    slack = _REL_SLACK * t_ref      # relative, so the window scales with the flow
    window = (t >= t_ref / 3.0 - slack) & (t <= t_ref / 2.0 + slack)
    if not np.any(window):
        return None
    norms = traj.derived["rm_norm"][window] * traj.derived["vol"][window] ** (1.0 / p)
    i = int(np.argmin(norms))
    return {"t_ref": float(t_ref), "t_star": float(t[window][i]),
            "rm_p0_half_norm": float(norms[i]),
            "note": "degenerate at homogeneity (gradient integral vanishes); "
                    "reported, not asserted"}


def check_c0_bound(traj: Trajectory, cs0: float) -> CheckReport:
    """Fitted constant of |Rm|(t) <= c (cs0^2 / t) ||Rm||_{n/2}(0) on (0, T0]."""
    n = traj.model.dim
    rm = traj.derived["rm_norm"]
    rm0_n2 = float(traj.derived["rm_n2_norm"][0])
    t = traj.times
    T0 = horizon_T0(traj.meta.get("gamma", 1.0), float(traj.derived["vol"][0]), cs0, n)
    window = (t > 0.0) & (t <= T0 * (1.0 + 1e-12))
    if rm0_n2 == 0.0:
        if np.any(rm[window] > 1e-12):
            return CheckReport(
                name="c0_bound", status=FAIL, samples=int(np.sum(window)),
                details={"reason": "zero initial n/2 norm but nonzero later "
                                   "curvature: integrator defect"})
        return CheckReport(name="c0_bound", status=RATIO, sup_ratio=0.0,
                           fitted_constant=0.0, samples=int(np.sum(window)),
                           notes=("vacuous: zero curvature throughout",),
                           details={"T0": T0})
    ratios = rm[window] * t[window] / (cs0 * cs0 * rm0_n2)
    fitted = float(np.max(ratios)) if ratios.size else 0.0
    if not math.isfinite(fitted):
        return CheckReport(name="c0_bound", status=FAIL, samples=int(ratios.size),
                           details={"reason": "non-finite fitted constant"})
    worst_i = int(np.argmax(ratios)) if ratios.size else 0
    t_last = float(t[window][-1]) if ratios.size else float(t[-1])
    return CheckReport(
        name="c0_bound", status=RATIO, sup_ratio=fitted, fitted_constant=fitted,
        samples=int(ratios.size),
        details={"T0": T0, "cs0": cs0,
                 "worst_t": float(t[window][worst_i]) if ratios.size else None,
                 "intermediate_time": _intermediate_time_readout(traj, t_last)})


def check_lp_evolution(traj: Trajectory, p: float) -> CheckReport:
    """Fitted constant of d/dt int |Rm|^p <= c p int |Rm|^{p+1}.

    The gradient term of the full evolution inequality vanishes identically
    on homogeneous models and is noted as such; the fit uses only times
    where the derivative is positive.
    """
    if p < 1.0:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    if len(traj) < 3:
        raise ValueError("evolution check needs at least 3 recorded states")
    t = traj.times
    rm = traj.derived["rm_norm"]
    vol = traj.derived["vol"]
    Jp = rm ** p * vol
    idx, dJp, order = grid_derivative(t, Jp)
    den = p * rm[idx] ** (p + 1.0) * vol[idx]
    notes = ["gradient term identically zero at homogeneity"]
    usable = den > 0.0
    positive = usable & (dJp > 1e-14 * np.maximum(1.0, np.abs(Jp[idx])))
    if not np.any(usable):
        return CheckReport(name=f"lp_evolution_p{p:g}", status=RATIO, sup_ratio=0.0,
                           fitted_constant=0.0, samples=0,
                           notes=(*notes, "vacuous: zero curvature throughout"),
                           details={"p": p, "fd_order": order})
    if not np.any(positive):
        fitted = 0.0
        notes.append("norm nonincreasing along the run: fitted constant 0")
    else:
        fitted = float(np.max(dJp[positive] / den[positive]))
    if not math.isfinite(fitted):
        return CheckReport(name=f"lp_evolution_p{p:g}", status=FAIL,
                           samples=int(np.sum(usable)),
                           details={"p": p, "reason": "non-finite fitted constant"})
    # pointwise variant d|Rm|/dt <= c |Rm|^2, spatially constant at homogeneity
    _, drm, _ = grid_derivative(t, rm)
    pw_den = rm[idx] ** 2
    pw_pos = (pw_den > 0.0) & (drm > 1e-14 * np.maximum(1.0, rm[idx]))
    pw_fit = float(np.max(drm[pw_pos] / pw_den[pw_pos])) if np.any(pw_pos) else 0.0
    return CheckReport(
        name=f"lp_evolution_p{p:g}", status=RATIO, sup_ratio=fitted,
        fitted_constant=fitted, samples=int(np.sum(usable)),
        details={"p": p, "fd_order": order,
                 "positive_derivative_samples": int(np.sum(positive)),
                 "pointwise_fit": pw_fit},
        notes=tuple(notes))


# ---------------------------------------------------------------------------
# discrete measure inequalities


def _holder_sides(f: np.ndarray, w: np.ndarray, p: float, n: int,
                  eps_grid: Sequence[float]):
    """Both sides of every inequality on T measures at once, one column each.

    ``f`` and ``w`` are (T, A) atom values and weights; a measure with fewer
    atoms is padded with value 0 and weight 0.  Powers are taken of the value
    where the weight is positive and of 1 elsewhere: a padded atom then adds
    0 * 1 = +0.0, exactly as 0 * 0^e did, but no zero base is ever raised to
    a power, which numpy's ``pow`` does several times slower.  A live atom of
    value 0 still gives 0^e = 0.  The epsilon split takes one column per grid
    value.  Returns the column names and (T, C) arrays lhs, rhs, the relative
    margin (inf where lhs == 0) and the failure flags.
    """
    p0 = n * n / (n - 2.0)
    exps = (p + 1.0, n / 2.0, p * n / (n - 2.0), n / 2.0 + 1.0,
            (n / 2.0) * n / (n - 2.0), p0 / 2.0, p * p0 / (p0 - 2.0),
            p0 / (p0 - 2.0), 1.0, n / (n - 2.0))
    distinct = tuple(dict.fromkeys(exps))
    ms = dict(zip(distinct,
                  np.einsum("ta,tka->kt", w, np.where(w > 0.0, f, 1.0)[:, None, :]
                            ** np.array(distinct)[:, None])))
    eps = np.asarray(eps_grid, dtype=float)
    e1 = -((n - 2.0) / n) ** 2
    e2 = 2.0 * (n - 2.0) / (n * n)
    lnn = ms[n / (n - 2.0)] ** ((n - 2.0) / n)
    split_lhs = ms[p0 / (p0 - 2.0)] ** ((p0 - 2.0) / p0)
    names = ("pair_exponent", "pair_exponent_critical", "iterated_exponent",
             *("epsilon_split",) * len(eps))
    lhs = np.column_stack([ms[p + 1.0], ms[n / 2.0 + 1.0], ms[p + 1.0],
                           np.repeat(split_lhs[:, None], len(eps), axis=1)])
    rhs = np.column_stack([
        # power-splitting inequality and its critical-exponent case
        ms[n / 2.0] ** (2.0 / n) * ms[p * n / (n - 2.0)] ** ((n - 2.0) / n),
        ms[n / 2.0] ** (2.0 / n) * ms[(n / 2.0) * n / (n - 2.0)] ** ((n - 2.0) / n),
        # iterated-exponent splitting
        ms[p0 / 2.0] ** (2.0 / p0) * ms[p * p0 / (p0 - 2.0)] ** ((p0 - 2.0) / p0),
        # epsilon-split interpolation, swept over the grid
        np.outer((2.0 / n) * ms[1.0], eps ** e1) + np.outer(((n - 2.0) / n) * lnn, eps ** e2),
    ])
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = np.where(lhs == 0.0, math.inf, (rhs - lhs) / np.maximum(lhs, 1e-300))
    return names, lhs, rhs, margin, lhs > rhs * (1.0 + _REL_SLACK)


_DEFAULT_EPS_GRID = np.logspace(-3, 3, 13)
_MAX_ATOMS = 20            # holder_suite draws 1 to 20 atoms per measure


def _holder_args(n: int, p: float, eps_grid: Sequence[float], count: int = 1) -> np.ndarray:
    """Reject arguments outside the inequalities' domain; returns the epsilon grid.

    The critical exponent n/(n-2) needs n >= 3, the splittings need a finite
    p >= 1, and the split's eps^(-((n-2)/n)^2) needs every epsilon positive
    and finite.  ``count`` (measures to check) must be at least 1.
    """
    if not n >= 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if not count >= 1:
        raise ValueError(f"count must be >= 1, got {count}")
    eps = np.asarray(eps_grid, dtype=float)
    if eps.ndim != 1 or not np.all(np.isfinite(eps) & (eps > 0.0)):
        raise ValueError(f"eps_grid/epsilon entries must be positive and finite, got {eps_grid}")
    return eps


def check_holder(samples: Sequence[tuple[float, float]], p: float, n: int,
                 epsilon: float | None = None,
                 eps_grid: Sequence[float] | None = None) -> CheckReport:
    """All four discrete inequalities on one weighted sample set.

    ``samples`` is a list of (value, weight) atoms defining the measure.
    The split inequality is swept over ``eps_grid`` (or the single
    ``epsilon``); near-equality at the optimal epsilon is flagged.  Raises
    ``ValueError`` unless n >= 3, p is finite and >= 1, every epsilon is
    positive and finite, every value finite and >= 0 and every weight
    finite and > 0.
    """
    if not samples:
        raise ValueError("need a nonempty sample list")
    if eps_grid is None:
        eps_grid = _DEFAULT_EPS_GRID if epsilon is None else [epsilon]
    eps_grid = _holder_args(n, p, eps_grid)
    f = np.array([s[0] for s in samples], dtype=float)
    w = np.array([s[1] for s in samples], dtype=float)
    if not np.all(np.isfinite(f) & (f >= 0.0)):
        raise ValueError("sample values must be finite and nonnegative")
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise ValueError("sample weights must be finite and positive")
    names, (lhs,), (rhs,), (margin,), (failed,) = _holder_sides(f[None], w[None], p, n,
                                                                 eps_grid)
    margins: dict[str, float] = {}
    for name, m in zip(names, margin):
        margins[name] = min(margins.get(name, math.inf), float(m))
    failures = [{"inequality": names[c], "lhs": float(lhs[c]), "rhs": float(rhs[c])}
                for c in np.flatnonzero(failed)]
    best_eps, notes = None, ()
    if len(rhs) > 3:                       # the epsilon-split columns
        best = 3 + int(np.argmin(rhs[3:]))
        best_eps = float(eps_grid[best - 3])
        if lhs[best] > 0 and (rhs[best] - lhs[best]) <= 0.05 * lhs[best]:
            notes = (f"epsilon-split near equality at eps = {best_eps:g}",)
    return CheckReport(
        name="holder", status=PASS if not failures else FAIL, samples=len(samples),
        details={"min_margins": margins, "failures": failures, "p": p, "n": n,
                 "best_epsilon": best_eps},
        notes=notes)


def holder_suite(n: int, p: float = 2.0, seed: int = 0, count: int = 1000,
                 eps_grid: Sequence[float] | None = None) -> CheckReport:
    """The discrete inequality suite over seeded random measures.

    The measures come from one seeded draw in this order: ``count`` atom
    counts uniform on 1..20; then |N(0, 1)| values, shape (count, 20),
    each row times its own 10^U(-2, 2); then weights U(0.1, 2.0), shape
    (count, 20).  Atoms at or beyond a measure's count get value and
    weight 0.  ``_holder_sides`` evaluates them at base 1 with weight 0, so
    they add nothing and no zero base is raised to a power (numpy's slow
    path).  All measures are checked at once; the reported failure entries
    are rebuilt with ``check_holder`` on the failing measures.  ``n``,
    ``p``, ``count`` and ``eps_grid`` are validated as in ``check_holder``.
    """
    eps_grid = _holder_args(n, p, _DEFAULT_EPS_GRID if eps_grid is None else eps_grid, count)
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, _MAX_ATOMS + 1, count)
    f = np.abs(rng.standard_normal((count, _MAX_ATOMS))) \
        * 10.0 ** rng.uniform(-2, 2, (count, 1))
    w = rng.uniform(0.1, 2.0, (count, _MAX_ATOMS))
    padded = np.arange(_MAX_ATOMS) >= sizes[:, None]
    f[padded] = 0.0
    w[padded] = 0.0
    _, _, _, margin, failed = _holder_sides(f, w, p, n, eps_grid)
    failures = []
    for trial in np.flatnonzero(failed.any(axis=1))[:5]:
        size = sizes[trial]
        rep = check_holder(list(zip(f[trial, :size], w[trial, :size])), p, n,
                           eps_grid=eps_grid)
        failures.append({"trial": int(trial), **rep.details})
    return CheckReport(
        name="holder", status=PASS if not failures else FAIL, samples=count,
        details={"n": n, "p": p, "seed": seed,
                 "worst_margin": float(margin.min(initial=math.inf)), "failures": failures})


def check_diameter_bound(A: float, B: float, n: int, diam: float, vol: float,
                         sobolev_witnesses: Sequence[WitnessNorms]) -> CheckReport:
    """Explicit diameter bound, gated on witness validation of (A, B).

    Every witness must satisfy ||u||_q^2 <= A ||grad u||^2 +
    (B / vol^{2/n}) ||u||^2; then the report asserts
    diam / vol^{1/n} <= 2^{n/2+1} (2^{n/2} B^{n/2} + 1) sqrt(A/B).
    """
    if A <= 0 or B <= 0:
        raise ValueError("the Sobolev coefficients A and B must be positive")
    if diam <= 0 or vol <= 0:
        raise ValueError("diam and vol must be positive")
    worst_margin, worst_name = math.inf, None
    for wn in sobolev_witnesses:
        rhs = A * wn.grad_sq + B / vol ** (2.0 / n) * wn.l2_sq
        margin = (rhs - wn.lq_sq) / max(wn.lq_sq, 1e-300)
        if margin < worst_margin:
            worst_margin, worst_name = margin, wn.name
        if wn.lq_sq > rhs * (1.0 + _REL_SLACK):
            return CheckReport(
                name="diameter_bound", status=HYP_NOT_MET,
                samples=len(sobolev_witnesses),
                details={"violating_witness": wn.name, "lq_sq": wn.lq_sq,
                         "rhs": rhs, "A": A, "B": B})
    lhs = diam / vol ** (1.0 / n)
    rhs = 2.0 ** (n / 2.0 + 1.0) * (2.0 ** (n / 2.0) * B ** (n / 2.0) + 1.0) * math.sqrt(A / B)
    ok = lhs <= rhs * (1.0 + _REL_SLACK)
    return CheckReport(
        name="diameter_bound", status=PASS if ok else FAIL,
        samples=len(sobolev_witnesses),
        details={"lhs": lhs, "rhs": rhs, "A": A, "B": B,
                 "worst_witness_margin": worst_margin,
                 "worst_witness": worst_name})


def check_sobolev_along_flow(traj: Trajectory, cs0: float,
                             primitives: ConstantPrimitives,
                             family: str = "eigenfunction",
                             grid: int = sobolev.MIN_GRID) -> CheckReport:
    """Trace the flow-time Sobolev condition; fit the inequality's constant.

    The condition a_n ||Rm||_{n/2}(t) cs0^2 e^{8 delta0 t / n} <= 1/(n(n-1))
    is traced over all records and its first violation time reported.  Where
    it holds, the flow-time Sobolev inequality is evaluated on the witness
    family with a fitted constant (products only; quotient models carry no
    witnesses and report the trace alone).
    """
    model = traj.model
    n = model.dim
    d0 = delta0_from_row0(cs0, float(traj.derived["scalar_R"][0]),
                          float(traj.derived["vol"][0]), n)
    rm_n2 = traj.derived["rm_n2_norm"]
    t = traj.times
    cond_lhs = primitives.a_n * rm_n2 * cs0 * cs0 * np.exp(8.0 * d0 * t / n)
    bound = 1.0 / (n * (n - 1.0))
    violated = cond_lhs > bound
    first_violation = float(t[np.argmax(violated)]) if bool(np.any(violated)) else None
    notes = []
    vol0 = float(traj.derived["vol"][0])
    if abs(vol0 - 1.0) > 1e-9:
        notes.append(f"initial volume is {vol0!r}, not 1: rescaled statement")
    details = {
        "first_violation_time": first_violation,
        "condition_bound": bound,
        "condition_max": float(np.max(cond_lhs)),
        "delta0": d0,
        "cs0": cs0,
    }
    if model.kind == LIE_GROUP_QUOTIENT:
        notes.append("witness family unavailable on quotient models; "
                     "condition trace only")
        return CheckReport(name="sobolev_along_flow", status=UNAVAILABLE,
                           samples=len(traj), details=details,
                           primitives_echo=primitives.describe(),
                           notes=tuple(notes))
    ok_idx = np.flatnonzero(~violated)
    if ok_idx.size == 0:
        notes.append("condition violated at every record; no fit")
        return CheckReport(name="sobolev_along_flow", status=HYP_NOT_MET,
                           samples=len(traj), details=details,
                           primitives_echo=primitives.describe(),
                           notes=tuple(notes))
    witnesses = sobolev.witness_family(model, family)
    pick = ok_idx[np.unique(np.linspace(0, ok_idx.size - 1,
                                        min(_MAX_WITNESS_TIMES, ok_idx.size)).astype(int))]
    fitted = 0.0
    for i in pick:
        envelope = math.exp(8.0 * d0 * float(t[i]) / n)
        for w in witnesses:
            wn = sobolev.witness_norms(model, traj.mats[i], w, grid=grid)
            rhs = envelope * (cs0 * cs0 * wn.grad_sq + wn.l2_sq)
            fitted = max(fitted, wn.lq_sq / rhs)
    if not math.isfinite(fitted):
        return CheckReport(name="sobolev_along_flow", status=FAIL,
                           samples=int(pick.size),
                           details={**details, "reason": "non-finite fit"})
    details["witness_times"] = [float(t[i]) for i in pick]
    return CheckReport(name="sobolev_along_flow", status=RATIO, sup_ratio=fitted,
                       fitted_constant=fitted,
                       samples=int(pick.size) * len(witnesses), details=details,
                       primitives_echo=primitives.describe(), notes=tuple(notes))


# ---------------------------------------------------------------------------
# static hypothesis evaluation


def hypothesis_invariants(model: geometry.ModelGeometry, g: np.ndarray,
                          rm_norm: float, vol: float, ric_min: float, kappa: float,
                          cs0: float, primitives: ConstantPrimitives) -> dict:
    """``hypothesis_report`` invariants of g from its |Rm|, volume and lowest Ricci eigenvalue.

    ``cs_upper`` is the Gallot bound where the diameter is exact (products),
    else ``cs0``.  At homogeneity the integral Ricci deficit is the
    pointwise max(0, kappa - ric_min).
    """
    n = model.dim
    inv = {"rm_n2": sobolev.lp_norm_of_constant(rm_norm, vol, n / 2.0), "vol": vol,
           "ric_min": ric_min, "kappa": kappa, "rm_n2_vol_normalized": rm_norm,
           "cs_upper": cs0, "ricci_deficit": max(0.0, kappa - ric_min)}
    diam = geometry.diameter(model, g)
    if diam is not None:
        inv["diam"] = diam
        inv["cs_upper"] = sobolev.gallot_upper(n, kappa, diam, vol, primitives.gallot)
    note = geometry.sphere_circle_note(model)
    if note:
        inv["model_note"] = note
    return inv


def hypothesis_report(n: int, invariants: dict, chain: ConstantChain,
                      primitives: ConstantPrimitives) -> CheckReport:
    """Evaluate each pinching-theorem hypothesis on one metric's invariants.

    ``invariants`` may carry: rm_n2, cs_upper, diam, vol, ric_min,
    ricci_deficit, kappa, model_note.  A theorem whose required invariant
    is absent is marked unavailable.  Conclusions are reported implications
    of the cited results, never computed facts.
    """
    theorems = []
    rm_n2 = invariants.get("rm_n2")
    cs_upper = invariants.get("cs_upper")
    kappa = float(invariants.get("kappa", 0.0))

    def entry(name, holds, margin, threshold, value, conclusion, note=None):
        e = {"theorem": name, "holds": holds, "margin": margin,
             "threshold": threshold, "value": value, "conclusion": conclusion}
        if note:
            e["note"] = note
        return e

    infranil = "infranil diffeomorphism type (reported implication)"
    for name, threshold, conclusion in (
            ("pinching_main", chain.eps_n_main, infranil),
            ("flow_existence", chain.eps_n_gamma,
             "flow exists to T0 with factor-2 and C0 curvature bounds "
             "(reported implication)")):
        if rm_n2 is None:
            theorems.append(entry(name, None, None, threshold, None, conclusion,
                                  "unavailable: missing rm_n2"))
        elif rm_n2 == 0.0:
            theorems.append(entry(name, True, threshold, threshold, 0.0, conclusion,
                                  "zero curvature: product vanishes for any "
                                  "Sobolev constant"))
        elif cs_upper is None:
            theorems.append(entry(name, None, None, threshold, None, conclusion,
                                  "unavailable: missing cs_upper"))
        else:
            value = rm_n2 * cs_upper * cs_upper
            theorems.append(entry(name, bool(value <= threshold),
                                  threshold - value, threshold, value, conclusion))

    diam, vol, ric_min = (invariants.get(k) for k in ("diam", "vol", "ric_min"))
    if None in (diam, vol, ric_min) or rm_n2 is None:
        theorems.append(entry("pinching_diameter", None, None, None, None, infranil,
                              "unavailable: needs diam, vol, ric_min, rm_n2"))
    else:
        threshold = theorem_c_threshold(chain, primitives, kappa)
        ric_ok = diam * diam * ric_min >= -kappa - 1e-15
        value = rm_n2 * (diam / vol ** (1.0 / n)) ** 2
        holds = bool(ric_ok and value <= threshold)
        note = None if ric_ok else (
            f"Ricci condition fails: diam^2 ric_min = {diam * diam * ric_min:.6g} "
            f"< -kappa = {-kappa:.6g}; required kappa >= "
            f"{max(0.0, -diam * diam * ric_min):.6g}")
        theorems.append(entry("pinching_diameter", holds, threshold - value,
                              threshold, value, infranil, note))

    deficit = invariants.get("ricci_deficit")
    if deficit is None:
        theorems.append(entry("pinching_integral_ricci", None, None, None, None,
                              infranil, "unavailable: missing ricci_deficit"))
    else:
        norm_rm = invariants.get("rm_n2_vol_normalized")
        theorems.append(entry(
            "pinching_integral_ricci", None, None, None,
            {"ricci_deficit": deficit, "rm_n2_vol_normalized": norm_rm},
            infranil,
            "threshold exists but carries no formula; quantities reported only"))

    details = {"theorems": theorems, "kappa": kappa}
    if "model_note" in invariants:
        details["model_note"] = invariants["model_note"]
    return CheckReport(name="hypothesis_report", status=PASS,
                       samples=len(theorems), details=details,
                       primitives_echo=primitives.describe())


# ---------------------------------------------------------------------------
# suite driver

SUITE_CHECKS = ("volume_identity", "scalar_identity", "n2_bound", "c0_bound",
                "lp_evolution_n2", "lp_evolution_p2", "holder",
                "diameter_bound", "sobolev_along_flow", "hypothesis_report")


def run_suite(traj: Trajectory, chain: ConstantChain,
              primitives: ConstantPrimitives, *,
              a_const: float = 1.0, b_const: float = 1.0,
              family: str = "eigenfunction", grid: int = sobolev.MIN_GRID,
              kappa: float = 0.0, seed: int = 0,
              checks: Sequence[str] | None = None) -> list[CheckReport]:
    """Run the named checks (default all) at ``chain.cs0``; reports sorted by name."""
    model = traj.model
    n = model.dim
    cs0 = chain.cs0
    selected = set(SUITE_CHECKS if checks is None else checks)
    unknown = selected - set(SUITE_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}; "
                         f"available: {list(SUITE_CHECKS)}")
    reports: list[CheckReport] = []

    if "volume_identity" in selected:
        reports.append(check_volume_identity(traj))
    if "scalar_identity" in selected:
        reports.append(check_scalar_identity(traj))
    if "n2_bound" in selected:
        reports.append(check_n2_bound(traj, chain))
    if "c0_bound" in selected:
        reports.append(check_c0_bound(traj, cs0))
    if "lp_evolution_n2" in selected:
        rep = check_lp_evolution(traj, n / 2.0)
        rep.name = "lp_evolution_n2"
        reports.append(rep)
    if "lp_evolution_p2" in selected:
        rep = check_lp_evolution(traj, 2.0)
        rep.name = "lp_evolution_p2"
        reports.append(rep)
    if "holder" in selected:
        reports.append(holder_suite(n, p=2.0, seed=seed))
    if "diameter_bound" in selected:
        g0 = traj.mats[0]
        diam = geometry.diameter(model, g0)
        if diam is None:
            reports.append(CheckReport(
                name="diameter_bound", status=UNAVAILABLE,
                notes=("diameter declared unavailable on quotient models",)))
        else:
            wns = [sobolev.witness_norms(model, g0, w, grid=grid)
                   for w in sobolev.witness_family(model, family)]
            reports.append(check_diameter_bound(
                a_const, b_const, n, diam, float(traj.derived["vol"][0]), wns))
    if "sobolev_along_flow" in selected:
        reports.append(check_sobolev_along_flow(traj, cs0, primitives,
                                                family=family, grid=grid))
    if "hypothesis_report" in selected:
        d = traj.derived
        inv = hypothesis_invariants(model, traj.mats[0], float(d["rm_norm"][0]),
                                    float(d["vol"][0]), float(d["ric_min"][0]),
                                    kappa, cs0, primitives)
        reports.append(hypothesis_report(n, inv, chain, primitives))

    for rep in reports:
        if not rep.primitives_echo:
            rep.primitives_echo = primitives.describe()
    return sorted(reports, key=lambda r: r.name)


def suite_failed(reports: Sequence[CheckReport]) -> bool:
    """True when any explicit-constant check failed."""
    return any(r.status == FAIL for r in reports)
