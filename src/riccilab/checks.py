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
from .constants import ConstantChain, ConstantPrimitives, horizon_T0, theorem_c_threshold
from .flow import Trajectory, delta0_from_row0
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
_DERIVATIVE_RECORDS = 3       # fewest records grid_derivative differentiates


class CheckReport:
    """One check outcome, a slot class; ``details`` carries the worst offenders."""

    __slots__ = ("name", "status", "sup_ratio", "fitted_constant", "samples", "details",
                 "primitives_echo", "notes")

    def __init__(self, name: str, status: str, sup_ratio: float | None = None,
                 fitted_constant: float | None = None, samples: int = 0,
                 details: dict | None = None, notes: tuple[str, ...] = ()):
        self.name, self.status, self.sup_ratio = name, status, sup_ratio
        self.fitted_constant, self.samples, self.notes = fitted_constant, samples, notes
        self.details = {} if details is None else details
        self.primitives_echo = {}     # set by run_suite

    def to_jsonable(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["notes"] = list(self.notes)
        return out


# ---------------------------------------------------------------------------
# finite differences on the record grid

# fourth-order stencils over 12 h, one row each: one node in from the left end
# (mirrored and negated at the right end), and centred
_STENCILS = np.array([[-3.0, -10.0, 18.0, -6.0, 1.0], [1.0, -8.0, 0.0, 8.0, -1.0]])


def grid_derivative(times: np.ndarray,
                    values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """d(values)/dt at the interior record times.

    Returns (interior indices, derivative, noise gain, order).  Order 4 on
    uniform grids with at least five points, otherwise order 2 central
    differences.  Record i's noise gain is sum |c| / (t[i+1] - t[i-1]), for
    its stencil's weights c written over that span: values each off by at
    most e move the derivative by at most gain * e.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(t) < _DERIVATIVE_RECORDS:
        raise ValueError(f"need at least {_DERIVATIVE_RECORDS} recorded states "
                         "for time derivatives")
    idx = np.arange(1, len(t) - 1)
    span = t[2:] - t[:-2]
    dt = np.diff(t)
    h = dt[0]
    uniform = np.max(np.abs(dt - h)) <= 1e-9 * h
    if not uniform or len(t) < 5:
        deriv = (v[2:] - v[:-2]) / span
        return idx, deriv, 2.0 / span, 2
    deriv = np.empty(len(idx))
    # divide after the dot product: the integer weights sum to exactly 0, the
    # weights over 12 do not
    deriv[0] = _STENCILS[0] @ v[0:5] / (12.0 * h)
    deriv[-1] = -_STENCILS[0, ::-1] @ v[-5:] / (12.0 * h)
    c = _STENCILS[1]
    deriv[1:-1] = (c[0] * v[:-4] + c[1] * v[1:-3] + c[3] * v[3:-1] + c[4] * v[4:]) / (12.0 * h)
    # span = 2 h: a stencil's weights over the span are its numerators / 6
    end, centre = np.abs(_STENCILS).sum(axis=1) / 6.0
    gain = np.full(len(idx), centre)
    gain[0] = gain[-1] = end
    return idx, deriv, gain / span, 4


# ---------------------------------------------------------------------------
# trajectory checks


def _too_few_records(name: str, traj: Trajectory) -> CheckReport | None:
    """The ``unavailable`` report of a time-derivative check on too few records."""
    if len(traj) >= _DERIVATIVE_RECORDS:
        return None
    return CheckReport(name=name, status=UNAVAILABLE,
                       details={"records": len(traj),
                                "reason": f"time derivatives need at least "
                                          f"{_DERIVATIVE_RECORDS} recorded states, "
                                          f"got {len(traj)}"})


def _identity_report(name: str, traj: Trajectory, values: np.ndarray, rhs, tol: float,
                     holds: bool = True, details: dict | None = None,
                     **fields) -> CheckReport:
    """The exact identity d(values)/dt = rhs(idx) at the interior records ``idx``.

    Each residual is divided by its record's size |rhs| + 1 and compared with
    ``tol``; ``holds``, ``details`` and the other report ``fields`` carry the
    caller's further findings.
    """
    t = traj.times
    idx, deriv, _, order = grid_derivative(t, values)
    target = rhs(idx)
    resid = np.abs(deriv - target) / (np.abs(target) + 1.0)
    max_resid = float(np.max(resid))
    worst = np.argsort(resid)[::-1][:_WORST_TOP]
    return CheckReport(
        name=name, status=PASS if holds and max_resid <= tol else FAIL, samples=len(idx),
        details={**(details or {}), "max_residual": max_resid, "tolerance": tol, "fd_order": order,
                 "worst": [{"t": float(t[idx[i]]), "residual": float(resid[i])}
                           for i in worst]},
        **fields)


def check_volume_identity(traj: Trajectory, tol: float = _IDENTITY_TOL) -> CheckReport:
    """dvol/dt = -R vol as an explicit identity, plus the norm-bound variants.

    The scalar-norm variant |R| vol <= (|R|^{n/2} vol)^{2/n} vol^{(n-2)/n}
    is an equality on homogeneous spaces and is asserted as such; the
    curvature-norm variant only fixes |R| <= c |Rm| up to the frame bound
    sqrt(n(n-1)/2), so its constant is fitted and checked against that bound.
    Fewer than 3 records make it ``unavailable``.
    """
    if (report := _too_few_records("volume_identity", traj)) is not None:
        return report
    n = traj.model.dim
    vol = traj.derived["vol"]
    R = traj.derived["scalar_R"]
    rm = traj.derived["rm_norm"]

    # scalar-norm variant: exact equality at homogeneity; |R| is divided by
    # its maximum before the n/2 power, which overflows on tiny spheres
    abs_r = np.abs(R)
    r_max = float(abs_r.max()) or 1.0
    lhs = abs_r * vol
    rhs = r_max * ((abs_r / r_max) ** (n / 2.0) * vol) ** (2.0 / n) \
        * vol ** ((n - 2.0) / n)
    norm_gap = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, rhs)))
    ok = norm_gap <= 1e-10

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
    return _identity_report(
        "volume_identity", traj, vol, lambda i: -R[i] * vol[i], tol, holds=ok,
        details={"r_norm_variant_gap": norm_gap, "frame_bound_on_R_over_Rm": frame_bound},
        fitted_constant=fitted, notes=tuple(notes))


def check_scalar_identity(traj: Trajectory, tol: float = _IDENTITY_TOL) -> CheckReport:
    """dR/dt = 2 |Ric|^2, the homogeneous reduction of the scalar evolution.

    |Ric|^2 is the sum of the squared Ricci eigenvalues stored per record.
    Fewer than 3 records make it ``unavailable``.
    """
    if (report := _too_few_records("scalar_identity", traj)) is not None:
        return report
    ric = traj.derived["ric_eigs"]
    return _identity_report("scalar_identity", traj, traj.derived["scalar_R"],
                            lambda i: 2.0 * np.sum(ric[i] ** 2, axis=1), tol)


def check_n2_bound(traj: Trajectory, chain: ConstantChain) -> CheckReport:
    """Factor-2 bound on the n/2 curvature norm up to the horizon T0.

    Gated on the smallness hypothesis ||Rm||_{n/2}(0) cs0^2 <= eps(n, gamma)
    under the chain's configured primitives; if the hypothesis fails the
    report carries the margin instead of a verdict.
    """
    rm_n2 = traj.derived["rm_n2_norm"]
    rm0 = float(rm_n2[0])
    theta0 = rm0 * chain.cs0 ** 2
    margin = chain.eps_n_gamma - theta0
    notes = _rescaled_notes(traj)
    details = {"theta0": theta0, "threshold": chain.eps_n_gamma, "margin": margin}
    if margin < 0.0:
        return CheckReport(name="n2_bound", status=HYP_NOT_MET, samples=len(traj),
                           details=details, notes=tuple(notes))
    details["T0"] = chain.T0
    window = traj.times <= chain.T0 * (1.0 + 1e-12)
    rm_max = float(np.max(rm_n2[window]))
    if rm0 == 0.0:
        vacuous = rm_max == 0.0
        notes.append("vacuous: zero initial curvature norm")
        return CheckReport(
            name="n2_bound", status=PASS if vacuous else FAIL,
            sup_ratio=0.0 if vacuous else math.inf, samples=int(np.sum(window)),
            details=details, notes=tuple(notes))
    sup_ratio = rm_max / (2.0 * rm0)
    details.update(worst_t=float(traj.times[np.argmax(rm_n2[window])]), rm_n2_0=rm0,
                   rm_n2_max=rm_max)
    return CheckReport(
        name="n2_bound", status=PASS if sup_ratio <= 1.0 + _REL_SLACK else FAIL,
        sup_ratio=sup_ratio, samples=int(np.sum(window)), details=details, notes=tuple(notes))


def _rescaled_notes(traj: Trajectory) -> list[str]:
    """The note of a statement normalized to volume 1 read at another initial volume."""
    vol0 = float(traj.derived["vol"][0])
    if abs(vol0 - 1.0) > 1e-9:
        return [f"initial volume is {vol0!r}, not 1: rescaled statement"]
    return []


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


def _fit_report(name: str, ratios: np.ndarray, samples: int, details: dict,
                notes: Sequence[str] = (), detail_fits: dict | None = None) -> CheckReport:
    """The fitted constant sup ``ratios`` (0 over none) of a check's usable
    records, ``ratio-extracted``, or ``fail`` where it is not finite: a NaN
    ratio is never dropped.  Each array of ``detail_fits`` is fitted alike
    and reported in ``details``; a non-finite one fails the report too."""
    sup = lambda r: float(np.max(r, initial=0.0))
    fitted = sup(ratios)
    fits = {key: sup(r) for key, r in (detail_fits or {}).items()}
    if not all(map(math.isfinite, (fitted, *fits.values()))):
        return CheckReport(name=name, status=FAIL, samples=samples, notes=tuple(notes),
                           details={**details, "reason": "non-finite fitted constant"})
    return CheckReport(name=name, status=RATIO, sup_ratio=fitted, fitted_constant=fitted,
                       samples=samples, details={**details, **fits}, notes=tuple(notes))


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
        return _fit_report("c0_bound", np.empty(0), int(np.sum(window)), {"T0": T0},
                           notes=("vacuous: zero curvature throughout",))
    if not np.any(window):      # nothing to fit: a sup over no record is no constant
        return CheckReport(name="c0_bound", status=UNAVAILABLE,
                           details={"T0": T0, "cs0": cs0,
                                    "reason": "no record in (0, T0]: lower flow.record_every "
                                              "to put one there"})
    t_in = t[window]
    ratios = rm[window] * t_in / (cs0 * cs0 * rm0_n2)
    return _fit_report(
        "c0_bound", ratios, int(ratios.size),
        {"T0": T0, "cs0": cs0, "worst_t": float(t_in[np.argmax(ratios)]),
         "intermediate_time": _intermediate_time_readout(traj, float(t_in[-1]))})


def check_lp_evolution(traj: Trajectory, p: float) -> CheckReport:
    """Fitted constant of d/dt int |Rm|^p <= c p int |Rm|^{p+1}.

    The gradient term of the full evolution inequality vanishes identically
    on homogeneous models and is noted as such; the fit uses only times
    where the derivative is positive beyond its rounding noise, and so does
    the pointwise variant d|Rm|/dt <= c |Rm|^2 reported as ``pointwise_fit``.
    Fewer than 3 records make it ``unavailable``.
    """
    if not p >= 1.0:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    if (report := _too_few_records(f"lp_evolution_p{p:g}", traj)) is not None:
        return report
    t = traj.times
    rm = traj.derived["rm_norm"]
    vol = traj.derived["vol"]
    Jp = rm ** p * vol
    idx, dJp, gain, order = grid_derivative(t, Jp)
    _, drm, _, _ = grid_derivative(t, rm)
    # each value is off by at most 4 eps |value|; J = |Rm|^p vol spans 2.5 eps
    # on sphere.cfg.  A NaN derivative or denominator is kept, so it reaches the fit
    noise = 4.0 * np.finfo(float).eps * gain
    den = p * rm[idx] ** (p + 1.0) * vol[idx]
    usable = den != 0.0
    positive = usable & ~(dJp <= noise * np.abs(Jp[idx]))
    pw_den = rm[idx] ** 2
    pw_pos = (pw_den != 0.0) & ~(drm <= noise * rm[idx])
    notes = ["gradient term identically zero at homogeneity"]
    if not np.any(usable):
        notes.append("vacuous: zero curvature throughout")
    elif not np.any(positive):
        notes.append("norm nonincreasing along the run: fitted constant 0")
    return _fit_report(
        f"lp_evolution_p{p:g}", dJp[positive] / den[positive], int(np.sum(usable)),
        {"p": p, "fd_order": order, "positive_derivative_samples": int(np.sum(positive))},
        notes=notes, detail_fits={"pointwise_fit": drm[pw_pos] / pw_den[pw_pos]})


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
        raise ValueError(f"every epsilon in eps_grid must be positive and finite, got {eps_grid}")
    return eps


def check_holder(samples: Sequence[tuple[float, float]], p: float, n: int,
                 eps_grid: Sequence[float] | None = None) -> CheckReport:
    """All four discrete inequalities on one weighted sample set.

    ``samples`` is a list of (value, weight) atoms defining the measure.
    The split inequality is swept over ``eps_grid``; near-equality at the
    optimal epsilon is flagged.  Raises ``ValueError`` unless n >= 3, p is
    finite and >= 1, every epsilon is positive and finite, every value
    finite and >= 0 and every weight finite and > 0.
    """
    if not samples:
        raise ValueError("need a nonempty sample list")
    eps_grid = _holder_args(n, p, _DEFAULT_EPS_GRID if eps_grid is None else eps_grid)
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
    if not (A > 0 and B > 0):
        raise ValueError("the Sobolev coefficients A and B must be positive")
    if not (diam > 0 and vol > 0):
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
                             family: str = "eigenfunction") -> CheckReport:
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
    notes = _rescaled_notes(traj)
    details = {
        "first_violation_time": first_violation,
        "condition_bound": bound,
        "condition_max": float(np.max(cond_lhs)),
        "delta0": d0,
        "cs0": cs0,
    }
    ok_idx = np.flatnonzero(~violated)
    quotient = model.kind == LIE_GROUP_QUOTIENT
    if quotient or ok_idx.size == 0:
        notes.append("witness family unavailable on quotient models; condition trace only"
                     if quotient else "condition violated at every record; no fit")
        return CheckReport(name="sobolev_along_flow",
                           status=UNAVAILABLE if quotient else HYP_NOT_MET,
                           samples=len(traj), details=details, notes=tuple(notes))
    witnesses = sobolev.witness_family(model, family)
    pick = ok_idx[np.unique(np.linspace(0, ok_idx.size - 1,
                                        min(_MAX_WITNESS_TIMES, ok_idx.size)).astype(int))]
    ratios = []
    for i in pick:
        envelope = math.exp(8.0 * d0 * float(t[i]) / n)
        for w in witnesses:
            wn = sobolev.witness_norms(model, traj.mats[i], w)
            ratios.append(wn.lq_sq / (envelope * (cs0 * cs0 * wn.grad_sq + wn.l2_sq)))
    details["witness_times"] = [float(t[i]) for i in pick]
    return _fit_report("sobolev_along_flow", np.array(ratios), len(ratios), details, notes=notes)


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
                       samples=len(theorems), details=details)


# ---------------------------------------------------------------------------
# suite driver

SUITE_CHECKS = ("volume_identity", "scalar_identity", "n2_bound", "c0_bound",
                "lp_evolution_n2", "lp_evolution_p2", "holder",
                "diameter_bound", "sobolev_along_flow", "hypothesis_report")


def run_suite(traj: Trajectory, chain: ConstantChain,
              primitives: ConstantPrimitives, *,
              a_const: float = 1.0, b_const: float = 1.0,
              family: str = "eigenfunction", kappa: float = 0.0, seed: int = 0,
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
    for name, p in (("lp_evolution_n2", n / 2.0), ("lp_evolution_p2", 2.0)):
        if name in selected:
            reports.append(check_lp_evolution(traj, p))
            reports[-1].name = name
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
            wns = [sobolev.witness_norms(model, g0, w)
                   for w in sobolev.witness_family(model, family)]
            reports.append(check_diameter_bound(
                a_const, b_const, n, diam, float(traj.derived["vol"][0]), wns))
    if "sobolev_along_flow" in selected:
        reports.append(check_sobolev_along_flow(traj, cs0, primitives, family=family))
    if "hypothesis_report" in selected:
        d = traj.derived
        inv = hypothesis_invariants(model, traj.mats[0], float(d["rm_norm"][0]),
                                    float(d["vol"][0]), float(d["ric_min"][0]),
                                    kappa, cs0, primitives)
        reports.append(hypothesis_report(n, inv, chain, primitives))

    for rep in reports:
        rep.primitives_echo = primitives.describe()
    return sorted(reports, key=lambda r: r.name)


def suite_failed(reports: Sequence[CheckReport]) -> bool:
    """True when any explicit-constant check failed."""
    return any(r.status == FAIL for r in reports)
