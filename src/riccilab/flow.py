"""Ricci flow dg/dt = -2 Ric(g) as an ODE on invariant metrics.

On a homogeneous model the flow reduces to a small ODE system: the SPD
metric matrix in the fixed basis (quotients) or one scale per factor
(products).  Integration uses Dormand-Prince 8(5,3) (DOP853, Hairer,
Norsett & Wanner, Solving ODEs I, Sec. II.5-6) whose step size is set only
by its embedded 5th/3rd-order error estimate; a step is rejected and halved
if it would leave the SPD cone, and the run stops early when |Rm| crosses
the blowup threshold or the step size underflows.

States are recorded on a uniform time grid (spacing ``record_every``), so
the finite-difference identity checks downstream see a regular grid.  The
grid never limits the step: records inside a step are filled by the
method's 7th-order dense output, at 3 extra RHS evaluations per step.
Derived per-record quantities are recomputed from the recorded state, never
integrated alongside, which keeps state and invariants drift-free.

``integrate``, ``parabolic_rescale`` and ``read_trajectory_csv`` all build
their Trajectory in one place, ``_assemble``, from one ``curvature_batch``
whose row 0 also gives ``vol0``, ``rm_n2_0``, ``delta0`` and ``T0``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import _dop853 as _dop
from . import constants, geometry
from .geometry import LIE_GROUP_QUOTIENT, GeometryError, ModelGeometry

__all__ = [
    "FlowConfig",
    "Trajectory",
    "TrajectorySchemaError",
    "ricci_rhs",
    "integrate",
    "horizon_T0",
    "delta0_from_row0",
    "parabolic_rescale",
    "normalize_to_unit_volume",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "validate_trajectory",
    "csv_columns",
    "trajectory_table",
]

TERM_HORIZON = "horizon-reached"
TERM_BLOWUP = "curvature-blowup"
TERM_UNDERFLOW = "step-underflow"

DERIVED_KEYS = ("vol", "rm_norm", "scalar_R", "rm_n2_norm", "J", "theta", "chi",
                "ric_min", "ric_max")

_DEFAULT_RECORDS = 1024
_VALIDATE_TOL = 1e-10          # relative, stored vs recomputed derived values
_SAFETY, _MIN_FAC, _MAX_FAC = 0.9, 0.2, 5.0
_ERR_EXP = -1.0 / 8.0          # DOP853's error estimate has order 7


class TrajectorySchemaError(ValueError):
    """Trajectory file does not match the mandated CSV schema."""


class FlowConfig:
    """Integration settings, a slot class validated at construction.

    ``t_end=None`` derives the horizon gamma * vol^(2/n) * cs0^2 from the
    initial data; ``max_rm=None`` defaults to 1e6 * max(1, |Rm|(0)).
    ``record_every`` is the spacing of the uniform record grid (None picks
    t_end / 1024).  ``cs0`` and ``c_n`` feed the recorded theta and chi
    columns and are echoed into the run metadata.  Every value given must be
    positive and finite, and the tolerances below 1.
    """

    __slots__ = ("gamma", "t_end", "rel_tol", "abs_tol", "max_rm", "record_every",
                 "cs0", "c_n")

    def __init__(self, gamma: float = 1.0, t_end: float | None = None,
                 rel_tol: float = 1e-9, abs_tol: float = 1e-12,
                 max_rm: float | None = None, record_every: float | None = None,
                 cs0: float = 1.0, c_n: float = 1.0):
        for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
            if not 0.0 < tol < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {tol}")
        for name, value in (("gamma", gamma), ("cs0", cs0), ("c_n", c_n)):
            constants._require_positive(name, value)
        for name, value in (("t_end", t_end), ("max_rm", max_rm),
                            ("record_every", record_every)):
            if value is not None:
                constants._require_positive(name, value)
        self.gamma, self.t_end, self.rel_tol, self.abs_tol = gamma, t_end, rel_tol, abs_tol
        self.max_rm, self.record_every, self.cs0, self.c_n = max_rm, record_every, cs0, c_n


class Trajectory:
    """Time-ordered recorded states with derived invariants and run metadata.

    A slot class.  ``times`` (M,), ``mats`` (M, n, n), the metric in the
    fixed basis, and every ``derived`` column become read-only float arrays
    at construction.
    """

    __slots__ = ("model", "times", "mats", "derived", "meta")

    def __init__(self, model: ModelGeometry, times: np.ndarray, mats: np.ndarray,
                 derived: dict[str, np.ndarray], meta: dict | None = None):
        self.model, self.meta = model, {} if meta is None else meta
        self.times = np.asarray(times, dtype=float)
        self.times.setflags(write=False)
        self.mats = np.asarray(mats, dtype=float)
        self.mats.setflags(write=False)
        for k in derived:
            derived[k] = np.asarray(derived[k], dtype=float)
            derived[k].setflags(write=False)
        self.derived = derived

    def __len__(self) -> int:
        return len(self.times)

    @property
    def scales(self) -> np.ndarray | None:
        """Factor scales (M, num_factors) read off ``mats``; None for quotients."""
        if self.model.kind == LIE_GROUP_QUOTIENT:
            return None
        return geometry.factor_scales(self.model, self.mats)


def horizon_T0(gamma: float, vol0: float, cs0: float, n: int) -> float:
    """Flow horizon gamma * vol0^(2/n) * cs0^2."""
    if gamma <= 0 or vol0 <= 0 or cs0 <= 0:
        raise ValueError("horizon inputs must be positive")
    return gamma * vol0 ** (2.0 / n) * cs0 * cs0


def ricci_rhs(model: ModelGeometry, g: np.ndarray) -> np.ndarray:
    """-2 Ric(g) as a symmetric matrix in the fixed basis."""
    return -2.0 * geometry.ricci_fixed_basis(model, g)


def normalize_to_unit_volume(model: ModelGeometry, g0: np.ndarray) -> np.ndarray:
    """Scale the metric so the total volume is 1."""
    vol = geometry.volume(model, g0)
    if abs(vol - 1.0) < 1e-15:
        return g0
    return geometry.scale_metric(g0, vol ** (-2.0 / model.dim))


def delta0_from_row0(cs0: float, scalar0: float, vol0: float, n: int) -> float:
    """cs0^-2 plus the n/2-norm of the negative part of scalar curvature at t=0."""
    return constants.delta0(cs0, max(0.0, -scalar0) * vol0 ** (2.0 / n))


# ---------------------------------------------------------------------------
# state packing

@lru_cache(maxsize=None)
def _tri_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu = np.triu_indices(n)
    for idx in iu:
        idx.setflags(write=False)
    return iu


def _sym_from_tri(n: int, tri: np.ndarray) -> np.ndarray:
    """Symmetric matrices (..., n, n) from upper triangles (..., n(n+1)/2)."""
    rows, cols = _tri_indices(n)
    mats = np.zeros((*tri.shape[:-1], n, n))
    mats[..., rows, cols] = tri
    mats[..., cols, rows] = tri
    return mats


def _unpack(model: ModelGeometry, y: np.ndarray) -> np.ndarray:
    """Metric (n, n) of a packed state (k,), or a stack (M, n, n) of (M, k)."""
    if model.kind == LIE_GROUP_QUOTIENT:
        return _sym_from_tri(model.dim, y)
    return geometry.metric_from_scales(model, y)


# ---------------------------------------------------------------------------
# DOP853 integrator

def _dop853_stages(f, t, y, k0, h) -> tuple[np.ndarray, np.ndarray]:
    """Stages 0-11 of one step from (t, y) with f(t, y) = k0, and y_new.

    Row 12 of the returned stage matrix is left for f(t + h, y_new) and rows
    13-15 for the interpolant.
    """
    K = np.empty((_dop.N_STAGES_EXTENDED, len(y)))
    K[0] = k0
    for s in range(1, _dop.N_STAGES):
        K[s] = f(t + _dop.C[s] * h, y + h * (_dop.A[s, :s] @ K[:s]))
    return K, y + h * (_dop.B @ K[:_dop.N_STAGES])


def _error_norm(K: np.ndarray, h: float, scale: np.ndarray) -> float:
    """Hairer's blend of the embedded 5th- and 3rd-order error estimates."""
    err5 = (_dop.E5[:_dop.N_STAGES] @ K[:_dop.N_STAGES]) / scale
    err3 = (_dop.E3[:_dop.N_STAGES] @ K[:_dop.N_STAGES]) / scale
    e5, e3 = float(err5 @ err5), float(err3 @ err3)
    if e5 == 0.0:
        return 0.0
    return h * e5 / math.sqrt((e5 + 0.01 * e3) * len(scale))


def _dense_output(f, t, y, y_new, K, h, x: np.ndarray) -> np.ndarray:
    """The 7th-order interpolant on [t, t + h] at step fractions x.

    Fills stages 13-15 of K (3 RHS evaluations); one row per fraction.
    """
    for s in range(_dop.N_STAGES + 1, _dop.N_STAGES_EXTENDED):
        K[s] = f(t + _dop.C[s] * h, y + h * (_dop.A[s, :s] @ K[:s]))
    dy = y_new - y
    coeffs = [dy, h * K[0] - dy, 2.0 * dy - h * (K[_dop.N_STAGES] + K[0]),
              *(h * (_dop.D @ K))]
    x = x[:, None]
    out = np.zeros((len(x), len(y)))
    for i, c in enumerate(reversed(coeffs)):
        out += c
        out *= x if i % 2 == 0 else 1.0 - x
    return y + out


def integrate(model: ModelGeometry, g0: np.ndarray, cfg: FlowConfig) -> Trajectory:
    """Integrate the flow from g0 and record on a uniform time grid.

    Termination is always recorded, never raised: ``horizon-reached``,
    ``curvature-blowup`` (|Rm| crossed max_rm at an accepted step) or
    ``step-underflow``.
    """
    n = model.dim
    row0 = geometry.curvature_batch(model, g0)      # validates g0
    vol0, rm0 = float(row0.vol[0]), float(row0.rm_norm[0])
    t_end = cfg.t_end if cfg.t_end is not None else horizon_T0(
        cfg.gamma, vol0, cfg.cs0, n)
    max_rm = cfg.max_rm if cfg.max_rm is not None else 1e6 * max(1.0, rm0)
    if max_rm <= rm0:
        raise ValueError(f"max_rm ({max_rm}) must exceed the initial |Rm| ({rm0})")
    dt_rec = cfg.record_every if cfg.record_every is not None else t_end / _DEFAULT_RECORDS
    n_rec = max(1, int(round(t_end / dt_rec)))
    record_times = np.linspace(0.0, t_end, n_rec + 1)
    stats = {"accepted": 0, "rejected_err": 0, "rejected_spd": 0,
             "rhs_evals": 0, "dense_evals": 0}

    def f(t, y):
        rhs = ricci_rhs(model, _unpack(model, y))
        stats["rhs_evals"] += 1
        if model.kind == LIE_GROUP_QUOTIENT:
            return rhs[_tri_indices(n)]
        return np.array([rhs[sl.start, sl.start] for sl in model.factor_slices()])

    if model.kind == LIE_GROUP_QUOTIENT:
        y = np.asarray(g0, dtype=float)[_tri_indices(n)]
    else:
        y = geometry.factor_scales(model, g0)
    t = 0.0
    k0 = f(t, y)
    min_step = 1e-14 * t_end
    h = t_end / 1000.0
    steps, err_norms = [], []
    termination = TERM_HORIZON
    recorded_y = [y.copy()]
    next_rec = 1
    rejected = False
    while t < t_end:
        last = t + 1.01 * h >= t_end
        h_eff = t_end - t if last else h
        if h_eff < min_step:
            termination = TERM_UNDERFLOW
            break
        t_new = t_end if last else t + h_eff
        try:
            K, y_new = _dop853_stages(f, t, y, k0, h_eff)
        except (GeometryError, np.linalg.LinAlgError):
            # a stage left the SPD cone: reject exactly like an SPD failure
            stats["rejected_spd"] += 1
            h, rejected = 0.5 * h_eff, True
            continue
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        enorm = _error_norm(K, h_eff, scale)
        if enorm > 1.0:
            stats["rejected_err"] += 1
            h = h_eff * max(_MIN_FAC, _SAFETY * enorm ** _ERR_EXP)
            rejected = True
            continue
        try:
            # rm_norm validates SPD internally; one decomposition does both
            rmn = geometry.rm_norm(model, _unpack(model, y_new))
            if rmn <= max_rm:
                K[_dop.N_STAGES] = f(t_new, y_new)
        except (GeometryError, np.linalg.LinAlgError):
            stats["rejected_spd"] += 1
            h, rejected = 0.5 * h_eff, True
            continue
        stats["accepted"] += 1
        steps.append(h_eff)
        err_norms.append(enorm)
        if rmn > max_rm:
            t = t_new
            termination = TERM_BLOWUP
            break
        # records strictly inside the step come from the interpolant
        inside = int(np.searchsorted(record_times, t_new, side="left"))
        if inside > next_rec:
            x = (record_times[next_rec:inside] - t) / h_eff
            recorded_y.extend(_dense_output(f, t, y, y_new, K, h_eff, x))
            stats["dense_evals"] += 3
            next_rec = inside
        if next_rec <= n_rec and record_times[next_rec] == t_new:
            recorded_y.append(y_new)
            next_rec += 1
        grow = _MAX_FAC if enorm == 0.0 else min(_MAX_FAC, _SAFETY * enorm ** _ERR_EXP)
        if rejected:
            grow = min(grow, 1.0)
        t, y, k0 = t_new, y_new, K[_dop.N_STAGES]
        h, rejected = h_eff * max(_MIN_FAC, grow), False

    times = record_times[:len(recorded_y)]
    mats = _unpack(model, np.array(recorded_y))
    meta = {
        "model": model.describe(),
        "gamma": cfg.gamma,
        "cs0": cfg.cs0,
        "c_n": cfg.c_n,
        "rel_tol": cfg.rel_tol,
        "abs_tol": cfg.abs_tol,
        "max_rm": max_rm,
        "record_every": float(record_times[1] - record_times[0]),
        "t_end_requested": t_end,
        "t_reached": t,
        "termination": termination,
        "integrator": {
            "method": "dop853",
            **stats,
            "h_min": min(steps, default=None),
            "h_max": max(steps, default=None),
            "h_median": float(np.median(steps)) if steps else None,
            "max_err_norm": max(err_norms, default=None),
            "rhs_evals_per_record": stats["rhs_evals"] / len(times),
        },
    }
    return _assemble(model, times, mats, meta)


def _assemble(model: ModelGeometry, times: np.ndarray, mats: np.ndarray,
              meta: dict) -> Trajectory:
    """The Trajectory of the recorded metrics, from one ``curvature_batch``.

    Every derived column comes from the batch; its row 0 sets ``vol0``,
    ``rm_n2_0``, ``delta0`` and ``T0`` in a copy of ``meta``, which must
    carry ``gamma``, ``cs0`` and ``c_n``.
    """
    n = model.dim
    cs0 = meta["cs0"]
    curv = geometry.curvature_batch(model, mats)
    vol0 = float(curv.vol[0])
    delta0 = delta0_from_row0(cs0, float(curv.scalar[0]), vol0, n)
    rm_n2 = curv.rm_norm * curv.vol ** (2.0 / n)
    with np.errstate(over="ignore", invalid="ignore"):   # chi may overflow to inf
        chi = meta["c_n"] * np.exp(8.0 * times * delta0 / n) * rm_n2
    derived = {
        "vol": curv.vol,
        "rm_norm": curv.rm_norm,
        "scalar_R": curv.scalar,
        "rm_n2_norm": rm_n2,
        "J": curv.rm_norm ** (n / 2.0) * curv.vol,
        "theta": rm_n2 * cs0 * cs0,
        "chi": chi,
        "ric_min": curv.ric_eigs[:, 0],
        "ric_max": curv.ric_eigs[:, -1],
        "ric_eigs": curv.ric_eigs,
    }
    meta = {**meta, "vol0": vol0, "rm_n2_0": float(rm_n2[0]), "delta0": delta0,
            "T0": horizon_T0(meta["gamma"], vol0, cs0, n)}
    return Trajectory(model=model, times=times, mats=mats, derived=derived, meta=meta)


def parabolic_rescale(traj: Trajectory, lam: float) -> Trajectory:
    """The flow symmetry g~(t) = lam^2 g(t / lam^2), rederived consistently."""
    if lam <= 0:
        raise ValueError(f"rescaling factor must be positive, got {lam}")
    lam2 = lam * lam
    meta = dict(traj.meta)
    meta["t_reached"] = lam2 * meta.get("t_reached", float(traj.times[-1]))
    meta["t_end_requested"] = lam2 * meta.get("t_end_requested", float(traj.times[-1]))
    meta["record_every"] = lam2 * meta.get("record_every", 0.0)
    meta["max_rm"] = meta.get("max_rm", math.inf) / lam2
    meta["rescaled_by"] = lam * meta.get("rescaled_by", 1.0)
    return _assemble(traj.model, lam2 * traj.times, lam2 * traj.mats, meta)


# ---------------------------------------------------------------------------
# CSV persistence (mandated schema)


def csv_columns(n: int) -> list[str]:
    cols = ["t"]
    cols += [f"g_{i}_{j}" for i in range(n) for j in range(i, n)]
    cols += list(DERIVED_KEYS)
    return cols


def trajectory_table(traj: Trajectory) -> np.ndarray:
    """One row per record, one column per ``csv_columns`` entry."""
    rows, cols = _tri_indices(traj.model.dim)
    return np.column_stack([traj.times, traj.mats[:, rows, cols],
                            *(traj.derived[k] for k in DERIVED_KEYS)])


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    lines = [",".join(csv_columns(traj.model.dim))]
    lines += [",".join(map(repr, row)) for row in trajectory_table(traj).tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def _nonfinite(ln: int, col: str, v: float) -> TrajectorySchemaError:
    return TrajectorySchemaError(f"line {ln}: column {col!r} is {v!r}, "
                                 "expected a finite number")


def _scan_rows(lines: list[str], expected: list[str]) -> list[list[float]]:
    """Parse data lines one by one (the first is file line 2), skipping blanks.

    Raises on the first bad line, naming it; the bulk parse falls back to
    this only when it fails, so every error reads as from a line-order scan.
    """
    rows = []
    for ln, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(expected):
            raise TrajectorySchemaError(f"line {ln}: expected {len(expected)} fields, "
                                        f"got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise TrajectorySchemaError(f"line {ln}: {exc}") from None
        for col, v in zip(expected, vals):
            if not math.isfinite(v):
                raise _nonfinite(ln, col, v)
        rows.append(vals)
    return rows


def _line_numbers(lines: list[str]) -> list[int]:
    """File line numbers of the non-blank data lines (the first is line 2)."""
    return [ln for ln, line in enumerate(lines, start=2) if line.strip()]


def _parse_rows(lines: list[str], expected: list[str]) -> np.ndarray:
    """The data lines as an (M, columns) array, all fields finite."""
    body = [line for line in lines if line.strip()]
    if not body:
        raise TrajectorySchemaError("trajectory has no states")
    data = None
    if all(line.count(",") == len(expected) - 1 for line in body):
        try:
            data = np.array(",".join(body).split(","), dtype=float)
        except ValueError:
            pass
    if data is None:
        return np.array(_scan_rows(lines, expected))
    data = data.reshape(len(body), len(expected))
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        row, col = bad[0]
        raise _nonfinite(_line_numbers(lines)[row], expected[col], float(data[row, col]))
    return data


def _check_derived(derived: dict[str, np.ndarray], ref: dict[str, np.ndarray],
                   tol: float) -> float:
    """Largest relative deviation of stored from recomputed derived columns."""
    diffs = np.stack([np.abs(derived[k] - ref[k]) / np.maximum(1.0, np.abs(ref[k]))
                      for k in DERIVED_KEYS])
    worst = float(diffs.max())                 # a NaN propagates
    if not worst <= tol:
        raise TrajectorySchemaError(
            f"derived quantities deviate from recomputation by {worst:.3e}")
    return worst


def read_trajectory_csv(model: ModelGeometry, path: str | Path,
                        cs0: float = 1.0, c_n: float = 1.0,
                        gamma: float = 1.0) -> Trajectory:
    """Load and validate a trajectory.

    Schema violations, non-finite fields, stored metrics that are not
    metrics of the model and stored derived columns that deviate from their
    recomputation (with ``cs0`` and ``c_n`` as given) raise
    TrajectorySchemaError, naming the first bad line where there is one.
    The returned trajectory is the ``_assemble`` of the stored metrics, so
    its derived columns and row-0 values come from one ``curvature_batch``
    over all records.
    """
    n = model.dim
    text = Path(path).read_text().splitlines()
    if not text:
        raise TrajectorySchemaError("empty trajectory file")
    header = text[0].split(",")
    expected = csv_columns(n)
    for i, col in enumerate(expected):
        if i >= len(header) or header[i] != col:
            got = header[i] if i < len(header) else "<missing>"
            raise TrajectorySchemaError(
                f"column {i} should be {col!r}, got {got!r}")
    if len(header) > len(expected):
        raise TrajectorySchemaError(f"unexpected extra column {header[len(expected)]!r}")
    data = _parse_rows(text[1:], expected)
    times = data[:, 0]
    if times[0] != 0.0:
        raise TrajectorySchemaError("column 't' must start at 0")
    if np.any(np.diff(times) <= 0):
        raise TrajectorySchemaError("column 't' must be strictly increasing")
    ntri = n * (n + 1) // 2
    mats = _sym_from_tri(n, data[:, 1:1 + ntri])
    meta = {
        "model": model.describe(),
        "gamma": gamma,
        "cs0": cs0,
        "c_n": c_n,
        "t_reached": float(times[-1]),
        "termination": "loaded-from-csv",
        "source": str(path),
    }
    try:
        traj = _assemble(model, times, mats, meta)
    except GeometryError:
        # a stored metric is not a metric of the model: name its line
        for ln, g in zip(_line_numbers(text[1:]), mats):
            try:
                geometry.curvature_batch(model, g)
            except GeometryError as exc:
                raise TrajectorySchemaError(f"line {ln}: {exc}") from None
        raise
    stored = {k: data[:, 1 + ntri + j] for j, k in enumerate(DERIVED_KEYS)}
    _check_derived(stored, traj.derived, _VALIDATE_TOL)
    return traj


def validate_trajectory(traj: Trajectory, tol: float = _VALIDATE_TOL) -> float:
    """Largest relative mismatch between stored and recomputed derived values.

    Every ``DERIVED_KEYS`` column is compared at every record against the
    ``_assemble`` of the trajectory's metrics; a NaN on either side fails.
    A mismatch above ``tol`` raises TrajectorySchemaError (a ValueError).
    ``read_trajectory_csv`` runs the same comparison on load.
    """
    ref = _assemble(traj.model, traj.times, traj.mats, traj.meta)
    return _check_derived(traj.derived, ref.derived, tol)
