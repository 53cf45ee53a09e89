"""Nilsoliton flows: exact closed forms at n = 4 and 5.

A nilpotent metric Lie algebra whose Ricci form at g = I is Ric = cI + D,
with D a derivation and c = tr Ric^2 / R, flows self-similarly from I
(Lauret 2001, "Ricci soliton homogeneous nilmanifolds"; Payne 2010 for the
flow): with u = 1 - 2ct, g_ii = u^(Ric_ii / c), vol = u^(R / 2c),
|Rm| = |Rm|(0) / u and R(t) = R / u.  The precondition and |Rm|(0) are
computed here in exact rationals by the Koszul formula, which shares no
code with riccilab's closed form for Ricci, and riccilab's flows are held
to the closed forms.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from riccilab import FlowConfig, build_model, integrate, reference_metric
from riccilab.config import load_config
from riccilab.flow import TERM_HORIZON

CONFIGS = Path(__file__).parent.parent / "configs"

HALF = Fraction(1, 2)
# name -> (dimension, brackets [i, j, k, c] for [e_i, e_j] = c e_k, Ric at
# g = I, c, |Rm|(0)^2)
ALGEBRAS = {
    "filiform4": (4, [[1, 2, 3, 1], [1, 3, 4, 1]], (-1, -HALF, 0, HALF), Fraction(-3, 2), 5),
    "H5": (5, [[1, 2, 5, 1], [3, 4, 5, 1]], (-HALF, -HALF, -HALF, -HALF, 1), -2,
           Fraction(17, 2)),
    "L5": (5, [[1, 2, 3, 1], [1, 4, 5, 1]], (-1, -HALF, HALF, -HALF, HALF), -2,
           Fraction(13, 2)),
}
# the 5-dim filiform algebra with unit brackets is not a soliton at g = I
FILIFORM5 = (5, [[1, 2, 3, 1], [1, 3, 4, 1], [1, 4, 5, 1]])


def _structure(n, brackets):
    """c[i][j][k] = <[e_i, e_j], e_k> at g = I, antisymmetrized, as Fractions."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, v in brackets:
        c[i - 1][j - 1][k - 1] += v
        c[j - 1][i - 1][k - 1] -= v
    return c


def _exact_curvature(n, brackets):
    """Ric and |Rm|^2 at g = I by the Koszul formula, in exact rationals.

    In the orthonormal basis, <nabla_i e_j, e_k> = (c_ijk - c_jki + c_kij) / 2,
    R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k
    - nabla_[e_i, e_j] e_k, Ric_jk = sum_i <R(e_i, e_j) e_k, e_i> and |Rm|^2
    is the sum of the squares of every <R(e_i, e_j) e_k, e_l>.
    """
    c = _structure(n, brackets)
    r = range(n)
    gam = [[[(c[i][j][k] - c[j][k][i] + c[k][i][j]) / 2 for k in r] for j in r] for i in r]

    def riem(i, j, k):      # nabla_i e_j = sum_m gam[i][j][m] e_m
        return [sum(gam[j][k][m] * gam[i][m][l] - gam[i][k][m] * gam[j][m][l]
                    - c[i][j][m] * gam[m][k][l] for m in r) for l in r]

    R = {(i, j, k): riem(i, j, k) for i in r for j in r for k in r}
    ric = [[sum(R[i, j, k][i] for i in r) for k in r] for j in r]
    return ric, sum(v * v for vec in R.values() for v in vec)


def _derivation_defect(n, brackets, D):
    """The largest entry of D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j] over i, j,
    exactly, where D e_i = sum_m D[m][i] e_m."""
    c = _structure(n, brackets)
    r = range(n)
    return max(abs(sum(D[l][m] * c[i][j][m] - D[m][i] * c[m][j][l] - D[m][j] * c[i][m][l]
                       for m in r)) for i in r for j in r for l in r)


def _soliton_constant(ric):
    """c = tr Ric^2 / R."""
    n = len(ric)
    return sum(ric[i][j] ** 2 for i in range(n) for j in range(n)) / \
        sum(ric[i][i] for i in range(n))


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_exact_precondition_ric_minus_c_is_a_derivation(name):
    n, brackets, diag, c, rm0_sq = ALGEBRAS[name]
    ric, rm_sq = _exact_curvature(n, brackets)
    assert ric == [[Fraction(diag[i]) if i == j else 0 for j in range(n)] for i in range(n)]
    assert rm_sq == rm0_sq
    assert _soliton_constant(ric) == c
    D = [[ric[i][j] - (c if i == j else 0) for j in range(n)] for i in range(n)]
    assert _derivation_defect(n, brackets, D) == 0


def test_filiform5_fails_the_precondition():
    n, brackets = FILIFORM5
    ric, _ = _exact_curvature(n, brackets)
    c = _soliton_constant(ric)
    D = [[ric[i][j] - (c if i == j else 0) for j in range(n)] for i in range(n)]
    assert _derivation_defect(n, brackets, D) > 0


def _quotient(name):
    n, brackets = ALGEBRAS[name][:2]
    return build_model({"kind": "lie_group_quotient", "dim": n, "covolume": 1.0,
                        "brackets": [[i, j, k, float(v)] for i, j, k, v in brackets]})


def _assert_nilsoliton_closed_form(traj, ric, rm0, tol):
    """A nilsoliton flow from g = I with Ric = diag(ric) = cI + D, D a
    derivation, is self-similar (Lauret 2001): with c = tr Ric^2 / R and
    u = 1 - 2ct, g_ii = u^(Ric_ii / c), vol = u^(R / 2c), |Rm| = |Rm|(0) / u
    and R(t) = R / u.  Every record must match within ``tol``, the metric
    relative to the record's largest entry, off-diagonals included."""
    ric = np.asarray(ric)
    scal = ric.sum()
    c = (ric * ric).sum() / scal
    u = 1.0 - 2.0 * c * traj.times
    exact = np.zeros_like(traj.mats)
    diag = np.arange(len(ric))
    exact[:, diag, diag] = u[:, None] ** (ric / c)
    largest = np.abs(exact).max(axis=(1, 2))
    assert (np.abs(traj.mats - exact).max(axis=(1, 2)) / largest).max() <= tol
    for key, closed in (("vol", u ** (scal / (2.0 * c))), ("rm_norm", rm0 / u),
                        ("scalar_R", scal / u)):
        assert (np.abs(traj.derived[key] - closed) / np.abs(closed)).max() <= tol, key


def test_filiform4_cfg_closed_form():
    # Ric = -(3/2) I + D with D = diag(1/2, 1, 3/2, 2) a derivation of
    # [e1,e2] = e3, [e1,e3] = e4, so u = 1 + 3t, g(t) = diag(u^{2/3}, u^{1/3},
    # 1, u^{-1/3}), vol = u^{1/3}, |Rm| = sqrt 5 / u and R = -1 / u
    cfg = load_config(CONFIGS / "filiform4.cfg")
    model = build_model(cfg.model_spec)
    traj = integrate(model, reference_metric(model), cfg.flow)
    assert traj.meta["termination"] == TERM_HORIZON and len(traj) == 513
    _assert_nilsoliton_closed_form(traj, [-1.0, -0.5, 0.0, 0.5], math.sqrt(5.0),
                                   cfg.flow.rel_tol)


@pytest.mark.parametrize("t_end", [10.0, 1000.0])
@pytest.mark.parametrize("name", ["H5", "L5"])
def test_closed_form_at_n5(name, t_end):
    # H5, [e1,e2] = [e3,e4] = e5: u = 1 + 4t, g_ii = u^{1/4} (i <= 4),
    # g_55 = u^{-1/2}, vol = u^{1/4}, |Rm| = sqrt(17/2) / u, R = -1 / u.
    # L5, [e1,e2] = e3, [e1,e4] = e5: u = 1 + 4t, g = diag(u^{1/2}, u^{1/4},
    # u^{-1/4}, u^{1/4}, u^{-1/4}), vol = u^{1/4}, |Rm| = sqrt(13/2) / u, R = -1 / u
    n, _, diag, _, rm0_sq = ALGEBRAS[name]
    cfg = FlowConfig(t_end=t_end, record_every=t_end / 64)
    traj = integrate(_quotient(name), np.eye(n), cfg)
    assert traj.meta["termination"] == TERM_HORIZON and len(traj) == 65
    _assert_nilsoliton_closed_form(traj, [float(x) for x in diag], math.sqrt(rm0_sq),
                                   cfg.rel_tol)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_long_time_limit_of_rm_times_t(name):
    # |Rm| t = |Rm|(0) t / (1 - 2ct) tends to |Rm|(0) / (-2c); at T = 1e6 the
    # closed form is within 2.5e-7 of the limit, so 1e-6 leaves the flow
    # about 7.5e-7 of error
    n, _, _, c, rm0_sq = ALGEBRAS[name]
    T = 1e6
    traj = integrate(_quotient(name), np.eye(n), FlowConfig(t_end=T, record_every=T / 64))
    assert traj.meta["termination"] == TERM_HORIZON and traj.times[-1] == T
    limit = math.sqrt(rm0_sq) / float(-2 * c)
    assert abs(traj.derived["rm_norm"][-1] * T - limit) <= 1e-6
