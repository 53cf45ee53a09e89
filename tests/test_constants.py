import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from riccilab import (
    ConstantPrimitives,
    constant_chain,
    delta0,
    moser_final_bound,
    moser_schedule,
    solve_c_n_gamma,
    theorem_c_threshold,
)
from riccilab.constants import _doubling_lhs

DEFAULTS = ConstantPrimitives()


# -- delta0 -------------------------------------------------------------------

@pytest.mark.parametrize("cs0,norm,expected", [
    (2.0, 0.1, 0.35),
    (1.0, 0.0, 1.0),
    (0.5, 0.0, 4.0),
])
def test_delta0_values(cs0, norm, expected):
    assert math.isclose(delta0(cs0, norm), expected, rel_tol=1e-14)


def test_delta0_domain():
    with pytest.raises(ValueError):
        delta0(-1.0, 0.0)
    with pytest.raises(ValueError):
        delta0(1.0, -0.1)


# -- the doubling-equation root ------------------------------------------------

def test_lhs_at_zero_is_one():
    for n in (3, 4, 6):
        assert _doubling_lhs(1.0, n, 1.0, 0.0) == 1.0


def test_root_residual_and_bracket():
    x = solve_c_n_gamma(DEFAULTS, 3, 1.0)
    assert 0.03 < x < 0.05
    assert abs(_doubling_lhs(1.0, 3, 1.0, x) - 8.0) <= 1e-12 * 8.0


def test_root_monotone_scan():
    x = solve_c_n_gamma(DEFAULTS, 3, 1.0)
    xs = np.linspace(0.0, 2.0 * x, 1001)
    vals = np.array([_doubling_lhs(1.0, 3, 1.0, t) for t in xs])
    assert np.all(np.diff(vals) > 0.0)


def test_root_independent_fine_scan():
    x = solve_c_n_gamma(DEFAULTS, 3, 1.0)
    grid = np.arange(0.03, 0.05, 1e-6)
    vals = np.array([_doubling_lhs(1.0, 3, 1.0, t) for t in grid])
    crossing = grid[np.argmax(vals >= 8.0)]
    assert abs(crossing - x) <= 1e-6


def test_root_decreases_in_c_n():
    x1 = solve_c_n_gamma(DEFAULTS, 3, 1.0)
    x2 = solve_c_n_gamma(ConstantPrimitives(c_n=2.0), 3, 1.0)
    assert x2 < x1


def test_root_domain_errors():
    with pytest.raises(ValueError):
        solve_c_n_gamma(DEFAULTS, 3, -1.0)
    with pytest.raises(ValueError):
        solve_c_n_gamma(DEFAULTS, 2, 1.0)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("gamma", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("c_n", [1e-6, 1.0, 1e3])
def test_root_residual_over_parameter_grid(n, gamma, c_n):
    # tiny c_n pushes the root into the steep regime where the left side
    # overflows one doubling past the bracket; the solve must stay robust
    prims = ConstantPrimitives(c_n=c_n)
    x = solve_c_n_gamma(prims, n, gamma)
    assert x > 0
    assert abs(_doubling_lhs(prims.condition_c, n, gamma, x) - 2.0 ** n) \
        <= 1e-12 * 2.0 ** n


@pytest.mark.parametrize("n,gamma,root_hex", [
    (3, 1.0, "0x1.3e02b2d15abe8p-5"),
    (4, 1.0, "0x1.b0aac2189c06cp-5"),
    (3, 0.5, "0x1.40b877bb028f8p-4"),
    (9, 2.0, "0x1.496628586a4e8p-5"),
])
def test_root_pinned_bits(n, gamma, root_hex):
    assert solve_c_n_gamma(DEFAULTS, n, gamma).hex() == root_hex


@pytest.mark.parametrize("n,gamma", [(3, 1.0), (4, 1e-3), (9, 10.0), (40, 0.5)])
def test_root_bisection_call_budget(monkeypatch, n, gamma):
    # the closed-form bracket [0, 2K] leaves about 60 halvings to float resolution
    calls = []

    def counted(*args):
        calls.append(args)
        return _doubling_lhs(*args)

    monkeypatch.setattr("riccilab.constants._doubling_lhs", counted)
    solve_c_n_gamma(DEFAULTS, n, gamma)
    assert len(calls) <= 70


def test_root_tiny_for_large_gamma():
    x = solve_c_n_gamma(DEFAULTS, 3, 50.0)
    assert 0.0 < x < 1e-57
    assert abs(_doubling_lhs(1.0, 3, 50.0, x) - 8.0) <= 1e-12 * 8.0


def test_root_below_normal_floats_rejected():
    with pytest.raises(ValueError, match=r"gamma = 1000.0 .* n = 3"):
        solve_c_n_gamma(DEFAULTS, 3, 1000.0)


def test_nan_residual_rejected(monkeypatch):
    # a NaN left side must fail the residual test, not pass as a zero root
    monkeypatch.setattr("riccilab.constants._doubling_lhs", lambda *args: math.nan)
    with pytest.raises(ArithmeticError, match="residual"):
        solve_c_n_gamma(DEFAULTS, 3, 1.0)


# -- the threshold chain ---------------------------------------------------------

def test_chain_zero_curvature_gives_full_horizon():
    ch = constant_chain(DEFAULTS, 3, 1.0, vol0=1.0, cs0=2.0, rm_n2_0=0.0)
    assert ch.T0 == ch.T1 == 1.0 * 1.0 * 4.0


def test_chain_branches_hand_evaluated():
    ch = constant_chain(DEFAULTS, 3, 1.0, 1.0, 1.0, 0.0)
    x = ch.c_n_gamma
    first = (3 - 2) / (3 * 1.0)
    second = 1.0 / 6.0
    b_first = math.exp(-(8.0 / 3.0) * (1.0 + 6.0 * x)) / 12.0
    b = min(b_first, x / 1.0)
    assert math.isclose(ch.b_n_gamma, b, rel_tol=1e-14)
    assert math.isclose(ch.eps_n_gamma, min(first, second, b), rel_tol=1e-14)
    assert ch.eps_n_gamma <= 1.0 / 6.0


def test_chain_smallness_implies_T1_equals_T0():
    rng = np.random.default_rng(0)
    for _ in range(100):
        gamma = float(rng.uniform(0.2, 3.0))
        cs0 = float(rng.uniform(0.2, 4.0))
        n = int(rng.integers(3, 7))
        ch0 = constant_chain(DEFAULTS, n, gamma, 1.0, cs0, 0.0)
        rm = float(rng.uniform(0.0, 1.0)) * ch0.eps_n_gamma / (cs0 * cs0)
        ch = constant_chain(DEFAULTS, n, gamma, 1.0, cs0, rm)
        assert ch.T1 == ch.T0
        # horizon inequality: t * delta0 stays below gamma + n(n-1) c(n,gamma)
        assert ch.T1 * ch.delta0 <= gamma + n * (n - 1) * ch.c_n_gamma + 1e-12


def test_chain_orders():
    ch = constant_chain(DEFAULTS, 4, 2.0, 1.0, 1.0, 0.5)
    assert ch.eps1_n_gamma <= ch.eps_n_gamma
    assert ch.eps_n_main <= _eps_gamma_one()
    assert ch.T1 <= ch.T0
    assert all(v > 0 for v in (ch.c_n_gamma, ch.b_n_gamma, ch.eps_n_gamma,
                               ch.eps1_n_gamma, ch.eps_n_main, ch.T0, ch.T1))


def _eps_gamma_one():
    return constant_chain(DEFAULTS, 4, 1.0, 1.0, 1.0, 0.0).eps_n_gamma


def test_chain_deterministic():
    a = constant_chain(DEFAULTS, 5, 1.3, 2.0, 0.7, 0.01).describe()
    b = constant_chain(DEFAULTS, 5, 1.3, 2.0, 0.7, 0.01).describe()
    assert a == b


def test_theorem_c_threshold_uses_gallot():
    ch = constant_chain(DEFAULTS, 3, 1.0, 1.0, 1.0, 0.0)
    t0 = theorem_c_threshold(ch, DEFAULTS, 0.0)
    t1 = theorem_c_threshold(ch, DEFAULTS, 1.0)
    assert math.isclose(t0, ch.eps_n_main, rel_tol=1e-14)   # c(n, 0) = 1 default
    assert t1 < t0                                          # larger constant, smaller threshold


# -- iteration schedule -----------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 9))
def test_moser_sums_exact_rational(n):
    ms = moser_schedule(n, 1.0, 48)
    tail = ms.tail_inv_q(ms.k_max)
    assert ms.sum_inv_q + tail == ms.limit_sum_inv_q == 1 - Fraction(4, n * n)
    assert ms.sum_inv_q_next + tail / ms.mu == ms.limit_sum_inv_q_next \
        == Fraction(n - 2, n)


def test_moser_n4_values():
    ms = moser_schedule(4, 1.0, 32)
    assert ms.mu == Fraction(3, 2)
    assert ms.q0 == 4
    assert ms.limit_sum_inv_q_next == Fraction(1, 2)
    assert ms.limit_sum_inv_q == Fraction(3, 4)


def test_moser_partial_sums_monotone_within_tail():
    for n in (3, 5):
        prev_q = Fraction(0)
        for k in (1, 2, 4, 8, 16):
            ms = moser_schedule(n, 1.0, k)
            assert ms.sum_inv_q > prev_q
            prev_q = ms.sum_inv_q
            assert ms.sum_inv_q < ms.limit_sum_inv_q
            assert ms.limit_sum_inv_q - ms.sum_inv_q == ms.tail_inv_q(ms.k_max)


def test_moser_time_ladder():
    ms = moser_schedule(4, 2.0, 16)
    assert math.isclose(ms.tau[0], (1.0 - 2.0 / 3.0) * 2.0, rel_tol=1e-14)
    assert all(a < b for a, b in zip(ms.tau, ms.tau[1:]))
    assert ms.tau[-1] < 2.0


def test_moser_q_increasing():
    ms = moser_schedule(5, 1.0, 16)
    assert all(a < b for a, b in zip(ms.q, ms.q[1:]))


def test_moser_domain():
    with pytest.raises(ValueError):
        moser_schedule(4, 1.0, 0)
    with pytest.raises(ValueError):
        moser_schedule(2, 1.0, 4)


# -- the final sup bound -----------------------------------------------------------

def test_final_bound_zero_window():
    assert moser_final_bound(4, 1.0, 1.0, 0.0, 1.0) == 0.0


def test_final_bound_exponents_n4():
    # exponents at n = 4: (cs^2/t)^{3/4}, cs^{-1/2}, window^{1/4}
    base = moser_final_bound(4, 1.0, 1.0, 1.0, 1.0)
    assert math.isclose(moser_final_bound(4, 1.0, 2.0, 1.0, 1.0) / base,
                        2.0 ** -0.75, rel_tol=1e-13)
    assert math.isclose(moser_final_bound(4, 1.0, 1.0, 16.0, 1.0) / base,
                        2.0, rel_tol=1e-13)
    ms = moser_schedule(4, 1.0, 8)
    assert ms.limit_exponents[2] == Fraction(3, 4)
    assert ms.limit_exponents[3] == Fraction(1, 2)


def test_final_bound_power_law_in_t():
    for n in (3, 5):
        b1 = moser_final_bound(n, 2.0, 1.0, 3.0, 1.5)
        b2 = moser_final_bound(n, 2.0, 2.0, 3.0, 1.5)
        assert math.isclose(b2 / b1, 2.0 ** -(1.0 - 4.0 / n ** 2), rel_tol=1e-13)


# -- primitives validation ----------------------------------------------------------

def test_primitives_validation():
    with pytest.raises(ValueError):
        ConstantPrimitives(a_n=0.5)
    with pytest.raises(ValueError):
        ConstantPrimitives(gromov_ruh_eps=1.5)
    with pytest.raises(ValueError):
        ConstantPrimitives(c_n=0.0)
    assert ConstantPrimitives(a_n=3.0, c_n=2.0).condition_c == 3.0


# -- NaN fails every domain guard ----------------------------------------------

def _nan_guard_cases():
    from riccilab import checks, constants, geometry, sobolev

    nan = math.nan
    th = constants.chain_thresholds(DEFAULTS, 3, 1.0)
    ric = SimpleNamespace(ric_eigs=np.zeros(3))        # what integral_ricci_deficit reads
    p_msg = "exponent p must be >= 1"
    return [
        ("delta0 cs0", lambda: constants.delta0(nan), "cs0 must be positive"),
        ("delta0 norm", lambda: constants.delta0(1.0, nan), "negative-part norm must be >= 0"),
        *((f"horizon_T0 {i}", lambda i=i: constants.horizon_T0(
            *[nan if j == i else 1.0 for j in range(3)], 3), "horizon inputs must be positive")
          for i in range(3)),
        ("solve_c_n_gamma", lambda: constants.solve_c_n_gamma(DEFAULTS, 3, nan),
         "gamma must be positive, got nan"),
        *((f"chain_from_thresholds {i}", lambda i=i: constants.chain_from_thresholds(
            th, *[nan if j == i else (0.0 if j == 2 else 1.0) for j in range(3)]),
           "need vol0 > 0, cs0 > 0, rm_n2_0 >= 0") for i in range(3)),
        ("moser_schedule", lambda: constants.moser_schedule(3, nan), "t_prime must be positive"),
        *((f"moser_final_bound {i}", lambda i=i: constants.moser_final_bound(
            3, *[nan if j == i else 1.0 for j in range(4)]),
           "window norm must be nonnegative" if i == 2 else "cs, t and c_fit must be positive")
          for i in range(4)),
        ("lp_norm_of_constant vol", lambda: sobolev.lp_norm_of_constant(1.0, nan, 1.5),
         "volume must be positive, got nan"),
        ("lp_norm_of_constant p", lambda: sobolev.lp_norm_of_constant(1.0, 1.0, nan), p_msg),
        ("gallot_upper diam", lambda: sobolev.gallot_upper(3, 0.0, nan, 1.0),
         "diam and vol must be positive"),
        ("gallot_upper vol", lambda: sobolev.gallot_upper(3, 0.0, 1.0, nan),
         "diam and vol must be positive"),
        ("gallot_upper strategy", lambda: sobolev.gallot_upper(3, 0.0, 1.0, 1.0,
                                                               lambda n, k: nan),
         "Sobolev constant strategy returned nonpositive value nan"),
        ("integral_ricci_deficit vol", lambda: sobolev.integral_ricci_deficit(ric, nan, 2.0),
         "volume must be positive, got nan"),
        ("integral_ricci_deficit p", lambda: sobolev.integral_ricci_deficit(ric, 1.0, nan),
         "deficit exponent must satisfy p > n/2"),
        ("GallotConstant", lambda: sobolev.GallotConstant()(3, nan),
         "kappa must be nonnegative, got nan"),
        ("scale_metric", lambda: geometry.scale_metric(np.eye(3), nan),
         "metric scale factor must be positive, got nan"),
        *((f"check_diameter_bound {i}", lambda i=i: checks.check_diameter_bound(
            *[nan if j == i else 1.0 for j in range(2)], 3,
            *[nan if j == i else 1.0 for j in range(2, 4)], []),
           "the Sobolev coefficients A and B must be positive" if i < 2
           else "diam and vol must be positive") for i in range(4)),
        ("check_lp_evolution", lambda: checks.check_lp_evolution(None, nan), p_msg),
    ]


@pytest.mark.parametrize("call,message", [case[1:] for case in _nan_guard_cases()],
                         ids=[case[0] for case in _nan_guard_cases()])
def test_nan_fails_the_domain_guards(call, message):
    # each guard is written so that NaN fails it, with the message of a bad value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()
