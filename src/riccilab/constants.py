"""Explicit constants, thresholds and iteration schedules.

Several universal constants in the estimates this package checks are known
to exist but carry no published numeric value.  They are therefore explicit
configuration with defaults (all 1), echoed into every report, and never
invented silently:

* ``c_n``      -- the recurring dimensional constant of the flow-time
                  Sobolev inequality and the curvature evolution estimates;
* ``a_n``      -- the constant (>= 1) weighting the smallness condition
                  traced along the flow;
* ``c3``       -- the constant in the refined L^{p0/2} control step;
* ``gallot``   -- the strategy for c(n, kappa) in the diameter/volume
                  Sobolev bound;
* ``gromov_ruh_eps`` -- the flatness threshold (<= 1) of the pointwise
                  pinching theorem used as a black box.

The smallness condition traced along trajectories uses
``max(a_n, c_n)``; one run has a single effective dimensional constant.

``solve_c_n_gamma`` bisects exp(2 c e^{(8/n)(gamma + n(n-1) x)} x) = 2^n
on a closed-form bracket down to float resolution; the unique root feeds
the threshold chain.  The Moser schedule fields are kept in exact rational
arithmetic so the limit identities ``sum 1/q_{k+1} = (n-2)/n`` and
``sum 1/q_k = 1 - 4/n^2`` are checked without floating error.
``ConstantChain``, ``ChainThresholds`` and ``MoserSchedule`` are
``collections.namedtuple`` records with tuple semantics, whose field types
are comments, so that importing the module compiles no ``ForwardRef``;
``ConstantPrimitives`` is a slot class.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .sobolev import DEFAULT_GALLOT, GallotConstant

__all__ = [
    "ConstantPrimitives",
    "ConstantChain",
    "ChainThresholds",
    "MoserSchedule",
    "delta0",
    "horizon_T0",
    "solve_c_n_gamma",
    "chain_thresholds",
    "chain_from_thresholds",
    "constant_chain",
    "theorem_c_threshold",
    "moser_schedule",
    "moser_final_bound",
]


def _require_positive(name: str, value: float) -> None:
    """Raise ValueError naming the setting unless 0 < value < inf (NaN fails)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


class ConstantPrimitives:
    """Configured universal constants, a slot class validated at
    construction; every report echoes these."""

    __slots__ = ("c_n", "a_n", "c3", "gallot", "gromov_ruh_eps")

    def __init__(self, c_n: float = 1.0, a_n: float = 1.0, c3: float = 1.0,
                 gallot: GallotConstant = DEFAULT_GALLOT, gromov_ruh_eps: float = 1.0):
        _require_positive("c_n", c_n)
        _require_positive("c3", c3)
        _require_positive("gallot_c0", gallot.c0)
        if not 1.0 <= a_n < math.inf:
            raise ValueError(f"a_n must be >= 1 and finite, got {a_n}")
        if not (0.0 < gromov_ruh_eps <= 1.0):
            raise ValueError(f"gromov_ruh_eps must lie in (0, 1], got {gromov_ruh_eps}")
        self.c_n, self.a_n, self.c3 = c_n, a_n, c3
        self.gallot, self.gromov_ruh_eps = gallot, gromov_ruh_eps

    @property
    def condition_c(self) -> float:
        """Effective constant max(a_n, c_n) of the flow-time smallness condition."""
        return max(self.a_n, self.c_n)

    def describe(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["gallot"] = self.gallot.describe()
        return out


def delta0(cs0: float, neg_part_norm: float = 0.0) -> float:
    """Initial-data functional cs0^-2 + ||negative scalar curvature part||_{n/2}."""
    if not cs0 > 0:
        raise ValueError(f"cs0 must be positive, got {cs0}")
    if not neg_part_norm >= 0:
        raise ValueError(f"negative-part norm must be >= 0, got {neg_part_norm}")
    return cs0 ** -2 + neg_part_norm


def horizon_T0(gamma: float, vol0: float, cs0: float, n: int) -> float:
    """Flow horizon gamma * vol0^(2/n) * cs0^2."""
    if not (gamma > 0 and vol0 > 0 and cs0 > 0):
        raise ValueError("horizon inputs must be positive")
    return gamma * vol0 ** (2.0 / n) * cs0 * cs0


def _doubling_lhs(c: float, n: int, gamma: float, x: float) -> float:
    # the double exponential overflows quickly; +inf keeps bracketing sound
    try:
        return math.exp(2.0 * c * math.exp((8.0 / n) * (gamma + n * (n - 1) * x)) * x)
    except OverflowError:
        return math.inf


def solve_c_n_gamma(primitives: ConstantPrimitives, n: int, gamma: float) -> float:
    """Unique root x of exp(2 c e^{(8/n)(gamma + n(n-1) x)} x) = 2^n.

    Taking logs twice gives x e^{8(n-1)x} = K = n ln2 e^{-8 gamma/n} / (2c),
    so the root lies in (0, K] and [0, 2K] brackets it (the left side is
    >= 4^n at 2K).  Bisection stops when no float lies between the ends,
    after about 60 halvings.  gamma may reach about 88.5 n, where
    e^{-8 gamma/n} leaves the normal floats; beyond that, or when K does,
    ValueError names n and gamma.  The relative residual is at most 1e-12.
    """
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got {n}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    c = primitives.condition_c
    e = math.exp(-8.0 * gamma / n)
    k = n * math.log(2.0) * e / (2.0 * c)
    if not min(k, e) >= sys.float_info.min:
        raise ValueError(f"gamma = {gamma} is too large for n = {n}: the doubling "
                         f"equation's root is not representable in floating point")
    target = 2.0 ** n
    lo, x, hi = 0.0, k, 2.0 * k
    while lo < x < hi:
        if _doubling_lhs(c, n, gamma, x) < target:
            lo = x
        else:
            hi = x
        x = 0.5 * (lo + hi)
    if not abs(_doubling_lhs(c, n, gamma, x) - target) <= 1e-12 * target:
        raise ArithmeticError(f"root residual too large at x = {x}")
    return x


class ConstantChain(namedtuple("ConstantChain", (
        "n",              # int
        "gamma",          # float
        "vol0",           # float
        "cs0",            # float
        "rm_n2_0",        # float
        "delta0",         # float
        "c_n_gamma",      # float
        "b_n_gamma",      # float
        "eps_n_gamma",    # float
        "eps1_n_gamma",   # float
        "eps_n_main",     # float
        "T0",             # float
        "T1",             # float
        "primitives",     # dict
))):
    """Every derived threshold, a deterministic function of the primitives."""

    __slots__ = ()

    def describe(self) -> dict:
        out = self._asdict()
        out["primitives"] = dict(self.primitives)
        return out


ChainThresholds = namedtuple("ChainThresholds", (
    "n",              # int
    "gamma",          # float
    "c_n_gamma",      # float
    "b_n_gamma",      # float
    "eps_n_gamma",    # float
    "eps1_n_gamma",   # float
    "eps_n_main",     # float
    "primitives",     # dict
))
ChainThresholds.__doc__ = (
    """The fields of a ``ConstantChain`` that depend on (primitives, n, gamma) only.""")


def chain_thresholds(primitives: ConstantPrimitives, n: int, gamma: float) -> ChainThresholds:
    """The threshold part of ``constant_chain``: the doubling-equation root at
    gamma (and at 1, which eps_main uses), b, eps, eps1 and eps_main.  A
    sweep solves it once and passes it to ``chain_from_thresholds`` per row.
    """
    c = primitives.condition_c

    def b_and_eps(g: float, root: float) -> tuple[float, float]:
        b = min(math.exp(-(8.0 / n) * (g + n * (n - 1) * root)) / (2.0 * n * (n - 1) * c),
                root / g)
        return b, min((n - 2.0) / (n * c), 1.0 / (n * (n - 1.0)), b)

    root = solve_c_n_gamma(primitives, n, gamma)
    b, eps = b_and_eps(gamma, root)
    _, eps_g1 = b_and_eps(1.0, root if gamma == 1.0 else solve_c_n_gamma(primitives, n, 1.0))
    # the two unvalued constants multiplying the pinching threshold are both
    # modeled by the run's c_n
    eps_main = min(eps_g1, primitives.gromov_ruh_eps / (primitives.c_n * primitives.c_n))
    return ChainThresholds(n, gamma, root, b, eps, min(eps, 1.0 / primitives.c3), eps_main,
                           primitives.describe())


def chain_from_thresholds(thresholds: ChainThresholds, vol0: float, cs0: float,
                          rm_n2_0: float) -> ConstantChain:
    """The initial-data part of ``constant_chain``: vol0, rm_n2_0, delta0, T0
    and T1 on top of ``thresholds``, with the input validation and the
    T1 == T0 consistency assertion.
    """
    if not (vol0 > 0 and cs0 > 0 and rm_n2_0 >= 0):
        raise ValueError("need vol0 > 0, cs0 > 0, rm_n2_0 >= 0")
    n, gamma, root = thresholds.n, thresholds.gamma, thresholds.c_n_gamma
    T0 = horizon_T0(gamma, vol0, cs0, n)
    T1 = T0 if rm_n2_0 == 0.0 else vol0 ** (2.0 / n) * min(gamma * cs0 * cs0, root / rm_n2_0)
    if rm_n2_0 * cs0 * cs0 <= thresholds.eps_n_gamma and not math.isclose(T1, T0, rel_tol=1e-12):
        raise AssertionError(
            "threshold chain inconsistency: smallness hypothesis holds but T1 != T0")
    return ConstantChain(**thresholds._asdict(), vol0=vol0, cs0=cs0, rm_n2_0=rm_n2_0,
                         delta0=cs0 ** -2 + n * (n - 1.0) * rm_n2_0, T0=T0, T1=T1)


def constant_chain(primitives: ConstantPrimitives, n: int, gamma: float,
                   vol0: float, cs0: float, rm_n2_0: float) -> ConstantChain:
    """Assemble the full threshold chain from the primitives.

    ``chain_from_thresholds(chain_thresholds(primitives, n, gamma), vol0,
    cs0, rm_n2_0)``: the thresholds are solved first, so a bad n or gamma
    is reported before a bad vol0, cs0 or rm_n2_0.  ``delta0`` here is the
    curvature-controlled bound cs0^-2 + n(n-1) ||Rm||_{n/2}(0), the form
    entering the horizon estimate.  The closing implication is re-verified
    numerically: under the smallness hypothesis the curvature branch of T1
    is not binding, so T1 == T0.
    """
    return chain_from_thresholds(chain_thresholds(primitives, n, gamma), vol0, cs0, rm_n2_0)


def theorem_c_threshold(chain: ConstantChain, primitives: ConstantPrimitives,
                        kappa: float) -> float:
    """Threshold c(n, kappa)^-2 * eps_n for the diameter-normalized hypothesis."""
    c = primitives.gallot(chain.n, kappa)
    return chain.eps_n_main / (c * c)


class MoserSchedule(namedtuple("MoserSchedule", (
        "n",                      # int
        "t_prime",                # float
        "k_max",                  # int
        "p0",                     # Fraction
        "q0",                     # Fraction
        "mu",                     # Fraction
        "q",                      # tuple[Fraction, ...]
        "tau",                    # tuple[float, ...]
        "sum_inv_q_next",         # Fraction: sum_{k=0..K} 1/q_{k+1}
        "sum_inv_q",              # Fraction: sum_{k=0..K} 1/q_k
        "sum_k_over_q",           # Fraction: sum_{k=0..K} k/q_k
        "limit_sum_inv_q_next",   # Fraction
        "limit_sum_inv_q",        # Fraction
        "limit_sum_k_over_q",     # Fraction
        "limit_exponents",        # tuple[Fraction, Fraction, Fraction, Fraction]
))):
    """Exponent and time ladders of the iteration, with exact rational sums.

    ``q[k] = q0 * mu^k`` with mu = 1 + 2/n and q0 = n^2 / (2(n-2));
    ``tau[k] = (1 - mu^-(k+1)) * t_prime``.  Partial sums are exact
    Fractions truncated at index K; their limits and the geometric tails
    are exact as well, so the identities are checked without rounding.
    """

    __slots__ = ()

    def tail_inv_q(self, k: int) -> Fraction:
        """Exact geometric tail sum_{j>k} 1/q_j."""
        return (1 / self.q[k]) * (1 / (self.mu - 1))

    def describe(self) -> dict:
        return {
            "n": self.n, "t_prime": self.t_prime, "k_max": self.k_max,
            "p0": float(self.p0), "q0": float(self.q0), "mu": float(self.mu),
            "q": [float(x) for x in self.q],
            "tau": list(self.tau),
            "sum_inv_q_next": float(self.sum_inv_q_next),
            "sum_inv_q": float(self.sum_inv_q),
            "sum_k_over_q": float(self.sum_k_over_q),
            "limits": {
                "sum_inv_q_next": str(self.limit_sum_inv_q_next),
                "sum_inv_q": str(self.limit_sum_inv_q),
                "sum_k_over_q": str(self.limit_sum_k_over_q),
            },
            "limit_exponents": [str(e) for e in self.limit_exponents],
        }


def moser_schedule(n: int, t_prime: float = 1.0, k_max: int = 64) -> MoserSchedule:
    """Build the iteration ladder through index k_max."""
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got {n}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not t_prime > 0:
        raise ValueError(f"t_prime must be positive, got {t_prime}")
    from fractions import Fraction      # only the constants command builds a schedule

    p0 = Fraction(n * n, n - 2)
    q0 = p0 / 2
    mu = 1 + Fraction(2, n)
    q = tuple(q0 * mu ** k for k in range(k_max + 1))
    tau = tuple(float(1 - 1 / mu ** (k + 1)) * t_prime for k in range(k_max + 1))
    s_next = sum((1 / (q0 * mu ** (k + 1)) for k in range(k_max + 1)), Fraction(0))
    s_q = sum((1 / qk for qk in q), Fraction(0))
    s_kq = sum((Fraction(k) / q[k] for k in range(k_max + 1)), Fraction(0))
    lim_next = Fraction(n - 2, n)
    lim_q = 1 - Fraction(4, n * n)
    lim_kq = Fraction(n * n - 4, 2 * n)
    exps = (Fraction(n - 2, n), 1 - Fraction(4, n * n), 1 - Fraction(4, n * n),
            Fraction(4 * (n - 2), n * n))
    return MoserSchedule(n=n, t_prime=t_prime, k_max=k_max, p0=p0, q0=q0, mu=mu,
                         q=q, tau=tau, sum_inv_q_next=s_next, sum_inv_q=s_q,
                         sum_k_over_q=s_kq, limit_sum_inv_q_next=lim_next,
                         limit_sum_inv_q=lim_q, limit_sum_k_over_q=lim_kq,
                         limit_exponents=exps)


def moser_final_bound(n: int, cs: float, t: float, rm_p0_half_window_norm: float,
                      c_fit: float) -> float:
    """Sup-norm bound from the iterated estimate.

    c_fit * cs^(-4(n-2)/n^2) * (cs^2/t)^(1-4/n^2) * window^(2/p0), where
    ``window`` is the space-time integral of |Rm|^{p0/2} over the final
    window and c_fit is a fitted, not universal, constant.
    """
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got {n}")
    if not (cs > 0 and t > 0 and c_fit > 0):
        raise ValueError("cs, t and c_fit must be positive")
    if not rm_p0_half_window_norm >= 0:
        raise ValueError("window norm must be nonnegative")
    p0 = n * n / (n - 2.0)
    return (c_fit * cs ** (-4.0 * (n - 2) / (n * n))
            * (cs * cs / t) ** (1.0 - 4.0 / (n * n))
            * rm_p0_half_window_norm ** (2.0 / p0))
