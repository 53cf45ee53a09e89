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
``ConstantChain`` and ``MoserSchedule`` are ``typing.NamedTuple`` records
with tuple semantics; ``ConstantPrimitives`` is a slot class.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .sobolev import DEFAULT_GALLOT, GallotConstant

__all__ = [
    "ConstantPrimitives",
    "ConstantChain",
    "MoserSchedule",
    "delta0",
    "solve_c_n_gamma",
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
    if cs0 <= 0:
        raise ValueError(f"cs0 must be positive, got {cs0}")
    if neg_part_norm < 0:
        raise ValueError(f"negative-part norm must be >= 0, got {neg_part_norm}")
    return cs0 ** -2 + neg_part_norm


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
    if gamma <= 0:
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


class ConstantChain(NamedTuple):
    """Every derived threshold, a deterministic function of the primitives."""

    n: int
    gamma: float
    vol0: float
    cs0: float
    rm_n2_0: float
    delta0: float
    c_n_gamma: float
    b_n_gamma: float
    eps_n_gamma: float
    eps1_n_gamma: float
    eps_n_main: float
    T0: float
    T1: float
    primitives: dict

    def describe(self) -> dict:
        out = self._asdict()
        out["primitives"] = dict(self.primitives)
        return out


def _b_of(primitives: ConstantPrimitives, n: int, gamma: float, root: float) -> float:
    c = primitives.condition_c
    first = math.exp(-(8.0 / n) * (gamma + n * (n - 1) * root)) / (2.0 * n * (n - 1) * c)
    return min(first, root / gamma)


def _eps_of(primitives: ConstantPrimitives, n: int, gamma: float, root: float) -> float:
    c = primitives.condition_c
    return min((n - 2.0) / (n * c), 1.0 / (n * (n - 1.0)),
               _b_of(primitives, n, gamma, root))


def constant_chain(primitives: ConstantPrimitives, n: int, gamma: float,
                   vol0: float, cs0: float, rm_n2_0: float) -> ConstantChain:
    """Assemble the full threshold chain from the primitives.

    ``delta0`` here is the curvature-controlled bound
    cs0^-2 + n(n-1) ||Rm||_{n/2}(0), the form entering the horizon estimate.
    The closing implication is re-verified numerically: under the smallness
    hypothesis the curvature branch of T1 is not binding, so T1 == T0.
    """
    if vol0 <= 0 or cs0 <= 0 or rm_n2_0 < 0:
        raise ValueError("need vol0 > 0, cs0 > 0, rm_n2_0 >= 0")
    root = solve_c_n_gamma(primitives, n, gamma)
    b = _b_of(primitives, n, gamma, root)
    eps = _eps_of(primitives, n, gamma, root)
    eps1 = min(eps, 1.0 / primitives.c3)
    root1 = root if gamma == 1.0 else solve_c_n_gamma(primitives, n, 1.0)
    eps_g1 = _eps_of(primitives, n, 1.0, root1)
    # the two unvalued constants multiplying the pinching threshold are both
    # modeled by the run's c_n
    eps_main = min(eps_g1, primitives.gromov_ruh_eps / (primitives.c_n * primitives.c_n))
    T0 = gamma * vol0 ** (2.0 / n) * cs0 * cs0
    if rm_n2_0 == 0.0:
        T1 = T0
    else:
        T1 = vol0 ** (2.0 / n) * min(gamma * cs0 * cs0, root / rm_n2_0)
    if rm_n2_0 * cs0 * cs0 <= eps and not math.isclose(T1, T0, rel_tol=1e-12):
        raise AssertionError(
            "threshold chain inconsistency: smallness hypothesis holds but T1 != T0")
    d0 = cs0 ** -2 + n * (n - 1.0) * rm_n2_0
    return ConstantChain(n=n, gamma=gamma, vol0=vol0, cs0=cs0, rm_n2_0=rm_n2_0,
                         delta0=d0, c_n_gamma=root, b_n_gamma=b, eps_n_gamma=eps,
                         eps1_n_gamma=eps1, eps_n_main=eps_main, T0=T0, T1=T1,
                         primitives=primitives.describe())


def theorem_c_threshold(chain: ConstantChain, primitives: ConstantPrimitives,
                        kappa: float) -> float:
    """Threshold c(n, kappa)^-2 * eps_n for the diameter-normalized hypothesis."""
    c = primitives.gallot(chain.n, kappa)
    return chain.eps_n_main / (c * c)


class MoserSchedule(NamedTuple):
    """Exponent and time ladders of the iteration, with exact rational sums.

    ``q[k] = q0 * mu^k`` with mu = 1 + 2/n and q0 = n^2 / (2(n-2));
    ``tau[k] = (1 - mu^-(k+1)) * t_prime``.  Partial sums are exact
    Fractions truncated at index K; their limits and the geometric tails
    are exact as well, so the identities are checked without rounding.
    """

    n: int
    t_prime: float
    k_max: int
    p0: Fraction
    q0: Fraction
    mu: Fraction
    q: tuple[Fraction, ...]
    tau: tuple[float, ...]
    sum_inv_q_next: Fraction       # sum_{k=0..K} 1/q_{k+1}
    sum_inv_q: Fraction            # sum_{k=0..K} 1/q_k
    sum_k_over_q: Fraction         # sum_{k=0..K} k/q_k
    limit_sum_inv_q_next: Fraction
    limit_sum_inv_q: Fraction
    limit_sum_k_over_q: Fraction
    limit_exponents: tuple[Fraction, Fraction, Fraction, Fraction]

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
    if t_prime <= 0:
        raise ValueError(f"t_prime must be positive, got {t_prime}")
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
    if cs <= 0 or t <= 0 or c_fit <= 0:
        raise ValueError("cs, t and c_fit must be positive")
    if rm_p0_half_window_norm < 0:
        raise ValueError("window norm must be nonnegative")
    p0 = n * n / (n - 2.0)
    return (c_fit * cs ** (-4.0 * (n - 2) / (n * n))
            * (cs * cs / t) ** (1.0 - 4.0 / (n * n))
            * rm_p0_half_window_norm ** (2.0 / p0))
