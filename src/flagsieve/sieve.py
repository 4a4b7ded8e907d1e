"""Arithmetic feasibility screens for flag-transitive 2-design parameters.

Everything here is exact integer arithmetic.  The screens encode the standard
counting identities, the Fisher inequality, the coprime reduction
r* = r/(r,lambda), the divisor consequences of flag-transitivity, the
subdegree gcd filter, and the order inequality and two-point divisor that
the eliminator runs.

The working hypothesis throughout is lambda >= (r,lambda)^2 > 1, which forces
g = (r,lambda) >= 2, lambda >= 4, and v < (r*)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .exactmath import binomial_exceeds, divisors, divisors_upto, gcd, p_prime_part
from .grouporders import CaseOrders, GroupSpec

__all__ = [
    "REASON_CODES",
    "DesignParams",
    "Rejection",
    "check_basic",
    "admissible_tuples",
    "admissible_tuples_explained",
    "subdegree_filter",
    "order_inequality_check",
    "two_point_divisor",
]

# every Rejection of admissible_tuples_explained carries one of these tags
REASON_CODES = (
    "divisor-conflict",
    "completeness",
    "lambda-bound",
    "b-nonintegral",
    "fisher",
)


@dataclass(frozen=True, order=True)
class DesignParams:
    """Parameters (v, b, r, k, lambda) of a candidate 2-design."""

    v: int
    b: int
    r: int
    k: int
    lam: int

    def __post_init__(self) -> None:
        if min(self.v, self.b, self.r, self.k, self.lam) < 1:
            raise ValueError(f"parameters must be positive: {self}")

    @property
    def g(self) -> int:
        return gcd(self.r, self.lam)

    @property
    def rstar(self) -> int:
        return self.r // self.g

    @property
    def lamstar(self) -> int:
        return self.lam // self.g

    def as_tuple(self) -> Tuple[int, int, int, int, int]:
        return (self.v, self.b, self.r, self.k, self.lam)


def check_basic(params: DesignParams) -> Tuple[Tuple[str, bool], ...]:
    """Pass/fail entry per defining clause plus the working hypothesis."""
    v, b, r, k, lam = params.as_tuple()
    g = params.g
    return (
        ("replication-identity", r * (k - 1) == lam * (v - 1)),
        ("flag-count-identity", b * k == v * r),
        ("fisher", b >= v and r >= k),
        ("lambda-v-bound", lam * v < r * r),
        ("nontrivial-incomplete", 2 < k < v - 1 and binomial_exceeds(v, k, b)),
        ("hypothesis", g >= 2 and lam >= g * g),
    )


@dataclass(frozen=True)
class Rejection:
    """One discarded branch of the tuple enumeration.

    g is None when the whole (rstar, lambdastar) branch dies before any
    specific g is considered (e.g. no g can make b integral).
    """

    rstar: int
    lamstar: Optional[int]
    k: Optional[int]
    g: Optional[int]
    code: str


def admissible_tuples(
    v: int,
    r_divisor: int,
    g_max: Optional[int] = None,
    rstar_divisor: Optional[int] = None,
    max_work: int = 10**7,
) -> Tuple[DesignParams, ...]:
    """All parameter tuples surviving every arithmetic screen.

    r must divide r_divisor; r* must additionally divide rstar_divisor when
    one is given (a refinement, e.g. a p'-part).  g can be capped by g_max.
    """
    tuples, _ = admissible_tuples_explained(
        v, r_divisor, g_max=g_max, rstar_divisor=rstar_divisor, max_work=max_work
    )
    return tuples


def admissible_tuples_explained(
    v: int,
    r_divisor: int,
    g_max: Optional[int] = None,
    rstar_divisor: Optional[int] = None,
    max_work: int = 10**7,
) -> Tuple[Tuple[DesignParams, ...], Tuple[Rejection, ...]]:
    """admissible_tuples plus the per-branch rejection trace."""
    if v < 4 or r_divisor < 1:
        raise ValueError("need v >= 4 and a positive r divisor")
    cap = gcd(v - 1, rstar_divisor if rstar_divisor is not None else r_divisor)
    rstars = [e for e in divisors(cap) if e * e > v]
    if sum(rstars) > max_work:
        raise ValueError(
            f"tuple enumeration over {len(rstars)} divisors exceeds budget"
        )
    found: List[DesignParams] = []
    rejected: List[Rejection] = []
    for rstar in rstars:
        if r_divisor % rstar != 0:
            rejected.append(Rejection(rstar, None, None, None, "divisor-conflict"))
            continue
        g_pool = r_divisor // rstar
        w = (v - 1) // rstar
        for lamstar in range(1, rstar):
            if gcd(lamstar, rstar) != 1:
                continue
            k = 1 + lamstar * w
            if not 2 < k < v - 1:
                rejected.append(Rejection(rstar, lamstar, k, None, "completeness"))
                continue
            # b = v*g*rstar/k, so g must supply the factor k / (k, v*rstar)
            need = k // gcd(k, v * rstar)
            if g_pool % need != 0:
                rejected.append(
                    Rejection(rstar, lamstar, k, None, "divisor-conflict")
                )
                continue
            # g <= lamstar <= rstar-1 always, so cap the divisor scan there;
            # g_pool itself may be astronomically large
            cap_g = rstar - 1 if g_max is None else min(g_max, rstar - 1)
            for g in divisors_upto(g_pool, cap_g):
                if g < 2:
                    continue
                if lamstar < g:
                    rejected.append(Rejection(rstar, lamstar, k, g, "lambda-bound"))
                    continue
                r = g * rstar
                if (v * r) % k != 0:
                    rejected.append(
                        Rejection(rstar, lamstar, k, g, "b-nonintegral")
                    )
                    continue
                b = v * r // k
                if b < v:
                    rejected.append(Rejection(rstar, lamstar, k, g, "fisher"))
                    continue
                if not binomial_exceeds(v, k, b):
                    rejected.append(
                        Rejection(rstar, lamstar, k, g, "completeness")
                    )
                    continue
                params = DesignParams(v, b, r, k, g * lamstar)
                bad = [name for name, ok in check_basic(params) if not ok]
                if bad:
                    raise ArithmeticError(f"sieve kept {params}, failing {bad}")
                found.append(params)
    return tuple(sorted(found)), tuple(rejected)


def subdegree_filter(v: int, s: int) -> Tuple[int, bool]:
    """R = gcd(v-1, s); a surviving case needs v < R^2.

    r* divides every subdegree and r* divides v-1, hence r* | R, and the
    hypothesis forces v < (r*)^2 <= R^2.
    """
    if v < 2 or s < 1:
        raise ValueError("need v >= 2 and s >= 1")
    big_r = gcd(v - 1, s)
    return big_r, v < big_r * big_r


def order_inequality_check(orders: CaseOrders, spec: GroupSpec) -> Tuple[int, bool]:
    """(bound, survives): the case survives iff |X| < bound, where
    bound = (|Out(X)|_{p'})^2 * |H0| * (|H0|_{p'})^2 and p is the
    characteristic of the socle `spec`, whose orders `orders` holds.

    This is the master inequality combining lambda*v < r^2 with the divisor
    bound on r when p divides v; failing it eliminates the case.
    """
    if orders.order_h0 is None:
        raise ValueError("order_inequality_check needs an exact subgroup order")
    out_stripped = spec.out_order_p_prime
    h0_stripped = p_prime_part(orders.order_h0, spec.p)
    bound = out_stripped**2 * orders.order_h0 * h0_stripped**2
    return bound, orders.order_x < bound


def two_point_divisor(order_out: int, order_h0: int, order_n: int) -> int:
    """Divisor bound for r* when N <= H is in every two-point stabilizer.

    r* divides |Out(X)|*|H0| / |N|; the division must be exact.
    """
    num = order_out * order_h0
    if order_n < 1 or num % order_n != 0:
        raise ArithmeticError(f"{order_n} does not divide {num}")
    return num // order_n


def best_subdegree_verdict(
    v: int, subdegrees: Sequence[int]
) -> Tuple[int, bool]:
    """Apply subdegree_filter with the gcd of several known subdegrees.

    r* divides each subdegree, hence their gcd; smaller R can only help
    eliminate.
    """
    if not subdegrees:
        raise ValueError("need at least one subdegree")
    return subdegree_filter(v, gcd(*subdegrees))
