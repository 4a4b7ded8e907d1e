"""The tuple sieve for flag-transitive 2-design parameters.

Everything here is exact integer arithmetic.  The sieve encodes the standard
counting identities, the Fisher inequality, the coprime reduction
r* = r/(r,lambda) and the divisor consequences of flag-transitivity; the
group-theoretic screens live with the eliminator, which runs them.

The working hypothesis throughout is lambda >= (r,lambda)^2 > 1, which forces
g = (r,lambda) >= 2, lambda >= 4, and v < (r*)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .exactmath import binomial_exceeds, divisors, divisors_upto, gcd

__all__ = [
    "REASON_CODES",
    "DesignParams",
    "Rejection",
    "TupleBudgetError",
    "check_basic",
    "admissible_tuples_explained",
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


class TupleBudgetError(ValueError):
    """The tuple enumeration would exceed its work budget."""


def admissible_tuples_explained(
    v: int,
    r_divisor: int,
    g_max: Optional[int] = None,
    rstar_divisor: Optional[int] = None,
    max_work: int = 10**7,
) -> Tuple[Tuple[DesignParams, ...], Tuple[Rejection, ...]]:
    """All parameter tuples surviving every arithmetic screen, and the
    per-branch rejection trace.

    r must divide r_divisor; r* must additionally divide rstar_divisor when
    one is given (a refinement, e.g. a p'-part).  g can be capped by g_max.
    Raises TupleBudgetError when the candidate r* sum past max_work, and
    ValueError on a g_max or rstar_divisor below 1.
    """
    if v < 4 or r_divisor < 1:
        raise ValueError("need v >= 4 and a positive r divisor")
    if any(bound is not None and bound < 1 for bound in (g_max, rstar_divisor)):
        raise ValueError("g_max and rstar_divisor must be positive when given")
    cap = gcd(v - 1, rstar_divisor if rstar_divisor is not None else r_divisor)
    rstars = [e for e in divisors(cap) if e * e > v]
    if sum(rstars) > max_work:
        raise TupleBudgetError(
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
