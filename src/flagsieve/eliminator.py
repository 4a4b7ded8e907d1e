"""Case-by-case elimination over the socle / point-stabilizer survey grid.

For each cell (family, n, q, subgroup class) the pipeline runs a short
sequence of exact arithmetic screens.  Every screen is a necessary
condition for a flag-transitive 2-design with lambda >= (r,lambda)^2 > 1
whose point stabilizer lies in the given class, so one failed screen
eliminates the whole cell.  A cell that survives every screen ends as

* ``Survives``    - an open family, or a cell carrying an explicit design
                    found by exhaustive search;
* ``NeedsSearch`` - admissible parameter tuples remain and no stored
                    search covers them;
* ``Eliminated``  - a screen failed, the tuple sieve came back empty, or
                    the stored exhaustive searches found nothing.

Everything is deterministic, so a rerun reproduces reports byte for byte.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .designsearch import SearchResult, stabilizer_search
from .exactmath import gcd, p_prime_part, prime_powers_upto
from .grouporders import (
    CaseOrders,
    GroupSpec,
    SubgroupCase,
    case_label,
    case_orders,
    enumerate_cases,
    known_subdegrees,
    sp_order,
)
from .permgroup import builtin_action, pair_action
from .sieve import DesignParams, admissible_tuples_explained, best_subdegree_verdict

__all__ = [
    "STEP_NAMES",
    "FINAL_KINDS",
    "SEARCH_REGISTRY",
    "Step",
    "Final",
    "CellReport",
    "eliminate",
    "sweep",
    "survivors",
    "grid_q_values",
]

FINAL_KINDS = ("Eliminated", "Survives", "NeedsSearch")

# step name -> the rule it applies, phrased as the necessary condition used
_CITATIONS = {
    "survivor-family": (
        "no arithmetic screen below excludes this family; it is carried "
        "through as an open survivor"
    ),
    "imported-exclusion": (
        "class excluded wholesale by the established subgroup "
        "classification for this family"
    ),
    "parameter-screen": (
        "necessary inequality between q, n and the class shape; failure "
        "excludes the cell"
    ),
    "cube-bound": (
        "lambda >= 4 together with lambda*|X| < |Out|^2*|H0|^3 forces "
        "4*|X| < |Out|^2*|H0|^3"
    ),
    "order-inequality": (
        "|X| < (|Out|_p')^2 * |H0| * (|H0|_p')^2 is necessary for a "
        "flag-transitive design on this coset space"
    ),
    "order-bound-screen": (
        "v >= |X|/bound and r* <= |Out|*bound, so "
        "|X|/bound >= (|Out|*bound)^2 excludes the cell"
    ),
    "two-point-divisor": (
        "r divides |Out|*|H0|/|N| when a subgroup of order |N| fixes two "
        "points; the quotient refines the r-divisor"
    ),
    "rstar-square-vs-divisor": (
        "r* divides the stated divisor while v < (r*)^2 is forced, so "
        "v >= divisor^2 excludes the cell"
    ),
    "rstar-square-vs-gcd": (
        "r* divides gcd(v-1, divisor) while v < (r*)^2 is forced, so "
        "v >= gcd^2 excludes the cell"
    ),
    "subdegree": (
        "r* divides v-1 and every nontrivial subdegree, so "
        "v < gcd(v-1, s)^2 is necessary"
    ),
    "computed-subdegrees": (
        "subdegrees read off the stored permutation action refine the "
        "divisor of r*; v < gcd^2 is necessary"
    ),
    "symmetric-exclusion": (
        "symmetric parameter sets are excluded separately for this "
        "family; the survivor continues as non-symmetric"
    ),
    "admissible-tuples": (
        "exact divisor sieve over (r*, lambda*, g); an empty outcome "
        "excludes the cell"
    ),
    "design-search": (
        "exhaustive stabilizer searches over the socle action and its "
        "degree-preserving extension decide every admissible tuple"
    ),
}

STEP_NAMES = tuple(_CITATIONS)

# cells whose admissible tuples are settled by stored exhaustive searches;
# the listed actions realize every almost simple group over the socle
SEARCH_REGISTRY: Dict[
    Tuple[str, int, int, str, Tuple[int, ...]], Tuple[str, ...]
] = {
    ("linear", 3, 3, "C3", (1, 3)): ("psl3_3_144", "psl3_3_2_144"),
    ("unitary", 3, 3, "S", (1,)): ("psu3_3_36", "psu3_3_2_36"),
}

Witness = Tuple[str, object]


@dataclass(frozen=True)
class Step:
    """One applied screen with its witnesses and verdict."""

    name: str
    citation: str
    witnesses: Tuple[Witness, ...]
    verdict: str  # "pass" | "eliminated" | "info"


@dataclass(frozen=True)
class Final:
    """Outcome of a cell; step_index points at the eliminating step."""

    kind: str
    step_index: Optional[int] = None
    tuples: Tuple[DesignParams, ...] = ()
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FINAL_KINDS:
            raise ValueError(f"unknown outcome kind: {self.kind}")


@dataclass(frozen=True)
class CellReport:
    family: str
    n: int
    q: int
    case: SubgroupCase
    steps: Tuple[Step, ...]
    final: Final

    @property
    def label(self) -> str:
        return f"{self.family} n={self.n} q={self.q} {case_label(self.case)}"


class _Trace:
    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps: List[Step] = []

    def add(
        self,
        name: str,
        witnesses: Sequence[Witness],
        eliminated: bool = False,
        info: bool = False,
    ) -> bool:
        verdict = "eliminated" if eliminated else ("info" if info else "pass")
        self.steps.append(Step(name, _CITATIONS[name], tuple(witnesses), verdict))
        return eliminated


def _elim(trace: _Trace) -> Final:
    return Final("Eliminated", len(trace.steps) - 1, ())


# ---------------------------------------------------------------------------
# shared screens
# ---------------------------------------------------------------------------


def _cube_bound(trace: _Trace, orders: CaseOrders) -> bool:
    cap = orders.order_h0 if orders.order_h0 is not None else orders.order_h0_bound
    lhs = 4 * orders.order_x
    rhs = orders.order_out**2 * cap**3
    wit: List[Witness] = [("four-x", lhs), ("out2-h0cap3", rhs)]
    if orders.order_h0 is None:
        wit.append(("h0-bound", cap))
    return trace.add("cube-bound", wit, eliminated=lhs >= rhs)


def _order_inequality(trace: _Trace, orders: CaseOrders, p: int) -> bool:
    h0 = orders.order_h0
    rhs = p_prime_part(orders.order_out, p) ** 2 * h0 * p_prime_part(h0, p) ** 2
    return trace.add(
        "order-inequality",
        [("x", orders.order_x), ("bound", rhs)],
        eliminated=orders.order_x >= rhs,
    )


def _subdegree_step(
    trace: _Trace, v: int, subs: Sequence[int], name: str = "subdegree"
) -> bool:
    big_r, ok = best_subdegree_verdict(v, list(subs))
    wit: List[Witness] = [("v", v)]
    wit += [(f"s{i + 1}", s) for i, s in enumerate(subs)]
    wit.append(("gcd", big_r))
    return trace.add(name, wit, eliminated=not ok)


def _tuples_step(
    trace: _Trace, v: int, r_divisor: int, rstar_divisor: int
) -> Optional[Tuple[DesignParams, ...]]:
    try:
        found, rejected = admissible_tuples_explained(
            v, r_divisor, rstar_divisor=rstar_divisor
        )
    except ValueError as exc:
        trace.add("admissible-tuples", [("budget", str(exc))], info=True)
        return None
    codes: Dict[str, int] = {}
    for rej in rejected:
        codes[rej.code] = codes.get(rej.code, 0) + 1
    wit: List[Witness] = [("tuples", len(found))]
    wit += sorted(codes.items())
    trace.add("admissible-tuples", wit, eliminated=not found)
    return found


def _fmt_params(params: DesignParams) -> str:
    return f"({params.v},{params.b},{params.r},{params.k},{params.lam})"


@functools.lru_cache(maxsize=None)
def _registry_search(name: str, params: DesignParams) -> SearchResult:
    """One stored search per (builtin action, tuple) and process; a
    SearchResult is frozen, so every cell that asks shares it."""
    result = stabilizer_search(builtin_action(name), params)
    if not result.exhaustive:
        raise RuntimeError(f"search {name} {_fmt_params(params)} is not exhaustive")
    return result


def _search_step(
    spec: GroupSpec,
    case: SubgroupCase,
    trace: _Trace,
    found: Tuple[DesignParams, ...],
    run_searches: bool,
) -> Final:
    key = (spec.family, spec.n, spec.q, case.kind, case.params)
    groups = SEARCH_REGISTRY.get(key)
    if groups is None:
        return Final("NeedsSearch", None, found)
    if not run_searches:
        trace.add("design-search", [("status", "skipped")], info=True)
        return Final("NeedsSearch", None, found, "searches skipped")
    witnessed: List[DesignParams] = []
    wit: List[Witness] = []
    for params in found:
        hits = 0
        for name in groups:
            result = _registry_search(name, params)
            hits += len(result.designs)
            wit.append((f"{name} {_fmt_params(params)}", len(result.designs)))
        if hits:
            witnessed.append(params)
    if trace.add("design-search", wit, eliminated=not witnessed):
        return _elim(trace)
    return Final(
        "Survives", None, tuple(witnessed), "design found by exhaustive search"
    )


def _tail(
    spec: GroupSpec,
    case: SubgroupCase,
    trace: _Trace,
    orders: CaseOrders,
    run_searches: bool,
    divisor: Optional[int] = None,
) -> Final:
    """Generic finish: gcd filter, tuple sieve, then searches if stored."""
    d = divisor if divisor is not None else orders.order_out * orders.order_h0
    big_r = gcd(orders.v - 1, d)
    if trace.add(
        "rstar-square-vs-gcd",
        [("v", orders.v), ("divisor", d), ("gcd", big_r)],
        eliminated=orders.v >= big_r * big_r,
    ):
        return _elim(trace)
    found = _tuples_step(trace, orders.v, d, big_r)
    if found is None:
        return Final("NeedsSearch", None, (), "tuple budget exceeded")
    if not found:
        return _elim(trace)
    return _search_step(spec, case, trace, found, run_searches)


# ---------------------------------------------------------------------------
# per-class routes, linear family
# ---------------------------------------------------------------------------


def _order_ineq_then_tail(
    spec: GroupSpec, case: SubgroupCase, trace: _Trace, run_searches: bool
) -> Final:
    orders = case_orders(spec, case)
    if _order_inequality(trace, orders, spec.p):
        return _elim(trace)
    return _tail(spec, case, trace, orders, run_searches)


def _linear_c1_pi(
    spec: GroupSpec, case: SubgroupCase, trace: _Trace, run_searches: bool
) -> Final:
    orders = case_orders(spec, case)
    (i,) = case.params
    if i == 1:
        trace.add("survivor-family", [("v", orders.v)], info=True)
        return Final("Survives", None, (), "1-subspace stabilizer family")
    if _subdegree_step(trace, orders.v, known_subdegrees(spec, case)):
        return _elim(trace)
    if i == 2 and spec.n % 2 == 1:
        trace.add("symmetric-exclusion", [("v", orders.v)], info=True)
        return Final(
            "Survives", None, (), "2-subspace stabilizer family, non-symmetric"
        )
    return _tail(spec, case, trace, orders, run_searches)


def _subdegree_then_tail(
    spec: GroupSpec, case: SubgroupCase, trace: _Trace, run_searches: bool
) -> Final:
    orders = case_orders(spec, case)
    if _subdegree_step(trace, orders.v, known_subdegrees(spec, case)):
        return _elim(trace)
    return _tail(spec, case, trace, orders, run_searches)


def _linear_c2(
    spec: GroupSpec, case: SubgroupCase, trace: _Trace, run_searches: bool
) -> Final:
    m, t = case.params
    orders = case_orders(spec, case)
    if t == 2:
        if _subdegree_step(trace, orders.v, known_subdegrees(spec, case)):
            return _elim(trace)
        return _tail(spec, case, trace, orders, run_searches)
    if m == 1:
        if _order_inequality(trace, orders, spec.p):
            return _elim(trace)
        return _tail(spec, case, trace, orders, run_searches)
    # m >= 2 blocks of dimension >= 1, t >= 3 factors
    e = spec.n * (spec.n - 2 * m - 1) + 2
    lhs = spec.q**e
    rhs = 4 * spec.f**2 * math.factorial(t) ** 3
    if trace.add(
        "parameter-screen",
        [("exponent", e), ("lhs", lhs), ("bound", rhs)],
        eliminated=lhs >= rhs,
    ):
        return _elim(trace)
    d = orders.order_out * orders.order_h0
    if trace.add(
        "rstar-square-vs-divisor",
        [("divisor", d), ("v", orders.v)],
        eliminated=orders.v >= d * d,
    ):
        return _elim(trace)
    return _tail(spec, case, trace, orders, run_searches, divisor=d)


def _linear_c3(
    spec: GroupSpec, case: SubgroupCase, trace: _Trace, run_searches: bool
) -> Final:
    m, t = case.params
    orders = case_orders(spec, case)
    if t % 2 == 1:
        e = spec.n * spec.n - 2 * t * m * m - t * m + 1
        rhs = 128 * t**3
        wit: List[Witness] = [("exponent", e), ("bound", rhs)]
        eliminated = False
        if e > 0:
            wit.insert(1, ("lhs", spec.q**e))
            eliminated = spec.q**e >= rhs
        if trace.add("parameter-screen", wit, eliminated=eliminated):
            return _elim(trace)
    if _order_inequality(trace, orders, spec.p):
        return _elim(trace)
    return _tail(spec, case, trace, orders, run_searches)


def _cube_then_tail(
    spec: GroupSpec, case: SubgroupCase, trace: _Trace, run_searches: bool
) -> Final:
    orders = case_orders(spec, case)
    if _cube_bound(trace, orders):
        return _elim(trace)
    if _order_inequality(trace, orders, spec.p):
        return _elim(trace)
    return _tail(spec, case, trace, orders, run_searches)


def _bounded_order_route(
    spec: GroupSpec, case: SubgroupCase, trace: _Trace, run_searches: bool
) -> Final:
    """Classes where only an upper bound for |H0| is available."""
    orders = case_orders(spec, case)
    if orders.order_h0 is not None:
        if _order_inequality(trace, orders, spec.p):
            return _elim(trace)
        return _tail(spec, case, trace, orders, run_searches)
    if _cube_bound(trace, orders):
        return _elim(trace)
    bound = orders.order_h0_bound
    threshold = bound * (orders.order_out * bound) ** 2
    if trace.add(
        "order-bound-screen",
        [("x", orders.order_x), ("h0-bound", bound), ("threshold", threshold)],
        eliminated=orders.order_x >= threshold,
    ):
        return _elim(trace)
    return Final("NeedsSearch", None, (), "only an order bound is available")


def _linear_c8_sp(
    spec: GroupSpec, case: SubgroupCase, trace: _Trace, run_searches: bool
) -> Final:
    orders = case_orders(spec, case)
    if spec.n == 4 and spec.q == 2:
        action = pair_action(builtin_action("psl4_2"))
        subs = tuple(s for s in action.suborbit_lengths(0) if s > 1)
        if _subdegree_step(trace, orders.v, subs, name="computed-subdegrees"):
            return _elim(trace)
        return _tail(spec, case, trace, orders, run_searches)
    if spec.n >= 6:
        order_n = sp_order(spec.n - 4, spec.q)
        num = orders.order_out * orders.order_h0
        if num % order_n == 0:
            d = num // order_n
            trace.add(
                "two-point-divisor",
                [("n-order", order_n), ("divisor", d)],
                info=True,
            )
            return _tail(spec, case, trace, orders, run_searches, divisor=d)
    if _order_inequality(trace, orders, spec.p):
        return _elim(trace)
    return _tail(spec, case, trace, orders, run_searches)


# ---------------------------------------------------------------------------
# per-class routes, unitary family
# ---------------------------------------------------------------------------


def _unitary_c1_pi(
    spec: GroupSpec, case: SubgroupCase, trace: _Trace, run_searches: bool
) -> Final:
    orders = case_orders(spec, case)
    if spec.n == 3:
        trace.add("survivor-family", [("v", orders.v)], info=True)
        return Final("Survives", None, (), "isotropic-point stabilizer family")
    subs = known_subdegrees(spec, case)
    if subs is not None:
        if _subdegree_step(trace, orders.v, subs):
            return _elim(trace)
        return _tail(spec, case, trace, orders, run_searches)
    if _order_inequality(trace, orders, spec.p):
        return _elim(trace)
    return _tail(spec, case, trace, orders, run_searches)


def _unitary_c2_gu1(
    spec: GroupSpec, case: SubgroupCase, trace: _Trace, run_searches: bool
) -> Final:
    orders = case_orders(spec, case)
    subs = known_subdegrees(spec, case)
    if subs is not None:
        if _subdegree_step(trace, orders.v, subs):
            return _elim(trace)
        return _tail(spec, case, trace, orders, run_searches)
    if _order_inequality(trace, orders, spec.p):
        return _elim(trace)
    return _tail(spec, case, trace, orders, run_searches)


def _imported(
    spec: GroupSpec, case: SubgroupCase, trace: _Trace, run_searches: bool
) -> Final:
    case_orders(spec, case)  # validates the cell
    trace.add(
        "imported-exclusion", [("class", case_label(case))], eliminated=True
    )
    return _elim(trace)


_LINEAR_HANDLERS = {
    "C1_Pi": _linear_c1_pi,
    "C1_Pij": _subdegree_then_tail,
    "C1_GLiGLni": _subdegree_then_tail,
    "C2_GLwr": _linear_c2,
    "C3": _linear_c3,
    "C4": _cube_then_tail,
    "C5_subfield": _order_ineq_then_tail,
    "C6": _bounded_order_route,
    "C7": _bounded_order_route,
    "C8_Sp": _linear_c8_sp,
    "C8_O": _order_ineq_then_tail,
    "C8_U": _order_ineq_then_tail,
    "S": _cube_then_tail,
}

_UNITARY_HANDLERS = {
    "C1_Pi": _unitary_c1_pi,
    "C1_Ni": _subdegree_then_tail,
    "C2_GU1wr": _unitary_c2_gu1,
    "C2_GLwr": _order_ineq_then_tail,
    "C2_GLhalf": _order_ineq_then_tail,
    "C5_Sp": _order_ineq_then_tail,
    "C5_O": _order_ineq_then_tail,
    "C3": _imported,
    "C4": _imported,
    "C5_subfield": _imported,
    "C6": _imported,
    "C7": _imported,
    "S": _cube_then_tail,
}


def eliminate(
    spec: GroupSpec, case: SubgroupCase, run_searches: bool = True
) -> CellReport:
    """Run the elimination pipeline on one grid cell."""
    handlers = _LINEAR_HANDLERS if spec.family == "linear" else _UNITARY_HANDLERS
    handler = handlers.get(case.kind)
    if handler is None:
        raise ValueError(f"no {spec.family} route for case kind {case.kind}")
    trace = _Trace()
    final = handler(spec, case, trace, run_searches)
    return CellReport(spec.family, spec.n, spec.q, case, tuple(trace.steps), final)


# ---------------------------------------------------------------------------
# the survey sweep
# ---------------------------------------------------------------------------


def grid_q_values(q_max: int) -> Tuple[int, ...]:
    """Prime powers up to q_max, the q axis of the survey grid."""
    return tuple(prime_powers_upto(q_max))


def sweep(
    family: str,
    n_min: int,
    n_max: int,
    q_max: int,
    run_searches: bool = True,
    shard: Optional[Tuple[int, int]] = None,
) -> Tuple[CellReport, ...]:
    """Eliminate every cell of the (n, q) grid for one family.

    shard=(index, total) keeps only cells whose running position is
    congruent to index mod total, for splitting across workers; the cell
    order is deterministic, so shards partition the grid exactly.
    """
    if n_min < 3 or n_max < n_min or q_max < 2:
        raise ValueError("need 3 <= n_min <= n_max and q_max >= 2")
    if shard is not None:
        index, total = shard
        if not 0 <= index < total:
            raise ValueError(f"bad shard {shard}")
    reports: List[CellReport] = []
    position = 0
    for n in range(n_min, n_max + 1):
        for q in grid_q_values(q_max):
            try:
                spec = GroupSpec(family, n, q)
            except ValueError:
                continue  # the one solvable (n, q) hole
            for case in enumerate_cases(spec):
                keep = shard is None or position % shard[1] == shard[0]
                position += 1
                if keep:
                    reports.append(eliminate(spec, case, run_searches))
    return tuple(reports)


def survivors(reports: Sequence[CellReport]) -> Tuple[CellReport, ...]:
    """The cells a sweep could not eliminate, in sweep order."""
    return tuple(r for r in reports if r.final.kind != "Eliminated")
