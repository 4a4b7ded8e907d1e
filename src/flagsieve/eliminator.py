"""Case-by-case elimination over the socle / point-stabilizer survey grid.

A cell is (family, n, q, subgroup class).  Its route is a row of
``_ROUTES[family][kind]``: a short tuple of screens.  Every screen is a
necessary condition for a flag-transitive 2-design with
lambda >= (r,lambda)^2 > 1 whose point stabilizer lies in the given class,
so one failed screen eliminates the whole cell.  Each screen is stated
here and nowhere else: it reads |X| and |Out| off the ``GroupSpec`` and
what the case adds (|H0|, v) off its ``CaseOrders``.

``eliminate`` is the one interpreter.  It computes the cell's orders once,
runs the screens of the route in order on a per-cell record, and stops at
the first screen that returns a ``Final``.  A screen may instead refine the
divisor of r on the record and return None.  When every screen passes, the
shared tail runs: the r* gcd bound, the tuple sieve, then the stored
exhaustive searches.  A cell ends as

* ``Survives``    - an open family, or a cell carrying an explicit design
                    found by exhaustive search;
* ``NeedsSearch`` - admissible parameter tuples remain and no stored
                    search covers them;
* ``Eliminated``  - a screen failed, the tuple sieve came back empty, or
                    the stored exhaustive searches found nothing.

A cell exists exactly when ``grouporders.enumerate_cases`` lists it;
``eliminate`` refuses any other cell through ``case_orders``.  Adding a
class therefore takes three things: a branch of ``enumerate_cases``, its
order formula in ``grouporders`` and a row of ``_ROUTES``; the tests
fail while any of them is missing.  The command line names the class by
its ``case_label``, which ``parse_case_label`` reads back, so it needs
no entry.  Everything is deterministic, so a rerun reproduces reports
byte for byte.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .designsearch import SearchResult, stabilizer_search
from .exactmath import p_prime_part, prime_powers_upto
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
from .sieve import DesignParams, TupleBudgetError, admissible_tuples_explained

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


class Step(NamedTuple):
    """One applied screen with its witnesses and verdict."""

    name: str
    citation: str
    witnesses: Tuple[Witness, ...]
    verdict: str  # "pass" | "eliminated" | "info"


class _FinalFields(NamedTuple):
    kind: str
    step_index: Optional[int] = None
    tuples: Tuple[DesignParams, ...] = ()
    note: str = ""


class Final(_FinalFields):
    """Outcome of a cell; step_index points at the eliminating step."""

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        step_index: Optional[int] = None,
        tuples: Tuple[DesignParams, ...] = (),
        note: str = "",
    ) -> Final:
        if kind not in FINAL_KINDS:
            raise ValueError(f"unknown outcome kind: {kind}")
        # what the generated _FinalFields.__new__ does, without super()'s cost
        return tuple.__new__(cls, (kind, step_index, tuples, note))


class CellReport(NamedTuple):
    family: str
    n: int
    q: int
    case: SubgroupCase
    steps: Tuple[Step, ...]
    final: Final

    @property
    def label(self) -> str:
        return f"{self.family} n={self.n} q={self.q} {case_label(self.case)}"


class _Cell:
    """What the screens of one cell share: its data, its r-divisor and the
    steps applied so far.  divisor None means |Out| * |H0|."""

    __slots__ = ("spec", "case", "orders", "divisor", "steps")

    def __init__(self, spec: GroupSpec, case: SubgroupCase, orders: CaseOrders):
        self.spec = spec
        self.case = case
        self.orders = orders
        self.divisor: Optional[int] = None
        self.steps: List[Step] = []

    def check(
        self, name: str, witnesses: Sequence[Witness], eliminated: bool
    ) -> Optional[Final]:
        """Record a screen; the Eliminated outcome if it failed, else None."""
        verdict = "eliminated" if eliminated else "pass"
        self.steps.append(Step(name, _CITATIONS[name], tuple(witnesses), verdict))
        if eliminated:
            return Final("Eliminated", len(self.steps) - 1)
        return None

    def info(self, name: str, witnesses: Sequence[Witness]) -> None:
        self.steps.append(Step(name, _CITATIONS[name], tuple(witnesses), "info"))


Screen = Callable[[_Cell], Optional[Final]]


# ---------------------------------------------------------------------------
# screens shared by several classes
# ---------------------------------------------------------------------------


def _cube_bound(cell: _Cell) -> Optional[Final]:
    orders = cell.orders
    cap = orders.order_h0 if orders.order_h0 is not None else orders.order_h0_bound
    lhs = 4 * cell.spec.socle_order
    rhs = cell.spec.out_order**2 * cap**3
    wit: List[Witness] = [("four-x", lhs), ("out2-h0cap3", rhs)]
    if orders.order_h0 is None:
        wit.append(("h0-bound", cap))
    return cell.check("cube-bound", wit, lhs >= rhs)


def _order_inequality(cell: _Cell) -> Optional[Final]:
    """The order inequality as its citation states it; p is the
    characteristic of X."""
    spec, h0 = cell.spec, cell.orders.order_h0
    if h0 is None:
        raise ValueError("the order inequality needs an exact subgroup order")
    bound = spec.out_order_p_prime**2 * h0 * p_prime_part(h0, spec.p) ** 2
    x = spec.socle_order
    return cell.check("order-inequality", [("x", x), ("bound", bound)], x >= bound)


def _subdegree_step(
    cell: _Cell, subs: Sequence[int], name: str = "subdegree"
) -> Optional[Final]:
    """The subdegree gcd of the citation over every size given: r* divides
    v - 1 and the size of every G_alpha-invariant set of points other than
    alpha, so v < gcd(v - 1, sizes)^2 is necessary."""
    if not subs:
        raise ValueError("the subdegree screen needs at least one subdegree")
    v = cell.orders.v
    big_r = math.gcd(v - 1, *subs)
    wit: List[Witness] = [("v", v)]
    wit += [(f"s{i + 1}", s) for i, s in enumerate(subs)]
    wit.append(("gcd", big_r))
    return cell.check(name, wit, v >= big_r * big_r)


def _subdegree(cell: _Cell) -> Optional[Final]:
    """The subdegree gcd when the subdegrees are tabulated, else the order
    inequality."""
    subs = known_subdegrees(cell.spec, cell.case)
    if subs is None:
        return _order_inequality(cell)
    return _subdegree_step(cell, subs)


def _survives(cell: _Cell, name: str, note: str) -> Final:
    cell.info(name, [("v", cell.orders.v)])
    return Final("Survives", None, (), note)


def _imported(cell: _Cell) -> Optional[Final]:
    return cell.check(
        "imported-exclusion", [("class", case_label(cell.case))], True
    )


def _bounded_order_route(cell: _Cell) -> Optional[Final]:
    """Classes where only an upper bound b for |H0| may be available.  A
    cell with only b that passes the cube bound, 4|X| < |Out|^2 b^3, also
    meets |X| < |Out|^2 b^3, so it needs a search."""
    if cell.orders.order_h0 is not None:
        return _order_inequality(cell)
    final = _cube_bound(cell)
    if final is not None:
        return final
    return Final("NeedsSearch", None, (), "only an order bound is available")


# ---------------------------------------------------------------------------
# class screens, linear family
# ---------------------------------------------------------------------------


def _linear_point_family(cell: _Cell) -> Optional[Final]:
    if cell.case.params != (1,):
        return None
    return _survives(cell, "survivor-family", "1-subspace stabilizer family")


def _linear_line_family(cell: _Cell) -> Optional[Final]:
    if cell.case.params != (2,) or cell.spec.n % 2 == 0:
        return None
    return _survives(
        cell, "symmetric-exclusion", "2-subspace stabilizer family, non-symmetric"
    )


def _linear_c2(cell: _Cell) -> Optional[Final]:
    spec, orders = cell.spec, cell.orders
    m, t = cell.case.params
    if t == 2:
        return _subdegree(cell)
    if m == 1:
        return _order_inequality(cell)
    # m >= 2 blocks of dimension >= 1, t >= 3 factors
    e = spec.n * (spec.n - 2 * m - 1) + 2
    lhs = spec.q**e
    rhs = 4 * spec.f**2 * math.factorial(t) ** 3
    final = cell.check(
        "parameter-screen", [("exponent", e), ("lhs", lhs), ("bound", rhs)], lhs >= rhs
    )
    if final is not None:
        return final
    d = spec.out_order * orders.order_h0
    return cell.check(
        "rstar-square-vs-divisor", [("divisor", d), ("v", orders.v)], orders.v >= d * d
    )


def _linear_c3(cell: _Cell) -> Optional[Final]:
    spec = cell.spec
    m, t = cell.case.params
    if t % 2 == 0:
        return None
    e = spec.n * spec.n - 2 * t * m * m - t * m + 1
    rhs = 128 * t**3
    wit: List[Witness] = [("exponent", e), ("bound", rhs)]
    eliminated = False
    if e > 0:
        wit.insert(1, ("lhs", spec.q**e))
        eliminated = spec.q**e >= rhs
    return cell.check("parameter-screen", wit, eliminated)


def _linear_c8_sp(cell: _Cell) -> Optional[Final]:
    spec, orders = cell.spec, cell.orders
    if spec.n == 4 and spec.q == 2:
        action = pair_action(builtin_action("psl4_2"))
        subs = tuple(s for s in action.suborbit_lengths(0) if s > 1)
        return _subdegree_step(cell, subs, name="computed-subdegrees")
    if spec.n >= 6:
        # N = Sp_{n-4}(q) fixes two points; an inexact quotient refines nothing
        order_n = sp_order(spec.n - 4, spec.q)
        d, rest = divmod(spec.out_order * orders.order_h0, order_n)
        if not rest:
            cell.info("two-point-divisor", [("n-order", order_n), ("divisor", d)])
            cell.divisor = d
            return None
    return _order_inequality(cell)


# ---------------------------------------------------------------------------
# class screens, unitary family
# ---------------------------------------------------------------------------


def _unitary_point_family(cell: _Cell) -> Optional[Final]:
    if cell.spec.n != 3:
        return None
    return _survives(cell, "survivor-family", "isotropic-point stabilizer family")


_ROUTES: Dict[str, Dict[str, Tuple[Screen, ...]]] = {
    "linear": {
        "C1_Pi": (_linear_point_family, _subdegree, _linear_line_family),
        "C1_Pij": (_subdegree,),
        "C1_GLiGLni": (_subdegree,),
        "C2_GLwr": (_linear_c2,),
        "C3": (_linear_c3, _order_inequality),
        "C4": (_cube_bound, _order_inequality),
        "C5_subfield": (_order_inequality,),
        "C6": (_bounded_order_route,),
        "C7": (_bounded_order_route,),
        "C8_Sp": (_linear_c8_sp,),
        "C8_O": (_order_inequality,),
        "C8_U": (_order_inequality,),
        "S": (_cube_bound, _order_inequality),
    },
    "unitary": {
        "C1_Pi": (_unitary_point_family, _subdegree),
        "C1_Ni": (_subdegree,),
        "C2_GU1wr": (_subdegree,),
        "C2_GLwr": (_order_inequality,),
        "C2_GLhalf": (_order_inequality,),
        "C3": (_imported,),
        "C4": (_imported,),
        "C5_subfield": (_imported,),
        "C5_Sp": (_order_inequality,),
        "C5_O": (_order_inequality,),
        "C6": (_imported,),
        "C7": (_imported,),
        "S": (_cube_bound, _order_inequality),
    },
}


# ---------------------------------------------------------------------------
# the tail every unsettled cell ends in
# ---------------------------------------------------------------------------


def _fmt_params(params: DesignParams) -> str:
    return f"({params.v},{params.b},{params.r},{params.k},{params.lam})"


@functools.lru_cache(maxsize=None)
def _registry_search(name: str, params: DesignParams) -> SearchResult:
    """One stored search per (builtin action, tuple) and process; a
    SearchResult is frozen, so every cell that asks shares it."""
    return stabilizer_search(builtin_action(name), params)


def _search_step(
    cell: _Cell, found: Tuple[DesignParams, ...], run_searches: bool
) -> Final:
    spec, case = cell.spec, cell.case
    groups = SEARCH_REGISTRY.get((spec.family, spec.n, spec.q, case.kind, case.params))
    if groups is None:
        return Final("NeedsSearch", None, found)
    if not run_searches:
        cell.info("design-search", [("status", "skipped")])
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
    final = cell.check("design-search", wit, not witnessed)
    if final is not None:
        return final
    return Final(
        "Survives", None, tuple(witnessed), "design found by exhaustive search"
    )


def _tail(cell: _Cell, run_searches: bool) -> Final:
    """Generic finish: gcd filter, tuple sieve, then searches if stored."""
    orders = cell.orders
    v = orders.v
    d = cell.divisor
    if d is None:
        d = cell.spec.out_order * orders.order_h0
    big_r = math.gcd(v - 1, d)
    final = cell.check(
        "rstar-square-vs-gcd",
        [("v", v), ("divisor", d), ("gcd", big_r)],
        v >= big_r * big_r,
    )
    if final is not None:
        return final
    try:
        found, rejected = admissible_tuples_explained(v, d)
    except TupleBudgetError as exc:
        cell.info("admissible-tuples", [("budget", str(exc))])
        return Final("NeedsSearch", None, (), "tuple budget exceeded")
    codes = Counter(rej.code for rej in rejected)
    wit: List[Witness] = [("tuples", len(found))]
    wit += sorted(codes.items())
    final = cell.check("admissible-tuples", wit, not found)
    if final is not None:
        return final
    return _search_step(cell, found, run_searches)


def eliminate(
    spec: GroupSpec, case: SubgroupCase, run_searches: bool = True
) -> CellReport:
    """Run the route of one grid cell, then the tail if no screen decided.
    A cell that enumerate_cases(spec) does not list raises
    UnsupportedCaseError."""
    cell = _Cell(spec, case, case_orders(spec, case))
    for screen in _ROUTES[spec.family][case.kind]:
        final = screen(cell)
        if final is not None:
            break
    else:
        final = _tail(cell, run_searches)
    return CellReport(spec.family, spec.n, spec.q, case, tuple(cell.steps), final)


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
    kind: Optional[str] = None,
) -> Tuple[CellReport, ...]:
    """Eliminate every cell of the (n, q) grid for one family, in a fixed
    order; with `kind`, only the cells of that case kind, which must be
    one of the family's routed kinds."""
    if n_min < 3 or n_max < n_min or q_max < 2:
        raise ValueError("need 3 <= n_min <= n_max and q_max >= 2")
    if family not in _ROUTES:
        raise ValueError(f"unknown family: {family}")
    if kind is not None and kind not in _ROUTES[family]:
        raise ValueError(f"unknown {family} class {kind!r}")
    qs = grid_q_values(q_max)
    reports: List[CellReport] = []
    for n in range(n_min, n_max + 1):
        for q in qs:
            try:
                spec = GroupSpec(family, n, q)
            except ValueError:
                continue  # the one solvable (n, q) hole
            for case in enumerate_cases(spec):
                if kind is None or case.kind == kind:
                    reports.append(eliminate(spec, case, run_searches))
    return tuple(reports)


def survivors(reports: Sequence[CellReport]) -> Tuple[CellReport, ...]:
    """The cells a sweep could not eliminate, in sweep order."""
    return tuple(r for r in reports if r.final.kind != "Eliminated")
