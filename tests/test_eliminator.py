"""Elimination pipeline oracles: single cells, sweeps, and subdegree laws."""

import pytest

from flagsieve import eliminator
from flagsieve.eliminator import (
    FINAL_KINDS,
    SEARCH_REGISTRY,
    STEP_NAMES,
    Final,
    eliminate,
    grid_q_values,
    survivors,
    sweep,
)
from flagsieve.grouporders import (
    CaseOrders,
    GroupSpec,
    SubgroupCase,
    UNITARY_S_TABLE,
    case_label,
    case_orders,
    enumerate_cases,
    known_subdegrees,
)
from flagsieve.exactmath import divisors
from flagsieve.permgroup import FieldTable, PermAction, classical_action, projective_points
from flagsieve.sieve import DesignParams

EIGHT_POINT_TUPLES = (
    DesignParams(8, 28, 14, 4, 6),
    DesignParams(8, 42, 21, 4, 9),
)


def step_names(report):
    return [s.name for s in report.steps]


def witness_map(step):
    return dict(step.witnesses)


# ---------------------------------------------------------------------------
# single-cell oracles
# ---------------------------------------------------------------------------


def test_wreath_cell_killed_by_divisor_square():
    rep = eliminate(GroupSpec("linear", 6, 2), SubgroupCase("C2_GLwr", (2, 3)))
    assert rep.final.kind == "Eliminated"
    last = rep.steps[rep.final.step_index]
    assert last.name == "rstar-square-vs-divisor"
    wit = witness_map(last)
    assert wit["divisor"] == 2592
    assert wit["v"] == 15554560
    # the screen before it passes, so the divisor step does the work
    assert rep.steps[0].name == "parameter-screen"
    assert rep.steps[0].verdict == "pass"


def test_wreath_screen_kills_other_shapes():
    rep = eliminate(GroupSpec("linear", 6, 3), SubgroupCase("C2_GLwr", (2, 3)))
    assert rep.final.kind == "Eliminated"
    assert rep.steps[rep.final.step_index].name == "parameter-screen"
    rep = eliminate(GroupSpec("linear", 9, 2), SubgroupCase("C2_GLwr", (3, 3)))
    assert rep.final.kind == "Eliminated"
    assert rep.steps[rep.final.step_index].name == "parameter-screen"


def test_field_extension_cell_q2_needs_search():
    rep = eliminate(GroupSpec("linear", 3, 2), SubgroupCase("C3", (1, 3)))
    assert rep.final.kind == "NeedsSearch"
    assert rep.final.tuples == EIGHT_POINT_TUPLES
    names = step_names(rep)
    assert "rstar-square-vs-gcd" in names
    gcd_step = rep.steps[names.index("rstar-square-vs-gcd")]
    assert witness_map(gcd_step) == {"v": 8, "divisor": 42, "gcd": 7}


def test_field_extension_cell_q3_eliminated_by_search():
    rep = eliminate(GroupSpec("linear", 3, 3), SubgroupCase("C3", (1, 3)))
    assert rep.final.kind == "Eliminated"
    last = rep.steps[rep.final.step_index]
    assert last.name == "design-search"
    wit = witness_map(last)
    assert wit["psl3_3_144 (144,144,78,78,42)"] == 0
    assert wit["psl3_3_2_144 (144,144,78,78,42)"] == 0
    names = step_names(rep)
    gcd_step = rep.steps[names.index("rstar-square-vs-gcd")]
    assert witness_map(gcd_step) == {"v": 144, "divisor": 78, "gcd": 13}
    tup_step = rep.steps[names.index("admissible-tuples")]
    assert witness_map(tup_step)["tuples"] == 1


def test_field_extension_cell_q3_without_searches():
    rep = eliminate(
        GroupSpec("linear", 3, 3), SubgroupCase("C3", (1, 3)), run_searches=False
    )
    assert rep.final.kind == "NeedsSearch"
    assert rep.final.note == "searches skipped"
    assert rep.final.tuples == (DesignParams(144, 144, 78, 78, 42),)


def test_field_extension_cell_q5_empty_sieve():
    rep = eliminate(GroupSpec("linear", 3, 5), SubgroupCase("C3", (1, 3)))
    assert rep.final.kind == "Eliminated"
    assert rep.steps[rep.final.step_index].name == "admissible-tuples"
    assert witness_map(rep.steps[rep.final.step_index])["tuples"] == 0


def test_alternating_line_needs_search():
    rep = eliminate(GroupSpec("linear", 4, 2), SubgroupCase("S", (4,)))
    assert rep.final.kind == "NeedsSearch"
    assert rep.final.tuples == EIGHT_POINT_TUPLES
    assert step_names(rep)[:2] == ["cube-bound", "order-inequality"]


def test_symplectic_cell_uses_computed_subdegrees():
    rep = eliminate(GroupSpec("linear", 4, 2), SubgroupCase("C8_Sp", ()))
    assert rep.final.kind == "Eliminated"
    last = rep.steps[rep.final.step_index]
    assert last.name == "computed-subdegrees"
    wit = witness_map(last)
    assert wit == {"v": 28, "s1": 12, "s2": 15, "gcd": 3}


# ---------------------------------------------------------------------------
# the screens' pins and refusals
# ---------------------------------------------------------------------------


def test_order_inequality_screen_pins():
    # 168 < 21^3 = 9261 (all orders odd after stripping 2): passes
    spec, case = GroupSpec("linear", 3, 2), SubgroupCase("C3", (1, 3))
    assert case_orders(spec, case).order_h0 == 21
    rep = eliminate(spec, case)
    step = rep.steps[step_names(rep).index("order-inequality")]
    assert step.verdict == "pass"
    assert witness_map(step) == {"x": 168, "bound": 21**3}
    # 20158709760 >= 1296 * 81^2 = 8503056: eliminated, where the route
    # would run the screen (the cell dies at an earlier one)
    spec, case = GroupSpec("linear", 6, 2), SubgroupCase("C2_GLwr", (2, 3))
    cell = eliminator._Cell(spec, case, case_orders(spec, case))
    assert eliminator._order_inequality(cell) == Final("Eliminated", 0)
    assert witness_map(cell.steps[0]) == {"x": 20158709760, "bound": 8503056}


def test_order_inequality_screen_needs_an_exact_order():
    spec, case = GroupSpec("linear", 9, 2), SubgroupCase("C7", (3, 2))
    orders = case_orders(spec, case)
    assert orders.order_h0 is None
    with pytest.raises(ValueError, match="needs an exact subgroup order"):
        eliminator._order_inequality(eliminator._Cell(spec, case, orders))


def test_order_bound_cell_passing_the_cube_bound_needs_search():
    """With only a bound b for |H0|, passing the cube bound 4|X| <
    |Out|^2 b^3 already gives |X| < |Out|^2 b^3, the most any later
    order screen on b could ask: the cell stops after that one step."""
    spec, case = GroupSpec("linear", 9, 2), SubgroupCase("C7", (3, 2))
    cell = eliminator._Cell(spec, case, CaseOrders(order_h0_bound=2**40))
    final = eliminator._bounded_order_route(cell)
    assert final == Final("NeedsSearch", None, (), "only an order bound is available")
    assert [(s.name, s.verdict) for s in cell.steps] == [("cube-bound", "pass")]
    assert "order-bound-screen" not in STEP_NAMES


def _tail_cell(order_h0, v):
    spec, case = GroupSpec("linear", 3, 2), SubgroupCase("C1_Pi", (1,))
    return eliminator._Cell(spec, case, CaseOrders(order_h0=order_h0, v=v))


def test_tail_reports_only_the_tuple_budget_as_a_budget():
    # the r* divisors of 10^8 above 10^4 sum past the sieve's budget
    cell = _tail_cell(10**8, 10**8 + 1)
    final = eliminator._tail(cell, run_searches=False)
    assert final == Final("NeedsSearch", None, (), "tuple budget exceeded")
    assert cell.steps[-1].name == "admissible-tuples"
    assert cell.steps[-1].verdict == "info"
    assert "exceeds budget" in witness_map(cell.steps[-1])["budget"]
    # factoring the Mersenne prime 2^89 - 1 is refused for another reason
    cell = _tail_cell(2**89 - 1, 2**89)
    message = "primality test out of certified range: 618970019642690137449562111$"
    with pytest.raises(ValueError, match=message):
        eliminator._tail(cell, run_searches=False)


def _subdegree_verdict(v, subdegrees):
    """(gcd witness, passed) of the subdegree screen on a cell of index v."""
    spec, case = GroupSpec("linear", 4, 2), SubgroupCase("C8_Sp", ())
    cell = eliminator._Cell(spec, case, CaseOrders(v=v))
    final = eliminator._subdegree_step(cell, subdegrees)
    return witness_map(cell.steps[0])["gcd"], final is None


def test_subdegree_screen_pins():
    # the wreath stabilizer on 157696 hermitian points
    rep = eliminate(GroupSpec("unitary", 6, 2), SubgroupCase("C2_GU1wr", ()))
    assert rep.final.kind == "Eliminated"
    last = rep.steps[rep.final.step_index]
    assert last.name == "subdegree"
    assert witness_map(last) == {"v": 157696, "s1": 540, "gcd": 15}
    assert _subdegree_verdict(157696, (540,)) == (15, False)
    assert _subdegree_verdict(28, (12,)) == (3, False)
    assert _subdegree_verdict(8, (7,)) == (7, True)
    assert _subdegree_verdict(36, (21,)) == (7, True)
    # pair-action subdegrees of the 8-point alternating group
    assert _subdegree_verdict(28, (12, 15)) == (3, False)
    with pytest.raises(ValueError, match="at least one subdegree"):
        _subdegree_verdict(28, ())


def test_subdegree_screen_divisor_monotone():
    # if s' | s then gcd(v-1, s') | gcd(v-1, s): refining never hurts
    for v in (28, 36, 120, 176):
        for s in (12, 54, 540, 1680):
            big, _ = _subdegree_verdict(v, (s,))
            for sp in divisors(s):
                small, _ = _subdegree_verdict(v, (sp,))
                assert big % small == 0


def test_two_point_divisor_screen(monkeypatch):
    # |Out| * |H0| / |Sp_2(2)| = 2 * 1451520 / 6 refines the r-divisor
    spec, case = GroupSpec("linear", 6, 2), SubgroupCase("C8_Sp", ())
    rep = eliminate(spec, case)
    assert rep.steps[0].name == "two-point-divisor"
    assert witness_map(rep.steps[0]) == {"n-order": 6, "divisor": 483840}
    assert witness_map(rep.steps[1])["divisor"] == 483840
    # an inexact quotient refines nothing: the order inequality runs instead
    monkeypatch.setattr(eliminator, "sp_order", lambda n, q: 11)
    rep = eliminate(spec, case)
    assert step_names(rep)[0] == "order-inequality"
    assert "two-point-divisor" not in step_names(rep)
    assert witness_map(rep.steps[1])["divisor"] == 2 * 1451520


def test_unitary_line_one_survives_with_design():
    rep = eliminate(GroupSpec("unitary", 3, 3), SubgroupCase("S", (1,)))
    assert rep.final.kind == "Survives"
    assert rep.final.tuples == (DesignParams(36, 36, 21, 21, 12),)
    assert "design found" in rep.final.note
    last = rep.steps[-1]
    assert last.name == "design-search"
    wit = witness_map(last)
    assert wit["psu3_3_36 (36,36,21,21,12)"] == 1
    assert wit["psu3_3_2_36 (36,36,21,21,12)"] == 1
    assert wit["psu3_3_36 (36,48,28,21,16)"] == 0
    assert wit["psu3_3_2_36 (36,48,28,21,16)"] == 0


def test_registry_searches_run_once_per_process(monkeypatch):
    cell = (GroupSpec("unitary", 3, 3), SubgroupCase("S", (1,)))
    first = eliminate(*cell)
    calls = []
    real = eliminator.stabilizer_search

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(eliminator, "stabilizer_search", counting)
    second = eliminate(*cell)
    assert calls == []
    assert second == first
    assert second.final.kind == "Survives"


def test_unitary_line_one_other_q_eliminated():
    rep = eliminate(GroupSpec("unitary", 3, 5), SubgroupCase("S", (1,)))
    assert rep.final.kind == "Eliminated"
    assert rep.steps[rep.final.step_index].name == "rstar-square-vs-gcd"


def test_unitary_imported_classes():
    rep = eliminate(GroupSpec("unitary", 6, 2), SubgroupCase("C4", (2,)))
    assert rep.final.kind == "Eliminated"
    assert step_names(rep) == ["imported-exclusion"]
    rep = eliminate(GroupSpec("unitary", 3, 3), SubgroupCase("C3", (1, 3)))
    assert rep.final.kind == "Eliminated"
    assert step_names(rep) == ["imported-exclusion"]


def test_survivor_families():
    rep = eliminate(GroupSpec("linear", 5, 4), SubgroupCase("C1_Pi", (1,)))
    assert rep.final.kind == "Survives"
    assert "1-subspace" in rep.final.note
    rep = eliminate(GroupSpec("linear", 5, 4), SubgroupCase("C1_Pi", (2,)))
    assert rep.final.kind == "Survives"
    assert "non-symmetric" in rep.final.note
    assert "symmetric-exclusion" in step_names(rep)
    rep = eliminate(GroupSpec("unitary", 3, 7), SubgroupCase("C1_Pi", (1,)))
    assert rep.final.kind == "Survives"
    assert "isotropic-point" in rep.final.note


def test_even_dimension_two_subspace_eliminated():
    rep = eliminate(GroupSpec("linear", 4, 3), SubgroupCase("C1_Pi", (2,)))
    assert rep.final.kind == "Eliminated"
    assert rep.steps[rep.final.step_index].name == "subdegree"


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        eliminate(GroupSpec("linear", 4, 2), SubgroupCase("C1_Ni", (1,)))
    with pytest.raises(ValueError):
        eliminate(GroupSpec("unitary", 4, 2), SubgroupCase("C8_Sp", ()))
    with pytest.raises(ValueError, match="^linear n=4 q=2 has no case C9$"):
        eliminate(GroupSpec("linear", 4, 2), SubgroupCase("C9", ()))


def test_route_table_covers_the_grid():
    """The kinds the grid-arith grid enumerates are exactly the routed kinds
    of each family: a kind added to one of the two tables alone fails here.
    The tier-1 grid (unitary n <= 8) never reaches unitary C7, which first
    appears at n = 9."""
    for family, n_max, q_max in (("linear", 20, 128), ("unitary", 16, 64)):
        kinds = set()
        for n in range(3, n_max + 1):
            for q in grid_q_values(q_max):
                if (family, n, q) == ("unitary", 3, 2):
                    continue
                kinds.update(c.kind for c in enumerate_cases(GroupSpec(family, n, q)))
        assert kinds == set(eliminator._ROUTES[family]), family


# ---------------------------------------------------------------------------
# subdegree formulas against brute-force actions
# ---------------------------------------------------------------------------


def antiflag_action(q: int) -> PermAction:
    """Action of the projective plane socle on non-incident point-line pairs."""
    base = classical_action("linear", 3, q, "socle")
    F = FieldTable(q)
    points = projective_points(F, 3)
    index = {x: i for i, x in enumerate(points)}

    def normalize(vec):
        lead = next(e for e in vec if e != 0)
        s = F.inv(lead)
        return tuple(F.mul(s, e) for e in vec)

    def span_line(a, b):
        on = {index[normalize(a)], index[normalize(b)]}
        for c in range(1, q):
            mixed = tuple(F.add(x, F.mul(c, y)) for x, y in zip(a, b))
            on.add(index[normalize(mixed)])
        return frozenset(on)

    lines = sorted(
        {span_line(points[i], points[j]) for i in range(len(points)) for j in range(i)},
        key=sorted,
    )
    flags = [
        (i, li)
        for i in range(len(points))
        for li, line in enumerate(lines)
        if i not in line
    ]
    slot = {f: s for s, f in enumerate(flags)}
    line_pos = {line: li for li, line in enumerate(lines)}
    perms = []
    for g in base.generators:
        moved = {line: line_pos[frozenset(g[i] for i in line)] for line in lines}
        images = []
        for i, li in flags:
            images.append(slot[(g[i], moved[lines[li]])])
        perms.append(tuple(images))
    return PermAction(len(flags), perms, label=f"antiflags_{q}")


@pytest.mark.parametrize("q", [2, 3])
def test_decomposition_subdegree_matches_brute_force(q):
    spec = GroupSpec("linear", 3, q)
    case = SubgroupCase("C1_GLiGLni", (1,))
    (s,) = known_subdegrees(spec, case)
    assert s == q**2 - 1
    action = antiflag_action(q)
    orders = case_orders(spec, case)
    assert action.degree == orders.v
    assert action.order() == spec.socle_order
    assert s in action.suborbit_lengths(0)


def test_polar_subdegrees_sum_to_degree():
    # rank 3 on isotropic points: 1 + perp + opposite covers everything
    for n in range(4, 9):
        for q in (2, 3, 4, 5, 7, 8):
            spec = GroupSpec("unitary", n, q)
            case = SubgroupCase("C1_Pi", (1,))
            orders = case_orders(spec, case)
            subs = known_subdegrees(spec, case)
            assert len(subs) == 2
            assert 1 + sum(subs) == orders.v
            assert subs[1] == q ** (2 * n - 3)
    # generators of the rank-2 polar space on the n = 4 grid
    for q in (2, 3, 4, 5, 7, 8):
        spec = GroupSpec("unitary", 4, q)
        case = SubgroupCase("C1_Pi", (2,))
        orders = case_orders(spec, case)
        subs = known_subdegrees(spec, case)
        assert subs == (q * (q**2 + 1), q**4)
        assert 1 + sum(subs) == orders.v


def test_decomposition_exceeds_squared_subdegree():
    # v > s^2 holds identically, so the subdegree screen always fires
    for n in range(3, 13):
        for q in grid_q_values(32):
            for i in range(1, (n + 1) // 2):
                spec = GroupSpec("linear", n, q)
                case = SubgroupCase("C1_GLiGLni", (i,))
                orders = case_orders(spec, case)
                (s,) = known_subdegrees(spec, case)
                assert orders.v > s * s


# ---------------------------------------------------------------------------
# gcd-chain identities used by the two-subspace analysis
# ---------------------------------------------------------------------------


def test_two_subspace_numerator_identity():
    for n in range(4, 16):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            lhs = (q ** (2 * n - 2) - q ** (n - 1) - q ** (n - 2) - q + 2) - (q - 1) ** 2
            assert lhs % ((q - 1) * (q ** (n - 2) - 1)) == 0


def test_even_dimension_gcd_is_one():
    from math import gcd

    for n in range(4, 16, 2):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            value = (q**n + q**2 - q - 1) // (q - 1)
            assert gcd(value, (q + 1) ** 2) == 1


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def expected_linear_survivors():
    out = set()
    for n in range(3, 13):
        for q in grid_q_values(32):
            out.add((n, q, "C1_Pi(1)"))
            if n >= 5 and n % 2 == 1:
                out.add((n, q, "C1_Pi(2)"))
    out.add((3, 2, "C3(1,3)"))
    out.add((4, 2, "S(4)"))
    return out


def test_linear_sweep_survivor_set():
    reports = sweep("linear", 3, 12, 32)
    got = {(r.n, r.q, case_label(r.case)) for r in survivors(reports)}
    assert got == expected_linear_survivors()
    for rep in reports:
        assert rep.final.kind in FINAL_KINDS
        if rep.final.kind == "NeedsSearch":
            assert rep.final.tuples == EIGHT_POINT_TUPLES


def test_unitary_sweep_survivor_set():
    reports = sweep("unitary", 3, 8, 8)
    got = {(r.n, r.q, case_label(r.case)) for r in survivors(reports)}
    expected = {(3, q, "C1_Pi(1)") for q in (3, 4, 5, 7, 8)}
    expected.add((3, 3, "S(1)"))
    assert got == expected
    witnessed = [r for r in survivors(reports) if r.final.tuples]
    assert len(witnessed) == 1
    assert witnessed[0].final.tuples == (DesignParams(36, 36, 21, 21, 12),)


def test_every_unitary_s_row_settles():
    # every sporadic unitary row over its full q list, on and off the grid
    for row in UNITARY_S_TABLE:
        for q in row["possible_q"]:
            if (row["n"], q) == (3, 2):
                continue
            spec = GroupSpec("unitary", row["n"], q)
            case = SubgroupCase("S", (row["line"],))
            rep = eliminate(spec, case)
            if row["line"] == 1 and q == 3:
                assert rep.final.kind == "Survives"
            else:
                assert rep.final.kind == "Eliminated", (row["line"], q)


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        sweep("linear", 2, 4, 5)
    # a kind is filtered by its exact name among the family's routed kinds
    for family, kind in (("unitary", "C8_Sp"), ("linear", "c1")):
        with pytest.raises(ValueError, match=rf"^unknown {family} class '{kind}'$"):
            sweep(family, 3, 3, 3, kind=kind)
    # an unknown family is refused, not swept as an empty grid, and named
    # before any kind is looked up in it
    with pytest.raises(ValueError, match=r"^unknown family: linaer$"):
        sweep("linaer", 3, 5, 8, run_searches=False)
    for kind in ("C1_Pi", "c1"):
        with pytest.raises(ValueError, match=r"^unknown family: foo$"):
            sweep("foo", 3, 3, 2, kind=kind)
    # the one hole of the grid is skipped: PSU_3(2) is solvable
    assert sweep("unitary", 3, 3, 2) == ()


def test_report_structure_invariants():
    reports = sweep("unitary", 3, 4, 4)
    for rep in reports:
        for step in rep.steps:
            assert step.name in STEP_NAMES
            assert step.citation
            assert step.verdict in ("pass", "eliminated", "info")
        if rep.final.kind == "Eliminated":
            assert rep.steps[rep.final.step_index].verdict == "eliminated"
            assert rep.final.tuples == ()
        else:
            assert all(s.verdict != "eliminated" for s in rep.steps)


def test_records_are_immutable_and_compare_by_value():
    spec, case = GroupSpec("linear", 3, 3), SubgroupCase("C3", (1, 3))
    first = eliminate(spec, case, run_searches=False)
    second = eliminate(spec, case, run_searches=False)
    assert first.final.tuples and first.steps
    assert first is not second
    assert first == second and hash(first) == hash(second)
    for record, field in (
        (first, "final"),
        (first.steps[0], "verdict"),
        (first.final, "kind"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(ValueError):
        Final("Bogus")


def test_registry_cells_are_on_grid():
    for (family, n, q, kind, params), groups in SEARCH_REGISTRY.items():
        spec = GroupSpec(family, n, q)
        assert SubgroupCase(kind, params) in enumerate_cases(spec)
        assert len(groups) == 2
