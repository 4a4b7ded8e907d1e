"""Order formulas and case tables, pinned against hand-checked values,
reference products and the stabilizer chains of the permutation actions."""

import dataclasses
import functools
import itertools
import math
import re

import pytest

from flagsieve import eliminator, grouporders
from flagsieve.eliminator import grid_q_values, sweep
from flagsieve.exactmath import factorize, prime_power, prime_powers_upto
from flagsieve.grouporders import (
    LINEAR_S_TABLE,
    UNITARY_S_TABLE,
    FactorTable,
    GroupSpec,
    SubgroupCase,
    UnsupportedCaseError,
    case_orders,
    enumerate_cases,
    factor_table,
    gaussian_binomial,
    gl_order,
    known_subdegrees,
    parse_case_label,
    s_line_admits,
    s_line_order,
    so_order,
    sp_order,
    totally_singular_count,
)
from flagsieve.permgroup import (
    PermAction,
    builtin_action,
    classical_action,
    pair_action,
    _set_perms,
)
from reference import q_product

L = lambda n, q: GroupSpec("linear", n, q)
U = lambda n, q: GroupSpec("unitary", n, q)


GROUP_ORDER_ORACLES = {
    ("linear", 3, 2): 168,
    ("linear", 3, 3): 5616,
    ("linear", 3, 4): 20160,
    ("linear", 4, 2): 20160,
    ("linear", 5, 3): 237783237120,
    ("linear", 6, 2): 20158709760,
    ("unitary", 3, 3): 6048,
    ("unitary", 4, 2): 25920,
    ("unitary", 4, 3): 3265920,
    ("unitary", 5, 2): 13685760,
    ("unitary", 6, 2): 9196830720,
}


def test_group_orders():
    for (fam, n, q), order in GROUP_ORDER_ORACLES.items():
        assert GroupSpec(fam, n, q).socle_order == order


def test_order_out():
    assert L(3, 2).out_order == 2
    assert L(3, 4).out_order == 12
    assert L(4, 2).out_order == 2
    assert L(4, 3).out_order == 4
    assert U(3, 3).out_order == 2
    assert U(4, 2).out_order == 2
    assert U(4, 3).out_order == 8


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("symplectic", 4, 2)
    with pytest.raises(ValueError):
        GroupSpec("linear", 2, 7)
    with pytest.raises(ValueError):
        GroupSpec("linear", 3, 6)
    with pytest.raises(ValueError):
        GroupSpec("unitary", 3, 2)
    spec = L(3, 9)
    assert (spec.p, spec.f, spec.d) == (3, 2, 1)
    assert U(4, 3).d == 4


def test_classical_building_blocks():
    assert gl_order(2, 4) == 180
    assert gl_order(3, 2) == 168
    assert gl_order(2, -2) == 18  # |GU_2(2)|
    assert gl_order(3, -2) == 648  # |GU_3(2)|
    assert sp_order(4, 2) == 720
    assert sp_order(6, 2) == 1451520
    assert so_order(3, 3) == 24
    assert so_order(4, 3, "+") == 576
    assert so_order(4, 3, "-") == 720
    with pytest.raises(ValueError):
        sp_order(3, 2)
    with pytest.raises(ValueError):
        so_order(4, 3, "o")


def test_subspace_counts():
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(4, 1, 2) == 15
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(6, 3, 2) == 1395
    assert totally_singular_count(3, 1, 3) == 28
    assert totally_singular_count(4, 1, 2) == 45
    assert totally_singular_count(4, 2, 2) == 27
    assert totally_singular_count(4, 2, 3) == 112
    assert totally_singular_count(5, 2, 2) == 297


# (spec, case) -> (order_h0, v); every pair hand-checked
CASE_ORDER_ORACLES = [
    (L(3, 2), SubgroupCase("C3", (1, 3)), 21, 8),
    (L(3, 3), SubgroupCase("C3", (1, 3)), 39, 144),
    (L(6, 2), SubgroupCase("C2_GLwr", (2, 3)), 1296, 15554560),
    (L(4, 2), SubgroupCase("S", (4,)), 2520, 8),
    (L(3, 3), SubgroupCase("C1_Pi", (1,)), 432, 13),
    (L(4, 2), SubgroupCase("C1_Pi", (2,)), 576, 35),
    (L(4, 2), SubgroupCase("C8_Sp", ()), 720, 28),
    (L(3, 2), SubgroupCase("C2_GLwr", (1, 3)), 6, 28),
    (L(3, 7), SubgroupCase("C6", (3, 1)), 72, 26068),
    (L(3, 19), SubgroupCase("C6", (3, 1)), 216, 26132790),
    (L(4, 5), SubgroupCase("C6", (2, 2)), 5760, 1259375),
    (L(3, 4), SubgroupCase("C8_U", (2,)), 72, 280),
    (L(3, 4), SubgroupCase("C5_subfield", (2, 2)), 168, 120),
    (L(3, 9), SubgroupCase("C5_subfield", (3, 2)), 5616, 7560),
    (L(3, 3), SubgroupCase("C8_O", ("o",)), 24, 234),
    (L(4, 3), SubgroupCase("C8_O", ("+",)), 576, 10530),
    (L(4, 3), SubgroupCase("C8_O", ("-",)), 720, 8424),
    (U(3, 3), SubgroupCase("S", (1,)), 168, 36),
    (U(3, 5), SubgroupCase("S", (1,)), 168, 750),
    (U(3, 5), SubgroupCase("S", (3,)), 720, 175),
    (U(3, 5), SubgroupCase("S", (4,)), 2520, 50),
    (U(4, 3), SubgroupCase("S", (5,)), 2520, 1296),
    (U(4, 3), SubgroupCase("S", (6,)), 20160, 162),
    (U(4, 2), SubgroupCase("C5_Sp", ()), 720, 36),
    (U(6, 2), SubgroupCase("C5_Sp", ()), 1451520, 6336),
    (U(4, 2), SubgroupCase("C1_Pi", (1,)), 576, 45),
    (U(4, 2), SubgroupCase("C1_Pi", (2,)), 960, 27),
    (U(4, 3), SubgroupCase("C1_Pi", (1,)), 11664, 280),
    (U(3, 3), SubgroupCase("C1_Ni", (1,)), 96, 63),
    (U(4, 2), SubgroupCase("C1_Ni", (1,)), 648, 40),
    (U(3, 3), SubgroupCase("C2_GU1wr", ()), 96, 63),
    (U(4, 2), SubgroupCase("C2_GU1wr", ()), 648, 40),
    (U(6, 2), SubgroupCase("C2_GU1wr", ()), 58320, 157696),
    (U(4, 2), SubgroupCase("C2_GLwr", (2, 2)), 216, 120),
    (U(6, 2), SubgroupCase("C2_GLwr", (3, 2)), 93312, 98560),
    (U(6, 2), SubgroupCase("C2_GLwr", (2, 3)), 3888, 2365440),
    (U(4, 2), SubgroupCase("C2_GLhalf", ()), 120, 216),
    (U(6, 2), SubgroupCase("C2_GLhalf", ()), 40320, 228096),
    (U(4, 3), SubgroupCase("C5_O", ("+",)), 576, 5670),
    (U(4, 3), SubgroupCase("C5_O", ("-",)), 720, 4536),
    (U(3, 3), SubgroupCase("C5_O", ("o",)), 24, 252),
]


def test_case_order_oracles():
    for spec, case, h0, v in CASE_ORDER_ORACLES:
        got = case_orders(spec, case)
        assert got.order_h0 == h0, (spec, case, got)
        assert got.v == v, (spec, case, got)
        assert got.order_h0 * got.v == spec.socle_order


def test_bounded_cases():
    got = case_orders(L(8, 17), SubgroupCase("C6", (2, 3)))
    assert (got.order_h0, got.v, got.order_h0_bound) == (None, None, 64 * 1451520)
    got = case_orders(L(9, 7), SubgroupCase("C6", (3, 2)))
    assert (got.order_h0, got.order_h0_bound) == (None, 81 * sp_order(4, 3))
    got = case_orders(L(9, 2), SubgroupCase("C7", (3, 2)))
    assert (got.order_h0, got.order_h0_bound) == (None, 2**16 * 2)
    # |X| and |Out| are the socle's, read off the spec, not copied per case
    assert [f.name for f in dataclasses.fields(got)] == ["order_h0", "v", "order_h0_bound"]


def test_unitary_imported_classes_have_no_orders():
    pairs = [
        (U(6, 8), SubgroupCase("C3", (2, 3))),
        (U(6, 8), SubgroupCase("C4", (2,))),
        (U(6, 8), SubgroupCase("C5_subfield", (2, 3))),
        (U(9, 2), SubgroupCase("C6", (3, 2))),
    ]
    for spec, case in pairs:
        got = case_orders(spec, case)
        assert (got.order_h0, got.v, got.order_h0_bound) == (None, None, None)


def test_unknown_kind_raises():
    with pytest.raises(UnsupportedCaseError):
        case_orders(L(4, 3), SubgroupCase("C9_Mystery", ()))
    with pytest.raises(UnsupportedCaseError):
        case_orders(U(4, 3), SubgroupCase("C8_Sp", ()))


@pytest.mark.parametrize(
    "spec, case",
    [
        (U(4, 3), SubgroupCase("C3", (2, 2))),  # unitary C3 needs t odd
        (L(3, 4), SubgroupCase("C6", (3, 1))),  # C6 needs f = 1
        (L(6, 2), SubgroupCase("C8_Sp", ("x",))),  # C8_Sp takes no parameter
        (U(4, 4), SubgroupCase("C5_subfield", (2, 2))),  # unitary C5 needs t odd
        (U(4, 3), SubgroupCase("C2_GLwr", (1, 4))),  # unitary blocks of size 1 are C2_GU1wr
    ],
    ids=str,
)
def test_case_orders_refuses_cells_the_enumeration_omits(spec, case):
    """A kind the family has, with parameters no enumeration lists, is
    refused by name like CellReport.label, not computed."""
    assert case not in enumerate_cases(spec)
    label = f"{spec.family} n={spec.n} q={spec.q}"
    with pytest.raises(UnsupportedCaseError, match=rf"^{label} has no case "):
        case_orders(spec, case)


@pytest.mark.parametrize(
    "params", [(True,), (1.0,), ([1],), [1]], ids=["bool", "float", "list-item", "list"]
)
def test_subgroup_case_refuses_parameters_other_than_ints_and_strs(params):
    """A bool equals an int and a float may too, so either would pass the
    enumeration's membership test; a list is unhashable.  Each is refused
    when the case is built, naming the case."""
    with pytest.raises(ValueError, match=r"^case C1_Pi takes a tuple of ints and strs"):
        SubgroupCase("C1_Pi", params)
    assert SubgroupCase("C1_Pi", (1,)) in enumerate_cases(L(4, 3))
    assert SubgroupCase("C8_O", ("+",)) in enumerate_cases(L(4, 3))


def test_case_labels_read_back_on_the_grid():
    """parse_case_label inverts case_label on every case of the grid-arith
    grid, str parameters (C8_O(+), C5_O(-)) included."""
    seen = set()
    for family, n_max, q_max in (("linear", 20, 128), ("unitary", 16, 64)):
        for n in range(3, n_max + 1):
            for q in grid_q_values(q_max):
                if (family, n, q) == ("unitary", 3, 2):
                    continue
                for case in enumerate_cases(GroupSpec(family, n, q)):
                    label = grouporders.case_label(case)
                    assert parse_case_label(label) == case, label
                    seen.add(case.kind)
    assert {"C8_O", "C5_O", "C8_Sp", "S"} <= seen


@pytest.mark.parametrize(
    "text",
    ["C3(01,3)", "C3(+1,3)", "C3(1, 3)", "C3()", "C3(1,,3)", "C3(1,3", "", "(1)",
     "C3)", "C3(1)(2)", "C3((1),3)", "C3(-0)", "C3(1,3))"],
)
def test_parse_case_label_refuses_text_case_label_would_not_write(text):
    with pytest.raises(ValueError, match=rf"^not a case label: {re.escape(repr(text))}$"):
        parse_case_label(text)


def test_enumerate_linear_6_2():
    cases = set(enumerate_cases(L(6, 2)))
    assert cases == {
        SubgroupCase("C1_Pi", (1,)),
        SubgroupCase("C1_Pi", (2,)),
        SubgroupCase("C1_Pi", (3,)),
        SubgroupCase("C1_Pij", (1,)),
        SubgroupCase("C1_Pij", (2,)),
        SubgroupCase("C1_GLiGLni", (1,)),
        SubgroupCase("C1_GLiGLni", (2,)),
        SubgroupCase("C2_GLwr", (3, 2)),
        SubgroupCase("C2_GLwr", (2, 3)),
        SubgroupCase("C2_GLwr", (1, 6)),
        SubgroupCase("C3", (3, 2)),
        SubgroupCase("C3", (2, 3)),
        SubgroupCase("C4", (2,)),
        SubgroupCase("C8_Sp", ()),
    }


def test_enumerate_unitary_4_2():
    cases = set(enumerate_cases(U(4, 2)))
    assert cases == {
        SubgroupCase("C1_Pi", (1,)),
        SubgroupCase("C1_Pi", (2,)),
        SubgroupCase("C1_Ni", (1,)),
        SubgroupCase("C2_GU1wr", ()),
        SubgroupCase("C2_GLwr", (2, 2)),
        SubgroupCase("C2_GLhalf", ()),
        SubgroupCase("C5_Sp", ()),
    }


def test_enumerate_membership_spot_checks():
    assert SubgroupCase("C6", (2, 2)) in enumerate_cases(L(4, 5))
    assert SubgroupCase("C6", (2, 2)) not in enumerate_cases(L(4, 7))
    assert SubgroupCase("C6", (3, 1)) in enumerate_cases(L(3, 7))
    assert SubgroupCase("C6", (3, 1)) not in enumerate_cases(L(3, 4))
    assert SubgroupCase("C7", (3, 2)) in enumerate_cases(L(9, 2))
    assert SubgroupCase("C8_U", (2,)) in enumerate_cases(L(3, 4))
    assert SubgroupCase("C5_subfield", (2, 2)) in enumerate_cases(L(3, 4))
    assert SubgroupCase("S", (3,)) in enumerate_cases(L(3, 4))
    # characteristic 3 admits no faithful triple cover of A_6
    assert SubgroupCase("S", (3,)) not in enumerate_cases(L(3, 9))
    assert SubgroupCase("S", (5,)) in enumerate_cases(L(4, 7))
    assert SubgroupCase("S", (4,)) in enumerate_cases(L(4, 2))
    assert SubgroupCase("S", (1,)) in enumerate_cases(U(3, 3))
    assert SubgroupCase("S", (1,)) in enumerate_cases(U(3, 5))
    assert SubgroupCase("S", (2,)) not in enumerate_cases(U(3, 5))
    assert SubgroupCase("C3", (1, 3)) in enumerate_cases(U(3, 3))
    assert SubgroupCase("C3", (2, 3)) in enumerate_cases(U(6, 2))
    assert SubgroupCase("C6", (2, 2)) in enumerate_cases(U(4, 3))
    # far beyond the grid, subfields q0 = p^(f/t) are still exact
    cases = enumerate_cases(L(3, 2**60))
    subfields = [c.params for c in cases if c.kind == "C5_subfield"]
    assert subfields == [(2**30, 2), (2**20, 3), (2**12, 5)]
    assert SubgroupCase("C8_U", (2**30,)) in cases
    assert not [c for c in enumerate_cases(L(3, 2**15)) if c.kind == "C8_U"]
    cases = enumerate_cases(U(3, 3**9))
    assert [c.params for c in cases if c.kind == "C5_subfield"] == [(27, 3)]


def test_every_enumerated_case_has_consistent_orders():
    specs = [L(n, q) for n in range(3, 9) for q in (2, 3, 4, 5, 8, 9)]
    specs += [U(n, q) for n in range(3, 9) for q in (2, 3, 4, 5) if (n, q) != (3, 2)]
    for spec in specs:
        for case in enumerate_cases(spec):
            got = case_orders(spec, case)
            if got.order_h0 is not None:
                assert got.order_h0 * got.v == spec.socle_order
                assert got.v > 2


def test_s_table_membership():
    assert s_line_admits("linear", 1, 11)
    assert not s_line_admits("linear", 1, 2)
    assert not s_line_admits("linear", 1, 3)
    assert s_line_admits("linear", 2, 19)
    assert s_line_admits("linear", 3, 4)
    assert s_line_admits("linear", 3, 49)
    assert not s_line_admits("linear", 3, 9)
    assert not s_line_admits("linear", 3, 25)
    assert s_line_admits("linear", 6, 3) and not s_line_admits("linear", 6, 9)
    assert s_line_admits("linear", 8, 3) and not s_line_admits("linear", 8, 4)
    assert s_line_admits("unitary", 1, 19) and not s_line_admits("unitary", 1, 7)


def test_linear_s_table_restrictions_match_admission_bound():
    """The printed surviving q are exactly the membership q passing
    q^(n^2-2) < 4 f^2 n^2 |H0|^3, except the flagged line."""
    for row in LINEAR_S_TABLE:
        if row["order"] is None:
            continue
        n, order = row["n"], row["order"]
        passers = []
        for q in prime_powers_upto(64):
            if not s_line_admits("linear", row["line"], q):
                continue
            f = prime_power(q).f
            if q ** (n * n - 2) < 4 * f * f * n * n * order**3:
                passers.append(q)
        if row.get("anomalous"):
            assert tuple(passers) == ()
            assert row["restriction"] == (3,)
        else:
            assert tuple(passers) == row["restriction"], row


def test_unitary_s_table_entries_pass_admission_bound():
    for row in UNITARY_S_TABLE:
        n, order = row["n"], row["order"]
        for q in row["possible_q"]:
            f = prime_power(q).f
            assert q ** (n * n - 3) < 4 * n * n * f * f * order**3, row


def test_c2_wreath_subdegree_is_a_union_of_suborbits():
    """linear n=4 q=2 C2_GLwr(2,2): PSL(4,2) = A_8 on the 280 partitions of
    8 points of type 3+3+2, each the set of its 7 within-block pairs.  The
    tabulated 144 is no suborbit, only a sum of nontrivial ones: a
    G_alpha-invariant set of points other than alpha, whose size r*
    divides all the same.  The report's gcd is gcd(279, 144) = 9."""
    pairs = pair_action(builtin_action("psl4_2"))
    blocks = ({0, 1, 2}, {3, 4, 5}, {6, 7})
    within = [
        i
        for i, pair in enumerate(itertools.combinations(range(8), 2))
        if any(set(pair) <= block for block in blocks)
    ]
    assert len(within) == 7
    sets = pairs.set_orbit(within)
    act = PermAction(len(sets), _set_perms(pairs.generators, sets))
    assert act.degree == 280
    subs = act.suborbit_lengths(0)
    assert subs == (1, 6, 9, 12, 18, 18, 36, 36, 36, 36, 72)
    case = SubgroupCase("C2_GLwr", (2, 2))
    assert known_subdegrees(L(4, 2), case) == (144,)
    assert 144 not in subs
    assert any(
        sum(part) == 144
        for size in range(2, len(subs))
        for part in itertools.combinations(subs[1:], size)
    )
    assert math.gcd(279, 144) == 9
    (step,) = eliminator.eliminate(L(4, 2), case).steps
    assert step.name == "subdegree" and ("gcd", 9) in step.witnesses


def test_s_line_order_for_variable_line():
    assert s_line_order(L(6, 3), 8) == 5616
    assert s_line_order(L(6, 5), 8) == 372000


def test_known_subdegrees():
    assert known_subdegrees(L(4, 2), SubgroupCase("C1_Pi", (2,))) == (18,)
    assert known_subdegrees(L(4, 2), SubgroupCase("C1_Pi", (1,))) is None
    assert known_subdegrees(L(5, 2), SubgroupCase("C1_Pij", (1,))) == (28,)
    assert known_subdegrees(L(6, 3), SubgroupCase("C2_GLwr", (3, 2))) == (54756,)
    assert known_subdegrees(L(6, 2), SubgroupCase("C2_GLwr", (2, 3))) is None
    assert known_subdegrees(U(4, 2), SubgroupCase("C1_Ni", (1,))) == (27,)
    assert known_subdegrees(U(3, 3), SubgroupCase("C1_Ni", (1,))) == (32,)
    assert known_subdegrees(U(4, 2), SubgroupCase("C2_GU1wr", ())) == (108,)
    assert known_subdegrees(U(6, 2), SubgroupCase("C2_GU1wr", ())) == (540,)
    assert known_subdegrees(U(4, 5), SubgroupCase("C2_GU1wr", ())) == (216,)
    assert known_subdegrees(U(3, 5), SubgroupCase("C2_GU1wr", ())) is None


# ---------------------------------------------------------------------------
# The factor table against the definitions.  These are the order formulas
# as products of q^j - eps built term by term with q_product, kept as the
# reference the table-based formulas must reproduce.


def _ref_gl(a, q):
    if a == 0:
        return 1
    return q ** (a * (a - 1) // 2) * q_product(q, tuple((j, 1) for j in range(1, a + 1)))


def _ref_gu(a, q):
    if a == 0:
        return 1
    return q ** (a * (a - 1) // 2) * q_product(
        q, tuple((j, (-1) ** j) for j in range(1, a + 1))
    )


def _ref_sp(n, q):
    m = n // 2
    return q ** (m * m) * q_product(q, tuple((2 * i, 1) for i in range(1, m + 1)))


def _ref_so(n, q, eps):
    if n % 2:
        m = (n - 1) // 2
        return q ** (m * m) * q_product(q, tuple((2 * i, 1) for i in range(1, m + 1)))
    m = n // 2
    sign = 1 if eps == "+" else -1
    return (
        q ** (m * (m - 1))
        * (q**m - sign)
        * q_product(q, tuple((2 * i, 1) for i in range(1, m)))
    )


def _ref_gaussian(n, i, q):
    num = q_product(q, tuple((n - j, 1) for j in range(i)))
    den = q_product(q, tuple((j, 1) for j in range(1, i + 1)))
    assert num % den == 0
    return num // den


def _ref_isotropic(n, q):
    num = (q**n - (-1) ** n) * (q ** (n - 1) - (-1) ** (n - 1))
    assert num % (q * q - 1) == 0
    return num // (q * q - 1)


def _ref_totally_singular(n, i, q):
    num = 1
    for j in range(i):
        num *= _ref_isotropic(n - 2 * j, q)
    den = 1
    for j in range(1, i + 1):
        den *= (q ** (2 * j) - 1) // (q * q - 1)
    assert num % den == 0
    return num // den


def _ref_div(num, den):
    assert num % den == 0, (num, den)
    return num // den


def _ref_socle(family, n, q):
    if family == "linear":
        d = math.gcd(n, q - 1)
        terms = tuple((j, 1) for j in range(2, n + 1))
    else:
        d = math.gcd(n, q + 1)
        terms = tuple((j, (-1) ** j) for j in range(2, n + 1))
    return _ref_div(q ** (n * (n - 1) // 2) * q_product(q, terms), d)


def _ref_h0(spec, case, ox):
    """|H0| from the reference formulas, for every kind whose order is a
    product of q^j - eps; None for the kinds given by constants or bounds."""
    n, q, kind, params = spec.n, spec.q, case.kind, case.params
    if spec.family == "linear":
        d = math.gcd(n, q - 1)
        if kind == "C1_Pi":
            return _ref_div(ox, _ref_gaussian(n, params[0], q))
        if kind == "C1_Pij":
            (i,) = params
            return _ref_div(ox, _ref_gaussian(n, i, q) * _ref_gaussian(n - i, i, q))
        if kind == "C1_GLiGLni":
            (i,) = params
            return _ref_div(_ref_gl(i, q) * _ref_gl(n - i, q), (q - 1) * d)
        if kind == "C2_GLwr":
            m, t = params
            return _ref_div(math.factorial(t) * _ref_gl(m, q) ** t, (q - 1) * d)
        if kind == "C3":
            m, t = params
            ext = q_product(q, tuple((t * j, 1) for j in range(1, m + 1)))
            return _ref_div(t * q ** (n * (m - 1) // 2) * ext, (q - 1) * d)
        if kind == "C4":
            (i,) = params
            j = n // i
            tail = q_product(q, tuple((k, 1) for k in range(2, i + 1))) * q_product(
                q, tuple((k, 1) for k in range(2, j + 1))
            )
            return _ref_div(
                math.gcd(i, j, q - 1) * q ** ((i * i + j * j - i - j) // 2) * tail, d
            )
        if kind == "C5_subfield":
            q0, _ = params
            c = math.gcd(n, (q - 1) // (q0 - 1))
            terms = tuple((j, 1) for j in range(2, n + 1))
            return _ref_div(c * q0 ** (n * (n - 1) // 2) * q_product(q0, terms), d)
        if kind == "C8_Sp":
            return _ref_div(math.gcd(n // 2, q - 1) * _ref_sp(n, q), d)
        if kind == "C8_O":
            return _ref_so(n, q, params[0])
        if kind == "C8_U":
            (q0,) = params
            c = math.gcd(n, q0 - 1)
            terms = tuple((j, (-1) ** j) for j in range(2, n + 1))
            return _ref_div(c * q0 ** (n * (n - 1) // 2) * q_product(q0, terms), d)
        if kind == "S" and params == (8,):
            return _ref_div(_ref_gl(3, q), (q - 1) * math.gcd(3, q - 1))
        return None
    d = math.gcd(n, q + 1)
    if kind == "C1_Pi":
        return _ref_div(ox, _ref_totally_singular(n, params[0], q))
    if kind == "C1_Ni":
        (i,) = params
        return _ref_div(_ref_gu(i, q) * _ref_gu(n - i, q), (q + 1) * d)
    if kind == "C2_GU1wr":
        return _ref_div(math.factorial(n) * (q + 1) ** (n - 1), d)
    if kind == "C2_GLwr":
        m, t = params
        return _ref_div(math.factorial(t) * _ref_gu(m, q) ** t, (q + 1) * d)
    if kind == "C2_GLhalf":
        return _ref_div(2 * _ref_gl(n // 2, q * q), (q + 1) * d)
    if kind == "C5_Sp":
        return _ref_div(_ref_sp(n, q), math.gcd(2, q - 1))
    if kind == "C5_O":
        return _ref_so(n, q, params[0])
    return None


def test_order_formulas_match_reference_products():
    """Every formula that reads the factor table, for every prime power
    q <= 128 at dimension <= 20 (unitary <= 16)."""
    for q in prime_powers_upto(128):
        for a in range(21):
            assert gl_order(a, q) == _ref_gl(a, q), (a, q)
            for i in range(a + 1):
                assert gaussian_binomial(a, i, q) == _ref_gaussian(a, i, q), (a, i, q)
        for a in range(17):
            assert gl_order(a, -q) == _ref_gu(a, q), (a, q)
            for i in range(1, a // 2 + 1):
                got = totally_singular_count(a, i, q)
                assert got == _ref_totally_singular(a, i, q), (a, i, q)
            if a >= 2:
                assert totally_singular_count(a, 1, q) == _ref_isotropic(a, q), (a, q)
        for n in range(1, 21):
            if n % 2:
                assert so_order(n, q) == _ref_so(n, q, "o"), (n, q)
            else:
                assert sp_order(n, q) == _ref_sp(n, q), (n, q)
                for eps in "+-":
                    assert so_order(n, q, eps) == _ref_so(n, q, eps), (n, q, eps)


@pytest.mark.parametrize("family, n_max", [("linear", 20), ("unitary", 16)])
def test_case_orders_match_reference_products(family, n_max):
    """The socle order and every product-formula |H0| of every enumerated
    case, for every prime power q <= 128."""
    checked = 0
    for q in prime_powers_upto(128):
        for n in range(3, n_max + 1):
            if (family, n, q) == ("unitary", 3, 2):
                continue
            spec = GroupSpec(family, n, q)
            ox = _ref_socle(family, n, q)
            assert spec.socle_order == ox, spec
            for case in enumerate_cases(spec):
                want = _ref_h0(spec, case, ox)
                if want is None:
                    continue
                got = case_orders(spec, case)
                assert (got.order_h0, got.v) == (want, ox // want), (spec, case)
                checked += 1
    assert checked > 5_000


def test_factor_table_extends_on_demand_and_rejects_bad_input():
    """The table of Q holds |Q^j - 1|; at Q = -q these are the factors
    q^j - (-1)^j of |GU_a(q)|."""
    plus, minus = FactorTable(3), FactorTable(-3)
    assert plus.gl(3) == 2 * 8 * 26
    assert minus.gl(3) == 4 * 8 * 28
    assert plus.sp(2) == minus.sp(2) == 8 * 80
    assert (plus.minus(3), minus.minus(3)) == (26, 28)
    assert plus.minus(4) == minus.minus(4) == 80
    for table in (plus, minus):
        assert table.minus(0) == 0
        assert table.gl(0) == table.sp(0) == 1
        for read in (table.minus, table.gl, table.sp):
            with pytest.raises(ValueError):
                read(-1)
    for Q in (-1, 0, 1):
        with pytest.raises(ValueError):
            FactorTable(Q)
    assert factor_table(3) is factor_table(3)
    assert factor_table(-3) is not factor_table(3)


def _tables_built(monkeypatch, family, n_max, q_max):
    """The signed Q of every factor table a sweep builds, in build order."""
    built = []

    class Recorded(FactorTable):
        __slots__ = ()

        def __init__(self, Q):
            built.append(Q)
            super().__init__(Q)

    monkeypatch.setattr(grouporders, "FactorTable", Recorded)
    factor_table.cache_clear()
    try:
        sweep(family, 3, n_max, q_max, run_searches=False)
    finally:
        factor_table.cache_clear()
    return built


def test_tier1_linear_sweep_builds_one_table_per_q(monkeypatch):
    """Every formula of a sweep reads one table per Q, built once: the q of
    its grid, and -q0 for |GU_n(q0)| in C8_U(q0) at q = q0^2; no table for
    q^t or for a repeated Q."""
    built = _tables_built(monkeypatch, "linear", 12, 32)
    assert len(built) == len(set(built))
    assert set(built) == set(grid_q_values(32)) | {-2, -3, -4, -5}


def test_tier1_unitary_sweep_builds_one_table_per_q(monkeypatch):
    """The unitary formulas read the table of -q; C5_Sp and C5_O read the
    table of q, and C2_GLhalf that of q^2; each is built once."""
    built = _tables_built(monkeypatch, "unitary", 8, 8)
    assert len(built) == len(set(built))
    qs = grid_q_values(8)
    assert set(built) == {-q for q in qs} | set(qs) | {q * q for q in qs}


def test_tier1_linear_sweep_factorizes_n_and_f_once_per_socle(monkeypatch):
    """enumerate_cases factorizes n once, for C3 and C6 alike, and f once."""
    calls = []
    socles = []

    def counted_factorize(n):
        calls.append(n)
        return factorize(n)

    def counted_enumerate(spec):
        socles.append(spec)
        return enumerate_cases(spec)

    monkeypatch.setattr(grouporders, "factorize", counted_factorize)
    monkeypatch.setattr(eliminator, "enumerate_cases", counted_enumerate)
    sweep("linear", 3, 12, 32, run_searches=False)
    assert len(socles) == 180
    assert sorted(calls) == sorted([s.n for s in socles] + [s.f for s in socles])


# ---------------------------------------------------------------------------
# case_orders against the stabilizer chains of the permutation actions


SOCLE = (1, 1, 1)  # (degree / v, order / |X|, point stabilizer / |H0|)
DOT_TWO = (1, 2, 2)  # X.2 on the same points

CHAIN_ANCHORS = [
    *[
        (
            functools.partial(classical_action, "linear", n, q),
            L(n, q),
            ("C1_Pi", (1,)),
            SOCLE,
        )
        for n, q in [(3, 2), (3, 3), (3, 4), (3, 5), (3, 7), (4, 2), (4, 3), (5, 2), (6, 2)]
    ],
    *[
        (
            functools.partial(classical_action, "unitary", 3, q),
            U(3, q),
            ("C1_Pi", (1,)),
            SOCLE,
        )
        for q in (3, 4)
    ],
    (functools.partial(builtin_action, "psl2_7"), L(3, 2), ("C3", (1, 3)), SOCLE),
    (functools.partial(builtin_action, "psl4_2"), L(4, 2), ("S", (4,)), SOCLE),
    (lambda: pair_action(builtin_action("psl4_2")), L(4, 2), ("C8_Sp", ()), SOCLE),
    (functools.partial(builtin_action, "psl3_3_144"), L(3, 3), ("C3", (1, 3)), SOCLE),
    (functools.partial(builtin_action, "psu3_3_36"), U(3, 3), ("S", (1,)), SOCLE),
    (functools.partial(builtin_action, "pgl2_7"), L(3, 2), ("C3", (1, 3)), DOT_TWO),
    (functools.partial(builtin_action, "psu3_3_2"), U(3, 3), ("C1_Pi", (1,)), DOT_TWO),
    (functools.partial(builtin_action, "psu3_3_2_36"), U(3, 3), ("S", (1,)), DOT_TWO),
    (
        functools.partial(builtin_action, "psl3_3_2_144"),
        L(3, 3),
        ("C3", (1, 3)),
        DOT_TWO,
    ),
    # the graph automorphism swaps points and lines: 2v points, and the
    # stabilizer of a point lies in X
    (
        functools.partial(builtin_action, "psl3_3_2"),
        L(3, 3),
        ("C1_Pi", (1,)),
        (2, 2, 1),
    ),
]


@pytest.mark.parametrize(
    "build, spec, case, scale",
    CHAIN_ANCHORS,
    ids=[
        f"{s.family}-{s.n}-{s.q}-{k}" + ("" if scale == SOCLE else ".2")
        for _, s, (k, _), scale in CHAIN_ANCHORS
    ],
)
def test_case_orders_match_the_chain(build, spec, case, scale):
    """v, |X| and |H0| against the degree of the action, its order and the
    order of a point stabilizer, each read off the action's stabilizer
    chain; an action of X.2 has twice the order."""
    action = build()
    got = case_orders(spec, SubgroupCase(*case))
    degree, order, stabilizer = scale
    assert action.degree == degree * got.v
    assert action.order() == order * spec.socle_order
    assert action.point_stabilizer(0).order() == stabilizer * got.order_h0
