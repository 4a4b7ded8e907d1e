"""Design search oracles on the eight-, 36-, and 144-point actions."""

import ast
import functools
import hashlib
import itertools
import math
import os
import random
import re
import sys

import pytest

from flagsieve import designsearch, permgroup
from flagsieve.designsearch import (
    DesignRecord,
    _block_key,
    _candidate_design,
    _orbit_unions,
    _pair_coverage,
    _suborbit_screen,
    _union_count,
    hypothesis_filter,
    korbit_designs,
    load_design,
    save_design,
    stabilizer_search,
    verify_design,
)
from flagsieve.eliminator import SEARCH_REGISTRY, eliminate
from flagsieve.grouporders import GroupSpec, SubgroupCase
from flagsieve.permgroup import (
    PermAction,
    builtin_action,
    classical_action,
    pair_action,
    subgroups_of_order,
)
from flagsieve.sieve import DesignParams, admissible_tuples_explained
from reference import (
    orbit_unions,
    pair_coverage_by_counting,
    quotas_met_by_counting,
    set_orbit_by_frozensets,
)

PARAMS_36_SYM = DesignParams(36, 36, 21, 21, 12)
PARAMS_36_QUASI = DesignParams(36, 48, 28, 21, 16)
PARAMS_144 = DesignParams(144, 144, 78, 78, 42)


# -- k-orbit enumeration


def test_korbit_pgl2_7_k4():
    records = korbit_designs(builtin_action("pgl2_7"), 4)
    assert [rec.params.as_tuple() for rec in records] == [
        (8, 28, 14, 4, 6),
        (8, 42, 21, 4, 9),
    ]
    assert all(rec.flag_transitive for rec in records)
    kept = hypothesis_filter(records)
    assert [rec.params.as_tuple() for rec in kept] == [
        (8, 28, 14, 4, 6),
        (8, 42, 21, 4, 9),
    ]


def test_korbit_psl2_7_k4():
    records = korbit_designs(builtin_action("psl2_7"), 4)
    assert [rec.params.as_tuple() for rec in records] == [
        (8, 14, 7, 4, 3),
        (8, 14, 7, 4, 3),
        (8, 42, 21, 4, 9),
    ]
    assert all(rec.flag_transitive for rec in records)
    # the two 14-block orbits have (r, lambda) = 7, so gcd 1 fails the bound
    kept = hypothesis_filter(records)
    assert [rec.params.as_tuple() for rec in kept] == [(8, 42, 21, 4, 9)]


def test_korbit_psl4_2_only_complete():
    records = korbit_designs(builtin_action("psl4_2"), 4)
    assert len(records) == 1
    only = records[0]
    assert only.params.as_tuple() == (8, 70, 35, 4, 15)
    assert only.params.b == math.comb(8, 4)
    assert only.flag_transitive
    assert hypothesis_filter(records) == ()


def test_korbit_block_sets_are_disjoint_partitions():
    records = korbit_designs(builtin_action("psl2_7"), 4)
    all_blocks = [b for rec in records for b in rec.blocks]
    assert len(all_blocks) == len(set(all_blocks)) == 70


def test_korbit_budget_and_range_guards():
    wheel = PermAction(40, [tuple((i + 1) % 40 for i in range(40))], label="c40")
    with pytest.raises(ValueError, match="exceeds the orbit budget 10000000$"):
        korbit_designs(wheel, 20)
    assert len(korbit_designs(builtin_action("psl2_7"), 4, cap=70)) == 3
    with pytest.raises(ValueError, match=r"C\(8,4\) = 70 exceeds the orbit budget 69"):
        korbit_designs(builtin_action("psl2_7"), 4, cap=69)
    with pytest.raises(ValueError):
        korbit_designs(builtin_action("psl2_7"), 1)
    with pytest.raises(ValueError):
        korbit_designs(builtin_action("psl2_7"), 9)


def test_korbit_agrees_with_stabilizer_search_on_13_points():
    """The criterion-10 agreement at v = 13: on the 13-point PSL_3(3), for
    k = 3..11, the k-orbit designs fall under 25 parameter sets.  For 23 of
    them the search certifies exactly the flag-transitive k-orbit designs.
    The other 2 need block stabilizers of order 6 and 8 in a group of order
    5616, which neither subgroup route certifies, so the search refuses."""
    action = builtin_action("psl3_3")
    by_params = {}
    for k in range(3, 12):
        for rec in korbit_designs(action, k):
            keys = by_params.setdefault(rec.params, set())
            if rec.flag_transitive:
                keys.add(_block_key(rec.blocks))
    refused = []
    for params, keys in sorted(by_params.items()):
        try:
            result = stabilizer_search(action, params)
        except RuntimeError as exc:
            assert str(exc).startswith("cannot certify")
            refused.append((params.as_tuple(), str(exc)))
            continue
        assert result.exhaustive
        assert {_block_key(r.blocks) for r in result.designs} == keys
    assert len(by_params) == 25
    assert sorted(refused) == [
        (
            (13, 702, 432, 8, 252),
            "cannot certify a complete order-8 subgroup enumeration "
            "in a group of order 5616",
        ),
        (
            (13, 936, 432, 6, 180),
            "cannot certify a complete order-6 subgroup enumeration "
            "in a group of order 5616",
        ),
    ]


# -- flag-transitivity against the flag orbit


def _flag_orbit_size(action, block):
    """The orbit of the flag (min(block), block) over every element."""
    x = min(block)
    return len({(g[x], frozenset(g[i] for i in block)) for g in action.elements()})


@pytest.mark.parametrize("name", ["psl2_7", "pgl2_7", "psl3_2", "psl4_2"])
def test_flag_transitive_matches_flag_orbit(name):
    """Every k-orbit design, k = 2..6: flag_transitive holds exactly when
    one flag's orbit over the listed elements has all b*k flags."""
    act = builtin_action(name)
    seen = set()
    for k in range(2, 7):
        for rec in korbit_designs(act, k):
            oracle = _flag_orbit_size(act, rec.blocks[0]) == rec.params.b * k
            assert rec.flag_transitive == oracle, (name, rec.params)
            seen.add(oracle)
    # A_8 is 6-transitive, so every one of its k-orbit designs is
    assert seen == ({True} if name == "psl4_2" else {True, False})


@pytest.mark.parametrize("name", ["psl2_7", "pgl2_7", "psl3_2", "psl3_2_plus_fixed"])
def test_korbit_designs_match_brute_force(name):
    """Oracle for korbit_designs, k = 2..v-2: its records are the orbits of
    k-subsets, walked on frozensets, on which counting every pair of every
    block finds one multiplicity and counting the blocks through each point
    one replication; each flag-transitive exactly when one flag's orbit
    over the listed elements has all b*k flags.  The Fano plane plus a
    fixed point is intransitive, and the group of a block-transitive 2-design
    with k < v is transitive on points (Block's lemma), so it has none."""
    act = _fano_plus_fixed_point() if name == "psl3_2_plus_fixed" else builtin_action(name)
    v, flags = act.degree, set()
    for k in range(2, v - 1):
        seen, expected = set(), []
        for combo in itertools.combinations(range(v), k):
            if frozenset(combo) in seen:
                continue
            blocks = set_orbit_by_frozensets(act, combo)
            seen.update(blocks)
            lam = pair_coverage_by_counting(blocks, v)
            through = {sum(p in block for block in blocks) for p in range(v)}
            if lam is None or len(through) != 1:
                continue
            params = DesignParams(v, len(blocks), through.pop(), k, lam)
            flag = _flag_orbit_size(act, blocks[0]) == params.b * k
            expected.append(DesignRecord(act.label, params, blocks, flag))
            flags.add(flag)
        expected.sort(key=lambda rec: (rec.params, _block_key(rec.blocks)))
        assert korbit_designs(act, k) == tuple(expected), k
    assert flags == (set() if name == "psl3_2_plus_fixed" else {True, False})


def test_flag_transitive_registry_design_matches_flag_orbit():
    """The 2-(36,21,12) design the registry search finds on psu3_3_36 is
    flag-transitive by the flag-orbit count too; the orbit of the 21-set
    {0..20}, whose stabilizer is too small, is not, by either count."""
    act = builtin_action("psu3_3_36")
    (rec,) = stabilizer_search(act, PARAMS_36_SYM).designs
    assert _flag_orbit_size(act, rec.blocks[0]) == rec.params.b * rec.params.k
    assert designsearch._flag_transitive(act, rec.blocks, rec.params.r)
    blocks = act.set_orbit(range(21))
    r = len(blocks) * 21 // 36
    assert _flag_orbit_size(act, blocks[0]) < len(blocks) * 21
    assert not designsearch._flag_transitive(act, blocks, r)


# -- stabilizer search, positive controls


def test_stabilizer_search_recovers_pgl_design():
    act = builtin_action("pgl2_7")
    result = stabilizer_search(act, DesignParams(8, 28, 14, 4, 6))
    assert result.exhaustive
    assert len(result.designs) == 1
    korbit = korbit_designs(act, 4)
    assert result.designs[0].blocks == korbit[0].blocks
    names = [name for name, _ in result.certificate]
    assert "flag-stabilizer-candidates" in names
    assert "candidate-blocks" in names


def test_stabilizer_search_recovers_psl_design_block_route():
    # flag stabilizer is trivial here, exercising the block-stabilizer route
    act = builtin_action("psl2_7")
    result = stabilizer_search(act, DesignParams(8, 42, 21, 4, 9))
    assert result.exhaustive
    assert len(result.designs) == 1
    korbit = korbit_designs(act, 4)
    assert result.designs[0].blocks == korbit[-1].blocks
    names = [name for name, _ in result.certificate]
    assert "block-stabilizer-candidates" in names


def test_stabilizer_search_flag_count_infeasible():
    # 8 * 14 = 112 does not divide 168
    result = stabilizer_search(builtin_action("psl2_7"), DesignParams(8, 28, 14, 4, 6))
    assert result.designs == ()
    assert result.exhaustive
    assert result.certificate[0][0] == "flag-count"


def test_stabilizer_search_degree_mismatch():
    with pytest.raises(ValueError):
        stabilizer_search(builtin_action("psl2_7"), PARAMS_36_SYM)


def test_search_behind_computed_subdegrees():
    """linear n=4 q=2 C8_Sp is Eliminated by its computed subdegrees alone
    (12 and 15, gcd 3).  PSL(4,2) = A_8 on the 28 point pairs is that action,
    and an exhaustive search certifies both admissible tuples empty without
    the subdegrees; with no subgroup of order 40 the flag route tests no
    union and says so without a breakdown."""
    act = pair_action(builtin_action("psl4_2"))
    assert act.suborbit_lengths(0) == (1, 12, 15)
    tuples = admissible_tuples_explained(28, act.order() // 28)[0]
    assert [p.as_tuple() for p in tuples] == [(28, 63, 36, 16, 20), (28, 72, 18, 7, 4)]
    enumerated = (
        "complete enumeration: {} subgroups of order {} in the point stabilizer "
        "({} conjugacy classes); every block through the base point is a union "
        "of orbits of one of them"
    )
    expected = [
        (
            ("flag-stabilizer-order", "|G| / (v*r) = 20"),
            ("flag-stabilizer-candidates", enumerated.format(36, 20, 1)),
            (
                "candidate-blocks",
                "tested 72 orbit unions of size 16 (2 x 36: unions of one "
                "representative per class times the class size; conjugate members "
                "give the same block sets, so only the representatives' unions "
                "were enumerated)",
            ),
            _NO_DESIGN,
        ),
        (
            ("flag-stabilizer-order", "|G| / (v*r) = 40"),
            ("flag-stabilizer-candidates", enumerated.format(0, 40, 0)),
            ("candidate-blocks", "tested 0 orbit unions of size 7"),
            _NO_DESIGN,
        ),
    ]
    for params, certificate in zip(tuples, expected):
        result = stabilizer_search(act, params)
        assert (result.group, result.designs) == (act.label, ())
        assert result.certificate == certificate


# -- stabilizer search, 36-point eliminations


@pytest.mark.parametrize(
    "group,params,m,count",
    [
        ("psu3_3_36", PARAMS_36_SYM, 8, 1),
        ("psu3_3_36", PARAMS_36_QUASI, 6, 0),
        ("psu3_3_2_36", PARAMS_36_SYM, 16, 1),
        ("psu3_3_2_36", PARAMS_36_QUASI, 12, 0),
    ],
)
def test_unitary_36_searches(group, params, m, count):
    result = stabilizer_search(builtin_action(group), params)
    assert len(result.designs) == count
    assert result.exhaustive
    detail = dict(result.certificate)
    assert f"|G| / (v*r) = {m}" == detail["flag-stabilizer-order"]
    assert "complete enumeration" in detail["flag-stabilizer-candidates"]
    if count == 0:
        assert "no flag-transitive design" in detail["outcome"]


def test_unitary_36_symmetric_design_is_suborbit_neighborhoods():
    # the unique symmetric design found on 36 points is the orbit of the
    # size-21 suborbit: blocks are the neighborhoods in the rank-4 orbital
    # graph of valency 21, which has constant pair intersection 12
    act = builtin_action("psu3_3_36")
    result = stabilizer_search(act, PARAMS_36_SYM)
    assert len(result.designs) == 1
    design = result.designs[0]
    suborbit = next(
        orb for orb in sorted(act.point_stabilizer(0).orbits(), key=len)
        if len(orb) == 21
    )
    assert frozenset(suborbit) in set(design.blocks)
    report = verify_design(act, design.blocks, expect=PARAMS_36_SYM)
    assert report.ok and report.flag_transitive
    # the extension finds the same design in its own point labelling
    ext_act = builtin_action("psu3_3_2_36")
    ext = stabilizer_search(ext_act, PARAMS_36_SYM)
    assert len(ext.designs) == 1
    ext_suborbit = next(
        orb for orb in ext_act.point_stabilizer(0).orbits() if len(orb) == 21
    )
    assert frozenset(ext_suborbit) in set(ext.designs[0].blocks)


# the flag-stabilizer searches on pgl2_7 (|G| / (v*r) > 1)
PGL2_7_FLAG_ROUTE = [
    DesignParams(8, 28, 7, 2, 1),
    DesignParams(8, 56, 14, 2, 2),
    DesignParams(8, 56, 21, 3, 6),
    DesignParams(8, 14, 7, 4, 3),
    DesignParams(8, 28, 14, 4, 6),
    DesignParams(8, 42, 21, 4, 9),
    DesignParams(8, 28, 21, 6, 15),
]


# every flag-route search of the tier-1 suite (|G| / (v*r) > 1)
FLAG_ROUTE_SEARCHES = (
    [("psu3_3_2_36", PARAMS_36_SYM), ("psu3_3_2_36", PARAMS_36_QUASI)]
    + [("pgl2_7", params) for params in PGL2_7_FLAG_ROUTE]
    + [("psu3_3_36", PARAMS_36_SYM), ("psu3_3_36", PARAMS_36_QUASI)]
)


# the block-route searches (|G| / (v*r) = 1) of the tier-1 suite on
# transitive actions
BLOCK_ROUTE_SEARCHES = [
    ("psl3_3_2_144", PARAMS_144),
    ("psl2_7", DesignParams(8, 42, 21, 4, 9)),
]


def _candidate_subgroups(act, params):
    """The group the search takes its subgroups from, their order, and the
    base point every union must contain (None on the block route)."""
    m = act.order() // (params.v * params.r)
    if m > 1:
        return act.point_stabilizer(0), m, 0
    return act, act.order() // params.b, None


def _reference_unions(sub, params, alpha):
    """Every orbit union of size k through alpha, by the reference descent."""
    orbits = PermAction(params.v, sub).orbits()
    forced = [orb for orb in orbits if alpha in orb]
    return orbit_unions(orbits, forced, params.k)


@pytest.mark.parametrize("group,params", FLAG_ROUTE_SEARCHES + BLOCK_ROUTE_SEARCHES)
def test_suborbit_screen_keeps_every_design(group, params, class_members):
    """Oracle for both routes, walking every member of every class, not
    only the class representatives the search enumerates: every orbit union
    that the full candidate check accepts passes the subdegree identity at
    each of its points, the accepted unions give the search's designs, and
    each class's size and representative's union count are the search's."""
    act = builtin_action(group)
    source, order, alpha = _candidate_subgroups(act, params)
    _, _, screen = _suborbit_screen(act, params)
    found, unions, rejected, counts = {}, 0, 0, []
    classes = subgroups_of_order(source, order)
    for cls in classes:
        members = class_members(source, cls)
        assert len(members) == cls.size
        counts.append(len(_reference_unions(cls.representative, params, alpha)))
        for sub in members:
            for union in _reference_unions(sub, params, alpha):
                unions += 1
                passes = screen(union)
                rejected += not passes
                rec = _candidate_design(act, params, union, {})
                if rec is not None:
                    assert passes, sorted(union)
                    found[rec.blocks] = rec
    # each member has as many unions as its class representative
    assert unions == sum(n * cls.size for n, cls in zip(counts, classes))
    result = stabilizer_search(act, params)
    assert result.designs == tuple(found[key] for key in sorted(found, key=_block_key))
    assert result.classes == tuple((cls.size, n) for cls, n in zip(classes, counts))
    if len(act.point_stabilizer(0).orbits()) > 2:
        assert rejected  # vacuous only on a 2-transitive action


@pytest.mark.parametrize(
    "group,params,reached,closures,tested,breakdown",
    [
        # with the suborbit screen at the base point only, 4, 60, 2 and 7
        # unions reached the check; with every member of every class
        # walked, 84, 1680, 42 and 182 did; without the suborbit screen and
        # the double-coset skip, every union (4914, 5880, 126, 336) did, and
        # the lattices ran 3465, 3773, 32529 and 47761 closures.  The
        # lattice that listed every subgroup, not only class
        # representatives, ran 987, 1183, 5698 and 7616 closures.
        # Extending by every element, not only by those normalizing the
        # representative, ran 153, 122, 460 and 716.  Extending the trivial
        # group by every element, not once per class of elements, and
        # closing each <y> coset by coset, ran 52, 52, 110 and 148.  With
        # each representative the member its class was opened at, and not
        # the least member generated greedily, the lattice ran 10, 3, 19
        # and 22.
        ("psu3_3_36", PARAMS_36_SYM, 1, 11, 4914, "234 x 21"),
        ("psu3_3_36", PARAMS_36_QUASI, 0, 3, 5880, "210 x 28"),
        ("psu3_3_2_36", PARAMS_36_SYM, 1, 21, 126, "6 x 21"),
        ("psu3_3_2_36", PARAMS_36_QUASI, 0, 24, 336, "4 x 14 + 10 x 28"),
    ],
    ids=["psu3_3_36-sym", "psu3_3_36-quasi", "psu3_3_2_36-sym", "psu3_3_2_36-quasi"],
)
def test_unitary_36_work_counts(
    monkeypatch, group, params, reached, closures, tested, breakdown
):
    """Deterministic work gate: unions that reach the full candidate check,
    and closures run by the point stabilizer's subgroup lattice, on a fresh
    copy of the built-in, as an action keeps its stabilizer's lattice."""
    counts = {"reached": 0, "closures": 0}
    check, close = designsearch._candidate_design, permgroup._closure

    def counted_check(*args):
        counts["reached"] += 1
        return check(*args)

    def counted_close(*args):
        counts["closures"] += 1
        return close(*args)

    monkeypatch.setattr(designsearch, "_candidate_design", counted_check)
    monkeypatch.setattr(permgroup, "_closure", counted_close)
    built = builtin_action(group)
    fresh = PermAction(built.degree, built.generators, label=built.label)
    result = stabilizer_search(fresh, params)
    assert counts == {"reached": reached, "closures": closures}
    detail = dict(result.certificate)["candidate-blocks"]
    assert detail.startswith(f"tested {tested} orbit unions of size 21 ({breakdown}: ")


@pytest.mark.parametrize("group,params", FLAG_ROUTE_SEARCHES)
def test_each_design_verified_once(monkeypatch, group, params):
    """Work gate: a union spanning a design already found is not verified
    again.  Unchecked, pgl2_7's (8,56,21,3,6), (8,42,21,4,9) and
    (8,28,21,6,15) each verified their one design three times."""
    calls = []
    check = designsearch.verify_design

    def counted_verify(action, blocks, expect=None):
        calls.append(frozenset(blocks))
        return check(action, blocks, expect=expect)

    monkeypatch.setattr(designsearch, "verify_design", counted_verify)
    result = stabilizer_search(builtin_action(group), params)
    assert len(calls) == len(result.designs)
    assert set(calls) == {frozenset(rec.blocks) for rec in result.designs}


# -- stabilizer search, 144-point eliminations


def test_socle_144_flag_count_kill():
    result = stabilizer_search(builtin_action("psl3_3_144"), PARAMS_144)
    assert result.designs == ()
    assert result.exhaustive
    name, detail = result.certificate[0]
    assert name == "flag-count"
    assert "11232" in detail and "5616" in detail


def test_extension_144_search_empty():
    result = stabilizer_search(builtin_action("psl3_3_2_144"), PARAMS_144)
    assert result.designs == ()
    assert result.exhaustive
    detail = dict(result.certificate)
    assert "144 subgroups of order 78" in detail["block-stabilizer-candidates"]
    assert "1 conjugacy classes" in detail["block-stabilizer-candidates"]
    assert detail["candidate-blocks"] == "tested 5 orbit unions of size 78"


def test_certified_144_cell_lists_no_large_group(monkeypatch):
    """Certifying linear n=3 q=3 C3(1,3) never lists a group of order > 1000.

    The built-in actions are built first (their construction has its own
    gate below).  The searches then run on fresh copies, so every chain is
    built under the guard, which turns any full listing of a large group
    into a failure.
    """
    cell = ("linear", 3, 3, "C3", (1, 3))
    actions = []
    for name in SEARCH_REGISTRY[cell]:
        built = builtin_action(name)
        actions.append(PermAction(built.degree, built.generators, label=built.label))
    listing = PermAction.elements

    def guarded(self, limit=10**6):
        listed = listing(self, limit)
        if len(listed) > 1000:
            raise AssertionError(f"listed the {len(listed)} elements of {self.label}")
        return listed

    monkeypatch.setattr(PermAction, "elements", guarded)
    spec, case = GroupSpec(*cell[:3]), SubgroupCase(*cell[3:])
    report = eliminate(spec, case, run_searches=False)
    assert report.final.tuples == (PARAMS_144,)
    results = [stabilizer_search(act, PARAMS_144) for act in actions]
    assert all(result.exhaustive and not result.designs for result in results)
    assert dict(results[0].certificate)["flag-count"]
    detail = dict(results[1].certificate)["block-stabilizer-candidates"]
    assert "144 subgroups of order 78 (1 conjugacy classes)" in detail


@pytest.mark.parametrize(
    "name,degree,order",
    [
        ("psu3_3_36", 36, 6048),
        ("psu3_3_2_36", 36, 12096),
        ("psl3_3_144", 144, 5616),
        ("psl3_3_2_144", 144, 11232),
    ],
)
def test_builtin_constructions_list_no_large_group(monkeypatch, name, degree, order):
    """Building the conjugation actions from a cold cache, the classical
    groups they start from included, lists no group of order > 1000."""
    cold = functools.lru_cache(maxsize=None)(permgroup.builtin_action.__wrapped__)
    monkeypatch.setattr(permgroup, "builtin_action", cold)
    listing = PermAction.elements

    def guarded(self, limit=10**6):
        if self.order() > 1000:
            raise AssertionError(f"listed the {self.order()} elements of {self.label}")
        return listing(self, limit)

    monkeypatch.setattr(PermAction, "elements", guarded)
    act = cold(name)
    assert (act.degree, act.order()) == (degree, order)


# -- the candidate check


def _unions_reaching_check(monkeypatch, act, params):
    """The orbit unions that reach the full candidate check in a search."""
    reached = []
    check = designsearch._candidate_design

    def spy(action, p, union, known):
        reached.append(union)
        return check(action, p, union, known)

    monkeypatch.setattr(designsearch, "_candidate_design", spy)
    stabilizer_search(act, params)
    monkeypatch.undo()
    return reached


def _meets_subdegrees_at_0(act, params, union):
    """The subdegree identity at the base point alone, for unions through
    0: r * |union & Delta| = lambda * |Delta| on each orbit Delta != {0}
    of the point stabilizer."""
    return all(
        params.r * len(union.intersection(orb)) == params.lam * len(orb)
        for orb in act.point_stabilizer(0).orbits()
        if orb != (0,)
    )


def test_screened_orbit_of_b_blocks_has_the_searched_lambda():
    """Oracle for the candidate check, which counts no pair before
    verify_design: on the class representatives' unions of the flag-route
    searches and of the block-route search on psl3_3_2_144, every union
    that passes the subdegree screen at each of its points and has b
    G-images covers every pair lambda times.  The argument in
    `_candidate_design` does not use flag-transitivity, so every such union
    is kept; all 14 are flag-transitive as well."""
    cases = 0
    for group, params in FLAG_ROUTE_SEARCHES + [("psl3_3_2_144", PARAMS_144)]:
        act = builtin_action(group)
        screen = _suborbit_screen(act, params)
        source, order, alpha = _candidate_subgroups(act, params)
        for cls in subgroups_of_order(source, order):
            for union in _reference_unions(cls.representative, params, alpha):
                if screen is None or not screen[2](union):
                    continue
                orbit = act.set_orbit(union)
                if len(orbit) == params.b:
                    assert _pair_coverage(orbit, params.v) == params.lam, group
                    assert designsearch._flag_transitive(act, orbit, params.r)
                    cases += 1
    assert cases == 14  # 1 + 1 + 3 + 2 + 3 + 3 + 1 over the searches with a design


def _k_orbits(act, k):
    """Every orbit of k-subsets that korbit_designs walks."""
    seen = set()
    for combo in itertools.combinations(range(act.degree), k):
        if frozenset(combo) not in seen:
            blocks = act.set_orbit(combo)
            seen.update(blocks)
            yield blocks


def _mutations(blocks, v):
    """The block list with its first block dropped, with it repeated, and
    with its least point swapped for the least point outside it."""
    first = blocks[0]
    yield blocks[1:]
    yield blocks + blocks[:1]
    if len(first) < v:
        outside = min(set(range(v)) - first)
        yield (first - {min(first)} | {outside},) + blocks[1:]


def test_pair_coverage_matches_counting_every_pair():
    """Oracle for the bitset pair count: the same multiplicity, or None, as
    counting every pair of every block, on every orbit korbit_designs walks
    on psl3_2, psl2_7 and pgl2_7 for k = 3, 4, on the designs of the four
    36-point searches, on three mutations of each, and on blocks that
    cover no pair."""
    cases = [
        (blocks, act.degree)
        for act in map(builtin_action, ("psl3_2", "psl2_7", "pgl2_7"))
        for k in (3, 4)
        for blocks in _k_orbits(act, k)
    ]
    for group, params in FLAG_ROUTE_SEARCHES:
        if params.v == 36:
            result = stabilizer_search(builtin_action(group), params)
            cases += [(rec.blocks, 36) for rec in result.designs]
    assert len(cases) == 4 + 4 + 3 + 2  # psl3_2, psl2_7, pgl2_7, degree 36
    seen = []
    for blocks, v in cases:
        for variant in (blocks, *_mutations(blocks, v)):
            lam = _pair_coverage(variant, v)
            assert lam == pair_coverage_by_counting(variant, v), (blocks, variant)
            seen.append(lam)
    assert {None, 1, 2, 3, 12} <= set(seen)
    degenerate = [
        ((frozenset({0}), frozenset({1})), 2),
        ((frozenset({0, 1}),), 2),
        ((frozenset({0, 1}), frozenset({0, 1})), 2),
        ((frozenset({0}),), 1),
        ((frozenset({0}), frozenset({1}), frozenset({2})), 3),
    ]
    assert [_pair_coverage(blocks, v) for blocks, v in degenerate] == [
        pair_coverage_by_counting(blocks, v) for blocks, v in degenerate
    ] == [None, 1, 2, None, None]


def test_certified_144_cell_checks_no_candidate(monkeypatch):
    """Gate: certifying linear n=3 q=3 C3(1,3) sends no union to the full
    candidate check.  Screened at the base point only, or not at all on the
    block route, the five unions on psl3_3_2_144 each walked their orbit."""
    for name in SEARCH_REGISTRY[("linear", 3, 3, "C3", (1, 3))]:
        act = builtin_action(name)
        assert _unions_reaching_check(monkeypatch, act, PARAMS_144) == []


def test_certified_144_cell_counts_no_pairs(monkeypatch):
    """Gate: certifying linear n=3 q=3 C3(1,3) counts no pair of any block.
    Where a design is found, verify_design is the only caller."""
    callers = []
    count = designsearch._pair_coverage

    def spy(blocks, v):
        callers.append(sys._getframe(1).f_code.co_name)
        return count(blocks, v)

    monkeypatch.setattr(designsearch, "_pair_coverage", spy)
    for name in SEARCH_REGISTRY[("linear", 3, 3, "C3", (1, 3))]:
        stabilizer_search(builtin_action(name), PARAMS_144)
    assert callers == []
    result = stabilizer_search(builtin_action("pgl2_7"), DesignParams(8, 28, 14, 4, 6))
    assert len(result.designs) == 1
    assert callers == ["verify_design"]  # two unions span it, one checks it


def _fano_plus_fixed_point():
    """PSL(3,2) on the 7 points of the Fano plane and one fixed point 7."""
    fano = builtin_action("psl3_2")
    gens = [tuple(g) + (7,) for g in fano.generators]
    return PermAction(8, gens, label="psl3_2_plus_fixed")


_NO_DESIGN = (
    "outcome",
    "no flag-transitive design with these parameters admits this group",
)


# the intransitive searches' results from when their candidates were still
# checked: the block route sent 10 unions to the check, the flag route's
# screen rejected every union
INTRANSITIVE_SEARCHES = [
    (
        DesignParams(8, 42, 21, 4, 9),
        (
            ("flag-stabilizer-order", "|G| / (v*r) = 1"),
            (
                "block-stabilizer-candidates",
                "trivial flag stabilizer: searching block stabilizers instead; "
                "complete enumeration: 35 subgroups of order 4 (3 conjugacy "
                "classes), one representative tested per class since conjugate "
                "stabilizers give translated designs",
            ),
            ("candidate-blocks", "tested 10 orbit unions of size 4"),
            _NO_DESIGN,
        ),
    ),
    (
        DesignParams(8, 14, 7, 4, 3),
        (
            ("flag-stabilizer-order", "|G| / (v*r) = 3"),
            (
                "flag-stabilizer-candidates",
                "complete enumeration: 4 subgroups of order 3 in the point "
                "stabilizer (1 conjugacy classes); every block through the base "
                "point is a union of orbits of one of them",
            ),
            (
                "candidate-blocks",
                "tested 8 orbit unions of size 4 (2 x 4: unions of one "
                "representative per class times the class size; conjugate members "
                "give the same block sets, so only the representatives' unions "
                "were enumerated)",
            ),
            _NO_DESIGN,
        ),
    ),
]


@pytest.mark.parametrize("params,certificate", INTRANSITIVE_SEARCHES)
def test_intransitive_action_checks_no_candidate(monkeypatch, params, certificate):
    """No flag-transitive design lives on an intransitive action: the search
    checks no candidate there, and returns the same result, union counts
    and certificate text included, as when it checked them."""
    act = _fano_plus_fixed_point()
    assert not act.is_transitive()
    assert _unions_reaching_check(monkeypatch, act, params) == []
    result = stabilizer_search(act, params)
    assert (result.group, result.designs) == ("psl3_2_plus_fixed", ())
    assert result.certificate == certificate


def _built_unions(monkeypatch, act, params):
    """The unions a search builds, one list per `_orbit_unions` call."""
    built = []
    build = designsearch._orbit_unions

    def spy(orbits, group, quota):
        built.append(build(orbits, group, quota))
        return built[-1]

    monkeypatch.setattr(designsearch, "_orbit_unions", spy)
    result = stabilizer_search(act, params)
    monkeypatch.undo()
    return built, result


@pytest.mark.parametrize(
    "group,params",
    FLAG_ROUTE_SEARCHES
    + BLOCK_ROUTE_SEARCHES
    + [("psl3_2_plus_fixed", params) for params, _ in INTRANSITIVE_SEARCHES],
)
def test_orbit_unions_match_reference(monkeypatch, group, params):
    """Oracle for the quota enumerator and the subset-sum count, on every
    class representative of the tier-1 searches: the unions built are, in
    order, the reference descent's unions of size k that meet the subdegree
    identity at the base point (none on the block route, which tests single
    orbits, and none on an intransitive action), and the search's union
    count of each class is the reference's, every union of size k on the
    block route too."""
    if group == "psl3_2_plus_fixed":
        act = _fano_plus_fixed_point()
    else:
        act = builtin_action(group)
    source, order, alpha = _candidate_subgroups(act, params)
    built, result = _built_unions(monkeypatch, act, params)
    classes = subgroups_of_order(source, order)
    expected, counted = [], []
    for cls in classes:
        orbits = PermAction(params.v, cls.representative).orbits()
        unions = _reference_unions(cls.representative, params, alpha)
        free = [len(orb) for orb in orbits if alpha not in orb]
        assert _union_count(free, params.k - (alpha is not None)) == len(unions)
        counted.append(len(unions))
        if alpha is not None:
            unions = [u for u in unions if _meets_subdegrees_at_0(act, params, u)]
        expected.append(unions)
    if alpha is None or not act.is_transitive():
        expected = []
    assert built == expected
    assert result.classes == tuple((cls.size, n) for cls, n in zip(classes, counted))


def test_quota_test_matches_counting(monkeypatch):
    """Oracle for the screen's test, which compares sorted orbit numbers
    with the sorted quotas: it agrees with counting the orbit numbers of
    the union's image at each point, on every union `_orbit_unions` builds
    in the flag-route searches (degree 36, pgl2_7), on every single-orbit
    candidate of the block-route searches (psl3_3_2_144, psl2_7), and on
    hand-built unions of one and two points, which `itemgetter` would hand
    over as a bare point and a tuple."""
    passed = {1: 0, 2: 0, "built": 0}
    for group, params in FLAG_ROUTE_SEARCHES + BLOCK_ROUTE_SEARCHES:
        act = builtin_action(group)
        label, want, passes = _suborbit_screen(act, params)
        to_zero = act.chain(0).inv[0]
        built, _ = _built_unions(monkeypatch, act, params)
        if (group, params) in BLOCK_ROUTE_SEARCHES:
            built.append(_block_route_candidates(act, params))
        rng = random.Random(f"quota/{group}/{params.as_tuple()}")
        hand = [frozenset({p}) for p in range(act.degree)]
        hand += [frozenset(rng.sample(range(act.degree), 2)) for _ in range(20)]
        cases = [("built", u) for us in built for u in us] + [(len(u), u) for u in hand]
        for kind, union in cases:
            got = passes(union)
            assert got == quotas_met_by_counting(label, want, to_zero, union)
            passed[kind] += got
    # the hand-built pairs pass in pgl2_7's two searches at k = 2; 6 of the
    # built are psl2_7's orbits of length 4, which are also exactly the
    # unions of size 4 of its representatives' orbits that pass
    assert passed == {1: 0, 2: 40, "built": 21}


def _block_route_candidates(act, params):
    """The class representatives' orbits of length k, in class order."""
    source, order, alpha = _candidate_subgroups(act, params)
    assert alpha is None
    return [
        frozenset(orb)
        for cls in subgroups_of_order(source, order)
        for orb in PermAction(params.v, cls.representative).orbits()
        if len(orb) == params.k
    ]


def test_block_route_tests_single_orbits(monkeypatch):
    """The block route's candidates, on its tier-1 searches and on the
    intransitive action: the unions that reach the full candidate check
    are, in order, the class representatives' orbits of length k that pass
    the subdegree screen, with none on the intransitive action, where the
    screen passes nothing.  psl3_3_2_144's block stabilizers have orbits 1,
    13, 26, 26, 39 and 39, none of length 78."""
    cases = [(builtin_action(group), params) for group, params in BLOCK_ROUTE_SEARCHES]
    cases.append((_fano_plus_fixed_point(), INTRANSITIVE_SEARCHES[0][0]))
    counts = []
    for act, params in cases:
        single = _block_route_candidates(act, params)
        screen = _suborbit_screen(act, params)
        expected = [] if screen is None else list(filter(screen[2], single))
        assert _unions_reaching_check(monkeypatch, act, params) == expected
        counts.append((len(single), len(expected)))
    assert counts == [(0, 0), (6, 6), (2, 0)]


def test_orbit_unions_unmet_quota():
    """A quota that the orbits of its group cannot fill, or a group with a
    quota and no orbits, gives no union; a quota they can fill gives every
    way to fill it, with nothing from the groups without a quota."""
    orbits = [(0,), (1, 2), (3, 4), (5,)]
    group = [0, 1, 1, 1, 1, 2]
    assert _orbit_unions(orbits, group, {0: 1, 1: 3}) == []
    assert _orbit_unions(orbits, group, {0: 1, 3: 1}) == []
    assert _orbit_unions(orbits, group, {0: 1, 1: 2}) == [
        frozenset({0, 1, 2}),
        frozenset({0, 3, 4}),
    ]
    assert _union_count([1, 2, 2, 1], 3) == 4 == len(orbit_unions(orbits, [], 3))


def test_orbit_unions_match_brute_force():
    """Property check on random partitions into orbits and groups: the
    quota enumerator builds exactly the sets of orbits whose sizes meet
    every quota, and the subset-sum count is the number of sets of orbits
    of each total size."""
    rng = random.Random(28)
    for _ in range(200):
        points = list(range(rng.randint(1, 12)))
        rng.shuffle(points)
        cuts = sorted(rng.sample(range(1, len(points)), rng.randint(0, len(points) - 1)))
        orbits = [
            tuple(sorted(points[a:b]))
            for a, b in zip([0] + cuts, cuts + [len(points)])
        ]
        group = [0] * len(points)
        for orb in orbits:
            g = rng.randint(0, 2)
            for p in orb:
                group[p] = g
        quota = {g: rng.randint(1, 4) for g in rng.sample(range(4), rng.randint(1, 3))}
        subsets = [
            chosen
            for size in range(len(orbits) + 1)
            for chosen in itertools.combinations(orbits, size)
        ]
        brute = {
            frozenset(p for orb in chosen for p in orb)
            for chosen in subsets
            if all(
                sum(len(orb) for orb in chosen if group[orb[0]] == g) == quota.get(g, 0)
                for g in range(4)
            )
        }
        built = _orbit_unions(orbits, group, quota)
        assert len(built) == len(brute) and set(built) == brute
        sizes = [len(orb) for orb in orbits]
        for target in range(len(points) + 1):
            assert _union_count(sizes, target) == sum(
                sum(map(len, chosen)) == target for chosen in subsets
            )


def test_union_budget_edges(monkeypatch):
    """The orbit-union budget counts the unions built for one class
    representative, those that meet the base-point quotas: the symmetric
    search on psu3_3_36 builds 4 of its 234 unions of size 21."""
    act, params = builtin_action("psu3_3_36"), PARAMS_36_SYM
    expected = stabilizer_search(act, params)
    monkeypatch.setattr(designsearch, "_UNION_LIMIT", 4)
    assert stabilizer_search(act, params) == expected
    monkeypatch.setattr(designsearch, "_UNION_LIMIT", 3)
    with pytest.raises(
        RuntimeError, match="size 21 within the base-point quotas exceed the union budget 3$"
    ):
        stabilizer_search(act, params)


# -- search certificates

SEARCH_OUTPUT_DIGEST = (
    "e4da9dbdf90b89c5b054c97801c8a20ae73cabf59d8bb3d8d464516d739dd477"
)


def _pinned_searches():
    """Every admissible tuple on eight built-ins and the 15-point PSL(4,2);
    then psu3_3's block route, which reads Schreier generators, a flag
    route with no subgroup of order m, and a flag-count kill: 36 searches,
    19 of them refused."""
    names = ("psl2_7", "pgl2_7", "psl3_3", "psl4_2", "psu3_3_36", "psu3_3_2_36")
    actions = [builtin_action(name) for name in names + ("psl3_3_144", "psl3_3_2_144")]
    for act in actions + [classical_action("linear", 4, 2)]:
        v = act.degree
        for params in admissible_tuples_explained(v, act.order() // v)[0]:
            yield act, params
    yield builtin_action("psu3_3"), DesignParams(28, 288, 216, 21, 160)
    yield pair_action(builtin_action("psl4_2")), DesignParams(28, 72, 18, 7, 4)
    yield builtin_action("psl2_7"), DesignParams(8, 56, 28, 4, 12)


def test_search_output_digest():
    """The certificates, designs and refusals of the pinned searches."""
    digest = hashlib.sha256()
    for act, params in _pinned_searches():
        head = f"{act.label} {params.as_tuple()}"
        try:
            result = stabilizer_search(act, params)
        except RuntimeError as exc:
            digest.update(f"{head} {type(exc).__name__}: {exc}\n".encode())
            continue
        blocks = [sorted(map(sorted, rec.blocks)) for rec in result.designs]
        digest.update(f"{head} {result.certificate!r} {blocks!r}\n".encode())
    assert digest.hexdigest() == SEARCH_OUTPUT_DIGEST


def _bench_certificate_patterns():
    """The count patterns and kill names by which bench/run.py reads a
    certificate, read with ast so the harness is not imported."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "run.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and getattr(node.targets[0], "id", None) in ("_CERT_COUNTS", "_KILLS")
    }
    counts = found["_CERT_COUNTS"]
    patterns = {
        ast.literal_eval(key): re.compile(ast.literal_eval(call.args[0]))
        for key, call in zip(counts.keys, counts.values)
    }
    return patterns, ast.literal_eval(found["_KILLS"])


def test_certificate_text_states_the_counts():
    """On every certified pinned search the text states the result's
    integers as bench/run.py reads them: the class sizes sum to the
    subgroup count, the classes are counted, and the unions tested are
    sum(size x unions) on the flag route and sum(unions) on the block route;
    the flag-count kill appears exactly when v*r does not divide |G|."""
    patterns, kills = _bench_certificate_patterns()
    assert set(patterns) == {"subgroups", "classes", "unions"}
    certified = 0
    for act, params in _pinned_searches():
        try:
            result = stabilizer_search(act, params)
        except RuntimeError:
            continue
        certified += 1
        text = " ".join(line for _, line in result.certificate)
        stated = {
            key: int(match.group(1))
            for key, pattern in patterns.items()
            if (match := pattern.search(text))
        }
        flags = params.v * params.r
        killed = [name for name, _ in result.certificate if name in kills]
        assert result.order == act.order()
        if result.order % flags:
            assert (killed, stated, result.classes) == (["flag-count"], {}, ())
            continue
        flag_route = result.order > flags
        assert killed == []
        assert stated == {
            "subgroups": sum(size for size, _ in result.classes),
            "classes": len(result.classes),
            "unions": sum(size * n if flag_route else n for size, n in result.classes),
        }
    assert certified == 17


# -- verification


def test_verify_design_accepts_search_output():
    act = builtin_action("pgl2_7")
    rec = korbit_designs(act, 4)[1]
    report = verify_design(act, rec.blocks, expect=rec.params)
    assert report.ok
    assert report.flag_transitive
    assert report.params == rec.params
    assert report.problems == ()


def test_verify_design_rejects_tampering():
    act = builtin_action("pgl2_7")
    rec = korbit_designs(act, 4)[0]
    blocks = list(rec.blocks)
    blocks[0] = frozenset({0, 1, 2, 7})
    report = verify_design(act, blocks)
    assert not report.ok
    assert report.problems


def test_verify_design_flags_parameter_mismatch():
    act = builtin_action("pgl2_7")
    rec = korbit_designs(act, 4)[0]
    report = verify_design(act, rec.blocks, expect=DesignParams(8, 28, 14, 4, 7))
    assert not report.ok
    assert any("differ" in p for p in report.problems)


def test_verify_design_degenerate_inputs():
    act = builtin_action("psl2_7")
    assert not verify_design(act, []).ok
    assert not verify_design(act, [{0, 1, 2}, {0, 1}]).ok


def test_verify_design_rejects_uneven_pair_coverage():
    """Uniform blocks and constant replication, but a pair covered twice as
    often as another, or never: rejected at the pair count."""
    act = PermAction(4, [(1, 0, 3, 2)])
    blocks = [{0, 1}, {2, 3}, {0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 3}, {1, 2}]
    report = verify_design(act, blocks)
    assert not report.ok and report.params is None
    assert report.problems == ("repeated blocks", "pair coverage is not constant")
    halves = [{0, 1, 2, 3}, {4, 5, 6, 7}]
    report = verify_design(builtin_action("psl2_7"), halves)
    assert report.problems == ("pair coverage is not constant",)


FANO_LINES = [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]
PAIRS_OF_4 = [set(pair) for pair in itertools.combinations(range(4), 2)]


@pytest.mark.parametrize(
    "blocks,params,generator,problem",
    [
        pytest.param(
            FANO_LINES,
            DesignParams(7, 7, 3, 3, 1),
            (1, 0, 2, 3, 4, 5, 6),
            "block set is not invariant under the group",
            id="swap-on-fano",
        ),
        pytest.param(
            PAIRS_OF_4,
            DesignParams(4, 6, 3, 2, 1),
            (1, 2, 3, 0),
            "group is not transitive on blocks",
            id="4-cycle-on-pairs",
        ),
        pytest.param(
            FANO_LINES,
            DesignParams(7, 7, 3, 3, 1),
            (1, 2, 5, 4, 3, 0, 6),
            "group is not transitive on blocks",
            id="collineation-with-4-line-orbit-on-fano",
        ),
        pytest.param(
            FANO_LINES,
            DesignParams(7, 7, 3, 3, 1),
            (0, 2, 4, 6, 3, 1, 5),
            "block set is not invariant under the group",
            id="3-line-orbit-on-fano-not-invariant",
        ),
        pytest.param(
            FANO_LINES,
            DesignParams(7, 7, 3, 3, 1),
            (1, 2, 3, 4, 5, 6, 0),
            "block stabilizer is intransitive on its block",
            id="c7-on-fano",
        ),
    ],
)
def test_verify_design_group_side_rejections(blocks, params, generator, problem):
    """A 2-design whose group fails it: the checks after the pair count,
    which are the search's only flag-transitivity gate.  In every case but
    the last, the orbit of the first block closes inside the block set with
    fewer than b blocks; whether each block's images are blocks decides
    the problem."""
    act = PermAction(len(generator), [generator])
    report = verify_design(act, blocks, expect=params)
    assert not report.ok and not report.flag_transitive
    assert report.params == params
    assert report.problems == (problem,)


# -- design files


def test_design_file_roundtrip(tmp_path):
    act = builtin_action("psl2_7")
    rec = korbit_designs(act, 4)[-1]
    path = tmp_path / "big.design"
    save_design(str(path), rec)
    group, params, blocks = load_design(str(path))
    assert group == "psl2_7"
    assert params == rec.params
    assert blocks == rec.blocks


def test_design_file_malformed(tmp_path):
    path = tmp_path / "bad.design"
    path.write_text("group psl2_7\n")
    with pytest.raises(ValueError):
        load_design(str(path))
    path.write_text("version 1\ngroup g\nparams 8 14 7 4\nblock 0 1 2 3\n")
    with pytest.raises(ValueError):
        load_design(str(path))
    path.write_text("version 1\ngroup g\nparams 8 14 7 4 3\nblock 0 1 2 3\n")
    with pytest.raises(ValueError):
        load_design(str(path))
    for bad in ("block 0 0 1", "block"):
        path.write_text(f"version 1\ngroup g\nparams 3 1 1 2 1\n{bad}\n")
        with pytest.raises(ValueError, match=f"block line '{bad}'"):
            load_design(str(path))
