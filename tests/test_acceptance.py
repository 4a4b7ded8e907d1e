"""Acceptance suite: ten end-to-end criteria, one test (pass/fail line) each.

Every check is exact; there are no tolerances anywhere.  Runtime budgets
are asserted where the criterion states one.

Criteria 06 and 09 once encoded that no flag-transitive 2-(36,21,12)
design exists on the 36 points of PSU_3(3).  That is false: the certified
searches find one, and the rank-3 strongly regular graph of
U_3(3):2 = G_2(2) explains it.  Both criteria now assert the design; their
test names are kept so that their node IDs stay stable.
"""

import json
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

from flagsieve.cli import emit_report, main
from flagsieve.designsearch import (
    _block_key,
    hypothesis_filter,
    korbit_designs,
    stabilizer_search,
)
from flagsieve.eliminator import eliminate, survivors, sweep
from flagsieve.grouporders import GroupSpec, SubgroupCase, case_label
from flagsieve.permgroup import BUILTIN_NAMES, builtin_action, pair_action
from flagsieve.sieve import DesignParams, admissible_tuples_explained
from reference import (
    prod_one_minus_inv_powers,
    prod_one_minus_neg_inv_powers,
    stabilizer_elements,
)


def test_criterion_01_formula_orders_match_enumeration():
    """Formula orders equal BFS-enumerated orders for five anchor groups."""
    t0 = time.monotonic()
    anchors = (
        ("psl3_2", GroupSpec("linear", 3, 2), 168),
        ("psl3_3", GroupSpec("linear", 3, 3), 5616),
        ("psl4_2", GroupSpec("linear", 4, 2), 20160),
        ("psu3_3", GroupSpec("unitary", 3, 3), 6048),
    )
    for name, spec, expected in anchors:
        assert spec.socle_order == expected
        assert builtin_action(name).order() == expected
    q = 7
    assert q * (q * q - 1) == 336
    assert builtin_action("pgl2_7").order() == 336
    assert time.monotonic() - t0 < 10


def test_criterion_02_wreath_cell_trace():
    """The (linear, n=6, q=2, C2 m=2 t=3) cell dies at the divisor-square
    step with witnesses 2592 and 15554560."""
    rep = eliminate(GroupSpec("linear", 6, 2), SubgroupCase("C2_GLwr", (2, 3)))
    assert rep.final.kind == "Eliminated"
    kill = rep.steps[rep.final.step_index]
    assert kill.name == "rstar-square-vs-divisor"
    witnesses = dict(kill.witnesses)
    assert witnesses["divisor"] == 2592
    assert witnesses["v"] == 15554560


def test_criterion_03_sieve_exact_tuple_sets():
    """Sieve outputs at v=8 and v=144 are exact, with the stated reason
    codes on the k=5 and k=6 rejections."""
    t0 = time.monotonic()
    tuples, rejections = admissible_tuples_explained(8, 42)
    assert tuple(t.as_tuple() for t in tuples) == (
        (8, 28, 14, 4, 6),
        (8, 42, 21, 4, 9),
    )
    assert any(r.k == 6 and r.code == "b-nonintegral" for r in rejections)
    assert any(r.k == 5 and r.code == "divisor-conflict" for r in rejections)
    tuples_144, _ = admissible_tuples_explained(144, 78)
    assert tuple(t.as_tuple() for t in tuples_144) == ((144, 144, 78, 78, 42),)
    assert time.monotonic() - t0 < 1


def test_criterion_04_eight_point_designs():
    """korbit on PGL(2,7), k=4 gives exactly the 2-(8,4,6) and 2-(8,4,9)
    designs after hypothesis filtering; on PSL(2,7) exactly the 2-(8,4,9)."""
    t0 = time.monotonic()
    pgl = hypothesis_filter(korbit_designs(builtin_action("pgl2_7"), 4))
    assert tuple(r.params.as_tuple() for r in pgl) == (
        (8, 28, 14, 4, 6),
        (8, 42, 21, 4, 9),
    )
    assert all(r.flag_transitive for r in pgl)
    psl = hypothesis_filter(korbit_designs(builtin_action("psl2_7"), 4))
    assert tuple(r.params.as_tuple() for r in psl) == ((8, 42, 21, 4, 9),)
    assert time.monotonic() - t0 < 5


def test_criterion_05_alternating_group_only_complete():
    """korbit on the degree-8 action of PSL_4(2), k=4 finds only the
    complete design, and nothing survives hypothesis filtering."""
    t0 = time.monotonic()
    records = korbit_designs(builtin_action("psl4_2"), 4)
    assert len(records) == 1
    assert records[0].params.as_tuple() == (8, 70, 35, 4, 15)
    assert hypothesis_filter(records) == ()
    assert time.monotonic() - t0 < 30


def test_criterion_06_degree36_searches_empty():
    """stabilizer_search on both degree-36 actions is exhaustive and
    certified: (36,48,28,21,16) is empty, and (36,36,21,21,12) yields
    exactly one design, the orbit of the 21-point suborbit of point 0.

    The design is the classical one: the complement of the rank-3 graph
    srg(36,14,4,6) of U_3(3):2 = G_2(2) is srg(36,21,12,12), and since
    lambda = mu its neighbourhoods form a symmetric 2-(36,21,12) design.
    It is checked here straight from the group elements, without
    stabilizer_search or verify_design.  The test name dates from when
    this criterion expected both searches to be empty; it is kept so the
    node ID stays stable.
    """
    t0 = time.monotonic()
    for name in ("psu3_3_36", "psu3_3_2_36"):
        action = builtin_action(name)
        empty = stabilizer_search(action, DesignParams(36, 48, 28, 21, 16))
        assert empty.exhaustive
        assert empty.certificate
        assert empty.designs == ()
        result = stabilizer_search(action, DesignParams(36, 36, 21, 21, 12))
        assert result.exhaustive
        assert result.certificate
        assert len(result.designs) == 1, (
            f"{name} (36,36,21,21,12): expected exactly one flag-transitive "
            f"design, the exhaustive search found {len(result.designs)}"
        )
        blocks = set(result.designs[0].blocks)
        assert len(blocks) == 36

        replication = Counter(x for block in blocks for x in block)
        pair_counts = Counter(
            pair for block in blocks for pair in combinations(sorted(block), 2)
        )
        assert len(pair_counts) == 36 * 35 // 2
        assert set(replication.values()) == {21}
        assert set(pair_counts.values()) == {12}
        r, lam = replication[0], pair_counts[(0, 1)]
        assert lam >= gcd(r, lam) ** 2 > 1

        group = action.elements()
        stab0 = [g for g in group if g[0] == 0]
        suborbits = {frozenset(g[x] for g in stab0) for x in range(36)}
        (suborbit,) = [orb for orb in suborbits if len(orb) == 21]
        assert blocks == {frozenset(g[i] for i in suborbit) for g in group}
        block_stab = [
            g for g in group if frozenset(g[i] for i in suborbit) == suborbit
        ]
        assert {g[min(suborbit)] for g in block_stab} == suborbit
    assert time.monotonic() - t0 <= 600


def test_criterion_07_degree144_searches_empty():
    """(144,144,78,78,42): the flag count kills the socle action at once
    (vr = 2|X|), and the extension search comes back empty."""
    t0 = time.monotonic()
    socle = builtin_action("psl3_3_144")
    assert 144 * 78 == 2 * socle.order()
    result = stabilizer_search(socle, DesignParams(144, 144, 78, 78, 42))
    assert result.exhaustive
    assert result.designs == ()
    assert result.certificate[0][0] == "flag-count"
    extended = builtin_action("psl3_3_2_144")
    result = stabilizer_search(extended, DesignParams(144, 144, 78, 78, 42))
    assert result.exhaustive
    assert result.designs == ()
    assert time.monotonic() - t0 <= 1800


def test_criterion_08_pair_action_subdegrees():
    """Suborbits of the degree-8 group on 2-subsets are {1,12,15}, and
    the pair {12,15} eliminates v=28 through the subdegree filter: the
    linear n=4 q=2 C8_Sp cell dies at its computed-subdegrees step."""
    pairs = pair_action(builtin_action("psl4_2"))
    assert pairs.degree == 28
    assert pairs.suborbit_lengths(0) == (1, 12, 15)
    rep = eliminate(GroupSpec("linear", 4, 2), SubgroupCase("C8_Sp", ()))
    assert rep.final.kind == "Eliminated"
    kill = rep.steps[rep.final.step_index]
    assert kill.name == "computed-subdegrees"
    assert dict(kill.witnesses) == {"v": 28, "s1": 12, "s2": 15, "gcd": 3}


def test_criterion_09_full_sweep_survivors():
    """Both full sweeps reproduce the survivor list exactly: 1-subspace
    stabilizers, 2-subspace stabilizers for odd n (non-symmetric), the
    two 8-point NeedsSearch cells, the unitary n=3 isotropic-point
    family, and the unitary n=3 q=3 sporadic-line cell, which Survives
    with the (36,36,21,21,12) design of criterion 06.  Any extra or
    missing survivor is a failure.  The test name never depended on that
    cell, so it is kept.
    """
    t0 = time.monotonic()
    expected = set()
    linear = sweep("linear", 3, 12, 32)
    for rep in linear:
        if rep.case == SubgroupCase("C1_Pi", (1,)):
            expected.add(rep.label)
        if rep.case == SubgroupCase("C1_Pi", (2,)) and rep.n % 2 == 1:
            expected.add(rep.label)
    expected.add("linear n=3 q=2 C3(1,3)")
    expected.add("linear n=4 q=2 S(4)")
    unitary = sweep("unitary", 3, 8, 8)
    for rep in unitary:
        if rep.n == 3 and rep.case == SubgroupCase("C1_Pi", (1,)):
            expected.add(rep.label)
    # carries the flag-transitive 2-(36,21,12) design, see criterion 06
    expected.add("unitary n=3 q=3 S(1)")
    got = {rep.label for rep in survivors(linear + unitary)}
    assert got == expected, (
        f"extra survivors: {sorted(got - expected)}; "
        f"missing survivors: {sorted(expected - got)}"
    )
    (line_cell,) = [r for r in unitary if r.label == "unitary n=3 q=3 S(1)"]
    assert line_cell.final.kind == "Survives"
    assert tuple(t.as_tuple() for t in line_cell.final.tuples) == (
        (36, 36, 21, 21, 12),
    )
    assert time.monotonic() - t0 <= 600


def test_criterion_10_property_suites(tmp_path):
    """Exact-rational product bounds, gcd-chain identities, action
    invariants, korbit/stabilizer agreement, and report determinism."""
    # rational product bounds over the full (q, a) grid
    for q in range(2, 33):
        low2 = (1 - Fraction(1, q)) ** 2
        low = 1 - Fraction(1, q) - Fraction(1, q * q)
        high = (1 - Fraction(1, q)) * (1 - Fraction(1, q * q))
        alt_low = (1 + Fraction(1, q)) * (1 - Fraction(1, q**2))
        alt_high = alt_low * (1 + Fraction(1, q**3))
        for a in range(2, 13):
            prod = prod_one_minus_inv_powers(q, a)
            assert low2 <= low < prod <= high
        for a in range(3, 13):
            prod = prod_one_minus_neg_inv_powers(q, a)
            assert 1 < alt_low < prod <= alt_high

    # gcd-chain identities on the sweep grid
    for n in range(3, 13):
        for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32):
            lhs = q ** (2 * n - 2) - q ** (n - 1) - q ** (n - 2) - q + 2
            assert (lhs - (q - 1) ** 2) % ((q - 1) * (q ** (n - 2) - 1)) == 0
            if n % 2 == 0:
                value = (q**n + q**2 - q - 1) // (q - 1)
                assert gcd(value, (q + 1) ** 2) == 1

    # orbit-stabilizer and suborbit-sum invariants on every built-in action
    for name in BUILTIN_NAMES:
        action = builtin_action(name)
        subs = action.suborbit_lengths(0)
        assert sum(subs) == action.degree
        stab = len(stabilizer_elements(action, 0))
        assert len(action.orbit(0)) * stab == action.order()

    # korbit vs stabilizer-search agreement on the degree <= 12 actions
    for name in ("psl3_2", "psl2_7", "pgl2_7"):
        action = builtin_action(name)
        for k in range(3, action.degree - 1):
            by_params = {}
            for rec in korbit_designs(action, k):
                if rec.flag_transitive:
                    by_params.setdefault(rec.params, set()).add(
                        _block_key(rec.blocks)
                    )
                else:
                    by_params.setdefault(rec.params, set())
            for params, keys in sorted(by_params.items()):
                result = stabilizer_search(action, params)
                assert result.exhaustive
                assert {_block_key(r.blocks) for r in result.designs} == keys

    # byte-identical reports on re-run
    reports = sweep("unitary", 3, 3, 3, run_searches=False)
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    emit_report(reports, str(path_a), "json", {"family": "unitary"})
    emit_report(
        sweep("unitary", 3, 3, 3, run_searches=False),
        str(path_b),
        "json",
        {"family": "unitary"},
    )
    assert path_a.read_bytes() == path_b.read_bytes()
    doc = json.loads(path_a.read_text())
    assert doc["summary"]["cells"] == len(doc["cells"])
