"""Permutation machinery tests: field axioms, action orders, subgroup counts.

Group orders and suborbit shapes are asserted against independently known
values for the small classical groups involved.
"""

import hashlib
import random
import re
import time

import pytest

from flagsieve import permgroup
from flagsieve.designsearch import stabilizer_search
from flagsieve.exactmath import divisors, factorize
from flagsieve.grouporders import GroupSpec
from flagsieve.permgroup import (
    BUILTIN_NAMES,
    FieldTable,
    PermAction,
    as_perm,
    builtin_action,
    classical_action,
    compose,
    hermitian_isotropic_points,
    identity_perm,
    inverse_perm,
    load_action,
    orbit,
    pair_action,
    perm_order,
    projective_points,
    save_action,
    schreier_generators,
    StabChain,
    SubgroupClass,
    subgroup_conjugation_action,
    subgroups_of_order,
    _all_solvable,
    _conjugate_walk,
    _conjugator,
    _cyclic_key,
    _element_of_order,
    _generating_class,
    _lattice_route,
    _linear_matrix_generators,
    _matrix_point_perm,
    _perm_power,
    _PSL2_7,
    _sylow_route,
    _unitary_matrix_perms,
    _written_subgroup,
)
from flagsieve.sieve import DesignParams
from reference import (
    conjugation_images,
    cyclic_key_walk,
    digit_add,
    digit_neg,
    element_classes_by_walks,
    hermitian_form,
    hyperplane_images,
    is_special_unitary,
    lattice_route_per_m,
    monomial_by_search,
    normalized_projective_points,
    orbits_by_walks,
    pair_orbit_lengths,
    root_subgroup_by_search,
    schreier_generators_inverting_words,
    set_images_by_points,
    set_orbit_by_frozensets,
    tuple_compose,
    tuple_conjugate,
    tuple_inverse,
    tuple_order,
    tuple_power,
    whole_group_sylow_route,
)

FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32)


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_field_axioms_exhaustive(q):
    F = FieldTable(q)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_field_generator_order(q):
    F = FieldTable(q)
    g = F.generator()
    cur, steps = g, 1
    while cur != 1:
        cur = F.mul(cur, g)
        steps += 1
        assert steps < q
    assert steps == q - 1 or q == 2


@pytest.mark.parametrize("q", FIELD_SIZES + (49, 81, 125, 243, 256))
def test_field_addition_matches_digit_oracle(q):
    """Zech-log addition and negation against digit-wise arithmetic, on
    every pair."""
    F = FieldTable(q)
    for a in F.elements():
        assert F.neg(a) == digit_neg(F.p, a)
        for b in F.elements():
            assert F.add(a, b) == digit_add(F.p, a, b)


def test_field_chosen_moduli():
    # x^2 = x + 1 over GF(2) and GF(3), x^3 = x + 1, x^2 = x + 3 over GF(5)
    assert FieldTable(4).mul(2, 2) == 3
    assert FieldTable(9).mul(3, 3) == 4
    assert FieldTable(8).power(2, 3) == 3
    assert FieldTable(25).mul(5, 5) == 8
    # frobenius is additive and fixes the prime field
    F = FieldTable(9)
    for a in F.elements():
        for b in F.elements():
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
    assert all(F.frobenius(a) == a for a in range(3))


# x^f = rhs for every prime power q <= 256, rhs read through its base-p
# digits: the smallest primitive root for f = 1, x + c otherwise, and
# x^2 + 1 for GF(32), where no x + c is primitive
MODULUS_RHS = {
    2: 1, 3: 2, 4: 3, 5: 2, 7: 3, 8: 3, 9: 4, 11: 2, 13: 2, 16: 3, 17: 3, 19: 2, 23: 5,
    25: 8, 27: 5, 29: 2, 31: 3, 32: 5, 37: 2, 41: 6, 43: 3, 47: 5, 49: 11, 53: 2, 59: 2,
    61: 2, 64: 3, 67: 2, 71: 7, 73: 5, 79: 3, 81: 4, 83: 2, 89: 3, 97: 5, 101: 2,
    103: 5, 107: 2, 109: 6, 113: 3, 121: 14, 125: 7, 127: 3, 128: 3, 131: 2, 137: 3,
    139: 2, 149: 2, 151: 6, 157: 5, 163: 2, 167: 5, 169: 24, 173: 2, 179: 2, 181: 2,
    191: 19, 193: 5, 197: 2, 199: 3, 211: 2, 223: 3, 227: 2, 229: 6, 233: 3, 239: 7,
    241: 7, 243: 5, 251: 6, 256: 29,
}


def test_field_modulus_right_hand_sides_are_pinned():
    """Every field element's digits, and so every classical action's point
    labels, rest on the chosen modulus."""
    prime_powers = [q for q in range(2, 257) if len(factorize(q)) == 1]
    assert prime_powers == list(MODULUS_RHS)
    assert {q: FieldTable(q)._modulus_rhs for q in prime_powers} == MODULUS_RHS


def test_field_rejects_non_prime_powers():
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            FieldTable(bad)


def test_projective_points():
    for q, n, count in [(2, 3, 7), (3, 3, 13), (4, 3, 21), (2, 4, 15)]:
        pts = projective_points(FieldTable(q), n)
        assert len(pts) == count
        assert list(pts) == sorted(pts)
        for x in pts:
            lead = next(e for e in x if e != 0)
            assert lead == 1


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_projective_points_match_normalize_and_sort(n, q):
    F = FieldTable(q)
    assert projective_points(F, n) == normalized_projective_points(F, n)


@pytest.mark.parametrize("q0", [3, 4, 5])
def test_hermitian_isotropic_points_match_form_filter(q0):
    """The written-down isotropic points are the projective points the
    form filter keeps, in the same order."""
    F = FieldTable(q0 * q0)
    pts = normalized_projective_points(F, 3)
    found = tuple(x for x in pts if hermitian_form(F, q0, x, x) == 0)
    assert len(found) == q0**3 + 1
    assert hermitian_isotropic_points(q0) == found


def test_perm_helpers():
    p = as_perm((1, 2, 0, 4, 3))
    assert perm_order(p) == 6
    assert compose(p, inverse_perm(p)) == identity_perm(5)
    q = as_perm((0, 2, 1, 3, 4))
    assert tuple(compose(p, q)) == tuple(q[i] for i in p)
    assert perm_order(_conjugator(q)(p)) == perm_order(p)


def _near_permutations(rng, n, count):
    """count seeded random permutations of degree n, each a copy of the
    first with the points past a random cut shuffled, so that they share
    prefixes and sorting compares them deep."""
    first = list(range(n))
    rng.shuffle(first)
    out = [tuple(first)]
    for _ in range(count - 1):
        cut = rng.randrange(n)
        tail = first[cut:]
        rng.shuffle(tail)
        out.append(tuple(first[:cut] + tail))
    return out


@pytest.mark.parametrize("n", [1, 2, 36, 144, 255, 256, 257, 300])
def test_kernel_matches_tuple_reference(n):
    """Oracle for the permutation kernel on seeded random permutations:
    bytes up to degree 256 and tuples above, each product, inverse,
    conjugate, power and order as tuple-only reference code gives it, and
    bytes permutations sorted as their tuples sort."""
    rng = random.Random(f"kernel/{n}")
    kind = bytes if n <= 256 else tuple
    ident = identity_perm(n)
    assert type(ident) is kind and tuple(ident) == tuple(range(n))
    perms = [tuple(rng.sample(range(n), n)) for _ in range(4)]
    perms += _near_permutations(rng, n, 4)
    for p, q in zip(perms, perms[1:] + perms[:1]):
        x, g = as_perm(p), as_perm(q)
        e = rng.randrange(2 * n)
        results = [
            (compose(x, g), tuple_compose(p, q)),
            (compose(ident, x), p),
            (inverse_perm(x), tuple_inverse(p)),
            (_conjugator(g)(x), tuple_conjugate(p, q)),
            (_perm_power(x, e), tuple_power(p, e)),
            (_perm_power(x, 0), tuple(range(n))),
        ]
        for got, expected in results:
            assert type(got) is kind and tuple(got) == expected
        assert perm_order(x) == tuple_order(p)
    assert [tuple(x) for x in sorted(map(as_perm, perms))] == sorted(perms)


def test_pair_action_past_a_byte_runs_on_tuples():
    """The tuple path end to end: psu3_3 on the 378 pairs of its 28
    points has order 6048, the pair orbits that walking point pairs
    gives, and point stabilizers of order 6048 / 378 = 16."""
    base = builtin_action("psu3_3")
    act = pair_action(base)
    assert act.degree == 378 and all(type(g) is tuple for g in act.generators)
    assert act.order() == 6048
    assert sorted(map(len, act.orbits())) == pair_orbit_lengths(base.generators, 28)
    stab = act.point_stabilizer(0)
    assert stab.order() == 16 and all(type(g) is tuple for g in stab.generators)
    a, b = act.generators
    assert act.contains(compose(a, inverse_perm(b)))
    assert not act.contains(tuple(range(1, 378)) + (0,))


def test_elements_and_subgroups_past_a_byte():
    """psl2_7 on the 378 pairs of its 28 point pairs lists its 168
    elements on tuples, and has, for every order, the subgroup classes of
    its 8-point action."""
    small = builtin_action("psl2_7")
    big = pair_action(pair_action(small))
    assert big.degree == 378 and len(big.elements()) == 168
    for m in divisors(168):
        small_sizes, big_sizes = (
            sorted(c.size for c in subgroups_of_order(act, m)) for act in (small, big)
        )
        assert small_sizes == big_sizes, m


@pytest.mark.parametrize("degree", [3, 255, 256, 257])
def test_hostile_generators_at_the_byte_boundary(degree, tmp_path):
    """A generator with an image past the domain, past a byte or below 0
    is refused with the same message on either side of degree 256, before
    any conversion to bytes, from a list and from an action file, and is
    no member of any action.  A bytes, tuple or list generator with the
    same images gives the same action, holding each of them."""
    for bad_image in (degree, 300, -1):
        images = (*range(degree - 1), bad_image)
        message = re.escape(f"not a permutation of degree {degree}: {images!r}")
        with pytest.raises(ValueError, match=message):
            PermAction(degree, [images])
        path = tmp_path / f"bad{bad_image}.gens"
        path.write_text(f"degree {degree}\n{' '.join(map(str, images))}\n")
        with pytest.raises(ValueError, match=message):
            load_action(str(path))
    cycle = (*range(1, degree), 0)
    forms = [cycle, list(cycle)] + ([bytes(cycle)] if degree <= 256 else [])
    actions = [PermAction(degree, [g]) for g in forms]
    assert all(act.generators == actions[0].generators for act in actions)
    assert {act.order() for act in actions} == {degree}
    for images in ((*cycle[:-1], 300), (*cycle[:-1], -1), (*cycle[:-1], cycle[0])):
        assert not actions[0].contains(images)
    assert all(act.contains(form) for act in actions for form in forms)


EXPECTED_ORDERS = {
    "psl3_2": (7, 168),
    "psl3_3": (13, 5616),
    "psl3_3_2": (26, 11232),
    "psl4_2": (8, 20160),
    "psl2_7": (8, 168),
    "pgl2_7": (8, 336),
    "psu3_3": (28, 6048),
    "psu3_3_2": (28, 12096),
    "psu3_3_36": (36, 6048),
    "psu3_3_2_36": (36, 12096),
    "psl3_3_144": (144, 5616),
    "psl3_3_2_144": (144, 11232),
}


def test_builtin_degrees_and_orders():
    assert set(BUILTIN_NAMES) == set(EXPECTED_ORDERS)
    for name in BUILTIN_NAMES:
        act = builtin_action(name)
        degree, order = EXPECTED_ORDERS[name]
        # design files record the label, `verify` reopens a design's group
        # by it, and search results are keyed by it
        assert act.label == name
        assert act.degree == degree, name
        assert act.order() == order, name
        assert act.is_transitive() or name == "psl3_3_144" or name == "psl3_3_2_144"


# SHA-256 of repr((name, degree, generators)) for every built-in action
BUILTIN_DIGESTS = {
    "psl3_2": "677e628640d1c538281709522d855ed8b529a78677adc262dcf5540beb564599",
    "psl3_3": "d1d17f0773f0944d77d81acb1b4f503a841ba1376e4e0abab9bbcd8c22183cc9",
    "psl3_3_2": "e83967bf4054c0382c7a5af600880fe31564ad06535f74087f6853aa2abd43d7",
    "psl4_2": "d6199c0ddde0a25d51aac6009595c1c39e4b2e865208b541fcf4776e7ec16ba5",
    "psl2_7": "ff3868ff1d6ad8aa4ba64c5ffd913e00f900ddd5cba0b71d3879387a4890d2eb",
    "pgl2_7": "9dbfe5e75b4c16c03750032def35e7397d68b340d8455e5752ca87b0cd5b5250",
    "psu3_3": "5265a486616f2799b127eb537808506f0bd17716c3f2b2c89e104e5f8114a8d9",
    "psu3_3_2": "e47d691f59a5935279a7c62aa00a0b74b3b14ee73179abb530b9b7a4911fa857",
    "psu3_3_36": "bc8346778619579ef7fbc9450476d591134f85d44cf5bfc43b5036be2a19f68a",
    "psu3_3_2_36": "579ce7f554f175cb54ca711f1534a3f30eac7fa0a6a64b22ef681d1553be4d93",
    "psl3_3_144": "998cfdc3d84ef75a87e2a725e19abb333081aa61c94696a745f69b34fc2971a7",
    "psl3_3_2_144": "4e734d53c575063df205b6af9d67aee1a9cdd0f37da52f2f4217b3dcda1b4b54",
}


def test_builtin_generators_are_pinned():
    """The built-in generators, and with them the point labels of every
    design file written for them, stay exactly as they are."""
    assert BUILTIN_NAMES == tuple(BUILTIN_DIGESTS)
    for name in BUILTIN_NAMES:
        act = builtin_action(name)
        generators = tuple(map(tuple, act.generators))
        text = repr((name, act.degree, generators)).encode()
        assert hashlib.sha256(text).hexdigest() == BUILTIN_DIGESTS[name], name


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_action("psl9_9")


def test_two_transitive_suborbits():
    assert builtin_action("psl3_2").suborbit_lengths(0) == (1, 6)
    assert builtin_action("psl3_3").suborbit_lengths(0) == (1, 12)
    assert builtin_action("psu3_3").suborbit_lengths(0) == (1, 27)
    assert builtin_action("psl2_7").suborbit_lengths(0) == (1, 7)


def test_36_point_suborbits():
    # the stabilizer splits the remaining 35 points into its two degree-7
    # actions plus a degree-21 one; the outer half fuses the two 7-orbits
    assert builtin_action("psu3_3_36").suborbit_lengths(0) == (1, 7, 7, 21)
    assert builtin_action("psu3_3_2_36").suborbit_lengths(0) == (1, 14, 21)


def test_36_point_stabilizer_orders():
    assert builtin_action("psu3_3_36").point_stabilizer(0).order() == 168
    assert builtin_action("psu3_3_2_36").point_stabilizer(0).order() == 336


def test_sylow_counting_actions():
    plain = builtin_action("psl3_3_144")
    doubled = builtin_action("psl3_3_2_144")
    assert plain.is_transitive() and doubled.is_transitive()
    assert doubled.point_stabilizer(0).order() == 78
    assert plain.point_stabilizer(0).order() == 39
    # the stabilizer fixes its own subgroup; every other orbit length is a
    # multiple of 13, as the fixed subgroup acts semiregularly on the rest
    assert doubled.suborbit_lengths(0) == (1, 13, 26, 26, 39, 39)


def test_classical_action_pgl_variant():
    assert classical_action("linear", 3, 4, "pgl").order() == 60480
    assert classical_action("linear", 3, 2, "pgammal").order() == 168
    # f > 1: the Frobenius permutation joins the generators
    assert classical_action("linear", 3, 4, "pgammal").order() == 120960
    assert classical_action("linear", 3, 8, "pgammal").order() == 49448448


def test_classical_action_guards():
    with pytest.raises(ValueError):
        classical_action("linear", 2, 5)
    with pytest.raises(ValueError):
        classical_action("unitary", 4, 3)
    with pytest.raises(ValueError):
        classical_action("unitary", 3, 2)
    with pytest.raises(ValueError):
        classical_action("symplectic", 4, 2)
    with pytest.raises(ValueError):
        classical_action("linear", 3, 2, "mystery")
    with pytest.raises(ValueError):
        classical_action("unitary", 3, 3, "pgl")
    with pytest.raises(ValueError, match="doubling implemented for n = 3 only"):
        classical_action("linear", 4, 2, "socle.2")
    with pytest.raises(ValueError, match="supported for q <= 5 only"):
        classical_action("unitary", 3, 7)


def test_linear_domain_budget_refuses_before_listing():
    # 5,380,840 projective points; listing the 43M vectors took over 30 s
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        classical_action("linear", 8, 9)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("q0", [3, 4, 5])
def test_unitary_socle_2_doubles_the_socle(q0):
    # the field involution x -> x^q0 has order 2; for q0 = 4, x -> x^2 has 4
    socle = classical_action("unitary", 3, q0)
    doubled = classical_action("unitary", 3, q0, "socle.2")
    assert doubled.order() == 2 * socle.order()
    assert doubled.label == f"psu3_{q0}_2"


@pytest.mark.parametrize("q0", [3, 4, 5])
def test_unitary_pairs_hold_the_written_elements(q0):
    """t and x w generate the socle, and t and x w f the socle with the
    field involution f adjoined: two generators each, of chain order the
    socle order and twice it, holding the written-down elements."""
    order = GroupSpec("unitary", 3, q0).socle_order
    x, t, w, f = _unitary_matrix_perms(q0)
    for variant, expected, kept in (
        ("socle", order, (x, t, w)),
        ("socle.2", 2 * order, (x, t, w, f)),
    ):
        act = classical_action("unitary", 3, q0, variant)
        assert len(act.generators) == 2
        assert PermAction(act.degree, act.generators).order() == expected
        assert all(act.contains(g) for g in kept)


@pytest.mark.parametrize(
    "name,variant,count,order",
    [("psu3_3", "socle", 34, 6048), ("psu3_3_2", "socle.2", 35, 12096)],
)
def test_unitary_actions_have_two_chain_certified_generators(
    name, variant, count, order
):
    """The searched root subgroup, diagonal torus and first antidiagonal
    Weyl element (with the field involution for socle.2) lie in the
    built-in and generate the same group as its two generators."""
    act = builtin_action(name)
    assert len(act.generators) == 2
    assert PermAction(act.degree, act.generators).order() == order
    F, perm, _ = _written_unitary_matrices(3)

    def unitary(A):
        return is_special_unitary(F, 3, A)

    diagonal = monomial_by_search(
        F, lambda a, b, c: ((a, 0, 0), (0, b, 0), (0, 0, c)), unitary
    )
    weyl = monomial_by_search(
        F, lambda a, b, c: ((0, 0, a), (0, b, 0), (c, 0, 0)), unitary
    )[0]
    matrices = [*root_subgroup_by_search(F, unitary), *diagonal, weyl]
    matrix_perms = [perm(A) for A in matrices]
    if variant == "socle.2":
        matrix_perms.append(_unitary_matrix_perms(3)[3])
    assert len(set(matrix_perms) - {tuple(identity_perm(28))}) == count
    assert all(act.contains(g) for g in matrix_perms)
    whole = PermAction(28, matrix_perms)
    assert whole.order() == order
    assert all(whole.contains(g) for g in act.generators)


def test_unitary_builder_refuses_a_pair_of_the_wrong_order(monkeypatch):
    x, t, w, f = _unitary_matrix_perms(3)
    fake = (identity_perm(len(x)), t, w, f)
    monkeypatch.setattr(permgroup, "_unitary_matrix_perms", lambda q0: fake)
    for variant, order in (("socle", 6048), ("socle.2", 12096)):
        with pytest.raises(RuntimeError, match=f"not {order}"):
            classical_action("unitary", 3, 3, variant)


UNITARY_MATRIX_PERM_DIGESTS = {
    3: "9c1b585c83490b1eb21ca69aea7edd7bef8c492f3f87f61e31052097cdf26b44",
    4: "5366b8a593e9a35fc375e56a6f98f1d90ce02e8c56a6db745350f91acdd92602",
    5: "026ff8b70470091e3ad730d28c7de705275e24fb012c47cdd3a4c9c1887f2f72",
}


def _written_unitary_matrices(q0):
    """The field, the point permutation map, and the root element x, the
    torus generator t and the Weyl element w, written out again."""
    F = FieldTable(q0 * q0)
    points = hermitian_isotropic_points(q0)
    index = {x: i for i, x in enumerate(points)}
    b = next(x[2] for x in points if x[:2] == (1, 1))
    minus, gamma = digit_neg(F.p, 1), F.generator()
    x = ((1, 1, b), (0, 1, minus), (0, 0, 1))
    d = [F.power(gamma, e) for e in (1, q0 - 1, -q0)]
    t = ((d[0], 0, 0), (0, d[1], 0), (0, 0, d[2]))
    w = ((0, 0, 1), (0, minus, 0), (1, 0, 0))
    return F, lambda A: _matrix_point_perm(F, A, points, index), (x, t, w)


@pytest.mark.parametrize("q0", [3, 4, 5])
def test_unitary_root_subgroup_matches_search(q0):
    """The root element x is special unitary and among the unitriangular
    matrices a search over entries finds; with t, w and the field
    involution it gives four distinct non-identity permutations, which
    stay exactly as they are."""
    F, perm, (x, _, _) = _written_unitary_matrices(q0)
    assert is_special_unitary(F, q0, x)
    assert x in root_subgroup_by_search(F, lambda A: is_special_unitary(F, q0, A))
    perms = _unitary_matrix_perms(q0)
    assert perm(x) == perms[0]
    assert len(set(perms)) == 4 and identity_perm(q0**3 + 1) not in perms
    digest = hashlib.sha256(repr(perms).encode()).hexdigest()
    assert digest == UNITARY_MATRIX_PERM_DIGESTS[q0]


@pytest.mark.parametrize("q0", [3, 4, 5])
def test_unitary_torus_and_weyl_match_search(q0):
    """The torus generator t and the Weyl element w are special unitary,
    and among the diagonal and antidiagonal matrices that a search over
    nonzero entries finds."""
    F, perm, (_, t, w) = _written_unitary_matrices(q0)

    def search(shape):
        return monomial_by_search(F, shape, lambda A: is_special_unitary(F, q0, A))

    assert is_special_unitary(F, q0, t) and is_special_unitary(F, q0, w)
    assert t in search(lambda a, b, c: ((a, 0, 0), (0, b, 0), (0, 0, c)))
    assert w in search(lambda a, b, c: ((0, 0, a), (0, b, 0), (c, 0, 0)))
    assert [perm(t), perm(w)] == list(_unitary_matrix_perms(q0)[1:3])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_hyperplane_half_is_the_inverse_transpose(q):
    """Each matrix generator of the point-hyperplane doubling moves the
    hyperplane with coefficient vector h to the one with h A^-T."""
    F = FieldTable(q)
    points = projective_points(F, 3)
    N = len(points)
    doubled = classical_action("linear", 3, q, "socle.2")
    mats = _linear_matrix_generators(F, 3)
    assert len(doubled.generators) == len(mats) + 1
    for A, g in zip(mats, doubled.generators):
        assert list(g[N:]) == [N + i for i in hyperplane_images(F, points, A)]
    assert tuple(doubled.generators[-1]) == (*range(N, 2 * N), *range(N))


def test_four_subset_orbit_partition():
    # orbit sizes of the two projective-line groups on 4-subsets
    for name, expected in [("psl2_7", [14, 14, 42]), ("pgl2_7", [28, 42])]:
        act = builtin_action(name)
        seen = set()
        sizes = []
        from itertools import combinations

        for combo in combinations(range(8), 4):
            key = frozenset(combo)
            if key in seen:
                continue
            orbit = act.set_orbit(key)
            seen.update(orbit)
            sizes.append(len(orbit))
        assert sorted(sizes) == expected, name


def test_pair_action_subdegrees():
    pairs = pair_action(builtin_action("psl4_2"))
    assert pairs.degree == 28
    assert pairs.is_transitive()
    assert pairs.suborbit_lengths(0) == (1, 12, 15)


def test_point_stabilizer_and_suborbits_consistency():
    act = builtin_action("psu3_3_36")
    stab = act.point_stabilizer(0)
    assert stab.order() * len(act.orbit(0)) == act.order()
    assert sum(act.suborbit_lengths(0)) == act.degree


def _sizes(classes):
    return [cls.size for cls in classes]


def test_subgroups_of_order_projective_line(class_members):
    act = builtin_action("psl2_7")
    eights = subgroups_of_order(act, 8)
    assert sum(_sizes(eights)) == 21
    assert all(len(sub) == 8 for cls in eights for sub in class_members(act, cls))
    assert _sizes(eights) == [21]
    sixes = subgroups_of_order(act, 6)
    assert sum(_sizes(sixes)) == 28
    assert _sizes(sixes) == [28]
    threes = subgroups_of_order(act, 3)
    assert sum(_sizes(threes)) == 28


def test_subgroups_of_order_pgl():
    act = builtin_action("pgl2_7")
    sixteens = subgroups_of_order(act, 16)
    assert sum(_sizes(sixteens)) == 21
    assert _sizes(sixteens) == [21]
    twelves = subgroups_of_order(act, 12)
    assert sum(_sizes(twelves)) == 42
    assert sorted(_sizes(twelves)) == [14, 28]


# conjugacy classes of subgroups of PSL(2,7) = GL(3,2) by order, from the
# ATLAS subgroup lattice: class sizes, and no subgroup of order 14, 28, 42,
# 56, 84
PSL2_7_SUBGROUP_CLASSES = {
    1: [1], 2: [21], 3: [28], 4: [7, 7, 21], 6: [28], 7: [8], 8: [21],
    12: [7, 7], 14: [], 21: [8], 24: [7, 7], 28: [], 42: [], 56: [],
    84: [], 168: [1],
}


@pytest.mark.parametrize("name", ["psu3_3_36", "psl2_7"])
def test_lattice_route_matches_atlas_psl2_7(name, class_members):
    """The lattice route on two actions of PSL(2,7): the 36-point unitary
    action's point stabilizer, and PSL(2,7) on the projective line."""
    act = builtin_action(name)
    group = act.point_stabilizer(0) if name == "psu3_3_36" else act
    assert group.order() == 168
    divisors = [m for m in range(1, 169) if 168 % m == 0]
    assert sorted(PSL2_7_SUBGROUP_CLASSES) == divisors
    for m in divisors:
        classes = subgroups_of_order(group, m)
        assert sorted(_sizes(classes)) == PSL2_7_SUBGROUP_CLASSES[m], m
        for cls in classes:
            assert len(class_members(group, cls)) == cls.size
            assert PermAction(group.degree, cls.representative).order() == m


# conjugacy classes of subgroups of PGL(2,7) = PSL(2,7):2 by order, for every
# m dividing 336: class sizes as the lattice that listed every subgroup
# found them for m <= 64, and no subgroup of order 28, 48, 56, 84 or 112;
# above that, PSL(2,7) and the whole group
PGL2_7_SUBGROUP_CLASSES = {
    1: [1], 2: [21, 28], 3: [28], 4: [14, 21, 42], 6: [28, 28, 28], 7: [8],
    8: [21, 21, 21], 12: [14, 28], 14: [8], 16: [21], 21: [8], 24: [14],
    28: [], 42: [8], 48: [], 56: [], 84: [], 112: [], 168: [1], 336: [1],
}


@pytest.mark.parametrize("name", ["psu3_3_2_36", "pgl2_7"])
def test_lattice_route_pgl2_7_classes(name, class_members):
    """The lattice route on two actions of PGL(2,7): the 36-point action's
    point stabilizer under PSU_3(3):2, and PGL(2,7) on the projective line.
    Every member of every class generates a group of order m, and the
    members of all classes are distinct subgroups."""
    act = builtin_action(name)
    group = act.point_stabilizer(0) if name == "psu3_3_2_36" else act
    assert group.order() == 336
    divisors = [m for m in range(1, 337) if 336 % m == 0]
    assert sorted(PGL2_7_SUBGROUP_CLASSES) == divisors
    for m in divisors:
        classes = subgroups_of_order(group, m)
        assert sorted(_sizes(classes)) == PGL2_7_SUBGROUP_CLASSES[m], m
        subgroups = set()
        for cls in classes:
            members = class_members(group, cls)
            assert len(members) == cls.size
            for sub in members:
                assert len(sub) == m
                subgroups.add(sub)
        assert len(subgroups) == sum(_sizes(classes))


def test_all_solvable_predicate():
    """Odd orders and orders with two prime factors are certified; 42 and
    84 are not, although every group of those orders is solvable."""
    assert all(_all_solvable(m) for m in (1, 2, 6, 8, 12, 16, 27, 105))
    assert not any(_all_solvable(m) for m in (42, 60, 84, 168))


@pytest.mark.parametrize("name", ["psl3_3", "psu3_3"])
def test_normalizer_extension_matches_full_extension(
    name, monkeypatch, class_members
):
    """Oracle for the normalizer-only extension: the lattice route that
    extends each representative by every candidate gives the same classes,
    in the same order, with the same members, for every m <= 64 dividing
    the order of the point stabilizer (432 and 216)."""
    group = builtin_action(name).point_stabilizer(0)
    divisors = [m for m in range(2, 65) if group.order() % m == 0]
    restricted = {m: subgroups_of_order(group, m) for m in divisors}
    assert any(_all_solvable(m) for m in divisors)
    monkeypatch.setattr(permgroup, "_all_solvable", lambda m: False)
    for m in divisors:
        full = subgroups_of_order(group, m)
        assert _sizes(full) == _sizes(restricted[m]), m
        for a, b in zip(full, restricted[m]):
            assert set(class_members(group, a)) == set(class_members(group, b))


def _relabelled(action, seed):
    """The action with its points renamed by a seeded permutation pi:
    pi[i] goes to pi[g[i]]."""
    pi = list(range(action.degree))
    random.Random(seed).shuffle(pi)
    generators = []
    for g in action.generators:
        out = [0] * len(g)
        for i, image in enumerate(g):
            out[pi[i]] = pi[image]
        generators.append(tuple(out))
    return PermAction(action.degree, generators, label=action.label)


def _named_action(name):
    """A built-in by name, or by "name@seed": that built-in relabelled by
    `_relabelled` with the seed."""
    base, _, seed = name.partition("@")
    action = builtin_action(base)
    return _relabelled(action, int(seed)) if seed else action


def test_lattice_route_invariant_under_relabelling():
    """Renaming the points of psu3_3_2_36 changes which elements the
    lattice route meets first, and the order of its classes, not their
    sizes or the searches' certificates."""
    base = builtin_action("psu3_3_2_36")
    tuples = [DesignParams(36, 36, 21, 21, 12), DesignParams(36, 48, 28, 21, 16)]

    def profile(action):
        stab = action.point_stabilizer(0)
        sizes = [sorted(_sizes(subgroups_of_order(stab, m))) for m in (12, 16)]
        certs = [stabilizer_search(action, p).certificate for p in tuples]
        return sizes, certs

    expected = profile(base)
    assert expected[0] == [[14, 28], [21]]
    for seed in (1, 2, 3):
        assert profile(_relabelled(base, seed)) == expected, seed


def test_point_stabilizer_is_built_once_per_point():
    act = builtin_action("psu3_3_36")
    stab = act.point_stabilizer(0)
    assert act.point_stabilizer(0) is stab
    other = act.point_stabilizer(1)
    assert other is not stab and other.label.endswith("_stab1")
    assert act.point_stabilizer(1) is other
    assert other.order() == stab.order() == 168


# the four 36-point flag-route searches: the point stabilizer and both m
LATTICE_36 = {"psu3_3_36": (8, 6), "psu3_3_2_36": (16, 12)}


@pytest.mark.parametrize(
    "name,composed",
    [
        # listing members as permutation sets and conjugating them by
        # compose took 5,459 and 25,905; testing each candidate y for
        # y^-1*u*y in U, two composes per generator u, took 2,603 and
        # 11,457; extending the trivial group by every element, each with
        # its powers built for each m, took 1,853 and 5,231; conjugating
        # every element by each generator for the element index, two
        # composes each, took 1,171 and 2,594; growing the lattice afresh
        # for each m, each representative the member a class was opened
        # at, took 163 and 578
        pytest.param("psu3_3_36", 154, id="psu3_3_36"),
        pytest.param("psu3_3_2_36", 470, id="psu3_3_2_36"),
    ],
)
def test_lattice_36_compose_counts(monkeypatch, name, composed):
    """Work gate: compose calls of the two lattice searches on one 36-point
    point stabilizer, on a fresh action whose elements are listed already,
    so that the element index is built by the first search and shared,
    from the listing walk's targets with no product.  Normalizers are read
    off the class walks, so no candidate is composed to test whether it
    normalizes a representative; a candidate's powers are built once, for
    both searches, and only for the candidates that a representative other
    than the trivial group tries.  The second search reuses the first's
    classes, skip maps and closures, and a representative's last generator
    closes no group when it has prime index, and its first is closed by
    its powers."""
    base = builtin_action(name).point_stabilizer(0)
    group = PermAction(base.degree, base.generators)
    group.elements()
    calls = [0]

    def counted(p, q):
        calls[0] += 1
        return compose(p, q)

    monkeypatch.setattr(permgroup, "compose", counted)
    for m in LATTICE_36[name]:
        subgroups_of_order(group, m)
    assert calls[0] == composed


def _lattice_groups():
    """psl2_7, pgl2_7 and the point stabilizers of both 36-point actions."""
    out = [builtin_action("psl2_7"), builtin_action("pgl2_7")]
    return out + [builtin_action(name).point_stabilizer(0) for name in LATTICE_36]


# SHA-256 of every class of `subgroups_of_order` (representative generators
# and class size, in order) for every m <= 200 dividing |G| on the groups of
# `_lattice_output`, taken when each representative became its class's least
# member, generated greedily by its least elements; before, with the member a
# class was opened at, it was 0ca9d157ea0ab6f0672ef2a23c0e84a27db3db0ef9054c
# 67bbda2ed0c1ea35e1
LATTICE_OUTPUT_DIGEST = (
    "aebfd5dfc10882450ef14bb25e41f455972464fd088060cb6eda20334014a271"
)


def _lattice_output_groups():
    """(name, group): psl2_7, pgl2_7 and the point stabilizers of
    psu3_3_36, psu3_3_2_36, psl3_3 and psu3_3."""
    groups = [("psl2_7", builtin_action("psl2_7")), ("pgl2_7", builtin_action("pgl2_7"))]
    for name in ("psu3_3_36", "psu3_3_2_36", "psl3_3", "psu3_3"):
        groups.append((f"{name}_stab0", builtin_action(name).point_stabilizer(0)))
    return groups


def _lattice_output():
    """One line per class of order-m subgroups, m <= 200 dividing |G|, on
    the groups of `_lattice_output_groups`."""
    for name, group in _lattice_output_groups():
        for m in range(1, 201):
            if group.order() % m == 0:
                for cls in subgroups_of_order(group, m):
                    representative = tuple(map(tuple, cls.representative))
                    yield f"{name} {m} {cls.size} {representative}\n"


def test_lattice_output_digest():
    """The lattice's representatives, class sizes and class order are pinned
    on 6 groups of order 168 to 432, every m <= 200 dividing the order."""
    digest = hashlib.sha256()
    for line in _lattice_output():
        digest.update(line.encode())
    assert digest.hexdigest() == LATTICE_OUTPUT_DIGEST


def test_lattice_answers_do_not_depend_on_what_was_asked_before():
    """Oracle for the kept lattice: on fresh copies of the groups of
    `_lattice_output`, every m <= 200 dividing |G| asked in increasing,
    decreasing and seeded random order gives the same classes; their sizes
    and least members are those of the route that grows each m afresh
    (`lattice_route_per_m`); and each representative generates a group of
    order m whose sorted element positions are the least member, kept
    greedily: each generator is the least element outside the group the
    earlier ones generate."""
    rng = random.Random(41)
    for name, base in _lattice_output_groups():
        orders = [m for m in range(2, 201) if base.order() % m == 0]
        shuffled = rng.sample(orders, len(orders))
        answers = []
        for asked in (orders, orders[::-1], shuffled):
            group = PermAction(base.degree, base.generators)
            answers.append({m: subgroups_of_order(group, m) for m in asked})
        assert answers[0] == answers[1] == answers[2], name
        position = group.element_index().position
        for m in orders:
            expected = lattice_route_per_m(group, m)
            got = answers[0][m]
            assert [cls.size for cls in got] == [size for _, _, size in expected]
            for cls, (least, _, _) in zip(got, expected):
                elements = PermAction(group.degree, cls.representative).elements()
                assert sorted(position[e] for e in elements) == least, (name, m)
                kept = [position[y] for y in cls.representative]
                assert kept == sorted(kept) and kept[0] == least[1]
                for j, y in enumerate(kept[1:], 1):
                    below = PermAction(group.degree, cls.representative[:j])
                    inside = {position[e] for e in below.elements()}
                    assert y == min(p for p in least if p not in inside)


def test_lattice_closure_counts(monkeypatch):
    """Work gate: closures of m = 12 on a fresh psu3_3_2_36 point
    stabilizer, asked alone and after m = 16.  The second ask reuses the
    classes of orders 2 and 4, their skip maps and the closures memoized
    under cap 16 >= 12, and its representatives' greedy generators."""
    base = builtin_action("psu3_3_2_36").point_stabilizer(0)
    counts = []
    close = permgroup._closure
    for asked in ((12,), (16, 12)):
        group = PermAction(base.degree, base.generators)
        group.elements()
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return close(*args)

        with monkeypatch.context() as patch:
            patch.setattr(permgroup, "_closure", counted)
            for m in asked:
                calls[0] = 0
                subgroups_of_order(group, m)
        counts.append(calls[0])
    # the route that grew each m afresh ran 22 either way, and closed no
    # representative's generators, which here take 2 closures
    assert counts == [24, 10]


def test_lattice_repeated_ask_reuses_its_answer(monkeypatch):
    """Asking the same m again returns an equal answer and runs no
    extension and no closure: each m's answer is kept on the lattice."""
    base = builtin_action("psu3_3_2_36").point_stabilizer(0)
    group = PermAction(base.degree, base.generators)
    first = {m: subgroups_of_order(group, m) for m in (12, 16, 2)}
    calls = []

    def counted(original):
        return lambda *args: calls.append(original) or original(*args)

    lattice = permgroup.SubgroupLattice
    with monkeypatch.context() as patch:
        patch.setattr(permgroup, "_closure", counted(permgroup._closure))
        patch.setattr(lattice, "_extend", counted(lattice._extend))
        again = {m: subgroups_of_order(group, m) for m in (16, 2, 12)}
    assert again == first and all(first.values())
    assert calls == []


def _indexed_groups():
    """The lattice groups, a relabelled copy of each, the trivial group of
    degree 5, and a cyclic group of order 7 on one generator."""
    groups = _lattice_groups()
    seven = PermAction(7, [(1, 2, 3, 4, 5, 6, 0)])
    return groups + [_relabelled(g, 5) for g in groups] + [PermAction(5, []), seven]


def test_element_index_conjugation_tables():
    for group in _indexed_groups():
        elements = group.elements()
        index = group.element_index()
        assert [index.position[e] for e in elements] == list(range(len(elements)))
        assert list(index.orders) == [perm_order(e) for e in elements]
        assert len(index.conj) == len(group.generators)
        for g, table in zip(group.generators, index.conj):
            assert [elements[i] for i in table] == list(map(_conjugator(g), elements))


def test_element_index_classes_match_brute_force():
    """Oracle for the conjugacy classes on the element index: each is
    {g^-1*e*g : g in G}, found by conjugating by every element, and numbered
    by the position of its least member.  PSL(2,7) has 6 classes,
    PGL(2,7) 9, the trivial group 1 and the cyclic group of order 7 has 7."""
    counts = []
    for group in _indexed_groups():
        elements, index = group.elements(), group.element_index()
        position = index.position
        expected = [None] * len(elements)
        for i, e in enumerate(elements):
            if expected[i] is None:
                for x in {_conjugator(g)(e) for g in elements}:
                    expected[position[x]] = i
        assert list(index.classes) == expected
        assert list(index.orders) == [perm_order(e) for e in elements]
        counts.append(len(set(expected)))
    assert counts[:2] == [6, 9] and counts[-2:] == [1, 7]


def test_element_index_classes_match_per_class_walks():
    """Oracle for the flat loop that partitions the element index into
    classes: the same classes and orders as one orbit walk per class."""
    for group in _indexed_groups():
        index = group.element_index()
        assert (index.classes, index.orders) == element_classes_by_walks(group)


def test_element_index_tree_lists_each_element_once():
    """Every tree edge is a generator step, each non-identity position is
    reached once, and each parent is reached before its children."""
    for group in _indexed_groups():
        elements = group.elements()
        tree = group.element_index().tree
        assert sorted(i for i, _, _ in tree) == list(range(1, len(elements)))
        reached = {0}
        for i, parent, j in tree:
            assert parent in reached
            assert elements[i] == compose(elements[parent], group.generators[j])
            reached.add(i)


def test_conjugate_indices_give_brute_force_normalizers():
    """Oracle for the normalizer read off a class walk: for every class
    representative U that the lattice route may extend by normalizers only
    (the classes of each order m with `_all_solvable(m)`), on the lattice
    groups and a relabelled copy of each, the positions that
    `ElementIndex.normalizer` reads off the class walk are {y : U^y = U},
    found by conjugating U's generators by every y."""
    groups = _lattice_groups()
    for group in groups + [_relabelled(group, 5) for group in groups]:
        elements, index = group.elements(), group.element_index()
        tables = index.conj

        def moves(key):
            return [frozenset(table[i] for i in key) for table in tables]

        orders = [m for m in range(1, group.order()) if group.order() % m == 0]
        solvable = [m for m in orders if _all_solvable(m)]
        for cls in (cls for m in solvable for cls in subgroups_of_order(group, m)):
            sub = set(PermAction(group.degree, cls.representative).elements())
            _, targets = orbit(frozenset(index.position[u] for u in sub), moves)
            normalizer = [
                i
                for i, y in enumerate(elements)
                if all(_conjugator(y)(u) in sub for u in cls.representative)
            ]
            assert index.normalizer(targets) == normalizer


def test_element_index_composes_nothing_once_listed(monkeypatch):
    """Work gate: once `elements` has listed a group, `element_index` reads
    its tables off the listing walk's targets and makes no product."""

    def refused(*args):
        raise AssertionError("element_index formed a permutation product")

    for group in _indexed_groups():
        fresh = PermAction(group.degree, group.generators)
        fresh.elements()
        with monkeypatch.context() as patch:
            patch.setattr(permgroup, "compose", refused)
            patch.setattr(permgroup, "_conjugator", refused)
            index = fresh.element_index()
        assert index.conj == group.element_index().conj


def test_element_index_is_shared_by_searches():
    base = builtin_action("psu3_3_36").point_stabilizer(0)
    group = PermAction(base.degree, base.generators)
    subgroups_of_order(group, 8)
    index = group.element_index()
    subgroups_of_order(group, 6)
    assert group.element_index() is index


def test_lattice_classes_ascend_by_least_member(class_members):
    """Ordering oracle: for every m, classes come out by their least member
    in sorted element order, the order the element index keeps."""
    for group in _lattice_groups():
        for m in range(2, group.order() + 1):
            if group.order() % m:
                continue
            least = [
                min(sorted(sub) for sub in class_members(group, cls))
                for cls in subgroups_of_order(group, m)
            ]
            assert all(a < b for a, b in zip(least, least[1:])), (group, m)


def test_subgroups_closed_under_multiplication(class_members):
    act = builtin_action("psl2_7")
    (sixes,) = subgroups_of_order(act, 6)
    for sub in class_members(act, sixes)[:5]:
        assert len(sub) == 6 and sub <= set(map(tuple, act.elements()))
        for a in sub:
            for b in sub:
                assert tuple(compose(as_perm(a), as_perm(b))) in sub


def test_subgroups_of_order_sylow_route(class_members):
    act = builtin_action("psl3_3_2_144")
    subs = subgroups_of_order(act, 78)
    assert sum(_sizes(subs)) == 144
    assert all(len(sub) == 78 for sub in class_members(act, subs[0]))
    assert _sizes(subs) == [144]


@pytest.mark.parametrize(
    "name,ell,count",
    [
        ("psu3_3", 7, 288),
        ("psl3_3_2_144", 13, 144),
        ("psu3_3@1", 7, 288),
        ("psl3_3_2_144@2", 13, 144),
    ],
)
def test_subgroups_of_order_prime_sylow(name, ell, count):
    """A prime dividing |G| once: the order-ell subgroups are the Sylow
    ell-subgroups, one class, though their normalizers are larger."""
    act = _named_action(name)
    (cls,) = subgroups_of_order(act, ell)
    assert act.order() > 1000 and cls.size == count
    assert PermAction(act.degree, cls.representative).order() == ell


def test_sylow_route_matches_lattice_route(class_members):
    """PSL(2,7) at m = 7, where the normalizer has order 21: the Sylow
    route and the lattice walk give the same eight subgroups."""
    act = builtin_action("psl2_7")
    (sylow,) = _sylow_route(act, 7)
    (lattice,) = _lattice_route(act, 7)
    assert sylow.size == lattice.size == 8
    assert set(class_members(act, sylow)) == set(class_members(act, lattice))


def test_subgroups_of_order_uncertifiable():
    act = builtin_action("psl3_3_2_144")
    # order 39 subgroups sit strictly inside the Sylow normalizers, and the
    # group is too large for the exhaustive lattice walk
    with pytest.raises(RuntimeError):
        subgroups_of_order(act, 39)


def test_subgroups_of_order_edge_cases():
    act = builtin_action("psl2_7")
    assert subgroups_of_order(act, 5) == ()
    ones = subgroups_of_order(act, 1)
    assert ones == (SubgroupClass(representative=(), size=1),)
    assert PermAction(8, ones[0].representative).order() == 1


def _psl2_7():
    return _written_subgroup(*_PSL2_7)


def test_two_three_seven_subgroup():
    socle = builtin_action("psu3_3")
    sub = _psl2_7()
    a, b = sub.generators
    assert (perm_order(a), perm_order(b), perm_order(compose(a, b))) == (2, 3, 7)
    assert sub.order() == 168 and all(socle.contains(g) for g in sub.generators)
    assert len(sub.elements()) == 168
    act = subgroup_conjugation_action(socle, sub)
    assert act.degree == 36 and act.order() == 6048
    # the builder raises when the words give another order than the one stated
    base, words, orders, _ = _PSL2_7
    with pytest.raises(RuntimeError, match=r"chain order 168, expected .* and 336"):
        _written_subgroup(base, words, orders, 336)
    with pytest.raises(RuntimeError, match=r"orders \(3, 2, 7\)"):
        _written_subgroup(base, words[::-1], orders, 168)


def _sylow(name, ell):
    act = builtin_action(name)
    return PermAction(act.degree, [_element_of_order(act, ell)])


def _d8_in_psl2_7():
    (cls,) = subgroups_of_order(builtin_action("psl2_7"), 8)
    return PermAction(8, cls.representative)


def _matrix_part(name):
    act = builtin_action(name)  # the point-hyperplane swap is listed last
    return PermAction(act.degree, act.generators[:-1])


@pytest.mark.parametrize(
    "action,subgroup",
    [
        (lambda: builtin_action("psu3_3"), _psl2_7),
        (lambda: builtin_action("psu3_3_2"), _psl2_7),
        (lambda: builtin_action("psl3_3_2"), lambda: _sylow("psl3_3_2", 13)),
        (lambda: _matrix_part("psl3_3_2"), lambda: _sylow("psl3_3_2", 13)),
        (lambda: builtin_action("psl3_3"), lambda: _sylow("psl3_3", 13)),
        (lambda: builtin_action("pgl2_7"), lambda: _sylow("pgl2_7", 7)),
        (lambda: builtin_action("pgl2_7"), lambda: PermAction(8, [])),
        (lambda: builtin_action("psl2_7"), _d8_in_psl2_7),
    ],
    ids=["psl2_7-psu3_3", "psl2_7-psu3_3_2", "syl13-psl3_3_2", "syl13-matrix",
         "syl13-psl3_3", "syl7-pgl2_7", "trivial-pgl2_7", "d8-psl2_7"],
)
def test_conjugation_action_matches_element_set_orbit(action, subgroup):
    """Generator-only moves give the action that conjugating whole element
    sets gives, generator for generator."""
    act, sub = action(), subgroup()
    images = conjugation_images(act, map(tuple, sub.elements()))
    expected = PermAction(len(images[0]), images)
    assert subgroup_conjugation_action(act, sub).generators == expected.generators


@pytest.mark.parametrize(
    "subgroup,size,order",
    [
        (_psl2_7, 21, 2),
        # the 2 elements of order 4 generate only C4
        (_d8_in_psl2_7, 5, 2),
        (lambda: _sylow("psl3_3_2", 13), 12, 13),
        (lambda: PermAction(8, []), 1, 1),
    ],
    ids=["psl2_7", "d8", "syl13", "trivial"],
)
def test_generating_class_is_the_smallest_that_generates(subgroup, size, order):
    sub = subgroup()
    cls = _generating_class(sub)
    assert len(cls) == size and {perm_order(e) for e in cls} == {order}
    assert StabChain(sub.degree, cls).order() == sub.order()


def test_conjugation_action_refuses_a_subgroup_of_another_degree():
    with pytest.raises(ValueError, match="degree 8 in an action of degree 28"):
        subgroup_conjugation_action(builtin_action("psu3_3"), builtin_action("psl2_7"))


def test_psl2_7_is_written_once_for_both_36_point_actions():
    """Both degree-36 actions conjugate the one PSL(2,7) written down in
    psu3_3, and each rebuilt action equals its cached builtin."""
    subgroups = []
    for name in ("psu3_3_36", "psu3_3_2_36"):
        build = permgroup._BUILTINS[name]
        assert build.func is permgroup._conjugation_builtin
        subgroups.append(_written_subgroup(*build.args[1]))
        assert build().generators == builtin_action(name).generators
    first, second = subgroups
    assert first is second is _psl2_7()
    assert set(first.elements()) == set(second.elements())
    assert first.order() == 168


@pytest.mark.parametrize("name", ["psu3_3_36", "psu3_3_2_36"])
def test_unitary_36_conjugation_counts(monkeypatch, name):
    """Work gate: building a degree-36 action conjugates each of the 36
    conjugates' 21 involutions under each of the 2 generators, 1,512
    conjugations.  Listing all 168 elements of each conjugate and moving
    the 2 (2,3,7) generators made 35 x 168 + 36 x 2 x 2 = 6024."""
    for base in ("psu3_3", "psu3_3_2"):
        builtin_action(base)
    calls = []
    conjugator = permgroup._conjugator

    def counted_conjugator(g):
        conj = conjugator(g)

        def counted(x):
            calls.append(x)
            return conj(x)

        return counted

    monkeypatch.setattr(permgroup, "_conjugator", counted_conjugator)
    act = permgroup._BUILTINS[name]()
    assert act.degree == 36
    assert len(calls) == 36 * 2 * 21 == 1512


def test_psl3_3_144_is_built_on_the_13_points(monkeypatch):
    """Work gate: the 144-point action of PSL_3(3) conjugates a Sylow
    13-subgroup of the 13-point action, so it builds psl3_3 and not the
    26-point psl3_3_2."""
    built = []

    def counting(name, build):
        def counted():
            built.append(name)
            return build()

        return counted

    for name, build in list(permgroup._BUILTINS.items()):
        monkeypatch.setitem(permgroup._BUILTINS, name, counting(name, build))
    builtin_action.cache_clear()
    try:
        assert builtin_action("psl3_3_144").degree == 144
    finally:
        builtin_action.cache_clear()
    assert built == ["psl3_3_144", "psl3_3"]


def test_psu3_3_maps_three_matrices_and_builds_one_chain(monkeypatch):
    """Work gate: building psu3_3 from cleared caches maps the three
    matrices x, t and w over the points and builds one stabilizer chain,
    that of its two generators, which the order check and every later
    use share.  The walk over generator words mapped 36 matrices and
    built 7 chains."""
    mapped, chains = [], []
    map_matrix, chain_class = permgroup._matrix_point_perm, permgroup.StabChain

    def counted_map(*args):
        mapped.append(args)
        return map_matrix(*args)

    class CountedChain(chain_class):
        def __init__(self, *args, **kwargs):
            chains.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(permgroup, "_matrix_point_perm", counted_map)
    monkeypatch.setattr(permgroup, "StabChain", CountedChain)
    builtin_action.cache_clear()
    _unitary_matrix_perms.cache_clear()
    try:
        assert builtin_action("psu3_3").order() == 6048
    finally:
        builtin_action.cache_clear()
        _unitary_matrix_perms.cache_clear()
    assert (len(mapped), len(chains)) == (3, 1)


def test_orbit_walk_cap_edges():
    """The walk returns an orbit of exactly cap points, and None once the
    orbit grows past cap; a one-point orbit passes every cap below 1."""
    act = builtin_action("pgl2_7")
    start = frozenset({0, 1, 2, 3})
    full = orbit(start, act.set_images)
    assert full is not None
    points, targets = full
    assert sorted(points, key=sorted) == list(act.set_orbit(start))
    assert len(targets) == len(points) * len(act.generators)
    assert orbit(start, act.set_images, len(points)) == full
    assert orbit(start, act.set_images, len(points) - 1) is None
    assert orbit(0, lambda x: [x], 1) == ([0], [0])
    assert orbit(0, lambda x: [x], 0) is None
    assert orbit(0, lambda x: [x], -1) is None
    assert builtin_action("psl2_7").set_orbit(range(8), 0) is None


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("linear_3_16",))
def test_orbits_match_walks(name):
    """Oracle for the flat orbit loop: the same sorted orbits, in the same
    order, as numbered breadth-first walks, on each built-in and the
    273-point action of PSL(3,16), whose permutations are tuples; on its
    point stabilizer, the trivial group and seeded subsets of its
    generators, a subset of one generator included."""
    if name == "linear_3_16":
        act = classical_action("linear", 3, 16)
        assert act.degree == 273
    else:
        act = builtin_action(name)
    rng = random.Random(f"orbits/{name}")
    groups = [act, act.point_stabilizer(0), PermAction(act.degree, [])]
    for size in range(1, len(act.generators) + 1):
        groups.append(PermAction(act.degree, rng.sample(act.generators, size)))
    seen = set()
    for group in groups:
        got = group.orbits()
        assert got == orbits_by_walks(group.generators, group.degree)
        seen.add(len(got))
    assert {1, act.degree} <= seen and len(seen) > 2


@pytest.mark.parametrize(
    "name", ["psl2_7", "psu3_3", "psu3_3_36", "psl3_3_144", "psu3_3_pairs"]
)
def test_set_walk_matches_frozenset_walk(name):
    """Oracle for the indicator walk: `set_orbit` and `set_images` agree
    with a walk on frozensets, on bytes permutations and on the 378-point
    pair action of psu3_3, whose permutations are tuples; for the empty
    set, one point, the whole domain, a 21-point set and a seeded 5-point
    set, with cap at the orbit's length and one below it, where the walk
    gives None: at cap 0 for the empty set and the whole domain."""
    if name == "psu3_3_pairs":
        act = pair_action(classical_action("unitary", 3, 3))
        assert act.degree == 378 and isinstance(act.generators[0], tuple)
    else:
        act = builtin_action(name)
    n, rng = act.degree, random.Random(f"set-walk/{name}")
    sets = [(), (rng.randrange(n),), range(n), range(min(n, 21))]
    sets.append(rng.sample(range(n), 5))
    for points in sets:
        want = set_orbit_by_frozensets(act, points)
        assert act.set_orbit(points) == want
        images = set_images_by_points(act.generators, points)
        assert act.set_images(frozenset(points)) == images
        for cap in (len(want), len(want) - 1):
            assert act.set_orbit(points, cap) == set_orbit_by_frozensets(act, points, cap)
        assert act.set_orbit(points, len(want) - 1) is None


def test_set_orbit_of_one_point():
    """On the transitive psl2_7 the orbit of {3} is the 8 singletons."""
    singletons = tuple(frozenset({p}) for p in range(8))
    assert builtin_action("psl2_7").set_orbit([3]) == singletons


def test_set_orbit_rejects_foreign_points():
    with pytest.raises(ValueError):
        builtin_action("psl2_7").set_orbit({1, 99})


def test_save_load_roundtrip(tmp_path):
    act = builtin_action("pgl2_7")
    path = str(tmp_path / "pgl2_7.gens")
    save_action(act, path)
    back = load_action(path)
    assert back.degree == act.degree
    assert back.generators == act.generators
    assert back.order() == 336
    assert back.label == "pgl2_7"


@pytest.mark.parametrize("label", ["c3\nline two", "c3\rline two", "c3\r\n"])
def test_save_action_refuses_a_line_break_in_the_label(tmp_path, label):
    """A label holding a line break would end the comment it is written in,
    and load_action would refuse the file; save_action refuses it before
    opening the file, so none is left behind."""
    path = tmp_path / "c3.gens"
    with pytest.raises(ValueError, match="line break"):
        save_action(PermAction(3, [(1, 2, 0)], label=label), str(path))
    assert not path.exists()


def test_save_action_label_with_a_hash_round_trips(tmp_path):
    """A '#' in the label is harmless: the label sits in a comment, and
    load_action reads it off the file name."""
    path = str(tmp_path / "c3#odd.gens")
    save_action(PermAction(3, [(1, 2, 0)], label="c3#odd"), path)
    back = load_action(path)
    assert back.label == "c3#odd" and back.degree == 3
    assert back.generators == (as_perm((1, 2, 0)),)


def test_load_action_rejects_malformed(tmp_path):
    bad_header = tmp_path / "a.gens"
    bad_header.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        load_action(str(bad_header))
    short_line = tmp_path / "b.gens"
    short_line.write_text("degree 3\n0 1\n")
    with pytest.raises(ValueError):
        load_action(str(short_line))
    not_perm = tmp_path / "c.gens"
    not_perm.write_text("degree 3\n0 0 1\n")
    with pytest.raises(ValueError):
        load_action(str(not_perm))
    empty = tmp_path / "d.gens"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        load_action(str(empty))
    header_only = tmp_path / "e.gens"
    header_only.write_text("degree 5\n")
    with pytest.raises(ValueError, match="no generator lines .*e.gens"):
        load_action(str(header_only))


# -- stabilizer chain against breadth-first enumeration


def _bfs_closure(degree, gens):
    """Independent oracle: every product of the generators, breadth-first."""
    ident = tuple(range(degree))
    seen = {ident}
    queue = [ident]
    for cur in queue:
        for g in gens:
            nxt = tuple(g[i] for i in cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_chain_matches_enumeration(name):
    base = builtin_action(name)
    act = PermAction(base.degree, base.generators)  # no cached chain or list
    group = _bfs_closure(act.degree, act.generators)
    assert act.order() == len(group) == EXPECTED_ORDERS[name][1]
    rng = random.Random(f"chain/{name}")
    listed = sorted(group)
    # point stabilizers at several points
    points = {0, act.degree // 2, act.degree - 1, rng.randrange(act.degree)}
    for point in sorted(points):
        stab = act.point_stabilizer(point)
        fixing = {g for g in group if g[point] == point}
        assert stab.order() == len(fixing), point
        assert all(g[point] == point and tuple(g) in group for g in stab.generators)
        # members and non-members of the stabilizer
        for g in rng.sample(listed, 20):
            assert stab.contains(g) == (g in fixing)
    # subgroups generated by random pairs of elements
    for _ in range(3):
        pair = rng.sample(listed, 2)
        sub = PermAction(act.degree, pair)
        closure = _bfs_closure(act.degree, pair)
        assert sub.order() == len(closure)
        for g in rng.sample(listed, 20):
            assert sub.contains(g) == (g in closure)
    # sampled members and random permutations of the domain
    for g in rng.sample(listed, 20):
        assert act.contains(g)
    for _ in range(20):
        perm = list(range(act.degree))
        rng.shuffle(perm)
        assert act.contains(tuple(perm)) == (tuple(perm) in group)
    assert not act.contains(tuple(range(act.degree + 1)))


@pytest.mark.parametrize(
    "name,m",
    [
        ("psl3_3_144", 39),
        ("psl3_3_2_144", 78),
        ("psl3_3_144", 13),
        ("psl3_3_144@1", 39),
        ("psl3_3_2_144@2", 78),
        ("psl3_3_144@3", 13),
    ],
)
def test_sylow_route_matches_element_list(name, m, class_members):
    act = _named_action(name)
    group = _bfs_closure(act.degree, act.generators)
    sylow_count = sum(1 for g in group if perm_order(g) == 13) // 12
    assert sylow_count == 144
    (cls,) = subgroups_of_order(act, m)
    # the representative has order m and normalizes a Sylow 13-subgroup
    rep = _bfs_closure(act.degree, cls.representative)
    assert len(rep) == m and rep <= group
    sylow = {g for g in rep if perm_order(g) in (1, 13)}
    assert len(sylow) == 13
    for s in cls.representative:
        assert {tuple(_conjugator(s)(as_perm(x))) for x in sylow} == sylow
    members = class_members(act, cls)
    assert cls.size == len(members) == sylow_count
    for sub in members:
        assert len(sub) == m and sub <= group


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@pytest.mark.parametrize(
    "name,ell",
    [
        ("psl2_7", 7),
        ("pgl2_7", 7),
        ("psu3_3", 7),
        ("psl3_3_144", 13),
        ("psl3_3_2_144", 13),
    ],
)
def test_sylow_walk_matches_cyclic_key_walk(name, ell, seed):
    """Conjugates of <x> keyed by their elements, in the shared walk, walk
    as conjugates keyed by a whole canonical generator: the same targets,
    the same number of conjugates, and the same first generator.  Equal
    targets from one start meet the same subgroups in the same order."""
    act = builtin_action(name)
    if seed is not None:
        act = _relabelled(act, seed)
    x = _element_of_order(act, ell)
    count, targets = _walk_of(act, x)
    expected, expected_targets = cyclic_key_walk(act, x)
    assert targets == expected_targets
    assert count == len(expected)
    assert tuple(_cyclic_key(x)) == expected[0]


def test_sylow_route_builds_one_canonical_generator(monkeypatch):
    """On psl3_3_2_144 the walk, keyed by the powers of x, builds no
    canonical generator: none is built at m = 78, and one at m = 13, as
    the representative of the class of P itself."""
    calls = []
    whole = permgroup._cyclic_key

    def counted(y):
        calls.append(y)
        return whole(y)

    monkeypatch.setattr(permgroup, "_cyclic_key", counted)
    for m, built in ((78, 0), (13, 1)):
        calls.clear()
        (cls,) = _sylow_route(builtin_action("psl3_3_2_144"), m)
        assert cls.size == 144 and len(calls) == built


@pytest.mark.parametrize(
    "name,m,descends",
    [
        pytest.param("psu3_3", 21, False, id="psu3_3-21"),
        pytest.param("psl3_3_144", 39, True, id="psl3_3_144-39"),
        pytest.param("psl3_3_2_144", 78, True, id="psl3_3_2_144-78"),
    ],
)
def test_sylow_route_reads_schreier_generators_until_order_m(
    monkeypatch, name, m, descends
):
    """Work gate: the Sylow route reads Schreier generators only until the
    kept ones reach order m, and keeps what a full read would keep.  On
    psu3_3, where P_7 fixes none of the 28 points, the walk runs in G and
    the read stops early.  On the 144-point groups it runs in the
    stabilizer of the chain's first base point, where P_13 is normal: the
    walk has one node, no Schreier generator is read, and the
    representative is the stabilizer's 2 and 3 generators, all of which a
    full read of the walk's Schreier generators keeps.  Fresh actions, as
    an action keeps each prime's walk."""
    read, walked = [], []
    lazy = permgroup.schreier_generators

    def counted(generators, targets):
        walked.append(generators)
        for s in lazy(generators, targets):
            read.append(s)
            yield s

    monkeypatch.setattr(permgroup, "schreier_generators", counted)
    act = _fresh(name)
    walks = _recording_walks(monkeypatch)
    (cls,) = _sylow_route(act, m)
    ((group, key),) = walks
    assert group is (act.point_stabilizer(act.chain().base[0]) if descends else act)
    count, targets = _conjugate_walk(group, key)
    full = list(lazy(group.generators, targets))
    chain = StabChain(act.degree)
    assert cls.representative == tuple(s for s in full if chain.extend(s))
    assert chain.order() == m
    if descends:
        assert count == 1 and walked == read == []
        assert cls.representative == group.generators == tuple(full)
    else:
        assert walked == [group.generators]
        assert len(read) < len(full)


def _oracle_action(name):
    """A built-in by name, or the 15-point action of PSL(4,2)."""
    if name == "linear_4_2":
        return classical_action("linear", 4, 2)
    return builtin_action(name)


def _descends(act, x):
    """Whether x fixes exactly one point of the orbit of the chain's first
    base point, where the Sylow route walks in that point's stabilizer."""
    return sum(x[p] == p for p in act.orbit(act.chain().base[0])) == 1


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@pytest.mark.parametrize("name", BUILTIN_NAMES + ("linear_4_2",))
def test_sylow_route_matches_whole_group_walk(name, seed, class_members):
    """Oracle: the Sylow route answers at exactly the orders m where the
    route walking the whole group answers, with the same class size and a
    representative of order m in the same class.  Where it does not
    descend to a point stabilizer, its answer is the oracle's, generator
    for generator."""
    act = _oracle_action(name)
    if seed is not None:
        act = _relabelled(act, seed)
    n = act.order()
    orders = [m for m in range(2, n + 1) if n % m == 0]
    expected = whole_group_sylow_route(act, orders)
    for m in orders:
        got = _sylow_route(act, m)
        assert (got is None) == (expected[m] is None), m
        if got is None:
            continue
        (cls,), (rep, size, x) = got, expected[m]
        assert cls.size == size
        if not _descends(act, x):
            assert tuple(map(tuple, cls.representative)) == rep
            continue
        members = class_members(act, cls)
        assert len(members) == size and len(members[0]) == m
        assert frozenset(_bfs_closure(act.degree, rep)) in set(members)


def _fresh(name):
    """A built-in, or "name@seed" as in `_named_action`, as a new action:
    no chain, element list, lattice or Sylow walk of it is kept yet."""
    act = _named_action(name)
    return PermAction(act.degree, act.generators)


@pytest.mark.parametrize(
    "make,m,conjugates,conjugations",
    [
        pytest.param(lambda: _fresh("psl3_3_2_144"), 78, 1, 36, id="psl3_3_2_144"),
        pytest.param(
            lambda: classical_action("linear", 4, 2), 21, 64, 1536, id="linear_4_2"
        ),
        pytest.param(lambda: _fresh("psu3_3"), 21, 288, 3456, id="psu3_3"),
        pytest.param(lambda: _fresh("psl4_2"), 5, 336, 2688, id="psl4_2"),
    ],
)
def test_sylow_route_base_key_counts(monkeypatch, make, m, conjugates, conjugations):
    """Work gate: the Sylow route walks 1 conjugate on a fresh psl3_3_2_144
    at m = 78 and 64 on the 15-point PSL(4,2) at m = 21, in the stabilizer
    of the chain's first base point, which their P_13 and P_7 fix alone in
    its orbit.  Walking the whole group listed 144 and 960.  P_7 fixes none
    of psu3_3's 28 points and P_5 fixes 3 of psl4_2's 8, so those walks
    stay in G: 288 and 336.  Each node conjugates its ell - 1 key elements
    once per generator of the walked group.  No chain is built for the
    descent."""
    act = make()
    act.order()
    chains = dict(act._chains)
    calls, walks = [0], []
    conjugator, walk = permgroup._conjugator, permgroup._conjugate_walk

    def counted_conjugator(g):
        conj = conjugator(g)

        def counted(x):
            calls[0] += 1
            return conj(x)

        return counted

    def recorded(group, key):
        key = tuple(key)
        count, targets = walk(group, key)
        walks.append((len(key) + 1, len(group.generators), count))
        return count, targets

    monkeypatch.setattr(permgroup, "_conjugator", counted_conjugator)
    monkeypatch.setattr(permgroup, "_conjugate_walk", recorded)
    assert _sylow_route(act, m) is not None
    ((ell, gens, count),) = walks
    assert count == conjugates
    assert calls[0] == conjugations == count * gens * (ell - 1)
    assert act._chains == chains


def test_sylow_route_walks_each_prime_once(monkeypatch):
    """Work gate: asking a fresh psu3_3 for all 47 orders m > 1 dividing
    6048 walks P_7's 288 conjugates once, kept for every m; walked per m,
    it took 10 walks.  m = 7 and 21 are answered, every other m refused."""
    act = _fresh("psu3_3")
    walks = _recording_walks(monkeypatch)
    orders = [m for m in range(2, 6049) if 6048 % m == 0]
    assert len(orders) == 47
    answered = {}
    for m in orders:
        try:
            answered[m] = [cls.size for cls in subgroups_of_order(act, m)]
        except RuntimeError as exc:
            assert f"cannot certify a complete order-{m} subgroup" in str(exc)
    assert answered == {7: [288], 21: [288]}
    ((group, key),) = walks
    assert group is act and len(key) == 6


def _walk_of(group, x):
    """The shared conjugate walk on <x>, x of prime order, as the Sylow
    route runs it, keyed by x's nontrivial powers: the number of
    conjugates and the targets."""
    return _conjugate_walk(group, [_perm_power(x, j) for j in range(1, perm_order(x))])


def _recording_walks(monkeypatch):
    """Record the group and start key set of every shared conjugate walk."""
    walks = []
    walk = permgroup._conjugate_walk

    def recorded(group, key):
        key = frozenset(key)
        walks.append((group, key))
        return walk(group, key)

    monkeypatch.setattr(permgroup, "_conjugate_walk", recorded)
    return walks


@pytest.mark.parametrize(
    "name,ell,m",
    [
        ("psl3_3_2_144@1", 13, 78),
        ("psl3_3_144@2", 13, 39),
        ("psu3_3_36", 7, 21),
        ("psu3_3_2_36@3", 7, 42),
        ("psl4_2@1", 7, 21),
    ],
)
def test_sylow_route_descends_to_a_fixed_point_off_the_base(monkeypatch, name, ell, m):
    """When P's one fixed point in the orbit of the first base point b0 is
    not b0, the route conjugates P to fix b0 and walks in G_b0."""
    act = _fresh(name)
    b0, x = act.chain().base[0], _element_of_order(act, ell)
    (alpha,) = [p for p in act.orbit(b0) if x[p] == p]
    assert alpha != b0
    walks = _recording_walks(monkeypatch)
    (cls,) = _sylow_route(act, m)
    ((group, key),) = walks
    assert group is act.point_stabilizer(b0) and len(key) == ell - 1
    for y in key:
        assert y[b0] == b0 and perm_order(y) == ell
        assert act.contains(y) and group.contains(y)
    assert len(_bfs_closure(act.degree, cls.representative)) == m


@pytest.mark.parametrize("seed", [None, 1])
@pytest.mark.parametrize("name", BUILTIN_NAMES + ("linear_4_2",))
def test_sylow_route_one_node_walk_gives_the_normalizer(monkeypatch, name, seed):
    """Where the Sylow walk has one node, at any order m the route answers,
    P = <x> is normal in the walked group, which the route returns as N(P):
    its generators' chain has order m and each of them normalizes <x>.
    The 144-point built-ins at m = 39 and 78 walk one node."""
    act = _oracle_action(name)
    if seed is not None:
        act = _relabelled(act, seed)
    n, one_node = act.order(), []
    walks = _recording_walks(monkeypatch)
    for m in (m for m in range(2, n + 1) if n % m == 0):
        walks.clear()
        act._sylow.clear()  # walk again for each m
        answer = _sylow_route(act, m)
        if answer is None or not walks or _conjugate_walk(*walks[0])[0] > 1:
            continue
        ((cls,), ((group, key),)) = answer, walks
        if m == len(key) + 1 and group.order() != m:
            continue  # the class of P itself, whose normalizer is bigger
        assert cls.representative == group.generators
        assert StabChain(act.degree, cls.representative).order() == m
        for s in cls.representative:
            assert set(map(_conjugator(s), key)) == key
        one_node.append(m)
    if name in ("psl3_3_144", "psl3_3_2_144"):
        assert one_node == [act.order() // 144]


def test_sylow_route_prime_order_on_the_descended_path(monkeypatch, class_members):
    """m == ell after the descent: on psl3_3_2_144 at m = 13 the normalizer
    has order 78, the class is the 144 Sylow 13-subgroups, and the
    representative is the walk's start, which fixes b0."""
    act = _fresh("psl3_3_2_144")
    walks = _recording_walks(monkeypatch)
    (cls,) = _sylow_route(act, 13)
    b0 = act.chain().base[0]
    ((group, _),) = walks
    assert group is act.point_stabilizer(b0)
    assert cls.size == 144 and len(cls.representative) == 1
    (z,) = cls.representative
    assert perm_order(z) == 13 and z[b0] == b0
    assert len(class_members(act, cls)) == 144


def test_sylow_route_falls_back_on_an_intransitive_group(monkeypatch):
    """The stabilizer of a point in the 15-point PSL(4,2), of order 1344,
    has orbits of 1 and 14 points.  P_7 fixes only that point, none of the
    orbit of the chain's first base point, so at m = 21 the route walks
    the whole group and gives the oracle's answer."""
    act = classical_action("linear", 4, 2).point_stabilizer(0)
    assert act.order() == 1344
    assert sorted(map(len, act.orbits())) == [1, 14]
    walks = _recording_walks(monkeypatch)
    (cls,) = _sylow_route(act, 21)
    ((group, _),) = walks
    assert group is act
    rep, size, x = whole_group_sylow_route(act, [21])[21]
    assert not _descends(act, x)
    assert cls.size == size == 64
    assert tuple(map(tuple, cls.representative)) == rep


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_chain_inverses_invert_each_element(name):
    """Oracle for the inverses a chain forms by one product: on every
    built-in, as built and relabelled, every level's inverse of a
    transversal element, and of a strong generator, is its inverse_perm."""
    act = builtin_action(name)
    for group in (act, _relabelled(act, 7)):
        for chain in (group.chain(), group.chain(group.degree - 1)):
            for trans, inv in zip(chain.trans, chain.inv):
                assert trans.keys() == inv.keys()
                assert all(inv[beta] == inverse_perm(u) for beta, u in trans.items())
            for gens, gens_inv in zip(chain.gens, chain.gens_inv):
                assert gens_inv == [inverse_perm(g) for g in gens]


@pytest.mark.parametrize(
    "name,ell", [("psl2_7", 7), ("psu3_3", 7), ("psl3_3_2_144", 13)]
)
def test_schreier_generators_match_inverted_words(name, ell):
    """On a Sylow walk, the Schreier generators come out as the reference
    that inverts every transversal word on its own gives them."""
    act = builtin_action(name)
    _, targets = _walk_of(act, _element_of_order(act, ell))
    expected = schreier_generators_inverting_words(act.generators, targets)
    assert [tuple(s) for s in schreier_generators(act.generators, targets)] == expected
    assert expected


def test_sylow_route_inversions(monkeypatch):
    """Work gate: on a fresh psl3_3_2_144 whose chain is built, the Sylow
    route at m = 78 calls inverse_perm 3 times, once per generator of the
    walked stabilizer for the walk's conjugators.  P_13 is normal there, so
    neither the Schreier replay nor a chain of the normalizer, which took 6
    more, is run.  Inverting every transversal word, in the replay and in
    the chain, took 70."""
    act = builtin_action("psl3_3_2_144")
    group = PermAction(act.degree, act.generators)
    group.order()
    calls = [0]

    def counted(p):
        calls[0] += 1
        return inverse_perm(p)

    monkeypatch.setattr(permgroup, "inverse_perm", counted)
    (cls,) = subgroups_of_order(group, 78)
    assert cls.size == 144 and calls[0] == 3


# -- element budget


def test_element_budget_edges():
    base = builtin_action("pgl2_7")
    assert len(PermAction(8, base.generators).elements(limit=336)) == 336
    with pytest.raises(RuntimeError, match="exceeds element budget 335"):
        PermAction(8, base.generators).elements(limit=335)
    listed = PermAction(8, base.generators)
    assert len(listed.elements()) == 336
    with pytest.raises(RuntimeError, match="exceeds element budget 335"):
        listed.elements(limit=335)
    assert len(listed.elements(limit=336)) == 336
