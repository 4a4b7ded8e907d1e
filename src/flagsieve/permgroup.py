"""Concrete permutation actions for the small groups the search stage needs.

Everything is deterministic: element lists are sorted, orbit enumerations run
breadth-first over sorted generator lists, and the builtin actions are
constructed the same way in every process.  A permutation of degree at
most 256 is a bytes object, one byte per point, and a larger one a tuple
(`Perm`): one byte holds any point of the smaller domains, so a product is
one `bytes.translate`, an inverse one `bytes.maketrans`, and a hash is
computed once per permutation and cached.

Every orbit, of points, of point sets and of subgroups under conjugation,
is found by one breadth-first walk, `orbit`, with two exceptions: the
stabilizer chain grows its orbits incrementally, and `PermAction.orbits`
lists all point orbits in one flat loop.  A point set in a walk is its
indicator, bytes with byte p 1 exactly when p is in the set, so its image
under g is one `bytes.translate` of g^-1 through it (`_set_mover`), a
gather above degree 256; `PermAction.set_orbit` converts only the sets
found to frozensets.  A subgroup in such a walk is
named by a set of its elements that generates it, and a move conjugates
the whole set: the positions of all its elements in
a listed group, its elements of one order in an unlisted one
(`_conjugate_walk`).  Stabilizers are read off walks: a Sylow normalizer
off its Schreier generators (`schreier_generators`), and a lattice
representative's normalizer off its class walk.

Group order, membership and point stabilizers are read off a base and strong
generating set (Sims 1970; Seress, *Permutation Group Algorithms*, ch. 4-5),
built once per action by deterministic Schreier-Sims, so no element of a
large group is ever listed for them.  Breadth-first closure (`elements`)
remains for groups of order at most 1000, where it supplies the lattice
search's extension candidates, and as the independent oracle of the tests.
A listed group is indexed once (`PermAction.element_index`): each element's
position in the sorted list, its class and order, one conjugation table per
generator, and the breadth-first tree that listed the group, all read off
the listing walk's targets with no further product.  Subgroups are handled
as generator sets, one conjugacy class at a time, each class given by one
representative and its size: grown by cyclic extension on permutations in
small groups, in one lattice per group kept for every order asked
(`SubgroupLattice`), with class members keyed by the positions of their
elements and each class represented by its least member; and from the
Sylow-normalizer argument in larger ones, where the conjugates of a Sylow
subgroup of prime order, keyed by their nontrivial elements, are walked
(`_conjugate_walk`) once per prime, in the stabilizer of the first base
point when the subgroup fixes exactly one point of that point's orbit.
No multiplication table is kept.  The
unitary groups' two generators and the builtin subgroups (PSL(2,7) in
PSU_3(3), a Sylow 13-subgroup of PSL_3(3)) are written down, the subgroups
as words in a builtin's generators (`_written_subgroup`); each is certified
by its chain order, and each subgroup by its words' orders too.  The four
builtins of degree 36 and 144 come from one recipe, a base builtin on the
conjugates of such a subgroup, and every action induced on a list of point
sets (point pairs, hyperplanes) is read off by one helper from the
sets' indicator images (`_set_perms`).

The classical actions are written down from their defining equations:
projective and isotropic points are listed in sorted order, a unitary
root element, torus generator and Weyl element are given in closed form,
and a hyperplane's image is read off the images of its points.  No matrix
is searched for or inverted.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .exactmath import factorize, is_prime, prime_power

__all__ = [
    "FieldTable",
    "PermAction",
    "ElementIndex",
    "Perm",
    "as_perm",
    "compose",
    "inverse_perm",
    "identity_perm",
    "perm_order",
    "projective_points",
    "hermitian_isotropic_points",
    "classical_action",
    "pair_action",
    "subgroup_conjugation_action",
    "subgroups_of_order",
    "SubgroupClass",
    "SubgroupLattice",
    "StabChain",
    "orbit",
    "schreier_generators",
    "builtin_action",
    "BUILTIN_NAMES",
    "load_action",
    "save_action",
]

# p[i] is the image of point i: bytes up to degree 256, a tuple above, where
# one byte cannot hold a point.  Bytes of one length compare and sort as the
# tuples of their values do, so element lists, positions, classes and
# representatives come out the same in either type.
Perm = Union[bytes, Tuple[int, ...]]

_BYTE_DEGREE = 256  # the largest degree whose permutations are bytes
_BYTES = bytes(range(_BYTE_DEGREE))
# _PADS[n] completes a permutation of degree n to a bytes.translate table
_PADS = tuple(_BYTES[n:] for n in range(_BYTE_DEGREE + 1))


# ---------------------------------------------------------------------------
# finite fields


class FieldTable:
    """Arithmetic of GF(p^f) on the element set {0, 1, ..., q-1}.

    An element's base-p digits are the coefficients of its polynomial
    representative, so 0 and 1 are the additive and multiplicative
    identities.  The modulus is x^f = r with r the smallest element, read
    as an integer, making x a generator of the multiplicative group.  For
    f = 1, x = r is the smallest primitive root mod p.  For f >= 2 no
    constant r works, as x^f = r gives x order at most f(p-1) < q-1, and
    r = p is x itself, so r is x + c with the smallest such c, when one
    exists; GF(32) has none and takes x^2 + 1.
    Multiplication runs off discrete-log tables, so the class of x is
    always a primitive element.  Addition runs off Zech logarithms
    (Lidl and Niederreiter, *Finite Fields*): a + b = a(1 + b/a), with
    zech[k] the log of 1 + x^k, or None where 1 + x^k = 0.
    """

    def __init__(self, q: int):
        pp = prime_power(q)  # raises ValueError unless q is a prime power
        if q > 2**16:
            raise ValueError(f"field GF({q}) too large for table arithmetic")
        self.q = q
        self.p = pp.p
        self.f = pp.f
        self._exp: List[int] = []
        self._log: Dict[int, int] = {}
        self._modulus_rhs = self._pick_modulus()

    # -- construction helpers

    def _digit_add(self, a: int, b: int) -> int:
        p, out, shift = self.p, 0, 1
        for _ in range(self.f):
            out += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def _scalar_mul(self, c: int, a: int) -> int:
        p, out, shift = self.p, 0, 1
        for _ in range(self.f):
            out += ((a % p) * c % p) * shift
            a //= p
            shift *= p
        return out

    def _times_x(self, a: int, rhs_multiples: List[int]) -> int:
        lead, low = divmod(a * self.p, self.q)
        return self._digit_add(low, rhs_multiples[lead]) if lead else low

    def _walk(self, rhs: int) -> Optional[List[int]]:
        """Powers of x mod (x^f - rhs); None unless x has full order q-1."""
        multiples = [self._scalar_mul(c, rhs) for c in range(self.p)]
        exp = [1]
        cur = 1
        for _ in range(self.q - 2):
            cur = self._times_x(cur, multiples)
            if cur == 1 or cur == 0:
                return None
            exp.append(cur)
        if self._times_x(cur, multiples) != 1:
            return None
        return exp

    def _pick_modulus(self) -> int:
        for rhs in range(1, self.q):
            if rhs % self.p == 0:
                continue  # x would divide the modulus
            exp = self._walk(rhs)
            if exp is not None:
                self._install(exp)
                return rhs
        raise ArithmeticError(f"no primitive modulus found for GF({self.q})")

    def _install(self, exp: List[int]) -> None:
        self._exp = exp
        self._log = log = {e: i for i, e in enumerate(exp)}
        # adding 1 changes only the constant base-p digit
        p = self.p
        self._zech = [log.get(e - e % p + (e + 1) % p) for e in exp]

    # -- arithmetic

    def add(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return a or b
        log_a = self._log[a]
        z = self._zech[(self._log[b] - log_a) % (self.q - 1)]
        return 0 if z is None else self._exp[(log_a + z) % (self.q - 1)]

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)  # the integer p - 1 is the element -1

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def power(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def frobenius(self, a: int) -> int:
        return self.power(a, self.p)

    def generator(self) -> int:
        """A fixed generator of the multiplicative group: the class of x."""
        return self._exp[1 % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)


# ---------------------------------------------------------------------------
# linear algebra over a FieldTable (row-vector convention: x -> x*A)

Matrix = Tuple[Tuple[int, ...], ...]


def _matrix(n: int, entries: Dict[Tuple[int, int], int]) -> Matrix:
    """The n x n matrix with these (row, column) entries, zero elsewhere."""
    return tuple(tuple(entries.get((i, j), 0) for j in range(n)) for i in range(n))


def _vec_mat(F: FieldTable, x: Sequence[int], A: Matrix) -> Tuple[int, ...]:
    out = []
    for j in range(len(A)):
        acc = 0
        for i, row in enumerate(A):
            acc = F.add(acc, F.mul(x[i], row[j]))
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# projective and hermitian point sets


def _normalized(F: FieldTable, vec: Sequence[int]) -> Tuple[int, ...]:
    """The nonzero vector vec scaled to leading coefficient 1."""
    scale = F.inv(next(e for e in vec if e != 0))
    return tuple(F.mul(scale, e) for e in vec)


def projective_points(F: FieldTable, n: int) -> Tuple[Tuple[int, ...], ...]:
    """Projective space points, scaled to leading coefficient 1, sorted.

    Listed directly in sorted order: (0, ..., 0, 1), then (0, ..., 1, *),
    and so on, each block's free entries in lexicographic order."""
    return tuple(
        (0,) * zeros + (1,) + tail
        for zeros in range(n - 1, -1, -1)
        for tail in itertools.product(F.elements(), repeat=n - 1 - zeros)
    )


def hermitian_isotropic_points(q0: int) -> Tuple[Tuple[int, ...], ...]:
    """Isotropic projective points of the 3-dimensional hermitian form
    <x, y> = x0 y2^q0 + x1 y1^q0 + x2 y0^q0 over GF(q0^2), sorted.

    Written down, not filtered (Dembowski, *Finite Geometries*, 1968, on
    the unital).  Of the sorted projective points, (0, 0, 1) is isotropic;
    no (0, 1, c) is, as its form value is 1; and (1, a, b) is exactly when
    b + b^q0 + a^(q0+1) = 0.  For each a, the trace b -> b + b^q0 maps
    GF(q0^2) onto GF(q0) q0-to-one, and a^(q0+1) lies in GF(q0), so q0^3
    pairs (a, b) qualify.
    """
    F = FieldTable(q0 * q0)
    pts = [(0, 0, 1)] + [
        (1, a, b)
        for a, b in itertools.product(F.elements(), repeat=2)
        if F.add(F.add(b, F.power(b, q0)), F.power(a, q0 + 1)) == 0
    ]
    if len(pts) != q0**3 + 1:
        raise ArithmeticError(f"{len(pts)} isotropic points, expected {q0**3 + 1}")
    return tuple(pts)


# ---------------------------------------------------------------------------
# permutations


def as_perm(images: Sequence[int]) -> Perm:
    """The permutation with these images, in its degree's type (`Perm`).
    Raises ValueError at degree <= 256 on an image no byte holds."""
    return bytes(images) if len(images) <= _BYTE_DEGREE else tuple(images)


def identity_perm(n: int) -> Perm:
    return _BYTES[:n] if n <= _BYTE_DEGREE else tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    if len(p) > _BYTE_DEGREE:
        return itemgetter(*p)(q)
    return p.translate(q + _PADS[len(q)])


def _multiplier(gens: Sequence[Perm]) -> Callable[[Perm], List[Perm]]:
    """The map x -> [compose(x, g) for g in gens], with each g read once."""
    if len(gens[0]) > _BYTE_DEGREE:
        return lambda x: list(map(itemgetter(*x), gens))
    tables = [g + _PADS[len(g)] for g in gens]
    return lambda x: [x.translate(table) for table in tables]


def _set_mover(gens: Sequence[Perm]) -> Callable[[bytes], List[bytes]]:
    """The map from a point set's indicator to its images' indicators under
    each of gens, in order, with each g inverted once.

    The indicator of a set is bytes of the degree's length whose byte p is
    1 exactly when p is in the set.  Its image under g has byte j equal to
    byte g^-1(j) of the indicator: one `bytes.translate` of g^-1 through the
    indicator as its table, and a gather by itemgetter above degree 256,
    the split `compose` makes."""
    invs = [inverse_perm(as_perm(g)) for g in gens]
    if len(invs[0]) > _BYTE_DEGREE:
        getters = [itemgetter(*g) for g in invs]
        return lambda ind: [bytes(get(ind)) for get in getters]
    pad = _PADS[len(invs[0])]

    def images(ind: bytes) -> List[bytes]:
        table = ind + pad
        return [g.translate(table) for g in invs]

    return images


def _indicator(points: Iterable[int], degree: int) -> bytes:
    """The indicator of a point set (`_set_mover`); ValueError on a point
    outside the domain."""
    ind = bytearray(degree)
    for p in points:
        if not 0 <= p < degree:
            raise ValueError("set contains points outside the domain")
        ind[p] = 1
    return bytes(ind)


def _point_set(ind: bytes) -> FrozenSet[int]:
    """The point set of an indicator."""
    return frozenset(itertools.compress(range(len(ind)), ind))


def inverse_perm(p: Perm) -> Perm:
    if len(p) > _BYTE_DEGREE:
        out = [0] * len(p)
        for i, image in enumerate(p):
            out[image] = i
        return tuple(out)
    return bytes.maketrans(p, _BYTES[: len(p)])[: len(p)]


def perm_order(p: Perm) -> int:
    n = len(p)
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = p[cur]
            length += 1
        if length > 1:
            g = math.gcd(order, length)
            order = order // g * length
    return order


def _conjugator(g: Perm) -> Callable[[Perm], Perm]:
    """The map x -> g^-1 * x * g (apply g-inverse, then x, then g), with g
    inverted once."""
    g_inv = inverse_perm(g)
    if len(g) > _BYTE_DEGREE:
        return lambda x: compose(compose(g_inv, x), g)
    pad = _PADS[len(g)]
    table = g + pad
    return lambda x: g_inv.translate(x + pad).translate(table)


def _perm_power(p: Perm, e: int) -> Perm:
    """p applied e >= 0 times, by repeated squaring."""
    out = identity_perm(len(p))
    while e:
        if e & 1:
            out = compose(out, p)
        p = compose(p, p)
        e >>= 1
    return out


def _first_moved(p: Perm) -> int:
    return next(i for i, image in enumerate(p) if image != i)


def orbit(
    start: Hashable,
    moves: Callable[[Hashable], Iterable[Hashable]],
    cap: Optional[int] = None,
) -> Optional[Tuple[List[Hashable], List[int]]]:
    """Breadth-first orbit of start, where moves(x) lists x's images, one
    per generator in a fixed order.

    Returns the points in discovery order and, for every point in that
    order and every generator, the discovery index of the image: the
    targets of the walk's edges, generator-major within each point.  None
    as soon as the orbit grows past cap points, so at once for a cap below
    1, as the start is a point of its orbit.
    """
    if cap is not None and cap < 1:
        return None
    index = {start: 0}
    points = [start]
    targets: List[int] = []
    for cur in points:
        for image in moves(cur):
            at = index.get(image)
            if at is None:
                if cap is not None and len(points) >= cap:
                    return None
                at = index[image] = len(points)
                points.append(image)
            targets.append(at)
    return points, targets


def schreier_generators(
    generators: Sequence[Perm], targets: Sequence[int]
) -> Iterator[Perm]:
    """Generators of the stabilizer of an orbit walk's start point.

    targets is what `orbit` returned for a walk whose moves apply these
    generators in order.  Each point's transversal element u is the word
    along the edge that discovered it, so u maps the start to it; every
    other edge, from p by g to t, gives the Schreier generator
    u_p * g * u_t^-1 (Schreier's lemma; Seress, *Permutation Group
    Algorithms*, ch. 4).  The inverse of a new word u_p * g is
    g^-1 * u_p^-1, one product, with each generator inverted once.
    Yielded lazily in edge order, identities left out, so a reader that
    has what it needs stops the replay there.
    """
    ident = identity_perm(len(generators[0]))
    trans, inv = [ident], [ident]
    edges = iter(targets)
    inverses = [inverse_perm(g) for g in generators]
    for u, u_inv in zip(trans, inv):  # both grow while the edges are replayed
        for g, g_inv in zip(generators, inverses):
            word = compose(u, g)
            t = next(edges)
            if t == len(trans):
                trans.append(word)
                inv.append(compose(g_inv, u_inv))
            else:
                s = compose(word, inv[t])
                if s != ident:
                    yield s


class StabChain:
    """Base and strong generating set, built by deterministic Schreier-Sims.

    Level i holds the base point base[i], the strong generators fixing
    base[0..i-1], and a transversal of their orbit of base[i]: for each
    orbit point beta an element u with u[base[i]] == beta, and its inverse.
    A strong generator is inverted once, when it is installed, so the
    inverse of each new transversal element u * g is g^-1 * u^-1, one
    product.  The group order is the product of the orbit lengths.
    Generators are added one at a time; one that already sifts to the
    identity is dropped, so a chain also picks a small generating set out
    of a long list.
    """

    def __init__(
        self, degree: int, generators: Iterable[Perm] = (), base: Sequence[int] = ()
    ):
        self.degree = degree
        self.identity = identity_perm(degree)
        self.base: List[int] = []
        self.gens: List[List[Perm]] = []
        self.gens_inv: List[List[Perm]] = []  # the inverses of gens
        self.trans: List[Dict[int, Perm]] = []
        self.inv: List[Dict[int, Perm]] = []
        # Schreier generators (orbit point, generator index) known to sift
        self._checked: List[set] = []
        for point in base:
            self._add_level(point)
        for g in generators:
            self.extend(g)

    def _add_level(self, point: int) -> None:
        self.base.append(point)
        self.gens.append([])
        self.gens_inv.append([])
        self.trans.append({point: self.identity})
        self.inv.append({point: self.identity})
        self._checked.append(set())

    def tail(self) -> "StabChain":
        """The chain of the stabilizer of the first base point."""
        out = StabChain(self.degree)
        out.base = self.base[1:]
        out.gens = [list(g) for g in self.gens[1:]]
        out.gens_inv = [list(g) for g in self.gens_inv[1:]]
        out.trans = [dict(t) for t in self.trans[1:]]
        out.inv = [dict(t) for t in self.inv[1:]]
        out._checked = [set(c) for c in self._checked[1:]]
        return out

    def order(self) -> int:
        out = 1
        for t in self.trans:
            out *= len(t)
        return out

    def sift(self, g: Perm, start: int = 0) -> Tuple[Perm, int]:
        """Strip g level by level; returns the residue and where it stopped."""
        for level in range(start, len(self.base)):
            point = self.base[level]
            beta = g[point]
            if beta == point:
                continue
            inv = self.inv[level].get(beta)
            if inv is None:
                return g, level
            g = compose(g, inv)
        return g, len(self.base)

    def contains(self, g: Sequence[int]) -> bool:
        return self.sift(as_perm(g))[0] == self.identity

    def extend(self, g: Sequence[int]) -> bool:
        """Add g to the group; False if it was a member already."""
        residue, level = self.sift(as_perm(g))
        if residue == self.identity:
            return False
        self._install(residue, 0, level)
        self._complete(level)
        return True

    def _install(self, h: Perm, low: int, high: int) -> None:
        """Make h, which fixes base[0..high-1], a strong generator of levels
        low..high, adding a base point if high is past the base."""
        if high == len(self.base):
            self._add_level(_first_moved(h))
        h_inv = inverse_perm(h)
        for level in range(low, high + 1):
            self.gens[level].append(h)
            self.gens_inv[level].append(h_inv)
            self._grow_orbit(level, h, h_inv)

    def _grow_orbit(self, level: int, new: Perm, new_inv: Perm) -> None:
        trans, inv = self.trans[level], self.inv[level]
        gens = list(zip(self.gens[level], self.gens_inv[level]))
        fresh = []
        for beta in list(trans):
            image = new[beta]
            if image not in trans:
                trans[image] = compose(trans[beta], new)
                inv[image] = compose(new_inv, inv[beta])
                fresh.append(image)
        for beta in fresh:
            for g, g_inv in gens:
                image = g[beta]
                if image not in trans:
                    trans[image] = compose(trans[beta], g)
                    inv[image] = compose(g_inv, inv[beta])
                    fresh.append(image)

    def _complete(self, level: int) -> None:
        """Sift Schreier generators from level up to level 0 until all pass.

        While level i is checked, every deeper level is complete for its own
        generators, so a Schreier generator of level i that sifts to the
        identity through them stays accounted for as those levels grow.  One
        that does not is installed, and checking resumes at the deepest
        level it reached.
        """
        i = level
        while i >= 0:
            i = self._check_level(i)

    def _check_level(self, i: int) -> int:
        trans, inv, checked = self.trans[i], self.inv[i], self._checked[i]
        for beta, u in list(trans.items()):
            for gi, x in enumerate(self.gens[i]):
                if (beta, gi) in checked:
                    continue
                checked.add((beta, gi))
                schreier = compose(compose(u, x), inv[x[beta]])
                if schreier == self.identity:
                    continue
                residue, j = self.sift(schreier, i + 1)
                if residue != self.identity:
                    self._install(residue, i + 1, j)
                    return j
        return i - 1


class ElementIndex(NamedTuple):
    """A listed group's elements by their positions in the sorted list.

    position maps each element to its index; conj[j][i] is the index of
    g^-1 * e_i * g for the j-th generator g of the action; classes[i] is the
    index of the least member of e_i's class; orders[i] is the order of e_i;
    tree is the breadth-first walk that listed them, one (i, parent, j)
    with e_i = e_parent * g_j per non-identity e_i, parents first.
    The tree edges are the walk's edges that discover their targets, and
    conj is read down them by integers alone, as
    g^-1 * e_parent * g_j = (g^-1 * e_parent) * g_j (`element_index`).
    """

    position: Dict[Perm, int]
    conj: Tuple[List[int], ...]
    classes: Tuple[int, ...]
    orders: Tuple[int, ...]
    tree: Tuple[Tuple[int, int, int], ...]

    def normalizer(self, targets: Sequence[int]) -> List[int]:
        """For the targets of a subgroup U's walk under conjugation by the
        generators (`orbit`, from U): the positions of N(U), ascending.
        The walk index of U^e_i is read down the tree (`SubgroupLattice`),
        and e_i normalizes U where it is 0."""
        n, out, kept = len(self.conj), [0] * len(self.orders), [0]
        for i, parent, j in self.tree:
            c = out[i] = targets[out[parent] * n + j]
            if not c:
                kept.append(i)
        return sorted(kept)


class PermAction:
    """A permutation group given by generators on {0, ..., degree-1}."""

    def __init__(
        self, degree: int, generators: Iterable[Sequence[int]], label: str = ""
    ):
        ident, gens = identity_perm(degree), []
        for g in generators:
            g = tuple(g)
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of degree {degree}: {g!r}")
            g = as_perm(g)
            if g != ident and g not in gens:
                gens.append(g)
        if not gens:
            gens = [ident]
        self.degree = degree
        self.generators: Tuple[Perm, ...] = tuple(gens)
        self.label = label
        self._elements: Optional[Tuple[Perm, ...]] = None
        # what listed _elements: discovery indices by value, and edge targets
        self._walk: Tuple[List[int], List[int]] = ([], [])
        self._index: Optional[ElementIndex] = None
        self._lattice: Optional["SubgroupLattice"] = None
        # per prime ell: a Sylow generator x, its walked group, the walk
        # (`_sylow_walk`)
        self._sylow: Dict[int, Tuple[Perm, "PermAction", int, List[int]]] = {}
        # stabilizer chains by first base point; None is the default base
        self._chains: Dict[Optional[int], StabChain] = {}
        self._stabilizers: Dict[int, "PermAction"] = {}
        self._mover: Optional[Callable[[bytes], List[bytes]]] = None

    def __repr__(self) -> str:
        return f"PermAction({self.label or 'unnamed'}, degree={self.degree})"

    def chain(self, point: Optional[int] = None) -> StabChain:
        """The stabilizer chain, built once; with a base starting at point
        if one is given.

        The default base starts at the smallest moved point, so for a
        transitive group point 0 shares the default chain.  A point
        stabilizer instead inherits the rest of its parent's chain.
        """
        chain = self._chains.get(None)
        if chain is None:
            ident = identity_perm(self.degree)
            moved = [_first_moved(g) for g in self.generators if g != ident]
            base = [min(moved)] if moved else []
            chain = StabChain(self.degree, self.generators, base=base)
            self._chains[None] = chain
        if point is None or chain.base[:1] == [point]:
            return chain
        if point not in self._chains:
            self._chains[point] = StabChain(self.degree, self.generators, base=[point])
        return self._chains[point]

    def elements(self, limit: int = 10**6) -> Tuple[Perm, ...]:
        """All group elements, sorted.

        They are listed by the `orbit` walk from the identity under the
        right multiplications x -> x * g_j, and the walk's edge targets are
        kept for `element_index`: the edge from e_p by g_j reaches e_p * g_j,
        and left multiplication follows the walk's tree, as
        g^-1 * e_p * g_j = (g^-1 * e_p) * g_j.  Refuses, before listing
        anything, when the group order exceeds limit.
        """
        order = self.order()
        if order > limit:
            raise RuntimeError(f"group order {order} exceeds element budget {limit}")
        if self._elements is None:
            ident = identity_perm(self.degree)
            listed, targets = orbit(ident, _multiplier(self.generators))
            by_value = sorted(range(len(listed)), key=listed.__getitem__)
            self._elements = tuple(map(listed.__getitem__, by_value))
            self._walk = (by_value, targets)
        return self._elements

    def element_index(self) -> ElementIndex:
        """The sorted element list indexed once (`ElementIndex`), from the
        targets of the walk that listed it, with no permutation product.

        The right-multiplication tables right[j][i] = pos(e_i * g_j) are the
        targets renumbered by position.  An edge is a tree edge exactly when
        its target is the next element the walk discovers, as `orbit` numbers
        points in discovery order.  Left multiplication by g^-1 then follows
        the tree: g^-1 * e_p * g_k = (g^-1 * e_p) * g_k, so from
        pos(g^-1) at the identity each tree edge e_i = e_p * g_k gives
        left[i] = right[k][left[p]], and conj[j][i] = right[j][left[i]] is
        pos(g_j^-1 * e_i * g_j) (the regular representation; Holt, Eick and
        O'Brien, *Handbook of Computational Group Theory*, 2005).  Classes
        are orbits of the conjugation tables, listed in one flat loop as
        `orbits` lists point orbits.
        """
        if self._index is None:
            elements = self.elements()
            by_value, targets = self._walk
            position = {e: i for i, e in enumerate(elements)}
            rank = [0] * len(elements)  # discovery index -> position
            for i, d in enumerate(by_value):
                rank[d] = i
            n = len(self.generators)
            columns = [targets[j::n] for j in range(n)]  # by discovery index
            right = [[rank[col[d]] for d in by_value] for col in columns]
            tree, found = [], 1
            for edge, t in enumerate(targets):
                if t == found:
                    found += 1
                    tree.append((rank[t], rank[edge // n], edge % n))
            conj = []
            for g, table in zip(self.generators, right):
                # left[i] = pos(g^-1 * e_i): pos(g^-1) at the identity, and
                # every other entry is written down the tree
                left = [position[inverse_perm(g)]] * len(elements)
                for i, parent, k in tree:
                    left[i] = right[k][left[parent]]
                conj.append(list(map(table.__getitem__, left)))
            classes, orders = [-1] * len(elements), [0] * len(elements)
            for i, e in enumerate(elements):
                if classes[i] >= 0:
                    continue
                classes[i], d, members = i, perm_order(e), [i]  # i is least
                for x in members:
                    orders[x] = d
                    for table in conj:
                        if classes[table[x]] < 0:
                            classes[table[x]] = i
                            members.append(table[x])
            self._index = ElementIndex(
                position, tuple(conj), tuple(classes), tuple(orders), tuple(tree)
            )
        return self._index

    def order(self) -> int:
        return self.chain().order()

    def contains(self, perm: Sequence[int]) -> bool:
        """Membership by sifting through the stabilizer chain; False for a
        sequence that is no permutation of the domain, checked before it is
        converted to a `Perm`."""
        points = list(range(self.degree))
        return sorted(perm) == points and self.chain().contains(perm)

    def orbit(self, point: int) -> Tuple[int, ...]:
        gens = self.generators
        return tuple(sorted(orbit(point, lambda x: [g[x] for g in gens])[0]))

    def orbits(self) -> Tuple[Tuple[int, ...], ...]:
        """All orbits, each sorted, in order of their least points."""
        gens, seen, out = self.generators, bytearray(self.degree), []
        for start in range(self.degree):
            if seen[start]:
                continue
            seen[start], orb = 1, [start]
            for x in orb:
                for g in gens:
                    if not seen[g[x]]:
                        seen[g[x]] = 1
                        orb.append(g[x])
            out.append(tuple(sorted(orb)))
        return tuple(out)

    def is_transitive(self) -> bool:
        """Exactly when one point's orbit is the whole domain: the default
        chain's level 0, or with no base (a trivial group) the one point."""
        trans = self.chain().trans
        return len(trans[0]) == self.degree if trans else self.degree == 1

    def point_stabilizer(self, point: int) -> "PermAction":
        """Stabilizer as its own action, built once per point: the strong
        generators of the second level of a chain whose base starts at
        point, which also serve as the stabilizer's own chain."""
        stab = self._stabilizers.get(point)
        if stab is None:
            chain = self.chain(point)
            tail = chain.tail()
            gens = tail.gens[0] if tail.base else []
            stab = PermAction(
                self.degree, gens or [chain.identity], label=f"{self.label}_stab{point}"
            )
            if stab.generators == tuple(gens):
                stab._chains[None] = tail
            self._stabilizers[point] = stab
        return stab

    def suborbit_lengths(self, point: int) -> Tuple[int, ...]:
        """Sorted orbit lengths of the stabilizer of point."""
        return tuple(sorted(len(orb) for orb in self.point_stabilizer(point).orbits()))

    def _set_moves(self) -> Callable[[bytes], List[bytes]]:
        """The generators' `_set_mover`, built once."""
        if self._mover is None:
            self._mover = _set_mover(self.generators)
        return self._mover

    def set_images(self, points: Iterable[int]) -> List[FrozenSet[int]]:
        """The image of a point set under each generator, in order."""
        images = self._set_moves()(_indicator(points, self.degree))
        return list(map(_point_set, images))

    def set_orbit(
        self, points: Iterable[int], cap: Optional[int] = None
    ) -> Optional[Tuple[FrozenSet[int], ...]]:
        """Orbit of a point set under the group, sorted canonically, by each
        set's sorted points; None as soon as it grows past cap sets.

        The walk runs on indicators (`_set_mover`), and only the sets found
        are converted.  Sets of one size, as an orbit's are, sort by their
        sorted points as their indicators sort in reverse: at the first
        point where two such sets differ, the set holding it sorts first.
        """
        walk = orbit(_indicator(points, self.degree), self._set_moves(), cap)
        if walk is None:
            return None
        return tuple(map(_point_set, sorted(walk[0], reverse=True)))


# ---------------------------------------------------------------------------
# classical actions


def _linear_matrix_generators(F: FieldTable, n: int) -> List[Matrix]:
    """Transvections and a signed cycle: generators of the special linear group."""
    ones = {(i, i): 1 for i in range(n)}
    gamma = F.generator()
    gens = [_matrix(n, {**ones, (0, 1): F.power(gamma, j)}) for j in range(F.f)]
    cycle = {(i, i + 1): 1 for i in range(n - 1)}
    cycle[n - 1, 0] = 1 if n % 2 == 1 else F.neg(1)
    gens.append(_matrix(n, cycle))
    return gens


def _matrix_point_perm(
    F: FieldTable, A: Matrix, points: Sequence[Tuple[int, ...]], index: Dict
) -> Perm:
    return tuple(index[_normalized(F, _vec_mat(F, x, A))] for x in points)


def _linear_action(n: int, q: int, variant: str) -> PermAction:
    size = (q**n - 1) // (q - 1) if q > 1 else 0  # checked before listing
    if size > 10000:
        raise ValueError(f"projective domain of size {size} too large")
    if variant == "socle.2" and n != 3:
        raise ValueError("point-hyperplane doubling implemented for n = 3 only")
    F = FieldTable(q)
    points = projective_points(F, n)
    index = {x: i for i, x in enumerate(points)}
    mats = _linear_matrix_generators(F, n)
    if variant in ("pgl", "pgammal"):
        mats.append(_matrix(n, {(i, i): 1 for i in range(n)} | {(0, 0): F.generator()}))
    perms = [_matrix_point_perm(F, A, points, index) for A in mats]
    if variant == "pgammal" and F.f > 1:
        frob = (index[_normalized(F, [F.frobenius(e) for e in x])] for x in points)
        perms.append(tuple(frob))
    if variant == "socle.2":
        perms = _point_hyperplane_doubling(F, points, index, perms)
    prefix = {"pgl": "pgl", "pgammal": "pgammal"}.get(variant, "psl")
    suffix = "_2" if variant == "socle.2" else ""
    return PermAction(len(perms[0]), perms, label=f"{prefix}{n}_{q}{suffix}")


def _points_on(F: FieldTable, h: Sequence[int], index: Dict) -> FrozenSet[int]:
    """Indices of the points x with x.h = 0, for h scaled to leading 1.

    With h[k] the leading 1, x.h = x_k + sum over j > k of h_j x_j, so each
    such x is fixed by its other entries y through x_k = -(sum of h_j x_j).
    y is nonzero, or x_k would be zero too, and scaling x scales y, so the
    projective points y of one dimension less give each point once.
    """
    k = h.index(1)
    out = []
    for y in projective_points(F, len(h) - 1):
        dot = functools.reduce(F.add, map(F.mul, h[k + 1 :], y[k:]), 0)
        out.append(index[_normalized(F, (*y[:k], F.neg(dot), *y[k:]))])
    return frozenset(out)


def _point_hyperplane_doubling(
    F: FieldTable, points: Sequence[Tuple[int, ...]], index: Dict, perms: Sequence[Perm]
) -> List[Perm]:
    """The point permutations extended to the hyperplanes, then the swap.

    Index N + i stands for the hyperplane {x : x.h = 0} with h = points[i].
    Each permutation sends it to the hyperplane holding the images of its
    points, so no matrix is inverted.  For the permutation of x -> xA this
    is h -> h A^-T, as x -> xA maps {x : x.h = 0} onto {y : y A^-1 h^T = 0};
    the swap delta conjugates each matrix to its inverse transpose.
    """
    N = len(points)
    hyperplanes = _set_perms(perms, [_points_on(F, h, index) for h in points])
    doubled = [(*g, *(N + i for i in h)) for g, h in zip(perms, hyperplanes)]
    return doubled + [(*range(N, 2 * N), *range(N))]


def _set_perms(perms: Sequence[Perm], sets: Sequence[FrozenSet[int]]) -> List[Perm]:
    """The permutation each of perms induces on a list of point sets that it
    permutes, as positions in that list, read off the sets' indicators
    (`_set_mover`)."""
    keys = [_indicator(s, len(perms[0])) for s in sets]
    index = {key: i for i, key in enumerate(keys)}
    images = list(map(_set_mover(perms), keys))  # images[i][j]: set i under g_j
    return [tuple(index[row[j]] for row in images) for j in range(len(perms))]


@functools.lru_cache(maxsize=None)
def _unitary_matrix_perms(q0: int) -> Tuple[Perm, Perm, Perm, Perm]:
    """A root element x, a torus generator t and the Weyl element w of the
    special unitary group SU_3(q0), on the isotropic points, then the field
    involution x -> x^q0 that socle.2 adjoins; built once per q0.

    Each matrix is written down (Taylor, *The Geometry of the Classical
    Groups*, 1992).  A matrix with rows r_i lies in SU_3(q0) when
    <r_i, r_j> is 1 for i + j = 2 and 0 otherwise, and its determinant is 1:

    - x = ((1, 1, b), (0, 1, -1), (0, 0, 1)) at the first isotropic point
      (1, 1, b).  <r_0, r_0> = b^q0 + 1 + b is 0 as (1, 1, b) is isotropic,
      <r_0, r_1> = (-1)^q0 + 1 is 0 as q0 is odd or -1 = 1, and the other
      entries and the determinant are immediate.
    - t = diag(g, g^(q0-1), g^(-q0)) for the field generator g:
      <r_0, r_2> = g (g^(-q0))^q0 = g^(1-q0^2) = 1, <r_1, r_1> =
      g^((q0-1)(q0+1)) = 1, and the determinant is g^0 = 1.
    - w = antidiag(1, -1, 1): (-1)^(q0+1) = 1, as q0 + 1 is even or
      -1 = 1, and the determinant is -(1)(-1)(1) = 1.
    """
    if q0 > 5:
        raise ValueError("hermitian action supported for q <= 5 only")
    if q0 == 2:
        raise ValueError("the 3-dimensional hermitian group over GF(4) is solvable")
    F = FieldTable(q0 * q0)
    points = hermitian_isotropic_points(q0)
    index = {x: i for i, x in enumerate(points)}
    b = next(x[2] for x in points if x[:2] == (1, 1))
    gamma, minus = F.generator(), F.neg(1)
    root = ((1, 1, b), (0, 1, minus), (0, 0, 1))
    torus = _matrix(
        3, {(0, 0): gamma, (1, 1): F.power(gamma, q0 - 1), (2, 2): F.power(gamma, -q0)}
    )
    weyl = ((0, 0, 1), (0, minus, 0), (1, 0, 0))
    x, t, w = (_matrix_point_perm(F, A, points, index) for A in (root, torus, weyl))
    conj = (index[_normalized(F, [F.power(e, q0) for e in p])] for p in points)
    return x, t, w, tuple(conj)


def _unitary_action(q0: int, variant: str) -> PermAction:
    """The unitary group on isotropic points, generated by t and x w, with
    the field involution f appended to x w for socle.2 (x first, then w).
    These lie in the group, so the chain order certifies that they
    generate it; raises otherwise."""
    x, t, w, f = map(as_perm, _unitary_matrix_perms(q0))
    xw = compose(x, w)
    order = q0**3 * (q0**2 - 1) * (q0**3 + 1) // math.gcd(3, q0 + 1)  # |PSU_3(q0)|
    if variant == "socle.2":
        xw, order = compose(xw, f), 2 * order
    label = f"psu3_{q0}_2" if variant == "socle.2" else f"psu3_{q0}"
    act = PermAction(len(t), (t, xw), label=label)
    if act.order() != order:
        raise RuntimeError(f"{label} generators give order {act.order()}, not {order}")
    return act


def classical_action(family: str, n: int, q: int, variant: str = "socle") -> PermAction:
    """Natural projective action of a classical group.

    family 'linear': projective points, variants socle / pgl / pgammal /
    socle.2 (n = 3 point-hyperplane doubling).  family 'unitary': n must be
    3, isotropic points of the hermitian form, variants socle / socle.2
    (field automorphism adjoined).
    """
    if variant not in ("socle", "pgl", "pgammal", "socle.2"):
        raise ValueError(f"unknown variant {variant!r}")
    if family == "linear":
        if n < 3:
            raise ValueError("need dimension at least 3")
        return _linear_action(n, q, variant)
    if family == "unitary":
        if n != 3:
            raise ValueError("hermitian actions implemented for n = 3 only")
        if variant in ("pgl", "pgammal"):
            raise ValueError(f"variant {variant!r} not available for unitary groups")
        return _unitary_action(q, variant)
    raise ValueError(f"unknown family {family!r}")


def pair_action(action: PermAction) -> PermAction:
    """Induced action on unordered point pairs, in lexicographic order."""
    pairs = list(map(frozenset, itertools.combinations(range(action.degree), 2)))
    perms = _set_perms(action.generators, pairs)
    return PermAction(len(pairs), perms, label=f"{action.label}_pairs")


# ---------------------------------------------------------------------------
# subgroup machinery


def _generating_class(subgroup: PermAction) -> List[Perm]:
    """The smallest class of the subgroup's elements of one order that
    generates it.

    Classes are tried by size, then by order; a chain of the class whose
    order is the subgroup's proves that the class generates it.
    """
    by_order: Dict[int, List[Perm]] = {}
    for e in subgroup.elements():
        by_order.setdefault(perm_order(e), []).append(e)
    order = subgroup.order()
    for d in sorted(by_order, key=lambda d: (len(by_order[d]), d)):
        if StabChain(subgroup.degree, by_order[d]).order() == order:
            return by_order[d]
    raise RuntimeError("the subgroup's elements do not generate it")


def _conjugate_walk(action: PermAction, key: Iterable[Perm]) -> Tuple[int, List[int]]:
    """The breadth-first walk (`orbit`) of a subgroup K's conjugates under
    conjugation by the action's generators, from K's elements of one order
    that generate K: the number of conjugates and the walk's targets.

    Each conjugate K^g is keyed by its elements of that order, which are the
    g-conjugates of K's, so a move conjugates the key; and they generate
    K^g, so no two conjugates share a key.
    """
    maps = [_conjugator(g) for g in action.generators]
    conjugates, targets = orbit(
        frozenset(key), lambda k: [frozenset(map(conj, k)) for conj in maps]
    )
    return len(conjugates), targets


def subgroup_conjugation_action(
    action: PermAction, subgroup: PermAction
) -> PermAction:
    """Action on the conjugates of a subgroup, in discovery order, walked on
    its elements of one order, those of `_generating_class` (Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005)."""
    if subgroup.degree != action.degree:
        raise ValueError(
            f"subgroup of degree {subgroup.degree} in an action of degree "
            f"{action.degree}"
        )
    count, targets = _conjugate_walk(action, _generating_class(subgroup))
    n = len(action.generators)
    images = [targets[j::n] for j in range(n)]
    return PermAction(count, images, label=f"{action.label}_conj")


class SubgroupClass(NamedTuple):
    """One conjugacy class of subgroups: generators of one member, the
    representative, and the number of members.  From the lattice the
    representative is the class's least member, generated greedily by its
    least elements (`SubgroupLattice`); from the Sylow route, a Sylow
    subgroup's normalizer, or the Sylow subgroup itself (`_sylow_route`)."""

    representative: Tuple[Perm, ...]
    size: int


def _closure(
    subgroup: FrozenSet[Perm], gens: Sequence[Perm], cap: int
) -> Optional[FrozenSet[Perm]]:
    """The group generated by gens, which include the subgroup's own
    generators; None as soon as it has more than cap elements.

    The walk runs over right cosets of the subgroup U (Dimino's method; G.
    Butler, *Fundamental Algorithms for Permutation Groups*, 1991).
    The elements found are always a union of cosets U*r, so U*r*s lies
    among them exactly when r*s does: only one representative per coset is
    multiplied by the generators, and a new product brings its whole coset.
    """
    elements = set(subgroup)
    reps = [identity_perm(len(gens[0]))]
    for r in reps:
        for s in gens:
            x = compose(r, s)
            if x not in elements:
                if len(elements) + len(subgroup) > cap:
                    return None
                elements.update(compose(u, x) for u in subgroup)
                reps.append(x)
    return frozenset(elements)


def _all_solvable(m: int) -> bool:
    """True when a theorem makes every group of order dividing m solvable:
    m odd (Feit and Thompson 1963) or m with at most two prime factors
    (Burnside's p^a q^b theorem).  The test is sufficient, not necessary:
    every group of order 42 or 84 is solvable too, yet both answer False."""
    return m % 2 == 1 or len(factorize(m)) <= 2


class _LatticeClass:
    """A class of subgroups that a `SubgroupLattice` opened, at its root U,
    generated by gens: its members' position keys, U first, and the
    targets of their walk (`orbit`); the normalizer of U
    (`ElementIndex.normalizer`) and its least member, each found
    once, when first needed; its representative's generators; and, for
    extending U, the skip map and the closure memo."""

    __slots__ = ("gens", "members", "targets", "normalizer", "least",
                 "representative", "cover", "grown")

    def __init__(
        self, gens: Tuple[Perm, ...], members: List[FrozenSet[int]], targets: List[int]
    ):
        self.gens, self.members, self.targets = gens, members, targets
        self.normalizer: Optional[List[int]] = None  # positions, ascending
        self.least: Optional[List[int]] = None
        self.representative: Optional[Tuple[Perm, ...]] = None
        # y' -> the candidate y with <U, y'> = <U, y>; -1 for y' in U
        self.cover: Dict[int, int] = dict.fromkeys(members[0], -1)
        # y -> the key of <U, y>, or the cap it was found to exceed
        self.grown: Dict[int, Union[FrozenSet[int], int]] = {}


class SubgroupLattice:
    """The conjugacy classes of subgroups of a listed group opened so far by
    cyclic extension (Neubüser 1960; Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, ch. 10), kept to answer every order
    m, one lattice per group (`_lattice_route`).

    A subgroup is keyed by its elements' positions in `element_index`, and
    a class is opened at one member, its root U, by the walk of U's key
    under conjugation through the index's tables, which lists every member.
    Asked for m, the lattice opens the cyclic classes, then extends each
    root U of order below m dividing m by every candidate y, an element of
    order dividing m: <U, y> is closed on permutations with cap m, and a
    subgroup of order dividing m not met before opens a class, rooted at it
    and generated by U's generators and y.  Kept for every m, with the
    classes, the generators y^j of each <y> and each m's answer, are per
    root U a skip map and a closure memo.  As <U, u*y^j> = <U, y> for u in
    U and j prime to |y|, each such y' is mapped to the y extended first,
    and skipped; U's
    own elements map to none.  The memo holds the key of <U, y>, or the cap
    it exceeded, rerun only under a larger cap.  A skip to a y whose order
    does not divide m loses nothing, as |<U, y>| is a multiple of it.

    The cyclic classes: y, in sorted order, opens <y> unless its class of
    elements is covered, and <y> covers the classes of its generators, for
    every m, as y = (x^j)^g with j prime to |x| gives <y> = <x>^g.

    This is complete for every m, whatever was asked before.  A cyclic
    K = <y> of order dividing m is opened by the cyclic classes.  Any other
    K of order dividing m is <K', y> for a maximal subgroup K' > 1 and any
    y in K outside it.  By induction on |K|, K' = U^g for a root U opened by
    the end of the query, and every root of order below m dividing m is
    extended, those opened in it included.  So K^(g^-1) = <U, y^(g^-1)> is
    met: y^(g^-1) is a candidate; if it is skipped for y'', then
    <U, y''> = K^(g^-1), so y'' is a candidate, extended as the skip map
    sends it to itself; a memoized cap is below |K| <= m, so the closure
    is rerun; and a group of order dividing m is opened unless known.

    When `_all_solvable(m)`, only elements y that normalize U extend it.  A
    solvable K that is not cyclic has a normal subgroup K' > 1 of prime
    index, so K = <K', y> for any y in K outside K', and y normalizes K';
    with K' = U^g as above, y^(g^-1) normalizes U.  The skip stays sound,
    as u*y^j normalizes U exactly when y does.  N(U) is read off the walk
    that opened U's class (Holt, Eick and O'Brien, ch. 4), whose
    targets[c*n + j] is the member that member c becomes under g_j, U being
    member 0.  As U^(x*g_j) = (U^x)^(g_j), the member that is U^e is 0 at
    the identity and targets[member[parent]*n + j] at each edge
    (e, parent, j) of `ElementIndex.tree` (`ElementIndex.normalizer`).

    The answer depends on the group and m alone: all classes of order m,
    each once, as members are keyed, each with its size and its least
    member in sorted position order, its representative, generated
    greedily by its least elements: each element not in the group the
    earlier ones generate is kept.  Classes are listed by least member;
    positions follow sorted element order, so sorted position lists
    compare as the sorted members do.  A class of subgroups K whose size
    does not divide |G : K| cannot be a conjugacy class, and raises.
    """

    def __init__(self, action: PermAction):
        self.elements, self.index = action.elements(), action.element_index()
        self.known: set = set()  # every member of every class opened, as keys
        self.classes: List[_LatticeClass] = []
        self.covered = {self.index.classes[0]}  # the identity's: it sorts first
        self.powers: Dict[int, List[Perm]] = {}  # the generators y^j of <y>
        self.answers: Dict[int, Tuple[SubgroupClass, ...]] = {}  # by m

    def _open(self, key: FrozenSet[int], gens: Tuple[Perm, ...]) -> None:
        if key not in self.known:
            members, targets = orbit(key, self._conjugates)
            order = len(self.elements)
            if (order // len(key)) % len(members):
                raise RuntimeError(
                    f"a class of {len(members)} subgroups of order {len(key)} "
                    f"in a group of order {order}: the size must divide the index"
                )
            self.known.update(members)
            self.classes.append(_LatticeClass(gens, members, targets))

    def _conjugates(self, key: FrozenSet[int]) -> List[FrozenSet[int]]:
        """The `orbit` moves of a subgroup's key: its conjugates' keys under
        the generators, read off the index's tables.  Every key opened has
        at least two positions, so itemgetter returns a tuple."""
        images = itemgetter(*key)
        return [frozenset(images(table)) for table in self.index.conj]

    def _extend(
        self, cls: _LatticeClass, candidates: List[int], m: int, solvable: bool
    ) -> None:
        """Extend the class's root U by every candidate not skipped, only
        those in N(U) when solvable, that is `_all_solvable(m)`."""
        elements, position = self.elements, self.index.position.__getitem__
        if solvable:
            if cls.normalizer is None:
                cls.normalizer = self.index.normalizer(cls.targets)
            orders = self.index.orders
            candidates = [i for i in cls.normalizer if m % orders[i] == 0]
        sub = frozenset(map(elements.__getitem__, cls.members[0]))
        cover, grown = cls.cover, cls.grown
        for i in candidates:
            by = cover.get(i)
            if by is None:
                if i not in self.powers:
                    y, d = elements[i], self.index.orders[i]
                    walk = enumerate(itertools.accumulate([y] * (d - 1), compose), 1)
                    self.powers[i] = [z for j, z in walk if math.gcd(j, d) == 1]
                for z in self.powers[i]:
                    for u in sub:
                        cover.setdefault(position(compose(u, z)), i)
            elif by != i:
                continue
            got = grown.get(i)
            if got is None or isinstance(got, int) and got < m:
                closed = _closure(sub, cls.gens + (elements[i],), m)
                got = m if closed is None else frozenset(map(position, closed))
                grown[i] = got
            if not isinstance(got, int) and m % len(got) == 0:
                self._open(got, cls.gens + (elements[i],))

    def _representative(self, cls: _LatticeClass) -> Tuple[Perm, ...]:
        """The class's least member, generated greedily by its least
        elements (`SubgroupLattice`)."""
        if cls.representative is None:
            gens: Tuple[Perm, ...] = ()
            group, size = frozenset([self.elements[0]]), len(cls.least)
            for p in cls.least:
                y = self.elements[p]
                if y in group:
                    continue
                gens += (y,)
                if is_prime(size // len(group)):
                    break  # no group lies strictly between: <gens> is all
                if len(gens) == 1:  # <y> is its powers
                    order = self.index.orders[p]
                    group = frozenset(itertools.accumulate([y] * order, compose))
                else:
                    group = _closure(group, gens, size)
                if len(group) == size:
                    break
            cls.representative = gens
        return cls.representative

    def classes_of_order(self, m: int) -> Tuple[SubgroupClass, ...]:
        """The classes of order-m subgroups, for m > 1 dividing the order,
        by least member; kept per m, as a query opens every class of order
        m and no later query opens another."""
        if m in self.answers:
            return self.answers[m]
        index, elements, orders = self.index, self.elements, self.index.orders
        candidates = [i for i, d in enumerate(orders) if m % d == 0]
        position = index.position.__getitem__
        for i in candidates:
            if index.classes[i] not in self.covered:
                y, d = elements[i], orders[i]
                key = frozenset(map(position, itertools.accumulate([y] * d, compose)))
                self._open(key, (y,))
                self.covered.update(index.classes[p] for p in key if orders[p] == d)
        solvable = _all_solvable(m)
        for cls in self.classes:  # grows while it is read
            size = len(cls.members[0])
            if size < m and m % size == 0:
                self._extend(cls, candidates, m, solvable)
        found = [cls for cls in self.classes if len(cls.members[0]) == m]
        for cls in found:
            if cls.least is None:
                cls.least = min(sorted(key) for key in cls.members)
        found.sort(key=lambda cls: cls.least)
        self.answers[m] = tuple(
            SubgroupClass(self._representative(cls), len(cls.members)) for cls in found
        )
        return self.answers[m]


def _lattice_route(action: PermAction, m: int) -> Tuple[SubgroupClass, ...]:
    """The classes of order-m subgroups, from the action's subgroup lattice
    (`SubgroupLattice`), grown on first use and kept on the action."""
    if action._lattice is None:
        action._lattice = SubgroupLattice(action)
    return action._lattice.classes_of_order(m)


def _element_of_order(action: PermAction, ell: int) -> Perm:
    """An element of order ell, for a prime ell dividing the group order n
    exactly once: w^(n/ell) for the first generator word w, breadth-first,
    where that power is not the identity (one exists by Cauchy's theorem).

    The order o of w divides n.  If ell does not divide o, then o divides
    n/ell and w^(n/ell) = 1.  If it does, (n/ell)/(o/ell) is prime to ell,
    as ell divides n once, so w^(n/ell) is a power prime to ell of
    w^(o/ell), which has order ell: it has order ell and generates the same
    subgroup.  So the word chosen is the first whose order ell divides."""
    ident = identity_perm(action.degree)
    e = action.order() // ell
    seen, queue = {ident}, [ident]
    for cur in queue:
        for g in action.generators:
            word = compose(cur, g)
            if word not in seen:
                x = _perm_power(word, e)
                if x != ident:
                    return x
                seen.add(word)
                queue.append(word)
    raise RuntimeError(f"no element of order {ell} in {action.label or 'the group'}")


def _cyclic_key(y: Perm) -> Perm:
    """For y of prime order: the generator of <y> that takes the smallest
    point y moves to the next smallest point of that cycle.  Two subgroups
    of prime order with the same key are equal."""
    start = _first_moved(y)
    cycle = [start]
    while y[cycle[-1]] != start:
        cycle.append(y[cycle[-1]])
    return _perm_power(y, cycle.index(min(cycle[1:])))


def _sylow_walk(
    action: PermAction, ell: int
) -> Tuple[Perm, PermAction, int, List[int]]:
    """The walk of a Sylow ell-subgroup P = <x>'s conjugates, for a prime
    ell dividing the group order once, made once per action and ell and
    kept for every m (`_sylow_route`): x, the walked group, the number of
    conjugates there and the walk's targets.

    When x fixes exactly one point alpha of the G-orbit of the chain's
    first base point b0, the walk runs in G_b0 instead, the chain's tail
    (`point_stabilizer`), on x conjugated by the level-0 transversal
    element for alpha so that it fixes b0.  N_G(P) permutes the fixed
    points of P and maps every G-orbit to itself, so it fixes alpha, the
    only fixed point of P in that orbit; hence N_G(P) = N_{G_alpha}(P),
    and P is a Sylow subgroup of G_alpha as ell divides |G| once.  So
    |N(P)| = |G_b0| / (number of conjugates in G_b0), the class has
    |G| / |N(P)| members, and the Schreier generators of the walk in G_b0
    generate N(P).  Otherwise the walk runs in G.

    The walk is `_conjugate_walk`, each conjugate keyed by its ell - 1
    nontrivial elements, the powers of x.
    """
    walk = action._sylow.get(ell)
    if walk is None:
        x, group, chain = _element_of_order(action, ell), action, action.chain()
        fixed = [point for point in chain.trans[0] if x[point] == point]
        if len(fixed) == 1:
            (alpha,) = fixed
            x = compose(compose(chain.trans[0][alpha], x), chain.inv[0][alpha])
            group = action.point_stabilizer(chain.base[0])
        powers = itertools.accumulate(itertools.repeat(x, ell - 1), compose)
        walk = action._sylow[ell] = (x, group, *_conjugate_walk(group, powers))
    return walk


def _sylow_route(action: PermAction, m: int) -> Optional[Tuple[SubgroupClass, ...]]:
    """Order-m subgroups when they are exactly the normalizers of a Sylow,
    or the Sylow subgroups themselves.

    Applies when some prime ell divides m and the group order exactly once,
    and the count restrictions force a normal Sylow ell-subgroup in every
    group of order m.  Then each order-m subgroup normalizes a Sylow
    ell-subgroup P of the whole group, hence equals the normalizer of P
    whenever that normalizer has order m; conjugacy of Sylow subgroups makes
    the enumeration complete, and the normalizers form one class.  When
    m = ell, the order-m subgroups are the Sylow ell-subgroups, one class
    of them, whatever the order of N(P).

    No element list is needed: P is generated by one element x, its
    conjugates are the orbit of P under conjugation by the generators
    (`_sylow_walk`, walked once per ell for every m asked), |N(P)| =
    |G| / (number of conjugates) decides conclusiveness, and the Schreier
    generators of that orbit generate N(P), the representative.  They are
    read only until the kept ones generate a group of order m, which is
    then N(P), so no later one would be kept.  A walk of one node means P
    is normal in the walked group, so that group is N(P) and its own
    generators, which are the one node's Schreier generators, are the
    representative: none is read and no chain is built.
    """
    n = action.order()
    for ell, e in factorize(m):
        if e != 1:
            continue
        if (n // ell) % ell == 0:
            continue  # need the full ell-part of the group
        cofactor = m // ell
        forced = all(
            t == 1
            for t in range(1, cofactor + 1)
            if cofactor % t == 0 and t % ell == 1
        )
        if not forced:
            continue
        x, group, count, targets = _sylow_walk(action, ell)
        size = n * count // group.order()  # |G : N(P)|
        if n // size != m:
            if m == ell:
                return (SubgroupClass((_cyclic_key(x),), size),)
            return None  # normalizer bigger than m: route not conclusive
        if count == 1:  # P is normal in the walked group
            return (SubgroupClass(group.generators, size),)
        normalizer, gens = StabChain(action.degree), []
        for s in schreier_generators(group.generators, targets):
            if normalizer.extend(s):
                gens.append(s)
                if normalizer.order() == m:
                    break
        if normalizer.order() != m:
            raise RuntimeError(
                f"Sylow normalizer has order {normalizer.order()}, expected {m}"
            )
        return (SubgroupClass(tuple(gens), size),)
    return None


def subgroups_of_order(action: PermAction, m: int) -> Tuple[SubgroupClass, ...]:
    """Complete list of the conjugacy classes of order-m subgroups, or an error.

    Uses the cyclic-extension lattice search up to conjugacy for groups of
    order at most 1000, whatever m, and the Sylow-normalizer argument for
    larger ones; raises when neither method can certify completeness.  The
    action keeps what both grow, its lattice (`SubgroupLattice`) and each
    prime's Sylow walk (`_sylow_walk`), for every later m; the answer for
    m does not depend on what was asked before.
    """
    order = action.order()
    if m < 1 or order % m != 0:
        return ()
    if m == 1:
        return (SubgroupClass((), 1),)
    if order <= 1000:
        return _lattice_route(action, m)
    sylow = _sylow_route(action, m)
    if sylow is not None:
        return sylow
    raise RuntimeError(
        f"cannot certify a complete order-{m} subgroup enumeration "
        f"in a group of order {order}"
    )


# ---------------------------------------------------------------------------
# builtin actions


def _a8_action() -> PermAction:
    seven = tuple(list((1, 2, 3, 4, 5, 6, 0)) + [7])
    three = (0, 1, 2, 3, 4, 6, 7, 5)
    return PermAction(8, [seven, three], label="psl4_2")


def _projective_line_7(with_scalar: bool) -> PermAction:
    # points 0..6 plus 7 for the point at infinity
    shift = tuple([(i + 1) % 7 for i in range(7)] + [7])
    minus_inv = [0] * 8
    minus_inv[7] = 0
    minus_inv[0] = 7
    for x in range(1, 7):
        minus_inv[x] = (-pow(x, 5, 7)) % 7
    gens = [shift, tuple(minus_inv)]
    label = "psl2_7"
    if with_scalar:
        gens.append(tuple([(3 * i) % 7 for i in range(7)] + [7]))
        label = "pgl2_7"
    return PermAction(8, gens, label=label)


@functools.lru_cache(maxsize=None)
def _written_subgroup(
    base: str, words: Tuple[Tuple[int, ...], ...], orders: Tuple[int, ...], order: int
) -> PermAction:
    """The subgroup of the builtin base generated by these words, each a
    tuple of indices into the base's generators, multiplied left to right;
    built and listed once per recipe.

    orders holds the order of each word, then of the words' product, and
    the chain order must be order; raises unless all of them hold.
    """
    group = builtin_action(base)
    letters = group.generators.__getitem__
    gens = [functools.reduce(compose, map(letters, w)) for w in words]
    found = (*map(perm_order, gens), perm_order(functools.reduce(compose, gens)))
    sub = PermAction(group.degree, gens, label=f"{base}_sub{order}")
    if found != orders or sub.order() != order:
        raise RuntimeError(
            f"{sub.label}: words of orders {found} and chain order {sub.order()}, "
            f"expected {orders} and {order}"
        )
    return sub


# PSL(2,7) in PSU_3(3), shared by both 36-point builtins: a = (g0 g0 g1 g0)^3
# and b = g1 in psu3_3's generators, with a, b and ab of orders 2, 3 and 7
# and <a, b> of chain order 168.  The only subgroups of order 168 in U_3(3)
# are its maximal subgroups L_2(7) of index 36 (Conway et al., *ATLAS of
# Finite Groups*, 1985).
_PSL2_7 = ("psu3_3", ((0, 0, 1, 0) * 3, (1,)), (2, 3, 7), 168)
# The words, orders and order of a Sylow 13-subgroup <g0 g1> of PSL_3(3) or
# PSL_3(3):2, in that base's generators; 13 divides both group orders once.
_SYLOW_13 = (((0, 1),), (13, 13), 13)


def _conjugation_builtin(base: str, subgroup: Tuple, degree: int) -> PermAction:
    """The builtin named base on the conjugates of the subgroup written down
    by `_written_subgroup(*subgroup)`, labelled base_degree; raises unless
    there are degree of them."""
    sub = _written_subgroup(*subgroup)
    act = subgroup_conjugation_action(builtin_action(base), sub)
    act.label = f"{base}_{degree}"
    if act.degree != degree:
        raise RuntimeError(f"{act.label} has degree {act.degree}, expected {degree}")
    return act


_BUILTINS: Dict[str, Callable[[], PermAction]] = {
    "psl3_2": functools.partial(classical_action, "linear", 3, 2, "socle"),
    "psl3_3": functools.partial(classical_action, "linear", 3, 3, "socle"),
    "psl3_3_2": functools.partial(classical_action, "linear", 3, 3, "socle.2"),
    "psl4_2": _a8_action,
    "psl2_7": functools.partial(_projective_line_7, False),
    "pgl2_7": functools.partial(_projective_line_7, True),
    "psu3_3": functools.partial(classical_action, "unitary", 3, 3, "socle"),
    "psu3_3_2": functools.partial(classical_action, "unitary", 3, 3, "socle.2"),
    "psu3_3_36": functools.partial(_conjugation_builtin, "psu3_3", _PSL2_7, 36),
    "psu3_3_2_36": functools.partial(_conjugation_builtin, "psu3_3_2", _PSL2_7, 36),
    "psl3_3_144": functools.partial(
        _conjugation_builtin, "psl3_3", ("psl3_3", *_SYLOW_13), 144
    ),
    "psl3_3_2_144": functools.partial(
        _conjugation_builtin, "psl3_3_2", ("psl3_3_2", *_SYLOW_13), 144
    ),
}

BUILTIN_NAMES = tuple(_BUILTINS)


@functools.lru_cache(maxsize=None)
def builtin_action(name: str) -> PermAction:
    """Named ready-made actions used by the command line and the searches."""
    build = _BUILTINS.get(name)
    if build is None:
        raise ValueError(f"unknown builtin action {name!r}")
    return build()


# ---------------------------------------------------------------------------
# file format: "degree N" then one line of N images per generator


def load_action(path: str, label: str = "") -> PermAction:
    degree = None
    gens: List[Perm] = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if degree is None:
                parts = line.split()
                if len(parts) != 2 or parts[0] != "degree":
                    raise ValueError(f"expected 'degree N' header, got {line!r}")
                degree = int(parts[1])
                if degree < 1:
                    raise ValueError("degree must be positive")
                continue
            images = tuple(int(tok) for tok in line.split())
            if len(images) != degree:
                raise ValueError(
                    f"generator line has {len(images)} entries, expected {degree}"
                )
            gens.append(images)
    if degree is None:
        raise ValueError(f"no 'degree N' header in {path}")
    if not gens:
        raise ValueError(f"no generator lines after the header in {path}")
    return PermAction(
        degree, gens, label=label or os.path.splitext(os.path.basename(path))[0]
    )


def save_action(action: PermAction, path: str) -> None:
    """Write the action as `load_action` reads it, the label in a comment;
    raises ValueError, before opening the file, on a label holding a line
    break, which would end that comment."""
    if "\n" in action.label or "\r" in action.label:
        raise ValueError(f"label {action.label!r} holds a line break")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# generators of {action.label or 'a permutation group'}\n")
        handle.write(f"degree {action.degree}\n")
        for g in action.generators:
            handle.write(" ".join(str(i) for i in g) + "\n")
