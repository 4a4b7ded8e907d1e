"""Reference helpers that only the tests use: the order formulas and
product bounds written out term by term, a point stabilizer listed
element by element, field addition digit by digit, the action on a
subgroup's conjugates by conjugating every element, projective points
by normalizing every vector, and the unitary root subgroup by trying
every matrix.  The package computes the same quantities another way, so
these stay independent oracles for it."""

import itertools
from fractions import Fraction


def q_product(q, terms):
    """Product of (q^j - eps) over the given (j, eps) pairs.

    Every factor must come out positive; eps is normally +1 or -1 (the
    unitary order formulas use eps = (-1)^j).  Rejects q < 2.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2: {q}")
    out = 1
    for j, eps in terms:
        term = q**j - eps
        if term <= 0:
            raise ValueError(f"nonpositive factor q^{j} - {eps} for q={q}")
        out *= term
    return out


def prod_one_minus_inv_powers(q, a):
    """prod_{j=1..a} (1 - q^-j) as an exact Fraction."""
    out = Fraction(1)
    for j in range(1, a + 1):
        out *= 1 - Fraction(1, q**j)
    return out


def prod_one_minus_neg_inv_powers(q, a):
    """prod_{j=1..a} (1 - (-q)^-j) as an exact Fraction."""
    out = Fraction(1)
    for j in range(1, a + 1):
        out *= 1 - Fraction(1, (-q) ** j)
    return out


def stabilizer_elements(action, point):
    """The elements of the action that fix point, from its element list."""
    return tuple(e for e in action.elements() if e[point] == point)


def digit_add(p, a, b):
    """a + b in GF(p^f), each element read as its base-p digits."""
    out, shift = 0, 1
    while a or b:
        out += (a % p + b % p) % p * shift
        a, b, shift = a // p, b // p, shift * p
    return out


def digit_neg(p, a):
    """-a in GF(p^f), digit by digit."""
    out, shift = 0, 1
    while a:
        out += (-a) % p * shift
        a, shift = a // p, shift * p
    return out


def conjugation_images(action, elements):
    """The generators' images on the conjugates of the subgroup with these
    elements, in breadth-first discovery order: each move conjugates every
    element of a conjugate by one generator g, i -> g[x[g^-1[i]]]."""
    start = frozenset(elements)
    index, walk = {start: 0}, [start]
    images = [[] for _ in action.generators]
    for sub in walk:
        for g, image in zip(action.generators, images):
            g_inv = sorted(range(len(g)), key=g.__getitem__)
            conj = frozenset(tuple(g[x[j]] for j in g_inv) for x in sub)
            if conj not in index:
                index[conj] = len(walk)
                walk.append(conj)
            image.append(index[conj])
    return [tuple(image) for image in images]


def normalized_projective_points(F, n):
    """Every nonzero vector of GF(q)^n scaled to leading coefficient 1,
    collected into a set and sorted."""
    points = set()
    for vec in itertools.product(range(F.q), repeat=n):
        if any(vec):
            scale = F.inv(next(e for e in vec if e))
            points.add(tuple(F.mul(scale, e) for e in vec))
    return tuple(sorted(points))


def root_subgroup_by_search(F, is_unitary):
    """Every upper unitriangular ((1, a, b), (0, 1, c), (0, 0, 1)) that
    is_unitary accepts, trying all q^3 choices of (a, b, c) in order."""
    return [
        A
        for a, b, c in itertools.product(range(F.q), repeat=3)
        for A in [((1, a, b), (0, 1, c), (0, 0, 1))]
        if is_unitary(A)
    ]
