"""Reference helpers that only the tests use: the order formulas and
product bounds written out term by term, a point stabilizer listed
element by element, field addition digit by digit, the action on a
subgroup's conjugates by conjugating every element, the conjugates of a
subgroup of prime order each kept as a whole canonical generator, the
Sylow route with its walk in the whole group, projective points by
normalizing every vector, the hermitian form and the special unitary
test entry by entry, unitary matrices by trying every matrix of a shape,
hyperplane images by the inverse transpose, the orbit unions of a size
by a full descent, the orbits of a group by numbered breadth-first
walks, the subdegree quotas of a union by counting orbit numbers,
Schreier generators with every transversal word inverted on its own,
point set orbits walked on frozensets, a
block set's pair multiplicity by counting every pair of every block,
permutation products, inverses, conjugates, powers and orders on tuples
one image at a time, the orbits of point pairs by walking pairs of
points, the element index's classes by one orbit walk per class, and the
lattice route that grows every order m's classes afresh.  The package
computes the same quantities another way, so these stay independent
oracles for it."""

import functools
import itertools
import math
from collections import Counter
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


def cyclic_key(y):
    """For y of prime order: the generator of <y> that takes the smallest
    point y moves to the next smallest point of that cycle, as a power of
    y built one factor at a time."""
    start = next(i for i, image in enumerate(y) if image != i)
    cycle = [start]
    while y[cycle[-1]] != start:
        cycle.append(y[cycle[-1]])
    out = tuple(range(len(y)))
    for _ in range(cycle.index(min(cycle[1:]))):
        out = tuple(y[i] for i in out)
    return out


def cyclic_key_walk(action, x):
    """The conjugates of <x>, for x of prime order, breadth-first under
    conjugation by the generators, each kept as its `cyclic_key`.  Returns
    those keys in discovery order and the walk's targets, generator-major
    within each conjugate."""
    inverses = [sorted(range(len(g)), key=g.__getitem__) for g in action.generators]
    start = cyclic_key(x)
    index, walk, targets = {start: 0}, [start], []
    for y in walk:
        for g, g_inv in zip(action.generators, inverses):
            key = cyclic_key(tuple(g[y[j]] for j in g_inv))
            if key not in index:
                index[key] = len(walk)
                walk.append(key)
            targets.append(index[key])
    return walk, targets


def element_of_order(action, ell):
    """The first element, breadth-first over generator words, whose order
    the prime ell divides, raised to its order over ell."""
    ident = tuple(range(action.degree))
    seen, queue = {ident}, [ident]
    for cur in queue:
        for g in action.generators:
            word = tuple(g[i] for i in cur)
            if word in seen:
                continue
            order = tuple_order(word)
            if order % ell == 0:
                return tuple_power(word, order // ell)
            seen.add(word)
            queue.append(word)
    raise ValueError(f"no element of order {ell}")


def whole_group_sylow_route(action, orders):
    """The Sylow route with every walk made in the whole group: for each m
    in orders, (representative, size, x) or None.

    The route takes the first prime ell that divides m once and the group
    order once, and for which every divisor t > 1 of m / ell has t % ell
    != 1; it answers None when there is none.  x is `element_of_order` for
    ell, and its conjugates are walked by `cyclic_key_walk`.  When the
    normalizer has order m, the representative is the Schreier generators
    of that walk, from `schreier_generators_inverting_words`, each kept if
    the kept ones do not generate it yet, read until they generate m
    elements; when m == ell, it is the start of the walk alone; otherwise
    the answer is None.  The size is the number of conjugates.  Each
    prime's walk is made once."""
    n, walks, out = action.order(), {}, {}

    def closure(gens):
        ident = tuple(range(action.degree))
        seen, queue = {ident}, [ident]
        for cur in queue:
            for g in gens:
                nxt = tuple(g[i] for i in cur)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    for m in orders:
        out[m], rest, primes = None, m, []
        for p in range(2, m + 1):
            if rest % p == 0:
                primes.append(p)
                while rest % p == 0:
                    rest //= p
        for ell in primes:
            cofactor = m // ell
            if cofactor % ell == 0 or (n // ell) % ell == 0:
                continue
            if any(cofactor % t == 0 and t % ell == 1 for t in range(2, cofactor + 1)):
                continue
            if ell not in walks:
                x = element_of_order(action, ell)
                walks[ell] = (x,) + cyclic_key_walk(action, x)
            x, conjugates, targets = walks[ell]
            size = len(conjugates)
            if n // size == m:
                kept, group = [], {tuple(range(action.degree))}
                for s in schreier_generators_inverting_words(action.generators, targets):
                    if s not in group:
                        kept.append(s)
                        group = closure(kept)
                        if len(group) == m:
                            break
                assert len(group) == m
                out[m] = (tuple(kept), size, x)
            elif m == ell:
                out[m] = ((conjugates[0],), size, x)
            break
    return out


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


def hermitian_form(F, q0, x, y):
    """<x, y> = x0 y2^q0 + x1 y1^q0 + x2 y0^q0 on GF(q0^2)^3."""
    terms = (F.mul(x[i], F.power(y[2 - i], q0)) for i in range(3))
    return functools.reduce(F.add, terms, 0)


def determinant(F, A):
    """Determinant of a square matrix, summed over all permutations."""
    n, det = len(A), 0
    for perm in itertools.permutations(range(n)):
        term = functools.reduce(F.mul, (A[i][perm[i]] for i in range(n)), 1)
        odd = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        det = F.add(det, F.neg(term) if odd % 2 else term)
    return det


def is_special_unitary(F, q0, A):
    """Whether the 3 x 3 matrix A preserves the hermitian form, row i
    against row j giving 1 when i + j = 2 and 0 otherwise, and has
    determinant one."""
    return all(
        hermitian_form(F, q0, A[i], A[j]) == (1 if i + j == 2 else 0)
        for i, j in itertools.product(range(3), repeat=2)
    ) and determinant(F, A) == 1


def monomial_by_search(F, shape, is_unitary):
    """Every matrix shape(a, b, c) that is_unitary accepts, trying all
    (q - 1)^3 choices of nonzero (a, b, c) in order."""
    return [
        A
        for a, b, c in itertools.product(range(1, F.q), repeat=3)
        for A in [shape(a, b, c)]
        if is_unitary(A)
    ]


def hyperplane_images(F, points, A):
    """For each coefficient vector h in points, the index of h A^-T scaled
    to leading coefficient 1: where x -> xA sends the hyperplane
    {x : x.h = 0}.  A is 3 x 3; A^-T is its cofactor matrix over det(A)."""
    scale = F.inv(determinant(F, A))

    def cofactor(i, j):
        a, b = (i + 1) % 3, (i + 2) % 3
        c, d = (j + 1) % 3, (j + 2) % 3
        minor = F.add(F.mul(A[a][c], A[b][d]), F.neg(F.mul(A[a][d], A[b][c])))
        return F.mul(scale, minor)

    inv_t = [[cofactor(i, j) for j in range(3)] for i in range(3)]
    index = {x: i for i, x in enumerate(points)}
    out = []
    for h in points:
        image = [
            functools.reduce(F.add, (F.mul(h[i], inv_t[i][j]) for i in range(3)), 0)
            for j in range(3)
        ]
        lead = F.inv(next(e for e in image if e))
        out.append(index[tuple(F.mul(lead, e) for e in image)])
    return out


def orbit_unions(orbits, forced, target):
    """Every union of the orbits with target points that contains the forced
    ones: a descent that takes or leaves out each other orbit, largest
    first, and stops once the orbits left cannot make up the rest."""
    base = [p for orb in forced for p in orb]
    free = sorted((o for o in orbits if o not in forced), key=lambda o: (-len(o), o))
    found = []

    def descend(idx, remaining, chosen):
        if remaining == 0:
            found.append(frozenset(base + [p for orb in chosen for p in orb]))
        elif remaining > 0 and sum(len(o) for o in free[idx:]) >= remaining:
            descend(idx + 1, remaining - len(free[idx]), chosen + [free[idx]])
            descend(idx + 1, remaining, chosen)

    descend(0, target - len(base), [])
    return found


def orbits_by_walks(generators, degree):
    """The orbits of the points 0..degree-1 under the generators, each a
    sorted tuple, by breadth-first walks that number the points they
    reach: one from the least point not yet in an orbit, until none is
    left."""
    left, out = set(range(degree)), []
    while left:
        start = min(left)
        index, points = {start: 0}, [start]
        for cur in points:
            for g in generators:
                if g[cur] not in index:
                    index[g[cur]] = len(points)
                    points.append(g[cur])
        out.append(tuple(sorted(points)))
        left -= set(points)
    return tuple(out)


def quotas_met_by_counting(label, want, to_zero, union):
    """The subdegree test on a union: at each of its points p, the union's
    image under to_zero[p] meets each orbit number as often as want says,
    by counting the orbit numbers of the image."""
    return all(
        Counter(label[to_zero[p][q]] for q in union) == want for p in union
    )


def schreier_generators_inverting_words(generators, targets):
    """The Schreier generators u_p * g * u_t^-1 of an orbit walk, in edge
    order, identities left out, as a list: each transversal word u is built
    along the edge that discovered its point and inverted on its own."""
    ident = tuple(range(len(generators[0])))
    trans, inv, out = [ident], [ident], []
    edges = iter(targets)
    for u in trans:
        for g in generators:
            word = tuple(g[i] for i in u)
            t = next(edges)
            if t == len(trans):
                trans.append(word)
                inv.append(tuple(sorted(range(len(word)), key=word.__getitem__)))
            else:
                s = tuple(inv[t][i] for i in word)
                if s != ident:
                    out.append(s)
    return out


def pair_coverage_by_counting(blocks, v):
    """The number of blocks holding each pair of the v points, by counting
    every pair of every block; None unless it is one number for all pairs,
    some pair being uncovered included."""
    counts = Counter()
    for block in blocks:
        counts.update(itertools.combinations(sorted(block), 2))
    if len(counts) != v * (v - 1) // 2:
        return None
    values = set(counts.values())
    return values.pop() if len(values) == 1 else None


def tuple_compose(p, q):
    """p first, then q, on tuples: i -> q[p[i]]."""
    return tuple(q[p[i]] for i in range(len(p)))


def tuple_inverse(p):
    """The inverse of p, as the points sorted by their images."""
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def tuple_conjugate(x, g):
    """x conjugated by g, i -> g[x[g^-1[i]]]."""
    g_inv = tuple_inverse(g)
    return tuple(g[x[g_inv[i]]] for i in range(len(x)))


def tuple_power(p, e):
    """p applied e >= 0 times, one factor at a time."""
    out = tuple(range(len(p)))
    for _ in range(e):
        out = tuple_compose(out, p)
    return out


def tuple_order(p):
    """The least common multiple of the lengths of p's cycles, each cycle
    collected as a set."""
    left, lengths = set(range(len(p))), []
    while left:
        cycle, point = set(), min(left)
        while point not in cycle:
            cycle.add(point)
            point = p[point]
        lengths.append(len(cycle))
        left -= cycle
    return math.lcm(*lengths) if lengths else 1


def pair_orbit_lengths(generators, degree):
    """Sorted orbit lengths of the unordered point pairs under the
    generators, each orbit walked pair by pair."""
    seen, lengths = set(), []
    for pair in itertools.combinations(range(degree), 2):
        start = frozenset(pair)
        if start in seen:
            continue
        seen.add(start)
        walk = [start]
        for cur in walk:
            for g in generators:
                image = frozenset(g[i] for i in cur)
                if image not in seen:
                    seen.add(image)
                    walk.append(image)
        lengths.append(len(walk))
    return sorted(lengths)


def set_images_by_points(generators, points):
    """A point set's image under each generator, as a frozenset built
    point by point."""
    return [frozenset(g[p] for p in points) for g in generators]


def set_orbit_by_frozensets(action, points, cap=None):
    """The orbit of a point set walked on frozensets (`orbit`), each image
    built point by point: None once it grows past cap sets, else sorted by
    each set's sorted points."""
    from flagsieve.permgroup import orbit

    gens = action.generators
    walk = orbit(frozenset(points), lambda s: set_images_by_points(gens, s), cap)
    return None if walk is None else tuple(sorted(walk[0], key=sorted))


def element_classes_by_walks(group):
    """The classes and orders of the element index, each class found by
    one `orbit` walk under the conjugation tables from its least member:
    classes[i] is the position of the least member of e_i's class, and
    orders[i] the order of e_i."""
    from flagsieve.permgroup import orbit, perm_order

    elements, conj = group.elements(), group.element_index().conj
    classes, orders = [-1] * len(elements), [0] * len(elements)
    for i, e in enumerate(elements):
        if classes[i] < 0:
            d = perm_order(e)
            for x in orbit(i, lambda x: [table[x] for table in conj])[0]:
                classes[x], orders[x] = i, d
    return tuple(classes), tuple(orders)


def lattice_route_per_m(action, m):
    """The classes of order-m subgroups, m > 1, grown afresh by cyclic
    extension for this m alone, as (least member, representative
    generators, size) by least member; the least member is the sorted
    list of its element positions.

    Each class representative of order below m dividing m is extended by
    every element of order dividing m that was not met as u*y^j for an
    element y it was extended by, and with u in it and j prime to the
    order of y; only by its normalizer when every group of order dividing
    m is solvable.  The cyclic classes are opened once per class of
    elements.  Nothing is kept between calls."""
    from flagsieve.permgroup import _all_solvable, _closure, compose, orbit

    order = action.order()
    elements, index = action.elements(), action.element_index()
    candidates = [i for i, d in enumerate(index.orders) if m % d == 0]
    normalizers_only = _all_solvable(m)
    position = index.position.__getitem__

    def moves(key):
        return [frozenset(table[i] for i in key) for table in index.conj]

    known, reps, classes, powers = set(), [], [], {}

    def open_class(grown, gens):
        key = frozenset(map(position, grown))
        if key not in known:
            members, walked = orbit(key, moves)
            assert (order // len(grown)) % len(members) == 0
            known.update(members)
            reps.append((grown, gens, walked))
            if len(grown) == m:
                least = min(sorted(k) for k in members)
                classes.append((least, gens, len(members)))
        return key

    covered = {index.classes[0]}
    for i in candidates:
        if index.classes[i] not in covered:
            y, d = elements[i], index.orders[i]
            key = open_class(frozenset(itertools.accumulate([y] * d, compose)), (y,))
            covered.update(index.classes[p] for p in key if index.orders[p] == d)
    for sub, gens, targets in reps:
        if len(sub) == m:
            continue
        tried = set(sub)
        normalizer = set(index.normalizer(targets)) if normalizers_only else None
        for i in candidates:
            y, d = elements[i], index.orders[i]
            if normalizer is not None and i not in normalizer or y in tried:
                continue
            if i not in powers:
                walk = enumerate(itertools.accumulate([y] * (d - 1), compose), 1)
                powers[i] = [z for j, z in walk if math.gcd(j, d) == 1]
            tried.update(compose(u, z) for u in sub for z in powers[i])
            grown = _closure(sub, gens + (y,), m)
            if grown is not None and m % len(grown) == 0:
                open_class(grown, gens + (y,))
    return sorted(classes, key=lambda cls: cls[0])
