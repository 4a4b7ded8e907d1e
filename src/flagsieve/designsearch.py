"""Exhaustive flag-transitive 2-design searches over concrete group actions.

Two complementary strategies cover the search space completely.

k-orbit enumeration partitions all k-subsets of the point set into group
orbits and keeps the orbits that form 2-designs; this is feasible whenever
C(v, k) is modest and needs no subgroup theory at all.

The stabilizer search works from the parameter tuple instead.  For a
flag-transitive design the stabilizer of a flag (point, block) has order
|G| / (v*r), so every block through a fixed point is a union of orbits of
such a subgroup; enumerating the subgroups completely (see
permgroup.subgroups_of_order) and testing every orbit union of size k of
one subgroup per conjugacy class makes the search exhaustive, since
conjugate subgroups give the same block sets.  When the flag stabilizer
is trivial that route degenerates, and the search switches to block
stabilizers of order |G| / b = k, which are regular on their blocks: each
candidate is one orbit of length k (see `stabilizer_search`).  Every block
of a flag-transitive design meets the subdegree identity
r * |B & Delta| = lambda * |Delta| at each of its points beta, on each
orbit Delta of G_0 after taking beta to 0.  At 0 that is a quota on each
Delta: the flag route builds only unions meeting the quotas, both count
all unions of size k by a subset sum, and a candidate that meets the
identity at every point has its G-orbit walked.  An orbit of b blocks is
then decided by verify_design alone, which counts every pair of every
block and checks flag-transitivity; the screen already makes lambda
constant on such an orbit (see `_candidate_design`).  Each design found is
verified once: a later union spanning it is recognized by its canonical
block set.
Either way the result carries the counts of what was enumerated: |G|,
and each class of candidate subgroups with its size and its
representative's union count.  The certificate, the text saying why the
enumeration was complete, is rendered from them (`SearchResult.certificate`);
or the subgroup enumeration raises and no claim is made.

Block orbits come from permgroup's one walk on point sets
(`PermAction.set_orbit`), and so does every flag-transitivity check: one
walk of the point stabilizer G_0 over the blocks through the point 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import (
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .permgroup import PermAction, subgroups_of_order
from .sieve import DesignParams, check_basic

__all__ = [
    "DesignRecord",
    "SearchResult",
    "VerifyReport",
    "korbit_designs",
    "hypothesis_filter",
    "stabilizer_search",
    "verify_design",
    "save_design",
    "load_design",
]

BlockSet = Tuple[FrozenSet[int], ...]

_KORBIT_LIMIT = 10**7
_UNION_LIMIT = 10**6


def _block_key(blocks: BlockSet) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(sorted(b)) for b in blocks)


@dataclass(frozen=True)
class DesignRecord:
    """One concrete 2-design found under a group action."""

    group: str
    params: DesignParams
    blocks: BlockSet
    flag_transitive: bool


@dataclass(frozen=True)
class SearchResult:
    """What an exhaustive search enumerated, and the designs it found.

    order is |G|; classes holds, per conjugacy class of candidate
    subgroups in class order, its size and the number of orbit unions of
    size k of its representative.  The route follows from the parameters
    and |G|: a flag count v*r that does not divide |G| kills the search,
    |G| > v*r takes the flag route with m = |G| / (v*r), and |G| = v*r the
    block route over subgroups of order |G| / b.  A search certifies or
    raises, so every result is exhaustive.
    """

    group: str
    params: DesignParams
    designs: Tuple[DesignRecord, ...]
    order: int
    classes: Tuple[Tuple[int, int], ...]

    exhaustive: ClassVar[bool] = True

    @property
    def certificate(self) -> Tuple[Tuple[str, str], ...]:
        """Why the enumeration was complete, as (name, text) pairs, written
        from the counts."""
        v, b, r, k, _ = self.params.as_tuple()
        if self.order % (v * r):
            kill = (
                f"the flag count v*r = {v * r} does not divide |G| = {self.order}: "
                "no flag-transitive action is possible"
            )
            return (("flag-count", kill),)
        m = self.order // (v * r)
        enumerated = (
            f"complete enumeration: {sum(size for size, _ in self.classes)} "
            f"subgroups of order {m if m > 1 else self.order // b}"
        )
        classes = f"({len(self.classes)} conjugacy classes)"
        unions = sum(size * n if m > 1 else n for size, n in self.classes)
        tested = f"tested {unions} orbit unions of size {k}"
        if m > 1:
            candidates = (
                "flag-stabilizer-candidates",
                f"{enumerated} in the point stabilizer {classes}; every block "
                "through the base point is a union of orbits of one of them",
            )
        else:
            candidates = (
                "block-stabilizer-candidates",
                "trivial flag stabilizer: searching block stabilizers instead; "
                f"{enumerated} {classes}, one representative tested per class "
                "since conjugate stabilizers give translated designs",
            )
        if m > 1 and self.classes:  # sorted, as the classes follow the labels
            breakdown = " + ".join(f"{n} x {size}" for size, n in sorted(self.classes))
            tested += (
                f" ({breakdown}: unions of one representative per class times "
                "the class size; conjugate members give the same block sets, "
                "so only the representatives' unions were enumerated)"
            )
        outcome = (
            f"{len(self.designs)} flag-transitive design(s) with these parameters"
            if self.designs
            else "no flag-transitive design with these parameters admits this group"
        )
        return (
            ("flag-stabilizer-order", f"|G| / (v*r) = {m}"),
            candidates,
            ("candidate-blocks", tested),
            ("outcome", outcome),
        )


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    params: Optional[DesignParams]
    flag_transitive: bool
    problems: Tuple[str, ...]


def _canonical_blocks(blocks: Iterable[FrozenSet[int]]) -> BlockSet:
    return tuple(sorted((frozenset(b) for b in blocks), key=sorted))


def _pair_coverage(blocks: Sequence[FrozenSet[int]], v: int) -> Optional[int]:
    """Common pair multiplicity, or None if it is not constant or some pair
    is uncovered.

    Each point gets the bit set of the blocks that hold it, bit t for the
    t-th block, so a pair lies in as many blocks as the two points' sets
    share bits.
    """
    through = [0] * v
    for t, block in enumerate(blocks):
        for p in block:
            through[p] |= 1 << t
    counts = {
        (x & y).bit_count() for i, x in enumerate(through) for y in through[i + 1 :]
    }
    return counts.pop() if len(counts) == 1 and 0 not in counts else None


def _flag_transitive(
    action: PermAction, blocks: Iterable[FrozenSet[int]], r: int
) -> bool:
    """Is the group transitive on the flags of a G-invariant block set in
    which every point lies on r >= 1 blocks?

    A group transitive on the flags is transitive on the points, since
    every point lies on a block.  A point-transitive group is
    flag-transitive exactly when G_0 is transitive on the blocks through
    0: flags (x, B) and (y, C) go by elements g, h with x^g = y^h = 0 to
    the flags (0, B^g) and (0, C^h), and an element of G_0 maps B^g to
    C^h.  So one walk of G_0 from one block through 0, capped at the r
    blocks through 0, decides it.
    """
    if not action.is_transitive():
        return False
    start = next(block for block in blocks if 0 in block)
    walk = action.point_stabilizer(0).set_orbit(start, r)
    return walk is not None and len(walk) == r


def korbit_designs(
    action: PermAction, k: int, cap: int = _KORBIT_LIMIT
) -> Tuple[DesignRecord, ...]:
    """All 2-designs whose block set is a single orbit on k-subsets.

    Refuses, before enumerating anything, when C(v, k) exceeds cap.  Each
    orbit is decided by verify_design: it is a design exactly when the
    report has parameters, and flag-transitive as the report says.
    """
    v = action.degree
    if not 2 <= k <= v:
        raise ValueError(f"block size {k} out of range for degree {v}")
    count = math.comb(v, k)
    if count > cap:
        raise ValueError(f"C({v},{k}) = {count} exceeds the orbit budget {cap}")
    seen: set = set()
    records: List[DesignRecord] = []
    for combo in combinations(range(v), k):
        key = frozenset(combo)
        if key in seen:
            continue
        blocks = action.set_orbit(key)  # sorted canonically
        seen.update(blocks)
        report = verify_design(action, blocks)
        if report.params is not None:
            records.append(
                DesignRecord(action.label, report.params, blocks, report.flag_transitive)
            )
    return tuple(
        sorted(records, key=lambda rec: (rec.params, _block_key(rec.blocks)))
    )


def hypothesis_filter(records: Iterable[DesignRecord]) -> Tuple[DesignRecord, ...]:
    """Keep flag-transitive designs passing every basic parameter clause.

    This enforces nontriviality, incompleteness, the counting identities,
    Fisher, and lambda >= (r, lambda)^2 > 1.
    """
    kept = []
    for rec in records:
        if rec.flag_transitive and all(ok for _, ok in check_basic(rec.params)):
            kept.append(rec)
    return tuple(kept)


def _union_count(sizes: Sequence[int], target: int) -> int:
    """How many sets of orbits of these sizes hold target points in all."""
    ways = [1] + [0] * target
    for n in sizes:
        for t in range(target, n - 1, -1):
            ways[t] += ways[t - n]
    return ways[target]


def _orbit_unions(
    orbits: Sequence[Tuple[int, ...]], group: Sequence[int], quota: Mapping[int, int]
) -> List[FrozenSet[int]]:
    """The unions of the orbits that take quota[g] points from the orbits in
    each group g (an orbit's points p share one group[p]) and none from
    others: orbits are taken or left out largest first, and a branch ends
    once a group's untried orbits cannot fill what it lacks."""
    free = [orb for orb in orbits if quota.get(group[orb[0]])]
    free.sort(key=lambda o: (-len(o), o))
    lack, room = dict(quota), Counter(group[p] for orb in free for p in orb)
    if any(room[g] < n for g, n in quota.items()):
        return []
    found: List[FrozenSet[int]] = []

    def descend(idx: int, remaining: int, chosen: List[Tuple[int, ...]]) -> None:
        if remaining == 0:
            found.append(frozenset(p for orb in chosen for p in orb))
            if len(found) > _UNION_LIMIT:
                raise RuntimeError(
                    f"orbit unions of size {sum(quota.values())} within the "
                    f"base-point quotas exceed the union budget {_UNION_LIMIT}"
                )
            return
        orb = free[idx]  # some group lacks points, and its room holds them
        g, n = group[orb[0]], len(orb)
        room[g] -= n
        if n <= lack[g]:
            lack[g] -= n
            descend(idx + 1, remaining - n, chosen + [orb])
            lack[g] += n
        if lack[g] <= room[g]:
            descend(idx + 1, remaining, chosen)
        room[g] += n

    descend(0, sum(quota.values()), [])
    return found


def _candidate_design(
    action: PermAction,
    params: DesignParams,
    union: FrozenSet[int],
    known: Mapping[BlockSet, DesignRecord],
) -> Optional[DesignRecord]:
    """The design spanned by a candidate block, or None.

    The union's G-orbit is walked, capped at b, and must have b blocks.  A
    design in known, keyed by its canonical block set, was verified when it
    was first found; a union spanning it again returns it unchecked.  Any
    other orbit is accepted exactly when verify_design passes it with these
    parameters, flag-transitivity included.

    No lambda is counted before that, since the orbit of a union passing
    `_suborbit_screen`'s test has it: the action is transitive, so every
    point lies on b*k / v of the b blocks, which is r for admissible
    parameters (verify_design compares them all), and each block C through 0
    is an image of the union and so meets each orbit Delta != {0} of G_0 in
    lambda * |Delta| / r points.  The pairs (beta, C) with beta in Delta and
    C through 0 and beta number lambda * |Delta|, and G_0 permutes the
    blocks through 0 and is transitive on Delta, so each beta in Delta lies
    with 0 in lambda blocks; by transitivity every pair does.
    """
    blocks = action.set_orbit(union, params.b)
    if blocks is None or len(blocks) != params.b:
        return None
    if blocks in known:
        return known[blocks]
    if not verify_design(action, blocks, expect=params).ok:
        return None
    return DesignRecord(
        group=action.label, params=params, blocks=blocks, flag_transitive=True
    )


def _suborbit_screen(
    action: PermAction, params: DesignParams
) -> Optional[Tuple[List[int], Counter, Callable[[FrozenSet[int]], bool]]]:
    """The subdegree identity as quotas on the orbits of G_0, and as a test
    on candidate blocks at each of their points.

    Let a flag-transitive design with these parameters admit the group, and
    let B be a block through 0.  Flag-transitivity makes the stabilizer G_0
    transitive on the r blocks through 0.  For an orbit Delta of G_0 other
    than {0}, count the pairs (beta, C) with beta in Delta and C a block
    through 0 and beta: each beta lies with 0 in lambda blocks, and each
    block C through 0 meets Delta in |C & Delta| = |B & Delta| points, since
    some element of G_0 maps B to C and fixes Delta.  So
    r * |B & Delta| = lambda * |Delta|.

    A block B through any point beta is mapped by an element g with
    beta^g = 0 to B^g, a block of the same G-invariant block set through 0,
    so B^g meets the identity.  The union itself need not contain 0 (on the
    block route it often does not), and G_beta has other orbits than G_0,
    so each beta is taken to 0 first, by the inverse transversal element of
    the chain based at 0.  Another g' with beta^g' = 0 is g followed by an
    element of G_0, which fixes every Delta; so the test does not depend on
    g, and a union passes exactly when each of its G-images does.

    `_candidate_design` accepts only what verify_design passes as a
    flag-transitive design with these parameters, whose blocks therefore
    all pass this test at every point; a union that fails it can be skipped
    without calling it.  Returned are each point's G_0-orbit number, each
    orbit's quota |B & Delta| (orbits B misses left out) and the test, which
    compares sorted orbit numbers with the sorted quotas at each point; None
    where no union passes: if r does not divide some lambda * |Delta|, the
    quotas miss k, or the group is not transitive on points, as a
    flag-transitive one with lambda > 0 is.
    """
    if not action.is_transitive():
        return None
    label = [0] * action.degree
    want = Counter()
    for index, orb in enumerate(action.point_stabilizer(0).orbits()):
        if orb == (0,):  # the image of beta
            share, rest = 1, 0
        else:
            share, rest = divmod(params.lam * len(orb), params.r)
        if rest:
            return None
        for p in orb:
            label[p] = index
        if share:
            want[index] = share
    if sum(want.values()) != params.k:
        return None
    to_zero, quota = action.chain(0).inv[0], sorted(want.elements())

    def passes(union: FrozenSet[int]) -> bool:
        pick = itemgetter(*union) if len(union) > 1 else lambda g: [g[p] for p in union]
        return all(
            sorted(map(label.__getitem__, pick(g))) == quota
            for g in map(to_zero.__getitem__, union)
        )

    return label, want, passes


def stabilizer_search(action: PermAction, params: DesignParams) -> SearchResult:
    """Exhaustive search for flag-transitive designs with fixed parameters.

    Either returns with a completeness certificate or raises: when the
    subgroup enumeration cannot be certified, or when the tuple breaks
    b*k = v*r or r*(k-1) = lambda*(v-1).  So b divides |G| on the block
    route, where |G| = v*r = b*k.

    Both routes test one subgroup per conjugacy class.  On the flag route,
    let K' = K^n be a conjugate of K by n in G_alpha.  The K'-orbits are
    the n-images of the K-orbits, and n fixes alpha, so the K'-orbit unions
    through alpha are the n-images U^n of the K-orbit unions U through
    alpha.  U^n spans the same G-orbit, hence the same block set, as U, and
    meets the suborbit screen exactly when U does, as every G-image of U
    does.  Every member of a class therefore yields the same designs and
    the same number of unions; the certificate counts the unions of every
    member, and says which were enumerated.  On the block route, conjugate
    block stabilizers have translated orbits, which again span the same
    block sets and meet the screen alike.

    The block route tests single orbits.  A block B of a flag-transitive
    design with these parameters has a stabilizer G_B of order |G| / b = k,
    transitive on the k points of B, so regular on it: B is one G_B-orbit
    of length k.  An element conjugating G_B to its class representative
    takes B to one of the representative's orbits of length k, which spans
    the same block set.  The certificate counts every orbit union of size
    k (`_union_count`), the unions the single orbits are drawn from.
    Flag-route unions are built by quota (`_orbit_unions`), one per orbit
    of G_alpha.  No candidate is tested where the screen passes nothing, as
    on an intransitive action.
    """
    v, b, r, k, lam = params.as_tuple()
    if b * k != v * r:
        raise ValueError(f"b*k = {b * k} but v*r = {v * r}")
    if r * (k - 1) != lam * (v - 1):
        raise ValueError(f"r*(k-1) = {r * (k - 1)} but lambda*(v-1) = {lam * (v - 1)}")
    if action.degree != v:
        raise ValueError(f"action degree {action.degree} differs from v = {v}")
    order = action.order()
    if order % (v * r) != 0:  # the flag-count kill
        return SearchResult(action.label, params, (), order, ())
    m = order // (v * r)
    if m > 1:
        alpha, classes = 0, subgroups_of_order(action.point_stabilizer(0), m)
    else:
        alpha, classes = None, subgroups_of_order(action, order // b)
    screen = _suborbit_screen(action, params)
    found: Dict[BlockSet, DesignRecord] = {}
    counts = []  # (class size, unions of the representative) per class
    for cls in classes:
        orbits = PermAction(v, cls.representative).orbits()
        free = [len(orb) for orb in orbits if alpha not in orb]
        counts.append((cls.size, _union_count(free, k - (alpha is not None))))
        if screen is None:
            continue
        label, want, passes = screen
        if m > 1:
            unions = _orbit_unions(orbits, label, want)
        else:
            unions = [frozenset(orb) for orb in orbits if len(orb) == k]
        for union in filter(passes, unions):
            rec = _candidate_design(action, params, union, found)
            if rec is not None:
                found[rec.blocks] = rec
    designs = tuple(found[key] for key in sorted(found, key=_block_key))
    return SearchResult(action.label, params, designs, order, tuple(counts))


def verify_design(
    action: PermAction,
    blocks: Iterable[Iterable[int]],
    expect: Optional[DesignParams] = None,
) -> VerifyReport:
    """Re-check a block set from scratch against the action.

    Confirms uniform block size, constant replication, constant pair
    coverage, invariance of the block set under the group,
    block-transitivity, and flag-transitivity.  One walk decides the middle
    two: the orbit of the first block, capped at b, is the block set
    exactly when the set is invariant and the group transitive on it.
    Otherwise the set is invariant exactly when each block's images under
    the generators are blocks, and the problem says which failed.

    The counting identities need no check: with b blocks of size k, every
    point on r of them and every pair on lambda >= 1, counting the pairs
    (x, B) with x in B gives b*k = v*r, and counting the (y, B) with y != x
    and x, y in B, at one point x, gives r*(k - 1) = lambda*(v - 1).
    """
    v = action.degree
    bset = _canonical_blocks(frozenset(b) for b in blocks)
    problems: List[str] = []
    if not bset:
        return VerifyReport(False, None, False, ("empty block set",))
    sizes = {len(b) for b in bset}
    if len(sizes) != 1:
        return VerifyReport(False, None, False, (f"mixed block sizes {sizes}",))
    if len(set(bset)) != len(bset):
        problems.append("repeated blocks")
    k = sizes.pop()
    b = len(bset)
    counts = [0] * v
    for block in bset:
        for p in block:
            if not 0 <= p < v:
                return VerifyReport(False, None, False, (f"point {p} out of range",))
            counts[p] += 1
    if len(set(counts)) != 1:
        problems.append("replication is not constant")
        return VerifyReport(False, None, False, tuple(problems))
    r = counts[0]
    lam = _pair_coverage(bset, v)
    if lam is None:
        problems.append("pair coverage is not constant")
        return VerifyReport(False, None, False, tuple(problems))
    params = DesignParams(v, b, r, k, lam)
    if expect is not None and params != expect:
        problems.append(f"parameters {params.as_tuple()} differ from expected")
    block_lookup = set(bset)
    walk = action.set_orbit(bset[0], b)
    if walk is None or set(walk) != block_lookup:
        if all(block_lookup.issuperset(action.set_images(block)) for block in bset):
            problems.append("group is not transitive on blocks")
        else:
            problems.append("block set is not invariant under the group")
        return VerifyReport(False, params, False, tuple(problems))
    flag = _flag_transitive(action, bset, r)
    if not flag:
        problems.append("block stabilizer is intransitive on its block")
    return VerifyReport(not problems, params, flag, tuple(problems))


# ---------------------------------------------------------------------------
# design files


def save_design(path: str, record: DesignRecord) -> None:
    label = record.group  # load_design cuts a line at '#' and strips it
    if any(c in label for c in "#\r\n") or label != label.strip():
        raise ValueError(f"design files cannot hold the group label {label!r}")
    p = record.params
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("version 1\n")
        handle.write(f"group {record.group}\n")
        handle.write(f"params {p.v} {p.b} {p.r} {p.k} {p.lam}\n")
        for block in record.blocks:
            handle.write("block " + " ".join(str(i) for i in sorted(block)) + "\n")


def load_design(path: str) -> Tuple[str, DesignParams, BlockSet]:
    group = ""
    params: Optional[DesignParams] = None
    blocks: List[FrozenSet[int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = [
            ln.split("#", 1)[0].strip()
            for ln in handle
            if ln.split("#", 1)[0].strip()
        ]
    if not lines or lines[0].split() != ["version", "1"]:
        raise ValueError("expected a 'version 1' header")
    seen = set()  # the group and params lines, each allowed once
    for line in lines[1:]:
        tokens = line.split()
        if tokens[0] in ("group", "params"):
            if tokens[0] in seen:
                raise ValueError(f"second {tokens[0]} line {line!r}")
            seen.add(tokens[0])
        if tokens[0] == "group":
            group = line[len("group") :].strip()
        elif tokens[0] == "params" and len(tokens) == 6:
            v, b, r, k, lam = (int(t) for t in tokens[1:])
            params = DesignParams(v, b, r, k, lam)
        elif tokens[0] == "block":
            points = frozenset(int(t) for t in tokens[1:])
            if not points or len(points) != len(tokens) - 1:
                raise ValueError(f"block line {line!r} must list distinct points")
            blocks.append(points)
        else:
            raise ValueError(f"unrecognized line {line!r}")
    if params is None:
        raise ValueError("missing params line")
    if len(blocks) != params.b:
        raise ValueError(f"{len(blocks)} blocks listed, expected {params.b}")
    return group, params, _canonical_blocks(blocks)
