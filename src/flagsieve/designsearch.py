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
stabilizers of order |G| / b.  Every block of a flag-transitive design
meets the subdegree identity r * |B & Delta| = lambda * |Delta| at each
of its points beta, on each orbit Delta of G_0 after taking beta to 0.
At 0 that is a quota on each Delta: only unions meeting the quotas are
built, all are counted by a subset sum, and a built union that meets the
identity at every point has its G-orbit walked.  An orbit of b blocks is
then decided by verify_design alone, which counts every pair of every
block and checks flag-transitivity; the screen already makes lambda
constant on such an orbit (see `_candidate_design`).  Each design found is
verified once: a later union spanning it is recognized by its canonical
block set.
Either way the result carries a certificate describing why the enumeration
was complete, or the subgroup enumeration raises and no claim is made.

Block orbits come from permgroup's one orbit walk (`orbit`) on point
sets, and so does every flag-transitivity check: one walk of the point
stabilizer G_0 over the blocks through the point 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .permgroup import PermAction, orbit, subgroups_of_order
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
    group: str
    params: DesignParams
    designs: Tuple[DesignRecord, ...]
    exhaustive: bool
    certificate: Tuple[Tuple[str, str], ...]


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
    walk = orbit(start, action.point_stabilizer(0).set_images, r)
    return walk is not None and len(walk[0]) == r


def korbit_designs(
    action: PermAction, k: int, cap: int = _KORBIT_LIMIT
) -> Tuple[DesignRecord, ...]:
    """All 2-designs whose block set is a single orbit on k-subsets.

    Refuses, before enumerating anything, when C(v, k) exceeds cap.  An
    orbit that covers every pair lambda > 0 times is a design: counting the
    pairs (y, B) with x, y in B gives r_x * (k - 1) = lambda * (v - 1) at
    each point x, so every point lies on r = b*k / v blocks.  An orbit with
    b*k not a multiple of v is skipped before its pairs are counted.
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
        blocks = action.set_orbit(key)
        seen.update(blocks)
        b = len(blocks)
        if (b * k) % v != 0:
            continue
        lam = _pair_coverage(blocks, v)
        if lam is None:
            continue
        r = b * k // v
        params = DesignParams(v, b, r, k, lam)
        records.append(
            DesignRecord(
                group=action.label,
                params=params,
                blocks=blocks,  # set_orbit sorts canonically
                flag_transitive=_flag_transitive(action, blocks, r),
            )
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
    walk = orbit(union, action.set_images, params.b)
    if walk is None or len(walk[0]) != params.b:
        return None
    blocks = _canonical_blocks(walk[0])
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
    block stabilizers have translated orbits, whose unions again span the
    same block sets and meet the screen alike.

    Unions are built by quota (`_orbit_unions`), one per orbit of G_alpha
    on the flag route and one for all orbits on the block route, and none
    where the screen passes nothing, as on an intransitive action.
    """
    v, b, r, k, lam = params.as_tuple()
    if b * k != v * r:
        raise ValueError(f"b*k = {b * k} but v*r = {v * r}")
    if r * (k - 1) != lam * (v - 1):
        raise ValueError(f"r*(k-1) = {r * (k - 1)} but lambda*(v-1) = {lam * (v - 1)}")
    if action.degree != v:
        raise ValueError(f"action degree {action.degree} differs from v = {v}")
    order = action.order()
    flags = v * r
    if order % flags != 0:
        kill = (
            "flag-count",
            f"the flag count v*r = {flags} does not divide |G| = {order}: "
            "no flag-transitive action is possible",
        )
        return SearchResult(action.label, params, (), True, (kill,))
    m = order // flags
    cert = [("flag-stabilizer-order", f"|G| / (v*r) = {m}")]
    if m > 1:
        alpha, classes = 0, subgroups_of_order(action.point_stabilizer(0), m)
        cert.append(
            (
                "flag-stabilizer-candidates",
                f"complete enumeration: {sum(c.size for c in classes)} subgroups "
                f"of order {m} in the point stabilizer ({len(classes)} conjugacy "
                "classes); every block through the base point is a union of "
                "orbits of one of them",
            )
        )
    else:
        alpha, classes = None, subgroups_of_order(action, order // b)
        cert.append(
            (
                "block-stabilizer-candidates",
                f"trivial flag stabilizer: searching block stabilizers instead; "
                f"complete enumeration: {sum(c.size for c in classes)} subgroups "
                f"of order {order // b} ({len(classes)} conjugacy classes), one "
                "representative tested per class since conjugate stabilizers "
                "give translated designs",
            )
        )
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
        group, quota = (label, want) if m > 1 else ([0] * v, {0: k})
        for union in filter(passes, _orbit_unions(orbits, group, quota)):
            rec = _candidate_design(action, params, union, found)
            if rec is not None:
                found[rec.blocks] = rec
    if m > 1 and counts:  # sorted, as the classes follow the labels
        tested = (
            f"tested {sum(size * n for size, n in counts)} orbit unions of size "
            f"{k} ({' + '.join(f'{n} x {size}' for size, n in sorted(counts))}: "
            "unions of one representative per class times the class size; "
            "conjugate members give the same block sets, so only the "
            "representatives' unions were enumerated)"
        )
    else:
        tested = f"tested {sum(n for _, n in counts)} orbit unions of size {k}"
    cert.append(("candidate-blocks", tested))
    designs = tuple(found[key] for key in sorted(found, key=_block_key))
    cert.append(
        (
            "outcome",
            f"{len(designs)} flag-transitive design(s) with these parameters"
            if designs
            else "no flag-transitive design with these parameters admits this group",
        )
    )
    return SearchResult(action.label, params, designs, True, tuple(cert))


def verify_design(
    action: PermAction,
    blocks: Iterable[Iterable[int]],
    expect: Optional[DesignParams] = None,
) -> VerifyReport:
    """Re-check a block set from scratch against the action.

    Confirms uniform block size, constant replication, constant pair
    coverage, the counting identities, invariance of the block set under
    the group, block-transitivity, and flag-transitivity.
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
    if r * (k - 1) != lam * (v - 1) or b * k != v * r:
        problems.append("counting identities fail")
    if expect is not None and params != expect:
        problems.append(f"parameters {params.as_tuple()} differ from expected")
    block_lookup = set(bset)
    for g in action.generators:
        for block in bset:
            if frozenset(g[i] for i in block) not in block_lookup:
                problems.append("block set is not invariant under the group")
                return VerifyReport(False, params, False, tuple(problems))
    walk = orbit(bset[0], action.set_images, b + 1)
    block_transitive = walk is not None and set(walk[0]) == block_lookup
    if not block_transitive:
        problems.append("group is not transitive on blocks")
    flag = block_transitive and _flag_transitive(action, bset, r)
    if block_transitive and not flag:
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
