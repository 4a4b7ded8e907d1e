"""Shared test oracle: the members of a conjugacy class of subgroups."""

import pytest


def _closure(degree, gens):
    """Every product of the generators, breadth-first."""
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


def _class_members(group, cls):
    """Every conjugate of the subgroup the class representative generates,
    as element sets, breadth-first under conjugation by the group's
    generators; independent of the package's orbit walk."""
    conjugators = []
    for g in group.generators:
        g_inv = [0] * len(g)
        for i, image in enumerate(g):
            g_inv[image] = i
        conjugators.append((g, g_inv))  # x^g: apply g^-1, then x, then g
    start = frozenset(_closure(group.degree, cls.representative))
    seen = {start}
    queue = [start]
    for cur in queue:
        for g, g_inv in conjugators:
            nxt = frozenset(tuple(g[x[j]] for j in g_inv) for x in cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return queue


@pytest.fixture
def class_members():
    """class_members(group, cls): the element sets of the class's members."""
    return _class_members
