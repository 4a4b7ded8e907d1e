"""Reference helpers that only the tests use: the order formulas and
product bounds written out term by term, and a point stabilizer listed
element by element.  The package computes the same quantities another
way, so these stay independent oracles for it."""

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
