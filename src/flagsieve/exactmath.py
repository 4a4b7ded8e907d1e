"""Exact integer helpers used by every other module.

Everything here is exact: Python ints and explicit error raising instead
of silent truncation.  No floats anywhere.  Results are plain values: a
factorization is a tuple of (prime, exponent) pairs, primes ascending; a
prime power q is its (p, f) with q = p^f; divisor lists are ascending
lists of ints.  Callers take gcd from the standard `math` module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "is_prime",
    "factorize",
    "divisors",
    "divisors_upto",
    "p_part",
    "p_prime_part",
    "PrimePower",
    "prime_power",
    "prime_powers_upto",
    "binomial_exceeds",
]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin witness set: correct for all n < 3.3 * 10^24.
_MR_BASES = _SMALL_PRIMES
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Uses trial division by small primes, then Miller-Rabin with a fixed
    witness set that is provably correct below ~3.3e24.  Larger inputs are
    rejected loudly rather than answered probabilistically.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"primality test out of certified range: {n}")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    # deterministic parameter sweep; every composite yields eventually
    for c in range(1, 50):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ValueError(f"factor search failed for {n}")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Full prime factorization of a positive integer, as (prime, exponent)
    pairs with the primes ascending; factorize(1) == ()."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    found: dict[int, int] = {}

    def record(p: int) -> None:
        found[p] = found.get(p, 0) + 1

    rest = n
    for p in _SMALL_PRIMES:
        while rest % p == 0:
            record(p)
            rest //= p
    # trial division up to 10^6 covers every composite this project meets
    f = 41
    while f * f <= rest and f < 1_000_000:
        while rest % f == 0:
            record(f)
            rest //= f
        f += 2
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            record(m)
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(found.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n):
        powers = [p**i for i in range(1, e + 1)]
        out += [d * pk for d in out for pk in powers]
    return sorted(out)


def divisors_upto(n: int, cap: int) -> list[int]:
    """Divisors of n that are <= cap, without building the full list.

    Uses direct trial of candidates when cap is small relative to n, so n
    may be astronomically large as long as cap stays modest.
    """
    if cap < 1:
        return []
    cap = min(cap, n)
    if cap <= 100_000:
        return [d for d in range(1, cap + 1) if n % d == 0]
    return [d for d in divisors(n) if d <= cap]


def p_part(n: int, p: int) -> int:
    """Largest power of the prime p dividing n.

    Divides out p, p^2, p^4, ... in turn while they divide.  The exponent
    left is then below the one that failed, so one pass back down through
    the same powers, each dividing at most once, removes it: a part p^e
    costs O(log e) divisions, not e.  For p = 2 it is the lowest set bit.
    """
    if n == 0:
        raise ValueError("p_part of zero")
    n = abs(n)
    if p == 2:
        return n & -n
    out, powers, q = 1, [], p
    while n % q == 0:
        n //= q
        out *= q
        powers.append(q)
        q *= q
    for q in reversed(powers):
        if n % q == 0:
            n //= q
            out *= q
    return out


def p_prime_part(n: int, p: int) -> int:
    """The p'-part: n with every factor of p removed."""
    return abs(n) // p_part(n, p)


class PrimePower(NamedTuple):
    """q = p^f with p prime and f >= 1, as prime_power returns it."""

    p: int
    f: int


def prime_power(q: int) -> PrimePower:
    """Decompose q as p^f, rejecting anything that is not a prime power >= 2."""
    fac = factorize(q) if q >= 2 else ()
    if len(fac) != 1:
        raise ValueError(f"not a prime power: {q}")
    return PrimePower(*fac[0])


def prime_powers_upto(limit: int) -> list[int]:
    """All prime powers q with 2 <= q <= limit, ascending.

    Sieve of Eratosthenes: every prime p <= limit, then p, p^2, ... up to
    the limit; nothing is factorized.
    """
    if limit < 2:
        return []
    composite = bytearray(limit + 1)
    out = []
    for p in range(2, limit + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, limit + 1, p))
        q = p
        while q <= limit:
            out.append(q)
            q *= p
    return sorted(out)


def binomial_exceeds(n: int, k: int, bound: int) -> bool:
    """Exact test C(n, k) > bound with early exit.

    The partial products C(n-k+i, i) are themselves binomial coefficients,
    hence nondecreasing integers, so we may stop as soon as one of them
    clears the bound.
    """
    if k < 0 or k > n:
        return 0 > bound
    k = min(k, n - k)
    num, den = 1, 1
    for i in range(1, k + 1):
        num *= n - k + i
        den *= i
        if num // den > bound:
            return True
    return num // den > bound
