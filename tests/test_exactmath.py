"""Frozen oracles for the exact arithmetic layer."""

import math
import random
from fractions import Fraction

import pytest

from flagsieve import exactmath
from flagsieve.exactmath import (
    PrimePower,
    binomial_exceeds,
    divisors,
    divisors_upto,
    factorize,
    is_prime,
    p_part,
    p_prime_part,
    prime_power,
    prime_powers_upto,
)
from reference import (
    prod_one_minus_inv_powers,
    prod_one_minus_neg_inv_powers,
    q_product,
)


def test_gcd_lcm_basics():
    assert math.gcd(432, 26067) == 3
    assert math.gcd(119, 126) == 7
    assert math.gcd(35, 336) == 7
    assert math.gcd(143, 78) == 13
    assert math.gcd(7, 5040) == 7
    assert math.gcd(27, 12, 15) == 3


def test_is_prime_small_and_large():
    assert is_prime(2) and is_prime(3) and is_prime(13)
    assert is_prime(18517)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(15554560)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    # composites with no factor up to 37: 41 * 43, and 151 * 751 * 28351,
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(1763)
    assert not is_prime(3215031751)


# frozen factorizations, multiplied back by hand
FACTOR_ORACLES = {
    168: ((2, 3), (3, 1), (7, 1)),
    5616: ((2, 4), (3, 3), (13, 1)),
    15554560: ((2, 11), (5, 1), (7, 2), (31, 1)),
    20160: ((2, 6), (3, 2), (5, 1), (7, 1)),
    6048: ((2, 5), (3, 3), (7, 1)),
    2592: ((2, 5), (3, 4)),
}


def test_factorize_oracles():
    for n, pairs in FACTOR_ORACLES.items():
        fac = factorize(n)
        assert fac == pairs
        assert math.prod(p**e for p, e in fac) == n


def test_factorize_splits_a_product_of_large_primes():
    # both primes lie past trial division, so Brent's rho splits them
    assert factorize(1000003 * 1000033) == ((1000003, 1), (1000033, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_divisors():
    assert divisors(78) == [1, 2, 3, 6, 13, 26, 39, 78]
    assert divisors(1) == [1]
    assert divisors_upto(720, 6) == [1, 2, 3, 4, 5, 6]
    # cap-driven path works on numbers too large to factorize quickly
    huge = (2**127 - 1) * (2**89 - 1) * 12
    assert divisors_upto(huge, 6) == [1, 2, 3, 4, 6]
    # past a cap of 100,000 the divisors come from the factorization
    n = 2**20 * 3**7
    brute = [d for d in range(1, 150001) if n % d == 0]
    assert len(brute) == 98 and divisors_upto(n, 150000) == brute


def test_p_parts():
    assert p_part(720, 2) == 16
    assert p_prime_part(720, 2) == 45
    assert p_part(2592, 3) == 81
    assert p_prime_part(1296, 2) == 81
    with pytest.raises(ValueError):
        p_part(0, 2)


def _p_part_by_division(n, p):
    """The largest power of p dividing n, one division at a time."""
    n, out = abs(n), 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def test_p_part_matches_division_loop():
    """Seeded oracle: every exponent 0..400 of six primes, times a random
    cofactor, of either sign."""
    rng = random.Random(11)
    for p in (2, 3, 5, 7, 13, 101):
        for e in range(401):
            n = p**e * rng.randrange(1, 10**6) * rng.choice((1, -1))
            assert p_part(n, p) == _p_part_by_division(n, p), (p, e)
            assert p_prime_part(n, p) * p_part(n, p) == abs(n)
    with pytest.raises(ValueError):
        p_part(0, 3)


def test_prime_power_decomposition():
    assert prime_power(8) == PrimePower(2, 3)
    assert prime_power(27) == PrimePower(3, 3)
    assert prime_power(31).f == 1
    for bad in (1, 6, 12, 15554560):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_prime_powers_upto():
    assert prime_powers_upto(8) == [2, 3, 4, 5, 7, 8]
    grid = prime_powers_upto(32)
    assert grid[-5:] == [25, 27, 29, 31, 32]
    assert 24 not in grid and 28 not in grid


def test_prime_powers_upto_sieves_without_factorizing(monkeypatch):
    """The sieve agrees with prime_power on every q <= 1000 and makes no
    factorize call: a sweep row asks for its q axis once per call."""
    reference = []
    for q in range(2, 1001):
        try:
            prime_power(q)
        except ValueError:
            continue
        reference.append(q)
    calls = []
    monkeypatch.setattr(exactmath, "factorize", lambda n: calls.append(n))
    for limit in (-1, 0, 1, 2, 3, 4, 127, 128, 1000):
        assert prime_powers_upto(limit) == [q for q in reference if q <= limit]
    assert calls == []


def test_q_product_anchors():
    assert q_product(2, ((1, 1), (2, 1), (3, 1))) == 21
    assert q_product(2, ((1, -1), (2, -1))) == 15
    assert q_product(3, ((2, 1), (3, -1))) == 224
    assert q_product(2, ()) == 1
    with pytest.raises(ValueError):
        q_product(1, ((2, 1),))
    with pytest.raises(ValueError):
        q_product(2, ((0, 1),))


def test_binomial_exceeds():
    assert binomial_exceeds(8, 6, 27)
    assert not binomial_exceeds(8, 6, 28)
    assert binomial_exceeds(144, 78, 144)
    assert not binomial_exceeds(8, 4, 70)
    assert binomial_exceeds(8, 4, 69)
    # early exit must fire long before the full product is formed
    assert binomial_exceeds(10**6, 500, 10**9)


def test_product_bounds_positive_form():
    # (1 - 1/q)^2 <= 1 - 1/q - 1/q^2 < prod < = (1-1/q)(1-1/q^2), a >= 2
    for q in range(2, 33):
        lo2 = (1 - Fraction(1, q)) ** 2
        lo = 1 - Fraction(1, q) - Fraction(1, q * q)
        hi = (1 - Fraction(1, q)) * (1 - Fraction(1, q * q))
        for a in range(2, 13):
            prod = prod_one_minus_inv_powers(q, a)
            assert lo2 <= lo < prod <= hi


def test_product_bounds_alternating_form():
    # 1 < (1+1/q)(1-1/q^2) < prod <= (1+1/q)(1-1/q^2)(1+1/q^3), a >= 3
    for q in range(2, 33):
        lo = (1 + Fraction(1, q)) * (1 - Fraction(1, q**2))
        hi = lo * (1 + Fraction(1, q**3))
        for a in range(3, 13):
            prod = prod_one_minus_neg_inv_powers(q, a)
            assert 1 < lo < prod <= hi
