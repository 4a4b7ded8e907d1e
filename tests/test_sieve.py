"""Tuple sieve tests with independently computed oracles."""

import math

import pytest

from flagsieve import sieve
from flagsieve.exactmath import divisors, gcd
from flagsieve.sieve import (
    REASON_CODES,
    DesignParams,
    Rejection,
    admissible_tuples_explained,
    check_basic,
)


def admissible_tuples(v, r_divisor, **kwargs):
    """The kept tuples of the sieve, without its rejection trace."""
    return admissible_tuples_explained(v, r_divisor, **kwargs)[0]


def test_design_params_derived():
    d = DesignParams(8, 28, 14, 4, 6)
    assert (d.g, d.rstar, d.lamstar) == (2, 7, 3)
    d = DesignParams(36, 36, 21, 21, 12)
    assert (d.g, d.rstar, d.lamstar) == (3, 7, 4)
    with pytest.raises(ValueError):
        DesignParams(8, 28, 0, 4, 6)


def test_check_basic_all_pass():
    for tup in [(36, 36, 21, 21, 12), (36, 48, 28, 21, 16), (8, 42, 21, 4, 9)]:
        d = DesignParams(*tup)
        assert all(ok for _, ok in check_basic(d)), tup


def test_check_basic_hypothesis_failure():
    # valid 2-(8,4,3) biplane parameters, but (r, lambda) = (7, 3) is coprime
    d = DesignParams(8, 14, 7, 4, 3)
    report = dict(check_basic(d))
    assert report["replication-identity"]
    assert report["flag-count-identity"]
    assert report["fisher"]
    assert not report["hypothesis"]


def test_check_basic_identity_and_completeness():
    d = DesignParams(8, 10, 5, 4, 3)
    assert not dict(check_basic(d))["replication-identity"]
    # all 4-subsets of an 8-set: complete, hence rejected
    d = DesignParams(8, 70, 35, 4, 15)
    report = dict(check_basic(d))
    assert report["replication-identity"] and report["flag-count-identity"]
    assert not report["nontrivial-incomplete"]


def test_admissible_tuples_eight_points():
    got = admissible_tuples(8, 42)
    assert {d.as_tuple() for d in got} == {
        (8, 28, 14, 4, 6),
        (8, 42, 21, 4, 9),
    }


def test_admissible_tuples_eight_point_rejections():
    _, rejected = admissible_tuples_explained(8, 42)
    # k = 5 needs a factor 5 in g, but g must divide 42/7 = 6
    assert Rejection(7, 4, 5, None, "divisor-conflict") in rejected
    # k = 6: g = 2 leaves b = 112/6 fractional
    assert Rejection(7, 5, 6, 2, "b-nonintegral") in rejected
    # k = 6: g = 3 gives b = 28 = C(8,6), the complete design
    assert Rejection(7, 5, 6, 3, "completeness") in rejected
    # k = 3: every g >= 2 exceeds lambda* = 2 eventually
    assert Rejection(7, 2, 3, 3, "lambda-bound") in rejected
    assert all(r.code in REASON_CODES for r in rejected)


def test_admissible_tuples_144_points():
    got, rejected = admissible_tuples_explained(144, 78)
    assert [d.as_tuple() for d in got] == [(144, 144, 78, 78, 42)]
    # lambda* = 7 with g = 2 gives b = 48 < 144, killed by Fisher
    assert Rejection(13, 7, 78, 2, "fisher") in rejected
    assert Rejection(13, 7, 78, 3, "fisher") in rejected


def test_admissible_tuples_trivial_gcd():
    # gcd(7, 6) = 1 leaves no r* with (r*)^2 > 8
    assert admissible_tuples(8, 6) == ()


def test_admissible_tuples_g_cap_and_rstar_divisor():
    got = admissible_tuples(8, 42, g_max=2)
    assert [d.as_tuple() for d in got] == [(8, 28, 14, 4, 6)]
    assert admissible_tuples(8, 42, rstar_divisor=21) == admissible_tuples(8, 42)
    assert admissible_tuples(8, 42, rstar_divisor=6) == ()
    for bounds in ({"g_max": 0}, {"g_max": -5}, {"rstar_divisor": 0}):
        with pytest.raises(ValueError, match="must be positive"):
            admissible_tuples_explained(8, 42, **bounds)


def _brute_force_tuples(v: int, r_divisor: int) -> set:
    """Reference enumeration straight from the definitions."""
    out = set()
    for r in divisors(r_divisor):
        for k in range(3, v - 1):
            if (r * (k - 1)) % (v - 1) != 0:
                continue
            lam = r * (k - 1) // (v - 1)
            if lam < 1 or (v * r) % k != 0:
                continue
            b = v * r // k
            if b < v:
                continue
            g = gcd(r, lam)
            if g < 2 or lam < g * g:
                continue
            if b >= math.comb(v, k):
                continue
            out.add((v, b, r, k, lam))
    return out


def test_admissible_tuples_recheck_is_an_explicit_raise(monkeypatch):
    """A kept tuple that fails check_basic raises, also under python -O."""
    monkeypatch.setattr(sieve, "check_basic", lambda params: (("fisher", False),))
    with pytest.raises(ArithmeticError, match="fisher"):
        admissible_tuples_explained(8, 42)


def test_admissible_tuples_matches_brute_force():
    for v in range(5, 301):
        for r_divisor in (60, 84, 132, 2 * (v - 1), 5 * (v - 1)):
            got = {d.as_tuple() for d in admissible_tuples(v, r_divisor)}
            assert got == _brute_force_tuples(v, r_divisor), (v, r_divisor)


def test_admissible_tuples_outputs_satisfy_check_basic():
    for v, r_divisor in [(8, 42), (144, 78), (36, 336), (45, 176), (40, 390)]:
        for d in admissible_tuples(v, r_divisor):
            assert all(ok for _, ok in check_basic(d))
            assert d.r % d.g == 0 and r_divisor % d.r == 0
            assert (v - 1) % d.rstar == 0
