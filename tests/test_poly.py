"""The dense polynomial core against sympy oracles."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.abc import x

from aomega import poly
from aomega.arith import LaurentElement, laurent_gcd


def to_sympy(f):
    return sympy.Poly(list(reversed(f)) or [0], x, domain="QQ")


def from_sympy(P):
    return [sympy.Rational(c) for c in reversed(P.all_coeffs())] if not P.is_zero else []


def random_poly(rng, max_len=6, spread=4, sparse=False):
    n = rng.randint(1, max_len)
    f = [rng.randint(-spread, spread) if not sparse or rng.random() < 0.3 else 0 for _ in range(n)]
    f[-1] = f[-1] or rng.choice((-3, -2, -1, 1, 2, 3))
    return f


def test_trim_drops_only_trailing_zeros():
    assert poly.trim([0, 1, 0, 0]) == [0, 1]
    assert poly.trim([0, 0]) == []
    assert poly.trim([]) == []


def test_mul_matches_sympy():
    rng = random.Random(1)
    assert poly.mul([], [1, 2]) == [] and poly.mul([1, 2], []) == []
    for _ in range(200):
        f = random_poly(rng, sparse=rng.random() < 0.5)
        g = random_poly(rng, sparse=rng.random() < 0.5)
        assert from_sympy(to_sympy(f) * to_sympy(g)) == poly.mul(f, g)


def test_exact_div_over_z_matches_sympy_with_non_monic_divisors():
    rng = random.Random(2)
    seen_non_monic = seen_stop = 0
    for _ in range(300):
        g = random_poly(rng, max_len=4)
        f = poly.mul(g, random_poly(rng)) if rng.random() < 0.5 else random_poly(rng, max_len=8)
        q, r = sympy.div(to_sympy(f), to_sympy(g))
        integral = r.is_zero and all(c.is_integer for c in q.all_coeffs())
        got = poly.exact_div(f, g)
        assert (got is not None) == integral, (f, g)
        if integral:
            assert got == from_sympy(q)
        seen_non_monic += abs(g[-1]) != 1
        seen_stop += r.is_zero and not integral
    assert seen_non_monic and seen_stop
    with pytest.raises(ZeroDivisionError):
        poly.exact_div([1], [])


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_exact_div_over_fp_matches_sympy(p):
    rng = random.Random(p)
    for _ in range(200):
        g = poly.trim([c % p for c in random_poly(rng, max_len=4, spread=p)]) or [1]
        f = random_poly(rng, max_len=8, spread=p)
        if rng.random() < 0.5:
            f = poly.mul(f, g)
        f = poly.trim([c % p for c in f])
        q, r = sympy.Poly(list(reversed(f)) or [0], x, modulus=p).div(sympy.Poly(list(reversed(g)), x, modulus=p))
        got = poly.exact_div(f, g, p)
        assert (got is not None) == r.is_zero, (f, g)
        if r.is_zero:
            assert got == poly.trim([int(c) % p for c in reversed(q.all_coeffs())])


@pytest.mark.parametrize("p", [None, 7])
def test_reduce_monic_matches_sympy_remainder(p):
    rng = random.Random(3)
    for _ in range(100):
        modulus = random_poly(rng, max_len=5, sparse=True) + [1]
        f = random_poly(rng, max_len=12)
        rem = sympy.rem(to_sympy(f), to_sympy(modulus))
        expected = from_sympy(rem)
        expected += [0] * (len(modulus) - 1 - len(expected))
        if p is not None:
            expected = [int(c) % p for c in expected]
        assert poly.reduce_monic(f, enumerate(modulus), p) == expected


def check_euclid(a, b):
    g, s = poly.euclid(a, b)
    oracle = sympy.gcd(to_sympy(a), to_sympy(b))
    assert g and to_sympy(g).monic() == oracle.monic()
    # s * b == g modulo a
    assert sympy.rem(to_sympy(s) * to_sympy(b) - to_sympy(g), to_sympy(a)).is_zero


def test_euclid_matches_sympy_gcd_and_bezout():
    rng = random.Random(4)
    for _ in range(200):
        common = random_poly(rng, max_len=3) if rng.random() < 0.5 else [1]
        a = poly.mul(common, random_poly(rng, max_len=5))
        b = poly.mul(common, random_poly(rng, max_len=5))
        check_euclid(a, b)


class CountingFraction(Fraction):
    made = 0

    def __new__(cls, *args, **kwargs):
        CountingFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


def test_euclid_goes_to_fraction_only_after_a_non_unit_lead(monkeypatch):
    monkeypatch.setattr(poly, "Fraction", CountingFraction)
    phi9 = [1, 0, 0, 1, 0, 0, 1]
    # every divisor lead is +-1: the whole sequence stays in Z[u]
    for b in ([1, 1], [-2, 1], [1, 0, -1], [2, 0, 0, 1], [1, 1, 1]):
        CountingFraction.made = 0
        check_euclid(phi9, b)
        assert CountingFraction.made == 0
        assert all(isinstance(c, int) for c in poly.euclid(phi9, b)[1])
    # a lead of 2 switches that step and every later one to Fraction
    for b in ([1, 2], [1, 0, 2], [3, 1, 2], [3, 0, 1, 1]):
        CountingFraction.made = 0
        check_euclid(phi9, b)
        assert CountingFraction.made > 0


def test_laurent_gcd_on_non_binomials_matches_sympy():
    rng = random.Random(5)
    nontrivial = 0
    for _ in range(100):
        common = random_poly(rng, max_len=3)
        fa = poly.mul(common, random_poly(rng, max_len=4))
        fb = poly.mul(common, random_poly(rng, max_len=4))
        shift_a, shift_b = rng.randint(-3, 3), rng.randint(-3, 3)
        a = LaurentElement({i + shift_a: c for i, c in enumerate(fa)}, 1)
        b = LaurentElement({i + shift_b: c for i, c in enumerate(fb)}, 1)

        def shifted(y):
            return [y.terms.get(e, 0) for e in range(y.min_exponent(), y.max_exponent() + 1)]

        g = laurent_gcd(a, b)
        oracle = sympy.gcd(sympy.Poly(shifted(a)[::-1], x, domain="ZZ"), sympy.Poly(shifted(b)[::-1], x, domain="ZZ"))
        if oracle.LC() < 0:
            oracle = -oracle
        assert g == LaurentElement({i: int(c) for i, c in enumerate(reversed(oracle.all_coeffs()))}, 1)
        nontrivial += oracle.degree() > 0
    assert nontrivial > 50
