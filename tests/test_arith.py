"""Laurent arithmetic against naive convolution and symbolic oracles."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.abc import x

from aomega.arith import (
    LaurentElement,
    laurent_exact_div,
    laurent_gcd,
    normalize_associate,
    p_valuation,
    q_analog,
    q_power_minus_one,
)


def naive_convolution(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def to_sympy(terms: dict):
    shift = min(terms) if terms else 0
    return sympy.Poly({e - shift: c for e, c in terms.items()}, x), shift


def test_mul_difference_of_squares():
    a = LaurentElement({1: 1, 0: -1})
    b = LaurentElement({1: 1, 0: 1})
    assert (a * b).terms == {2: 1, 0: -1}


def test_mul_monomials_depth1():
    # q*q at depth 1, p=2: u^2 * u^2 = u^4
    q = LaurentElement({4: 1}, 1)
    assert (q * q).terms == {8: 1}


def test_mul_matches_naive_convolution_oracle():
    # (1+q+q^2)(q-1) at p=3 depth 0
    a = {0: 1, 1: 1, 2: 1}
    b = {1: 1, 0: -1}
    expected = naive_convolution(a, b)
    assert expected == {3: 1, 0: -1}  # frozen from the oracle
    got = LaurentElement(a) * LaurentElement(b)
    assert got.terms == expected


def test_mul_random_against_convolution():
    rng = random.Random(0)
    for _ in range(100):
        a = {rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(rng.randint(1, 4))}
        b = {rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(rng.randint(1, 4))}
        a = {e: c for e, c in a.items() if c}
        b = {e: c for e, c in b.items() if c}
        got = (LaurentElement(a) * LaurentElement(b)).terms
        assert got == naive_convolution(a, b)


def test_mul_associative_commutative_and_div_inverts():
    rng = random.Random(1)
    for _ in range(60):
        elts = []
        for _ in range(3):
            t = {rng.randint(-3, 3): rng.randint(-5, 5) for _ in range(rng.randint(1, 3))}
            t = {e: c for e, c in t.items() if c} or {0: 1}
            elts.append(LaurentElement(t))
        a, b, c = elts
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert laurent_exact_div(a * b, b) == a


def test_exact_div_geometric_sum():
    num = LaurentElement({2: 1, 0: -1})
    den = LaurentElement({1: 1, 0: -1})
    assert laurent_exact_div(num, den).terms == {1: 1, 0: 1}


def test_exact_div_cyclotomic_weight():
    # (q - 1) / (q^(1/p) - 1) with p = 3, depth 1: (u^3-1)/(u-1)
    num = LaurentElement({3: 1, 0: -1}, 1)
    den = LaurentElement({1: 1, 0: -1}, 1)
    assert laurent_exact_div(num, den).terms == {0: 1, 1: 1, 2: 1}


def test_exact_div_rejects_with_symbolic_remainder_oracle():
    # attempt (q-1)/(q+1): the oracle division in Q[u] leaves a remainder
    quo, rem = sympy.div(x - 1, x + 1, x)
    assert rem != 0  # frozen oracle fact
    num = LaurentElement({1: 1, 0: -1})
    den = LaurentElement({1: 1, 0: 1})
    assert laurent_exact_div(num, den) is None


def test_exact_div_zero_divisor_raises():
    with pytest.raises(ZeroDivisionError):
        laurent_exact_div(LaurentElement({0: 1}), LaurentElement.zero())


def test_exact_div_negative_exponents():
    num = LaurentElement({-2: 1, 0: -1})  # q^-2 - 1
    den = LaurentElement({1: 1, 0: -1})   # q - 1
    got = laurent_exact_div(num, den)
    assert got.terms == {-2: -1, -1: -1}
    assert got * den == num


def test_exact_div_zero_remainder_non_integral_quotient():
    # (u + 1) / (2u + 2) = 1/2 in Q[u]: no remainder, yet no integral quotient
    num = LaurentElement({1: 1, 0: 1})
    den = LaurentElement({1: 2, 0: 2})
    assert laurent_exact_div(num, den) is None
    assert laurent_exact_div(LaurentElement({1: 2, 0: 2}), den) == LaurentElement.one()


def test_exact_div_non_unit_lead_divisors():
    # (3u^2 - 3) / (3u - 3) = u + 1 and (2u + 2) / 2 = u + 1
    u_plus_1 = LaurentElement({1: 1, 0: 1})
    assert laurent_exact_div(LaurentElement({2: 3, 0: -3}), LaurentElement({1: 3, 0: -3})) == u_plus_1
    assert laurent_exact_div(LaurentElement({1: 2, 0: 2}), LaurentElement.constant(2)) == u_plus_1
    assert laurent_exact_div(LaurentElement({1: 3, 0: 2}), LaurentElement.constant(2)) is None
    # negative leading coefficient
    assert laurent_exact_div(LaurentElement({2: 4, 0: -4}), LaurentElement({1: -2, 0: 2})) == LaurentElement({1: -2, 0: -2})


def test_exact_div_non_monic_negative_exponents():
    # (6u^-2 - 6u^-4) / (3u^-2 - 3u^-3) = 2u^-1 + 2 at depth 2
    num = LaurentElement({-2: 6, -4: -6}, 2)
    den = LaurentElement({-2: 3, -3: -3}, 2)
    got = laurent_exact_div(num, den)
    assert got == LaurentElement({-1: 2, 0: 2}, 2)
    assert got * den == num
    assert laurent_exact_div(num, LaurentElement({-2: 12, -3: -12}, 2)) is None


def sympy_exact_div(a: dict, b: dict):
    """Quotient terms of a / b in Z[u^(+-1)] by sympy's division in Q[u], or None."""
    fa, sa = to_sympy(a)
    fb, sb = to_sympy(b)
    quo, rem = sympy.div(fa, fb, x, domain=sympy.QQ)
    if not rem.is_zero:
        return None
    coeffs = sympy.Poly(quo, x).all_coeffs()[::-1]
    if any(not c.is_integer for c in coeffs):
        return None
    return {e + sa - sb: int(c) for e, c in enumerate(coeffs) if c}


def test_exact_div_random_against_sympy_oracle():
    rng = random.Random(2)

    def random_terms(size, spread):
        t = {rng.randint(-4, 4): rng.randint(-spread, spread) for _ in range(size)}
        return {e: c for e, c in t.items() if c} or {0: rng.choice((2, 3, -4))}

    outcomes = set()
    for _ in range(150):
        b = random_terms(rng.randint(1, 3), 4)
        c = random_terms(rng.randint(1, 3), 4)
        product = naive_convolution(b, c)
        # products divide; perturbed products and scaled divisors mostly do not
        dividends = [product, random_terms(rng.randint(1, 4), 6)]
        if product:
            e = rng.choice(sorted(product))
            dividends.append({**product, e: product[e] + 1})
        divisors = [b, {e: 2 * v for e, v in b.items()}]
        for a in dividends:
            if not a:
                continue
            for d in divisors:
                got = laurent_exact_div(LaurentElement(a), LaurentElement(d))
                expected = sympy_exact_div(a, d)
                assert (got is None) == (expected is None), (a, d)
                if got is not None:
                    assert got.terms == expected
                outcomes.add((got is None, abs(max(d.items())[1]) == 1))
    # both verdicts, with unit and non-unit leading coefficients
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_q_analog_examples():
    assert q_analog(3, 3, 0).terms == {0: 1, 1: 1, 2: 1}
    assert q_analog(1, 5, 0).terms == {0: 1}
    assert q_analog(0, 2, 0).is_zero()
    # negative exponent: matches the division definition
    a = q_analog(-2, 3, 0)
    assert laurent_exact_div(LaurentElement({-2: 1, 0: -1}), LaurentElement({1: 1, 0: -1})) == a


def test_q_analog_rejects_fractional_exponent():
    with pytest.raises(ValueError, match="q_power_minus_one"):
        q_analog(Fraction(1, 3), 3, 1)
    # the unnormalized numerator exists at depth 1
    assert q_power_minus_one(Fraction(1, 3), 3, 1).terms == {1: 1, 0: -1}


def test_q_analog_multiplicative_identity():
    # [ab]_q = [a]_(q^b) * [b]_q: substitution realizes [a]_(q^b)
    for p, depth in ((2, 0), (3, 1)):
        for a in range(1, 6):
            for b in range(1, 6):
                lhs = q_analog(a * b, p, depth)
                rhs = q_analog(a, p, depth).substitute_power(b) * q_analog(b, p, depth)
                assert lhs == rhs


def test_p_valuation():
    import math

    assert p_valuation(12, 2) == 2
    assert p_valuation(Fraction(1, 9), 3) == -2
    assert p_valuation(0, 5) == math.inf
    assert p_valuation(Fraction(18, 5), 3) == 2


def test_depth_mismatch_rejected():
    a = LaurentElement({0: 1}, 1)
    b = LaurentElement({0: 1}, 2)
    with pytest.raises(ValueError):
        a * b


def test_divisibility_on_realized_pairs_and_converse():
    # in the carrier, q^a - 1 divides q^b - 1 exactly when the u-exponent of
    # a divides that of b; valuation order is necessary in both worlds
    rng = random.Random(3)
    p, depth = 3, 2
    for _ in range(50):
        k = rng.randint(0, depth)
        m = rng.choice([v for v in range(1, 8) if v % p])
        a = Fraction(m, p**k)
        c = rng.randint(1, 6)
        b = a * c
        fa = q_power_minus_one(a, p, depth)
        fb = q_power_minus_one(b, p, depth)
        quo = laurent_exact_div(fb, fa)
        assert quo is not None and quo * fa == fb
        assert p_valuation(a, p) <= p_valuation(b, p)
    for _ in range(25):
        a = Fraction(rng.choice([1, 2, 4, 5]), p ** rng.randint(1, depth))
        b = Fraction(rng.randint(1, 6))
        assert p_valuation(a, p) < p_valuation(b, p)
        assert laurent_exact_div(q_power_minus_one(a, p, depth),
                                 q_power_minus_one(b, p, depth)) is None


def test_gcd_of_binomials():
    a = LaurentElement({6: 1, 0: -1})
    b = LaurentElement({4: 1, 0: -1})
    g = laurent_gcd(a, b)
    assert g == LaurentElement({2: 1, 0: -1})  # u^gcd(6,4) - 1
    # sympy cross-check
    assert sympy.gcd(x**6 - 1, x**4 - 1) == x**2 - 1


def test_normalize_associate():
    a = LaurentElement({-3: -2, -1: 4})
    n = normalize_associate(a)
    assert n.min_exponent() == 0 and n.terms[n.max_exponent()] > 0


def rebuilt_associate(x: LaurentElement) -> LaurentElement:
    """The associate rebuilt unconditionally: shift to min exponent 0, then
    negate if the leading coefficient is negative."""
    if x.is_zero():
        return x
    shifted = x.shift(-x.min_exponent())
    return -shifted if shifted.terms[shifted.max_exponent()] < 0 else shifted


def test_normalize_associate_matches_the_rebuild():
    rng = random.Random(7)
    normalized = 0
    for _ in range(400):
        terms = {rng.randint(-6, 6): rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(rng.randint(0, 5))}
        if rng.random() < 0.5 and terms:  # already in normal form
            low = min(terms)
            terms = {e - low: c for e, c in terms.items()}
            top = max(terms)
            terms[top] = abs(terms[top])
        x = LaurentElement(terms, rng.randint(0, 2))
        want = rebuilt_associate(x)
        got = normalize_associate(x)
        assert got == want and got.depth == want.depth == x.depth, x
        if want == x:
            normalized += 1
            assert got is x
    assert 150 < normalized < 400


def test_json_round_trip_bit_exact():
    big = 10**40 + 7
    a = LaurentElement({-5: -big, 3: 1}, 2)
    obj = a.to_json()
    assert LaurentElement({int(e): int(c) for e, c in obj["terms"]}, obj["depth"]) == a
    assert a.to_json()["terms"] == [[-5, str(-big)], [3, "1"]]
