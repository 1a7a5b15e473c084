"""Witt layer: Teichmuller arithmetic and semilinear fixed points."""

import random
from fractions import Fraction

import pytest

from aomega import suites, witt
from aomega.suites import SessionConfig, run_suite
from aomega.witt import (
    GF,
    SemilinearModule,
    TruncatedWittElement,
    digits_to_witt,
    exhaustive_fixed_points,
    frobenius_fixed_points,
    teichmuller_digits,
    teichmuller_lift,
)


def powering_oracle(value: int, p: int, m: int) -> int:
    """Teichmuller lift of a residue by iterated p-th powering until stable."""
    mod = p**m
    cur = value % mod
    while True:
        nxt = pow(cur, p, mod)
        if nxt == cur:
            return cur
        cur = nxt


def oracle_mul(a, b):
    """The Fraction-keyed product loop the separate perfection and Witt classes each carried."""
    t = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            e = e1 + e2
            t[e] = t.get(e, 0) + c1 * c2
    return TruncatedWittElement(a.p, a.precision, t)


def oracle_lift(a, m):
    """[a] as the p^m-th power, by oracle_mul, of the naive lift of a^(1/p^m)."""
    cur = TruncatedWittElement(a.p, m, {e / a.p**m: c for e, c in a.terms})
    for _ in range(m):
        power = cur
        for _ in range(a.p - 1):
            power = oracle_mul(power, cur)
        cur = power
    return cur


def random_element(rng, p, m, max_terms=3):
    terms = {
        Fraction(rng.randint(0, 5), p ** rng.randint(0, 2)): rng.randint(1, p**m - 1)
        for _ in range(rng.randint(1, max_terms))
    }
    return TruncatedWittElement(p, m, terms)


def test_mul_matches_fraction_keyed_oracle():
    rng = random.Random(10)
    for m in (1, 2, 3, 4):
        for _ in range(30):
            p = rng.choice((2, 3, 5))
            a, b = random_element(rng, p, m), random_element(rng, p, m)
            assert a * b == oracle_mul(a, b)


def test_lift_matches_fraction_keyed_oracle():
    rng = random.Random(11)
    for m in (1, 2, 3, 4):
        for _ in range(8):
            p = rng.choice((2, 3))
            a = random_element(rng, p, 1, max_terms=2)
            assert teichmuller_lift(a, m) == oracle_lift(a, m)


def test_lift_refuses_input_outside_the_perfection():
    with pytest.raises(ValueError):
        teichmuller_lift(TruncatedWittElement.constant(3, 2, 2), 2)


def test_frobenius_inverse_undoes_frobenius_at_precision_three():
    rng = random.Random(12)
    for _ in range(30):
        w = random_element(rng, rng.choice((2, 3)), 3)
        assert w.frobenius().frobenius_inverse() == w
        assert w.frobenius_inverse().frobenius() == w


def test_naive_lift_fails_constant_digit_check(monkeypatch):
    # copying coefficients is additive, not multiplicative: digits and
    # their re-assembly still agree with each other, the lift of a constant does not
    def naive_lift(a, m):
        return TruncatedWittElement(a.p, m, a.terms)

    monkeypatch.setattr(witt, "teichmuller_lift", naive_lift)
    monkeypatch.setattr(suites, "teichmuller_lift", naive_lift)
    report = run_suite("witt", SessionConfig(p=3, seed=0))
    checks = {name: ok for name, ok, _ in report.checks}
    assert checks["digit-roundtrip-constants"] is False
    assert not report.passed


def test_teichmuller_lift_of_constant_matches_powering_oracle():
    assert powering_oracle(2, 3, 2) == 8  # frozen: 2 -> 2^(3^k) mod 9 stabilizes at 8
    got = teichmuller_lift(TruncatedWittElement.constant(3, 1, 2), 2)
    assert got == TruncatedWittElement.constant(3, 2, 8)
    for p, m in ((2, 3), (3, 3), (5, 2)):
        for value in range(1, p):
            lift = teichmuller_lift(TruncatedWittElement.constant(p, 1, value), m)
            assert lift == TruncatedWittElement.constant(p, m, powering_oracle(value, p, m))


def test_digits_of_eight_in_length_two():
    w = TruncatedWittElement.constant(3, 2, 8)
    digits = teichmuller_digits(w)
    assert digits[0] == TruncatedWittElement.constant(3, 1, 2)
    assert digits[1] == TruncatedWittElement.zero(3, 1)
    assert digits_to_witt(digits, 3, 2) == w


def test_digits_of_p():
    for p in (2, 3, 5):
        w = TruncatedWittElement.constant(p, 2, p)
        digits = teichmuller_digits(w)
        assert digits[0] == TruncatedWittElement.zero(p, 1)
        assert digits[1] == TruncatedWittElement.constant(p, 1, 1)


def test_digits_of_monomial():
    w = teichmuller_lift(TruncatedWittElement(5, 1, {1: 1}), 3)
    digits = teichmuller_digits(w)
    assert digits[0] == TruncatedWittElement(5, 1, {1: 1})
    assert digits[1] == digits[2] == TruncatedWittElement.zero(5, 1)


def test_lift_multiplicative():
    a = TruncatedWittElement(3, 1, {Fraction(1, 3): 1})
    b = TruncatedWittElement(3, 1, {Fraction(2, 3): 1})
    assert teichmuller_lift(a, 3) * teichmuller_lift(b, 3) == teichmuller_lift(a * b, 3)
    assert teichmuller_lift(TruncatedWittElement.constant(3, 1, 1), 4) == TruncatedWittElement.constant(3, 4, 1)


def test_lift_multiplicative_random():
    rng = random.Random(2)
    for _ in range(40):
        p = rng.choice((2, 3))
        m = rng.randint(1, 3)
        def rand_elt():
            terms = {
                Fraction(rng.randint(0, 4), p ** rng.randint(0, 2)): rng.randint(1, p - 1)
                for _ in range(rng.randint(1, 2))
            }
            return TruncatedWittElement(p, 1, terms)
        a, b = rand_elt(), rand_elt()
        assert teichmuller_lift(a, m) * teichmuller_lift(b, m) == teichmuller_lift(a * b, m)


def test_frobenius_compatible_with_lift():
    rng = random.Random(4)
    for _ in range(100):
        p = rng.choice((2, 3))
        m = rng.randint(1, 4)
        terms = {
            Fraction(rng.randint(0, 5), p ** rng.randint(0, 2)): rng.randint(1, p - 1)
            for _ in range(rng.randint(1, 3))
        }
        a = TruncatedWittElement(p, 1, terms)
        assert teichmuller_lift(a, m).frobenius() == teichmuller_lift(a.frobenius(), m)


def test_digit_round_trip_random_and_constants():
    rng = random.Random(6)
    for p in (2, 3):
        for value in range(p**3):
            w = TruncatedWittElement.constant(p, 3, value)
            assert digits_to_witt(teichmuller_digits(w), p, 3) == w
    for _ in range(100):
        p = rng.choice((2, 3))
        m = rng.randint(1, 4)
        terms = {
            Fraction(rng.randint(0, 5), p ** rng.randint(0, 2)): rng.randint(1, p**m - 1)
            for _ in range(rng.randint(1, 3))
        }
        w = TruncatedWittElement(p, m, terms)
        assert digits_to_witt(teichmuller_digits(w), p, m) == w


def test_perfection_frobenius_inverse_raises_depth():
    a = TruncatedWittElement(3, 1, {1: 1})
    root = a.frobenius_inverse()
    assert root == TruncatedWittElement(3, 1, {Fraction(1, 3): 1})
    assert root.frobenius() == a


def test_fixed_points_identity_matrix():
    F4 = GF(2, 2)
    module = SemilinearModule(F4, [[F4.one()]])
    dim, basis, check = frobenius_fixed_points(module)
    assert dim == 1 and check["status"] == "ok"
    assert len(exhaustive_fixed_points(module)) == 2  # the prime field

    F2 = GF(2, 1)
    module2 = SemilinearModule(F2, [[F2.one(), F2.zero()], [F2.zero(), F2.one()]])
    dim2, _, check2 = frobenius_fixed_points(module2)
    assert dim2 == 2 and check2["status"] == "ok"


def test_fixed_points_twisted_scalar_matches_exhaustive():
    F4 = GF(2, 2)
    alpha = (0, 1)  # the class of x, which generates F_4 over F_2
    module = SemilinearModule(F4, [[alpha]])
    dim, basis, check = frobenius_fixed_points(module)
    oracle = exhaustive_fixed_points(module)
    assert len(oracle) == 2**dim
    for v in basis:
        assert module.apply(v) == v


def test_fixed_points_requires_extension_case():
    # over F_9 with modulus x^2 + 1: (x+1)^-1 = x+2 is not a square, so
    # c = x+1 has no nonzero fixed vector over the ground field
    F9 = GF(3, 2)
    assert F9.modulus == (1, 0, 1)
    c = (1, 1)
    module = SemilinearModule(F9, [[c]])
    dim, _, check = frobenius_fixed_points(module)
    oracle = exhaustive_fixed_points(module)
    assert len(oracle) == 3**dim
    if dim < 1:
        assert check["status"] == "RequiresExtension"
    assert dim == 0 and check["status"] == "RequiresExtension"


def test_fixed_points_vs_exhaustive_sweep():
    rng = random.Random(8)
    for p, m in ((2, 2), (2, 3), (3, 2)):
        F = GF(p, m)
        trials = 0
        while trials < 8:
            r = rng.randint(1, 2)
            mat = [[tuple(rng.randrange(p) for _ in range(m)) for _ in range(r)] for _ in range(r)]
            try:
                module = SemilinearModule(F, mat)
            except ValueError:
                continue
            trials += 1
            dim, basis, check = frobenius_fixed_points(module)
            oracle = exhaustive_fixed_points(module)
            assert len(oracle) == p**dim
            assert all(module.apply(v) == v for v in basis)


def test_gf_ring_operations():
    # the exact division and negation that elimination over GF relies on;
    # a rank computation cannot see a division that is off by a unit
    for p, m in ((2, 2), (3, 2), (2, 3)):
        F = GF(p, m)
        elements = list(F.elements())
        for a in elements:
            assert F.is_zero(F.add(a, F.neg(a)))
            assert F.is_zero(a) == (a == F.zero())
            for b in elements:
                if not F.is_zero(b):
                    assert F.mul(F.exact_div(a, b), b) == a


def test_singular_matrix_rejected():
    F4 = GF(2, 2)
    with pytest.raises(ValueError):
        SemilinearModule(F4, [[F4.zero()]])


def test_witt_json_round_trip():
    w = TruncatedWittElement(3, 2, {Fraction(1, 3): 5, Fraction(2): 8})
    assert TruncatedWittElement.from_json(w.to_json()) == w
