"""Cyclotomic model: distinguished elements, Frobenius, residue maps."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.abc import x

from aomega import ainf, poly, torus
from aomega.ainf import AinfModel, OCModel, OCModelElement, check_notation_identities
from aomega.arith import LaurentElement, laurent_exact_div


def test_xi_is_the_cyclotomic_polynomial():
    for p, n in ((2, 1), (3, 1), (3, 2), (5, 2), (2, 3)):
        model = AinfModel(p, n)
        oracle = sympy.Poly(sympy.cyclotomic_poly(p**n, x), x).all_coeffs()[::-1]
        got = model.xi.terms
        assert got == {e: c for e, c in enumerate(oracle) if c}


def test_mu_factorization():
    for p, n in ((2, 2), (3, 1), (5, 1), (3, 2)):
        model = AinfModel(p, n)
        assert model.xi * model.phi_inv_mu == model.mu
        assert model.phi(model.xi) == model.xi_tilde
        assert model.phi(model.mu) == model.xi_tilde * model.mu


def test_phi_examples():
    model = AinfModel(3, 1)
    assert model.phi(LaurentElement.one(1)) == LaurentElement.one(1)
    assert model.phi(LaurentElement({1: 1}, 1)).terms == {3: 1}


def test_phi_inverse_round_trip():
    model = AinfModel(3, 1)
    mu = model.mu
    deeper = model.phi_inverse(mu)
    assert deeper.depth == 2
    # phi brings it back after depth normalization
    deeper_model = model.deeper()
    assert deeper_model.phi(deeper) == model.raise_depth(mu, 2)
    assert model.phi_inverse(LaurentElement.one(1)) == LaurentElement.one(2)


def test_phi_inverse_depth_budget(monkeypatch):
    monkeypatch.setattr(ainf, "MAX_DEPTH", 2)
    model = AinfModel(2, 1)
    once = model.phi_inverse(model.mu)
    with pytest.raises(ValueError):
        model.deeper().phi_inverse(once)
    with pytest.raises(ValueError):
        model.deeper().deeper()


def test_inverse_frobenius_product_formula_depth2():
    # mu = xi * phi^-1(xi) * phi^-2(mu) at p = 2, n = 2
    model = AinfModel(2, 2)
    xi0 = model.raise_depth(model.xi, 4)
    xi1 = model.raise_depth(model.phi_inverse(model.xi), 4)
    tail = model.mu.with_depth(4)  # two inverse-Frobenius steps keep the terms
    assert xi0 * xi1 * tail == model.raise_depth(model.mu, 4)


def test_theta_kills_xi_and_theta_tilde_kills_xi_tilde():
    for p, n in ((2, 1), (3, 1), (3, 2), (5, 1)):
        model = AinfModel(p, n)
        assert model.theta(model.xi).is_zero()
        assert model.theta_tilde(model.xi_tilde).is_zero()


def test_theta_of_q_is_one():
    # oracle: u^(p^n) reduces to 1 modulo the p^n-th cyclotomic polynomial
    p, n = 3, 1
    assert sympy.rem(x**3 - 1, sympy.cyclotomic_poly(3, x), x) == 0
    model = AinfModel(p, n)
    q = LaurentElement({p**n: 1}, n)
    assert model.theta(q) == model.oc_model().constant(1)


def test_theta_tilde_is_theta_after_inverse_frobenius():
    rng = random.Random(9)
    model = AinfModel(3, 1)
    deeper = model.deeper()
    for _ in range(100):
        terms = {rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(1, 5))}
        v = LaurentElement(terms, 1)
        assert model.theta_tilde(v) == deeper.theta(model.phi_inverse(v))


def test_oc_reduction_idempotent_and_linear():
    model = AinfModel(3, 2)
    oc = model.oc_model()
    v = LaurentElement({11: 4, -3: 2, 0: 1}, 2)
    r = oc.reduce(v)
    lifted = LaurentElement({i: c for i, c in enumerate(r.coeffs) if c}, 2)
    assert oc.reduce(lifted) == r
    w = LaurentElement({5: -1}, 2)
    assert oc.reduce(v + w) == oc.reduce(v) + oc.reduce(w)


def test_oc_exact_division_and_units():
    oc = OCModel(3, 1)
    zeta_minus_1 = oc.zeta_power_minus_one(1)
    zeta2_minus_1 = oc.zeta_power_minus_one(2)
    # associates: each divides the other
    assert zeta2_minus_1.exact_div(zeta_minus_1) is not None
    assert zeta_minus_1.exact_div(zeta2_minus_1) is not None
    ratio = zeta2_minus_1.exact_div(zeta_minus_1)
    assert ratio.is_unit()
    assert not oc.constant(3).is_unit()
    # p is a product of the root differences: (zeta-1)(zeta^2-1) = 3 in Z[zeta_3]
    assert zeta_minus_1 * zeta2_minus_1 == oc.constant(3)


def test_congruence_of_q_analog_mod_mu():
    model = AinfModel(5, 1)
    for a in range(-9, 10):
        assert model.reduce_mod_mu(model.q_analog(a)) == model.constant(a)
    assert model.reduce_mod_mu(model.xi_tilde) == model.constant(5)


def test_identity_suite_all_configs():
    for p in (2, 3, 5, 7, 11, 13):
        for n in (1, 2, 3):
            results = check_notation_identities(AinfModel(p, n), samples=50, seed=11)
            failed = [r.name for r in results if not r.passed]
            assert not failed, (p, n, failed)


def test_q_power_divisibility_via_model_elements():
    # (q - 1) divides (q^b - 1) for every integer b
    model = AinfModel(3, 2)
    for b in range(-6, 7):
        if b == 0:
            continue
        assert laurent_exact_div(model.q_power_minus_one(b), model.mu) is not None


# -- residue division against a rational extended-Euclid oracle ---------------

def oracle_inverse(x):
    """Inverse in Q[u]/Phi as a dense Fraction list, or None if zero: an
    extended Euclid over Q[u] that never leaves Fraction arithmetic."""
    if x.is_zero():
        return None
    m = x.model
    mod = [Fraction(0)] * (m.degree + 1)
    for e, c in m.modulus.items():
        mod[e] = Fraction(c)
    a = [Fraction(c) for c in x.coeffs]
    r0, r1 = mod, a
    s0, s1 = [Fraction(0)], [Fraction(1)]

    def deg(f):
        for i in range(len(f) - 1, -1, -1):
            if f[i]:
                return i
        return -1

    def sub_scaled(f, g, c, shift):
        out = list(f) + [Fraction(0)] * max(0, deg(g) + shift + 1 - len(f))
        for i in range(deg(g) + 1):
            if g[i]:
                out[i + shift] -= c * g[i]
        return out

    while deg(r1) > 0:
        while deg(r0) >= deg(r1):
            c = r0[deg(r0)] / r1[deg(r1)]
            shift = deg(r0) - deg(r1)
            r0 = sub_scaled(r0, r1, c, shift)
            s0 = sub_scaled(s0, s1, c, shift)
        r0, r1 = r1, r0
        s0, s1 = s1, s0
    if deg(r1) < 0:
        return None
    lead = r1[0]
    inv = [c / lead for c in s1]
    inv += [Fraction(0)] * (m.degree - len(inv))
    return inv[: m.degree]


def oracle_exact_div(a, inv):
    """a times the oracle inverse `inv` of a divisor, reduced modulo Phi
    in Fraction arithmetic; None unless every coefficient is integral."""
    if inv is None:
        return None
    m = a.model
    prod = [Fraction(0)] * (2 * m.degree - 1)
    for i, c in enumerate(a.coeffs):
        if c:
            for j, d in enumerate(inv):
                if d:
                    prod[i + j] += c * d
    top = max(m.modulus)
    for degree in range(len(prod) - 1, m.degree - 1, -1):
        c = prod[degree]
        if c:
            for e, mc in m.modulus.items():
                prod[degree - top + e] -= c * mc
    if any(c.denominator != 1 for c in prod[: m.degree]):
        return None
    return OCModelElement(m, tuple(int(c) for c in prod[: m.degree]))


class CountingFraction(Fraction):
    """Fraction that counts its constructions, to see which route ran."""

    made = 0

    def __new__(cls, *args, **kwargs):
        CountingFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


def check_against_oracle(x, dividends=()):
    """inverse_rational, is_unit and exact_div by x agree with the oracle."""
    inv = x.inverse_rational()
    expected = oracle_inverse(x)
    if expected is None:
        assert inv is None
    else:
        nums, den = inv
        assert den > 0 and len(nums) == x.model.degree
        assert sympy.gcd_list([den, *nums]) == 1
        assert [Fraction(c, den) for c in nums] == expected
    oracle_unit = not x.is_zero() and oracle_exact_div(x.model.constant(1), expected) is not None
    assert x.is_unit() == oracle_unit
    for a in dividends:
        if not x.is_zero():
            assert a.exact_div(x) == oracle_exact_div(a, expected)


def random_residue(oc, rng, width=3, spread=3):
    coeffs = [0] * oc.degree
    for _ in range(rng.randint(1, width)):
        coeffs[rng.randrange(oc.degree)] = rng.randint(-spread, spread)
    return OCModelElement(oc, tuple(coeffs))


@pytest.mark.parametrize("p,n,samples", [(2, 1, 12), (3, 2, 12), (5, 2, 12), (13, 2, 4)])
def test_residue_division_matches_oracle_on_random_elements(p, n, samples):
    oc = OCModel(p, n)
    rng = random.Random(100 * p + n)
    for _ in range(samples):
        b = random_residue(oc, rng)
        c = random_residue(oc, rng)
        # b * c is divisible by b; a random element mostly is not
        check_against_oracle(b, dividends=(b * c, random_residue(oc, rng), oc.constant(1)))
    # zeta^s - 1 is a unit times a prime above p unless p^n divides s
    for s in range(1, oc.period, 1 + oc.period // 24):
        check_against_oracle(oc.zeta_power_minus_one(s), dividends=(oc.constant(p),))


@pytest.mark.parametrize("p", [11, 13])
def test_residue_division_matches_oracle_on_pipeline_residuals(p, monkeypatch):
    # the two-term residuals u + 1 and u^p + 1 of torus cells at depth 2,
    # reduced one level deeper as theta_tilde does (degree 1210 or 2028);
    # every Euclid step divides by a +-1 lead
    monkeypatch.setattr(poly, "Fraction", CountingFraction)
    oc = OCModel(p, 3)
    for s in (2, 2 * p):
        residual, _ = torus._residual_outcome(p, 2, s)
        x = oc.reduce(residual.with_depth(3))
        CountingFraction.made = 0
        check_against_oracle(x, dividends=(oc.zeta_power_minus_one(1), oc.constant(p)))
        assert x.is_unit()
        assert CountingFraction.made == 0


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (13, 2)])
def test_residue_division_fraction_route_only_after_non_unit_lead(p, n, monkeypatch):
    monkeypatch.setattr(poly, "Fraction", CountingFraction)
    oc = OCModel(p, n)

    def element(terms):
        return oc.reduce(LaurentElement(terms, n))

    # integer route: the only non-unit coefficient is the final constant
    for x in (oc.constant(3), element({0: 2, 1: 1}), element({0: -2, 1: 1})):
        CountingFraction.made = 0
        check_against_oracle(x, dividends=(x * element({1: 1, 0: 1}), oc.constant(1)))
        assert CountingFraction.made == 0
    # Fraction route: a remainder with a non-unit leading coefficient
    for x in (element({0: 1, 1: 2}), element({0: 1, 2: 2}), element({0: 1, 3: 2}), element({0: -2, 2: 1})):
        CountingFraction.made = 0
        check_against_oracle(x, dividends=(x * element({2: 1, 0: -1}), oc.constant(5)))
        assert CountingFraction.made > 0
        assert x.inverse_rational()[1] > 1


def ideal_topology(model):
    (report,) = [r for r in check_notation_identities(model, samples=2) if r.name == "ideal_topology"]
    return report


@pytest.mark.parametrize("p,n", [(2, 1), (3, 2), (5, 1), (13, 2)])
def test_ideal_topology_fails_one_power_short(p, n, monkeypatch):
    # the powers are decided by division in F_p[u], not by the valuation
    # arithmetic that picks them: one power less must not be contained
    model = AinfModel(p, n)
    assert ideal_topology(model).passed
    least = ainf._least_power
    monkeypatch.setattr(ainf, "_least_power", lambda t, v: least(t, v) - (least(t, v) > 1))
    report = ideal_topology(model)
    assert not report.passed
    assert report.detail["failures"][-1]["powers"]
