"""Depth-n cyclotomic desk model of the universal p-adic period ring.

The carrier at depth n is Z[u^(+-1)] with q := u**(p**n).  Distinguished
elements:

    mu       = q - 1
    xi       = (q - 1)/(q^(1/p) - 1)   (the p**n-th cyclotomic polynomial in u)
    xi_tilde = (q**p - 1)/(q - 1)      (the q-analog of p)

The Frobenius phi substitutes u -> u**p at the same depth; its inverse
reinterprets the coefficient map one depth deeper, so every element stays
inside a finitely presented ring and depth-budget overruns surface as
errors instead of silent precision loss.

theta reduces modulo xi into Z[zeta], zeta a primitive p**n-th root of
unity (the residue-ring model of the de Rham specialization); theta_tilde
is theta after phi^(-1) and lands one level deeper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, inf, lcm

from .arith import (
    LaurentElement,
    dense_coefficients,
    laurent_exact_div,
    p_valuation,
    q_analog,
    q_power_minus_one,
)
from .poly import euclid, exact_div, mul, reduce_monic, trim

# the deepest model `phi_inverse` and `deeper` reach
MAX_DEPTH = 16


# ---------------------------------------------------------------------------
# residue ring Z[zeta_{p^n}]
# ---------------------------------------------------------------------------

class OCModel:
    """Z[u]/(Phi_{p^n}(u)): the integral model of the residue field side.

    Elements are dense coefficient tuples of length phi(p^n) = p^n - p^(n-1);
    reduction folds u-exponents modulo p^n (u^(p^n) = 1 in the quotient)
    and then divides by the sparse cyclotomic modulus, so it is cheap even
    at depth 3 for p = 13.
    """

    def __init__(self, p: int, depth: int):
        if depth < 1:
            raise ValueError("the residue model needs depth >= 1")
        self.p = p
        self.depth = depth
        self.period = p**depth
        self.degree = p**depth - p ** (depth - 1)
        # Phi_{p^n}(u) = sum_{i<p} u^(i p^(n-1)), sparse
        self.modulus = {i * p ** (depth - 1): 1 for i in range(p)}

    def reduce(self, x: LaurentElement) -> "OCModelElement":
        if x.depth > self.depth:
            raise ValueError(f"element at depth {x.depth} does not live in depth-{self.depth} model")
        dense = [0] * self.period
        scale = self.p ** (self.depth - x.depth)
        for e, c in x.terms.items():
            dense[(e * scale) % self.period] += c
        return self._residue(dense)

    def _residue(self, dense: list) -> "OCModelElement":
        """The class of a dense polynomial of degree < 2 p^n: fold, then divide."""
        period = self.period
        for i in range(period, len(dense)):
            dense[i - period] += dense[i]
        del dense[period:]
        return OCModelElement(self, tuple(reduce_monic(dense, self.modulus.items())))

    def zero(self) -> "OCModelElement":
        return OCModelElement(self, tuple([0] * self.degree))

    def constant(self, c: int) -> "OCModelElement":
        return OCModelElement(self, tuple([c] + [0] * (self.degree - 1)))

    def zeta_power_minus_one(self, s: int) -> "OCModelElement":
        """zeta^s - 1 for integer s (zeta = class of u)."""
        s %= self.period
        if s == 0:
            return self.zero()
        return self.reduce(LaurentElement({s: 1, 0: -1}, self.depth))

    def __eq__(self, other):
        return isinstance(other, OCModel) and (self.p, self.depth) == (other.p, other.depth)

    def __hash__(self):
        return hash(("OCModel", self.p, self.depth))

    def __repr__(self):
        return f"OCModel(p={self.p}, depth={self.depth})"


class OCModelElement:
    """Canonical residue (degree < phi(p^n)) in the cyclotomic integer model."""

    __slots__ = ("model", "coeffs")

    def __init__(self, model: OCModel, coeffs: tuple[int, ...]):
        if len(coeffs) != model.degree:
            raise ValueError("bad residue length")
        self.model = model
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other: "OCModelElement"):
        if self.model != other.model:
            raise ValueError("mixed residue models")

    def __add__(self, other):
        self._check(other)
        return OCModelElement(self.model, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return OCModelElement(self.model, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return self.model._residue(mul(self.coeffs, other.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, OCModelElement)
            and self.model == other.model
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.model.p, self.model.depth, self.coeffs))

    def __repr__(self):
        return f"OC({list(self.coeffs)}; p={self.model.p}, depth={self.model.depth})"

    # -- division ---------------------------------------------------------------

    def inverse_rational(self) -> tuple[list[int], int] | None:
        """Inverse in Q[u]/Phi as integer numerators over one common
        denominator, or None if zero.

        Returns ``(nums, den)`` with ``den > 0``, ``gcd(den, *nums) == 1``
        and ``len(nums) == phi(p^n)``; the inverse is ``nums[i]/den``.  The
        extended Euclid against the modulus stays in Z[u] while every
        leading coefficient is +-1 (see :func:`aomega.poly.euclid`); its
        last remainder is a constant, which becomes the common denominator.
        """
        if self.is_zero():
            return None
        m = self.model
        modulus = [m.modulus.get(i, 0) for i in range(m.degree + 1)]
        rem, s = euclid(modulus, self.coeffs)
        if len(rem) != 1:
            return None  # common factor with the modulus: not invertible
        # s / rem[0]; ints carry .numerator and .denominator like Fractions
        lead = rem[0]
        scale = lcm(*(c.denominator for c in s))
        den = scale * lead.numerator
        nums = [c.numerator * (scale // c.denominator) * lead.denominator for c in s]
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        nums = [c // g for c in nums]
        return nums + [0] * (m.degree - len(nums)), den // g

    def exact_div(self, divisor: "OCModelElement") -> "OCModelElement | None":
        """self / divisor when the quotient lies in Z[zeta], else None.

        With ``nums/den`` the inverse of the divisor, the quotient is
        ``self * nums`` reduced modulo Phi, over the integers, then divided
        by ``den``; the quotient in Q(zeta) is unique, so it lies in
        Z[zeta] exactly when ``den`` divides every coefficient.  Fractions
        appear only inside ``inverse_rational``, and only after a non-unit
        leading coefficient.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero residue")
        if self.is_zero():
            return self.model.zero()
        inv = divisor.inverse_rational()
        if inv is None:
            return None
        nums, den = inv
        prod = self * OCModelElement(self.model, tuple(nums))
        if any(c % den for c in prod.coeffs):
            return None
        return OCModelElement(self.model, tuple(c // den for c in prod.coeffs))

    def is_unit(self) -> bool:
        """True iff self is invertible in Z[zeta]: its inverse is integral."""
        inv = self.inverse_rational()
        return inv is not None and inv[1] == 1


# ---------------------------------------------------------------------------
# the model proper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AinfModel:
    """Prime p and depth n, with the distinguished elements and maps.

    The distinguished elements are built once per model, on first use
    (a frozen dataclass still has the instance dict `cached_property`
    writes to)."""

    p: int
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.p < 2:
            raise ValueError("p must be a prime >= 2")
        # construction-time sanity: xi * phi^-1(mu) == mu and xi_tilde == phi(xi)
        assert self.xi * self.phi_inv_mu == self.mu
        assert self.phi(self.xi) == self.xi_tilde

    # -- distinguished elements -------------------------------------------------

    @cached_property
    def mu(self) -> LaurentElement:
        return LaurentElement({self.p**self.depth: 1, 0: -1}, self.depth)

    @cached_property
    def phi_inv_mu(self) -> LaurentElement:
        """q^(1/p) - 1, an honest element of the depth-n carrier."""
        return LaurentElement({self.p ** (self.depth - 1): 1, 0: -1}, self.depth)

    @cached_property
    def xi(self) -> LaurentElement:
        step = self.p ** (self.depth - 1)
        return LaurentElement({i * step: 1 for i in range(self.p)}, self.depth)

    @cached_property
    def xi_tilde(self) -> LaurentElement:
        step = self.p**self.depth
        return LaurentElement({i * step: 1 for i in range(self.p)}, self.depth)

    # -- element builders ---------------------------------------------------------

    def q_power_minus_one(self, a) -> LaurentElement:
        return q_power_minus_one(a, self.p, self.depth)

    def q_analog(self, a) -> LaurentElement:
        return q_analog(a, self.p, self.depth)

    def constant(self, c: int) -> LaurentElement:
        return LaurentElement.constant(c, self.depth)

    # -- maps ---------------------------------------------------------------------

    def phi(self, x: LaurentElement) -> LaurentElement:
        """Frobenius u -> u**p (injective, depth preserved)."""
        if x.depth != self.depth:
            raise ValueError("element depth does not match the model")
        return x.substitute_power(self.p)

    def phi_inverse(self, x: LaurentElement) -> LaurentElement:
        """Inverse Frobenius: same coefficients, one depth deeper.

        At depth n+1 the carrier embeds the depth-n one by u -> u**p, so
        keeping the exponent map and bumping the depth realizes u -> u^(1/p).
        """
        if x.depth != self.depth:
            raise ValueError("element depth does not match the model")
        if self.depth + 1 > MAX_DEPTH:
            raise ValueError(f"depth budget exceeded (max_depth={MAX_DEPTH})")
        return x.with_depth(self.depth + 1)

    def deeper(self) -> "AinfModel":
        if self.depth + 1 > MAX_DEPTH:
            raise ValueError(f"depth budget exceeded (max_depth={MAX_DEPTH})")
        return AinfModel(self.p, self.depth + 1)

    def raise_depth(self, x: LaurentElement, depth: int) -> LaurentElement:
        """Canonical embedding into a deeper model: exponents scale by p^(delta)."""
        if depth < x.depth:
            raise ValueError("cannot lower depth")
        return x.substitute_power(self.p ** (depth - x.depth)).with_depth(depth)

    def oc_model(self) -> OCModel:
        return OCModel(self.p, self.depth)

    def theta(self, x: LaurentElement) -> OCModelElement:
        """Reduction modulo xi: u -> zeta, a primitive p**n-th root of unity."""
        if x.depth != self.depth:
            raise ValueError("element depth does not match the model")
        return self.oc_model().reduce(x)

    def theta_tilde(self, x: LaurentElement) -> OCModelElement:
        """theta after inverse Frobenius; lands one depth deeper."""
        return OCModel(self.p, self.depth + 1).reduce(self.phi_inverse(x))

    def reduce_mod_mu(self, x: LaurentElement) -> LaurentElement:
        """Canonical representative modulo mu: u-exponents folded into [0, p**n)."""
        if x.depth != self.depth:
            raise ValueError("element depth does not match the model")
        period = self.p**self.depth
        folded: dict[int, int] = {}
        for e, c in x.terms.items():
            k = e % period
            folded[k] = folded.get(k, 0) + c
        return LaurentElement(folded, self.depth)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def _fp_one_valuation(f: list, p: int) -> int | float:
    """Largest k with (u - 1)^k dividing f in F_p[u]; inf for f = 0."""
    if not f:
        return inf
    k = 0  # each quotient is one degree lower; a constant has valuation 0
    while len(f) > 1 and (f := exact_div(f, [p - 1, 1], p)) is not None:
        k += 1
    return k


def _least_power(threshold: int, v: int) -> int:
    """The least k with k*v >= threshold."""
    return -(-threshold // v)


@dataclass
class IdentityReport:
    """Outcome of one named identity check, with a witness on failure."""

    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


def check_notation_identities(model: AinfModel, samples: int = 50, seed: int = 0) -> list[IdentityReport]:
    """Verify the distinguished-element identities as exact polynomial statements.

    Covers: kernel generators of theta/theta_tilde, q-power divisibility on
    sampled exponent pairs, the integer congruences modulo mu, the inverse
    Frobenius product formula, regularity of the pairwise residues, and the
    ideal-topology statement that each of (p, xi), (p, xi_tilde), (p, mu),
    (xi_tilde, mu) contains a power of every generator of the others.
    """
    p, n = model.p, model.depth
    rng = random.Random(seed)
    out: list[IdentityReport] = []

    # kernel generators: theta(xi) = 0, theta_tilde(xi_tilde) = 0, and xi is
    # literally the p^n-th cyclotomic polynomial of the carrier variable.
    cyclo = {i * p ** (n - 1): 1 for i in range(p)}
    ok = (
        model.theta(model.xi).is_zero()
        and model.theta_tilde(model.xi_tilde).is_zero()
        and model.xi.terms == cyclo
        and model.theta(model.mu).is_zero()
    )
    out.append(IdentityReport("kernel_generators", ok))

    # divisibility: (q^a - 1) | (q^b - 1) on the pairs the carrier realizes
    # (b an integer multiple of a, which forces v_p(a) <= v_p(b)), plus the
    # converse direction: v_p(a) > v_p(b) forbids divisibility.
    failures = []
    for _ in range(samples):
        k = rng.randint(0, n)
        m = rng.choice([x for x in range(-9, 10) if x and x % p])
        a = Fraction(m, p**k)
        c = rng.choice([x for x in range(-9, 10) if x])
        b = a * c
        fa = model.q_power_minus_one(a)
        fb = model.q_power_minus_one(b)
        quo = laurent_exact_div(fb, fa)
        if quo is None or quo * fa != fb:
            failures.append({"a": str(a), "b": str(b)})
        if p_valuation(a, p) > p_valuation(b, p):
            failures.append({"a": str(a), "b": str(b), "note": "valuation order violated by sampler"})
    for _ in range(samples // 2):
        k = rng.randint(1, n)
        m = rng.choice([x for x in range(1, 10) if x % p])
        a = Fraction(m, p**k)       # v_p(a) = -k
        b = Fraction(rng.randint(1, 9) * p ** rng.randint(0, 2))  # v_p(b) >= 0 > v_p(a)
        fa = model.q_power_minus_one(b)
        fb = model.q_power_minus_one(a)
        if laurent_exact_div(fb, fa) is not None:
            failures.append({"a": str(b), "b": str(a), "note": "unexpected divisibility"})
    out.append(IdentityReport("divisibility", not failures, {"failures": failures[:3]}))

    # congruences mod mu: [a]_q = a and xi_tilde = p
    failures = []
    for a in range(-9, 10):
        r = model.reduce_mod_mu(model.q_analog(a))
        if r != model.constant(a):
            failures.append({"a": a, "residue": r.to_json()})
    if model.reduce_mod_mu(model.xi_tilde) != model.constant(p):
        failures.append({"identity": "xi_tilde mod mu != p"})
    out.append(IdentityReport("congruences", not failures, {"failures": failures[:3]}))

    # product formula: mu = (prod_{i<n} phi^-i(xi)) * phi^-n(mu), verified at depth n
    # where every factor has integral exponents: phi^-i(xi) = Phi_{p^(n-i)}(u),
    # phi^-n(mu) = u - 1.
    prod = LaurentElement({1: 1, 0: -1}, n)
    for i in range(n):
        step = p ** (n - i - 1)
        prod = prod * LaurentElement({j * step: 1 for j in range(p)}, n)
    ok = prod == model.mu
    # the same identity reached through phi_inverse and depth raising: the
    # factor phi^-i(xi) lives at depth n+i; everything embeds into depth 2n
    # where the product can be compared against mu directly.
    top = 2 * n
    if top <= MAX_DEPTH:
        cur = model
        factor = model.xi
        deep_prod = LaurentElement.one(top)
        for _ in range(n):
            deep_prod = deep_prod * model.raise_depth(factor, top)
            factor = cur.phi_inverse(factor)
            cur = cur.deeper()
        tail = model.mu.with_depth(top)  # phi^-n(mu): same coefficients, depth 2n
        deep_prod = deep_prod * tail
        ok = ok and deep_prod == model.raise_depth(model.mu, top)
    out.append(IdentityReport("product_formula", ok))

    # regularity: mu, xi, xi_tilde nonzero mod p; p nonzero mod each; the
    # quotients by mu and xi_tilde are free Z-modules so p stays regular there.
    oc = model.oc_model()
    oc2 = OCModel(p, n + 1)
    checks = {
        "mu_mod_p": any(c % p for c in model.mu.terms.values()),
        "xi_mod_p": any(c % p for c in model.xi.terms.values()),
        "xi_tilde_mod_p": any(c % p for c in model.xi_tilde.terms.values()),
        "p_mod_mu": not model.reduce_mod_mu(model.constant(p)).is_zero(),
        "p_mod_xi": not oc.constant(p).is_zero(),
        "p_mod_xi_tilde": not oc2.constant(p).is_zero(),
        # xi_tilde is the p^(n+1)-th cyclotomic polynomial in the carrier
        # variable, so reduction modulo it relabels the depth without the
        # exponent-scaling embedding.
        "mu_mod_xi_tilde": not oc2.reduce(model.mu.with_depth(n + 1)).is_zero(),
        "xi_tilde_mod_mu": model.reduce_mod_mu(model.xi_tilde) == model.constant(p),
    }
    out.append(
        IdentityReport("regularity", all(checks.values()), {k: v for k, v in checks.items() if not v})
    )

    # ideal topology: each of (p, xi), (p, xi_tilde), (p, mu), (xi_tilde, mu)
    # contains a power of every generator of the others.  xi_tilde - p is
    # divisible by mu, so the fourth ideal is (p, mu); gen^k lies in (p, h)
    # iff h | gen^k in F_p[u], decided by division.  k is the least power the
    # (u-1)-adic valuations allow, as mod p each generator is a unit times
    # (u - 1)^spread: its valuation equals its exponent spread, checked here.
    failures: list[dict] = []
    witness = laurent_exact_div(model.xi_tilde - model.constant(p), model.mu)
    if witness is None:
        failures.append({"identity": "xi_tilde - p not divisible by mu"})
    gens = {"mu": model.mu, "xi": model.xi, "xi_tilde": model.xi_tilde}
    # every coefficient is +-1, so reducing mod p keeps the constant terms.
    # The lists are in v = u^step; with step = m p^j, m prime to p, v - 1 is
    # (u - 1)^(p^j) times a unit at u = 1, so valuations scale by p^j.
    step, dense = dense_coefficients(gens.values())
    reduced = {name: trim([c % p for c in f]) for name, f in zip(gens, dense)}
    vals = {name: p ** p_valuation(step, p) * _fp_one_valuation(f, p) for name, f in reduced.items()}
    for name, x in gens.items():
        spread = x.max_exponent() - x.min_exponent()
        if vals[name] != spread:
            failures.append({"element": name, "valuation": vals[name], "spread": spread})
    ideal_gens = {"(p,xi)": ["xi"], "(p,xi_tilde)": ["xi_tilde"],
                  "(p,mu)": ["mu"], "(xi_tilde,mu)": ["xi_tilde", "mu"]}
    powers = {}
    for ideal_name, others in ideal_gens.items():
        h = others[-1]
        for gen in ("mu", "xi", "xi_tilde"):
            if gen in others:
                continue
            v = vals[gen]
            if v <= 0:
                failures.append({"ideal": ideal_name, "generator": gen, "valuation": v})
                continue
            k = _least_power(vals[h], v)
            gen_power = [1]
            for _ in range(k):
                gen_power = trim([c % p for c in mul(gen_power, reduced[gen])])
            powers[f"{gen}^{k} in {ideal_name}"] = exact_div(gen_power, reduced[h], p) is not None
        # p itself lies in every one of the four ideals (in the fourth via
        # p = xi_tilde - mu*witness), power 1.
        powers[f"p^1 in {ideal_name}"] = True
    if not all(powers.values()):
        failures.append({"powers": {k: v for k, v in powers.items() if not v}})
    out.append(IdentityReport("ideal_topology", not failures, {"failures": failures, "witnesses": powers}))
    return out
