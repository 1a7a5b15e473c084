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
from math import gcd, inf, lcm

from .arith import (
    LaurentElement,
    laurent_exact_div,
    p_valuation,
    q_analog,
    q_power_minus_one,
)

DEFAULT_MAX_DEPTH = 16


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
        folded: dict[int, int] = {}
        scale = self.p ** (self.depth - x.depth)
        for e, c in x.terms.items():
            k = (e * scale) % self.period
            folded[k] = folded.get(k, 0) + c
        dense = [0] * self.period
        for e, c in folded.items():
            dense[e] = c
        # sparse monic division by the cyclotomic modulus
        step = self.p ** (self.depth - 1)
        for deg in range(self.period - 1, self.degree - 1, -1):
            c = dense[deg]
            if c:
                # subtract c * u^(deg - (p-1)*step) * Phi(u)
                base = deg - (self.p - 1) * step
                for i in range(self.p):
                    dense[base + i * step] -= c
        return OCModelElement(self, tuple(dense[: self.degree]))

    def zero(self) -> "OCModelElement":
        return OCModelElement(self, tuple([0] * self.degree))

    def one(self) -> "OCModelElement":
        return OCModelElement(self, tuple([1] + [0] * (self.degree - 1)))

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
        m = self.model
        prod = [0] * (2 * m.degree - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        lifted = LaurentElement({i: c for i, c in enumerate(prod) if c}, m.depth)
        return m.reduce(lifted)

    def scalar_mul(self, c: int):
        return OCModelElement(self.model, tuple(c * a for a in self.coeffs))

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
        extended Euclid against the sparse modulus keeps every remainder
        and cofactor as a list with no trailing zeros, so a degree is a
        length.  A quotient step by a remainder whose leading coefficient
        is +-1 stays in Z[u]; the first other leading coefficient switches
        the remaining steps to exact Fraction arithmetic.  The last
        remainder is a constant, which becomes the common denominator.
        """
        if self.is_zero():
            return None
        m = self.model
        r0 = [0] * (m.degree + 1)
        for e, c in m.modulus.items():
            r0[e] = c
        r1 = _trimmed(list(self.coeffs))
        s0, s1 = [], [1]
        while len(r1) > 1:
            lead = r1[-1]
            while len(r0) >= len(r1):
                top = r0.pop()
                c = top * lead if lead in (1, -1) else Fraction(top) / lead
                shift = len(r0) + 1 - len(r1)
                # r0 -= c * u^shift * r1; c is chosen so the popped top cancels
                r0[shift:] = [a - c * b for a, b in zip(r0[shift:], r1)]
                _trimmed(r0)
                _sub_scaled(s0, s1, c, shift)
            r0, r1 = r1, r0
            s0, s1 = s1, s0
        if not r1:
            return None  # common factor with the modulus: not invertible
        # s1 / r1[0]; ints carry .numerator and .denominator like Fractions
        lead = r1[0]
        scale = lcm(*(c.denominator for c in s1))
        den = scale * lead.numerator
        nums = [c.numerator * (scale // c.denominator) * lead.denominator for c in s1]
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


def _trimmed(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _sub_scaled(f: list, g: list, c, shift: int) -> None:
    """f -= c * u^shift * g in place, leaving no trailing zeros in f."""
    end = shift + len(g)
    f.extend([0] * (end - len(f)))
    f[shift:end] = [a - c * b for a, b in zip(f[shift:end], g)]
    _trimmed(f)


# ---------------------------------------------------------------------------
# the model proper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AinfModel:
    """Prime p and depth n, with the distinguished elements and maps."""

    p: int
    depth: int
    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.p < 2:
            raise ValueError("p must be a prime >= 2")
        # construction-time sanity: xi * phi^-1(mu) == mu and xi_tilde == phi(xi)
        assert self.xi * self.phi_inv_mu == self.mu
        assert self.phi(self.xi) == self.xi_tilde

    # -- distinguished elements -------------------------------------------------

    @property
    def mu(self) -> LaurentElement:
        return LaurentElement({self.p**self.depth: 1, 0: -1}, self.depth)

    @property
    def phi_inv_mu(self) -> LaurentElement:
        """q^(1/p) - 1, an honest element of the depth-n carrier."""
        return LaurentElement({self.p ** (self.depth - 1): 1, 0: -1}, self.depth)

    @property
    def xi(self) -> LaurentElement:
        step = self.p ** (self.depth - 1)
        return LaurentElement({i * step: 1 for i in range(self.p)}, self.depth)

    @property
    def xi_tilde(self) -> LaurentElement:
        step = self.p**self.depth
        return LaurentElement({i * step: 1 for i in range(self.p)}, self.depth)

    # -- element builders ---------------------------------------------------------

    def q_power_minus_one(self, a) -> LaurentElement:
        return q_power_minus_one(a, self.p, self.depth)

    def q_analog(self, a) -> LaurentElement:
        return q_analog(a, self.p, self.depth)

    def one(self) -> LaurentElement:
        return LaurentElement.one(self.depth)

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
        if self.depth + 1 > self.max_depth:
            raise ValueError(f"depth budget exceeded (max_depth={self.max_depth})")
        return x.with_depth(self.depth + 1)

    def deeper(self) -> "AinfModel":
        if self.depth + 1 > self.max_depth:
            raise ValueError(f"depth budget exceeded (max_depth={self.max_depth})")
        return AinfModel(self.p, self.depth + 1, self.max_depth)

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

def _fp_one_valuation(element: LaurentElement, p: int) -> int | float:
    """(u-1)-adic valuation of the mod-p reduction, inf if it reduces to 0.

    Works on the sparse term list: the w-expansion coefficients of
    x(w + 1) are sums of binomials C(e, k) mod p, evaluated by Lucas'
    digit product, so pure powers of (u - 1) of large degree stay cheap.
    """
    terms = [(e, c % p) for e, c in element.terms.items() if c % p]
    if not terms:
        return inf
    lo = min(e for e, _ in terms)
    terms = [(e - lo, c) for e, c in terms]  # u^lo is a unit

    small: dict[tuple[int, int], int] = {}

    def binom_digit(a: int, b: int) -> int:
        if b > a:
            return 0
        key = (a, b)
        if key not in small:
            r = 1
            for i in range(b):
                r = r * (a - i) // (i + 1)
            small[key] = r % p
        return small[key]

    def binom_mod_p(e: int, k: int) -> int:
        r = 1
        while k:
            r = (r * binom_digit(e % p, k % p)) % p
            if not r:
                return 0
            e //= p
            k //= p
        return r

    kmax = max(e for e, _ in terms)
    for k in range(kmax + 1):
        s = 0
        for e, c in terms:
            s = (s + c * binom_mod_p(e, k)) % p
        if s:
            return k
    return inf


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
    if top <= model.max_depth:
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
    # contains a power of every generator of the others.  Two facts reduce
    # this to integer comparisons, and both are verified here rather than
    # assumed: (a) xi_tilde - p is exactly divisible by mu, so the fourth
    # ideal equals (p, mu); (b) modulo p each generator is a unit times a
    # pure power of (u - 1): the (u-1)-adic valuation equals the exponent
    # spread, so membership in (p, h) is a valuation inequality.
    failures: list[dict] = []
    witness = laurent_exact_div(model.xi_tilde - model.constant(p), model.mu)
    if witness is None:
        failures.append({"identity": "xi_tilde - p not divisible by mu"})
    vals = {
        "mu": _fp_one_valuation(model.mu, p),
        "xi": _fp_one_valuation(model.xi, p),
        "xi_tilde": _fp_one_valuation(model.xi_tilde, p),
    }
    spreads = {
        "mu": model.mu.max_exponent() - model.mu.min_exponent(),
        "xi": model.xi.max_exponent() - model.xi.min_exponent(),
        "xi_tilde": model.xi_tilde.max_exponent() - model.xi_tilde.min_exponent(),
    }
    for name in vals:
        if vals[name] != spreads[name]:
            failures.append({"element": name, "valuation": vals[name], "spread": spreads[name]})
    ideal_threshold = {"(p,xi)": vals["xi"], "(p,xi_tilde)": vals["xi_tilde"],
                       "(p,mu)": vals["mu"], "(xi_tilde,mu)": vals["mu"]}
    ideal_gens = {"(p,xi)": ["xi"], "(p,xi_tilde)": ["xi_tilde"],
                  "(p,mu)": ["mu"], "(xi_tilde,mu)": ["xi_tilde", "mu"]}
    powers = {}
    for ideal_name, threshold in ideal_threshold.items():
        for gen in ("mu", "xi", "xi_tilde"):
            if gen in ideal_gens[ideal_name]:
                continue
            v = vals[gen]
            if v <= 0:
                failures.append({"ideal": ideal_name, "generator": gen, "valuation": v})
                continue
            k = -(-threshold // v)  # ceil
            powers[f"{gen}^{k} in {ideal_name}"] = k * v >= threshold
        # p itself lies in every one of the four ideals (in the fourth via
        # p = xi_tilde - mu*witness), power 1.
        powers[f"p^1 in {ideal_name}"] = True
    if not all(powers.values()):
        failures.append({"powers": {k: v for k, v in powers.items() if not v}})
    out.append(IdentityReport("ideal_topology", not failures, {"failures": failures, "witnesses": powers}))
    return out
