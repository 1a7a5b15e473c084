"""Exact Laurent-polynomial arithmetic over the integers.

A :class:`LaurentElement` is a finite map from integer u-exponents to
nonzero integer coefficients, tagged with a *depth* n; the distinguished
power q := u**(p**n) is how deeper models expose fractional q-powers with
denominator up to p**n.  Equality is equality of coefficient maps, so the
map with zero coefficients elided is the canonical form.

Arithmetic is exact: Python ints, no rounding anywhere.  Mixing depths is
rejected rather than coerced, because the Frobenius and its inverse move
elements between depths and silent coercion would hide bookkeeping errors.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import Union

IntegerValue = int

#: Exponents live in Z[1/p]: rationals whose denominator is a power of the
#: session prime.  Plain Fractions carry them; validate_exponent enforces
#: the denominator invariant where a prime is in scope.
RationalExponent = Fraction
ExponentLike = Union[int, Fraction]

#: Result marker for non-exact division; a value, not an exception.
NOT_DIVISIBLE = None


def p_valuation(x: ExponentLike, p: int):
    """Largest k with p**k dividing x; negative on denominators, +inf at 0.

    >>> p_valuation(12, 2)
    2
    >>> p_valuation(Fraction(1, 9), 3)
    -2
    """
    if x == 0:
        return math.inf
    num = abs(Fraction(x).numerator)
    den = Fraction(x).denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def prime_base(n: int) -> int | None:
    """The prime p of which n is a positive power, or None.

    >>> prime_base(9), prime_base(7), prime_base(12), prime_base(1)
    (3, 7, None, None)
    """
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
        p += 1
    return n


def validate_exponent(a: ExponentLike, p: int) -> Fraction:
    """Check that a is a rational with p-power denominator; return it reduced."""
    a = Fraction(a)
    den = a.denominator
    while den % p == 0:
        den //= p
    if den != 1:
        raise ValueError(f"exponent {a} does not have a p-power denominator for p={p}")
    return a


class LaurentElement:
    """Sparse exact Laurent polynomial in u over the integers, at a fixed depth."""

    __slots__ = ("_terms", "depth")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]], depth: int = 0):
        # a plain dict first: the general Mapping check is an ABC lookup
        items = terms.items() if isinstance(terms, (dict, Mapping)) else terms
        cleaned = {}
        for e, c in items:
            if not isinstance(e, int):
                raise TypeError("exponents must be integers")
            if c:
                cleaned[e] = cleaned.get(e, 0) + c
                if not cleaned[e]:
                    del cleaned[e]
        self._terms = tuple(sorted(cleaned.items()))
        self.depth = depth

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, depth: int = 0) -> "LaurentElement":
        return cls({}, depth)

    @classmethod
    def one(cls, depth: int = 0) -> "LaurentElement":
        return cls({0: 1}, depth)

    @classmethod
    def constant(cls, c: int, depth: int = 0) -> "LaurentElement":
        return cls({0: c}, depth)

    @classmethod
    def monomial(cls, exponent: int, depth: int = 0, coeff: int = 1) -> "LaurentElement":
        return cls({exponent: coeff}, depth)

    # -- views -----------------------------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_unit(self) -> bool:
        """Units of Z[u^(+-1)] are +-u^k."""
        return len(self._terms) == 1 and abs(self._terms[0][1]) == 1

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero element has no exponents")
        return self._terms[0][0]

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero element has no exponents")
        return self._terms[-1][0]

    def coefficient_sum(self) -> int:
        return sum(c for _, c in self._terms)

    # -- ring structure ----------------------------------------------------------

    def _check_depth(self, other: "LaurentElement"):
        if self.depth != other.depth:
            raise ValueError(
                f"depth mismatch: {self.depth} vs {other.depth}; "
                "raise both elements to a common depth first"
            )

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        self._check_depth(other)
        t = dict(self._terms)
        for e, c in other._terms:
            t[e] = t.get(e, 0) + c
        return LaurentElement(t, self.depth)

    def __neg__(self) -> "LaurentElement":
        return LaurentElement({e: -c for e, c in self._terms}, self.depth)

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        return self + (-other)

    def __mul__(self, other: "LaurentElement") -> "LaurentElement":
        self._check_depth(other)
        t: dict[int, int] = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = e1 + e2
                t[e] = t.get(e, 0) + c1 * c2
        return LaurentElement(t, self.depth)

    def scalar_mul(self, c: int) -> "LaurentElement":
        return LaurentElement({e: c * v for e, v in self._terms}, self.depth)

    def shift(self, k: int) -> "LaurentElement":
        """Multiply by u**k."""
        return LaurentElement({e + k: c for e, c in self._terms}, self.depth)

    def substitute_power(self, k: int) -> "LaurentElement":
        """u -> u**k at the same depth (k >= 1)."""
        if k < 1:
            raise ValueError("power substitution requires k >= 1")
        return LaurentElement({e * k: c for e, c in self._terms}, self.depth)

    def with_depth(self, depth: int) -> "LaurentElement":
        """Relabel the depth without touching exponents (bookkeeping only)."""
        return LaurentElement(dict(self._terms), depth)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentElement)
            and self._terms == other._terms
            and self.depth == other.depth
        )

    def __hash__(self):
        return hash((self._terms, self.depth))

    def __repr__(self):
        if not self._terms:
            return f"Laurent(0; depth={self.depth})"
        parts = []
        for e, c in self._terms:
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*u")
            else:
                parts.append(f"{c}*u^{e}")
        return f"Laurent({' + '.join(parts)}; depth={self.depth})"

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "terms": [[e, str(c)] for e, c in self._terms],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentElement":
        return cls({int(e): int(c) for e, c in obj["terms"]}, int(obj["depth"]))


def laurent_exact_div(a: LaurentElement, b: LaurentElement) -> LaurentElement | None:
    """c with b*c == a if one exists in Z[u^(+-1)], else None (NotDivisible).

    Both arguments are shifted to polynomials with nonzero constant term
    and divided by integer long division, which stops with None at the
    first leading coefficient that the divisor's leading coefficient does
    not divide, or at a nonzero remainder.  The early stop is exact: the
    quotient in Q[u] is unique (the ring is a domain), so when b divides a
    in Z[u^(+-1)] every coefficient long division produces is already an
    integer.  No Fraction is constructed.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero Laurent element")
    a._check_depth(b)
    if a.is_zero():
        return LaurentElement.zero(a.depth)
    shift_a = a.min_exponent()
    shift_b = b.min_exponent()
    num = {e - shift_a: c for e, c in a._terms}
    den = [(e - shift_b, c) for e, c in b._terms]
    den_deg, den_lead = den[-1]
    quo: dict[int, int] = {}
    while num:
        deg = max(num)
        if deg < den_deg:
            return NOT_DIVISIBLE
        q, r = divmod(num[deg], den_lead)
        if r:
            return NOT_DIVISIBLE
        offset = deg - den_deg
        quo[offset + shift_a - shift_b] = q
        for e, c in den:
            e2 = e + offset
            v = num.get(e2, 0) - q * c
            if v:
                num[e2] = v
            else:
                num.pop(e2, None)
    return LaurentElement(quo, a.depth)


def laurent_gcd(a: LaurentElement, b: LaurentElement) -> LaurentElement:
    """A gcd in Z[u^(+-1)], normalized to min exponent 0 and positive leading coefficient.

    Computed as the primitive part of the Q[u]-gcd scaled by the gcd of
    the contents; enough for the binomial-shaped elements used here.
    """
    if a.is_zero():
        return normalize_associate(b)
    if b.is_zero():
        return normalize_associate(a)
    a._check_depth(b)

    def to_poly(x: LaurentElement) -> list[Fraction]:
        s = x.min_exponent()
        d = x.max_exponent() - s
        coeffs = [Fraction(0)] * (d + 1)
        for e, c in x._terms:
            coeffs[e - s] = Fraction(c)
        return coeffs

    def poly_mod(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
        f = f[:]
        while len(f) >= len(g) and any(f):
            while f and not f[-1]:
                f.pop()
            if len(f) < len(g):
                break
            q = f[-1] / g[-1]
            off = len(f) - len(g)
            for i, c in enumerate(g):
                f[off + i] -= q * c
            while f and not f[-1]:
                f.pop()
        return f

    fa, fb = to_poly(a), to_poly(b)
    while any(fb):
        fa, fb = fb, poly_mod(fa, fb)
        while fb and not fb[-1]:
            fb.pop()
    # clear denominators, make primitive
    den = 1
    for c in fa:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in fa]
    content = 0
    for c in ints:
        content = math.gcd(content, c)
    ints = [c // content for c in ints]
    content_ab = 0
    for x in (a, b):
        cx = 0
        for _, c in x._terms:
            cx = math.gcd(cx, c)
        content_ab = math.gcd(content_ab, cx)
    g = LaurentElement({i: c * content_ab for i, c in enumerate(ints)}, a.depth)
    return normalize_associate(g)


def normalize_associate(x: LaurentElement) -> LaurentElement:
    """Canonical representative of x up to units: min exponent 0, leading coefficient > 0."""
    if x.is_zero():
        return x
    shifted = x.shift(-x.min_exponent())
    if shifted._terms[-1][1] < 0:
        shifted = -shifted
    return shifted


def q_power_minus_one(a: ExponentLike, p: int, depth: int) -> LaurentElement:
    """q**a - 1 at the given depth, q = u**(p**depth).

    Defined for any a with denominator dividing p**depth; this is the
    unnormalized numerator used for fractional exponents, where the
    q-analog itself is not available.
    """
    a = validate_exponent(a, p)
    e = a * p**depth
    if e.denominator != 1:
        raise ValueError(
            f"exponent {a} needs depth > {depth} (denominator {a.denominator})"
        )
    e = int(e)
    if e == 0:
        return LaurentElement.zero(depth)
    return LaurentElement({e: 1, 0: -1}, depth)


def q_analog(a: ExponentLike, p: int, depth: int) -> LaurentElement:
    """[a]_q = (q**a - 1)/(q - 1) for integral a; 0, positive or Laurent sum.

    >>> q_analog(3, 3, 0).terms
    {0: 1, 1: 1, 2: 1}

    Nonintegral exponents are rejected: their numerator q**a - 1 exists
    (see :func:`q_power_minus_one`) but is not divisible by q - 1.
    """
    a = Fraction(a)
    if a.denominator != 1:
        raise ValueError(
            f"[a]_q requires an integral exponent, got {a}; "
            "use q_power_minus_one for the unnormalized numerator"
        )
    a = int(a)
    step = p**depth
    if a == 0:
        return LaurentElement.zero(depth)
    if a > 0:
        return LaurentElement({i * step: 1 for i in range(a)}, depth)
    return LaurentElement({-i * step: -1 for i in range(1, -a + 1)}, depth)
