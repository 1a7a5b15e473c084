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

from .poly import euclid, exact_div

#: Exponents live in Z[1/p]: rationals whose denominator is a power of the
#: session prime.  Plain Fractions carry them; validate_exponent enforces
#: the denominator invariant where a prime is in scope.
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


def dense_coefficients(elements: Iterable[LaurentElement]) -> tuple[int, list[list[int]]]:
    """(step, lists): each nonzero element shifted to a nonzero constant term,
    as dense coefficients in v = u^step, step the gcd of all shifted
    exponents.  Division and Euclid take the same steps in v as in u, on
    lists step times shorter: q-analogs at depth n live in Z[u^(p^n)]."""
    shifted = [[(e - x._terms[0][0], c) for e, c in x._terms] for x in elements]
    step = math.gcd(*(e for terms in shifted for e, _ in terms)) or 1
    lists = []
    for terms in shifted:
        f = [0] * (terms[-1][0] // step + 1)
        for e, c in terms:
            f[e // step] = c
        lists.append(f)
    return step, lists


def laurent_exact_div(a: LaurentElement, b: LaurentElement) -> LaurentElement | None:
    """c with b*c == a if one exists in Z[u^(+-1)], else None (NotDivisible).

    Both arguments become polynomials by :func:`dense_coefficients` and are
    divided by :func:`aomega.poly.exact_div` over Z; no Fraction is made.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero Laurent element")
    a._check_depth(b)
    if a.is_zero():
        return LaurentElement.zero(a.depth)
    if a.max_exponent() - a.min_exponent() < b.max_exponent() - b.min_exponent():
        return NOT_DIVISIBLE  # a nonzero remainder of lower degree than b
    step, (fa, fb) = dense_coefficients((a, b))
    quo = exact_div(fa, fb)
    if quo is None:
        return NOT_DIVISIBLE
    shift = a.min_exponent() - b.min_exponent()
    return LaurentElement({i * step + shift: c for i, c in enumerate(quo) if c}, a.depth)


def laurent_gcd(a: LaurentElement, b: LaurentElement) -> LaurentElement:
    """A gcd in Z[u^(+-1)], normalized to min exponent 0 and positive leading coefficient.

    By Gauss's lemma it is the primitive part of the Q[u]-gcd (from
    :func:`aomega.poly.euclid`) scaled by the gcd of the contents.
    """
    if a.is_zero():
        return normalize_associate(b)
    if b.is_zero():
        return normalize_associate(a)
    a._check_depth(b)
    step, (fa, fb) = dense_coefficients((a, b))
    g, _ = euclid(fa, fb)
    # clear denominators, make primitive; ints carry .denominator too
    den = math.lcm(*(c.denominator for c in g))
    ints = [int(c * den) for c in g]
    content = math.gcd(*ints)
    content_ab = math.gcd(*(c for x in (a, b) for _, c in x._terms))
    g = LaurentElement({i * step: c // content * content_ab for i, c in enumerate(ints)}, a.depth)
    return normalize_associate(g)


def normalize_associate(x: LaurentElement) -> LaurentElement:
    """Canonical representative of x up to units: min exponent 0, leading
    coefficient > 0.  An element already in that form is returned as it is."""
    if not x._terms or (x._terms[0][0] == 0 and x._terms[-1][1] > 0):
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
    if not isinstance(a, int):
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
