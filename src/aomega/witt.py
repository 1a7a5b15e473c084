"""Truncated Witt vectors of a perfect polynomial model, and semilinear fixed points.

The perfect base is F_p[x^(1/p^oo)] truncated to denominators p^depth; its
length-m Witt ring is modeled as (Z/p^m)[x^a : a in Z[1/p], a >= 0], which
is the mod-p^m reduction of the one-parameter deformation of the base.
Since W_1(R) = R, the perfection itself is the length-1 ring: one carrier,
`TruncatedWittElement`, holds both, and precision 1 is the perfection.
Teichmuller lifts are computed by the iterated-powering limit and digits by
the reduce / subtract-lift / divide-by-p induction, so the two directions
are genuinely independent of each other.

The unit-root piece: a semilinear endomorphism v -> A sigma(v) of a finite
free module over F_{p^m} (sigma the p-power Frobenius) has its fixed points
computed by F_p-linearization; over a non-closed ground field the fixed
space can be smaller than the rank, which is reported as RequiresExtension
rather than an error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import intlinalg as la
from . import poly
from .arith import validate_exponent


# ---------------------------------------------------------------------------
# Witt elements; precision 1 is the perfection
# ---------------------------------------------------------------------------

def _term_mul(a, b, mod: int) -> dict:
    """Sparse product of two (exponent, coefficient) sequences, mod `mod`."""
    out: dict = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = e1 + e2
            v = (out.get(e, 0) + c1 * c2) % mod
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


class TruncatedWittElement:
    """Element of the length-`precision` Witt ring of the truncated perfection.

    Terms are a mapping or a sequence of (exponent, coefficient) pairs;
    repeated exponents are summed and coefficients reduced mod p^precision.
    """

    __slots__ = ("p", "precision", "terms")

    def __init__(self, p: int, precision: int, terms):
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self.p = p
        self.precision = precision
        mod = p**precision
        merged: dict[Fraction, int] = {}
        for e, c in terms.items() if isinstance(terms, Mapping) else terms:
            e = Fraction(e)
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            merged[e] = merged.get(e, 0) + c
        self.terms = tuple(sorted((e, c % mod) for e, c in merged.items() if c % mod))
        for e, _ in self.terms:
            validate_exponent(e, p)

    @classmethod
    def zero(cls, p: int, precision: int) -> "TruncatedWittElement":
        return cls(p, precision, {})

    @classmethod
    def constant(cls, p: int, precision: int, c: int) -> "TruncatedWittElement":
        return cls(p, precision, {Fraction(0): c})

    def _check(self, other: "TruncatedWittElement"):
        if (self.p, self.precision) != (other.p, other.precision):
            raise ValueError("mixed Witt rings")

    def __add__(self, other):
        self._check(other)
        return TruncatedWittElement(self.p, self.precision, self.terms + other.terms)

    def __neg__(self):
        return TruncatedWittElement(self.p, self.precision, {e: -c for e, c in self.terms})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        mod = self.p**self.precision
        return TruncatedWittElement(self.p, self.precision, _term_mul(self.terms, other.terms, mod))

    def frobenius(self) -> "TruncatedWittElement":
        """The canonical Frobenius lift: exponent scaling by p."""
        return TruncatedWittElement(self.p, self.precision, {e * self.p: c for e, c in self.terms})

    def frobenius_inverse(self) -> "TruncatedWittElement":
        """p-th root of the exponents; the base is perfect, so Frobenius is bijective."""
        return TruncatedWittElement(self.p, self.precision, {e / self.p: c for e, c in self.terms})

    def reduce_mod_p(self) -> "TruncatedWittElement":
        """The image in W_1, the perfection."""
        return TruncatedWittElement(self.p, 1, self.terms)

    def divide_by_p(self) -> "TruncatedWittElement":
        """Exact division by p, dropping one level of precision."""
        out = {}
        for e, c in self.terms:
            if c % self.p:
                raise ValueError("element is not divisible by p")
            out[e] = c // self.p
        return TruncatedWittElement(self.p, self.precision - 1, out)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedWittElement)
            and (self.p, self.precision) == (other.p, other.precision)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, self.precision, self.terms))

    def __repr__(self):
        return f"Witt(p={self.p}, m={self.precision}, {dict(self.terms)})"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "precision": self.precision,
            "terms": [[[e.numerator, e.denominator], str(c)] for e, c in self.terms],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TruncatedWittElement":
        terms = {Fraction(int(num), int(den)): int(c) for (num, den), c in obj["terms"]}
        return cls(int(obj["p"]), int(obj["precision"]), terms)


def teichmuller_lift(a: TruncatedWittElement, precision: int) -> TruncatedWittElement:
    """Multiplicative lift [a] of a perfection element a (precision 1).

    Lift a^(1/p^k) naively and raise it to the p^k.  Any k >= precision - 1
    gives the stable value; one extra step is taken for clarity.  The power
    is taken as k successive p-th powers with reduction mod p^precision
    after each: every round pushes the non-stable cross terms one p-layer
    deeper, so intermediates stay small.  Exponents are scaled to integers
    for the powering.  Multiplicativity [ab] = [a][b] holds on the nose.
    """
    if a.precision != 1:
        raise ValueError(f"teichmuller_lift takes a precision-1 element, not precision {a.precision}")
    p = a.p
    k = precision
    root = a
    for _ in range(k):
        root = root.frobenius_inverse()
    den = math.lcm(*(e.denominator for e, _ in root.terms))
    mod = p**precision
    cur = {int(e * den): c for e, c in root.terms}
    for _ in range(k):
        power = cur
        for _ in range(p - 1):
            power = _term_mul(power.items(), cur.items(), mod)
        cur = power
    return TruncatedWittElement(p, precision, {Fraction(e, den): c for e, c in cur.items()})


def teichmuller_digits(w: TruncatedWittElement) -> list[TruncatedWittElement]:
    """Digits (a_0, ..., a_{m-1}) in W_1 with w = sum [a_i] p^i at precision m.

    Inductive: reduce mod p, subtract the Teichmuller lift of the
    reduction, divide by p, recurse at one lower precision.
    """
    digits = []
    cur = w
    for i in range(w.precision):
        a = cur.reduce_mod_p()
        digits.append(a)
        if i == w.precision - 1:
            break
        cur = (cur - teichmuller_lift(a, cur.precision)).divide_by_p()
    return digits


def digits_to_witt(digits: Iterable[TruncatedWittElement], p: int, precision: int) -> TruncatedWittElement:
    """sum [a_i] p^i at the stated precision.

    The i-th lift is only needed modulo p^(precision - i), which keeps the
    later (larger) digits cheap.
    """
    out = TruncatedWittElement.zero(p, precision)
    for i, a in enumerate(digits):
        if i >= precision:
            break
        lifted = teichmuller_lift(a, precision - i)
        out = out + TruncatedWittElement(
            p, precision, {e: c * p**i for e, c in lifted.terms}
        )
    return out


# ---------------------------------------------------------------------------
# small finite fields
# ---------------------------------------------------------------------------

class GF:
    """F_{p^m} as polynomials modulo the first irreducible found in lex order.

    Elements are coefficient tuples of length m over F_p.  Sizes here stay
    tiny (the fixed-point solver is exercised up to F_9), so irreducibility
    is tested by trial division.  `zero`, `one`, `is_zero`, `add`, `neg`,
    `mul` and `exact_div` are the ring protocol `intlinalg.rank` needs.
    """

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = self._find_irreducible(p, m)

    @staticmethod
    def _find_irreducible(p: int, m: int) -> tuple[int, ...]:
        if m == 1:
            return (0, 1)
        low_degree_monics = [
            tail + (1,)
            for d in range(1, m // 2 + 1)
            for tail in itertools.product(range(p), repeat=d)
        ]
        for tail in itertools.product(range(p), repeat=m):
            cand = tail + (1,)
            if all(poly.exact_div(cand, g, p) is None for g in low_degree_monics):
                return cand
        raise RuntimeError("no irreducible polynomial found")

    def zero(self):
        return (0,) * self.m

    def one(self):
        return (1,) + (0,) * (self.m - 1)

    def is_zero(self, a) -> bool:
        return not any(a)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        return tuple(poly.reduce_monic(poly.mul(a, b), enumerate(self.modulus), self.p))

    def pow(self, a, k: int):
        out = self.one()
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError
        return self.pow(a, self.q - 2)

    def exact_div(self, a, b):
        return self.mul(a, self.inv(b))

    def frobenius(self, a):
        return self.pow(a, self.p)

    def elements(self):
        for tup in itertools.product(range(self.p), repeat=self.m):
            yield tup


@dataclass
class SemilinearModule:
    """Finite free F_{p^m}-module with v -> A sigma(v), sigma the p-Frobenius."""

    field: GF
    matrix: list[list[tuple]]  # r x r over the field

    def __post_init__(self):
        r = len(self.matrix)
        if any(len(row) != r for row in self.matrix):
            raise ValueError("frobenius matrix must be square")
        if not self._invertible():
            raise ValueError("frobenius matrix must be invertible")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def _invertible(self) -> bool:
        return la.rank(self.matrix, self.field) == len(self.matrix)

    def apply(self, v: list[tuple]) -> list[tuple]:
        F = self.field
        sv = [F.frobenius(x) for x in v]
        out = []
        for row in self.matrix:
            acc = F.zero()
            for a, x in zip(row, sv):
                acc = F.add(acc, F.mul(a, x))
            out.append(acc)
        return out


def frobenius_fixed_points(module: SemilinearModule) -> tuple[int, list[list[tuple]], dict]:
    """Fixed points of v -> A sigma(v), by F_p-linearization.

    Returns (fp_dimension, basis, check) where basis is an F_p-basis of the
    fixed space L.  check reports whether L spans the module over the
    ground field; when the ground field is too small for the full unit-root
    rank the status is "RequiresExtension" instead of a failure.
    """
    F = module.field
    p, m, r = F.p, F.m, module.rank
    dim = m * r

    def unpack(vec: list[int]) -> list[tuple]:
        return [tuple(vec[i * m : (i + 1) * m]) for i in range(r)]

    def pack(v: list[tuple]) -> list[int]:
        return [c for x in v for c in x]

    cols = []
    for j in range(dim):
        e = [0] * dim
        e[j] = 1
        image = module.apply(unpack(e))
        w = pack(image)
        cols.append([(w[i] - e[i]) % p for i in range(dim)])
    M = [[cols[j][i] for j in range(dim)] for i in range(dim)]

    basis = [unpack(v) for v in la.kernel_mod_p(M, dim, dim, p)]
    fp_dim = len(basis)

    # does L span the module over F_{p^m}?
    span_rank = la.rank(basis, F)
    spans = span_rank == r
    status = "ok" if (fp_dim == r and spans) else "RequiresExtension"
    check = {
        "expected_rank": r,
        "fp_dimension": fp_dim,
        "field_span_rank": span_rank,
        "spans": spans,
        "status": status,
    }
    return fp_dim, basis, check


def exhaustive_fixed_points(module: SemilinearModule) -> list[list[tuple]]:
    """All fixed vectors found by brute force; the oracle for the solver."""
    F = module.field
    out = []
    for combo in itertools.product(F.elements(), repeat=module.rank):
        v = list(combo)
        if module.apply(v) == v:
            out.append(v)
    return out
