"""Dense polynomials as coefficient lists, lowest degree first.

The one home of polynomial multiplication, long division, reduction by a
monic modulus and the extended Euclid under the Laurent ring, the residue
ring Z[zeta], F_p[u] and F_{p^m}.  A trimmed list has no trailing zeros, so
zero is ``[]``.  Coefficients are ints; only :func:`euclid` makes Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest


def trim(f: list) -> list:
    """Drop the trailing zeros of f in place; return f."""
    while f and not f[-1]:
        f.pop()
    return f


def _terms(g) -> list:
    return [(i, c) for i, c in enumerate(g) if c]


def mul(f, g) -> list:
    """f*g, of length len(f) + len(g) - 1, visiting only nonzero coefficients."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    terms = _terms(g)
    for i, a in enumerate(f):
        if a:
            for j, b in terms:
                out[i + j] += a * b
    return out


def _long_division(r: list, terms: list, p=None, rational=False) -> list | None:
    """Divide r in place by the divisor with nonzero (exponent, coefficient)
    terms, lead last; return the quotient and leave the remainder in r.
    A quotient coefficient is top/lead: mod p when p is given, an int when
    lead is +-1, else an int when lead divides top and None (stop) when not,
    or with ``rational`` a Fraction.
    """
    if not terms:
        raise ZeroDivisionError("division by the zero polynomial")
    (dg, lead), tail = terms[-1], terms[:-1]
    n = len(r) - dg
    if n <= 0:
        return []
    quo = [0] * n
    unit = lead == 1 or lead == -1
    inv = pow(lead, -1, p) if p is not None else None
    for k in range(n - 1, -1, -1):
        top = r[k + dg]
        if not top:
            continue
        if p is not None:
            c = top * inv % p
            if not c:
                continue
        elif unit:
            c = top * lead
        elif rational:
            c = Fraction(top) / lead
        else:
            c, rem = divmod(top, lead)
            if rem:
                return None
        quo[k] = c
        for i, b in tail:
            r[k + i] -= c * b
    del r[dg:]
    return quo


def exact_div(f, g, p: int | None = None) -> list | None:
    """q with g*q == f over Z, or over F_p (f, g reduced) when p is given,
    else None.  Over Z the first top coefficient g's lead does not divide
    stops the division: the quotient in Q[u] is unique, so it is exact."""
    r = list(f)
    quo = _long_division(r, _terms(g), p)
    if quo is None or (any(c % p for c in r) if p is not None else any(r)):
        return None
    return trim(quo)


def reduce_monic(f, modulus, p: int | None = None) -> list:
    """f modulo the monic modulus given as (exponent, coefficient) terms in
    increasing order, as exactly deg(modulus) coefficients, reduced into
    [0, p) when p is given; a sparse modulus costs only its terms."""
    terms = [(e, c) for e, c in modulus if c]
    r = list(f)
    _long_division(r, terms, p)
    r.extend([0] * (terms[-1][0] - len(r)))
    return [c % p for c in r] if p is not None else r


def euclid(a, b) -> tuple[list, list]:
    """(g, s), trimmed, with g a gcd of a and b in Q[u] and s*b == g mod a;
    g is a constant exactly when a, b are coprime.  The remainders stay in
    Z[u] while every divisor lead is +-1, then go to Fraction for good."""
    r0, r1 = trim(list(a)), trim(list(b))
    s0, s1 = [], [1]
    while len(r1) > 1:
        quo = _long_division(r0, _terms(r1), rational=True)
        trim(r0)
        s0 = trim([x - y for x, y in zip_longest(s0, mul(quo, s1), fillvalue=0)])
        r0, r1, s0, s1 = r1, r0, s1, s0
    return (r1, s1) if r1 else (r0, s0)
