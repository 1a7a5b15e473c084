"""The decalage construction on integer complexes, with its symbolic Koszul rules.

Two independent tracks.  The lattice track computes, for a bounded complex
K of finite free Z-modules and a nonzero integer f, the subcomplex

    eta_f(K)^i = f^i K^i  intersect  d^(-1)(f^(i+1) K^(i+1))

by Hermite-form lattice arithmetic, together with the induced differentials.
The symbolic track rewrites Koszul data: dividing every weight by f when
possible, collapsing to an acyclic complex when some weight divides f, and
refusing (NOT_STRUCTURED) otherwise.  The checkers in this module confront
the lattice track with three homology-level predictions: the
torsion-quotient formula, the Bockstein lift and composition.  Each takes
a `LetaInstance`, which builds each subcomplex of one complex once and
computes each divisibility lattice and each Z-homology it meets once.

The lattice in degree lo + k (lo the lowest degree of K) is stored as f^k
times the divisibility lattice, that is rescaled by f^(-lo): an isomorphism
of complexes that keeps every basis integral also for complexes in negative
degrees; homology never sees it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd

from . import intlinalg as la
from .arith import prime_base
from .complexes import (
    NOT_STRUCTURED,
    ZERO_COMPLEX,
    ChainComplex,
    HomologyPresentation,
    ZRing,
    homology_snf,
)

_Z = ZRing()


# ---------------------------------------------------------------------------
# lattice track
# ---------------------------------------------------------------------------

class ContentTable:
    """Divisibility lattices and Z-homology, each computed once per content.

    A lattice is keyed by its matrix, the matrix's shape and f; a homology
    by the lowest degree, the ranks and the differentials of the complex.
    An entry is never written after it is stored: lattices are handed out
    as tuples of row tuples, and no consumer of a `HomologyPresentation`
    writes to it.
    """

    def __init__(self):
        self._lattices = {}
        self._homology = {}

    def lattice(self, A, m: int, n: int, f: int) -> tuple[tuple[int, ...], ...]:
        """`intlinalg.divisibility_lattice(A, m, n, f)`, as row tuples."""
        key = (tuple(map(tuple, A)), m, n, f)
        rows = self._lattices.get(key)
        if rows is None:
            rows = self._lattices[key] = tuple(map(tuple, la.divisibility_lattice(A, m, n, f)))
        return rows

    def homology(self, K: ChainComplex) -> HomologyPresentation:
        """`homology_snf(K)`."""
        key = (K.lo, tuple(K.ranks), tuple(tuple(map(tuple, d)) for d in K.diffs))
        H = self._homology.get(key)
        if H is None:
            H = self._homology[key] = homology_snf(K)
        return H


def _divisibility_lattice(K: ChainComplex, f: int, k: int, table: ContentTable | None):
    """Rows spanning {x in K^(lo+k) : d x in f K^(lo+k+1)}, read from
    `table` when one is given."""
    # past the top degree d maps to the zero module
    A, m = (K.diffs[k], K.ranks[k + 1]) if k < len(K.diffs) else ([], 0)
    args = (A, m, K.ranks[k], f)
    return la.divisibility_lattice(*args) if table is None else table.lattice(*args)


def eta_subcomplex(K: ChainComplex, f: int, table: ContentTable | None = None) -> ChainComplex:
    """The decalage subcomplex of a free Z-complex, as a free Z-complex;
    its lattices are read from `table` when one is given."""
    if not isinstance(K.ring, ZRing):
        raise ValueError("the lattice track works over Z")
    if f == 0:
        raise ValueError("f must be nonzero")
    f = abs(f)
    # the echelon basis of the degree lo + k lattice in K, as rows
    bases = []
    for k in range(len(K.ranks)):
        power = f**k
        rows = _divisibility_lattice(K, f, k, table) if K.ranks[k] else []
        bases.append([[power * x for x in row] for row in rows])
    diffs = []
    for k in range(len(K.ranks) - 1):
        n, m = K.ranks[k], K.ranks[k + 1]
        images = [la.mat_vec(K.diffs[k], v, m, n) for v in bases[k]]
        # scaled rows of an echelon basis are echelon: back-substitution
        coords = la.in_lattice(bases[k + 1], images, m)
        if coords is None:
            raise AssertionError("induced differential failed to be integral")
        diffs.append(la.transpose(coords, len(bases[k]), len(bases[k + 1])))
    return ChainComplex(_Z, K.lo, [len(b) for b in bases], diffs)


# ---------------------------------------------------------------------------
# symbolic track
# ---------------------------------------------------------------------------

def leta_koszul(ring, weights, f):
    """Symbolic decalage of the Koszul complex on `weights` over `ring`.

    f dividing every weight gives the divided weights, a tuple; some weight
    dividing f gives ZERO_COMPLEX; otherwise NOT_STRUCTURED (a value,
    surfaced to callers, never an exception).
    """
    if ring.is_zero(f):
        raise ValueError("f must be nonzero")
    divided = []
    for g in weights:
        q = ring.zero() if ring.is_zero(g) else ring.exact_div(g, f)
        if q is None:
            divided = None
            break
        divided.append(q)
    if divided is not None:
        return tuple(divided)
    for g in weights:
        if not ring.is_zero(g) and ring.exact_div(f, g) is not None:
            return ZERO_COMPLEX
    return NOT_STRUCTURED


# ---------------------------------------------------------------------------
# the Bockstein complex
# ---------------------------------------------------------------------------

def _mod_f_lattices(K: ChainComplex, f: int, table: ContentTable | None):
    """Per degree, (cycle lattice rows, boundary lattice rows) of K/f in K^i:
    Z_i = {x : d x in f K^(i+1)}, read from `table` when one is given, and
    B_i = im d^(i-1) + f K^i."""
    out = {}
    for k, n in enumerate(K.ranks):
        if n == 0:
            continue
        gens = la.transpose(K.diffs[k - 1], n, K.ranks[k - 1]) if k else []
        gens += la.scale(la.identity(n), f)
        out[K.lo + k] = (_divisibility_lattice(K, f, k, table), la.lattice_basis(gens, n))
    return out


def mod_f_homology(K: ChainComplex, f: int, table: ContentTable | None = None) -> HomologyPresentation:
    """Presentations of H^*(K/f) (derived reduction; terms are free)."""
    data = {}
    for i, (z, b) in _mod_f_lattices(K, abs(f), table).items():
        free, tors = la.quotient_presentation(z, b, K.rank(i))
        if free or tors:
            data[i] = (free, tors)
    return HomologyPresentation(data)


def _cycle_coords(z_rows, b_rows, n: int) -> list[list[int]]:
    """Coordinates of the boundary rows in the cycle basis; B lies in Z."""
    coords = la.in_lattice(z_rows, b_rows, n)
    if coords is None:
        raise AssertionError("boundary escaped the cycle lattice")
    return coords


@dataclass
class BocksteinComplex:
    """Terms H^i(K/f) as lattice pairs inside K^i, with the divided
    differential beta(x) = d(x)/f in the chosen cycle bases."""

    f: int
    ambient: ChainComplex
    lattices: dict[int, tuple[Sequence[Sequence[int]], list[list[int]]]]
    beta: dict[int, list[list[int]]]

    def homology(self) -> HomologyPresentation:
        """Homology of (H^*(K/f), beta), again by lattice arithmetic."""
        # B_i in Z_i coordinates, once per degree: the denominator at i and
        # the numerator at i - 1 both read it
        coords = {
            i: _cycle_coords(z_rows, b_rows, self.ambient.rank(i))
            for i, (z_rows, b_rows) in self.lattices.items() if z_rows
        }
        data = {}
        for i in sorted(coords):
            k_i = len(self.lattices[i][0])
            # numerator: classes with beta-image inside the next boundary lattice
            if i + 1 in self.lattices and self.beta.get(i):
                k_i1 = len(self.lattices[i + 1][0])
                b1_basis = la.lattice_basis(coords[i + 1], k_i1)
                num_rows = la.preimage_lattice(self.beta[i], k_i1, k_i, b1_basis)
            else:
                num_rows = la.identity(k_i)
            # denominator: B_i (in Z_i coordinates) together with the beta image
            den = list(coords[i])
            if i - 1 in self.lattices and self.beta.get(i - 1):
                den += la.transpose(self.beta[i - 1], k_i, len(self.lattices[i - 1][0]))
            free, tors = la.quotient_presentation(num_rows, den, k_i)
            if free or tors:
                data[i] = (free, tors)
        return HomologyPresentation(data)


def bockstein(K: ChainComplex, f: int, table: ContentTable | None = None) -> BocksteinComplex:
    """Mod-f homology with the lift / apply-d / divide-by-f differential.

    Restricted to prime-power f so every subquotient stays inside integer
    normal-form arithmetic.  The cycle lattices are read from `table` when
    one is given.
    """
    f = abs(f)
    if prime_base(f) is None:
        raise ValueError("the Bockstein construction needs a prime power")
    lat = _mod_f_lattices(K, f, table)
    beta = {}
    for i in sorted(lat):
        if i + 1 not in lat:
            continue
        z_rows, _ = lat[i]
        z1_rows, _ = lat[i + 1]
        k = i - K.lo
        n, n1 = K.ranks[k], K.ranks[k + 1]
        images = [la.mat_vec(K.diffs[k], v, n1, n) for v in z_rows]
        if any(x % f for dv in images for x in dv):
            raise AssertionError("cycle image not divisible by f")
        cols = la.in_lattice(z1_rows, [[x // f for x in dv] for dv in images], n1)
        if cols is None:
            raise AssertionError("divided image escaped the cycle lattice")
        beta[i] = la.transpose(cols, len(cols), len(z1_rows))
    # beta o beta vanishes on the nose: d(dx)/f^2 = 0
    return BocksteinComplex(f, K, lat, beta)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    name: str
    passed: bool
    detail: dict

    def __bool__(self):
        return self.passed


def _divisor_transform(tors: list[int], f: int) -> list[int]:
    # dividing out the f-torsion sends a cyclic order e to e / gcd(e, f)
    return la.chain_normalize([e // gcd(e, f) for e in tors])


class LetaInstance:
    """One complex K with its decalage data, each piece computed once.

    `eta(f)` is eta_f(K); `eta(f, after=g)` is eta_f(eta_g(K)), built on
    the complex `eta(g)` and keyed on the ordered pair (g, f), never on the
    product f g, so composition still compares two different complexes.
    `homology` is the Z-homology of K or of one of those complexes.

    Every divisibility lattice and every Z-homology of the instance is read
    from its `table`, which lives and dies with the instance: a lattice met
    again, on the same matrix and f, and a complex met again with the same
    content are not computed again.  Composition still builds its two
    complexes by two routes; their homology is shared only when the two are
    already equal in content.
    """

    def __init__(self, K: ChainComplex):
        self.complex = K
        self.table = ContentTable()
        self._eta = {}

    def eta(self, f: int, after: int | None = None) -> ChainComplex:
        key = (after, f)
        if key not in self._eta:
            inner = self.complex if after is None else self.eta(after)
            self._eta[key] = eta_subcomplex(inner, f, table=self.table)
        return self._eta[key]

    def homology(self, f: int | None = None, after: int | None = None) -> HomologyPresentation:
        return self.table.homology(self.complex if f is None else self.eta(f, after))


def check_homology_formula(inst: LetaInstance, f: int) -> CheckReport:
    """Homology of the subcomplex against the torsion-quotient prediction."""
    actual = inst.homology(f)
    base = inst.homology()
    predicted = {}
    for i in base.degrees():
        free = base.free_rank(i)
        tors = _divisor_transform(base.torsion(i), abs(f))
        if free or tors:
            predicted[i] = (free, tors)
    expected = HomologyPresentation(predicted)
    ok = actual == expected
    return CheckReport(
        "homology_formula", ok,
        {} if ok else {"f": f, "actual": actual.to_json(), "expected": expected.to_json()},
    )


def check_leta_mod_f_is_bockstein(inst: LetaInstance, f: int) -> CheckReport:
    """Homology of eta_f(K)/f against homology of the Bockstein complex.

    Both sides read the instance's table, so the Bockstein side takes the
    divisibility lattices of K at f that eta_f(K) was built from.  No check
    is lost by it: recomputing them called the same deterministic function
    on the same matrix and f again.  What is independent is the route, the
    mod-f homology of eta_f(K) against the Bockstein complex of K, and that
    route stays."""
    lhs = mod_f_homology(inst.eta(f), f, inst.table)
    rhs = bockstein(inst.complex, f, inst.table).homology()
    ok = lhs == rhs
    return CheckReport(
        "leta_mod_f_is_bockstein", ok,
        {} if ok else {"f": f, "lhs": lhs.to_json(), "rhs": rhs.to_json()},
    )


def check_composition(inst: LetaInstance, f: int, g: int) -> CheckReport:
    """eta_f after eta_g against eta_(f g), on homology presentations."""
    lhs = inst.homology(f, after=g)
    rhs = inst.homology(f * g)
    ok = lhs == rhs
    return CheckReport(
        "composition", ok,
        {} if ok else {"f": f, "g": g, "lhs": lhs.to_json(), "rhs": rhs.to_json()},
    )
