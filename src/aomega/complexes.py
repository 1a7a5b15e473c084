"""Bounded cochain complexes of finite free modules, Koszul complexes, homology.

Five coefficient rings share one small protocol, each defining only the
methods its callers use: `ZRing` (Smith-normal-form homology, the decalage
lattice track, complexes read from JSON), `ZModRing` (the special fibre
u = 0 of the semicontinuity family), `LaurentRing` (the cyclotomic carrier
of the torus pipeline and the q-de Rham blocks), `OCRing` (the residue ring
Z[zeta_{p^n}]; no command builds a complex over it, the d o d tests do) and
`FpPolyRing` (the semicontinuity family).  Over the non-principal rings,
homology is only offered for divisibility-structured complexes through the
diagonal decomposition; that is all the graded pipelines need.

Differential matrices are stored row-major, d_i of shape rank(i+1) x rank(i),
acting on column vectors.  The Koszul sign convention is fixed once:

    d(e_S) = sum over j not in S of (-1)^(#{s in S : s < j}) g_j e_(S u {j})

with subset bases enumerated in (size, lexicographic) order.  The cells it
fills are placed once per number of weights, on first use: per degree k, the
(row, column, weight index, sign) of every cell of d_k.  `koszul_matrices`
realizes the placement on given weights.  `check_koszul_placement` proves
once, over generic weights, that the placement squares to zero and satisfies
the contraction identity d iota_j + iota_j d = x_j id, then compares it with
the Kunneth tensor product of one-weight complexes R --g--> R
(`kunneth_koszul`), which `tensor_product` builds without the placement.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import comb, gcd
from typing import Any, Sequence

from . import intlinalg as la
from . import poly
from .arith import LaurentElement, laurent_exact_div, normalize_associate, prime_base
from .ainf import OCModel


class Marker(enum.Enum):
    """Values the symbolic paths return in place of a complex."""

    # a complex without the divisibility structure the symbolic path needs
    NOT_STRUCTURED = "NotStructured"
    # the symbolic rules recognized the result as acyclic
    ZERO_COMPLEX = "ZeroComplex"

    def __repr__(self):
        return self.value


NOT_STRUCTURED = Marker.NOT_STRUCTURED
ZERO_COMPLEX = Marker.ZERO_COMPLEX


# ---------------------------------------------------------------------------
# ring protocol
# ---------------------------------------------------------------------------

class Ring:
    """Defaults shared by the rings below: arithmetic by the elements'
    operators, zero and unit tests by their methods, the tag as repr.

    Each ring is a frozen dataclass, so equality and hashing come from its
    parameters.
    """

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, x):
        return x.is_zero()

    def is_unit(self, x):
        return x.is_unit()

    def __repr__(self):
        return self.tag


@dataclass(frozen=True, repr=False)
class ZRing(Ring):
    """The integers."""

    tag = "Z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def is_zero(self, x):
        return x == 0

    def exact_div(self, a, b):
        if a % b:  # ZeroDivisionError when b == 0
            return None
        return a // b

    def is_unit(self, x):
        return x in (1, -1)

    def normalize_quotient(self, g):
        return abs(g)

    def entry_to_json(self, x):
        return str(x)


@dataclass(frozen=True, repr=False)
class ZModRing(Ring):
    """Z/m with representatives in [0, m)."""

    modulus: int

    @property
    def tag(self):
        return f"Z/{self.modulus}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.modulus

    def is_zero(self, x):
        return x % self.modulus == 0

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def exact_div(self, a, b):
        g = gcd(b, self.modulus)
        if a % g:
            return None
        return (a // g) * pow(b // g, -1, self.modulus // g) % self.modulus


@dataclass(frozen=True, repr=False)
class LaurentRing(Ring):
    """Z[u^(+-1)] at a fixed (p, depth); elements are LaurentElement."""

    p: int
    depth: int

    @property
    def tag(self):
        return f"A(p={self.p},depth={self.depth})"

    def zero(self):
        return LaurentElement.zero(self.depth)

    def one(self):
        return LaurentElement.one(self.depth)

    def exact_div(self, a, b):
        return laurent_exact_div(a, b)

    def normalize_quotient(self, g):
        return normalize_associate(g)

    def entry_to_json(self, x):
        return x.to_json()


@dataclass(frozen=True, repr=False)
class OCRing(Ring):
    """The cyclotomic residue model Z[zeta_{p^depth}]."""

    p: int
    depth: int

    @property
    def tag(self):
        return f"OC(p={self.p},depth={self.depth})"

    def zero(self):
        return OCModel(self.p, self.depth).zero()


@dataclass(frozen=True, repr=False)
class FpPolyRing(Ring):
    """F_p[u]; elements are coefficient tuples (low degree first)."""

    p: int

    @property
    def tag(self):
        return f"F{self.p}[u]"

    def reduce(self, f):
        """The canonical element: coefficients in [0, p), no trailing zeros."""
        return tuple(poly.trim([c % self.p for c in f]))

    def zero(self):
        return ()

    def one(self):
        return (1,)

    def is_zero(self, x):
        return not any(c % self.p for c in x)

    def add(self, a, b):
        return self.reduce([x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)])

    def neg(self, a):
        return self.reduce([-c for c in a])

    def mul(self, a, b):
        return self.reduce(poly.mul(a, b))

    def exact_div(self, a, b):
        quo = poly.exact_div(self.reduce(a), self.reduce(b), self.p)
        return None if quo is None else tuple(quo)

    def evaluate(self, f, x: int) -> int:
        acc = 0
        for c in reversed(self.reduce(f)):
            acc = (acc * x + c) % self.p
        return acc


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------

class ChainComplex:
    """Bounded cochain complex of finite free modules with explicit matrices.

    `diffs[k]` maps degree lo+k to degree lo+k+1 and has shape
    ranks[k+1] x ranks[k]; d after d = 0 is checked at construction, and a
    failure raises AssertionError: inside the library it is a broken invariant.
    Only `koszul()` blocks on a holding certificate skip it (`_certified`).
    """

    def __init__(self, ring, lo: int, ranks: Sequence[int], diffs: Sequence[Sequence[Sequence[Any]]]):
        self.ring = ring
        self.lo = lo
        self.ranks = list(ranks)
        self.diffs = [[list(row) for row in d] for d in diffs]
        if len(self.diffs) != max(0, len(self.ranks) - 1):
            raise ValueError("need exactly len(ranks)-1 differentials")
        for k, d in enumerate(self.diffs):
            if len(d) != self.ranks[k + 1] or any(len(row) != self.ranks[k] for row in d):
                raise ValueError(f"differential {k} has the wrong shape")
        self._check_dd()

    @classmethod
    def _certified(cls, ring, lo: int, ranks: list, diffs: list) -> "ChainComplex":
        """The complex on matrices whose shapes and d o d = 0 are proved."""
        K = cls.__new__(cls)
        K.ring, K.lo, K.ranks, K.diffs = ring, lo, ranks, diffs
        return K

    def _check_dd(self):
        """d_(k+1) d_k = 0 in every degree, each entry the fold of `mul` and
        `add` over the pairs with two nonzero factors: a term with a zero
        factor is zero in any ring."""
        R = self.ring
        for k in range(len(self.diffs) - 1):
            B = self.diffs[k]
            for row in self.diffs[k + 1]:
                # each nonzero entry a = row[t], with row t of d_k
                terms = [(a, B[t]) for t, a in enumerate(row) if not R.is_zero(a)]
                for j in range(self.ranks[k]):
                    products = [R.mul(a, b[j]) for a, b in terms if not R.is_zero(b[j])]
                    if products and not R.is_zero(reduce(R.add, products)):
                        raise AssertionError(f"d o d != 0 at degree {self.lo + k}")

    @property
    def hi(self) -> int:
        return self.lo + len(self.ranks) - 1

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def rank(self, i: int) -> int:
        if self.lo <= i <= self.hi:
            return self.ranks[i - self.lo]
        return 0

    def diff(self, i: int):
        """Matrix of d: K^i -> K^(i+1), zero-padded outside the support."""
        if self.lo <= i < self.hi:
            return self.diffs[i - self.lo]
        return [[self.ring.zero()] * self.rank(i) for _ in range(self.rank(i + 1))]

    def map_entries(self, ring, fn) -> "ChainComplex":
        return ChainComplex(
            ring, self.lo, self.ranks,
            [[[fn(x) for x in row] for row in d] for d in self.diffs],
        )

    def __eq__(self, other):
        return (
            isinstance(other, ChainComplex)
            and self.ring == other.ring
            and self.lo == other.lo
            and self.ranks == other.ranks
            and self.diffs == other.diffs
        )

    def __repr__(self):
        return f"ChainComplex({self.ring!r}, degrees [{self.lo},{self.hi}], ranks {self.ranks})"

    def to_json(self) -> dict:
        return {
            "ring": self.ring.tag,
            "lo": self.lo,
            "ranks": self.ranks,
            "diffs": matrices_to_json(self.ring, self.diffs),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChainComplex":
        """The complex `to_json` wrote, over Z only."""
        if obj["ring"] != "Z":
            raise ValueError(f"complexes are read over Z only, not over {obj['ring']!r}")
        ring = ZRing()
        ranks = [int(r) for r in obj["ranks"]]
        diffs = []
        for k, flat in enumerate(obj["diffs"]):
            rows, cols = ranks[k + 1], ranks[k]
            entries = [int(x) for x in flat]
            diffs.append([entries[i * cols : (i + 1) * cols] for i in range(rows)])
        return cls(ring, int(obj["lo"]), ranks, diffs)


def matrices_to_json(ring, diffs) -> list:
    """Each matrix as its row-major list of JSON entries."""
    return [[ring.entry_to_json(x) for row in d for x in row] for d in diffs]


def koszul_sign(j: int, subset: tuple[int, ...]) -> int:
    return -1 if sum(1 for s in subset if s < j) % 2 else 1


def koszul_basis(d: int, size: int) -> list[tuple[int, ...]]:
    return sorted(itertools.combinations(range(d), size))


@lru_cache(maxsize=None)
def _koszul_placement(d: int) -> tuple:
    """Per degree k: the (row, column, weight index, sign) of every nonzero
    cell of the Koszul differential d_k on d weights, built on first use."""
    return tuple(
        tuple((koszul_basis(d, k + 1).index(tuple(sorted(S + (j,)))), col, j, koszul_sign(j, S))
              for col, S in enumerate(koszul_basis(d, k)) for j in range(d) if j not in S)
        for k in range(d)
    )


def koszul_matrices(ring, elements: Sequence[Any]) -> list:
    """The Koszul differentials on the given elements, unchecked.

    Each cell of the placement holds a weight or its negation, or the one
    shared zero; each weight is normalized once by adding it to zero.
    """
    d = len(elements)
    zero = ring.zero()
    weights = [ring.add(zero, g) for g in elements]
    signed = {1: weights, -1: [ring.neg(g) for g in weights]}
    diffs = []
    for k, cells in enumerate(_koszul_placement(d)):
        mat = [[zero] * comb(d, k) for _ in range(comb(d, k + 1))]
        for row, col, j, sign in cells:
            mat[row][col] = signed[sign][j]
        diffs.append(mat)
    return diffs


def _check_contraction(d: int, placement) -> None:
    """d iota_j + iota_j d = x_j id in every degree of the placement on d
    generic weights, iota_j its weight-j cells transposed: where some weight
    is a unit, the complex is exact.  Each product pairs two cells of one d_k
    through a common row or column; the signed x_i must sum to x_j on the
    diagonal and cancel elsewhere.  A term left over raises AssertionError."""
    for j in range(d):
        terms = Counter({(k, c, c, j): -1 for k in range(d + 1) for c in range(comb(d, k))})
        for k, cells in enumerate(placement):
            for (row, col, i, sign), (row2, col2, j2, sign2) in itertools.product(cells, cells):
                if j2 == j and row == row2:  # iota_j d_k, through a basis vector of degree k + 1
                    terms[k, col2, col, i] += sign * sign2
                if j2 == j and col == col2:  # d_k iota_j, through a basis vector of degree k
                    terms[k + 1, row, row2, i] += sign * sign2
        left = [key for key, c in terms.items() if c]
        if left:
            raise AssertionError(f"d iota_{j} + iota_{j} d != x_{j} id in the Koszul placement at degree {left[0][0]}")


def koszul(ring, elements: Sequence[Any], lo: int = 0) -> ChainComplex:
    """Koszul cochain complex on the given elements, degrees lo..lo+d; d o d
    is checked only where `check_koszul_placement(d)` fails."""
    d = len(elements)
    build = ChainComplex._certified if check_koszul_placement(d) else ChainComplex
    return build(ring, lo, [comb(d, k) for k in range(d + 1)], koszul_matrices(ring, elements))


def tensor_product(X: ChainComplex, Y: ChainComplex) -> ChainComplex:
    """Tensor product with the left-factor sign rule d(x@y) = dx@y + (-1)^|x| x@dy.

    Degree-k basis enumerates (i, a, b) with i the X-degree, a and b the
    factor basis indices, ordered by i then a then b.
    """
    if X.ring != Y.ring:
        raise ValueError("mixed rings")
    R = X.ring
    lo = X.lo + Y.lo
    hi = X.hi + Y.hi

    def basis(k):
        out = []
        for i in X.degrees():
            j = k - i
            if Y.lo <= j <= Y.hi:
                for a in range(X.rank(i)):
                    for b in range(Y.rank(j)):
                        out.append((i, a, b))
        return out

    ranks = [len(basis(k)) for k in range(lo, hi + 1)]
    diffs = []
    for k in range(lo, hi):
        src = basis(k)
        tgt = {key: idx for idx, key in enumerate(basis(k + 1))}
        mat = [[R.zero() for _ in src] for _ in range(len(tgt))]
        for col, (i, a, b) in enumerate(src):
            j = k - i
            dX = X.diff(i)
            for a2 in range(X.rank(i + 1)):
                v = dX[a2][a]
                if not R.is_zero(v):
                    row = tgt[(i + 1, a2, b)]
                    mat[row][col] = R.add(mat[row][col], v)
            dY = Y.diff(j)
            for b2 in range(Y.rank(j + 1)):
                v = dY[b2][b]
                if not R.is_zero(v):
                    v = v if i % 2 == 0 else R.neg(v)
                    row = tgt[(i, a, b2)]
                    mat[row][col] = R.add(mat[row][col], v)
        diffs.append(mat)
    return ChainComplex(R, lo, ranks, diffs)


def kunneth_koszul(ring, elements: Sequence[Any]) -> tuple[ChainComplex, dict]:
    """The iterated tensor product of the one-weight complexes R --g--> R,
    built without the Koszul placement, and per degree the weight subset of
    each of its basis vectors.  A tensor basis lists the left factor's degree
    first, so in degree k the vectors that carry the new weight come first."""
    T, subsets = ChainComplex(ring, 0, [1], []), {0: [()]}  # the empty product
    for j, g in enumerate(elements):
        factor = ChainComplex(ring, 0, [1, 1], [[[g]]])
        T = tensor_product(T, factor) if j else factor
        subsets = {k: [S + (j,) for S in subsets.get(k - 1, [])] + subsets.get(k, []) for k in range(j + 2)}
    return T, subsets


def koszul_matches_kunneth(ring, elements: Sequence[Any]) -> bool:
    """Whether the Koszul differentials on `elements` equal those of
    `kunneth_koszul` entry by entry, each tensor basis vector read as its
    subset."""
    d = len(elements)
    diffs = koszul_matrices(ring, elements)
    T, subsets = kunneth_koszul(ring, elements)
    if T.ranks != [comb(d, k) for k in range(d + 1)]:
        return False
    index = {k: [koszul_basis(d, k).index(S) for S in subsets[k]] for k in range(d + 1)}
    return all(
        x == diffs[k][index[k + 1][row]][index[k][col]]
        for k, mat in enumerate(T.diffs) for row, entries in enumerate(mat) for col, x in enumerate(entries)
    )


@lru_cache(maxsize=None)
def check_koszul_placement(d: int) -> bool:
    """Whether the Koszul placement on d weights realizes the Kunneth tensor
    product of d one-weight complexes, once the placement is proved to square
    to zero and to satisfy the contraction identity (`_check_contraction`).

    The proofs are over generic weights x_0..x_(d-1): every entry of
    d_(k+1) d_k is a sum of signed pairs x_i x_j, and they must cancel.  Any
    ring map x_j -> w_j into a commutative ring carries both to every complex
    the placement realizes.  A pair left over raises AssertionError, as
    `ChainComplex` does.  The comparison (`koszul_matches_kunneth`) realizes
    the placement on the first d primes over Z, so that each entry names its
    weight and its sign.
    """
    placement = _koszul_placement(d)
    for k in range(len(placement) - 1):
        into = {}
        for row, col, j, sign in placement[k + 1]:
            into.setdefault(col, []).append((row, j, sign))
        pairs = Counter()
        for mid, col, i, sign in placement[k]:
            for row, j, sign2 in into.get(mid, ()):
                pairs[row, col, min(i, j), max(i, j)] += sign * sign2
        if any(pairs.values()):
            raise AssertionError(f"d o d != 0 in the Koszul placement table at degree {k}")
    _check_contraction(d, placement)
    if d == 0:  # both sides are the rank-1 complex
        return True
    primes = list(itertools.islice((q for q in itertools.count(2) if prime_base(q) == q), d))
    return koszul_matches_kunneth(ZRing(), primes)


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

class HomologyPresentation:
    """Per-degree free rank plus torsion divisors (chain order over Z)."""

    def __init__(self, data: dict[int, tuple[int, list]]):
        self.data = {
            i: (free, list(tors))
            for i, (free, tors) in sorted(data.items())
            if free or tors
        }

    def free_rank(self, i: int) -> int:
        return self.data.get(i, (0, []))[0]

    def torsion(self, i: int) -> list:
        return self.data.get(i, (0, []))[1]

    def degrees(self):
        return sorted(self.data)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        return (
            isinstance(other, HomologyPresentation)
            and self.data == other.data
        )

    def __repr__(self):
        parts = []
        for i, (free, tors) in self.data.items():
            frag = " + ".join(
                ([f"R^{free}"] if free else []) + [f"R/({t!r})" for t in tors]
            )
            parts.append(f"H^{i} = {frag}")
        return "Homology(" + "; ".join(parts) + ")" if parts else "Homology(0)"

    def to_json(self):
        """Each torsion divisor as its repr: the integer over Z, the
        polynomial string over the Laurent carrier."""
        return {
            str(i): {"free_rank": free, "torsion": [repr(t) for t in tors]}
            for i, (free, tors) in self.data.items()
        }


def homology_snf(K: ChainComplex) -> HomologyPresentation:
    """Exact homology over Z from the Smith divisors of each differential.

    ker d^i is saturated and holds im d^(i-1) (d o d = 0 in every
    `ChainComplex`), so H^i has free rank n_i - rk d^i - rk d^(i-1) and
    torsion the divisors > 1 of d^(i-1).
    """
    if not isinstance(K.ring, ZRing):
        raise ValueError("the normal-form oracle works over Z")
    # d is zero past the top degree; that empty entry also serves, as
    # divisors[-1], for the map into the lowest degree
    divisors = [la.snf_divisors(d, K.ranks[k + 1], K.ranks[k]) for k, d in enumerate(K.diffs)] + [[]]
    data = {}
    for k, n in enumerate(K.ranks):
        if n == 0:
            continue
        incoming = divisors[k - 1]
        data[K.lo + k] = (n - len(divisors[k]) - len(incoming), [d for d in incoming if d > 1])
    return HomologyPresentation(data)


# ---------------------------------------------------------------------------
# diagonal complexes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalSummand:
    """A rank-1 free piece at `shift`, or, given `element` g, the two-term
    piece R --g--> R in degrees shift and shift + 1."""

    shift: int
    element: Any = None


@dataclass
class DiagonalComplex:
    """Finite sum of shifted rank-1 frees and two-term multiplication pieces."""

    ring: Any
    summands: list[DiagonalSummand] = field(default_factory=list)

    def __post_init__(self):
        for s in self.summands:
            if s.element is not None and self.ring.is_zero(s.element):
                raise ValueError("two-term pieces need a nonzero (regular) element")


def homology_diagonal(D: DiagonalComplex) -> HomologyPresentation:
    """Summand-wise homology: a free piece at shift s lands in H^s; a
    two-term piece on a regular g contributes R/(g) to H^(s+1)."""
    acc: dict[int, tuple[int, list]] = {}

    def bump(i, free=0, tor=None):
        f, t = acc.get(i, (0, []))
        if tor is not None:
            t = t + [tor]
        acc[i] = (f + free, t)

    for s in D.summands:
        if s.element is None:
            bump(s.shift, free=1)
        else:
            if D.ring.is_unit(s.element):
                continue
            bump(s.shift + 1, tor=D.ring.normalize_quotient(s.element))
    if isinstance(D.ring, ZRing):
        acc = {i: (f, la.chain_normalize(t)) for i, (f, t) in acc.items()}
    return HomologyPresentation(acc)


def koszul_to_diagonal(ring, weights: Sequence[Any]):
    """Decompose the Koszul complex on weights that are divisibility-comparable.

    All weights zero: the exterior algebra, binom(d, k) free pieces at
    shift k.  Some weight dividing all others: binom(d-1, k) two-term
    pieces on that weight at shift k.  Anything else: NOT_STRUCTURED.
    """
    d = len(weights)
    nonzero = [g for g in weights if not ring.is_zero(g)]
    if not nonzero:
        return DiagonalComplex(ring, [DiagonalSummand(k) for k in range(d + 1) for _ in range(comb(d, k))])
    # a nonzero weight divides itself: no exact division asked
    g_min = next(
        (g for g in nonzero if all(h is g or ring.is_zero(h) or ring.exact_div(h, g) is not None for h in weights)),
        None,
    )
    if g_min is None:
        return NOT_STRUCTURED
    return DiagonalComplex(ring, [DiagonalSummand(k, g_min) for k in range(d) for _ in range(comb(d - 1, k))])
