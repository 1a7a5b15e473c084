"""The decalage construction on integer complexes, with its symbolic Koszul rules.

Two independent tracks.  The lattice track computes, for a bounded complex
K of finite free Z-modules and a nonzero integer f, the subcomplex

    eta_f(K)^i = f^i K^i  intersect  d^(-1)(f^(i+1) K^(i+1))

by Hermite-form lattice arithmetic, together with the induced differentials.
The symbolic track rewrites Koszul data: dividing every weight by f when
possible, collapsing to an acyclic complex when some weight divides f, and
refusing (NOT_STRUCTURED) otherwise.  The checkers in this module confront
the two tracks with each other and with the homology-level predictions:
the torsion-quotient formula, the Bockstein lift, composition, exactness
for triangles whose mod-f boundary maps vanish, commutation with reduction
modulo a coprime prime power, the f^d-inverse maps, and factorization
through the subcomplex.  The first three take a `LetaInstance`, which
builds each subcomplex of one complex and its homology once.

Lattices are stored with a uniform rescale f^(-offset) (offset <= lowest
degree), an isomorphism of complexes that keeps every basis integral even
for cones living in negative degrees; homology never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import intlinalg as la
from .arith import laurent_gcd, prime_base
from .complexes import (
    NO_FACTORIZATION,
    NOT_STRUCTURED,
    ZERO_COMPLEX,
    ChainComplex,
    HomologyPresentation,
    KoszulSummand,
    ZRing,
    homology_snf,
)

_Z = ZRing()


# ---------------------------------------------------------------------------
# chain maps and cones
# ---------------------------------------------------------------------------

@dataclass
class ChainMap:
    """Chain map between Z-complexes; commuting squares checked at creation."""

    source: ChainComplex
    target: ChainComplex
    matrices: dict[int, list[list[int]]]

    def __post_init__(self):
        lo = min(self.source.lo, self.target.lo) - 1
        hi = max(self.source.hi, self.target.hi)
        for i in range(lo, hi + 1):
            lhs = la.mat_mul(
                self.matrix(i + 1), self.source.diff(i),
                self.target.rank(i + 1), self.source.rank(i + 1), self.source.rank(i),
            )
            rhs = la.mat_mul(
                self.target.diff(i), self.matrix(i),
                self.target.rank(i + 1), self.target.rank(i), self.source.rank(i),
            )
            if lhs != rhs:
                raise ValueError(f"not a chain map at degree {i}")

    def matrix(self, i: int) -> list[list[int]]:
        if i in self.matrices:
            return self.matrices[i]
        return [[0] * self.source.rank(i) for _ in range(self.target.rank(i))]


def identity_scaled(K: ChainComplex, c: int) -> ChainMap:
    return ChainMap(
        K, K,
        {i: [[c if r == s else 0 for s in range(K.rank(i))] for r in range(K.rank(i))]
         for i in K.degrees()},
    )


def mapping_cone(phi: ChainMap) -> ChainComplex:
    """Cone^i = K^(i+1) + L^i with d(a, b) = (-d_K a, phi(a) + d_L b)."""
    K, L = phi.source, phi.target
    lo = min(K.lo - 1, L.lo)
    hi = max(K.hi - 1, L.hi)
    ranks = [K.rank(i + 1) + L.rank(i) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        rows = K.rank(i + 2) + L.rank(i + 1)
        cols = K.rank(i + 1) + L.rank(i)
        mat = [[0] * cols for _ in range(rows)]
        dK = K.diff(i + 1)
        for r in range(K.rank(i + 2)):
            for c in range(K.rank(i + 1)):
                mat[r][c] = -dK[r][c]
        ph = phi.matrix(i + 1)
        for r in range(L.rank(i + 1)):
            for c in range(K.rank(i + 1)):
                mat[K.rank(i + 2) + r][c] = ph[r][c]
        dL = L.diff(i)
        for r in range(L.rank(i + 1)):
            for c in range(L.rank(i)):
                mat[K.rank(i + 2) + r][K.rank(i + 1) + c] = dL[r][c]
        diffs.append(mat)
    return ChainComplex(_Z, lo, ranks, diffs)


@dataclass
class TrianglePair:
    """K -> L -> cone(K -> L), with the canonical null-homotopy of the composite.

    The homotopy is h^i: K^i -> Cone^(i-1) = K^i + L^(i-1), x -> (x, 0);
    d h + h d equals the composite K -> L -> Cone degreewise, which
    `from_map` verifies before returning.
    """

    first: ChainMap
    cone: ChainComplex

    @classmethod
    def from_map(cls, phi: ChainMap) -> "TrianglePair":
        K, L = phi.source, phi.target
        pair = cls(phi, mapping_cone(phi))
        M, second = pair.cone, pair.second

        def h(j):  # K^j -> Cone^(j-1) = K^j + L^(j-1), x -> (x, 0)
            return la.identity(K.rank(j)) + la.zeros(L.rank(j - 1), K.rank(j))

        for i in K.degrees():
            rows, nK = M.rank(i), K.rank(i)
            dh = la.mat_mul(M.diff(i - 1), h(i), rows, M.rank(i - 1), nK)
            hd = la.mat_mul(h(i + 1), K.diff(i), rows, K.rank(i + 1), nK)
            composite = la.mat_mul(second.matrix(i), phi.matrix(i), rows, L.rank(i), nK)
            if [[a + b for a, b in zip(x, y)] for x, y in zip(dh, hd)] != composite:
                raise AssertionError("canonical homotopy failed to witness the composite")
        return pair

    @property
    def second(self) -> ChainMap:
        """The inclusion L -> cone."""
        K, L, M = self.first.source, self.first.target, self.cone
        mats = {}
        for i in L.degrees():
            mat = [[0] * L.rank(i) for _ in range(M.rank(i))]
            off = K.rank(i + 1)
            for r in range(L.rank(i)):
                mat[off + r][r] = 1
            mats[i] = mat
        return ChainMap(L, M, mats)


# ---------------------------------------------------------------------------
# lattice track
# ---------------------------------------------------------------------------

@dataclass
class EtaData:
    """The subcomplex in lattice form.

    `inclusions[k]` has columns forming the basis of f^(lo+k-offset) L_(lo+k)
    inside K^(lo+k); `complex` carries the induced differentials in those
    bases.  Different offsets rescale the complex by a global unit of
    Z[1/f] and never change homology.
    """

    complex: ChainComplex
    inclusions: list[list[list[int]]]
    f: int
    offset: int


def _divisibility_lattice(K: ChainComplex, f: int, k: int) -> list[list[int]]:
    """Rows spanning {x in K^(lo+k) : d x in f K^(lo+k+1)}."""
    i = K.lo + k
    return la.divisibility_lattice(K.diff(i), K.rank(i + 1), K.rank(i), f)


def _eta_data(K: ChainComplex, f: int, offset: int | None = None) -> EtaData:
    if not isinstance(K.ring, ZRing):
        raise ValueError("the lattice track works over Z")
    if f == 0:
        raise ValueError("f must be nonzero")
    f = abs(f)
    if offset is None:
        offset = K.lo
    if offset > K.lo:
        raise ValueError("offset must not exceed the lowest degree")
    inclusions = []
    for k in range(len(K.ranks)):
        n = K.ranks[k]
        rows = _divisibility_lattice(K, f, k) if n else []
        power = f ** (K.lo + k - offset)
        cols = [[power * rows[j][i] for j in range(len(rows))] for i in range(n)]
        inclusions.append(cols)
    diffs = []
    for k in range(len(K.ranks) - 1):
        n, m = K.ranks[k], K.ranks[k + 1]
        rk = len(inclusions[k][0]) if n and inclusions[k] else 0
        rk1 = len(inclusions[k + 1][0]) if m and inclusions[k + 1] else 0
        if rk == 0 or rk1 == 0:
            diffs.append([[0] * rk for _ in range(rk1)])
            continue
        DC = la.mat_mul(K.diffs[k], inclusions[k], m, n, rk)
        X = la.solve_matrix(inclusions[k + 1], DC, m, rk1, rk)
        if X is None:
            raise AssertionError("induced differential failed to be integral")
        diffs.append(X)
    ranks = [len(c[0]) if c else 0 for c in inclusions]
    return EtaData(ChainComplex(_Z, K.lo, ranks, diffs), inclusions, f, offset)


def eta_subcomplex(K: ChainComplex, f: int) -> ChainComplex:
    """The decalage subcomplex of a free Z-complex, as a free Z-complex."""
    return _eta_data(K, f).complex


def _induced_eta_map(phi: ChainMap, dK: EtaData, dL: EtaData) -> ChainMap:
    """The restriction of a chain map to the subcomplexes (common offset)."""
    if dK.offset != dL.offset or dK.f != dL.f:
        raise ValueError("eta data must share offset and f")
    K, L = phi.source, phi.target
    mats = {}
    for i in K.degrees():
        nK, nL = K.rank(i), L.rank(i)
        rkK = dK.complex.rank(i)
        rkL = dL.complex.rank(i) if L.lo <= i <= L.hi else 0
        if nK == 0 or rkK == 0 or nL == 0 or rkL == 0:
            continue
        img = la.mat_mul(phi.matrix(i), dK.inclusions[i - K.lo], nL, nK, rkK)
        X = la.solve_matrix(dL.inclusions[i - L.lo], img, nL, rkL, rkK)
        if X is None:
            raise AssertionError("restricted chain map failed to be integral")
        mats[i] = X
    return ChainMap(dK.complex, dL.complex, mats)


# ---------------------------------------------------------------------------
# symbolic track
# ---------------------------------------------------------------------------

def leta_koszul(K: KoszulSummand, f):
    """Symbolic decalage of a Koszul complex.

    f dividing every weight gives the Koszul complex on the divided
    weights; some weight dividing f gives ZERO_COMPLEX; otherwise
    NOT_STRUCTURED (a value, surfaced to callers, never an exception).
    """
    R = K.ring
    if R.is_zero(f):
        raise ValueError("f must be nonzero")
    divided = []
    for g in K.elements:
        q = R.zero() if R.is_zero(g) else R.exact_div(g, f)
        if q is None:
            divided = None
            break
        divided.append(q)
    if divided is not None:
        return KoszulSummand(R, tuple(divided), K.grading, K.twist + 1)
    for g in K.elements:
        if not R.is_zero(g) and R.exact_div(f, g) is not None:
            return ZERO_COMPLEX
    return NOT_STRUCTURED


def leta_two_term(g, f, ring):
    """Decalage of a two-term multiplication complex R --g--> R over the
    Laurent carrier: the divided weight g / gcd(g, f)."""
    if ring.is_zero(g):
        raise ValueError("two-term piece needs a nonzero element")
    d = laurent_gcd(g, f)
    q = ring.exact_div(g, d)
    if q is None:
        raise AssertionError("gcd failed to divide")
    return q


# ---------------------------------------------------------------------------
# the Bockstein complex
# ---------------------------------------------------------------------------

def _mod_f_lattices(K: ChainComplex, f: int):
    """Per degree, (cycle lattice rows, boundary lattice rows) of K/f in K^i:
    Z_i = {x : d x in f K^(i+1)}, B_i = im d^(i-1) + f K^i."""
    out = {}
    for i in K.degrees():
        n = K.rank(i)
        if n == 0:
            continue
        z_rows = _divisibility_lattice(K, f, i - K.lo)
        gens = []
        d_in = K.diff(i - 1)
        for c in range(K.rank(i - 1)):
            gens.append([d_in[r][c] for r in range(n)])
        for j in range(n):
            gens.append([f if r == j else 0 for r in range(n)])
        out[i] = (z_rows, la.lattice_basis(gens, n))
    return out


def mod_f_homology(K: ChainComplex, f: int) -> HomologyPresentation:
    """Presentations of H^*(K/f) (derived reduction; terms are free)."""
    data = {}
    for i, (z, b) in _mod_f_lattices(K, abs(f)).items():
        free, tors = la.quotient_presentation(z, b, K.rank(i))
        if free or tors:
            data[i] = (free, tors)
    return HomologyPresentation(_Z, data)


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
    lattices: dict[int, tuple[list[list[int]], list[list[int]]]]
    beta: dict[int, list[list[int]]]

    def term_presentation(self, i: int):
        if i not in self.lattices:
            return (0, [])
        z, b = self.lattices[i]
        return la.quotient_presentation(z, b, self.ambient.rank(i))

    def beta_is_zero(self, i: int) -> bool:
        """Whether beta^i vanishes on homology classes."""
        if i not in self.lattices or i + 1 not in self.lattices:
            return True
        z_rows, _ = self.lattices[i]
        z1_rows, b1_rows = self.lattices[i + 1]
        n1 = self.ambient.rank(i + 1)
        mat = self.beta.get(i)
        if not mat or not z_rows:
            return True
        k1 = len(z1_rows)
        basis = la.lattice_basis(_cycle_coords(z1_rows, b1_rows, n1), k1)
        return la.in_lattice(basis, la.transpose(mat, k1, len(z_rows)), k1) is not None

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
        return HomologyPresentation(_Z, data)


def bockstein(K: ChainComplex, f: int) -> BocksteinComplex:
    """Mod-f homology with the lift / apply-d / divide-by-f differential.

    Restricted to prime-power f so every subquotient stays inside integer
    normal-form arithmetic.
    """
    f = abs(f)
    if prime_base(f) is None:
        raise ValueError("the Bockstein construction needs a prime power")
    lat = _mod_f_lattices(K, f)
    beta = {}
    for i in sorted(lat):
        if i + 1 not in lat:
            continue
        z_rows, _ = lat[i]
        z1_rows, _ = lat[i + 1]
        n, n1 = K.rank(i), K.rank(i + 1)
        images = [la.mat_vec(K.diff(i), v, n1, n) for v in z_rows]
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
    """

    def __init__(self, K: ChainComplex):
        self.complex = K
        self._eta = {}
        self._homology = {}

    def eta(self, f: int, after: int | None = None) -> ChainComplex:
        key = (after, f)
        if key not in self._eta:
            inner = self.complex if after is None else self.eta(after)
            self._eta[key] = eta_subcomplex(inner, f)
        return self._eta[key]

    def homology(self, f: int | None = None, after: int | None = None) -> HomologyPresentation:
        key = (after, f)
        if key not in self._homology:
            C = self.complex if f is None else self.eta(f, after)
            self._homology[key] = homology_snf(C)
        return self._homology[key]


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
    expected = HomologyPresentation(_Z, predicted)
    ok = actual == expected
    return CheckReport(
        "homology_formula", ok,
        {} if ok else {"f": f, "actual": actual.to_json(), "expected": expected.to_json()},
    )


def check_leta_mod_f_is_bockstein(inst: LetaInstance, f: int) -> CheckReport:
    """Homology of eta_f(K)/f against homology of the Bockstein complex.

    The Bockstein side rebuilds the divisibility lattices of K itself."""
    lhs = mod_f_homology(inst.eta(f), f)
    rhs = bockstein(inst.complex, f).homology()
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


def check_exactness_criterion(T: TrianglePair, f: int) -> CheckReport:
    """When every mod-f boundary map of the triangle vanishes, the decalage
    triangle stays exact.

    Verified constructively: the canonical comparison map from the cone of
    the restricted map to the subcomplex of the cone must be a
    quasi-isomorphism (equal presentations plus surjectivity on homology;
    finitely generated groups make that an isomorphism).  When some
    boundary map is nonzero the criterion is silent and only that fact is
    reported.
    """
    fa = abs(f)
    K, L, M = T.first.source, T.first.target, T.cone
    latM = _mod_f_lattices(M, fa)
    latK = _mod_f_lattices(K, fa)
    for i, (z_rows, _) in latM.items():
        if i + 1 not in latK:
            continue
        _, bk = latK[i + 1]
        nK1 = K.rank(i + 1)
        if la.in_lattice(bk, [v[:nK1] for v in z_rows], nK1) is None:
            return CheckReport(
                "exactness_criterion", True,
                {"applicable": False, "note": f"mod-f boundary nonzero at degree {i}"},
            )

    offset = min(K.lo - 1, L.lo, M.lo)
    dK = _eta_data(K, fa, offset)
    dL = _eta_data(L, fa, offset)
    dM = _eta_data(M, fa, offset)
    eta_phi = _induced_eta_map(T.first, dK, dL)
    cone_eta = mapping_cone(eta_phi)

    # comparison (a, b) -> h(a) + incl(b), expressed in the eta(M) bases
    comp = {}
    for i in cone_eta.degrees():
        nM = M.rank(i)
        rkM = dM.complex.rank(i)
        rkK1 = dK.complex.rank(i + 1)
        rkL = dL.complex.rank(i) if L.lo <= i <= L.hi else 0
        cols = []
        for c in range(rkK1):
            v = [0] * nM
            inc = dK.inclusions[i + 1 - K.lo]
            for r in range(K.rank(i + 1)):
                v[r] = inc[r][c]
            cols.append(v)
        for c in range(rkL):
            v = [0] * nM
            inc = dL.inclusions[i - L.lo]
            for r in range(L.rank(i)):
                v[K.rank(i + 1) + r] = inc[r][c]
            cols.append(v)
        if nM == 0 or rkM == 0:
            comp[i] = [[0] * len(cols) for _ in range(rkM)]
            continue
        B = [[cols[c][r] for c in range(len(cols))] for r in range(nM)]
        X = la.solve_matrix(dM.inclusions[i - M.lo], B, nM, rkM, len(cols))
        if X is None:
            return CheckReport("exactness_criterion", False, {"error": "comparison map not integral"})
        comp[i] = X
    comparison = ChainMap(cone_eta, dM.complex, comp)

    hc = homology_snf(cone_eta)
    hm = homology_snf(dM.complex)
    if hc != hm:
        return CheckReport(
            "exactness_criterion", False,
            {"lhs": hc.to_json(), "rhs": hm.to_json()},
        )
    for i in dM.complex.degrees():
        n_src, n_tgt = cone_eta.rank(i), dM.complex.rank(i)
        if n_tgt == 0:
            continue
        z_src = la.kernel_basis(cone_eta.diff(i), cone_eta.rank(i + 1), n_src)
        z_tgt = la.kernel_basis(dM.complex.diff(i), dM.complex.rank(i + 1), n_tgt)
        gens = [la.mat_vec(comparison.matrix(i), v, n_tgt, n_src) for v in z_src]
        gens += la.transpose(dM.complex.diff(i - 1), n_tgt, dM.complex.rank(i - 1))
        if la.in_lattice(la.lattice_basis(gens, n_tgt), z_tgt, n_tgt) is None:
            return CheckReport(
                "exactness_criterion", False,
                {"degree": i, "error": "not surjective on homology"},
            )
    return CheckReport("exactness_criterion", True, {"applicable": True})


def check_mod_g_commutation(K: ChainComplex, f: int, g: int) -> CheckReport:
    """Decalage commutes with reduction mod g when H^*(K/f) has no g-torsion.

    K/g is represented over Z by the mapping cone of multiplication by g,
    which has free terms, so both sides stay inside the lattice track.
    """
    f, g = abs(f), abs(g)
    if gcd(f, g) != 1 or prime_base(f) is None or prime_base(g) is None:
        raise ValueError("f and g must be coprime prime powers")
    hyp = mod_f_homology(K, f)
    for i in hyp.degrees():
        if any(gcd(t, g) > 1 for t in hyp.torsion(i)):
            return CheckReport(
                "mod_g_commutation", True,
                {"applicable": False, "note": f"H^{i}(K/f) has g-torsion"},
            )
    lhs = mod_f_homology(eta_subcomplex(K, f), g)
    cone_g = mapping_cone(identity_scaled(K, g))
    rhs = homology_snf(eta_subcomplex(cone_g, f))
    ok = lhs == rhs
    return CheckReport(
        "mod_g_commutation", ok,
        {"applicable": True} if ok else {"f": f, "g": g, "lhs": lhs.to_json(), "rhs": rhs.to_json()},
    )


def leta_inverse_maps(K: ChainComplex, f: int, d: int):
    """Inclusion eta_f(K) -> K and the f^d-section K -> eta_f(K).

    K must be concentrated in degrees [0, d] (terms are free, so H^0 is
    automatically torsion-free).  Both composites are literally f^d times
    the identity, which is asserted before returning.
    """
    if K.lo < 0 or K.hi > d:
        raise ValueError(f"complex must live in degrees [0, {d}]")
    fa = abs(f)
    if fa == 0:
        raise ValueError("f must be nonzero")
    data = _eta_data(K, fa, offset=0)
    incl = {i: data.inclusions[i - K.lo] for i in K.degrees() if K.rank(i)}
    section = {}
    for i in K.degrees():
        n = K.rank(i)
        rk = data.complex.rank(i)
        if n == 0:
            continue
        target = [[fa**d if r == c else 0 for c in range(n)] for r in range(n)]
        X = la.solve_matrix(incl[i], target, n, rk, n)
        if X is None:
            raise AssertionError("f^d section failed to be integral")
        section[i] = X
    for i in K.degrees():
        n = K.rank(i)
        rk = data.complex.rank(i)
        if n == 0:
            continue
        one_n = [[fa**d if r == c else 0 for c in range(n)] for r in range(n)]
        one_rk = [[fa**d if r == c else 0 for c in range(rk)] for r in range(rk)]
        if la.mat_mul(incl[i], section[i], n, rk, n) != one_n:
            raise AssertionError("inclusion after section is not f^d")
        if la.mat_mul(section[i], incl[i], rk, n, rk) != one_rk:
            raise AssertionError("section after inclusion is not f^d")
    inclusion_map = ChainMap(data.complex, K, incl)
    section_map = ChainMap(K, data.complex, section)
    return inclusion_map, section_map, {"composites_equal": True, "factor": fa**d}


def factor_through_leta(alpha: ChainMap, f: int):
    """Factor K -> M through eta_f(M) -> M when im H^1(alpha) lies in f H^1(M).

    K must sit in degrees <= 1 and M in degrees >= 0 (free terms keep H^0
    torsion-free).  On success returns (factored_map, homotopy) with
    incl o factored = alpha - (d h + h d) verified exactly; otherwise the
    value NO_FACTORIZATION.
    """
    K, M = alpha.source, alpha.target
    if K.hi > 1:
        raise ValueError("source must be concentrated in degrees <= 1")
    if M.lo < 0:
        raise ValueError("target must be concentrated in degrees >= 0")
    fa = abs(f)
    data = _eta_data(M, fa, offset=0)
    nM1, nM0 = M.rank(1), M.rank(0)
    nK1, nK0 = K.rank(1), K.rank(0)
    z1 = la.kernel_basis(M.diff(1), M.rank(2), nM1)
    b1 = la.transpose(M.diff(0), nM1, nM0)
    gens = [[fa * x for x in v] for v in z1] + b1
    # alpha^1 = f z + d h, with z a cycle
    G = la.transpose(gens, len(gens), nM1)
    sol = la.solve_matrix(G, alpha.matrix(1), nM1, len(gens), nK1)
    if sol is None:
        return NO_FACTORIZATION
    k = len(z1)
    fz_cols = la.mat_mul([row[:k] for row in G], sol[:k], nM1, k, nK1)
    h = sol[k:]
    # express the two legs in the subcomplex bases
    rk1, rk0 = data.complex.rank(1), data.complex.rank(0)
    beta1 = la.solve_matrix(data.inclusions[1 - M.lo], fz_cols, nM1, rk1, nK1) if nM1 else []
    hd = la.mat_mul(h, K.diff(0), nM0, nK1, nK0)
    a0 = [[alpha.matrix(0)[r][c] - hd[r][c] for c in range(nK0)] for r in range(nM0)]
    beta0 = la.solve_matrix(data.inclusions[0 - M.lo], a0, nM0, rk0, nK0) if nM0 else []
    if beta1 is None or beta0 is None:
        return NO_FACTORIZATION
    factored = ChainMap(K, data.complex, {0: beta0, 1: beta1})
    # exact commutation: incl o factored = alpha - (dh + hd)
    lhs1 = la.mat_mul(data.inclusions[1 - M.lo], beta1, nM1, rk1, nK1)
    dh = la.mat_mul(M.diff(0), h, nM1, nM0, nK1)
    rhs1 = [[alpha.matrix(1)[r][c] - dh[r][c] for c in range(nK1)] for r in range(nM1)]
    lhs0 = la.mat_mul(data.inclusions[0 - M.lo], beta0, nM0, rk0, nK0)
    rhs0 = a0
    if lhs1 != rhs1 or lhs0 != rhs0:
        raise AssertionError("factorization failed to commute")
    return factored, h
