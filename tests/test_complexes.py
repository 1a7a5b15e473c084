"""Chain complexes, Koszul builders, and the two homology paths."""

import random
from functools import reduce
from math import comb

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from aomega import complexes
from aomega import intlinalg as la
from aomega.ainf import AinfModel, OCModel, OCModelElement
from aomega.arith import LaurentElement
from aomega.complexes import (
    NOT_STRUCTURED,
    ChainComplex,
    DiagonalComplex,
    DiagonalSummand,
    FpPolyRing,
    HomologyPresentation,
    LaurentRing,
    OCRing,
    ZModRing,
    ZRing,
    check_koszul_placement,
    homology_diagonal,
    homology_snf,
    koszul,
    koszul_basis,
    koszul_matrices,
    koszul_sign,
    koszul_to_diagonal,
    kunneth_koszul,
    tensor_product,
)
from aomega.decalage import eta_subcomplex
from aomega.suites import random_z_complex
from aomega.torus import random_fp_complex

Z = ZRing()


def snf_oracle(mat):
    """Elementary divisors through the symbolic normal form."""
    M = smith_normal_form(sympy.Matrix(mat))
    return sorted(abs(M[i, i]) for i in range(min(M.shape)) if M[i, i] != 0 and abs(M[i, i]) != 1)


def test_single_weight_koszul():
    K = koszul(Z, [2])
    assert K.ranks == [1, 1] and K.diffs == [[[2]]]
    H = homology_snf(K)
    assert H.free_rank(0) == 0 and H.torsion(1) == [2]


def test_two_weight_koszul_shape_and_signs():
    K = koszul(Z, [2, 3])
    assert K.ranks == [1, 2, 1]
    assert K.diffs[0] == [[2], [3]]
    # stated convention: d(e_S) = sum (-1)^|{s in S: s < j}| g_j e_(S u j)
    assert K.diffs[1] == [[-3, 2]]


def test_empty_koszul():
    K = koszul(Z, [])
    assert K.ranks == [1]
    assert homology_snf(K).free_rank(0) == 1


def test_dd_zero_enforced():
    with pytest.raises(AssertionError):
        ChainComplex(Z, 0, [1, 1, 1], [[[2]], [[3]]])


def test_homology_of_multiplication():
    K = ChainComplex(Z, 0, [1, 1], [[[9]]])
    H = homology_snf(K)
    assert H.free_rank(0) == 0 and H.torsion(1) == [9]


def test_homology_koszul_2_4_against_oracle():
    K = koszul(Z, [2, 4])
    # oracle: normal forms of the two differentials decide the answer
    assert snf_oracle([[2], [4]]) == [2]
    H = homology_snf(K)
    assert H.free_rank(1) == 0 and H.torsion(1) == [2]
    assert H.torsion(2) == [2]
    assert H.free_rank(0) == 0


def test_homology_zero_complex():
    K = ChainComplex(Z, 0, [0], [])
    assert homology_snf(K).is_zero()


def test_homology_random_vs_oracle_free_ranks():
    rng = random.Random(12)
    for _ in range(30):
        n0, n1 = rng.randint(1, 3), rng.randint(1, 3)
        mat = [[rng.randint(-4, 4) for _ in range(n0)] for _ in range(n1)]
        K = ChainComplex(Z, 0, [n0, n1], [mat])
        H = homology_snf(K)
        M = sympy.Matrix(mat)
        rank = M.rank()
        assert H.free_rank(0) == n0 - rank
        assert H.free_rank(1) == n1 - rank
        divisors = snf_oracle(mat)
        assert H.torsion(1) == sorted(divisors) or sorted(H.torsion(1)) == sorted(divisors)


def quotient_route_homology(K):
    """Homology as `homology_snf` computed it before it read the Smith
    divisors of each differential: per degree a kernel basis, the
    boundaries' coordinates in it, and the Smith form of those."""
    data = {}
    for i in K.degrees():
        n = K.rank(i)
        if n == 0:
            continue
        cycles = la.preimage_lattice(K.diff(i), K.rank(i + 1), n, [])
        boundaries = la.transpose(K.diff(i - 1), n, K.rank(i - 1))
        data[i] = la.quotient_presentation(cycles, boundaries, n)
    return HomologyPresentation(data)


def sympy_homology(K):
    """Free ranks and torsion from sympy's Smith forms of the differentials."""
    def smith(i):
        m, n = K.rank(i + 1), K.rank(i)
        if not m or not n:
            return []
        M = smith_normal_form(sympy.Matrix(K.diff(i)), domain=sympy.ZZ)
        return [abs(int(M[j, j])) for j in range(min(m, n)) if M[j, j] != 0]

    data = {}
    for i in K.degrees():
        if K.rank(i):
            incoming = smith(i - 1)
            data[i] = (K.rank(i) - len(smith(i)) - len(incoming), sorted(d for d in incoming if d > 1))
    return HomologyPresentation(data)


def test_homology_snf_against_quotient_route_and_sympy():
    rng = random.Random(73)
    shapes = set()
    for _ in range(300):
        K = random_z_complex(rng)
        ranks, diffs = K.ranks, K.diffs
        # sometimes a zero term at both ends, and mostly shifted below degree 0
        if rng.random() < 0.3:
            ranks = [0] + ranks + [0]
            diffs = [[[] for _ in range(K.ranks[0])]] + diffs + [[]]
        K = ChainComplex(Z, rng.randint(-3, 1), ranks, diffs)
        for C in [K] + [eta_subcomplex(K, f) for f in (2, 3, 4, 6)]:
            H = homology_snf(C)
            assert H == quotient_route_homology(C) == sympy_homology(C), C
            shapes.add((C.lo < 0, 0 in C.ranks, any(H.torsion(i) for i in H.degrees())))
    assert {(True, True, True), (True, False, True), (False, True, True)} <= shapes, shapes


def test_diagonal_homology():
    D = DiagonalComplex(Z, [DiagonalSummand(0, 6), DiagonalSummand(2)])
    H = homology_diagonal(D)
    assert H.torsion(1) == [6] and H.free_rank(2) == 1
    # unit two-term piece is acyclic
    D1 = DiagonalComplex(Z, [DiagonalSummand(0, 1)])
    assert homology_diagonal(D1).is_zero()
    with pytest.raises(ValueError):
        DiagonalComplex(Z, [DiagonalSummand(0, 0)])


def test_koszul_to_diagonal_cases():
    D = koszul_to_diagonal(Z, (2, 4))
    assert sorted(s.shift for s in D.summands) == [0, 1]
    assert all(s.element == 2 for s in D.summands)

    D0 = koszul_to_diagonal(Z, (0, 0))
    shifts = sorted(s.shift for s in D0.summands)
    assert shifts == [0, 1, 1, 2] and all(s.element is None for s in D0.summands)

    # no weights: one free piece in degree 0
    assert koszul_to_diagonal(Z, ()).summands == [DiagonalSummand(0)]

    assert koszul_to_diagonal(Z, (2, 3)) is NOT_STRUCTURED


def test_koszul_to_diagonal_matches_snf():
    rng = random.Random(13)
    for _ in range(50):
        g = rng.choice([v for v in range(-9, 10) if v])
        h = rng.choice([v for v in range(-4, 5) if v])
        D = koszul_to_diagonal(Z, (g, g * h))
        assert homology_diagonal(D) == homology_snf(koszul(Z, (g, g * h)))


def test_laurent_koszul_structured_case():
    # weights q^(1/3)-1 and q^(2/3)-1 at p=3 depth 1: the first divides the second
    model = AinfModel(3, 1)
    ring = LaurentRing(3, 1)
    g1 = LaurentElement({1: 1, 0: -1}, 1)
    g2 = LaurentElement({2: 1, 0: -1}, 1)
    D = koszul_to_diagonal(ring, (g1, g2))
    assert D is not NOT_STRUCTURED
    assert len(D.summands) == 2 and all(s.element == g1 for s in D.summands)
    H = homology_diagonal(D)
    assert H.torsion(1) and H.torsion(2)


def test_tensor_product_matches_koszul_up_to_basis_bijection():
    rng = random.Random(14)
    for _ in range(15):
        d = rng.randint(2, 3)
        gs = [rng.randint(-5, 5) for _ in range(d)]
        K = koszul(Z, gs)
        T = koszul(Z, [gs[0]])
        for g in gs[1:]:
            T = tensor_product(T, koszul(Z, [g]))
        assert T.ranks == K.ranks
        assert homology_snf(T) == homology_snf(K)
    # exact matrix equality for d = 2 under the explicit bijection:
    # tensor degree-1 order is (1 tensor e2, e1 tensor 1) = subsets ({1}, {0})
    K = koszul(Z, [2, 3])
    T = tensor_product(koszul(Z, [2]), koszul(Z, [3]))
    perm = [1, 0]
    assert [[K.diffs[0][perm[r]][0] for r in range(2)][c] for c in range(2)] == [T.diffs[0][0][0], T.diffs[0][1][0]]
    assert [T.diffs[1][0][0], T.diffs[1][1 - 1][1]] == [K.diffs[1][0][perm[0]], K.diffs[1][0][perm[1]]]


def test_the_placement_is_certified_against_kunneth_in_dimensions_0_to_4():
    assert all(check_koszul_placement(d) for d in range(5))


def test_kunneth_koszul_reads_no_placement(monkeypatch):
    def refuse(d):
        raise RuntimeError("the Kunneth side read the placement")

    monkeypatch.setattr(complexes, "_koszul_placement", refuse)
    T, subsets = kunneth_koszul(Z, [2, 3, 5])
    assert T.ranks == [1, 3, 3, 1] and subsets[1] == [(2,), (1,), (0,)]
    # e_0 -> 2 e_{0} + 3 e_{1} + 5 e_{2}, the new weight's vector first
    assert T.diffs[0] == [[5], [3], [2]]


def test_diagonal_specializes_at_u_equals_one():
    # a Laurent two-term piece evaluated at u = 1 matches the integer piece
    # on the nose, including through the normal-form oracle
    rng = random.Random(15)
    ring = LaurentRing(3, 1)
    for _ in range(30):
        terms = {rng.randint(0, 3): rng.randint(-4, 4) for _ in range(rng.randint(1, 3))}
        g = LaurentElement(terms, 1)
        if g.is_zero() or g.coefficient_sum() == 0:
            continue
        D = DiagonalComplex(ring, [DiagonalSummand(0, g)])
        DZ = DiagonalComplex(Z, [DiagonalSummand(0, g.coefficient_sum())])
        HZ = homology_diagonal(DZ)
        assert HZ == homology_snf(ChainComplex(Z, 0, [1, 1], [[[g.coefficient_sum()]]]))
        # the Laurent side records the symbolic divisor
        H = homology_diagonal(D)
        assert H.torsion(1) or H.is_zero()


def test_complex_json_round_trip():
    K = koszul(Z, [2, 3])
    K2 = ChainComplex.from_json(K.to_json())
    assert K2 == K
    # complexes are read over Z only
    with pytest.raises(ValueError, match="over Z only"):
        ChainComplex.from_json({**K.to_json(), "ring": "Z/5"})


def test_presentation_equality_and_json():
    a = HomologyPresentation({0: (1, []), 1: (0, [2, 4])})
    b = HomologyPresentation({0: (1, []), 1: (0, [2, 4]), 2: (0, [])})
    assert a == b
    assert a.to_json()["1"]["torsion"] == ["2", "4"]


def test_rings_compare_hash_and_print_by_parameters():
    assert ZRing() == ZRing() and hash(ZRing()) == hash(ZRing())
    assert ZModRing(4) == ZModRing(4) != ZModRing(5)
    assert LaurentRing(3, 1) == LaurentRing(3, 1) != LaurentRing(3, 2)
    assert LaurentRing(3, 1) != OCRing(3, 1)
    assert len({OCRing(3, 1), OCRing(3, 1), FpPolyRing(3), FpPolyRing(5), ZModRing(3)}) == 4
    rings = [ZRing(), ZModRing(4), LaurentRing(3, 1), OCRing(3, 2), FpPolyRing(5)]
    assert [repr(R) for R in rings] == ["Z", "Z/4", "A(p=3,depth=1)", "OC(p=3,depth=2)", "F5[u]"]
    assert [R.tag for R in rings] == [repr(R) for R in rings]
    with pytest.raises(AttributeError):
        OCRing(3, 2).p = 5


# ---------------------------------------------------------------------------
# the d-after-d check and the Koszul placement against their dense oracles
# ---------------------------------------------------------------------------

def dense_dd_is_zero(ring, ranks, diffs):
    """d after d = 0 by the dense triple loop: every entry pair multiplied,
    zeros included, each sum started from zero."""
    for k in range(len(diffs) - 1):
        A, B = diffs[k + 1], diffs[k]
        for i in range(ranks[k + 2]):
            for j in range(ranks[k]):
                acc = ring.zero()
                for t in range(ranks[k + 1]):
                    acc = ring.add(acc, ring.mul(A[i][t], B[t][j]))
                if not ring.is_zero(acc):
                    return False
    return True


def sparse_dd_is_zero(ring, ranks, diffs):
    """The verdict of the check `ChainComplex` runs at construction."""
    try:
        ChainComplex(ring, 0, ranks, diffs)
    except AssertionError as e:
        assert str(e).startswith("d o d != 0 at degree ")
        return False
    return True


def per_entry_koszul_diffs(ring, elements):
    """Koszul differentials assembled cell by cell: a fresh zero in every
    cell, the signed weight added to it."""
    d = len(elements)
    diffs = []
    for k in range(d):
        src = koszul_basis(d, k)
        tgt = {S: i for i, S in enumerate(koszul_basis(d, k + 1))}
        mat = [[ring.zero() for _ in src] for _ in tgt]
        for col, S in enumerate(src):
            for j in range(d):
                if j in S:
                    continue
                row = tgt[tuple(sorted(S + (j,)))]
                val = elements[j] if koszul_sign(j, S) == 1 else ring.neg(elements[j])
                mat[row][col] = ring.add(mat[row][col], val)
        diffs.append(mat)
    return diffs


FP = FpPolyRing(5)
OC = OCRing(3, 2)
OC_MODEL = OCModel(3, 2)
UNTRIMMED_ONE = (1, 0, 0)


def random_fp_poly(rng):
    """An F_5[u] entry as an untrimmed tuple: coefficients outside [0, 5)
    and trailing zeros (or multiples of 5) left in place."""
    return tuple(rng.randrange(-10, 10) for _ in range(rng.randint(0, 3))) + (0, 5)[: rng.randint(0, 2)]


RANDOM_ENTRY = {
    "Z": lambda rng: rng.randint(-3, 3),
    "Z/12": lambda rng: rng.randrange(-24, 24),
    "A(p=3,depth=1)": lambda rng: LaurentElement(
        {rng.randint(-2, 3): rng.randint(-2, 2) for _ in range(rng.randint(0, 2))}, 1
    ),
    "OC(p=3,depth=2)": lambda rng: OCModelElement(
        OC_MODEL, tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(OC_MODEL.degree))
    ),
    "F5[u]": random_fp_poly,
}
RINGS = [ZRing(), ZModRing(12), LaurentRing(3, 1), OC, FP]


def perturbed(K, rng, entry):
    """K's differentials with one random cell replaced by `entry(rng)`."""
    diffs = [[list(row) for row in d] for d in K.diffs]
    live = [k for k, d in enumerate(diffs) if d and d[0]]
    if live:
        d = diffs[rng.choice(live)]
        d[rng.randrange(len(d))][rng.randrange(len(d[0]))] = entry(rng)
    return diffs


def test_dd_check_matches_dense_oracle_on_random_complexes():
    rng = random.Random(71)
    verdicts = set()
    for ring, make in ((Z, lambda: random_z_complex(rng)), (FP, lambda: random_fp_complex(rng, 5))):
        entry = RANDOM_ENTRY[ring.tag]
        for _ in range(150):
            K = make()
            assert dense_dd_is_zero(ring, K.ranks, K.diffs)
            diffs = perturbed(K, rng, entry)
            verdict = sparse_dd_is_zero(ring, K.ranks, diffs)
            assert verdict == dense_dd_is_zero(ring, K.ranks, diffs)
            verdicts.add((ring.tag, verdict))
    assert verdicts == {("Z", True), ("Z", False), ("F5[u]", True), ("F5[u]", False)}


def test_dd_check_sees_untrimmed_zeros_and_cancelling_terms():
    # the same F_5[u] complexes with every entry re-written untrimmed: the
    # zeros hide as (0, 5) or (5,), and the products still cancel
    rng = random.Random(72)
    for _ in range(100):
        K = random_fp_complex(rng, 5)
        padded = [
            [[tuple(c + 5 * rng.randint(-1, 1) for c in x) + (0, 5)[: rng.randint(0, 2)] for x in row] for row in d]
            for d in K.diffs
        ]
        assert sparse_dd_is_zero(FP, K.ranks, padded) and dense_dd_is_zero(FP, K.ranks, padded)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_dd_check_matches_dense_oracle_on_koszul_complexes(ring):
    rng = random.Random(73)
    entry = RANDOM_ENTRY[ring.tag]
    verdicts = set()
    for _ in range(40):
        K = koszul(ring, [entry(rng) for _ in range(rng.randint(0, 4))])
        assert dense_dd_is_zero(ring, K.ranks, K.diffs)
        diffs = perturbed(K, rng, entry)
        verdict = sparse_dd_is_zero(ring, K.ranks, diffs)
        assert verdict == dense_dd_is_zero(ring, K.ranks, diffs)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _oc(terms):
    return OC_MODEL.reduce(LaurentElement(terms, 2))


MUTATION_WEIGHTS = [
    (ZRing(), [2, 3, 5]),
    (ZModRing(7), [2, 3, 5]),
    (LaurentRing(3, 1), [LaurentElement({1: 1, 0: -1}, 1), LaurentElement({2: 1, 0: 1}, 1), LaurentElement({-1: 2}, 1)]),
    (OC, [_oc({1: 1, 0: -1}), _oc({0: 2}), _oc({4: 1, 1: 3})]),
    (FP, [(1, 1), (0, 2), (3,)]),
]


def flip_sign(ring, diffs):
    diffs[0][0][0] = ring.neg(diffs[0][0][0])


def move_to_other_row(ring, diffs):
    col = [row[0] for row in diffs[1]]
    src = next(r for r, x in enumerate(col) if not ring.is_zero(x))
    dst = next(r for r, x in enumerate(col) if ring.is_zero(x))
    diffs[1][dst][0], diffs[1][src][0] = diffs[1][src][0], diffs[1][dst][0]


@pytest.mark.parametrize("mutate", [flip_sign, move_to_other_row])
@pytest.mark.parametrize("ring,weights", MUTATION_WEIGHTS, ids=[repr(r) for r, _ in MUTATION_WEIGHTS])
def test_dd_check_rejects_mutated_koszul_complex(ring, weights, mutate):
    K = koszul(ring, weights)
    diffs = [[list(row) for row in d] for d in K.diffs]
    mutate(ring, diffs)
    assert diffs != K.diffs and not dense_dd_is_zero(ring, K.ranks, diffs)
    with pytest.raises(AssertionError, match="d o d != 0 at degree"):
        ChainComplex(ring, 0, K.ranks, diffs)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_koszul_matches_per_entry_assembly(ring):
    rng = random.Random(74)
    entry = RANDOM_ENTRY[ring.tag]
    special = [ring.zero()] + ([UNTRIMMED_ONE, (0,), (5, 0)] if ring == FP else [])
    for d in range(5):
        for _ in range(8):
            elements = [rng.choice(special) if rng.random() < 0.3 else entry(rng) for _ in range(d)]
            K = koszul(ring, elements, lo=-1)
            assert K.lo == -1 and K.ranks == [comb(d, k) for k in range(d + 1)]
            assert K.diffs == per_entry_koszul_diffs(ring, elements)
    # the untrimmed unit is placed trimmed, as the per-entry sum placed it
    assert koszul(FP, [UNTRIMMED_ONE, (2,)]).diffs == [[[(1,)], [(2,)]], [[(3,), (1,)]]]


def test_fp_is_zero_matches_trim_on_untrimmed_tuples():
    rng = random.Random(75)
    for p in (2, 3, 5, 13):
        R = FpPolyRing(p)
        for _ in range(300):
            x = tuple(rng.choice((0, p, -p, rng.randrange(-2 * p, 2 * p))) for _ in range(rng.randint(0, 4)))
            assert R.is_zero(x) == (not R.reduce(x))


# ---------------------------------------------------------------------------
# one sum per d-after-d entry
# ---------------------------------------------------------------------------

def test_fp_dd_entry_is_read_mod_p():
    # over F_3[u] the one d o d entry sums u + 2u = 3u, zero mod 3 but not
    # over Z; with 2u + 2u = 4u it is u, and the check must see it
    F3 = FpPolyRing(3)
    assert sparse_dd_is_zero(F3, [1, 2, 1], [[[(1,)], [(2,)]], [[(0, 1), (0, 1)]]])
    with pytest.raises(AssertionError, match="d o d != 0 at degree 0"):
        ChainComplex(F3, 0, [1, 2, 1], [[[(2,)], [(2,)]], [[(0, 1), (0, 1)]]])


def test_laurent_dd_rejects_mixed_depths():
    # a product or a sum of Laurent elements of two depths is a ValueError
    ring = LaurentRing(3, 1)
    u1, u2 = LaurentElement({1: 1}, 1), LaurentElement({1: 1}, 2)
    for diffs in ([[[u1], [u1]], [[u1, -u2]]], [[[u1], [u2]], [[u1, u2]]]):
        with pytest.raises(ValueError, match="depth"):
            ChainComplex(ring, 0, [1, 2, 1], diffs)


def contraction(d, j, k):
    """The dense matrix of iota_j from degree k + 1 to degree k: e_T goes to
    (-1)^#{t in T : t < j} e_(T - j) when j is in T, to zero otherwise."""
    tgt = {S: i for i, S in enumerate(koszul_basis(d, k))}
    mat = [[0] * comb(d, k + 1) for _ in tgt]
    for col, T in enumerate(koszul_basis(d, k + 1)):
        if j in T:
            mat[tgt[tuple(t for t in T if t != j)]][col] = koszul_sign(j, T)
    return mat


@pytest.mark.parametrize("ring", [Z, FP], ids=repr)
def test_contraction_identity_on_dense_matrices(ring):
    # d iota_j + iota_j d = w_j id in every degree, with iota_j built from
    # subsets, not from the placement, and every product taken densely
    rng = random.Random(75)
    entry = RANDOM_ENTRY[ring.tag]
    scalar = {1: ring.one(), 0: ring.zero(), -1: ring.neg(ring.one())}

    def product(A, B):
        return [[reduce(ring.add, [ring.mul(a, B[t][c]) for t, a in enumerate(row)], ring.zero())
                 for c in range(len(B[0]))] for row in A]

    for d in range(5):
        for _ in range(4):
            weights = [entry(rng) for _ in range(d)]
            diffs = koszul_matrices(ring, weights)
            for j in range(d):
                iota = [[[scalar[x] for x in row] for row in contraction(d, j, k)] for k in range(d)]
                for k in range(d + 1):
                    n = comb(d, k)
                    total = [[ring.zero()] * n for _ in range(n)]
                    parts = []
                    if k < d:
                        parts.append(product(iota[k], diffs[k]))  # iota_j d
                    if k > 0:
                        parts.append(product(diffs[k - 1], iota[k - 1]))  # d iota_j
                    for part in parts:
                        total = [[ring.add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(total, part)]
                    for r in range(n):
                        for c in range(n):
                            expected = weights[j] if r == c else ring.zero()
                            assert ring.is_zero(ring.add(total[r][c], ring.neg(expected))), (d, j, k, r, c)
