"""Decalage: lattice track, symbolic rules, and every checker."""

import io
import random
from contextlib import redirect_stdout

import pytest

from aomega import decalage, intlinalg
from aomega.ainf import AinfModel
from aomega.arith import LaurentElement
from aomega.cli import main
from aomega.complexes import (
    ChainComplex,
    HomologyPresentation,
    LaurentRing,
    ZRing,
    homology_snf,
    koszul,
)
from aomega.decalage import (
    ZERO_COMPLEX,
    BocksteinComplex,
    CheckReport,
    LetaInstance,
    _divisor_transform,
    bockstein,
    check_composition,
    check_homology_formula,
    check_leta_mod_f_is_bockstein,
    eta_subcomplex,
    leta_koszul,
    leta_two_term,
    mod_f_homology,
)
from aomega.complexes import NOT_STRUCTURED
from aomega.suites import random_z_complex

Z = ZRing()


def two_term(c: int) -> ChainComplex:
    return ChainComplex(Z, 0, [1, 1], [[[c]]])


def test_torsion_models():
    for p in (2, 3, 5):
        assert homology_snf(eta_subcomplex(two_term(p), p)).is_zero()
        H = homology_snf(eta_subcomplex(two_term(p * p), p))
        assert H.torsion(1) == [p] and H.free_rank(1) == 0 and H.free_rank(0) == 0


def test_eta_zero_differential():
    K = ChainComplex(Z, 0, [1, 1], [[[0]]])
    H = homology_snf(eta_subcomplex(K, 2))
    assert H.free_rank(0) == 1 and H.free_rank(1) == 1


def test_eta_rejects_zero_divisor():
    with pytest.raises(ValueError):
        eta_subcomplex(two_term(2), 0)


def test_homology_formula_examples():
    # the two rank-one models, restated through the torsion-quotient rule
    assert check_homology_formula(LetaInstance(two_term(4)), 2).passed
    assert check_homology_formula(LetaInstance(two_term(3)), 3).passed
    K = koszul(Z, [2, 4])
    assert check_homology_formula(LetaInstance(K), 2).passed
    # torsion coprime to f is untouched
    K5 = two_term(5)
    H = homology_snf(eta_subcomplex(K5, 2))
    assert H.torsion(1) == [5]


def test_bockstein_values():
    # multiplication by p^2: beta is zero on both length-one terms
    H = bockstein(two_term(9), 3).homology()
    assert H.torsion(0) == [3] and H.torsion(1) == [3]
    # multiplication by p: beta is an isomorphism, the complex is acyclic
    assert bockstein(two_term(3), 3).homology().is_zero()
    # zero differentials: beta vanishes, so homology is both terms Z/5
    K = ChainComplex(Z, 0, [1, 1], [[[0]]])
    H3 = bockstein(K, 5).homology()
    assert H3.torsion(0) == [5] and H3.torsion(1) == [5]


def test_bockstein_needs_prime_power():
    with pytest.raises(ValueError):
        bockstein(two_term(6), 6)


def test_bockstein_lift_examples():
    assert check_leta_mod_f_is_bockstein(LetaInstance(two_term(9)), 3).passed
    assert check_leta_mod_f_is_bockstein(LetaInstance(koszul(Z, [2, 4])), 2).passed
    rng = random.Random(21)
    for _ in range(20):
        K = random_z_complex(rng, max_deg=3)
        assert check_leta_mod_f_is_bockstein(LetaInstance(K), 3).passed


def test_composition_examples():
    assert check_composition(LetaInstance(two_term(8)), 2, 2).passed
    assert check_composition(LetaInstance(koszul(Z, [2, 4])), 1, 3).passed
    rng = random.Random(22)
    for _ in range(20):
        K = random_z_complex(rng)
        assert check_composition(LetaInstance(K), 2, 3).passed


def test_property_sweep():
    rng = random.Random(23)
    for _ in range(60):
        inst = LetaInstance(random_z_complex(rng))
        for f in (2, 3, 4):
            assert check_homology_formula(inst, f).passed
            assert check_leta_mod_f_is_bockstein(inst, f).passed
        for f, g in ((2, 2), (2, 3), (3, 4)):
            assert check_composition(inst, f, g).passed


# the three instance checks as they ran before the instance shared its
# data: every complex rebuilt from K for each call
def fresh_homology_formula(K, f):
    actual = homology_snf(eta_subcomplex(K, f))
    base = homology_snf(K)
    predicted = {}
    for i in base.degrees():
        tors = _divisor_transform(base.torsion(i), abs(f))
        if base.free_rank(i) or tors:
            predicted[i] = (base.free_rank(i), tors)
    expected = HomologyPresentation(predicted)
    ok = actual == expected
    return CheckReport(
        "homology_formula", ok,
        {} if ok else {"f": f, "actual": actual.to_json(), "expected": expected.to_json()},
    )


def fresh_leta_mod_f_is_bockstein(K, f):
    lhs = mod_f_homology(eta_subcomplex(K, f), f)
    rhs = bockstein(K, f).homology()
    ok = lhs == rhs
    return CheckReport(
        "leta_mod_f_is_bockstein", ok,
        {} if ok else {"f": f, "lhs": lhs.to_json(), "rhs": rhs.to_json()},
    )


def fresh_composition(K, f, g):
    lhs = homology_snf(eta_subcomplex(eta_subcomplex(K, g), f))
    rhs = homology_snf(eta_subcomplex(K, f * g))
    ok = lhs == rhs
    return CheckReport(
        "composition", ok,
        {} if ok else {"f": f, "g": g, "lhs": lhs.to_json(), "rhs": rhs.to_json()},
    )


def run_property_set(inst):
    """The three checks in the order the s5-leta suite runs them."""
    reports = []
    for f in (2, 3, 4):
        reports.append(check_homology_formula(inst, f))
        reports.append(check_leta_mod_f_is_bockstein(inst, f))
    for f, g in ((2, 2), (2, 3), (3, 4)):
        reports.append(check_composition(inst, f, g))
    return reports


def same_complex(A, B):
    return (A.lo, A.ranks, A.diffs) == (B.lo, B.ranks, B.diffs)


def test_shared_instance_matches_fresh_complexes():
    rng = random.Random(24)
    for _ in range(50):
        K = random_z_complex(rng)
        inst = LetaInstance(K)
        fresh = []
        for f in (2, 3, 4):
            fresh.append(fresh_homology_formula(K, f))
            fresh.append(fresh_leta_mod_f_is_bockstein(K, f))
        for f, g in ((2, 2), (2, 3), (3, 4)):
            fresh.append(fresh_composition(K, f, g))
        assert run_property_set(inst) == fresh
        # every shared complex is the one a fresh call builds
        for f in (2, 3, 4, 6, 12):
            assert same_complex(inst.eta(f), eta_subcomplex(K, f))
        for f, g in ((2, 2), (2, 3), (3, 4)):
            assert same_complex(inst.eta(f, after=g), eta_subcomplex(eta_subcomplex(K, g), f))
        # both sides of the Bockstein check, read from the instance's
        # table, against fresh calls with no table
        for f in (2, 3, 4):
            assert mod_f_homology(inst.eta(f), f, inst.table) == mod_f_homology(eta_subcomplex(K, f), f)
            shared = bockstein(K, f, inst.table)
            fresh = bockstein(K, f)
            assert shared.lattices == {i: (tuple(map(tuple, z)), b) for i, (z, b) in fresh.lattices.items()}
            assert shared.beta == fresh.beta and shared.homology() == fresh.homology()


def test_instance_builds_each_eta_once(monkeypatch):
    calls = []
    real = decalage.eta_subcomplex

    def spy(K, f, **kwargs):
        calls.append((K, f))
        assert kwargs == {"table": inst.table}
        return real(K, f, **kwargs)

    monkeypatch.setattr(decalage, "eta_subcomplex", spy)
    rng = random.Random(25)
    for _ in range(5):
        inst = LetaInstance(random_z_complex(rng))
        calls.clear()
        run_property_set(inst)
        K = inst.complex
        expected = [(K, 2), (K, 3), (K, 4), (inst.eta(2), 2), (inst.eta(3), 2), (K, 6), (inst.eta(4), 3), (K, 12)]
        assert len(calls) == len(expected)
        for (got_K, got_f), (want_K, want_f) in zip(calls, expected):
            assert got_K is want_K and got_f == want_f


def test_instances_of_one_complex_share_no_lattice(monkeypatch):
    # the table lives in its instance: a second instance of the same K
    # computes every lattice again, as many as the first
    calls = []
    real = intlinalg.divisibility_lattice

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(intlinalg, "divisibility_lattice", counted)
    rng = random.Random(29)
    for _ in range(5):
        K = random_z_complex(rng)
        counts = []
        for _ in range(2):
            calls.clear()
            run_property_set(LetaInstance(K))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


def test_table_tells_complexes_apart_by_lo_and_ranks():
    # equal differentials, different lowest degree or ranks: H^1 = Z/2
    # against H^2 = Z/2, and H^0 = Z against Z^2 (no rows in d^0 either way)
    pairs = [
        (ChainComplex(Z, 0, [1, 1], [[[2]]]), ChainComplex(Z, 1, [1, 1], [[[2]]])),
        (ChainComplex(Z, 0, [1, 0], [[]]), ChainComplex(Z, 0, [2, 0], [[]])),
    ]
    for pair in pairs:
        table = decalage.ContentTable()
        assert [table.homology(C) for C in pair] == [homology_snf(C) for C in pair]
        assert homology_snf(pair[0]) != homology_snf(pair[1])


# Hermite and Smith computations made by `leta verify --suite s5-leta
# --instances 100 --seed 0`; the counts are deterministic.  Lattices travel
# in echelon form, homology reads the Smith divisors of each differential,
# and each instance computes each divisibility lattice and each homology
# once (21,039 Hermite forms when every query built its own; 14,307
# Hermite forms and 4,339 Smith computations when every check rebuilt the
# lattices and homology it shared with another).  A Smith form of one row
# or one column is a gcd, with no Hermite form, and the zero map past the
# top degree takes none (9,236 Hermite forms and 2,837 Smith computations
# before).
S5_LETA_HERMITE_FORMS = 7_814
S5_LETA_SMITH_FORMS = 2_366


def s5_leta_calls(monkeypatch, name):
    """Calls of `intlinalg.<name>` made by the s5-leta run above."""
    calls = []
    real = getattr(intlinalg, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(intlinalg, name, counted)
    with redirect_stdout(io.StringIO()):
        assert main(["leta", "verify", "--suite", "s5-leta", "--instances", "100", "--seed", "0"]) == 0
    return len(calls)


def test_s5_leta_hermite_forms_stay_under_their_ceiling(monkeypatch):
    assert s5_leta_calls(monkeypatch, "column_echelon") <= S5_LETA_HERMITE_FORMS


def test_s5_leta_smith_forms_stay_under_their_ceiling(monkeypatch):
    assert s5_leta_calls(monkeypatch, "snf_divisors") <= S5_LETA_SMITH_FORMS


def two_call_bockstein_homology(B):
    """BocksteinComplex.homology computing the cycle coordinates of degree
    i + 1 for the numerator and again for the denominator of i + 1."""
    data = {}
    for i in sorted(B.lattices):
        z_rows, b_rows = B.lattices[i]
        k_i = len(z_rows)
        if k_i == 0:
            continue
        if i + 1 in B.lattices and B.beta.get(i):
            z1_rows, b1_rows = B.lattices[i + 1]
            k_i1 = len(z1_rows)
            coords1 = intlinalg.in_lattice(z1_rows, b1_rows, B.ambient.rank(i + 1))
            b1_basis = intlinalg.lattice_basis(coords1, k_i1)
            num_rows = intlinalg.preimage_lattice(B.beta[i], k_i1, k_i, b1_basis)
        else:
            num_rows = intlinalg.identity(k_i)
        den = intlinalg.in_lattice(z_rows, b_rows, B.ambient.rank(i))
        if i - 1 in B.lattices and B.beta.get(i - 1):
            den += intlinalg.transpose(B.beta[i - 1], k_i, len(B.lattices[i - 1][0]))
        free, tors = intlinalg.quotient_presentation(num_rows, den, k_i)
        if free or tors:
            data[i] = (free, tors)
    return HomologyPresentation(data)


def test_bockstein_homology_matches_two_call_route():
    rng = random.Random(26)
    nontrivial = 0
    for _ in range(40):
        K = random_z_complex(rng)
        for f in (2, 3, 4, 9):
            B = bockstein(K, f)
            H = B.homology()
            assert H == two_call_bockstein_homology(B)
            nontrivial += not H.is_zero()
    assert nontrivial > 0


def test_restriction_of_scalars_is_structural():
    # the construction never inspects the ring tag: relabeling the base of
    # a free complex leaves the lattice computation literally unchanged
    K = koszul(Z, [6, 4])
    E1 = eta_subcomplex(K, 2)
    relabeled = ChainComplex(Z, K.lo, K.ranks, K.diffs)
    E2 = eta_subcomplex(relabeled, 2)
    assert E1.ranks == E2.ranks and E1.diffs == E2.diffs


def test_truncation_commutes_on_homology():
    rng = random.Random(24)
    for _ in range(15):
        K = random_z_complex(rng, max_deg=4)
        f = rng.choice((2, 3))
        full = homology_snf(eta_subcomplex(K, f))
        for j in list(K.degrees())[:-1]:
            T = _truncate(K, j)
            trunc = homology_snf(eta_subcomplex(T, f))
            for i in range(K.lo, j + 1):
                assert trunc.free_rank(i) == full.free_rank(i)
                assert trunc.torsion(i) == full.torsion(i)


def _truncate(K: ChainComplex, j: int) -> ChainComplex:
    """Good truncation: degrees <= j with the cycle lattice in degree j."""
    from aomega import intlinalg as la

    n = K.rank(j)
    # the echelon basis of the kernel: its preimage of the zero lattice
    zbasis = la.preimage_lattice(K.diff(j), K.rank(j + 1), n, [])
    ranks = [K.rank(i) for i in range(K.lo, j)] + [len(zbasis)]
    diffs = [K.diff(i) for i in range(K.lo, j - 1)]
    if j > K.lo:
        cols = la.in_lattice(zbasis, la.transpose(K.diff(j - 1), n, K.rank(j - 1)), n)
        assert cols is not None
        diffs.append(la.transpose(cols, K.rank(j - 1), len(zbasis)))
    return ChainComplex(Z, K.lo, ranks, diffs)


def test_leta_koszul_rules():
    # componentwise division
    assert leta_koszul(Z, (4, 6), 2) == (2, 3)
    # kill: a weight divides f
    assert leta_koszul(Z, (2, 9), 6) is ZERO_COMPLEX
    # no structure either way
    assert leta_koszul(Z, (4, 9), 6) is NOT_STRUCTURED
    with pytest.raises(ValueError):
        leta_koszul(Z, (2,), 0)


def test_leta_koszul_q_weights():
    # weights q^a - 1 divided by q - 1 become the q-analogs
    model = AinfModel(3, 1)
    ring = LaurentRing(3, 1)
    weights = tuple(model.q_power_minus_one(a) for a in (1, 2))
    assert leta_koszul(ring, weights, model.mu) == (model.q_analog(1), model.q_analog(2))
    # the weight q^(1/3) - 1 equals the p-th-root divisor, so dividing by it
    # leaves a unit weight and the summand is recognizably acyclic
    w = (LaurentElement({1: 1, 0: -1}, 1),)
    assert leta_koszul(ring, w, model.phi_inv_mu) == (LaurentElement.one(1),)


def test_leta_koszul_agrees_with_lattice():
    rng = random.Random(25)
    for _ in range(30):
        d = rng.randint(1, 3)
        f = rng.choice((2, 3, 4))
        gs = tuple(f * rng.randint(1, 4) for _ in range(d))
        sym = leta_koszul(Z, gs, f)
        assert homology_snf(koszul(Z, sym)) == homology_snf(eta_subcomplex(koszul(Z, list(gs)), f))


def test_leta_two_term_divided_weight():
    model = AinfModel(5, 1)
    ring = LaurentRing(5, 1)
    g = LaurentElement({3: 1, 0: -1}, 1)  # q^(3/5) - 1
    res = leta_two_term(g, model.mu, ring)
    # gcd(u^3 - 1, u^5 - 1) = u - 1, so the leftover is 1 + u + u^2
    assert res == LaurentElement({0: 1, 1: 1, 2: 1}, 1)


def test_two_term_rule_matches_lattice_over_z():
    # the divided weight of a two-term piece is g / gcd(g, f); the honest
    # lattice subcomplex must agree, wherever the complex is placed
    from math import gcd

    rng = random.Random(29)
    for _ in range(40):
        g = rng.choice([v for v in range(-12, 13) if v])
        f = rng.choice((2, 3, 4, 6))
        shift = rng.randint(0, 2)
        K = ChainComplex(Z, shift, [1, 1], [[[g]]])
        H = homology_snf(eta_subcomplex(K, f))
        reduced = abs(g) // gcd(abs(g), f)
        if reduced <= 1:
            assert H.is_zero()
        else:
            assert H.torsion(shift + 1) == [reduced] and H.free_rank(shift) == 0


def multiplication_cone(K: ChainComplex, f: int) -> ChainComplex:
    """The cone of multiplication by f on K, a free model of K/f:
    degree i is K^(i+1) + K^i, and d(a, b) = (-d a, f a + d b)."""
    lo, hi = K.lo - 1, K.hi
    ranks = [K.rank(i + 1) + K.rank(i) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        a, b, a1 = K.rank(i + 1), K.rank(i), K.rank(i + 2)
        mat = [[0] * (a + b) for _ in range(a1 + a)]
        for r, row in enumerate(K.diff(i + 1)):
            mat[r][:a] = [-x for x in row]
        for r, row in enumerate(K.diff(i)):
            mat[a1 + r][r] = f
            mat[a1 + r][a:] = row
        diffs.append(mat)
    return ChainComplex(Z, lo, ranks, diffs)


def test_mod_f_homology_matches_cone():
    rng = random.Random(28)
    for _ in range(20):
        K = random_z_complex(rng, max_deg=3)
        f = rng.choice((2, 3, 4))
        direct = mod_f_homology(K, f)
        assert direct == homology_snf(multiplication_cone(K, f))


def test_bockstein_boundary_outside_cycles_is_an_internal_error():
    # B lies in Z by construction, so a boundary row outside the cycle
    # lattice is a broken invariant, never a vector to drop
    B = bockstein(koszul(Z, [1, 1]), 3)
    assert B.homology().is_zero()
    z1, b1 = B.lattices[1]
    assert intlinalg.in_lattice(z1, [[1, 0]], 2) is None
    bad = BocksteinComplex(B.f, B.ambient, {**B.lattices, 1: (z1, b1 + [[1, 0]])}, B.beta)
    with pytest.raises(AssertionError, match="boundary escaped the cycle lattice"):
        bad.homology()
