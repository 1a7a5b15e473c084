"""Acceptance gate: one test per criterion, with stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every comparison is exact (integer or symbol equality); the
runtime bounds are asserted with monotonic clocks.
"""

import random
import time
from fractions import Fraction
from math import comb

from aomega.ainf import AinfModel, check_notation_identities
from aomega.arith import LaurentElement, laurent_exact_div
from aomega.complexes import ChainComplex, FpPolyRing, ZRing, homology_snf
from aomega.decalage import (
    LetaInstance,
    check_composition,
    check_homology_formula,
    check_leta_mod_f_is_bockstein,
    eta_subcomplex,
)
from aomega.qderham import compare_with_torus_pipeline, nabla_q, q_de_rham_complex, q_to_one
from aomega.suites import random_fp_complex, random_z_complex
from aomega.torus import (
    GradingBox,
    ainf_omega_torus,
    semicontinuity_demo,
    specialize_de_rham,
    specialize_hodge_tate,
    tilde_omega_torus,
    torus_semicontinuity,
)
from aomega.witt import (
    GF,
    SemilinearModule,
    TruncatedWittElement,
    digits_to_witt,
    exhaustive_fixed_points,
    frobenius_fixed_points,
    teichmuller_digits,
    teichmuller_lift,
)

Z = ZRing()


def report(number: int, passed: bool, text: str):
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, f"criterion {number} failed: {text}"


def test_criterion_1_decalage_kills_one_torsion_layer():
    start = time.monotonic()
    ok = True
    for p in (2, 3, 5):
        model_p = ChainComplex(Z, 0, [1, 1], [[[p]]])
        model_p2 = ChainComplex(Z, 0, [1, 1], [[[p * p]]])
        h1 = homology_snf(eta_subcomplex(model_p, p))
        h2 = homology_snf(eta_subcomplex(model_p2, p))
        ok = ok and h1.is_zero()
        ok = ok and h2.free_rank(0) == 0 and h2.free_rank(1) == 0 and h2.torsion(1) == [p]
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 1.0,
           f"rank-one torsion models collapse by exactly one layer ({elapsed:.3f}s < 1s)")


def test_criterion_2_decalage_property_suite():
    start = time.monotonic()
    rng = random.Random(20240)
    failures = 0
    for _ in range(200):
        inst = LetaInstance(random_z_complex(rng, max_deg=4))
        for f in (2, 3, 4):
            if not check_homology_formula(inst, f):
                failures += 1
            if not check_leta_mod_f_is_bockstein(inst, f):
                failures += 1
        for f, g in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)):
            if not check_composition(inst, f, g):
                failures += 1
    elapsed = time.monotonic() - start
    report(2, failures == 0 and elapsed < 30.0,
           f"200 random complexes: torsion-quotient, Bockstein lift, composition "
           f"({failures} failures, {elapsed:.1f}s < 30s)")


def test_criterion_3_distinguished_element_identities():
    start = time.monotonic()
    bad = []
    for p in (2, 3, 5, 7, 11, 13):
        for n in (1, 2, 3):
            results = check_notation_identities(AinfModel(p, n), samples=50, seed=7)
            bad.extend((p, n, r.name) for r in results if not r.passed)
    elapsed = time.monotonic() - start
    report(3, not bad and elapsed < 10.0,
           f"identity suite over 18 (p, depth) configurations, 50 pairs each "
           f"({elapsed:.1f}s < 10s){'; failed: ' + str(bad[:3]) if bad else ''}")


def test_criterion_4_residue_pipeline_exterior_ranks():
    start = time.monotonic()
    bad = []
    for p in (2, 3, 5):
        for n in (1, 2):
            for d in (1, 2, 3):
                for bound in (1, 4):
                    res = tilde_omega_torus(AinfModel(p, n), GradingBox(d, n, bound))
                    for cell in res.all_cells():
                        integral = all(s % p**n == 0 for s in cell.grading)
                        want = {i: comb(d, i) for i in range(d + 1)} if integral else {}
                        if cell.free_ranks != want:
                            bad.append((p, n, d, bound, cell.grading))
    elapsed = time.monotonic() - start
    report(4, not bad and elapsed < 20.0,
           f"binomial ranks per integral grading, zero elsewhere, d<=3, p in 2/3/5, "
           f"n<=2, B<=4 ({elapsed:.1f}s < 20s)")


def test_criterion_5_de_rham_specialization():
    start = time.monotonic()
    ok = True
    for p in (2, 3, 5):
        for n in (1, 2):
            for d in (1, 2, 3):
                res = ainf_omega_torus(AinfModel(p, n), GradingBox(d, n, 4))
                rep = specialize_de_rham(res)
                ok = ok and rep["passed"]
    # the step differential on the one-dimensional graded piece is
    # multiplication by the exponent, for every |a| <= 4
    model = AinfModel(3, 1)
    oc = model.oc_model()
    for a in range(-4, 5):
        divided = laurent_exact_div(model.xi * model.q_analog(a), model.xi)
        ok = ok and model.theta(divided) == oc.constant(a)
    elapsed = time.monotonic() - start
    report(5, ok,
           f"divided-differential matrices equal the classical ones entry-for-entry; "
           f"the d=1 step map is multiplication by the exponent ({elapsed:.1f}s)")


def test_criterion_6_hodge_tate_specialization():
    start = time.monotonic()
    ok = True
    for p in (2, 3, 5):
        for n in (1, 2):
            for d in (1, 2, 3):
                res = ainf_omega_torus(AinfModel(p, n), GradingBox(d, n, 4))
                rep = specialize_hodge_tate(res)
                ok = ok and rep["passed"]
    elapsed = time.monotonic() - start
    report(6, ok, f"cell-by-cell match with the twisted residue pipeline ({elapsed:.1f}s)")


def test_criterion_7_q_de_rham():
    start = time.monotonic()
    ok = True
    for p in (2, 3):
        for d in (1, 2):
            rep = compare_with_torus_pipeline(AinfModel(p, 1), d, 3 if d == 1 else 2)
            ok = ok and rep["passed"]
    # classical limit
    model = AinfModel(3, 1)
    for m, block in q_de_rham_complex(model, 1, 3).items():
        ok = ok and q_to_one(block).diffs == [[[m[0]]]]
    # product rule on 100 random pairs
    rng = random.Random(77)
    from aomega.qderham import QLaurentFunction

    def rand_fn(p):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(-3, 3),)] = LaurentElement(
                {rng.randint(-2, 2): rng.randint(-3, 3)}, 1
            )
        terms = {m: c for m, c in terms.items() if not c.is_zero()} or {(1,): LaurentElement.one(1)}
        return QLaurentFunction.build(p, 1, 1, terms)

    for _ in range(100):
        p = rng.choice((2, 3))
        f, g = rand_fn(p), rand_fn(p)
        if nabla_q(f * g, 0) != f.scale_by_q(0) * nabla_q(g, 0) + nabla_q(f, 0) * g:
            ok = False
    elapsed = time.monotonic() - start
    report(7, ok,
           f"q-derivative blocks are matrix-identical to the pipeline, the q -> 1 limit "
           f"is classical, and the twisted product rule holds on 100 pairs ({elapsed:.1f}s)")


def test_criterion_8_semicontinuity():
    start = time.monotonic()
    ok = True
    rng = random.Random(808)
    for _ in range(100):
        K = random_fp_complex(rng, rng.choice((2, 3)))
        _, _, verdict = semicontinuity_demo(K)
        ok = ok and verdict["holds"]
    for p, d in ((2, 1), (2, 2), (3, 2)):
        rep = torus_semicontinuity(ainf_omega_torus(AinfModel(p, 1), GradingBox(d, 1, 2)))
        ok = ok and rep["inequality_holds"] and rep["equality_with_binomials"]
    ring = FpPolyRing(3)
    K = ChainComplex(ring, 0, [1, 1], [[[(0, 1)]]])
    generic, special, verdict = semicontinuity_demo(K)
    ok = ok and generic == {} and special == {0: 1, 1: 1} and verdict["strict_somewhere"]
    elapsed = time.monotonic() - start
    report(8, ok,
           f"generic rank <= special dimension on 100 random fibres, equality with the "
           f"binomial pattern on the torus, strict on the torsion model ({elapsed:.1f}s)")


def test_criterion_9_witt_layer():
    start = time.monotonic()
    ok = True
    rng = random.Random(909)
    for p in (2, 3):
        for value in range(p**3):
            w = TruncatedWittElement.constant(p, 3, value)
            ok = ok and digits_to_witt(teichmuller_digits(w), p, 3) == w
    for _ in range(100):
        p = rng.choice((2, 3))
        m = rng.randint(1, 4)
        terms = {
            Fraction(rng.randint(0, 5), p ** rng.randint(0, 2)): rng.randint(1, p**m - 1)
            for _ in range(rng.randint(1, 3))
        }
        w = TruncatedWittElement(p, m, terms)
        ok = ok and digits_to_witt(teichmuller_digits(w), p, m) == w
        a = TruncatedWittElement(p, 1, terms)
        ok = ok and teichmuller_lift(a, m).frobenius() == teichmuller_lift(a.frobenius(), m)
    for p, m in ((2, 2), (2, 3), (3, 2)):  # F_4, F_8, F_9
        F = GF(p, m)
        trials = 0
        while trials < 5:
            r = rng.randint(1, 2)
            mat = [[tuple(rng.randrange(p) for _ in range(m)) for _ in range(r)] for _ in range(r)]
            try:
                module = SemilinearModule(F, mat)
            except ValueError:
                continue
            trials += 1
            dim, basis, check = frobenius_fixed_points(module)
            oracle = exhaustive_fixed_points(module)
            ok = ok and len(oracle) == p**dim
            ok = ok and all(module.apply(v) == v for v in basis)
    elapsed = time.monotonic() - start
    report(9, ok and elapsed < 10.0,
           f"digit round trips (all length-3 constants and 100 random), Frobenius versus "
           f"lift, fixed points against exhaustive search over F4/F8/F9 ({elapsed:.1f}s < 10s)")
