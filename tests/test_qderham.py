"""q-derivative calculus and the comparison with the graded pipeline."""

import random

import pytest

from aomega.ainf import AinfModel
from aomega.arith import LaurentElement, q_analog
from aomega import complexes
from aomega.complexes import homology_snf, koszul_basis
from aomega.qderham import (
    QLaurentFunction,
    compare_with_torus_pipeline,
    nabla_q,
    q_de_rham_complex,
    q_to_one,
)
from aomega.torus import TABLES_DISAGREE


def finite_difference_oracle(exponent: int, p: int, depth: int):
    """(f(q t) - f(t)) / (q t - t) on the monomial t^exponent, computed as
    the explicit quotient (q^e - 1)/(q - 1) against exact division."""
    from aomega.arith import laurent_exact_div

    if exponent == 0:
        return None
    step = p**depth
    num = LaurentElement({exponent * step: 1, 0: -1}, depth)
    den = LaurentElement({step: 1, 0: -1}, depth)
    return laurent_exact_div(num, den)


def test_nabla_monomials():
    f = QLaurentFunction.monomial(3, 1, (2,))
    g = nabla_q(f, 0)
    assert dict(g.terms) == {(1,): q_analog(2, 3, 1)}
    assert nabla_q(QLaurentFunction.monomial(3, 1, (0,)), 0).terms == ()
    # negative exponent against the finite-difference quotient
    h = nabla_q(QLaurentFunction.monomial(3, 1, (-1,)), 0)
    oracle = finite_difference_oracle(-1, 3, 1)
    assert dict(h.terms) == {(-2,): oracle}
    assert oracle == LaurentElement({-3: -1}, 1)  # frozen: -q^(-1)


def test_nabla_matches_finite_difference_oracle():
    for e in range(-5, 6):
        got = nabla_q(QLaurentFunction.monomial(5, 1, (e,)), 0)
        oracle = finite_difference_oracle(e, 5, 1)
        if e == 0:
            assert got.terms == ()
        else:
            assert dict(got.terms) == {(e - 1,): oracle}


def _random_function(rng, p, depth, dim):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(-2, 2) for _ in range(dim))
        coeff = LaurentElement({rng.randint(-2, 2): rng.randint(-3, 3)}, depth)
        if not coeff.is_zero():
            terms[mono] = coeff
    if not terms:
        terms[(1,) * dim] = LaurentElement.one(depth)
    return QLaurentFunction.build(p, depth, dim, terms)


def test_q_twisted_leibniz_rule():
    rng = random.Random(41)
    for _ in range(100):
        p = rng.choice((2, 3))
        f = _random_function(rng, p, 1, 1)
        g = _random_function(rng, p, 1, 1)
        lhs = nabla_q(f * g, 0)
        rhs = f.scale_by_q(0) * nabla_q(g, 0) + nabla_q(f, 0) * g
        assert lhs == rhs


def test_directions_commute():
    rng = random.Random(42)
    for _ in range(60):
        p = rng.choice((2, 3))
        dim = rng.choice((2, 3))
        f = _random_function(rng, p, 1, dim)
        i, j = rng.sample(range(dim), 2)
        assert nabla_q(nabla_q(f, i), j) == nabla_q(nabla_q(f, j), i)


def test_block_weights():
    model = AinfModel(3, 1)
    blocks = q_de_rham_complex(model, 1, 3)
    assert blocks[(3,)].diffs[0][0][0] == q_analog(3, 3, 1)
    assert blocks[(0,)].diffs[0][0][0].is_zero()
    b = q_de_rham_complex(model, 2, 2)[(1, 2)]
    assert b.diffs[0][0][0] == q_analog(1, 3, 1)
    assert b.diffs[0][1][0] == q_analog(2, 3, 1)


def test_blocks_match_per_entry_q_derivatives():
    # every entry recomputed on its own: a fresh monomial per (S, j), the
    # coefficient read at m - e_j, the wedge sign counted directly
    model = AinfModel(3, 1)
    dim = 3
    zero = LaurentElement.zero(1)
    blocks = q_de_rham_complex(model, dim, 2)
    assert len(blocks) == 5**dim
    for m, block in blocks.items():
        for k in range(dim):
            src = koszul_basis(dim, k)
            tgt = {S: i for i, S in enumerate(koszul_basis(dim, k + 1))}
            expected = [[zero for _ in src] for _ in tgt]
            for col, S in enumerate(src):
                for j in range(dim):
                    if j in S:
                        continue
                    image = nabla_q(QLaurentFunction.monomial(3, 1, m), j)
                    shifted = tuple(x - (i == j) for i, x in enumerate(m))
                    coeff = dict(image.terms).get(shifted, zero)
                    if sum(1 for s in S if s < j) % 2:
                        coeff = -coeff
                    expected[tgt[tuple(sorted(S + (j,)))]][col] = coeff
            assert block.diffs[k] == expected, (m, k)


def test_first_homology_is_the_q_analog_quotient():
    # the d=1 block at m has H^1 = A/([m]_q); at m = p the divisor is the
    # q-analog of p, the Hodge-Tate weight
    model = AinfModel(3, 1)
    assert model.q_analog(3) == model.xi_tilde
    blocks = q_de_rham_complex(model, 1, 3)
    K = blocks[(3,)]
    # the two-term block presents A/([3]_q) in degree 1
    assert K.ranks == [1, 1] and K.diffs[0][0][0] == model.xi_tilde


def test_q_to_one_recovers_classical():
    model = AinfModel(3, 1)
    blocks = q_de_rham_complex(model, 1, 3)
    for m, block in blocks.items():
        classical = q_to_one(block)
        assert classical.diffs == [[[m[0]]]]
    # at m = p the classical weight is p: nonzero over Z, zero mod p
    K = q_to_one(blocks[(3,)])
    H = homology_snf(K)
    assert H.torsion(1) == [3]
    b2 = q_de_rham_complex(model, 2, 2)[(1, 2)]
    assert q_to_one(b2).diffs[0] == [[1], [2]]


def test_compare_with_pipeline():
    for p, d, bound in ((2, 1, 3), (3, 1, 3), (2, 2, 2), (3, 2, 2)):
        rep = compare_with_torus_pipeline(AinfModel(p, 1), d, bound)
        assert rep["passed"], [k for k, v in rep["cells"].items() if not v["passed"]]


def test_compare_fails_when_an_entry_sits_in_the_wrong_row(monkeypatch, fresh_tables):
    # the Koszul placement with the entries of rows 0 and 1 of d_0 swapped,
    # and columns 0 and 1 of d_1 swapped to match: a relabelled basis, so it
    # still squares to zero, but it is not the Kunneth tensor product;
    # reported, not raised, although every grading's weights agree
    from test_mutations import relabelled

    real = complexes._koszul_placement
    monkeypatch.setattr(complexes, "_koszul_placement", lambda d: relabelled(real(d)))
    rep = compare_with_torus_pipeline(AinfModel(2, 1), 3, 1)
    assert not rep["passed"] and rep["note"] == TABLES_DISAGREE
    assert len(rep["cells"]) == 27 and all(v["passed"] for v in rep["cells"].values())


def test_compare_d0_trivial():
    rep = compare_with_torus_pipeline(AinfModel(2, 1), 0, 1)
    assert rep["passed"]


def test_function_arithmetic_guards():
    f = QLaurentFunction.monomial(3, 1, (1, 2))
    with pytest.raises(ValueError):
        QLaurentFunction.build(3, 1, 2, {(1,): LaurentElement.one(1)})
    assert f.dim == 2
