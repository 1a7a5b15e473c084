"""Mutation rows for the once-per-dimension certificate of the Koszul shape.

The de Rham and q-de Rham stages compare weights, not matrices, per grading:
the shape of every complex they compare is the pipeline's Koszul placement,
and `complexes.check_koszul_placement` proves once per dimension that it squares to
zero and equals the Kunneth tensor product of one-weight complexes, which
`complexes.tensor_product` builds without reading the placement.  Each row
below breaks the placement, the tensor product's sign rule or one weight,
and both stages must refuse it: a placement that no longer squares to zero
raises AssertionError (exit 3 from the CLI), a placement that differs from
the tensor product or a wrong weight fails the stage's check (exit 1).
`complexes.koszul` builds its blocks with no d o d check exactly while the
certificate holds: one row makes the check raise on every call, another
realizes the placement without its negations, so that the certificate
fails and the checked constructor refuses the blocks.

Further rows plant one wrong quotient in the memo of exact divisions that
the fractional outcomes share (`torus._carrier`), and the oracle that
compares every outcome with the unmemoized route must name it.

Two rows make the d o d check of `ChainComplex` skip entries: the
dense-oracle test of `test_complexes` must see it, and `leta apply` must
stop refusing a non-complex whose one nonzero entry of d o d was skipped.

The last rows mutate the lattice routines of `aomega.intlinalg`,
`homology_snf` and the keys of the table of `decalage.LetaInstance` in
their source text, one replaced expression each, and recompile the
function in its module's namespace.  In the same way they break the rank
track of the etale and semicont stages: a sign in the proof of the
contraction identity, the constant terms the special-fibre rule reads, and
the elimination that re-checks the rule; each is an internal error (exit 3).
"""

import dataclasses
import hashlib
import inspect
import io
import json
import os
import random
import textwrap
from contextlib import redirect_stdout

import pytest
import test_complexes
import test_decalage
import test_golden
import test_intlinalg

from aomega import cli, complexes, decalage, qderham, suites, torus
from aomega import intlinalg as la
from aomega.ainf import AinfModel, OCModelElement
from aomega.arith import LaurentElement
from aomega.cli import EXIT_INTERNAL, main
from aomega.qderham import compare_with_torus_pipeline, q_weights
from aomega.torus import GradingBox, ainf_omega_torus, specialize_de_rham

MODEL = AinfModel(2, 1)
DIM, BOUND = 3, 1


def moved_entry(table):
    """The first cell of d_1 moved to the next row of its matrix."""
    cells = list(table[1])
    row, col, j, sign = cells[0]
    cells[0] = ((row + 1) % 3, col, j, sign)
    return (table[0], tuple(cells), *table[2:])


def flipped_sign(table):
    """The first cell of d_0 with its sign flipped."""
    row, col, j, sign = table[0][0]
    return (((row, col, j, -sign), *table[0][1:]), *table[1:])


def relabelled(table):
    """Basis vectors 0 and 1 of degree 1 swapped: rows of d_0, columns of
    d_1.  Still a complex, but another table."""
    swap = {0: 1, 1: 0}
    return (
        tuple((swap.get(row, row), col, j, sign) for row, col, j, sign in table[0]),
        tuple((row, swap.get(col, col), j, sign) for row, col, j, sign in table[1]),
        *table[2:],
    )


def run_dr():
    return specialize_de_rham(ainf_omega_torus(MODEL, GradingBox(DIM, 1, BOUND)))


def run_qdr():
    return compare_with_torus_pipeline(MODEL, DIM, BOUND)


def mutate_placement(monkeypatch, change):
    real = complexes._koszul_placement
    monkeypatch.setattr(complexes, "_koszul_placement", lambda d: change(real(d)))


@pytest.mark.parametrize("change", [moved_entry, flipped_sign], ids=["placement-moved-entry", "placement-flipped-sign"])
def test_a_table_that_no_longer_squares_to_zero_is_an_internal_error(monkeypatch, fresh_tables, change):
    mutate_placement(monkeypatch, change)
    for stage in (run_dr, run_qdr):
        complexes.check_koszul_placement.cache_clear()
        with pytest.raises(AssertionError, match="d o d != 0 in the Koszul placement table"):
            stage()


def right_factor_sign_rule(monkeypatch):
    """`tensor_product` with d(x@y) = (-1)^|y| dx@y + x@dy: still a complex,
    but adding a weight below one already present flips its sign."""
    monkeypatch.setattr(complexes, "tensor_product", mutant(
        complexes, "tensor_product",
        ("v = dX[a2][a]", "v = dX[a2][a] if j % 2 == 0 else R.neg(dX[a2][a])"),
        ("v = v if i % 2 == 0 else R.neg(v)", "pass")))


@pytest.mark.parametrize("disagree", [lambda mp: mutate_placement(mp, relabelled), right_factor_sign_rule],
                         ids=["placement", "kunneth-sign-rule"])
def test_tables_that_disagree_fail_both_stages(monkeypatch, fresh_tables, disagree):
    disagree(monkeypatch)
    for stage in (run_dr, run_qdr):
        complexes.check_koszul_placement.cache_clear()
        rep = stage()
        assert not rep["passed"] and rep["note"] == torus.TABLES_DISAGREE


def test_the_right_factor_sign_rule_fails_torus_all_and_the_kunneth_check(monkeypatch, fresh_tables):
    right_factor_sign_rule(monkeypatch)
    code = main(["torus", "all", "--p", "2", "--dim", str(DIM), "--bound", str(BOUND), "--out", os.devnull])
    assert code == 1
    assert run_cli(["suite", "run", "--suite", "s4-torus-decomp"]) == (1, ["kunneth-splitting"])


def test_a_disagreement_exits_1_and_a_broken_square_exits_3(monkeypatch, capsys, fresh_tables):
    argv = ["torus", "all", "--p", "2", "--dim", str(DIM), "--bound", str(BOUND), "--out", "-"]
    real = complexes._koszul_placement
    monkeypatch.setattr(complexes, "_koszul_placement", lambda d: relabelled(real(d)))
    assert main(argv) == 1
    complexes.check_koszul_placement.cache_clear()
    monkeypatch.setattr(complexes, "_koszul_placement", lambda d: flipped_sign(real(d)))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INTERNAL
    assert "d o d != 0 in the Koszul placement table" in capsys.readouterr().err


def refuse_dd_check(self):
    raise AssertionError("d o d checked")


def test_koszul_skips_the_dd_check_exactly_while_the_certificate_holds(monkeypatch, fresh_tables):
    rng = random.Random(77)
    blocks = [(ring, [test_complexes.RANDOM_ENTRY[ring.tag](rng) for _ in range(d)])
              for ring in test_complexes.RINGS for d in range(5)]
    assert all(complexes.check_koszul_placement(d) for d in range(5))
    with monkeypatch.context() as mp:
        mp.setattr(complexes.ChainComplex, "_check_dd", refuse_dd_check)
        for ring, weights in blocks:
            assert complexes.koszul(ring, weights).diffs == complexes.koszul_matrices(ring, weights)
    # the certificate decided afresh, with the checked constructor, on a
    # tensor product that no longer equals the placement from two weights on
    right_factor_sign_rule(monkeypatch)
    complexes.check_koszul_placement.cache_clear()
    assert [complexes.check_koszul_placement(d) for d in range(5)] == [True, True, False, False, False]
    monkeypatch.setattr(complexes.ChainComplex, "_check_dd", refuse_dd_check)
    for ring, weights in blocks:
        if len(weights) >= 2:
            with pytest.raises(AssertionError, match="d o d checked"):
                complexes.koszul(ring, weights)


def test_a_koszul_realization_without_the_negation_is_refused(monkeypatch, capsys, fresh_tables):
    # g_j placed where the placement's sign is -1: the certificate fails,
    # and the checked constructor refuses every block of two weights or more
    unsigned = mutant(complexes, "koszul_matrices", ("-1: [ring.neg(g) for g in weights]", "-1: weights"))
    for module in (complexes, qderham, torus):
        monkeypatch.setattr(module, "koszul_matrices", unsigned)
    with pytest.raises(SystemExit) as exc:
        main(["qderham", "table", "--p", "3", "--dim", "2", "--bound", "2", "--out", os.devnull])
    assert exc.value.code == EXIT_INTERNAL and "d o d != 0 at degree" in capsys.readouterr().err
    assert not complexes.check_koszul_placement(2)
    assert main(torus_argv(["all"], 2, 1, 2, 2)) == 1
    res = ainf_omega_torus(MODEL, GradingBox(2, 1, 2))
    for rep in (specialize_de_rham(res), compare_with_torus_pipeline(MODEL, 2, 2, res)):
        assert not rep["passed"] and rep["note"] == torus.TABLES_DISAGREE
    with pytest.raises(SystemExit) as exc:
        main(["suite", "run", "--suite", "s4-torus-decomp"])
    assert exc.value.code == EXIT_INTERNAL and "d o d != 0 at degree" in capsys.readouterr().err


def swapped_weight(res, grading):
    """The result with the weights of one integral cell swapped: [a_0]_q
    and [a_1]_q trade places."""
    cell = res.cells[grading]
    w = cell.weights
    res.cells[grading] = dataclasses.replace(cell, weights=(w[1], w[0], *w[2:]))
    return res


def test_de_rham_fails_on_one_swapped_weight():
    res = swapped_weight(ainf_omega_torus(MODEL, GradingBox(DIM, 1, BOUND)), (2, -2, 0))
    rep = specialize_de_rham(res)
    failed = [key for key, v in rep["cells"].items() if not v["passed"]]
    assert not rep["passed"] and failed == ["1,-1,0"]


def test_q_de_rham_fails_on_one_swapped_weight():
    res = swapped_weight(ainf_omega_torus(MODEL, GradingBox(DIM, 1, BOUND)), (2, -2, 0))
    rep = compare_with_torus_pipeline(MODEL, DIM, BOUND, res)
    failed = [key for key, v in rep["cells"].items() if not v["passed"]]
    assert not rep["passed"] and failed == ["1,-1,0"]
    cell = rep["cells"]["1,-1,0"]
    # both blocks realized on their weights: d_0 is the column of weights
    assert cell["pipeline_block"] != cell["q_block"]["diffs"]
    assert cell["q_block"]["diffs"][0] == [w.to_json() for w in q_weights(MODEL, (1, -1, 0))]


# at (3, 1): u - 1 divides q - 1 = u^3 - 1, and q - 1 does not divide u - 1
U_MINUS_ONE = LaurentElement({1: 1, 0: -1}, 1)


@pytest.mark.parametrize("pair,wrong", [
    ((torus._carrier(3, 1)[0].mu, U_MINUS_ONE), None),
    ((U_MINUS_ONE, torus._carrier(3, 1)[0].mu), LaurentElement.one(1)),
], ids=["refused-division", "invented-quotient"])
def test_a_memo_with_one_wrong_division_fails_the_oracle(memo_disagreements, pair, wrong):
    quotients = torus._carrier(3, 1)[1].quotients
    torus._fractional_outcome.cache_clear()
    quotients[pair] = wrong
    try:
        _, bad = memo_disagreements([(3, 1, 1, 2)])
    finally:
        del quotients[pair]
        torus._fractional_outcome.cache_clear()
    assert (3, 1, (1,)) in bad
    assert memo_disagreements([(3, 1, 1, 2)])[1] == []


def mutant(owner, name, *edits):
    """`owner.name`, a function of a module or a method of a class,
    recompiled from its source with, for each (old, new) pair of `edits`,
    the one occurrence of old replaced by new, its globals a copy of its
    module's."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    for old, new in edits:
        assert source.count(old) == 1, (name, old)
        source = source.replace(old, new)
    module = inspect.getmodule(owner)
    namespace = dict(vars(module))
    code = compile("from __future__ import annotations\n" + source, module.__file__, "exec")
    exec(code, namespace)
    return namespace[name]


def run_cli(argv):
    """Exit code and failed check names of one command run in process."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, [c["name"] for c in json.loads(out.getvalue())["checks"] if not c["passed"]]


S5_LETA = ["leta", "verify", "--suite", "s5-leta", "--instances", "50"]


def test_back_substitution_off_by_one_is_refused(monkeypatch, capsys):
    # the first coordinate of every solved vector one too large: the
    # induced differentials of eta_f(K) stop squaring to zero, and the
    # construction-time d o d check refuses them before any check compares
    monkeypatch.setattr(la, "in_lattice", mutant(la, "in_lattice", ("coords.append(q)",
                                                                         "coords.append(q if coords else q + 1)")))
    with pytest.raises(SystemExit) as exc:
        main(S5_LETA)
    assert exc.value.code == EXIT_INTERNAL
    assert "d o d != 0" in capsys.readouterr().err


def test_torsion_read_from_the_outgoing_differential_fails(monkeypatch):
    wrong = mutant(complexes, "homology_snf",
                   ("[d for d in incoming if d > 1]", "[d for d in divisors[k] if d > 1]"))
    for module in (complexes, decalage, suites):
        monkeypatch.setattr(module, "homology_snf", wrong)
    assert run_cli(S5_LETA) == (1, ["square-torsion-model"])
    assert run_cli(["suite", "run", "--suite", "s4-torus-decomp"]) == (1, ["diagonal-vs-oracle",
                                                                          "koszul-to-diagonal-vs-oracle"])


LATTICE_KEY = "key = (tuple(map(tuple, A)), m, n, f)"
HOMOLOGY_KEY = "key = (K.lo, tuple(K.ranks), tuple(tuple(map(tuple, d)) for d in K.diffs))"


@pytest.mark.parametrize("key", ["key = (tuple(map(tuple, A)), m, n)", "key = (tuple(map(tuple, A)), f)"],
                         ids=["without-f", "without-shape"])
def test_a_lattice_key_missing_a_component_is_refused(monkeypatch, capsys, key):
    # the instance's table hands one lattice out for another: without f,
    # eta_3(K) is built on the lattices of K at f = 2; without the shape,
    # the zero-row matrices of two degrees of different rank share one
    monkeypatch.setattr(decalage.ContentTable, "lattice", mutant(decalage.ContentTable, "lattice", (LATTICE_KEY, key)))
    with pytest.raises(SystemExit) as exc:
        main(S5_LETA)
    assert exc.value.code == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("internal error:")


@pytest.mark.parametrize("key", [
    "key = (tuple(K.ranks), tuple(tuple(map(tuple, d)) for d in K.diffs))",
    "key = (K.lo, tuple(tuple(map(tuple, d)) for d in K.diffs))",
], ids=["without-lo", "without-ranks"])
def test_a_homology_key_missing_a_component_fails_the_table_test(monkeypatch, key):
    # every complex of one instance has the lowest degree and the ranks of
    # K, so the s5-leta suite cannot tell these keys from the full one; the
    # table's own test asks it for complexes that differ only there
    monkeypatch.setattr(decalage.ContentTable, "homology",
                        mutant(decalage.ContentTable, "homology", (HOMOLOGY_KEY, key)))
    with pytest.raises(AssertionError):
        test_decalage.test_table_tells_complexes_apart_by_lo_and_ranks()


def test_unnormalised_transform_signs_fail_the_transform_tests(monkeypatch):
    # the pivot column of H negated without its column of U: A U = H breaks
    # at that column, and solve_int reads a wrong sign from it.  The kernel
    # columns lie past the rank, where no sign is normalised, so
    # preimage_lattice, and its test, do not see this mutation.
    monkeypatch.setattr(la, "column_echelon", mutant(la, "column_echelon", ("U[col] = [-x for x in U[col]]", "pass")))
    for test in (test_intlinalg.test_column_echelon_transform_is_unimodular,
                 test_intlinalg.test_solve_int_round_trip_and_unsolvable):
        with pytest.raises(AssertionError):
            test()


def leta_apply_digest(tmp_path, complex_json, f):
    """sha256 of the `leta apply` report, run in process, or the exit code
    of a run that prints none."""
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(complex_json))
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            main(["leta", "apply", "--f", str(f), "--in", str(path)])
    except SystemExit as exc:
        return exc.code
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_a_hermite_update_one_row_late_fails_the_reference_lists_and_a_pinned_digest(monkeypatch, tmp_path):
    pinned = test_golden.LETA_APPLY
    assert [leta_apply_digest(tmp_path, c, f) for c, f, _ in pinned] == [d for _, _, d in pinned]
    monkeypatch.setattr(la, "column_echelon", mutant(la, "column_echelon", ("for i in range(row, m):",
                                                                             "for i in range(row + 1, m):")))
    assert any(leta_apply_digest(tmp_path, c, f) != d for c, f, d in pinned)
    with pytest.raises(AssertionError):
        test_intlinalg.test_kernels_return_the_reference_lists_on_every_shape()


def test_a_closed_form_smith_divisor_that_skips_an_entry_fails_the_elimination_oracle(monkeypatch):
    monkeypatch.setattr(la, "snf_divisors", mutant(la, "snf_divisors", ("gcd(*A[0])", "gcd(*A[0][1:])")))
    with pytest.raises(AssertionError):
        test_intlinalg.test_snf_divisors_against_elimination_oracle()


SMALL_BOX = ["--p", "3", "--depth", "2", "--dim", "2", "--bound", "2", "--out", "-"]


def exits_internal(capsys, stage, message):
    with pytest.raises(SystemExit) as exc:
        main(["torus", "run", "--stage", stage, *SMALL_BOX])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_INTERNAL and err.startswith("internal error:") and message in err


@pytest.mark.parametrize("stage", ["etale", "semicont"])
def test_a_flipped_sign_in_the_contraction_proof_is_an_internal_error(monkeypatch, capsys, fresh_tables, stage):
    monkeypatch.setattr(complexes, "_check_contraction", mutant(
        complexes, "_check_contraction",
        ("terms[k + 1, row, row2, i] += sign * sign2", "terms[k + 1, row, row2, i] -= sign * sign2")))
    exits_internal(capsys, stage, "d iota_0 + iota_0 d != x_0 id")


def test_weights_given_nonzero_constant_terms_are_an_internal_error(monkeypatch, capsys):
    # the special-fibre rule reads every weight as a unit at u = 0, so it
    # gives the zero-weight tuple no ranks; elimination at u = 0 finds them
    wrong = mutant(torus, "torus_semicontinuity", ("not x or x[0] == 0", "False"))
    monkeypatch.setattr(cli, "torus_semicontinuity", wrong)
    exits_internal(capsys, "semicont", "differ by elimination")


@pytest.mark.parametrize("stage", ["etale", "semicont"])
def test_elimination_off_by_one_in_one_degree_is_an_internal_error(monkeypatch, capsys, stage):
    # the one homology-rank formula that the elimination of both stages reads
    monkeypatch.setattr(torus, "_homology_ranks", mutant(
        torus, "_homology_ranks", ("n - r[i] - r[i + 1]", "n - r[i] - r[i + 1] + (i == 1)")))
    exits_internal(capsys, stage, "differ by elimination")


def torus_argv(command, p, depth, dim, bound):
    return ["torus", *command, "--p", str(p), "--depth", str(depth), "--dim", str(dim), "--bound", str(bound),
            "--out", os.devnull]


@pytest.mark.parametrize("box", [(3, 1, 1, 2), (13, 2, 1, 1)], ids=["division-route", "order-route"])
def test_a_residual_left_undivided_is_an_internal_error(monkeypatch, capsys, cold_fractional_caches, box):
    # the two-term decalage returns u^g - 1 itself: the divisor no longer
    # times u^d - 1 gives u^g - 1, on either route of the unit verdict
    monkeypatch.setattr(torus, "leta_two_term", mutant(decalage, "leta_two_term", ("return q", "return g")))
    with pytest.raises(SystemExit) as exc:
        main(torus_argv(["all"], *box))
    assert exc.value.code == EXIT_INTERNAL and "is not a quotient" in capsys.readouterr().err


def fails_ht_and_dr(box):
    return [main(torus_argv(["run", "--stage", stage], *box)) for stage in ("ht", "dr")] == [1, 1]


def test_residue_units_denied_by_euclid_fail_ht_and_dr(monkeypatch, cold_fractional_caches):
    # at (3,2) both residue rings are on the division route
    monkeypatch.setattr(OCModelElement, "is_unit", lambda self: False)
    assert fails_ht_and_dr((3, 2, 1, 2))


def test_a_strict_order_comparison_fails_ht_and_dr(monkeypatch, cold_fractional_caches):
    # at (13,2) both residue rings are on the order route: a unit image is
    # now refused wherever zeta^g - 1 and zeta^d - 1 have the same order
    monkeypatch.setattr(torus, "_root_power_divides", mutant(
        torus, "_root_power_divides", ("order_div >= order_num", "order_div > order_num")))
    assert fails_ht_and_dr((13, 2, 1, 1))


# d_1 d_0 of this input is nonzero at row 1, column 1 only: past column 0,
# in the last row
OFF_CORNER = {"ring": "Z", "lo": 0, "ranks": [2, 1, 2], "diffs": [["0", "1"], ["0", "1"]]}


def leta_apply_exit(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(OFF_CORNER))
    try:
        return main(["leta", "apply", "--f", "2", "--in", str(path), "--out", os.devnull])
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("edit", [
    ("for j in range(self.ranks[k]):", "for j in range(min(1, self.ranks[k])):"),
    ("for row in self.diffs[k + 1]:", "for row in self.diffs[k + 1][:-1]:"),
], ids=["column-0-only", "last-row-skipped"])
def test_a_dd_check_that_skips_entries_fails_the_dense_oracle(monkeypatch, capsys, tmp_path, edit):
    assert leta_apply_exit(tmp_path) == 2 and "d o d != 0" in capsys.readouterr().err
    monkeypatch.setattr(complexes.ChainComplex, "_check_dd", mutant(complexes.ChainComplex, "_check_dd", edit))
    with pytest.raises(AssertionError):
        test_complexes.test_dd_check_matches_dense_oracle_on_random_complexes()
    # the non-complex is let in, and decalage breaks on it further on
    assert leta_apply_exit(tmp_path) == EXIT_INTERNAL
