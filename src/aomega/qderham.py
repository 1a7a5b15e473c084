"""The q-de Rham complex of the torus, built from the q-derivative alone.

Functions on the truncated torus are finite sums of monomials t^m with
Laurent coefficients; the q-derivative in direction j acts on a monomial by

    nabla_q(t^m) = [m_j]_q t^(m - e_j) dt_j

so in the dlog normalization (dt_j / t_j) the differential is plain
multiplication by the q-analog [m_j]_q.  The full complex is assembled per
monomial degree by literally applying the operators to basis functions,
which keeps this construction independent of the graded Koszul pipeline it
is later compared against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .ainf import AinfModel
from .arith import LaurentElement, q_analog
from .complexes import ChainComplex, LaurentRing, ZRing, koszul_basis, koszul_matrices, koszul_sign, matrices_to_json
from .torus import GradingBox, TorusCohomologyResult, ainf_omega_torus, grading_key


@dataclass(frozen=True)
class QLaurentFunction:
    """Finite map from monomial exponent vectors to Laurent coefficients."""

    p: int
    depth: int
    dim: int
    terms: tuple  # ((m tuple, LaurentElement), ...) sorted, coefficients nonzero

    @classmethod
    def build(cls, p: int, depth: int, dim: int, terms) -> "QLaurentFunction":
        cleaned = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for m, c in items:
            m = tuple(int(x) for x in m)
            if len(m) != dim:
                raise ValueError("monomial length mismatch")
            if not c.is_zero():
                if m in cleaned:
                    c = cleaned[m] + c
                if c.is_zero():
                    cleaned.pop(m, None)
                else:
                    cleaned[m] = c
        return cls(p, depth, dim, tuple(sorted(cleaned.items())))

    @classmethod
    def monomial(cls, p: int, depth: int, m, coeff: LaurentElement | None = None) -> "QLaurentFunction":
        m = tuple(int(x) for x in m)
        coeff = coeff if coeff is not None else LaurentElement.one(depth)
        return cls.build(p, depth, len(m), {m: coeff})

    def __add__(self, other: "QLaurentFunction") -> "QLaurentFunction":
        t = dict(self.terms)
        for m, c in other.terms:
            t[m] = t[m] + c if m in t else c
        return QLaurentFunction.build(self.p, self.depth, self.dim, t)

    def __neg__(self) -> "QLaurentFunction":
        return QLaurentFunction.build(self.p, self.depth, self.dim, {m: -c for m, c in self.terms})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "QLaurentFunction") -> "QLaurentFunction":
        t: dict[tuple, LaurentElement] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                prod = c1 * c2
                t[m] = t[m] + prod if m in t else prod
        return QLaurentFunction.build(self.p, self.depth, self.dim, t)

    def scale_by_q(self, j: int) -> "QLaurentFunction":
        """t_j -> q t_j: multiply each coefficient by q^(m_j)."""
        step = self.p**self.depth
        out = {}
        for m, c in self.terms:
            out[m] = c.shift(m[j] * step)
        return QLaurentFunction.build(self.p, self.depth, self.dim, out)


def nabla_q(f: QLaurentFunction, direction: int) -> QLaurentFunction:
    """The q-derivative in one direction, in dt-normalized form.

    Monomial-wise t^m -> [m_j]_q t^(m - e_j); linear over the coefficient
    ring.  On the dlog basis t^m dlog(t_j) = t^(m - e_j) dt_j the same
    coefficient [m_j]_q multiplies t^m, which is how the complex
    constructor reads it.
    """
    out = {}
    for m, c in f.terms:
        factor = q_analog(m[direction], f.p, f.depth)
        if factor.is_zero():
            continue
        m2 = tuple(x - (1 if i == direction else 0) for i, x in enumerate(m))
        contrib = c * factor
        out[m2] = out[m2] + contrib if m2 in out else contrib
    return QLaurentFunction.build(f.p, f.depth, f.dim, out)


def q_de_rham_complex(model: AinfModel, dim: int, bound: int) -> dict[tuple, ChainComplex]:
    """The complex of the commuting q-derivatives, block per monomial degree.

    Degree-k term has one basis form t^m dlog(t_S) per size-k subset S; the
    matrices are assembled by applying the operators to these basis forms,
    wedge signs counted on the way.
    """
    ring = LaurentRing(model.p, model.depth)
    zero = ring.zero()
    ranks = [comb(dim, k) for k in range(dim + 1)]
    # per degree k: (row, column, direction, sign) of every wedge
    # dlog(t_j) ^ dlog(t_S), the same for every monomial
    wedges = [
        [(koszul_basis(dim, k + 1).index(tuple(sorted(S + (j,)))), col, j, koszul_sign(j, S))
         for col, S in enumerate(koszul_basis(dim, k)) for j in range(dim) if j not in S]
        for k in range(dim)
    ]
    blocks = {}
    for m in itertools.product(range(-bound, bound + 1), repeat=dim):
        base = QLaurentFunction.monomial(model.p, model.depth, m)
        # per direction the dlog coefficient and its negation: the single
        # term of nabla_q at m - e_j
        signed = []
        for j in range(dim):
            shifted = tuple(x - (1 if i == j else 0) for i, x in enumerate(m))
            coeff = zero
            for mono, c in nabla_q(base, j).terms:
                if mono != shifted:
                    raise AssertionError("q-derivative left the monomial m - e_j")
                coeff = c
            signed.append({1: coeff, -1: -coeff})
        diffs = []
        for k, cells in enumerate(wedges):
            mat = [[zero] * ranks[k] for _ in range(ranks[k + 1])]
            for row, col, j, sign in cells:
                mat[row][col] = signed[j][sign]
            diffs.append(mat)
        blocks[m] = ChainComplex(ring, 0, ranks, diffs)
    return blocks


def q_to_one(K: ChainComplex) -> ChainComplex:
    """Evaluate every differential entry at u = 1: [m]_q becomes m, and the
    block turns into the classical de Rham complex of the monomial."""
    if not isinstance(K.ring, LaurentRing):
        raise ValueError("evaluation applies to Laurent-coefficient complexes")
    return K.map_entries(ZRing(), lambda x: x.coefficient_sum())


def compare_with_torus_pipeline(model: AinfModel, dim: int, bound: int,
                                torus_result: TorusCohomologyResult | None = None) -> dict:
    """Matrix-by-matrix equality of the q-derivative blocks against the
    integral-grading summands of the graded pipeline.  The q-block is the
    checked side; the summand's matrices, compared unchecked, are reported
    on a mismatch, never raised."""
    if torus_result is None:
        box = GradingBox(dim, model.depth, bound)
        torus_result = ainf_omega_torus(model, box)
    blocks = q_de_rham_complex(model, dim, bound)
    report = {"stage": "q-de-rham-compare", "cells": {}, "passed": True}
    step = model.p**model.depth  # the pipeline keys a cell by its carrier exponents
    ring = LaurentRing(model.p, model.depth)
    for m, block in blocks.items():
        cell = torus_result.cells.get(tuple(x * step for x in m))
        key = grading_key(m, 1)
        if cell is None or cell.status != "koszul":
            report["cells"][key] = {"passed": False, "note": "missing pipeline cell"}
            report["passed"] = False
            continue
        matrices = koszul_matrices(ring, cell.weights)
        ok = matrices == block.diffs
        report["cells"][key] = {"passed": ok}
        if not ok:
            report["passed"] = False
            report["cells"][key]["q_block"] = block.to_json()
            report["cells"][key]["pipeline_block"] = matrices_to_json(ring, matrices)
    return report
