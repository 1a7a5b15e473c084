"""The q-de Rham complex of the torus, its weights read off the q-derivative.

Functions on the truncated torus are finite sums of monomials t^m with
Laurent coefficients; the q-derivative in direction j acts on a monomial by

    nabla_q(t^m) = [m_j]_q t^(m - e_j) dt_j

so in the dlog normalization (dt_j / t_j) the differential is plain
multiplication by the q-analog [m_j]_q.  The weights of the block at m come
from applying `nabla_q` to t^m alone, never from the graded pipeline they
are later compared with.  The shape is the one Koszul placement: the
commuting q-derivatives make the block the tensor product of the
one-direction complexes, which the placement is certified to equal once per
dimension (`complexes.check_koszul_placement`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ainf import AinfModel
from .arith import LaurentElement, q_analog
from .complexes import (
    ChainComplex,
    LaurentRing,
    ZRing,
    check_koszul_placement,
    koszul,
    koszul_matrices,
    matrices_to_json,
)
from .torus import (
    TABLES_DISAGREE,
    GradingBox,
    TorusCohomologyResult,
    ainf_omega_torus,
    grading_key,
)


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
    terms = []
    for m, c in f.terms:
        factor = q_analog(m[direction], f.p, f.depth)
        if not factor.is_zero():
            # m -> m - e_j is injective and keeps the order of the terms, and
            # a product of nonzero Laurent polynomials is nonzero
            terms.append((m[:direction] + (m[direction] - 1,) + m[direction + 1:], c * factor))
    return QLaurentFunction(f.p, f.depth, f.dim, tuple(terms))


def q_weights(model: AinfModel, m: tuple) -> tuple:
    """Per direction j, the dlog coefficient of the q-derivative at the
    monomial t^m: the single term of nabla_q(t^m) at m - e_j, or zero."""
    base = QLaurentFunction.monomial(model.p, model.depth, m)
    zero = LaurentElement.zero(model.depth)
    weights = []
    for j in range(len(m)):
        shifted = m[:j] + (m[j] - 1,) + m[j + 1:]
        coeff = zero
        for mono, c in nabla_q(base, j).terms:
            if mono != shifted:
                raise AssertionError("q-derivative left the monomial m - e_j")
            coeff = c
        weights.append(coeff)
    return tuple(weights)


def q_de_rham_complex(model: AinfModel, dim: int, bound: int) -> dict[tuple, ChainComplex]:
    """The complex of the commuting q-derivatives, block per monomial degree.

    Degree-k term has one basis form t^m dlog(t_S) per size-k subset S; the
    block at m is the Koszul complex on the coefficients `q_weights` reads
    off the operators applied to t^m.
    """
    ring = LaurentRing(model.p, model.depth)
    monomials = itertools.product(range(-bound, bound + 1), repeat=dim)
    return {m: koszul(ring, q_weights(model, m)) for m in monomials}


def q_to_one(K: ChainComplex) -> ChainComplex:
    """Evaluate every differential entry at u = 1: [m]_q becomes m, and the
    block turns into the classical de Rham complex of the monomial."""
    if not isinstance(K.ring, LaurentRing):
        raise ValueError("evaluation applies to Laurent-coefficient complexes")
    return K.map_entries(ZRing(), lambda x: x.coefficient_sum())


def compare_with_torus_pipeline(model: AinfModel, dim: int, bound: int,
                                torus_result: TorusCohomologyResult | None = None) -> dict:
    """Per monomial degree m: the pipeline's weight in each direction equals
    the coefficient nabla_q gives at m.  Both complexes take the Koszul
    placement, certified once per dimension against the Kunneth tensor
    product (`check_koszul_placement`), so equal weights make equal complexes.
    On a mismatch the q-block and the summand's matrices are reported, never
    raised."""
    if torus_result is None:
        box = GradingBox(dim, model.depth, bound)
        torus_result = ainf_omega_torus(model, box)
    report = {"stage": "q-de-rham-compare", "cells": {}, "passed": True}
    if not check_koszul_placement(dim):
        report["passed"] = False
        report["note"] = TABLES_DISAGREE
    step = model.p**model.depth  # the pipeline keys a cell by its carrier exponents
    ring = LaurentRing(model.p, model.depth)
    labels = {}
    for m in itertools.product(range(-bound, bound + 1), repeat=dim):
        cell = torus_result.cells.get(tuple(x * step for x in m))
        key = grading_key(m, 1, labels)
        if cell is None or cell.status != "koszul":
            report["cells"][key] = {"passed": False, "note": "missing pipeline cell"}
            report["passed"] = False
            continue
        weights = q_weights(model, m)
        ok = cell.weights == weights
        report["cells"][key] = {"passed": ok}
        if not ok:
            report["passed"] = False
            report["cells"][key]["q_block"] = koszul(ring, weights).to_json()
            report["cells"][key]["pipeline_block"] = matrices_to_json(ring, koszul_matrices(ring, cell.weights))
    return report
