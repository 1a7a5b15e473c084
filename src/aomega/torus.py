"""Graded torus pipelines: the finite box model of continuous-cohomology sums.

Each grading a in (p^-n Z intersect [-B, B])^d indexes one Koszul summand
with weights q^(a_j) - 1.  Over the residue model the decalage by the
p-th-root divisor keeps exactly the integral gradings (exterior algebra
ranks); over the Laurent carrier the composite decalage turns the integral
summand at a into the Koszul complex on the q-analogs [a_j]_q, whose
reductions give the de Rham and the twisted residue specializations and
whose fraction-field ranks give the etale ones.

A grading is the tuple of its carrier exponents s_j = a_j p^n, the integers
with q^(a_j) = u^(s_j), so the box depth n must be the model depth.
`grading_key` writes the report key "-2/9,1/3"; it is the only place this
module forms a Fraction.

Nonintegral gradings die.  The carrier realizes the divisibility kill
literally when some component has numerator +-1; the remaining cells are
certified dead in every specialization by residue-ring computations: the
divided-weight residue is a unit under both reduction maps, or (for cells
without a divisibility-minimal weight) some weight divides the image of
q - 1 one residue level deeper, so the reduced complex collapses there,
while the mod-(q-1) homology is a free module, the hypothesis under which
decalage commutes with that reduction.  One route rule, `_residue_route`,
decides every residue certificate (these two and the residue pipeline's
kills): honest arithmetic in Z[zeta_{p^j}] up to degree
HONEST_DIVISION_DEGREE_LIMIT, root-of-unity orders (`_root_power_divides`)
above it.  Each fact depends on one exponent and is decided once, on one
model and quotient memo per (p, n) (`_carrier`).  The cells of one outcome
share one record that is never written: a read-only certificate mapping and
free-rank mapping (`_shared`), and in ht and dr one report row per verdict
for the dead gradings of that outcome.  The Koszul shape the stages read is
certified once per dimension by `complexes.check_koszul_placement`.

Large boxes are aggregated: gradings with the same per-component valuation
pattern share their outcome, which is computed once per pattern on a
representative and counted combinatorially; small boxes enumerate cells.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, prod
from types import MappingProxyType

from .ainf import AinfModel, OCModel
from .arith import (
    LaurentElement,
    laurent_exact_div,
    normalize_associate,
    q_analog,
)
from .complexes import (
    NOT_STRUCTURED,
    ChainComplex,
    FpPolyRing,
    HomologyPresentation,
    LaurentRing,
    ZModRing,
    check_koszul_placement,
    homology_diagonal,
    koszul_matrices,
    koszul_to_diagonal,
)
from .decalage import ZERO_COMPLEX, leta_koszul, leta_two_term
from .intlinalg import rank

EXPLICIT_CELL_LIMIT = 20000
# distinct weight tuples per etale or semicont stage re-checked by elimination
ELIMINATION_LIMIT = 200
HONEST_DIVISION_DEGREE_LIMIT = 48


# ---------------------------------------------------------------------------
# the grading box
# ---------------------------------------------------------------------------

def grading_key(grading, step: int, labels: dict | None = None) -> str:
    """The report key of a grading held as carrier exponents s_j = a_j step:
    the values a_j joined by commas ("-2/9,1/3").  `labels` keeps the string
    of each axis value, so that one box formats each value once."""
    if labels is None:
        labels = {}
    for s in grading:
        if s not in labels:
            labels[s] = str(Fraction(s, step))
    return ",".join([labels[s] for s in grading])


@dataclass(frozen=True)
class GradingBox:
    """Gradings a in (p^-depth Z intersect [-bound, bound])^dim, each as its
    carrier exponents a_j p^depth."""

    dim: int
    depth: int
    bound: int

    def __post_init__(self):
        if self.dim < 0 or self.depth < 1 or self.bound < 1:
            raise ValueError("need dim >= 0, depth >= 1, bound >= 1")

    def iter_gradings(self, p: int):
        top = self.bound * p**self.depth
        yield from itertools.product(range(-top, top + 1), repeat=self.dim)

    def iter_integral_gradings(self, p: int):
        step = p**self.depth
        yield from itertools.product(range(-self.bound * step, self.bound * step + 1, step), repeat=self.dim)

    def cell_count(self, p: int) -> int:
        return (2 * self.bound * p**self.depth + 1) ** self.dim


INTEGRAL_CLASSES = ("Z0", "I1", "I+")


def _axis_classes(depth: int) -> list:
    """The valuation classes of one axis (the first three hold the
    integers), in the order aggregation visits them."""
    return [*INTEGRAL_CLASSES, *(("F", k, unit) for k in range(1, depth + 1) for unit in (True, False))]


def _axis_class_count(cls, p: int, bound: int) -> int:
    """Gradings on one axis in the valuation class `cls`: 'Z0' zero, 'I1'
    +-1, 'I+' other integers, ('F', k, unit) denominator exactly p^k with
    numerator +-1 (unit) or not."""
    if cls == "Z0":
        return 1
    if cls == "I1":
        return 2
    if cls == "I+":
        return 2 * bound - 2
    _, k, unit = cls
    total = 2 * bound * (p**k - p ** (k - 1))
    return 2 if unit else total - 2


def _class_representative(cls, p: int, depth: int) -> int:
    """The carrier exponent of a grading in the class `cls` (over p^depth)."""
    if cls in INTEGRAL_CLASSES:
        return INTEGRAL_CLASSES.index(cls) * p**depth
    _, k, unit = cls
    # numerator 1, or the smallest nonunit numerator coprime to p
    m = 1 if unit else 2 if p != 2 else 3
    return m * p ** (depth - k)


# ---------------------------------------------------------------------------
# cells and results
# ---------------------------------------------------------------------------

# the free ranks of every dead cell: none, in one read-only mapping
NO_RANKS = MappingProxyType({})


@lru_cache(maxsize=None)
def _shared(*items) -> MappingProxyType:
    """The one read-only mapping of the (key, value) pairs `items`, which
    every cell of that outcome shares and no stage writes."""
    return MappingProxyType(dict(items))


def _exterior_ranks(d: int) -> MappingProxyType:
    """binomial(d, i) in degree i, one shared mapping per dimension."""
    return _shared(*((i, comb(d, i)) for i in range(d + 1)))


@dataclass(slots=True)
class TorusCell:
    """One grading's outcome in a pipeline stage."""

    grading: tuple
    status: str  # "koszul" | "exterior" | "zero" | "residual" | "unstructured"
    weights: tuple | None = None  # the q-analogs of a "koszul" cell
    residual_divisor: LaurentElement | None = None
    free_ranks: dict[int, int] = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)

    def presentation(self, ring):
        """Homology presentation over `ring` where the symbolic path provides one.

        Koszul cells decompose when some weight divides the others (always
        true in dimension one); a residual cell decomposes as the Koszul
        complex on its divisor and d - 1 zeros, binom(d-1, k) copies of its
        two-term piece at shift k (shifting only rescales the subcomplex
        lattice, never the divided weight); dead cells are zero.  Anything
        else is NOT_STRUCTURED, a value.
        """
        if self.status == "zero":
            return HomologyPresentation({})
        if self.status == "residual":
            weights = (self.residual_divisor,) + (ring.zero(),) * (len(self.grading) - 1)
        elif self.weights is not None:
            weights = self.weights
        elif self.status == "exterior":
            return HomologyPresentation({i: (r, []) for i, r in self.free_ranks.items()})
        else:
            return NOT_STRUCTURED
        D = koszul_to_diagonal(ring, weights)
        return NOT_STRUCTURED if D is NOT_STRUCTURED else homology_diagonal(D)


@dataclass
class ClassRow:
    """One valuation pattern of an aggregated box: `cell` (so the row's status
    and certificates) is the representative grading's, `count` the number of
    gradings with the pattern.  No stage yet proves each member."""

    pattern: tuple
    count: int
    cell: TorusCell


@dataclass
class TorusCohomologyResult:
    stage: str
    model: AinfModel
    box: GradingBox
    cells: dict
    classes: list[ClassRow]
    aggregated: bool
    labels: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def key(self, grading) -> str:
        """The report key of a grading of this box, formatted once per
        result, so that the stages reading it share one string."""
        key = self.keys.get(grading)
        if key is None:
            key = self.keys[grading] = grading_key(grading, self.model.p**self.box.depth, self.labels)
        return key

    def all_cells(self):
        """Explicit cells plus one representative per aggregated class."""
        return itertools.chain(self.cells.values(), (row.cell for row in self.classes))

    def weighted_cells(self):
        """(cell, number of gradings it stands for): 1 for an explicit
        cell, the class count for an aggregated representative."""
        for cell in self.cells.values():
            yield cell, 1
        for row in self.classes:
            yield row.cell, row.count

    def rank_table(self) -> dict[int, int]:
        table: dict[int, int] = {}
        for cell, count in self.weighted_cells():
            if cell.free_ranks:  # most cells are dead and have none
                for i, r in cell.free_ranks.items():
                    table[i] = table.get(i, 0) + r * count
        return {i: r for i, r in sorted(table.items()) if r}

    def to_json(self) -> dict:
        ring = LaurentRing(self.model.p, self.model.depth)
        return {
            "stage": self.stage,
            "p": self.model.p,
            "depth": self.model.depth,
            "dim": self.box.dim,
            "bound": self.box.bound,
            "aggregated": self.aggregated,
            "rank_table": {str(i): r for i, r in self.rank_table().items()},
            "cells": {
                self.key(cell.grading): {
                    "status": cell.status,
                    "free_ranks": {str(i): r for i, r in cell.free_ranks.items()},
                    "presentation": _presentation_json(cell.presentation(ring)),
                    "certificates": {k: str(v) for k, v in cell.certificates.items()},
                }
                for cell in self.cells.values()
            },
            "classes": [
                {
                    "pattern": [str(c) for c in row.pattern],
                    "count": row.count,
                    "status": row.cell.status,
                    "free_ranks": {str(i): r for i, r in row.cell.free_ranks.items()},
                    "certificates": {k: str(v) for k, v in row.cell.certificates.items()},
                }
                for row in self.classes
            ],
        }


def _presentation_json(pres):
    return "not-structured" if pres is NOT_STRUCTURED else pres.to_json()


# ---------------------------------------------------------------------------
# residue-side pipeline
# ---------------------------------------------------------------------------

def _residue_route(p: int, depth: int) -> str:
    """How every residue certificate in Z[zeta_{p^depth}] is decided: by
    honest arithmetic ("division") while the ring's degree is at most
    HONEST_DIVISION_DEGREE_LIMIT, by root-of-unity orders above it."""
    degree = p**depth - p ** (depth - 1)  # the degree phi(p^depth) of `OCModel(p, depth)`
    return "division" if degree <= HONEST_DIVISION_DEGREE_LIMIT else "order-calculus"


@lru_cache(maxsize=None)
def _root_power_divides(p: int, depth: int, s_div: int, s_num: int) -> bool:
    """Whether zeta^s_div - 1 divides zeta^s_num - 1 in Z[zeta_{p^depth}].

    Decided on the `_residue_route`: by exact division, or by comparing
    root-of-unity orders, which agrees with division because both elements
    generate powers of the unique prime over p (cross-checked against
    division in the test suite).
    """
    period = p**depth
    s_div %= period
    s_num %= period
    if s_num == 0:
        return True
    if s_div == 0:
        return False
    if _residue_route(p, depth) == "division":
        oc = OCModel(p, depth)
        return oc.zeta_power_minus_one(s_num).exact_div(oc.zeta_power_minus_one(s_div)) is not None
    order_div = period // gcd(s_div, period)
    order_num = period // gcd(s_num, period)
    return order_div >= order_num


def _check_box_depth(model: AinfModel, box: GradingBox) -> None:
    """The carrier exponents of the box are read over the model's p^depth."""
    if box.depth != model.depth:
        raise ValueError(f"box depth {box.depth} differs from the model depth {model.depth}")


def _oc_cell_outcome(model: AinfModel, grading) -> TorusCell:
    """Decalage by the p-th root-of-unity divisor on one residue summand.

    The weight at component a is zeta^(a p^n) - 1, zero exactly on integral
    components; the divisor is zeta^(p^(n-1)) - 1.  Dividing every weight
    leaves a unit whenever some component is fractional of depth one, and
    any deeper fractional weight divides the divisor outright; either way
    the summand dies.  All-integral summands keep the exterior algebra.
    """
    p, n = model.p, model.depth
    d = len(grading)
    period = p**n
    s = [x % period for x in grading]
    s_f = p ** (n - 1)
    if all(x == 0 for x in s):
        return TorusCell(grading, "exterior", free_ranks=_exterior_ranks(d), certificates=_shared(("weights", "all zero")))
    how = _residue_route(p, n)
    if all(x == 0 or _root_power_divides(p, n, s_f, x) for x in s):
        # divided weights are zero or mutual-divisibility units; a unit is
        # present because some component is fractional
        unit_present = any(x != 0 and _root_power_divides(p, n, x, s_f) for x in s)
        if not unit_present:
            raise AssertionError(f"expected a unit divided weight at grading {grading}")
        kill = "unit divided weight"
    else:
        killer = next(x for x in s if x != 0 and _root_power_divides(p, n, x, s_f))
        kill = f"weight zeta^{killer}-1 divides the divisor"
    return TorusCell(grading, "zero", free_ranks=NO_RANKS, certificates=_shared(("kill", kill), ("verified", how)))


def tilde_omega_torus(model: AinfModel, box: GradingBox) -> TorusCohomologyResult:
    """Decalage of the residue-side graded sum: exterior-algebra ranks
    binomial(d, i) per integral grading, zero elsewhere."""
    _check_box_depth(model, box)
    p = model.p
    aggregated = box.cell_count(p) > EXPLICIT_CELL_LIMIT
    cells = {}
    classes = []
    if not aggregated:
        for grading in box.iter_gradings(p):
            cells[grading] = _oc_cell_outcome(model, grading)
    else:
        for pattern in itertools.combinations_with_replacement(_axis_classes(box.depth), box.dim):
            count = _pattern_count(pattern, p, box)
            if count == 0:
                continue
            rep = tuple(_class_representative(c, p, box.depth) for c in pattern)
            cell = _oc_cell_outcome(model, rep)
            # negation stays inside the box and the class
            rep2 = tuple(-s for s in rep)
            if rep2 != rep:
                cell2 = _oc_cell_outcome(model, rep2)
                if cell2.status != cell.status or cell2.free_ranks != cell.free_ranks:
                    raise AssertionError(f"class {pattern} not homogeneous")
            classes.append(ClassRow(pattern, count, cell))
    return TorusCohomologyResult("tilde", model, box, cells, classes, aggregated)


def _pattern_count(pattern, p: int, box: GradingBox) -> int:
    """Number of gradings whose sorted component-class tuple equals `pattern`."""
    counts = [_axis_class_count(c, p, box.bound) for c in pattern]
    if any(c <= 0 for c in counts):
        return 0
    return prod(counts) * _multiset_permutations(pattern)


def _multiset_permutations(pattern: tuple) -> int:
    return factorial(len(pattern)) // prod(factorial(pattern.count(cls)) for cls in set(pattern))


# ---------------------------------------------------------------------------
# Laurent-side pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class QuotientMemo(LaurentRing):
    """The Laurent carrier with every exact quotient it has computed kept,
    None (no quotient) included: the fractional outcomes divide the same
    weights u^s - 1, and their quotients, by the same divisors again and
    again."""

    quotients: dict = field(default_factory=dict, compare=False)

    def exact_div(self, a, b):
        try:
            return self.quotients[a, b]
        except KeyError:
            q = self.quotients[a, b] = laurent_exact_div(a, b)
            return q


@lru_cache(maxsize=None)
def _carrier(p: int, n: int) -> tuple[AinfModel, QuotientMemo]:
    """The one model and the one quotient memo at (p, n) that the
    per-exponent outcomes share."""
    return AinfModel(p, n), QuotientMemo(p, n)


@lru_cache(maxsize=None)
def _verified_q_analog(p: int, depth: int, a: int) -> LaurentElement:
    """[a]_q, verified against both decalage routes for the single weight:
    dividing q^a - 1 by the p-th-root divisor and then the cyclotomic
    weight agrees with dividing by q - 1 directly, and both give [a]_q."""
    model, _ = _carrier(p, depth)
    g = model.q_power_minus_one(a)
    expected = model.q_analog(a)
    if a == 0:
        return expected
    h = laurent_exact_div(g, model.phi_inv_mu)
    if h is None:
        raise AssertionError("integral weight refused the first division")
    two_step = laurent_exact_div(h, model.xi)
    one_step = laurent_exact_div(g, model.mu)
    if two_step != expected or one_step != expected:
        raise AssertionError("decalage routes disagree on the q-analog")
    return expected


def _integral_cell(model: AinfModel, grading, step: int) -> TorusCell:
    """Composite decalage of an integral summand: K on the q-analogs.

    The divisions are componentwise, so each weight's two-step/one-step
    agreement certifies the composition law for the whole summand.
    """
    weights = tuple(_verified_q_analog(model.p, model.depth, s // step) for s in grading)
    # nonzero gradings are generically acyclic; torsion only
    ranks = NO_RANKS if any(grading) else _exterior_ranks(len(grading))
    certificates = _shared(("q_analog_weights", "verified"), ("composition", "one-step equals two-step"))
    return TorusCell(grading, "koszul", weights=weights, free_ranks=ranks, certificates=certificates)


def _fractional_cell(model: AinfModel, grading) -> TorusCell:
    """Decalage of a nonintegral summand in the Laurent carrier.

    Kill by literal divisibility when possible; otherwise factor out the
    divisibility-minimal weight and certify the leftover a unit in both
    residue rings; otherwise certify the collapse one residue level deeper
    together with freeness of the mod-(q - 1) homology.  The outcome only
    depends on the multiset of absolute carrier exponents (all weights are
    determined up to units by them), so it is cached on that key, and the
    cells of one outcome share its read-only certificates.
    """
    key = tuple(sorted(map(abs, grading)))
    status, divisor, certificates = _fractional_outcome(model.p, model.depth, key)
    return TorusCell(grading, status, residual_divisor=divisor, free_ranks=NO_RANKS, certificates=certificates)


@lru_cache(maxsize=None)
def _fractional_outcome(p: int, n: int, exps: tuple[int, ...]):
    """(status, divisor, certificates) of the nonintegral summand with
    absolute carrier exponents `exps`, its divisions asked of the shared
    quotient memo; the certificates are the `_shared` mapping of their pairs."""
    status, divisor, certificates = _decide_fractional(*_carrier(p, n), exps)
    return status, divisor, _shared(*dict(certificates).items())


def _decide_fractional(model: AinfModel, ring, exps: tuple[int, ...]):
    """The kill, residual or unstructured verdict of `_fractional_outcome`,
    every division of the decalage asked of `ring`."""
    p, n = model.p, model.depth
    weights = tuple(
        LaurentElement({s: 1, 0: -1}, n) if s else LaurentElement.zero(n) for s in exps
    )

    one_step = leta_koszul(ring, weights, model.mu)
    if one_step is ZERO_COMPLEX:
        return "zero", None, (("kill", "weight divides q - 1"),)
    step1 = leta_koszul(ring, weights, model.phi_inv_mu)
    if step1 is ZERO_COMPLEX:
        return "zero", None, (("kill", "weight divides the p-th-root divisor"),)
    if isinstance(step1, tuple):
        step2 = leta_koszul(ring, step1, model.xi)
        if step2 is ZERO_COMPLEX:
            return "zero", None, (("kill", "divided weight divides the cyclotomic weight"),)

    nonzero = [s for s in exps if s]
    g_min_exp = next((s for s in nonzero if all(t % s == 0 for t in nonzero)), None)
    if g_min_exp is not None:
        return ("residual", *_residual_outcome(p, n, g_min_exp))

    return "unstructured", None, _deeper_collapse_certificate(model, exps)


@lru_cache(maxsize=None)
def _residual_outcome(p: int, n: int, g_min_exp: int):
    """The two-term divisor of the divisibility-minimal weight u^g - 1, its
    quotient by the gcd u^d - 1 with q - 1 (checked, p^n not dividing g), and
    whether both residue maps send it to a unit.  At each level j = n, n + 1
    its `_residue_route` asks Euclid for the inverse of its image, or whether
    zeta^g - 1 and the nonzero zeta^d - 1 divide each other (are associates)."""
    model, _ = _carrier(p, n)
    g_min = LaurentElement({g_min_exp: 1, 0: -1}, n)
    residual = normalize_associate(leta_two_term(g_min, model.mu, LaurentRing(p, n)))
    d = gcd(g_min_exp, p**n)
    if d == p**n or residual * LaurentElement({d: 1, 0: -1}, n) != g_min:
        raise AssertionError(f"residual of u^{g_min_exp} - 1 is not a quotient by a nonzero u^{d} - 1")
    units = [
        OCModel(p, j).reduce(residual.with_depth(j)).is_unit() if _residue_route(p, j) == "division"
        else _root_power_divides(p, j, g_min_exp, d) and _root_power_divides(p, j, d, g_min_exp)
        for j in (n, n + 1)
    ]
    if all(units):
        return residual, (
            ("residual", "two-term divisor after dividing out gcd with q - 1"),
            ("theta_image", "unit"),
            ("theta_tilde_image", "unit"),
        )
    return residual, (("residual", "two-term divisor"), ("specializations", "unverified"))


def _deeper_collapse_certificate(model: AinfModel, exps: tuple[int, ...]) -> dict:
    """For summands without divisibility structure: (a) the mod-(q - 1)
    homology is a free module because the folded weights gcd(s, p^n), powers
    of p, generate a chain of ideals, and (b) the summand reduced one residue
    level deeper collapses: some fractional weight zeta^s - 1 divides the image
    zeta^(p^n) - 1 of q - 1 there, decided by `_root_power_divides`.  (a)
    licenses commuting the decalage with the deeper reduction; (b) computes it."""
    p, n = model.p, model.depth
    route = _residue_route(p, n + 1)
    killed = any(_root_power_divides(p, n + 1, s, p**n) for s in exps if s % p**n)
    return {"mod_mu_free": "p-power ideal chain", "deeper_kill": route if killed else "failed"}


def ainf_omega_torus(model: AinfModel, box: GradingBox) -> TorusCohomologyResult:
    """Composite decalage of the Laurent-side graded sum.

    Integral gradings carry the Koszul complexes on the q-analogs;
    nonintegral gradings die, each with a recorded kill certificate.
    """
    _check_box_depth(model, box)
    p, step = model.p, model.p**model.depth
    aggregated = box.cell_count(p) > EXPLICIT_CELL_LIMIT
    cells = {}
    classes = []
    for grading in box.iter_integral_gradings(p):
        cells[grading] = _integral_cell(model, grading, step)
    if not aggregated:
        for grading in box.iter_gradings(p):
            if grading not in cells:  # the integral cells are in already
                cells[grading] = _fractional_cell(model, grading)
    else:
        for pattern in itertools.combinations_with_replacement(_axis_classes(box.depth), box.dim):
            if all(c in INTEGRAL_CLASSES for c in pattern):
                continue  # integral cells are explicit
            count = _pattern_count(pattern, p, box)
            if count == 0:
                continue
            rep = tuple(_class_representative(c, p, box.depth) for c in pattern)
            cell = _fractional_cell(model, rep)
            classes.append(ClassRow(pattern, count, cell))
    return TorusCohomologyResult("ainf", model, box, cells, classes, aggregated)


# ---------------------------------------------------------------------------
# specializations
# ---------------------------------------------------------------------------

def _q_analog_mod_p_th_root(a: int, p: int):
    """[a]_q evaluated at a primitive p-th root of unity, inside Z[zeta_p].

    The q-analog of p generates the same ideal as the p-th cyclotomic
    polynomial in q, so reduction modulo it sends q to a primitive p-th
    root; the depth relabel keeps the variable fixed instead of embedding.
    """
    oc = OCModel(p, 1)
    return oc.reduce(q_analog(a, p, 0).with_depth(1))


def _twist_over_p(grading, p: int, step: int) -> tuple[bool, bool]:
    """Whether a/p lies in the box and whether it is integral, read off the
    carrier exponents s of a: p divides every s, and p step divides every s."""
    return all(s % p == 0 for s in grading), all(s % (p * step) == 0 for s in grading)


def _dead_cell_certified(cell: TorusCell) -> bool:
    """Whether the pipeline's certificates keep a dead cell dead in every
    specialization: a zero cell by its kill, a residual cell by its divisor
    mapping to a unit under both residue maps, an unstructured cell by a
    computed deeper kill.  The stages decide it once per status and
    certificate mapping, which the cells of one outcome share."""
    c = cell.certificates
    if cell.status == "zero":
        return "kill" in c
    if cell.status == "residual":
        return c.get("theta_image") == c.get("theta_tilde_image") == "unit"
    return cell.status == "unstructured" and c.get("deeper_kill") in ("division", "order-calculus")


def specialize_hodge_tate(result: TorusCohomologyResult) -> dict:
    """Reduce every surviving summand by the q-analog of p and compare with
    the Frobenius-twisted residue pipeline: the cell at grading a matches
    the residue cell at a/p, degree by degree.  The residue cells are taken
    in closed form (exterior ranks at integral gradings, zero elsewhere),
    which `tilde_omega_torus` computes and its tests check."""
    model, box = result.model, result.box
    p, d, step = model.p, box.dim, model.p**box.depth
    report = {"stage": "hodge-tate", "cells": {}, "passed": True}

    def twisted_tilde_ranks(grading):
        in_box, integral = _twist_over_p(grading, p, step)
        return [comb(d, i) if in_box and integral else 0 for i in range(d + 1)]

    # (is_zero, is_unit) of each reduced weight, decided once per exponent
    reduced_by_exponent = {}
    # per (status, certificate mapping): the dead-cell verdict and the
    # report row of each cell verdict, which the gradings of that outcome share
    dead = {}
    twist = p * step
    for cell in result.all_cells():
        key = result.key(cell.grading)
        if cell.status == "koszul":
            exps = [s // step for s in cell.grading]
            for a in exps:
                if a not in reduced_by_exponent:
                    weight = _q_analog_mod_p_th_root(a, p)
                    reduced_by_exponent[a] = (weight.is_zero(), weight.is_unit())
            reduced = [reduced_by_exponent[a] for a in exps]
            ht = _koszul_ranks(d, all(zero for zero, _ in reduced), any(unit for _, unit in reduced))
            if ht is None:
                report["cells"][key] = {"passed": False, "note": "reduced weight neither zero nor unit"}
                report["passed"] = False
                continue
            expected = twisted_tilde_ranks(cell.grading)
            ok = ht == expected
            report["cells"][key] = {"passed": ok, "ht_ranks": ht, "twisted_tilde_ranks": expected}
            if not ok:
                report["passed"] = False
        else:
            # dead cells must stay dead after the reduction; the twisted
            # residue-side ranks are zero exactly when a/p is not integral,
            # which holds for every nonintegral grading a
            outcome = cell.status, id(cell.certificates)
            if outcome not in dead:
                certificate = dict(cell.certificates)
                rows = [{"passed": ok, "status": cell.status, "certificate": certificate} for ok in (False, True)]
                dead[outcome] = _dead_cell_certified(cell), rows
            certified, rows = dead[outcome]
            ok = certified and any(map(twist.__rmod__, cell.grading))  # some s % twist
            report["cells"][key] = rows[ok]
            if not ok:
                report["passed"] = False
    return report


def _koszul_ranks(k: int, zero: bool, unit: bool) -> list[int] | None:
    """The ranks of a Koszul complex on k weights in a fibre where all are
    zero (binomial), or some is a unit (none, by the contraction identity
    `check_koszul_placement(k)` proves); None otherwise."""
    check_koszul_placement(k)
    if zero:
        return [comb(k, i) for i in range(k + 1)]
    if unit:
        return [0] * (k + 1)
    return None


def _homology_ranks(sizes, diffs, ring) -> list[int]:
    """n_i - rk d^i - rk d^(i-1) per degree i: the fraction-field homology
    ranks of the complex with free modules of ranks `sizes` and
    differentials `diffs`, by elimination."""
    r = [0, *(rank(mat, ring) for mat in diffs), 0]
    return [n - r[i] - r[i + 1] for i, n in enumerate(sizes)]


def _fibre_ranks(weighted, fibres, d: int):
    """The fibre ranks of the Koszul complexes on the weight tuples of
    `weighted`, (tuple, count) pairs, in each of `fibres`, (ring, image of a
    weight in it, zero test of a weight) triples.  Every fibre is a field,
    where a nonzero weight is a unit, so `_koszul_ranks` ranks each distinct
    tuple once per fibre.  Up to
    ELIMINATION_LIMIT tuples, those with a nonzero rank first and the rest in
    order, are re-checked by elimination on the placement's matrices.
    Returns the ranks per distinct tuple, the totals per fibre weighted by
    count, and the number of tuples eliminated."""
    by_tuple = {}  # weight tuple -> its ranks per fibre
    totals = [[0] * (d + 1) for _ in fibres]
    for key, count in weighted:
        ranks = by_tuple.setdefault(key, [])  # one hash of the tuple; filled on first sight
        if not ranks:
            for _, _, zero in fibres:
                z = [zero(x) for x in key]
                ranks.append(_koszul_ranks(len(key), all(z), not all(z)))
        for total, fibre_ranks in zip(totals, ranks):
            for i, r in enumerate(fibre_ranks):
                total[i] += r * count
    checked = sorted(by_tuple.items(), key=lambda item: not any(map(any, item[1])))[:ELIMINATION_LIMIT]
    for key, ranks in checked:
        sizes = [comb(len(key), i) for i in range(len(key) + 1)]
        for (ring, image, _), fibre_ranks in zip(fibres, ranks):
            if _homology_ranks(sizes, koszul_matrices(ring, [image(x) for x in key]), ring) != fibre_ranks:
                raise AssertionError(f"fibre ranks of the weights {[str(x) for x in key]} differ by elimination")
    return by_tuple, [{i: r for i, r in enumerate(total) if r} for total in totals], len(checked)


_DEAD_CELL_NOTES = {"residual": "residual divisor is a unit in the residue ring", "zero": "killed by divisibility"}
TABLES_DISAGREE = "the Koszul placement disagrees with the Kunneth tensor product"


def specialize_de_rham(result: TorusCohomologyResult) -> dict:
    """Per integral grading a: theta (reduction modulo xi) of each of the
    pipeline's weights equals the constant a_j.  The classical de Rham
    complex of t^a is the Kunneth tensor product of the one-dimensional
    complexes R --a_j--> R, and the Koszul placement is certified once per
    dimension to equal that product (`check_koszul_placement`), so equal weights
    make equal complexes, and d o d = 0 holds on both.  "beta" records the
    exponents, the values theta must produce."""
    model, box = result.model, result.box
    d, step = box.dim, model.p**box.depth
    constant = model.oc_model().constant
    report = {"stage": "de-rham", "cells": {}, "passed": True}
    if not check_koszul_placement(d):
        report["passed"] = False
        report["note"] = TABLES_DISAGREE
    # whether theta of a weight is the constant of an exponent, decided once per pair
    theta_is_constant = {}
    for grading in box.iter_integral_gradings(model.p):
        cell = result.cells[grading]
        exps = tuple(s // step for s in grading)
        ok = cell.status == "koszul"
        if ok:
            for pair in zip(cell.weights, exps):
                if pair not in theta_is_constant:
                    theta_is_constant[pair] = model.theta(pair[0]) == constant(pair[1])
            ok = all(theta_is_constant[pair] for pair in zip(cell.weights, exps))
        key = result.key(grading)
        report["cells"][key] = {"passed": ok, "beta": exps}
        if not ok:
            report["passed"] = False
    # dead cells contribute nothing; each needs the certificate the pipeline
    # recorded for its death, read once per (status, certificate mapping),
    # whose one report row the gradings of that outcome share
    rows = {}
    for cell in result.all_cells():
        if cell.status == "koszul":
            continue
        outcome = cell.status, id(cell.certificates)
        if outcome not in rows:
            note = _DEAD_CELL_NOTES.get(cell.status, "outside the structured locus; no contribution recorded")
            rows[outcome] = {"passed": _dead_cell_certified(cell), "status": cell.status, "note": note}
        row = report["cells"][result.key(cell.grading)] = rows[outcome]
        if not row["passed"]:
            report["passed"] = False
    return report


def etale_rank_torus(result: TorusCohomologyResult) -> dict:
    """Fraction-field ranks by `_koszul_ranks`: only the zero grading
    survives, with the exterior-algebra ranks.  Up to ELIMINATION_LIMIT
    distinct weight tuples are re-checked by elimination over the carrier."""
    model = result.model
    weighted = ((cell.weights, count) for cell, count in result.weighted_cells() if cell.status == "koszul")
    fibre = LaurentRing(model.p, model.depth), lambda g: g, LaurentElement.is_zero
    _, (table,), checked = _fibre_ranks(weighted, [fibre], result.box.dim)
    return {"stage": "etale", "rank_table": table, "verified_by_elimination": checked}


# ---------------------------------------------------------------------------
# fraction-field and fibre ranks
# ---------------------------------------------------------------------------

def generic_fibre_ranks(K: ChainComplex) -> dict[int, int]:
    """dim over the fraction field of each homology group of K."""
    return {K.lo + i: r for i, r in enumerate(_homology_ranks(K.ranks, K.diffs, K.ring)) if r}


def semicontinuity_demo(K: ChainComplex):
    """Generic-fibre ranks versus special-fibre dimensions of a free
    polynomial complex: evaluation at the origin can only grow homology.

    Returns (generic_ranks, special_dims, verdict) with verdict recording
    the per-degree inequality and whether any degree is strict.
    """
    ring = K.ring
    if not isinstance(ring, FpPolyRing):
        raise ValueError("semicontinuity works over a polynomial ring mod p")
    generic = generic_fibre_ranks(K)
    special = generic_fibre_ranks(K.map_entries(ZModRing(ring.p), lambda x: ring.evaluate(x, 0)))
    degrees = sorted(set(generic) | set(special) | set(K.degrees()))
    ok = all(generic.get(i, 0) <= special.get(i, 0) for i in degrees)
    strict = any(generic.get(i, 0) < special.get(i, 0) for i in degrees)
    return generic, special, {"holds": ok, "strict_somewhere": strict}


def _laurent_to_fp_poly(x: LaurentElement, ring: FpPolyRing):
    """Reduce mod p after normalizing the unit u-power away."""
    y = normalize_associate(x)
    if y.is_zero():
        return ring.zero()
    out = [0] * (y.max_exponent() + 1)
    for e, c in y.terms.items():
        out[e] = c % ring.p
    return ring.reduce(out)


def torus_semicontinuity(result: TorusCohomologyResult) -> dict:
    """Compare the fibre ranks of the mod-p summand complexes of the ainf
    result, over the fraction field of F_p[u] and at u = 0.

    Each distinct weight tuple is ranked once per fibre by `_koszul_ranks`:
    a weight is zero generically when its reduction is, and at the origin
    when its constant term is.  Every nonzero grading dies on both fibres;
    the zero grading carries the exterior algebra on both, so the totals
    agree with the binomial pattern on the nose.  Up to ELIMINATION_LIMIT
    distinct tuples are re-checked by elimination in both fibres.
    """
    model = result.model
    ring = FpPolyRing(model.p)
    d = result.box.dim
    fp = lru_cache(maxsize=None)(lambda g: _laurent_to_fp_poly(g, ring))  # each distinct weight reduced once

    def weighted():
        for cell, count in result.weighted_cells():
            if cell.status == "koszul":
                yield tuple(map(fp, cell.weights)), count
            elif cell.status == "residual":
                yield (fp(cell.residual_divisor),), count
            elif cell.status != "zero":
                # unstructured summands: feed the raw normalized weights u^s - 1;
                # the fibre ranks vanish regardless of decalage bookkeeping
                yield tuple([fp(LaurentElement({s: 1, 0: -1}, model.depth)) for s in cell.grading if s]), count

    fibres = [(ring, lambda x: x, lambda x: not x),
              (ZModRing(model.p), lambda x: ring.evaluate(x, 0), lambda x: not x or x[0] == 0)]
    by_tuple, (generic, special), _ = _fibre_ranks(weighted(), fibres, d)
    expected = {i: comb(d, i) for i in range(d + 1)}
    return {
        "stage": "semicontinuity",
        "generic_totals": generic,
        "special_totals": special,
        "expected": expected,
        "inequality_holds": all(g <= s for ranks in by_tuple.values() for g, s in zip(*ranks)),
        "equality_with_binomials": generic == special == expected,
    }


def random_fp_complex(rng: random.Random, p: int) -> ChainComplex:
    """Seeded random bounded free complex over F_p[u] in 2 to 4 degrees of
    rank at most 4, built from elementary blocks and mixed by unimodular
    row/column operations."""
    ring = FpPolyRing(p)
    degs = rng.randint(2, 4)
    ranks = [0] * degs
    blocks = []
    for _ in range(rng.randint(1, 2 * degs)):
        if rng.random() < 0.7 and degs >= 2:
            s = rng.randint(0, degs - 2)
            if ranks[s] < 4 and ranks[s + 1] < 4:
                poly = tuple(rng.randrange(p) for _ in range(rng.randint(1, 3)))
                blocks.append((s, poly))
                ranks[s] += 1
                ranks[s + 1] += 1
        else:
            s = rng.randint(0, degs - 1)
            if ranks[s] < 4:
                blocks.append((s, None))
                ranks[s] += 1
    if sum(ranks) == 0:
        ranks[0] = 1
        blocks.append((0, None))
    diffs = [[[ring.zero()] * ranks[k] for _ in range(ranks[k + 1])] for k in range(degs - 1)]
    pos = [0] * degs
    for s, poly in blocks:
        if poly is None:
            pos[s] += 1
        else:
            i, j = pos[s], pos[s + 1]
            diffs[s][j][i] = ring.reduce(poly)
            pos[s] += 1
            pos[s + 1] += 1
    for _ in range(rng.randint(0, 3)):
        _mix_basis(ring, ranks, diffs, rng, lambda: (rng.randrange(1, p),))
    return ChainComplex(ring, 0, ranks, diffs)


def _mix_basis(ring, ranks: list, diffs: list, rng: random.Random, draw) -> None:
    """One random elementary change of basis at a random degree, in place on
    the differentials: new e_(r2) = e_(r2) + c e_(r1), c = draw().  Columns of
    the outgoing map add, rows of the incoming map subtract."""
    d = rng.randrange(len(ranks))
    if ranks[d] < 2:
        return
    r1, r2 = rng.sample(range(ranks[d]), 2)
    c = draw()
    if d < len(ranks) - 1:
        for row in diffs[d]:
            row[r2] = ring.add(row[r2], ring.mul(c, row[r1]))
    if d > 0:
        src, dst = diffs[d - 1][r2], diffs[d - 1][r1]
        for col in range(ranks[d - 1]):
            dst[col] = ring.add(dst[col], ring.neg(ring.mul(c, src[col])))
