"""Fixtures shared by the test modules."""

import pytest

from aomega import complexes, torus
from aomega.ainf import AinfModel
from aomega.complexes import LaurentRing
from aomega.torus import GradingBox, ainf_omega_torus


@pytest.fixture
def fresh_tables():
    """The once-per-dimension certificate of the Koszul tables, decided
    afresh inside the test (which may mutate a table) and forgotten after it."""
    complexes.check_koszul_placement.cache_clear()
    yield
    complexes.check_koszul_placement.cache_clear()


@pytest.fixture
def cold_fractional_caches():
    """Empty the per-exponent memos before and after a test that mutates
    what they remember."""
    caches = (torus._fractional_outcome, torus._residual_outcome, torus._root_power_divides)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


# (p, depth, dim, bound): the 18 boxes of the s7-specializations suite at
# its default bound, the explicit box (3,2,2,4), and three aggregated boxes
# whose class representatives reach deeper residue rings
MEMO_ORACLE_BOXES = [
    *((p, n, d, 2) for p in (2, 3, 5) for n in (1, 2) for d in (1, 2, 3)),
    (3, 2, 2, 4),
    (3, 2, 3, 6),
    (13, 2, 2, 8),
    (11, 2, 2, 8),
]


@pytest.fixture
def memo_disagreements():
    """A function of a list of boxes, by default MEMO_ORACLE_BOXES: the
    number of distinct exponent multisets of their dead cells and classes,
    and the (p, n, exponents) of each one on which `_fractional_outcome`,
    with its shared model and quotient memo, differs in status, divisor or
    certificates from the unmemoized route (a fresh model, a plain
    LaurentRing, the same `leta_koszul` rule)."""

    def disagreements(boxes=MEMO_ORACLE_BOXES):
        checked, bad = 0, []
        for p, n, d, bound in boxes:
            res = ainf_omega_torus(AinfModel(p, n), GradingBox(d, n, bound))
            keys = {tuple(sorted(map(abs, cell.grading))) for cell in res.all_cells() if cell.status != "koszul"}
            checked += len(keys)
            for exps in sorted(keys):
                status, divisor, certificates = torus._fractional_outcome(p, n, exps)
                plain = torus._decide_fractional(AinfModel(p, n), LaurentRing(p, n), exps)
                if (status, divisor, dict(certificates)) != (plain[0], plain[1], dict(plain[2])):
                    bad.append((p, n, exps))
        return checked, bad

    return disagreements
