"""Fixtures shared by the test modules."""

import pytest

from aomega import torus


@pytest.fixture
def fresh_tables():
    """The once-per-dimension certificate of the Koszul tables, decided
    afresh inside the test (which may mutate a table) and forgotten after it."""
    torus.koszul_tables_agree.cache_clear()
    yield
    torus.koszul_tables_agree.cache_clear()
