"""Fixtures shared by the aggregation-kernel tests."""

import pytest

from repro.tensor import scatter


@pytest.fixture(params=[(0, 1), (0, 16), (64, 48), (10**9, 512)], ids=str)
def constants(request, monkeypatch):
    """(MIN_ELEMENTS, ROUND_ELEMENTS): rounds to the last edge, rounds
    plus tail, a cut-over inside the generated sizes, never."""
    min_elements, round_elements = request.param
    monkeypatch.setattr(scatter, "MIN_ELEMENTS", min_elements)
    monkeypatch.setattr(scatter, "ROUND_ELEMENTS", round_elements)
