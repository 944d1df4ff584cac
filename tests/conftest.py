"""Shared test configuration.

Property tests run under one derandomized hypothesis profile: the same
examples on every run, no example database on disk, and no per-example
deadline (a single example may build a product of circles).  Each test
keeps its own ``max_examples``.
"""

import pytest
from hypothesis import settings

import finspace.circles
import finspace.cli
import finspace.complexes
import finspace.homotopy
import finspace.invariants
import finspace.space
import finspace.witness

settings.register_profile("finspace", derandomize=True, database=None, deadline=None)
settings.load_profile("finspace")

_real_bits = finspace.space.bits


@pytest.fixture
def bits_calls(monkeypatch):
    """The masks handed to ``bits`` while the test runs, counted in every
    finspace module, also in one that does not import it now."""
    calls = []

    def counted(mask):
        calls.append(mask)
        yield from _real_bits(mask)

    for module in (
        finspace.circles,
        finspace.cli,
        finspace.complexes,
        finspace.homotopy,
        finspace.invariants,
        finspace.space,
        finspace.witness,
    ):
        monkeypatch.setattr(module, "bits", counted, raising=False)
    return calls
