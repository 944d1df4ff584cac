"""Shared test configuration.

Property tests run under one derandomized hypothesis profile: the same
examples on every run, no example database on disk, and no per-example
deadline (a single example may build a product of circles).  Each test
keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("finspace", derandomize=True, database=None, deadline=None)
settings.load_profile("finspace")
