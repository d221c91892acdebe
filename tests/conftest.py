"""Shared test configuration.

The ``ci`` Hypothesis profile makes property tests deterministic and prints
the blob that reproduces a failure, so a failure in CI can be replayed
locally with ``--hypothesis-profile=ci``.  Without that option the default
profile applies.
"""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True,
                          deadline=None)
