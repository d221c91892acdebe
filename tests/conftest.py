"""Shared test configuration.

The ``ci`` Hypothesis profile makes property tests deterministic and prints
the blob that reproduces a failure, so a failure in CI can be replayed
locally with ``--hypothesis-profile=ci``.  Without that option the default
profile applies.

``mp_embed`` is the mpmath oracle of the embeddings: mpmath is a test
dependency only, and the package never imports it.
"""
import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True,
                          deadline=None)


@pytest.fixture(scope="session")
def mp_embed():
    """x -> the embedding of a CycNumber at dps digits, as an mpmath mpc."""
    import mpmath

    def embed(x, dps):
        with mpmath.workdps(dps):
            z = mpmath.mpc(0)
            for j, c in enumerate(x.vec):
                if c:
                    z += c * mpmath.expjpi(mpmath.mpf(2 * j) / x.order)
            return z / x.den
    return embed
