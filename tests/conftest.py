"""Fixtures shared by several test modules."""

import pytest

from tcores import identities
from tcores.partitions import Partition


@pytest.fixture
def non_core_at_size_3(monkeypatch):
    """Make the sweeps meet (3), which is not a 2-core, in place of the
    2-core (2, 1): through the multiset sweep's `coding_to_core` and the
    exploded sweep's `cores_from_codings`."""
    real_core, real_cores = identities.coding_to_core, identities.cores_from_codings

    def swap(lam, t):
        return Partition((3,)) if (t, lam.size) == (2, 3) else lam

    monkeypatch.setattr(identities, "coding_to_core", lambda v: swap(real_core(v), v.t))
    monkeypatch.setattr(
        identities, "cores_from_codings", lambda t, n: [swap(lam, t) for lam in real_cores(t, n)]
    )


@pytest.fixture
def tcore_lemmas_raise_mid_run(monkeypatch):
    """Make `tcore_lemma_series` raise ValueError("mid-run"), after the
    verifier has accepted its parameters: a verifier that cannot finish."""

    def raising(t, Y, N):
        raise ValueError("mid-run")

    monkeypatch.setattr(identities, "tcore_lemma_series", raising)
