import pytest

from shiftadd import harness


@pytest.fixture
def ran(monkeypatch):
    """The sweep's sliced engine, which runs every kind (a fixed pair as one
    trial), patched to record any chunk it gets and fail: for usage errors
    that must come before any pair runs."""
    chunks = []

    def engine(cost, a_slices, b_slices, trials):
        chunks.append((cost, trials))
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(harness, "run_sliced", engine)
    return chunks
