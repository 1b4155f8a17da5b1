import pytest

from shiftadd import harness


@pytest.fixture
def ran(monkeypatch):
    """The sweep's per-pair kernels and its sliced engine patched to record
    any pair or chunk they get and fail: for usage errors that must come
    before any pair runs."""
    pairs = []

    def kernel(a, b, cfg):
        pairs.append((a.value, b.value))
        raise AssertionError("a pair ran")

    def engine(cfg, a_slices, b_slices, trials):
        pairs.append((cfg, trials))
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(harness, "run_conventional", kernel)
    monkeypatch.setattr(harness, "run_lowpower", kernel)
    monkeypatch.setattr(harness, "run_sliced", engine)
    return pairs
