import pytest

from shiftadd import harness


@pytest.fixture
def ran(monkeypatch):
    """Both sweep kernels patched to record any pair they get and fail: for
    usage errors that must come before any pair runs."""
    pairs = []

    def kernel(a, b, cfg):
        pairs.append((a.value, b.value))
        raise AssertionError("a pair ran")

    monkeypatch.setattr(harness, "run_conventional", kernel)
    monkeypatch.setattr(harness, "run_lowpower", kernel)
    return pairs
