"""Golden report bytes: CLI outputs that a refactor must leave unchanged.

Each case runs ``shiftadd.cli.main`` and compares what it writes, byte for
byte, with the file of the same name under ``tests/golden/``.  After a change
that is meant to move the reports, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and record in CHANGES.md why
the bytes moved.  The ``*_without_packed_kernel`` cases run the commands
with the packed per-pair kernel made to raise, since every command runs the
bit-sliced engine.
"""

import contextlib
import io
from pathlib import Path

import pytest

from shiftadd import packed
from shiftadd.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEED = "20250811"
ALL_WIDTHS = ",".join(str(w) for w in range(1, 17))

SWEEPS = {
    "uniform": ["--widths", ALL_WIDTHS, "--dist", "uniform", "--trials", "200"],
    "sparse": ["--widths", ALL_WIDTHS, "--dist", "sparse", "--trials", "200"],
    "dense": ["--widths", ALL_WIDTHS, "--dist", "dense", "--trials", "200"],
    # 6 = 110 and 5 = 101 fit every width from 3 up
    "fixed": ["--widths", ",".join(str(w) for w in range(3, 17)), "--dist", "fixed",
              "--a", "6", "--b", "5", "--trials", "20"],
    "exhaustive": ["--widths", "1,2,3,4,5,6", "--dist", "exhaustive"],
    "costs": ["--widths", ALL_WIDTHS, "--dist", "uniform", "--trials", "200",
              "--ffs-cost", "3", "--gate-cost", "2", "--block-size", "3"],
}
# width 1 has a one-flip-flop counter and one cycle; at width 32 the first
# cycle's sum sits 31 bits above the product's bottom.  The width-8 pair
# pins a ring of two gated blocks.
TRACE_PAIRS = {"": ("5", "19", "22"), "_w1": ("1", "1", "1"), "_w8": ("8", "181", "157"),
               "_w32": ("32", "4294967295", "2654435769")}
TRACES = {
    f"trace_{arch}{suffix}.txt": ["run", "--arch", arch, "--width", width, "--a", a, "--b", b,
                                  "--trace"]
    for suffix, (width, a, b) in TRACE_PAIRS.items() for arch in ("conv", "lowpower")
}


def sweep_argv(name: str, fmt: str, out: Path) -> list[str]:
    return ["sweep", *SWEEPS[name], "--seed", SEED, "--format", fmt, "--out", str(out)]


def run_quietly(argv: list[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    return stdout.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_report_bytes(name, fmt, tmp_path):
    out = tmp_path / f"{name}.{fmt}"
    run_quietly(sweep_argv(name, fmt, out))
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("name", list(TRACES))
def test_trace_bytes(name):
    assert run_quietly(TRACES[name]).encode() == (GOLDEN / name).read_bytes()


@pytest.fixture
def no_packed_kernel(monkeypatch):
    """The packed per-pair kernel made to raise: its lanes, its per-config
    cache (emptied, so that every call builds lanes) and the names it is
    called by."""
    def refuse(*args):
        raise AssertionError("the packed kernel ran")

    monkeypatch.setattr(packed.Lanes, "build", refuse)
    for name in ("simulate", "run_conventional", "run_lowpower"):
        monkeypatch.setattr(packed, name, refuse)
    packed._packed.cache_clear()
    yield
    packed._packed.cache_clear()


@pytest.mark.parametrize("name", list(TRACES))
def test_run_without_packed_kernel(name, no_packed_kernel):
    # without --trace, run prints the golden trace's lines from the product on
    golden = (GOLDEN / name).read_text()
    assert run_quietly(TRACES[name]) == golden
    assert run_quietly(TRACES[name][:-1]) == golden[golden.index("product: "):]


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_without_packed_kernel(name, tmp_path, no_packed_kernel):
    out = tmp_path / f"{name}.csv"
    run_quietly(sweep_argv(name, "csv", out))
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_verify_without_packed_kernel(no_packed_kernel):
    assert run_quietly(["verify", "--width", "4"]) == (
        "width 4: 256/256 products match (both architectures, native-multiply oracle)\nPASS\n")


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in SWEEPS:
        for fmt in ("csv", "json"):
            run_quietly(sweep_argv(name, fmt, GOLDEN / f"{name}.{fmt}"))
    for name, argv in TRACES.items():
        (GOLDEN / name).write_bytes(run_quietly(argv).encode())


if __name__ == "__main__":
    regenerate()
