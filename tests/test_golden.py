"""Golden report bytes: CLI outputs that a refactor must leave unchanged.

Each case runs ``shiftadd.cli.main`` and compares what it writes, byte for
byte, with the file of the same name under ``tests/golden/``.  After a change
that is meant to move the reports, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and record in CHANGES.md why
the bytes moved.
"""

import contextlib
import io
from pathlib import Path

import pytest

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
TRACES = {
    "trace_conv.txt": ["run", "--arch", "conv", "--width", "5", "--a", "19", "--b", "22",
                       "--trace"],
    "trace_lowpower.txt": ["run", "--arch", "lowpower", "--width", "5", "--a", "19",
                           "--b", "22", "--trace"],
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


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in SWEEPS:
        for fmt in ("csv", "json"):
            run_quietly(sweep_argv(name, fmt, GOLDEN / f"{name}.{fmt}"))
    for name, argv in TRACES.items():
        (GOLDEN / name).write_bytes(run_quietly(argv).encode())


if __name__ == "__main__":
    regenerate()
