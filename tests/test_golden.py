"""Golden report bytes: CLI outputs that a refactor must leave unchanged.

Each case runs ``shiftadd.cli.main`` and compares what it writes, byte for
byte, with the file of the same name under ``tests/golden/``.  After a change
that is meant to move the reports, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and record in CHANGES.md why
the bytes moved.  The ``*_without_packed_kernel`` cases run each golden
argv again in a fresh interpreter and check that it writes the same bytes
without loading the packed per-pair kernel, since every command runs the
bit-sliced engine.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from shiftadd.cli import main
from shiftadd.harness import DIST_KINDS

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
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


def run_fresh(*argvs: list[str]) -> list[str]:
    """The stdout of each of ``argvs`` run through ``cli.main``, which must
    exit 0, in one fresh ``python -I -S``; none of them may have imported
    ``shiftadd.packed`` or the ``dataclasses`` its ``SimResult`` needs."""
    code = "\n".join([
        f"import contextlib, io, sys; sys.path.insert(0, {str(SRC)!r}); import shiftadd.cli",
        "outs = []",
        f"for argv in {list(argvs)!r}:",
        "    outs.append(io.StringIO())",
        "    with contextlib.redirect_stdout(outs[-1]):",
        "        assert shiftadd.cli.main(argv) == 0, argv",
        "loaded = [m for m in ('shiftadd.packed', 'dataclasses') if m in sys.modules]",
        "import json; print(json.dumps([loaded, [out.getvalue() for out in outs]]))"])
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    loaded, outs = json.loads(proc.stdout)
    assert loaded == []
    return outs


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_report_bytes(name, fmt, tmp_path):
    out = tmp_path / f"{name}.{fmt}"
    run_quietly(sweep_argv(name, fmt, out))
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("name", list(TRACES))
def test_trace_bytes(name):
    golden = (GOLDEN / name).read_bytes()
    assert run_quietly(TRACES[name]).encode() == golden
    # without --trace, run prints the golden trace's lines from the product on
    assert run_quietly(TRACES[name][:-1]).encode() == golden[golden.index(b"product: "):]


@pytest.mark.parametrize("name", list(TRACES))
def test_run_without_packed_kernel(name):
    golden = (GOLDEN / name).read_text()
    assert run_fresh(TRACES[name], TRACES[name][:-1]) == [
        golden, golden[golden.index("product: "):]]


def test_sweeps_cover_every_dist_kind():
    assert {argv[argv.index("--dist") + 1] for argv in SWEEPS.values()} == set(DIST_KINDS)


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_without_packed_kernel(name, tmp_path):
    outs = {fmt: tmp_path / f"{name}.{fmt}" for fmt in ("csv", "json")}
    run_fresh(*(sweep_argv(name, fmt, out) for fmt, out in outs.items()))
    for fmt, out in outs.items():
        assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes(), fmt


def test_verify_stdout():
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
