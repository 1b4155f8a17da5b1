"""Run one workload through ``shiftadd.cli.main`` and check its outputs.

Imported by child.py once ``import shiftadd`` has been timed.  Returns the
sample's host-time measurements, report digests and check counts.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import resource
import time
from pathlib import Path

import tracer

import shiftadd
from shiftadd import cli, datapath, harness
from shiftadd.bits import Word
from shiftadd.datapath import Variant, make_config, simulate
from shiftadd.harness import OperandDistribution, gen_operands

# The report's nine ledger columns; under the default power model (every
# weight 1.0, vdd 1.0) a row's energy is exactly their sum.
LEDGER_COLUMNS = (
    "multiplier_shift", "partial_product_shift", "adder", "counter_internal",
    "counter_output", "mux_select", "mux_data", "feeder_bypass_clock", "gating",
)
PRODUCT_SAMPLES = 64  # operand pairs per width re-simulated against a*b
MAX_NOTES = 5


class Checks:
    """Count of correctness checks attempted and failed, with a few notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def tally(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < MAX_NOTES:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        self.tally(1, 0 if ok else 1, note)


def run(spec: dict, setup_s: float, src: str, runner=None) -> dict:
    """Run ``spec["argv"]`` through ``cli.main`` once, traced or not.

    ``runner`` replaces the simulator in every product check (the sweep
    sample and ``exhaustive_verify``); the self-test plants a wrong one.
    """
    checks = Checks()
    checks.check(Path(shiftadd.__file__).resolve().is_relative_to(Path(src).resolve()),
                 f"shiftadd imported from {shiftadd.__file__}, not from {src}")
    outcomes = []
    verify = cli.exhaustive_verify

    def capture(*args, **kwargs):
        if runner is not None:
            kwargs.update(conventional=runner, lowpower=runner)
        outcomes.append(verify(*args, **kwargs))
        return outcomes[-1]

    cli.exhaustive_verify = capture
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            if spec["trace"]:
                code, wall_s, clock = tracer.run_traced(cli, harness, datapath, spec["argv"])
            else:
                start = time.perf_counter()
                try:
                    code = cli.main(spec["argv"])
                except SystemExit as exc:
                    code = exc.code
                wall_s = time.perf_counter() - start
    finally:
        cli.exhaustive_verify = verify
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks.check(code == 0, f"exit code {code}")
    sample = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        "report_sha256": None,
        "rng": None,
    }
    if spec["command"] == "sweep":
        report = Path(spec["out"])
        checks.check(report.is_file(), f"no report at {report}")
        if report.is_file():
            data = report.read_bytes()
            sample["report_sha256"] = hashlib.sha256(data).hexdigest()
            try:
                sample["rng"] = check_report(checks, data.decode(), spec)
            except (ValueError, KeyError, TypeError) as exc:
                checks.check(False, f"report does not parse: {exc!r}")
        check_products(checks, spec, runner or simulate)
    else:
        check_verify(checks, outcomes, spec["widths"][0])
    if spec["trace"]:
        total_self = sum(clock.self_s.values())
        checks.check(math.isclose(total_self, wall_s, rel_tol=1e-6, abs_tol=1e-9),
                     f"layer self times sum to {total_self}, traced wall is {wall_s}")
        sample["layers"] = {**clock.flat(), "trace.wall_s": wall_s}
        sample["spans"] = clock.spans
    sample.update(checks=checks.attempted, failed=checks.failed, notes=checks.notes)
    return sample


def check_report(checks: Checks, text: str, spec: dict) -> str | None:
    """Check a CSV sweep report's invariants; return its ``rng`` metadata id."""
    lines = text.splitlines()
    meta = {}
    if lines and lines[0].startswith("# "):
        meta = dict(item.partition("=")[::2] for item in lines[0][2:].split())
        lines = lines[1:]
    checks.check(meta.get("seed") == str(spec["seed"]) and bool(meta.get("rng")),
                 f"metadata lacks the rng id or seed {spec['seed']}: {meta}")
    rows = list(csv.DictReader(lines))
    expected_cells = [(w, arch) for w in spec["widths"] for arch in ("conv", "lowpower")]
    checks.check([(int(r["width"]), r["arch"]) for r in rows] == expected_cells,
                 f"{len(rows)} rows, expected {len(expected_cells)} (width, arch) cells")
    conv_energy = None
    for row in rows:
        cell = f"w{row['width']} {row['arch']}"
        values = {k: float(v) for k, v in row.items() if k != "arch"}
        checks.check(all(math.isfinite(v) for v in values.values()), f"{cell}: NaN or inf")
        checks.check(int(row["trials"]) == spec["trials"], f"{cell}: trials {row['trials']}")
        energy = values["energy"]
        ledger = sum(int(row[c]) for c in LEDGER_COLUMNS)
        checks.check(math.isclose(energy, ledger, rel_tol=1e-12),
                     f"{cell}: energy {energy} != ledger sum {ledger}")
        if row["arch"] == "conv":
            conv_energy, expected = energy, 0.0
        else:
            expected = 100.0 * (conv_energy - energy) / conv_energy
        checks.check(math.isclose(values["reduction_pct"], expected, rel_tol=1e-9, abs_tol=1e-12),
                     f"{cell}: reduction_pct {values['reduction_pct']} != {expected}")
    return meta.get("rng")


def check_products(checks: Checks, spec: dict, runner) -> None:
    """Re-simulate a seeded sample of the workload's own operand pairs."""
    rng = random.Random(spec["seed"])
    dist = OperandDistribution(spec["dist"], seed=spec["seed"])
    for width in spec["widths"]:
        picks = set(rng.sample(range(spec["trials"]), min(PRODUCT_SAMPLES, spec["trials"])))
        configs = [make_config(variant, width) for variant in Variant]
        for index, (a, b) in enumerate(gen_operands(dist, width, spec["trials"])):
            if index not in picks:
                continue
            for cfg in configs:
                got = runner(Word(a, width), Word(b, width), cfg).product.value
                checks.check(got == a * b, f"w{width} {cfg.variant.value}: {a}*{b} -> {got}")


def check_verify(checks: Checks, outcomes: list, width: int) -> None:
    """Count every product ``exhaustive_verify`` compared, and its mismatches."""
    checks.check(len(outcomes) == 1, f"exhaustive_verify ran {len(outcomes)} times")
    for outcome in outcomes:
        checks.check(outcome.total_pairs == 4**width,
                     f"{outcome.total_pairs} pairs, expected {4**width}")
        mismatches = outcome.mismatches
        checks.tally(2 * outcome.total_pairs, len(mismatches),
                     f"{len(mismatches)} mismatches, first {mismatches[:1]}")
