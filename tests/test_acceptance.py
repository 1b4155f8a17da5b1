"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time

import pytest

from oracles import (
    AdderState,
    RingState,
    ring_conventional_step,
    ring_lowpower_step,
    ripple_carry_add,
    unnecessary_ring_transitions,
)

from shiftadd.bits import Word
from shiftadd.cli import main
from shiftadd.datapath import RingCostModel, Variant, make_config, run_lowpower, trace_rows
from shiftadd.harness import (
    REPORTED_FPGA_REDUCTION,
    OperandDistribution,
    exhaustive_verify,
    gen_operands,
    sweep,
)

SEED = 20250811
TRIALS = 100_000


def test_criterion_1_exhaustive_correctness_width_8():
    started = time.perf_counter()
    outcome = exhaustive_verify(8)
    elapsed = time.perf_counter() - started
    assert outcome.total_pairs == 65536
    assert outcome.mismatches == []
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS - 65536/65536 products match on both "
          f"architectures in {elapsed:.1f}s (< 60s)")


def test_criterion_2_golden_trace(capsys):
    code = main(["run", "--arch", "lowpower", "--width", "3",
                 "--a", "3", "--b", "2", "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert "product: 6" in out
    # the three cycle rows: bit sequence (0, 1, 0) and matching addends
    assert "B(0)=0  000" in out
    assert "B(1)=1  011" in out
    assert "B(2)=0  000" in out
    assert "adder firings: 1" in out
    assert "Answer -> 000110  (6)" in out
    lines = [l for l in out.splitlines() if l.startswith("cycle ") and "B(" in l]
    assert len(lines) == 3
    print("ACCEPTANCE 2 PASS - golden trace: product 6, bits (0,1,0), "
          "one adder firing")


def _replay_adder(rows, adder: int, a: Word) -> None:
    """Independent per-cycle oracle: the adder state only moves on add
    cycles, so bypass cycles must contribute exactly zero transitions."""
    n = a.width
    state = AdderState.zero(n)
    replayed = 0
    prev_pair = 0
    for row in rows:
        if row.selected_bit:
            x = Word(prev_pair >> 1, n)
            _, _, transitions, state = ripple_carry_add(state, x, a, 0)
            replayed += transitions
        prev_pair = row.running_sum.value
    assert replayed == adder


def _check_lowpower_invariants(width: int, av: int, bv: int, traced: bool) -> None:
    cfg = make_config(Variant.LOW_POWER, width)
    a, b = Word(av, width), Word(bv, width)
    result = run_lowpower(a, b, cfg)
    assert result.ledger.multiplier_shift == 0
    popcount = bv.bit_count()
    s, g = cfg.cost.s, cfg.cost.g
    expected_feeder = popcount * (width + 1) * s + (result.cycles - popcount) * g
    assert result.ledger.feeder_bypass_clock == expected_feeder
    if traced:
        rows = trace_rows(a, b, cfg)
        fired = sum(row.selected_bit for row in rows)
        assert fired == popcount
        _replay_adder(rows, result.ledger.adder, a)


def test_criterion_3_architectural_invariants():
    for width in range(1, 7):
        for av, bv in gen_operands(OperandDistribution("exhaustive"), width, 0):
            _check_lowpower_invariants(width, av, bv, traced=True)
    for width in (8, 16):
        stream = gen_operands(OperandDistribution("uniform", seed=SEED), width, TRIALS)
        for i, (av, bv) in enumerate(stream):
            _check_lowpower_invariants(width, av, bv, traced=(i < 1000))
    print("ACCEPTANCE 3 PASS - multiplier_shift == 0, adder silent on "
          "bypass cycles, firings == popcount (exhaustive n<=6, 1e5 trials "
          "at n=8 and n=16)")


def test_criterion_4_ring_counter_accounting():
    cost = RingCostModel(s=2, g=1, block_size=4)
    n = 8
    ring = RingState.start(n)
    _, events, _ = ring_conventional_step(ring, cost)
    assert events * cost.s == 16
    assert unnecessary_ring_transitions(n, cost) == (n - 2) * cost.s == 12

    lowpower_total = 0
    conventional_total = 0
    low = RingState.start(n)
    conv = RingState.start(n)
    for _ in range(n):
        low, ev, _, _ = ring_lowpower_step(low, cost)
        lowpower_total += ev * cost.s
        conv, ev, _ = ring_conventional_step(conv, cost)
        conventional_total += ev * cost.s
    assert low.position == 0 and conv.position == 0
    assert lowpower_total == 80
    assert conventional_total == 128
    print("ACCEPTANCE 4 PASS - per-step ring cost 16 (12 unnecessary); "
          "full-rotation clock transitions 80 vs 128")


def test_criterion_5_power_reduction_trend():
    dist = OperandDistribution("uniform", seed=SEED)
    rows = sweep([4, 8, 16], dist, TRIALS)
    reductions = {row.width: row.reduction_pct for row in rows if row.arch == "lowpower"}
    print("\nwidth  modeled reduction   FPGA-reported")
    for width in (4, 8, 16):
        reported = REPORTED_FPGA_REDUCTION.get(width)
        note = f"{reported:.2f}%" if reported is not None else "-"
        print(f"{width:5d}  {reductions[width]:16.2f}%  {note:>13}")
    assert all(reductions[w] > 0 for w in (4, 8, 16))
    assert reductions[4] <= reductions[8] <= reductions[16]
    print("ACCEPTANCE 5 PASS - reduction strictly positive and "
          "non-decreasing across widths 4, 8, 16")


def test_criterion_6_sparse_vs_dense_sensitivity():
    sparse = sweep([8], OperandDistribution("sparse", seed=SEED), TRIALS)
    dense = sweep([8], OperandDistribution("dense", seed=SEED), TRIALS)
    red_sparse = next(r.reduction_pct for r in sparse if r.arch == "lowpower")
    red_dense = next(r.reduction_pct for r in dense if r.arch == "lowpower")
    assert red_sparse > red_dense
    print(f"\nACCEPTANCE 6 PASS - sparse multipliers reduce more than dense "
          f"({red_sparse:.2f}% > {red_dense:.2f}%)")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_criterion_7_byte_identical_reports(fmt, tmp_path):
    argv_base = ["sweep", "--widths", "4,8", "--dist", "uniform",
                 "--trials", "10000", "--seed", "77", "--format", fmt]
    first = tmp_path / f"first.{fmt}"
    second = tmp_path / f"second.{fmt}"
    assert main(argv_base + ["--out", str(first)]) == 0
    assert main(argv_base + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    print(f"\nACCEPTANCE 7 PASS - repeated sweep emits byte-identical {fmt}")
