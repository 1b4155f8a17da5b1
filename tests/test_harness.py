import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    biased_operands,
    decode_slices,
    loop_conventional,
    loop_lowpower,
    string_exhaustive_products,
    string_exhaustive_slices,
)

from shiftadd import datapath, harness, packed, power
from shiftadd.bits import Word
from shiftadd.datapath import (
    LEDGER_CATEGORIES,
    ToggleLedger,
    Variant,
    make_config,
    sliced_cycles,
)
from shiftadd.harness import (
    BIT_DENSITY,
    REPORT_COLUMNS,
    OperandDistribution,
    emit_report,
    exhaustive_verify,
    gen_operands,
    sweep,
)
from shiftadd.packed import SimResult, run_conventional, simulate
from shiftadd.power import PowerModel


class TestGenOperands:
    def test_exhaustive_enumeration(self):
        pairs = list(gen_operands(OperandDistribution("exhaustive"), 3, 0))
        assert len(pairs) == 64
        assert pairs[0] == (0, 0)
        assert pairs[-1] == (7, 7)
        assert pairs == sorted(pairs)

    def test_exhaustive_width_guard(self):
        with pytest.raises(ValueError):
            list(gen_operands(OperandDistribution("exhaustive"), 13, 0))

    @pytest.mark.parametrize("kind", ["uniform", "sparse", "dense"])
    def test_same_seed_same_stream(self, kind):
        dist = OperandDistribution(kind, seed=99)
        first = list(gen_operands(dist, 8, 200))
        second = list(gen_operands(dist, 8, 200))
        assert first == second

    def test_different_seed_differs(self):
        a = list(gen_operands(OperandDistribution("uniform", seed=1), 8, 50))
        b = list(gen_operands(OperandDistribution("uniform", seed=2), 8, 50))
        assert a != b

    def test_sparse_popcount_mean(self):
        pairs = gen_operands(OperandDistribution("sparse", seed=5), 8, 10_000)
        mean = sum(b.bit_count() for _, b in pairs) / 10_000
        assert abs(mean - 2.0) < 0.15

    def test_dense_popcount_mean(self):
        pairs = gen_operands(OperandDistribution("dense", seed=5), 8, 10_000)
        mean = sum(b.bit_count() for _, b in pairs) / 10_000
        assert abs(mean - 6.0) < 0.15

    def test_fixed_repeats_masked_pair(self):
        dist = OperandDistribution("fixed", a=3, b=2)
        assert list(gen_operands(dist, 8, 3)) == [(3, 2)] * 3

    @pytest.mark.parametrize("a, b", [(-1, 3), (16, 3), (3, 16), (3, -2)])
    def test_fixed_refuses_operands_wider_than_width(self, a, b):
        with pytest.raises(ValueError, match="0..15 for width 4"):
            list(gen_operands(OperandDistribution("fixed", a=a, b=b), 4, 3))

    def test_fixed_requires_operands(self):
        with pytest.raises(ValueError):
            OperandDistribution("fixed", a=3)

    @pytest.mark.parametrize("kind", ["uniform", "sparse", "dense", "exhaustive"])
    @pytest.mark.parametrize("a, b", [(3, None), (None, 5), (3, 5)])
    def test_operands_refused_unless_fixed(self, kind, a, b):
        # another kind would ignore them, so a report could not say what ran
        with pytest.raises(ValueError, match=f"fixed distribution, not '{kind}'"):
            OperandDistribution(kind, a=a, b=b)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            OperandDistribution("gaussian")

    @pytest.mark.parametrize("kind, operands", [
        ("uniform", {}), ("sparse", {}), ("dense", {}), ("exhaustive", {}),
        ("fixed", {"a": 3, "b": 5})])
    def test_negative_seed_refused(self, kind, operands):
        # random.Random seeds with |seed|: -1 would draw seed 1's pairs, and a
        # report would record -1
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            OperandDistribution(kind, seed=-1, **operands)

    def test_trials_guard(self):
        with pytest.raises(ValueError):
            list(gen_operands(OperandDistribution("uniform"), 4, 0))

    @pytest.mark.parametrize("dist, trials, match", [
        (OperandDistribution("exhaustive"), 0, "width 9"),
        (OperandDistribution("fixed", a=512, b=3), 10, "0..511 for width 9"),
        (OperandDistribution("uniform"), 0, "trials"),
        (OperandDistribution("fixed", a=3, b=2), 0, "trials"),
    ], ids=["exhaustive-width", "fixed-operands", "uniform-trials", "fixed-trials"])
    def test_checks_when_called(self, dist, trials, match):
        # refused by the call itself, before any pair is asked for
        with pytest.raises(ValueError, match=match):
            gen_operands(dist, 9, trials)


class TestBiasedDecode:
    """A sparse (dense) multiplier is the AND (OR) of two ``getrandbits(width)``
    draws taken after the multiplicand's; the per-call, bit-by-bit loop of
    ``oracles.biased_operands`` is the reference."""

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    @pytest.mark.parametrize("width", range(1, 33))
    def test_matches_per_call_draws(self, width, kind):
        longest = 40
        for seed in (0, 7, 2**40 + 3):
            expected = biased_operands(seed, width, longest, kind)
            dist = OperandDistribution(kind, seed=seed)
            # a stream is a prefix of every longer stream of the same seed
            for trials in (1, 2, longest - 1, longest):
                assert list(gen_operands(dist, width, trials)) == expected[:trials], \
                    (seed, trials)

    @given(st.integers(0, 2**64), st.integers(1, 32), st.integers(1, 300),
           st.sampled_from(["sparse", "dense"]))
    @settings(max_examples=60, deadline=None)
    def test_random_streams(self, seed, width, trials, kind):
        got = list(gen_operands(OperandDistribution(kind, seed=seed), width, trials))
        assert got == biased_operands(seed, width, trials, kind)

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    @pytest.mark.parametrize("width, trials", [(1, 40960), (4, 12289), (32, 4101), (32, 1)])
    def test_draws_bounded_by_block(self, monkeypatch, width, trials, kind):
        # each pair is its own block of draws: exactly three getrandbits(width)
        # calls, made when the stream reaches the pair, whatever the trial count
        sizes = []

        class Recording(random.Random):
            def getrandbits(self, k):
                sizes.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(random, "Random", Recording)
        stream = gen_operands(OperandDistribution(kind, seed=1), width, trials)
        assert not sizes
        for count, _ in enumerate(stream, 1):
            assert len(sizes) == 3 * count
        assert count == trials and set(sizes) == {width}

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    @pytest.mark.parametrize("width", [1, 4, 8, 32])
    def test_sweep_across_blocks(self, width, kind, monkeypatch):
        # one chunk boundary: each row's ledger is the sum over the per-call
        # stream
        monkeypatch.setattr(harness, "SWEEP_CHUNK", 97)
        trials = 97 + 3
        rows = sweep([width], OperandDistribution(kind, seed=11), trials)
        operands = biased_operands(11, width, trials, kind)
        for row in rows:
            cfg = make_config(row.arch, width)
            totals = ToggleLedger()
            for av, bv in operands:
                totals.add(simulate(Word(av, width), Word(bv, width), cfg).ledger)
            assert row.trials == trials
            assert {k: getattr(row, k) for k in LEDGER_CATEGORIES} == totals.as_dict()

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_bit_probability_is_exact(self, monkeypatch, kind):
        # gen_operands' own recipe over every pair (x, y) of 4-bit draws, each
        # after an a draw: the share of multiplier bits set is exactly P1
        draws = iter([value for x in range(16) for y in range(16) for value in (0, x, y)])

        class Scripted(random.Random):
            def getrandbits(self, k):
                return next(draws)

        monkeypatch.setattr(random, "Random", Scripted)
        pairs = list(gen_operands(OperandDistribution(kind), 4, 256))
        ones = sum(b.bit_count() for _, b in pairs)
        assert Fraction(ones, 4 * 256) == Fraction(BIT_DENSITY[kind])

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_every_bit_biased_at_width_32(self, kind):
        # each multiplier bit is set with probability P1, also where a's bit is
        # set: 0.02 is over four standard deviations at 10,000 pairs
        trials = 20_000
        p1 = BIT_DENSITY[kind]
        pairs = list(gen_operands(OperandDistribution(kind, seed=3), 32, trials))
        for i in range(32):
            bits = [(a >> i & 1, b >> i & 1) for a, b in pairs]
            assert abs(sum(b for _, b in bits) / trials - p1) < 0.02, i
            with_a = [b for a, b in bits if a]
            assert abs(sum(with_a) / len(with_a) - p1) < 0.02, i


@st.composite
def byte_records(draw) -> tuple[bytes, int, list[int], int]:
    """(records, size, positions, count) for ``_bit_slices``: ``count``
    records of 1-12 bytes, and positions in any order, with repeats, gaps
    between byte offsets and bytes of which only some bits are read."""
    size, count = draw(st.integers(1, 12)), draw(st.integers(1, 100))
    records = draw(st.binary(min_size=size * count, max_size=size * count))
    positions = draw(st.lists(st.integers(0, 8 * size - 1), max_size=16 * size))
    return records, size, positions, count


class TestBitSlices:
    """``_bit_slices`` against its definition: bit t of slice k is bit
    ``positions[k]`` of record t, read byte by byte."""

    @given(byte_records())
    @example((bytes(range(100, 112)), 12, [95, 4, 4, 0, 88, 3, 47], 1))
    @example((bytes(range(7, 46)), 3, [23, 0, 17, 17, 5], 13))
    @example((b"\xff" * 64 + bytes(range(64)), 2, list(range(16)), 64))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_bit_reference(self, case):
        records, size, positions, count = case
        expected = [sum((records[t * size + (k >> 3)] >> (k & 7) & 1) << t for t in range(count))
                    for k in positions]
        assert harness._bit_slices(records, size, positions, count) == expected


class TestOperandSlices:
    """The operand slices a sweep decodes from one ``getrandbits`` call per
    chunk, read back per trial against ``gen_operands``' per-call draws."""

    @staticmethod
    def decoded(dist, width, trials) -> list[tuple[int, int]]:
        pairs = []
        for a_slices, b_slices, count in harness._operand_slices(dist, width, trials):
            assert len(a_slices) == len(b_slices) == width
            pairs += zip(decode_slices(a_slices, count), decode_slices(b_slices, count))
        return pairs

    @pytest.mark.parametrize("kind", ["uniform", "sparse", "dense"])
    @pytest.mark.parametrize("width", range(1, 33))
    def test_matches_per_call_draws(self, width, kind, monkeypatch):
        # two full chunks and a short one, of a size that is no multiple of 8
        monkeypatch.setattr(harness, "SWEEP_CHUNK", 21)
        for seed in (0, 2**40 + 3):
            dist = OperandDistribution(kind, seed=seed)
            assert self.decoded(dist, width, 2 * 21 + 5) == list(gen_operands(dist, width, 47))

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_exhaustive_chunks_in_operand_order(self, width, monkeypatch):
        monkeypatch.setattr(harness, "SWEEP_CHUNK", 7)
        dist = OperandDistribution("exhaustive")
        assert self.decoded(dist, width, 0) == list(gen_operands(dist, width, 0))


def carryless_conventional(a: Word, b: Word, cfg) -> SimResult:
    """Test double with the adder's carry chain stuck at zero."""
    acc = 0
    for i in range(cfg.width):
        if (b.value >> i) & 1:
            acc ^= a.value << i
    return SimResult(Word(acc, 2 * cfg.width), ToggleLedger())


def count_words(monkeypatch) -> list[int]:
    """Count the operand ``Word``s the harness builds."""
    built = [0]

    def counting(value, width):
        built[0] += 1
        return Word(value, width)

    monkeypatch.setattr(harness, "Word", counting)
    return built


def counting_engine(monkeypatch) -> list[tuple]:
    """Record the (cost, trials) of each ``run_sliced`` call the harness
    makes, each slice checked to hold no bit beyond its trials."""
    chunks = []
    run_sliced = harness.run_sliced

    def engine(cost, a_slices, b_slices, trials):
        chunks.append((cost, trials))
        assert all(bits < 1 << trials for bits in a_slices + b_slices)
        return run_sliced(cost, a_slices, b_slices, trials)

    monkeypatch.setattr(harness, "run_sliced", engine)
    return chunks


def ledger_columns(rows) -> list[tuple]:
    """Each sweep row's (width, arch, trials, ledger counts)."""
    return [(row.width, row.arch, row.trials, {k: getattr(row, k) for k in LEDGER_CATEGORIES})
            for row in rows]


def per_pair_rows(widths, dist, trials, **costs) -> list[tuple]:
    """``ledger_columns`` of the rows a sweep must emit: the packed kernel's
    ledgers summed over the per-pair stream of ``gen_operands``."""
    rows = []
    for width in widths:
        pairs = list(gen_operands(dist, width, trials))
        for variant in Variant:
            cfg = make_config(variant, width, **costs)
            totals = ToggleLedger()
            for av, bv in pairs:
                totals.add(simulate(Word(av, width), Word(bv, width), cfg).ledger)
            rows.append((width, variant.value, len(pairs), totals.as_dict()))
    return rows


class TestExhaustiveBuilders:
    """The slices ``exhaustive_verify`` checks the engine against, read
    back per trial t = a << width | b without running the engine."""

    @staticmethod
    def check_every_trial(width: int) -> None:
        total, mask = 1 << 2 * width, (1 << width) - 1
        a_slices, b_slices = harness._exhaustive_slices(width)
        assert decode_slices(a_slices, total) == [t >> width for t in range(total)]
        assert decode_slices(b_slices, total) == [t & mask for t in range(total)]
        assert decode_slices(harness._exhaustive_products(width), total) == [
            (t >> width) * (t & mask) for t in range(total)]

    @pytest.mark.parametrize("width", range(1, 9))
    def test_every_trial_and_string_built_slices(self, width):
        self.check_every_trial(width)
        assert harness._exhaustive_slices(width) == string_exhaustive_slices(width)
        assert harness._exhaustive_products(width) == string_exhaustive_products(width)

    def test_lanes_hold_products_above_the_limit(self):
        # lanes are sized from the width: at width 9 a product takes 18 bits
        # and its lane 3 bytes, so no product overlaps the next
        assert harness.EXHAUSTIVE_WIDTH_LIMIT < 9
        self.check_every_trial(9)


class TestExhaustiveVerify:
    def test_width3_all_pass(self):
        outcome = exhaustive_verify(3)
        assert outcome.total_pairs == 64
        assert outcome.passed
        assert outcome.mismatches == []

    def test_width_guard(self, monkeypatch):
        # refused before any operand Word or slice is built, with or without
        # a per-pair runner: above the exhaustive limit, and below 1 by
        # ArchConfig's range check
        built = count_words(monkeypatch)
        monkeypatch.setattr(harness, "_exhaustive_slices", lambda width: built.append(width))
        for width, match in ((9, "width 9"), (0, "1..32, got 0"), (-1, "1..32, got -1")):
            for runners in ({}, {"conventional": simulate}):
                with pytest.raises(ValueError, match=match):
                    exhaustive_verify(width, **runners)
        assert built == [0]

    def test_wraps_each_operand_once(self, monkeypatch):
        # the per-pair path, taken when a runner is passed
        built = count_words(monkeypatch)
        assert exhaustive_verify(4, conventional=run_conventional).passed
        assert built == [16]

    def test_default_path_runs_no_per_pair_kernel(self, monkeypatch):
        built = count_words(monkeypatch)
        calls = []

        def kernel(a, b, cfg):
            calls.append((a, b))
            raise AssertionError("a per-pair kernel ran")

        for module in (harness, packed):
            monkeypatch.setattr(module, "run_conventional", kernel)
            monkeypatch.setattr(module, "run_lowpower", kernel)
        outcome = exhaustive_verify(5)
        assert outcome.passed and outcome.total_pairs == 1024
        assert built == [0] and calls == []

    def test_default_path_builds_no_config(self, monkeypatch):
        # the width's range and the exhaustive limit are still checked, in
        # that order, with no config to check them
        def refuse(*args, **kwargs):
            raise AssertionError("verify built a config")

        monkeypatch.setattr(datapath.ArchConfig, "__new__", refuse)
        monkeypatch.setattr(harness, "make_config", refuse)
        outcome = exhaustive_verify(5)
        assert outcome.passed and outcome.total_pairs == 1024
        for width, match in ((0, "1..32, got 0"), (9, "width 9"), (33, "1..32, got 33")):
            with pytest.raises(ValueError, match=match):
                exhaustive_verify(width)

    def test_default_path_charges_no_ledger(self, monkeypatch):
        def ledger(*args):
            raise AssertionError("verify paid for a ledger")

        monkeypatch.setattr(datapath, "run_sliced", ledger)
        monkeypatch.setattr(datapath, "fixed_charges", ledger)
        outcome = exhaustive_verify(5)
        assert outcome.passed and outcome.total_pairs == 1024

    @pytest.mark.parametrize("width", [3, 8])
    @pytest.mark.parametrize("every_pair", [True, False], ids=["every-pair", "b-bit-1"])
    def test_planted_fault_same_outcome_as_per_pair(self, width, every_pair, monkeypatch):
        # product bit 0 flipped on every pair, or where bit 1 of b is set
        def flipped_runner(a, b, cfg):
            result = simulate(a, b, cfg)
            if every_pair or b.value >> 1 & 1:
                return SimResult(Word(result.product.value ^ 1, 2 * width), result.ledger)
            return result

        def flipped_cycles(a_slices, b_slices):
            # the recurrence, with bit 0 of its final register flipped
            *cycles, (sel, products, carries) = sliced_cycles(a_slices, b_slices)
            flip = (1 << 4**width) - 1 if every_pair else b_slices[1]
            yield from cycles
            yield sel, [products[0] ^ flip, *products[1:]], carries

        expected = exhaustive_verify(width, conventional=flipped_runner, lowpower=flipped_runner)
        assert len(expected.mismatches) == (2 if every_pair else 1) * 4**width
        monkeypatch.setattr(harness, "sliced_cycles", flipped_cycles)
        assert exhaustive_verify(width) == expected

    def test_detects_injected_fault(self):
        outcome = exhaustive_verify(3, conventional=carryless_conventional)
        assert not outcome.passed
        assert all(m.arch == "conv" for m in outcome.mismatches)
        bad = outcome.mismatches[0]
        assert bad.got != bad.expected

    def test_detects_injected_lowpower_fault(self):
        outcome = exhaustive_verify(3, lowpower=carryless_conventional)
        # a carry-less sum differs from the product exactly where a carry occurs
        cfg = make_config(Variant.LOW_POWER, 3)
        words = [Word(v, 3) for v in range(8)]
        expected = [
            harness.Mismatch("lowpower", a.value, b.value, got, a.value * b.value)
            for a in words for b in words
            if (got := carryless_conventional(a, b, cfg).product.value) != a.value * b.value]
        assert expected and outcome.mismatches == expected


class TestSweep:
    def test_fixed_pair_rows(self):
        dist = OperandDistribution("fixed", a=3, b=2)
        rows = sweep([8], dist, 50)
        assert [row.arch for row in rows] == ["conv", "lowpower"]
        conv, low = rows
        assert conv.reduction_pct == 0.0
        assert conv.trials == low.trials == 50
        # one add cycle and seven bypass cycles per run
        assert low.feeder_bypass_clock == 50 * (1 * 9 * 2 + 7 * 1)
        assert low.multiplier_shift == 0

    @pytest.mark.parametrize("dist", [OperandDistribution("uniform", seed=3),
                                      OperandDistribution("fixed", a=1, b=1)])
    def test_repeated_sweep_rows_equal(self, dist):
        # a sweep keeps no state between calls: a total that wrote into a
        # ledger shared between runs would change the second rows
        first = sweep([1, 2, 3, 4], dist, 300)
        assert sweep([1, 2, 3, 4], dist, 300) == first

    def test_reduction_trend_quick(self):
        rows = sweep([4, 8], OperandDistribution("uniform", seed=7), 2500)
        reductions = {row.width: row.reduction_pct for row in rows if row.arch == "lowpower"}
        assert reductions[4] > 0
        assert reductions[8] > reductions[4]

    def test_exhaustive_dist_runs_all_pairs(self):
        rows = sweep([3], OperandDistribution("exhaustive"), 0)
        assert all(row.trials == 64 for row in rows)

    def test_width_caps(self):
        with pytest.raises(ValueError):
            sweep([33], OperandDistribution("uniform"), 10)
        with pytest.raises(ValueError):
            sweep([9], OperandDistribution("exhaustive"), 0)

    @pytest.mark.parametrize("widths", [[4, 33], [0, 4], [4, -1]])
    def test_widths_checked_before_any_operand(self, widths, monkeypatch):
        def no_operands(*args):
            raise AssertionError("operands generated before the widths were checked")

        monkeypatch.setattr(harness, "gen_operands", no_operands)
        monkeypatch.setattr(harness, "_operand_slices", no_operands)
        with pytest.raises(ValueError, match="1..32"):
            sweep(widths, OperandDistribution("uniform"), 10)

    @pytest.mark.parametrize("widths", [[4], [8, 4], [4, 8]])
    def test_fixed_operands_checked_before_any_operand(self, widths, ran):
        with pytest.raises(ValueError, match="for width 4"):
            sweep(widths, OperandDistribution("fixed", a=200, b=3), 10)
        assert ran == []

    def test_block_size_below_one_refused(self):
        with pytest.raises(ValueError, match="block_size must be >= 1"):
            sweep([4], OperandDistribution("uniform"), 10, block_size=0)

    def test_exhaustive_widths_checked_before_any_run(self, ran):
        with pytest.raises(ValueError, match="width 9"):
            sweep([4, 9], OperandDistribution("exhaustive"), 0)
        assert ran == []

    @pytest.mark.parametrize("charged", ["counter_output", "feeder_bypass_clock", "gating"])
    def test_zero_conventional_weights_refused_before_any_run(self, ran, charged):
        # the conventional energy, the baseline of every reduction, would be 0
        weights = {cat: float(cat == charged) for cat in LEDGER_CATEGORIES}
        with pytest.raises(ValueError, match="conventional datapath charges"):
            sweep([4, 16], OperandDistribution("uniform"), 10, PowerModel(weights))
        assert ran == []

    @pytest.mark.parametrize("a, b", [(0, 5), (3, 0)])
    def test_zero_baseline_fixed_pair_refused_before_the_sweep(self, a, b, monkeypatch):
        # the pair never moves the adder, the one weighted category, so its
        # conventional energy, the baseline of the reduction, is 0: refused at
        # the first width, after its one one-trial run and before the next
        chunks = counting_engine(monkeypatch)
        weights = {cat: float(cat == "adder") for cat in LEDGER_CATEGORIES}
        with pytest.raises(ValueError, match=f"no energy at width 4 over 1000 trials of fixed "
                                             f"pair a={a}, b={b} under the power model"):
            sweep([4, 16], OperandDistribution("fixed", a=a, b=b), 1000, PowerModel(weights))
        assert chunks == [(datapath.RingCostModel(), 1)]

    def test_adder_only_model_runs(self):
        weights = {cat: float(cat == "adder") for cat in LEDGER_CATEGORIES}
        rows = sweep([4], OperandDistribution("uniform", seed=1), 50, PowerModel(weights))
        for row in rows:
            assert row.energy == row.adder > 0

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_zero_baseline_width_refused_by_name(self, seed):
        # width 4 runs; the one width-1 pair has a or b = 0, so the adder, the
        # one weighted category, never moves: the refusal names the width,
        # its trials and the model's weighed categories
        dist = OperandDistribution("uniform", seed=seed)
        assert 0 in next(gen_operands(dist, 1, 1))
        weights = {cat: float(cat == "adder") for cat in LEDGER_CATEGORIES}
        with pytest.raises(ValueError, match="no energy at width 1 over 1 trial under the power "
                                             "model, which weighs only adder,"):
            sweep([4, 1], dist, 1, PowerModel(weights))

    def test_wide_sweep_matches_loop_oracle(self):
        # widths above the old random-sweep cap of 16: the report's ledger
        # columns equal the per-cycle loop models' totals on the same operands
        dist = OperandDistribution("uniform", seed=20250811)
        rows = sweep([24, 32], dist, 150)
        for row in rows:
            variant = Variant(row.arch)
            loop = loop_conventional if variant is Variant.CONVENTIONAL else loop_lowpower
            cfg = make_config(variant, row.width)
            totals = ToggleLedger()
            for av, bv in gen_operands(dist, row.width, 150):
                totals.add(loop(Word(av, row.width), Word(bv, row.width), cfg)[0].ledger)
            assert {k: getattr(row, k) for k in LEDGER_CATEGORIES} == totals.as_dict()

    @pytest.mark.parametrize("width", [5, 12, 13])
    def test_chunk_boundaries(self, width, monkeypatch):
        # two full chunks and a short one: the sums equal one pass over the
        # whole, unchunked operand list
        monkeypatch.setattr(harness, "SWEEP_CHUNK", 64)
        dist = OperandDistribution("sparse", seed=4)
        trials = 2 * 64 + 3
        rows = sweep([width], dist, trials)
        assert ledger_columns(rows) == per_pair_rows([width], dist, trials)

    def test_pairs_held_bounded_by_chunk(self, monkeypatch):
        # one run_sliced call per chunk, for both datapaths, and no call and
        # no draw covers more than SWEEP_CHUNK trials, read when the sweep
        # runs, so memory is bounded by the chunk
        chunks, draws = counting_engine(monkeypatch), []

        class Recording(random.Random):
            def getrandbits(self, k):
                draws.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(random, "Random", Recording)
        monkeypatch.setattr(harness, "SWEEP_CHUNK", 100)
        cost = make_config(Variant.LOW_POWER, 3, s=3, g=2).cost
        for kind, words, trials in (("uniform", 2, 203), ("sparse", 3, 203),
                                    ("exhaustive", 0, 64)):
            chunks.clear()
            draws.clear()
            assert sweep([3], OperandDistribution(kind, seed=2), 203, s=3, g=2)[0].trials == trials
            sizes = [100] * (trials // 100) + [trials % 100]
            assert chunks == [(cost, size) for size in sizes], kind
            assert draws == [32 * words * size for size in sizes if words], kind

    def test_builds_no_word(self, monkeypatch):
        # every kind runs on slices alone, a fixed pair too
        built = count_words(monkeypatch)
        for kind in ("uniform", "sparse", "dense"):
            sweep([3, 12, 13], OperandDistribution(kind, seed=8), 50)
        sweep([3], OperandDistribution("exhaustive"), 0)
        sweep([3, 12, 13], OperandDistribution("fixed", a=5, b=6), 50)
        assert built == [0]

    def test_fixed_pair_runs_once_per_architecture(self, monkeypatch):
        # one one-trial pass per width charges both architectures, with the
        # sweep's cost; its counts are each trial's: the rows equal the pair
        # run trials times
        chunks = counting_engine(monkeypatch)
        dist = OperandDistribution("fixed", a=13, b=11)
        rows = sweep([4, 16], dist, 1000, s=3, g=2, block_size=3)
        assert chunks == [(datapath.RingCostModel(3, 2, 3), 1)] * 2
        assert ledger_columns(rows) == per_pair_rows([4, 16], dist, 1000, s=3, g=2,
                                                     block_size=3)

    @given(st.lists(st.integers(1, 32), min_size=1, max_size=3, unique=True),
           st.sampled_from(["uniform", "sparse", "dense"]), st.integers(0, 2**40),
           st.integers(1, 60), st.integers(1, 5), st.integers(0, 4), st.integers(1, 33),
           st.integers(1, 70))
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_per_pair_sums(self, widths, kind, seed, trials, s, g, block_size,
                                      chunk):
        dist = OperandDistribution(kind, seed=seed)
        costs = {"s": s, "g": g, "block_size": block_size}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "SWEEP_CHUNK", chunk)
            rows = sweep(widths, dist, trials, **costs)
        assert ledger_columns(rows) == per_pair_rows(widths, dist, trials, **costs)

    @pytest.mark.parametrize("kind", ["uniform", "exhaustive"])
    def test_planted_fault_in_sliced_cycles_changes_rows(self, kind, monkeypatch):
        # on the last cycle, trial 0's carry-out (the register's top slice) is
        # set where it was 0: trial 0 is 12 x 9 (uniform) or 0 x 0
        # (exhaustive).  The conventional adder and both registers' top slices
        # toggle once more; the low-power adder only on an add cycle, which
        # the last cycle is for b = 9 and not for b = 0
        def flipped_cycles(a_slices, b_slices):
            *cycles, (sel, products, carries) = sliced_cycles(a_slices, b_slices)
            yield from cycles
            yield sel, [*products[:-1], products[-1] | 1], [*carries[:-1], carries[-1] | 1]

        dist = OperandDistribution(kind, seed=6)
        moved = int(kind == "uniform")  # the low-power adder's extra toggle
        assert next(gen_operands(dist, 4, 200)) == ((12, 9) if moved else (0, 0))
        rows = sweep([4], dist, 200)
        assert ledger_columns(rows) == per_pair_rows([4], dist, 200)
        model = PowerModel()  # every weight 1: energy is the ledger's total

        def moved_row(row, adder, energy, reduction):
            return row._replace(partial_product_shift=row.partial_product_shift + 1,
                                adder=row.adder + adder, energy=energy,
                                avg_power=power.average_power(energy, row.trials * 4, model),
                                reduction_pct=reduction)

        conv_energy, low_energy = rows[0].energy + 2, rows[1].energy + 1 + moved
        monkeypatch.setattr(datapath, "sliced_cycles", flipped_cycles)
        assert sweep([4], dist, 200) == [
            moved_row(rows[0], 1, conv_energy, 0.0),
            moved_row(rows[1], moved, low_energy,
                      power.reduction_percent(conv_energy, low_energy))]

    def test_deterministic(self):
        dist = OperandDistribution("uniform", seed=31)
        assert sweep([4], dist, 400) == sweep([4], dist, 400)


class TestRecords:
    """The plain records are named tuples: no generated dataclass code to
    build at import.  They stay immutable, those with a checking constructor
    check a replaced field too, and the report's columns keep their order."""

    RECORDS = [
        datapath.RingCostModel(),
        datapath.ArchConfig(datapath.Variant.LOW_POWER, 4),
        datapath.Register("multiplier", 4, datapath.Clocking.NEVER, None),
        packed.Lanes.build(4),
        datapath.CycleTrace(0, Word(0, 4), 1, Word(3, 4), Word(3, 8)),
        OperandDistribution("uniform"),
        PowerModel(),
        power.AreaInventory(1, 2, 3, 4),
        harness.Mismatch("conv", 1, 2, 3, 2),
        harness.VerifyOutcome(1, 4, []),
        harness.ReportRow(*range(17)),
    ]

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_field_assignment_refused(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 0
        assert record == tuple(record)

    CHECKED = [
        (datapath.RingCostModel(), {"s": 0}, "s must be >= 1"),
        (datapath.RingCostModel(), {"g": -1}, "g must be >= 0"),
        (datapath.RingCostModel(), {"block_size": 0}, "block_size must be >= 1"),
        (datapath.ArchConfig("conv", 4), {"width": 0}, "width must be in 1..32, got 0"),
        (datapath.ArchConfig("conv", 4), {"width": 33}, "width must be in 1..32, got 33"),
        (datapath.ArchConfig("conv", 4), {"variant": "bogus"}, "not a valid Variant"),
        (datapath.ArchConfig("conv", 4), {"cost": datapath.RingCostModel(block_size=5)},
         "block_size 5 exceeds width 4"),
        (OperandDistribution("uniform"), {"kind": "bimodal"}, "unknown distribution kind"),
        (OperandDistribution("uniform"), {"kind": "fixed"}, "needs both a and b"),
        (OperandDistribution("uniform"), {"a": 3}, "operands of the fixed distribution"),
        (OperandDistribution("uniform"), {"seed": -1}, "seed must be >= 0"),
        (PowerModel(), {"weights": {"bogus": 1.0}}, "unknown ledger category"),
        (PowerModel(), {"vdd": 0.0}, "vdd must be finite and > 0"),
        (PowerModel(), {"f_clk": math.inf}, "f_clk must be finite"),
    ]

    @pytest.mark.parametrize("record, change, match", CHECKED, ids=[
        f"{type(record).__name__}-{key}={value!r}"
        for record, change, _ in CHECKED for key, value in change.items()])
    def test_replace_and_make_check_like_the_constructor(self, record, change, match):
        # namedtuple's own _make, which _replace calls, skips __new__ and its checks
        fields = record._asdict() | change
        for build in (lambda: type(record)(**fields), lambda: record._replace(**change),
                      lambda: type(record)._make(fields.values())):
            with pytest.raises(ValueError, match=match):
                build()

    def test_replace_builds_what_the_constructor_builds(self):
        # a replaced power model's weights are completed, as the constructor's are
        replaced = PowerModel()._replace(weights={"adder": 2.0})
        assert replaced == PowerModel({"adder": 2.0})
        assert set(replaced.weights) == set(LEDGER_CATEGORIES)
        assert datapath.RingCostModel()._replace(g=0) == datapath.RingCostModel(2, 0, 4)
        assert OperandDistribution("uniform")._replace(seed=5) == OperandDistribution("uniform", 5)

    def test_report_columns_in_order(self):
        columns = (
            "width", "arch", "trials", "multiplier_shift", "partial_product_shift", "adder",
            "counter_internal", "counter_output", "mux_select", "mux_data",
            "feeder_bypass_clock", "gating", "energy", "avg_power", "flip_flops",
            "full_adders", "reduction_pct")
        assert REPORT_COLUMNS == columns
        row = sweep([4], OperandDistribution("uniform", seed=3), 10)[1]
        assert tuple(row.as_dict()) == columns
        assert list(row.as_dict().values()) == list(row)
        assert type(row.as_dict()) is dict

    def test_verify_outcome_passed(self):
        assert harness.VerifyOutcome(1, 4, []).passed
        assert not harness.VerifyOutcome(1, 4, [harness.Mismatch("conv", 1, 1, 0, 1)]).passed


class TestEmitReport:
    @pytest.fixture
    def rows(self):
        return sweep([4], OperandDistribution("uniform", seed=3), 100)

    def test_csv_line_count(self, rows, tmp_path):
        out = tmp_path / "r.csv"
        emit_report(rows[:1], "csv", out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(REPORT_COLUMNS)

    def test_csv_metadata_comment(self, rows, tmp_path):
        out = tmp_path / "r.csv"
        emit_report(rows, "csv", out, metadata={"rng": "x", "seed": 3})
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "rng=x" in lines[0]
        assert lines[1] == ",".join(REPORT_COLUMNS)

    def test_csv_json_agree_field_for_field(self, rows, tmp_path):
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        emit_report(rows, "csv", csv_path)
        emit_report(rows, "json", json_path)
        header, *body = csv_path.read_text().splitlines()
        parsed = json.loads(json_path.read_text())
        assert header.split(",") == list(REPORT_COLUMNS)
        assert len(body) == len(parsed)
        for line, obj in zip(body, parsed):
            for column, text in zip(REPORT_COLUMNS, line.split(",")):
                value = obj[column]
                if isinstance(value, str):
                    assert text == value
                else:
                    assert float(text) == pytest.approx(value)

    def test_json_metadata_shape(self, rows, tmp_path):
        out = tmp_path / "r.json"
        emit_report(rows, "json", out, metadata={"seed": 3})
        payload = json.loads(out.read_text())
        assert payload["metadata"] == {"seed": 3}
        assert len(payload["rows"]) == len(rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_keeps_previous_report(self, rows, tmp_path, fmt):
        class Unserialisable:
            def __getattr__(self, name):
                raise RuntimeError(f"cannot serialise {name}")

        out = tmp_path / f"r.{fmt}"
        emit_report(rows, fmt, out, metadata={"seed": 3})
        before = out.read_bytes()
        with pytest.raises(RuntimeError, match="cannot serialise"):
            emit_report([rows[0], Unserialisable()], fmt, out)
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [out.name]

    def test_baseline_rows_report_zero_reduction(self, rows):
        assert all(row.reduction_pct == 0.0 for row in rows if row.arch == "conv")

    def test_rejects_empty_rows(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "csv", tmp_path / "r.csv")

    def test_rejects_unknown_format(self, rows, tmp_path):
        with pytest.raises(ValueError):
            emit_report(rows, "xml", tmp_path / "r.xml")

    def test_unwritable_destination(self, rows, tmp_path):
        # the error names the report, not the temporary file beside it
        missing = tmp_path / "no" / "such" / "dir" / "r.csv"
        with pytest.raises(FileNotFoundError) as excinfo:
            emit_report(rows, "csv", missing)
        assert excinfo.value.filename == str(missing)
        assert ".tmp" not in str(excinfo.value)

    def test_destination_naming_a_directory(self, rows, tmp_path):
        # the error names the report, and the temporary file beside it is gone
        destination = tmp_path / "outdir"
        destination.mkdir()
        with pytest.raises(IsADirectoryError) as excinfo:
            emit_report(rows, "csv", destination)
        assert excinfo.value.filename == str(destination)
        assert ".tmp" not in str(excinfo.value)
        assert [p.name for p in tmp_path.iterdir()] == ["outdir"]
        assert list(destination.iterdir()) == []

    def test_emit_is_byte_deterministic(self, tmp_path):
        dist = OperandDistribution("uniform", seed=11)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_report(sweep([4, 8], dist, 300), "csv", first, metadata={"seed": 11})
        emit_report(sweep([4, 8], dist, 300), "csv", second, metadata={"seed": 11})
        assert first.read_bytes() == second.read_bytes()
