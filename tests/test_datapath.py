import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    AdderState,
    decode_slices,
    get_bit,
    loop_conventional,
    loop_lowpower,
    ripple_carry_add,
)

from shiftadd import datapath
from shiftadd.bits import Word
from shiftadd.datapath import (
    CONVENTIONAL_CATEGORIES,
    DEFAULT_BLOCK_SIZE,
    LEDGER_CATEGORIES,
    ArchConfig,
    Lanes,
    RingCostModel,
    SimResult,
    ToggleLedger,
    Variant,
    fixed_charges,
    make_config,
    render_trace,
    run_conventional,
    run_lowpower,
    run_sliced,
    simulate,
    sliced_cycles,
    trace_rows,
)
from shiftadd.power import area_proxy


def operand_pairs(max_width=16):
    return st.integers(1, max_width).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, (1 << n) - 1),
            st.integers(0, (1 << n) - 1),
        )
    )


class TestArchConfig:
    @pytest.mark.parametrize("width", [0, 33])
    def test_width_bounds(self, width):
        with pytest.raises(ValueError):
            ArchConfig(Variant.CONVENTIONAL, width)

    def test_block_size_clamped_by_default(self):
        assert make_config(Variant.LOW_POWER, 3).cost.block_size == 3
        assert make_config(Variant.LOW_POWER, 8).cost.block_size == 4

    def test_given_block_size_clamped_to_width(self):
        assert make_config(Variant.LOW_POWER, 2, block_size=4).cost.block_size == 2
        assert make_config(Variant.LOW_POWER, 8, block_size=3).cost.block_size == 3

    def test_block_size_below_one_refused(self):
        with pytest.raises(ValueError, match="block_size must be >= 1"):
            make_config(Variant.LOW_POWER, 4, block_size=0)

    def test_oversized_block_rejected(self):
        with pytest.raises(ValueError):
            ArchConfig(Variant.LOW_POWER, 3, RingCostModel(block_size=4))

    def test_operand_width_must_match(self):
        cfg = make_config(Variant.CONVENTIONAL, 4)
        with pytest.raises(ValueError):
            run_conventional(Word(0, 3), Word(0, 4), cfg)

    def test_equal_on_variant_width_and_cost_alone(self):
        # a config is its three fields: equal, and hashed alike, to any
        # config of the same fields, however it is built, copied or pickled
        built = make_config(Variant.LOW_POWER, 5, s=3)
        apart = ArchConfig(Variant.LOW_POWER, 5, RingCostModel(3, 1, 4))
        assert apart == built and hash(apart) == hash(built)
        assert apart != make_config(Variant.LOW_POWER, 5, s=2)
        assert apart != make_config(Variant.CONVENTIONAL, 5, s=3)
        assert repr(apart) == ("ArchConfig(variant=<Variant.LOW_POWER: 'lowpower'>, width=5, "
                               "cost=RingCostModel(s=3, g=1, block_size=4))")
        for twin in (copy.copy(built), pickle.loads(pickle.dumps(built))):
            assert twin == built and type(twin) is ArchConfig

    def test_variant_given_by_name(self):
        # a name is stored as its Variant, so the config runs that datapath
        a, b = Word(3, 4), Word(5, 4)
        for variant in Variant:
            cfg = ArchConfig(variant.value, 4)
            assert cfg.variant is variant and cfg == ArchConfig(variant, 4)
            assert area_proxy(cfg) == area_proxy(make_config(variant, 4))
            assert simulate(a, b, cfg) == KERNELS[variant][1](a, b, cfg)[0]
        with pytest.raises(ValueError, match="not a valid Variant"):
            ArchConfig("bogus", 4)

    def test_built_without_per_pair_work(self, monkeypatch):
        # building a config computes nothing the kernel reads: each part
        # raises while the configs are built, and is back for their runs
        def refuse(*args, **kwargs):
            raise AssertionError("kernel work while building a config")

        monkeypatch.setattr(datapath.Lanes, "build", refuse)
        for name in ("fixed_charges", "_add_clock", "simulate"):
            monkeypatch.setattr(datapath, name, refuse)
        cfgs = [ArchConfig(variant, n, RingCostModel(block_size=min(DEFAULT_BLOCK_SIZE, n)))
                for n in range(1, 33) for variant in Variant]
        monkeypatch.undo()
        for cfg in cfgs:
            n = cfg.width
            _, loop = KERNELS[cfg.variant]
            for av, bv in oracle_operands(n, seed=n):
                a, b = Word(av, n), Word(bv, n)
                assert simulate(a, b, cfg) == loop(a, b, cfg)[0], (cfg, av, bv)


class TestConventional:
    def test_worked_example_product(self):
        cfg = make_config(Variant.CONVENTIONAL, 3)
        result = run_conventional(Word(3, 3), Word(2, 3), cfg)
        assert result.product.value == 6
        assert result.product.width == 6
        assert result.cycles == 3
        with pytest.raises(AttributeError):  # half the product's width, not stored
            result.cycles = 4

    def test_worked_example_ledger(self):
        # hand-evaluated cycle by cycle at s=2 (clock charges: B 6/cycle,
        # partial product 14/cycle, counter 4/cycle)
        cfg = make_config(Variant.CONVENTIONAL, 3)
        result = run_conventional(Word(3, 3), Word(2, 3), cfg)
        assert result.ledger == ToggleLedger(
            multiplier_shift=21,
            partial_product_shift=46,
            adder=3,
            counter_internal=16,
            mux_select=2,
            mux_data=4,
        )

    def test_zero_multiplicand_silences_adder(self):
        cfg = make_config(Variant.CONVENTIONAL, 8)
        result = run_conventional(Word(0, 8), Word(0b10110101, 8), cfg)
        assert result.product.value == 0
        assert result.ledger.adder == 0

    def test_max_operands(self):
        cfg = make_config(Variant.CONVENTIONAL, 8)
        assert run_conventional(Word(255, 8), Word(255, 8), cfg).product.value == 65025

    def test_lowpower_categories_stay_zero(self):
        cfg = make_config(Variant.CONVENTIONAL, 6)
        led = run_conventional(Word(45, 6), Word(27, 6), cfg).ledger
        assert led.counter_output == 0
        assert led.feeder_bypass_clock == 0
        assert led.gating == 0

    def test_charges_exactly_conventional_categories(self):
        # every category outside the set stays 0 on every pair; every one in
        # it is charged on some pair (from width 2: a width-1 cycle counter
        # has no flip-flops)
        for n in range(2, 6):
            cfg = make_config(Variant.CONVENTIONAL, n)
            charged = set()
            for av in range(1 << n):
                for bv in range(1 << n):
                    ledger = run_conventional(Word(av, n), Word(bv, n), cfg).ledger
                    charged |= {cat for cat, count in ledger.as_dict().items() if count}
            assert charged == set(CONVENTIONAL_CATEGORIES), n

    def test_trace_selected_bits(self):
        cfg = make_config(Variant.CONVENTIONAL, 5)
        a, b = Word(7, 5), Word(0b10110, 5)
        rows = trace_rows(a, b, cfg)
        for row in rows:
            assert row.selected_bit == get_bit(b, row.cycle)
        assert rows[-1].product_so_far == run_conventional(a, b, cfg).product


class TestLowPower:
    def test_worked_example_trace(self):
        cfg = make_config(Variant.LOW_POWER, 3)
        a, b = Word(3, 3), Word(2, 3)
        result = run_lowpower(a, b, cfg)
        rows = trace_rows(a, b, cfg)
        assert result.product.value == 6
        # the adder fires on cycle 1 only
        assert [row.selected_bit for row in rows] == [0, 1, 0]
        # one-hot counter walks 001, 010, 100
        assert [row.counter_state.value for row in rows] == [1, 2, 4]
        # add cycle: 000 + 011 captured as (carry, sum)
        assert rows[1].running_sum.value == 0b011
        # final high part is zero, low bits are 110
        assert rows[-1].running_sum.value >> 1 == 0
        assert rows[-1].product_so_far == result.product

    def test_worked_example_ledger(self):
        # s=2, g=1, single 3-wide block: ring 3*2 per cycle, feeder 8 on the
        # one add cycle, bypass latch 1 on each of the two bypass cycles
        cfg = make_config(Variant.LOW_POWER, 3)
        result = run_lowpower(Word(3, 3), Word(2, 3), cfg)
        assert result.ledger == ToggleLedger(
            partial_product_shift=3,
            adder=2,
            counter_internal=18,
            counter_output=6,
            mux_select=6,
            mux_data=2,
            feeder_bypass_clock=10,
            gating=3,
        )

    @given(operand_pairs())
    @settings(max_examples=60)
    def test_multiplier_never_shifts(self, args):
        n, av, bv = args
        cfg = make_config(Variant.LOW_POWER, n)
        assert run_lowpower(Word(av, n), Word(bv, n), cfg).ledger.multiplier_shift == 0

    @given(operand_pairs())
    @settings(max_examples=60)
    def test_adder_fires_once_per_set_bit(self, args):
        n, av, bv = args
        cfg = make_config(Variant.LOW_POWER, n)
        a, b = Word(av, n), Word(bv, n)
        result = run_lowpower(a, b, cfg)
        fired = sum(row.selected_bit for row in trace_rows(a, b, cfg))
        assert fired == bv.bit_count()
        s, g = cfg.cost.s, cfg.cost.g
        expected = fired * (n + 1) * s + (result.cycles - fired) * g
        assert result.ledger.feeder_bypass_clock == expected

    def test_power_of_two_multiplier_fires_once(self):
        cfg = make_config(Variant.LOW_POWER, 8)
        rows = trace_rows(Word(0b10110111, 8), Word(16, 8), cfg)
        assert sum(row.selected_bit for row in rows) == 1

    def test_zero_multiplier_never_adds(self):
        cfg = make_config(Variant.LOW_POWER, 8)
        result = run_lowpower(Word(201, 8), Word(0, 8), cfg)
        assert result.ledger.adder == 0
        assert result.product.value == 0

    def test_trace_selected_bits(self):
        cfg = make_config(Variant.LOW_POWER, 5)
        b = Word(0b10110, 5)
        for row in trace_rows(Word(19, 5), b, cfg):
            assert row.selected_bit == get_bit(b, row.cycle)


COSTS = [(2, 1), (3, 0), (1, 2)]


KERNELS = {
    Variant.CONVENTIONAL: (run_conventional, loop_conventional),
    Variant.LOW_POWER: (run_lowpower, loop_lowpower),
}


class TestFixedCharges:
    @pytest.mark.parametrize("n", range(1, 33))
    def test_closed_forms_match_oracle_replay(self, n):
        # with a = b = 0 nothing data-dependent moves: the operand-free
        # charges are the whole ledger of the run 0 x 0, in the packed kernel
        # and the loop oracles alike
        zero = Word(0, n)
        for s, g in COSTS:
            for bsz in range(1, n + 1):
                for variant, (packed, loop) in KERNELS.items():
                    cfg = make_config(variant, n, s=s, g=g, block_size=bsz)
                    case = (variant, n, bsz, s, g)
                    assert fixed_charges(cfg) == loop(zero, zero, cfg)[0].ledger, case
                    assert fixed_charges(cfg) == packed(zero, zero, cfg).ledger, case

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 32])
    def test_sliced_all_zero_trials(self, n):
        # T runs of 0 x 0 charge T times the operand-free charges, no more
        trials = 7
        for s, g in COSTS:
            cost = make_config(Variant.CONVENTIONAL, n, s=s, g=g).cost
            products, ledgers = run_sliced(cost, [0] * n, [0] * n, trials)
            assert products == [0] * (2 * n)
            assert len(ledgers) == len(Variant)
            for variant, ledger in zip(Variant, ledgers):
                cfg = ArchConfig(variant, n, cost)
                assert ledger.as_dict() == {
                    k: trials * v for k, v in fixed_charges(cfg).as_dict().items()}, (
                    variant, n, s, g)

    def test_cached_per_config(self, monkeypatch):
        # computed on a config's first kernel call, not when it is built, and
        # once for every config of the same value
        calls = []
        monkeypatch.setattr(datapath, "fixed_charges",
                            lambda cfg: calls.append(cfg) or fixed_charges(cfg))
        datapath._packed.cache_clear()
        for variant, (packed, loop) in KERNELS.items():
            cfg = ArchConfig(variant, 9, RingCostModel(13, 11, 4))
            assert calls == []
            for av, bv in oracle_operands(9, seed=9):
                a, b = Word(av, 9), Word(bv, 9)
                assert packed(a, b, ArchConfig(*cfg)) == loop(a, b, cfg)[0], (variant, av, bv)
                assert calls == [cfg]
            calls.clear()


def oracle_operands(n, seed):
    full = (1 << n) - 1
    rng = random.Random(seed)
    return [(0, 0), (full, full), (0, full), (full, 0)] + [
        (rng.getrandbits(n), rng.getrandbits(n)) for _ in range(4)
    ]


class TestAgainstLoopOracle:
    """The packed kernel and ``trace_rows`` against the per-cycle loops they
    replaced: equal products, ledgers, cycle counts and every ``CycleTrace``
    field of the loops' own rows."""

    @pytest.mark.parametrize("n", range(1, 33))
    def test_grid(self, n):
        for bsz in sorted({1, min(4, n), n}):
            for s, g in COSTS:
                for variant, (packed, loop) in KERNELS.items():
                    cfg = make_config(variant, n, s=s, g=g, block_size=bsz)
                    for av, bv in oracle_operands(n, seed=n):
                        a, b = Word(av, n), Word(bv, n)
                        expected, rows = loop(a, b, cfg)
                        case = (variant, n, bsz, s, g, av, bv)
                        assert packed(a, b, cfg) == expected, case
                        assert trace_rows(a, b, cfg) == rows, case

    @given(operand_pairs(max_width=32), st.sampled_from(list(Variant)))
    @settings(max_examples=200)
    def test_random(self, args, variant):
        n, av, bv = args
        packed, loop = KERNELS[variant]
        cfg = make_config(variant, n)
        a, b = Word(av, n), Word(bv, n)
        expected, rows = loop(a, b, cfg)
        assert packed(a, b, cfg) == expected
        assert trace_rows(a, b, cfg) == rows

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("n", [3, 4, 5, 9, 32])
    def test_every_kernel_name_runs_the_configs_datapath(self, n, variant):
        # one kernel under three names: each runs cfg's own datapath
        cfg = make_config(variant, n)
        loop = KERNELS[variant][1]
        for av, bv in oracle_operands(n, seed=n):
            a, b = Word(av, n), Word(bv, n)
            expected = loop(a, b, cfg)[0]
            for kernel in (run_conventional, run_lowpower, simulate):
                assert kernel(a, b, cfg) == expected, (kernel.__name__, av, bv)

    @pytest.mark.parametrize("n", range(1, 33))
    def test_lowpower_fill_edges(self, n):
        # no add lane; one add lane on top, below the longest run of lanes
        # holding the reset state; one add lane at the bottom, below the
        # longest run of lanes filled from it
        cfg = make_config(Variant.LOW_POWER, n)
        for bv in (0, 1 << (n - 1), 1):
            for av in (1, (1 << n) - 1):
                a, b = Word(av, n), Word(bv, n)
                expected, rows = loop_lowpower(a, b, cfg)
                assert run_lowpower(a, b, cfg) == expected, (n, av, bv)
                assert trace_rows(a, b, cfg) == rows, (n, av, bv)

    def test_lanes_closed_forms(self):
        # the closed forms against the constants as sums over the n cycles
        for n in range(1, 33):
            L = 2 * n + 1
            cycles = range(n)
            assert Lanes.build(n) == (
                L,
                sum(1 << 2 * n * i for i in cycles),
                sum(((2 << i) - 1) << 2 * n * i for i in cycles),
                sum(1 << L * i for i in cycles),
                sum(((1 << n) - 1) << L * i for i in cycles),
                sum(((1 << n) - 1) << L * i + n for i in cycles),
                sum(((2 << n) - 1) << L * i for i in cycles),
                (1 << L * n) - 1,
                # lane i moved down n - 1 bits, lane 0 cut at bit 0
                sum(((1 << L) - 1) << L * i >> (n - 1) for i in cycles),
                2 * n * (n - 1),
            ), n


def kernel_equals_loop(cfg, b_values, a_values):
    """Assert the kernel's result equals the loop oracle's for each
    multiplier of ``b_values`` and multiplicand of ``a_values``."""
    n = cfg.width
    packed, loop = KERNELS[cfg.variant]
    for bv in b_values:
        for av in a_values:
            a, b = Word(av, n), Word(bv, n)
            assert packed(a, b, cfg) == loop(a, b, cfg)[0], (cfg, av, bv)


class TestPlanTables:
    """B's part of a run, which ``simulate`` computes on each call from the
    multiplier alone (adder masks, fill, toggle window and the charges in b
    alone), checked through the kernel against the loop oracles: for every
    b at small widths, on configs that differ in one field."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_configs_differing_in_costs_keep_their_own_plans(self, n):
        # every config at one width, called in turn on each pair, twice: a
        # part computed with another config's numbers shows
        cfgs = [make_config(variant, n, s=s, g=g, block_size=bsz)
                for variant in Variant for s, g in COSTS for bsz in sorted({1, n})]
        operands = oracle_operands(n, seed=n) + [(av, 1) for av in range(1 << min(n, 3))]
        for _ in range(2):
            for av, bv in operands:
                a, b = Word(av, n), Word(bv, n)
                for cfg in cfgs:
                    packed, loop = KERNELS[cfg.variant]
                    assert packed(a, b, cfg) == loop(a, b, cfg)[0], (cfg, av, bv)

    def test_plan_equals_plan_function(self):
        # every b at widths 1-8, under every COSTS entry
        for n in range(1, 8 + 1):
            for variant in Variant:
                for s, g in COSTS:
                    kernel_equals_loop(make_config(variant, n, s=s, g=g), range(1 << n),
                                 [(1 << n) - 1])

    @pytest.mark.parametrize("variant", list(Variant))
    def test_plan_tabled_up_to_limit(self, variant):
        # at every width, b = all ones
        for n in range(1, 33):
            kernel_equals_loop(make_config(variant, n), [(1 << n) - 1], [1, (1 << n) - 1])

    @pytest.mark.parametrize("name", ["plan", "constants"])
    def test_built_constants_frozen(self, name):
        # a config carries nothing built for the kernel, and nothing can be
        # attached to it: the kernel keeps what it builds per config itself
        cfg = make_config(Variant.LOW_POWER, 4)
        assert not hasattr(cfg, name)
        with pytest.raises(AttributeError):
            setattr(cfg, name, None)
        assert not hasattr(cfg, "__dict__")  # slotted: nothing to add either
        kernel_equals_loop(cfg, range(16), range(16))

    def test_constants_shared_by_config_value(self):
        # make_config gives equal configs however the value is spelled; a
        # config that differs in any field is unequal and runs on its own
        # constants
        first = make_config(Variant.LOW_POWER, 8, s=3)
        assert make_config("lowpower", 8, s=3) == first
        assert make_config(Variant.LOW_POWER, 8, s=3, g=1, block_size=DEFAULT_BLOCK_SIZE) == first
        assert make_config("conv", 3) == make_config(Variant.CONVENTIONAL, 3, block_size=3)
        configs = [first,
                   make_config(Variant.CONVENTIONAL, 8, s=3),
                   make_config(Variant.LOW_POWER, 7, s=3),
                   make_config(Variant.LOW_POWER, 8, s=2),
                   make_config(Variant.LOW_POWER, 8, s=3, g=0),
                   make_config(Variant.LOW_POWER, 8, s=3, block_size=2)]
        for i, cfg in enumerate(configs):
            for other in configs[i + 1:]:
                assert other != cfg
            n = cfg.width
            for av, bv in oracle_operands(n, seed=n):
                kernel_equals_loop(cfg, [bv], [av])

    @pytest.mark.parametrize("n", [1, 2, 9, 32])
    def test_kernel_constants_from_lanes_and_charges(self, n):
        # the lane constants, toggle window and fixed charges the kernel
        # reads per config, at a cost no other grid uses
        for variant in Variant:
            cfg = make_config(variant, n, s=3, g=2)
            for av, bv in oracle_operands(n, seed=n):
                kernel_equals_loop(cfg, [bv], [av])

    @pytest.mark.parametrize("n", range(1, 8 + 1))
    def test_adder_masks_are_the_add_lanes(self, n):
        # every conventional lane adds; the low-power adder moves on the
        # lanes of b's 1 bits alone.  Every b, against a multiplicand of 1,
        # whose adds set off no carry
        for variant in Variant:
            kernel_equals_loop(make_config(variant, n), range(1 << n), [1])


class TestFillSchedule:
    """The low-power kernel's forward fill: each bypass lane takes the
    adder state of the nearest add lane below it, those below the first
    add lane the reset state.  Checked through the kernel against the loop
    oracle on gap patterns: every b up to width 8; above it a run of gaps
    below and above one add lane, of each length about a power of two, where
    the fill's doubling reach ends."""

    @pytest.mark.parametrize("n", range(1, 33))
    def test_schedule(self, n):
        cfg = make_config(Variant.LOW_POWER, n)
        full = (1 << n) - 1
        rng = random.Random(n)
        runs = {r + d for r in (1 << j for j in range(6)) for d in (-1, 0, 1)} & set(range(n))
        values = range(1 << n) if n <= 8 else sorted(
            {0, full, full - 1, full // 3, full // 5, rng.getrandbits(n)}
            | {1 | 1 << r for r in runs} | {1 << r for r in runs})
        kernel_equals_loop(cfg, values, [full])


class TestResultTables:
    """Every (a, b) result at widths where all 4**n pairs are few, each
    computed by the kernel on its call: no config holds a result."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_entries_equal_oracle_and_traced_kernel(self, n):
        for variant, (packed, loop) in KERNELS.items():
            for s, g in COSTS:
                for bsz in sorted({1, n}):
                    cfg = make_config(variant, n, s=s, g=g, block_size=bsz)
                    for av in range(1 << n):
                        for bv in range(1 << n):
                            a, b = Word(av, n), Word(bv, n)
                            expected, _ = loop(a, b, cfg)
                            assert packed(a, b, cfg) == expected, (variant, n, s, g, av, bv)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_operand_width_checked_before_lookup(self, variant, n):
        # the kernel and trace_rows check the widths before they read a lane
        packed, _ = KERNELS[variant]
        cfg = make_config(variant, n)
        for run in (packed, trace_rows):
            for a, b in ((Word(0, n + 1), Word(0, n)), (Word(0, n), Word(1, n + 1))):
                with pytest.raises(ValueError, match="do not match config width"):
                    run(a, b, cfg)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_shared_entry_unchanged_by_caller_totals(self, variant):
        # summing a result's ledger into a caller's total changes nothing
        # the next call of the pair returns
        cfg = make_config(variant, 4)
        a, b = Word(11, 4), Word(13, 4)
        first = simulate(a, b, cfg)
        before = SimResult(first.product, ToggleLedger(**first.ledger.as_dict()))
        total = ToggleLedger()
        total.add(first.ledger)
        total.add(first.ledger)
        second = simulate(a, b, cfg)
        assert second == before
        assert total.as_dict() == {k: 2 * v for k, v in before.ledger.as_dict().items()}

    @pytest.mark.parametrize("variant", list(Variant))
    def test_shared_entry_refuses_changes(self, variant):
        # no result is shared between calls: each is the caller's own, so
        # changing it, or adding into its ledger, changes nothing the next
        # call of the pair returns
        cfg = make_config(variant, 4)
        a, b = Word(3, 4), Word(5, 4)
        first = simulate(a, b, cfg)
        before = SimResult(first.product, ToggleLedger(**first.ledger.as_dict()))
        first.product = Word(0, 8)
        first.ledger.adder += 1000
        first.ledger.add(before.ledger)
        assert first.ledger.adder == 2 * before.ledger.adder + 1000
        second = simulate(a, b, cfg)
        assert second is not first and second.ledger is not first.ledger
        assert second == before


class TestLedgerAdd:
    def test_adds_every_category(self):
        total = ToggleLedger(*range(1, len(LEDGER_CATEGORIES) + 1))
        total.add(ToggleLedger(*(10 * k for k in range(1, len(LEDGER_CATEGORIES) + 1))))
        assert list(total.as_dict().values()) == [
            11 * k for k in range(1, len(LEDGER_CATEGORIES) + 1)]

    def test_equal_where_every_count_is(self):
        counts = dict(zip(LEDGER_CATEGORIES, range(1, len(LEDGER_CATEGORIES) + 1)))
        ledger = ToggleLedger(**counts)
        assert ledger == ToggleLedger(*counts.values())
        for category in LEDGER_CATEGORIES:
            assert ledger != ToggleLedger(**counts | {category: 0}), category
        assert ledger != tuple(counts.values())
        with pytest.raises(TypeError):  # mutable, so no hash
            hash(ledger)
        assert repr(ledger) == "ToggleLedger(" + ", ".join(
            f"{category}={count}" for category, count in counts.items()) + ")"
        assert ToggleLedger.__slots__ == LEDGER_CATEGORIES


class TestEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small_widths(self, n):
        conv = make_config(Variant.CONVENTIONAL, n)
        low = make_config(Variant.LOW_POWER, n)
        for av in range(1 << n):
            for bv in range(1 << n):
                a, b = Word(av, n), Word(bv, n)
                assert run_conventional(a, b, conv).product.value == av * bv
                assert run_lowpower(a, b, low).product.value == av * bv

    @given(operand_pairs(max_width=16))
    @settings(max_examples=80)
    def test_random_wide(self, args):
        n, av, bv = args
        a, b = Word(av, n), Word(bv, n)
        conv = run_conventional(a, b, make_config(Variant.CONVENTIONAL, n))
        low = run_lowpower(a, b, make_config(Variant.LOW_POWER, n))
        assert conv.product.value == low.product.value == av * bv

    @pytest.mark.parametrize("n", [5, 8, 9, 32])
    def test_computed_product_is_a_whole_word(self, n):
        # the kernel builds its product Word without its checks; it must
        # still be the Word the constructor gives, equal, hashed alike and frozen
        full = (1 << n) - 1
        for variant, (packed, _) in KERNELS.items():
            cfg = make_config(variant, n)
            for av, bv in [(full, full), (0, full), (full, 1), (5, 3), (1 << (n - 1), full)]:
                product = packed(Word(av, n), Word(bv, n), cfg).product
                expected = Word(av * bv, 2 * n)
                assert product == expected and hash(product) == hash(expected)
                with pytest.raises(AttributeError):
                    product.value = 0

    def test_determinism(self):
        a, b = Word(173, 8), Word(94, 8)
        for variant in Variant:
            cfg = make_config(variant, 8)
            assert simulate(a, b, cfg) == simulate(a, b, cfg)
            assert trace_rows(a, b, cfg) == trace_rows(a, b, cfg)


def to_slices(values, width):
    """Slice j of ``values``: bit t is bit j of ``values[t]``."""
    return [int("".join(str(v >> j & 1) for v in reversed(values)), 2) for j in range(width)]


def per_pair_sums(cfg, pairs, loop=False):
    """The product slices of ``pairs`` and their summed ledger, from the
    per-pair packed kernel, or from the loop oracles if ``loop``."""
    n = cfg.width
    total = ToggleLedger()
    products = []
    for av, bv in pairs:
        a, b = Word(av, n), Word(bv, n)
        result = KERNELS[cfg.variant][1](a, b, cfg)[0] if loop else simulate(a, b, cfg)
        total.add(result.ledger)
        products.append(result.product.value)
    return to_slices(products, 2 * n), total


def sliced(n, pairs, s=2, g=1, block_size=DEFAULT_BLOCK_SIZE):
    """The configs of both datapaths at width ``n`` under one cost, in
    ``Variant`` order, and one ``run_sliced`` call's product slices and
    ledgers for ``pairs``."""
    configs = [make_config(variant, n, s=s, g=g, block_size=block_size) for variant in Variant]
    products, ledgers = run_sliced(configs[0].cost, to_slices([a for a, _ in pairs], n),
                                   to_slices([b for _, b in pairs], n), len(pairs))
    assert len(ledgers) == len(Variant)
    return configs, products, ledgers


class TestSlicedEngine:
    """``run_sliced`` over many pairs at once, both datapaths from one call,
    against the per-pair packed kernels, and over every pair up to width 5
    against the loop oracles, which share no code with either: equal product
    slices and summed ledgers."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_pair(self, n):
        pairs = list(itertools.product(range(1 << n), repeat=2))
        costs = [(2, 1, DEFAULT_BLOCK_SIZE)]
        if n <= 5:
            costs += [(s, g, bsz) for s, g in COSTS for bsz in sorted({1, min(4, n), n})]
        # the loop oracles run the whole grid up to width 4, the default cost at 5
        loop_costs = costs if n <= 4 else costs[:1] if n == 5 else []
        for s, g, bsz in costs:
            configs, products, ledgers = sliced(n, pairs, s, g, bsz)
            for cfg, ledger in zip(configs, ledgers):
                got = [products, ledger]
                assert got == list(per_pair_sums(cfg, pairs)), (cfg.variant, n, s, g, bsz)
                if (s, g, bsz) in loop_costs:
                    assert got == list(per_pair_sums(cfg, pairs, loop=True)), (
                        "loop", cfg.variant, n, s, g, bsz)

    @given(st.integers(1, 32).flatmap(lambda n: st.tuples(
               st.just(n),
               st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
                        min_size=1, max_size=40),
               st.integers(1, 5), st.integers(0, 5), st.integers(1, n))))
    @settings(max_examples=100, deadline=None)
    def test_random_pair_lists(self, args):
        n, pairs, s, g, bsz = args
        configs, products, ledgers = sliced(n, pairs, s, g, bsz)
        for cfg, ledger in zip(configs, ledgers):
            assert [products, ledger] == list(per_pair_sums(cfg, pairs)), cfg.variant

    @pytest.mark.parametrize("n", range(1, 33))
    def test_shared_slices_equal_register_popcounts(self, n):
        # the identities the one pass charges the registers by, against the
        # per-cycle popcounts of the register slices on random trials: the
        # low half only shifts settled product bits down, and the top n + 1
        # slices are the adder's sums and carry-out
        trials = 300
        rng = random.Random(n)
        cycles = sliced_cycles([rng.getrandbits(trials) for _ in range(n)],
                               [rng.getrandbits(trials) for _ in range(n)])
        before = state = [0] * (2 * n)  # the register, and the adder's sums and carries
        low_half = 0
        for _, reg, carries in cycles:
            signals = reg[n - 1:2 * n - 1] + carries
            toggles = [(x ^ y).bit_count() for x, y in zip(state, signals)]
            register = [(x ^ y).bit_count() for x, y in zip(before, reg)]
            assert register[n - 1:] == toggles[:n] + toggles[-1:]
            low_half += sum(register[:n - 1])
            before, state = reg, signals
        assert low_half == (n - 1) * reg[0].bit_count() + sum(
            (n - 2 - m) * (reg[m] ^ reg[m + 1]).bit_count() for m in range(n - 2))


class TestSlicedCycles:
    """``sliced_cycles``, the one recurrence ``exhaustive_verify`` runs for
    both datapaths, read back per trial after every cycle against both loop
    oracles' rows and a ripple-carry adder."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_pair_every_cycle(self, n):
        pairs = list(itertools.product(range(1 << n), repeat=2))
        trials = len(pairs)
        rows = [[loop(Word(av, n), Word(bv, n), make_config(variant, n))[1]
                 for av, bv in pairs] for variant, (_, loop) in KERNELS.items()]
        cycles = sliced_cycles(to_slices([a for a, _ in pairs], n),
                               to_slices([b for _, b in pairs], n))
        before = [0] * trials
        for i, (sel, reg, carries) in enumerate(cycles):
            after = decode_slices(reg, trials)
            for t, ((av, bv), x, value, carry) in enumerate(zip(
                    pairs, before, after, decode_slices(carries, trials))):
                assert sel >> t & 1 == bv >> i & 1
                # the chain sums the register's top half and A & B_i, and the
                # register takes (carry : sum : low half) shifted right by one
                addend = av if bv >> i & 1 else 0
                total, cout, _, state = ripple_carry_add(
                    AdderState.zero(n), Word(x >> n, n), Word(addend, n))
                assert carry == state.carry_bits.value
                assert value >> n - 1 == cout << n | total.value
                for variant_rows in rows:
                    row = variant_rows[t][i]
                    assert value >> n - 1 == row.running_sum.value, (i, av, bv)
                    assert value == row.product_so_far.value << n - 1 - i, (i, av, bv)
            before = after
        assert i == n - 1
        assert before == [a * b for a, b in pairs]


class TestRenderTrace:
    def test_worked_example_layout(self):
        cfg = make_config(Variant.LOW_POWER, 3)
        a, b = Word(3, 3), Word(2, 3)
        text = render_trace(a, b, cfg)
        lines = text.splitlines()
        assert lines[0] == "A -> 011  (3)"
        assert lines[1] == "B -> 010  (2)"
        assert "B(0)=0  000" in lines[3]
        assert "B(1)=1  011" in lines[4]
        assert "B(2)=0  000" in lines[5]
        assert lines[-1] == "Answer -> 000110  (6)"
