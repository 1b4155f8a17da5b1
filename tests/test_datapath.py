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
    _conventional_plan,
    _lowpower_plan,
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
        # a config built apart from make_config's shared one is equal to it,
        # though its built constants are other objects
        shared = make_config(Variant.LOW_POWER, 5, s=3)
        apart = ArchConfig(Variant.LOW_POWER, 5, RingCostModel(3, 1, 4))
        assert apart is not shared and apart.constants is not shared.constants
        assert apart == shared and hash(apart) == hash(shared)
        assert apart != make_config(Variant.LOW_POWER, 5, s=2)
        assert apart != make_config(Variant.CONVENTIONAL, 5, s=3)
        assert apart != (Variant.LOW_POWER, 5, RingCostModel(3, 1, 4))
        assert repr(apart) == ("ArchConfig(variant=<Variant.LOW_POWER: 'lowpower'>, width=5, "
                               "cost=RingCostModel(s=3, g=1, block_size=4))")
        for twin in (copy.copy(shared), pickle.loads(pickle.dumps(shared))):
            assert twin == shared and twin.constants == shared.constants

    def test_built_without_per_pair_work(self):
        # building a config runs no multiplication and computes no plan:
        # each raises while the configs are built.  Their code is swapped,
        # not their names, so a config keeps the plan function it bound and
        # runs once the code is back
        def refuse(*args, **kwargs):
            raise AssertionError("per-pair work while building a config")

        functions = (datapath.simulate, datapath._conventional_plan, datapath._lowpower_plan)
        saved = [function.__code__ for function in functions]
        for function in functions:
            function.__code__ = refuse.__code__
        try:
            cfgs = [ArchConfig(variant, n, RingCostModel(block_size=min(DEFAULT_BLOCK_SIZE, n)))
                    for n in range(1, 33) for variant in Variant]
        finally:
            for function, code in zip(functions, saved):
                function.__code__ = code
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
            for variant in Variant:
                cfg = make_config(variant, n, s=s, g=g)
                products, ledger = run_sliced(cfg, [0] * n, [0] * n, trials)
                assert products == [0] * (2 * n)
                assert ledger.as_dict() == {
                    k: trials * v for k, v in fixed_charges(cfg).as_dict().items()}, (
                    variant, n, s, g)

    def test_cached_per_config(self, monkeypatch):
        # computed when the config is built, not on a kernel call
        calls = []
        monkeypatch.setattr(datapath, "fixed_charges",
                            lambda cfg: calls.append(cfg) or fixed_charges(cfg))
        for variant in Variant:
            cfg = ArchConfig(variant, 9, RingCostModel(13, 11, 4))
            assert calls == [cfg]
            simulate(Word(511, 9), Word(511, 9), cfg)
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
        # one kernel under three names: each runs cfg's own datapath, from
        # the result table (n <= 4) or computed
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


def unbound_plan(cfg, bv):
    """``cfg``'s plan for ``bv``, from its plan function called with the
    numbers ``Lanes.build``, ``fixed_charges`` and the cost model give."""
    n, cost, lanes, fixed = cfg.width, cfg.cost, Lanes.build(cfg.width), fixed_charges(cfg)
    shared = (n, lanes.copies, lanes.prefixes, lanes.low, lanes.carries)
    if cfg.variant is Variant.CONVENTIONAL:
        return _conventional_plan(*shared, fixed.multiplier_shift, bv)
    # the feeder/bypass storage, n + 1 flip-flops, is clocked on add cycles;
    # its clock gate, switching on bypass cycles instead, charges g on every
    # cycle of the run 0 x 0, and an add cycle s * (n + 1) - g more
    return _lowpower_plan(*shared, lanes.selects, lanes.lanes, fixed.mux_select,
                          fixed.feeder_bypass_clock, (n + 1) * cost.s - cost.g, bv)


class TestPlanTables:
    """Per-config multiplier plans, read through ``cfg.plan``, the plan
    function bound to the config's numbers: a plan must be the one its plan
    function computes for that config."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_configs_differing_in_costs_keep_their_own_plans(self, n):
        # every config at one width, called in turn on each pair, twice: a
        # plan computed with another config's numbers shows
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
        # the bound plan function gives what the plan function does, for every b
        for n in range(1, 8 + 1):
            for variant in Variant:
                for s, g in COSTS:
                    cfg = make_config(variant, n, s=s, g=g)
                    for bv in range(1 << n):
                        assert cfg.plan(bv) == unbound_plan(cfg, bv), (variant, n, s, g, bv)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_plan_tabled_up_to_limit(self, variant):
        # at every width, the plan of b = all ones is the plan function's
        for n in range(1, 33):
            cfg = make_config(variant, n)
            bv = (1 << n) - 1
            assert cfg.plan(bv) == unbound_plan(cfg, bv), n

    @pytest.mark.parametrize("name", ["plan", "constants"])
    def test_built_constants_frozen(self, name):
        cfg = make_config(Variant.LOW_POWER, 4)
        with pytest.raises(AttributeError):
            setattr(cfg, name, getattr(cfg, name))
        with pytest.raises(AttributeError):
            delattr(cfg, name)
        assert not hasattr(cfg, "__dict__")  # slotted: nothing to add either

    def test_constants_shared_by_config_value(self):
        # make_config returns one config per value however it is spelled, so
        # a caller that asks for a config per run reuses its constants
        first = make_config(Variant.LOW_POWER, 8, s=3)
        assert make_config("lowpower", 8, s=3) is first
        assert make_config(Variant.LOW_POWER, 8, s=3, g=1,
                           block_size=DEFAULT_BLOCK_SIZE) is first
        assert make_config("conv", 3) is make_config(Variant.CONVENTIONAL, 3, block_size=3)
        # a config that differs in any field is its own, with its own constants
        configs = [first,
                   make_config(Variant.CONVENTIONAL, 8, s=3),
                   make_config(Variant.LOW_POWER, 7, s=3),
                   make_config(Variant.LOW_POWER, 8, s=2),
                   make_config(Variant.LOW_POWER, 8, s=3, g=0),
                   make_config(Variant.LOW_POWER, 8, s=3, block_size=2)]
        for i, cfg in enumerate(configs):
            for other in configs[i + 1:]:
                assert other is not cfg and other != cfg
                assert other.plan is not cfg.plan
                assert other.constants is not cfg.constants

    @pytest.mark.parametrize("n", [1, 2, 9, 32])
    def test_kernel_constants_from_lanes_and_charges(self, n):
        # one layout for both datapaths, in the order the kernel unpacks it;
        # they differ in the toggle window: the whole conventional register,
        # or the low-power feeder
        lanes = Lanes.build(n)
        for variant, window in ((Variant.CONVENTIONAL, lanes.register),
                                (Variant.LOW_POWER, lanes.running)):
            cfg = make_config(variant, n, s=3, g=2)
            fixed = fixed_charges(cfg)
            assert cfg.constants == (
                lanes.L, lanes.L - 1, n - 1, lanes.running, window, lanes.lanes, lanes.top,
                fixed.partial_product_shift, fixed.counter_internal, fixed.counter_output,
                fixed.gating), variant

    @pytest.mark.parametrize("n", range(1, 8 + 1))
    def test_adder_masks_are_the_add_lanes(self, n):
        # every conventional lane adds: its plan's adder masks are the
        # config's own and it fills nothing.  The low-power masks keep the
        # lanes of b's 1 bits alone
        lanes = Lanes.build(n)
        conv, low = (make_config(variant, n) for variant in Variant)
        for bv in range(1 << n):
            _, low_mask, carries, fill, *_ = conv.plan(bv)
            assert (low_mask, carries, fill) == (lanes.low, lanes.carries, ()), (n, bv)
            fired = lane_mask(n, [i for i in range(n) if bv >> i & 1])
            assert low.plan(bv)[1:3] == (lanes.low & fired, lanes.carries & fired), (n, bv)


def lane_mask(n, indices):
    L = 2 * n + 1
    return sum(((1 << L) - 1) << L * i for i in indices)


class TestFillSchedule:
    """The low-power plan's forward-fill schedule: mask k holds the lanes
    that the step by L << k fills, those 2**k or more lanes above the
    nearest add lane at or below them."""

    @staticmethod
    def expected(n, bv):
        # each lane's distance to the nearest add lane at or below it; None
        # below the first add lane, whose lanes hold the reset state
        distance, last = [], None
        for i in range(n):
            if bv >> i & 1:
                last = i
            distance.append(None if last is None else i - last)
        schedule = []
        while mask := lane_mask(n, [i for i, d in enumerate(distance)
                                    if d is not None and d >= 1 << len(schedule)]):
            schedule.append(mask)
        return tuple(schedule)

    @pytest.mark.parametrize("n", range(1, 33))
    def test_schedule(self, n):
        cfg = make_config(Variant.LOW_POWER, n)
        rng = random.Random(n)
        values = range(1 << n) if n <= 8 else (
            [0, 1, 1 << (n - 1), (1 << n) - 1, (1 << n) - 2]
            + [rng.getrandbits(n) for _ in range(200)])
        for bv in values:
            fill = cfg.plan(bv)[3]
            assert fill == self.expected(n, bv), (n, bv)
            # its first mask: every lane but the add lanes and those below the first
            first = [i for i in range(n) if not bv >> i & 1 and bv & ((1 << i) - 1)]
            assert fill[:1] == ((lane_mask(n, first),) if first else ()), (n, bv)
            # each later mask a proper subset of the one before
            for before, after in zip(fill, fill[1:]):
                assert after & before == after != before, (n, bv)
            assert len(fill) <= (n - 1).bit_length(), (n, bv)  # ceil(log2 n)
            # no step at all when every gap lies below the first add lane
            # (no bit of b is 0 above its lowest 1, or b is 0)
            assert (fill == ()) == (bv == 0 or bv | (bv - 1) == (1 << n) - 1), (n, bv)


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
        # the kernel and trace_rows check the widths before they read a plan
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


def sliced(cfg, pairs):
    n = cfg.width
    return run_sliced(cfg, to_slices([a for a, _ in pairs], n),
                      to_slices([b for _, b in pairs], n), len(pairs))


class TestSlicedEngine:
    """``run_sliced`` over many pairs at once against the per-pair packed
    kernels, and over every pair up to width 5 against the loop oracles,
    which share no code with either: equal product slices and summed
    ledgers."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_pair(self, n):
        pairs = list(itertools.product(range(1 << n), repeat=2))
        costs = [(2, 1, DEFAULT_BLOCK_SIZE)]
        if n <= 5:
            costs += [(s, g, bsz) for s, g in COSTS for bsz in sorted({1, min(4, n), n})]
        # the loop oracles run the whole grid up to width 4, the default cost at 5
        loop_costs = costs if n <= 4 else costs[:1] if n == 5 else []
        for s, g, bsz in costs:
            for variant in Variant:
                cfg = make_config(variant, n, s=s, g=g, block_size=bsz)
                got = list(sliced(cfg, pairs))
                assert got == list(per_pair_sums(cfg, pairs)), (variant, n, s, g, bsz)
                if (s, g, bsz) in loop_costs:
                    assert got == list(per_pair_sums(cfg, pairs, loop=True)), (
                        "loop", variant, n, s, g, bsz)

    @given(st.integers(1, 32).flatmap(lambda n: st.tuples(
               st.just(n),
               st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
                        min_size=1, max_size=40),
               st.integers(1, 5), st.integers(0, 5), st.integers(1, n))),
           st.sampled_from(list(Variant)))
    @settings(max_examples=100, deadline=None)
    def test_random_pair_lists(self, args, variant):
        n, pairs, s, g, bsz = args
        cfg = make_config(variant, n, s=s, g=g, block_size=bsz)
        assert list(sliced(cfg, pairs)) == list(per_pair_sums(cfg, pairs))


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
