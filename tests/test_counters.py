"""The counter oracles (tests/oracles.py) and the ring cost parameters."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    BinaryCounter,
    RingState,
    binary_counter_step,
    ring_conventional_step,
    ring_lowpower_step,
    unnecessary_ring_transitions,
)

from shiftadd.bits import Word
from shiftadd.datapath import RingCostModel, num_blocks


class TestBinaryCounter:
    @pytest.mark.parametrize(
        "state,modulus,next_state,toggles",
        [
            (0b000, 8, 0b001, 1),
            (0b011, 8, 0b100, 3),
            (0b111, 8, 0b000, 3),
        ],
    )
    def test_step_examples(self, state, modulus, next_state, toggles):
        c = BinaryCounter(Word(state, 3), modulus)
        c2, t = binary_counter_step(c)
        assert c2.state.value == next_state
        assert t == toggles

    def test_non_power_of_two_wrap(self):
        c = BinaryCounter(Word(2, 2), 3)
        c2, t = binary_counter_step(c)
        assert c2.state.value == 0
        assert t == 1

    @pytest.mark.parametrize("k", range(1, 9))
    def test_full_cycle_toggle_total(self, k):
        # summed Hamming distance around a full 2**k count is 2**(k+1) - 2
        c = BinaryCounter.start(1 << k)
        total = 0
        for _ in range(1 << k):
            c, t = binary_counter_step(c)
            total += t
        assert c.state.value == 0
        assert total == (1 << (k + 1)) - 2

    def test_start_width(self):
        assert BinaryCounter.start(8).state.width == 3
        assert BinaryCounter.start(1).state.width == 1

    def test_state_out_of_range(self):
        with pytest.raises(ValueError):
            BinaryCounter(Word(5, 3), 4)


class TestRingState:
    def test_start_is_hot_at_zero(self):
        r = RingState.start(3)
        assert r.state.value == 0b001
        assert r.position == 0

    def test_rejects_non_one_hot(self):
        with pytest.raises(ValueError):
            RingState(Word(0b011, 3), 0)
        with pytest.raises(ValueError):
            RingState(Word(0, 3), 0)

    def test_rejects_position_mismatch(self):
        with pytest.raises(ValueError):
            RingState(Word(0b010, 3), 0)


class TestRingConventional:
    def test_table_sequence(self):
        cost = RingCostModel()
        r = RingState.start(3)
        seen = [r.state.value]
        for _ in range(3):
            r, events, toggles = ring_conventional_step(r, cost)
            assert events == 3
            assert toggles == 2
            seen.append(r.state.value)
        assert seen == [0b001, 0b010, 0b100, 0b001]

    def test_wrap(self):
        r = RingState(Word(0b100, 3), 2)
        r2, events, toggles = ring_conventional_step(r, RingCostModel())
        assert r2.state.value == 0b001
        assert (events, toggles) == (3, 2)

    def test_unnecessary_transitions(self):
        # with all 8 flip-flops clocked, 6 pulses at s=2 apiece are wasted
        cost = RingCostModel(s=2)
        assert unnecessary_ring_transitions(8, cost) == 12
        r = RingState.start(8)
        _, events, _ = ring_conventional_step(r, cost)
        assert events * cost.s - 2 * cost.s == 12


class TestRingLowPower:
    def test_interior_step(self):
        cost = RingCostModel(block_size=4)
        r = RingState(Word(1 << 1, 8), 1)
        r2, events, gating, toggles = ring_lowpower_step(r, cost)
        assert r2.position == 2
        assert events == 4
        assert gating == cost.g * 2
        assert toggles == 2

    def test_boundary_step(self):
        cost = RingCostModel(block_size=4)
        r = RingState(Word(1 << 3, 8), 3)
        _, events, _, _ = ring_lowpower_step(r, cost)
        assert events == 8

    def test_full_rotation_cheaper_than_ungated(self):
        cost = RingCostModel(s=1, g=0, block_size=4)
        r = RingState.start(8)
        total = 0
        for _ in range(8):
            r, events, _, _ = ring_lowpower_step(r, cost)
            total += events
        assert total == 4 * 6 + 8 * 2 == 40
        assert total < 8 * 8

    @pytest.mark.parametrize("n,bsz", [(4, 2), (8, 4), (16, 4)])
    def test_rotation_beats_n_squared(self, n, bsz):
        # strict win requires more than one block (block_size < n)
        cost = RingCostModel(s=1, g=0, block_size=bsz)
        r = RingState.start(n)
        total = 0
        for _ in range(n):
            r, events, _, _ = ring_lowpower_step(r, cost)
            total += events
        assert total < n * n

    def test_single_block_degenerates_to_ungated(self):
        cost = RingCostModel(s=1, g=0, block_size=4)
        r = RingState.start(4)
        total = 0
        for _ in range(4):
            r, events, _, _ = ring_lowpower_step(r, cost)
            total += events
        assert total == 16

    def test_uneven_blocks(self):
        # width 6 with block size 4 leaves a trailing 2-flip-flop block
        cost = RingCostModel(block_size=4)
        assert num_blocks(6, 4) == 2
        r = RingState(Word(1 << 3, 6), 3)
        _, events, _, _ = ring_lowpower_step(r, cost)
        assert events == 4 + 2
        r = RingState(Word(1 << 5, 6), 5)
        r2, events, _, _ = ring_lowpower_step(r, cost)
        assert r2.position == 0
        assert events == 2 + 4

    def test_block_size_exceeding_width(self):
        with pytest.raises(ValueError):
            ring_lowpower_step(RingState.start(3), RingCostModel(block_size=4))

    @given(st.integers(2, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(1, n))))
    def test_one_hot_preserved_and_sequence_matches(self, args):
        n, pos, bsz = args
        cost = RingCostModel(block_size=bsz)
        r_conv = RingState(Word(1 << pos, n), pos)
        r_low = RingState(Word(1 << pos, n), pos)
        for _ in range(n + 1):
            r_conv, _, _ = ring_conventional_step(r_conv, cost)
            r_low, _, _, _ = ring_lowpower_step(r_low, cost)
            assert r_conv.state.value.bit_count() == 1
            assert r_conv == r_low


class TestRingCostModel:
    @pytest.mark.parametrize("kwargs", [dict(s=0), dict(g=-1), dict(block_size=0)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RingCostModel(**kwargs)
