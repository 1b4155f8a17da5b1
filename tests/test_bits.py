import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import AdderState, full_add, get_bit, hamming, ripple_carry_add

from shiftadd.bits import Word


def words(max_width=16):
    return st.integers(1, max_width).flatmap(
        lambda w: st.builds(Word, st.integers(0, (1 << w) - 1), st.just(w))
    )


def word_pairs(max_width=16):
    return st.integers(1, max_width).flatmap(
        lambda w: st.tuples(
            st.builds(Word, st.integers(0, (1 << w) - 1), st.just(w)),
            st.builds(Word, st.integers(0, (1 << w) - 1), st.just(w)),
        )
    )


class TestWord:
    def test_masks_to_width(self):
        assert Word(0b1111, 2).value == 0b11
        assert Word(1 << 10, 3).value == 0

    def test_value_in_range(self):
        w = Word(255, 8)
        assert w.value == 255
        assert w.value < (1 << w.width)

    @pytest.mark.parametrize("width", [0, -1, 65])
    def test_width_bounds(self, width):
        with pytest.raises(ValueError):
            Word(0, width)

    def test_immutable(self):
        w = Word(3, 4)
        with pytest.raises(AttributeError):
            w.value = 5

    def test_to_bin(self):
        assert Word(6, 5).to_bin() == "00110"

    def test_replace_masks_and_validates(self):
        w = Word(3, 4)
        assert dataclasses.replace(w, value=0b10110) == Word(0b0110, 4)
        assert dataclasses.replace(w, width=2) == Word(3, 2)
        with pytest.raises(ValueError):
            dataclasses.replace(w, width=0)

    def test_equal_values_hash_equal(self):
        assert Word(19, 4) == Word(3, 4)
        assert hash(Word(19, 4)) == hash(Word(3, 4))
        assert Word(3, 4) != Word(3, 5)


class TestGetBit:
    @pytest.mark.parametrize(
        "value,width,i,expected",
        [
            (0b010, 3, 0, 0),
            (0b010, 3, 1, 1),
            (0b0110, 4, 3, 0),
        ],
    )
    def test_examples(self, value, width, i, expected):
        assert get_bit(Word(value, width), i) == expected

    @pytest.mark.parametrize("i", [-1, 3, 100])
    def test_out_of_range(self, i):
        with pytest.raises(ValueError):
            get_bit(Word(0, 3), i)


class TestHamming:
    @pytest.mark.parametrize(
        "a,b,width,expected",
        [
            (0b101, 0b101, 3, 0),
            (0b001, 0b010, 3, 2),
            (0b0000, 0b1111, 4, 4),
        ],
    )
    def test_examples(self, a, b, width, expected):
        assert hamming(Word(a, width), Word(b, width)) == expected

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            hamming(Word(0, 3), Word(0, 4))

    @given(word_pairs())
    def test_symmetric(self, pair):
        a, b = pair
        assert hamming(a, b) == hamming(b, a)

    @given(words())
    def test_zero_iff_equal(self, w):
        assert hamming(w, w) == 0
        other = Word(w.value ^ 1, w.width)
        assert hamming(w, other) == 1

    @given(
        st.integers(1, 12).flatmap(
            lambda w: st.tuples(*(st.builds(Word, st.integers(0, (1 << w) - 1), st.just(w)),) * 3)
        )
    )
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestFullAdd:
    @pytest.mark.parametrize(
        "a,b,cin,expected",
        [
            (0, 0, 0, (0, 0)),
            (0, 0, 1, (1, 0)),
            (0, 1, 0, (1, 0)),
            (0, 1, 1, (0, 1)),
            (1, 0, 0, (1, 0)),
            (1, 0, 1, (0, 1)),
            (1, 1, 0, (0, 1)),
            (1, 1, 1, (1, 1)),
        ],
    )
    def test_truth_table(self, a, b, cin, expected):
        assert full_add(a, b, cin) == expected

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            full_add(2, 0, 0)


def chain_reference(x: Word, y: Word, cin: int):
    """Explicit stage-by-stage full-adder chain; the independent oracle."""
    carry = cin
    sum_bits = 0
    carry_bits = 0
    for i in range(x.width):
        s, carry = full_add(get_bit(x, i), get_bit(y, i), carry)
        sum_bits |= s << i
        carry_bits |= carry << i
    return sum_bits, carry_bits, carry


class TestRippleCarryAdd:
    def test_all_zero_no_transitions(self):
        state = AdderState.zero(3)
        total, cout, transitions, _ = ripple_carry_add(state, Word(0, 3), Word(0, 3), 0)
        assert (total.value, cout, transitions) == (0, 0, 0)

    def test_documented_case(self):
        # 011 + 010 from reset: sum bits 101 flip twice, carry bit 1 flips once
        state = AdderState.zero(3)
        total, cout, transitions, state2 = ripple_carry_add(state, Word(0b011, 3), Word(0b010, 3), 0)
        assert total.value == 0b101
        assert cout == 0
        assert transitions == 3
        assert state2.sum_bits.value == 0b101
        assert state2.carry_bits.value == 0b010

    @given(word_pairs(max_width=12), st.integers(0, 1))
    def test_repeat_is_free(self, pair, cin):
        x, y = pair
        state = AdderState.zero(x.width)
        _, _, _, state = ripple_carry_add(state, x, y, cin)
        _, _, transitions, state2 = ripple_carry_add(state, x, y, cin)
        assert transitions == 0
        assert state2 == state

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_native_addition_exhaustive(self, n):
        state = AdderState.zero(n)
        for x in range(1 << n):
            for y in range(1 << n):
                for cin in (0, 1):
                    total, cout, _, state = ripple_carry_add(state, Word(x, n), Word(y, n), cin)
                    assert (cout << n) | total.value == x + y + cin

    @pytest.mark.parametrize("n", range(1, 5))
    def test_internal_signals_match_gate_chain(self, n):
        state = AdderState.zero(n)
        for x in range(1 << n):
            for y in range(1 << n):
                for cin in (0, 1):
                    total, cout, _, state = ripple_carry_add(state, Word(x, n), Word(y, n), cin)
                    ref_sum, ref_carry, ref_cout = chain_reference(Word(x, n), Word(y, n), cin)
                    assert total.value == ref_sum
                    assert state.sum_bits.value == ref_sum
                    assert state.carry_bits.value == ref_carry
                    assert cout == ref_cout

    @given(word_pairs(max_width=16), st.integers(0, 1))
    def test_transition_bound(self, pair, cin):
        x, y = pair
        _, _, transitions, _ = ripple_carry_add(AdderState.zero(x.width), x, y, cin)
        assert 0 <= transitions <= 2 * x.width

    @given(word_pairs(max_width=12), st.integers(0, 1))
    def test_transitions_zero_iff_state_unchanged(self, pair, cin):
        x, y = pair
        state = AdderState.zero(x.width)
        _, _, transitions, state2 = ripple_carry_add(state, x, y, cin)
        assert (transitions == 0) == (state2 == state)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            ripple_carry_add(AdderState.zero(3), Word(0, 3), Word(0, 4), 0)
        with pytest.raises(ValueError):
            ripple_carry_add(AdderState.zero(4), Word(0, 3), Word(0, 3), 0)
