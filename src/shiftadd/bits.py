"""Fixed-width bit vectors.

Transition counts everywhere in this package use the zero-delay activity
convention: the cost of one evaluation step of a combinational block is the
Hamming distance between its previous and current steady-state internal
signals.  Glitches and hazards are not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_WIDTH = 64


@dataclass(frozen=True, slots=True, init=False)
class Word:
    """An unsigned bit vector with a fixed width of 1..64 bits.

    The value is masked to ``width`` bits on construction, so the invariant
    ``value < 2**width`` always holds.  Bit 0 is the least significant bit.
    """

    value: int
    width: int

    def __init__(self, value: int, width: int) -> None:
        # written by hand: the simulator builds three Words per multiplication,
        # and setting the slots directly costs a third of the generated
        # frozen __init__ plus __post_init__
        if not 1 <= width <= MAX_WIDTH:
            raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")
        _set_value(self, value & ((1 << width) - 1))
        _set_width(self, width)

    def to_bin(self) -> str:
        """MSB-first binary string, zero-padded to the full width."""
        return format(self.value, f"0{self.width}b")


# the slot descriptors, which bypass the frozen __setattr__
_set_value = Word.value.__set__
_set_width = Word.width.__set__
_new = object.__new__


def _exact_word(value: int, width: int) -> Word:
    """``Word(value, width)`` without its checks, for a caller that
    guarantees both: 1 <= width <= MAX_WIDTH and 0 <= value < 2**width."""
    word = _new(Word)
    _set_value(word, value)
    _set_width(word, width)
    return word
