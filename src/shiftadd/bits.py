"""Fixed-width bit vectors.

Transition counts everywhere in this package use the zero-delay activity
convention: the cost of one evaluation step of a combinational block is the
Hamming distance between its previous and current steady-state internal
signals.  Glitches and hazards are not modelled.
"""

from __future__ import annotations

MAX_WIDTH = 64


def _read_only(self: object, name: str, value: object = None) -> None:
    """``__setattr__`` and ``__delattr__`` of an immutable slotted class,
    whose constructor sets its slots through ``object.__setattr__`` or the
    slot descriptors."""
    raise AttributeError(f"cannot assign to or delete field {name!r}")


class Word:
    """An unsigned bit vector with a fixed width of 1..64 bits.

    The value is masked to ``width`` bits on construction, so the invariant
    ``value < 2**width`` always holds.  Bit 0 is the least significant bit.
    A Word is immutable, and equal only to a Word of the same value and width.
    """

    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int) -> None:
        # the simulator builds three Words per multiplication: the slots are
        # set through their descriptors, past the refusing __setattr__
        if not 1 <= width <= MAX_WIDTH:
            raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")
        _set_value(self, value & ((1 << width) - 1))
        _set_width(self, width)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value and self.width == other.width

    def __hash__(self) -> int:
        return hash((self.value, self.width))

    def __repr__(self) -> str:
        return f"Word(value={self.value!r}, width={self.width!r})"

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return Word, (self.value, self.width)

    def to_bin(self) -> str:
        """MSB-first binary string, zero-padded to the full width."""
        return format(self.value, f"0{self.width}b")


# the slot descriptors, which bypass the frozen __setattr__
_set_value = Word.value.__set__
_set_width = Word.width.__set__
