"""Fixed-width bit vectors.

Transition counts everywhere in this package use the zero-delay activity
convention: the cost of one evaluation step of a combinational block is the
Hamming distance between its previous and current steady-state internal
signals.  Glitches and hazards are not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_WIDTH = 64


@dataclass(frozen=True, slots=True)
class Word:
    """An unsigned bit vector with a fixed width of 1..64 bits.

    The value is masked to ``width`` bits on construction, so the invariant
    ``value < 2**width`` always holds.  Bit 0 is the least significant bit.
    """

    value: int
    width: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {self.width}")
        object.__setattr__(self, "value", self.value & self.mask)

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def to_bin(self) -> str:
        """MSB-first binary string, zero-padded to the full width."""
        return format(self.value, f"0{self.width}b")

    def __str__(self) -> str:
        return self.to_bin()
