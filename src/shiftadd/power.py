"""Dynamic-energy estimates and structural area inventories.

Energy is the switched-capacitance form: each ledger category contributes
``count * C_category * vdd**2``, with the activity factor realised as the
simulator's measured transition counts.  Average power over a run is
``energy * f_clk / cycles``.  Capacitance weights default to 1.0 per
category, so with the default model energy equals the raw transition total.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from .datapath import (
    LEDGER_CATEGORIES,
    ArchConfig,
    ToggleLedger,
    Variant,
    register_inventory,
)

DEFAULT_WEIGHT = 1.0


def _complete_weights(weights: Mapping[str, float] | None) -> dict[str, float]:
    out = {cat: DEFAULT_WEIGHT for cat in LEDGER_CATEGORIES}
    if weights:
        for key, value in weights.items():
            if key not in out:
                raise ValueError(f"unknown ledger category {key!r}")
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"weight for {key!r} must be finite and >= 0, got {value}")
            out[key] = float(value)
    return out


@dataclass(frozen=True)
class PowerModel:
    """Per-category capacitance weights plus supply voltage and clock rate."""

    weights: dict[str, float] = field(default_factory=lambda: _complete_weights(None))
    vdd: float = 1.0
    f_clk: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _complete_weights(self.weights))
        if not (math.isfinite(self.vdd) and self.vdd > 0):
            raise ValueError(f"vdd must be finite and > 0, got {self.vdd}")
        if not math.isfinite(self.vdd * self.vdd):  # every energy scales by vdd**2
            raise ValueError(f"vdd squared must be finite, got vdd = {self.vdd}")
        if not (math.isfinite(self.f_clk) and self.f_clk > 0):
            raise ValueError(f"f_clk must be finite and > 0, got {self.f_clk}")
        if not any(self.weights.values()):
            raise ValueError("power model weights are all 0, so no energy can be compared")

    @classmethod
    def from_file(cls, path: str | os.PathLike[str]) -> PowerModel:
        """Load ``key = value`` lines; keys are ledger categories, plus ``vdd``
        and ``f_clk``; ``#`` starts a comment.  ValueError names ``path:line``
        for a bad line (unknown or repeated key, a value that is not a finite
        number), and ``path`` for text that is not UTF-8 (a leading byte-order
        mark is skipped) or a refused model."""
        try:
            with open(path, encoding="utf-8-sig") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        values: dict[str, float] = {}
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in LEDGER_CATEGORIES and key not in ("vdd", "f_clk"):
                raise ValueError(f"{where}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{where}: duplicate key {key!r}")
            try:
                number = float(value)
            except ValueError as exc:
                raise ValueError(f"{where}: bad number {value!r}") from exc
            if not math.isfinite(number):
                raise ValueError(f"{where}: {key} must be finite, got {value!r}")
            values[key] = number
        vdd = values.pop("vdd", 1.0)
        f_clk = values.pop("f_clk", 1.0)
        try:
            return cls(values, vdd, f_clk)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def estimate_energy(ledger: ToggleLedger, model: PowerModel) -> float:
    """Energy in arbitrary units: sum of count * C_category * vdd^2 over the
    categories the model weighs above 0; inf where it, or one of their
    counts, is beyond the float range."""
    vdd_sq = model.vdd**2
    weights = model.weights
    try:
        return sum((count * weights[cat] * vdd_sq
                    for cat, count in ledger.as_dict().items() if weights[cat]), 0.0)
    except OverflowError:  # an int count too large for a float
        return math.inf


def average_power(energy: float, cycles: int, model: PowerModel) -> float:
    if cycles <= 0:
        raise ValueError("cycles must be > 0")
    return energy * model.f_clk / cycles


class AreaInventory(NamedTuple):
    """Structural element counts standing in for physical area."""

    flip_flops: int
    full_adders: int
    mux_inputs: int
    gates: int


def area_proxy(cfg: ArchConfig) -> AreaInventory:
    """Element inventory for a configuration; independent of operand values.

    ``flip_flops`` is the sum over ``datapath.register_inventory``, and
    ``gates`` one more than its gate latches, one per ring block: the one is
    the conventional control gate or the low-power feeder/bypass gate.
    Conventional: n-bit adder, n-bit 2:1 mux.  Low-power: n-bit adder,
    one-hot mux tree.

    The low-power variant can inventory MORE flip-flops than the
    conventional one; its headline area win comes from technology mapping,
    which this proxy deliberately does not model.
    """
    n = cfg.width
    inventory = register_inventory(cfg)
    flip_flops = sum(reg.width for reg in inventory)
    gates = 1 + sum(reg.width for reg in inventory if reg.gate_latch)
    mux_inputs = 2 * n if cfg.variant is Variant.CONVENTIONAL else n
    return AreaInventory(flip_flops, full_adders=n, mux_inputs=mux_inputs, gates=gates)


def reduction_percent(base: float, new: float) -> float:
    if base == 0:
        raise ValueError("reduction undefined for zero baseline")
    return 100.0 * (base - new) / base
