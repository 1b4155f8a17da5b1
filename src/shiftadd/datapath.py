"""Cycle-accurate models of the two shift-and-add multiplier datapaths.

Both datapaths compute the exact product of two n-bit unsigned words and
charge every switching event to a per-block ledger.  Shared accounting
rules:

* a clocked flip-flop costs ``s`` internal transitions per clock pulse,
  whether or not its output changes; removing pulses is what clock gating
  buys, so gated storage pays only for the pulses that get through;
* register data activity is the Hamming distance between consecutive
  register states;
* combinational blocks (adder, multiplexer) cost the Hamming distance
  between consecutive steady-state signal values.

The conventional datapath gates nothing: its multiplier, partial-product
and counter registers all pay the clock cost every cycle, on top of their
data activity.  The low-power datapath keeps the multiplier register
un-clocked, lets a gated ring counter pick the multiplier bit, and clocks
its feeder/bypass storage only on add cycles.

Each datapath's registers are listed once, in ``register_inventory``: width,
clocking rule and ledger category.  The inventory drives both the flip-flop
count of ``power.area_proxy`` and ``fixed_charges``, the per-config ledger of
every charge that does not depend on the operands.  The kernels simulate
only the data-dependent work and add that ledger once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property

from .bits import Word

MAX_OPERAND_WIDTH = 32


class Variant(str, Enum):
    CONVENTIONAL = "conv"
    LOW_POWER = "lowpower"


@dataclass(frozen=True, slots=True)
class RingCostModel:
    """Clocking cost parameters.

    ``s``: internal transitions per clocked flip-flop per pulse.
    ``g``: transitions in one block's clock-gating logic per pulse.
    ``block_size``: flip-flops per gated block of the low-power ring.
    """

    s: int = 2
    g: int = 1
    block_size: int = 4

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.g < 0:
            raise ValueError("g must be >= 0")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")


def num_blocks(width: int, block_size: int) -> int:
    return -(-width // block_size)


@dataclass(frozen=True)
class ArchConfig:
    """Architecture variant, operand width and cost parameters.

    ``effective_width`` is the number of multiplier bits processed (and thus
    the cycle count); it defaults to the full width.  Truncated runs compute
    ``a * (b mod 2**effective_width)``.  Not slotted, because ``charges``
    is cached in the instance's ``__dict__``.
    """

    variant: Variant
    width: int
    cost: RingCostModel = RingCostModel()
    effective_width: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_OPERAND_WIDTH:
            raise ValueError(f"width must be in 1..{MAX_OPERAND_WIDTH}, got {self.width}")
        if self.effective_width is None:
            object.__setattr__(self, "effective_width", self.width)
        if not 1 <= self.effective_width <= self.width:
            raise ValueError(
                f"effective_width {self.effective_width} out of range 1..{self.width}"
            )
        if self.cost.block_size > self.width:
            raise ValueError(
                f"block_size {self.cost.block_size} exceeds width {self.width}"
            )

    @cached_property
    def charges(self) -> tuple[ToggleLedger, int]:
        """``(fixed_charges(self), flip-flops clocked on each add cycle)``,
        computed on first use and kept on the instance.  The kernels read
        this on every run; the ledger is shared, so it is never mutated."""
        add_ffs = sum(reg.width for reg in register_inventory(self)
                      if reg.clocking is Clocking.ADD_CYCLES)
        return fixed_charges(self), add_ffs


def make_config(
    variant: Variant | str,
    width: int,
    *,
    s: int = 2,
    g: int = 1,
    block_size: int | None = None,
    effective_width: int | None = None,
) -> ArchConfig:
    """Build an ArchConfig with the default block size clamped to the width."""
    if block_size is None:
        block_size = min(4, width)
    return ArchConfig(
        Variant(variant), width, RingCostModel(s, g, block_size), effective_width
    )


@dataclass(slots=True)
class ToggleLedger:
    """Transition and clock-event counts per structural block."""

    multiplier_shift: int = 0
    partial_product_shift: int = 0
    adder: int = 0
    counter_internal: int = 0
    counter_output: int = 0
    mux_select: int = 0
    mux_data: int = 0
    feeder_bypass_clock: int = 0
    gating: int = 0

    def total(self) -> int:
        return sum(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def add(self, other: ToggleLedger) -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


LEDGER_CATEGORIES: tuple[str, ...] = tuple(f.name for f in fields(ToggleLedger))


class Clocking(Enum):
    """Which clock pulses reach a register's flip-flops."""

    EVERY_CYCLE = "every cycle"
    # on a bypass cycle its clock gate switches instead, costing g
    ADD_CYCLES = "add cycles only"
    # the hot bit's block, plus the block it moves into
    RING_BLOCK = "gated ring block"
    NEVER = "never"


@dataclass(frozen=True, slots=True)
class Register:
    """``width`` flip-flops that take the pulses ``clocking`` names, each
    pulse charged to ledger ``category`` at ``s`` transitions per flip-flop
    (``g`` for the latches of clock gates).  A ``category`` of None marks a
    register that counts towards area but whose pulses are not charged."""

    name: str
    width: int
    clocking: Clocking
    category: str | None
    gate_latch: bool = False


def register_inventory(cfg: ArchConfig) -> tuple[Register, ...]:
    """Every register of ``cfg``'s datapath.  This is the one place a
    register width is written: the clock charges and the flip-flop count of
    ``power.area_proxy`` both derive from it."""
    n = cfg.width
    if cfg.variant is Variant.CONVENTIONAL:
        return (
            Register("multiplier", n, Clocking.EVERY_CYCLE, "multiplier_shift"),
            Register("partial product", 2 * n + 1, Clocking.EVERY_CYCLE,
                     "partial_product_shift"),
            Register("cycle counter", (n - 1).bit_length(), Clocking.EVERY_CYCLE,
                     "counter_internal"),
        )
    return (
        Register("multiplier", n, Clocking.NEVER, None),
        Register("ring counter", n, Clocking.RING_BLOCK, "counter_internal"),
        Register("feeder/bypass", n + 1, Clocking.ADD_CYCLES, "feeder_bypass_clock"),
        # one product bit is latched per cycle; those pulses are not charged
        Register("product bits", n, Clocking.EVERY_CYCLE, None),
        Register("ring gate latches", num_blocks(n, cfg.cost.block_size),
                 Clocking.EVERY_CYCLE, "gating", gate_latch=True),
    )


def fixed_charges(cfg: ArchConfig) -> ToggleLedger:
    """Every charge of one run under ``cfg`` that does not depend on the
    operands: the clock pulses of the inventory's registers (those clocked
    on add cycles excepted) and the counter's own output toggles.

    Kernels read it through ``cfg.charges``, so it is computed once per
    config.
    """
    n, e = cfg.width, cfg.effective_width
    cost = cfg.cost
    ledger = ToggleLedger()
    for reg in register_inventory(cfg):
        if reg.category is None:
            continue
        if reg.clocking is Clocking.EVERY_CYCLE:
            pulses = e * reg.width
        elif reg.clocking is Clocking.RING_BLOCK:
            pulses = _ring_pulses(reg.width, e, cost.block_size)
        else:  # add-cycle pulses depend on the multiplier; NEVER gets none
            continue
        charge = pulses * (cost.g if reg.gate_latch else cost.s)
        setattr(ledger, reg.category, getattr(ledger, reg.category) + charge)
    if cfg.variant is Variant.CONVENTIONAL:
        ledger.counter_internal += _count_toggles(n, e)
    elif n > 1:
        # each step moves the hot bit: two ring outputs toggle, and so do the
        # two one-hot select lines of the mux tree they drive
        ledger.counter_output = ledger.mux_select = 2 * e
    return ledger


def _count_toggles(modulus: int, steps: int) -> int:
    """Output bits a modulo-``modulus`` binary counter flips over ``steps``
    increments from zero, ``steps <= modulus``.  Counting from 0 up to m
    flips 2m - popcount(m) bits; a full cycle's wrap from modulus - 1 back to
    zero flips popcount(modulus - 1) bits, which leaves 2(modulus - 1)."""
    if steps == modulus:
        return 2 * (modulus - 1)
    return 2 * steps - steps.bit_count()


def _ring_pulses(n: int, steps: int, block_size: int) -> int:
    """Flip-flop clock pulses of an ``n``-bit block-gated ring over ``steps``
    steps from reset: each step clocks the hot bit's block, and a step that
    moves the hot bit into another block clocks that block too."""

    def size(block: int) -> int:  # the trailing block may be short
        return min(block_size, n - block * block_size)

    full, part = divmod(steps, block_size)
    held = full * block_size * block_size + part * size(full)
    entered = sum(size(block) for block in range(1, num_blocks(n, block_size))
                  if block * block_size <= steps)
    if steps == n and n > block_size:  # the wrap back into block 0
        entered += block_size
    return held + entered


def _counter_width(cfg: ArchConfig) -> int:
    """Flip-flops of the register charged to ``counter_internal``: the
    cycle counter or the ring."""
    return next(reg.width for reg in register_inventory(cfg)
                if reg.category == "counter_internal")


@dataclass(frozen=True, slots=True)
class CycleTrace:
    """One simulated cycle: counter state, selected bit, and running values."""

    cycle: int
    counter_state: Word
    selected_bit: int
    adder_fired: bool
    running_sum: Word
    product_so_far: Word


@dataclass(frozen=True, slots=True)
class SimResult:
    product: Word
    ledger: ToggleLedger
    cycles: int
    trace: tuple[CycleTrace, ...] | None = None


def _check_operands(a: Word, b: Word, cfg: ArchConfig) -> None:
    if a.width != cfg.width or b.width != cfg.width:
        raise ValueError(
            f"operand widths ({a.width}, {b.width}) do not match config width {cfg.width}"
        )


def run_conventional(a: Word, b: Word, cfg: ArchConfig, *, trace: bool = False) -> SimResult:
    """Simulate the conventional datapath: shifting B, shifting partial
    product, binary cycle counter, 0/A multiplexer feeding the adder.

    Per cycle: the current LSB of B drives the mux select; the adder sums the
    partial product's high half with the mux output; the partial product
    register (carry, sum, low half) captures the result shifted right by
    one; B shifts right; the counter increments.  All three registers are
    clocked every cycle; those clock charges and the counter's toggles come
    from ``cfg.charges``, so the loop covers only the data-dependent work.
    """
    _check_operands(a, b, cfg)
    n = cfg.width
    e = cfg.effective_width
    mask_n = (1 << n) - 1
    fixed, _ = cfg.charges

    reg_p = 0  # partial product register (carry : high : low)
    reg_b = b.value
    adder_sum = 0
    adder_carry = 0
    prev_select = 0
    prev_mux = 0

    multiplier_shift = partial_product_shift = adder = 0
    mux_select = mux_data = 0
    rows = [] if trace else None
    if trace:
        counter_width = max(1, _counter_width(cfg))

    for i in range(e):
        select = reg_b & 1
        mux_select += select != prev_select
        prev_select = select
        mux_out = a.value if select else 0
        mux_data += (prev_mux ^ mux_out).bit_count()
        prev_mux = mux_out

        x = (reg_p >> n) & mask_n
        total = x + mux_out
        new_sum = total & mask_n
        cout = total >> n
        carry_ins = x ^ mux_out ^ new_sum
        new_carry = (carry_ins >> 1) | (cout << (n - 1))
        adder += (adder_sum ^ new_sum).bit_count() + (adder_carry ^ new_carry).bit_count()
        adder_sum, adder_carry = new_sum, new_carry

        new_p = ((cout << (2 * n)) | (new_sum << n) | (reg_p & mask_n)) >> 1
        partial_product_shift += (reg_p ^ new_p).bit_count()
        reg_p = new_p

        new_b = reg_b >> 1
        multiplier_shift += (reg_b ^ new_b).bit_count()
        reg_b = new_b

        if trace:
            rows.append(
                CycleTrace(
                    cycle=i,
                    counter_state=Word(i, counter_width),
                    selected_bit=select,
                    adder_fired=bool(select),
                    running_sum=Word((cout << n) | new_sum, n + 1),
                    product_so_far=Word(reg_p >> (n - i - 1), 2 * n),
                )
            )

    ledger = ToggleLedger(
        multiplier_shift=fixed.multiplier_shift + multiplier_shift,
        partial_product_shift=fixed.partial_product_shift + partial_product_shift,
        adder=adder,
        counter_internal=fixed.counter_internal,
        mux_select=mux_select,
        mux_data=mux_data,
    )
    product = Word(reg_p >> (n - e), 2 * n)
    return SimResult(product, ledger, e, tuple(rows) if trace else None)


def run_lowpower(a: Word, b: Word, cfg: ArchConfig, *, trace: bool = False) -> SimResult:
    """Simulate the low-power datapath: static B register, block-gated ring
    counter selecting the multiplier bit through a one-hot mux tree, and a
    feeder/bypass pair around the adder.

    Per cycle: the bit at the ring's hot position (bit i on cycle i) decides
    the path.  On a '1' the adder sums the running high part with A and the
    feeder captures (carry, sum), clocking its flip-flops; on a '0' the
    bypass holds and only its clock gate switches.  The shift down to the
    next cycle's adder input is fixed wiring, and each cycle latches one
    product low bit.  B is never shifted or clocked, so ``multiplier_shift``
    stays zero.  The ring, gating and select charges come from
    ``cfg.charges``; the feeder's clock and the mux data line are closed
    forms in the multiplier bits, so the loop covers only the adder and the
    feeder's data toggles.
    """
    _check_operands(a, b, cfg)
    n = cfg.width
    e = cfg.effective_width
    mask_n = (1 << n) - 1
    fixed, add_ffs = cfg.charges
    mask_e = (1 << e) - 1
    bits = b.value & mask_e  # the multiplier bits the ring selects, in order
    fired = bits.bit_count()

    reg_fb = 0  # feeder/bypass storage (carry : sum)
    low_bits = 0
    adder_sum = 0
    adder_carry = 0

    partial_product_shift = adder = 0
    rows = [] if trace else None
    if trace:
        ring_width = _counter_width(cfg)

    for i in range(e):
        bit = (bits >> i) & 1
        x = reg_fb >> 1  # wired shift: last cycle's (carry : sum) minus its LSB
        if bit:
            total = x + a.value
            new_sum = total & mask_n
            cout = total >> n
            carry_ins = x ^ a.value ^ new_sum
            new_carry = (carry_ins >> 1) | (cout << (n - 1))
            adder += (adder_sum ^ new_sum).bit_count() + (adder_carry ^ new_carry).bit_count()
            adder_sum, adder_carry = new_sum, new_carry
            pair = (cout << n) | new_sum
        else:
            # adder inputs are frozen: zero transitions, state kept
            pair = x

        low_bits |= (pair & 1) << i
        partial_product_shift += (reg_fb ^ pair).bit_count()
        reg_fb = pair

        if trace:
            rows.append(
                CycleTrace(
                    cycle=i,
                    counter_state=Word(1 << i, ring_width),
                    selected_bit=bit,
                    adder_fired=bool(bit),
                    running_sum=Word(pair, n + 1),
                    product_so_far=Word(((pair >> 1) << (i + 1)) | low_bits, 2 * n),
                )
            )

    ledger = ToggleLedger(
        partial_product_shift=partial_product_shift,
        adder=adder,
        counter_internal=fixed.counter_internal,
        counter_output=fixed.counter_output,
        mux_select=fixed.mux_select,
        # the mux output switches whenever the selected bit differs from the
        # previous cycle's (reset: 0)
        mux_data=((bits ^ (bits << 1)) & mask_e).bit_count(),
        feeder_bypass_clock=fired * add_ffs * cfg.cost.s + (e - fired) * cfg.cost.g,
        gating=fixed.gating,
    )
    product = Word(((reg_fb >> 1) << e) | low_bits, 2 * n)
    return SimResult(product, ledger, e, tuple(rows) if trace else None)


def simulate(a: Word, b: Word, cfg: ArchConfig, *, trace: bool = False) -> SimResult:
    if cfg.variant is Variant.CONVENTIONAL:
        return run_conventional(a, b, cfg, trace=trace)
    return run_lowpower(a, b, cfg, trace=trace)


def render_trace(a: Word, b: Word, result: SimResult) -> str:
    """Plain-text multiplication table, one row per cycle.

    Each row shows the counter state, the selected multiplier bit, and the
    addend that bit produced (A on an add cycle, zeros on a bypass).
    """
    if result.trace is None:
        raise ValueError("result carries no trace; rerun with trace=True")
    n = a.width
    lines = [
        f"A -> {a.to_bin()}  ({a.value})",
        f"B -> {b.to_bin()}  ({b.value})",
        "-" * 44,
    ]
    for row in result.trace:
        addend = a if row.adder_fired else Word(0, n)
        lines.append(
            f"cycle {row.cycle}  [{row.counter_state.to_bin()}]  "
            f"B({row.cycle})={row.selected_bit}  {addend.to_bin()}"
        )
    lines.append("-" * 44)
    lines.append(f"Answer -> {result.product.to_bin()}  ({result.product.value})")
    return "\n".join(lines)
