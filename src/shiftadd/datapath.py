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
every charge that does not depend on the operands.  The kernel simulates
only the data-dependent work and adds those charges once per run.

One packed kernel, ``simulate``, runs both datapaths with no per-cycle
loop: cycle i is lane i of one packed int (``Lanes``), and each category's
per-cycle Hamming sum is one popcount.  The datapaths differ only in what
the multiplier bits drive, B's part of a run, which one branch on the
variant computes (see ``simulate``).  ``run_conventional`` and
``run_lowpower`` are the same function, under the names ``harness`` runs
each datapath's per-pair runs by.  The kernel returns a run's product and a
ledger of the caller's own; ``trace_rows`` reads a run's cycle-by-cycle rows
from the same lanes.  A config is only its variant, width and cost: what
the kernel reads that depends on the config alone (lane constants, fixed
charges) it computes on the config's first call and keeps (``_packed``).

``sliced_cycles`` runs many multiplications at once, bit-sliced: each
signal bit is one int whose bit t belongs to trial t, and each cycle is a few
big-int operations per signal bit for all trials.  It takes no config: the
low-power feeder holds what the conventional register's top part does, so
the products do not depend on the datapath, and ``exhaustive_verify`` runs
it once for both, reading its final register alone.  ``run_sliced`` charges
both datapaths' summed ledgers from one such run, each toggle slice counted
once, and ``harness.sweep`` runs it once on each chunk of operand slices.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

from .bits import Word, _exact_word

MAX_OPERAND_WIDTH = 32
# configs whose kernel constants simulate keeps (_packed); a run uses two per width
CONFIG_CACHE_SIZE = 64
# flip-flops per gated ring block, unless a width below it clamps it
DEFAULT_BLOCK_SIZE = 4
# the least value of each RingCostModel field
COST_LEAST = {"s": 1, "g": 0, "block_size": 1}


class Variant(str, Enum):
    CONVENTIONAL = "conv"
    LOW_POWER = "lowpower"


def _checked_make(cls, fields):
    """``_make`` of a named tuple whose ``__new__`` checks its fields.  The
    generated ``_make``, which ``_replace`` calls too, builds the tuple
    without ``__new__``; this one builds it through ``cls``."""
    return cls(*fields)


class RingCostModel(namedtuple("RingCostModel", "s g block_size")):
    """Clocking cost parameters.

    ``s``: internal transitions per clocked flip-flop per pulse.
    ``g``: transitions in one block's clock-gating logic per pulse.
    ``block_size``: flip-flops per gated block of the low-power ring.
    """

    __slots__ = ()

    def __new__(cls, s: int = 2, g: int = 1,
                block_size: int = DEFAULT_BLOCK_SIZE) -> RingCostModel:
        for name, value in zip(cls._fields, (s, g, block_size)):
            if value < COST_LEAST[name]:
                raise ValueError(f"{name} must be >= {COST_LEAST[name]}")
        return super().__new__(cls, s, g, block_size)

    _make = classmethod(_checked_make)


def check_width(width: int) -> None:
    """Refuse an operand width outside 1..MAX_OPERAND_WIDTH."""
    if not 1 <= width <= MAX_OPERAND_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_OPERAND_WIDTH}, got {width}")


def num_blocks(width: int, block_size: int) -> int:
    return -(-width // block_size)


class ArchConfig(namedtuple("ArchConfig", "variant width cost")):
    """Architecture variant, operand width and cost parameters.

    A run processes every multiplier bit, one per cycle, so it takes
    ``width`` cycles.  The variant may be given by name; the width must be
    in range and no less than the block size.  Building one builds nothing
    for the kernel.
    """

    __slots__ = ()

    def __new__(cls, variant: Variant | str, width: int,
                cost: RingCostModel = RingCostModel()) -> ArchConfig:
        variant = Variant(variant)
        check_width(width)
        if cost.block_size > width:
            raise ValueError(f"block_size {cost.block_size} exceeds width {width}")
        return super().__new__(cls, variant, width, cost)

    _make = classmethod(_checked_make)


def make_config(
    variant: Variant | str,
    width: int,
    *,
    s: int = RingCostModel().s,
    g: int = RingCostModel().g,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> ArchConfig:
    """The ArchConfig of ``variant`` and ``width`` with these cost fields.
    The one place a block size is clamped: it is lowered to the width (or 1,
    so that a width out of range meets ``ArchConfig``'s width check);
    ``RingCostModel`` refuses one below 1."""
    block_size = min(block_size, max(1, width))
    return ArchConfig(variant, width, RingCostModel(s, g, block_size))


LEDGER_CATEGORIES: tuple[str, ...] = (
    "multiplier_shift", "partial_product_shift", "adder", "counter_internal", "counter_output",
    "mux_select", "mux_data", "feeder_bypass_clock", "gating")


class ToggleLedger:
    """Transition and clock-event counts per structural block, one slot per
    category of ``LEDGER_CATEGORIES``.  Two ledgers are equal where every
    count is; a ledger is mutable, so it has no hash."""

    __slots__ = LEDGER_CATEGORIES

    def __init__(self, multiplier_shift: int = 0, partial_product_shift: int = 0,
                 adder: int = 0, counter_internal: int = 0, counter_output: int = 0,
                 mux_select: int = 0, mux_data: int = 0, feeder_bypass_clock: int = 0,
                 gating: int = 0) -> None:
        self.multiplier_shift = multiplier_shift
        self.partial_product_shift = partial_product_shift
        self.adder = adder
        self.counter_internal = counter_internal
        self.counter_output = counter_output
        self.mux_select = mux_select
        self.mux_data = mux_data
        self.feeder_bypass_clock = feeder_bypass_clock
        self.gating = gating

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ToggleLedger):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        counts = ", ".join(f"{name}={count!r}" for name, count in self.as_dict().items())
        return f"ToggleLedger({counts})"

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in LEDGER_CATEGORIES}

    def add(self, other: ToggleLedger) -> None:
        # one line per category: called once per simulated multiplication,
        # where a loop over fields() costs several times as much
        self.multiplier_shift += other.multiplier_shift
        self.partial_product_shift += other.partial_product_shift
        self.adder += other.adder
        self.counter_internal += other.counter_internal
        self.counter_output += other.counter_output
        self.mux_select += other.mux_select
        self.mux_data += other.mux_data
        self.feeder_bypass_clock += other.feeder_bypass_clock
        self.gating += other.gating


# the categories the conventional datapath can charge: it has no ring, clock
# gates or feeder/bypass storage
CONVENTIONAL_CATEGORIES: tuple[str, ...] = (
    "multiplier_shift", "partial_product_shift", "adder", "counter_internal",
    "mux_select", "mux_data")


class Clocking(Enum):
    """Which clock pulses reach a register's flip-flops."""

    EVERY_CYCLE = "every cycle"
    # on a bypass cycle its clock gate switches instead, costing g
    ADD_CYCLES = "add cycles only"
    # the hot bit's block, plus the block it moves into
    RING_BLOCK = "gated ring block"
    NEVER = "never"


class Register(namedtuple("Register", "name width clocking category gate_latch",
                          defaults=(False,))):
    """``width`` flip-flops that take the pulses ``clocking`` names, each
    pulse charged to ledger ``category`` at ``s`` transitions per flip-flop
    (``g`` for the latches of clock gates).  A ``category`` of None marks a
    register that counts towards area but whose pulses are not charged."""

    __slots__ = ()


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
        # each cycle latches one product bit; those pulses are not charged
        Register("product bits", n, Clocking.EVERY_CYCLE, None),
        Register("ring gate latches", num_blocks(n, cfg.cost.block_size),
                 Clocking.EVERY_CYCLE, "gating", gate_latch=True),
    )


def fixed_charges(cfg: ArchConfig) -> ToggleLedger:
    """Every charge of one run under ``cfg`` that does not depend on the
    operands, the ledger of the run 0 x 0: the clock pulses of the
    inventory's registers, the counter's own output toggles, and the clock
    gate of a register clocked on add cycles, as b = 0 bypasses on every
    cycle.  With ``_add_clock`` it is all that reads ``s`` and ``g``.

    ``simulate`` computes it once per config, on the config's first call
    (``_packed``), and ``run_sliced`` once per call for each datapath.
    """
    n = cfg.width
    cost = cfg.cost
    charges = dict.fromkeys(LEDGER_CATEGORIES, 0)
    for reg in register_inventory(cfg):
        if reg.category is None:
            continue
        if reg.clocking is Clocking.EVERY_CYCLE:
            charge = n * reg.width * (cost.g if reg.gate_latch else cost.s)
        elif reg.clocking is Clocking.RING_BLOCK:
            charge = _ring_pulses(reg.width, cost.block_size) * cost.s
        elif reg.clocking is Clocking.ADD_CYCLES:  # every cycle bypasses
            charge = n * cost.g
        else:  # NEVER gets no pulse
            continue
        charges[reg.category] += charge
    if cfg.variant is Variant.CONVENTIONAL:
        # counting from 0 up to n - 1 flips 2(n - 1) - popcount(n - 1) bits,
        # and the wrap back to 0 flips the popcount(n - 1) bits still set
        charges["counter_internal"] += 2 * (n - 1)
    elif n > 1:
        # each step moves the hot bit: two ring outputs toggle, and so do the
        # two one-hot select lines of the mux tree they drive
        charges["counter_output"] = charges["mux_select"] = 2 * n
    return ToggleLedger(**charges)


def _add_clock(cfg: ArchConfig) -> int:
    """What one add cycle charges over a bypass, for each register the
    inventory clocks on add cycles only (the low-power feeder/bypass
    storage): s per flip-flop, less the g its clock gate costs a bypass."""
    return sum(cfg.cost.s * reg.width - cfg.cost.g for reg in register_inventory(cfg)
               if reg.clocking is Clocking.ADD_CYCLES)


def _ring_pulses(n: int, block_size: int) -> int:
    """Flip-flop clock pulses of an ``n``-bit block-gated ring over the n
    steps of a run from reset.  Each step clocks the hot bit's block: a
    block of size k holds the hot bit for k steps, k * k pulses.  A step
    that moves the hot bit into another block clocks that block too: with
    more than one block, each is entered once (block 0 by the wrap), n
    pulses in all."""
    full, part = divmod(n, block_size)  # the trailing block may be short
    return full * block_size * block_size + part * part + (n if n > block_size else 0)


class Lanes(namedtuple("Lanes", [
    "L",  # lane width, 2n + 1
    "copies",  # bit 2n*i set for each lane i < n
    "prefixes",  # bits [0, i] of copy i
    "selects",  # bit 0 of each lane
    "low",  # bits [0, n) of each lane
    "carries",  # bits [n, 2n) of each lane: low << n
    "running",  # bits [0, n] of each lane
    "lanes",  # all n lanes
    "register",  # lanes >> (n - 1): where partial holds the conventional register
    "top",  # 2n*(n - 1): where the last copy starts
])):
    """Constants that pack all n cycles of one n-bit multiplication into one
    int, cycle i in lane i: bits [L*i, L*(i+1)), L = 2n + 1.

    ``b * copies`` lays copy i of b at bit 2n*i = L*i - i, with room for its
    product by a, so copy i's bit i is lane i's bottom bit, the multiplier
    bit cycle i selects.  Keeping bits [0, i] of copy i (``prefixes``) and
    multiplying by a leaves a*(b mod 2^(i+1)) at L*i - i: its top n + 1 bits
    (``running``) are cycle i's adder output, bottom-aligned in lane i.  A
    per-cycle sum of Hamming distances is then one popcount of
    ``(V ^ (V << L)) & lanes``: lane i of ``V << L`` is cycle i - 1's state,
    and lane 0's is the reset state 0.  The conventional register's lane i
    is lane i of ``partial << (n - 1)``, so its toggles are counted on
    ``partial`` under the mask shifted down instead (``register``).
    """

    __slots__ = ()

    @classmethod
    def build(cls, n: int) -> Lanes:
        L = 2 * n + 1
        # geometric series: one bit every 2n bits (copies) or every L bits
        # (selects), n terms
        copies = ((1 << 2 * n * n) - 1) // ((1 << 2 * n) - 1)
        selects = ((1 << L * n) - 1) // ((1 << L) - 1)
        # bit L*i = 2n*i + i, doubled, minus bit 2n*i: bits [0, i] of copy i
        prefixes = 2 * selects - copies
        low = ((1 << n) - 1) * selects
        lanes = (1 << L * n) - 1
        return cls(L, copies, prefixes, selects, low, low << n, ((2 << n) - 1) * selects,
                   lanes, lanes >> (n - 1), 2 * n * (n - 1))


class CycleTrace(namedtuple("CycleTrace", [
    "cycle",
    "counter_state",  # a Word
    "selected_bit",  # 1 on an add cycle
    "running_sum",  # a Word
    "product_so_far",  # a Word
])):
    """One simulated cycle: counter state, selected bit, and running values."""

    __slots__ = ()


# Each kernel call builds a new result, whose ledger the caller may change.
# The package's one dataclass, only because perfbench's self-test
# (``_wrong_product``) calls ``dataclasses.replace`` on it.  ``cycles``, the
# config's width, has one reader left, perfbench's tracer (``_kernel``).
# Once the benchmark stops using both, this can become a plain slotted class
# of product and ledger.
@dataclass(slots=True)
class SimResult:
    product: Word
    ledger: ToggleLedger

    @property
    def cycles(self) -> int:
        """One cycle per multiplier bit: half the product's width."""
        return self.product.width // 2


def _check_operands(a: Word, b: Word, cfg: ArchConfig) -> None:
    """Raise for operands whose width is not the config's.  The kernel
    compares the widths inline first and calls this only on a mismatch."""
    if a.width != cfg.width or b.width != cfg.width:
        raise ValueError(
            f"operand widths ({a.width}, {b.width}) do not match config width {cfg.width}"
        )


@functools.lru_cache(maxsize=CONFIG_CACHE_SIZE)
def _packed(cfg: ArchConfig) -> tuple[Lanes, ToggleLedger, int]:
    """What ``simulate`` reads that depends on ``cfg`` alone, computed on
    the config's first call: its lanes, fixed charges and add-cycle clock.
    Every call shares the fixed charges' ledger, so it is only read."""
    return Lanes.build(cfg.width), fixed_charges(cfg), _add_clock(cfg)


def simulate(a: Word, b: Word, cfg: ArchConfig) -> SimResult:
    """Simulate ``a * b`` on ``cfg``'s datapath, conventional or low-power.

    Each cycle adds A or 0 to the running high part, as B's selected bit
    says.  The conventional datapath shifts B and the partial product every
    cycle; the low-power one holds B still, selects bit i through a gated ring
    and one-hot mux, and on a '0' holds its adder and feeder.  Both compute
    the same running sums, so one body runs both, all cycles at once: lane i
    of ``partial`` holds cycle i's adder output, and its last copy is the
    product.  The datapaths differ only in B's part, which one branch on the
    variant sets:

    * held adder: the low-power adder masks keep the add lanes alone, and a
      forward fill copies the held state up into the bypass lanes, where the
      conventional masks cover every lane and nothing is filled;
    * toggle window: register toggles count under the whole conventional
      register, or the low-power feeder;
    * charges in b alone: B's shift (conventional), the feeder's clock
      (low-power), and the select toggles, which the conventional mux data
      swing between 0 and A on and the low-power mux output, the selected
      bit, follows.

    ``run_conventional`` and ``run_lowpower`` are this function under the
    names ``harness`` calls, so that a profiler can wrap and time the
    two datapaths apart; each runs ``cfg``'s own datapath.
    """
    n = cfg.width
    if a.width != n or b.width != n:
        _check_operands(a, b, cfg)
    (L, copies, prefixes, selects, low, carries, running, lanes, register, top), fixed, \
        add_clock = _packed(cfg)
    av, bv = a.value, b.value
    copied = bv * copies
    # where the selected bit differs from the previous cycle's (reset: 0)
    select_toggles = ((bv ^ (bv << 1)) & ((1 << n) - 1)).bit_count()
    if cfg.variant is Variant.CONVENTIONAL:
        gaps = 0  # every lane adds
        window = register  # lane i of partial << (n - 1)
        multiplier_shift = fixed.multiplier_shift + (((bv ^ (bv >> 1)) * copies) & low).bit_count()
        mux_select = select_toggles
        mux_data = select_toggles * av.bit_count()
        feeder_clock = 0
    else:
        fired = (copied & selects) * ((1 << L) - 1)  # every bit of each add lane
        low &= fired
        carries &= fired
        # a bypass lane holds the adder's state; those below the first add
        # lane hold the reset state 0, so only those above it are filled
        gaps = (lanes ^ fired) & -(fired & -fired)
        window = running  # the feeder holds lane i of out
        multiplier_shift = 0
        mux_select = fixed.mux_select
        mux_data = select_toggles
        feeder_clock = fixed.feeder_bypass_clock + bv.bit_count() * add_clock
    partial = av * (copied & prefixes)
    out = partial & running  # lane i: the adder's output (carry : sum)
    # the adder's internal signals, (carry chain : sum) in bits [n, 2n) and
    # [0, n) of each lane.  Its inputs are the previous lane's output shifted
    # down one and the addend, their difference; the carry out of stage j
    # is bit j + 1 of input ^ addend ^ output
    high = out << L - 1 & low
    adder = (out & low) | ((high ^ (out - high) ^ out) << n - 1 & carries)
    # a gap lane takes the state of the nearest adding lane below it,
    # doubling the reach per step; it stays a gap if its source was one
    step = L
    while gaps:
        adder |= (adder << step) & gaps
        gaps &= gaps << step
        step <<= 1

    ledger = ToggleLedger(  # positional, in LEDGER_CATEGORIES order
        multiplier_shift,
        # lane i of the conventional register after cycle i is a*(b mod
        # 2^(i+1)) shifted up by the n - 1 - i cycles still to run
        fixed.partial_product_shift + ((partial ^ (partial << L)) & window).bit_count(),
        ((adder ^ (adder << L)) & lanes).bit_count(),
        fixed.counter_internal,
        fixed.counter_output,
        mux_select,
        mux_data,
        feeder_clock,
        fixed.gating,
    )
    # the product is the last copy, a*b < 2**(2n), and 2n <= 64: low-power
    # cycle i latches bit i of a*(b mod 2^(i+1)), and later adds touch only
    # bit i + 1 and up
    return SimResult(_exact_word(partial >> top, 2 * n), ledger)


# the names harness runs each datapath's per-pair runs by
run_conventional = run_lowpower = simulate


def sliced_cycles(a_slices: Sequence[int],
                  b_slices: Sequence[int]) -> Iterator[tuple[int, list[int], list[int]]]:
    """The shift-add recurrence of both datapaths, bit-sliced: bit t of slice
    j is bit j of trial t's operand, so each signal is one int for all trials
    (Biham, "A Fast New DES Implementation in Software", FSE 1997).  Yields,
    for each cycle i, the selected multiplier slice B_i, the 2n-slice register
    ``reg`` after the cycle and the carry-out of each adder stage.

    Cycle i's ripple adder sums x + (A & B_i), x the top n slices of ``reg``,
    and ``reg`` takes (carry : sum : its low half) shifted right by one; after
    n cycles it holds the product slices.  No config enters: the low-power
    feeder takes that sum where B_i is set and holds x elsewhere, the same
    value, since adding 0 leaves x and no carry, so it is ``reg[n - 1:]`` and
    the products do not depend on the datapath."""
    n = len(a_slices)
    reg = [0] * (2 * n)
    for sel in b_slices:
        new = reg[1:n]
        carries = []
        carry = 0
        for x, a in zip(reg[n:], a_slices):
            m = a & sel
            t = x ^ m
            new.append(t ^ carry)
            carry = (x & m) | (carry & t)
            carries.append(carry)
        new.append(carry)
        reg = new
        yield sel, reg, carries


def run_sliced(cost: RingCostModel, a_slices: Sequence[int], b_slices: Sequence[int],
               trials: int) -> tuple[list[int], list[ToggleLedger]]:
    """Run ``trials`` multiplications of width n = ``len(a_slices)`` on both
    datapaths at once, through one ``sliced_cycles`` run.  Returns the 2n
    product slices and one ledger per ``Variant``, in ``Variant`` order, each
    the sum of the per-pair kernels' ledgers.

    A cycle's conventional adder signals are its sums, ``reg[n - 1:2n - 1]``,
    and carries; its sums and carry-out are the register's top n + 1 slices,
    all of the low-power feeder.  The low-power adder holds its state where
    B_i is clear.  The register's low half only shifts settled product bits
    down: slot j holds 0, then product bits 0 .. j in turn.  That and the
    charges in b alone are closed forms; ``fixed_charges`` is per trial."""
    n = len(a_slices)
    configs = [ArchConfig(variant, n, cost) for variant in Variant]
    state = held = [0] * (2 * n)  # each adder's sums and carries, from reset
    adder = top = held_adder = 0
    for sel, reg, carries in sliced_cycles(a_slices, b_slices):
        signals = reg[n - 1:2 * n - 1] + carries
        toggles = list(map(int.bit_count, map(operator.xor, signals, state)))
        adder += sum(toggles)
        top += sum(toggles[:n]) + toggles[-1]  # the register's top: sums and carry-out
        state = signals
        moved = [(v ^ old) & sel for v, old in zip(signals, held)]  # only where B_i is set
        held_adder += sum(map(int.bit_count, moved))
        held = list(map(operator.xor, held, moved))
    low_half = (n - 1) * reg[0].bit_count() + sum(
        (n - 2 - m) * (reg[m] ^ reg[m + 1]).bit_count() for m in range(n - 2))
    # where each cycle's select differs from the previous cycle's (reset: 0)
    changes = [sel ^ below for sel, below in zip(b_slices, [0, *b_slices])]
    select_toggles = sum(change.bit_count() for change in changes)
    counts = ({
        "partial_product_shift": top + low_half,
        "adder": adder,
        "mux_select": select_toggles,
        # the mux output swings between 0 and A where the select changed
        "mux_data": sum((a & change).bit_count() for change in changes for a in a_slices),
        # cycle i's shift of B toggles bit k >= i where B_k != B_(k+1), with B_n = 0
        "multiplier_shift": sum((k + 1) * (bk ^ above).bit_count() for k, (bk, above)
                                in enumerate(zip(b_slices, [*b_slices[1:], 0]))),
    }, {
        "partial_product_shift": top,
        "adder": held_adder,
        # the low-power select lines are the ring's; its mux output is the selected bit
        "mux_data": select_toggles,
        "feeder_bypass_clock": sum(sel.bit_count() for sel in b_slices) * _add_clock(configs[1]),
    })
    return reg, [ToggleLedger(**{category: trials * fixed + extra.get(category, 0)
                                 for category, fixed in fixed_charges(cfg).as_dict().items()})
                 for cfg, extra in zip(configs, counts)]


def trace_rows(a: Word, b: Word, cfg: ArchConfig) -> tuple[CycleTrace, ...]:
    """One ``CycleTrace`` per cycle of the run of ``a * b`` under ``cfg``,
    read from the kernels' lanes (see ``Lanes``).  Cycle i selects bit i of
    b; the bottom n + 1 bits of lane i of ``partial`` are its adder output
    (carry : sum), which the low-power feeder holds too; copy i of
    ``partial`` is its settled product a*(b mod 2^(i+1)).  The conventional
    counter holds i, the ring its hot bit 1 << i."""
    _check_operands(a, b, cfg)
    n = cfg.width
    lanes = _packed(cfg)[0]
    L = lanes.L
    bv = b.value
    partial = a.value * (bv * lanes.copies & lanes.prefixes)
    conventional = cfg.variant is Variant.CONVENTIONAL
    # the cycle counter or the ring; at width 1 a counter of no flip-flops
    counter_width = max(1, next(reg.width for reg in register_inventory(cfg)
                                if reg.category == "counter_internal"))
    return tuple(CycleTrace(
        cycle=i,
        counter_state=Word(i if conventional else 1 << i, counter_width),
        selected_bit=bv >> i & 1,
        running_sum=Word(partial >> L * i, n + 1),
        product_so_far=Word(partial >> 2 * n * i, 2 * n),
    ) for i in range(n))


def render_trace(a: Word, b: Word, cfg: ArchConfig) -> str:
    """Plain-text multiplication table of ``a * b`` under ``cfg``, one row
    per cycle of ``trace_rows``.

    Each row shows the counter state, the selected multiplier bit, and the
    addend that bit produced (A on an add cycle, zeros on a bypass).
    """
    rows = trace_rows(a, b, cfg)
    lines = [
        f"A -> {a.to_bin()}  ({a.value})",
        f"B -> {b.to_bin()}  ({b.value})",
        "-" * 44,
    ]
    for row in rows:
        addend = a if row.selected_bit else Word(0, a.width)
        lines.append(
            f"cycle {row.cycle}  [{row.counter_state.to_bin()}]  "
            f"B({row.cycle})={row.selected_bit}  {addend.to_bin()}"
        )
    lines.append("-" * 44)
    product = rows[-1].product_so_far
    lines.append(f"Answer -> {product.to_bin()}  ({product.value})")
    return "\n".join(lines)
