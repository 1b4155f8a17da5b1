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
only the data-dependent work and add that ledger once per run.  They do
that work for all cycles of a run at once, with no per-cycle loop: cycle i
is lane i of one packed int (``Lanes``), and each category's per-cycle
Hamming sum is one popcount.

Part of that work depends on the multiplier alone: its masked copies, the
lanes it fires, the schedule of the low-power forward fill, and its
closed-form charges.  That part is the plan for the multiplier value b, read
through ``cfg.plan(b)`` and computed by one plan function per datapath, which
the config binds once to the width, lane masks and clock charges it reads.
Up to width ``PLAN_WIDTH_LIMIT`` a config is built with a table of every b's
plan, at most 256 of them, so a kernel computes only the multiplicand's part
per call; wider configs call the plan function each time.  Where all 4**n
operand pairs fit that bound (n <= 4), a config also holds ``results``, every
(a, b) result its kernel computes, and a kernel call returns the entry, shared
and never mutated.  A kernel returns a run's product and ledger only;
``trace_rows`` reads a run's cycle-by-cycle rows from the same lanes.  What a
kernel reads on every call that depends on the config alone, lane constants
and fixed charges, it unpacks from one tuple, ``cfg.constants``.  A config
holds only what its kernels read: constants, plan and results, built whole
with it and never changed; ``make_config`` returns one shared config per
config value, so they are built once.

``run_sliced`` runs many multiplications at once, bit-sliced: each signal
bit is one int whose bit t belongs to trial t, and each cycle of the
datapath is a few big-int operations per signal bit for all trials.  One
cycle loop serves both datapaths: the low-power one is the conventional
register and adder, with the adder's state held on bypass cycles and
toggles counted on the feeder alone.  It returns the product slices and the
summed ledger, and ``exhaustive_verify`` runs it over every operand pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .bits import Word, _exact_word

MAX_OPERAND_WIDTH = 32
# widest config with a plan table, of 2**8 plans; at width 16 a table could
# hold 65,536 plans per config, most of them used once in a sweep
PLAN_WIDTH_LIMIT = 8
# config values make_config keeps built; a sweep uses two per width
CONFIG_CACHE_SIZE = 64
# flip-flops per gated ring block, unless a width below it clamps it
DEFAULT_BLOCK_SIZE = 4


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
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.g < 0:
            raise ValueError("g must be >= 0")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")


def num_blocks(width: int, block_size: int) -> int:
    return -(-width // block_size)


@dataclass(frozen=True, slots=True)
class ArchConfig:
    """Architecture variant, operand width and cost parameters.

    A run processes every multiplier bit, one per cycle, so it takes
    ``width`` cycles.  The constructor also builds what the kernels read, and
    nothing else: ``constants``, the tuple its kernel unpacks on each call
    (lane constants and fixed charges); ``plan``, which maps a multiplier
    value to its plan, the plan function bound to the numbers it reads or a
    table of its plans; and ``results``, the result of each pair at
    ``a << width | b``, or None where 4**width exceeds 2**PLAN_WIDTH_LIMIT.
    Build configs with ``make_config``, which returns one shared instance per
    config value, so that a caller who asks for a config per run does not
    rebuild them.
    """

    variant: Variant
    width: int
    cost: RingCostModel = RingCostModel()
    constants: tuple[int, ...] = field(init=False, repr=False, compare=False)
    plan: Callable[[int], tuple[int, ...]] = field(init=False, repr=False, compare=False)
    results: tuple[SimResult, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_OPERAND_WIDTH:
            raise ValueError(f"width must be in 1..{MAX_OPERAND_WIDTH}, got {self.width}")
        if self.cost.block_size > self.width:
            raise ValueError(
                f"block_size {self.cost.block_size} exceeds width {self.width}"
            )
        n = self.width
        fixed = fixed_charges(self)
        lanes = Lanes.build(n)
        shared = (lanes.L, lanes.L - 1, n - 1, lanes.low, lanes.carries, lanes.running)
        if self.variant is Variant.CONVENTIONAL:
            constants = shared + (lanes.register, lanes.lanes, lanes.top,
                                  fixed.partial_product_shift, fixed.counter_internal)
            plan = functools.partial(_conventional_plan, n, lanes.copies, lanes.prefixes,
                                     lanes.low, fixed.multiplier_shift)
        else:
            constants = shared + (lanes.lanes, lanes.top, fixed.counter_internal,
                                  fixed.counter_output, fixed.mux_select, fixed.gating)
            plan = functools.partial(_lowpower_plan, n, lanes.copies, lanes.prefixes,
                                     lanes.selects, lanes.lanes, _add_clock(self), self.cost.g)
        object.__setattr__(self, "constants", constants)
        if self.width <= PLAN_WIDTH_LIMIT:  # every b's plan, built now
            plan = tuple(map(plan, range(1 << self.width))).__getitem__
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "results", None)  # so the kernels below compute
        if 2 * self.width <= PLAN_WIDTH_LIMIT:  # every (a, b) result, built now
            words = [Word(v, self.width) for v in range(1 << self.width)]
            object.__setattr__(self, "results", tuple(
                simulate(a, b, self) for a in words for b in words))


def make_config(
    variant: Variant | str,
    width: int,
    *,
    s: int = 2,
    g: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> ArchConfig:
    """The one shared ArchConfig for this config value, however it is spelled:
    the variant may be given by name.  The one place a block size is clamped:
    it is lowered to the width (or 1, so that a width out of range meets
    ``ArchConfig``'s width check); ``RingCostModel`` refuses one below 1."""
    block_size = min(block_size, max(1, width))
    return _shared_config(Variant(variant), width, RingCostModel(s, g, block_size))


_shared_config = functools.lru_cache(maxsize=CONFIG_CACHE_SIZE)(ArchConfig)


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

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

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


LEDGER_CATEGORIES: tuple[str, ...] = tuple(f.name for f in fields(ToggleLedger))
# the categories run_conventional can charge: it has no ring, clock gates or
# feeder/bypass storage
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
        # each cycle latches one product bit; those pulses are not charged
        Register("product bits", n, Clocking.EVERY_CYCLE, None),
        Register("ring gate latches", num_blocks(n, cfg.cost.block_size),
                 Clocking.EVERY_CYCLE, "gating", gate_latch=True),
    )


def fixed_charges(cfg: ArchConfig) -> ToggleLedger:
    """Every charge of one run under ``cfg`` that does not depend on the
    operands: the clock pulses of the inventory's registers (those clocked
    on add cycles excepted) and the counter's own output toggles.

    It is computed once per config, when the config is built: the kernels
    read its entries through ``cfg.constants``, and the conventional plan is
    bound to its ``multiplier_shift``.
    """
    n = cfg.width
    cost = cfg.cost
    ledger = ToggleLedger()
    for reg in register_inventory(cfg):
        if reg.category is None:
            continue
        if reg.clocking is Clocking.EVERY_CYCLE:
            pulses = n * reg.width
        elif reg.clocking is Clocking.RING_BLOCK:
            pulses = _ring_pulses(reg.width, cost.block_size)
        else:  # add-cycle pulses depend on the multiplier; NEVER gets none
            continue
        charge = pulses * (cost.g if reg.gate_latch else cost.s)
        setattr(ledger, reg.category, getattr(ledger, reg.category) + charge)
    if cfg.variant is Variant.CONVENTIONAL:
        # counting from 0 up to n - 1 flips 2(n - 1) - popcount(n - 1) bits,
        # and the wrap back to 0 flips the popcount(n - 1) bits still set
        ledger.counter_internal += 2 * (n - 1)
    elif n > 1:
        # each step moves the hot bit: two ring outputs toggle, and so do the
        # two one-hot select lines of the mux tree they drive
        ledger.counter_output = ledger.mux_select = 2 * n
    return ledger


def _add_clock(cfg: ArchConfig) -> int:
    """The clock charge of one add cycle: s per flip-flop the inventory clocks
    on add cycles only (the low-power feeder/bypass storage)."""
    return cfg.cost.s * sum(reg.width for reg in register_inventory(cfg)
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


class Lanes(NamedTuple):
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

    L: int  # lane width, 2n + 1
    copies: int  # bit 2n*i set for each lane i < n
    prefixes: int  # bits [0, i] of copy i
    selects: int  # bit 0 of each lane
    low: int  # bits [0, n) of each lane
    carries: int  # bits [n, 2n) of each lane: low << n
    running: int  # bits [0, n] of each lane
    lanes: int  # all n lanes
    register: int  # lanes >> (n - 1): where partial holds the conventional register
    top: int  # 2n*(n - 1): where the last copy starts

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


@dataclass(frozen=True, slots=True)
class CycleTrace:
    """One simulated cycle: counter state, selected bit, and running values."""

    cycle: int
    counter_state: Word
    selected_bit: int  # 1 on an add cycle
    running_sum: Word
    product_so_far: Word


@dataclass(slots=True)
class SimResult:
    product: Word
    ledger: ToggleLedger

    @property
    def cycles(self) -> int:
        """One cycle per multiplier bit: half the product's width."""
        return self.product.width // 2


def _check_operands(a: Word, b: Word, cfg: ArchConfig) -> None:
    """Raise for operands whose width is not the config's.  The kernels
    compare the widths inline first and call this only on a mismatch."""
    if a.width != cfg.width or b.width != cfg.width:
        raise ValueError(
            f"operand widths ({a.width}, {b.width}) do not match config width {cfg.width}"
        )


def _conventional_plan(n: int, copies: int, prefixes: int, low: int, shift_fixed: int,
                       bv: int) -> tuple[int, int, int]:
    """B's part of a conventional run, for the numbers the config binds:
    masked copies, shift toggles (on top of B's clock) and select toggles."""
    masked = bv * copies & prefixes
    multiplier_shift = shift_fixed + (((bv ^ (bv >> 1)) * copies) & low).bit_count()
    mux_select = ((bv ^ (bv << 1)) & ((1 << n) - 1)).bit_count()
    return masked, multiplier_shift, mux_select


def _lowpower_plan(
    n: int, copies: int, prefixes: int, selects: int, lanes: int, add_clock: int, g: int, bv: int,
) -> tuple[int, int, tuple[int, ...], int, int]:
    """B's part of a low-power run, for the numbers the config binds: masked
    copies, add lanes, the forward fill's schedule, and the closed forms of
    mux data and the feeder's clock (``add_clock`` per add, ``g`` per bypass).

    A bypass cycle holds the adder's state, so the kernel fills each other
    lane from the nearest add lane below it, doubling the reach per step:
    step k shifts by L << k and fills the lanes of the schedule's mask k.
    The lanes below the first add lane hold the reset state 0 and count as
    filled from the start (all lanes, when no cycle adds), and the schedule
    ends once every lane is filled."""
    L = 2 * n + 1
    copied = bv * copies
    masked = copied & prefixes
    fired = (copied & selects) * ((1 << L) - 1)  # every bit of each add lane
    gaps = (lanes ^ fired) & -(fired & -fired)  # lanes to fill, 0 if none adds
    fill = []
    step = L
    while gaps:
        fill.append(gaps)
        # a gap lane stays a gap if the lane it is filled from was a gap too
        gaps &= gaps << step
        step <<= 1
    # the mux output switches whenever the selected bit differs from the
    # previous cycle's (reset: 0)
    mux_data = ((bv ^ (bv << 1)) & ((1 << n) - 1)).bit_count()
    adds = bv.bit_count()
    return masked, fired, tuple(fill), mux_data, adds * add_clock + (n - adds) * g


def run_conventional(a: Word, b: Word, cfg: ArchConfig) -> SimResult:
    """Simulate the conventional datapath: shifting B, shifting partial
    product, binary cycle counter, 0/A multiplexer feeding the adder.

    Per cycle: the current LSB of B drives the mux select; the adder sums the
    partial product's high half with the mux output; the partial product
    register (carry, sum, low half) captures the result shifted right by
    one; B shifts right; the counter increments.  All three registers are
    clocked every cycle; those clock charges and the counter's toggles come
    from ``cfg.constants``.  The data-dependent work is computed for all
    cycles at once on packed lanes (see ``Lanes``), B's part of it in one
    call of ``cfg.plan`` (``_conventional_plan``).
    """
    n = cfg.width
    if a.width != n or b.width != n:
        _check_operands(a, b, cfg)
    if cfg.results is not None:
        return cfg.results[a.value << n | b.value]
    (L, L_1, n_1, low, carries, running, register, lanes, top,
     partial_product_fixed, counter_internal) = cfg.constants
    av = a.value
    masked, multiplier_shift, mux_select = cfg.plan(b.value)
    partial = av * masked
    out = partial & running  # lane i: the adder's output (carry : sum)
    # the adder's internal signals, (carry chain : sum) in bits [n, 2n) and
    # [0, n) of each lane.  Its inputs are the previous lane's output shifted
    # down one and the addend, their difference; the carry out of stage j
    # is bit j + 1 of input ^ addend ^ output
    high = out << L_1 & low
    adder = (out & low) | ((high ^ (out - high) ^ out) << n_1 & carries)

    ledger = ToggleLedger(  # positional, in LEDGER_CATEGORIES order
        multiplier_shift,
        # lane i of the register after cycle i is a*(b mod 2^(i+1)) shifted
        # up by the n - 1 - i cycles still to run: lane i of partial << (n - 1)
        partial_product_fixed + ((partial ^ (partial << L)) & register).bit_count(),
        ((adder ^ (adder << L)) & lanes).bit_count(),
        counter_internal,
        0,  # counter_output
        mux_select,
        # mux_data: the mux output swings between 0 and A on a select change
        mux_select * av.bit_count(),
    )
    # the last copy is a*b < 2**(2n), and 2n <= 64
    return SimResult(_exact_word(partial >> top, 2 * n), ledger)


def run_lowpower(a: Word, b: Word, cfg: ArchConfig) -> SimResult:
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
    ``cfg.constants``; the feeder's clock and the mux data line are closed
    forms in the multiplier bits.  The adder and the feeder's data toggles
    are computed for all cycles at once on packed lanes (see ``Lanes``),
    B's part of it in one call of ``cfg.plan`` (``_lowpower_plan``).
    """
    n = cfg.width
    if a.width != n or b.width != n:
        _check_operands(a, b, cfg)
    if cfg.results is not None:
        return cfg.results[a.value << n | b.value]
    (L, L_1, n_1, low, carries, running, lanes, top,
     counter_internal, counter_output, mux_select, gating) = cfg.constants
    masked, fired, fill, mux_data, feeder_clock = cfg.plan(b.value)
    partial = a.value * masked
    # lane i: the feeder/bypass storage (carry : sum) after cycle i, which
    # is what the conventional adder outputs on that cycle
    feeder = partial & running
    # the adder's signals on add cycles, as in run_conventional
    high = feeder << L_1 & low
    adder = ((feeder & low) | ((high ^ (feeder - high) ^ feeder) << n_1 & carries)) & fired
    # a bypass cycle holds the adder's state: the plan's schedule fills each
    # other lane from the nearest add lane below it, doubling the reach per step
    step = L
    for mask in fill:
        adder |= (adder << step) & mask
        step <<= 1

    ledger = ToggleLedger(  # positional, in LEDGER_CATEGORIES order
        0,  # multiplier_shift
        ((feeder ^ (feeder << L)) & lanes).bit_count(),
        ((adder ^ (adder << L)) & lanes).bit_count(),
        counter_internal,
        counter_output,
        mux_select,
        mux_data,
        feeder_clock,
        gating,
    )
    # cycle i latches bit i of a*(b mod 2^(i+1)); later adds touch only bit
    # i + 1 and up.  The last copy is a*b < 2**(2n), and 2n <= 64
    return SimResult(_exact_word(partial >> top, 2 * n), ledger)


def simulate(a: Word, b: Word, cfg: ArchConfig) -> SimResult:
    if cfg.variant is Variant.CONVENTIONAL:
        return run_conventional(a, b, cfg)
    return run_lowpower(a, b, cfg)


def run_sliced(cfg: ArchConfig, a_slices: Sequence[int], b_slices: Sequence[int],
               trials: int) -> tuple[list[int], ToggleLedger]:
    """Run ``trials`` multiplications under ``cfg`` at once, bit-sliced: bit t
    of slice j is bit j of trial t's operand, so each signal of the datapath is
    one int for all trials (Biham, "A Fast New DES Implementation in
    Software", FSE 1997).  Returns the 2n product slices and the ledger summed
    over all trials, equal to the sum of the per-pair kernels' ledgers.

    One cycle loop runs both datapaths: cycle i's ripple adder sums
    x + (A & B_i), x the top n slices of the register ``reg``, and ``reg``
    takes (carry : sum : its low half) shifted right by one.  The low-power
    feeder takes that sum where B_i is set and holds x elsewhere, the same
    value, since adding 0 leaves x and no carry: it is ``reg[n - 1:]``.  The
    low-power datapath differs in two charges: its adder holds its state
    where B_i is clear, and only the feeder's toggles count.  Charges that
    do not depend on the operands are ``fixed_charges(cfg)`` for each trial;
    the rest are closed forms in the multiplier slices."""
    n = cfg.width
    conventional = cfg.variant is Variant.CONVENTIONAL
    all_trials = (1 << trials) - 1
    window = 0 if conventional else n - 1  # the register slices whose toggles count
    reg = [0] * (2 * n)
    sums = [0] * n  # the adder's sum and carry-out of each stage, from reset
    carries = [0] * n
    adder = register = 0
    for sel in b_slices:
        hold = all_trials if conventional else sel  # where the adder's state moves
        new = reg[1:n]
        carry = 0
        for j, (x, a) in enumerate(zip(reg[n:], a_slices)):
            m = a & sel
            t = x ^ m
            s = t ^ carry
            carry = (x & m) | (carry & t)
            new.append(s)
            d = (s ^ sums[j]) & hold
            sums[j] ^= d
            adder += d.bit_count()
            d = (carry ^ carries[j]) & hold
            carries[j] ^= d
            adder += d.bit_count()
        new.append(carry)
        register += sum((old ^ v).bit_count() for old, v in zip(reg[window:], new[window:]))
        reg = new
    ledger = ToggleLedger(*(trials * count for count in fixed_charges(cfg).as_dict().values()))
    ledger.partial_product_shift += register
    ledger.adder += adder
    # where each cycle's select differs from the previous cycle's (reset: 0)
    changes = [sel ^ below for sel, below in zip(b_slices, [0, *b_slices])]
    select_toggles = sum(change.bit_count() for change in changes)
    if conventional:
        ledger.mux_select += select_toggles
        # the mux output swings between 0 and A where the select changed
        ledger.mux_data += sum((a & change).bit_count() for change in changes for a in a_slices)
        # cycle i's shift of B toggles bit k >= i where B_k != B_(k+1), with B_n = 0
        ledger.multiplier_shift += sum((k + 1) * (bk ^ above).bit_count() for k, (bk, above)
                                       in enumerate(zip(b_slices, [*b_slices[1:], 0])))
    else:
        # the low-power select lines are the ring's; its mux output is the selected bit
        ledger.mux_data += select_toggles
        adds = sum(sel.bit_count() for sel in b_slices)
        ledger.feeder_bypass_clock += adds * _add_clock(cfg) + (n * trials - adds) * cfg.cost.g
    return reg, ledger


def trace_rows(a: Word, b: Word, cfg: ArchConfig) -> tuple[CycleTrace, ...]:
    """One ``CycleTrace`` per cycle of the run of ``a * b`` under ``cfg``,
    read from the kernels' lanes (see ``Lanes``).  Cycle i selects bit i of
    b; the bottom n + 1 bits of lane i of ``partial`` are its adder output
    (carry : sum), which the low-power feeder holds too; copy i of
    ``partial`` is its settled product a*(b mod 2^(i+1)).  The conventional
    counter holds i, the ring its hot bit 1 << i."""
    _check_operands(a, b, cfg)
    n = cfg.width
    L = 2 * n + 1
    bv = b.value
    partial = a.value * cfg.plan(bv)[0]  # both plans start with the masked copies
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
