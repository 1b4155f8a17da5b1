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
per-cycle Hamming sum is one popcount.  The low-power datapath differs only
in data that its config and plan supply (see ``simulate``).
``run_conventional`` and ``run_lowpower`` are the same function, under the
names ``harness`` runs each datapath's per-pair runs by.

Part of the kernel's work depends on the multiplier alone: its masked
copies, the adder masks, the fill schedule and closed-form charges.  That
part is the plan for the multiplier value b, read through ``cfg.plan(b)``.
Each datapath has its own plan function, since their closed forms differ,
with one return shape; the config binds it to the numbers it reads.  Up to
width ``PLAN_WIDTH_LIMIT`` a config is built with a table of every b's
plan, at most 256, so a call computes only the multiplicand's part; wider
configs call the plan function each time.  Where all 4**n operand pairs fit
that bound (n <= 4), a config also holds ``results``, every (a, b) result
the kernel computes, and a call returns the entry, which every caller
shares: the entry and its ledger are read-only.  The kernel returns a run's
product and ledger only; ``trace_rows`` reads a run's cycle-by-cycle rows
from the same lanes.  What the kernel reads on every call that depends on
the config alone (lane constants, the toggle window, fixed charges) it
unpacks from one tuple of one layout, ``cfg.constants``.  A config holds only what its
kernel reads: constants, plan and results, built whole with it and never
changed; ``make_config`` returns one shared config per config value, so
they are built once.

``sliced_cycles`` runs many multiplications at once, bit-sliced: each
signal bit is one int whose bit t belongs to trial t, and each cycle is a few
big-int operations per signal bit for all trials.  It takes no config: the
low-power feeder holds what the conventional register's top part does, so
the products do not depend on the datapath, and ``exhaustive_verify`` runs
it once for both, reading its final register alone.  ``run_sliced`` charges
one config's summed ledger from its cycles: the low-power adder holds its
state on bypass cycles, and its register toggles count on the feeder alone.
``harness.sweep`` runs it on each chunk of operand slices.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

from .bits import Word, _exact_word, _read_only

MAX_OPERAND_WIDTH = 32
# widest config with a plan table, of 2**8 plans; at width 16 a table could
# hold 65,536 plans per config, most of them used once in a sweep
PLAN_WIDTH_LIMIT = 8
# config values make_config keeps built; a sweep uses two per width
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


class ArchConfig:
    """Architecture variant, operand width and cost parameters.

    A run processes every multiplier bit, one per cycle, so it takes
    ``width`` cycles.  The constructor also builds what the kernel reads, and
    nothing else: ``constants``, the tuple it unpacks on each call (lane
    constants, toggle window and fixed charges); ``plan``, which maps a
    multiplier value to its plan, the plan function bound to the numbers it
    reads or a table of its plans; and ``results``, the result of each pair at
    ``a << width | b``, or None where 4**width exceeds 2**PLAN_WIDTH_LIMIT.
    Build configs with ``make_config``, which returns one shared instance per
    config value, so that a caller who asks for a config per run does not
    rebuild them.  A config is immutable; two are equal, and hash alike, where
    their variant, width and cost are.
    """

    __slots__ = ("variant", "width", "cost", "constants", "plan", "results")
    variant: Variant
    width: int
    cost: RingCostModel
    constants: tuple[int, ...]
    plan: Callable[[int], tuple[int, ...]]
    results: tuple[SimResult, ...] | None

    def __init__(self, variant: Variant, width: int,
                 cost: RingCostModel = RingCostModel()) -> None:
        init = object.__setattr__  # past the refusing __setattr__
        init(self, "variant", variant)
        init(self, "width", width)
        init(self, "cost", cost)
        check_width(width)
        if cost.block_size > width:
            raise ValueError(f"block_size {cost.block_size} exceeds width {width}")
        n = width
        fixed = fixed_charges(self)
        lanes = Lanes.build(n)
        shared = (n, lanes.copies, lanes.prefixes, lanes.low, lanes.carries)
        if self.variant is Variant.CONVENTIONAL:
            window = lanes.register  # the whole partial-product register
            plan = functools.partial(_conventional_plan, *shared, fixed.multiplier_shift)
        else:
            window = lanes.running  # the feeder/bypass storage
            plan = functools.partial(_lowpower_plan, *shared, lanes.selects, lanes.lanes,
                                     fixed.mux_select, fixed.feeder_bypass_clock, _add_clock(self))
        init(self, "constants", (
            lanes.L, lanes.L - 1, n - 1, lanes.running, window, lanes.lanes, lanes.top,
            fixed.partial_product_shift, fixed.counter_internal, fixed.counter_output,
            fixed.gating))
        if n <= PLAN_WIDTH_LIMIT:  # every b's plan, built now
            plan = tuple(map(plan, range(1 << n))).__getitem__
        init(self, "plan", plan)
        init(self, "results", None)  # so the kernel below computes
        if 2 * n <= PLAN_WIDTH_LIMIT:  # every (a, b) result, built now
            words = [Word(v, n) for v in range(1 << n)]
            results = tuple(simulate(a, b, self) for a in words for b in words)
            for result in results:  # every caller of the config shares it
                result.ledger.__class__ = SharedLedger
                result.__class__ = SharedResult
            init(self, "results", results)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.variant, self.width, self.cost) == (other.variant, other.width, other.cost)

    def __hash__(self) -> int:
        return hash((self.variant, self.width, self.cost))

    def __repr__(self) -> str:
        return f"ArchConfig(variant={self.variant!r}, width={self.width!r}, cost={self.cost!r})"

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return ArchConfig, (self.variant, self.width, self.cost)


def make_config(
    variant: Variant | str,
    width: int,
    *,
    s: int = RingCostModel().s,
    g: int = RingCostModel().g,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> ArchConfig:
    """The one shared ArchConfig for this config value, however it is spelled:
    the variant may be given by name.  The one place a block size is clamped:
    it is lowered to the width (or 1, so that a width out of range meets
    ``ArchConfig``'s width check); ``RingCostModel`` refuses one below 1."""
    block_size = min(block_size, max(1, width))
    return _shared_config(Variant(variant), width, RingCostModel(s, g, block_size))


_shared_config = functools.lru_cache(maxsize=CONFIG_CACHE_SIZE)(ArchConfig)


LEDGER_CATEGORIES: tuple[str, ...] = (
    "multiplier_shift", "partial_product_shift", "adder", "counter_internal", "counter_output",
    "mux_select", "mux_data", "feeder_bypass_clock", "gating")


class ToggleLedger:
    """Transition and clock-event counts per structural block, one slot per
    category of ``LEDGER_CATEGORIES``.  Two ledgers are equal where every
    count is, shared or not; a ledger is mutable, so it has no hash."""

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


class SharedLedger(ToggleLedger):
    """The ledger of a result in ``ArchConfig.results``, which every caller
    of the config shares: assigning a count raises, and so does ``add``.
    A copy is a plain ``ToggleLedger`` of the same counts."""

    __slots__ = ()
    __setattr__ = __delattr__ = _read_only

    def __reduce__(self) -> tuple:
        return ToggleLedger, tuple(self.as_dict().values())


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

    It is computed once per config, when the config is built: the kernel
    reads its entries through ``cfg.constants`` and the plans, which are bound
    to ``multiplier_shift`` (conventional) or ``mux_select`` (low-power).
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


class SharedResult(SimResult):
    """A result in ``ArchConfig.results``, which every caller of the config
    shares: assigning a field raises.  It equals a plain ``SimResult`` of the
    same fields; a copy is one, and so is what ``dataclasses.replace`` builds."""

    __slots__ = ()
    __setattr__ = __delattr__ = _read_only

    def __new__(cls, product: Word, ledger: ToggleLedger) -> SimResult:
        return SimResult(product, ledger)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimResult):
            return NotImplemented
        return (self.product, self.ledger) == (other.product, other.ledger)

    def __reduce__(self) -> tuple:
        return SimResult, (self.product, self.ledger)


def _check_operands(a: Word, b: Word, cfg: ArchConfig) -> None:
    """Raise for operands whose width is not the config's.  The kernel
    compares the widths inline first and calls this only on a mismatch."""
    if a.width != cfg.width or b.width != cfg.width:
        raise ValueError(
            f"operand widths ({a.width}, {b.width}) do not match config width {cfg.width}"
        )


def _conventional_plan(n: int, copies: int, prefixes: int, low: int, carries: int,
                       shift_fixed: int, bv: int) -> tuple:
    """B's part of a conventional run, for the numbers the config binds, in
    the plan shape ``simulate`` reads.  Every lane adds, so the adder masks are
    the config's own ``low`` and ``carries`` and nothing is filled.  B's shift
    toggles come on top of its clock; the select toggles are also the cycles
    on which the mux output swings between 0 and A."""
    masked = bv * copies & prefixes
    multiplier_shift = shift_fixed + (((bv ^ (bv >> 1)) * copies) & low).bit_count()
    mux_select = ((bv ^ (bv << 1)) & ((1 << n) - 1)).bit_count()
    return masked, low, carries, (), multiplier_shift, mux_select, mux_select, 0, 0


def _lowpower_plan(
    n: int, copies: int, prefixes: int, low: int, carries: int, selects: int, lanes: int,
    mux_select: int, feeder: int, add_clock: int, bv: int,
) -> tuple:
    """B's part of a low-power run, for the numbers the config binds, in the
    plan shape ``simulate`` reads: the adder masks cut to the add lanes, the
    forward fill's schedule, the ring's fixed select toggles, and the closed
    forms of mux data and the feeder's clock (``feeder``, its charge in the
    run 0 x 0, plus ``add_clock`` per add).  B is never clocked or shifted,
    and the mux output is the selected bit, so no mux data swing depends on A.

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
    return (masked, low & fired, carries & fired, tuple(fill), 0, mux_select, 0, mux_data,
            feeder + adds * add_clock)


def simulate(a: Word, b: Word, cfg: ArchConfig) -> SimResult:
    """Simulate ``a * b`` on ``cfg``'s datapath, conventional or low-power.

    Each cycle adds A or 0 to the running high part, as B's selected bit
    says.  The conventional datapath shifts B and the partial product every
    cycle; the low-power one holds B still, selects bit i through a gated ring
    and one-hot mux, and on a '0' holds its adder and feeder.  Both compute
    the same running sums, so one body runs both, all cycles at once: lane i
    of ``partial`` holds cycle i's adder output, and its last copy is the
    product.  B's part is one call of ``cfg.plan`` (``_conventional_plan`` or
    ``_lowpower_plan``); operand-free charges come from ``cfg.constants`` or
    the plan.  The low-power datapath differs only in that data:

    * held adder: its plan's adder masks keep the add lanes alone, and its
      fill schedule copies the held state up into the bypass lanes, where the
      conventional masks cover every lane and nothing is filled;
    * toggle window: register toggles count under the constants' window, the
      whole conventional register or the low-power feeder;
    * mux data: the conventional output swings between 0 and A on the plan's
      ``swings`` cycles; the low-power output is the selected bit, whose
      toggles the plan counts from b alone.

    ``run_conventional`` and ``run_lowpower`` are this function under the
    names ``harness`` calls, so that a profiler can wrap and time the
    two datapaths apart; each runs ``cfg``'s own datapath.
    """
    n = cfg.width
    if a.width != n or b.width != n:
        _check_operands(a, b, cfg)
    if cfg.results is not None:
        return cfg.results[a.value << n | b.value]
    (L, L_1, n_1, running, window, lanes, top,
     register_fixed, counter_internal, counter_output, gating) = cfg.constants
    (masked, low, carries, fill, multiplier_shift, mux_select, swings, mux_data,
     feeder_clock) = cfg.plan(b.value)
    av = a.value
    partial = av * masked
    out = partial & running  # lane i: the adder's output (carry : sum)
    # the adder's internal signals, (carry chain : sum) in bits [n, 2n) and
    # [0, n) of each lane.  Its inputs are the previous lane's output shifted
    # down one and the addend, their difference; the carry out of stage j
    # is bit j + 1 of input ^ addend ^ output
    high = out << L_1 & low
    adder = (out & low) | ((high ^ (out - high) ^ out) << n_1 & carries)
    # a held lane takes the state of the nearest adding lane below it
    step = L
    for mask in fill:
        adder |= (adder << step) & mask
        step <<= 1

    ledger = ToggleLedger(  # positional, in LEDGER_CATEGORIES order
        multiplier_shift,
        # the window: lane i of the conventional register after cycle i is
        # a*(b mod 2^(i+1)) shifted up by the n - 1 - i cycles still to run,
        # lane i of partial << (n - 1); the low-power feeder holds lane i of out
        register_fixed + ((partial ^ (partial << L)) & window).bit_count(),
        ((adder ^ (adder << L)) & lanes).bit_count(),
        counter_internal,
        counter_output,
        mux_select,
        # a plan gives one part and 0 for the other: the conventional swings
        # between 0 and A, or the low-power select-bit toggles
        mux_data or swings * av.bit_count(),
        feeder_clock,
        gating,
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


def run_sliced(cfg: ArchConfig, a_slices: Sequence[int], b_slices: Sequence[int],
               trials: int) -> tuple[list[int], ToggleLedger]:
    """Run ``trials`` multiplications under ``cfg`` at once through
    ``sliced_cycles``.  Returns the 2n product slices and the ledger summed
    over all trials, equal to the sum of the per-pair kernels' ledgers.

    Each cycle's adder signals are its sums, ``reg[n - 1:2n - 1]``, and the
    carries.  The low-power datapath differs in two charges: its adder holds
    its state where B_i is clear, and only the feeder's toggles count.
    Charges that do not depend on the operands are ``fixed_charges(cfg)`` for
    each trial; the rest are closed forms in the multiplier slices."""
    n = cfg.width
    conventional = cfg.variant is Variant.CONVENTIONAL
    window = 0 if conventional else n - 1  # the register slices whose toggles count
    reg = [0] * (2 * n)
    state = [0] * (2 * n)  # the adder's sums and carries, from reset
    adder = register = 0
    for sel, new, carries in sliced_cycles(a_slices, b_slices):
        signals = new[n - 1:2 * n - 1] + carries
        if not conventional:  # the low-power adder moves only where B_i is set
            signals = [old ^ ((v ^ old) & sel) for v, old in zip(signals, state)]
        adder += sum(map(int.bit_count, map(operator.xor, signals, state)))
        state = signals
        register += sum(map(int.bit_count, map(operator.xor, reg[window:], new[window:])))
        reg = new
    # where each cycle's select differs from the previous cycle's (reset: 0)
    changes = [sel ^ below for sel, below in zip(b_slices, [0, *b_slices])]
    select_toggles = sum(change.bit_count() for change in changes)
    if conventional:
        counts = {
            "mux_select": select_toggles,
            # the mux output swings between 0 and A where the select changed
            "mux_data": sum((a & change).bit_count() for change in changes for a in a_slices),
            # cycle i's shift of B toggles bit k >= i where B_k != B_(k+1), with B_n = 0
            "multiplier_shift": sum((k + 1) * (bk ^ above).bit_count() for k, (bk, above)
                                    in enumerate(zip(b_slices, [*b_slices[1:], 0]))),
        }
    else:
        # the low-power select lines are the ring's; its mux output is the selected bit
        counts = {
            "mux_data": select_toggles,
            "feeder_bypass_clock": sum(sel.bit_count() for sel in b_slices) * _add_clock(cfg),
        }
    counts.update(partial_product_shift=register, adder=adder)
    return reg, ToggleLedger(**{category: trials * fixed + counts.get(category, 0)
                                for category, fixed in fixed_charges(cfg).as_dict().items()})


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
