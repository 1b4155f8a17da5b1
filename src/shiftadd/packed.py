"""The packed per-pair kernel, which no command runs.

``simulate`` runs both datapaths one multiplication at a time, with no
per-cycle loop: cycle i is lane i of one packed int (``Lanes``), and each
category's per-cycle Hamming sum is one popcount.  The datapaths differ only
in what the multiplier bits drive, B's part of a run, which one branch on the
variant computes.  ``run_conventional`` and ``run_lowpower`` are the same
function.  It returns a run's product and a ledger of the caller's own, and
keeps what it reads of a config alone from the config's first call
(``_packed``).  ``exhaustive_verify``'s runners default to it.

Only perfbench and the tests load this module: the tests import its names
from here and check the sliced engine against it, and perfbench reaches it
through three forwarded names, ``datapath.simulate`` and
``harness.run_conventional`` / ``run_lowpower``, which import it on first
use.  So no command pays for it or for ``dataclasses``.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

from .bits import Word, _set_value, _set_width
from .datapath import ArchConfig, ToggleLedger, Variant, _add_clock, _check_operands, fixed_charges

# configs whose kernel constants simulate keeps (_packed)
CONFIG_CACHE_SIZE = 64
_new = object.__new__


def _exact_word(value: int, width: int) -> Word:
    """``Word(value, width)`` without its checks, for a caller that
    guarantees both: 1 <= width <= MAX_WIDTH and 0 <= value < 2**width."""
    word = _new(Word)
    _set_value(word, value)
    _set_width(word, width)
    return word


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
    names ``exhaustive_verify``'s runners default to, so that a profiler can
    wrap and time the two datapaths apart; each runs ``cfg``'s own datapath.
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


# the names each datapath's per-pair runs go by
run_conventional = run_lowpower = simulate
