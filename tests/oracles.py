"""Independent reference models that the tests compare the simulator against.

The simulator's kernels inline the adder, never step a counter and have no
per-cycle loop: every charge that does not depend on the operands (clock
pulses, counter toggles) is a closed form computed once per config, and the
data-dependent work is done for all cycles at once on packed lanes.  The
models here compute the same quantities the slow, explicit way (gate-level
adder state, stepped counter and ring states, and ``loop_conventional`` /
``loop_lowpower``, which walk the datapaths one cycle at a time) so a test
can replay them and demand equal results.  The loops charge every clock
pulse and counter toggle themselves, cycle by cycle, from their own
registers and stepped counters, so they check those closed forms too.

``biased_operands`` draws the sparse and dense operand streams one call
per value and builds each multiplier bit by bit.  ``string_exhaustive_slices``
and ``string_exhaustive_products`` build the exhaustive verify's operand and
product slices through '0'/'1' strings, as the harness did before it built
them from bytes; ``decode_slices`` reads slices back per trial the same way.

Transition counts use the zero-delay activity convention: one evaluation of
a combinational block costs the Hamming distance between its previous and
current steady-state internal signals.  Counter step functions return raw
flip-flop clock event counts, leaving the multiplication by ``s`` to the
caller.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from dataclasses import dataclass

from shiftadd.bits import Word
from shiftadd.datapath import (
    ArchConfig,
    CycleTrace,
    RingCostModel,
    SimResult,
    ToggleLedger,
    _check_operands,
)


def get_bit(w: Word, i: int) -> int:
    """Bit ``i`` of ``w`` (LSB = index 0)."""
    if not 0 <= i < w.width:
        raise ValueError(f"bit index {i} out of range for width {w.width}")
    return (w.value >> i) & 1


def hamming(a: Word, b: Word) -> int:
    """Number of bit positions where ``a`` and ``b`` differ."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")
    return (a.value ^ b.value).bit_count()


def full_add(a: int, b: int, cin: int) -> tuple[int, int]:
    """One full adder: returns ``(sum, carry_out)`` for single-bit inputs."""
    if a not in (0, 1) or b not in (0, 1) or cin not in (0, 1):
        raise ValueError("full_add inputs must be single bits")
    return a ^ b ^ cin, (a & b) | (a & cin) | (b & cin)


@dataclass(frozen=True, slots=True)
class AdderState:
    """Steady-state internal signals of an n-stage full-adder chain.

    ``sum_bits`` holds each stage's sum output; ``carry_bits`` holds each
    stage's carry output, so the MSB of ``carry_bits`` is the chain's
    carry-out.  A freshly reset adder is all-zero.
    """

    sum_bits: Word
    carry_bits: Word

    def __post_init__(self) -> None:
        if self.sum_bits.width != self.carry_bits.width:
            raise ValueError("sum_bits and carry_bits must share one width")

    @classmethod
    def zero(cls, width: int) -> AdderState:
        return cls(Word(0, width), Word(0, width))

    @property
    def width(self) -> int:
        return self.sum_bits.width


def ripple_carry_add(
    state: AdderState, x: Word, y: Word, cin: int = 0
) -> tuple[Word, int, int, AdderState]:
    """Add ``x + y + cin`` through a ripple-carry chain, counting transitions.

    Returns ``(sum, carry_out, transitions, new_state)`` where ``transitions``
    is the Hamming distance between the old and new internal signal vectors
    (sum chain plus carry chain).  Re-evaluating with unchanged inputs
    therefore costs zero transitions.
    """
    n = x.width
    if y.width != n or state.width != n:
        raise ValueError(f"width mismatch: x={x.width} y={y.width} state={state.width}")
    if cin not in (0, 1):
        raise ValueError("cin must be a single bit")
    total = x.value + y.value + cin
    sum_value = total & ((1 << x.width) - 1)
    cout = total >> n
    # carry into stage i recovered from sum_i = x_i ^ y_i ^ cin_i; the carry
    # out of stage i is the carry into stage i+1, topped by the chain cout.
    carry_ins = x.value ^ y.value ^ sum_value
    carry_outs = (carry_ins >> 1) | (cout << (n - 1))
    new_state = AdderState(Word(sum_value, n), Word(carry_outs, n))
    transitions = hamming(state.sum_bits, new_state.sum_bits) + hamming(
        state.carry_bits, new_state.carry_bits
    )
    return new_state.sum_bits, cout, transitions, new_state


@dataclass(frozen=True, slots=True)
class BinaryCounter:
    """A modulo-``modulus`` up counter over ceil(log2(modulus)) flip-flops."""

    state: Word
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if self.state.value >= self.modulus:
            raise ValueError(f"state {self.state.value} out of range for modulus {self.modulus}")

    @classmethod
    def start(cls, modulus: int) -> BinaryCounter:
        width = max(1, (modulus - 1).bit_length())
        return cls(Word(0, width), modulus)


def binary_counter_step(c: BinaryCounter) -> tuple[BinaryCounter, int]:
    """Increment (wrapping at the modulus); toggles = changed state bits."""
    nxt = Word((c.state.value + 1) % c.modulus, c.state.width)
    return BinaryCounter(nxt, c.modulus), hamming(c.state, nxt)


@dataclass(frozen=True, slots=True)
class RingState:
    """One-hot ring counter state; exactly one bit is set."""

    state: Word
    position: int

    def __post_init__(self) -> None:
        if self.state.value.bit_count() != 1:
            raise ValueError(f"ring state {self.state.to_bin()} is not one-hot")
        if self.state.value != 1 << self.position:
            raise ValueError(f"position {self.position} does not match state {self.state.to_bin()}")

    @classmethod
    def start(cls, width: int) -> RingState:
        """Reset state: hot bit at position 0."""
        return cls(Word(1, width), 0)


def _rotated(r: RingState) -> RingState:
    n = r.state.width
    nxt = (r.position + 1) % n
    return RingState(Word(1 << nxt, n), nxt)


def ring_conventional_step(r: RingState, cost: RingCostModel) -> tuple[RingState, int, int]:
    """One step of an ungated ring: every flip-flop is clocked.

    Returns ``(next_state, clock_events, output_toggles)`` with
    ``clock_events == n``.  Each event costs ``cost.s`` internal transitions.
    """
    nxt = _rotated(r)
    return nxt, r.state.width, hamming(r.state, nxt.state)


def unnecessary_ring_transitions(width: int, cost: RingCostModel) -> int:
    """Internal transitions per pulse spent on flip-flops that need no clock.

    Only the two flip-flops around the hot bit have to be clocked; the other
    ``width - 2`` are clocked for nothing, at ``s`` transitions apiece.
    """
    return (width - 2) * cost.s


def _block_ff_count(width: int, block_size: int, block: int) -> int:
    # the trailing block may be smaller when block_size does not divide width
    return min(block_size, width - block * block_size)


def ring_lowpower_step(
    r: RingState, cost: RingCostModel
) -> tuple[RingState, int, int, int]:
    """One step of the block-clock-gated ring.

    Only the block holding the hot bit is clocked; when the hot bit crosses a
    block boundary both source and destination blocks are clocked.  Every
    block's gate re-evaluates each pulse, costing ``g`` apiece.

    Returns ``(next_state, clock_events, gating_transitions, output_toggles)``.
    """
    n = r.state.width
    b = cost.block_size
    if b > n:
        raise ValueError(f"block_size {b} exceeds ring width {n}")
    nxt = _rotated(r)
    src, dst = r.position // b, nxt.position // b
    events = _block_ff_count(n, b, src)
    if dst != src:
        events += _block_ff_count(n, b, dst)
    blocks = len(range(0, n, b))
    return nxt, events, cost.g * blocks, hamming(r.state, nxt.state)


def loop_conventional(
    a: Word, b: Word, cfg: ArchConfig
) -> tuple[SimResult, tuple[CycleTrace, ...]]:
    """Simulate the conventional datapath: shifting B, shifting partial
    product, binary cycle counter, 0/A multiplexer feeding the adder.

    Per cycle: the current LSB of B drives the mux select; the adder sums the
    partial product's high half with the mux output; the partial product
    register (carry, sum, low half) captures the result shifted right by
    one; B shifts right; the counter increments.  All three registers are
    clocked every cycle, each flip-flop at ``s`` per pulse: B's n, the
    partial product's 2n + 1 and the counter's, whose toggles are charged
    from its steps too.  Returns the result and the ``CycleTrace`` row each
    cycle appends.
    """
    _check_operands(a, b, cfg)
    n = cfg.width
    s = cfg.cost.s
    mask_n = (1 << n) - 1

    reg_p = 0  # partial product register (carry : high : low)
    reg_b = b.value
    adder_sum = 0
    adder_carry = 0
    prev_select = 0
    prev_mux = 0

    multiplier_shift = partial_product_shift = adder = counter_internal = 0
    mux_select = mux_data = 0
    rows = []
    counter = BinaryCounter.start(n)
    # a modulo-1 counter has a single state and is built with no flip-flops
    counter_ffs = counter.state.width if n > 1 else 0

    for i in range(n):
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
        partial_product_shift += (2 * n + 1) * s + (reg_p ^ new_p).bit_count()
        reg_p = new_p

        new_b = reg_b >> 1
        multiplier_shift += n * s + (reg_b ^ new_b).bit_count()
        reg_b = new_b

        rows.append(
            CycleTrace(
                cycle=i,
                counter_state=counter.state,
                selected_bit=select,
                running_sum=Word((cout << n) | new_sum, n + 1),
                product_so_far=Word(reg_p >> (n - i - 1), 2 * n),
            )
        )
        counter, toggles = binary_counter_step(counter)
        counter_internal += counter_ffs * s + toggles

    ledger = ToggleLedger(
        multiplier_shift=multiplier_shift,
        partial_product_shift=partial_product_shift,
        adder=adder,
        counter_internal=counter_internal,
        mux_select=mux_select,
        mux_data=mux_data,
    )
    return SimResult(Word(reg_p, 2 * n), ledger), tuple(rows)


def loop_lowpower(
    a: Word, b: Word, cfg: ArchConfig
) -> tuple[SimResult, tuple[CycleTrace, ...]]:
    """Simulate the low-power datapath: static B register, block-gated ring
    counter selecting the multiplier bit through a one-hot mux tree, and a
    feeder/bypass pair around the adder.

    Per cycle: the bit at the ring's hot position (bit i on cycle i) decides
    the path.  On a '1' the adder sums the running high part with A and the
    feeder captures (carry, sum), clocking its flip-flops; on a '0' the
    bypass holds and only its clock gate switches.  The shift down to the
    next cycle's adder input is fixed wiring, and each cycle latches one
    product low bit.  B is never shifted or clocked, so ``multiplier_shift``
    stays zero.  The loop charges everything cycle by cycle: the adder, the
    feeder's data toggles and clock, the mux data line, and the ring's
    clock pulses, gates and output toggles from ``ring_lowpower_step``; the
    ring's outputs are also the one-hot mux tree's select lines.  So it
    checks the kernel's closed forms and the config's fixed charges.
    Returns the result and the ``CycleTrace`` row each cycle appends.
    """
    _check_operands(a, b, cfg)
    n = cfg.width
    mask_n = (1 << n) - 1
    bits = b.value  # the multiplier bits the ring selects, in order

    reg_fb = 0  # feeder/bypass storage (carry : sum)
    low_bits = 0
    adder_sum = 0
    adder_carry = 0
    prev_bit = 0  # the mux data line, from reset

    partial_product_shift = adder = mux_data = feeder_bypass_clock = 0
    counter_internal = counter_output = gating = 0
    rows = []
    ring = RingState.start(n)

    for i in range(n):
        bit = (bits >> i) & 1
        # the one-hot mux tree's output is the selected bit
        mux_data += bit != prev_bit
        prev_bit = bit
        x = reg_fb >> 1  # wired shift: last cycle's (carry : sum) minus its LSB
        if bit:
            # the feeder's n + 1 flip-flops capture (carry : sum)
            feeder_bypass_clock += (n + 1) * cfg.cost.s
            total = x + a.value
            new_sum = total & mask_n
            cout = total >> n
            carry_ins = x ^ a.value ^ new_sum
            new_carry = (carry_ins >> 1) | (cout << (n - 1))
            adder += (adder_sum ^ new_sum).bit_count() + (adder_carry ^ new_carry).bit_count()
            adder_sum, adder_carry = new_sum, new_carry
            pair = (cout << n) | new_sum
        else:
            # adder inputs are frozen: zero transitions, state kept; only the
            # bypass's clock gate switches
            feeder_bypass_clock += cfg.cost.g
            pair = x

        low_bits |= (pair & 1) << i
        partial_product_shift += (reg_fb ^ pair).bit_count()
        reg_fb = pair

        rows.append(
            CycleTrace(
                cycle=i,
                counter_state=ring.state,
                selected_bit=bit,
                running_sum=Word(pair, n + 1),
                product_so_far=Word(((pair >> 1) << (i + 1)) | low_bits, 2 * n),
            )
        )
        ring, events, gates, toggles = ring_lowpower_step(ring, cfg.cost)
        counter_internal += events * cfg.cost.s
        counter_output += toggles
        gating += gates

    ledger = ToggleLedger(
        partial_product_shift=partial_product_shift,
        adder=adder,
        counter_internal=counter_internal,
        counter_output=counter_output,
        mux_select=counter_output,
        mux_data=mux_data,
        feeder_bypass_clock=feeder_bypass_clock,
        gating=gating,
    )
    product = Word(((reg_fb >> 1) << n) | low_bits, 2 * n)
    return SimResult(product, ledger), tuple(rows)


def biased_operands(seed: int, width: int, trials: int, kind: str) -> list[tuple[int, int]]:
    """The (a, b) pairs of a sparse or dense stream, drawn one call at a time
    from ``random.Random(seed)``: ``getrandbits(width)`` for a, then two more
    for x and y; bit i of b is the lesser (sparse) or the greater (dense) of
    bit i of x and bit i of y."""
    combine = min if kind == "sparse" else max
    rng = random.Random(seed)
    pairs = []
    for _ in range(trials):
        a = rng.getrandbits(width)
        x = rng.getrandbits(width)
        y = rng.getrandbits(width)
        b = 0
        for i in range(width):
            b |= combine(x >> i & 1, y >> i & 1) << i
        pairs.append((a, b))
    return pairs


def string_exhaustive_slices(width: int) -> tuple[list[int], list[int]]:
    """The operand slices of every (a, b) pair, trial a << width | b, each
    built as a string of '1' and '0' runs and read with ``int(…, 2)``."""
    total = 1 << 2 * width

    def periodic(bit: int) -> int:
        half = 1 << bit
        return int(("1" * half + "0" * half) * (total >> bit + 1), 2)

    return [periodic(width + j) for j in range(width)], [periodic(j) for j in range(width)]


def string_exhaustive_products(width: int) -> list[int]:
    """The 2 * width slices of the products a*b of every pair, in the trial
    order of ``string_exhaustive_slices``: every product is laid out in one
    16-bit array (so up to width 8), and product bit k is one strided slice
    of its bytes, each byte translated to the character of bit k."""
    bit_chars = [bytes(48 + (value >> j & 1) for value in range(256)) for j in range(8)]
    products = array("H", itertools.repeat(0, 1 << width))  # a = 0
    for a in range(1, 1 << width):
        products.extend(range(0, a << width, a))
    if sys.byteorder == "big":
        products.byteswap()
    raw = products.tobytes()
    size = products.itemsize
    return [int(raw[k >> 3::size].translate(bit_chars[k & 7])[::-1], 2)
            for k in range(2 * width)]


def decode_slices(slices: list[int], total: int) -> list[int]:
    """Trial t's value for t < ``total``, bit j read from ``slices[j]``
    through a '0'/'1' string per slice."""
    assert all(0 <= bits < 1 << total for bits in slices)
    columns = [format(bits, f"0{total}b")[::-1] for bits in reversed(slices)]
    return [int("".join(chars), 2) for chars in zip(*columns)]
