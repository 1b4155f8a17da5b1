"""Operand streams, exhaustive verification, width sweeps, report emission."""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import os
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence

from .bits import Word
from .datapath import (
    CONVENTIONAL_CATEGORIES,
    DEFAULT_BLOCK_SIZE,
    LEDGER_CATEGORIES,
    RingCostModel,
    ToggleLedger,
    Variant,
    _checked_make,
    _forward_packed,
    _slices,
    check_width,
    make_config,
    run_sliced,
    sliced_cycles,
)
from .power import PowerModel, area_proxy, average_power, estimate_energy, reduction_percent

RNG_ALGORITHM = "python-random-mersenne-twister"

DIST_KINDS = ("uniform", "sparse", "dense", "exhaustive", "fixed")
# a report's ``rng`` id, which for sparse and dense names the multiplier's
# recipe too; with no spaces, since the CSV metadata line splits on them
RNG_IDS = dict.fromkeys(DIST_KINDS, RNG_ALGORITHM) | {
    "sparse": f"{RNG_ALGORITHM}/b-and-of-two-draws", "dense": f"{RNG_ALGORITHM}/b-or-of-two-draws"}
# the probability that a multiplier bit is 1, per random distribution
BIT_DENSITY = {"uniform": 0.50, "sparse": 0.25, "dense": 0.75}
EXHAUSTIVE_WIDTH_LIMIT = 8
# trials a sweep decodes and runs at once: its memory does not grow with trials
SWEEP_CHUNK = 32768

# FPGA synthesis figures reported for the original 4- and 8-bit designs;
# printed next to modeled reductions for reference, never asserted against.
REPORTED_FPGA_REDUCTION = {4: 20.51, 8: 35.25}


class OperandDistribution(namedtuple("OperandDistribution", "kind seed a b")):
    """A reproducible operand stream recipe.

    ``uniform`` draws a and b with one ``getrandbits(width)`` each;
    ``sparse``/``dense`` draw a the same way, then b as the AND / OR of two
    more draws, so each multiplier bit is 1 with probability 1/4 or 3/4,
    independently of the other bits and of a; ``fixed`` repeats the given
    (a, b) pair; ``exhaustive`` enumerates every pair.  ``seed`` must be
    >= 0, since ``random.Random`` seeds with its absolute value.
    """

    __slots__ = ()

    def __new__(cls, kind: str, seed: int = 0, a: int | None = None,
                b: int | None = None) -> OperandDistribution:
        if kind not in DIST_KINDS:
            raise ValueError(f"unknown distribution kind {kind!r}; choose from {DIST_KINDS}")
        if kind == "fixed" and (a is None or b is None):
            raise ValueError("fixed distribution needs both a and b")
        if kind != "fixed" and (a is not None or b is not None):
            raise ValueError(f"a and b are operands of the fixed distribution, not {kind!r}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        return super().__new__(cls, kind, seed, a, b)

    _make = classmethod(_checked_make)


def gen_operands(
    dist: OperandDistribution, width: int, trials: int
) -> Iterator[tuple[int, int]]:
    """Deterministic stream of (a, b) pairs for ``dist``.

    Its arguments are checked by ``_check_stream`` when it is called, before
    the stream is returned.  ``exhaustive`` ignores ``trials`` and yields all
    ``2**(2*width)`` pairs in lexicographic order.  A random pair is drawn as
    ``OperandDistribution`` says, from one ``random.Random(seed)``, when the
    stream reaches it.  ``sweep`` decodes the same draws as bit slices
    (``_operand_slices``); this per-pair stream is their reference.
    """
    _check_stream(dist, width, trials)
    if dist.kind == "exhaustive":
        return itertools.product(range(1 << width), repeat=2)
    if dist.kind == "fixed":
        return itertools.repeat((dist.a, dist.b), trials)
    import random  # here: verify, run and fixed or exhaustive sweeps never import it
    draw = random.Random(dist.seed).getrandbits
    if dist.kind == "uniform":
        return ((draw(width), draw(width)) for _ in range(trials))
    if dist.kind == "sparse":
        return ((draw(width), draw(width) & draw(width)) for _ in range(trials))
    return ((draw(width), draw(width) | draw(width)) for _ in range(trials))


def _check_stream(dist: OperandDistribution, width: int, trials: int) -> None:
    """Refuse a stream that cannot be drawn: ``exhaustive`` refuses widths
    above ``EXHAUSTIVE_WIDTH_LIMIT`` to bound the explosion; every other kind
    needs ``trials >= 1``, and ``fixed`` refuses operands outside
    ``0..2**width - 1``.  The width's own range is ``check_width``'s check."""
    if dist.kind == "exhaustive":
        if width > EXHAUSTIVE_WIDTH_LIMIT:
            raise ValueError(
                f"exhaustive enumeration refused for width {width} > {EXHAUSTIVE_WIDTH_LIMIT}"
            )
        return
    if trials < 1:
        raise ValueError("trials must be >= 1")
    limit = 1 << width
    if dist.kind == "fixed" and not (0 <= dist.a < limit and 0 <= dist.b < limit):
        raise ValueError(
            f"fixed operands must be in 0..{limit - 1} for width {width}, "
            f"got a={dist.a}, b={dist.b}"
        )


def _operand_slices(
    dist: OperandDistribution, width: int, trials: int
) -> Iterator[tuple[list[int], list[int], int]]:
    """The operands of ``gen_operands(dist, width, trials)`` as bit slices, in
    chunks of at most ``SWEEP_CHUNK`` trials: (a slices, b slices, trials),
    bit t of slice j being bit j of the chunk's trial t.  Not for ``fixed``.

    ``exhaustive`` cuts ``_exhaustive_slices`` into chunks.  A random chunk
    is one ``getrandbits`` call of 32 bits per word of its trials, 2 words
    per uniform pair and 3 per sparse or dense pair: CPython fills it one
    32-bit Mersenne word at a time, least significant first, and
    ``getrandbits(width)`` is the top ``width`` bits of the next word, so
    slice j of a word is its bit 32 - width + j.  a is word 0, b word 1, or
    the AND (sparse) or OR (dense) of words 1 and 2.
    """
    if dist.kind == "exhaustive":
        a_all, b_all = _exhaustive_slices(width)
        total, size = 1 << 2 * width, SWEEP_CHUNK
        mask = (1 << size) - 1
        for start in range(0, total, size):
            yield ([bits >> start & mask for bits in a_all],
                   [bits >> start & mask for bits in b_all], min(size, total - start))
        return
    words = 2 if dist.kind == "uniform" else 3
    positions = [32 * word + 32 - width + j for word in range(words) for j in range(width)]
    import random  # here, as in gen_operands
    draw = random.Random(dist.seed).getrandbits
    for start in range(0, trials, SWEEP_CHUNK):
        count = min(SWEEP_CHUNK, trials - start)
        records = draw(32 * words * count).to_bytes(4 * words * count, "little")
        slices = _bit_slices(records, 4 * words, positions, count)
        a_slices, b_slices = slices[:width], slices[width:2 * width]
        if words == 3:
            combine = operator.and_ if dist.kind == "sparse" else operator.or_
            b_slices = list(map(combine, b_slices, slices[2 * width:]))
        yield a_slices, b_slices, count


def _bit_slices(records: bytes, size: int, positions: Sequence[int], count: int) -> list[int]:
    """Bit slices of ``count`` little-endian records of ``size`` bytes: slice
    k's bit t is bit ``positions[k]`` of record t.  For each byte offset,
    column i is every eighth record's byte from record i, one strided slice,
    so byte g of column i is a byte of record 8g + i.  Byte g of the 8
    columns is an 8x8 bit matrix, transposed in place in three butterfly
    rounds (Warren, Hacker's Delight, 7-3): blocks of 4, 2 and 1 bits swap
    between columns i and i + 4, i + 2, i + 1.  Then column r is bit r of
    that byte of every record: its bit 8g + i is from record 8g + i."""
    ones = int.from_bytes(b"\x01" * max(1, count + 7 >> 3), "little")
    rounds = [(step, ones * mask, [i for i in range(8) if not i & step])
              for step, mask in ((4, 0x0F), (2, 0x33), (1, 0x55))]
    planes = {}
    for byte in {k >> 3 for k in positions}:
        columns = [int.from_bytes(records[byte + size * i::8 * size], "little")
                   for i in range(8)]
        for step, mask, rows in rounds:
            for i in rows:
                swap = (columns[i] >> step ^ columns[i + step]) & mask
                columns[i + step] ^= swap
                columns[i] ^= swap << step
        planes[byte] = columns
    return [planes[k >> 3][k % 8] for k in positions]


Mismatch = namedtuple("Mismatch", "arch a b got expected")


class VerifyOutcome(namedtuple("VerifyOutcome", "width total_pairs mismatches")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.mismatches


def exhaustive_verify(
    width: int,
    *,
    conventional: Callable | None = None,
    lowpower: Callable | None = None,
) -> VerifyOutcome:
    """Run both datapaths over every operand pair and check products against
    native integer multiplication.  Mismatches are collected, not raised, in
    operand order, the conventional one first where both datapaths miss.

    The width's range is checked first, by ``check_width``; then
    ``gen_operands`` refuses a width above ``EXHAUSTIVE_WIDTH_LIMIT``, before
    any operand is built.  Then ``sliced_cycles`` runs once over all
    4**width pairs, for both datapaths, with no config.  Passing either
    per-pair runner (a kernel's signature; the other defaults to the packed
    kernel) runs every pair through the runners instead, with both configs,
    each value wrapped once in a ``Word`` table."""
    check_width(width)
    pairs = gen_operands(OperandDistribution("exhaustive"), width, 0)
    if conventional is None and lowpower is None:
        return _verify_sliced(width)
    conv_cfg = make_config(Variant.CONVENTIONAL, width)
    low_cfg = make_config(Variant.LOW_POWER, width)
    from .packed import run_conventional, run_lowpower  # loaded on first use
    conventional = conventional or run_conventional
    lowpower = lowpower or run_lowpower
    mismatches: list[Mismatch] = []
    words = [Word(value, width) for value in range(1 << width)]
    for av, bv in pairs:
        expected = av * bv
        a, b = words[av], words[bv]
        got = conventional(a, b, conv_cfg).product.value
        if got != expected:
            mismatches.append(Mismatch("conv", av, bv, got, expected))
        got = lowpower(a, b, low_cfg).product.value
        if got != expected:
            mismatches.append(Mismatch("lowpower", av, bv, got, expected))
    return VerifyOutcome(width, 1 << 2 * width, mismatches)


def _verify_sliced(width: int) -> VerifyOutcome:
    """``exhaustive_verify`` with ``sliced_cycles``, run once for both
    datapaths, whose products it computes alike: each trial where its final
    register differs from the native products' slices is listed once per
    datapath, conventional first."""
    total = 1 << 2 * width
    for _, got, _ in sliced_cycles(*_exhaustive_slices(width)):
        pass  # only the final register is read
    wrong = functools.reduce(operator.or_, map(operator.xor, got, _exhaustive_products(width)))
    mismatches: list[Mismatch] = []
    if not wrong:
        return VerifyOutcome(width, total, mismatches)
    # each slice decoded once into a bit string, character t for trial t
    flags = _bit_string(wrong, total)
    columns = [_bit_string(bit, total) for bit in reversed(got)]
    mask = (1 << width) - 1
    t = flags.find("1")
    while t >= 0:
        a, b = t >> width, t & mask
        product = int("".join([bit[t] for bit in columns]), 2)
        mismatches += [Mismatch(variant.value, a, b, product, a * b) for variant in Variant]
        t = flags.find("1", t + 1)
    return VerifyOutcome(width, total, mismatches)


def _exhaustive_slices(width: int) -> tuple[list[int], list[int]]:
    """The operand slices of every (a, b) pair in operand order, trial
    a << width | b: bit j of b is bit j of the trial number, and bit j of a
    is bit width + j.  Each is one byte pattern repeated (0xAA, 0xCC or 0xF0
    for bits 0-2, 0x00 then 0xFF runs above), masked to the 4**width trials."""
    total = 1 << 2 * width

    def periodic(bit: int) -> int:
        half = 1 << bit >> 3  # bytes per run, from bit 3 up
        pattern = bytes(half) + b"\xff" * half if half else (b"\xaa", b"\xcc", b"\xf0")[bit]
        repeats = max(1, total >> 3) // len(pattern)
        return int.from_bytes(pattern * repeats, "little") & (1 << total) - 1

    return [periodic(width + j) for j in range(width)], [periodic(j) for j in range(width)]


def _exhaustive_products(width: int) -> list[int]:
    """The 2 * width slices of the native products a*b of every pair, in the
    order of ``_exhaustive_slices``.  The row of a is one multiply,
    a * sum(b << lane * b), with lanes of whole bytes at least 2 * width bits
    wide, so no product carries into the next; ``_bit_slices`` reads product
    bit k of every trial from the rows' lanes."""
    pairs, lane = 1 << width, (2 * width + 7) >> 3
    ramp = int.from_bytes(b"".join(b.to_bytes(lane, "little") for b in range(pairs)), "little")
    rows = b"".join([(a * ramp).to_bytes(lane * pairs, "little") for a in range(pairs)])
    return _bit_slices(rows, lane, range(2 * width), pairs * pairs)


def _bit_string(value: int, length: int) -> str:
    """``value``'s bits as '0' and '1', bit t at index t."""
    return format(value, f"0{length}b")[::-1]


class ReportRow(namedtuple("ReportRow", [
    "width", "arch", "trials", *LEDGER_CATEGORIES, "energy", "avg_power", "flip_flops",
    "full_adders", "reduction_pct"])):
    """One sweep cell: a (width, architecture) aggregate over a trial set."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


REPORT_COLUMNS: tuple[str, ...] = ReportRow._fields


# No caller in the package is left: it stays only because perfbench's tracer
# wraps it (``_arch_span``), and a traced run fails where the name is missing.
def _aggregate(cfg, operands: Sequence[tuple[Word, Word]], runner: Callable) -> dict[str, int]:
    totals = ToggleLedger()
    for a, b in operands:
        totals.add(runner(a, b, cfg).ledger)
    return totals.as_dict()


def _sliced_totals(cost: RingCostModel, dist: OperandDistribution, width: int,
                   trials: int) -> tuple[int, list[dict[str, int]]]:
    """The trials run and each datapath's ledger counts summed over them, in
    ``Variant`` order: ``run_sliced`` once on each chunk of at most
    ``SWEEP_CHUNK`` trials of ``_operand_slices``, for both datapaths, so a
    sweep's memory does not grow with its trials."""
    if dist.kind == "fixed":  # one one-trial call, whose counts are each trial's
        _, charged = run_sliced(cost, _slices(dist.a, width), _slices(dist.b, width), 1)
        return trials, [{k: trials * v for k, v in ledger.as_dict().items()} for ledger in charged]
    ledgers = [ToggleLedger() for _ in Variant]
    count = 0
    for a_slices, b_slices, chunk in _operand_slices(dist, width, trials):
        count += chunk
        for ledger, charged in zip(ledgers, run_sliced(cost, a_slices, b_slices, chunk)[1]):
            ledger.add(charged)
    return count, [ledger.as_dict() for ledger in ledgers]


def sweep(
    widths: Sequence[int],
    dist: OperandDistribution,
    trials: int,
    model: PowerModel | None = None,
    *,
    s: int = RingCostModel().s,
    g: int = RingCostModel().g,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> list[ReportRow]:
    """Run both architectures over the same operands at each width.

    Emits two rows per width (conventional first); the low-power row carries
    the energy reduction against the conventional baseline, so a ``model``
    that weighs none of ``CONVENTIONAL_CATEGORIES`` is refused.  Before the
    first pair runs, every width's configs are built (``ArchConfig`` checks
    the width, ``make_config`` clamps the block size to it), then every
    width's operands are checked (``_check_stream``).  Each width then runs
    bit-sliced, in chunks (``_sliced_totals``), and is refused if the model
    weighs its conventional energy at 0.
    """
    model = model or PowerModel()
    if not any(model.weights[cat] for cat in CONVENTIONAL_CATEGORIES):
        raise ValueError("power model weights are 0 on every category the conventional "
                         "datapath charges, so no reduction can be computed")
    width_configs = [[make_config(variant, width, s=s, g=g, block_size=block_size)
                      for variant in Variant] for width in widths]
    for width in widths:
        _check_stream(dist, width, trials)
    rows: list[ReportRow] = []
    for width, configs in zip(widths, width_configs):
        count, totals = _sliced_totals(configs[0].cost, dist, width, trials)
        energies = [estimate_energy(ToggleLedger(**counts), model) for counts in totals]
        if not energies[0]:  # the operands moved nothing the model weighs
            weighed = ", ".join(cat for cat, weight in model.weights.items() if weight)
            runs = f"{count} trial{'s' * (count != 1)}" + (
                f" of fixed pair a={dist.a}, b={dist.b}" if dist.kind == "fixed" else "")
            raise ValueError(f"the conventional datapath has no energy at width {width} over "
                             f"{runs} under the power model, which weighs only {weighed}, so "
                             "no reduction can be computed")
        # the low-power row carries the reduction against the conventional baseline
        reductions = (0.0, reduction_percent(*energies))
        for cfg, counts, energy, reduction in zip(configs, totals, energies, reductions):
            # every run takes one cycle per multiplier bit
            power = average_power(energy, count * width, model)
            area = area_proxy(cfg)
            if not all(map(math.isfinite, (energy, power, reduction))):
                raise ValueError(f"energy or average power overflows at width {width}: "
                                 f"{cfg.variant.value} energy {energy}, average power {power}")
            rows.append(
                ReportRow(
                    width=width,
                    arch=cfg.variant.value,
                    trials=count,
                    energy=energy,
                    avg_power=power,
                    flip_flops=area.flip_flops,
                    full_adders=area.full_adders,
                    reduction_pct=reduction,
                    **counts,
                )
            )
    return rows


def emit_report(
    rows: Sequence[ReportRow],
    fmt: str,
    destination: str | os.PathLike[str],
    metadata: dict | None = None,
) -> None:
    """Write rows as CSV or JSON.

    CSV is header plus one line per row; when ``metadata`` is given it is
    recorded first as a single ``#`` comment line (CSV, list values
    comma-separated) or a ``metadata`` object (JSON).  The report is
    written to a temporary file beside ``destination`` and renamed over
    it, so a failed write leaves any previous report as it was.  An
    OSError that the temporary file cannot be made, or cannot replace
    ``destination``, names ``destination``.
    """
    if not rows:
        raise ValueError("no rows to emit")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    path = os.fspath(destination)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", newline="" if fmt == "csv" else None)
    except OSError as exc:  # a missing directory, say: name the caller's path
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            if fmt == "csv":
                if metadata:
                    fh.write("# " + " ".join(
                        f"{k}={','.join(map(str, v)) if isinstance(v, list) else v}"
                        for k, v in metadata.items()) + "\n")
                import csv  # here, as json below: only a CSV report needs it
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(REPORT_COLUMNS)
                for row in rows:
                    writer.writerow([getattr(row, col) for col in REPORT_COLUMNS])
            else:
                import json  # here: verify, run and CSV sweeps never pay for its import
                payload: object = [row.as_dict() for row in rows]
                if metadata:
                    payload = {"metadata": metadata, "rows": payload}
                fh.write(json.dumps(payload, indent=2) + "\n")
        try:
            os.replace(tmp, destination)
        except OSError as exc:  # destination is a directory, say
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        with contextlib.suppress(OSError):  # the first error stands
            os.remove(tmp)
        raise


# the per-pair kernel's names, which perfbench's tracer wraps here
__getattr__ = _forward_packed(__name__, ("run_conventional", "run_lowpower"))
