"""Per-layer host-time accounting for one traced ``cli.main`` call.

The tracer wraps the names the library looks up at call time and charges
the host time between two clock readings to whichever layer is innermost
at that moment.  Every layer therefore gets its self time, and the self
times of all layers plus the root (``cli.main``) add up exactly to the
root's wall time.  Self times and counts accumulate per (width, layer);
nothing is recorded per call.  Real spans are kept only at the
workload -> width -> architecture boundaries: a handful per run.

The width a sweep is working on is not passed to any wrapped function, so
the tracer infers it: ``gen_operands(dist, width, trials)`` starts each
width of a sweep, and ``exhaustive_verify(width)`` covers one width.
Charges made while no width is open (argument parsing, report emission)
appear only in the totals.

Wrapper overhead falls on the caller's self time, so layers that call
wrapped layers many times (``harness.sweep``, ``harness.exhaustive_verify``)
read high under tracing; ``trace.overhead_s`` in the benchmark output
states the total.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

ROOT = "cli.main"
GEN = "harness.gen_operands"
WORD = "bits.Word"
CONV = "datapath.run_conventional"
LOW = "datapath.run_lowpower"
LEDGER_ADD = "datapath.ToggleLedger.add"
POWER = "power"
EMIT = "harness.emit_report"
SWEEP = "harness.sweep"
VERIFY = "harness.exhaustive_verify"

LAYERS = (GEN, WORD, CONV, LOW, LEDGER_ADD, POWER, EMIT, SWEEP, VERIFY, ROOT)
POWER_FUNCTIONS = ("estimate_energy", "average_power", "area_proxy", "reduction_percent")


class LayerClock:
    """Exclusive (self) host time and event counts per (width, layer)."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[str] = []
        self.width: int | None = None
        self.self_s: dict[tuple[int | None, str], float] = defaultdict(float)
        self.counts: dict[tuple[int | None, str], int] = defaultdict(int)
        self.spans: list[dict] = []
        self._last = 0.0
        self._width_start = 0.0
        self.origin = 0.0

    def enter(self, layer: str) -> None:
        self.counts[self.width, layer + ".calls"] += 1
        self.resume(layer)

    def resume(self, layer: str) -> None:
        """Push ``layer`` without counting a call (a generator resuming)."""
        now = self.clock()
        if self.stack:
            self.self_s[self.width, self.stack[-1]] += now - self._last
        else:
            self.origin = now
        self.stack.append(layer)
        self._last = now

    def leave(self) -> float:
        now = self.clock()
        self.self_s[self.width, self.stack.pop()] += now - self._last
        self._last = now
        return now

    def set_width(self, width: int | None) -> None:
        """Close the open width span, if any, and open one for ``width``."""
        if width == self.width:
            return
        now = self.clock()
        self.self_s[self.width, self.stack[-1]] += now - self._last
        self._last = now
        if self.width is not None:
            self.span(f"w{self.width}", self._width_start, now, parent="workload")
        self.width = width
        self._width_start = now

    def flat(self) -> dict[str, float]:
        """Totals and per-width values under their metric names, plus host
        ns per simulated cycle and adder firings per low-power cycle."""
        out: dict[str, float] = defaultdict(float)
        for table, suffix in ((self.self_s, ".self_s"), (self.counts, "")):
            for (width, key), value in table.items():
                out[key + suffix] += value
                if width is not None:
                    out[f"w{width}.{key}{suffix}"] += value
        prefixes = {""} | {f"w{width}." for width, _ in self.counts if width is not None}
        for prefix in prefixes:
            for kernel in (CONV, LOW):
                cycles = out.get(prefix + kernel + ".cycles")
                if cycles:
                    out[prefix + kernel + ".ns_per_cycle"] = (
                        out[prefix + kernel + ".self_s"] / cycles * 1e9)
                    if kernel == LOW:
                        out[prefix + LOW + ".add_cycle_ratio"] = out[prefix + LOW + ".adds"] / cycles
        return dict(out)

    def span(self, name: str, start: float, end: float, parent: str | None) -> None:
        self.spans.append({
            "name": name,
            "parent": parent,
            "start_s": start - self.origin,
            "end_s": end - self.origin,
        })


def _timed(clock: LayerClock, layer: str, fn):
    enter, leave = clock.enter, clock.leave

    def wrapper(*args, **kwargs):
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return wrapper


def _kernel(clock: LayerClock, layer: str, fn):
    """Time a datapath kernel and count the cycles it simulates and the
    cycles on which its adder fires (a '1' in the multiplier bits used)."""
    enter, leave, counts = clock.enter, clock.leave, clock.counts
    cycles_key, adds_key = layer + ".cycles", layer + ".adds"

    def wrapper(a, b, cfg, **kwargs):
        enter(layer)
        try:
            result = fn(a, b, cfg, **kwargs)
        finally:
            leave()
        width = clock.width
        counts[width, cycles_key] += result.cycles
        counts[width, adds_key] += (b.value & ((1 << result.cycles) - 1)).bit_count()
        return result

    return wrapper


def _operand_stream(clock: LayerClock, fn):
    """Time every resumption of the operand generator, so a streamed
    consumer (``exhaustive_verify``) is charged as faithfully as one that
    materialises the list (``sweep``)."""
    resume, leave, counts = clock.resume, clock.leave, clock.counts
    pairs_key = GEN + ".pairs"

    def wrapper(dist, width, trials):
        clock.set_width(width)
        counts[width, GEN + ".calls"] += 1
        stream = fn(dist, width, trials)
        while True:
            resume(GEN)
            try:
                pair = next(stream)
            except StopIteration:
                return
            finally:
                leave()
            counts[width, pairs_key] += 1
            yield pair

    return wrapper


def _loop(clock: LayerClock, layer: str, fn, *, opens_width: bool, **extra):
    """Wrap ``sweep`` or ``exhaustive_verify``: its layer frame, the width
    it works on when its first argument names one, and the width context
    closed when it returns.  ``extra`` keyword arguments are passed through
    to ``fn`` (the wrapped runners for ``exhaustive_verify``)."""

    def wrapper(*args, **kwargs):
        clock.enter(layer)
        try:
            if opens_width:
                clock.set_width(args[0])
            return fn(*args, **kwargs, **extra)
        finally:
            clock.set_width(None)
            clock.leave()

    return wrapper


def _arch_span(clock: LayerClock, fn):
    """Record one span per (width, architecture) aggregation; no layer frame,
    so its residual loop time stays with ``harness.sweep``."""

    def wrapper(cfg, operands, runner):
        start = clock.clock()
        try:
            return fn(cfg, operands, runner)
        finally:
            name = f"w{cfg.width}.{cfg.variant.value}"
            clock.span(name, start, clock.clock(), parent=f"w{cfg.width}")

    return wrapper


def _emit(clock: LayerClock, fn):
    timed = _timed(clock, EMIT, fn)

    def wrapper(rows, fmt, destination, *args, **kwargs):
        result = timed(rows, fmt, destination, *args, **kwargs)
        clock.counts[None, EMIT + ".bytes"] += os.path.getsize(destination)
        return result

    return wrapper


def run_traced(cli, harness, datapath, argv: list[str]) -> tuple[int, float, LayerClock]:
    """Run ``cli.main(argv)`` with every layer wrapped; return the exit code,
    the traced wall time and the filled clock.  All patches are undone."""
    clock = LayerClock()
    conv = _kernel(clock, CONV, harness.run_conventional)
    low = _kernel(clock, LOW, harness.run_lowpower)
    patches = [
        (harness, "gen_operands", _operand_stream(clock, harness.gen_operands)),
        (harness, "Word", _timed(clock, WORD, harness.Word)),
        (harness, "run_conventional", conv),
        (harness, "run_lowpower", low),
        (harness, "_aggregate", _arch_span(clock, harness._aggregate)),
        (datapath.ToggleLedger, "add", _timed(clock, LEDGER_ADD, datapath.ToggleLedger.add)),
        (cli, "sweep", _loop(clock, SWEEP, cli.sweep, opens_width=False)),
        (cli, "exhaustive_verify", _loop(clock, VERIFY, cli.exhaustive_verify,
                                           opens_width=True, conventional=conv, lowpower=low)),
        (cli, "emit_report", _emit(clock, cli.emit_report)),
    ]
    patches += [(harness, name, _timed(clock, POWER, getattr(harness, name)))
                for name in POWER_FUNCTIONS]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    try:
        clock.enter(ROOT)
        start = clock.origin
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            clock.set_width(None)
            end = clock.leave()
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    clock.span("workload", start, end, parent=None)
    return code, end - start, clock
