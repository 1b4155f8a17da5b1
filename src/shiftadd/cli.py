"""Command-line interface: verify, run, and sweep subcommands."""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Sequence

from .bits import Word
from .datapath import (COST_LEAST, DEFAULT_BLOCK_SIZE, RingCostModel, Variant, check_width,
                       make_config, render_trace, simulate)
from .harness import (
    DIST_KINDS,
    REPORTED_FPGA_REDUCTION,
    RNG_IDS,
    OperandDistribution,
    emit_report,
    exhaustive_verify,
    sweep,
)
from .power import PowerModel, area_proxy, average_power, estimate_energy


def add_cost_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE,
                        help=f"ring gating block size (default: min({DEFAULT_BLOCK_SIZE}, width))")
    parser.add_argument("--ffs-cost", type=int, default=RingCostModel().s, metavar="S",
                        help="internal transitions per clocked flip-flop (default %(default)s)")
    parser.add_argument("--gate-cost", type=int, default=RingCostModel().g, metavar="G",
                        help="gating-logic transitions per block per clock (default %(default)s)")


def check_cost_flags(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Reject a cost flag below its field's least value, naming the flag.  The
    config would reject it too, but under its field name (s, g, block_size)."""
    for flag, field in (("--ffs-cost", "s"), ("--gate-cost", "g"), ("--block-size", "block_size")):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < COST_LEAST[field]:
            parser.error(f"{flag} must be >= {COST_LEAST[field]}, got {value}")


def load_model(path: str | None, parser: argparse.ArgumentParser) -> PowerModel:
    """The power model of a ``--model`` value, the default model where none is
    given.  An empty value or a file that cannot be read is a usage error
    naming the flag, and a file that ``PowerModel.from_file`` refuses a usage
    error naming the file."""
    if path is None:
        return PowerModel()
    if not path:
        parser.error("--model is empty, not a power model file path")
    try:
        return PowerModel.from_file(path)
    except OSError as exc:
        parser.error(f"--model {path} cannot be read: {exc.strerror or exc}")
    except ValueError as exc:
        parser.error(str(exc))


def fpga_reported(width: int) -> str:
    """The FPGA-reported column of a width's row, right-aligned under its
    header: the reduction reported for the original design, or '-'."""
    reported = REPORTED_FPGA_REDUCTION.get(width)
    note = f"{reported:.2f}%" if reported is not None else "-"
    return f"{note:>13}"


def parse_widths(text: str, parser: argparse.ArgumentParser) -> list[int]:
    """The widths of a comma-separated ``--widths`` value.  An entry that is
    not an int, an empty one among them, a width ``check_width`` refuses, or
    one given twice (its rows would be written twice) is a usage error
    naming the flag."""
    entries = text.split(",")
    if not any(entries):
        parser.error("--widths is empty")
    try:
        widths = [int(entry) for entry in entries]
    except ValueError:
        parser.error(f"bad --widths value {text!r}")
    for i, width in enumerate(widths):
        try:
            check_width(width)
        except ValueError as exc:
            parser.error(f"--widths: {exc}")
        if width in widths[:i]:
            parser.error(f"--widths: width {width} is given more than once")
    return widths


def _verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, required=True)


def _run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arch", choices=[v.value for v in Variant], required=True)
    parser.add_argument("--width", type=int, required=True)
    parser.add_argument("--a", type=int, required=True)
    parser.add_argument("--b", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="print the per-cycle table")
    add_cost_flags(parser)


def _sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--widths", required=True, help="comma-separated, e.g. 4,8,16")
    parser.add_argument("--dist", default="uniform", choices=DIST_KINDS)
    parser.add_argument("--trials", type=int, default=100000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="report file path")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--model", default=None, help="power model config file")
    parser.add_argument("--a", type=int, default=None,
                        help="multiplicand for --dist fixed, in 0..2^w-1 at every width")
    parser.add_argument("--b", type=int, default=None,
                        help="multiplier for --dist fixed, in 0..2^w-1 at every width")
    add_cost_flags(parser)


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    outcome = exhaustive_verify(args.width)
    ok = outcome.total_pairs - len({(m.a, m.b) for m in outcome.mismatches})
    print(f"width {outcome.width}: {ok}/{outcome.total_pairs} products match "
          f"(both architectures, native-multiply oracle)")
    if outcome.passed:
        print("PASS")
        return 0
    for m in outcome.mismatches[:10]:
        print(f"MISMATCH {m.arch}: {m.a} x {m.b} -> {m.got}, expected {m.expected}")
    if len(outcome.mismatches) > 10:
        print(f"... and {len(outcome.mismatches) - 10} more")
    print("FAIL")
    return 1


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    check_cost_flags(args, parser)
    # the config checks the width, before it sizes the operand range
    cfg = make_config(args.arch, args.width, s=args.ffs_cost, g=args.gate_cost,
                      block_size=args.block_size)
    limit = 1 << args.width
    if not 0 <= args.a < limit or not 0 <= args.b < limit:
        parser.error(f"operands must be in 0..{limit - 1} for width {args.width}")
    a, b = Word(args.a, args.width), Word(args.b, args.width)
    result = simulate(a, b, cfg)
    model = PowerModel()
    energy = estimate_energy(result.ledger, model)
    if not math.isfinite(energy):  # the default model's power is at most its energy
        parser.error(f"energy {energy} is beyond the float range: lower --ffs-cost or --gate-cost")
    if args.trace:
        print(render_trace(a, b, cfg))
        print(f"adder firings: {b.value.bit_count()}")
    print(f"product: {result.product.value}")
    print(f"cycles: {cfg.width}")
    print(f"energy (uniform weights): {energy}")
    print(f"avg power: {average_power(energy, cfg.width, model)}")
    area = area_proxy(cfg)
    print(f"area: flip_flops={area.flip_flops} full_adders={area.full_adders} "
          f"mux_inputs={area.mux_inputs} gates={area.gates}")
    for category, count in result.ledger.as_dict().items():
        print(f"  {category}: {count}")
    return 0


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    check_cost_flags(args, parser)
    widths = parse_widths(args.widths, parser)
    # the report is written after the sweep has run: check its path first
    if not args.out:
        parser.error("--out is empty, not a report file path")
    if os.path.isdir(args.out):
        parser.error(f"--out {args.out} is a directory, not a report file path")
    directory = os.path.dirname(args.out) or "."
    if not os.path.isdir(directory):
        parser.error(f"--out {args.out}: {directory} is not an existing directory")
    model = load_model(args.model, parser)
    dist = OperandDistribution(args.dist, seed=args.seed, a=args.a, b=args.b)
    rows = sweep(widths, dist, args.trials, model,
                 s=args.ffs_cost, g=args.gate_cost, block_size=args.block_size)
    metadata = {
        "rng": RNG_IDS[args.dist],
        "seed": args.seed,
        "dist": args.dist,
        "trials": args.trials,
        "ffs_cost": args.ffs_cost,
        "gate_cost": args.gate_cost,
        "block_size": args.block_size,
    }
    # the block size each width ran with, read from the config that ran it
    ran = [make_config(Variant.LOW_POWER, width, s=args.ffs_cost, g=args.gate_cost,
                       block_size=args.block_size).cost.block_size for width in widths]
    if any(size != args.block_size for size in ran):
        metadata["block_size"] = ran
    if args.dist == "exhaustive":
        # every pair runs whatever --trials says; each row records its count
        del metadata["trials"]
    if args.dist == "fixed":  # the pair every trial ran
        metadata.update(a=args.a, b=args.b)
    emit_report(rows, args.format, args.out, metadata=metadata)
    print(f"wrote {len(rows)} rows to {args.out} ({args.format})")
    print("width  modeled reduction   FPGA-reported")
    for row in rows:
        if row.arch != Variant.LOW_POWER.value:
            continue
        print(f"{row.width:5d}  {row.reduction_pct:16.2f}%  {fpga_reported(row.width)}")
    return 0


# each command's help line, argument adder and handler
COMMANDS = {
    "verify": ("exhaustively check both datapaths at a width", _verify_arguments, _cmd_verify),
    "run": ("simulate one multiplication", _run_arguments, _cmd_run),
    "sweep": ("compare architectures across widths", _sweep_arguments, _cmd_sweep),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, as subcommands of ``shiftadd``."""
    parser = argparse.ArgumentParser(
        prog="shiftadd",
        description="Bit-exact switching-activity simulator for shift-and-add multipliers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        # only the named command's parser, built as its subparser would be,
        # at an eighth (verify) to a third (sweep) of the full parser's cost
        parser = argparse.ArgumentParser(prog=f"shiftadd {argv[0]}")
        _, add_arguments, handler = COMMANDS[argv[0]]
        add_arguments(parser)
        args = parser.parse_args(argv[1:])
    else:  # --help, no command or an unknown one
        parser = build_parser()
        args = parser.parse_args(argv)
        handler = COMMANDS[args.command][2]
    try:
        code = handler(args, parser)
        sys.stdout.flush()  # here, so that a closed pipe is handled below
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``), by choice.  Point stdout at
        # the null device, so the interpreter's exit-time flush of what is
        # still buffered cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error raises SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
