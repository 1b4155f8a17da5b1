#!/usr/bin/env python3
"""Sweep both architectures across bit widths, once per operand
distribution, and print the modeled energy reduction next to the
FPGA-reported figures for the 4- and 8-bit designs.  Sparse multipliers
bypass the adder more often, so their modeled reduction is larger than with
dense ones: ``--dist sparse,uniform,dense`` shows how bit density drives it."""

import argparse

from shiftadd.cli import add_cost_flags, check_cost_flags, fpga_reported, load_model, parse_widths
from shiftadd.harness import BIT_DENSITY, OperandDistribution, sweep


def parse_dists(text: str, parser: argparse.ArgumentParser) -> list[str]:
    """The distributions of a comma-separated ``--dist`` value.  As in
    ``cli.parse_widths``, an empty value, an unknown entry or one given twice
    is a usage error naming the flag."""
    kinds = text.split(",")
    if not any(kinds):
        parser.error("--dist is empty")
    for i, kind in enumerate(kinds):
        if kind not in BIT_DENSITY:
            parser.error(f"--dist: unknown distribution {kind!r}; "
                         f"choose from {','.join(BIT_DENSITY)}")
        if kind in kinds[:i]:
            parser.error(f"--dist: distribution {kind} is given more than once")
    return kinds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--widths", default="4,8,16")
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20250811)
    parser.add_argument("--dist", default="uniform",
                        help=f"comma-separated, from {','.join(BIT_DENSITY)}")
    parser.add_argument("--model", default=None, help="power model config file")
    add_cost_flags(parser)
    args = parser.parse_args()
    check_cost_flags(args, parser)

    widths = parse_widths(args.widths, parser)
    kinds = parse_dists(args.dist, parser)
    model = load_model(args.model, parser)
    try:  # every sweep runs before the first block is printed
        sweeps = [sweep(widths, OperandDistribution(kind, seed=args.seed), args.trials, model,
                        s=args.ffs_cost, g=args.gate_cost, block_size=args.block_size)
                  for kind in kinds]
    except ValueError as exc:
        parser.error(str(exc))

    for i, (kind, rows) in enumerate(zip(kinds, sweeps)):
        if i:
            print()
        print(f"dist={kind} p(bit=1)={BIT_DENSITY[kind]:.2f} trials={args.trials} "
              f"seed={args.seed} s={args.ffs_cost} g={args.gate_cost} block={args.block_size}")
        print(f"{'width':>5}  {'conv energy':>14}  {'lowpower energy':>16}  "
              f"{'reduction':>9}  {'FPGA-reported':>13}")
        conv_energy = {row.width: row.energy for row in rows if row.arch == "conv"}
        for row in rows:
            if row.arch != "lowpower":
                continue
            print(f"{row.width:5d}  {conv_energy[row.width]:14.0f}  {row.energy:16.0f}  "
                  f"{row.reduction_pct:8.2f}%  {fpga_reported(row.width)}")


if __name__ == "__main__":
    main()
