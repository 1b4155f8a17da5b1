#!/usr/bin/env python3
"""Sweep both architectures across bit widths and print the modeled energy
reduction next to the FPGA-reported figures for the 4- and 8-bit designs."""

import argparse

from shiftadd.cli import add_cost_flags, check_cost_flags, parse_widths
from shiftadd.harness import REPORTED_FPGA_REDUCTION, OperandDistribution, sweep
from shiftadd.power import PowerModel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--widths", default="4,8,16")
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20250811)
    parser.add_argument("--dist", default="uniform", choices=["uniform", "sparse", "dense"])
    parser.add_argument("--model", default=None, help="power model config file")
    add_cost_flags(parser)
    args = parser.parse_args()
    check_cost_flags(args, parser)

    widths = parse_widths(args.widths, parser)
    try:
        model = PowerModel.from_file(args.model) if args.model else PowerModel()
    except (OSError, ValueError) as exc:
        parser.error(f"--model {args.model}: {exc}")
    try:
        rows = sweep(widths, OperandDistribution(args.dist, seed=args.seed), args.trials, model,
                     s=args.ffs_cost, g=args.gate_cost, block_size=args.block_size)
    except ValueError as exc:
        parser.error(str(exc))

    print(f"dist={args.dist} trials={args.trials} seed={args.seed} "
          f"s={args.ffs_cost} g={args.gate_cost} block={args.block_size}")
    print(f"{'width':>5}  {'conv energy':>14}  {'lowpower energy':>16}  "
          f"{'reduction':>9}  {'FPGA-reported':>13}")
    by_width: dict[int, dict[str, float]] = {}
    for row in rows:
        by_width.setdefault(row.width, {})[row.arch] = row.energy
    for row in rows:
        if row.arch != "lowpower":
            continue
        conv_energy = by_width[row.width]["conv"]
        reported = REPORTED_FPGA_REDUCTION.get(row.width)
        note = f"{reported:.2f}%" if reported is not None else "-"
        print(f"{row.width:5d}  {conv_energy:14.0f}  {row.energy:16.0f}  "
              f"{row.reduction_pct:8.2f}%  {note:>13}")


if __name__ == "__main__":
    main()
