#!/usr/bin/env python3
"""Show how multiplier bit density drives the low-power advantage: sparse
multipliers bypass the adder more often, so their modeled reduction is
larger than with dense multipliers."""

import argparse

from shiftadd.datapath import check_width
from shiftadd.harness import DENSE_P1, SPARSE_P1, OperandDistribution, sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20250811)
    args = parser.parse_args()
    try:
        check_width(args.width)
    except ValueError as exc:
        parser.error(f"--width: {exc}")

    kinds = (("sparse", SPARSE_P1), ("uniform", 0.50), ("dense", DENSE_P1))
    try:
        sweeps = [sweep([args.width], OperandDistribution(kind, seed=args.seed), args.trials)
                  for kind, _ in kinds]
    except ValueError as exc:
        parser.error(str(exc))
    print(f"width={args.width} trials={args.trials} seed={args.seed}")
    print(f"{'distribution':>12}  {'p(bit=1)':>8}  {'reduction':>9}")
    for (kind, p1), rows in zip(kinds, sweeps):
        reduction = next(r.reduction_pct for r in rows if r.arch == "lowpower")
        print(f"{kind:>12}  {p1:8.2f}  {reduction:8.2f}%")


if __name__ == "__main__":
    main()
