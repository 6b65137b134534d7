#!/usr/bin/env python3
"""Tabulate the wrong/correct discrepancies: coefficients for orders 2..5,
then the dynamical squeezing and conversion ratios for the three-wave case.
Exits 1 when any ratio misses its expected value."""

import argparse
import sys
from pathlib import Path

from dquant.dynamics import compare_schemes
from dquant.serialize import csv_text, write_text


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None, help="optional CSV path")
    args = parser.parse_args()

    cases = [("coefficient", order) for order in range(2, args.max_order + 1)]
    cases += [("squeezing", 2), ("conversion", 2)]
    rows = []
    passed = True
    print(f"{'observable':<14} {'order':<6} {'ratio':<22} {'expected':<10} pass")
    for observable, order in cases:
        rep = compare_schemes(observable, order)
        print(f"{rep.observable:<14} {rep.order:<6} {rep.ratio:<22.15g} "
              f"{rep.expected_ratio:<10g} {rep.passed}")
        rows.append((rep.observable, str(rep.order), rep.ratio, rep.expected_ratio))
        passed = passed and rep.passed

    if args.out:
        write_text(args.out, csv_text(["observable", "order", "ratio", "expected"], rows))
        print(f"wrote {args.out}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
