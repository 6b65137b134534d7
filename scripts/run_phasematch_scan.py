#!/usr/bin/env python3
"""Phase-matching curves |Phi|^2 = sinc^2(dk L / 2) for several interaction
lengths, written as plot-ready CSV."""

import argparse
from math import pi
from pathlib import Path

from dquant.modes import linspace, phase_matching_curve
from dquant.serialize import csv_text, write_text


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lengths", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    parser.add_argument("--points", type=int, default=401)
    parser.add_argument("--out", type=Path, default=Path("phasematch_scan.csv"))
    args = parser.parse_args()

    grid = linspace(-6 * pi, 6 * pi, args.points)
    rows = []
    for length in args.lengths:
        for dk, phi2 in phase_matching_curve(length, grid):
            rows.append((length, dk, phi2))
    write_text(args.out, csv_text(["length", "delta_k", "phi2"], rows))
    print(f"wrote {args.out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
