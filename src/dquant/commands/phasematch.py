"""``dquant phasematch``: the sinc^2 phase-matching curve over a grid of mismatches."""

from __future__ import annotations

from math import inf, pi

from ..cli import EXIT_OK, _check_positive, _emit
from ..serialize import csv_text


def add_arguments(parser) -> None:
    parser.add_argument("--length", type=float, default=1.0)
    parser.add_argument("--dk-min", type=float, default=-4 * pi)
    parser.add_argument("--dk-max", type=float, default=4 * pi)
    parser.add_argument("--points", type=int, default=201)


def run(args) -> int:
    from ..modes import linspace, phase_matching_curve

    _check_positive("--length", "interaction length", args.length)
    for flag, value in (("--dk-min", args.dk_min), ("--dk-max", args.dk_max)):
        if not -inf < value < inf:
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    grid = linspace(args.dk_min, args.dk_max, args.points)
    curve = phase_matching_curve(args.length, grid)
    text = csv_text(["delta_k", "phi2"], curve)
    _emit(args, "phase_matching.csv", text)
    return EXIT_OK
