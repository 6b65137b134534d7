"""``dquant compare``: the correct-vs-wrong ratio of one observable at one order."""

from __future__ import annotations

from ..cli import EXIT_EXPECTATION_FAILED, EXIT_OK, _emit, _warn_if_unsafe
from ..serialize import dumps


def add_arguments(parser) -> None:
    parser.add_argument("--order", type=int, default=2)
    parser.add_argument("--observable", choices=("coefficient", "squeezing", "conversion"),
                        default="coefficient")


def run(args) -> int:
    try:
        if args.observable == "coefficient":
            from ..hamiltonian import compare_coefficients

            report = compare_coefficients(args.order)
        else:
            from ..dynamics import compare_schemes

            report = compare_schemes(args.observable, args.order)
    except ValueError as exc:  # the order is the one input a comparison takes
        raise ValueError(f"--order {args.order}: {exc}") from None
    _emit(args, "comparison.json", dumps(report.to_dict()))
    print(f"{args.observable} order {args.order}: ratio {report.ratio:.6g} "
          f"(expected {report.expected_ratio:.6g}) -> {'pass' if report.passed else 'FAIL'}")
    _warn_if_unsafe(report.truncation_safe)
    return EXIT_OK if report.passed else EXIT_EXPECTATION_FAILED
