"""``dquant invert``: the eta and gamma tables of a chi medium."""

from __future__ import annotations

from ..cli import EXIT_OK, _emit, _load_medium_arg
from ..serialize import dumps


def add_arguments(parser) -> None:
    parser.add_argument("--medium", default=None, help="medium JSON file")
    parser.add_argument("--order", type=int, default=None, help="highest inverse order")


def run(args) -> int:
    from ..susceptibility import gamma_from_eta, invert_series

    medium = _load_medium_arg(args)
    order = args.order if args.order is not None else max(2, medium.highest_order)
    if order < 1:
        raise ValueError(f"--order must be at least 1, got {order}")
    try:
        etas = invert_series(medium, order)
    except ValueError as exc:
        raise ValueError(f"medium {args.medium}: {exc}") from None
    doc = {
        "dim": 1,
        "max_order": order,
        "eta": {str(m): [eta] for m, eta in enumerate(etas, start=1)},
        "gamma": {str(m): [g] for m, g in
                  enumerate(gamma_from_eta(etas, medium.units), start=1)},
    }
    _emit(args, "inverse_tables.json", dumps(doc))
    return EXIT_OK
