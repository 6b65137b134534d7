"""``dquant verify``: the Faraday and Ampere operator checks of both schemes."""

from __future__ import annotations

from math import pi

from ..cli import (EXIT_EXPECTATION_FAILED, EXIT_OK, _check_positive, _emit, _load_medium_arg,
                   _refractive_index)
from ..serialize import dumps


def add_arguments(parser) -> None:
    parser.add_argument("--medium", default=None, help="medium JSON file")
    parser.add_argument("--modes", type=int, default=2, help="max |m| of the basis")
    parser.add_argument("--l-box", type=float, default=2 * pi, help="quantization box length")


def run(args) -> int:
    from ..maxwell import verify_routes
    from ..modes import make_uniform_medium_modes

    if args.modes < 1:
        raise ValueError(f"--modes must be at least 1, got {args.modes}")
    _check_positive("--l-box", "box length", args.l_box)
    medium = _load_medium_arg(args)
    n_index = _refractive_index(medium, args.medium)
    m_range = [m for m in range(-args.modes, args.modes + 1) if m != 0]
    try:
        ms = make_uniform_medium_modes(n_index, args.l_box, m_range, medium.units)
        routes = verify_routes(ms, medium)
    except OverflowError:
        raise ValueError(f"medium {args.medium}: a coefficient norm of the operator checks "
                         "overflows a float") from None
    except ValueError as exc:
        raise ValueError(f"medium {args.medium}: {exc}") from None
    reports = [rep for pair in routes.values() for rep in pair]
    print(f"{'scheme':<16} {'law':<8} {'m':>4} {'residual':<13} {'degrees':<8} pass")
    for rep in reports:
        degrees = f"{rep.degree_lhs} vs {rep.degree_rhs}"
        for m, residual in sorted(rep.residuals.items()):
            ok = residual < rep.tolerance and rep.degrees_match
            print(f"{rep.scheme:<16} {rep.law:<8} {m:>4} {residual:<13.3e} "
                  f"{degrees:<8} {ok}")
        if rep.leakage_norm:
            print(f"{rep.scheme:<16} {rep.law:<8} leakage norm {rep.leakage_norm:.3e} "
                  f"on {len(rep.leakage)} out-of-basis components")
        _emit(args, f"verify_{rep.law}_{rep.scheme}.json", dumps(rep.to_dict()))

    by_key = {(r.scheme, r.law): r for r in reports}
    d_faraday = by_key[("D-based", "faraday")]
    d_ok = d_faraday.passed and by_key[("D-based", "ampere")].passed
    wrong_faraday = by_key[("E-linear-wrong", "faraday")]
    # a nonlinear coupling survives in this basis iff dB/dt is nonlinear on the D route
    if d_faraday.degree_lhs <= 1:
        expectation = d_ok and wrong_faraday.passed
    else:
        expectation = d_ok and (not wrong_faraday.passed) and not wrong_faraday.degrees_match
    return EXIT_OK if expectation else EXIT_EXPECTATION_FAILED
