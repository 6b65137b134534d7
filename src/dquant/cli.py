"""Command-line front-end for reproducible runs.

Commands: invert, verify, compare, phasematch, spdc, convert. Exit codes:
0 success, 1 a verification expectation failed, 2 bad input, a path that
cannot be read or written included. All emitted JSON/CSV is
byte-deterministic for a given configuration. Each command imports only
the modules it runs: start-up, which compiles each module imported when no
bytecode is cached, is most of a short command. The three-wave commands
read theta and the route ratio from the resonant builder of
``hamiltonian`` (no operator algebra, no fields).
The package has no runtime dependency, so no command loads numpy: the
commands that diagonalize (spdc, convert and the dynamical compares) run
the pure-Python eigensolver of ``linalg``.
Nor does any command load ``dataclasses`` (which brings ``inspect``,
``ast`` and ``dis``) or ``logging``: the value classes come from
:func:`~dquant.record.record`, and no module logs.
"""

from __future__ import annotations

import argparse
import sys
from math import inf, isfinite, pi, sqrt
from pathlib import Path

from .serialize import csv_text, dumps, write_text

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_INPUT_ERROR = 2


def _emit(args, name: str, text: str):
    if args.out:
        path = write_text(Path(args.out) / name, text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _load_medium_arg(args) -> MediumSpec:
    from .susceptibility import load_medium

    if not args.medium:
        raise ValueError("this command needs --medium FILE")
    return load_medium(args.medium)


def _refractive_index(medium: MediumSpec, path) -> float:
    """sqrt(1 + chi1) of the medium read from ``path``, computed once per command."""
    one_plus_chi1 = 1.0 + medium.chi(1)
    if not one_plus_chi1 > 0:
        raise ValueError(f"medium {path}: 1 + chi1 = {one_plus_chi1} must be positive")
    return sqrt(one_plus_chi1)


def _check_length(flag: str, what: str, value: float) -> None:
    """Refuse a length flag that is not positive and finite, naming the flag."""
    if not 0 < value < inf:
        raise ValueError(f"{flag}: {what} must be positive and finite, got {value}")


def cmd_invert(args) -> int:
    from .susceptibility import gamma_from_eta, invert_series

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


def cmd_verify(args) -> int:
    from .maxwell import verify_routes
    from .modes import make_uniform_medium_modes

    if args.modes < 1:
        raise ValueError(f"--modes must be at least 1, got {args.modes}")
    _check_length("--l-box", "box length", args.l_box)
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


def cmd_compare(args) -> int:
    if args.observable == "coefficient":
        from .hamiltonian import compare_coefficients

        report = compare_coefficients(args.order)
    else:
        from .dynamics import compare_schemes

        report = compare_schemes(args.observable, args.order)
    _emit(args, "comparison.json", dumps(report.to_dict()))
    print(f"{args.observable} order {args.order}: ratio {report.ratio:.6g} "
          f"(expected {report.expected_ratio:.6g}) -> {'pass' if report.passed else 'FAIL'}")
    _warn_if_unsafe(report.truncation_safe)
    return EXIT_OK if report.passed else EXIT_EXPECTATION_FAILED


def cmd_phasematch(args) -> int:
    from .linalg import linspace
    from .modes import phase_matching_curve

    _check_length("--length", "interaction length", args.length)
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


def _interaction_from_args(args):
    """theta, the route ratio, hbar and ``interaction.json`` of the matched triple.

    The medium (or the built-in default) couples the triple m = 1, 2, 3 on
    the 2 pi box over ``--length`` (default: the box). theta is the D
    route's coefficient of a_A^dag a_B^dag a_C from
    :func:`~dquant.hamiltonian.scheme_resonant_coefficients`, and the ratio
    the E route's over it. A theta that underflows to 0 leaves the ratio
    undefined (nan): the dynamics then refuses the zero generator, and no
    state is evolved. A coupling that overflows a float is refused, and so
    is a medium of index below 1, naming its file.
    """
    from .hamiltonian import pure_order_modeset, scheme_resonant_coefficients
    from .modes import sinc
    from .susceptibility import ROUTES, MediumSpec, load_medium

    _check_length("--length", "interaction length", args.length)
    medium = load_medium(args.medium) if args.medium else MediumSpec((0.0, 0.4))
    n_index = _refractive_index(medium, args.medium)
    if not medium.chi(2):
        raise ValueError("three-wave mixing needs a medium with nonzero chi(2)")
    try:
        ms, monomial = pure_order_modeset(2, n_index, medium.units)
    except ValueError as exc:
        raise ValueError(f"medium {args.medium}: {exc}") from None
    built = scheme_resonant_coefficients(ms, medium, monomial, args.length)
    theta, wrong = (built[route] for route in ROUTES)
    if not all(map(isfinite, (theta.real, theta.imag, wrong.real, wrong.imag))):
        raise ValueError(f"--medium and --length set a three-wave coupling that overflows a "
                         f"float: theta = {theta.real:g}, wrong route {wrong.real:g}")
    ratio = (wrong / theta).real if theta else float("nan")
    mode_a, mode_b, mode_c = ms.modes
    delta_k = mode_c.k - mode_b.k - mode_a.k
    doc = {
        "theta": {"re": theta.real, "im": theta.imag},
        "delta_k": delta_k,
        "phi": sinc(delta_k * args.length / 2.0),
        "ratio": ratio,
    }
    return theta, ratio, medium.units.hbar, doc


def _sweep_file(fmt: str, rows, series_name: str) -> tuple[str, str]:
    """(file name, text) of a sweep series in long form, as CSV or JSON."""
    long_rows = []
    for t, correct, wrong in rows:
        long_rows.append((t, correct, "correct"))
        long_rows.append((t, wrong, "wrong"))
    if fmt == "csv":
        return f"{series_name}.csv", csv_text(["t", "observable", "scheme"], long_rows)
    doc = {"rows": [{"t": t, "observable": v, "scheme": s} for t, v, s in long_rows]}
    return f"{series_name}.json", dumps(doc)


#: per sweep command: its file stem, result-key prefix and stdout line
SWEEPS = {
    "spdc": ("spdc", "r", "squeezing r: correct {0:.6g}, wrong {1:.6g}, |ratio| {2:.6g}"),
    "convert": ("conversion", "p", "conversion P: correct {0:.6g}, wrong {1:.6g}"),
}


def cmd_sweep(args) -> int:
    from .dynamics import (EvolutionConfig, ZeroGeneratorError, frequency_conversion,
                           spdc_squeezing)

    stem, key, line = SWEEPS[args.command]
    theta, ratio, hbar, interaction = _interaction_from_args(args)
    cfg = EvolutionConfig(n_max=args.n_max, t_final=args.time, steps=args.steps,
                          pump=args.pump)
    try:
        if args.command == "spdc":
            pair = spdc_squeezing(theta, ratio, cfg, hbar=hbar)
        else:
            pair = frequency_conversion(theta, ratio, cfg, hbar=hbar)
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError(f"--time {args.time:g}: {exc}") from None
    except ZeroGeneratorError as exc:
        raise ValueError(f"--medium, --length and --pump set too weak a coupling: {exc}") from None
    if not pair.correct:
        raise ValueError(f"--time {args.time:g}: the correct route reads 0, which leaves the "
                         "ratio wrong/correct undefined")
    # every text is rendered before the first is written, so a value JSON
    # cannot hold leaves no partial outputs
    files = [("interaction.json", dumps(interaction)),
             _sweep_file(args.format, pair.series, f"{stem}_sweep"),
             (f"{stem}_result.json", dumps({
                 f"{key}_correct": pair.correct,
                 f"{key}_wrong": pair.wrong,
                 "ratio": abs(pair.ratio),
                 "truncation_safe": pair.truncation_safe,
             }))]
    for name, text in files:
        _emit(args, name, text)
    print(line.format(pair.correct, pair.wrong, abs(pair.ratio)))
    _warn_if_unsafe(pair.truncation_safe)
    return EXIT_OK


def _warn_if_unsafe(truncation_safe: bool) -> None:
    if not truncation_safe:
        print("warning: truncation-unsafe evolution (population near cutoff)",
              file=sys.stderr)


def pump_amplitude(text: str) -> float:
    """A finite, nonzero classical pump amplitude."""
    try:
        amplitude = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"pump amplitude must be a number: {text!r}") from None
    if not 0 < abs(amplitude) < inf:
        raise argparse.ArgumentTypeError(f"pump amplitude must be finite and nonzero: {text!r}")
    return amplitude


def _spdc_pump(text: str) -> float | str:
    """``quantum`` (a quantized pump) or a :func:`pump_amplitude`."""
    return text if text == "quantum" else pump_amplitude(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dquant",
        description="Displacement-field quantization checks for nonlinear dielectrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, medium=False):
        p.add_argument("--out", default=None, help="output directory (default: stdout)")
        if medium:
            p.add_argument("--medium", default=None, help="medium JSON file")

    p = sub.add_parser("invert", help="eta and gamma tables from a chi medium")
    common(p, medium=True)
    p.add_argument("--order", type=int, default=None, help="highest inverse order")
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("verify", help="Faraday/Ampere operator checks for both schemes")
    common(p, medium=True)
    p.add_argument("--modes", type=int, default=2, help="max |m| of the basis")
    p.add_argument("--l-box", type=float, default=2 * pi, help="quantization box length")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compare", help="correct-vs-wrong observable ratios")
    common(p)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--observable", choices=("coefficient", "squeezing", "conversion"),
                   default="coefficient")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("phasematch", help="sinc^2 phase-matching curve")
    common(p)
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--dk-min", type=float, default=-4 * pi)
    p.add_argument("--dk-max", type=float, default=4 * pi)
    p.add_argument("--points", type=int, default=201)
    p.set_defaults(fn=cmd_phasematch)

    for name in SWEEPS:
        p = sub.add_parser(name, help=f"{name} scheme comparison sweep")
        common(p, medium=True)
        p.add_argument("--format", choices=("json", "csv"), default="csv",
                       help="sweep output format")
        p.add_argument("--n-max", type=int, default=16, help="Fock cutoff per mode")
        p.add_argument("--time", type=float, default=0.5, help="total evolution time")
        p.add_argument("--steps", type=int, default=20)
        quantum = name == "spdc"  # only spdc evolves a quantized pump
        p.add_argument("--pump", type=_spdc_pump if quantum else pump_amplitude, default=1.0,
                       help="classical pump amplitude" + (", or 'quantum'" if quantum else ""))
        p.add_argument("--length", type=float, default=2 * pi,
                       help="interaction length (default: the 2 pi box)")
        p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
