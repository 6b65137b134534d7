"""``dquant spdc`` and ``dquant convert``: the two routes' sweeps of one three-wave observable."""

from __future__ import annotations

import argparse
from math import inf, isfinite, pi

from ..cli import EXIT_OK, _check_positive, _emit, _refractive_index, _warn_if_unsafe
from ..serialize import csv_text, dumps

#: per sweep command: its file stem, result-key prefix and stdout line
SWEEPS = {
    "spdc": ("spdc", "r", "squeezing r: correct {0:.6g}, wrong {1:.6g}, |ratio| {2:.6g}"),
    "convert": ("conversion", "p", "conversion P: correct {0:.6g}, wrong {1:.6g}"),
}


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


def add_arguments(parser) -> None:
    quantum = parser.get_default("command") == "spdc"  # only spdc evolves a quantized pump
    parser.add_argument("--medium", default=None, help="medium JSON file")
    parser.add_argument("--format", choices=("json", "csv"), default="csv",
                        help="sweep output format")
    parser.add_argument("--n-max", type=int, default=16, help="Fock cutoff per mode")
    parser.add_argument("--time", type=float, default=0.5, help="total evolution time")
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--pump", type=_spdc_pump if quantum else pump_amplitude, default=1.0,
                        help="classical pump amplitude" + (", or 'quantum'" if quantum else ""))
    parser.add_argument("--length", type=float, default=2 * pi,
                        help="interaction length (default: the 2 pi box)")


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
    from ..hamiltonian import pure_order_modeset, scheme_resonant_coefficients
    from ..modes import sinc
    from ..susceptibility import ROUTES, MediumSpec, load_medium

    _check_positive("--length", "interaction length", args.length)
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


def run(args) -> int:
    from ..dynamics import (EvolutionConfig, ZeroGeneratorError, frequency_conversion,
                            spdc_squeezing)

    stem, key, line = SWEEPS[args.command]
    theta, ratio, hbar, interaction = _interaction_from_args(args)
    if args.n_max < 2:
        raise ValueError(f"--n-max: fock cutoff must be at least 2, got {args.n_max}")
    if args.steps < 1:
        raise ValueError(f"--steps: need at least one evolution step, got {args.steps}")
    _check_positive("--time", "evolution time", args.time)
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
    except ValueError as exc:  # evolve's one other refusal here: a chain past MAX_CHAIN_STATES
        raise ValueError(f"--n-max {args.n_max}: {exc}") from None
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
