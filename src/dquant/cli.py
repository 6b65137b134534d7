"""Command-line front-end for reproducible runs.

Commands: invert, verify, compare, phasematch, spdc, convert. Exit codes:
0 success, 1 a verification expectation failed, 2 bad input, a path that
cannot be read or written included. All emitted JSON/CSV is
byte-deterministic for a given configuration.

Start-up, which compiles each module imported when no bytecode is cached,
is most of a short command, so each command compiles and builds only its
own: :func:`main` looks the command up in :data:`COMMANDS`, imports its one
module of :mod:`dquant.commands`, builds that module's parser alone and
calls its ``run``. A command module imports, inside ``run``, only the
library modules it runs. The three-wave commands read theta and the route
ratio from the resonant builder of ``hamiltonian`` (no operator algebra,
no fields). The package has no runtime dependency, so no command loads
numpy: the commands that diagonalize (spdc, convert and the dynamical
compares) run the pure-Python eigensolver of ``linalg``. Nor does any
command load ``dataclasses`` (which brings ``inspect``, ``ast`` and
``dis``) or ``logging``: the value classes come from
:func:`~dquant.record.record`, and no module logs.
"""

from __future__ import annotations

import argparse
import sys
from math import inf, sqrt
from pathlib import Path

from .serialize import write_text

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_INPUT_ERROR = 2

#: command -> (its help line, its module in dquant.commands)
COMMANDS = {
    "invert": ("eta and gamma tables from a chi medium", "invert"),
    "verify": ("Faraday/Ampere operator checks for both schemes", "verify"),
    "compare": ("correct-vs-wrong observable ratios", "compare"),
    "phasematch": ("sinc^2 phase-matching curve", "phasematch"),
    "spdc": ("spdc scheme comparison sweep", "sweep"),
    "convert": ("convert scheme comparison sweep", "sweep"),
}


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


def _check_positive(flag: str, what: str, value: float) -> None:
    """Refuse a flag value that is not positive and finite, naming the flag."""
    if not 0 < value < inf:
        raise ValueError(f"{flag}: {what} must be positive and finite, got {value}")


def _warn_if_unsafe(truncation_safe: bool) -> None:
    if not truncation_safe:
        print("warning: truncation-unsafe evolution (population near cutoff)",
              file=sys.stderr)


def _command_list() -> argparse.ArgumentParser:
    """The parser of ``dquant`` alone, whose help and usage errors list the commands.

    Each command's entry carries only its help line: no command's options are
    built, and no command module is imported.
    """
    parser = argparse.ArgumentParser(
        prog="dquant",
        description="Displacement-field quantization checks for nonlinear dielectrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in COMMANDS.items():
        sub.add_parser(name, help=help_line)
    return parser


def build_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command ``name``: ``--out``, then its module's options.

    Parsing sets ``command`` to ``name`` and ``fn`` to the module's ``run``.
    """
    # __import__, not importlib.import_module, whose imports -X importtime does not list
    command = __import__(f"{__package__}.commands.{COMMANDS[name][1]}", fromlist=["run"])
    parser = argparse.ArgumentParser(prog=f"dquant {name}")
    parser.set_defaults(command=name, fn=command.run)
    parser.add_argument("--out", default=None, help="output directory (default: stdout)")
    command.add_arguments(parser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        # exits with help or a usage error listing the commands, unless argv is `-- NAME`
        argv = [_command_list().parse_args(argv).command]
    args, unknown = build_parser(argv[0]).parse_known_args(argv[1:])
    if unknown:  # reported by the top-level parser, as argparse does for a subcommand
        _command_list().error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
