"""The benchmark's three workloads, generated from the workload seed.

A workload is a list of dquant CLI commands run in order (one pass). Each
command carries the check that its outputs must pass. The seed draws the
media, lengths and evolution times; the amount of work a pass does is the
same for every seed, so run-to-run spread measures the machine, not the
inputs (see README.md, "Seeds and inputs").
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

#: wrong-route squeezing r = 2 g T per cutoff; the squeezed vacuum then keeps
#: tanh^2(r)^(n_max - 1) < 1e-9 near the cutoff, far inside the program's
#: 1e-6 truncation-safe limit
SPDC_R_WRONG = {64: 1.2, 128: 1.5}
#: correct-route conversion angle g T per cutoff
CONVERT_GT = {64: 0.8, 128: 1.3}
#: samples per sweep (the CLI default)
STEPS = 20
#: phase-matching grid of `dquant phasematch` (CLI defaults)
PM_POINTS = 201
PM_DK_MAX = 4 * math.pi


@dataclass(frozen=True)
class Command:
    """One dquant invocation: arguments after `dquant`, and its output check."""

    name: str
    argv: tuple
    check: Callable[[Path], None]


@dataclass(frozen=True)
class Workload:
    commands: tuple
    #: the command run once before the timed passes and compared byte for
    #: byte with its first timed run
    warmup: Command


def _write_medium(path: Path, chis: list[float]) -> str:
    doc = {"units": "natural", "dim": 1, "chi": {str(n): [c] for n, c in enumerate(chis, 1)}}
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def coefficient_ladder(rng: random.Random, inputs: Path) -> Workload:
    """compare --observable coefficient for n = 2..6 (the CLI fixes the medium)."""
    orders = list(range(2, 7))
    rng.shuffle(orders)
    cmds = {n: Command(f"compare-coefficient-{n}",
                       ("compare", "--observable", "coefficient", "--order", str(n)),
                       partial(checks.check_coefficient, n))
            for n in orders}
    return Workload(tuple(cmds[n] for n in orders), warmup=cmds[2])


#: (name, order, verify --modes ladder). The chi2 ladder starts at 2 modes:
#: a +/-1 basis holds no k-conserving triple and verify exits 1. The chi3
#: ladder stops at 1 mode: from 3 modes up, on some seeds, rounding residue
#: above the pruning threshold raises the degree of an Ampere derivative and
#: the check fails, and at 2 modes that residue comes within one rounding
#: step of the threshold (see CHANGES.md). The chi2 ladder carries the scale.
MAXWELL_MEDIA = (("linear", 1, (1, 4)), ("chi2", 2, (2, 4, 6, 8)), ("chi3", 3, (1,)))


def maxwell_audit(rng: random.Random, inputs: Path) -> Workload:
    """invert, then verify over a mode ladder, on a linear, a chi2 and a chi3 medium."""
    cmds = []
    warmup = None
    for name, order, ladder in MAXWELL_MEDIA:
        chis = [rng.uniform(0.2, 1.5)] + [_signed(rng, 0.05, 0.5) for _ in range(order - 1)]
        path = _write_medium(inputs / f"{name}.json", chis)
        invert = Command(f"invert-{name}", ("invert", "--medium", path),
                         partial(checks.check_invert, chis))
        cmds.append(invert)
        warmup = invert
        for modes in ladder:
            cmds.append(Command(f"verify-{name}-m{modes}",
                                ("verify", "--medium", path, "--modes", str(modes)),
                                partial(checks.check_verify, order, modes)))
    return Workload(tuple(cmds), warmup=warmup)


def three_wave_dynamics(rng: random.Random, inputs: Path) -> Workload:
    """phasematch, spdc and convert at cutoffs 64 and 128, then the two dynamical compares."""
    chi1 = rng.uniform(0.2, 1.2)
    chi2 = _signed(rng, 0.1, 0.5)
    length = rng.uniform(1.0, 2 * math.pi)
    pm_length = rng.uniform(0.5, 4.0)
    path = _write_medium(inputs / "three_wave.json", [chi1, chi2])
    theta = checks.three_wave_theta(chi1, chi2, length)
    g = abs(theta)
    phasematch = Command("phasematch", ("phasematch", "--length", repr(pm_length)),
                         partial(checks.check_phasematch, pm_length, PM_POINTS, PM_DK_MAX))
    cmds = [phasematch]
    common = ("--medium", path, "--length", repr(length), "--steps", str(STEPS))
    for n_max, r_wrong in SPDC_R_WRONG.items():
        t = r_wrong / (2 * g)
        cmds.append(Command(f"spdc-{n_max}",
                            ("spdc", "--n-max", str(n_max), "--time", repr(t)) + common,
                            partial(checks.check_spdc, theta, t, n_max, STEPS)))
    for n_max, gt in CONVERT_GT.items():
        t = gt / g
        cmds.append(Command(f"convert-{n_max}",
                            ("convert", "--n-max", str(n_max), "--time", repr(t)) + common,
                            partial(checks.check_convert, theta, t, STEPS)))
    cmds.append(Command("compare-squeezing", ("compare", "--observable", "squeezing"),
                        checks.check_compare_squeezing))
    cmds.append(Command("compare-conversion", ("compare", "--observable", "conversion"),
                        checks.check_compare_conversion))
    return Workload(tuple(cmds), warmup=phasematch)


WORKLOADS = {
    "coefficient-ladder": coefficient_ladder,
    "maxwell-audit": maxwell_audit,
    "three-wave-dynamics": three_wave_dynamics,
}


def build(name: str, seed: int, inputs: Path) -> Workload:
    """The workload's commands for one seed; writes its medium files to inputs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), inputs)
