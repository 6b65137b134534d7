#!/usr/bin/env python3
"""Exercise the operator-level Maxwell checks on uniform media of growing
basis size: the D-route must stay exact on retained components while the
linear-E route breaks with a degree mismatch once chi2 or chi3 is switched on."""

import argparse
from math import sqrt, pi

from dquant.maxwell import verify_routes
from dquant.modes import make_uniform_medium_modes
from dquant.susceptibility import MediumSpec
from dquant.units import UnitSystem

CHI3 = -0.15


def audit(chis, m_max):
    units = UnitSystem()
    medium = MediumSpec(chis)
    m_range = [m for m in range(-m_max, m_max + 1) if m != 0]
    ms = make_uniform_medium_modes(sqrt(1 + chis[0]), 2 * pi, m_range, units)
    print(f"\nchi = {tuple(chis)}, {len(ms.modes)} modes")
    print(f"{'scheme':<16} {'law':<8} {'max residual':<14} {'leakage':<10} "
          f"{'degrees':<8} pass")
    for scheme, reports in verify_routes(ms, medium).items():
        for rep in reports:
            print(f"{scheme:<16} {rep.law:<8} {rep.max_residual:<14.3e} "
                  f"{rep.leakage_norm:<10.3e} {rep.degree_lhs} vs {rep.degree_rhs}  "
                  f"{rep.passed}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chi1", type=float, default=0.5)
    parser.add_argument("--chi2", type=float, default=0.3)
    args = parser.parse_args()

    audit((args.chi1,), 2)  # linear: both schemes coincide
    for m_max in (1, 2, 3):
        audit((args.chi1, args.chi2), m_max)
    for m_max in (1, 3, 5):
        audit((args.chi1, args.chi2, CHI3), m_max)


if __name__ == "__main__":
    main()
