"""Ordered-leg expansion of a cubic three-wave density integral.

An oracle for the resonant coefficients of
``dquant.hamiltonian.scheme_resonant_coefficients`` and for the box
integral of D^3 that ``dquant.maxwell`` builds, independent of both the
top-degree ladder and the Wick powers of the field algebra: every mode contributes an
annihilation leg at +k and a creation leg at -k, and each of the 27 ordered
leg triples is integrated over the triple's region on its own. The
resonant sector is a_A^dag a_B^dag a_C and its conjugate; the rest is the
anti-resonant sector that the rotating-wave approximation drops.
"""

from math import pi, sqrt

import numpy as np

from dquant.boson_algebra import BosonicPolynomial, annihilation, creation
from dquant.modes import sinc
from product_oracle import multiply


def cubic_sectors(ms, labels, length, units, tensor_value, prefactor, leg_scale=1.0):
    """(resonant, anti_resonant) parts of prefactor * integral tensor X^3, X = leg_scale D.

    ``labels`` names the triple's modes A, B, C in ``ms``; the integral runs
    over a region of ``length``.
    """
    modes = {mode.label: mode for mode in ms.modes}
    legs = []
    for label in labels:
        mode = modes[label]
        amp = leg_scale * sqrt(units.hbar * mode.omega / 2.0) * sqrt(ms.w)
        legs.append((label, False, mode.k, amp * mode.d, annihilation(label)))
        legs.append((label, True, -mode.k, np.conj(amp * mode.d), creation(label)))
    la, lb, lc = labels
    resonant_content = {frozenset([(la, True), (lb, True), (lc, False)]),
                        frozenset([(la, False), (lb, False), (lc, True)])}
    resonant = anti = BosonicPolynomial.zero()
    for l1 in legs:
        for l2 in legs:
            for l3 in legs:
                k_total = l1[2] + l2[2] + l3[2]
                z_factor = length * sinc(k_total * length / 2.0) / (2 * pi) ** 1.5
                coeff = prefactor * tensor_value * l1[3] * l2[3] * l3[3] * z_factor
                if coeff == 0.0:
                    continue
                term = coeff * multiply(multiply(l1[4], l2[4]), l3[4])
                if frozenset(leg[:2] for leg in (l1, l2, l3)) in resonant_content:
                    resonant = resonant + term
                else:
                    anti = anti + term
    return resonant, anti
