"""Three-wave coupling helpers: matched modes, the expected route ratio and the report.

:func:`pure_order_modeset` builds the matched modes of an order-n process,
the n signal modes and their pump, with the monomial that couples them;
:func:`~dquant.hamiltonian.scheme_resonant_coefficients` reads each
route's coefficient of that monomial, and the three-wave commands take
theta and the route ratio from it. For a pure order-n medium the routes'
resonant coefficients differ by -n (:func:`prefactor_ratio`, the expected
value the comparisons test the built ratio against); the coefficient and
the dynamical comparisons both report it as a :class:`ComparisonReport`.
:func:`phase_matching_curve` tabulates the sinc^2 phase-matching factor.
The module imports only ``modes`` and ``record``; the unit type in its
annotations is never evaluated.
"""

from __future__ import annotations

from math import inf, pi, sqrt

from .modes import ModeSet, plane_wave_mode, sinc
from .record import record


def prefactor_ratio(order: int) -> int:
    """(wrong / correct) resonant-coefficient ratio for a pure order-n medium."""
    if order < 2:
        raise ValueError("the routes differ only for nonlinear orders n >= 2")
    return -order


@record
class ComparisonReport:
    """Correct-vs-wrong value of one observable with its expected ratio.

    ``truncation_safe`` is the evolution's verdict for a dynamical
    observable (see :mod:`~dquant.dynamics`); a coefficient involves no
    truncation. A truncation-unsafe comparison never passes.
    """

    observable: str
    order: int
    value_correct: float
    value_wrong: float
    ratio: float
    expected_ratio: float
    tolerance: float
    truncation_safe: bool

    @property
    def passed(self) -> bool:
        return self.truncation_safe and abs(self.ratio - self.expected_ratio) <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "observable": self.observable,
            "order": self.order,
            "value_correct": self.value_correct,
            "value_wrong": self.value_wrong,
            "ratio": self.ratio,
            "expected_ratio": self.expected_ratio,
            "tolerance": self.tolerance,
            "truncation_safe": self.truncation_safe,
            "passed": self.passed,
        }


def pure_order_modeset(order: int, chi1: float, units: UnitSystem) -> tuple[ModeSet, dict]:
    """The matched modes of an order-n process and the monomial that couples them.

    n signal modes, labelled 0..n-1 at m = 1..n, and their pump, labelled n
    at m = n(n+1)/2, on the 2 pi box of a medium of index sqrt(1 + chi1),
    with the monomial a_0^dag .. a_(n-1)^dag a_n. At n = 2 this is the
    three-wave triple m = 1, 2, 3, k_C = k_A + k_B, and the linear
    dispersion omega = c k / n makes energy matching automatic.
    """
    n_index = sqrt(1.0 + chi1)
    l_box = 2 * pi
    modes = [plane_wave_mode(i - 1, f"W{i}", i, n_index, l_box, units)
             for i in range(1, order + 1)]
    modes.append(plane_wave_mode(order, "P", order * (order + 1) // 2, n_index, l_box, units))
    ms = ModeSet(modes=tuple(modes), l_box=l_box)
    monomial = {i: (1, 0) for i in range(order)}
    monomial[order] = (0, 1)
    return ms, monomial


def phase_matching_curve(length: float, delta_k_grid) -> list[tuple[float, float]]:
    """|Phi|^2 = sinc^2(delta_k L / 2) tabulated over a wavevector-mismatch grid."""
    if not 0 < length < inf:
        raise ValueError("interaction length must be positive and finite")
    return [(float(dk), sinc(dk * length / 2.0) ** 2) for dk in delta_k_grid]
