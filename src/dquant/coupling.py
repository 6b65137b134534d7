"""Closed-form three-wave coupling: matched triples, theta, Phi and the route ratio.

A matched triple (:class:`ModeTriple`) couples as
theta * Phi * a_A^dag a_B^dag a_C + H.c. with closed-form theta and
Phi = sinc(delta_k L / 2) (:func:`build_interaction`). For a pure order-n
medium the routes' resonant coefficients differ by -n
(:func:`prefactor_ratio`); the coefficient and the dynamical comparisons
both report it as a :class:`ComparisonReport`. The module imports only
``modes`` and ``record``, so the commands that read theta and Phi compile
no operator builder; the tensor and unit types in its annotations are
never evaluated.
"""

from __future__ import annotations

from math import inf, pi, sqrt

from .modes import Mode, ModeSet, plane_wave_mode, sinc
from .record import record

#: generous phase-matching budget: |delta_k| L / 2 below this many radians
MATCHING_BUDGET = 10 * pi


class DegenerateTripleError(ValueError):
    """Degenerate mixing (equal families) changes the combinatorics; rejected."""


class MatchingBudgetError(ValueError):
    """Phase or energy mismatch beyond the stated detuning budget."""


@record
class ModeTriple:
    """Three phase- and energy-matched modes plus the interaction length."""

    mode_a: Mode
    mode_b: Mode
    mode_c: Mode
    length: float

    def __post_init__(self):
        if not 0 < self.length < inf:
            raise ValueError("interaction length must be positive and finite")
        families = {self.mode_a.family, self.mode_b.family, self.mode_c.family}
        if len(families) != 3:
            raise DegenerateTripleError(
                "three-wave construction requires three distinct mode families"
            )

    @property
    def delta_k(self) -> float:
        return self.mode_c.k - self.mode_b.k - self.mode_a.k

    def modes(self) -> tuple[Mode, Mode, Mode]:
        return (self.mode_a, self.mode_b, self.mode_c)


@record
class InteractionParams:
    """Coupling theta, mismatches and the phase-matching amplitude."""

    theta: complex
    delta_k: float
    phi: float

    def __post_init__(self):
        if abs(self.phi) > 1.0 + 1e-12:
            raise ValueError("phase-matching amplitude cannot exceed one")


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


def build_interaction(triple: ModeTriple, eta2: SusceptibilityTensor,
                      units: UnitSystem) -> InteractionParams:
    """Coupling of the interaction theta * Phi * a_A^dag a_B^dag a_C + H.c.

    theta = 2 L sqrt(prod hbar omega / 4 pi) * eta2 dA* dB* dC, the
    transverse overlap of the triple's flat profiles over the unit
    cross-section; Phi = sinc(delta_k L / 2). Raises ``ValueError`` for a
    tensor that is not scalar (dim=1).
    """
    if eta2.dim != 1:
        raise ValueError("the three-wave coupling runs on scalar (dim=1) media")
    mode_a, mode_b, mode_c = triple.modes()
    length = triple.length
    delta_k = triple.delta_k
    if abs(delta_k) * length / 2 >= MATCHING_BUDGET:
        raise MatchingBudgetError(
            f"|delta_k| L/2 = {abs(delta_k) * length / 2:.3g} exceeds the budget"
        )
    overlap = eta2.item() * mode_a.d.conjugate() * mode_b.d.conjugate() * mode_c.d
    theta = 2.0 * length * sqrt(
        units.hbar * mode_a.omega / (4 * pi)
        * units.hbar * mode_b.omega / (4 * pi)
        * units.hbar * mode_c.omega / (4 * pi)
    ) * overlap
    return InteractionParams(theta=theta, delta_k=delta_k, phi=sinc(delta_k * length / 2.0))


def phase_matching_curve(length: float, delta_k_grid) -> list[tuple[float, float]]:
    """|Phi|^2 = sinc^2(delta_k L / 2) tabulated over a wavevector-mismatch grid."""
    if not 0 < length < inf:
        raise ValueError("interaction length must be positive and finite")
    return [(float(dk), sinc(dk * length / 2.0) ** 2) for dk in delta_k_grid]


def make_three_wave_modes(
    m_a: int,
    m_b: int,
    n_index: float,
    l_box: float,
    units: UnitSystem,
    length: float | None = None,
) -> tuple[ModeSet, ModeTriple]:
    """Exactly matched uniform-medium triple: k_C = k_A + k_B on the box grid.

    The linear dispersion omega = c k / n makes energy matching automatic.
    """
    if m_a <= 0 or m_b <= 0 or m_a == m_b:
        raise ValueError("signal indices must be positive and distinct")
    modes = [plane_wave_mode(label, family, m, n_index, l_box, units)
             for label, (family, m) in enumerate([("A", m_a), ("B", m_b), ("C", m_a + m_b)])]
    ms = ModeSet(modes=tuple(modes), l_box=l_box)
    triple = ModeTriple(mode_a=modes[0], mode_b=modes[1], mode_c=modes[2],
                        length=length if length is not None else l_box)
    return ms, triple
