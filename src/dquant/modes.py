"""Discrete mode bases: box-quantized plane waves with flat profiles.

The phase-matching curve and its grid live here too: ``linspace`` is
numpy's evenly spaced grid, float for float, for ``phasematch`` and the
dynamics' sample times.

Box quantization maps the continuum onto a periodic box of length ``l_box``:
wavevectors become k_m = 2*pi*m / l_box = w*m for integer m, integrals over
k become w * sums, delta(k-k') becomes delta_mm' / w, and the continuum
operators a(k) become w**-0.5 a_m so that [a_m, a_m'^dag] = delta_mm'.

Every mode has a flat transverse profile over a cross-section of unit area,
so the profile is the two amplitudes ``d`` and ``b`` of its :class:`Mode`.
They are normalized so that

    (v_p / v_g) * |d|^2 / (eps0 n^2) = 1,

which assigns half a photon's energy to the displacement field and half to
the induction field. A profile cannot move the routes' ratio: it holds
pointwise, eta2(x) = -eps0 chi2(x) eta1(x)^3.
"""

from __future__ import annotations

from math import inf, pi, sin, sqrt
from typing import Sequence

from .record import record
from .units import UnitSystem


def sinc(x: float) -> float:
    """Unnormalized sinc: sin(x)/x with exact zeros at nonzero multiples of pi."""
    y = x / pi
    if y == int(y):
        return 1.0 if y == 0 else 0.0
    # np.sinc's arithmetic: sin(pi y) / (pi y)
    return sin(pi * y) / (pi * y)


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num)``: i * step + start, and stop exactly last."""
    if num < 0:
        raise ValueError(f"Number of samples, {num}, must be non-negative.")
    div = max(num - 1, 1)
    step = (stop - start) / div
    # a step that underflows to zero scales i / div instead, as numpy does
    grid = [(i * step if step else i / div * (stop - start)) + start for i in range(num)]
    return grid[:-1] + [stop] if num > 1 else grid


def phase_matching_curve(length: float, delta_k_grid) -> list[tuple[float, float]]:
    """|Phi|^2 = sinc^2(delta_k L / 2) tabulated over a wavevector-mismatch grid."""
    if not 0 < length < inf:
        raise ValueError("interaction length must be positive and finite")
    return [(float(dk), sinc(dk * length / 2.0) ** 2) for dk in delta_k_grid]


@record
class Mode:
    """One plane wave on the box grid.

    ``d`` and ``b`` are the complex displacement and induction amplitudes
    of its flat profile over the unit cross-section.
    """

    label: int
    m: int
    k: float
    omega: float
    d: complex
    b: complex


@record
class ModeSet:
    """Discrete mode basis on a periodic box."""

    modes: tuple
    l_box: float

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not 0 < self.l_box < inf:
            raise ValueError("box length must be positive and finite")
        labels = [m.label for m in self.modes]
        if len(set(labels)) != len(labels):
            raise ValueError("mode labels must be unique")
        w = self.w
        for m in self.modes:
            if abs(m.k - w * m.m) > 1e-12 * max(1.0, abs(m.k)):
                raise ValueError("wavevectors must sit on the box grid k = 2*pi*m/l_box")

    @property
    def w(self) -> float:
        """Discretization weight 2*pi / l_box."""
        return 2 * pi / self.l_box


def field_coefficients(mode: Mode, w: float, units: UnitSystem) -> tuple[complex, complex]:
    """The D and B coefficients sqrt(hbar*omega/2) * sqrt(w) * (d, b) of a mode's a."""
    amp = sqrt(units.hbar * mode.omega / 2.0) * sqrt(w)
    return amp * mode.d, amp * mode.b


def plane_wave_mode(label: int, m: int, n_index: float, l_box: float, units: UnitSystem) -> Mode:
    """Flat-profile plane wave on the box grid: k = 2*pi*m/l_box, omega = c |k| / n.

    d = sqrt(eps0 n^2) normalizes the profile exactly, and the induction
    amplitude follows from the harmonic Ampere relation b = mu0 omega d / k,
    with the sign of k preserved.
    """
    k = 2 * pi / l_box * m
    omega = units.c * abs(k) / n_index
    d = sqrt(units.eps0 * n_index**2)
    return Mode(label=label, m=m, k=k, omega=omega, d=complex(d),
                b=complex(units.mu0 * omega * d / k))


def make_uniform_medium_modes(n_index: float, l_box: float, m_range: Sequence[int],
                              units: UnitSystem) -> ModeSet:
    """Plane-wave modes of a uniform medium: omega = c |k| / n, labelled 0, 1, ...

    The one builder of box mode sets, and the one owner of the rule
    n >= 1. Raises ``ValueError`` for an index below 1 and for an m = 0
    entry: it has zero frequency and cannot be quantized.
    """
    if n_index < 1.0:
        raise ValueError(f"refractive index {n_index} must be >= 1")
    if not 0 < l_box < inf:
        raise ValueError("box length must be positive and finite")
    if 0 in m_range:
        raise ValueError("the m = 0 mode has zero frequency and cannot be quantized")
    return ModeSet(modes=tuple(plane_wave_mode(label, int(m), n_index, l_box, units)
                               for label, m in enumerate(m_range)), l_box=l_box)
