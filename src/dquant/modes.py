"""Discrete mode bases: box-quantized plane waves and their mode profiles.

Box quantization maps the continuum onto a periodic box of length ``l_box``:
wavevectors become k_m = 2*pi*m / l_box = w*m for integer m, integrals over
k become w * sums, delta(k-k') becomes delta_mm' / w, and the continuum
operators a(k) become w**-0.5 a_m so that [a_m, a_m'^dag] = delta_mm'.

Profiles are normalized so that

    (v_p / v_g) * integral dx |d(x)|^2 / (eps0 n(x)^2) = 1,

which assigns half a photon's energy to the displacement field and half to
the induction field. Guided TE slab modes, and the normalization integral
of sampled profiles, come from :mod:`dquant.slab`; like this module it
runs on the standard library alone.
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


@record
class ModeProfile:
    """Transverse profile samples of one guided or plane-wave mode.

    ``x`` and ``weights`` define the quadrature rule (a single point of
    weight A for a uniform cross-section of area A); ``d`` and ``b`` are the
    complex displacement/induction samples and ``index`` the local refractive
    index, all stored as tuples. ``k_eff`` carries the propagation constant.
    """

    x: tuple
    weights: tuple
    d: tuple
    b: tuple
    index: tuple
    vp: float
    vg: float
    k_eff: float | None = None

    def __post_init__(self):
        for name, kind in (("x", float), ("weights", float), ("index", float),
                           ("d", complex), ("b", complex)):
            object.__setattr__(self, name, tuple(map(kind, getattr(self, name))))
        n = len(self.x)
        if not (len(self.weights) == len(self.d) == len(self.b) == len(self.index) == n):
            raise ValueError("profile arrays must be conformable")
        if self.vp <= 0 or self.vg <= 0:
            raise ValueError("phase and group velocities must be positive")

    @property
    def is_flat(self) -> bool:
        return len(self.x) == 1

    def d_value(self) -> complex:
        """Scalar amplitude of a flat profile."""
        if not self.is_flat:
            raise ValueError("d_value() requires a flat (single-point) profile")
        return complex(self.d[0])

    def b_value(self) -> complex:
        if not self.is_flat:
            raise ValueError("b_value() requires a flat (single-point) profile")
        return complex(self.b[0])


@record
class Mode:
    label: int
    family: str
    m: int
    k: float
    omega: float
    profile: ModeProfile


@record
class ModeSet:
    """Discrete mode basis on a periodic box."""

    modes: tuple
    l_box: float
    dropped_zero_mode: bool = False

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

    def labels(self) -> list[int]:
        return [m.label for m in self.modes]

    def to_dict(self) -> dict:
        return {
            "l_box": self.l_box,
            "dropped_zero_mode": self.dropped_zero_mode,
            "modes": [
                {
                    "label": m.label,
                    "family": m.family,
                    "m": m.m,
                    "k": m.k,
                    "omega": m.omega,
                    "v_p": m.profile.vp,
                    "v_g": m.profile.vg,
                    "grid": list(m.profile.x),
                    "d_re": [d.real for d in m.profile.d],
                    "d_im": [d.imag for d in m.profile.d],
                }
                for m in self.modes
            ],
        }


def flat_profile(n_index: float, omega: float, k: float, units: UnitSystem) -> ModeProfile:
    """Exactly normalized constant profile over a cross-section of unit area.

    Unit area is the one :func:`~dquant.fields.expand_fields` accepts. The
    induction amplitude follows from the harmonic Ampere relation
    b = mu0 * omega * d / k, with the sign of k preserved.
    """
    d_val = sqrt(units.eps0 * n_index**2)
    b_val = units.mu0 * omega * d_val / k
    return ModeProfile(
        x=(0.0,),
        weights=(1.0,),
        d=(d_val,),
        b=(b_val,),
        index=(n_index,),
        vp=units.c / n_index,
        vg=units.c / n_index,
        k_eff=k,
    )


def plane_wave_mode(label: int, family: str, m: int, n_index: float, l_box: float,
                    units: UnitSystem) -> Mode:
    """Flat-profile plane wave on the box grid: k = 2*pi*m/l_box, omega = c |k| / n."""
    k = 2 * pi / l_box * m
    omega = units.c * abs(k) / n_index
    return Mode(label=label, family=family, m=m, k=k, omega=omega,
                profile=flat_profile(n_index, omega, k, units))


def make_uniform_medium_modes(n_index: float, l_box: float, m_range: Sequence[int],
                              units: UnitSystem) -> ModeSet:
    """Plane-wave modes of a uniform medium: omega = c |k| / n, labelled 0, 1, ...

    The m=0 entry has zero frequency and cannot be quantized; it is dropped
    and reported via ``dropped_zero_mode`` and a log record.
    """
    if n_index < 1.0:
        raise ValueError("refractive index must be >= 1")
    if not 0 < l_box < inf:
        raise ValueError("box length must be positive and finite")
    dropped = False
    modes = []
    label = 0
    for m in m_range:
        if m == 0:
            dropped = True
            import logging  # only here: no command should pay for its import

            logging.getLogger(__name__).warning("zero-frequency m=0 mode excluded from the basis")
            continue
        modes.append(plane_wave_mode(label, "U", int(m), n_index, l_box, units))
        label += 1
    return ModeSet(modes=tuple(modes), l_box=l_box, dropped_zero_mode=dropped)
