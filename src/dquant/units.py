"""Unit systems for the electromagnetic constants.

All physics routines take an explicit :class:`UnitSystem`; the natural
system (eps0 = mu0 = hbar = c = 1) is the default everywhere because the
headline results are unit-free ratios.
"""

from __future__ import annotations

from .record import record


@record
class UnitSystem:
    """Vacuum permittivity, permeability, hbar and light speed."""

    eps0: float = 1.0
    mu0: float = 1.0
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("eps0", "mu0", "hbar", "c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


UNIT_PRESETS = {"natural": UnitSystem(),
                "si": UnitSystem(eps0=8.8541878128e-12, mu0=1.25663706212e-6,
                                 hbar=1.054571817e-34, c=299792458.0)}


def units_from_name(name: str) -> UnitSystem:
    try:
        return UNIT_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown unit system {name!r}; expected 'natural' or 'si'") from None
