"""Constitutive-relation algebra for nonlinear dielectrics.

Three scalar power series describe the same medium:

* ``chi``  — polarization as a power series in the electric field,
  P = eps0 * (chi1 E + chi2 E^2 + ...),
* ``eta``  — electric field as a power series in the displacement field,
  E = eta1 D + eta2 D^2 + ...,
* ``gamma`` — polarization as a power series in the displacement field.

Each series is a list of floats, order 1 first. A medium is its chi series
and its units; :func:`invert_series` reverts it to the eta series, and the
energy densities of the two quantization routes (:func:`energy_density`),
each a list of weights of the same powers of D, are defined here once, and
every Hamiltonian builder reads them.
"""

from __future__ import annotations

import json
from math import isfinite
from pathlib import Path

from .record import record
from .units import UnitSystem, units_from_name


class NonInvertibleLinearResponseError(ValueError):
    """Raised when 1 + chi1 is zero and eta1 does not exist."""


def _real(x) -> float:
    """x as a float; a string or a boolean is no number, though float() reads it."""
    try:
        if not isinstance(x, (str, bytes, bool)):
            return float(x)
    except TypeError:
        pass
    raise ValueError(f"chi entries must be real numbers (lossless media), got {x!r}")


@record
class MediumSpec:
    """A scalar medium: its susceptibilities (chi1, .., chiN) and its units."""

    chis: tuple
    units: UnitSystem = UnitSystem()

    def __post_init__(self):
        chis = tuple(_real(x) for x in self.chis)
        if not chis:
            raise ValueError("a medium needs at least chi1")
        object.__setattr__(self, "chis", chis)

    @property
    def highest_order(self) -> int:
        """Highest nonzero order; 1 for a purely linear medium."""
        return max((n for n, c in enumerate(self.chis, start=1) if c), default=1)

    def chi(self, order: int) -> float:
        """chi_order, 0.0 above the top order."""
        return self.chis[order - 1] if order <= len(self.chis) else 0.0


def _entry(raw):
    """The number of a chi entry, which is a number or a list of one number."""
    if not isinstance(raw, list):
        return raw
    if len(raw) != 1 or isinstance(raw[0], list):
        raise ValueError(f"a scalar chi entry is a number or a list of one number, got {raw!r}")
    return raw[0]


def medium_from_dict(doc: dict) -> MediumSpec:
    """Build a medium from the JSON document layout.

    ``{"units": "natural"|"si", "dim": 1, "chi": {"1": [chi1], "2": chi2, ...}}``.
    The medium is scalar: ``"dim"`` may be left out, and any value but 1 is
    refused. Each key names one order of 1 or above, and its entry is a
    number or a list of one number; a missing order is zero.
    """
    try:
        units = units_from_name(doc.get("units", "natural"))
        dim = doc.get("dim", 1)
        chi_map = {int(key): raw for key, raw in doc["chi"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed medium document: {exc}") from exc
    if dim != 1:
        raise ValueError(f"this command runs on a scalar (dim=1) medium, not dim={dim!r}")
    low = [key for key in doc["chi"] if int(key) < 1]
    if low:
        raise ValueError(f"chi order key {low[0]!r} is below 1: orders start at 1")
    if len(chi_map) < len(doc["chi"]):
        raise ValueError("malformed medium document: two chi keys name the same order")
    if not chi_map:
        raise ValueError("medium document must define at least chi(1)")
    return MediumSpec([_entry(chi_map.get(n, 0.0)) for n in range(1, max(chi_map) + 1)],
                      units=units)


def load_medium(path: str | Path) -> MediumSpec:
    """Read a medium document (see :func:`medium_from_dict`); its entries must be finite.

    Every error in the document names the file.
    """
    try:
        with open(path) as fh:
            medium = medium_from_dict(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"medium {path}: {exc}") from None
    for n, c in enumerate(medium.chis, start=1):
        if not isfinite(c):
            raise ValueError(f"medium {path}: chi({n}) entries must be finite, got {[c]}")
    return medium


def _compositions(total: int, parts: int):
    """Ordered tuples of positive integers of given length summing to total."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def invert_series(medium: MediumSpec, max_order: int) -> list[float]:
    """Order-by-order reversion of the D(E) power series: [eta1, .., eta_max_order].

    Composing D(E(D)) reproduces the identity through ``max_order``.
    eta1 = 1 / (1 + chi1) / eps0, and eta_m = -eta1 * (sum of the terms of
    order m), each term eps0 chi_n times one lower-order eta per part of a
    composition of m into n parts, multiplied left to right. A zero eta_m
    above order 1 is always -0.0. Raises :class:`NonInvertibleLinearResponseError`
    when 1 + chi1 is (nearly) zero, and ``ValueError`` naming the first order
    whose eta is not a finite float.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    eps0 = medium.units.eps0
    one_plus_chi1 = 1.0 + medium.chis[0]
    if abs(one_plus_chi1) < 1e-14:
        raise NonInvertibleLinearResponseError(
            f"non-invertible linear response: 1 + chi1 = {one_plus_chi1} is (nearly) zero")
    eta1 = 1.0 / one_plus_chi1 / eps0
    etas = [eta1]
    for m in range(2, max_order + 1):
        total = 0.0
        for n in range(2, min(m, len(medium.chis)) + 1):
            chi_n = medium.chis[n - 1]
            if not chi_n:
                continue
            f_n = eps0 * chi_n
            for comp in _compositions(m, n):
                term = f_n
                for t in comp:
                    term = term * etas[t - 1]
                total += term
        etas.append(-(0.0 + eta1 * total))
    for m, eta in enumerate(etas, start=1):
        if not isfinite(eta):
            raise ValueError(f"eta({m}) = {eta} is not finite: the inverse series "
                             "overflows a float")
    return etas


def gamma_from_eta(etas: list[float], units: UnitSystem) -> list[float]:
    """gamma1 = 1 - eps0*eta1; gamma_n = -eps0*eta_n for n > 1."""
    return [1.0 - units.eps0 * etas[0]] + [-units.eps0 * x for x in etas[1:]]


#: the two quantization routes: the D series, and the chi series with E kept linear in D
ROUTES = ("D-based", "E-linear-wrong")


def energy_density(medium: MediumSpec, etas) -> dict[str, list[float]]:
    """Each route's energy density beyond B^2/(2 mu0), on a scalar medium.

    Both routes put the same powers of D into the Hamiltonian and differ
    only in their weights: a route's density is sum_n w[n-1] D^(n+1) through
    order ``len(etas)``. Returns ``{route: w}`` in :data:`ROUTES` order:

    - ``"D-based"`` integrates E = dH/dD = sum_n eta_n D^n:
      w[n-1] = eta_n / (n+1).
    - ``"E-linear-wrong"`` keeps E~ = eta1 D linear inside the chi series:
      w[n-1] = c_n eta1^(n+1), with c_1 = eps0 (1 + chi1) / 2 and
      c_n = eps0 n/(n+1) chi_n above.
    """
    n_top = len(etas)
    eps0, eta1 = medium.units.eps0, etas[0]
    coeffs = [eps0 * (1.0 + medium.chi(1)) / 2.0] + [
        eps0 * n / (n + 1) * medium.chi(n) for n in range(2, n_top + 1)]
    return dict(zip(ROUTES, (
        [eta / (n + 1) for n, eta in enumerate(etas, start=1)],
        [c * eta1 ** (n + 1) for n, c in enumerate(coeffs, start=1)])))
