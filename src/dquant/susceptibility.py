"""Constitutive-relation algebra for nonlinear dielectrics.

Three tensor families describe the same medium:

* ``chi``  — polarization as a power series in the electric field,
  P = eps0 * (chi1 E + chi2 E^2 + ...),
* ``eta``  — electric field as a power series in the displacement field,
  E = eta1 D + eta2 D^2 + ...,
* ``gamma`` — polarization as a power series in the displacement field.

A rank-(n+1) tensor of order n maps n field vectors to one; at dim=1 every
tensor is a single number and the contractions collapse to scalar algebra.
The energy-density prefactor tables of the two quantization routes
(n/(n+1) for the E-series, 1/(n+1) for the D-series) live here as exact
rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np

from .units import UnitSystem, units_from_name

TENSOR_ROLES = ("chi", "eta", "gamma")

#: tolerance for exact-algebra identities (matrix round trips, symmetry)
EXACT_TOL = 1e-12


class NonInvertibleLinearResponseError(ValueError):
    """Raised when (1 + chi1) is singular and eta1 does not exist."""


@dataclass(frozen=True)
class SusceptibilityTensor:
    """Dense rank-(order+1) Cartesian tensor of one constitutive series.

    ``entries`` has shape ``(dim,) * (order + 1)``; the first index is the
    output component, the remaining ``order`` indices contract with field
    vectors. Lossless media only: entries must be real.
    """

    order: int
    role: str
    dim: int
    entries: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("tensor order must be >= 1")
        if self.role not in TENSOR_ROLES:
            raise ValueError(f"role must be one of {TENSOR_ROLES}, got {self.role!r}")
        if self.dim not in (1, 3):
            raise ValueError("spatial dimension must be 1 or 3")
        arr = np.asarray(self.entries)
        if np.iscomplexobj(arr):
            if np.max(np.abs(arr.imag)) > EXACT_TOL:
                raise ValueError("lossless media require real tensor entries")
            arr = arr.real
        arr = np.array(arr, dtype=float).reshape((self.dim,) * (self.order + 1))
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        if self.symmetric:
            ok, dev = check_permutation_symmetry(self)
            if not ok:
                raise ValueError(f"tensor flagged symmetric but deviates by {dev:.3e}")

    @classmethod
    def scalar(cls, order: int, value: float, role: str = "chi") -> "SusceptibilityTensor":
        """One-dimensional tensor holding a single coefficient."""
        return cls(order=order, role=role, dim=1, entries=np.array(value, dtype=float))

    @classmethod
    def zero(cls, order: int, dim: int, role: str = "chi") -> "SusceptibilityTensor":
        return cls(order=order, role=role, dim=dim, entries=np.zeros((dim,) * (order + 1)))

    def item(self) -> float:
        """Scalar value; only meaningful at dim=1."""
        if self.dim != 1:
            raise ValueError("item() requires dim=1")
        return float(self.entries.reshape(-1)[0])

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.max(np.abs(self.entries)) <= tol)


@dataclass(frozen=True)
class MediumSpec:
    """A medium given by its chi tensors, contiguous orders 1..N."""

    units: UnitSystem
    tensors: tuple = field(default_factory=tuple)

    def __post_init__(self):
        tensors = tuple(self.tensors)
        if not tensors:
            raise ValueError("a medium needs at least the order-1 tensor")
        dim = tensors[0].dim
        for i, t in enumerate(tensors, start=1):
            if t.role != "chi":
                raise ValueError("MediumSpec tensors must have role 'chi'")
            if t.order != i:
                raise ValueError("chi orders must be contiguous from 1 (use zero tensors)")
            if t.dim != dim:
                raise ValueError("all tensors must share the spatial dimension")
        object.__setattr__(self, "tensors", tensors)

    @property
    def dim(self) -> int:
        return self.tensors[0].dim

    @property
    def highest_order(self) -> int:
        """Highest nonzero order; 1 for a purely linear medium."""
        for t in reversed(self.tensors):
            if not t.is_zero():
                return t.order
        return 1

    def chi(self, order: int) -> SusceptibilityTensor:
        if not 1 <= order <= len(self.tensors):
            return SusceptibilityTensor.zero(order, self.dim)
        return self.tensors[order - 1]

    @classmethod
    def from_scalars(cls, chis, units: UnitSystem | None = None) -> "MediumSpec":
        """Scalar medium from a sequence (chi1, chi2, ...)."""
        units = units or UnitSystem()
        tensors = [SusceptibilityTensor.scalar(n, c) for n, c in enumerate(chis, start=1)]
        return cls(units=units, tensors=tuple(tensors))


def medium_from_dict(doc: dict) -> MediumSpec:
    """Build a medium from the JSON document layout.

    ``{"units": "natural"|"si", "dim": 1|3, "chi": {"1": [...], ...}}``
    with entries row-major (scalars accepted at dim=1).
    """
    try:
        units = units_from_name(doc.get("units", "natural"))
        dim = int(doc.get("dim", 1))
        chi_map = doc["chi"]
        orders = sorted(int(k) for k in chi_map)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed medium document: {exc}") from exc
    if not orders:
        raise ValueError("medium document must define at least chi(1)")
    n_top = max(orders)
    tensors = []
    for n in range(1, n_top + 1):
        raw = chi_map.get(str(n))
        if raw is None:
            tensors.append(SusceptibilityTensor.zero(n, dim))
        else:
            arr = np.array(raw, dtype=float)
            tensors.append(SusceptibilityTensor(order=n, role="chi", dim=dim, entries=arr))
    return MediumSpec(units=units, tensors=tuple(tensors))


def load_medium(path: str | Path) -> MediumSpec:
    with open(path) as fh:
        doc = json.load(fh)
    return medium_from_dict(doc)


def _identity(dim: int) -> np.ndarray:
    return np.eye(dim)


def invert_linear(chi1: SusceptibilityTensor, units: UnitSystem) -> SusceptibilityTensor:
    """eta1 = eps0^-1 (1 + chi1)^-1 as a dim x dim matrix inverse."""
    if chi1.order != 1:
        raise ValueError("invert_linear expects an order-1 tensor")
    mat = _identity(chi1.dim) + chi1.entries
    if abs(np.linalg.det(mat)) < 1e-14:
        raise NonInvertibleLinearResponseError("non-invertible linear response")
    inv = np.linalg.inv(mat) / units.eps0
    return SusceptibilityTensor(order=1, role="eta", dim=chi1.dim, entries=inv)


def eta2_from_chi2(
    chi2: SusceptibilityTensor,
    eta1: SusceptibilityTensor,
    units: UnitSystem,
) -> SusceptibilityTensor:
    """eta2_jnp = -eps0 * eta1_jk chi2_klm eta1_ln eta1_mp."""
    if chi2.order != 2 or eta1.order != 1:
        raise ValueError("eta2_from_chi2 expects chi of order 2 and eta of order 1")
    if chi2.dim != eta1.dim:
        raise ValueError("dimension mismatch between chi2 and eta1")
    e1 = eta1.entries
    ent = -units.eps0 * np.einsum("jk,klm,ln,mp->jnp", e1, chi2.entries, e1, e1)
    return SusceptibilityTensor(order=2, role="eta", dim=chi2.dim, entries=ent)


def _compositions(total: int, parts: int):
    """Ordered tuples of positive integers of given length summing to total."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _contract_series_term(f_n: np.ndarray, parts: list[np.ndarray]) -> np.ndarray:
    """Contract f_n (indices i, j1..jn) with one lower-order tensor per slot j."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    sub_f = letters[0]
    out = letters[0]
    subs = []
    pos = 1
    for g in parts:
        j = letters[pos]
        pos += 1
        m = g.ndim - 1
        alphas = letters[pos : pos + m]
        pos += m
        sub_f += j
        subs.append(j + alphas)
        out += alphas
    return np.einsum(sub_f + "," + ",".join(subs) + "->" + out, f_n, *parts)


def _symmetrize_lower(arr: np.ndarray) -> np.ndarray:
    """Average over permutations of all indices but the first."""
    if arr.ndim <= 2 or arr.shape[0] == 1:
        return arr
    perms = list(permutations(range(1, arr.ndim)))
    acc = np.zeros_like(arr)
    for p in perms:
        acc += np.transpose(arr, (0,) + p)
    return acc / len(perms)


def invert_series(medium: MediumSpec, max_order: int) -> list[SusceptibilityTensor]:
    """Order-by-order inverse of the D(E) power series.

    Returns eta tensors 1..max_order such that composing D(E(D)) reproduces
    the identity through ``max_order``. Orders 1 and 2 coincide with the
    closed forms of :func:`invert_linear` and :func:`eta2_from_chi2`.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    units = medium.units
    dim = medium.dim
    eta1 = invert_linear(medium.chi(1), units)
    g = {1: eta1.entries}
    n_chi = len(medium.tensors)
    for m in range(2, max_order + 1):
        total = np.zeros((dim,) * (m + 1))
        for n in range(2, min(m, n_chi) + 1):
            chi_n = medium.chi(n)
            if chi_n.is_zero():
                continue
            f_n = units.eps0 * chi_n.entries
            for comp in _compositions(m, n):
                total += _contract_series_term(f_n, [g[t] for t in comp])
        g_m = -np.einsum("ij,j...->i...", eta1.entries, total)
        g[m] = _symmetrize_lower(g_m)
    return [
        SusceptibilityTensor(order=m, role="eta", dim=dim, entries=g[m])
        for m in range(1, max_order + 1)
    ]


def gamma_from_eta(eta: SusceptibilityTensor, units: UnitSystem) -> SusceptibilityTensor:
    """gamma1 = 1 - eps0*eta1; gamma_n = -eps0*eta_n for n > 1."""
    if eta.role != "eta":
        raise ValueError("gamma_from_eta expects an eta tensor")
    if eta.order == 1:
        ent = _identity(eta.dim) - units.eps0 * eta.entries
    else:
        ent = -units.eps0 * eta.entries
    return SusceptibilityTensor(order=eta.order, role="gamma", dim=eta.dim, entries=ent)


def eta_from_gamma(gamma: SusceptibilityTensor, units: UnitSystem) -> SusceptibilityTensor:
    """Inverse of :func:`gamma_from_eta`."""
    if gamma.role != "gamma":
        raise ValueError("eta_from_gamma expects a gamma tensor")
    if gamma.order == 1:
        ent = (_identity(gamma.dim) - gamma.entries) / units.eps0
    else:
        ent = -gamma.entries / units.eps0
    return SusceptibilityTensor(order=gamma.order, role="eta", dim=gamma.dim, entries=ent)


def energy_prefactors(approach: str, n_top: int) -> list[Fraction]:
    """Exact rational weights of the order-n term in each energy density.

    E-based: 1/2, then n/(n+1) for n >= 2. D-based: 1/(n+1) for every n.
    """
    if n_top < 1:
        raise ValueError("N must be >= 1")
    if approach == "E-based":
        return [Fraction(1, 2)] + [Fraction(n, n + 1) for n in range(2, n_top + 1)]
    if approach == "D-based":
        return [Fraction(1, n + 1) for n in range(1, n_top + 1)]
    raise ValueError("approach must be 'E-based' or 'D-based'")


def check_permutation_symmetry(t: SusceptibilityTensor) -> tuple[bool, float]:
    """Full permutation symmetry over all order+1 indices, by enumeration."""
    arr = t.entries
    max_dev = 0.0
    for p in permutations(range(arr.ndim)):
        dev = float(np.max(np.abs(np.transpose(arr, p) - arr)))
        if dev > max_dev:
            max_dev = dev
    return max_dev <= EXACT_TOL, max_dev


def _apply_series(tensors, values: np.ndarray) -> np.ndarray:
    """Evaluate sum_n T_n v^n on shape (samples, dim) inputs."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    total = np.zeros_like(values)
    for t in tensors:
        term = np.broadcast_to(t.entries, (len(values),) + t.entries.shape)
        for _ in range(t.order):
            term = np.einsum("s...j,sj->s...", term, values)
        total += term
    return total


def displacement_from_field(medium: MediumSpec, e_values: np.ndarray) -> np.ndarray:
    """Evaluate D(E) = eps0 [E + chi1 E + chi2 E^2 + ...] on sample vectors.

    ``e_values`` has shape (samples, dim); used by the numeric inversion
    oracle and the round-trip checks.
    """
    e_values = np.atleast_2d(np.asarray(e_values, dtype=float))
    return medium.units.eps0 * (e_values + _apply_series(medium.tensors, e_values))


def field_from_displacement(etas: list[SusceptibilityTensor], d_values: np.ndarray) -> np.ndarray:
    """Evaluate the truncated series E(D) = sum eta_n D^n on sample vectors."""
    return _apply_series(etas, d_values)
