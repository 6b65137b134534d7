"""Constitutive-relation algebra for nonlinear dielectrics.

Three tensor families describe the same medium:

* ``chi``  — polarization as a power series in the electric field,
  P = eps0 * (chi1 E + chi2 E^2 + ...),
* ``eta``  — electric field as a power series in the displacement field,
  E = eta1 D + eta2 D^2 + ...,
* ``gamma`` — polarization as a power series in the displacement field.

A rank-(n+1) tensor of order n maps n field vectors to one; at dim=1 every
tensor is a single number and the contractions collapse to scalar algebra.
Tensors are flat row-major tuples of floats and the contractions are plain
Python, multiplying left to right and summing in the order ``np.einsum``
does, so at dim=1 they reproduce it bit for bit. The energy densities of
the two quantization routes (:func:`energy_density`), each a list of
weights of the same powers of D, are defined here once, and every
Hamiltonian builder reads them.
"""

from __future__ import annotations

import json
from itertools import permutations, product
from math import isfinite
from pathlib import Path

from .record import record
from .units import UnitSystem, units_from_name

TENSOR_ROLES = ("chi", "eta", "gamma")

#: largest imaginary part a real tensor entry may carry
EXACT_TOL = 1e-12


class NonInvertibleLinearResponseError(ValueError):
    """Raised when (1 + chi1) is singular and eta1 does not exist."""


def _leaves(raw) -> list:
    """Row-major leaves of a scalar, a nested sequence or an array (``tolist``)."""
    raw = raw.tolist() if hasattr(raw, "tolist") else raw
    if isinstance(raw, (list, tuple)):
        return [x for item in raw for x in _leaves(item)]
    return [raw]


def _real(x) -> float:
    if isinstance(x, complex):
        if abs(x.imag) > EXACT_TOL:
            raise ValueError("lossless media require real tensor entries")
        x = x.real
    try:
        return float(x)
    except TypeError:
        raise ValueError(f"tensor entries must be real numbers, got {x!r}") from None


@record
class SusceptibilityTensor:
    """Dense rank-(order+1) Cartesian tensor of one constitutive series.

    ``entries`` is the tuple of its dim**(order + 1) floats in row-major
    order (built from any nested sequence or array of that size); the first
    index is the output component, the remaining ``order`` indices contract
    with field vectors. Lossless media only: entries must be real.
    """

    order: int
    role: str
    dim: int
    entries: tuple

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("tensor order must be >= 1")
        if self.role not in TENSOR_ROLES:
            raise ValueError(f"role must be one of {TENSOR_ROLES}, got {self.role!r}")
        if self.dim not in (1, 3):
            raise ValueError("spatial dimension must be 1 or 3")
        entries = tuple(_real(x) for x in _leaves(self.entries))
        size = self.dim ** (self.order + 1)
        if len(entries) != size:
            raise ValueError(f"an order-{self.order} tensor at dim {self.dim} has {size} "
                             f"entries, got {len(entries)}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def scalar(cls, order: int, value: float, role: str = "chi") -> "SusceptibilityTensor":
        """One-dimensional tensor holding a single coefficient."""
        return cls(order=order, role=role, dim=1, entries=(value,))

    @classmethod
    def zero(cls, order: int, dim: int) -> "SusceptibilityTensor":
        return cls(order=order, role="chi", dim=dim, entries=(0.0,) * dim ** (order + 1))

    def item(self) -> float:
        """Scalar value; only meaningful at dim=1."""
        if self.dim != 1:
            raise ValueError("item() requires dim=1")
        return self.entries[0]

    def is_zero(self) -> bool:
        return not any(self.entries)


@record
class MediumSpec:
    """A medium given by its chi tensors, contiguous orders 1..N."""

    units: UnitSystem
    tensors: tuple

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
    with entries row-major (scalars accepted at dim=1). Each key names one
    order of 1 or above; a missing order is a zero tensor.
    """
    try:
        units = units_from_name(doc.get("units", "natural"))
        dim = int(doc.get("dim", 1))
        chi_map = {int(key): raw for key, raw in doc["chi"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed medium document: {exc}") from exc
    low = [key for key in doc["chi"] if int(key) < 1]
    if low:
        raise ValueError(f"chi order key {low[0]!r} is below 1: orders start at 1")
    if len(chi_map) < len(doc["chi"]):
        raise ValueError("malformed medium document: two chi keys name the same order")
    if not chi_map:
        raise ValueError("medium document must define at least chi(1)")
    tensors = []
    for n in range(1, max(chi_map) + 1):
        raw = chi_map.get(n)
        if raw is None:
            tensors.append(SusceptibilityTensor.zero(n, dim))
        else:
            tensors.append(SusceptibilityTensor(order=n, role="chi", dim=dim, entries=raw))
    return MediumSpec(units=units, tensors=tuple(tensors))


def load_medium(path: str | Path) -> MediumSpec:
    """Read a medium document (see :func:`medium_from_dict`); its entries must be finite.

    Every error in the document names the file.
    """
    try:
        with open(path) as fh:
            medium = medium_from_dict(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"medium {path}: {exc}") from None
    for t in medium.tensors:
        if not all(map(isfinite, t.entries)):
            raise ValueError(f"medium {path}: chi({t.order}) entries must be finite, "
                             f"got {list(t.entries)}")
    return medium


def _identity(dim: int) -> tuple:
    return tuple(float(q % (dim + 1) == 0) for q in range(dim * dim))


def _adjugate(mat: tuple, dim: int) -> tuple[float, list]:
    """Determinant and adjugate of a row-major 1x1 or 3x3 matrix."""
    if dim == 1:
        return mat[0], [1.0]
    a, b, c, d, e, f, g, h, k = mat
    adj = [e * k - f * h, c * h - b * k, b * f - c * e,
           f * g - d * k, a * k - c * g, c * d - a * f,
           d * h - e * g, b * g - a * h, a * e - b * d]
    return a * adj[0] + b * adj[3] + c * adj[6], adj


def invert_linear(chi1: SusceptibilityTensor, units: UnitSystem) -> SusceptibilityTensor:
    """eta1 = eps0^-1 (1 + chi1)^-1 as a dim x dim matrix inverse."""
    if chi1.order != 1:
        raise ValueError("invert_linear expects an order-1 tensor")
    det, adj = _adjugate([i + x for i, x in zip(_identity(chi1.dim), chi1.entries)], chi1.dim)
    if abs(det) < 1e-14:
        raise NonInvertibleLinearResponseError("non-invertible linear response")
    return SusceptibilityTensor(order=1, role="eta", dim=chi1.dim,
                                entries=[x / det / units.eps0 for x in adj])


def _compositions(total: int, parts: int):
    """Ordered tuples of positive integers of given length summing to total."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _contract_first(t, g, dim: int) -> list:
    """Contract index 1 of t with index 0 of g; g's remaining indices go last.

    Each output entry is 0.0 + t[.., 0, ..] g[0, ..] + t[.., 1, ..] g[1, ..] + ...,
    the sum ``np.einsum`` forms.
    """
    rest = len(t) // (dim * dim)
    tail = len(g) // dim
    out = []
    for a in range(dim):
        for r in range(rest):
            col = t[a * dim * rest + r::rest][:dim]
            for al in range(tail):
                acc = 0.0
                for j in range(dim):
                    acc += col[j] * g[j * tail + al]
                out.append(acc)
    return out


def _transpose(entries, dim: int, axes) -> list:
    """``np.transpose(entries, axes)`` of a row-major tensor, flattened row-major."""
    strides = [dim ** (len(axes) - 1 - a) for a in axes]
    return [entries[sum(i * s for i, s in zip(idx, strides))]
            for idx in product(range(dim), repeat=len(axes))]


def _symmetrize_lower(entries, dim: int, rank: int):
    """Average over permutations of all indices but the first."""
    if rank <= 2 or dim == 1:
        return entries
    perms = list(permutations(range(1, rank)))
    acc = [0.0] * len(entries)
    for p in perms:
        acc = [s + x for s, x in zip(acc, _transpose(entries, dim, (0,) + p))]
    return [s / len(perms) for s in acc]


def invert_series(medium: MediumSpec, max_order: int) -> list[SusceptibilityTensor]:
    """Order-by-order inverse of the D(E) power series.

    Returns eta tensors 1..max_order such that composing D(E(D)) reproduces
    the identity through ``max_order``. Order 1 is :func:`invert_linear`;
    order 2 is the closed form eta2_jnp = -eps0 eta1_jk chi2_klm eta1_ln eta1_mp.
    Each term of order m contracts eps0 chi_n with one lower-order eta per
    slot, one slot at a time, and eta_m = -eta1 . (sum of the terms).
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    units = medium.units
    dim = medium.dim
    eta1 = invert_linear(medium.chi(1), units)
    g = {1: eta1.entries}
    n_chi = len(medium.tensors)
    for m in range(2, max_order + 1):
        total = [0.0] * dim ** (m + 1)
        for n in range(2, min(m, n_chi) + 1):
            chi_n = medium.chi(n)
            if chi_n.is_zero():
                continue
            f_n = [units.eps0 * x for x in chi_n.entries]
            for comp in _compositions(m, n):
                term = f_n
                for t in comp:
                    term = _contract_first(term, g[t], dim)
                total = [s + x for s, x in zip(total, term)]
        g[m] = _symmetrize_lower([-x for x in _contract_first(eta1.entries, total, dim)],
                                 dim, m + 1)
    return [
        SusceptibilityTensor(order=m, role="eta", dim=dim, entries=g[m])
        for m in range(1, max_order + 1)
    ]


def gamma_from_eta(eta: SusceptibilityTensor, units: UnitSystem) -> SusceptibilityTensor:
    """gamma1 = 1 - eps0*eta1; gamma_n = -eps0*eta_n for n > 1."""
    if eta.role != "eta":
        raise ValueError("gamma_from_eta expects an eta tensor")
    if eta.order == 1:
        ent = [i - units.eps0 * x for i, x in zip(_identity(eta.dim), eta.entries)]
    else:
        ent = [-units.eps0 * x for x in eta.entries]
    return SusceptibilityTensor(order=eta.order, role="gamma", dim=eta.dim, entries=ent)


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
    eps0, eta1 = medium.units.eps0, etas[0].item()
    coeffs = [eps0 * (1.0 + medium.chi(1).item()) / 2.0] + [
        eps0 * n / (n + 1) * medium.chi(n).item() for n in range(2, n_top + 1)]
    return dict(zip(ROUTES, (
        [etas[n - 1].item() / (n + 1) for n in range(1, n_top + 1)],
        [c * eta1 ** (n + 1) for n, c in enumerate(coeffs, start=1)])))
