"""Guided TE modes of a planar slab stack and the normalization integral of
:mod:`dquant.modes` profiles: the one numpy module of the mode layer, which
the plane-wave modes do without.
"""

from __future__ import annotations

import numpy as np

from .modes import ModeProfile
from .record import record
from .units import UnitSystem


def normalization_integral(p: ModeProfile, omega: float, units: UnitSystem) -> float:
    """(v_p/v_g) * integral |d|^2 / (eps0 n^2) over the transverse grid."""
    del omega  # non-dispersive materials: the profile already carries its frequency data
    dens = np.abs(np.asarray(p.d)) ** 2 / (units.eps0 * np.asarray(p.index) ** 2)
    val = float(np.dot(p.weights, dens)) * (p.vp / p.vg)
    if val == 0.0:
        raise ValueError("zero profile has no normalization")
    return val


def normalize(p: ModeProfile, omega: float, units: UnitSystem) -> ModeProfile:
    """Rescale d and b so the normalization integral equals one."""
    scale = 1.0 / np.sqrt(normalization_integral(p, omega, units))
    return ModeProfile(x=p.x, weights=p.weights, d=(np.asarray(p.d) * scale).tolist(),
                       b=(np.asarray(p.b) * scale).tolist(), index=p.index, vp=p.vp, vg=p.vg,
                       k_eff=p.k_eff)


@record
class SlabStack:
    """Layer stack (thickness, index); outer thicknesses bound the plot grid."""

    thicknesses: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thicknesses, dtype=float)
        n = np.asarray(self.indices, dtype=float)
        if len(t) != len(n) or len(t) < 3:
            raise ValueError("a slab stack needs at least three (thickness, index) layers")
        if np.any(n < 1.0):
            raise ValueError("refractive indices must be >= 1")
        t.setflags(write=False)
        n.setflags(write=False)
        object.__setattr__(self, "thicknesses", t)
        object.__setattr__(self, "indices", n)

    @classmethod
    def from_layers(cls, layers) -> "SlabStack":
        if isinstance(layers[0], dict):
            t = [lay["d"] for lay in layers]
            n = [lay["n"] for lay in layers]
        else:
            t = [lay[0] for lay in layers]
            n = [lay[1] for lay in layers]
        return cls(np.array(t, dtype=float), np.array(n, dtype=float))

    @classmethod
    def from_json(cls, path) -> "SlabStack":
        """Load a {"layers": [{"d": ..., "n": ...}, ...]} document."""
        import json

        with open(path) as fh:
            doc = json.load(fh)
        return cls.from_layers(doc["layers"])

    @property
    def n_cladding(self) -> float:
        return max(self.indices[0], self.indices[-1])

    @property
    def n_core(self) -> float:
        return float(np.max(self.indices[1:-1]))

    def interfaces(self) -> np.ndarray:
        """Interface x-positions, leftmost at 0."""
        inner = self.thicknesses[1:-1]
        return np.concatenate([[0.0], np.cumsum(inner)])


def _propagate_layer(e, ep, kappa_sq, t):
    """Advance (E, E') across one layer of thickness t."""
    if kappa_sq > 0:
        kap = np.sqrt(kappa_sq)
        c, s = np.cos(kap * t), np.sin(kap * t)
        return e * c + ep * s / kap, -e * kap * s + ep * c
    if kappa_sq < 0:
        gam = np.sqrt(-kappa_sq)
        c, s = np.cosh(gam * t), np.sinh(gam * t)
        return e * c + ep * s / gam, e * gam * s + ep * c
    return e + ep * t, ep


def _transfer_walk(beta, k0, stack: SlabStack) -> list:
    """(E, E') at each interface, from the decaying left-cladding tail E = 1."""
    gamma_l = np.sqrt(beta**2 - (stack.indices[0] * k0) ** 2)
    values = [(1.0, gamma_l)]
    for t, n in zip(stack.thicknesses[1:-1], stack.indices[1:-1]):
        values.append(_propagate_layer(*values[-1], (n * k0) ** 2 - beta**2, t))
    return values


def _dispersion_mismatch(beta, k0, stack: SlabStack) -> float:
    """Decay-matching residual at the right cladding; zero on a guided mode."""
    e, ep = _transfer_walk(beta, k0, stack)[-1]
    gamma_r = np.sqrt(beta**2 - (stack.indices[-1] * k0) ** 2)
    return ep + gamma_r * e


@record
class SlabModeSolution:
    """One guided TE mode: analytic piecewise field plus metadata."""

    stack: SlabStack
    omega: float
    k0: float
    beta: float
    #: (E, E') at each interface, starting with the left-cladding values
    boundary_values: tuple

    @property
    def n_eff(self) -> float:
        return self.beta / self.k0

    def field(self, x: np.ndarray) -> np.ndarray:
        """E_y(x) with analytic exponential tails in the claddings."""
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        ifaces = self.stack.interfaces()
        gamma_l = np.sqrt(self.beta**2 - (self.stack.indices[0] * self.k0) ** 2)
        gamma_r = np.sqrt(self.beta**2 - (self.stack.indices[-1] * self.k0) ** 2)
        e_left = self.boundary_values[0][0]
        e_right = self.boundary_values[-1][0]
        left = x <= ifaces[0]
        out[left] = e_left * np.exp(gamma_l * (x[left] - ifaces[0]))
        right = x >= ifaces[-1]
        out[right] = e_right * np.exp(-gamma_r * (x[right] - ifaces[-1]))
        # half-open layers: a sample on an inner interface belongs to the layer it opens
        for j, n in enumerate(self.stack.indices[1:-1]):
            lo = ifaces[j]
            sel = (x >= lo) & (x < ifaces[j + 1])
            e0, ep0 = self.boundary_values[j]
            kappa_sq = (n * self.k0) ** 2 - self.beta**2
            out[sel] = _propagate_layer(e0, ep0, kappa_sq, x[sel] - lo)[0]
        return out


def _bisect(f, a: float, b: float, xtol: float = 1e-14, rtol: float = 1e-15) -> float:
    """A root of f in [a, b], where f changes sign, to within xtol + rtol |root|."""
    fa = f(a)
    while b - a > xtol + rtol * abs(a):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0 or mid in (a, b):
            return mid
        if (fm < 0) == (fa < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _solve_slab_betas(stack: SlabStack, omega: float, units: UnitSystem,
                      scan_points: int = 1500) -> list[SlabModeSolution]:
    k0 = omega / units.c
    lo = stack.n_cladding * k0
    hi = stack.n_core * k0
    if hi <= lo:
        return []
    margin = (hi - lo) * 1e-9
    betas = np.linspace(lo + margin, hi - margin, scan_points)
    vals = np.array([_dispersion_mismatch(b, k0, stack) for b in betas])
    roots = []
    for i in range(len(betas) - 1):
        if vals[i] == 0.0:
            roots.append(betas[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(_bisect(lambda b: _dispersion_mismatch(b, k0, stack),
                                 betas[i], betas[i + 1]))
    solutions = [SlabModeSolution(stack=stack, omega=omega, k0=k0, beta=beta,
                                  boundary_values=tuple(_transfer_walk(beta, k0, stack)))
                 for beta in roots]
    # fundamental (largest n_eff) first
    return sorted(solutions, key=lambda s: -s.beta)


def _slab_grid(sol: SlabModeSolution, points_per_layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Piecewise grid with duplicated interface points so index jumps integrate cleanly."""
    stack = sol.stack
    ifaces = stack.interfaces()
    gamma_l = np.sqrt(sol.beta**2 - (stack.indices[0] * sol.k0) ** 2)
    gamma_r = np.sqrt(sol.beta**2 - (stack.indices[-1] * sol.k0) ** 2)
    tail_l = min(18.0 / gamma_l, 1e4 / sol.k0)
    tail_r = min(18.0 / gamma_r, 1e4 / sol.k0)
    segments = [(ifaces[0] - tail_l, ifaces[0], stack.indices[0])]
    for j, n in enumerate(stack.indices[1:-1]):
        segments.append((ifaces[j], ifaces[j + 1], n))
    segments.append((ifaces[-1], ifaces[-1] + tail_r, stack.indices[-1]))
    xs, ws, ns = [], [], []
    for lo, hi, n in segments:
        grid = np.linspace(lo, hi, points_per_layer)
        h = grid[1] - grid[0]
        weights = np.full(points_per_layer, h)
        weights[0] = weights[-1] = h / 2
        xs.append(grid)
        ws.append(weights)
        ns.append(np.full(points_per_layer, n))
    return np.concatenate(xs), np.concatenate(ws), np.concatenate(ns)


def slab_profile(sol: SlabModeSolution, units: UnitSystem,
                 points_per_layer: int = 4000, vg: float | None = None,
                 normalized: bool = True) -> ModeProfile:
    """Sampled displacement profile of a guided TE mode.

    d(x) = eps0 n(x)^2 E_y(x) up to overall scale; the scalar induction
    surrogate keeps the uniform-medium relation b = mu0 omega d / beta.
    """
    x, weights, n_of_x = _slab_grid(sol, points_per_layer)
    e_y = sol.field(x)
    d = units.eps0 * n_of_x**2 * e_y
    b = units.mu0 * sol.omega * d / sol.beta
    vp = sol.omega / sol.beta
    profile = ModeProfile(x=x.tolist(), weights=weights.tolist(),
                          d=d.astype(complex).tolist(), b=b.astype(complex).tolist(),
                          index=n_of_x.tolist(), vp=vp, vg=vg if vg is not None else vp,
                          k_eff=sol.beta)
    return normalize(profile, sol.omega, units) if normalized else profile


def slab_group_velocity(stack: SlabStack, sol: SlabModeSolution, units: UnitSystem,
                        rel_step: float = 1e-4) -> float:
    """d omega / d beta by centered finite difference on the matched branch."""
    betas = []
    for sign in (-1.0, 1.0):
        omega_s = sol.omega * (1.0 + sign * rel_step)
        candidates = _solve_slab_betas(stack, omega_s, units)
        if not candidates:
            raise ValueError("mode branch lost while differentiating the dispersion")
        betas.append(min(candidates, key=lambda s: abs(s.n_eff - sol.n_eff)).beta)
    return 2.0 * sol.omega * rel_step / (betas[1] - betas[0])


def solve_slab_modes(
    layers,
    omega: float,
    polarization: str = "TE",
    units: UnitSystem | None = None,
    points_per_layer: int = 4000,
    with_group_velocity: bool = True,
) -> list[ModeProfile]:
    """Guided TE modes of a layer stack at a given frequency.

    Returns normalized profiles sorted by decreasing effective index; an
    unguided stack yields an empty list.
    """
    if polarization != "TE":
        raise ValueError("only TE polarization is supported")
    units = units or UnitSystem()
    stack = layers if isinstance(layers, SlabStack) else SlabStack.from_layers(layers)
    solutions = _solve_slab_betas(stack, omega, units)
    profiles = []
    for sol in solutions:
        vg = slab_group_velocity(stack, sol, units) if with_group_velocity else None
        profiles.append(slab_profile(sol, units, points_per_layer=points_per_layer, vg=vg))
    return profiles
