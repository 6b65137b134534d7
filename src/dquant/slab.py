"""Guided TE modes of a planar slab stack, found by a transfer walk across its
layers, and the normalization integral of :mod:`dquant.modes` profiles, on
the standard library alone.

The root finder's numerics are fixed: a 1500-point scan of the guided band
for sign changes of the decay mismatch, each bracket bisected to
1e-14 + 1e-15 |beta|, and group velocities from a centred difference at a
relative frequency step of 1e-4. TE is the only polarization.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import cos, cosh, exp, fsum, inf, sin, sinh, sqrt

from .linalg import linspace
from .modes import ModeProfile
from .record import record
from .units import UnitSystem


def normalization_integral(p: ModeProfile, omega: float, units: UnitSystem) -> float:
    """(v_p/v_g) * integral |d|^2 / (eps0 n^2) over the transverse grid."""
    del omega  # non-dispersive materials: the profile already carries its frequency data
    val = fsum(w * (abs(d) ** 2 / (units.eps0 * n**2))
               for w, d, n in zip(p.weights, p.d, p.index)) * (p.vp / p.vg)
    if val == 0.0:
        raise ValueError("zero profile has no normalization")
    return val


def normalize(p: ModeProfile, omega: float, units: UnitSystem) -> ModeProfile:
    """Rescale d and b so the normalization integral equals one."""
    scale = 1.0 / sqrt(normalization_integral(p, omega, units))
    return ModeProfile(x=p.x, weights=p.weights, d=[v * scale for v in p.d],
                       b=[v * scale for v in p.b], index=p.index, vp=p.vp, vg=p.vg,
                       k_eff=p.k_eff)


@record
class SlabStack:
    """Layer stack (thickness, index), claddings first and last.

    Nothing reads the cladding thicknesses: the decay constants fix the sampled tails.
    """

    thicknesses: tuple
    indices: tuple

    def __post_init__(self):
        t = tuple(map(float, self.thicknesses))
        n = tuple(map(float, self.indices))
        if len(t) != len(n) or len(t) < 3:
            raise ValueError("a slab stack needs at least three (thickness, index) layers")
        for layer, (thickness, index) in enumerate(zip(t, n)):
            if not 0.0 < thickness < inf:
                raise ValueError(f"layer {layer}: thickness {thickness} is not finite and > 0")
            if not 1.0 <= index < inf:
                raise ValueError(f"layer {layer}: refractive index {index} is not finite and >= 1")
        object.__setattr__(self, "thicknesses", t)
        object.__setattr__(self, "indices", n)

    @classmethod
    def from_layers(cls, layers) -> "SlabStack":
        if isinstance(layers[0], dict):
            return cls([lay["d"] for lay in layers], [lay["n"] for lay in layers])
        return cls([lay[0] for lay in layers], [lay[1] for lay in layers])

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
        return max(self.indices[1:-1])

    def interfaces(self) -> list[float]:
        """Interface x-positions, leftmost at 0."""
        return list(accumulate(self.thicknesses[1:-1], initial=0.0))


def _propagate_layer(e, ep, kappa_sq, t):
    """Advance (E, E') across one layer of thickness t."""
    if kappa_sq > 0:
        kap = sqrt(kappa_sq)
        c, s = cos(kap * t), sin(kap * t)
        return e * c + ep * s / kap, -e * kap * s + ep * c
    if kappa_sq < 0:
        gam = sqrt(-kappa_sq)
        c, s = cosh(gam * t), sinh(gam * t)
        return e * c + ep * s / gam, e * gam * s + ep * c
    return e + ep * t, ep


def _decay(beta, k0, n):
    """Decay constant of a cladding of index n."""
    return sqrt(beta**2 - (n * k0) ** 2)


def _transfer_walk(beta, k0, stack: SlabStack) -> list:
    """(E, E') at each interface, from the decaying left-cladding tail E = 1.

    Raises ``ValueError`` naming an inner layer whose evanescent growth
    across its thickness overflows a float.
    """
    values = [(1.0, _decay(beta, k0, stack.indices[0]))]
    layers = zip(stack.thicknesses[1:-1], stack.indices[1:-1])
    for layer, (t, n) in enumerate(layers, start=1):
        try:
            values.append(_propagate_layer(*values[-1], (n * k0) ** 2 - beta**2, t))
        except OverflowError:
            raise ValueError(f"layer {layer}: the field is evanescent across thickness {t} "
                             "and its growth overflows; the transfer walk cannot cross "
                             "this layer") from None
    return values


def _dispersion_mismatch(beta, k0, stack: SlabStack) -> float:
    """Decay-matching residual at the right cladding; zero on a guided mode."""
    e, ep = _transfer_walk(beta, k0, stack)[-1]
    return ep + _decay(beta, k0, stack.indices[-1]) * e


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

    def field(self, x) -> list[float]:
        """E_y at each sample of x, with analytic exponential tails in the claddings.

        Inner layers are half-open: a sample on an inner interface belongs to the layer it opens.
        """
        stack, k0, beta = self.stack, self.k0, self.beta
        ifaces = stack.interfaces()
        gamma_l = _decay(beta, k0, stack.indices[0])
        gamma_r = _decay(beta, k0, stack.indices[-1])
        e_left = self.boundary_values[0][0]
        e_right = self.boundary_values[-1][0]
        kappa_sq = [(n * k0) ** 2 - beta**2 for n in stack.indices[1:-1]]
        out = []
        for xi in x:
            j = bisect_right(ifaces, xi)
            if j == 0:
                out.append(e_left * exp(gamma_l * (xi - ifaces[0])))
            elif j == len(ifaces):
                out.append(e_right * exp(-gamma_r * (xi - ifaces[-1])))
            else:
                e0, ep0 = self.boundary_values[j - 1]
                out.append(_propagate_layer(e0, ep0, kappa_sq[j - 1], xi - ifaces[j - 1])[0])
        return out


def _bisect(f, a: float, b: float) -> float:
    """A root of f in [a, b], where f changes sign, to within 1e-14 + 1e-15 |root|."""
    fa = f(a)
    while b - a > 1e-14 + 1e-15 * abs(a):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0 or mid in (a, b):
            return mid
        if (fm < 0) == (fa < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _solve_slab_betas(stack: SlabStack, omega: float, units: UnitSystem) -> list[SlabModeSolution]:
    k0 = omega / units.c
    lo = stack.n_cladding * k0
    hi = stack.n_core * k0
    if hi <= lo:
        return []
    margin = (hi - lo) * 1e-9
    betas = linspace(lo + margin, hi - margin, 1500)
    vals = [_dispersion_mismatch(b, k0, stack) for b in betas]
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


def _slab_grid(sol: SlabModeSolution, points_per_layer: int) -> tuple[list, list, list]:
    """Piecewise grid with duplicated interface points so index jumps integrate cleanly."""
    stack = sol.stack
    ifaces = stack.interfaces()
    tail_l = min(18.0 / _decay(sol.beta, sol.k0, stack.indices[0]), 1e4 / sol.k0)
    tail_r = min(18.0 / _decay(sol.beta, sol.k0, stack.indices[-1]), 1e4 / sol.k0)
    bounds = [ifaces[0] - tail_l, *ifaces, ifaces[-1] + tail_r]
    xs, ws, ns = [], [], []
    for lo, hi, n in zip(bounds, bounds[1:], stack.indices):
        grid = linspace(lo, hi, points_per_layer)
        h = grid[1] - grid[0]
        xs += grid
        ws += [h / 2] + [h] * (points_per_layer - 2) + [h / 2]
        ns += [n] * points_per_layer
    return xs, ws, ns


def slab_profile(sol: SlabModeSolution, units: UnitSystem,
                 points_per_layer: int = 4000, vg: float | None = None,
                 normalized: bool = True) -> ModeProfile:
    """Sampled displacement profile of a guided TE mode.

    d(x) = eps0 n(x)^2 E_y(x) up to overall scale; the scalar induction
    surrogate keeps the uniform-medium relation b = mu0 omega d / beta.
    """
    x, weights, n_of_x = _slab_grid(sol, points_per_layer)
    d = [units.eps0 * n**2 * e for n, e in zip(n_of_x, sol.field(x))]
    b = [units.mu0 * sol.omega * v / sol.beta for v in d]
    vp = sol.omega / sol.beta
    profile = ModeProfile(x=x, weights=weights, d=d, b=b, index=n_of_x, vp=vp,
                          vg=vg if vg is not None else vp, k_eff=sol.beta)
    return normalize(profile, sol.omega, units) if normalized else profile


def slab_group_velocity(stack: SlabStack, sol: SlabModeSolution, units: UnitSystem) -> float:
    """d omega / d beta by centered finite difference on the matched branch."""
    rel_step = 1e-4
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
    units: UnitSystem | None = None,
    points_per_layer: int = 4000,
    with_group_velocity: bool = True,
) -> list[ModeProfile]:
    """Guided TE modes of a layer stack at a given frequency.

    Returns normalized profiles sorted by decreasing effective index; an
    unguided stack yields an empty list.
    """
    units = units or UnitSystem()
    stack = layers if isinstance(layers, SlabStack) else SlabStack.from_layers(layers)
    solutions = _solve_slab_betas(stack, omega, units)
    profiles = []
    for sol in solutions:
        vg = slab_group_velocity(stack, sol, units) if with_group_velocity else None
        profiles.append(slab_profile(sol, units, points_per_layer=points_per_layer, vg=vg))
    return profiles
