"""Truncated Fock-space time evolution and scheme-discrepancy observables.

The classical-pump (parametric) limit is the workhorse: replacing the pump
operator by an amplitude beta turns the three-wave interaction into a
two-mode squeezer (SPDC, coupling g = |theta| |beta| Phi / hbar) or a
beamsplitter (frequency conversion), both with closed-form references.
The full three-mode quantum evolution is available behind the same API for
``pump="quantum"``.

States evolve only on the sector of number states the Hamiltonian reaches
from the initial state (the parametric Hamiltonians conserve photon-number
differences, so the squeezer reaches n_max + 1 of the (n_max + 1)^2 states
from the vacuum): the Hamiltonian restricted to that sector is built
directly as a dense matrix, from the truncated-Fock rule ``fock_transitions``
that ``to_matrix`` also uses, and diagonalized exactly, at a cost cubic in
the sector dimension. Norm and energy drifts are monitored and any
population within two levels of a cutoff beyond 1e-6 flags the run as
truncation-unsafe rather than silently reporting numbers.

The observables build their generators as rates (H / hbar) and evolve them
at hbar = 1, so that SI couplings of ~1e-11 1/s are not lost to the
absolute ``PRUNE_TOL`` that an energy hbar g ~ 1e-45 J would fall under.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from math import asinh, factorial, prod, sqrt
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .boson_algebra import BosonicPolynomial
from .hamiltonian import (ComparisonReport, InteractionParams, compare_coefficients,
                          prefactor_ratio)

if TYPE_CHECKING:
    import scipy.sparse as sp

NORM_TOL = 1e-10
EDGE_POPULATION_TOL = 1e-6


@dataclass(frozen=True)
class FockSpace:
    """Truncated multi-mode number basis with a cached occupation table.

    ``cutoff`` is the max occupation per mode (same for all modes when an
    int). Basis states enumerate occupations row-major over ``shape``, the
    first mode slowest.
    """

    modes: tuple
    cutoff: int | Mapping[int, int] = 2
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("mode labels must be unique")

    def n_max(self, mode: int) -> int:
        if isinstance(self.cutoff, Mapping):
            return int(self.cutoff[mode])
        return int(self.cutoff)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        """Levels per mode, n_max + 1, in mode order: the row-major basis layout."""
        return tuple(self.n_max(m) + 1 for m in self.modes)

    @property
    def dim(self) -> int:
        return prod(self.shape)

    def occupations(self) -> np.ndarray:
        """(dim, n_modes) array of basis-state occupation numbers."""
        if "occ" not in self._cache:
            grids = np.meshgrid(*[np.arange(n) for n in self.shape], indexing="ij")
            occ = np.stack([g.ravel() for g in grids], axis=1) if grids else np.zeros((1, 0))
            self._cache["occ"] = occ
        return self._cache["occ"]

    def index(self, occs: Sequence[int]) -> int:
        idx = 0
        for m, levels, n in zip(self.modes, self.shape, occs):
            if not 0 <= n < levels:
                raise ValueError(f"occupation {n} outside cutoff for mode {m}")
            idx = idx * levels + n
        return idx

    def basis_state(self, occs: Sequence[int]) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[self.index(occs)] = 1.0
        return psi

    def vacuum(self) -> np.ndarray:
        return self.basis_state([0] * len(self.modes))


def fock_transitions(p: BosonicPolynomial, space: FockSpace, occ: np.ndarray):
    """The nonzero matrix elements of p in the columns ``occ`` ((k, n_modes) occupations).

    A term ``coef (a^dag)^cre a^ann`` moves |n> to |n - ann + cre> when
    n >= ann in every mode and n - ann + cre stays within the cutoffs; it
    annihilates every other state. Returns, term after term, the positions in
    ``occ`` of the states moved, their targets' basis indices and the
    amplitudes coef <target| (a^dag)^cre a^ann |n>. This is the one
    truncated-Fock rule: :func:`to_matrix` and the sector evolution are
    both built on it.
    """
    unknown = p.modes() - set(space.modes)
    if unknown:
        raise KeyError(f"polynomial uses modes {sorted(unknown)} absent from the space")
    shape = space.shape
    col = {m: i for i, m in enumerate(space.modes)}
    powers = np.zeros((len(p.terms), 2, len(shape)), dtype=int)  # (term, cre|ann, mode)
    for t, key in enumerate(p.terms):
        for m, c, a in key:
            powers[t, :, col[m]] = c, a
    cre, ann = powers[:, None, 0], powers[:, None, 1]
    low = occ - ann  # (term, state, mode)
    terms, src = ((low >= 0).all(axis=2) & (low + cre < shape).all(axis=2)).nonzero()
    low = low[terms, src]
    cre, ann = cre[terms, 0], ann[terms, 0]
    # sqrt(n! / low! * (low + cre)! / low!) per mode: a product of integers,
    # exact in floats below 2^53
    amp2 = np.ones(len(low))
    for j in range(powers.max(initial=0)):
        amp2 *= (np.where(j < ann, low + 1 + j, 1)
                 * np.where(j < cre, low + 1 + j, 1)).prod(axis=1, dtype=float)
    coefs = np.array(list(p.terms.values()), dtype=complex)
    return src, np.ravel_multi_index((low + cre).T, shape), coefs[terms] * np.sqrt(amp2)


def to_matrix(p: BosonicPolynomial, space: FockSpace) -> sp.csr_matrix:
    """Matrix of p in the truncated number basis.

    Exact on the subspace whose occupations stay at least degree(p) below
    every cutoff; edge states feel the truncation (see :func:`fock_transitions`).
    """
    import scipy.sparse as sp

    src, target, amp = fock_transitions(p, space, space.occupations())
    return sp.coo_matrix((amp, (target, src)), shape=(space.dim, space.dim)).tocsr()


@dataclass(frozen=True)
class EvolutionConfig:
    """Cutoffs, duration, sampling and pump treatment of one evolution."""

    n_max: int = 16
    t_final: float = 1.0
    steps: int = 20
    pump: complex | str = 1.0 + 0.0j

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("fock cutoff must be at least 2")
        if self.steps < 1:
            raise ValueError("need at least one evolution step")
        if self.t_final <= 0:
            raise ValueError("evolution time must be positive")
        if isinstance(self.pump, str) and self.pump != "quantum":
            raise ValueError("pump must be 'quantum' or a classical amplitude")

    @property
    def classical_pump(self) -> bool:
        return not isinstance(self.pump, str)


@dataclass(frozen=True)
class EvolutionResult:
    """Final state plus the sanity bookkeeping of one evolution."""

    states: np.ndarray  # (num_samples, dim)
    times: np.ndarray
    norm_drift: float
    energy_drift: float
    edge_population: float
    truncation_safe: bool

    @property
    def state(self) -> np.ndarray:
        return self.states[-1]


def _sector(h: BosonicPolynomial, space: FockSpace, support: np.ndarray):
    """Basis states reachable from ``support`` under h, and h restricted to them.

    A breadth-first walk applies :func:`fock_transitions` to each newly
    reached state once, so every matrix element of h with its column in the
    sector is collected on the way. Returns the sector's full-space indices
    (sorted), their occupations and the dense d_S x d_S matrix of h on it,
    whose span h maps into itself.
    """
    seen = np.zeros(space.dim, dtype=bool)
    seen[support] = True
    frontier = support
    moves = []
    while frontier.size:
        occ = np.stack(np.unravel_index(frontier, space.shape), axis=1)
        src, to, amp = fock_transitions(h, space, occ)
        moves.append((frontier[src], to, amp))
        frontier = np.unique(to[~seen[to]])
        seen[frontier] = True

    sector = np.flatnonzero(seen)
    src, to, amp = (np.concatenate(parts) for parts in zip(*moves))
    h_s = np.zeros((sector.size, sector.size), dtype=complex)
    np.add.at(h_s, (np.searchsorted(sector, to), np.searchsorted(sector, src)), amp)
    return sector, np.stack(np.unravel_index(sector, space.shape), axis=1), h_s


def evolve(
    h: BosonicPolynomial,
    space: FockSpace,
    psi0: np.ndarray,
    t: float,
    hbar: float = 1.0,
    steps: int = 1,
) -> EvolutionResult:
    """exp(-i H t / hbar) psi0 sampled at steps+1 equally spaced times.

    Requires a Hermitian generator and a normalized initial state. The
    evolution runs on the sector of basis states that h reaches from the
    support of psi0 (within the cutoffs of ``space``, truncated by
    :func:`fock_transitions`, the rule ``to_matrix`` shares): h restricted
    to it is diagonalized exactly once, and every sample is
    psi0 + V[(exp(-i w t / hbar) - 1) * V^dag psi0], with the phase factor
    written as -2i sin(x/2) exp(-ix/2) so that t = 0 returns psi0 exactly
    and weak couplings keep their relative accuracy.
    The cost is cubic in the sector dimension d_S, not in space.dim; norm
    and energy drifts and the edge population are measured on the sector
    amplitudes, and the states are scattered back into the full space.
    """
    if not h.is_hermitian():
        raise ValueError("Hamiltonian not Hermitian")
    norm0 = np.linalg.norm(psi0)
    if abs(norm0 - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    sector, occ, h_s = _sector(h, space, np.flatnonzero(psi0))
    psi0_s = psi0[sector].astype(complex)
    w, v = np.linalg.eigh(h_s)
    times = np.linspace(0.0, t, steps + 1)
    x = np.outer(times, w / hbar)
    phase = -2j * np.sin(x / 2) * np.exp(-0.5j * x)
    states_s = psi0_s + (phase * (v.conj().T @ psi0_s)) @ v.T
    norms = np.linalg.norm(states_s, axis=1)
    energies = np.real(np.einsum("si,is->s", states_s.conj(), h_s @ states_s.T))
    near_edge = np.any(occ >= np.array(space.shape) - 2, axis=1)
    edge = float(np.max(np.sum(np.abs(states_s[:, near_edge]) ** 2, axis=1)))
    states = np.zeros((steps + 1, space.dim), dtype=complex)
    states[:, sector] = states_s
    return EvolutionResult(
        states=states,
        times=times,
        norm_drift=float(np.max(np.abs(norms - norm0))),
        energy_drift=float(np.max(np.abs(energies - energies[0]))),
        edge_population=edge,
        truncation_safe=edge <= EDGE_POPULATION_TOL,
    )


def occupation_expectation(space: FockSpace, psi: np.ndarray, mode: int) -> float:
    occ = space.occupations()
    col = list(space.modes).index(mode)
    return float(np.sum(np.abs(psi) ** 2 * occ[:, col]))


def coherent_state(space: FockSpace, mode: int, alpha: complex) -> np.ndarray:
    """Truncated coherent state on one mode (vacuum elsewhere), renormalized."""
    n_max = space.n_max(mode)
    amps = np.array([alpha**n / sqrt(factorial(n)) for n in range(n_max + 1)],
                    dtype=complex)
    amps *= np.exp(-abs(alpha) ** 2 / 2.0)
    amps /= np.linalg.norm(amps)
    psi = np.zeros(space.dim, dtype=complex)
    col = list(space.modes).index(mode)
    occ = space.occupations()
    others = [c for c in range(len(space.modes)) if c != col]
    sel = np.all(occ[:, others] == 0, axis=1) if others else np.ones(space.dim, bool)
    psi[sel] = amps[occ[sel, col]]
    return psi


def coherent_cutoff(alpha: complex) -> int:
    """Smallest cutoff at which the truncated coherent state of amplitude alpha
    keeps at most EDGE_POPULATION_TOL on the edge states (n >= cutoff - 1)."""
    for cutoff in count(1):
        psi = coherent_state(FockSpace(modes=(0,), cutoff=cutoff), 0, alpha)
        if np.sum(np.abs(psi[cutoff - 1:]) ** 2) <= EDGE_POPULATION_TOL:
            return cutoff


@dataclass(frozen=True)
class SchemePair:
    """One observable evaluated under the correct and the wrong route.

    ``series`` holds the (t, correct, wrong) samples the values were read from.
    """

    correct: float
    wrong: float
    truncation_safe: bool
    series: tuple[tuple[float, float, float], ...]

    @property
    def ratio(self) -> float:
        return self.wrong / self.correct if self.correct else float("nan")


def _coupling(params: InteractionParams, cfg: EvolutionConfig, hbar: float) -> float:
    if not cfg.classical_pump:
        raise ValueError("parametric observables need a classical pump amplitude")
    return abs(params.theta) * abs(cfg.pump) * params.phi / hbar


def two_mode_squeezer(g: float) -> BosonicPolynomial:
    """H / hbar = g (a0^dag a1^dag + a0 a1), a rate: evolve it at hbar = 1."""
    pair = BosonicPolynomial.monomial({0: (1, 0), 1: (1, 0)}, coeff=g)
    return pair + pair.dagger()

def beamsplitter(g: float) -> BosonicPolynomial:
    """H / hbar = g (a1^dag a0 + a0^dag a1), a rate: evolve it at hbar = 1."""
    hop = BosonicPolynomial.monomial({0: (0, 1), 1: (1, 0)}, coeff=g)
    return hop + hop.dagger()


def _scheme_series(hamiltonian, space: FockSpace, psi0: np.ndarray, observable,
                   cfg: EvolutionConfig, order: int):
    """(t, correct, wrong) samples of observable(state), and whether both runs are safe.

    ``hamiltonian(scale)`` is the interaction, as a rate H / hbar, at
    ``scale`` times the correct route's strength; the wrong route runs at
    the magnitude of the order-n prefactor ratio. Each route is evolved
    once, at hbar = 1.
    """
    samples = []
    safe = True
    for scale in (1.0, abs(float(prefactor_ratio(order)))):
        res = evolve(hamiltonian(scale), space, psi0, cfg.t_final, steps=cfg.steps)
        samples.append([observable(s) for s in res.states])
        safe = safe and res.truncation_safe
    return tuple((float(t), c, w) for t, c, w in zip(res.times, *samples)), safe


def _sinh2_fit(series, column: int) -> float:
    """r = g t_final from a least-squares fit of <n_A> = sinh^2(g t) to one column.

    The last sample of the series is at t_final.
    """
    ts = np.array([row[0] for row in series[1:]])
    ys = np.array([asinh(sqrt(row[column])) for row in series[1:]])
    return float(np.dot(ts, ys) / np.dot(ts, ts)) * series[-1][0]


def spdc_squeezing(params: InteractionParams, cfg: EvolutionConfig,
                   hbar: float = 1.0, order: int = 2) -> SchemePair:
    """Two-mode squeezing parameter r per scheme, from the sinh^2 law.

    With a classical pump the interaction reduces to
    H = hbar g (a_A^dag a_B^dag + H.c.), g = |theta| |beta| Phi / hbar; the
    wrong route multiplies the coupling magnitude by the order-n prefactor
    ratio. For pump="quantum" the full three-mode evolution runs instead,
    with the pump in a coherent state of amplitude 2, truncated at
    ``coherent_cutoff(2)`` or n_max, whichever is larger. The series holds
    <n_A>(t) per route.
    """
    if cfg.classical_pump:
        g = _coupling(params, cfg, hbar)
        space = FockSpace(modes=(0, 1), cutoff=cfg.n_max)
        psi0 = space.vacuum()

        def hamiltonian(scale):
            return two_mode_squeezer(scale * g)
    else:
        beta = 2.0  # modest amplitude; keeps the pump sector truncation-safe
        pump_cutoff = max(cfg.n_max, coherent_cutoff(beta))
        space = FockSpace(modes=(0, 1, 2),
                          cutoff={0: cfg.n_max, 1: cfg.n_max, 2: pump_cutoff})
        term = BosonicPolynomial.monomial({0: (1, 0), 1: (1, 0), 2: (0, 1)},
                                          coeff=params.theta * params.phi / hbar)
        h3 = term + term.dagger()
        psi0 = coherent_state(space, 2, beta)

        def hamiltonian(scale):
            return scale * h3
    series, safe = _scheme_series(hamiltonian, space, psi0,
                                  lambda s: occupation_expectation(space, s, 0),
                                  cfg, order)
    return SchemePair(correct=_sinh2_fit(series, 1), wrong=_sinh2_fit(series, 2),
                      truncation_safe=safe, series=series)


def frequency_conversion(params: InteractionParams, cfg: EvolutionConfig,
                         hbar: float = 1.0, order: int = 2) -> SchemePair:
    """P(|1,0> -> |0,1>) at t_final per scheme: sin^2(g t) Rabi exchange.

    The series holds the conversion probability at every sample time.
    """
    g = _coupling(params, cfg, hbar)
    space = FockSpace(modes=(0, 1), cutoff=cfg.n_max)
    target = space.basis_state([0, 1])
    series, safe = _scheme_series(lambda scale: beamsplitter(scale * g), space,
                                  space.basis_state([1, 0]),
                                  lambda s: float(np.abs(np.vdot(target, s)) ** 2),
                                  cfg, order)
    return SchemePair(correct=series[-1][1], wrong=series[-1][2], truncation_safe=safe,
                      series=series)


def _default_interaction(theta: float = 0.05) -> InteractionParams:
    return InteractionParams(theta=theta, delta_k=0.0, delta=0.0, phi=1.0)


def compare_schemes(observable: str, order: int = 2,
                    params: InteractionParams | None = None,
                    cfg: EvolutionConfig | None = None,
                    hbar: float = 1.0) -> ComparisonReport:
    """Quantify the wrong/correct discrepancy for one observable.

    Expected ratios: resonant coefficient -n (see
    :func:`~dquant.hamiltonian.compare_coefficients`), squeezing magnitude n,
    small-t conversion probability n^2.
    """
    if observable == "coefficient":
        return compare_coefficients(order)
    params = params or _default_interaction()
    if observable == "squeezing":
        cfg = cfg or EvolutionConfig(n_max=16, t_final=0.2 / abs(params.theta), steps=8)
        pair = spdc_squeezing(params, cfg, hbar=hbar, order=order)
        return ComparisonReport(observable=observable, order=order,
                                value_correct=pair.correct, value_wrong=pair.wrong,
                                ratio=abs(pair.ratio), expected_ratio=float(order),
                                tolerance=1e-4 * order)
    if observable == "conversion":
        g = abs(params.theta)
        cfg = cfg or EvolutionConfig(n_max=4, t_final=0.01 / g, steps=4)
        pair = frequency_conversion(params, cfg, hbar=hbar, order=order)
        gt = g * abs(cfg.pump) * params.phi * cfg.t_final
        # sin^2(n x)/sin^2(x) deviates from n^2 by about n^2 (n^2-1) x^2 / 3
        tol = max(1e-3, 2.0 * order**2 * (order**2 - 1) / 3.0 * gt**2)
        return ComparisonReport(observable=observable, order=order,
                                value_correct=pair.correct, value_wrong=pair.wrong,
                                ratio=pair.ratio, expected_ratio=float(order**2),
                                tolerance=tol)
    raise ValueError(f"unknown observable {observable!r}")
