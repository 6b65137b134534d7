"""Truncated Fock-space time evolution and scheme-discrepancy observables.

The classical-pump (parametric) limit is the workhorse: replacing the pump
operator by an amplitude beta turns the three-wave interaction into a
two-mode squeezer (SPDC, coupling g = |theta| |beta| / hbar) or a
beamsplitter (frequency conversion), both with closed-form references.
Theta and the route ratio c = E/D are built, not quoted: the CLI takes
both from :func:`~dquant.hamiltonian.scheme_resonant_coefficients` on its
matched triple, and :func:`compare_schemes` takes c from
:func:`~dquant.hamiltonian.compare_coefficients`.
The full three-mode quantum evolution is available behind the same API for
``pump="quantum"``.

States are sparse {occupation tuple: amplitude} mappings, evolved only on
the sector of number states the Hamiltonian reaches from the initial state
(the squeezer reaches n_max + 1 of the (n_max + 1)^2 states from the
vacuum). Besides number-conserving terms, the generator may move the
occupations by one shift pair +-v only (v a term's creation minus
annihilation powers), as the squeezer, the beamsplitter and the
quantum-pump term each do; any other is refused before a state is walked.
Its sector is then a sum of chains {n0 + k v}, one walk each, tridiagonal
in sorted order: the walk hands each on as its diagonal and subdiagonal,
and the pure-Python chain eigensolver of :mod:`dquant.linalg` (implicit
QL and inverse iteration) diagonalizes it exactly. Every resonant term
only moves photons, so its chains have a zero diagonal: they are chiral,
with eigenpairs (w, z) and (-w, S z), S negating the odd sites. The
solver then runs inverse iteration for w > 0 only (for the whole spectrum
where a cluster of eigenvalues crosses 0), and each sample is formed by
sublattice, skipping the products whose coefficients are exactly zero:
from a real start on one sublattice (the vacuum, or |1, 0>) a sample
costs two (n/2) x (n/2) real matrix-vector products. Any other chain
costs two n x n products per sample. A time listed twice is evaluated
once. Samples, observables, drifts and the edge population are all
sector-sized, in tuples; any population within two levels of a cutoff
beyond 1e-6 flags the run as truncation-unsafe rather than silently
reporting numbers. The module runs on the standard library alone.

The observables build their generators as rates (H / hbar), and
:func:`evolve` takes every generator as a rate: exp(-i H t) at hbar = 1. So
SI couplings of ~1e-11 1/s are not lost to the absolute ``PRUNE_TOL`` that
an energy hbar g ~ 1e-45 J would fall under. A rate at or below it still
prunes the generator to zero, and :func:`evolve` refuses that generator
rather than report both routes at 0.
The wrong route's resonant term is c times the correct one's, so its
state at t is the correct route's at |c| t (the sign of c is a phase on
one signal mode, which neither <n> nor P sees): one evolution, sampled at
both times, serves both routes.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count
from math import asinh, cos, exp, factorial, fsum, hypot, inf, perm, prod, sin, sqrt, tanh
from operator import add, ge, mul, sub
from typing import Mapping, Sequence

from .boson_algebra import PRUNE_TOL, BosonicPolynomial
from .hamiltonian import ComparisonReport, compare_coefficients
from .linalg import eigh_tridiagonal
from .modes import linspace
from .record import record

EDGE_POPULATION_TOL = 1e-6
PHASE_LIMIT = 2.0**53  # from here on a float phase w t is an even integer: no digit of its angle


class ZeroGeneratorError(ValueError):
    """A generator whose every rate pruned away: nothing would evolve."""


@record
class FockSpace:
    """Truncated multi-mode number basis.

    ``cutoff`` is the max occupation per mode (same for all modes when an
    int). A basis state is a tuple of occupations in mode order; its index
    is row-major over ``shape``, the first mode slowest, so sorting the
    tuples sorts the indices.
    """

    modes: tuple
    cutoff: int | Mapping[int, int]

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

    def index(self, occs: Sequence[int]) -> int:
        if len(occs) != len(self.modes):
            raise ValueError(f"need {len(self.modes)} occupations, got {len(occs)}")
        idx = 0
        for m, levels, n in zip(self.modes, self.shape, occs):
            if not 0 <= n < levels:
                raise ValueError(f"occupation {n} outside cutoff for mode {m}")
            idx = idx * levels + n
        return idx

    def basis_state(self, occs: Sequence[int]) -> dict:
        """|occs> as a sparse state: {occupation tuple: amplitude}."""
        self.index(occs)
        return {tuple(occs): 1.0}

    def vacuum(self) -> dict:
        return self.basis_state([0] * len(self.modes))


@record
class EvolutionConfig:
    """Cutoffs, duration, sampling and pump treatment of one evolution."""

    n_max: int
    t_final: float
    steps: int
    pump: complex | str = 1.0 + 0.0j

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("fock cutoff must be at least 2")
        if self.steps < 1:
            raise ValueError("need at least one evolution step")
        if not 0 < self.t_final < inf:
            raise ValueError("evolution time must be positive and finite")
        if isinstance(self.pump, str) and self.pump != "quantum":
            raise ValueError("pump must be 'quantum' or a classical amplitude")

    @property
    def classical_pump(self) -> bool:
        return not isinstance(self.pump, str)


@record
class EvolutionResult:
    """Sector-sized samples plus the sanity bookkeeping of one evolution.

    ``states[i]`` holds the amplitudes at ``times[i]`` on the reached basis
    states ``occupations``, in sorted order.
    """

    occupations: tuple[tuple[int, ...], ...]  # d_S occupation tuples
    states: tuple[tuple[complex, ...], ...]  # num_samples rows of d_S amplitudes
    times: tuple[float, ...]
    norm_drift: float
    energy_drift: float
    edge_population: float
    truncation_safe: bool
    max_phase: float  # the largest |w| t over every block's eigenvalues w and every sample time t


def _sector(h: BosonicPolynomial, space: FockSpace, support: Sequence[tuple]):
    """Basis states reachable from ``support`` under h, split into the chains h walks.

    h's terms are grouped by their shift, creation minus annihilation
    powers: the zero shift holds the diagonal terms, and any other shifts
    must be one pair, +v and -v, with +v climbing the sorted order. Any
    other generator raises ``ValueError`` naming its shift count, before a
    state is walked. A support state that no earlier walk reached steps
    back along -v to its chain's first state, then forward along +v. Each
    step applies the truncated-Fock rule: a term ``coef (a^dag)^cre a^ann``
    moves |n> to |low + cre>, low = n - ann, with amplitude
    coef sqrt(n! / low! * (low + cre)! / low!) per mode if low >= 0 and
    low + cre is within the cutoffs; the chain ends where no term of the
    shift applies. Returns the sorted occupation tuples and, per chain in
    the order of its first state, its states' positions among them, the
    real diagonal and the subdiagonal of h on them (entry i maps position
    i to i + 1), each entry summed from 0j in h's term order.
    """
    unknown = h.modes() - set(space.modes)
    if unknown:
        raise KeyError(f"polynomial uses modes {sorted(unknown)} absent from the space")
    col = {m: i for i, m in enumerate(space.modes)}
    by_shift = {}  # cre - ann -> its terms (cre, ann, coef), powers listed over the space's modes
    for key, coef in h.terms.items():
        cre, ann = [0] * len(col), [0] * len(col)
        for m, c, a in key:
            cre[col[m]], ann[col[m]] = c, a
        by_shift.setdefault(tuple(map(sub, cre, ann)), []).append((cre, ann, coef))
    diagonal = by_shift.pop((0,) * len(col), [])
    shifts = sorted(by_shift)  # -v, then v, whose first nonzero entry is positive
    if shifts and (len(shifts) != 2 or shifts[0] != tuple(-k for k in shifts[1])):
        raise ValueError(f"the generator has {len(shifts)} off-diagonal shifts: evolve takes "
                         "number-conserving terms plus one shift pair +v and -v")
    back, forth = [by_shift[v] for v in shifts] or ([], [])
    levels = space.shape

    def step(n, terms):
        """(the state that terms move n to, or None, and their summed matrix element)."""
        to, amp = None, 0j
        for cre, ann, coef in terms:
            low = [k - a for k, a in zip(n, ann)]
            if min(low, default=0) < 0 or any(k + c >= lv for k, c, lv in zip(low, cre, levels)):
                continue
            to = tuple(map(add, low, cre))
            # n! / low! * (low + cre)! / low! per mode, an exact integer
            amp += coef * sqrt(prod(perm(k + a, a) * perm(k + c, c)
                                    for k, c, a in zip(low, cre, ann)))
        return to, amp

    walks, reached = [], set()  # walks: (the chain's states, its subdiagonal)
    for n in support:
        if n in reached:
            continue
        while (prev := step(n, back)[0]) is not None:
            n = prev
        states, subs = [n], []
        while (move := step(n, forth))[0] is not None:
            n, amp = move
            states.append(n)
            subs.append(amp)
        walks.append((states, subs))
        reached.update(states)
    occs = sorted(reached)
    at = {n: i for i, n in enumerate(occs)}
    walks.sort(key=lambda walk: walk[0][0])
    return occs, [([at[n] for n in states], [step(n, diagonal)[1].real for n in states], subs)
                  for states, subs in walks]


def evolve(h: BosonicPolynomial, space: FockSpace, psi0: Mapping[tuple, complex],
           times: Sequence[float]) -> EvolutionResult:
    """exp(-i H t) psi0 sampled at each of ``times``, for a rate H (hbar = 1).

    Requires a Hermitian generator and a normalized initial state, given as
    {occupation tuple: amplitude}. The evolution runs on the sector of basis
    states that h reaches from the support of psi0 (within the cutoffs of
    ``space``), block by block: h on each block is diagonalized exactly
    once, and every sample is psi0 + V[(exp(-i w t) - 1) * V^dag psi0],
    with the phase factor written as -2i sin(x/2) exp(-ix/2) so that t = 0
    returns psi0 exactly and weak couplings keep their relative accuracy.
    A time listed twice is evaluated once: both samples are the same row.

    h must be number-conserving terms plus off-diagonal terms of one shift
    pair +-v, v a term's creation minus annihilation powers, as is one
    off-diagonal monomial and its conjugate; any other generator raises
    ``ValueError`` naming its shift count. Each block is then a chain
    {n0 + k v}, monotone in sorted order, and goes to the solver as its
    diagonal and subdiagonal: its diagonalization is quadratic in its size,
    each sample is two real matrix-vector products and its energy takes
    linear time, so the cost grows with the block sizes, not with the full
    dimension. A chiral chain (zero diagonal, as in every resonant
    interaction, which only moves photons) needs inverse iteration for half
    its spectrum, and its samples are products over its two sublattices, a
    quarter of the arithmetic. The result reports the largest phase |w| t
    as ``max_phase``; a phase that is no finite float raises
    ``OverflowError``. A zero generator, whose every rate was at or below
    ``PRUNE_TOL``, raises :class:`ZeroGeneratorError` rather than reporting
    a state that never moved.
    """
    if h.is_zero:
        raise ZeroGeneratorError(f"the generator prunes to zero: every rate is at or below "
                                 f"PRUNE_TOL = {PRUNE_TOL:g}")
    if not h.is_hermitian():
        raise ValueError("Hamiltonian not Hermitian")
    support = [tuple(n) for n, amp in psi0.items() if amp]
    for n in support:
        space.index(n)
    norm0 = sqrt(fsum(abs(amp) ** 2 for amp in psi0.values()))
    if abs(norm0 - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    occs, chains = _sector(h, space, support)
    psi0_s = [complex(psi0.get(n, 0.0)) for n in occs]
    times = tuple(float(t) for t in times)
    distinct = list(dict.fromkeys(times))

    rows = [[0j] * len(occs) for _ in distinct]
    energies = [0.0] * len(distinct)
    t_max = max(map(abs, distinct), default=0.0)
    max_phase = 0.0
    for sel, diag, sub in chains:
        eig = eigh_tridiagonal(diag, sub)
        max_phase = max(max_phase, t_max * max(map(abs, eig.values), default=0.0))
        if not max_phase < inf:
            raise OverflowError(f"the phase w t overflows a float at t = {t_max:g}")
        samples = _samples(eig, [psi0_s[i] for i in sel], distinct)
        for k, (row, state_b) in enumerate(zip(rows, samples)):
            for i, amp in zip(sel, state_b):
                row[i] = amp
            energies[k] += _chain_energy(diag, sub, state_b)
    rows = [tuple(row) for row in rows]
    norms = [hypot(*map(abs, row)) for row in rows]
    edge_levels = [lv - 2 for lv in space.shape]
    near_edge = [i for i, n in enumerate(occs) if any(map(ge, n, edge_levels))]
    edge = max(hypot(*[abs(row[i]) for i in near_edge]) ** 2 for row in rows)
    row_of = dict(zip(distinct, rows))
    return EvolutionResult(
        occupations=tuple(occs),
        states=tuple(row_of[t] for t in times),
        times=times,
        norm_drift=max(abs(norm - norm0) for norm in norms),
        energy_drift=max(abs(energy - energies[0]) for energy in energies),
        edge_population=edge,
        truncation_safe=edge <= EDGE_POPULATION_TOL,
        max_phase=max_phase,
    )


def _chain_energy(diag: list[float], sub: list[complex], state: list[complex]) -> float:
    """<state|h|state> of the chain with real ``diag`` and subdiagonal ``sub``."""
    return (sum(d * abs(v) ** 2 for d, v in zip(diag, state))
            + 2.0 * sum(b.conjugate() * e * a for e, a, b in zip(sub, state, state[1:])).real)


def _samples(eig, p0: list[complex], times: Sequence[float]):
    """The states p0 + V[(exp(-i w t) - 1) * V^dag p0] of one block, one list per time.

    V = P Z from the :class:`~dquant.linalg.Eigensystem` ``eig``, with Z
    real: p0 is carried into the tridiagonal basis once, as y = P^dag p0,
    and with s and c the sine and cosine of wt/2 each sample is

        psi - p0 = P Z [-2 (s s + i s c) Z^T y]

    by two real matrix-vector products. A ``mirrored`` eigensystem (a
    chiral chain) pairs (w, z) with (-w, S z), S negating the odd sites.
    Folding each pair in, with A the even sites, B the odd ones,
    alpha = Z_A^T y_A and beta = Z_B^T y_B over the w > 0 half, a zero mode
    drops out and

        psi_A - p_A = Z_A [-4 (alpha s s + i beta s c)]
        psi_B - p_B = Z_B [-4 (beta s s + i alpha s c)].

    A product whose coefficient vector is exactly zero is skipped, so a
    real start on one sublattice costs two (n/2) x (n/2) products per sample.
    """
    y = eig.to_tridiagonal(p0)
    if eig.mirrored:
        kept = [k for k, w in enumerate(eig.values) if w > 0]
        step, factor, partner = 2, -4.0, (1, 0)
    else:
        kept = range(len(eig.values))
        step, factor, partner = 1, -2.0, (0,)
    rates = [eig.values[k] for k in kept]
    parts = []  # per sublattice: rows of Z there, and factor * Z^T y, real and imaginary
    for start in range(step):
        zs = [eig.vectors[k][start::step] for k in kept]
        y_re, y_im = [v.real for v in y[start::step]], [v.imag for v in y[start::step]]
        parts.append((list(zip(*zs)) if zs else [()] * len(y_re),
                      [factor * sum(map(mul, z, y_re)) for z in zs],
                      [factor * sum(map(mul, z, y_im)) for z in zs]))
    back = [0j] * len(p0)
    for t in times:
        halves = [t * rate / 2 for rate in rates]
        sin_half = list(map(sin, halves))
        ss = list(map(mul, sin_half, sin_half))
        sc = list(map(mul, sin_half, map(cos, halves)))
        for start, (rows, a_re, a_im) in enumerate(parts):
            _, b_re, b_im = parts[partner[start]]
            back[start::step] = map(
                complex, _product(rows, map(sub, map(mul, ss, a_re), map(mul, sc, b_im))),
                _product(rows, map(add, map(mul, ss, a_im), map(mul, sc, b_re))))
        yield list(map(add, p0, eig.from_tridiagonal(back)))


def _product(rows, c) -> list[float]:
    """rows @ c, or zeros without the product when c is exactly zero."""
    c = list(c)
    if not any(c):
        return [0.0] * len(rows)
    return [sum(map(mul, r, c)) for r in rows]


def occupation_expectation(space: FockSpace, res: EvolutionResult, mode: int) -> list[float]:
    """<n_mode> at every sample of an evolution on ``space``."""
    col = space.modes.index(mode)
    n = [occ[col] for occ in res.occupations]
    out = []
    for state in res.states:
        mag = list(map(abs, state))
        out.append(fsum(map(mul, map(mul, mag, mag), n)))
    return out


def population(space: FockSpace, res: EvolutionResult, occs: Sequence[int]) -> list[float]:
    """|<occs|psi(t)>|^2 at every sample of an evolution on ``space`` (0 off its sector)."""
    space.index(occs)
    occs = tuple(occs)
    if occs not in res.occupations:
        return [0.0] * len(res.states)
    at = res.occupations.index(occs)
    return [abs(state[at]) ** 2 for state in res.states]


def _coherent_amplitudes(alpha: complex, n_max: int) -> list[complex]:
    """<n|alpha> for n = 0..n_max, renormalized on the truncation."""
    damping = exp(-abs(alpha) ** 2 / 2.0)
    amps = [complex(alpha**n / sqrt(factorial(n))) * damping for n in range(n_max + 1)]
    norm = sqrt(fsum(abs(amp) ** 2 for amp in amps))
    return [amp / norm for amp in amps]


def coherent_state(space: FockSpace, mode: int, alpha: complex) -> dict:
    """Truncated coherent state on one mode (vacuum elsewhere), renormalized,
    as {occupation tuple: amplitude}: cutoff + 1 entries."""
    col = space.modes.index(mode)
    vac = (0,) * len(space.modes)
    return {vac[:col] + (n,) + vac[col + 1:]: amp
            for n, amp in enumerate(_coherent_amplitudes(alpha, space.n_max(mode)))}


def coherent_cutoff(alpha: complex) -> int:
    """Smallest cutoff at which the truncated coherent state of amplitude alpha
    keeps at most EDGE_POPULATION_TOL on the edge states (n >= cutoff - 1)."""
    for cutoff in count(1):
        amps = _coherent_amplitudes(alpha, cutoff)
        if fsum(abs(amp) ** 2 for amp in amps[cutoff - 1:]) <= EDGE_POPULATION_TOL:
            return cutoff


def squeezing_cutoff(r: float) -> int:
    """Smallest cutoff >= 16 at which the two-mode squeezed vacuum of parameter r
    keeps at most EDGE_POPULATION_TOL on the edge states: tanh^2(r)^(cutoff - 1)."""
    for cutoff in count(16):
        if tanh(r) ** (2 * (cutoff - 1)) <= EDGE_POPULATION_TOL:
            return cutoff


@record
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


def _coupling(theta: complex, cfg: EvolutionConfig, hbar: float) -> float:
    if not cfg.classical_pump:
        raise ValueError("parametric observables need a classical pump amplitude")
    return abs(theta) * abs(cfg.pump) / hbar


def two_mode_squeezer(g: float) -> BosonicPolynomial:
    """H / hbar = g (a0^dag a1^dag + a0 a1), a rate: evolve it at hbar = 1."""
    pair = BosonicPolynomial.monomial({0: (1, 0), 1: (1, 0)}, coeff=g)
    return pair + pair.dagger()

def beamsplitter(g: float) -> BosonicPolynomial:
    """H / hbar = g (a1^dag a0 + a0^dag a1), a rate: evolve it at hbar = 1."""
    hop = BosonicPolynomial.monomial({0: (0, 1), 1: (1, 0)}, coeff=g)
    return hop + hop.dagger()


def _scheme_series(h: BosonicPolynomial, space: FockSpace, psi0: Mapping[tuple, complex],
                   observable, cfg: EvolutionConfig, ratio: float):
    """(t, correct, wrong) samples of an observable, and whether the evolution is safe.

    h is the correct route's interaction as a rate H / hbar. The wrong
    route's is ``ratio`` times it, so its state at t is the correct route's
    at |ratio| t: one evolution at hbar = 1, sampled at both times, serves
    both routes. ``observable(res)`` lists the observable at every sample
    of the evolution ``res``, which is returned too.
    """
    times = linspace(0.0, cfg.t_final, cfg.steps + 1)
    scale = abs(ratio)
    res = evolve(h, space, psi0, times + [scale * t for t in times])
    values = observable(res)
    rows = zip(times, values[:len(times)], values[len(times):])
    return tuple(rows), res


def _check_phase(res: EvolutionResult) -> None:
    """Raise ``OverflowError`` when the largest phase w t reaches ``PHASE_LIMIT``."""
    if not res.max_phase < PHASE_LIMIT:
        raise OverflowError(f"the phase w t = {res.max_phase:g} reaches 2^53, where a float "
                            "keeps no digit of its angle mod 2 pi")


def _sinh2_fit(series, column: int) -> float:
    """r = g t_final from a least-squares fit of <n_A> = sinh^2(g t) to one column.

    The last sample of the series is at t_final. Raises ``OverflowError``
    when the sum of t^2 is not a finite float, and ``FloatingPointError``
    when it underflows to 0.
    """
    ts = [row[0] for row in series[1:]]
    ys = [asinh(sqrt(row[column])) for row in series[1:]]
    try:
        norm = fsum(t * t for t in ts)
    except OverflowError:  # fsum's own message names no sum: an intermediate one overflowed
        norm = inf
    if not norm < inf:
        raise OverflowError(f"the fit's sum of t^2 overflows a float at t = {series[-1][0]:g}")
    if not norm:
        raise FloatingPointError(f"the fit's sum of t^2 underflows to 0 at t = {series[-1][0]:g}")
    return fsum(map(mul, ts, ys)) / norm * series[-1][0]


def spdc_squeezing(theta: complex, ratio: float, cfg: EvolutionConfig,
                   hbar: float = 1.0) -> SchemePair:
    """Two-mode squeezing parameter r per scheme, from the sinh^2 law.

    theta is the correct route's coefficient of a_A^dag a_B^dag a_C and
    ``ratio`` the wrong route's over it. With a classical pump the
    interaction reduces to H = hbar g (a_A^dag a_B^dag + H.c.),
    g = |theta| |beta| / hbar; the wrong route multiplies the coupling by
    ``ratio``. For pump="quantum" the full three-mode evolution runs
    instead, with the pump in a coherent state of amplitude 2, truncated at
    ``coherent_cutoff(2)`` or n_max, whichever is larger. The series holds
    <n_A>(t) per route. Raises ``OverflowError`` when a phase w t or the
    fit's sum of t^2 overflows a float, or a phase reaches ``PHASE_LIMIT``,
    and ``FloatingPointError`` when that sum underflows to 0.
    """
    if cfg.classical_pump:
        g = _coupling(theta, cfg, hbar)
        space = FockSpace(modes=(0, 1), cutoff=cfg.n_max)
        psi0 = space.vacuum()
        h = two_mode_squeezer(g)
    else:
        beta = 2.0  # modest amplitude; keeps the pump sector truncation-safe
        pump_cutoff = max(cfg.n_max, coherent_cutoff(beta))
        space = FockSpace(modes=(0, 1, 2),
                          cutoff={0: cfg.n_max, 1: cfg.n_max, 2: pump_cutoff})
        term = BosonicPolynomial.monomial({0: (1, 0), 1: (1, 0), 2: (0, 1)},
                                          coeff=theta / hbar)
        h = term + term.dagger()
        psi0 = coherent_state(space, 2, beta)
    series, res = _scheme_series(h, space, psi0,
                                 lambda res: occupation_expectation(space, res, 0), cfg, ratio)
    pair = SchemePair(correct=_sinh2_fit(series, 1), wrong=_sinh2_fit(series, 2),
                      truncation_safe=res.truncation_safe, series=series)
    _check_phase(res)  # after the fits: an overflowing sum of t^2 is named first
    return pair


def frequency_conversion(theta: complex, ratio: float, cfg: EvolutionConfig,
                         hbar: float = 1.0) -> SchemePair:
    """P(|1,0> -> |0,1>) at t_final per scheme: sin^2(g t) Rabi exchange.

    theta, ``ratio`` and g = |theta| |beta| / hbar are those of
    :func:`spdc_squeezing`. The series holds the conversion probability at
    every sample time. Raises ``OverflowError`` when a phase w t overflows a float or reaches
    ``PHASE_LIMIT``.
    """
    g = _coupling(theta, cfg, hbar)
    space = FockSpace(modes=(0, 1), cutoff=cfg.n_max)
    series, res = _scheme_series(beamsplitter(g), space, space.basis_state([1, 0]),
                                 lambda res: population(space, res, (0, 1)), cfg, ratio)
    _check_phase(res)
    return SchemePair(correct=series[-1][1], wrong=series[-1][2],
                      truncation_safe=res.truncation_safe, series=series)


def compare_schemes(observable: str, order: int) -> ComparisonReport:
    """Quantify the wrong/correct discrepancy for one observable.

    Expected ratios: resonant coefficient -n (see
    :func:`~dquant.hamiltonian.compare_coefficients`), squeezing magnitude n,
    small-t conversion probability n^2. The dynamical observables run a
    matched interaction of coupling theta = 0.05 in natural units, and
    sample the wrong route at the ratio E/D that
    :func:`~dquant.hamiltonian.compare_coefficients` builds.
    """
    report = compare_coefficients(order)
    if observable == "coefficient":
        return report
    theta = 0.05
    if observable == "squeezing":
        # the wrong route squeezes to r = |ratio| g t_final = 0.2 order
        cfg = EvolutionConfig(n_max=squeezing_cutoff(0.2 * order),
                              t_final=0.2 / abs(theta), steps=8)
        pair = spdc_squeezing(theta, report.ratio, cfg)
        return ComparisonReport(observable=observable, order=order,
                                value_correct=pair.correct, value_wrong=pair.wrong,
                                ratio=abs(pair.ratio), expected_ratio=float(order),
                                tolerance=1e-4 * order, truncation_safe=pair.truncation_safe)
    if observable == "conversion":
        g = abs(theta)
        cfg = EvolutionConfig(n_max=4, t_final=0.01 / g, steps=4)
        pair = frequency_conversion(theta, report.ratio, cfg)
        gt = g * abs(cfg.pump) * cfg.t_final
        # sin^2(n x)/sin^2(x) deviates from n^2 by about n^2 (n^2-1) x^2 / 3
        tol = max(1e-3, 2.0 * order**2 * (order**2 - 1) / 3.0 * gt**2)
        return ComparisonReport(observable=observable, order=order,
                                value_correct=pair.correct, value_wrong=pair.wrong,
                                ratio=pair.ratio, expected_ratio=float(order**2),
                                tolerance=tol, truncation_safe=pair.truncation_safe)
    raise ValueError(f"unknown observable {observable!r}")
