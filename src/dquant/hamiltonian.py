"""Hamiltonians of the two quantization routes and their wave-mixing sectors.

Both routes' energy densities come from
:func:`~dquant.susceptibility.energy_density` as weights of the same powers
of D: the correct route integrates the D series, sum_n eta_n D^(n+1) / (n+1);
the incorrect route keeps only the linear constitutive relation E~ = eta1 D
inside the chi-series density with its n/(n+1) weights, so its weight of
D^(n+1) carries eta1^(n+1). For a pure order-n nonlinearity the resonant
coefficients of the two routes differ by a factor of exactly -n, and the
cubic-in-D part of the quadratic chi-series term restores the difference.

:func:`scheme_resonant_coefficients` is the one builder of resonant
coefficients, for any scheme, order and medium: a top-degree ladder of
D^(n+1), scaled by each scheme's weight from one table (:func:`_top_weights`).
:func:`assemble` builds whole three-wave Hamiltonians with weights from the
same table, and alone imports the operator algebra: the resonant sector
a_A^dag a_B^dag a_C + H.c. is the nonlinear part, and the anti-resonant
terms are kept beside it as ``dropped``, never silently lost. On a linear
medium the box builder of :mod:`~dquant.maxwell` integrates the quadratic
form, which equals :func:`build_linear`.

The builders run on scalar (dim=1) media and read their units from the
medium. A scalar tensor is trivially permutation symmetric, so the
(n+1)! collection of orderings in D^(n+1) needs no further check.

The closed-form theta and Phi of a matched triple, the triple and the
comparison record live in :mod:`~dquant.coupling`.
"""

from __future__ import annotations

from math import pi, sqrt

from .coupling import ComparisonReport, ModeTriple, prefactor_ratio
from .modes import Mode, ModeSet, field_coefficients, plane_wave_mode
from .record import record
from .susceptibility import ROUTES, MediumSpec, energy_density, invert_series
from .units import UnitSystem

#: the three-wave Hamiltonians :func:`assemble` builds
SCHEMES = ROUTES + ("E-based-corrected",)


@record
class HamiltonianSpec:
    """Assembled linear + resonant nonlinear operator, with the dropped rest.

    ``dropped`` is the anti-resonant part of the scheme's cubic term, which
    the rotating-wave ``nonlinear`` part leaves out.
    """

    linear: BosonicPolynomial
    nonlinear: BosonicPolynomial
    dropped: BosonicPolynomial
    provenance: str
    order: int

    def __post_init__(self):
        if self.provenance not in SCHEMES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        for part, name in ((self.linear, "linear"), (self.nonlinear, "nonlinear")):
            if not part.is_hermitian():
                raise ValueError(f"{name} part is not Hermitian")
        for key in self.linear.terms:
            if any(c != a for _, c, a in key):
                raise ValueError("linear part must be diagonal in the number basis")

    @property
    def dropped_terms(self) -> int:
        return len(self.dropped.terms)

    @property
    def dropped_norm(self) -> float:
        return self.dropped.norm()


def build_linear(ms: ModeSet, units: UnitSystem) -> BosonicPolynomial:
    """Diagonal free Hamiltonian sum_m hbar omega_m n_m (zero point dropped)."""
    from .boson_algebra import BosonicPolynomial, number  # only here: see the module doc

    h = BosonicPolynomial.zero()
    for mode in ms.modes:
        h = h + (units.hbar * mode.omega) * number(mode.label)
    return h


# ---------------------------------------------------------------------------
# cubic three-wave builders (the field expansion cubed on the triple's region)
# ---------------------------------------------------------------------------


def _cubic_hamiltonian(ms: ModeSet, triple: ModeTriple, units: UnitSystem):
    """Integral of D^3 over the triple's region, split by sector.

    The one body of the cubic terms :func:`assemble` builds, each scheme
    scaling it by its own weight. D is expanded on the triple's modes
    alone. Returns (resonant, anti_resonant) polynomials; the resonant
    sector is a_A^dag a_B^dag a_C and its conjugate.
    """
    from .boson_algebra import BosonicPolynomial  # only here: see the module doc
    from .fields import expand_fields, integrate_density

    d_field, _ = expand_fields(ModeSet(modes=_triple_modes_in(ms, triple), l_box=ms.l_box),
                               units)
    h = integrate_density(d_field * d_field * d_field, ms.l_box, region_length=triple.length)
    pump_term = BosonicPolynomial.monomial(_resonant_powers(triple))
    sector = set(pump_term.terms) | set(pump_term.dagger().terms)
    resonant = BosonicPolynomial({k: c for k, c in h.terms.items() if k in sector})
    anti = BosonicPolynomial({k: c for k, c in h.terms.items() if k not in sector})
    return resonant, anti


def _triple_modes_in(ms: ModeSet, triple: ModeTriple) -> list[Mode]:
    modes = []
    for mode in triple.modes():
        if mode.label not in ms.labels():
            raise ValueError(f"triple mode {mode.label} is not part of the mode set")
        modes.append(mode)
    return modes


def _resonant_powers(triple: ModeTriple) -> dict:
    """Mode powers of a_A^dag a_B^dag a_C."""
    return {triple.mode_a.label: (1, 0), triple.mode_b.label: (1, 0),
            triple.mode_c.label: (0, 1)}


# ---------------------------------------------------------------------------
# resonant coefficients: one weight table, one D^(n+1) build
# ---------------------------------------------------------------------------


def _top_weights(medium: MediumSpec, n: int) -> dict[str, float]:
    """Each scheme's weight of D^(n+1): the one weight table.

    The two routes' top weights from
    :func:`~dquant.susceptibility.energy_density`. At n = 2 also
    ``"E-based-corrected"``: the E route's weight plus eps0 (1 + chi1)
    eta1 eta2, the cubic-in-D cross terms of eps0 (1 + chi1) E_full^2 / 2
    with E_full = eta1 D + eta2 D^2, which restore the D route's weight.
    Raises ``ValueError`` for a medium that is not scalar (dim=1).
    """
    if medium.dim != 1:
        raise ValueError("wave-mixing Hamiltonians are built on scalar (dim=1) media")
    etas = invert_series(medium, n)
    weights = {route: energy_density(medium, etas, route)[-1] for route in ROUTES}
    if n == 2:
        weights["E-based-corrected"] = weights["E-linear-wrong"] + (
            medium.units.eps0 * (1.0 + medium.chi(1).item()) * etas[0].item() * etas[1].item())
    return weights


def scheme_resonant_coefficients(ms: ModeSet, medium: MediumSpec, monomial: dict,
                                 length: float) -> dict[str, complex]:
    """Each scheme's coefficient of a phase-matched monomial, ``{scheme: coefficient}``.

    ``monomial`` maps mode labels of ``ms`` to (cre, ann) powers. Its degree
    n + 1 picks out the one power D^(n+1), whose integral over a region of
    ``length`` is scaled by each scheme's weight from :func:`_top_weights`.
    The monomial is of top degree, read with no operator product
    (:func:`_top_degree_coefficient`), and at k = 0, where the region
    integral is length / sqrt(2 pi). Contractions of D^(n+3) and higher
    powers reach the same degree but depend on the basis size, so they stay
    out. Raises ``ValueError`` for a monomial on modes outside ``ms``, with
    a negative or non-integer power, of degree below 2 or with a net
    wavevector other than 0, and for a medium that is not scalar (dim=1).
    """
    grid = {mode.label: mode.m for mode in ms.modes}
    if not set(monomial) <= set(grid):
        raise ValueError(f"monomial modes {sorted(set(monomial) - set(grid))} are not in ms")
    powers = [p for pair in monomial.values() for p in pair]
    if not all(isinstance(p, int) and p >= 0 for p in powers) or sum(powers) < 2:
        raise ValueError(f"monomial {monomial} needs non-negative integer powers and degree >= 2")
    net = sum((a - c) * grid[label] for label, (c, a) in monomial.items())
    if net != 0:
        raise ValueError(f"monomial is not phase-matched: net wavevector index {net}, not 0")
    weights = _top_weights(medium, sum(powers) - 1)
    base = length / sqrt(2 * pi) * _top_degree_coefficient(ms, medium.units, monomial)
    return {scheme: weight * base for scheme, weight in weights.items()}


def _top_degree_coefficient(ms: ModeSet, units: UnitSystem, monomial: dict) -> complex:
    """Coefficient of ``monomial``, of degree n + 1, in D^(n+1), by a ladder of its divisors.

    Contractions only lower the degree, so the top-degree factors commute:
    each step multiplies every {divisor: coefficient} by one more D coefficient
    (conjugated for a^dag) and by (2 pi)^-1/2, summing over the orderings.
    """
    factors = []  # (power, D coefficient) of each ladder operator of the monomial
    for mode in ms.modes:
        if mode.label in monomial:
            cd = field_coefficients(mode, ms.w, units)[0]
            cre, ann = monomial[mode.label]
            factors += [(p, c) for p, c in ((ann, cd), (cre, cd.conjugate())) if p]
    norm = 1.0 / sqrt(2 * pi)
    level = {tuple(int(j == i) for j in range(len(factors))): c
             for i, (_, c) in enumerate(factors)}
    for _ in range(sum(p for p, _ in factors) - 1):
        nxt: dict[tuple, complex] = {}
        for key, coef in level.items():
            for i, (power, c) in enumerate(factors):
                if key[i] < power:
                    grown = key[:i] + (key[i] + 1,) + key[i + 1:]
                    nxt[grown] = nxt.get(grown, 0.0) + norm * (coef * c)
        level = nxt
    return level[tuple(p for p, _ in factors)]


# ---------------------------------------------------------------------------
# order-n comparison of the two routes
# ---------------------------------------------------------------------------


def _pure_order_modeset(order: int, chi1: float, units: UnitSystem) -> tuple[ModeSet, dict]:
    """n signal modes at m = 1..n plus the matched pump at m = n(n+1)/2."""
    n_index = sqrt(1.0 + chi1)
    l_box = 2 * pi
    modes = [plane_wave_mode(i - 1, f"W{i}", i, n_index, l_box, units)
             for i in range(1, order + 1)]
    modes.append(plane_wave_mode(order, "P", order * (order + 1) // 2, n_index, l_box, units))
    ms = ModeSet(modes=tuple(modes), l_box=l_box)
    monomial = {i: (1, 0) for i in range(order)}
    monomial[order] = (0, 1)
    return ms, monomial


def compare_coefficients(order: int) -> ComparisonReport:
    """Resonant coefficients of both routes for a pure order-n medium; expected ratio -n.

    A pure order-n scalar medium (chi1 = 0.5, chi_n = 0.37, all intermediate
    nonlinear orders zero, natural units) drives an (n+1)-wave process with
    n signal modes and one pump; the coefficients of
    a_1^dag .. a_n^dag a_pump come from :func:`scheme_resonant_coefficients`
    over the whole box.
    """
    if order < 2:
        raise ValueError("the routes differ only for nonlinear orders n >= 2")
    chi1 = 0.5
    medium = MediumSpec.from_scalars([chi1] + [0.0] * (order - 2) + [0.37])
    ms, monomial = _pure_order_modeset(order, chi1, medium.units)
    coefficients = scheme_resonant_coefficients(ms, medium, monomial, ms.l_box)
    c_correct, c_wrong = (coefficients[route] for route in ROUTES)
    return ComparisonReport(observable="coefficient", order=order,
                            value_correct=c_correct.real, value_wrong=c_wrong.real,
                            ratio=(c_wrong / c_correct).real,
                            expected_ratio=float(prefactor_ratio(order)), tolerance=1e-12,
                            truncation_safe=True)


# ---------------------------------------------------------------------------
# three-wave assembly
# ---------------------------------------------------------------------------


def assemble(ms: ModeSet, medium: MediumSpec, triple: ModeTriple,
             scheme: str) -> HamiltonianSpec:
    """Linear plus three-wave nonlinear Hamiltonian of one scheme, in the medium's units.

    The cubic terms of the schemes:

    - ``"D-based"``: (1/3) integral eta2 D^3. The six orderings of
      a_A^dag, a_B^dag and a_C in D^3 collect into a factor 3!/3 = 2 on the
      mode-overlap integral.
    - ``"E-linear-wrong"``: (2/3) eps0 integral chi2 E~^3 with E~ = eta1 D
      kept (wrongly) linear. Its resonant part is -(2/3) integral eta2 D^3:
      wrong sign and twice the magnitude of the D-based one.
    - ``"E-based-corrected"``: the wrong term plus the cubic-in-D part of
      eps0 (1 + chi1) E_full^2 / 2 with E_full = eta1 D + eta2 D^2. Its
      cross terms give exactly +1 * integral eta2 D^3, which restores the
      D-based Hamiltonian.

    Each scheme scales one full build of the integral of D^3, anti-resonant
    terms included, by its weight from :func:`_top_weights`. Raises
    ``ValueError`` for an unknown scheme and for a medium that is not
    scalar (dim=1).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    weight = _top_weights(medium, 2)[scheme]
    units = medium.units
    resonant, dropped = (weight * part for part in _cubic_hamiltonian(ms, triple, units))
    if dropped.terms:
        import logging  # only here: no command should pay for its import

        logging.getLogger(__name__).debug("%s: filtered %d anti-resonant terms (norm %.3e)",
                                          scheme, len(dropped.terms), dropped.norm())
    return HamiltonianSpec(linear=build_linear(ms, units), nonlinear=resonant, dropped=dropped,
                           provenance=scheme, order=medium.highest_order)
