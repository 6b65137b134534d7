"""Hamiltonians of the two quantization routes and their wave-mixing sectors.

Both routes' energy densities come from
:func:`~dquant.susceptibility.energy_density` as weights of the same powers
of D: the correct route integrates the D series, sum_n eta_n D^(n+1) / (n+1);
the incorrect route keeps only the linear constitutive relation E~ = eta1 D
inside the chi-series density with its n/(n+1) weights, so its weight of
D^(n+1) carries eta1^(n+1). For a pure order-n nonlinearity the resonant
coefficients of the two routes differ by a factor of exactly -n, and the
cubic-in-D part of the quadratic chi-series term restores the difference.

:func:`assemble` is the one builder of three-wave Hamiltonians. It keeps
the resonant (rotating-wave) sector a_A^dag a_B^dag a_C + H.c. as the
nonlinear part; the anti-resonant terms are constructed and kept beside it
as ``dropped``, never silently lost. On a linear medium the box builder of
:mod:`~dquant.maxwell` integrates the quadratic form, which equals
:func:`build_linear`.

The builders run on scalar (dim=1) media and read their units from the
medium. A scalar tensor is trivially permutation symmetric, so the 3!
collection of orderings in D^3 needs no further check.

The closed-form theta and Phi of a matched triple, the triple and the
comparison record live in :mod:`~dquant.coupling`.
"""

from __future__ import annotations

from math import pi, sqrt

from .boson_algebra import BosonicPolynomial, number
from .coupling import ComparisonReport, ModeTriple, prefactor_ratio
from .fields import FieldOperator, expand_fields, integrate_density
from .modes import Mode, ModeSet, plane_wave_mode
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


def resonant_coefficient(poly: BosonicPolynomial, triple: ModeTriple) -> complex:
    """Coefficient of a_A^dag a_B^dag a_C in a three-wave Hamiltonian."""
    return poly.coefficient(_resonant_powers(triple))


def _resonant_powers(triple: ModeTriple) -> dict:
    """Mode powers of a_A^dag a_B^dag a_C."""
    return {triple.mode_a.label: (1, 0), triple.mode_b.label: (1, 0),
            triple.mode_c.label: (0, 1)}


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


def scheme_resonant_coefficients(order: int) -> tuple[complex, complex]:
    """Resonant (correct, wrong) coefficients of a pure order-n medium.

    A pure order-n scalar medium (chi1 = 0.5, chi_n = 0.37, all intermediate
    nonlinear orders zero, natural units) drives an (n+1)-wave process with
    n signal modes and one pump; the coefficients of a_1^dag .. a_n^dag a_pump
    in the two energy densities are extracted from the operator power
    D^(n+1), built only from the monomials that divide the resonant one
    (exact for its coefficient, the top degree) and only at k = 0.
    """
    if order < 2:
        raise ValueError("the routes differ only for nonlinear orders n >= 2")
    chi1 = 0.5
    medium = MediumSpec.from_scalars([chi1] + [0.0] * (order - 2) + [0.37])
    units = medium.units
    etas = invert_series(medium, order)

    ms, monomial = _pure_order_modeset(order, chi1, units)
    d_field, _ = expand_fields(ms, units)
    d_power = d_field
    for _ in range(order - 1):
        d_power = d_power.product(d_field, support=monomial)
    top = d_power.product_k0(d_field, support=monomial)
    base = integrate_density(FieldOperator({0: top}, ms.w), ms.l_box)

    c_correct = (energy_density(medium, etas, "D-based")[-1] * base).coefficient(monomial)
    c_wrong = (energy_density(medium, etas, "E-linear-wrong")[-1] * base).coefficient(monomial)
    if c_correct == 0:
        raise RuntimeError("resonant coefficient vanished; mode construction broken")
    return c_correct, c_wrong


def compare_coefficients(order: int) -> ComparisonReport:
    """Resonant coefficients of both routes for a pure order-n medium; expected ratio -n."""
    c_correct, c_wrong = scheme_resonant_coefficients(order)
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

    Each scheme scales one build of the integral of D^3 by one weight: the
    route's D^3 weight from :func:`~dquant.susceptibility.energy_density`,
    plus eps0 (1 + chi1) eta1 eta2 for ``"E-based-corrected"``. Raises
    ``ValueError`` for an unknown scheme and for a medium that is not
    scalar (dim=1).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if medium.dim != 1:
        raise ValueError("three-wave Hamiltonians are built on scalar (dim=1) media")
    units = medium.units
    linear = build_linear(ms, units)
    etas = invert_series(medium, 2)
    weight = energy_density(medium, etas,
                            "D-based" if scheme == "D-based" else "E-linear-wrong")[1]
    if scheme == "E-based-corrected":
        # eps0 (1 + chi1) E_full^2 / 2 with E_full = eta1 D + eta2 D^2: its cubic-in-D cross terms
        weight += (medium.units.eps0 * (1.0 + medium.chi(1).item())
                   * etas[0].item() * etas[1].item())
    resonant, dropped = (weight * part for part in _cubic_hamiltonian(ms, triple, units))
    if dropped.terms:
        import logging  # only here: no command should pay for its import

        logging.getLogger(__name__).debug("%s: filtered %d anti-resonant terms (norm %.3e)",
                                          scheme, len(dropped.terms), dropped.norm())
    return HamiltonianSpec(linear=linear, nonlinear=resonant, dropped=dropped,
                           provenance=scheme, order=medium.highest_order)
