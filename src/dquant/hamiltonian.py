"""Resonant coefficients of the two quantization routes, for any wave-mixing order.

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
It reads one phase-matched monomial, so the anti-resonant terms of D^(n+1)
are never built: the rotating-wave approximation drops them for every
scheme alike, with the same weight that scales the resonant term, so the
routes' ratio does not depend on them. The whole Hamiltonians, linear part
and anti-resonant terms included, are built on a box by
:mod:`~dquant.maxwell`.

The builder reads its units from the medium. Each chi_n is one number,
which every ordering of the n + 1 fields in D^(n+1) shares, so the (n+1)!
orderings collect into one coefficient with no symmetry check.

The builder is the one owner of the three-wave coupling: ``spdc`` and
``convert`` evolve its D-route coefficient as theta and sample the wrong
route at the built ratio E/D, and the dynamical comparisons take that
ratio from :func:`compare_coefficients`. They all read one matched process
per order, :func:`pure_order_modeset`, and report as a
:class:`ComparisonReport` against the expected ratio :func:`prefactor_ratio`.
"""

from __future__ import annotations

from math import inf, pi, prod, sqrt

from .modes import ModeSet, field_coefficients, make_uniform_medium_modes
from .record import record
from .susceptibility import ROUTES, MediumSpec, energy_density, invert_series
from .units import UnitSystem

#: the most entries a monomial's ladder may hold: prod(p + 1), 2^(n+1) at order n
MAX_LADDER_ENTRIES = 2**17


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
    """
    etas = invert_series(medium, n)
    weights = {route: w[-1] for route, w in energy_density(medium, etas).items()}
    if n == 2:
        weights["E-based-corrected"] = weights["E-linear-wrong"] + (
            medium.units.eps0 * (1.0 + medium.chi(1)) * etas[0] * etas[1])
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
    a negative or non-integer power, of degree below 2, whose ladder would
    exceed :data:`MAX_LADDER_ENTRIES` or with a net wavevector other than 0,
    and for a length that is not positive and finite.
    """
    if not 0 < length < inf:
        raise ValueError("interaction length must be positive and finite")
    grid = {mode.label: mode.m for mode in ms.modes}
    if not set(monomial) <= set(grid):
        raise ValueError(f"monomial modes {sorted(set(monomial) - set(grid))} are not in ms")
    powers = [p for pair in monomial.values() for p in pair]
    if not all(isinstance(p, int) and p >= 0 for p in powers) or sum(powers) < 2:
        raise ValueError(f"monomial {monomial} needs non-negative integer powers and degree >= 2")
    entries = prod(p + 1 for p in powers)
    if entries > MAX_LADDER_ENTRIES:
        raise ValueError(f"a monomial of degree {sum(powers)} needs a divisor ladder of "
                         f"{entries} entries, more than {MAX_LADDER_ENTRIES}")
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


def prefactor_ratio(order: int) -> int:
    """(wrong / correct) resonant-coefficient ratio for a pure order-n medium."""
    if order < 2:
        raise ValueError("the routes differ only for nonlinear orders n >= 2")
    return -order


@record
class ComparisonReport:
    """Correct-vs-wrong value of one observable with its expected ratio.

    ``truncation_safe`` is the evolution's verdict for a dynamical
    observable (see :mod:`~dquant.dynamics`); a coefficient involves no
    truncation. A truncation-unsafe comparison never passes.
    """

    observable: str
    order: int
    value_correct: float
    value_wrong: float
    ratio: float
    expected_ratio: float
    tolerance: float
    truncation_safe: bool

    @property
    def passed(self) -> bool:
        return self.truncation_safe and abs(self.ratio - self.expected_ratio) <= self.tolerance

    def to_dict(self) -> dict:
        return {**vars(self), "passed": self.passed}


def pure_order_modeset(order: int, n_index: float, units: UnitSystem) -> tuple[ModeSet, dict]:
    """The matched modes of an order-n process and the monomial that couples them.

    n signal modes, labelled 0..n-1 at m = 1..n, and their pump, labelled n
    at m = n(n+1)/2, on the 2 pi box of a medium of index ``n_index``
    (:func:`~dquant.modes.make_uniform_medium_modes`, which refuses an index
    below 1), with the monomial a_0^dag .. a_(n-1)^dag a_n. At n = 2 this is
    the three-wave triple m = 1, 2, 3, k_C = k_A + k_B, and the linear
    dispersion omega = c k / n makes energy matching automatic.
    """
    ms = make_uniform_medium_modes(n_index, 2 * pi,
                                   [*range(1, order + 1), order * (order + 1) // 2], units)
    monomial = {i: (1, 0) for i in range(order)}
    monomial[order] = (0, 1)
    return ms, monomial


def compare_coefficients(order: int) -> ComparisonReport:
    """Resonant coefficients of both routes for a pure order-n medium; expected ratio -n.

    A pure order-n scalar medium (chi1 = 0.5, chi_n = 0.37, all intermediate
    nonlinear orders zero, natural units) drives an (n+1)-wave process with
    n signal modes and one pump; the coefficients of
    a_1^dag .. a_n^dag a_pump come from :func:`scheme_resonant_coefficients`
    over the whole box. Their ratio is the route ratio at which the
    dynamical comparisons sample the wrong route.
    """
    expected = float(prefactor_ratio(order))
    chi1 = 0.5
    medium = MediumSpec([chi1] + [0.0] * (order - 2) + [0.37])
    ms, monomial = pure_order_modeset(order, sqrt(1.0 + chi1), medium.units)
    coefficients = scheme_resonant_coefficients(ms, medium, monomial, ms.l_box)
    c_correct, c_wrong = (coefficients[route] for route in ROUTES)
    return ComparisonReport(observable="coefficient", order=order,
                            value_correct=c_correct.real, value_wrong=c_wrong.real,
                            ratio=(c_wrong / c_correct).real,
                            expected_ratio=expected, tolerance=1e-12,
                            truncation_safe=True)

