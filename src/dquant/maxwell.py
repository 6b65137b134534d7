"""Operator-level Maxwell consistency checks for the two quantization routes.

Everything here is per-Fourier-component algebra on the discrete basis: the
Heisenberg derivative of each induction (displacement) component is compared
with the curl side of Faraday's (Ampere's) law as polynomials in ladder
operators, so Fock truncation never enters. Products of retained modes that
land outside the basis are reported as leakage, never silently dropped.
Both routes' Hamiltonians are summed from one ladder of D powers, built by
Wick's theorem (:func:`~dquant.fields.linear_field_powers`), and each
serves both laws. The field components are linear, so their commutators
with H are sums of H's formal derivatives, tabulated in one pass over H
(:func:`_derivative_table`). Each report also carries the polynomial
degree of both sides, measured on the built Hamiltonians: on a medium of
top order N the linear-E route's d B/dt has degree N, while the curl of its
linear E stays at degree 1.

The checks read their units from the medium and hold each residual to
``RESIDUAL_TOL``.

In the 1D scalar reduction the transverse orientations carry the curl signs,
which each law passes to :func:`spectral_curl`: the displacement and
electric fields are x-polarized, the induction field is y-polarized, so
(curl F)_y = +ik F_x per component while (curl B)_x = -ik B_y.
"""

from __future__ import annotations

from math import pi, sqrt

from .boson_algebra import PRUNE_TOL, BosonicPolynomial, NotHermitianError, degree
from .fields import FieldOperator, expand_fields, linear_field_powers
from .modes import ModeSet
from .record import record
from .susceptibility import MediumSpec, energy_density, invert_series
from .units import UnitSystem

RESIDUAL_TOL = 1e-10


class InconsistentModeSetError(ValueError):
    """Mode set was not solved from the medium's linear response."""


def spectral_curl(f: FieldOperator, sign: float) -> FieldOperator:
    """Curl in the 1D reduction: sign * ik per component.

    The law supplies the sign of the field's polarization: +1 for the
    x-polarized D and E, -1 for the y-polarized induction.
    """
    return FieldOperator({m: (sign * 1j * f.k(m)) * p for m, p in f.components.items()},
                         f.w, leakage=dict(f.leakage))


@record
class FaradayReport:
    """Per-wavevector residuals of one EOM check for one scheme."""

    scheme: str
    law: str
    tolerance: float
    residuals: dict
    leakage: dict
    degree_lhs: int
    degree_rhs: int

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    @property
    def leakage_norm(self) -> float:
        return sqrt(sum(v**2 for v in self.leakage.values()))

    @property
    def degrees_match(self) -> bool:
        return self.degree_lhs == self.degree_rhs

    @property
    def passed(self) -> bool:
        return self.degrees_match and self.max_residual < self.tolerance

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "law": self.law,
            "tolerance": self.tolerance,
            "residuals": {str(m): v for m, v in sorted(self.residuals.items())},
            "max_residual": self.max_residual,
            "leakage": {str(m): v for m, v in sorted(self.leakage.items())},
            "leakage_norm": self.leakage_norm,
            "degree_lhs": self.degree_lhs,
            "degree_rhs": self.degree_rhs,
            "degrees_match": self.degrees_match,
            "passed": self.passed,
        }


def _check_consistency(ms: ModeSet, medium: MediumSpec):
    n_medium = sqrt(1.0 + medium.chi(1))
    present = {m.m for m in ms.modes}
    for mode in ms.modes:
        expected = medium.units.c * abs(mode.k) / n_medium
        if abs(mode.omega - expected) > 1e-9 * expected:
            raise InconsistentModeSetError(
                f"mode {mode.label} frequency {mode.omega} does not solve the "
                f"medium dispersion omega = c|k|/{n_medium}"
            )
        if -mode.m not in present:
            raise InconsistentModeSetError(
                "verification needs a +/-k symmetric mode basis"
            )


def verify_routes(ms: ModeSet, medium: MediumSpec) -> dict[str, tuple[FaradayReport, ...]]:
    """Faraday's and Ampere's law for both routes, from one ladder of D powers.

    Returns ``{route: (faraday, ampere)}``, per retained Fourier component:

    - Faraday, d B/dt = -curl E. The D route passes exactly on retained
      components (out-of-basis products appear as leakage); the linear-E
      route fails for any nonlinear medium with a polynomial-degree mismatch
      N vs 1.
    - Ampere, d D/dt = curl(B)/mu0.

    Both routes put the same powers of D into H and differ only in their
    weights, so the consistency check, the inverse coefficients, the fields
    and the ladder of D powers (:func:`_route_hamiltonians`) are built once.
    Each route's Hamiltonian is checked for Hermiticity once (raising
    :class:`NotHermitianError`) and differentiated once
    (:func:`_derivative_table`), and both laws take their Heisenberg
    derivatives from that table. The D route's E = sum_n eta_n D^n is read
    from the same ladder; the linear-E route's is eta1 D. Raises ``ValueError`` when a
    retained component of D or B prunes to zero, as SI-scale coefficients
    and extreme refractive indices make them, and when a nonlinear order
    of H prunes away (:func:`_route_hamiltonians`).
    """
    units = medium.units
    _check_consistency(ms, medium)
    etas = invert_series(medium, medium.highest_order)
    d_field, b_field = expand_fields(ms, units)
    retained = set(d_field.wavevectors())
    pruned = [name for name, field in (("D", d_field), ("B", b_field))
              if any(field.component(m).is_zero for m in retained)]
    if pruned:
        cause = ("run verify in natural units" if units != UnitSystem() else
                 f"their scale is set by the refractive index "
                 f"{sqrt(1.0 + medium.chi(1)):g} and the box length {ms.l_box:g}")
        raise ValueError(f"{' and '.join(pruned)} field components fall below PRUNE_TOL = "
                         f"{PRUNE_TOL:g} and prune to zero; {cause}")
    hamiltonians, powers = _route_hamiltonians(d_field, b_field, medium, etas, ms.l_box)
    electric = {"D-based": _electric_field(etas, powers, retained),
                "E-linear-wrong": etas[0] * d_field}
    b_curl = spectral_curl(b_field, -1.0)
    reports = {}
    for route, h in hamiltonians.items():
        if not h.is_hermitian():
            raise NotHermitianError("Hamiltonian not Hermitian")
        table = _derivative_table(h)
        laws = (("faraday", b_field, spectral_curl(electric[route], 1.0), -1.0),
                ("ampere", d_field, b_curl, 1.0 / units.mu0))
        reports[route] = tuple(
            _law_report(route, law, table, lhs_field, rhs_source, rhs_scale, units)
            for law, lhs_field, rhs_source, rhs_scale in laws)
    return reports


def _route_hamiltonians(d_field: FieldOperator, b_field: FieldOperator, medium: MediumSpec,
                        etas, l_box: float):
    """Each route's box Hamiltonian, summed from one ladder of D powers.

    Returns ``({route: H}, [D, D^2, .., D^n_top])`` with n_top = len(etas),
    the powers by Wick's theorem (:func:`~dquant.fields.linear_field_powers`).
    The box integral is l_box / sqrt(2 pi) times the k = 0 component of the
    density, so only that component of each power is read, and D^(n_top + 1)
    and B^2 are built at k = 0 alone. H = integral(B^2/(2 mu0) + sum_n w_n D^(n+1)),
    added in that order, with the route's weights w_n from
    :func:`~dquant.susceptibility.energy_density`. Raises ``ValueError``
    naming the order n when D^(n+1) is nonzero but every nonzero weight w_n
    prunes w_n D^(n+1) to zero: that order would drop out of every route's
    H unreported. (One route may lose an order alone, where its weight
    cancels to rounding, as the D route's eta3 does at chi3 = 2 chi2^2 / (1 + chi1).)
    """
    powers, k0 = linear_field_powers(d_field, len(etas))
    b_density = (1.0 / (2 * medium.units.mu0)) * linear_field_powers(b_field, 1)[1][0]
    weights = energy_density(medium, etas)
    terms = {route: [weight * p for weight, p in zip(ws, k0)] for route, ws in weights.items()}
    for i, p in enumerate(k0):
        kept = [terms[route][i] for route, ws in weights.items() if ws[i]]
        if kept and not p.is_zero and all(term.is_zero for term in kept):
            raise ValueError(f"every route's order-{i + 1} term, its weight times D^{i + 2}, "
                             f"prunes to zero: each coefficient is at or below PRUNE_TOL = "
                             f"{PRUNE_TOL:g}")
    hamiltonians = {}
    for route, route_terms in terms.items():
        density = b_density
        for term in route_terms:
            density = density + term
        h = (l_box / sqrt(2 * pi)) * density
        hamiltonians[route] = h - BosonicPolynomial.identity(h.coefficient({}))
    return hamiltonians, powers


def _electric_field(etas, powers: list[FieldOperator], retained: set[int]) -> FieldOperator:
    """The D route's E = dH/dD = sum_n eta_n D^n from the ladder powers.

    Components outside ``retained`` move into the field's leakage record
    rather than being silently dropped.
    """
    terms = [eta * p for eta, p in zip(etas, powers) if eta != 0.0]
    return sum(terms[1:], terms[0]).restrict(retained)


def _derivative_table(h: BosonicPolynomial) -> dict:
    """H's formal derivatives by every ladder operator, in one pass over H.

    ``{(mode, is_cre): [(monomial, coefficient, power)]}`` in H's term order:
    [a, H] and [a^dag, H] as sums of power * coefficient * monomial, by
    [a, (a^dag)^c a^n] = c (a^dag)^(c-1) a^n and [a^dag, (a^dag)^c a^n] = -n (a^dag)^c a^(n-1).
    """
    table: dict = {}
    for key, coef in h.terms.items():
        for i, (m, c, n) in enumerate(key):
            for is_cre, power, entry in ((0, c, (m, c - 1, n)), (1, -n, (m, c, n - 1))):
                if power:
                    reduced = key[:i] + ((entry,) if entry[1] or entry[2] else ()) + key[i + 1:]
                    table.setdefault((m, is_cre), []).append((reduced, coef, power))
    return table


def _linear_bracket(p: BosonicPolynomial, table: dict) -> BosonicPolynomial:
    """[p, H] for a linear p, summed from H's table: p's terms outside, its entries inside.

    The entries stay unsummed: a polynomial per operator would regroup the
    sums and move the residuals' last digits.
    """
    acc: dict = {}
    for ((mode, is_cre, _),), c1 in p.terms.items():
        for key, c2, power in table.get((mode, is_cre), ()):
            acc[key] = acc.get(key, 0.0) + c1 * c2 * power
    return BosonicPolynomial(acc)


def _law_report(route, law, table, lhs_field, rhs_source, rhs_scale, units):
    """(-i/hbar)[lhs_m, H] from H's table against rhs_scale * rhs_source_m, per lhs component."""
    residuals = {}
    degree_lhs = degree_rhs = -1
    for m in lhs_field.wavevectors():
        lhs = (-1j / units.hbar) * _linear_bracket(lhs_field.component(m), table)
        rhs = rhs_scale * rhs_source.component(m)
        residuals[m] = (lhs - rhs).norm()
        degree_lhs = max(degree_lhs, degree(lhs))
        degree_rhs = max(degree_rhs, degree(rhs))
    return FaradayReport(scheme=route, law=law, tolerance=RESIDUAL_TOL, residuals=residuals,
                         leakage=dict(rhs_source.leakage), degree_lhs=degree_lhs,
                         degree_rhs=degree_rhs)
