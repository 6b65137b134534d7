import re
from itertools import product
from math import cos, factorial, inf, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from leg_oracle import cubic_sectors
from product_oracle import box_integral, field_power, field_product, multiply

from dquant.boson_algebra import BosonicPolynomial, annihilation, creation, number
import dquant.hamiltonian as hamiltonian
from dquant.fields import expand_fields
from dquant.hamiltonian import prefactor_ratio, pure_order_modeset, scheme_resonant_coefficients
from dquant.maxwell import _route_hamiltonians
from dquant.modes import (Mode, ModeSet, make_uniform_medium_modes, phase_matching_curve,
                          plane_wave_mode, sinc)
from dquant.susceptibility import ROUTES, MediumSpec, invert_series
from dquant.units import UnitSystem, units_from_name

NAT = UnitSystem()

#: the schemes scheme_resonant_coefficients returns at n = 2, in order
SCHEMES = ROUTES + ("E-based-corrected",)


#: labels of a triple's modes A, B, C, and its resonant monomial a_A^dag a_B^dag a_C
LABELS = (0, 1, 2)
RESONANT = {0: (1, 0), 1: (1, 0), 2: (0, 1)}


def three_wave_setup(chi1=0.0, chi2=0.4, l_box=2 * pi, length=None, m_a=1, m_b=2, units=NAT):
    """(mode set, length, medium, etas) of the matched triple m_a, m_b, m_a + m_b.

    The modes A, B, C carry the labels 0, 1, 2; the region length defaults
    to the box.
    """
    ms = make_uniform_medium_modes(sqrt(1.0 + chi1), l_box, [m_a, m_b, m_a + m_b], units)
    medium = MediumSpec([chi1, chi2], units=units)
    return ms, l_box if length is None else length, medium, invert_series(medium, 2)


def triple_coefficients(ms, length, medium):
    """Each scheme's coefficient of a_A^dag a_B^dag a_C over a region of ``length``."""
    return scheme_resonant_coefficients(ms, medium, RESONANT, length)


def closed_form_theta(ms, length, eta2, units):
    """theta = 2 L sqrt(prod hbar omega / 4 pi) eta2 dA* dB* dC of a matched triple.

    The closed-form three-wave coupling, an oracle of the builder: its D
    coefficient of a_A^dag a_B^dag a_C is w^(3/2) theta, w = 2 pi / l_box.
    """
    ma, mb, mc = ms.modes
    return 2.0 * length * sqrt(units.hbar * ma.omega / (4 * pi) * units.hbar * mb.omega / (4 * pi)
                               * units.hbar * mc.omega / (4 * pi)) * (
        eta2 * ma.d.conjugate() * mb.d.conjugate() * mc.d)


def pure_order(order, chi1=0.5, chi_n=0.37):
    """compare_coefficients' setup: a pure chi_n medium, its mode set and monomial."""
    medium = MediumSpec([chi1] + [0.0] * (order - 2) + [chi_n], units=NAT)
    return (medium, *pure_order_modeset(order, sqrt(1.0 + chi1), NAT))


def pure_order_coefficients(order):
    """(D route, E route) coefficients of compare_coefficients' monomial."""
    medium, ms, monomial = pure_order(order)
    coefficients = scheme_resonant_coefficients(ms, medium, monomial, ms.l_box)
    return coefficients["D-based"], coefficients["E-linear-wrong"]


def box_linear(ms, eta1):
    """The box builder's Hamiltonian of a linear medium: integral B^2/(2 mu0) + eta1 D^2/2."""
    d_field, b_field = expand_fields(ms, NAT)
    medium = MediumSpec([1.0 / (NAT.eps0 * eta1) - 1.0])
    hamiltonians, _ = _route_hamiltonians(d_field, b_field, medium, [eta1], ms.l_box)
    return hamiltonians["D-based"]


def eta1_for(n_index):
    """eta1 = 1 / (eps0 n^2) of a linear medium of refractive index n."""
    return 1.0 / (NAT.eps0 * n_index**2)


class TestBuildLinear:
    """The box builder's linear Hamiltonian is diagonal: sum_m hbar omega_m n_m."""

    def test_single_oscillator(self):
        ms = make_uniform_medium_modes(1.0, 2 * pi, [1], NAT)
        label = ms.modes[0].label
        assert box_linear(ms, eta1_for(1.0)).isclose(1.0 * number(label))

    def test_two_modes(self):
        ms = make_uniform_medium_modes(1.0, 2 * pi, [1, 2], NAT)
        la, lb = (mode.label for mode in ms.modes)
        assert box_linear(ms, eta1_for(1.0)).isclose(number(la) + 2.0 * number(lb))

    def test_matches_energy_density_quadratic_form(self):
        n_index = 1.5
        ms = make_uniform_medium_modes(n_index, 2 * pi, [-2, -1, 1, 2], NAT)
        via_density = box_linear(ms, eta1_for(n_index))
        diagonal = BosonicPolynomial.zero()
        for mode in ms.modes:
            diagonal = diagonal + (NAT.hbar * mode.omega) * number(mode.label)
        diff = via_density - diagonal
        assert diff.max_abs_coeff() < 1e-10

    def test_quadratic_form_keeps_no_pair_terms(self):
        # the aa / ad ad cross terms cancel between the B^2 and D^2 parts
        n_index = 2.0
        ms = make_uniform_medium_modes(n_index, 2 * pi, [-1, 1], NAT)
        eta1 = eta1_for(n_index)
        h = box_linear(ms, eta1)
        for key in h.terms:
            assert all(c == a for _, c, a in key)

    def test_k0_density_equals_full_density_build(self):
        ms = make_uniform_medium_modes(sqrt(1.7), 2 * pi, [-2, -1, 1, 2], NAT)
        eta1 = 1.0 / (NAT.eps0 * 1.7)
        d_field, b_field = expand_fields(ms, NAT)
        density = (1.0 / (2 * NAT.mu0)) * field_product(b_field, b_field) + (
            eta1 / 2.0) * field_product(d_field, d_field)
        h = box_integral(density, ms.l_box)
        reference = h - BosonicPolynomial.identity(h.coefficient({}))
        assert box_linear(ms, eta1).terms == reference.terms


class TestBuildNonlinearD:
    def test_zero_tensor(self):
        ms, length, medium, _ = three_wave_setup(chi2=0.0)
        assert list(triple_coefficients(ms, length, medium).values()) == [0, 0, 0]

    def test_flat_profile_coefficient_formula(self):
        ms, length, medium, etas = three_wave_setup(chi1=0.0, chi2=0.4)
        eta2 = etas[1]
        got = triple_coefficients(ms, length, medium)["D-based"]
        ma, mb, mc = ms.modes
        amps = sqrt(NAT.hbar * ma.omega / 2 * NAT.hbar * mb.omega / 2
                    * NAT.hbar * mc.omega / 2)
        overlap = (np.conj(ma.d) * np.conj(mb.d)
                   * mc.d)
        weights = ms.w**1.5 * length / (2 * pi) ** 1.5  # phi = 1, matched
        expected = 2.0 * eta2 * amps * overlap * weights
        assert got == pytest.approx(expected, rel=1e-13)

    def test_combinatorial_factor_by_term_counting(self):
        # the 3! orderings of distinct legs all produce the same monomial
        x = creation(0) + creation(1) + annihilation(2)
        cube = multiply(multiply(x, x), x)
        assert cube.coefficient({0: (1, 0), 1: (1, 0), 2: (0, 1)}) == pytest.approx(6.0)

    def test_hermitian(self):
        # the conjugate monomial a_A a_B a_C^dag carries the conjugate
        # coefficient, on profiles with distinct phases
        ms, length, medium, _ = three_wave_setup()
        phases = [complex(cos(x), sin(x)) for x in (0.3, 1.1, -2.0)]
        ms = ModeSet(modes=tuple(
            Mode(label=m.label, m=m.m, k=m.k, omega=m.omega,
                 d=p * m.d, b=p * m.b) for m, p in zip(ms.modes, phases)), l_box=ms.l_box)
        conjugate = {label: (a, c) for label, (c, a) in RESONANT.items()}
        built = scheme_resonant_coefficients(ms, medium, RESONANT, length)
        mirrored = scheme_resonant_coefficients(ms, medium, conjugate, length)
        for scheme, coefficient in built.items():
            assert abs(coefficient.imag) > 1e-3 * abs(coefficient)
            assert abs(mirrored[scheme] - coefficient.conjugate()) <= 1e-15 * abs(coefficient)

    def test_resonant_filter_audit(self):
        # the rotating-wave approximation: the anti-resonant a_A a_B a_C is not
        # phase-matched, and the builder reads no such monomial
        ms, length, medium, _ = three_wave_setup()
        anti = {label: (0, 1) for label in RESONANT}
        with pytest.raises(ValueError, match="not phase-matched: net wavevector index 6"):
            scheme_resonant_coefficients(ms, medium, anti, length)


class TestWrongScheme:
    def test_ratio_minus_two_vacuum_linear(self):
        ms, length, medium, _ = three_wave_setup(chi1=0.0, chi2=0.8)
        built = triple_coefficients(ms, length, medium)
        ratio = built["E-linear-wrong"] / built["D-based"]
        assert ratio == pytest.approx(-2.0, abs=1e-12)

    def test_ratio_minus_two_dressed_linear(self):
        ms, length, medium, _ = three_wave_setup(chi1=1.25, chi2=0.5)
        built = triple_coefficients(ms, length, medium)
        ratio = built["E-linear-wrong"] / built["D-based"]
        assert ratio == pytest.approx(-2.0, abs=1e-12)

    def test_zero_chi2(self):
        ms, length, medium, _ = three_wave_setup(chi2=0.0)
        assert triple_coefficients(ms, length, medium)["E-linear-wrong"] == 0


class TestCorrection:
    """The quadratic-E correction: E-based-corrected minus E-linear-wrong."""

    def test_wrong_plus_correction_is_correct(self):
        ms, length, medium, _ = three_wave_setup(chi1=0.6, chi2=0.3)
        built = triple_coefficients(ms, length, medium)
        assert abs(built["E-based-corrected"] - built["D-based"]) < 1e-12

    def test_correction_is_plus_three_times_correct(self):
        ms, length, medium, _ = three_wave_setup(chi1=0.6, chi2=0.3)
        built = triple_coefficients(ms, length, medium)
        ratio = (built["E-based-corrected"] - built["E-linear-wrong"]) / built["D-based"]
        assert ratio == pytest.approx(3.0, abs=1e-12)

    def test_zero_eta2_zero_correction(self):
        ms, length, medium, _ = three_wave_setup(chi2=0.0)
        built = triple_coefficients(ms, length, medium)
        assert built["E-based-corrected"] - built["E-linear-wrong"] == 0


#: (m_a, m_b, chi1, chi2, l_box, length): box-filling and shorter regions
ORACLE_CASES = [
    (1, 2, 0.0, 0.4, 2 * pi, None),
    (1, 3, 1.25, 0.5, 2 * pi, 1.7),
    (2, 3, 0.6, -0.3, 6.0, 2.3),
]


def _oracle(builder, ms, length, medium, etas):
    """(resonant, anti_resonant) of one cubic term by the ordered-leg expansion."""
    eta1, eta2 = etas[0], etas[1]
    if builder == "D":
        return cubic_sectors(ms, LABELS, length, NAT, eta2, 1.0 / 3.0)
    if builder == "E-wrong":
        return cubic_sectors(ms, LABELS, length, NAT, NAT.eps0 * medium.chi(2), 2.0 / 3.0,
                             leg_scale=eta1)
    # eps0 (1 + chi1) eta1 = 1 makes the correction + integral eta2 D^3
    return cubic_sectors(ms, LABELS, length, NAT, eta2, 1.0)


class TestLegOracle:
    """Whole cubic polynomials, anti-resonant terms included, against the leg expansion."""

    @staticmethod
    def setup(case):
        m_a, m_b, chi1, chi2, l_box, length = case
        return three_wave_setup(chi1=chi1, chi2=chi2, l_box=l_box, length=length,
                                m_a=m_a, m_b=m_b)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("builder", ["D", "E-wrong", "correction"])
    def test_full_polynomial(self, case, builder):
        # the box build verify uses, the integral of D^3 over the box scaled by
        # the scheme's weight, against the leg expansion over a box-filling region
        ms, length, medium, etas = self.setup(case[:-1] + (None,))
        weights = hamiltonian._top_weights(medium, 2)
        weight = {"D": weights["D-based"], "E-wrong": weights["E-linear-wrong"],
                  "correction": weights["E-based-corrected"] - weights["E-linear-wrong"]}[builder]
        d_field, _ = expand_fields(ms, NAT)
        got = weight * box_integral(field_power(d_field, 3), ms.l_box)
        resonant, anti = _oracle(builder, ms, length, medium, etas)
        expected = resonant + anti
        # over the box an anti-resonant term survives only if phase-matched:
        # a_A^2 a_B^dag and its conjugate, where m_B = 2 m_A
        assert bool(anti.terms) == (case[1] == 2 * case[0])
        assert set(got.terms) == set(expected.terms)
        scale = expected.max_abs_coeff()
        assert max(abs(got.terms[k] - c) for k, c in expected.terms.items()) <= 1e-14 * scale

    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_dropped_terms(self, case, scheme):
        # the rotating-wave approximation drops each scheme's anti-resonant
        # terms, which are the D route's scaled by the builder's ratio of the
        # resonant coefficients: the routes' ratio does not depend on them
        ms, length, medium, etas = self.setup(case)
        built = triple_coefficients(ms, length, medium)
        anti_d = _oracle("D", ms, length, medium, etas)[1]
        anti = _oracle("E-wrong", ms, length, medium, etas)[1]
        if scheme == "D-based":
            anti = anti_d
        elif scheme == "E-based-corrected":
            anti = anti + _oracle("correction", ms, length, medium, etas)[1]
        ratio = built[scheme] / built["D-based"]
        assert len(anti.terms) > 0 and set(anti.terms) == set(anti_d.terms)
        scale = anti.max_abs_coeff()
        assert max(abs(c - ratio * anti_d.terms[k]) for k, c in anti.terms.items()) <= (
            1e-14 * scale)


class TestPrefactorRatio:
    @pytest.mark.parametrize("n,expected", [(2, -2), (3, -3), (4, -4), (5, -5)])
    def test_closed_form(self, n, expected):
        assert prefactor_ratio(n) == expected

    def test_rejects_linear_order(self):
        with pytest.raises(ValueError):
            prefactor_ratio(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_symbolic_construction_oracle(self, n):
        c_correct, c_wrong = pure_order_coefficients(n)
        measured = c_wrong / c_correct
        assert measured.imag == pytest.approx(0.0, abs=1e-12)
        assert measured.real == pytest.approx(float(prefactor_ratio(n)), abs=1e-12)


def _full_build_coefficients(order):
    """Reference: every component and term of D^(n+1), then the one coefficient."""
    medium, ms, monomial = pure_order(order)
    etas = invert_series(medium, order)
    eta1, eta_n = etas[0], etas[order - 1]
    chi_n = medium.chi(order)
    d_field, _ = expand_fields(ms, NAT)
    base = box_integral(field_power(d_field, order + 1), ms.l_box)
    correct = (eta_n / (order + 1)) * base
    # the E route's weight of D^(n+1): eps0 n/(n+1) chi_n eta1^(n+1)
    wrong = (NAT.eps0 * order / (order + 1) * chi_n * eta1 ** (order + 1)) * base
    return correct.coefficient(monomial), wrong.coefficient(monomial)


#: grid indices a mode of a matched monomial may sit at
GRID = (-3, -2, -1, 1, 2, 3)
#: degree -> the (a^dag, a) powers, 0-2 each, of one to three modes that a grid
#: can phase-match: no mode or at least two modes with unequal powers, since
#: a lone unequal mode's wavevector has nothing to cancel it
MATCHABLE_POWERS = {
    degree: [powers for n_modes in (1, 2, 3)
             for powers in product(product(range(3), repeat=2), repeat=n_modes)
             if sum(c + a for c, a in powers) == degree
             and sum(c != a for c, a in powers) != 1]
    for degree in (2, 3, 4)
}


@st.composite
def matched_monomials(draw):
    """(mode set, monomial): degree 2-4 on one to three modes, net wavevector 0.

    A mode's powers may repeat (a^dag^2) or mix (a^dag a). The degree is
    drawn first, then powers of that degree. The last mode with unequal
    powers takes the grid index that cancels the others', the one before it
    an index that leaves a nonzero multiple of the last one's net power to
    cancel, and a spectator mode outside the monomial rides along. Each
    profile carries a random phase, so a coefficient that misses its
    conjugate shows.
    """
    powers = draw(st.sampled_from(MATCHABLE_POWERS[draw(st.integers(2, 4))]))
    grid = [draw(st.sampled_from(GRID)) for _ in range(len(powers) + 1)]
    nets = [a - c for c, a in powers]
    unbalanced = [i for i, net in enumerate(nets) if net]
    if unbalanced:
        *free, i, j = unbalanced
        rest = sum(nets[f] * grid[f] for f in free)
        grid[i] = draw(st.sampled_from([m for m in GRID if rest + nets[i] * m != 0
                                        and (rest + nets[i] * m) % nets[j] == 0]))
        grid[j] = -(rest + nets[i] * grid[i]) // nets[j]
    l_box = draw(st.sampled_from((2 * pi, 6.0)))
    modes = []
    for label, m in enumerate(grid):
        mode = plane_wave_mode(label, m, sqrt(1.5), l_box, NAT)
        x = draw(st.floats(0.0, 2 * pi))
        phase = complex(cos(x), sin(x))
        modes.append(Mode(label=label, m=m, k=mode.k, omega=mode.omega,
                          d=phase * mode.d, b=phase * mode.b))
    return ModeSet(modes=tuple(modes), l_box=l_box), dict(enumerate(powers))


class TestSchemeResonantCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(case=matched_monomials())
    def test_equals_the_unfiltered_product(self, case):
        # the closed-form top-degree coefficient against the k = 0
        # coefficient of D * ... * D, every contraction built
        ms, monomial = case
        degree = sum(c + a for c, a in monomial.values())
        medium = MediumSpec([0.5, 0.3, 0.2], units=NAT)
        d_field, _ = expand_fields(ms, NAT)
        d_power = field_power(d_field, degree)
        weight = hamiltonian._top_weights(medium, degree - 1)["D-based"]
        expected = weight * box_integral(d_power, ms.l_box).coefficient(monomial)
        built = scheme_resonant_coefficients(ms, medium, monomial, ms.l_box)["D-based"]
        assert expected != 0
        assert abs(built - expected) <= 1e-14 * abs(expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_classical_pump_reduction_ratio(self, n):
        # a_s1^dag a_s2^dag a_P^(n-1), the order-n down-conversion whose n - 1
        # pump photons a classical pump replaces: E over D is -n
        medium = MediumSpec([0.5] + [0.0] * (n - 2) + [0.37], units=NAT)
        ms = make_uniform_medium_modes(sqrt(1.5), 2 * pi, [1, 3 * n - 4, 3], NAT)
        monomial = {0: (1, 0), 1: (1, 0), 2: (0, n - 1)}
        built = scheme_resonant_coefficients(ms, medium, monomial, ms.l_box)
        assert abs(built["E-linear-wrong"] / built["D-based"] + n) <= 1e-12

    def test_kerr_coefficient(self):
        # self-phase modulation a^dag^2 a^2 of one mode in a pure chi3 medium
        medium = MediumSpec([0.5, 0.0, 0.2], units=NAT)
        ms = make_uniform_medium_modes(sqrt(1.5), 2 * pi, [1], NAT)
        built = scheme_resonant_coefficients(ms, medium, {0: (2, 2)}, ms.l_box)
        k_d = -0.0035367765131532
        assert abs(built["D-based"] - k_d) <= 1e-12 * abs(k_d)
        assert abs(built["E-linear-wrong"] / built["D-based"] + 3) <= 1e-12

    def test_si_coefficient_is_the_closed_form_theta(self):
        # each D coefficient is ~1e-19 in SI, below PRUNE_TOL, but the builder
        # multiplies the coefficients themselves and prunes nothing
        units = units_from_name("si")
        ms, length, medium, etas = three_wave_setup(chi1=0.5, chi2=0.3, length=1.7, units=units)
        theta = closed_form_theta(ms, length, etas[1], units)
        built = triple_coefficients(ms, length, medium)["D-based"]
        assert abs(built - theta) <= 1e-12 * abs(theta)

    @pytest.mark.parametrize("powers", [{0: (-1, 0)}, {0: (1.5, 0), 2: (0, 1)}, {}, {0: (0, 0)},
                                        {2: (0, 1)}],
                             ids=["negative", "fractional", "empty", "zero-powers", "linear"])
    def test_rejects_a_malformed_monomial(self, powers):
        medium, ms, _ = pure_order(2)
        message = f"monomial {powers} needs non-negative integer powers and degree >= 2"
        with pytest.raises(ValueError, match=re.escape(message)):
            scheme_resonant_coefficients(ms, medium, powers, ms.l_box)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_full_build(self, n):
        # the full build sums the (n+1)! orderings, the builder counts them:
        # equal up to the rounding of n + 2 factors
        for built, expected in zip(pure_order_coefficients(n), _full_build_coefficients(n)):
            assert within_ulps(built, expected, n + 2)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_equals_the_assembled_coefficient(self, case):
        # the closed-form top-degree coefficient against the resonant sector of the cubic
        # polynomial the leg oracle assembles, over regions that fill the box
        # or fall short of it
        ms, length, medium, etas = TestLegOracle.setup(case)
        powers = RESONANT
        built = scheme_resonant_coefficients(ms, medium, powers, length)
        assert list(built) == list(SCHEMES)
        legs = {"D-based": ["D"], "E-linear-wrong": ["E-wrong"],
                "E-based-corrected": ["E-wrong", "correction"]}
        for scheme in SCHEMES:
            expected = sum(_oracle(leg, ms, length, medium, etas)[0].coefficient(powers)
                           for leg in legs[scheme])
            assert abs(built[scheme] - expected) <= 1e-14 * abs(expected)

    @pytest.mark.parametrize("chis, expected", [
        ((0.5, 0.0, 0.2), -3.0), ((0.5, 0.3, 0.2), -7.5), ((0.5, 0.3, 0.2, 0.1), 10.0)])
    def test_mixed_media_ratios(self, chis, expected):
        # top D^(n+1) weights, E over D: -n only where the lower orders vanish
        order = len(chis)
        _, ms, monomial = pure_order(order)
        medium = MediumSpec(list(chis), units=NAT)
        built = scheme_resonant_coefficients(ms, medium, monomial, ms.l_box)
        ratio = built["E-linear-wrong"] / built["D-based"]
        assert abs(ratio - expected) <= 1e-12
        assert list(built) == list(ROUTES)

    def test_rejects_a_monomial_that_is_not_phase_matched(self):
        medium, ms, monomial = pure_order(3)
        # a_1^dag a_2^dag a_3^dag a_pump^dag: net wavevector index -(1 + 2 + 3 + 6)
        powers = {label: (1, 0) for label in monomial}
        with pytest.raises(ValueError, match="not phase-matched: net wavevector index -12"):
            scheme_resonant_coefficients(ms, medium, powers, ms.l_box)

    def test_rejects_a_monomial_outside_the_mode_set(self):
        medium, ms, monomial = pure_order(2)
        with pytest.raises(ValueError, match=r"modes \[7\] are not in ms"):
            scheme_resonant_coefficients(ms, medium, {**monomial, 7: (1, 1)}, ms.l_box)


def within_ulps(built, expected, factors):
    """Whether built is within a few ulp per factor of expected."""
    return abs(built - expected) <= 4 * factors * 2.0**-52 * abs(expected)


def multinomial_coefficient(ms, monomial):
    """(n+1)! / prod(p!) prod(c^p) (2 pi)^(-n/2) of a degree n + 1 monomial, test-side.

    Each c is a ladder operator's D coefficient sqrt(hbar omega w / 2) d
    (conjugated for a^dag), from the mode's own fields.
    """
    coefficient, degree, divisor = 1.0, 0, 1
    for mode in ms.modes:
        cre, ann = monomial.get(mode.label, (0, 0))
        c = sqrt(NAT.hbar * mode.omega * ms.w / 2.0) * mode.d
        coefficient *= c.conjugate() ** cre * c**ann
        degree += cre + ann
        divisor *= factorial(cre) * factorial(ann)
    return factorial(degree) // divisor * coefficient / (2 * pi) ** ((degree - 1) / 2)


class TestClosedFormCoefficient:
    @pytest.mark.parametrize("order", [*range(2, 18), 30, 100])
    def test_pure_order_multinomial(self, order):
        # within a few ulp per factor of the test-side formula, and E over D is -n
        medium, ms, monomial = pure_order(order)
        expected = multinomial_coefficient(ms, monomial)
        assert within_ulps(hamiltonian._top_degree_coefficient(ms, NAT, monomial), expected,
                           order + 2)
        d_route, e_route = pure_order_coefficients(order)
        assert abs(e_route / d_route + order) <= 1e-12

    def test_first_coefficient_past_a_float_is_refused(self):
        # compare_coefficients' coefficient grows past the largest float from order 145 on
        d_route, e_route = pure_order_coefficients(144)
        assert abs(e_route / d_route + 144) <= 1e-12
        medium, ms, monomial = pure_order(145)
        with pytest.raises(ValueError, match=re.escape(
                "the coefficient of a degree-146 monomial in D^146 is no finite float: (inf+0j)")):
            scheme_resonant_coefficients(ms, medium, monomial, ms.l_box)

    def test_orderings_past_a_float_read_inf(self):
        # 1030! / (515! 515!) > 1.8e308 orderings: no OverflowError, an inf to refuse
        ms = make_uniform_medium_modes(1.0, 2 * pi, [1], NAT)
        assert hamiltonian._top_degree_coefficient(ms, NAT, {0: (515, 515)}) == inf
        medium, _, _ = pure_order(2)
        with pytest.raises(ValueError,
                           match=re.escape("degree-1030 monomial in D^1030 is no finite")):
            scheme_resonant_coefficients(ms, medium, {0: (515, 515)}, ms.l_box)

    def test_order_whose_orderings_overflow_is_refused_before_any_build(self, monkeypatch):
        # (n + 1)! checked in O(1): neither a medium of n entries nor n + 1 modes is built
        def unreachable(*args, **kwargs):
            raise AssertionError("built a medium or a mode set for a refused order")

        monkeypatch.setattr(hamiltonian, "MediumSpec", unreachable)
        monkeypatch.setattr(hamiltonian, "pure_order_modeset", unreachable)
        for order in (170, 100000, 10**4000):
            with pytest.raises(ValueError, match=re.escape(
                    "the (n + 1)! orderings of the resonant coefficient overflow a float")):
                hamiltonian.compare_coefficients(order)
        with pytest.raises(AssertionError):  # 170! fits a float: order 169 goes on to build
            hamiltonian.compare_coefficients(169)


class TestBuildInteraction:
    """The builder's three-wave coupling theta against its closed form (test-side)."""

    def test_phi_values(self):
        # the CLI's triple m = 1, 2, 3 on the 2 pi box is phase- and energy-matched
        ms, monomial = pure_order_modeset(2, 1.0, NAT)
        ma, mb, mc = ms.modes
        delta_k = mc.k - mb.k - ma.k
        assert monomial == RESONANT
        assert delta_k == 0.0
        assert sinc(delta_k * ms.l_box / 2.0) == 1.0
        assert ma.omega + mb.omega - mc.omega == pytest.approx(0.0, abs=1e-15)

    def test_theta_formula(self):
        ms, length, medium, etas = three_wave_setup(length=1.7)
        got = triple_coefficients(ms, length, medium)["D-based"]
        ma, mb, mc = ms.modes
        expected = (2.0 * 1.7
                    * sqrt(ma.omega / (4 * pi) * mb.omega / (4 * pi) * mc.omega / (4 * pi))
                    * etas[1]
                    * np.conj(ma.d) * np.conj(mb.d)
                    * mc.d)
        assert got == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("factor", [2.0, 10.0])
    def test_theta_linear_in_length(self, factor):
        ms, _, medium, _ = three_wave_setup()
        p1 = triple_coefficients(ms, 0.9, medium)["D-based"]
        p2 = triple_coefficients(ms, 0.9 * factor, medium)["D-based"]
        assert abs(p2 / p1 - factor) < 1e-12

    @pytest.mark.parametrize("factor", [2.0, 10.0])
    def test_theta_linear_in_eta2(self, factor):
        # eta2 = -eps0 chi2 eta1^3 is linear in chi2 at fixed chi1
        ms, length, medium, etas = three_wave_setup()
        _, _, scaled, scaled_etas = three_wave_setup(chi2=factor * 0.4)
        assert scaled_etas[1] == pytest.approx(factor * etas[1], rel=1e-15)
        p1 = triple_coefficients(ms, length, medium)["D-based"]
        p2 = triple_coefficients(ms, length, scaled)["D-based"]
        assert abs(p2 / p1 - factor) < 1e-12

    @pytest.mark.parametrize("l_box", [2 * pi, pi, 6.0])
    def test_consistent_with_cubic_builder(self, l_box):
        # resonant coefficient of (1/3) integral eta2 D^3 equals w^(3/2) theta
        ms, length, medium, etas = three_wave_setup(chi2=0.4, l_box=l_box)
        theta = closed_form_theta(ms, length, etas[1], NAT)
        got = triple_coefficients(ms, length, medium)["D-based"]
        assert got == pytest.approx(ms.w**1.5 * theta, rel=1e-12)

    @pytest.mark.parametrize("l_box", [2 * pi, pi, 6.0])
    def test_consistent_with_cubic_builder_in_si(self, l_box):
        # theta ~ 1e-35 J in SI: the builder prunes nothing, so the relation holds there too
        units = units_from_name("si")
        ms, length, medium, etas = three_wave_setup(chi1=0.5, chi2=0.3, l_box=l_box,
                                                    length=1.7, units=units)
        theta = closed_form_theta(ms, length, etas[1], units)
        got = triple_coefficients(ms, length, medium)["D-based"]
        assert 0 < abs(theta) < 1e-30
        assert got == pytest.approx(ms.w**1.5 * theta, rel=1e-12)

    @pytest.mark.parametrize("length", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_a_length_that_is_not_positive_and_finite(self, length):
        ms, _, medium, _ = three_wave_setup()
        with pytest.raises(ValueError, match="interaction length must be positive and finite"):
            triple_coefficients(ms, length, medium)


class TestPhaseMatchingCurve:
    def test_symmetric_with_exact_zeros(self):
        length = 2.0
        half = np.linspace(0.0, 4 * pi, 129)
        grid = np.concatenate([-half[:0:-1], half])
        curve = phase_matching_curve(length, grid)
        n = len(curve)
        for i in range(n):
            assert curve[i][1] == pytest.approx(curve[n - 1 - i][1], abs=1e-15)
        values = dict(curve)
        assert values[pi] == 0.0  # dk L / 2 = pi
        assert values[2 * pi] == 0.0
        assert values[0.0] == 1.0

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            phase_matching_curve(0.0, [0.0])

