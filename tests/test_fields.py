from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dquant.boson_algebra import BosonicPolynomial, annihilation, degree
from dquant.dynamics import FockSpace
from dquant.fields import FieldOperator, expand_fields, integrate_density
from dquant.maxwell import _electric_field
from dquant.modes import ModeSet, make_uniform_medium_modes, sinc
from dquant.susceptibility import SusceptibilityTensor
from dquant.units import UnitSystem
from fock_oracle import to_matrix

NAT = UnitSystem()


def eta_scalars(values):
    return [SusceptibilityTensor.scalar(n, v, role="eta") for n, v in enumerate(values, 1)]


def is_hermitian_field(f, tol=1e-12):
    """The component at -k must be the dagger of the component at +k."""
    return all(f.component(-m).isclose(p.dagger(), tol=tol) for m, p in f.components.items())


def max_degree(f):
    return max(degree(p) for p in f.components.values())


class TestSinc:
    def test_unity_at_zero(self):
        assert sinc(0.0) == 1.0

    def test_exact_zero_at_pi(self):
        assert sinc(pi) == 0.0
        assert sinc(-3 * pi) == 0.0

    def test_half_pi_against_quadrature(self):
        # sinc(dk L/2) must reproduce the top-hat overlap integral
        L, dk = 2.0, pi / 2.0
        oracle = quad(lambda z: np.cos(dk * z) / L, -L / 2, L / 2)[0]
        assert sinc(dk * L / 2) == pytest.approx(oracle, abs=1e-12)
        assert sinc(pi / 2) == pytest.approx(2 / pi, abs=1e-12)


class TestExpandFields:
    def test_single_mode_coefficient(self):
        ms = make_uniform_medium_modes(1.0, 2 * pi, [1], NAT)
        d_field, b_field = expand_fields(ms, NAT)
        mode = ms.modes[0]
        expected = sqrt(NAT.hbar * mode.omega / 2.0) * sqrt(ms.w) * abs(mode.d)
        coeff = d_field.component(1).coefficient({mode.label: (0, 1)})
        assert abs(coeff) == pytest.approx(expected, rel=1e-14)
        assert b_field.component(1).coefficient({mode.label: (0, 1)}) != 0

    def test_weight_scales_with_box(self):
        ms = make_uniform_medium_modes(1.0, 8 * pi, [4], NAT)  # k = 1 again
        d_field, _ = expand_fields(ms, NAT)
        mode = ms.modes[0]
        expected = sqrt(NAT.hbar * mode.omega / 2.0) * sqrt(ms.w) * abs(mode.d)
        coeff = d_field.component(4).coefficient({mode.label: (0, 1)})
        assert abs(coeff) == pytest.approx(expected, rel=1e-14)

    def test_hermitian_field_invariant(self):
        ms = make_uniform_medium_modes(1.5, 2 * pi, [-2, -1, 1, 2], NAT)
        d_field, b_field = expand_fields(ms, NAT)
        assert is_hermitian_field(d_field)
        assert is_hermitian_field(b_field)

    def test_degree_one_per_component(self):
        ms = make_uniform_medium_modes(1.0, 2 * pi, [-1, 1], NAT)
        d_field, _ = expand_fields(ms, NAT)
        assert max_degree(d_field) == 1

    def test_linearity_zero_field_addition(self):
        ms = make_uniform_medium_modes(1.0, 2 * pi, [1], NAT)
        d_field, _ = expand_fields(ms, NAT)
        unchanged = d_field + FieldOperator({}, d_field.w)
        for m in d_field.wavevectors():
            assert unchanged.component(m).isclose(d_field.component(m))

    def test_two_mode_expansion_is_sum_of_singles(self):
        ms = make_uniform_medium_modes(1.0, 2 * pi, [1, 2], NAT)
        d_two, _ = expand_fields(ms, NAT)
        for mode in ms.modes:
            d_one, _ = expand_fields(ModeSet(modes=(mode,), l_box=2 * pi), NAT)
            assert d_two.component(mode.m).isclose(d_one.component(mode.m))


class TestElectricFieldFromD:
    def setup_method(self):
        self.ms = make_uniform_medium_modes(1.0, 2 * pi, [-1, 1], NAT)
        self.d_field, _ = expand_fields(self.ms, NAT)
        self.ladder = [self.d_field, self.d_field * self.d_field]

    def electric_field(self, etas, retained=(-2, -1, 0, 1, 2)):
        return _electric_field(eta_scalars(etas), self.ladder, set(retained))

    def test_vacuum_identity(self):
        e = self.electric_field([1.0])
        for m in self.d_field.wavevectors():
            assert e.component(m).isclose(self.d_field.component(m))

    def test_linear_medium(self):
        e = self.electric_field([0.3, 0.0])
        assert max_degree(e) == 1
        assert e.component(1).isclose(0.3 * self.d_field.component(1))

    def test_quadratic_components_hand_convolution(self):
        eta2 = 0.25
        e = self.electric_field([1.0, eta2])
        assert sorted(e.wavevectors()) == [-2, -1, 0, 1, 2]
        d1 = self.d_field.component(1)
        hand = eta2 / sqrt(2 * pi) * (d1 * d1)
        assert e.component(2).isclose(hand, tol=1e-14)
        # matrix oracle: the k=+2 coefficient equals eta2/sqrt(2 pi) * M(D_1)^2
        space = FockSpace(modes=tuple(mode.label for mode in self.ms.modes), cutoff=4)
        lhs = to_matrix(e.component(2), space).toarray()
        md1 = to_matrix(d1, space).toarray()
        assert np.allclose(lhs, eta2 / sqrt(2 * pi) * md1 @ md1, atol=1e-13)

    def test_degree_two_for_quadratic_medium(self):
        e = self.electric_field([1.0, 0.1])
        assert max_degree(e) == 2

    def test_leakage_tracked_not_dropped(self):
        e = self.electric_field([1.0, 0.1], retained={-1, 1})
        assert sorted(e.wavevectors()) == [-1, 1]
        assert set(e.leakage) == {-2, 0, 2}
        assert any(e.leakage.values())

    def test_hermiticity_survives_nonlinearity(self):
        e = self.electric_field([1.0, 0.1])
        assert is_hermitian_field(e, tol=1e-13)


class TestIntegrateDensity:
    def test_box_integral_selects_zero_component(self):
        ms = make_uniform_medium_modes(1.0, 2 * pi, [-1, 1], NAT)
        d_field, _ = expand_fields(ms, NAT)
        sq = d_field * d_field
        h = integrate_density(sq, ms.l_box)
        expected = (ms.l_box / sqrt(2 * pi)) * sq.component(0)
        assert h.isclose(expected)


@st.composite
def field_operators(draw, max_modes=3, max_degree=2, max_m=2):
    """Fields on the w = 1 grid: a few components, each a small random polynomial."""
    components = {}
    for m in draw(st.lists(st.integers(-max_m, max_m), min_size=1, max_size=4, unique=True)):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            powers = {}
            for mode in range(max_modes):
                cre = draw(st.integers(0, max_degree))
                ann = draw(st.integers(0, max_degree - cre))
                if cre or ann:
                    powers[mode] = (cre, ann)
            key = tuple((mode, c, a) for mode, (c, a) in sorted(powers.items()))
            terms[key] = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        components[m] = BosonicPolynomial(terms)
    return FieldOperator(components, 1.0)


class TestProductK0:
    @settings(max_examples=60, deadline=None)
    @given(a=field_operators(), b=field_operators())
    def test_equals_full_product_component(self, a, b):
        assert a.product_k0(b).terms == (a * b).component(0).terms

    def test_no_zero_component(self):
        a = FieldOperator({1: annihilation(0), 2: annihilation(1)}, 1.0)
        assert 0 not in (a * a).components
        assert a.product_k0(a).is_zero

