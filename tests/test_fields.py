from cmath import exp
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dquant.boson_algebra import BosonicPolynomial, annihilation, creation, degree
from dquant.dynamics import FockSpace
from dquant.fields import FieldOperator, expand_fields, linear_field_powers
from dquant.maxwell import _electric_field
from dquant.modes import Mode, ModeSet, make_uniform_medium_modes, plane_wave_mode, sinc
from dquant.units import UnitSystem
from fock_oracle import to_matrix
from product_oracle import box_integral, field_power, field_product, multiply

NAT = UnitSystem()


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
        self.ladder = linear_field_powers(self.d_field, 2)[0]

    def electric_field(self, etas, retained=(-2, -1, 0, 1, 2)):
        return _electric_field(etas, self.ladder, set(retained))

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
        hand = eta2 / sqrt(2 * pi) * multiply(d1, d1)
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
        # each coefficient of the density, integrated over the box by quadrature
        # in the plane-wave basis (2 pi)^-1/2 exp(ikz): every k != 0 averages out
        ms = make_uniform_medium_modes(1.0, 2 * pi, [-2, -1, 1, 2], NAT)
        d_field, _ = expand_fields(ms, NAT)
        sq = field_product(d_field, d_field)
        assert len(sq.wavevectors()) > 1
        h = box_integral(sq, ms.l_box)
        keys = {key for m in sq.wavevectors() for key in sq.component(m).terms}
        for key in keys:
            waves = [(sq.k(m), sq.component(m).terms.get(key, 0.0)) for m in sq.wavevectors()]

            def density(z):
                return sum(c * exp(1j * k * z) for k, c in waves) / sqrt(2 * pi)

            integral = (quad(lambda z: density(z).real, 0.0, ms.l_box)[0]
                        + 1j * quad(lambda z: density(z).imag, 0.0, ms.l_box)[0])
            assert abs(h.terms.get(key, 0.0) - integral) <= 1e-12


@st.composite
def linear_fields(draw):
    """D of a +-m basis of 1-4 modes, on a box of length 2 pi or 6, each profile a random phase."""
    grid = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
    grid = [sign * m for m in grid for sign in (1, -1)][:draw(st.integers(1, 2 * len(grid)))]
    l_box = draw(st.sampled_from((2 * pi, 6.0)))
    modes = []
    for label, m in enumerate(grid):
        mode = plane_wave_mode(label, m, sqrt(1.5), l_box, NAT)
        phase = exp(1j * draw(st.floats(0.0, 2 * pi)))
        modes.append(Mode(label=label, m=m, k=mode.k, omega=mode.omega,
                          d=phase * mode.d, b=phase * mode.b))
    return expand_fields(ModeSet(modes=tuple(modes), l_box=l_box), NAT)[0]


class TestLinearFieldPowers:
    @settings(max_examples=60, deadline=None)
    @given(f=linear_fields(), top=st.integers(1, 4))
    def test_equals_the_oracle_powers(self, f, top):
        # Wick's theorem against the product oracle's f * f * .. * f, coefficient
        # by coefficient: every component of f .. f^top, and f^(top+1) at k = 0
        powers, k0 = linear_field_powers(f, top)
        assert len(powers) == top and len(k0) == top
        oracle = [field_power(f, p) for p in range(1, top + 2)]
        pairs = [(got.component(m), want.component(m)) for got, want in zip(powers, oracle)
                 for m in set(got.components) | set(want.components)]
        pairs += [(got, want.component(0)) for got, want in zip(k0, oracle[1:])]
        for got, want in pairs:
            scale = want.max_abs_coeff()
            assert set(got.terms) == set(want.terms)
            assert all(abs(c - want.terms[key]) <= 1e-14 * scale for key, c in got.terms.items())

    def test_no_zero_component(self):
        # a^2 and a b sit at k = 2, 3 and 4: the square has no k = 0 part to read
        f = FieldOperator({1: annihilation(0), 2: annihilation(1)}, 1.0)
        powers, k0 = linear_field_powers(f, 2)
        assert 0 not in powers[1].components
        assert k0[0].is_zero

    def test_nonlinear_field_rejected(self):
        f = FieldOperator({0: BosonicPolynomial.monomial({0: (1, 1)}), 1: creation(0)}, 1.0)
        with pytest.raises(ValueError, match="linear in ladder operators"):
            linear_field_powers(f, 2)


def test_no_product_of_two_fields():
    f = FieldOperator({1: annihilation(0)}, 1.0)
    with pytest.raises(TypeError):
        f * f
    assert (f * 2.0).component(1).isclose(2.0 * annihilation(0))
