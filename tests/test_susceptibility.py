import json
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from dquant.coupling import prefactor_ratio
from dquant.susceptibility import (
    MediumSpec,
    NonInvertibleLinearResponseError,
    SusceptibilityTensor,
    energy_density,
    gamma_from_eta,
    invert_linear,
    invert_series,
    load_medium,
    medium_from_dict,
)
from dquant.units import UnitSystem
import tensor_oracle
from tensor_oracle import (
    displacement_from_field,
    eta2_from_chi2,
    eta_from_gamma,
    field_from_displacement,
)

NAT = UnitSystem()


def scalar(order, value, role="chi"):
    return SusceptibilityTensor.scalar(order, value, role=role)


def fitted_inverse_coeffs(medium, max_order):
    """Independent oracle: sample D(E), then fit E(D) by polynomial regression.

    Fits in the scaled variable u = D / max|D| for conditioning; the guard
    degrees absorb the analytic tail beyond max_order.
    """
    e = np.linspace(-0.08, 0.08, 641)
    d = displacement_from_field(medium, e[:, None])[:, 0]
    s = np.max(np.abs(d))
    coeffs = np.polynomial.polynomial.polyfit(d / s, e, deg=max_order + 6)
    return [coeffs[n] / s**n for n in range(1, max_order + 1)]


class TestInvertLinear:
    def test_vacuum_identity(self):
        eta1 = invert_linear(scalar(1, 0.0), NAT)
        assert eta1.item() == pytest.approx(1.0, abs=1e-15)

    def test_scalar_inverse(self):
        eta1 = invert_linear(scalar(1, 3.0), NAT)
        assert eta1.item() == pytest.approx(0.25, abs=1e-15)
        # round trip eps0 * eta1 * (1 + chi1) = 1
        assert NAT.eps0 * eta1.item() * 4.0 == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_3d(self):
        chi1 = SusceptibilityTensor(order=1, role="chi", dim=3, entries=np.diag([1.0, 1.0, 3.0]))
        eta1 = invert_linear(chi1, NAT)
        assert np.allclose(eta1.entries, np.diag([0.5, 0.5, 0.25]).ravel(), atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(NonInvertibleLinearResponseError):
            invert_linear(scalar(1, -1.0), NAT)


class TestEta2:
    def test_vacuum_sign_flip(self):
        eta1 = invert_linear(scalar(1, 0.0), NAT)
        eta2 = eta2_from_chi2(scalar(2, 0.1), eta1, NAT)
        assert eta2.item() == pytest.approx(-0.1, abs=1e-15)

    def test_dressed_contraction(self):
        eta1 = invert_linear(scalar(1, 1.0), NAT)
        eta2 = eta2_from_chi2(scalar(2, 0.8), eta1, NAT)
        assert eta2.item() == pytest.approx(-0.1, abs=1e-14)

    def test_zero_chi2(self):
        eta1 = invert_linear(scalar(1, 2.0), NAT)
        eta2 = eta2_from_chi2(scalar(2, 0.0), eta1, NAT)
        assert eta2.is_zero()

    def test_dim_mismatch(self):
        eta1 = invert_linear(scalar(1, 0.0), NAT)
        chi2_3d = SusceptibilityTensor.zero(2, dim=3)
        with pytest.raises(ValueError):
            eta2_from_chi2(chi2_3d, eta1, NAT)


class TestInvertSeries:
    def test_matches_closed_forms(self):
        medium = MediumSpec.from_scalars([3.0, 0.5])
        etas = invert_series(medium, 2)
        eta1 = invert_linear(medium.chi(1), NAT)
        eta2 = eta2_from_chi2(medium.chi(2), eta1, NAT)
        assert etas[0].item() == pytest.approx(eta1.item(), abs=1e-12)
        assert etas[1].item() == pytest.approx(eta2.item(), abs=1e-12)

    def test_pure_chi2(self):
        etas = invert_series(MediumSpec.from_scalars([0.0, 0.1, 0.0]), 2)
        assert etas[0].item() == pytest.approx(1.0, abs=1e-15)
        assert etas[1].item() == pytest.approx(-0.1, abs=1e-15)

    def test_regression_oracle_chi1_chi2(self):
        medium = MediumSpec.from_scalars([3.0, 0.5, 0.0])
        etas = invert_series(medium, 2)
        assert etas[1].item() == pytest.approx(-0.5 * 0.25**3, abs=1e-15)
        fitted = fitted_inverse_coeffs(medium, 2)
        assert fitted[0] == pytest.approx(etas[0].item(), abs=1e-8)
        assert fitted[1] == pytest.approx(etas[1].item(), abs=1e-8)

    def test_pure_chi3(self):
        medium = MediumSpec.from_scalars([0.0, 0.0, 0.2])
        etas = invert_series(medium, 3)
        values = [t.item() for t in etas]
        assert values == pytest.approx([1.0, 0.0, -0.2], abs=1e-12)
        fitted = fitted_inverse_coeffs(medium, 3)
        assert fitted == pytest.approx(values, abs=1e-8)

    def test_cascading_third_order(self):
        # chi2 feeds eta3 through the composition even when chi3 = 0
        medium = MediumSpec.from_scalars([0.0, 0.3, 0.0])
        etas = invert_series(medium, 3)
        fitted = fitted_inverse_coeffs(medium, 3)
        assert fitted[2] == pytest.approx(etas[2].item(), abs=1e-8)
        assert etas[2].item() != pytest.approx(0.0, abs=1e-6)

    def test_3d_diagonal_matches_scalar(self):
        chi1 = SusceptibilityTensor(order=1, role="chi", dim=3, entries=np.diag([3.0] * 3))
        ent2 = np.zeros((3, 3, 3))
        for i in range(3):
            ent2[i, i, i] = 0.5
        chi2 = SusceptibilityTensor(order=2, role="chi", dim=3, entries=ent2)
        etas = invert_series(MediumSpec(units=NAT, tensors=(chi1, chi2)), 2)
        assert etas[0].entries[0] == pytest.approx(0.25, abs=1e-14)  # [0, 0]
        assert etas[1].entries[0] == pytest.approx(-0.5 * 0.25**3, abs=1e-14)  # [0, 0, 0]

    def test_propagates_singular_error(self):
        with pytest.raises(NonInvertibleLinearResponseError):
            invert_series(MediumSpec.from_scalars([-1.0, 0.1]), 2)


@settings(max_examples=60, deadline=None)
@given(
    chi1=st.floats(-5.0, 5.0).filter(lambda c: abs(1.0 + c) >= 0.5),
    chi2=st.floats(-1.0, 1.0),
    chi3=st.floats(-1.0, 1.0),
)
def test_series_round_trip(chi1, chi2, chi3):
    """Composing D(E(D)) reproduces the identity through the retained order."""
    medium = MediumSpec.from_scalars([chi1, chi2, chi3])
    etas = invert_series(medium, 3)
    e_of_d = Polynomial([0.0] + [t.item() for t in etas])
    d_of_e = Polynomial([0.0, 1.0 + chi1, chi2, chi3]) * NAT.eps0
    comp = d_of_e(e_of_d)
    assert comp.coef[1] == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.abs(comp.coef[2:4]) < 1e-8)
    # same statement on a small sample grid
    d_grid = np.linspace(-1e-3, 1e-3, 7)[:, None]
    e_vals = field_from_displacement(etas, d_grid)
    back = displacement_from_field(medium, e_vals)
    assert np.max(np.abs(back - d_grid)) < 1e-8


def _bits(values) -> list[str]:
    """Exact float identity, the sign of zero included (it reaches the JSON)."""
    return [float(x).hex() for x in values]


@settings(max_examples=300, deadline=None)
@given(
    chi1=st.floats(-5.0, 5.0).filter(lambda c: abs(1.0 + c) >= 0.1),
    chis=st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), max_size=5),
    max_order=st.integers(1, 8),
)
def test_dim1_inversion_is_the_einsum_reference_bit_for_bit(chi1, chis, max_order):
    medium = MediumSpec.from_scalars([chi1] + chis)
    got = invert_series(medium, max_order)
    ref = tensor_oracle.invert_series(medium, max_order)
    assert [_bits(t.entries) for t in got] == [_bits(a.ravel()) for a in ref]


def _dim3_medium(draw, orders: int, symmetric: bool) -> MediumSpec:
    def entries(order, lo, hi):
        arr = np.reshape(draw(st.lists(st.floats(lo, hi), min_size=3 ** (order + 1),
                                       max_size=3 ** (order + 1))), (3,) * (order + 1))
        if symmetric:
            perms = list(permutations(range(order + 1)))
            arr = sum(np.transpose(arr, p) for p in perms) / len(perms)
        return arr

    # diagonally dominant 1 + chi1: invertible, with condition number below 10
    chi1 = entries(1, -0.3, 0.3) + np.diag(draw(st.lists(st.floats(0.5, 2.0), min_size=3,
                                                         max_size=3)))
    tensors = [SusceptibilityTensor(order=1, role="chi", dim=3, entries=chi1)]
    tensors += [SusceptibilityTensor(order=n, role="chi", dim=3, entries=entries(n, -1.0, 1.0))
                for n in range(2, orders + 1)]
    return MediumSpec(units=UnitSystem(eps0=draw(st.floats(0.5, 2.0))), tensors=tuple(tensors))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), orders=st.integers(1, 3), max_order=st.integers(1, 4),
       symmetric=st.booleans())
def test_dim3_inversion_matches_the_einsum_reference(data, orders, max_order, symmetric):
    # general media too: a symmetric one hides a transposed index
    medium = _dim3_medium(data.draw, orders, symmetric)
    got = invert_series(medium, max_order)
    ref = tensor_oracle.invert_series(medium, max_order)
    for t, arr in zip(got, ref):
        assert np.max(np.abs(np.array(t.entries) - arr.ravel())) <= 1e-14 * np.max(np.abs(arr))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_3x3_inverse_matches_numpy(data):
    medium = _dim3_medium(data.draw, 1, symmetric=False)
    chi1 = tensor_oracle.array(medium.chi(1))
    eta1 = invert_linear(medium.chi(1), medium.units)
    want = np.linalg.inv(np.eye(3) + chi1) / medium.units.eps0
    assert np.max(np.abs(np.array(eta1.entries) - want.ravel())) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("one_plus_chi1", [[[1, 2, 3], [2, 4, 6], [0, 0, 1]],
                                           [[2, 0, 1], [0, 0, 0], [1, 0, 3]]],
                         ids=["proportional-rows", "zero-row"])
def test_singular_3x3_raises(one_plus_chi1):
    chi1 = np.array(one_plus_chi1, dtype=float) - np.eye(3)
    with pytest.raises(NonInvertibleLinearResponseError):
        invert_linear(SusceptibilityTensor(order=1, role="chi", dim=3, entries=chi1), NAT)


class TestGamma:
    def test_vacuum(self):
        g = gamma_from_eta(scalar(1, 1.0, role="eta"), NAT)
        assert g.item() == pytest.approx(0.0, abs=1e-15)

    def test_sign_flip_order2(self):
        g = gamma_from_eta(scalar(2, -0.1, role="eta"), NAT)
        assert g.item() == pytest.approx(0.1, abs=1e-15)

    def test_eps0_weighting(self):
        units = UnitSystem(eps0=2.0)
        g = gamma_from_eta(scalar(1, 0.25, role="eta"), units)
        assert g.item() == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("order,value", [(1, 0.37), (2, -0.21), (3, 0.05)])
    def test_round_trip(self, order, value):
        units = UnitSystem(eps0=1.7)
        eta = scalar(order, value, role="eta")
        back = eta_from_gamma(gamma_from_eta(eta, units), units)
        assert back.item() == pytest.approx(value, abs=1e-15)


CHIS_6 = (0.7, 0.3, -0.2, 0.15, 0.05, -0.1)


def route_densities(chis, eps0=1.0):
    """(medium, etas, D route, E route) of a scalar medium, through its top order."""
    medium = MediumSpec.from_scalars(chis, units=UnitSystem(eps0=eps0))
    etas = invert_series(medium, len(chis))
    weights = energy_density(medium, etas)
    return medium, etas, weights["D-based"], weights["E-linear-wrong"]


def route_weights(chis, eps0=1.0):
    """Per-order weights: D weight / eta_n, and E weight / eta1^(n+1) / eps0 chi_n
    (eps0 (1 + chi1) at n = 1)."""
    medium, etas, d_weights, e_weights = route_densities(chis, eps0)
    eta1 = etas[0].item()
    e_series = [w / eta1 ** (n + 1) for n, w in enumerate(e_weights, start=1)]
    return ([w / eta.item() for w, eta in zip(d_weights, etas)],
            [e_series[0] / (eps0 * (1.0 + chis[0]))] + [
                c / (eps0 * medium.chi(n).item()) for n, c in enumerate(e_series[1:], start=2)])


class TestEnergyPrefactors:
    def test_d_based(self):
        _, etas, d_weights, _ = route_densities(CHIS_6)
        assert len(d_weights) == 6
        for n, (w, eta) in enumerate(zip(d_weights, etas), start=1):
            assert (n + 1) * w == pytest.approx(eta.item(), rel=1e-15)

    def test_e_based(self):
        _, e_weights = route_weights(CHIS_6, eps0=1.7)
        assert len(e_weights) == 6
        assert e_weights[0] == 0.5
        for n in range(2, 7):
            assert e_weights[n - 1] == pytest.approx(n / (n + 1), rel=1e-15)

    def test_routes_share_the_quadratic_weight(self):
        # eps0 (1 + chi1) eta1^2 / 2 = eta1 / 2: both routes agree on a linear medium
        _, etas, d_weights, e_weights = route_densities(CHIS_6, eps0=1.7)
        assert e_weights[0] == pytest.approx(d_weights[0], rel=1e-15)

    def test_discrepancy_vanishes_only_linearly(self):
        d_weights, e_weights = route_weights(CHIS_6)
        for n in range(1, 7):
            diff = e_weights[n - 1] - d_weights[n - 1]
            assert diff == pytest.approx((n - 1) / (n + 1), abs=1e-15)
            assert (diff == 0) == (n == 1)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), order=st.integers(2, 4), pure=st.booleans(),
       eps0=st.sampled_from([1.0, 1.7, 8.8541878128e-12]))
def test_top_coefficient_ratio_closed_form(data, order, pure, eps0):
    # wrong / correct top coefficient of D^(n+1) is n eps0 chi_n eta1^(n+1) / eta_n,
    # and -n when no lower nonlinear order cascades into eta_n
    chi1 = data.draw(st.floats(-0.5, 3.0))
    middle = [0.0 if pure else data.draw(st.floats(-0.5, 0.5)) for _ in range(order - 2)]
    chi_n = data.draw(st.floats(0.01, 0.5)) * data.draw(st.sampled_from([-1.0, 1.0]))
    medium, etas, d_weights, e_weights = route_densities([chi1, *middle, chi_n], eps0)
    eta1, eta_n = etas[0].item(), etas[-1].item()
    assume(eta_n != 0.0)
    ratio = e_weights[-1] / d_weights[-1]
    closed_form = order * eps0 * chi_n * eta1 ** (order + 1) / eta_n
    assert ratio == pytest.approx(closed_form, rel=1e-12)
    if pure:
        assert ratio == pytest.approx(prefactor_ratio(order), rel=1e-12)


class TestMediumJson:
    def test_round_trip_dict(self):
        doc = {"units": "natural", "dim": 1, "chi": {"1": [3.0], "2": [0.5]}}
        medium = medium_from_dict(doc)
        assert medium.highest_order == 2
        assert medium.chi(1).item() == 3.0
        assert medium.chi(2).item() == 0.5

    def test_missing_orders_filled_with_zeros(self):
        medium = medium_from_dict({"units": "natural", "dim": 1, "chi": {"3": [0.2]}})
        assert medium.chi(1).is_zero()
        assert medium.chi(2).is_zero()
        assert medium.chi(3).item() == 0.2

    def test_row_major_3d(self):
        ent = np.arange(9.0).reshape(3, 3)
        doc = {"units": "natural", "dim": 3, "chi": {"1": ent.ravel().tolist()}}
        medium = medium_from_dict(doc)
        assert medium.chi(1).entries == tuple(ent.ravel())

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "medium.json"
        path.write_text(json.dumps({"units": "natural", "dim": 1, "chi": {"1": 0.0}}))
        medium = load_medium(path)
        assert medium.highest_order == 1

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            medium_from_dict({"units": "natural", "dim": 1})

    @pytest.mark.parametrize("chi, message", [
        ({"0": [7.0], "1": [0.5]}, "key '0' is below 1"),
        ({"-3": [7.0], "1": [0.5]}, "key '-3' is below 1"),
        ({"1": [0.5], "01": [0.7]}, "same order"),
        ([0.5, 0.3], "malformed"),
    ], ids=["zero", "negative", "duplicate", "list"])
    def test_keys_must_name_distinct_orders_from_one(self, chi, message):
        # keys below 1 were once dropped in silence, a repeated order kept one
        # of its entries, and a list of entries raised an AttributeError
        with pytest.raises(ValueError, match=message):
            medium_from_dict({"units": "natural", "dim": 1, "chi": chi})

    def test_keys_are_read_as_orders(self):
        medium = medium_from_dict({"units": "natural", "dim": 1, "chi": {"01": [0.5], 2: [0.3]}})
        assert (medium.chi(1).item(), medium.chi(2).item()) == (0.5, 0.3)

    @pytest.mark.parametrize("raw", [[0.5, 0.1], ["x"], [None], [[0.5], [0.1]]],
                             ids=["count", "string", "null", "nested-count"])
    def test_bad_entries_raise(self, raw):
        with pytest.raises(ValueError):
            medium_from_dict({"units": "natural", "dim": 1, "chi": {"1": [0.5], "2": raw}})

    def test_complex_entries(self):
        with pytest.raises(ValueError, match="lossless"):
            SusceptibilityTensor(order=1, role="chi", dim=1, entries=[0.5 + 0.1j])
        real = SusceptibilityTensor(order=1, role="chi", dim=1, entries=[0.5 + 0j])
        assert real.entries == (0.5,)
