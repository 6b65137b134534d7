import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from dquant import susceptibility
from dquant.hamiltonian import prefactor_ratio
from dquant.susceptibility import (
    MediumSpec,
    NonInvertibleLinearResponseError,
    energy_density,
    gamma_from_eta,
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


def eta1_of(chi1, units=NAT):
    (eta1,) = invert_series(MediumSpec([chi1], units=units), 1)
    return eta1


class TestInvertLinear:
    def test_vacuum_identity(self):
        assert eta1_of(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_scalar_inverse(self):
        eta1 = eta1_of(3.0)
        assert eta1 == pytest.approx(0.25, abs=1e-15)
        # round trip eps0 * eta1 * (1 + chi1) = 1
        assert NAT.eps0 * eta1 * 4.0 == pytest.approx(1.0, abs=1e-12)

    def test_singular_raises(self):
        with pytest.raises(NonInvertibleLinearResponseError, match="1 \\+ chi1 = 0.0"):
            eta1_of(-1.0)


class TestEta2:
    def test_vacuum_sign_flip(self):
        eta2 = eta2_from_chi2(0.1, eta1_of(0.0), NAT)
        assert eta2 == pytest.approx(-0.1, abs=1e-15)

    def test_dressed_contraction(self):
        eta2 = eta2_from_chi2(0.8, eta1_of(1.0), NAT)
        assert eta2 == pytest.approx(-0.1, abs=1e-14)

    def test_zero_chi2(self):
        assert not eta2_from_chi2(0.0, eta1_of(2.0), NAT)


class TestInvertSeries:
    def test_matches_closed_forms(self):
        medium = MediumSpec([3.0, 0.5])
        etas = invert_series(medium, 2)
        eta1 = 1.0 / (NAT.eps0 * (1.0 + medium.chi(1)))
        eta2 = eta2_from_chi2(medium.chi(2), eta1, NAT)
        assert etas == pytest.approx([eta1, eta2], abs=1e-12)

    def test_pure_chi2(self):
        etas = invert_series(MediumSpec([0.0, 0.1, 0.0]), 2)
        assert etas == pytest.approx([1.0, -0.1], abs=1e-15)

    def test_regression_oracle_chi1_chi2(self):
        medium = MediumSpec([3.0, 0.5, 0.0])
        etas = invert_series(medium, 2)
        assert etas[1] == pytest.approx(-0.5 * 0.25**3, abs=1e-15)
        assert fitted_inverse_coeffs(medium, 2) == pytest.approx(etas, abs=1e-8)

    def test_pure_chi3(self):
        medium = MediumSpec([0.0, 0.0, 0.2])
        etas = invert_series(medium, 3)
        assert etas == pytest.approx([1.0, 0.0, -0.2], abs=1e-12)
        assert fitted_inverse_coeffs(medium, 3) == pytest.approx(etas, abs=1e-8)

    def test_cascading_third_order(self):
        # chi2 feeds eta3 through the composition even when chi3 = 0
        medium = MediumSpec([0.0, 0.3, 0.0])
        etas = invert_series(medium, 3)
        fitted = fitted_inverse_coeffs(medium, 3)
        assert fitted[2] == pytest.approx(etas[2], abs=1e-8)
        assert etas[2] != pytest.approx(0.0, abs=1e-6)

    def test_propagates_singular_error(self):
        with pytest.raises(NonInvertibleLinearResponseError):
            invert_series(MediumSpec([-1.0, 0.1]), 2)

    def test_names_the_first_order_that_overflows(self):
        # eta2 ~ -3e199 is a float; eta3 ~ 1e399 is not, and nor is any order above
        with pytest.raises(ValueError, match=r"^eta\(3\) = inf is not finite"):
            invert_series(MediumSpec([0.5, 1e200, 1e200]), 6)

    def test_order_below_one_raises(self):
        with pytest.raises(ValueError, match="max_order must be >= 1"):
            invert_series(MediumSpec([0.5]), 0)


def test_compositions_are_the_recursive_oracles_in_its_order():
    # invert_series adds one term per composition, so their order fixes its bits
    for total in range(1, 16):
        for parts in range(1, 10):
            assert (list(susceptibility._compositions(total, parts))
                    == list(tensor_oracle._compositions(total, parts)))


@settings(max_examples=60, deadline=None)
@given(
    chi1=st.floats(-5.0, 5.0).filter(lambda c: abs(1.0 + c) >= 0.5),
    chi2=st.floats(-1.0, 1.0),
    chi3=st.floats(-1.0, 1.0),
)
def test_series_round_trip(chi1, chi2, chi3):
    """Composing D(E(D)) reproduces the identity through the retained order."""
    medium = MediumSpec([chi1, chi2, chi3])
    etas = invert_series(medium, 3)
    e_of_d = Polynomial([0.0] + etas)
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
    medium = MediumSpec([chi1] + chis)
    got = invert_series(medium, max_order)
    ref = tensor_oracle.invert_series(medium, max_order)
    assert _bits(got) == [_bits(a.ravel())[0] for a in ref]


class TestGamma:
    def test_vacuum(self):
        assert gamma_from_eta([1.0], NAT) == pytest.approx([0.0], abs=1e-15)

    def test_sign_flip_order2(self):
        assert gamma_from_eta([1.0, -0.1], NAT)[1] == pytest.approx(0.1, abs=1e-15)

    def test_eps0_weighting(self):
        assert gamma_from_eta([0.25], UnitSystem(eps0=2.0)) == pytest.approx([0.5], abs=1e-15)

    @pytest.mark.parametrize("order,value", [(1, 0.37), (2, -0.21), (3, 0.05)])
    def test_round_trip(self, order, value):
        units = UnitSystem(eps0=1.7)
        etas = [0.4] * (order - 1) + [value]
        back = eta_from_gamma(gamma_from_eta(etas, units), units)
        assert back == pytest.approx(etas, abs=1e-15)


CHIS_6 = (0.7, 0.3, -0.2, 0.15, 0.05, -0.1)


def route_densities(chis, eps0=1.0):
    """(medium, etas, D route, E route) of a scalar medium, through its top order."""
    medium = MediumSpec(chis, units=UnitSystem(eps0=eps0))
    etas = invert_series(medium, len(chis))
    weights = energy_density(medium, etas)
    return medium, etas, weights["D-based"], weights["E-linear-wrong"]


def route_weights(chis, eps0=1.0):
    """Per-order weights: D weight / eta_n, and E weight / eta1^(n+1) / eps0 chi_n
    (eps0 (1 + chi1) at n = 1)."""
    medium, etas, d_weights, e_weights = route_densities(chis, eps0)
    eta1 = etas[0]
    e_series = [w / eta1 ** (n + 1) for n, w in enumerate(e_weights, start=1)]
    return ([w / eta for w, eta in zip(d_weights, etas)],
            [e_series[0] / (eps0 * (1.0 + chis[0]))] + [
                c / (eps0 * medium.chi(n)) for n, c in enumerate(e_series[1:], start=2)])


class TestEnergyPrefactors:
    def test_d_based(self):
        _, etas, d_weights, _ = route_densities(CHIS_6)
        assert len(d_weights) == 6
        for n, (w, eta) in enumerate(zip(d_weights, etas), start=1):
            assert (n + 1) * w == pytest.approx(eta, rel=1e-15)

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
    eta1, eta_n = etas[0], etas[-1]
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
        assert medium.chis == (3.0, 0.5)

    def test_missing_orders_filled_with_zeros(self):
        medium = medium_from_dict({"units": "natural", "dim": 1, "chi": {"3": [0.2]}})
        assert medium.chis == (0.0, 0.0, 0.2)

    @pytest.mark.parametrize("doc", [{"chi": {"1": [0.5], "2": 0.3}},
                                     {"dim": 1, "chi": {"1": 0.5, "2": [0.3]}}],
                             ids=["no-dim", "bare-numbers"])
    def test_scalar_entries_with_or_without_dim(self, doc):
        assert medium_from_dict(doc).chis == (0.5, 0.3)

    @pytest.mark.parametrize("dim", [2, 3, 0, "1"])
    def test_dim_other_than_1_raises(self, dim):
        # a dim = 3 medium was once read as row-major tensors that no command ran on
        with pytest.raises(ValueError, match=rf"scalar \(dim=1\) medium, not dim={dim!r}$"):
            medium_from_dict({"dim": dim, "chi": {"1": [0.5] * 9}})

    @pytest.mark.parametrize("raw", [[[0.3]], [[[0.3]]], [], [[0.3], 0.1]],
                             ids=["nested", "twice-nested", "empty", "nested-count"])
    def test_entry_that_is_not_one_number_raises(self, raw):
        # a nested entry such as [[0.3]] was once read as its one leaf
        with pytest.raises(ValueError, match="a number or a list of one number"):
            medium_from_dict({"dim": 1, "chi": {"1": [0.5], "2": raw}})

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
        assert medium.chis == (0.5, 0.3)

    @pytest.mark.parametrize("raw", [[0.5, 0.1], ["x"], [None], [[0.5], [0.1]], ["0.5"], "0.5",
                                     [True]],
                             ids=["count", "string", "null", "nested-count", "numeric-string",
                                  "bare-numeric-string", "boolean"])
    def test_bad_entries_raise(self, raw):
        with pytest.raises(ValueError):
            medium_from_dict({"units": "natural", "dim": 1, "chi": {"1": [0.5], "2": raw}})

    def test_complex_entries(self):
        for chi in (0.5 + 0.1j, 0.5 + 0j):
            with pytest.raises(ValueError, match="lossless"):
                MediumSpec([chi])

    def test_medium_needs_chi1(self):
        with pytest.raises(ValueError, match="at least chi1"):
            MediumSpec([])
