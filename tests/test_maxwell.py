from math import pi, sqrt

import pytest

import dquant.maxwell as maxwell
from dquant.boson_algebra import BosonicPolynomial, NotHermitianError
from dquant.fields import expand_fields
from dquant.maxwell import (
    InconsistentModeSetError,
    _route_hamiltonians,
    spectral_curl,
    verify_routes,
)
from dquant.modes import make_uniform_medium_modes
from dquant.susceptibility import ROUTES, MediumSpec, energy_density, invert_series
from dquant.units import UnitSystem
from product_oracle import box_integral, field_product

NAT = UnitSystem()


def uniform_setup(chi1, m_max, chis_higher=(), l_box=2 * pi):
    medium = MediumSpec([chi1, *chis_higher])
    n_index = sqrt(1.0 + chi1)
    m_range = [m for m in range(-m_max, m_max + 1) if m != 0]
    ms = make_uniform_medium_modes(n_index, l_box, m_range, NAT)
    return ms, medium


class TestSpectralCurl:
    def test_zero_component_annihilated(self):
        ms, _ = uniform_setup(0.0, 1)
        d_field, _ = expand_fields(ms, NAT)
        squared = field_product(d_field, d_field)  # has a k = 0 component
        curled = spectral_curl(squared, 1.0)
        assert curled.component(0).is_zero

    def test_ik_rule(self):
        ms, _ = uniform_setup(0.0, 2)
        d_field, _ = expand_fields(ms, NAT)
        curled = spectral_curl(d_field, 1.0)
        assert curled.component(2).isclose((2j) * d_field.component(2))

    def test_linearity(self):
        ms, _ = uniform_setup(0.0, 2)
        d_field, _ = expand_fields(ms, NAT)
        lhs = spectral_curl(d_field + d_field, 1.0)
        rhs = spectral_curl(d_field, 1.0) + spectral_curl(d_field, 1.0)
        for m in lhs.wavevectors():
            assert lhs.component(m).isclose(rhs.component(m))

    def test_induction_orientation_flips_sign(self):
        ms, _ = uniform_setup(0.0, 1)
        _, b_field = expand_fields(ms, NAT)
        curled = spectral_curl(b_field, -1.0)
        assert curled.component(1).isclose((-1j) * b_field.component(1))


def _box_hamiltonian(density, l_box):
    h = box_integral(density, l_box)
    return h - BosonicPolynomial.identity(h.coefficient({}))


def _full_density_hamiltonian(d_field, b_field, medium, etas, scheme, l_box, units):
    """Reference: the weighted D ladder, every component built by the product oracle,
    then the box integral."""
    density = (1.0 / (2 * units.mu0)) * field_product(b_field, b_field)
    power = d_field
    for weight in energy_density(medium, etas)[scheme]:
        power = field_product(power, d_field)
        density = density + weight * power
    return _box_hamiltonian(density, l_box)


def _eta1_d_power_hamiltonian(d_field, b_field, medium, etas, scheme, l_box, units):
    """Second reference: the route's series in X = D or eta1 D, powers of X built whole."""
    n_top = medium.highest_order
    density = (1.0 / (2 * units.mu0)) * field_product(b_field, b_field)
    if scheme == "D-based":
        power = d_field
        for n in range(1, n_top + 1):
            power = field_product(power, d_field)
            density = density + (etas[n - 1] / (n + 1)) * power
    else:
        e_tilde = etas[0] * d_field
        power = field_product(e_tilde, e_tilde)
        density = density + (units.eps0 * (1.0 + medium.chi(1)) / 2.0) * power
        for n in range(2, n_top + 1):
            power = field_product(power, e_tilde)
            density = density + (units.eps0 * n / (n + 1) * medium.chi(n)) * power
    return _box_hamiltonian(density, l_box)


def route_hamiltonian(chis, m_max, scheme):
    """(the ladder build, and the field setup) of one route's box Hamiltonian."""
    ms, medium = uniform_setup(chis[0], m_max, chis[1])
    etas = invert_series(medium, medium.highest_order)
    d_field, b_field = expand_fields(ms, NAT)
    args = (d_field, b_field, medium, etas, scheme, ms.l_box, NAT)
    hamiltonians, _ = _route_hamiltonians(d_field, b_field, medium, etas, ms.l_box)
    return hamiltonians[scheme], args


class TestSchemeHamiltonian:
    @pytest.mark.parametrize("scheme", ["D-based", "E-linear-wrong"])
    @pytest.mark.parametrize("chis,m_max", [((0.7, [-0.3]), 3), ((0.6, [0.2, -0.15]), 2)])
    def test_k0_build_equals_full_density_build(self, scheme, chis, m_max):
        # Wick's powers at k = 0 against the oracle's whole products, term by term
        h, args = route_hamiltonian(chis, m_max, scheme)
        reference = _full_density_hamiltonian(*args)
        assert set(h.terms) == set(reference.terms)
        deviation = max(abs(c - reference.terms[k]) for k, c in h.terms.items())
        assert deviation <= 1e-15 * reference.max_abs_coeff()

    @pytest.mark.parametrize("scheme", ["D-based", "E-linear-wrong"])
    @pytest.mark.parametrize("chis,m_max", [
        ((0.9, []), 3), ((0.5, [0.3]), 3), ((0.7, [-0.3]), 3), ((0.6, [0.2, -0.15]), 2),
        ((0.6, [0.0, 0.2]), 2), ((0.5, [0.3, 0.2, 0.1]), 1)])
    def test_ladder_build_matches_the_eta1_d_power_build(self, scheme, chis, m_max):
        # the E route's weights carry eta1^(n+1) where the old build scaled D by eta1
        h, args = route_hamiltonian(chis, m_max, scheme)
        reference = _eta1_d_power_hamiltonian(*args)
        assert set(h.terms) == set(reference.terms)
        # compared term by term: a difference polynomial would prune below PRUNE_TOL
        deviation = max(abs(c - reference.terms[k]) for k, c in h.terms.items())
        assert deviation <= 1e-15 * reference.max_abs_coeff()


class TestLinearMedium:
    def test_both_schemes_pass(self):
        ms, medium = uniform_setup(0.9, 2)
        for scheme in ("D-based", "E-linear-wrong"):
            report = verify_routes(ms, medium)[scheme][0]
            assert report.passed
            assert report.max_residual < 1e-10
            assert report.degree_lhs == report.degree_rhs == 1

    def test_schemes_coincide_for_linear_media(self):
        ms, medium = uniform_setup(0.9, 2)
        etas = invert_series(medium, 1)
        d_field, b_field = expand_fields(ms, NAT)
        hams, _ = _route_hamiltonians(d_field, b_field, medium, etas, ms.l_box)
        assert (hams["D-based"] - hams["E-linear-wrong"]).max_abs_coeff() < 1e-12


class TestNonlinearMedium:
    def test_d_based_passes_with_leakage_reported(self):
        ms, medium = uniform_setup(0.5, 2, chis_higher=(0.3,))
        report = verify_routes(ms, medium)["D-based"][0]
        assert report.passed
        assert report.max_residual < 1e-10
        assert report.degree_lhs == report.degree_rhs == 2
        assert report.leakage_norm > 0  # quadratic products leave the 4-mode basis

    def test_wrong_scheme_fails_with_degree_mismatch(self):
        ms, medium = uniform_setup(0.5, 2, chis_higher=(0.3,))
        report = verify_routes(ms, medium)["E-linear-wrong"][0]
        assert not report.passed
        assert report.degree_lhs == 2
        assert report.degree_rhs == 1
        assert report.max_residual > 1e-3

    def test_ampere_passes_both_schemes(self):
        # the nonlinearity lives in the D-sector, so D's own EOM stays linear
        ms, medium = uniform_setup(0.5, 2, chis_higher=(0.3,))
        for scheme in ("D-based", "E-linear-wrong"):
            report = verify_routes(ms, medium)[scheme][1]
            assert report.max_residual < 1e-10
            assert report.degree_lhs == report.degree_rhs == 1

    def test_cubic_medium_degree_three(self):
        ms, medium = uniform_setup(0.0, 2, chis_higher=(0.0, 0.2))
        report = verify_routes(ms, medium)["E-linear-wrong"][0]
        assert report.degree_lhs == 3
        assert report.degree_rhs == 1
        good = verify_routes(ms, medium)["D-based"][0]
        assert good.passed

    def test_residual_not_growing_with_basis(self):
        maxima = []
        for m_max in (1, 2, 3):
            ms, medium = uniform_setup(0.5, m_max, chis_higher=(0.3,))
            maxima.append(verify_routes(ms, medium)["D-based"][0].max_residual)
        assert maxima[1] <= maxima[0] + 1e-12
        assert maxima[2] <= maxima[1] + 1e-12

    def test_report_serializable(self):
        ms, medium = uniform_setup(0.5, 1, chis_higher=(0.3,))
        doc = verify_routes(ms, medium)["D-based"][0].to_dict()
        assert doc["scheme"] == "D-based"
        assert doc["law"] == "faraday"
        assert set(doc["residuals"]) == {"-1", "1"}
        assert isinstance(doc["passed"], bool)


class TestVerifyScheme:
    def test_non_hermitian_hamiltonian_rejected(self, monkeypatch):
        ms, medium = uniform_setup(0.5, 1, chis_higher=(0.3,))
        monkeypatch.setattr(maxwell, "energy_density",
                            lambda *args: {route: [1j * w for w in weights] for route, weights
                                           in energy_density(*args).items()})
        with pytest.raises(NotHermitianError):
            verify_routes(ms, medium)

    @pytest.mark.parametrize("scheme", ROUTES)
    def test_builds_the_electric_field_only_for_the_d_route(self, monkeypatch, scheme):
        # the D route's E = sum_n eta_n D^n is summed from the ladder once; the
        # linear-E route's E is eta1 D, so its curl stays degree 1 against chi3
        ms, medium = uniform_setup(0.5, 2, chis_higher=(0.3, -0.15))
        e_builds = []
        from_ladder = maxwell._electric_field
        monkeypatch.setattr(maxwell, "_electric_field",
                            lambda *args: e_builds.append(1) or from_ladder(*args))
        faraday, ampere = verify_routes(ms, medium)[scheme]
        assert (faraday.law, ampere.law) == ("faraday", "ampere")
        assert len(e_builds) == 1
        assert faraday.degree_rhs == (3 if scheme == "D-based" else 1)

    @pytest.mark.parametrize("m_max", [1, 2, 3, 4, 5])
    def test_differentiates_each_route_hamiltonian_once(self, monkeypatch, m_max):
        # one pass over each route's H tabulates its derivatives; all four law
        # reports read their commutators from those two tables
        ms, medium = uniform_setup(0.5, m_max, chis_higher=(0.3, -0.15))
        built, tables = [], []
        route_hamiltonians, derivative_table = maxwell._route_hamiltonians, maxwell._derivative_table
        monkeypatch.setattr(maxwell, "_route_hamiltonians",
                            lambda *args: built.append(route_hamiltonians(*args)) or built[-1])
        monkeypatch.setattr(maxwell, "_derivative_table",
                            lambda h: tables.append(h) or derivative_table(h))
        verify_routes(ms, medium)
        assert len(built) == 1
        assert [id(h) for h in tables] == [id(built[0][0][route]) for route in ROUTES]

    def test_reports_both_laws_of_both_routes(self):
        ms, medium = uniform_setup(0.5, 2, chis_higher=(0.3, -0.15))
        reports = verify_routes(ms, medium)
        assert list(reports) == ["D-based", "E-linear-wrong"]
        for route, (faraday, ampere) in reports.items():
            assert (faraday.scheme, ampere.scheme) == (route, route)
            assert (faraday.law, ampere.law) == ("faraday", "ampere")
        assert reports["D-based"][0].leakage and not reports["E-linear-wrong"][0].leakage


class TestConsistencyGuards:
    def test_wrong_dispersion_rejected(self):
        # modes solved for vacuum paired with a chi1 != 0 medium
        ms, _ = uniform_setup(0.0, 1)
        medium = MediumSpec([1.5, 0.1])
        with pytest.raises(InconsistentModeSetError):
            verify_routes(ms, medium)["D-based"]

    def test_asymmetric_basis_rejected(self):
        medium = MediumSpec([0.0, 0.1])
        ms = make_uniform_medium_modes(1.0, 2 * pi, [1, 2, -1], NAT)
        with pytest.raises(InconsistentModeSetError):
            verify_routes(ms, medium)["D-based"]


class TestDegreeContradiction:
    """The degree argument, measured on the built Hamiltonians of pure media."""

    def test_linear_consistent(self):
        ms, medium = uniform_setup(0.5, 2)
        for faraday, ampere in verify_routes(ms, medium).values():
            assert faraday.passed and ampere.passed
            assert faraday.degree_lhs == faraday.degree_rhs == 1

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_nonlinear_contradiction(self, order):
        # modes +-1 and +-2: at +-1 alone an odd power of D has no k = 0 term,
        # so on chi2 and chi4 media both routes' d B/dt fall to degree 1
        ms, medium = uniform_setup(0.5, 2, chis_higher=[0.0] * (order - 2) + [0.3])
        reports = verify_routes(ms, medium)
        wrong = reports["E-linear-wrong"][0]
        assert (wrong.degree_lhs, wrong.degree_rhs) == (order, 1)
        assert not wrong.passed
        for report in reports["D-based"]:
            assert report.passed
