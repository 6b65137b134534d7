from math import pi, sqrt

import pytest

import dquant.maxwell as maxwell
from dquant.boson_algebra import BosonicPolynomial, NotHermitianError
from dquant.fields import expand_fields, integrate_density
from dquant.maxwell import (
    InconsistentModeSetError,
    _scheme_hamiltonian,
    degree_contradiction_report,
    spectral_curl,
    verify_scheme,
)
from dquant.modes import make_uniform_medium_modes
from dquant.susceptibility import ROUTES, MediumSpec, invert_series
from dquant.units import UnitSystem

NAT = UnitSystem()


def uniform_setup(chi1, m_max, chis_higher=(), l_box=2 * pi):
    medium = MediumSpec.from_scalars([chi1, *chis_higher])
    n_index = sqrt(1.0 + chi1)
    m_range = [m for m in range(-m_max, m_max + 1) if m != 0]
    ms = make_uniform_medium_modes(n_index, l_box, m_range, NAT)
    return ms, medium


class TestSpectralCurl:
    def test_zero_component_annihilated(self):
        ms, _ = uniform_setup(0.0, 1)
        d_field, _ = expand_fields(ms, NAT)
        squared = d_field * d_field  # has a k = 0 component
        curled = spectral_curl(squared)
        assert curled.component(0).is_zero

    def test_ik_rule(self):
        ms, _ = uniform_setup(0.0, 2)
        d_field, _ = expand_fields(ms, NAT)
        curled = spectral_curl(d_field)
        assert curled.component(2).isclose((2j) * d_field.component(2))

    def test_linearity(self):
        ms, _ = uniform_setup(0.0, 2)
        d_field, _ = expand_fields(ms, NAT)
        lhs = spectral_curl(d_field + d_field)
        rhs = spectral_curl(d_field) + spectral_curl(d_field)
        for m in lhs.wavevectors():
            assert lhs.component(m).isclose(rhs.component(m))

    def test_induction_orientation_flips_sign(self):
        ms, _ = uniform_setup(0.0, 1)
        _, b_field = expand_fields(ms, NAT)
        curled = spectral_curl(b_field)
        assert curled.component(1).isclose((-1j) * b_field.component(1))


def _full_density_hamiltonian(d_field, b_field, medium, etas, scheme, l_box, units):
    """Reference: the whole energy density, every component, then the box integral."""
    n_top = medium.highest_order
    density = (1.0 / (2 * units.mu0)) * (b_field * b_field)
    if scheme == "D-based":
        power = d_field
        for n in range(1, n_top + 1):
            power = power * d_field
            density = density + (etas[n - 1].item() / (n + 1)) * power
    else:
        e_tilde = etas[0].item() * d_field
        power = e_tilde * e_tilde
        density = density + (units.eps0 * (1.0 + medium.chi(1).item()) / 2.0) * power
        for n in range(2, n_top + 1):
            power = power * e_tilde
            density = density + (units.eps0 * n / (n + 1) * medium.chi(n).item()) * power
    h = integrate_density(density, l_box)
    return h - BosonicPolynomial.identity(h.coefficient({}))


class TestSchemeHamiltonian:
    @pytest.mark.parametrize("scheme", ["D-based", "E-linear-wrong"])
    @pytest.mark.parametrize("chis,m_max", [((0.7, [-0.3]), 3), ((0.6, [0.2, -0.15]), 2)])
    def test_k0_build_equals_full_density_build(self, scheme, chis, m_max):
        ms, medium = uniform_setup(chis[0], m_max, chis[1])
        etas = invert_series(medium, medium.highest_order)
        d_field, b_field = expand_fields(ms, NAT)
        args = (d_field, b_field, medium, etas, scheme, ms.l_box, NAT)
        assert _scheme_hamiltonian(*args).terms == _full_density_hamiltonian(*args).terms


class TestLinearMedium:
    def test_both_schemes_pass(self):
        ms, medium = uniform_setup(0.9, 2)
        for scheme in ("D-based", "E-linear-wrong"):
            report = verify_scheme(ms, medium, scheme)[0]
            assert report.passed
            assert report.max_residual < 1e-10
            assert report.degree_lhs == report.degree_rhs == 1

    def test_schemes_coincide_for_linear_media(self):
        ms, medium = uniform_setup(0.9, 2)
        etas = invert_series(medium, 1)
        d_field, b_field = expand_fields(ms, NAT)
        h_d = _scheme_hamiltonian(d_field, b_field, medium, etas, "D-based",
                                  ms.l_box, NAT)
        h_e = _scheme_hamiltonian(d_field, b_field, medium, etas, "E-linear-wrong",
                                  ms.l_box, NAT)
        assert (h_d - h_e).max_abs_coeff() < 1e-12


class TestNonlinearMedium:
    def test_d_based_passes_with_leakage_reported(self):
        ms, medium = uniform_setup(0.5, 2, chis_higher=(0.3,))
        report = verify_scheme(ms, medium, "D-based")[0]
        assert report.passed
        assert report.max_residual < 1e-10
        assert report.degree_lhs == report.degree_rhs == 2
        assert report.leakage_norm > 0  # quadratic products leave the 4-mode basis

    def test_wrong_scheme_fails_with_degree_mismatch(self):
        ms, medium = uniform_setup(0.5, 2, chis_higher=(0.3,))
        report = verify_scheme(ms, medium, "E-linear-wrong")[0]
        assert not report.passed
        assert report.degree_lhs == 2
        assert report.degree_rhs == 1
        assert report.max_residual > 1e-3

    def test_ampere_passes_both_schemes(self):
        # the nonlinearity lives in the D-sector, so D's own EOM stays linear
        ms, medium = uniform_setup(0.5, 2, chis_higher=(0.3,))
        for scheme in ("D-based", "E-linear-wrong"):
            report = verify_scheme(ms, medium, scheme)[1]
            assert report.max_residual < 1e-10
            assert report.degree_lhs == report.degree_rhs == 1

    def test_cubic_medium_degree_three(self):
        ms, medium = uniform_setup(0.0, 2, chis_higher=(0.0, 0.2))
        report = verify_scheme(ms, medium, "E-linear-wrong")[0]
        assert report.degree_lhs == 3
        assert report.degree_rhs == 1
        good = verify_scheme(ms, medium, "D-based")[0]
        assert good.passed

    def test_residual_not_growing_with_basis(self):
        maxima = []
        for m_max in (1, 2, 3):
            ms, medium = uniform_setup(0.5, m_max, chis_higher=(0.3,))
            maxima.append(verify_scheme(ms, medium, "D-based")[0].max_residual)
        assert maxima[1] <= maxima[0] + 1e-12
        assert maxima[2] <= maxima[1] + 1e-12

    def test_report_serializable(self):
        ms, medium = uniform_setup(0.5, 1, chis_higher=(0.3,))
        doc = verify_scheme(ms, medium, "D-based")[0].to_dict()
        assert doc["scheme"] == "D-based"
        assert doc["law"] == "faraday"
        assert set(doc["residuals"]) == {"-1", "1"}
        assert isinstance(doc["passed"], bool)


class TestVerifyScheme:
    def test_non_hermitian_hamiltonian_rejected(self, monkeypatch):
        ms, medium = uniform_setup(0.5, 1, chis_higher=(0.3,))
        label = ms.modes[0].label
        monkeypatch.setattr(maxwell, "_scheme_hamiltonian",
                            lambda *args: BosonicPolynomial.from_ops(str(label)))
        with pytest.raises(NotHermitianError):
            verify_scheme(ms, medium, "D-based")

    @pytest.mark.parametrize("scheme", ROUTES)
    def test_builds_the_electric_field_only_for_the_d_route(self, monkeypatch, scheme):
        ms, medium = uniform_setup(0.5, 2, chis_higher=(0.3, -0.15))
        e_builds = []
        from_d = maxwell.electric_field_from_D
        monkeypatch.setattr(maxwell, "electric_field_from_D",
                            lambda *args: e_builds.append(1) or from_d(*args))
        faraday, ampere = verify_scheme(ms, medium, scheme)
        assert (faraday.law, ampere.law) == ("faraday", "ampere")
        assert len(e_builds) == (scheme == "D-based")


class TestConsistencyGuards:
    def test_wrong_dispersion_rejected(self):
        # modes solved for vacuum paired with a chi1 != 0 medium
        ms, _ = uniform_setup(0.0, 1)
        medium = MediumSpec.from_scalars([1.5, 0.1])
        with pytest.raises(InconsistentModeSetError):
            verify_scheme(ms, medium, "D-based")

    def test_asymmetric_basis_rejected(self):
        medium = MediumSpec.from_scalars([0.0, 0.1])
        ms = make_uniform_medium_modes(1.0, 2 * pi, [1, 2, -1], NAT)
        with pytest.raises(InconsistentModeSetError):
            verify_scheme(ms, medium, "D-based")


class TestDegreeContradiction:
    def test_linear_consistent(self):
        report = degree_contradiction_report(1)
        assert not report.contradiction
        assert report.degree_heisenberg == report.degree_curl == 1

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_nonlinear_contradiction(self, order):
        report = degree_contradiction_report(order)
        assert report.contradiction
        assert report.degree_heisenberg == order
        assert report.degree_curl == 1

    def test_serializable(self):
        doc = degree_contradiction_report(2).to_dict()
        assert doc == {
            "order": 2,
            "degree_heisenberg": 2,
            "degree_curl": 1,
            "contradiction": True,
        }
