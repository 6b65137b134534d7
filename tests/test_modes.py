from math import pi

import pytest

from dquant.modes import make_uniform_medium_modes, plane_wave_mode
from dquant.units import UnitSystem

NAT = UnitSystem()


class TestUniformModes:
    def test_vacuum_dispersion(self):
        ms = make_uniform_medium_modes(1.0, 2 * pi, [1], NAT)
        (mode,) = ms.modes
        assert mode.k == pytest.approx(1.0)
        assert mode.omega == pytest.approx(1.0)

    def test_index_slows_light(self):
        ms = make_uniform_medium_modes(2.0, 2 * pi, [3], NAT)
        (mode,) = ms.modes
        assert mode.k == pytest.approx(3.0)
        assert mode.omega == pytest.approx(1.5)

    def test_normalization_exact(self):
        # (v_p / v_g) |d|^2 / (eps0 n^2) over the unit cross-section
        n = 1.7
        v_p = v_g = NAT.c / n
        ms = make_uniform_medium_modes(n, 4 * pi, [-2, -1, 1, 2], NAT)
        for mode in ms.modes:
            assert (v_p / v_g) * abs(mode.d) ** 2 / (NAT.eps0 * n**2) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_zero_mode_rejected(self):
        # m = 0 has zero frequency: a basis that lists it is refused, not trimmed
        with pytest.raises(ValueError, match="m = 0"):
            make_uniform_medium_modes(1.0, 2 * pi, range(0, 3), NAT)

    def test_transverse_scalar_structure(self):
        # 1D propagation: profiles are scalar transverse amplitudes by
        # construction, with no longitudinal component anywhere
        ms = make_uniform_medium_modes(1.5, 2 * pi, [1, 2], NAT)
        for mode in ms.modes:
            assert isinstance(mode.d, complex) and isinstance(mode.b, complex)

    def test_wavevectors_on_grid(self):
        ms = make_uniform_medium_modes(1.0, 3.0, [-4, 5], NAT)
        for mode in ms.modes:
            assert mode.k == pytest.approx(2 * pi * mode.m / 3.0, rel=1e-15)

    def test_plane_wave_mode_is_the_uniform_medium_mode(self):
        mode = plane_wave_mode(0, -3, 1.7, 4.0, NAT)
        (ref,) = make_uniform_medium_modes(1.7, 4.0, [-3], NAT).modes
        assert (mode.label, mode.m, mode.k, mode.omega) == (
            ref.label, ref.m, 2 * pi / 4.0 * -3, NAT.c * abs(ref.k) / 1.7)
        assert mode.d == ref.d
        assert mode.b == ref.b
