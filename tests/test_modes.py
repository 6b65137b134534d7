import logging
from math import pi, sqrt

import numpy as np
import pytest

from dquant.modes import ModeProfile, flat_profile, make_uniform_medium_modes, plane_wave_mode
from dquant.slab import (
    SlabStack,
    _solve_slab_betas,
    normalization_integral,
    normalize,
    slab_profile,
    solve_slab_modes,
)
from dquant.units import UnitSystem, si_units
from slab_oracle import slab_oracle

NAT = UnitSystem()

#: (layers, omega, units) of the stacks the numpy oracle checks: the three-
#: and five-layer test stacks, a thick core with 14 modes, a higher frequency,
#: a thin core with one mode, and an SI stack at an optical frequency
ORACLE_STACKS = [
    ([(6.0, 1.45), (4.0, 2.0), (6.0, 1.45)], 1.0, NAT),
    ([(5, 1.0), (4, 2.0), (1.5, 1.6), (3, 2.2), (5, 1.3)], 1.0, NAT),
    ([(10.0, 1.45), (30.0, 2.0), (10.0, 1.45)], 1.0, NAT),
    ([(6.0, 1.45), (4.0, 2.0), (6.0, 1.45)], 1.3, NAT),
    ([(6.0, 1.45), (1.0, 2.0), (6.0, 1.45)], 1.0, NAT),
    ([(2e-6, 1.45), (1e-6, 2.0), (2e-6, 1.45)], 1.2e15, si_units()),
]


def symmetric_slab_fundamental_neff(n_clad, n_core, thickness, omega, units=NAT):
    """Independent oracle: even-TE transcendental equation u tan(u) = sqrt(R^2-u^2)
    for the fundamental mode, solved by bisection in u = kappa*d/2."""
    k0 = omega / units.c
    r2 = (thickness / 2.0) ** 2 * k0**2 * (n_core**2 - n_clad**2)

    def f(u):
        return u * np.tan(u) - np.sqrt(max(r2 - u**2, 0.0))

    lo, hi = 1e-12, min(np.sqrt(r2), pi / 2 - 1e-12)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    u = 0.5 * (lo + hi)
    kappa = 2 * u / thickness
    beta = np.sqrt((n_core * k0) ** 2 - kappa**2)
    return beta / k0


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
        ms = make_uniform_medium_modes(1.7, 4 * pi, [-2, -1, 1, 2], NAT)
        for mode in ms.modes:
            assert normalization_integral(mode.profile, mode.omega, NAT) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_zero_mode_reported(self, caplog):
        with caplog.at_level(logging.WARNING):
            ms = make_uniform_medium_modes(1.0, 2 * pi, range(0, 3), NAT)
        assert ms.dropped_zero_mode
        assert [m.m for m in ms.modes] == [1, 2]
        assert any("m=0" in rec.message for rec in caplog.records)

    def test_transverse_scalar_structure(self):
        # 1D propagation: profiles are scalar transverse amplitudes by
        # construction, with no longitudinal component anywhere
        ms = make_uniform_medium_modes(1.5, 2 * pi, [1, 2], NAT)
        for mode in ms.modes:
            assert all(isinstance(v, complex) for v in mode.profile.d + mode.profile.b)

    def test_wavevectors_on_grid(self):
        ms = make_uniform_medium_modes(1.0, 3.0, [-4, 5], NAT)
        for mode in ms.modes:
            assert mode.k == pytest.approx(2 * pi * mode.m / 3.0, rel=1e-15)

    def test_plane_wave_mode_is_the_uniform_medium_mode(self):
        mode = plane_wave_mode(0, "U", -3, 1.7, 4.0, NAT)
        (ref,) = make_uniform_medium_modes(1.7, 4.0, [-3], NAT).modes
        assert (mode.label, mode.family, mode.m, mode.k, mode.omega) == (
            ref.label, ref.family, ref.m, 2 * pi / 4.0 * -3, NAT.c * abs(ref.k) / 1.7)
        assert mode.profile.d == ref.profile.d
        assert mode.profile.b == ref.profile.b

    def test_to_dict_roundtrippable(self):
        ms = make_uniform_medium_modes(1.0, 2 * pi, [1], NAT)
        doc = ms.to_dict()
        assert doc["modes"][0]["k"] == pytest.approx(1.0)
        assert doc["modes"][0]["v_p"] == pytest.approx(1.0)


class TestNormalizationIntegral:
    def test_constant_profile_closed_form(self):
        # a constant profile over area A normalizes at d = sqrt(eps0 n^2 / A)
        area, n = 2.5, 1.8
        d = sqrt(NAT.eps0 * n**2 / area)
        p = ModeProfile(x=(0.0,), weights=(area,), d=(d,), b=(NAT.mu0 * d,), index=(n,),
                        vp=1.0 / n, vg=1.0 / n)
        assert normalization_integral(p, 1.0, NAT) == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_scaling(self):
        p = flat_profile(1.3, omega=1.0, k=1.0, units=NAT)
        doubled = ModeProfile(x=p.x, weights=p.weights, d=[2.0 * v for v in p.d],
                              b=[2.0 * v for v in p.b],
                              index=p.index, vp=p.vp, vg=p.vg)
        assert normalization_integral(doubled, 1.0, NAT) == pytest.approx(4.0, abs=1e-14)

    def test_zero_profile_rejected(self):
        p = flat_profile(1.0, omega=1.0, k=1.0, units=NAT)
        zero = ModeProfile(x=p.x, weights=p.weights, d=[0.0 * v for v in p.d], b=p.b,
                           index=p.index, vp=p.vp, vg=p.vg)
        with pytest.raises(ValueError):
            normalization_integral(zero, 1.0, NAT)

    def test_vp_vg_ratio_enters(self):
        p = flat_profile(1.0, omega=1.0, k=1.0, units=NAT)
        dispersive = ModeProfile(x=p.x, weights=p.weights, d=p.d, b=p.b,
                                 index=p.index, vp=1.0, vg=0.5)
        assert normalization_integral(dispersive, 1.0, NAT) == pytest.approx(2.0)
        again = normalize(dispersive, 1.0, NAT)
        assert normalization_integral(again, 1.0, NAT) == pytest.approx(1.0, abs=1e-14)


class TestSlabModes:
    def test_fundamental_matches_transcendental_oracle(self):
        layers = [(10.0, 1.45), (30.0, 2.0), (10.0, 1.45)]
        profiles = solve_slab_modes(layers, omega=1.0, units=NAT, with_group_velocity=False,
                                    points_per_layer=800)
        assert profiles, "thick guiding core must support modes"
        n_eff = profiles[0].k_eff / 1.0
        oracle = symmetric_slab_fundamental_neff(1.45, 2.0, 30.0, 1.0)
        assert n_eff == pytest.approx(oracle, abs=1e-9)
        assert n_eff > 1.99  # a core much thicker than the wavelength fills the mode

    def test_effective_index_between_cladding_and_core(self):
        layers = [(6.0, 1.45), (4.0, 2.0), (6.0, 1.45)]
        for p in solve_slab_modes(layers, omega=1.0, units=NAT, with_group_velocity=False,
                                  points_per_layer=500):
            assert 1.45 < p.k_eff < 2.0

    def test_no_guiding_returns_empty(self):
        assert solve_slab_modes([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], omega=1.0, units=NAT) == []

    def test_modes_normalized(self):
        layers = [(6.0, 1.45), (4.0, 2.0), (6.0, 1.45)]
        for p in solve_slab_modes(layers, omega=1.0, units=NAT, points_per_layer=2000):
            assert normalization_integral(p, 1.0, NAT) == pytest.approx(1.0, abs=1e-8)

    def test_field_at_interfaces_is_the_transfer_walk(self):
        # samples exactly on an inner interface belong to the layer they open
        stack = SlabStack.from_layers([(5, 1.0), (4, 2.0), (1.5, 1.6), (3, 2.2), (5, 1.3)])
        solutions = _solve_slab_betas(stack, 1.0, NAT)
        assert len(solutions) > 1
        for sol in solutions:
            np.testing.assert_array_equal(sol.field(stack.interfaces()),
                                          [e for e, _ in sol.boundary_values])

    def test_five_layer_profiles_are_deterministic(self):
        layers = [(5, 1.0), (4, 2.0), (1.5, 1.6), (3, 2.2), (5, 1.3)]
        runs = [solve_slab_modes(layers, omega=1.0, units=NAT, with_group_velocity=False,
                                 points_per_layer=800) for _ in range(2)]
        for p, q in zip(*runs):
            np.testing.assert_array_equal(p.d, q.d)
            assert np.all(np.isfinite(p.d))

    def test_grid_refinement_convergence(self):
        stack = SlabStack.from_layers([(6.0, 1.45), (4.0, 2.0), (6.0, 1.45)])
        sol = _solve_slab_betas(stack, 1.0, NAT)[0]
        coarse = slab_profile(sol, NAT, points_per_layer=32000, normalized=False)
        fine = slab_profile(sol, NAT, points_per_layer=64000, normalized=False)
        i_coarse = normalization_integral(coarse, 1.0, NAT)
        i_fine = normalization_integral(fine, 1.0, NAT)
        assert abs(i_coarse - i_fine) < 1e-8 * i_fine

    def test_profile_decays_in_cladding(self):
        layers = [(6.0, 1.45), (4.0, 2.0), (6.0, 1.45)]
        p = solve_slab_modes(layers, omega=1.0, units=NAT, with_group_velocity=False)[0]
        edge = np.abs(p.d[0])
        centre = np.max(np.abs(p.d))
        assert edge < 1e-6 * centre

    def test_group_velocity_matches_dispersion_oracle(self):
        layers = [(6.0, 1.45), (4.0, 2.0), (6.0, 1.45)]
        p = solve_slab_modes(layers, omega=1.0, units=NAT)[0]
        h = 1e-4
        beta_plus = symmetric_slab_fundamental_neff(1.45, 2.0, 4.0, 1 + h) * (1 + h)
        beta_minus = symmetric_slab_fundamental_neff(1.45, 2.0, 4.0, 1 - h) * (1 - h)
        vg_oracle = 2 * h / (beta_plus - beta_minus)
        assert p.vg == pytest.approx(vg_oracle, rel=1e-6)
        assert p.vg < p.vp

    def test_layers_from_json_shape(self):
        stack = SlabStack.from_layers([{"d": 1.0, "n": 1.45}, {"d": 0.5, "n": 2.0},
                                       {"d": 1.0, "n": 1.45}])
        assert stack.n_core == 2.0
        assert stack.n_cladding == 1.45

    def test_stack_from_json_file(self, tmp_path):
        import json

        path = tmp_path / "stack.json"
        path.write_text(json.dumps({"layers": [
            {"d": 1.0, "n": 1.45}, {"d": 0.5, "n": 2.0}, {"d": 1.0, "n": 1.45}]}))
        stack = SlabStack.from_json(path)
        assert stack.n_core == 2.0

    @pytest.mark.parametrize("layers, omega, units", ORACLE_STACKS,
                             ids=["three-layer", "five-layer", "thick-core", "omega-1.3",
                                  "thin-core", "si"])
    def test_matches_the_numpy_oracle(self, layers, omega, units):
        ref = slab_oracle(layers, omega, units, points_per_layer=500)
        solutions = _solve_slab_betas(SlabStack.from_layers(layers), omega, units)
        assert ref and len(solutions) == len(ref)
        for (beta, x, weights, index, d, b), sol in zip(ref, solutions):
            # the bisection's own tolerance, 1e-14 + 1e-15 |beta|
            assert abs(sol.beta - beta) <= 1e-14 + 1e-15 * abs(beta)
            p = slab_profile(sol, units, points_per_layer=500, normalized=False)
            assert (p.x, p.weights, p.index) == (tuple(x), tuple(weights), tuple(index))
            assert np.max(np.abs(np.array(p.d) - d)) <= 1e-14 * np.max(np.abs(d))
            assert np.max(np.abs(np.array(p.b) - b)) <= 1e-14 * np.max(np.abs(b))

    @pytest.mark.parametrize("layers, message", [
        ([(6, 1.45), (-4, 2.0), (6, 1.45)], "layer 1: thickness"),
        ([(6, 1.45), (float("inf"), 2.0), (6, 1.45)], "layer 1: thickness"),
        ([(6, 1.45), (float("nan"), 2.0), (6, 1.45)], "layer 1: thickness"),
        ([(6, 1.45), (4, float("nan")), (6, 1.45)], "layer 1: refractive index"),
        ([(6, 1.45), (4, float("inf")), (6, 1.45)], "layer 1: refractive index"),
        ([(6, 1.45), (4, 2.0), (0, 1.45)], "layer 2: thickness"),
        ([(6, 1.45), (4, 2.0), (600, 1.45), (4, 2.0), (6, 1.45)],
         "layer 2: the field is evanescent"),
    ], ids=["negative-thickness", "infinite-thickness", "nan-thickness", "nan-index",
            "infinite-index", "zero-cladding-thickness", "uncrossable-barrier"])
    def test_bad_layer_rejected_naming_it(self, layers, message):
        # a bad layer once went unchecked: the first five of these returned an
        # empty mode list, which reads as an unguided stack, and cosh overflowed
        # across the 600-wide barrier between the two cores of the last one
        with pytest.raises(ValueError, match=message):
            solve_slab_modes(layers, omega=1.0, units=NAT)
