"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s tests/test_acceptance.py``
to see them inline.
"""

from math import pi, sqrt

import numpy as np
from numpy.polynomial import Polynomial
from scipy.integrate import quad

from dquant.dynamics import (
    EvolutionConfig,
    FockSpace,
    evolve,
    frequency_conversion,
    occupation_expectation,
    spdc_squeezing,
    two_mode_squeezer,
)
from dquant.hamiltonian import pure_order_modeset, scheme_resonant_coefficients
from dquant.maxwell import verify_routes
from dquant.modes import make_uniform_medium_modes, sinc
from dquant.susceptibility import MediumSpec, invert_series
from dquant.units import UnitSystem
from tensor_oracle import displacement_from_field, eta2_from_chi2, field_from_displacement

NAT = UnitSystem()


def _report(num: int, ok: bool, text: str):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def _three_wave(chi1, chi2):
    """Each scheme's coefficient of a_A^dag a_B^dag a_C on the CLI's matched triple."""
    ms, powers = pure_order_modeset(2, sqrt(1.0 + chi1), NAT)
    medium = MediumSpec([chi1, chi2])
    return scheme_resonant_coefficients(ms, medium, powers, ms.l_box)


def test_criterion_1_prefactor_discrepancy():
    built = _three_wave(0.3, 0.6)
    ok = abs(built["E-linear-wrong"] / built["D-based"] - (-2.0)) < 1e-12
    for n in range(3, 11):
        # a pure chi^n medium, n signal modes and their matched pump
        medium = MediumSpec([0.5] + [0.0] * (n - 2) + [0.37])
        ms, monomial = pure_order_modeset(n, sqrt(1.5), NAT)
        built = scheme_resonant_coefficients(ms, medium, monomial, ms.l_box)
        ok = ok and abs(built["E-linear-wrong"] / built["D-based"] - (-n)) < 1e-12 * n
    _report(1, ok, "wrong/correct = -2 for chi2, -n for pure chi^n up to n=10 (1e-12 n)")


def test_criterion_2_resolution_identity():
    built = _three_wave(0.4, 0.5)
    # E-based-corrected is the wrong term plus the quadratic-E correction
    ok = abs(built["E-based-corrected"] - built["D-based"]) < 1e-12
    _report(2, ok, "wrong + quadratic-E correction = correct, resonant coefficient 1e-12")


def test_criterion_2_resolution_identity_on_random_media():
    rng = np.random.default_rng(20261020)
    ok = True
    for chi1, chi2 in zip(rng.uniform(0.0, 5.0, 100), rng.uniform(-1.0, 1.0, 100)):
        built = _three_wave(chi1, chi2)
        ok = ok and abs(built["E-based-corrected"] / built["D-based"] - 1.0) < 1e-12
    _report(2, ok, "corrected/correct = 1 to 1e-12 on 100 random (chi1, chi2) media")


def test_criterion_3_maxwell_contradiction():
    medium2 = MediumSpec([0.5, 0.3])
    ms4 = make_uniform_medium_modes(sqrt(1.5), 2 * pi, [-2, -1, 1, 2], NAT)
    reports = verify_routes(ms4, medium2)
    wrong = reports["E-linear-wrong"][0]
    good_f, good_a = reports["D-based"]
    ok = (wrong.degree_lhs == 2 and wrong.degree_rhs == 1 and not wrong.passed)
    ok = ok and good_f.max_residual < 1e-10 and good_a.max_residual < 1e-10
    medium1 = MediumSpec([0.5])
    ms1 = make_uniform_medium_modes(sqrt(1.5), 2 * pi, [-2, -1, 1, 2], NAT)
    for faraday, _ in verify_routes(ms1, medium1).values():
        ok = ok and faraday.passed
    _report(3, ok, "N=2: E-linear degree 2 vs 1 and fails; D-based residuals < 1e-10; "
                   "N=1 both schemes pass")


def test_criterion_4_inverse_susceptibilities():
    ok = True
    # closed forms at orders 1 and 2
    medium = MediumSpec([3.0, 0.5])
    etas = invert_series(medium, 2)
    eta1 = 1.0 / (NAT.eps0 * (1.0 + medium.chi(1)))
    eta2 = eta2_from_chi2(medium.chi(2), eta1, NAT)
    ok = ok and abs(etas[0] - eta1) < 1e-12
    ok = ok and abs(etas[1] - eta2) < 1e-12
    # numeric round-trip composition on 100 random scalar media
    rng = np.random.default_rng(20260810)
    count = 0
    while count < 100:
        chi1 = rng.uniform(-5.0, 5.0)
        if abs(1.0 + chi1) < 0.5:
            continue
        chi2, chi3 = rng.uniform(-1.0, 1.0, size=2)
        count += 1
        m = MediumSpec([chi1, chi2, chi3])
        es = invert_series(m, 3)
        e_of_d = Polynomial([0.0] + es)
        d_of_e = Polynomial([0.0, 1.0 + chi1, chi2, chi3])
        comp = d_of_e(e_of_d)
        ok = ok and abs(comp.coef[1] - 1.0) < 1e-8 and np.all(np.abs(comp.coef[2:4]) < 1e-8)
        grid = rng.uniform(-1e-3, 1e-3, size=(5, 1))
        back = displacement_from_field(m, field_from_displacement(es, grid))
        ok = ok and np.max(np.abs(back - grid)) < 1e-8
    _report(4, ok, "closed forms to 1e-12; round-trip oracle to 1e-8 on 100 random media")


def _observable_ratios_ok(ratio):
    """Squeezing ratio 2 (1e-4) and small-t conversion ratio 4 (1e-3) at route ratio ``ratio``."""
    cfg = EvolutionConfig(n_max=16, t_final=4.0, steps=8, pump=1.0)  # r = 0.2
    squeeze = spdc_squeezing(0.05, ratio, cfg)
    ok = abs(abs(squeeze.ratio) - 2.0) < 1e-4 and squeeze.truncation_safe
    conv_cfg = EvolutionConfig(n_max=4, t_final=0.2, steps=4, pump=1.0)  # g t = 0.01
    conv = frequency_conversion(0.05, ratio, conv_cfg)
    return ok and abs(conv.ratio - 4.0) < 1e-3


def test_criterion_5_observable_ratios():
    ok = _observable_ratios_ok(-2.0)
    _report(5, ok, "squeezing ratio 2.0 +/- 1e-4; small-t conversion ratio 4.0 +/- 1e-3")


def test_criterion_5_observable_ratios_from_the_built_coefficients():
    # the route ratio measured on the triple spdc and convert build (the
    # CLI's default medium chi (0, 0.4)), not quoted
    built = _three_wave(0.0, 0.4)
    ok = _observable_ratios_ok((built["E-linear-wrong"] / built["D-based"]).real)
    _report(5, ok, "built route ratio: squeezing ratio 2.0 +/- 1e-4; small-t conversion "
                   "ratio 4.0 +/- 1e-3")


def test_criterion_6_dynamics_sanity():
    g, t = 0.05, 4.0  # r = 0.2
    space = FockSpace(modes=(0, 1), cutoff=16)
    res = evolve(two_mode_squeezer(g), space, space.vacuum(), np.linspace(0.0, t, 9))
    ok = res.norm_drift < 1e-10 and res.energy_drift < 1e-10
    n_as = occupation_expectation(space, res, 0)
    for n_a, n_b in zip(n_as, occupation_expectation(space, res, 1)):
        ok = ok and abs(n_a - n_b) < 1e-8
    ts = res.times[1:]
    ys = np.arcsinh(np.sqrt(n_as[1:]))
    r_fit = float(np.dot(ts, ys) / np.dot(ts, ts)) * t
    ok = ok and abs(r_fit - g * t) < 1e-4
    _report(6, ok, "norm/energy drift < 1e-10; <n_A>=<n_B> to 1e-8; sinh^2 fit to 1e-4")


def test_criterion_7_normalization():
    # (v_p / v_g) |d|^2 / (eps0 n^2) over the unit cross-section, from the index the modes had
    n_index = 1.7
    v_p = v_g = NAT.c / n_index
    ms = make_uniform_medium_modes(n_index, 2 * pi, [-2, -1, 1, 2], NAT)
    ok = all(
        abs((v_p / v_g) * abs(m.d) ** 2 / (NAT.eps0 * n_index**2) - 1.0) < 1e-14
        for m in ms.modes
    )
    _report(7, ok, "uniform modes integrate to 1 exactly")


def test_criterion_8_phase_matching():
    ok = sinc(0.0) == 1.0 and sinc(pi) == 0.0
    length, dk = 2.0, pi / 2.0
    oracle = quad(lambda z: np.cos(dk * z) / length, -length / 2, length / 2)[0]
    ok = ok and abs(sinc(dk * length / 2) - 2 / pi) < 1e-12
    ok = ok and abs(sinc(dk * length / 2) - oracle) < 1e-12
    _report(8, ok, "Phi(0)=1 and Phi(pi)=0 exactly; Phi(pi/2)=2/pi to 1e-12 vs quadrature")
