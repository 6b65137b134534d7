"""Output checks for the dquant benchmark, computed apart from the program.

Every reference here is a closed form or a method property written out
from the physics (see README.md, "Output checks"): nothing is compared
with a stored copy of an earlier run, and nothing imports dquant. A
failed check raises CheckError with a message naming the quantity.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

#: unit roundoff of IEEE double precision
U = 2.0**-53
#: relative error of the 12-significant-digit serializer (%.12e keeps 13 digits)
ROUND12 = 5e-13
#: the acceptance threshold the program and its README state for D-route residuals
RESIDUAL_TOL = 1e-10
#: accumulated rounding of expm_multiply's error-controlled steps, per unit of <n>
EXPM_TOL = 1e-11

# Fixed inputs of `dquant compare`, which takes no medium on the command line:
# the coefficient route builds a pure order-n medium with these values, and
# the dynamical routes use theta = 0.05 with the cutoffs and times below.
COMPARE_CHI1 = 0.5
COMPARE_CHI_N = 0.37
COMPARE_THETA = 0.05


class CheckError(AssertionError):
    """An output disagreed with its independent reference."""


def _close(name: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckError(f"{name}: got {got!r}, expected {want!r} within {tol:.3g}")


def _require(name: str, ok: bool) -> None:
    if not ok:
        raise CheckError(name)


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"unreadable output {path.name}: {exc}") from None


def _rows(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise CheckError(f"unreadable output {path.name}: {exc}") from None


# ---------------------------------------------------------------------------
# coefficient-ladder
# ---------------------------------------------------------------------------


def order_n_coefficient(n: int, chi1: float = COMPARE_CHI1, chi_n: float = COMPARE_CHI_N) -> float:
    """Resonant D-route coefficient of a pure order-n medium, in closed form.

    eta_n n! L (2 pi)^(-(n+1)/2) prod_j sqrt(hbar omega_j / 2) sqrt(w) d_j with
    eta_n = -eps0 chi_n eta1^(n+1), natural units, box L = 2 pi (w = 1),
    signal modes m = 1..n, pump m = n(n+1)/2, omega = |k| / n_index and the
    flat profile amplitude d = n_index.
    """
    n_index = math.sqrt(1.0 + chi1)
    eta1 = 1.0 / (1.0 + chi1)
    eta_n = -chi_n * eta1 ** (n + 1)
    prod = 1.0
    for m in list(range(1, n + 1)) + [n * (n + 1) // 2]:
        prod *= math.sqrt((m / n_index) / 2.0) * n_index
    l_box = 2 * math.pi
    return eta_n * math.factorial(n) * l_box * (2 * math.pi) ** (-(n + 1) / 2) * prod


def check_coefficient(n: int, out: Path) -> None:
    doc = _load(out / "comparison.json")
    _require("observable is coefficient", doc.get("observable") == "coefficient")
    _require(f"order is {n}", doc.get("order") == n)
    _close("ratio", doc["ratio"], -n, 1e-12 * n)
    _close("expected_ratio", doc["expected_ratio"], -n, 0.0)
    want = order_n_coefficient(n)
    # D^(n+1) sums (n+1)! equal contributions of n+1 factors each
    tol = (ROUND12 + 4 * math.factorial(n + 1) * U) * abs(want)
    _close("value_correct", doc["value_correct"], want, tol)
    _close("value_wrong", doc["value_wrong"], -n * want, n * tol)
    _require("passed", doc.get("passed") is True)


# ---------------------------------------------------------------------------
# maxwell-audit
# ---------------------------------------------------------------------------


def _series_inverse(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """Coefficients 0..order of 1 / sum_i coeffs[i] x^i."""
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / coeffs[0]
    for k in range(1, order + 1):
        acc = sum((coeffs[i] * inv[k - i] for i in range(1, min(k, len(coeffs) - 1) + 1)),
                  Fraction(0))
        inv[k] = -acc / coeffs[0]
    return inv


def _series_power(coeffs: list[Fraction], power: int, order: int) -> list[Fraction]:
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(power):
        out = [sum((out[i] * coeffs[k - i] for i in range(k + 1)), Fraction(0))
               for k in range(order + 1)]
    return out


def lagrange_reversion(a: list[Fraction], max_order: int) -> list[Fraction]:
    """Inverse series coefficients eta_1..eta_M of D = sum_n a_n E^n, exactly.

    Lagrange inversion: eta_m = (1/m) [x^(m-1)] (x / f(x))^m, with
    f(x)/x = a_1 + a_2 x + ... . This is a different method from the
    program's order-by-order composition.
    """
    g = list(a) + [Fraction(0)] * max_order
    h = _series_inverse(g[: max_order + 1], max_order)
    return [_series_power(h, m, m - 1)[m - 1] / m for m in range(1, max_order + 1)]


def check_invert(chis: list[float], out: Path) -> None:
    """eta and gamma tables against the exact reversion of D(E).

    The reference runs in exact rationals from the same binary chi values.
    The bound on the program's rounding is taken from the dominating series:
    reverting a_1 E - sum |a_n| E^n gives, order by order, the sum of the
    magnitudes of every monomial in the signed eta_m.
    """
    top = max([1] + [n for n, c in enumerate(chis, start=1) if c != 0.0])
    max_order = max(2, top)
    a = [Fraction(1) + Fraction(chis[0])] + [Fraction(c) for c in chis[1:]]
    a += [Fraction(0)] * (max_order - len(a))
    exact = lagrange_reversion(a, max_order)
    dominant = lagrange_reversion([a[0]] + [-abs(x) for x in a[1:]], max_order)
    doc = _load(out / "inverse_tables.json")
    _require(f"max_order is {max_order}", doc.get("max_order") == max_order)
    _require("dim is 1", doc.get("dim") == 1)
    _require("eta orders", sorted(doc["eta"], key=int) == [str(m) for m in range(1, max_order + 1)])
    for m in range(1, max_order + 1):
        eta = float(exact[m - 1])
        scale = float(dominant[m - 1])
        tol = ROUND12 * abs(eta) + 64 * U * scale
        (got_eta,) = doc["eta"][str(m)]
        (got_gamma,) = doc["gamma"][str(m)]
        _close(f"eta{m}", got_eta, eta, tol)
        if m == 1:
            _close("gamma1", got_gamma, 1.0 - eta, ROUND12 * abs(1.0 - eta) + 64 * U * (1.0 + scale))
        else:
            _close(f"gamma{m}", got_gamma, -eta, tol)


def check_verify(order: int, modes: int, out: Path) -> None:
    """Faraday/Ampere reports of both schemes on a +/-1..modes basis.

    The D route holds both laws to the residual threshold with matching
    degrees; its Faraday degree is the medium's order N. Ampere involves
    only commuting D-polynomials besides B^2, so it holds on both routes
    at degree 1. The linear-E Faraday check holds on a linear medium and
    fails on a nonlinear one with degree N against 1.
    """
    retained = sorted(str(m) for m in range(-modes, modes + 1) if m != 0)
    for scheme in ("D-based", "E-linear-wrong"):
        for law in ("faraday", "ampere"):
            rep = _load(out / f"verify_{law}_{scheme}.json")
            tag = f"{law}/{scheme}"
            _require(f"{tag} residual keys", sorted(rep["residuals"]) == retained)
            wrong_faraday = scheme == "E-linear-wrong" and law == "faraday"
            if wrong_faraday and order > 1:
                _require(f"{tag} degrees {order} vs 1",
                         (rep["degree_lhs"], rep["degree_rhs"]) == (order, 1))
                _require(f"{tag} residual above threshold",
                         max(rep["residuals"].values()) > RESIDUAL_TOL)
                _require(f"{tag} reported failing", rep["passed"] is False)
                continue
            want = order if law == "faraday" else 1
            _require(f"{tag} degrees {want} vs {want}",
                     (rep["degree_lhs"], rep["degree_rhs"]) == (want, want))
            _require(f"{tag} residuals below {RESIDUAL_TOL}",
                     all(r < RESIDUAL_TOL for r in rep["residuals"].values()))
            _require(f"{tag} reported passing", rep["passed"] is True)


# ---------------------------------------------------------------------------
# three-wave-dynamics
# ---------------------------------------------------------------------------


def three_wave_theta(chi1: float, chi2: float, length: float) -> float:
    """theta = 2 L sqrt(prod hbar omega_j / 4 pi) eta2 d_A d_B d_C.

    Modes m = 1, 2, 3 on the 2 pi box, omega = k / n_index, flat profile
    amplitude d = n_index, eta2 = -eps0 chi2 eta1^3, natural units.
    """
    n_index = math.sqrt(1.0 + chi1)
    eta2 = -chi2 / (1.0 + chi1) ** 3
    omegas = [k / n_index for k in (1, 2, 3)]
    return (2.0 * length * math.sqrt(math.prod(w / (4 * math.pi) for w in omegas))
            * eta2 * n_index**3)


def sinc2(x: float) -> float:
    return 1.0 if x == 0.0 else (math.sin(x) / x) ** 2


def check_phasematch(length: float, points: int, dk_max: float, out: Path) -> None:
    rows = _rows(out / "phase_matching.csv")
    _require(f"{points} phase-matching rows", len(rows) == points)
    for i, row in enumerate(rows):
        dk = -dk_max + 2 * dk_max * i / (points - 1)
        _close(f"delta_k[{i}]", float(row["delta_k"]), dk, ROUND12 * abs(dk) + 16 * U * dk_max)
        want = sinc2(dk * length / 2.0)
        _close(f"phi2[{i}]", float(row["phi2"]), want, ROUND12 * want + 1e-14)


def squeezing_tolerance(rate: float, t: float, n_max: int) -> float:
    """Allowed |<n_A> - sinh^2(rate t)| at cutoff n_max.

    The squeezed vacuum puts population lambda^(n_max-1), lambda = tanh^2,
    on |n, n> with n >= n_max - 1; the truncated chain differs from the
    untruncated one only through amplitude that reaches the cutoff, which
    moves <n> by at most about (n_max + <n>) times that population. A
    factor 10 covers the amplitude that returns from the edge. Rounding of
    the exponential action and of the serializer adds the last two terms.
    """
    v = math.sinh(rate * t) ** 2
    edge = math.tanh(rate * t) ** (2 * (n_max - 1))
    return 10 * (n_max + v) * edge + EXPM_TOL * (1 + v) + ROUND12 * v


def _sweep(out: Path, name: str, rates: dict, t_final: float, steps: int, law, tol) -> None:
    """Each (t, observable, scheme) row against law(rate * t), rows alternating correct/wrong."""
    rows = _rows(out / name)
    _require(f"{name} has {2 * (steps + 1)} rows", len(rows) == 2 * (steps + 1))
    for i, row in enumerate(rows):
        t = t_final * (i // 2) / steps
        _close(f"{name} t[{i}]", float(row["t"]), t, ROUND12 * t + 4 * U * t_final)
        scheme = row["scheme"]
        _require(f"{name} scheme[{i}]", scheme == ("correct", "wrong")[i % 2])
        rate = rates[scheme]
        value = float(row["observable"])
        _close(f"{name} {scheme} at t={t:.6g}", value, law(rate * t), tol(rate, t))


def _fitted_r_tolerance(rate: float, t_final: float, steps: int, n_max: int) -> float:
    """Bound on the program's fitted r = T * sum t asinh(sqrt(n)) / sum t^2.

    Each sample's allowed error dn moves asinh(sqrt(n)) by at most
    dn / (2 sqrt(n (1 + n))); the least-squares slope through the origin
    is a t-weighted mean of those.
    """
    ts = [t_final * i / steps for i in range(1, steps + 1)]
    num = 0.0
    for t in ts:
        v = math.sinh(rate * t) ** 2
        num += t * squeezing_tolerance(rate, t, n_max) / (2 * math.sqrt(v * (1 + v)))
    return t_final * num / sum(t * t for t in ts) + ROUND12 * rate * t_final


def check_interaction(theta: float, out: Path) -> None:
    doc = _load(out / "interaction.json")
    tol = ROUND12 * abs(theta) + 64 * U * abs(theta)
    _close("theta.re", doc["theta"]["re"], theta, tol)
    _close("theta.im", doc["theta"]["im"], 0.0, 0.0)
    _close("delta_k", doc["delta_k"], 0.0, 0.0)
    _close("phi", doc["phi"], 1.0, 0.0)
    _close("quoted ratio", doc["ratio"], -2.0, 0.0)


def check_spdc(theta: float, t_final: float, n_max: int, steps: int, out: Path) -> None:
    check_interaction(theta, out)
    g = abs(theta)
    rates = {"correct": g, "wrong": 2 * g}
    _sweep(out, "spdc_sweep.csv", rates, t_final, steps, lambda x: math.sinh(x) ** 2,
           lambda rate, t: squeezing_tolerance(rate, t, n_max))
    res = _load(out / "spdc_result.json")
    _require("spdc truncation_safe", res["truncation_safe"] is True)
    tol_c = _fitted_r_tolerance(g, t_final, steps, n_max)
    tol_w = _fitted_r_tolerance(2 * g, t_final, steps, n_max)
    _close("r_correct", res["r_correct"], g * t_final, tol_c)
    _close("r_wrong", res["r_wrong"], 2 * g * t_final, tol_w)
    r_c = g * t_final
    _close("|ratio|", res["ratio"], 2.0, 2.0 * (tol_c / r_c + tol_w / (2 * r_c)) + ROUND12 * 2)


def conversion_tolerance(p: float) -> float:
    """The beamsplitter keeps |1,0> in the one-photon sector: no truncation."""
    return EXPM_TOL + ROUND12 * p


def check_convert(theta: float, t_final: float, steps: int, out: Path) -> None:
    check_interaction(theta, out)
    g = abs(theta)
    rates = {"correct": g, "wrong": 2 * g}
    _sweep(out, "conversion_sweep.csv", rates, t_final, steps, lambda x: math.sin(x) ** 2,
           lambda rate, t: conversion_tolerance(math.sin(rate * t) ** 2))
    res = _load(out / "conversion_result.json")
    _require("convert truncation_safe", res["truncation_safe"] is True)
    p_c = math.sin(g * t_final) ** 2
    p_w = math.sin(2 * g * t_final) ** 2
    _close("p_correct", res["p_correct"], p_c, conversion_tolerance(p_c))
    _close("p_wrong", res["p_wrong"], p_w, conversion_tolerance(p_w))
    rel = conversion_tolerance(p_c) / p_c + conversion_tolerance(p_w) / p_w
    _close("conversion ratio", res["ratio"], p_w / p_c, rel * p_w / p_c + ROUND12 * p_w / p_c)


def check_compare_squeezing(out: Path) -> None:
    """compare --observable squeezing: g = 0.05, T = 0.2 / g, cutoff 16, 8 steps."""
    doc = _load(out / "comparison.json")
    g, t_final, n_max, steps = COMPARE_THETA, 0.2 / COMPARE_THETA, 16, 8
    tol_c = _fitted_r_tolerance(g, t_final, steps, n_max)
    tol_w = _fitted_r_tolerance(2 * g, t_final, steps, n_max)
    _close("value_correct", doc["value_correct"], g * t_final, tol_c)
    _close("value_wrong", doc["value_wrong"], 2 * g * t_final, tol_w)
    _close("ratio", doc["ratio"], 2.0, 2.0 * (tol_c / (g * t_final) + tol_w / (2 * g * t_final)))
    _require("passed", doc.get("passed") is True)


def check_compare_conversion(out: Path) -> None:
    """compare --observable conversion: g = 0.05, T = 0.01 / g, cutoff 4."""
    doc = _load(out / "comparison.json")
    gt = 0.01
    p_c, p_w = math.sin(gt) ** 2, math.sin(2 * gt) ** 2
    _close("value_correct", doc["value_correct"], p_c, conversion_tolerance(p_c))
    _close("value_wrong", doc["value_wrong"], p_w, conversion_tolerance(p_w))
    rel = conversion_tolerance(p_c) / p_c + conversion_tolerance(p_w) / p_w
    _close("ratio", doc["ratio"], p_w / p_c, rel * p_w / p_c)
    _require("passed", doc.get("passed") is True)
