"""numpy references for the constitutive-series algebra of ``dquant.susceptibility``.

The package reverts a scalar series in plain Python; this module does the
same algebra with ``np.linalg.inv`` and ``np.einsum`` on each coefficient
shaped as a rank-(n+1) tensor of shape (1,) * (n + 1), so the two can be
compared bit for bit. It also holds the closed forms and the series
evaluation D(E), E(D) that the inversion tests sample.
"""

import numpy as np


def array(value: float, order: int) -> np.ndarray:
    """The order-``order`` coefficient ``value`` shaped (1,) * (order + 1)."""
    return np.reshape(value, (1,) * (order + 1))


def eta2_from_chi2(chi2: float, eta1: float, units) -> float:
    """eta2_jnp = -eps0 * eta1_jk chi2_klm eta1_ln eta1_mp."""
    e1 = array(eta1, 1)
    return (-units.eps0 * np.einsum("jk,klm,ln,mp->jnp", e1, array(chi2, 2), e1, e1)).item()


def eta_from_gamma(gammas, units) -> list[float]:
    """Inverse of ``gamma_from_eta``: eta1 = (1 - gamma1) / eps0, eta_n = -gamma_n / eps0."""
    return [(1.0 - gammas[0]) / units.eps0] + [-g / units.eps0 for g in gammas[1:]]


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _contract_series_term(f_n, parts):
    """Contract f_n (indices i, j1..jn) with one lower-order tensor per slot j."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    sub_f, out, subs, pos = "a", "a", [], 1
    for g in parts:
        j, alphas = letters[pos], letters[pos + 1:pos + g.ndim]
        pos += g.ndim
        sub_f += j
        subs.append(j + alphas)
        out += alphas
    return np.einsum(sub_f + "," + ",".join(subs) + "->" + out, f_n, *parts)


def invert_series(medium, max_order) -> list[np.ndarray]:
    """eta_1..eta_max_order as arrays, by np.linalg.inv and np.einsum."""
    units = medium.units
    eta1 = np.linalg.inv(np.eye(1) + array(medium.chi(1), 1)) / units.eps0
    g = {1: eta1}
    for m in range(2, max_order + 1):
        total = np.zeros((1,) * (m + 1))
        for n in range(2, min(m, len(medium.chis)) + 1):
            chi_n = medium.chi(n)
            if chi_n == 0.0:
                continue
            f_n = units.eps0 * array(chi_n, n)
            for comp in _compositions(m, n):
                total += _contract_series_term(f_n, [g[t] for t in comp])
        g[m] = -np.einsum("ij,j...->i...", eta1, total)
    return [g[m] for m in range(1, max_order + 1)]


def _apply_series(coefficients, values):
    """Evaluate sum_n c_n v^n on shape (samples, 1) inputs."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return sum(c * values**n for n, c in enumerate(coefficients, start=1))


def displacement_from_field(medium, e_values):
    """D(E) = eps0 [E + chi1 E + chi2 E^2 + ...] on (samples, 1) sample values."""
    e_values = np.atleast_2d(np.asarray(e_values, dtype=float))
    return medium.units.eps0 * (e_values + _apply_series(medium.chis, e_values))


def field_from_displacement(etas, d_values):
    """The truncated series E(D) = sum eta_n D^n on (samples, 1) sample values."""
    return _apply_series(etas, d_values)
