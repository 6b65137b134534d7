"""numpy references for the constitutive-series algebra of ``dquant.susceptibility``.

The package contracts flat tuples in plain Python; this module does the same
algebra with ``np.einsum`` on shaped arrays, as the package did before, so
the two can be compared: bit for bit at dim=1, to rounding at dim=3. It also
holds the closed forms and the series evaluation D(E), E(D) that the
inversion tests sample.
"""

from itertools import permutations

import numpy as np

from dquant.susceptibility import SusceptibilityTensor


def array(t: SusceptibilityTensor) -> np.ndarray:
    """The tensor's entries shaped (dim,) * (order + 1)."""
    return np.reshape(t.entries, (t.dim,) * (t.order + 1))


def eta2_from_chi2(chi2, eta1, units) -> SusceptibilityTensor:
    """eta2_jnp = -eps0 * eta1_jk chi2_klm eta1_ln eta1_mp."""
    if chi2.order != 2 or eta1.order != 1:
        raise ValueError("eta2_from_chi2 expects chi of order 2 and eta of order 1")
    if chi2.dim != eta1.dim:
        raise ValueError("dimension mismatch between chi2 and eta1")
    e1 = array(eta1)
    ent = -units.eps0 * np.einsum("jk,klm,ln,mp->jnp", e1, array(chi2), e1, e1)
    return SusceptibilityTensor(order=2, role="eta", dim=chi2.dim, entries=ent)


def eta_from_gamma(gamma, units) -> SusceptibilityTensor:
    """Inverse of ``gamma_from_eta``."""
    if gamma.role != "gamma":
        raise ValueError("eta_from_gamma expects a gamma tensor")
    if gamma.order == 1:
        ent = (np.eye(gamma.dim) - array(gamma)) / units.eps0
    else:
        ent = -array(gamma) / units.eps0
    return SusceptibilityTensor(order=gamma.order, role="eta", dim=gamma.dim, entries=ent)


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


def symmetrize_lower(arr):
    """Average over permutations of all indices but the first."""
    if arr.ndim <= 2 or arr.shape[0] == 1:
        return arr
    perms = list(permutations(range(1, arr.ndim)))
    acc = np.zeros_like(arr)
    for p in perms:
        acc += np.transpose(arr, (0,) + p)
    return acc / len(perms)


def invert_series(medium, max_order) -> list[np.ndarray]:
    """eta_1..eta_max_order as arrays, by np.linalg.inv and np.einsum."""
    units = medium.units
    dim = medium.dim
    eta1 = np.linalg.inv(np.eye(dim) + array(medium.chi(1))) / units.eps0
    g = {1: eta1}
    for m in range(2, max_order + 1):
        total = np.zeros((dim,) * (m + 1))
        for n in range(2, min(m, len(medium.tensors)) + 1):
            chi_n = medium.chi(n)
            if chi_n.is_zero():
                continue
            f_n = units.eps0 * array(chi_n)
            for comp in _compositions(m, n):
                total += _contract_series_term(f_n, [g[t] for t in comp])
        g[m] = symmetrize_lower(-np.einsum("ij,j...->i...", eta1, total))
    return [g[m] for m in range(1, max_order + 1)]


def _apply_series(tensors, values):
    """Evaluate sum_n T_n v^n on shape (samples, dim) inputs."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    total = np.zeros_like(values)
    for t in tensors:
        term = np.broadcast_to(array(t), (len(values),) + array(t).shape)
        for _ in range(t.order):
            term = np.einsum("s...j,sj->s...", term, values)
        total += term
    return total


def displacement_from_field(medium, e_values):
    """D(E) = eps0 [E + chi1 E + chi2 E^2 + ...] on (samples, dim) sample vectors."""
    e_values = np.atleast_2d(np.asarray(e_values, dtype=float))
    return medium.units.eps0 * (e_values + _apply_series(medium.tensors, e_values))


def field_from_displacement(etas, d_values):
    """The truncated series E(D) = sum eta_n D^n on (samples, dim) sample vectors."""
    return _apply_series(etas, d_values)

