"""The numpy slab solver: an oracle for the pure-Python ``dquant.slab``.

``slab_oracle`` is the guided-TE solution the package computed with numpy:
the same 1500-point scan of beta between the cladding and core wavenumbers,
bisected on the transfer walk's decay mismatch, then sampled on the
piecewise grid with duplicated interface points and analytic exponential
tails. It returns the roots and, for each, the unnormalized displacement
and induction samples d = eps0 n^2 E_y and b = mu0 omega d / beta.
"""

import numpy as np

from dquant.slab import _bisect


def _propagate_layer(e, ep, kappa_sq, t):
    """Advance (E, E') across one layer of thickness t."""
    if kappa_sq > 0:
        kap = np.sqrt(kappa_sq)
        c, s = np.cos(kap * t), np.sin(kap * t)
        return e * c + ep * s / kap, -e * kap * s + ep * c
    if kappa_sq < 0:
        gam = np.sqrt(-kappa_sq)
        c, s = np.cosh(gam * t), np.sinh(gam * t)
        return e * c + ep * s / gam, e * gam * s + ep * c
    return e + ep * t, ep


def _transfer_walk(beta, k0, t, n):
    """(E, E') at each interface, from the decaying left-cladding tail E = 1."""
    gamma_l = np.sqrt(beta**2 - (n[0] * k0) ** 2)
    values = [(1.0, gamma_l)]
    for thickness, index in zip(t[1:-1], n[1:-1]):
        values.append(_propagate_layer(*values[-1], (index * k0) ** 2 - beta**2, thickness))
    return values


def _mismatch(beta, k0, t, n):
    e, ep = _transfer_walk(beta, k0, t, n)[-1]
    return ep + np.sqrt(beta**2 - (n[-1] * k0) ** 2) * e


def field(x, beta, k0, t, n):
    """E_y(x); a sample on an inner interface belongs to the layer it opens."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    ifaces = np.concatenate([[0.0], np.cumsum(t[1:-1])])
    values = _transfer_walk(beta, k0, t, n)
    gamma_l = np.sqrt(beta**2 - (n[0] * k0) ** 2)
    gamma_r = np.sqrt(beta**2 - (n[-1] * k0) ** 2)
    left = x <= ifaces[0]
    out[left] = values[0][0] * np.exp(gamma_l * (x[left] - ifaces[0]))
    right = x >= ifaces[-1]
    out[right] = values[-1][0] * np.exp(-gamma_r * (x[right] - ifaces[-1]))
    for j, index in enumerate(n[1:-1]):
        sel = (x >= ifaces[j]) & (x < ifaces[j + 1])
        e0, ep0 = values[j]
        out[sel] = _propagate_layer(e0, ep0, (index * k0) ** 2 - beta**2, x[sel] - ifaces[j])[0]
    return out


def slab_grid(beta, k0, t, n, points_per_layer):
    """(x, weights, index) of the piecewise trapezoid grid."""
    ifaces = np.concatenate([[0.0], np.cumsum(t[1:-1])])
    tail_l = min(18.0 / np.sqrt(beta**2 - (n[0] * k0) ** 2), 1e4 / k0)
    tail_r = min(18.0 / np.sqrt(beta**2 - (n[-1] * k0) ** 2), 1e4 / k0)
    segments = [(ifaces[0] - tail_l, ifaces[0], n[0])]
    segments += [(ifaces[j], ifaces[j + 1], index) for j, index in enumerate(n[1:-1])]
    segments.append((ifaces[-1], ifaces[-1] + tail_r, n[-1]))
    xs, ws, ns = [], [], []
    for lo, hi, index in segments:
        grid = np.linspace(lo, hi, points_per_layer)
        h = grid[1] - grid[0]
        weights = np.full(points_per_layer, h)
        weights[0] = weights[-1] = h / 2
        xs.append(grid)
        ws.append(weights)
        ns.append(np.full(points_per_layer, index))
    return np.concatenate(xs), np.concatenate(ws), np.concatenate(ns)


def slab_oracle(layers, omega, units, points_per_layer):
    """[(beta, x, weights, index, d, b)] for each guided mode, fundamental first."""
    t = np.array([lay[0] for lay in layers], dtype=float)
    n = np.array([lay[1] for lay in layers], dtype=float)
    k0 = omega / units.c
    lo, hi = max(n[0], n[-1]) * k0, np.max(n[1:-1]) * k0
    if hi <= lo:
        return []
    margin = (hi - lo) * 1e-9
    betas = np.linspace(lo + margin, hi - margin, 1500)
    vals = np.array([_mismatch(b, k0, t, n) for b in betas])
    roots = []
    for i in range(len(betas) - 1):
        if vals[i] == 0.0:
            roots.append(betas[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(_bisect(lambda b: _mismatch(b, k0, t, n), betas[i], betas[i + 1]))
    modes = []
    for beta in sorted(roots, reverse=True):
        x, weights, index = slab_grid(beta, k0, t, n, points_per_layer)
        d = units.eps0 * index**2 * field(x, beta, k0, t, n)
        modes.append((beta, x, weights, index, d, units.mu0 * omega * d / beta))
    return modes
