"""LAPACK oracles for the pure-Python eigensolver: block evolution by ``eigh``, and
chains by ``stemr``.

``eigh_states`` is the evolution ``dquant.dynamics.evolve`` made with
numpy: it takes the same sector walk and chains, makes each chain the
dense Hermitian matrix with the walk's diagonal, its subdiagonal and that
subdiagonal's conjugate above, diagonalizes it with ``numpy.linalg.eigh``
and forms every sample as psi0 + V[-2i sin(x/2) exp(-ix/2) * V^dag psi0],
x = w t / hbar. numpy knows nothing of a chain's chirality.

``stemr_eigensystem`` diagonalizes the real form of a chain by scipy's
``eigh_tridiagonal`` with LAPACK ``stemr``: multiple relatively robust
representations, the method the solver uses on chiral chains, in
compiled code. It sits beside ``eigh``, not in its place.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from dquant.dynamics import _sector


def chain_matrix(diag, sub):
    """The dense Hermitian tridiagonal matrix with real ``diag`` and subdiagonal ``sub``."""
    sub = np.asarray(sub, dtype=complex)
    return np.diag(np.asarray(diag, dtype=complex)) + np.diag(sub, -1) + np.diag(sub.conj(), 1)


def eigh_states(h, space, psi0, times, hbar=1.0):
    """(sector occupations, (len(times), d_S) array of states) of exp(-i H t / hbar) psi0."""
    support = [tuple(n) for n, amp in psi0.items() if amp]
    occs, chains = _sector(h, space, support)
    psi0_s = np.array([psi0.get(n, 0.0) for n in occs], dtype=complex)
    times = np.asarray(times, dtype=float)
    states = np.empty((times.size, len(occs)), dtype=complex)
    for sel, diag, sub in chains:
        w, v = np.linalg.eigh(chain_matrix(diag, sub))
        x = np.outer(times, w / hbar)
        phase = -2j * np.sin(x / 2) * np.exp(-0.5j * x)
        p0 = psi0_s[sel]
        states[:, sel] = p0 + (phase * (v.conj().T @ p0)) @ v.T
    return occs, states


def stemr_eigensystem(diag, sub):
    """(ascending eigenvalues, eigenvectors as columns) of the real tridiagonal
    (diag, |sub|), the form the solver's vectors belong to, by LAPACK ``stemr``."""
    return eigh_tridiagonal(np.asarray(diag, dtype=float), np.abs(np.asarray(sub, dtype=complex)),
                            lapack_driver="stemr")
