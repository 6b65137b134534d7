"""Dense Kronecker-product matrices of bosonic polynomials.

An oracle for ``dquant.dynamics.to_matrix`` and the sector evolution
that is independent of their shared truncated-Fock rule: each term is the
Kronecker product, over modes, of powers of the truncated ladder matrices.
"""

import numpy as np


def kron_matrix(p, space):
    """Dense matrix of p in the truncated number basis of ``space``, built term by term."""
    total = np.zeros((space.dim, space.dim), dtype=complex)
    for key, coef in p.terms.items():
        powers = {m: (c, a) for m, c, a in key}
        mat = np.ones((1, 1))
        for m in space.modes:
            lower = np.diag(np.sqrt(np.arange(1, space.n_max(m) + 1)), k=1)
            cre, ann = powers.get(m, (0, 0))
            local = np.linalg.matrix_power(lower.T, cre) @ np.linalg.matrix_power(lower, ann)
            mat = np.kron(mat, local)
        total += coef * mat
    return total
