"""Full-space Fock matrices and states: oracles for the sector evolution.

``dquant.dynamics`` never builds the full truncated basis: it walks the
sector a Hamiltonian reaches and keeps sector-sized states. The tests check
it against two full-space matrices built apart from its walk:

- ``kron_matrix``: each term is the Kronecker product, over modes, of
  powers of the truncated ladder matrices;
- ``to_matrix``: the sparse matrix of the vectorized truncated-Fock rule
  ``fock_transitions`` over every basis state.

``full_vector`` and ``full_states`` scatter sparse and sector-sized states
into the full row-major basis.
"""

from math import prod

import numpy as np
import scipy.sparse as sp


def dim(space):
    """Number of basis states of the truncated space."""
    return prod(space.shape)


def occupations(space):
    """(dim, n_modes) array of basis-state occupation numbers, row-major."""
    grids = np.meshgrid(*[np.arange(n) for n in space.shape], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def full_vector(psi, space):
    """A sparse state {occupation tuple: amplitude} as a full-space vector."""
    out = np.zeros(dim(space), dtype=complex)
    for occs, amp in psi.items():
        out[space.index(occs)] = amp
    return out


def full_states(res, space):
    """An evolution's sector-sized samples scattered into the full space."""
    out = np.zeros((len(res.states), dim(space)), dtype=complex)
    out[:, [space.index(n) for n in res.occupations]] = res.states
    return out


def kron_matrix(p, space):
    """Dense matrix of p in the truncated number basis of ``space``, built term by term."""
    total = np.zeros((dim(space), dim(space)), dtype=complex)
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


def fock_transitions(p, space, occ):
    """The nonzero matrix elements of p in the columns ``occ`` ((k, n_modes) occupations).

    A term ``coef (a^dag)^cre a^ann`` moves |n> to |n - ann + cre> when
    n >= ann in every mode and n - ann + cre stays within the cutoffs; it
    annihilates every other state. Returns, term after term, the positions in
    ``occ`` of the states moved, their targets' basis indices and the
    amplitudes coef <target| (a^dag)^cre a^ann |n>.
    """
    unknown = p.modes() - set(space.modes)
    if unknown:
        raise KeyError(f"polynomial uses modes {sorted(unknown)} absent from the space")
    shape = space.shape
    col = {m: i for i, m in enumerate(space.modes)}
    powers = np.zeros((len(p.terms), 2, len(shape)), dtype=int)  # (term, cre|ann, mode)
    for t, key in enumerate(p.terms):
        for m, c, a in key:
            powers[t, :, col[m]] = c, a
    cre, ann = powers[:, None, 0], powers[:, None, 1]
    low = occ - ann  # (term, state, mode)
    terms, src = ((low >= 0).all(axis=2) & (low + cre < shape).all(axis=2)).nonzero()
    low = low[terms, src]
    cre, ann = cre[terms, 0], ann[terms, 0]
    # sqrt(n! / low! * (low + cre)! / low!) per mode: a product of integers,
    # exact in floats below 2^53
    amp2 = np.ones(len(low))
    for j in range(powers.max(initial=0)):
        amp2 *= (np.where(j < ann, low + 1 + j, 1)
                 * np.where(j < cre, low + 1 + j, 1)).prod(axis=1, dtype=float)
    coefs = np.array(list(p.terms.values()), dtype=complex)
    return src, np.ravel_multi_index((low + cre).T, shape), coefs[terms] * np.sqrt(amp2)


def to_matrix(p, space):
    """Sparse matrix of p in the truncated number basis.

    Exact on the subspace whose occupations stay at least degree(p) below
    every cutoff; edge states feel the truncation (see :func:`fock_transitions`).
    """
    src, target, amp = fock_transitions(p, space, occupations(space))
    return sp.coo_matrix((amp, (target, src)), shape=(dim(space), dim(space))).tocsr()
