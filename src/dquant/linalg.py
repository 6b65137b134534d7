"""Pure-Python Hermitian chain eigensolver for the dynamics.

``eigh_tridiagonal`` diagonalizes a Hermitian chain, given as its diagonal
and subdiagonal:

- A diagonal phase makes it real symmetric.
- Implicit-QL sweeps give the eigenvalues of each unreduced piece: the
  chain splits where an off-diagonal is at most eps times its 1-norm.
- Inverse iteration gives the eigenvectors, as LAPACK ``dstein`` does: a
  pivoted tridiagonal LU per eigenvalue, and Gram-Schmidt against the
  earlier vectors of a cluster of close eigenvalues.

A chain with an exactly zero diagonal is chiral: its spectrum is symmetric
about 0, and the vector of -w is that of w with the odd sites negated. Its
lower half is then the mirror image of its upper half, values and vectors,
and inverse iteration runs for the upper half only, unless a cluster of
close eigenvalues reaches across 0.

The eigenvectors come out real, those of the real tridiagonal form; the
phase maps vectors between that form and the chain's basis.
"""

from __future__ import annotations

import random
from math import copysign, frexp, fsum, hypot, ldexp, sqrt
from operator import mul
from typing import Sequence

from .record import record

EPS = 2.0**-52
#: implicit-QL sweeps allowed per eigenvalue
QL_MAX_SWEEPS = 30
#: eigenvalues closer than this times the matrix 1-norm form a cluster,
#: whose eigenvectors inverse iteration keeps orthogonal to one another
CLUSTER_TOL = 1e-3
#: inverse iterations allowed per eigenvector, and the extra ones after its
#: growth test first passes (LAPACK dstein takes two; a second brings no
#: measurable gain in orthogonality or residual on the dynamics' chains)
INVERSE_MAX_ITERATIONS = 5
INVERSE_EXTRA_ITERATIONS = 1


@record
class Eigensystem:
    """A Hermitian chain A = U diag(values) U^dag with U = P Z.

    ``values`` ascend; ``vectors[k]`` is the real eigenvector Z[:, k] of the
    real symmetric tridiagonal form, and P is the diagonal ``phases`` that
    makes the chain real. ``mirrored`` says that the values pair as
    (w, -w) and that the vector of -w is that of w with its odd sites
    negated (see :func:`eigh_tridiagonal`).
    """

    values: tuple[float, ...]
    vectors: tuple[tuple[float, ...], ...]
    phases: tuple[complex, ...]
    mirrored: bool

    def to_tridiagonal(self, x: Sequence[complex]) -> list[complex]:
        """P^dag x: a vector of the chain's basis in the real tridiagonal one."""
        return [p.conjugate() * complex(v) for p, v in zip(self.phases, x)]

    def from_tridiagonal(self, y: Sequence[complex]) -> list[complex]:
        """P y: a vector of the real tridiagonal basis in the chain's one."""
        return [p * v for p, v in zip(self.phases, y)]


def eigh_tridiagonal(diag: Sequence[float], sub: Sequence[complex]) -> Eigensystem:
    """Eigen-decomposition of the Hermitian tridiagonal matrix with real ``diag`` and
    subdiagonal ``sub`` (entry i couples i to i + 1).

    A chain whose largest entry lies outside [2^-500, 2^500] is first
    scaled by a power of two, exactly, so that no step under- or overflows.
    The chain splits where an off-diagonal is at most eps times its 1-norm:
    setting it to zero moves no eigenvalue by more than that.

    A chain whose diagonal is exactly zero is chiral: its spectrum comes in
    (w, -w) pairs, and S z is the eigenvector of -w when z is that of w, S
    negating the odd sites. Each of its unreduced pieces is chiral too:
    there the values pair exactly, inverse iteration runs for the w > 0
    half and an odd piece's zero mode only, and the -w half's vectors are
    the mirror images. The eigensystem is ``mirrored`` when every piece was
    solved so; see :func:`_chiral_pairs` for the pieces that are not.
    """
    big = max(map(abs, [*diag, *sub]), default=0.0)
    shift = -frexp(big)[1] if big and not 2.0**-500 < big < 2.0**500 else 0
    if shift:
        diag = [ldexp(v, shift) for v in diag]
        sub = [complex(ldexp(v.real, shift), ldexp(v.imag, shift)) for v in sub]
    chiral = not any(diag)
    n = len(diag)
    off = list(map(abs, sub))
    split = EPS * _one_norm(diag, off)
    phases = [1.0 + 0j]  # T = P T_r P^dag: P_(i+1) = P_i e_i / |e_i| where e_i is kept
    for e, size in zip(sub, off):
        phase = phases[-1] * (e / size) if size > split else phases[-1]
        phases.append(phase / abs(phase))
    values, vectors = [], []
    mirrored = chiral
    lo = 0
    for hi in range(1, n + 1):
        if hi < n and off[hi - 1] > split:
            continue
        d, e = diag[lo:hi], off[lo:hi - 1]
        w = _ql_eigenvalues(d, e)
        if chiral:
            w, zs, piece_mirrored = _chiral_pairs(d, e, w)
            mirrored = mirrored and piece_mirrored
        else:
            zs = _inverse_iteration(d, e, w)
        for z in zs:
            vectors.append([0.0] * lo + z + [0.0] * (n - hi))
        values += w
        lo = hi
    order = sorted(range(n), key=values.__getitem__)
    return Eigensystem(values=tuple(ldexp(values[k], -shift) for k in order),
                       vectors=tuple(tuple(vectors[k]) for k in order),
                       phases=tuple(phases), mirrored=mirrored)


def _chiral_pairs(d: list[float], e: list[float], w: list[float]):
    """Ascending eigenvalues and vectors of the zero-diagonal tridiagonal (d, e), and
    whether the vectors of its lower half are the mirror images of its upper half's.

    Of the eigenvalues ``w`` from implicit QL, the upper half w > 0 is kept
    and the lower half set to exactly its negative (an odd piece's middle
    one to exactly 0). Inverse iteration then runs at 0 (odd pieces) and at
    the w > 0 half, and the vector of -w is that of w with its odd sites
    negated. Only when the smallest w > 0 lies within a cluster of its own
    negative, or of 0 on an odd piece, does inverse iteration run over the
    whole spectrum instead, to keep that cluster's vectors orthogonal.
    """
    n = len(w)
    top = w[n - n // 2:]
    zero = [0.0] * (n % 2)
    values = [-x for x in reversed(top)] + zero + top
    if top and top[0] * (2 - n % 2) <= CLUSTER_TOL * _one_norm(d, e):
        return values, _inverse_iteration(d, e, values), False
    zs = _inverse_iteration(d, e, zero + top)
    return values, [_mirror(z) for z in reversed(zs[len(zero):])] + zs, True


def _mirror(z: list[float]) -> list[float]:
    """z with its odd sites negated."""
    z = list(z)
    z[1::2] = [-v for v in z[1::2]]
    return z


def _one_norm(d: list[float], e: list[float]) -> float:
    """The largest absolute row sum of the symmetric tridiagonal (d, e)."""
    pad = [0.0, *e, 0.0]
    return max(map(sum, zip(map(abs, d), pad, pad[1:])), default=0.0)


def _ql_eigenvalues(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the real symmetric tridiagonal (d, e) by implicit-QL sweeps."""
    d, e = list(d), list(e) + [0.0]
    n = len(d)
    for l in range(n):
        for sweep in range(QL_MAX_SWEEPS + 1):
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            if m == l:
                break
            if sweep == QL_MAX_SWEEPS:
                raise ArithmeticError("implicit QL did not converge")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # an off-diagonal underflowed: split there and sweep again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return sorted(d)


def _inverse_iteration(d: list[float], e: list[float], w: list[float]) -> list[list[float]]:
    """Orthonormal eigenvectors of the unreduced tridiagonal (d, e) at the ascending ``w``.

    Follows LAPACK ``dstein``: a seeded random start, the solve scaled so
    that it cannot overflow, close eigenvalues nudged apart by 10 eps |w|,
    and each vector of a cluster (eigenvalues within ``CLUSTER_TOL`` of the
    matrix 1-norm) kept orthogonal to the cluster's earlier ones; the
    largest entry of each vector is positive.
    """
    n = len(d)
    if n == 1:
        return [[1.0]]
    onenrm = _one_norm(d, e)
    ortol, tol = CLUSTER_TOL * onenrm, EPS * onenrm
    converged = sqrt(0.1 / n)
    rng = random.Random(n)
    vectors = []
    first = 0  # index of the first vector of the current cluster
    prev = None
    for j, x in enumerate(w):
        if prev is not None:
            x = max(x, prev + 10.0 * abs(EPS * x))
            if x - prev > ortol:
                first = j
        prev = x
        lu = _tridiagonal_lu(d, e, x, tol)
        z = [2.0 * rng.random() - 1.0 for _ in range(n)]
        checks = 0
        for _ in range(INVERSE_MAX_ITERATIONS):
            scale = n * onenrm * max(EPS, abs(lu[1][-1][0])) / fsum(map(abs, z))
            z = _lu_solve(lu, [scale * v for v in z])
            for v in vectors[first:j] * 2:  # twice: one pass can cancel to rounding
                dot = fsum(map(mul, v, z))
                z = [zi - dot * vi for zi, vi in zip(z, v)]
            if max(map(abs, z)) >= converged:
                checks += 1
                if checks > INVERSE_EXTRA_ITERATIONS:
                    break
        else:
            if not checks:
                raise ArithmeticError("inverse iteration did not converge")
        big = max(z, key=abs)
        norm = copysign(sqrt(fsum(v * v for v in z)), big)
        vectors.append([v / norm for v in z])
    return vectors


def _tridiagonal_lu(d, e, x, tol):
    """LU with partial pivoting of T - x I, pivots smaller than ``tol`` raised to it.

    Returns, per row i, the multiplier that eliminated row i + 1 below it
    and whether rows i and i + 1 were swapped first, and U by rows: the
    pivot and the two entries right of it.
    """
    elim, rows = [], []
    piv, right = d[0] - x, e[0]  # row i of the partly eliminated matrix from the pivot on
    for sub, diag, nxt in zip(e, d[1:], e[1:] + [0.0]):
        diag -= x
        if abs(piv) >= abs(sub):
            m = sub / piv
            rows.append((piv if abs(piv) >= tol else copysign(tol, piv), right, 0.0))
            piv, right = diag - m * right, nxt
            elim.append((m, False))
        else:
            m = piv / sub
            rows.append((sub, diag, nxt))  # |sub| > |piv|: no pivot to raise
            piv, right = right - m * diag, -m * nxt
            elim.append((m, True))
    rows.append((piv if abs(piv) >= tol else copysign(tol, piv), 0.0, 0.0))
    return elim, rows


def _lu_solve(lu, b: list[float]) -> list[float]:
    """Solve (T - x I) z = b from its pivoted LU."""
    elim, rows = lu
    y = []
    c = b[0]
    for (m, swapped), nxt in zip(elim, b[1:]):
        if swapped:
            c, nxt = nxt, c
        y.append(c)
        c = nxt - m * c
    y.append(c)
    z = []
    z1 = z2 = 0.0
    for yi, (p, r1, r2) in zip(reversed(y), reversed(rows)):
        z2, z1 = z1, (yi - r1 * z1 - r2 * z2) / p
        z.append(z1)
    z.reverse()
    return z
