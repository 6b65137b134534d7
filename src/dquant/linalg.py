"""Pure-Python Hermitian chain eigensolver for the dynamics.

``eigh_tridiagonal`` diagonalizes a Hermitian chain, given as its diagonal
and subdiagonal. A diagonal phase makes it real symmetric, and it splits
into unreduced pieces where an off-diagonal is at most eps times its
1-norm.

A piece whose diagonal is exactly zero is chiral: it is the Golub-Kahan
form of the bidiagonal B whose diagonal is its couplings e0, e2, .. and
whose superdiagonal is e1, e3, ... Its eigenvalues are +-sigma, sigma the
singular values of B (and 0 on an odd piece), and the vector of -sigma is
that of sigma with the odd sites negated. The solver works on B alone
(multiple relatively robust representations, MRRR):

- dqds gives every sigma to high relative accuracy;
- the vector of each sigma is the twisted-factorization solve of the
  piece shifted by sigma, refined by Rayleigh-quotient corrections, in
  O(n) and with no Gram-Schmidt;
- only a sigma whose relative gap to a neighbour is below ``RELGAP_TOL``
  gets its vector by inverse iteration instead;
- the zero mode of an odd piece lives on its even sites, by a two-term
  recurrence.

A chiral piece whose smallest sigma falls below ``SIGMA_MIN`` of its
largest coupling, where dqds would lose digits, takes the general path.
Any other piece gets its eigenvalues from implicit-QL sweeps and its
eigenvectors by inverse iteration, as LAPACK ``dstein`` does: a pivoted
tridiagonal LU per eigenvalue, and Gram-Schmidt against the earlier
vectors of a cluster of close eigenvalues.

The eigenvectors come out real, those of the real tridiagonal form; the
phase maps vectors between that form and the chain's basis.
"""

from __future__ import annotations

import random
from itertools import accumulate
from math import copysign, frexp, fsum, hypot, ldexp, sqrt
from operator import mul, neg
from typing import Sequence

from .record import record

EPS = 2.0**-52
#: implicit-QL sweeps allowed per eigenvalue, and dqds transforms
QL_MAX_SWEEPS = 30
#: eigenvalues closer than this times the matrix 1-norm form a cluster,
#: whose eigenvectors inverse iteration keeps orthogonal to one another
CLUSTER_TOL = 1e-3
#: inverse iterations allowed per eigenvector, and the extra ones after its
#: growth test first passes (LAPACK dstein takes two; a second brings no
#: measurable gain in orthogonality or residual on the dynamics' chains)
INVERSE_MAX_ITERATIONS = 5
INVERSE_EXTRA_ITERATIONS = 1
#: singular values closer than this relative gap get their vectors by
#: inverse iteration: a twisted solve is orthogonal to about eps / gap
RELGAP_TOL = 1e-3
#: dqds deflates a coupling below (100 eps)^2 of its eigenvalue (LAPACK dlasq2)
DQDS_TOL2 = (100.0 * EPS) ** 2
#: Rayleigh-quotient corrections allowed per twisted solve
RQ_MAX_CORRECTIONS = 4
#: on a chiral piece scaled to largest coupling 1, the smallest singular
#: value at which dqds keeps every digit: sigma^2 stays a normal float
SIGMA_MIN = 2.0**-500


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

    A chain whose diagonal is exactly zero is chiral, and so is each of its
    unreduced pieces: its spectrum comes in (w, -w) pairs, with a 0 on each
    odd piece, and S z is the eigenvector of -w when z is that of w, S
    negating the odd sites. Such a piece is solved on its bidiagonal
    (:func:`_chiral_piece`), and the eigensystem is ``mirrored``: its pairs
    and its zeros are exact, bit for bit. Only a piece that dqds cannot
    solve, its smallest singular value below ``SIGMA_MIN`` of its largest
    coupling, takes the general path, and leaves the eigensystem not
    ``mirrored``: its pairs then agree only to rounding (8.9e-16 on the
    46-state chain of couplings 1e-15 and 1).
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
        solved = _chiral_piece(e) if chiral else None
        if solved is None:
            mirrored = False
            w = _ql_eigenvalues(d, e)
            zs = _inverse_iteration(d, e, w)
        else:
            w, zs = solved
        for z in zs:
            vectors.append([0.0] * lo + z + [0.0] * (n - hi))
        values += w
        lo = hi
    order = sorted(range(n), key=values.__getitem__)
    return Eigensystem(values=tuple(ldexp(values[k], -shift) for k in order),
                       vectors=tuple(tuple(vectors[k]) for k in order),
                       phases=tuple(phases), mirrored=mirrored)


def _chiral_piece(e: list[float]) -> tuple[list[float], list[list[float]]] | None:
    """Ascending eigenvalues and vectors of the unreduced zero-diagonal tridiagonal
    with couplings ``e``, from its bidiagonal B (diagonal e0, e2, .., superdiagonal
    e1, e3, ..), or None when dqds cannot solve B.

    The piece is scaled by a power of two to largest coupling 1. dqds gives
    the singular values sigma of B from its qd array (e0^2, e2^2, ..;
    e1^2, e3^2, ..); an odd piece's B is m x (m + 1), and a zero row makes
    it square with one more singular value, an exact 0, which dqds deflates
    first with a zero shift. Each sigma's vector is a twisted solve
    (:func:`_twisted_vectors`), or comes from inverse iteration when a
    neighbour lies within ``RELGAP_TOL`` relative gap. The vector of -sigma
    is that of sigma with its odd sites negated, and an odd piece's zero
    mode is :func:`_null_vector` on its even sites. dqds cannot solve B
    when it fails or its smallest sigma falls below ``SIGMA_MIN``, whose
    square would lose digits.
    """
    n = len(e) + 1
    if n == 1:
        return [0.0], [[1.0]]
    scale = frexp(max(e))[1]
    e = [ldexp(v, -scale) for v in e]
    squares = [v * v for v in e]
    odd = n % 2
    try:
        sigmas = [sqrt(v) for v in _dqds(squares[0::2] + [0.0] * odd, squares[1::2])[odd:]]
    except ArithmeticError:
        return None
    if sigmas[0] < SIGMA_MIN:
        return None
    near = sorted({j for k in range(1, len(sigmas)) for j in (k - 1, k)
                   if sigmas[k] - sigmas[k - 1] < RELGAP_TOL * sigmas[k]})
    zs = _twisted_vectors(e, squares, sigmas, [k for k in range(len(sigmas)) if k not in near])
    if near:
        zs.update(zip(near, _inverse_iteration([0.0] * n, e, [sigmas[k] for k in near])))
    top = [zs[k] for k in range(len(sigmas))]
    vectors = [list(z) for z in reversed(top)]
    for z in vectors:
        z[1::2] = map(neg, z[1::2])
    if odd:
        vectors.append([0.0] * n)
        vectors[-1][0::2] = _null_vector(e[0::2], e[1::2])
    sigmas = [ldexp(s, scale) for s in sigmas]
    return [-s for s in reversed(sigmas)] + [0.0] * odd + sigmas, vectors + top


def _dqds(q: list[float], e: list[float]) -> list[float]:
    """Ascending eigenvalues of the positive qd array (q, e), to high relative accuracy.

    The array is that of B^T B for the upper bidiagonal B with diagonal
    sqrt(q) and superdiagonal sqrt(e); both lists are consumed. Each
    transform subtracts a shift below the smallest eigenvalue, which the
    accumulated shift then carries, summed with its rounding error; a shift
    that turns a pivot negative is retried smaller (Fernando & Parlett,
    Numer. Math. 67, 191, 1994). When the last pivot of a transform is its
    least, the smallest eigenvalue sits at the bottom, and the next shift is
    its estimate from the trailing 2 x 2 of B B^T, dn - b1 / gap, the gap
    reduced by the coupling above (LAPACK dlasq4's cases 2 and 3); else a
    quarter of the least pivot. The bottom eigenvalue deflates once its
    coupling falls below ``DQDS_TOL2`` of it, and the array is reversed when
    its bottom is the larger end. Raises ``ArithmeticError`` when it does
    not converge.
    """
    values = []
    sigma = comp = 0.0  # the shift so far is sigma + comp
    fresh = True  # the bottom changed since the last transform, whose pivots no longer apply
    for _ in range(QL_MAX_SWEEPS * len(q) + 1):
        if len(q) == 1 or e[-1] <= DQDS_TOL2 * (sigma + q[-1]) or e[-1] <= DQDS_TOL2 * q[-2]:
            values.append(sigma + (comp + q.pop()))
            if not q:
                return sorted(values)
            e.pop()
            fresh = True
            continue
        if fresh:  # no last pivot: the bottom's diagonal entry bounds the eigenvalue too
            if 1.5 * q[0] < q[-1]:
                q.reverse()
                e.reverse()
            dmin = dn = q[-1]
        tau = 0.25 * dmin
        if dmin == dn:
            b1 = q[-1] * e[-1]
            gap = q[-2] + e[-1] - dn - (sqrt(q[-2] * e[-2]) if len(e) > 1 else 0.0)
            if gap > 0 and gap * gap > b1:
                tau = max(dn - b1 / gap, 0.5 * dmin)
        fails = 0
        while (sweep := _dqds_sweep(q, e, tau))[0] is None:
            if not tau:
                raise ArithmeticError("dqds lost positivity at a zero shift")
            fails += 1
            if fails > 2:
                tau = 0.0
            elif sweep[1] == len(q) - 1:  # only the last pivot: tau + it bounds the eigenvalue
                tau = max(0.0, (tau + sweep[2]) * (1.0 - 2.0 * EPS))
            else:
                tau *= 0.25
        (q, e), dmin, dn = sweep
        total = sigma + tau  # two-sum: comp keeps what the rounding of sigma drops
        part = total - sigma
        comp += (sigma - (total - part)) + (tau - part)
        sigma = total
        fresh = False
    raise ArithmeticError("dqds did not converge")


def _dqds_sweep(q: list[float], e: list[float], tau: float):
    """One dqds transform of (q, e) with shift ``tau``.

    Returns ((q', e'), the least pivot, the last pivot), or, when a pivot
    turns negative, (None, its index, its value): the shift was too large.
    """
    d = q[0] - tau
    if d < 0:
        return None, 0, d
    qs, es = [], []
    push_q, push_e = qs.append, es.append
    dmin = d
    for ei, qn in zip(e, q[1:]):
        qi = d + ei
        t = qn / qi
        push_q(qi)
        push_e(ei * t)
        d = d * t - tau
        if d < dmin:
            if d < 0:
                return None, len(qs), d
            dmin = d
    qs.append(d)
    return (qs, es), dmin, d


def _twisted_vectors(e: list[float], squares: list[float], sigmas: list[float],
                     which: list[int]) -> dict:
    """{k: the unit eigenvector at sigmas[k]} of the zero-diagonal tridiagonal with
    couplings ``e`` (and their ``squares``), for each k in ``which``, by one twisted
    factorization each (MRRR); each sigmas[k] is refined in place.

    For each sigma the forward pivots D+ and backward pivots D- of
    T - sigma I (all sigmas at once, site by site) give the twist
    gamma_k = D+_k + D-_k + sigma; at r, the smallest |gamma_k|, the vector
    is z_r = 1, z_i = -(e_i / D+_i) z_(i+1) above r and
    z_(i+1) = -(e_i / D-_(i+1)) z_i below, and (T - sigma I) z = gamma_r e_r.
    The Rayleigh-quotient correction gamma_r / |z|^2 moves sigma until it
    is at most 2 eps sigma (``RQ_MAX_CORRECTIONS`` at most). A pivot that
    comes out exactly zero is replaced by -eps sigma, a relative change of
    the shift at that site (Dhillon & Parlett, Linear Algebra Appl. 387, 1,
    2004).
    """
    vectors = {}
    for attempt in range(RQ_MAX_CORRECTIONS + 1):
        shifts = [-sigmas[k] for k in which]
        fwd, bwd = [shifts], [shifts]
        for c, c_bwd in zip(squares, reversed(squares)):
            fwd.append([(s - c / d) or EPS * s for s, d in zip(shifts, fwd[-1])])
            bwd.append([(s - c_bwd / d) or EPS * s for s, d in zip(shifts, bwd[-1])])
        left = []
        for k, dp, dm in zip(which, zip(*fwd), zip(*reversed(bwd))):
            s = sigmas[k]
            gamma = [abs(f + g + s) for f, g in zip(dp, dm)]
            r = gamma.index(min(gamma))
            up = [-v / d for v, d in zip(e[:r], dp)]
            z = [*accumulate(reversed(up), mul, initial=1.0)][::-1]
            z += accumulate([-v / d for v, d in zip(e[r:], dm[r + 1:])], mul)
            norm = hypot(*z)
            correction = (dp[r] + dm[r] + s) / (norm * norm)
            if abs(correction) <= 2.0 * EPS * s or attempt == RQ_MAX_CORRECTIONS:
                vectors[k] = [v / norm for v in z]
            else:
                sigmas[k] = s + correction
                left.append(k)
        which = left
        if not which:
            break
    return vectors


def _null_vector(a: list[float], b: list[float]) -> list[float]:
    """The unit x with x_0 > 0 and a_j x_j + b_j x_(j+1) = 0: the zero mode of an odd
    chiral piece on its even sites.

    Each entry is carried as a mantissa and an exponent, so that no ratio
    product over- or underflows before the vector is normalized; every
    entry keeps its relative accuracy.
    """
    x = [(1.0, 0)]
    for aj, bj in zip(a, b):
        m, k = frexp(-x[-1][0] * (aj / bj))
        x.append((m, x[-1][1] + k))
    top = max(k for _, k in x)
    x = [ldexp(m, k - top) for m, k in x]
    norm = hypot(*x)
    return [v / norm for v in x]


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
