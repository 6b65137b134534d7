import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scipy.linalg import eigvalsh_tridiagonal

from dquant.linalg import eigh_tridiagonal
from dquant.modes import linspace
from eigh_oracle import chain_matrix


@pytest.mark.parametrize("steps", [1, 2, 8, 20])
@pytest.mark.parametrize("t_final", [10.0**k for k in range(-3, 12)] + [0.7, 4.0 / 0.05, 1.7e5])
def test_linspace_is_numpys_grid(steps, t_final):
    grid = linspace(0.0, t_final, steps + 1)
    want = np.linspace(0.0, t_final, steps + 1)
    assert [float(v).hex() for v in grid] == [float(v).hex() for v in want]


@settings(max_examples=200, deadline=None)
@given(start=st.floats(-1e6, 1e6), stop=st.floats(-1e6, 1e6), num=st.integers(0, 50))
def test_linspace_matches_numpy_on_any_interval(start, stop, num):
    assert linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


def decomposition(es):
    """(eigenvalues, unitary of eigenvectors as columns) of an eigensystem, in numpy arrays."""
    return np.array(es.values), np.array([es.from_tridiagonal(z) for z in es.vectors]).T


def assert_decomposes(es, diag, sub):
    """es is an eigensystem of the chain (diag, sub): sorted, orthonormal and exact.

    The eigenvalue oracle is LAPACK's bisection ``stebz`` on the real chain
    (diag, |sub|): ``numpy.linalg.eigvalsh`` (``dsterf``) loses accuracy on
    a chain whose subdiagonal entry has a subnormal square.
    """
    a = chain_matrix(diag, sub)
    w, u = decomposition(es)
    n = len(a)
    scale = max(1.0, np.abs(a).max())
    assert list(w) == sorted(w)
    # inverse iteration orthogonalizes only within clusters (gaps below 1e-3 of
    # the 1-norm); across a wider gap the vectors are orthogonal to about
    # eps * norm / gap, at most about 1000 eps
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12
    assert np.max(np.abs(u @ np.diag(w) @ u.conj().T - a)) <= 1e-13 * n * scale
    want = eigvalsh_tridiagonal(np.array(diag, dtype=float), np.abs(np.array(sub, dtype=complex)),
                                lapack_driver="stebz")
    assert np.max(np.abs(w - want)) <= 1e-13 * n * scale


@pytest.mark.parametrize("scale", [2.0**k for k in (-1060, -1030, -530, -66, 66, 996)])
def test_eigh_is_scale_free(scale):
    rng = np.random.default_rng(1)
    diag = rng.normal(size=6) * scale
    sub = (rng.normal(size=5) + 1j * rng.normal(size=5)) * scale
    es = eigh_tridiagonal(diag.tolist(), sub.tolist())
    # exact: a power of two, applied to the entries as rounded (subnormal ones included)
    unscaled = sub.real / scale + 1j * (sub.imag / scale)
    want = np.linalg.eigvalsh(chain_matrix(diag / scale, unscaled))
    # eigenvalues in the subnormal range are rounded to its spacing, 2^-1074
    tol = 1e-13 * 6 * np.max(np.abs(want)) * scale + 2.0**-1073
    assert np.max(np.abs(np.array(es.values) - want * scale)) <= tol
    z = np.array(es.vectors)
    assert np.max(np.abs(z @ z.T - np.eye(6))) <= 1e-12


def test_subnormal_entry_beside_unit_ones():
    # a subnormal coupling splits the chain, and every phase stays unimodular
    diag, sub = [0.0] * 5, [1 + 1j, 1j, 2.2250738585e-313j, -1j]
    es = eigh_tridiagonal(diag, sub)
    assert np.allclose(np.abs(es.phases), 1.0, rtol=0.0, atol=1e-15)
    w, u = decomposition(es)
    assert np.max(np.abs(u @ np.diag(w) @ u.conj().T - chain_matrix(diag, sub))) <= 1e-15 * 5 * 2
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) <= 1e-15 * 5


@st.composite
def chains(draw, max_size=16, chiral=False):
    """(diag, sub) of a Hermitian chain; some couplings zero, so that it splits into pieces."""
    n = draw(st.integers(1, max_size))
    entry = st.floats(-2.0, 2.0)
    coupling = st.one_of(st.just(0j), st.builds(complex, entry, entry),
                         st.builds(complex, entry, st.just(0.0)))
    diag = [0.0] * n if chiral else draw(st.lists(entry, min_size=n, max_size=n))
    return diag, draw(st.lists(coupling, min_size=n - 1, max_size=n - 1))


@settings(max_examples=200, deadline=None)
@given(chain=chains(chiral=True))
@example(chain=([0.0] * 3, [8.198346701114225e-157j, 2j]))
@example(chain=([0.0] * 3, [2.6723180249794065e-157j, 0.75j]))
@example(chain=([0.0] * 3, [4.938595309857307e-159 + 0j, 2j]))
def test_chiral_chain_eigenvalues_pair_exactly(chain):
    diag, sub = chain
    es = eigh_tridiagonal(diag, sub)
    # (w, -w) pairs, bit for bit, and an exact zero for each odd unreduced piece
    assert es.values == tuple(-w for w in reversed(es.values))
    pieces = np.split(np.arange(len(diag)), [i + 1 for i, e in enumerate(sub) if not e])
    assert es.values.count(0.0) >= sum(len(piece) % 2 for piece in pieces)
    assert_decomposes(es, diag, sub)


@pytest.mark.parametrize("sub, mirrored", [
    ([1 + 0j, 1 + 0j, 0.5j], True),
    ([1 + 0j, 1 + 0j, 1e-12j], False),  # a +-7e-13 pair: one cluster across 0
    ([1 + 0j, 1j, 1e-9 + 0j, 1e-9j], False),  # a pair within a cluster of the zero mode
], ids=["separated", "pair-across-zero", "pair-beside-zero-mode"])
def test_chiral_chain_mirrors_its_vectors_unless_a_cluster_crosses_zero(sub, mirrored):
    diag = [0.0] * (len(sub) + 1)
    es = eigh_tridiagonal(diag, sub)
    assert es.mirrored == mirrored
    assert es.values == tuple(-w for w in reversed(es.values))
    assert_decomposes(es, diag, sub)
    if mirrored:
        for w, z in zip(es.values, es.vectors):
            if w > 0:
                mirror = tuple(-v if i % 2 else v for i, v in enumerate(z))
                assert es.vectors[es.values.index(-w)] == mirror


@settings(max_examples=200, deadline=None)
@given(chain=chains())
def test_chain_with_a_diagonal_decomposes(chain):
    diag, sub = chain
    assume(any(diag))
    assert_decomposes(eigh_tridiagonal(diag, sub), diag, sub)


@pytest.mark.parametrize("scale", [2.0**k for k in (-1000, -530, 530, 996)])
@pytest.mark.parametrize("diag", [[0.0] * 5, [1.0, -2.0, 0.5, 0.0, 3.0]], ids=["chiral", "diag"])
def test_chain_is_scale_free(scale, diag):
    sub = [0.3 + 0.4j, -1.0 + 0j, 2j, 0.5 + 0j]
    es = eigh_tridiagonal([d * scale for d in diag], [e * scale for e in sub])
    want = np.linalg.eigvalsh(chain_matrix(diag, sub))
    assert np.max(np.abs(np.array(es.values) - want * scale)) <= 1e-13 * 5 * np.max(np.abs(want)) * scale
    z = np.array(es.vectors)
    assert np.max(np.abs(z @ z.T - np.eye(5))) <= 1e-14 * 5
    if not any(diag):
        assert es.values == tuple(-w for w in reversed(es.values))


def test_complex_chain_is_made_real_by_a_phase():
    diag, sub = [1.0, -2.0, 0.5, 0.0, 3.0], [0.3 + 0.4j, -1.0 + 0j, 2j, 0.5 + 0j]
    es = eigh_tridiagonal(diag, sub)
    assert es.phases == (1.0, 0.6 + 0.8j, -0.6 - 0.8j, 0.8 - 0.6j, 0.8 - 0.6j)
    w, u = decomposition(es)
    assert np.max(np.abs(u @ np.diag(w) @ u.conj().T - chain_matrix(diag, sub))) <= 1e-14 * 5


def test_close_eigenvalues_get_orthogonal_vectors():
    # Wilkinson's W21+: pairs of eigenvalues that agree to about 1e-14
    n = 21
    diag, sub = np.abs(np.arange(n) - 10.0), np.ones(n - 1)
    a = chain_matrix(diag, sub).real
    w, u = decomposition(eigh_tridiagonal(diag.tolist(), sub.tolist()))
    assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-14
    assert np.max(np.abs(a @ u - u * w)) <= 1e-14 * 21


def test_degenerate_eigenvalues_span_their_space():
    # three equal pieces, split by zero couplings: every eigenvalue is threefold
    piece_diag, piece_sub = [1.0, -2.0, 0.5], [0.3 + 0.4j, 1j]
    diag, sub = piece_diag * 3, (piece_sub + [0j]) * 2 + piece_sub
    es = eigh_tridiagonal(diag, sub)
    piece = np.linalg.eigvalsh(chain_matrix(piece_diag, piece_sub))
    w, u = decomposition(es)
    assert np.max(np.abs(w - np.repeat(piece, 3))) <= 1e-14 * 9
    assert np.max(np.abs(u.conj().T @ u - np.eye(9))) <= 1e-14 * 9
    assert np.max(np.abs(u @ np.diag(w) @ u.conj().T - chain_matrix(diag, sub))) <= 1e-14 * 9


def test_zero_matrix():
    es = eigh_tridiagonal([0.0, 0.0], [0j])
    assert es.values == (0.0, 0.0)
    assert es.vectors == ((1.0, 0.0), (0.0, 1.0))
