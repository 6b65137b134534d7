import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dquant.linalg import eigh, eigh_tridiagonal, linspace
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


def decomposition(a):
    """(eigenvalues, unitary of eigenvectors as columns) from eigh, in numpy arrays."""
    es = eigh(a.tolist())
    u = np.array([es.from_tridiagonal(z) for z in es.vectors]).T
    return np.array(es.values), u


@st.composite
def hermitian_matrices(draw, max_size=12):
    n = draw(st.integers(1, max_size))
    entry = st.floats(-2.0, 2.0)
    # a few nonzero entries, so that reducible and degenerate matrices turn up
    a = np.zeros((n, n), dtype=complex)
    for _ in range(draw(st.integers(0, n * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i, j] = complex(draw(entry), draw(entry))
    return a + a.conj().T


def assert_decomposes(es, a):
    """es is an eigensystem of the Hermitian array a: sorted, orthonormal and exact."""
    w, u = np.array(es.values), np.array([es.from_tridiagonal(z) for z in es.vectors]).T
    n = len(a)
    scale = max(1.0, np.abs(a).max())
    assert list(w) == sorted(w)
    # inverse iteration orthogonalizes only within clusters (gaps below 1e-3 of
    # the 1-norm); across a wider gap the vectors are orthogonal to about
    # eps * norm / gap, at most about 1000 eps
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12
    assert np.max(np.abs(u @ np.diag(w) @ u.conj().T - a)) <= 1e-13 * n * scale
    assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-13 * n * scale


@settings(max_examples=200, deadline=None)
@given(a=hermitian_matrices())
def test_eigh_diagonalizes_hermitian_matrices(a):
    assert_decomposes(eigh(a.tolist()), a)


@pytest.mark.parametrize("scale", [2.0**k for k in (-1060, -1030, -530, -66, 66, 996)])
def test_eigh_is_scale_free(scale):
    rng = np.random.default_rng(1)
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = (b + b.conj().T) * scale
    w, u = decomposition(a)
    # exact: a power of two, applied to the entries as rounded (subnormal ones included)
    want = np.linalg.eigvalsh(a.real / scale + 1j * (a.imag / scale))
    # eigenvalues in the subnormal range are rounded to its spacing, 2^-1074
    tol = 1e-13 * 6 * np.max(np.abs(want)) * scale + 2.0**-1073
    assert np.max(np.abs(w - want * scale)) <= tol
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-12


def test_subnormal_entry_beside_unit_ones():
    # the reflector's phase of a subnormal leading entry must stay unimodular
    a = np.zeros((5, 5), dtype=complex)
    a[0, 1], a[0, 2], a[0, 3], a[1, 3] = 1 + 1j, 1j, 2.2250738585e-313j, -1j
    a = a + a.conj().T
    w, u = decomposition(a)
    assert np.max(np.abs(u @ np.diag(w) @ u.conj().T - a)) <= 1e-15 * 5 * 2
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) <= 1e-15 * 5


def test_chain_needs_no_reflector():
    n = 129
    a = np.diag(0.1 * np.arange(1, n), k=1)
    es = eigh((a + a.T).tolist())
    assert es.reflectors == ()
    assert set(es.phases) == {1.0}
    z = np.array(es.vectors).T
    assert np.max(np.abs(z.T @ z - np.eye(n))) <= 1e-14
    assert np.max(np.abs(np.array(es.values) - np.linalg.eigvalsh(a + a.T))) <= 1e-13


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
def test_chiral_chain_eigenvalues_pair_exactly(chain):
    diag, sub = chain
    es = eigh_tridiagonal(diag, sub)
    # (w, -w) pairs, bit for bit, and an exact zero for each odd unreduced piece
    assert es.values == tuple(-w for w in reversed(es.values))
    pieces = np.split(np.arange(len(diag)), [i + 1 for i, e in enumerate(sub) if not e])
    assert es.values.count(0.0) >= sum(len(piece) % 2 for piece in pieces)
    assert_decomposes(es, chain_matrix(diag, sub))


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
    assert_decomposes(es, chain_matrix(diag, sub))
    if mirrored:
        for w, z in zip(es.values, es.vectors):
            if w > 0:
                mirror = tuple(-v if i % 2 else v for i, v in enumerate(z))
                assert es.vectors[es.values.index(-w)] == mirror


@settings(max_examples=200, deadline=None)
@given(chain=chains())
def test_chain_with_a_diagonal_is_solved_as_the_dense_matrix(chain):
    diag, sub = chain
    assume(any(diag))
    a = chain_matrix(diag, sub)
    es = eigh_tridiagonal(diag, sub)
    assert es == eigh(a.tolist())  # bit for bit: the same QL and inverse iteration
    assert_decomposes(es, a)


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
    e = np.array([0.3 + 0.4j, -1.0, 2j, 0.5])
    a = np.diag(e, k=-1) + np.diag(e.conj(), k=1) + np.diag([1.0, -2.0, 0.5, 0.0, 3.0])
    es = eigh(a.tolist())
    assert es.reflectors == ()
    w, u = decomposition(a)
    assert np.max(np.abs(u @ np.diag(w) @ u.conj().T - a)) <= 1e-14 * 5


def test_close_eigenvalues_get_orthogonal_vectors():
    # Wilkinson's W21+: pairs of eigenvalues that agree to about 1e-14
    n = 21
    a = np.diag(np.abs(np.arange(n) - 10.0)) + np.diag(np.ones(n - 1), 1)
    a = a + np.triu(a, 1).T
    w, u = decomposition(a)
    assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-14
    assert np.max(np.abs(a @ u - u * w)) <= 1e-14 * 21


def test_degenerate_eigenvalues_span_their_space():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
    a = q @ np.diag([1.0, 1.0, 2.0, 2.0, 2.0, -3.0, 0.0]) @ q.conj().T
    w, u = decomposition(a)
    assert np.max(np.abs(w - [-3.0, 0.0, 1.0, 1.0, 2.0, 2.0, 2.0])) <= 1e-14 * 7
    assert np.max(np.abs(u.conj().T @ u - np.eye(7))) <= 1e-14 * 7
    assert np.max(np.abs(u @ np.diag(w) @ u.conj().T - a)) <= 1e-14 * 7


def test_zero_matrix():
    es = eigh([[0j, 0j], [0j, 0j]])
    assert es.values == (0.0, 0.0)
    assert es.vectors == ((1.0, 0.0), (0.0, 1.0))
