import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dquant.boson_algebra import BosonicPolynomial, annihilation, creation, degree, number
from dquant.dynamics import FockSpace
from dquant.maxwell import _derivative_table, _linear_bracket
import product_oracle
from fock_oracle import dim, kron_matrix, occupations, to_matrix
from product_oracle import multiply

a = annihilation(0)
ad = creation(0)
b = annihilation(1)
bd = creation(1)


def commutator(p, q):
    """[p, q] for p linear in ladder operators, summed from q's derivative table
    as verify sums the commutators of its field components with H."""
    return _linear_bracket(p, _derivative_table(q))


def dense(p, space):
    return to_matrix(p, space).toarray()


def interior_indices(space, margin):
    """Basis indices whose occupations are all <= n_max - margin."""
    occ = occupations(space)
    limits = np.array([space.n_max(m) - margin for m in space.modes])
    return np.nonzero(np.all(occ <= limits, axis=1))[0]


class TestNormalOrder:
    """The product oracle's reordering, against the defining commutator and matrices."""

    def test_defining_commutator(self):
        assert multiply(a, ad).isclose(number(0) + 1.0)

    def test_already_ordered_unchanged(self):
        assert multiply(ad, a).isclose(number(0))

    def test_a_adad_matrix_oracle(self):
        # a ad ad -> ad ad a + 2 ad, checked against 6x6 truncated matrices
        p = multiply(multiply(a, ad), ad)
        expected = BosonicPolynomial.monomial({0: (2, 1)}) + 2.0 * ad
        assert p.isclose(expected)
        space = FockSpace(modes=(0,), cutoff=5)
        brute = dense(a, space) @ dense(ad, space) @ dense(ad, space)
        interior = interior_indices(space, margin=3)
        sym = dense(p, space)
        assert np.allclose(sym[np.ix_(interior, interior)],
                           brute[np.ix_(interior, interior)], atol=1e-12)


class TestCommutator:
    def test_canonical(self):
        assert commutator(a, ad).isclose(BosonicPolynomial.identity(1.0))

    def test_number_lowering(self):
        # [a, n] = a
        assert commutator(a, number(0)).isclose(a)

    def test_cubic_matrix_oracle(self):
        lhs = commutator(a, BosonicPolynomial.monomial({0: (2, 1)}))
        assert lhs.isclose(2.0 * number(0))
        space = FockSpace(modes=(0,), cutoff=6)
        m1, m2 = dense(a, space), dense(BosonicPolynomial.monomial({0: (2, 1)}), space)
        brute = m1 @ m2 - m2 @ m1
        interior = interior_indices(space, margin=4)
        assert np.allclose(dense(lhs, space)[np.ix_(interior, interior)],
                           brute[np.ix_(interior, interior)], atol=1e-12)

    def test_bilinear(self):
        p, s, q, r = a, bd, multiply(bd, a), number(1)
        lhs = commutator(p + 2.0 * s, q + 3.0 * r)
        rhs = (commutator(p, q) + 3.0 * commutator(p, r)
               + 2.0 * commutator(s, q) + 6.0 * commutator(s, r))
        assert lhs.isclose(rhs)


def test_no_product_of_two_polynomials():
    with pytest.raises(TypeError):
        a * ad
    assert (a * 2.0).isclose(2.0 * a)


class TestHeisenberg:
    def test_harmonic_oscillator(self):
        omega = 1.7
        h = omega * number(0)
        assert (-1j * commutator(a, h)).isclose(-1j * omega * a)

    def test_number_conservation(self):
        h = 2.0 * number(0)
        assert (-1j * product_oracle.commutator(number(0), h)).is_zero

    def test_two_mode_squeezer(self):
        g = 0.3
        h = g * (multiply(bd, ad) + multiply(a, b))
        expected = -1j * g * bd
        got = -1j * commutator(a, h)
        assert got.isclose(expected)
        # matrix cross-check on a 2-mode truncated space
        space = FockSpace(modes=(0, 1), cutoff=6)
        mh, ma = dense(h, space), dense(a, space)
        brute = (ma @ mh - mh @ ma) / 1j
        interior = interior_indices(space, margin=3)
        assert np.allclose(dense(got, space)[np.ix_(interior, interior)],
                           brute[np.ix_(interior, interior)], atol=1e-12)


class TestDegree:
    def test_linear(self):
        assert degree(a + ad) == 1

    def test_cubic_monomial(self):
        assert degree(BosonicPolynomial.monomial({0: (2, 1)})) == 3

    def test_commutator_drops_two(self):
        poly1 = a + ad
        poly3 = BosonicPolynomial.monomial({0: (3, 0)}) + BosonicPolynomial.monomial({0: (0, 3)})
        assert degree(commutator(poly1, poly3)) == 2

    def test_zero_sentinel(self):
        assert degree(BosonicPolynomial.zero()) == -1


class TestToMatrix:
    def test_ladder_entries(self):
        space = FockSpace(modes=(0,), cutoff=2)
        m = dense(a, space)
        assert m[0, 1] == pytest.approx(1.0)
        assert m[1, 2] == pytest.approx(np.sqrt(2.0))
        assert np.count_nonzero(m) == 2

    def test_number_diagonal(self):
        space = FockSpace(modes=(0,), cutoff=2)
        assert np.allclose(dense(number(0), space), np.diag([0.0, 1.0, 2.0]))

    def test_quartic_diagonal(self):
        space = FockSpace(modes=(0,), cutoff=2)
        p = BosonicPolynomial.monomial({0: (2, 2)})
        assert np.allclose(dense(p, space), np.diag([0.0, 0.0, 2.0]))

    def test_unknown_mode(self):
        with pytest.raises(KeyError):
            to_matrix(b, FockSpace(modes=(0,), cutoff=2))

    def test_dimension(self):
        space = FockSpace(modes=(0, 1, 2), cutoff={0: 1, 1: 2, 2: 3})
        assert space.shape == (2, 3, 4)
        assert dim(space) == 2 * 3 * 4

    def test_zero_polynomial(self):
        m = to_matrix(BosonicPolynomial.zero(), FockSpace(modes=(0, 1), cutoff=2))
        assert m.shape == (9, 9) and m.nnz == 0


@st.composite
def polys(draw, max_modes=3, max_degree=3, max_terms=3):
    n_terms = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n_terms):
        deg = draw(st.integers(0, max_degree))
        factors = draw(
            st.lists(
                st.tuples(st.integers(0, max_modes - 1), st.booleans()),
                min_size=deg,
                max_size=deg,
            )
        )
        powers: dict[int, list[int]] = {}
        for mode, is_cre in factors:
            cur = powers.setdefault(mode, [0, 0])
            cur[0 if is_cre else 1] += 1
        key = tuple((m, c, ann) for m, (c, ann) in sorted(powers.items()))
        re = draw(st.floats(-1.0, 1.0))
        im = draw(st.floats(-1.0, 1.0))
        terms[key] = complex(re, im)
    return BosonicPolynomial(terms)


@settings(max_examples=100, deadline=None)
@given(p=polys(), cutoffs=st.lists(st.integers(1, 4), min_size=3, max_size=3))
def test_to_matrix_matches_kron_oracle(p, cutoffs):
    # the whole matrix, edge states included: the truncation must match too
    space = FockSpace(modes=(0, 1, 2), cutoff=dict(enumerate(cutoffs)))
    got = to_matrix(p, space)
    assert isinstance(got, sp.csr_matrix)
    oracle = kron_matrix(p, space)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(got.toarray() - oracle)) <= 1e-14 * scale


@settings(max_examples=40, deadline=None)
@given(p=polys(), q=polys())
def test_matrix_representation_respects_commutator(p, q):
    # the product oracle's p * q - q * p against the commutator of matrices
    space = FockSpace(modes=(0, 1, 2), cutoff=8)
    margin = max(degree(p), 0) + max(degree(q), 0)
    interior = interior_indices(space, margin=margin)
    sym = to_matrix(product_oracle.commutator(p, q), space).toarray()
    mp, mq = to_matrix(p, space).toarray(), to_matrix(q, space).toarray()
    brute = mp @ mq - mq @ mp
    scale = max(1.0, np.max(np.abs(brute)))
    sel = np.ix_(interior, interior)
    assert np.max(np.abs(sym[sel] - brute[sel])) <= 1e-10 * scale


@st.composite
def linear_polys(draw, max_modes=3):
    """a^dag and a terms over several modes, as a field component holds them."""
    coef = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    p = BosonicPolynomial.zero()
    for mode in range(max_modes):
        p = p + draw(coef) * creation(mode) + draw(coef) * annihilation(mode)
    return p


@st.composite
def hermitian_polys(draw, max_degree=4, max_terms=5):
    """q + q^dag, as a Hamiltonian is."""
    q = draw(polys(max_degree=max_degree, max_terms=max_terms))
    return q + q.dagger()


@settings(max_examples=50, deadline=None)
@given(p=linear_polys(), q=polys())
def test_conjugation_symmetry(p, q):
    # [p, q]^dag = [q^dag, p^dag] = -[p^dag, q^dag]
    lhs = commutator(p, q).dagger()
    rhs = (-1.0) * commutator(p.dagger(), q.dagger())
    assert lhs.isclose(rhs, tol=1e-10)


@settings(max_examples=30, deadline=None)
@given(p=polys(max_degree=2), q=polys(max_degree=2), r=polys(max_degree=2))
def test_jacobi_identity(p, q, r):
    # of the product oracle's commutator, whose sides have any degree
    bracket = product_oracle.commutator
    total = bracket(bracket(p, q), r) + bracket(bracket(q, r), p) + bracket(bracket(r, p), q)
    assert total.max_abs_coeff() <= 1e-10


def _integer_coefficients(p):
    return BosonicPolynomial({k: complex(round(8 * v.real), round(8 * v.imag))
                              for k, v in p.terms.items()})


@settings(max_examples=100, deadline=None)
@given(p=linear_polys(max_modes=4),
       q=st.one_of(polys(max_degree=4, max_terms=5), hermitian_polys()))
def test_linear_commutator_matches_product_difference(p, q):
    # p*q - q*p is the independent oracle of the derivative-table path
    oracle = product_oracle.commutator(p, q)
    got = commutator(p, q)
    scale = max(multiply(p, q).max_abs_coeff(), multiply(q, p).max_abs_coeff())
    for key in set(oracle.terms) | set(got.terms):
        assert abs(got.terms.get(key, 0.0) - oracle.terms.get(key, 0.0)) <= 1e-14 * scale
    p_int, q_int = _integer_coefficients(p), _integer_coefficients(q)
    assert commutator(p_int, q_int).terms == product_oracle.commutator(p_int, q_int).terms


@settings(max_examples=50, deadline=None)
@given(p=linear_polys(), q=polys())
def test_commutator_degree_bound(p, q):
    # the zero-contraction parts of pq and qp coincide, so the commutator
    # loses at least two powers relative to the product
    if degree(p) < 1 or degree(q) < 1:
        return
    assert degree(commutator(p, q)) <= degree(p) + degree(q) - 2


def test_annihilation_matrix_elements_sqrt_n():
    space = FockSpace(modes=(0,), cutoff=7)
    m = to_matrix(annihilation(0), space).toarray()
    for n in range(1, 8):
        assert m[n - 1, n] == pytest.approx(np.sqrt(n), abs=1e-14)
