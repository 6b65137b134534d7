import re
from math import exp, isfinite, lgamma, log, nextafter, pi, sinh

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dquant.dynamics as dynamics
from dquant.boson_algebra import BosonicPolynomial, annihilation, number
from dquant.dynamics import (
    EDGE_POPULATION_TOL,
    MAX_CHAIN_STATES,
    PHASE_LIMIT,
    EvolutionConfig,
    FockSpace,
    ZeroGeneratorError,
    _coherent_amplitudes,
    _samples,
    _sector,
    beamsplitter,
    coherent_cutoff,
    coherent_state,
    compare_schemes,
    evolve,
    frequency_conversion,
    occupation_expectation,
    population,
    spdc_squeezing,
    two_mode_squeezer,
)
from dquant.hamiltonian import ComparisonReport, compare_coefficients
from dquant.linalg import eigh_tridiagonal
from eigh_oracle import chain_matrix, eigh_states
from fock_oracle import dim, full_states, full_vector, kron_matrix, occupations, to_matrix


#: the route ratio E/D of a chi2 medium: the wrong route's rate is twice the correct one's
RATIO = -2.0
#: off-diagonal monomials that give a generator a second shift pair
PAIR = BosonicPolynomial.monomial({0: (2, 0), 1: (2, 0)}, coeff=0.1)
HOP_01 = BosonicPolynomial.monomial({0: (1, 0), 1: (0, 1)}, coeff=0.3)
HOP_12 = BosonicPolynomial.monomial({1: (1, 0), 2: (0, 1)}, coeff=0.2)


def samples(t, steps=1):
    return np.linspace(0.0, t, steps + 1)


class TestEvolve:
    def test_eigenstate_stays_put(self):
        space = FockSpace(modes=(0,), cutoff=6)
        h = 1.3 * number(0)
        psi0 = space.basis_state([1])
        res = evolve(h, space, psi0, samples(2.7, 4))
        overlap = np.vdot(full_vector(psi0, space), full_states(res, space)[-1])
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)

    def test_zero_hamiltonian(self):
        # a rate at or below PRUNE_TOL prunes the generator to zero: it is refused,
        # not evolved into a state that never moved
        space = FockSpace(modes=(0, 1), cutoff=4)
        for h in (BosonicPolynomial.zero(), two_mode_squeezer(1e-16), beamsplitter(1e-15)):
            with pytest.raises(ZeroGeneratorError, match="PRUNE_TOL = 1e-15"):
                evolve(h, space, space.basis_state([1, 0]), samples(5.0))

    def test_two_mode_squeezing_matches_sinh(self):
        g, t = 1.0, 0.1
        space = FockSpace(modes=(0, 1), cutoff=12)
        res = evolve(two_mode_squeezer(g), space, space.vacuum(), samples(t, 2))
        n_a = occupation_expectation(space, res, 0)[-1]
        assert n_a == pytest.approx(sinh(g * t) ** 2, abs=1e-6)

    def test_norm_and_energy_preserved(self):
        space = FockSpace(modes=(0, 1), cutoff=10)
        res = evolve(two_mode_squeezer(0.8), space, space.vacuum(), samples(0.3, 6))
        assert res.norm_drift < 1e-10
        assert res.energy_drift < 1e-10

    def test_truncation_flag_raised_when_cutoff_reached(self):
        space = FockSpace(modes=(0, 1), cutoff=3)
        res = evolve(two_mode_squeezer(1.0), space, space.vacuum(), samples(2.0, 4))
        assert res.edge_population > 1e-6
        assert not res.truncation_safe

    def test_edge_population_is_the_top_two_levels(self):
        space = FockSpace(modes=(0, 1), cutoff=5)
        res = evolve(two_mode_squeezer(0.6), space, space.vacuum(), samples(1.0, 4))
        near_edge = np.any(occupations(space) >= 4, axis=1)
        want = np.max(np.sum(np.abs(full_states(res, space)[:, near_edge]) ** 2, axis=1))
        assert res.edge_population == pytest.approx(want, rel=1e-12)
        assert res.edge_population > 1e-3

    def test_rejects_non_hermitian(self):
        space = FockSpace(modes=(0,), cutoff=3)
        with pytest.raises(ValueError):
            evolve(annihilation(0), space, space.vacuum(), samples(1.0))

    @pytest.mark.parametrize("h, space, psi0", [
        # the squeezer moves pair states by (1, 1) and (a0^dag a1^dag)^2 by (2, 2)
        (two_mode_squeezer(0.4) + PAIR + PAIR.dagger(), FockSpace(modes=(0, 1), cutoff=12),
         {(0, 0): 1.0}),
        # a0^dag a1 and a1^dag a2 are two shift pairs: refused, although the block
        # from |1, 0, 0> happens to be the chain |1, 0, 0>, |0, 1, 0>, |0, 0, 1>
        (HOP_01 + HOP_01.dagger() + HOP_12 + HOP_12.dagger(),
         FockSpace(modes=(0, 1, 2), cutoff=1), {(1, 0, 0): 1.0}),
    ], ids=["squeezer-and-pair", "three-mode-hopping"])
    def test_rejects_a_block_that_is_not_a_chain(self, h, space, psi0):
        with pytest.raises(ValueError) as err:
            evolve(h, space, psi0, samples(1.5, 6))
        assert str(err.value) == ("the generator has 4 off-diagonal shifts: evolve takes "
                                  "number-conserving terms plus one shift pair +v and -v")

    def test_rejects_unnormalized_state(self):
        space = FockSpace(modes=(0,), cutoff=3)
        with pytest.raises(ValueError):
            evolve(number(0), space, {(0,): 2.0}, samples(1.0))


@st.composite
def hermitian_problems(draw, max_modes=3, max_cutoff=3, max_diagonal_terms=2, max_power=2):
    """(h + h^dag, space, psi0): a small space and a normalized state of sparse support.

    h is one off-diagonal monomial and up to two number-conserving ones
    ((a^dag)^k a^k per mode): every generator of that shape has one shift
    pair, the generators that evolve accepts.
    """
    n_modes = draw(st.integers(1, max_modes))
    space = FockSpace(modes=tuple(range(n_modes)),
                      cutoff={m: draw(st.integers(1, max_cutoff)) for m in range(n_modes)})
    coef = st.floats(-1.0, 1.0)
    power = st.integers(0, max_power)
    move = [(draw(power), draw(power)) for _ in range(n_modes)]
    assume(any(c != a for c, a in move))
    off = complex(draw(coef), draw(coef))
    if abs(off) < 1e-3:  # evolve refuses a zero generator: keep the move
        off = 1.0
    terms = {tuple((m, c, a) for m, (c, a) in enumerate(move) if c or a): off}
    for _ in range(draw(st.integers(0, max_diagonal_terms))):
        key = tuple((m, k, k) for m in range(n_modes) for k in [draw(power)] if k)
        terms[key] = complex(draw(coef), draw(coef))
    h = BosonicPolynomial(terms)
    support = draw(st.lists(st.integers(0, dim(space) - 1), min_size=1, max_size=3,
                            unique=True))
    occs = [tuple(int(n) for n in np.unravel_index(i, space.shape)) for i in support]
    amps = np.array([complex(draw(coef), draw(coef)) for _ in occs])
    if np.linalg.norm(amps) < 1e-3:
        amps[0] = 1.0
    return h + h.dagger(), space, dict(zip(occs, amps / np.linalg.norm(amps)))


def block_diagonal(occs, chains):
    """The sector matrix assembled from _sector's chains."""
    h_s = np.zeros((len(occs), len(occs)), dtype=complex)
    for sel, diag, sub in chains:
        h_s[np.ix_(sel, sel)] = chain_matrix(diag, sub)
    return h_s


class TestSectorEvolution:
    """evolve works on the reachable sector only; the full-space kron matrix is the oracle.

    The sector states are scattered into the full space here, in the test.
    """

    @settings(max_examples=60, deadline=None)
    @given(problem=hermitian_problems(), t=st.floats(0.05, 1.0))
    def test_matches_full_space_exponential(self, problem, t):
        from scipy.linalg import expm

        h, space, psi0 = problem
        res = evolve(h, space, psi0, samples(t, 3))
        hmat = kron_matrix(h, space)
        full0 = full_vector(psi0, space)
        for s, state in zip(res.times, full_states(res, space)):
            assert np.max(np.abs(state - expm(-1j * s * hmat) @ full0)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(problem=hermitian_problems(), t=st.floats(0.05, 1.0))
    def test_matches_the_lapack_eigh_evolution(self, problem, t):
        h, space, psi0 = problem
        res = evolve(h, space, psi0, samples(t, 3))
        occs, want = eigh_states(h, space, psi0, res.times)
        assert list(res.occupations) == occs
        assert np.max(np.abs(np.array(res.states) - want)) <= 1e-12

    @pytest.mark.parametrize("g, t", [(0.1, 0.5), (0.02, 4.0), (1.0, 0.05)])
    def test_squeezer_chain_matches_the_lapack_eigh_evolution(self, g, t):
        space = FockSpace(modes=(0, 1), cutoff=128)
        h, times = two_mode_squeezer(g), samples(t, 20)
        res = evolve(h, space, space.vacuum(), np.concatenate([times, 2 * times]))
        _, want = eigh_states(h, space, space.vacuum(), res.times)
        assert np.max(np.abs(np.array(res.states) - want)) <= 1e-12

    def test_a_repeated_time_gives_the_same_row(self):
        space = FockSpace(modes=(0, 1), cutoff=16)
        res = evolve(two_mode_squeezer(0.3), space, space.vacuum(), [0.0, 0.4, 0.8, 0.4, 0.0])
        assert res.states[1] is res.states[3]
        assert res.states[0] is res.states[4]
        alone = evolve(two_mode_squeezer(0.3), space, space.vacuum(), [0.4])
        assert res.states[1] == alone.states[0]
        sector = [space.index(n) for n in res.occupations]
        assert res.states[0] == tuple(full_vector(space.vacuum(), space)[sector])
        assert res.times == (0.0, 0.4, 0.8, 0.4, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(problem=hermitian_problems())
    def test_sector_matrix_is_the_restricted_full_matrix(self, problem):
        h, space, psi0 = problem
        occs, chains = _sector(h, space, list(psi0))
        sector = np.array([space.index(n) for n in occs])
        hmat = kron_matrix(h, space)
        assert set(psi0) <= set(occs)
        assert np.array_equal(sector, np.sort(sector))
        assert sorted(np.concatenate([sel for sel, *_ in chains])) == list(range(len(occs)))
        h_s = block_diagonal(occs, chains)
        scale = max(1.0, np.max(np.abs(hmat)))
        # off-block entries of the restricted matrix vanish: the blocks are invariant
        assert np.max(np.abs(h_s - hmat[np.ix_(sector, sector)])) <= 1e-14 * scale
        outside = np.setdiff1d(np.arange(dim(space)), sector)
        assert not np.any(hmat[np.ix_(outside, sector)])  # H maps the sector into itself

    @settings(max_examples=60, deadline=None)
    @given(problem=hermitian_problems())
    def test_walk_agrees_with_the_vectorized_fock_rule(self, problem):
        h, space, psi0 = problem
        occs, chains = _sector(h, space, list(psi0))
        sector = [space.index(n) for n in occs]
        want = to_matrix(h, space).toarray()[np.ix_(sector, sector)]
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(block_diagonal(occs, chains) - want)) <= 1e-15 * scale

    @settings(max_examples=30, deadline=None)
    @given(problem=hermitian_problems(), t=st.floats(0.05, 1.0))
    def test_first_sample_is_the_initial_state(self, problem, t):
        h, space, psi0 = problem
        res = evolve(h, space, psi0, samples(t, 2))
        assert np.array_equal(full_states(res, space)[0], full_vector(psi0, space))

    def test_weak_coupling_keeps_relative_accuracy(self):
        g = 4e-11  # an SI squeezing rate in 1/s
        space = FockSpace(modes=(0, 1), cutoff=6)
        res = evolve(two_mode_squeezer(g), space, space.vacuum(), samples(1.0, 4))
        for t, n_a in zip(res.times[1:], occupation_expectation(space, res, 0)[1:]):
            want = sinh(g * t) ** 2
            assert abs(n_a - want) <= 1e-12 * want

    @pytest.mark.parametrize("support", [[(0, 0)], [(0, 0), (3, 3), (5, 5)]],
                             ids=["vacuum", "three-pair-states"])
    def test_squeezer_sector_is_the_pair_states(self, support):
        # pair states on the vacuum's chain start no walk of their own
        space = FockSpace(modes=(0, 1), cutoff=128)
        occs, chains = _sector(two_mode_squeezer(0.1), space, support)
        assert occs == [(n, n) for n in range(129)]
        # one chain, handed on as its diagonal and subdiagonal: no 129 x 129 matrix
        assert len(chains) == 1
        sel, diag, sub = chains[0]
        assert sel == list(range(129))
        assert diag == [0.0] * 129
        assert sub == pytest.approx([0.1 * (n + 1) for n in range(128)], rel=1e-15)

    def test_squeezer_states_are_sector_sized(self):
        space = FockSpace(modes=(0, 1), cutoff=128)
        res = evolve(two_mode_squeezer(0.1), space, space.vacuum(), samples(0.5, 20))
        assert np.shape(res.states) == (21, 129)
        assert list(res.occupations) == [(n, n) for n in range(129)]

    def test_quantum_pump_sector_splits_into_chains(self):
        # n_A - n_B and n_A + n_C are conserved: one chain per pump number c
        space = FockSpace(modes=(0, 1, 2), cutoff=48)
        term = BosonicPolynomial.monomial({0: (1, 0), 1: (1, 0), 2: (0, 1)}, coeff=0.05)
        occs, chains = _sector(term + term.dagger(), space, list(coherent_state(space, 2, 2.0)))
        assert len(occs) == 1225
        assert len(chains) == 49
        assert sorted(len(sel) for sel, *_ in chains) == list(range(1, 50))
        for sel, *_ in chains:
            assert len({occs[i][0] + occs[i][2] for i in sel}) == 1
            assert all(occs[i][0] == occs[i][1] for i in sel)

    def test_unknown_mode_rejected(self):
        space = FockSpace(modes=(0,), cutoff=3)
        with pytest.raises(KeyError):
            evolve(number(1), space, space.vacuum(), samples(1.0))

    @pytest.mark.parametrize("occs", [(4,), (-1,), (0, 0)])
    def test_state_outside_the_space_rejected(self, occs):
        space = FockSpace(modes=(0,), cutoff=3)
        with pytest.raises(ValueError):
            evolve(number(0), space, {occs: 1.0}, samples(1.0))


#: per kind of resonant term: its mode powers, and the occupations of
#: position a of its chain of length L (cutoff L - 1 on every mode)
CHAIN_KINDS = {
    "squeezer": ({0: (1, 0), 1: (1, 0)}, lambda a, length: (a, a)),
    "hop": ({0: (1, 0), 1: (0, 1)}, lambda a, length: (a, length - 1 - a)),
    "pump": ({0: (1, 0), 1: (1, 0), 2: (0, 1)}, lambda a, length: (a, a, length - 1 - a)),
}


@st.composite
def chiral_chains(draw, length):
    """(h, space, psi0): one zero-diagonal chain of a resonant term, its coupling real
    or complex, started on its even sites, its odd sites or both."""
    powers, occupation = CHAIN_KINDS[draw(st.sampled_from(sorted(CHAIN_KINDS)))]
    size = draw(st.floats(0.05, 1.5))
    phase = draw(st.sampled_from([1.0, -1.0, 1j, complex(0.6, -0.8)]))
    term = BosonicPolynomial.monomial(powers, coeff=size * phase)
    space = FockSpace(modes=tuple(range(len(powers))), cutoff=length - 1)
    sites = draw(st.sampled_from(["even", "odd", "both"] if length > 1 else ["even"]))
    allowed = {"even": range(0, length, 2), "odd": range(1, length, 2), "both": range(length)}
    support = draw(st.lists(st.sampled_from(list(allowed[sites])), min_size=1, unique=True))
    part = st.floats(-1.0, 1.0)
    amps = np.array([complex(draw(part), draw(part)) for _ in support])
    if np.linalg.norm(amps) < 1e-3:
        amps[0] = 1.0
    amps /= np.linalg.norm(amps)
    return term + term.dagger(), space, {occupation(a, length): amp
                                         for a, amp in zip(support, amps)}


class TestChiralChains:
    """Zero-diagonal chains evolve from the w > 0 half of their spectrum, by sublattice."""

    @pytest.mark.parametrize("length", [1, 2, 3, 8, 13])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), t=st.floats(0.05, 2.0))
    def test_matches_the_lapack_eigh_evolution(self, length, data, t):
        h, space, psi0 = data.draw(chiral_chains(length))
        _, chains = _sector(h, space, list(psi0))
        assert [len(sel) for sel, *_ in chains] == [length]
        assert not any(chains[0][1])
        res = evolve(h, space, psi0, samples(t, 3))
        occs, want = eigh_states(h, space, psi0, res.times)
        assert list(res.occupations) == occs
        assert np.max(np.abs(np.array(res.states) - want)) <= 1e-12

    def test_real_start_on_one_sublattice_stays_real_there_and_imaginary_on_the_other(self):
        # the squeezer from the vacuum: every sample is real on even sites, imaginary on odd
        space = FockSpace(modes=(0, 1), cutoff=16)
        res = evolve(two_mode_squeezer(0.3), space, space.vacuum(), samples(2.0, 4))
        states = np.array(res.states)
        assert not np.any(states[:, 0::2].imag) and not np.any(states[:, 1::2].real)

    @pytest.mark.parametrize("h", [two_mode_squeezer(0.4) + 0.3 * number(0)],
                             ids=["detuned-squeezer"])
    def test_other_blocks_take_the_general_path(self, h):
        # a chain with a diagonal is not chiral: its states are the full-spectrum samples
        space = FockSpace(modes=(0, 1), cutoff=12)
        times = list(samples(1.5, 6))
        _, ((sel, diag, sub),) = _sector(h, space, [(0, 0)])
        assert any(diag)
        eig = eigh_tridiagonal(diag, sub)
        assert not eig.mirrored
        _, want = _samples(eig, [1.0 + 0j] + [0j] * (len(sel) - 1), times)
        res = evolve(h, space, space.vacuum(), times)
        assert [list(state) for state in res.states] == want


class TestLeftOutPairs:
    """Eigenpairs with no weight in the start vector are left out of the products."""

    @staticmethod
    def full_product(eig, p0, times):
        """Every sample of one block from all of its eigenpairs, by numpy."""
        v = np.array([eig.from_tridiagonal(z) for z in eig.vectors]).T
        w = np.array(eig.values)
        return (v * np.exp(-1j * np.outer(times, w))[:, None, :]) @ (v.conj().T @ np.array(p0))

    @pytest.mark.parametrize("states, left_out", [(65, 12), (129, 39)])
    def test_the_vacuum_leaves_out_pairs_within_their_weight(self, states, left_out):
        space = FockSpace(modes=(0, 1), cutoff=states - 1)
        _, ((sel, diag, sub),) = _sector(two_mode_squeezer(0.05), space, [(0, 0)])
        eig = eigh_tridiagonal(diag, sub)
        p0 = [1.0 + 0j] + [0j] * (states - 1)
        # the pairs whose coefficients alpha +- beta = z_0 are at most 2^-52
        alphas = [z[0] for w, z in zip(eig.values, eig.vectors) if w > 0]
        assert sum(abs(alpha) <= 2.0**-52 for alpha in alphas) == left_out
        times = samples(40.0, 8)
        skipped, rows = _samples(eig, p0, times)
        assert 0 < skipped <= 2 * left_out * 2.0**-104
        gap = np.max(np.abs(np.array(rows) - self.full_product(eig, p0, times)), axis=1)
        assert np.all(gap <= 2 * np.sqrt(skipped) + 1e-14)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), t=st.floats(0.05, 2.0))
    def test_a_start_with_weight_everywhere_leaves_out_nothing(self, data, t):
        h, space, psi0 = data.draw(chiral_chains(13))
        amps = np.array([complex(data.draw(st.floats(0.1, 1.0)), data.draw(st.floats(-1.0, 1.0)))
                         for _ in range(13)])
        _, ((sel, diag, sub),) = _sector(h, space, list(psi0))
        eig = eigh_tridiagonal(diag, sub)
        p0 = list(amps / np.linalg.norm(amps))
        assume(all(abs(z @ np.array(eig.to_tridiagonal(p0))) > 2.0**-52 for z in
                   np.array(eig.vectors)))
        skipped, rows = _samples(eig, p0, samples(t, 3))
        assert skipped == 0.0
        assert np.max(np.abs(np.array(rows) - self.full_product(eig, p0, samples(t, 3)))) <= 1e-14

    def test_evolve_reports_the_weight_it_left_out(self):
        space = FockSpace(modes=(0, 1), cutoff=128)
        res = evolve(two_mode_squeezer(0.05), space, space.vacuum(), samples(40.0, 8))
        assert 0 < res.skipped_weight <= 2 * 39 * 2.0**-104
        res = evolve(beamsplitter(0.05), FockSpace(modes=(0, 1), cutoff=4),
                     {(1, 0): 0.6, (0, 1): 0.8j}, samples(4.0, 2))
        assert res.skipped_weight == 0.0


class TestSpdcSqueezing:
    def test_recovers_closed_form_r(self):
        theta = 0.05
        cfg = EvolutionConfig(n_max=16, t_final=4.0, steps=8, pump=1.0)
        pair = spdc_squeezing(theta, RATIO, cfg)
        assert pair.correct == pytest.approx(0.2, abs=1e-4)
        assert pair.truncation_safe

    def test_r_linear_in_theta(self):
        cfg = EvolutionConfig(n_max=16, t_final=2.0, steps=6, pump=1.0)
        r1 = spdc_squeezing(0.05, RATIO, cfg).correct
        r2 = spdc_squeezing(0.10, RATIO, cfg).correct
        assert r2 / r1 == pytest.approx(2.0, abs=1e-6)

    def test_wrong_scheme_doubles_r(self):
        theta = 0.05
        cfg = EvolutionConfig(n_max=16, t_final=3.0, steps=8, pump=1.0)
        pair = spdc_squeezing(theta, RATIO, cfg)
        assert abs(pair.ratio) == pytest.approx(2.0, abs=1e-6)

    def test_pair_production_symmetry(self):
        g, t = 0.7, 0.35
        space = FockSpace(modes=(0, 1), cutoff=14)
        res = evolve(two_mode_squeezer(g), space, space.vacuum(), samples(t, 7))
        for n_a, n_b in zip(occupation_expectation(space, res, 0),
                            occupation_expectation(space, res, 1)):
            assert n_a == pytest.approx(n_b, abs=1e-8)

    def test_quantum_pump_agrees_with_parametric_limit(self):
        theta = 0.02
        beta = 2.0  # matches the quantum-pump default amplitude
        cfg_q = EvolutionConfig(n_max=6, t_final=1.0, steps=5, pump="quantum")
        cfg_c = EvolutionConfig(n_max=6, t_final=1.0, steps=5, pump=beta)
        r_quantum = spdc_squeezing(theta, RATIO, cfg_q).correct
        r_classical = spdc_squeezing(theta, RATIO, cfg_c).correct
        # undepleted regime: agreement at the percent level, not exact
        assert r_quantum == pytest.approx(r_classical, rel=0.05)

    @pytest.mark.parametrize("n_max", [4, 16])
    def test_quantum_pump_is_truncation_safe_for_short_times(self, n_max):
        # the pump cutoff alone must not put the coherent state on the edge
        cfg = EvolutionConfig(n_max=n_max, t_final=0.01, steps=2, pump="quantum")
        assert spdc_squeezing(0.02, RATIO, cfg).truncation_safe


class TestFrequencyConversion:
    def test_complete_conversion_at_half_period(self):
        g = 0.2
        cfg = EvolutionConfig(n_max=4, t_final=(pi / 2) / g, steps=8, pump=1.0)
        pair = frequency_conversion(g, RATIO, cfg)
        assert pair.correct == pytest.approx(1.0, abs=1e-9)

    def test_zero_coupling_never_converts(self):
        # both routes would read P = 0 and leave the ratio undefined: the zero
        # generator is refused instead
        cfg = EvolutionConfig(n_max=4, t_final=3.0, steps=4, pump=1.0)
        with pytest.raises(ZeroGeneratorError):
            frequency_conversion(0.0, RATIO, cfg)

    def test_rabi_law(self):
        g = 0.3
        t = 0.8
        cfg = EvolutionConfig(n_max=4, t_final=t, steps=4, pump=1.0)
        pair = frequency_conversion(g, RATIO, cfg)
        assert pair.correct == pytest.approx(np.sin(g * t) ** 2, abs=1e-10)
        assert pair.wrong == pytest.approx(np.sin(2 * g * t) ** 2, abs=1e-10)

    def test_small_t_ratio_approaches_four(self):
        g = 1.0
        cfg = EvolutionConfig(n_max=4, t_final=0.01, steps=2, pump=1.0)
        pair = frequency_conversion(g, RATIO, cfg)
        assert pair.ratio == pytest.approx(4.0, abs=1e-3)

    def test_excitation_conserved(self):
        space = FockSpace(modes=(0, 1), cutoff=3)
        res = evolve(beamsplitter(0.9), space, space.basis_state([1, 0]), samples(1.7, 9))
        for n_a, n_b in zip(occupation_expectation(space, res, 0),
                            occupation_expectation(space, res, 1)):
            assert n_a + n_b == pytest.approx(1.0, abs=1e-8)
        lost = [1 - p - q for p, q in zip(population(space, res, (1, 0)),
                                          population(space, res, (0, 1)))]
        assert max(map(abs, lost)) <= 1e-12

    def test_population_is_zero_off_the_sector(self):
        space = FockSpace(modes=(0, 1), cutoff=3)
        res = evolve(beamsplitter(0.9), space, space.basis_state([1, 0]), samples(1.7, 3))
        assert (2, 0) not in res.occupations
        assert population(space, res, (2, 0)) == [0.0] * 4
        assert population(space, res, [0, 1]) == population(space, res, (0, 1))

    @pytest.mark.parametrize("g, t, refused", [(0.5, nextafter(2.0 * PHASE_LIMIT, 0.0), False),
                                               (0.5, 2.0 * PHASE_LIMIT, True),
                                               (4.0, 1e308, True)],
                             ids=["below", "at", "overflow"])
    def test_phase_is_refused_from_the_limit_on(self, g, t, refused):
        # |1> of the rate g n is a one-state chain of eigenvalue g: g t just below
        # 2^53, at it, and past the largest float
        space = FockSpace(modes=(0,), cutoff=3)
        h, psi0 = g * number(0), space.basis_state([1])
        if refused:
            with pytest.raises(OverflowError, match=re.escape(
                    f"the phase w t = {g * t:g} at t = {t:g} reaches 2^53")):
                evolve(h, space, psi0, [0.0, t])
        else:
            assert len(evolve(h, space, psi0, [0.0, t]).states) == 2

    @pytest.mark.parametrize("t_final", [0.6 * PHASE_LIMIT, 2.0 * PHASE_LIMIT])
    def test_phase_past_the_limit_raises(self, t_final):
        # the wrong route samples at 2 t, so its phase 2 g t passes 2^53 at both times
        cfg = EvolutionConfig(n_max=4, t_final=t_final, steps=2, pump=1.0)
        with pytest.raises(OverflowError, match="reaches 2\\^53"):
            frequency_conversion(1.0, RATIO, cfg)

    @pytest.mark.parametrize("occs", [(4, 0), (0,), (-1, 0)])
    def test_population_outside_the_space_rejected(self, occs):
        space = FockSpace(modes=(0, 1), cutoff=3)
        res = evolve(beamsplitter(0.9), space, space.basis_state([1, 0]), samples(1.7, 3))
        with pytest.raises(ValueError):
            population(space, res, occs)


class TestWrongRouteOracle:
    """The wrong route sampled at |c| t against the wrong route's own evolution.

    c is the route ratio E/D that the resonant builder measures; the wrong
    route's generator is |c| times the correct one's (the sign of c is a
    phase on one signal mode, which neither <n> nor P sees).
    """

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_squeezing(self, order):
        ratio = compare_coefficients(order).ratio
        g = 0.05
        cfg = EvolutionConfig(n_max=24, t_final=2.0, steps=8, pump=1.0)
        pair = spdc_squeezing(g, ratio, cfg)
        space = FockSpace(modes=(0, 1), cutoff=cfg.n_max)
        res = evolve(two_mode_squeezer(abs(ratio) * g), space, space.vacuum(),
                     [t for t, _, _ in pair.series])
        assert res.truncation_safe
        wrong = [w for _, _, w in pair.series]
        assert max(map(abs, np.subtract(occupation_expectation(space, res, 0), wrong))) <= 1e-12
        assert wrong[-1] > 0.01

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_conversion(self, order):
        ratio = compare_coefficients(order).ratio
        g = 0.3
        cfg = EvolutionConfig(n_max=4, t_final=1.0, steps=8, pump=1.0)
        pair = frequency_conversion(g, ratio, cfg)
        space = FockSpace(modes=(0, 1), cutoff=cfg.n_max)
        res = evolve(beamsplitter(abs(ratio) * g), space, space.basis_state([1, 0]),
                     [t for t, _, _ in pair.series])
        wrong = [w for _, _, w in pair.series]
        assert max(map(abs, np.subtract(population(space, res, (0, 1)), wrong))) <= 1e-12
        assert wrong[-1] > 0.01


class TestSeries:
    def test_conversion_series_shape_and_endpoints(self):
        theta = 0.2
        cfg = EvolutionConfig(n_max=4, t_final=1.0, steps=5, pump=1.0)
        pair = frequency_conversion(theta, RATIO, cfg)
        rows = pair.series
        assert len(rows) == 6
        assert rows[0][1] == pytest.approx(0.0, abs=1e-12)
        assert rows[-1][1] == pytest.approx(np.sin(0.2) ** 2, abs=1e-10)
        assert (pair.correct, pair.wrong) == rows[-1][1:]

    def test_squeezing_series_monotone(self):
        theta = 0.1
        cfg = EvolutionConfig(n_max=12, t_final=1.5, steps=5, pump=1.0)
        pair = spdc_squeezing(theta, RATIO, cfg)
        rows = pair.series
        values = [r[1] for r in rows]
        assert values == sorted(values)
        assert all(w >= c for _, c, w in rows[1:])
        assert [r[0] for r in rows] == pytest.approx(np.linspace(0.0, 1.5, 6))
        # r is fitted from the same samples: sinh^2(r) is the last <n_A> of each route
        assert np.sinh(pair.correct) ** 2 == pytest.approx(rows[-1][1], rel=1e-6)
        assert np.sinh(pair.wrong) ** 2 == pytest.approx(rows[-1][2], rel=1e-6)

    def test_quantum_pump_series(self):
        cfg = EvolutionConfig(n_max=4, t_final=0.5, steps=3, pump="quantum")
        pair = spdc_squeezing(0.02, RATIO, cfg)
        assert len(pair.series) == 4
        assert pair.series[0][1:] == (0.0, 0.0)


class TestCompareSchemes:
    def test_coefficient_order_two(self):
        report = compare_schemes("coefficient", 2)
        assert report.passed
        assert report.ratio == pytest.approx(-2.0, abs=1e-12)

    def test_coefficient_order_three(self):
        report = compare_schemes("coefficient", 3)
        assert report.passed
        assert report.ratio == pytest.approx(-3.0, abs=1e-12)

    def test_conversion_ratio_four(self):
        report = compare_schemes("conversion", 2)
        assert report.passed
        assert report.ratio == pytest.approx(4.0, abs=1e-3)

    def test_squeezing_ratio_two(self):
        report = compare_schemes("squeezing", 2)
        assert report.passed
        assert report.ratio == pytest.approx(2.0, abs=1e-4)

    def test_ratio_invariant_under_theta_rescaling(self):
        for scale in (0.1, 10.0):
            theta = 0.05 * scale
            cfg = EvolutionConfig(n_max=16, t_final=0.2 / abs(theta), steps=6)
            assert abs(spdc_squeezing(theta, RATIO, cfg).ratio) == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("observable, orders", [("coefficient", range(2, 145)),
                                                    ("conversion", range(2, 145)),
                                                    ("squeezing", (2, 3))])
    def test_wrong_coefficient_off_by_1e_3_fails(self, monkeypatch, observable, orders):
        # each gate passes the built ratio and refuses one scaled by 1 + 1e-3 at
        # every order: the conversion tolerance grows as n^2, the error as 2e-3 n^2
        for order in orders:
            assert compare_schemes(observable, order).passed, order

        def scaled(order):
            report = compare_coefficients(order)
            return ComparisonReport(**{**vars(report),
                                       "value_wrong": report.value_wrong * (1 + 1e-3),
                                       "ratio": report.ratio * (1 + 1e-3)})

        monkeypatch.setattr(dynamics, "compare_coefficients", scaled)
        for order in orders:
            assert not compare_schemes(observable, order).passed, order

    def test_unknown_observable(self):
        with pytest.raises(ValueError):
            compare_schemes("wigner", 2)

    def test_report_serializable(self):
        doc = compare_schemes("coefficient", 2).to_dict()
        assert doc["passed"] is True
        assert doc["expected_ratio"] == -2.0


class TestChainBound:
    @pytest.mark.parametrize("states, refused", [(MAX_CHAIN_STATES, False),
                                                 (MAX_CHAIN_STATES + 1, True)])
    def test_longest_chain_is_refused_before_any_is_diagonalized(self, monkeypatch, states,
                                                                  refused):
        # the squeezer's chain from the vacuum holds cutoff + 1 states
        class Diagonalized(Exception):
            pass

        def diagonalize(*args):
            raise Diagonalized

        monkeypatch.setattr(dynamics, "eigh_tridiagonal", diagonalize)
        space = FockSpace(modes=(0, 1), cutoff=states - 1)
        expected = ValueError if refused else Diagonalized
        with pytest.raises(expected, match=f"more than MAX_CHAIN_STATES = {MAX_CHAIN_STATES}"
                           if refused else None):
            evolve(two_mode_squeezer(0.1), space, space.vacuum(), [0.0, 1.0])


class TestCoherentState:
    @pytest.mark.parametrize("alpha", [2.0, 1.5 - 0.5j])
    def test_amplitudes_are_the_poisson_law(self, alpha):
        # <n|alpha> = exp(-|alpha|^2 / 2) alpha^n / sqrt(n!), through lgamma
        amps = _coherent_amplitudes(alpha, 170)
        for n, amp in enumerate(amps):
            magnitude = exp(-abs(alpha) ** 2 / 2 + n * log(abs(alpha)) - lgamma(n + 1) / 2)
            expected = magnitude * (alpha / abs(alpha)) ** n
            assert abs(amp - expected) <= 1e-12 * magnitude

    def test_amplitudes_past_170_are_finite_and_normalized(self):
        # sqrt(171!) is no float: the amplitudes come from their recurrence
        psi = coherent_state(FockSpace(modes=(0,), cutoff=300), 0, 2.0)
        assert all(isfinite(abs(amp)) for amp in psi.values())
        assert sum(abs(amp) ** 2 for amp in psi.values()) == pytest.approx(1.0, abs=1e-12)

    def test_largest_amplitude_that_a_float_holds(self):
        # exp(-38^2 / 2) is a subnormal float; from the peak of the ladder on,
        # the squared amplitudes no longer underflow
        cutoff = coherent_cutoff(38.0)
        psi = coherent_state(FockSpace(modes=(0,), cutoff=cutoff), 0, 38.0)
        assert sum(abs(amp) ** 2 for amp in psi.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(abs(amp) ** 2 for (n,), amp in psi.items() if n >= cutoff - 1) \
            <= EDGE_POPULATION_TOL

    @pytest.mark.parametrize("build", [
        coherent_cutoff,
        lambda alpha: coherent_state(FockSpace(modes=(0,), cutoff=2000), 0, alpha),
    ], ids=["cutoff", "state"])
    def test_amplitude_whose_vacuum_overlap_underflows_raises(self, build):
        # exp(-39^2 / 2) underflows to 0.0: every amplitude was 0 and the
        # renormalization divided by zero
        with pytest.raises(ValueError, match=r"^coherent state of \|alpha\| = 39.0 underflows"):
            build(39.0)

    def test_mean_occupation(self):
        space = FockSpace(modes=(0,), cutoff=30)
        psi = coherent_state(space, 0, 1.5)
        assert np.linalg.norm(list(psi.values())) == pytest.approx(1.0, abs=1e-12)
        mean = sum(n * abs(amp) ** 2 for (n,), amp in psi.items())
        assert mean == pytest.approx(1.5**2, abs=1e-6)

    def test_support_is_the_pump_ladder(self):
        space = FockSpace(modes=(0, 1, 2), cutoff={0: 4, 1: 4, 2: 19})
        psi = coherent_state(space, 2, 2.0)
        assert list(psi) == [(0, 0, n) for n in range(20)]

    @pytest.mark.parametrize("alpha, cutoff", [(0.0, 2), (2.0, 19), (2j, 19)])
    def test_cutoff_is_the_smallest_with_a_safe_edge(self, alpha, cutoff):
        def edge(c):
            psi = coherent_state(FockSpace(modes=(0,), cutoff=c), 0, alpha)
            return sum(abs(amp) ** 2 for (n,), amp in psi.items() if n >= c - 1)

        assert coherent_cutoff(alpha) == cutoff
        assert edge(cutoff) <= EDGE_POPULATION_TOL < edge(cutoff - 1)

    def test_config_validation(self):
        valid = {"n_max": 16, "t_final": 1.0, "steps": 20}
        for field, bad in (("n_max", 1), ("steps", 0), ("t_final", 0.0),
                           ("pump", "semiclassical")):
            with pytest.raises(ValueError):
                EvolutionConfig(**{**valid, field: bad})
