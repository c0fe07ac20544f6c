import dataclasses

import numpy as np
import pytest
import scipy.linalg

import bogolib.bdg as bdg
from bogolib.bdg import (
    PhononBasis,
    QuadraticHamiltonian,
    QuasiparticleSpectrum,
    assemble,
    assemble_from_fields,
    build_phonon_basis,
    check_stability,
    diagonalize,
    h3_expectation,
)
from bogolib.errors import ConfigurationError, DimensionMismatchError, InstabilityError
from bogolib.gpe import h2_coefficients, harmonic_potential, solve_stationary, zero_potential
from bogolib.grid import ComplexField, _kinetic_values, build_grid, kinetic_matrix
from bogolib.homogeneous import bogoliubov_dispersion

from conftest import orthonormal_modes
from oracles import colpa, plane_wave_basis

TWO_PI = 2.0 * np.pi

# (M, G) of TestStability's synthetic Hamiltonians: a negative energy and
# a pair of complex frequencies +-i sqrt(3).
_INDEFINITE = (
    (np.diag([-1.0, 2.0]), np.zeros((2, 2))),
    (np.diag([1.0, 1.0]), np.array([[0.0, 2.0], [2.0, 0.0]])),
)


def uniform_dispersion_table(u_tilde, length, n_pairs):
    base = TWO_PI / length
    return np.sort(
        [bogoliubov_dispersion(s * j * base, u_tilde, length) for j in range(1, n_pairs + 1) for s in (1, -1)]
    )


class TestBuildPhononBasis:
    def test_uniform_modes_orthogonal_to_condensate(self, uniform_state):
        basis = build_phonon_basis(uniform_state, 16)
        phi = basis.mode_matrix
        grid = uniform_state.grid
        gram = phi.conj() @ phi.T * grid.dx
        assert np.max(np.abs(gram - np.eye(16))) < 1e-10
        overlaps = phi.conj() @ uniform_state.xi.values * grid.dx
        assert np.max(np.abs(overlaps)) < 1e-10
        # Single-particle energies come in degenerate +-k pairs.
        energies = np.sum(phi.conj() * _kinetic_values(grid, phi), axis=1).real * grid.dx
        pairs = np.sort(energies).reshape(-1, 2)
        assert np.max(np.abs(pairs[:, 0] - pairs[:, 1])) < 1e-9

    def test_linear_trap_modes_are_excited_oscillator_states(self, trap_states):
        state = trap_states[0.0]
        basis = build_phonon_basis(state, 8)
        grid = state.grid
        h0 = kinetic_matrix(grid) + np.diag(state.potential.values.real)
        for n_level, mode in enumerate(basis.mode_matrix, start=1):
            energy = (mode.conj() @ (h0 @ mode) * grid.dx).real
            assert energy == pytest.approx(n_level + 0.5, abs=1e-8)

    def test_interacting_trap_orthonormality(self, trap_states):
        state = trap_states[10.0]
        basis = build_phonon_basis(state, 32)
        phi = basis.mode_matrix
        gram = phi.conj() @ phi.T * state.grid.dx
        assert np.max(np.abs(gram - np.eye(32))) < 1e-10
        assert np.max(np.abs(phi.conj() @ state.xi.values * state.grid.dx)) < 1e-10

    @pytest.mark.parametrize(
        ("n_points", "u_tilde", "K"),
        [(128, 1.0, 64), (1024, 2.0, 64), (128, 10.0, 32), (128, 0.0, 32)],
    )
    def test_modes_lie_in_span_of_condensate_and_lowest_modes(self, trap_states, n_points, u_tilde, K):
        # Each row's part outside span(Phi_{K+1}), the K+1 lowest eigenvectors
        # of T + V, must be a multiple of xi's own part rho outside it.  The
        # first two cases have |tau| ~ 1e-12, the third |tau| = 1.9e-6; at
        # u_tilde = 0, xi is the lowest eigenvector itself.
        state = trap_states[u_tilde] if n_points == 128 else _trap_state(n_points, u_tilde=u_tilde)
        grid = state.grid
        h0 = kinetic_matrix(grid) + np.diag(state.potential.values.real)
        lowest = scipy.linalg.eigh(h0, subset_by_index=[0, K])[1].T / np.sqrt(grid.dx)

        def outside(rows):
            for _ in range(2):
                rows = rows - (rows @ lowest.T * grid.dx) @ lowest
            return rows

        rho = outside(state.xi.values)
        out = outside(build_phonon_basis(state, K).mode_matrix)
        if np.vdot(rho, rho) > 0:
            out = out - np.outer(out @ rho.conj() / np.vdot(rho, rho), rho)
        assert np.max(np.sqrt(np.sum(np.abs(out) ** 2, axis=1) * grid.dx)) < 1e-10

    def test_projector_reproduced_on_retained_subspace(self, trap_states):
        # sum_k xi_k xi_k^* acts as identity minus condensate projector on
        # any field already inside the retained subspace.
        state = trap_states[1.0]
        basis = build_phonon_basis(state, 24)
        grid = state.grid
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        field = coeffs @ basis.mode_matrix
        projected = (basis.mode_matrix.conj() @ field * grid.dx) @ basis.mode_matrix
        assert np.max(np.abs(projected - field)) < 1e-9

    def test_k_bounds(self, uniform_state):
        with pytest.raises(ConfigurationError):
            build_phonon_basis(uniform_state, 0)
        with pytest.raises(ConfigurationError):
            build_phonon_basis(uniform_state, 64)
        for K in (2.5, 4.0, "4"):
            with pytest.raises(ConfigurationError, match="integer"):
                build_phonon_basis(uniform_state, K)
        assert build_phonon_basis(uniform_state, np.int64(4)).K == 4

    def test_real_condensate_gives_real_basis_and_phased_one_complex(self, trap_states):
        # A global phase changes neither the subspace nor the spectrum, only
        # the arithmetic: xi e^{i theta} takes the complex basis, whose
        # (M, G) only the Colpa oracle diagonalizes.
        state = trap_states[10.0]
        phased = dataclasses.replace(
            state, xi=ComplexField(state.xi.values * np.exp(0.4j), state.grid)
        )
        energies = {}
        for s, dtype, method in ((state, np.float64, diagonalize), (phased, np.complex128, colpa)):
            basis = build_phonon_basis(s, 24)
            qh = assemble(s, basis)
            assert basis.mode_matrix.dtype == qh.m_matrix.dtype == qh.g_matrix.dtype == dtype
            energies[dtype] = method(qh, basis).energies
        np.testing.assert_allclose(energies[np.complex128], energies[np.float64], rtol=1e-12)

    def test_basis_is_one_checked_array(self, uniform_state):
        xi = uniform_state.xi
        phi = build_phonon_basis(uniform_state, 4).mode_matrix
        with pytest.raises(DimensionMismatchError):
            PhononBasis(phi[0], xi)
        with pytest.raises(DimensionMismatchError):
            PhononBasis(phi[:, :-1], xi)
        basis = PhononBasis(phi[:3].real, xi)
        assert basis.K == 3 and basis.mode_matrix.dtype == np.float64
        assert PhononBasis(phi[:3] * 1j, xi).mode_matrix.dtype == np.complex128
        with pytest.raises(AttributeError):
            basis.K = 4


def _trap_state(n_points=64, length=16.0, boundary="box", u_tilde=1.0):
    grid = build_grid(n_points, length, boundary)
    return solve_stationary(grid, harmonic_potential(grid), u_tilde=u_tilde)


class TestSingleParticleMemo:
    """The T + V eigenbasis behind build_phonon_basis is computed once per trap."""

    @pytest.fixture(autouse=True)
    def eigh_calls(self, monkeypatch):
        bdg._single_particle_modes.cache_clear()
        calls = []
        real_eigh = scipy.linalg.eigh

        def spy(*args, **kwargs):
            calls.append(1)
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(bdg.scipy.linalg, "eigh", spy)
        yield calls
        bdg._single_particle_modes.cache_clear()

    @pytest.mark.parametrize("boundary", ["box", "periodic"])
    def test_hit_is_bit_identical_to_cold_build(self, boundary):
        states = {ut: _trap_state(boundary=boundary, u_tilde=ut) for ut in (0.0, 5.0)}
        for ut, other in ((0.0, 5.0), (5.0, 0.0)):
            bdg._single_particle_modes.cache_clear()
            cold = build_phonon_basis(states[ut], 12).mode_matrix
            bdg._single_particle_modes.cache_clear()
            build_phonon_basis(states[other], 12)
            hit = build_phonon_basis(states[ut], 12).mode_matrix
            assert bdg._single_particle_modes.cache_info().hits == 1
            assert np.array_equal(hit, cold)

    def test_one_eigh_across_a_ladder_in_one_trap(self, trap_grid, eigh_calls):
        pot = harmonic_potential(trap_grid)
        u = 0.25
        for n_particles in (4.0, 8.0, 12.0, 16.0, 20.0):
            state = solve_stationary(trap_grid, pot, u_tilde=u * n_particles, n_particles=n_particles)
            build_phonon_basis(state, 16)
        assert len(eigh_calls) == 1

    def test_changed_trap_misses(self, eigh_calls):
        state = _trap_state()
        build_phonon_basis(state, 8)
        build_phonon_basis(state, 8)
        assert len(eigh_calls) == 1
        build_phonon_basis(state, 9)
        assert len(eigh_calls) == 2
        build_phonon_basis(_trap_state(length=12.0), 8)
        assert len(eigh_calls) == 3
        build_phonon_basis(_trap_state(boundary="periodic"), 8)
        assert len(eigh_calls) == 4
        state.potential.values[10] += 0.5
        build_phonon_basis(state, 8)
        assert len(eigh_calls) == 5

    def test_fresh_equal_grid_hits(self, eigh_calls):
        first = build_phonon_basis(_trap_state(), 8).mode_matrix
        again = build_phonon_basis(_trap_state(), 8).mode_matrix
        assert len(eigh_calls) == 1
        assert np.array_equal(first, again)

    def test_writing_into_a_basis_leaves_the_memo_intact(self):
        state = _trap_state()
        basis = build_phonon_basis(state, 8)
        expected = basis.mode_matrix.copy()
        basis.mode_matrix[:] = 0.0
        assert np.array_equal(build_phonon_basis(state, 8).mode_matrix, expected)

    def test_memo_stays_bounded(self):
        state = _trap_state()
        for k in range(1, 9):
            build_phonon_basis(state, k)
        info = bdg._single_particle_modes.cache_info()
        assert info.misses == 8
        assert info.currsize <= info.maxsize


class TestAssemble:
    def test_uniform_plane_wave_structure(self, uniform_state, uniform_grid):
        # M diagonal with k^2/2 + u/L; G couples only (k, -k) with u/L.
        L = uniform_grid.length
        u_over_l = 2.0 / L
        basis = plane_wave_basis(uniform_state, 8)
        qh = assemble(uniform_state, basis)
        ks = np.array([1, -1, 2, -2, 3, -3, 4, -4]) * TWO_PI / L
        expected_diag = 0.5 * ks**2 + u_over_l
        assert np.max(np.abs(np.diag(qh.m_matrix) - expected_diag)) < 1e-12
        off = qh.m_matrix - np.diag(np.diag(qh.m_matrix))
        assert np.max(np.abs(off)) < 1e-12
        expected_g = np.zeros((8, 8))
        for i in range(0, 8, 2):
            expected_g[i, i + 1] = expected_g[i + 1, i] = u_over_l
        assert np.max(np.abs(qh.g_matrix - expected_g)) < 1e-12
        assert qh.e3 == pytest.approx(-0.5 * 2.0 / L, abs=1e-14)

    def test_noninteracting_matrices(self, trap_states):
        state = trap_states[0.0]
        basis = build_phonon_basis(state, 12)
        qh = assemble(state, basis)
        # F = -E0 * I on top of L = diag(E_m), so M = diag(E_m - E0).
        expected = np.diag(np.arange(1, 13).astype(float))
        assert np.max(np.abs(qh.m_matrix - expected)) < 1e-7
        assert np.max(np.abs(qh.g_matrix)) == 0.0
        assert qh.e3 == 0.0

    def test_hermiticity_and_symmetry(self, trap_states):
        state = trap_states[10.0]
        basis = build_phonon_basis(state, 32)
        qh = assemble(state, basis)
        assert np.max(np.abs(qh.m_matrix - qh.m_matrix.conj().T)) < 1e-12
        assert np.max(np.abs(qh.g_matrix - qh.g_matrix.T)) < 1e-12


    def test_grid_checks_compare_length_and_boundary(self, uniform_state, uniform_grid):
        # Grids with the same n_points as the state's, but another boundary
        # or another length.
        n, length = uniform_grid.n_points, uniform_grid.length
        for grid in (build_grid(n, length, "box"), build_grid(n, 2 * length, "periodic")):
            other = solve_stationary(grid, zero_potential(grid), u_tilde=2.0)
            basis = build_phonon_basis(other, 4)
            with pytest.raises(DimensionMismatchError):
                assemble(uniform_state, basis)
            with pytest.raises(DimensionMismatchError):
                h2_coefficients(uniform_state, basis)
            with pytest.raises(DimensionMismatchError):
                solve_stationary(uniform_grid, zero_potential(grid), u_tilde=2.0)


class TestDiagonalize:
    def test_linear_trap_spectrum(self, trap_states):
        state = trap_states[0.0]
        basis = build_phonon_basis(state, 12)
        spec = diagonalize(assemble(state, basis), basis)
        assert np.max(np.abs(spec.energies - np.arange(1, 13))) < 1e-6
        assert np.max(np.abs(spec.s_matrix)) < 1e-9
        assert abs(spec.omega_g) < 1e-10
        assert check_stability(spec).stable

    @pytest.mark.parametrize(
        "m, g, error",
        [
            ([[1.0, 5.0], [0.0, 1.0]], np.zeros((2, 2)), ConfigurationError),  # M not Hermitian
            (np.eye(2), np.zeros((3, 3)), DimensionMismatchError),
            (np.ones((2, 3)), np.ones((2, 3)), DimensionMismatchError),
            ([[1.0, np.nan], [np.nan, 1.0]], np.zeros((2, 2)), ConfigurationError),
            (np.zeros((0, 0)), np.zeros((0, 0)), DimensionMismatchError),
        ],
    )
    def test_malformed_hamiltonian_rejected(self, m, g, error):
        with pytest.raises(error):
            QuadraticHamiltonian(e3=0.0, m_matrix=np.asarray(m, dtype=complex), g_matrix=g)

    def test_uniform_dispersion(self, uniform_state, uniform_grid):
        basis = build_phonon_basis(uniform_state, 16)
        spec = diagonalize(assemble(uniform_state, basis), basis)
        expected = uniform_dispersion_table(2.0, uniform_grid.length, 8)
        assert np.max(np.abs(spec.energies - expected) / expected) < 1e-8

    def test_symplectic_invariants(self, trap_states, uniform_state):
        # The uniform eigen-basis has degenerate +-k pairs, which must come
        # out symplectically orthonormal as well.  The boosted trap state
        # (xi and the modes times exp(0.7ix)) has a complex M, as the
        # coefficients h3_of_t assembles along a trajectory do; the Colpa
        # oracle diagonalizes it.
        trap = trap_states[10.0]
        boost = np.exp(0.7j * trap.grid.points)
        boosted = PhononBasis(
            build_phonon_basis(trap, 16).mode_matrix * boost,
            ComplexField(trap.xi.values * boost, trap.grid),
        )
        boosted_qh = assemble_from_fields(
            boosted.condensate.values, boosted, trap.potential.values, trap.u_tilde, trap.mu
        )
        assert np.max(np.abs(boosted_qh.m_matrix.imag)) > 0.1
        cases = [(colpa(boosted_qh, boosted), boosted)]
        for state, k in ((trap, 32), (uniform_state, 16)):
            basis = build_phonon_basis(state, k)
            cases.append((diagonalize(assemble(state, basis), basis), basis))
        for spec, basis in cases:
            c, s = spec.c_matrix, spec.s_matrix
            # With s = conj(v): u^H u - v^H v = c^H c - (s^H s)^T.
            sym = c.conj().T @ c - (s.conj().T @ s).T
            assert np.max(np.abs(sym - np.eye(basis.K))) < 1e-9
            # Position-space statement of the normalization.
            grid = basis.grid
            for p, q in zip(spec.p_waves, spec.q_waves):
                pn = np.vdot(p, p).real * grid.dx
                qn = np.vdot(q, q).real * grid.dx
                assert pn - qn == pytest.approx(1.0, abs=1e-9)

    def test_completeness_reconstruction(self, trap_states):
        # Inverting the transformation must reproduce the inputs:
        # M = c E c^H + s E s^H,  G = -(c E s^T + s E c^T).
        state = trap_states[10.0]
        basis = build_phonon_basis(state, 24)
        qh = assemble(state, basis)
        spec = diagonalize(qh, basis)
        c, s, e = spec.c_matrix, spec.s_matrix, np.diag(spec.energies)
        m_rec = c @ e @ c.conj().T + s @ e @ s.conj().T
        g_rec = -(c @ e @ s.T + s @ e @ c.T)
        assert np.max(np.abs(m_rec - qh.m_matrix)) < 1e-8
        assert np.max(np.abs(g_rec - qh.g_matrix)) < 1e-8

    def test_basis_independence(self, trap_states):
        state = trap_states[10.0]
        grid = state.grid
        eig_basis = build_phonon_basis(state, 40)
        centers = np.linspace(1.5, grid.length - 1.5, 40)
        bumps = np.exp(-0.5 * ((grid.points - centers[:, None]) / 0.55) ** 2)
        bump_basis = PhononBasis(orthonormal_modes(bumps, state.xi), state.xi)
        e_eig = diagonalize(assemble(state, eig_basis), eig_basis).energies
        e_bump = diagonalize(assemble(state, bump_basis), bump_basis).energies
        assert np.max(np.abs(e_eig[:5] - e_bump[:5])) < 1e-7

    def test_kohn_mode_interaction_independent(self, trap_states):
        for ut, state in trap_states.items():
            basis = build_phonon_basis(state, 48)
            spec = diagonalize(assemble(state, basis), basis)
            odd_energies = [
                eps
                for eps, p in zip(spec.energies, spec.p_waves)
                if np.linalg.norm(p + p[::-1]) < np.linalg.norm(p - p[::-1])
            ]
            assert odd_energies[0] == pytest.approx(1.0, abs=1e-4), f"u_tilde={ut}"

    def test_gapless_slope_large_box(self):
        grid = build_grid(128, 200.0, "periodic")
        state = solve_stationary(grid, zero_potential(grid), u_tilde=4e4)
        basis = build_phonon_basis(state, 8)
        spec = diagonalize(assemble(state, basis), basis)
        k1 = TWO_PI / 200.0
        v = np.sqrt(4e4 / 200.0)
        slope = 0.5 * (spec.energies[0] + spec.energies[1]) / k1
        assert abs(slope - v) / v < 1e-6

    def test_truncation_insensitivity(self, trap_states):
        state = trap_states[10.0]
        e1 = diagonalize(assemble(state, build_phonon_basis(state, 32)), build_phonon_basis(state, 32)).energies[:8]
        e2 = diagonalize(assemble(state, build_phonon_basis(state, 64)), build_phonon_basis(state, 64)).energies[:8]
        assert np.max(np.abs(e1 - e2)) < 1e-6


class TestStability:
    def test_repulsive_states_stable(self, trap_states, uniform_state):
        for state in list(trap_states.values()) + [uniform_state]:
            basis = build_phonon_basis(state, 16)
            spec = diagonalize(assemble(state, basis), basis)
            report = check_stability(spec)
            assert report.stable
            assert report.offending_modes == ()

    def test_negative_mode_reported(self):
        spec = QuasiparticleSpectrum(
            energies=np.array([-0.5, 1.0, -2e-9]),
            c_matrix=np.eye(3),
            s_matrix=np.zeros((3, 3)),
            p_waves=np.zeros((3, 4)),
            q_waves=np.zeros((3, 4)),
            omega_g=0.0,
        )
        report = check_stability(spec)
        assert not report.stable
        assert report.offending_modes == (0, 2)
        assert "negative energy" in report.messages[0]

    @pytest.mark.parametrize("case", ["negative", "complex", "trap_mu_plus_3"])
    def test_indefinite_d_raises_with_sigma_d_eigenvalues(self, case, trap_states, uniform_state):
        if case == "trap_mu_plus_3":
            # Above the lowest excitation energies, mu makes M indefinite.
            state = trap_states[10.0]
            basis = build_phonon_basis(state, 16)
            qh = assemble_from_fields(
                state.xi.values, basis, state.potential.values, state.u_tilde, state.mu + 3.0
            )
        else:
            basis = build_phonon_basis(uniform_state, 2)
            m, g = _INDEFINITE[case == "complex"]
            qh = QuadraticHamiltonian(e3=0.0, m_matrix=m, g_matrix=g)
        with pytest.raises(InstabilityError, match="not positive definite") as from_diag:
            diagonalize(qh, basis)
        with pytest.raises(InstabilityError) as from_h3:
            h3_expectation(qh, np.zeros(basis.K))
        assert str(from_h3.value) == str(from_diag.value)
        eigenvalues = from_diag.value.eigenvalues
        np.testing.assert_array_equal(from_h3.value.eigenvalues, eigenvalues)
        assert eigenvalues.shape == (2 * basis.K,)
        # Eigenvalues of sigma D come in pairs (lambda, -conj(lambda)).
        mirror = -eigenvalues.conj()
        assert np.max(np.min(np.abs(eigenvalues[:, None] - mirror[None, :]), axis=1)) < 1e-9
        exact = {
            "negative": np.array([-2.0, -1.0, 1.0, 2.0]),
            "complex": np.sqrt(3.0) * np.array([-1j, -1j, 1j, 1j]),
        }.get(case)
        if exact is not None:
            assert "lambda_min(D) = -1," in str(from_diag.value)
            # Real and imaginary parts separately: the order of values whose
            # real parts are round-off is itself round-off.
            assert np.max(np.abs(np.sort(eigenvalues.real) - exact.real)) < 1e-12
            assert np.max(np.abs(np.sort(eigenvalues.imag) - exact.imag)) < 1e-12


class TestRealForm:
    """Real (M, G) in the K x K real form against the Colpa oracle."""

    @pytest.mark.parametrize("n_points", [128, 1024])
    @pytest.mark.parametrize("u_tilde", [0.0, 2.0, 10.0])
    def test_matches_complex_colpa(self, n_points, u_tilde):
        state = _trap_state(n_points, u_tilde=u_tilde)
        for K in (16, 64):
            basis = build_phonon_basis(state, K)
            qh = assemble(state, basis)
            assert qh.m_matrix.dtype == qh.g_matrix.dtype == np.float64
            real, ref = diagonalize(qh, basis), colpa(qh, basis)
            np.testing.assert_allclose(real.energies, ref.energies, rtol=1e-12, atol=0.0)
            assert real.omega_g == pytest.approx(ref.omega_g, rel=1e-12)
            for name in ("c_matrix", "s_matrix", "p_waves", "q_waves"):
                assert getattr(real, name).dtype == np.float64
                assert np.max(np.abs(getattr(real, name) - getattr(ref, name))) < 1e-10, name
            u, v = real.c_matrix, real.s_matrix
            assert np.max(np.abs(u.T @ u - v.T @ v - np.eye(K))) < 1e-13
            occ = np.arange(K) % 3
            assert h3_expectation(qh, occ) == pytest.approx(
                ref.omega_g + float(occ @ ref.energies), rel=1e-12
            )

    @pytest.mark.parametrize("case", ["negative", "trap_mu_plus_3"])
    def test_indefinite_real_d_is_indefinite_for_colpa(self, case, trap_states, uniform_state):
        # The real form's test (M + G and M - G both positive definite) and
        # the oracle's Cholesky of the 2K x 2K D fail together.
        if case == "negative":
            basis = build_phonon_basis(uniform_state, 2)
            m, g = np.diag([-1.0, 2.0]), np.zeros((2, 2))
        else:
            state = trap_states[10.0]
            basis = build_phonon_basis(state, 16)
            qh = assemble_from_fields(
                state.xi.values, basis, state.potential.values, state.u_tilde, state.mu + 3.0
            )
            m, g = qh.m_matrix, qh.g_matrix
        assert m.dtype == g.dtype == np.float64
        qh = QuadraticHamiltonian(e3=0.0, m_matrix=m, g_matrix=g)
        with pytest.raises(InstabilityError) as from_diag:
            diagonalize(qh, basis)
        with pytest.raises(InstabilityError) as from_h3:
            h3_expectation(qh, np.zeros(basis.K))
        assert str(from_h3.value) == str(from_diag.value)
        np.testing.assert_array_equal(from_h3.value.eigenvalues, from_diag.value.eigenvalues)
        with pytest.raises(scipy.linalg.LinAlgError):
            colpa(qh, basis)


class TestComplexRefused:
    """Complex-typed (M, G) have no quasiparticle spectrum in the library."""

    def test_complex_cast_of_real_matrices(self, trap_states):
        state = trap_states[10.0]
        basis = build_phonon_basis(state, 16)
        qh = assemble(state, basis)
        for m, g in (
            (qh.m_matrix.astype(np.complex128), qh.g_matrix.astype(np.complex128)),
            (qh.m_matrix, qh.g_matrix.astype(np.complex128)),
        ):
            cast = QuadraticHamiltonian(qh.e3, m, g)
            with pytest.raises(ConfigurationError, match="complex128"):
                diagonalize(cast, basis)
            with pytest.raises(ConfigurationError, match="complex128"):
                h3_expectation(cast, np.zeros(16))

    def test_complex_condensate_still_gives_complex_basis(self, trap_states):
        # A complex-typed xi with zero imaginary part takes the complex
        # basis path, which assembles but is not diagonalized.
        state = trap_states[10.0]
        cast = dataclasses.replace(
            state, xi=ComplexField(state.xi.values.astype(np.complex128), state.grid)
        )
        basis = build_phonon_basis(cast, 24)
        assert basis.mode_matrix.dtype == np.complex128
        # The same modes to round-off, which 1/|tau| (|tau| = 1.9e-6) amplifies.
        real = build_phonon_basis(state, 24).mode_matrix
        assert np.max(np.abs(basis.mode_matrix - real)) < 1e-10
        qh = assemble(cast, basis)
        assert qh.m_matrix.dtype == qh.g_matrix.dtype == np.complex128
        with pytest.raises(ConfigurationError):
            diagonalize(qh, basis)


class TestH3Expectation:
    def test_vacuum_gives_ground_shift(self, trap_states):
        state = trap_states[0.0]
        basis = build_phonon_basis(state, 12)
        qh = assemble(state, basis)
        spec = diagonalize(qh, basis)
        assert h3_expectation(qh, np.zeros(12)) == pytest.approx(spec.omega_g, abs=1e-10)

    def test_single_excitation_linear_trap(self, trap_states):
        state = trap_states[0.0]
        basis = build_phonon_basis(state, 12)
        qh = assemble(state, basis)
        occ = np.zeros(12)
        occ[0] = 1.0
        spec = diagonalize(qh, basis)
        assert h3_expectation(qh, occ) == pytest.approx(spec.omega_g + 1.0, abs=1e-6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_occupations_must_be_finite_and_non_negative(self, trap_states, bad):
        state = trap_states[0.0]
        qh = assemble(state, build_phonon_basis(state, 4))
        with pytest.raises(ConfigurationError, match="occupations"):
            h3_expectation(qh, [0.0, bad, 0.0, 0.0])

    def test_uniform_pair_excitation(self, uniform_state, uniform_grid):
        basis = build_phonon_basis(uniform_state, 8)
        qh = assemble(uniform_state, basis)
        spec = diagonalize(qh, basis)
        occ = np.zeros(8)
        occ[0] = 1.0
        expected = spec.omega_g + bogoliubov_dispersion(TWO_PI / uniform_grid.length, 2.0, uniform_grid.length)
        assert h3_expectation(qh, occ) == pytest.approx(expected, abs=1e-9)

    def test_indefinite_hamiltonian_raises(self):
        for m, g in _INDEFINITE:
            qh = QuadraticHamiltonian(e3=0.0, m_matrix=m, g_matrix=g)
            with pytest.raises(InstabilityError, match="not positive definite"):
                h3_expectation(qh, np.zeros(2))

    def test_length_mismatch(self, uniform_state):
        basis = build_phonon_basis(uniform_state, 4)
        qh = assemble(uniform_state, basis)
        with pytest.raises(DimensionMismatchError):
            h3_expectation(qh, np.zeros(5))
        with pytest.raises(ConfigurationError):
            h3_expectation(qh, -np.ones(4))
