import dataclasses

import numpy as np
import pytest

from bogolib.bdg import assemble, build_phonon_basis, diagonalize
from bogolib.errors import ConfigurationError, DimensionMismatchError, TruncationError
from bogolib.gpe import CondensateState, harmonic_potential, zero_potential
from bogolib.grid import ComplexField, inner_product, norm
from bogolib.number_shift import (
    StationaryProblem,
    build_report,
    exact_dxi_dN,
    matrix_elements,
    modified_amplitudes,
    phase_fix_and_r,
)

from oracles import colpa, dxi_dN

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def trap_problem(trap_grid):
    return StationaryProblem(grid=trap_grid, potential=harmonic_potential(trap_grid), u=0.1)


@pytest.fixture(scope="module")
def trap_setup(trap_problem):
    state = trap_problem.solve(100.0)
    basis = build_phonon_basis(state, 32)
    spectrum = diagonalize(assemble(state, basis), basis)
    return trap_problem, state, basis, spectrum


class TestDxiDN:
    def test_uniform_gas_is_n_independent(self, uniform_grid):
        problem = StationaryProblem(
            grid=uniform_grid, potential=zero_potential(uniform_grid), u=0.02
        )
        dxi = dxi_dN(problem, 100.0, 0.5)
        assert norm(dxi) < 1e-10

    def test_noninteracting_trap_is_n_independent(self, trap_grid):
        problem = StationaryProblem(
            grid=trap_grid, potential=harmonic_potential(trap_grid), u=0.0
        )
        dxi = dxi_dN(problem, 100.0, 0.5)
        assert norm(dxi) < 1e-10

    def test_interacting_richardson_consistency(self, trap_setup):
        problem, state, _, _ = trap_setup
        coarse = dxi_dN(problem, 100.0, 0.5)
        fine = dxi_dN(problem, 100.0, 0.25)
        assert norm(coarse) > 1e-3  # genuinely nonzero field
        diff = np.sqrt(
            np.vdot(coarse.values - fine.values, coarse.values - fine.values).real
            * state.grid.dx
        )
        assert diff < 1e-6

    def test_normalization_orthogonality(self, trap_setup):
        problem, state, _, _ = trap_setup
        dxi = dxi_dN(problem, 100.0, 0.5)
        assert abs(inner_product(state.xi, dxi).real) < 1e-8


class TestExactDxiDN:
    def test_finite_difference_converges_to_exact_r(self, trap_setup):
        # The central difference carries an O(dN^2) error: its gap to the
        # exact r shrinks about 4x when the step halves.
        problem, state, basis, _ = trap_setup
        exact = phase_fix_and_r(state, basis, exact_dxi_dN(state)[0])
        gaps = []
        for step in (0.5, 0.25):
            fd = phase_fix_and_r(state, basis, dxi_dN(problem, 100.0, step))
            gaps.append(np.max(np.abs(fd.r - exact.r)))
        assert gaps[0] < 1e-4 * np.max(np.abs(exact.r))
        assert 3.5 < gaps[0] / gaps[1] < 4.5

    def test_real_and_gauge_fixed(self, trap_setup):
        _, state, basis, _ = trap_setup
        dxi, _ = exact_dxi_dN(state)
        assert dxi.values.dtype == np.float64
        fix = phase_fix_and_r(state, basis, dxi)
        assert fix.r0_raw == 0.0
        assert abs(inner_product(state.xi, dxi)) < 1e-12

    def test_dmu_dn_matches_central_difference(self, trap_setup):
        problem, state, _, _ = trap_setup
        _, dmu = exact_dxi_dN(state)
        central = (problem.solve(100.5).mu - problem.solve(99.5).mu) / 1.0
        assert dmu == pytest.approx(central, rel=1e-5)

    def test_dmu_dn_thomas_fermi_scaling(self, wide_trap_grid):
        # Thomas-Fermi: mu grows as (u N)^(2/3), so N dmu/dN / mu -> 2/3.
        problem = StationaryProblem(
            grid=wide_trap_grid, potential=harmonic_potential(wide_trap_grid), u=0.1
        )
        state = problem.solve(1000.0)
        _, dmu = exact_dxi_dN(state)
        assert dmu * state.n_particles / state.mu == pytest.approx(2.0 / 3.0, rel=5e-3)

    def test_phased_orbital_rejected(self, trap_setup):
        problem, state, basis, spectrum = trap_setup
        phased = CondensateState(
            xi=ComplexField(state.xi.values * np.exp(0.3j), state.grid),
            n_particles=state.n_particles,
            u_tilde=state.u_tilde,
            potential=state.potential,
            mu=state.mu,
            residual=state.residual,
        )
        with pytest.raises(ConfigurationError, match="imaginary"):
            build_report(problem, phased, basis, spectrum)

    def test_complex_typed_orbital_rejected_with_zero_imaginary_part(self, trap_setup):
        _, state, _, _ = trap_setup
        cast = dataclasses.replace(state, xi=ComplexField(state.xi.values + 0j, state.grid))
        with pytest.raises(ConfigurationError, match="complex-typed"):
            exact_dxi_dN(cast)

    def test_state_of_another_coupling_rejected(self, trap_setup, trap_problem):
        _, state, basis, spectrum = trap_setup
        other = StationaryProblem(trap_problem.grid, trap_problem.potential, u=0.2)
        with pytest.raises(ConfigurationError, match="u_tilde"):
            build_report(other, state, basis, spectrum)

    def test_report_carries_exact_derivative(self, trap_setup):
        problem, state, basis, spectrum = trap_setup
        report = build_report(problem, state, basis, spectrum)
        dxi, dmu = exact_dxi_dN(state)
        assert np.array_equal(report.dxi_dN.values, dxi.values)
        assert report.dmu_dN == dmu
        assert report.r0_raw == 0.0


class TestPhaseFixAndR:
    def test_zero_input(self, trap_setup):
        _, state, basis, _ = trap_setup
        zero = ComplexField(np.zeros(state.grid.n_points, dtype=complex), state.grid)
        fix = phase_fix_and_r(state, basis, zero)
        assert fix.r0_raw == 0.0
        assert fix.r0 == 0.0
        assert np.max(np.abs(fix.r)) == 0.0

    def test_pure_gauge_drift(self, trap_setup):
        # dxi = (i/N) xi is pure phase drift: |r0| = 1 before fixing
        # (sign -1 in this convention), zero after, and r untouched.
        _, state, basis, _ = trap_setup
        n = state.n_particles
        drift = ComplexField(1j / n * state.xi.values, state.grid)
        fix = phase_fix_and_r(state, basis, drift)
        assert fix.r0_raw == pytest.approx(-1.0, abs=1e-12)
        assert abs(fix.r0) < 1e-12
        assert np.max(np.abs(fix.r)) < 1e-10
        assert norm(fix.dxi_fixed) < 1e-12

    def test_real_derivative_stays_real(self, trap_setup):
        _, state, basis, _ = trap_setup
        fix = phase_fix_and_r(state, basis, exact_dxi_dN(state)[0])
        assert fix.dxi_fixed.values.dtype == np.float64
        assert fix.r.dtype == np.float64

    def test_r0_vanishes_after_fixing(self, trap_setup):
        problem, state, basis, _ = trap_setup
        dxi = dxi_dN(problem, 100.0, 0.5)
        fix = phase_fix_and_r(state, basis, dxi)
        assert abs(fix.r0) < 1e-8
        assert abs(inner_product(state.xi, fix.dxi_fixed)) < 1e-12

    def test_r_of_order_one_and_k_stable(self, trap_setup):
        problem, state, basis, _ = trap_setup
        dxi = dxi_dN(problem, 100.0, 0.5)
        fix32 = phase_fix_and_r(state, basis, dxi)
        assert 0.01 < np.sum(np.abs(fix32.r) ** 2) < 10.0
        basis64 = build_phonon_basis(state, 64)
        fix64 = phase_fix_and_r(state, basis64, dxi)
        assert abs(
            np.sum(np.abs(fix32.r) ** 2) - np.sum(np.abs(fix64.r) ** 2)
        ) < 1e-6

    def test_richardson_stability_of_r(self, trap_grid):
        # Larger N at fixed u_tilde flattens the N-dependence, keeping the
        # finite-difference error below 1e-5 relative at the default step.
        problem = StationaryProblem(
            grid=trap_grid, potential=harmonic_potential(trap_grid), u=0.025
        )
        state = problem.solve(400.0)
        basis = build_phonon_basis(state, 32)
        fix_a = phase_fix_and_r(state, basis, dxi_dN(problem, 400.0, 0.5))
        fix_b = phase_fix_and_r(state, basis, dxi_dN(problem, 400.0, 0.25))
        significant = np.abs(fix_a.r) > 1e-3 * np.max(np.abs(fix_a.r))
        rel = np.max(
            np.abs(fix_a.r[significant] - fix_b.r[significant])
            / np.abs(fix_a.r[significant])
        )
        assert rel < 1e-5

    def test_truncation_error_with_tiny_basis(self, trap_setup):
        problem, state, _, _ = trap_setup
        small_basis = build_phonon_basis(state, 2)
        dxi = dxi_dN(problem, 100.0, 0.5)
        with pytest.raises(TruncationError):
            phase_fix_and_r(state, small_basis, dxi)


class TestModifiedAmplitudes:
    def test_zero_r_reduces_to_p_q(self, trap_setup):
        _, state, _, spectrum = trap_setup
        f_waves, g_waves = modified_amplitudes(spectrum, state, np.zeros(32))
        assert np.array_equal(f_waves, spectrum.p_waves)
        assert np.array_equal(g_waves, spectrum.q_waves)

    def test_noninteracting_trap_reduces_exactly(self, trap_grid):
        problem = StationaryProblem(
            grid=trap_grid, potential=harmonic_potential(trap_grid), u=0.0
        )
        state = problem.solve(50.0)
        basis = build_phonon_basis(state, 16)
        spectrum = diagonalize(assemble(state, basis), basis)
        report = build_report(problem, state, basis, spectrum)
        assert np.max(np.abs(report.r)) < 1e-8
        assert np.max(np.abs(report.f_waves - spectrum.p_waves)) < 1e-8
        for g in report.g_waves:
            assert norm(ComplexField(g, state.grid)) < 1e-8  # no anomalous part at u = 0

    def test_interacting_corrections_significant(self, trap_setup):
        problem, state, basis, spectrum = trap_setup
        report = build_report(problem, state, basis, spectrum)
        rel = np.linalg.norm(report.f_waves - spectrum.p_waves, axis=1) / np.linalg.norm(
            spectrum.p_waves, axis=1
        )
        assert max(rel) > 1e-3

    def test_index_mismatch(self, trap_setup):
        _, state, _, spectrum = trap_setup
        with pytest.raises(DimensionMismatchError):
            modified_amplitudes(spectrum, state, np.zeros(7))


class TestGaugeInvariance:
    def test_common_phase_leaves_observables_unchanged(self, trap_setup):
        # A common constant phase on the N-family rotates r by the same
        # phase (the mode basis is phase-blind) but leaves |r_k| and the
        # transition amplitudes f_m, g_m exactly invariant.
        problem, state, basis, spectrum = trap_setup
        dxi = dxi_dN(problem, 100.0, 0.5)
        fix = phase_fix_and_r(state, basis, dxi)
        f_ref, g_ref = modified_amplitudes(spectrum, state, fix.r)

        phase = np.exp(0.9j)
        state_rot = CondensateState(
            xi=ComplexField(state.xi.values * phase, state.grid),
            n_particles=state.n_particles,
            u_tilde=state.u_tilde,
            potential=state.potential,
            mu=state.mu,
            residual=state.residual,
        )
        dxi_rot = ComplexField(dxi.values * phase, state.grid)
        fix_rot = phase_fix_and_r(state_rot, basis, dxi_rot)
        assert np.max(np.abs(np.abs(fix_rot.r) - np.abs(fix.r))) < 1e-10
        assert np.max(np.abs(fix_rot.r - np.conj(phase) * fix.r)) < 1e-10

        # p_m, q_m and the basis do not depend on the condensate phase, so
        # rebuild the amplitudes with the rotated inputs.  The rotated G is
        # complex, which only the Colpa oracle diagonalizes.
        spectrum_rot = colpa(assemble(state_rot, basis), basis)
        f_rot, g_rot = modified_amplitudes(spectrum_rot, state_rot, fix_rot.r)
        # Transformation columns carry an arbitrary overall phase per
        # mode; compare gauge-invariant magnitudes.
        assert np.max(np.abs(np.abs(f_rot) - np.abs(f_ref))) < 1e-10
        assert np.max(np.abs(np.abs(g_rot) - np.abs(g_ref))) < 1e-10


class TestMatrixElements:
    def test_bookkeeping_identity(self, trap_setup):
        problem, state, basis, spectrum = trap_setup
        report = build_report(problem, state, basis, spectrum)
        elements = matrix_elements(state, report)
        recovered = elements.ground_to_ground.values / elements.condensate_amplitude
        assert np.max(np.abs(recovered - state.xi.values)) < 1e-12
        assert elements.condensate_amplitude == pytest.approx(
            np.sqrt(state.n_particles + 1)
        )
        assert elements.channel_order == pytest.approx(1 / np.sqrt(state.n_particles))

    def test_uniform_channels_reduce_to_p_q_forms(self, uniform_grid):
        problem = StationaryProblem(
            grid=uniform_grid, potential=zero_potential(uniform_grid), u=0.02
        )
        state = problem.solve(100.0)
        basis = build_phonon_basis(state, 8)
        spectrum = diagonalize(assemble(state, basis), basis)
        report = build_report(problem, state, basis, spectrum)
        elements = matrix_elements(state, report)
        scale = elements.condensate_amplitude * elements.channel_order
        assert np.max(np.abs(elements.f_channels - scale * spectrum.p_waves)) < 1e-8
        assert np.max(np.abs(elements.g_channels - scale * spectrum.q_waves)) < 1e-8
