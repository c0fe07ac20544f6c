import numpy as np
import pytest
import scipy.linalg

from bogolib import gpe
from bogolib.bdg import build_phonon_basis, plane_wave_basis
from bogolib.errors import ConfigurationError, ConvergenceError
from bogolib.gpe import (
    CondensateState,
    chemical_potential,
    energy_functional_h1,
    gpe_residual,
    h2_coefficients,
    harmonic_potential,
    solve_stationary,
)
from bogolib.grid import ComplexField, apply_kinetic, build_grid, inner_product, norm

TWO_PI = 2.0 * np.pi


def thomas_fermi_mu(u_tilde):
    return (3.0 * u_tilde / (4.0 * np.sqrt(2.0))) ** (2.0 / 3.0)


class TestSolveStationary:
    def test_linear_harmonic_ground_state(self, wide_trap_grid):
        grid = wide_trap_grid
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde=0.0)
        assert state.mu == pytest.approx(0.5, abs=1e-8)
        x = grid.points - grid.center
        gaussian = np.exp(-0.5 * x**2) / np.pi**0.25
        assert np.max(np.abs(state.xi.values - gaussian)) < 1e-8

    def test_uniform_solution_exact(self, uniform_state, uniform_grid):
        L = uniform_grid.length
        assert np.max(np.abs(uniform_state.xi.values - 1 / np.sqrt(L))) < 1e-13
        assert uniform_state.mu == pytest.approx(2.0 / L, abs=1e-13)

    def test_thomas_fermi_regime(self, wide_trap_grid):
        state = solve_stationary(wide_trap_grid, harmonic_potential(wide_trap_grid), u_tilde=100.0)
        assert state.mu == pytest.approx(thomas_fermi_mu(100.0), rel=0.02)

    def test_normalization_and_gauge(self, trap_states):
        for state in trap_states.values():
            assert abs(norm(state.xi) - 1.0) < 1e-12
            assert np.max(np.abs(state.xi.values.imag)) < 1e-12

    def test_energy_monotone_during_relaxation(self, trap_states):
        for state in trap_states.values():
            drops = np.diff(state.h1_history[:-1])
            assert np.all(drops <= 1e-12)

    def test_mu_consistent_with_functional(self, trap_states):
        for state in trap_states.values():
            assert state.mu == pytest.approx(chemical_potential(state), abs=1e-10)

    def test_mu_monotone_in_interaction(self, trap_states):
        mus = [trap_states[ut].mu for ut in (0.0, 1.0, 10.0, 50.0)]
        assert np.all(np.diff(mus) > 0)

    def test_virial_identity(self, trap_states):
        # 1D scaling identity for the harmonic trap:
        # 2<T> - 2<V> + (u/2) integral |xi|^4 = 0.
        for state in trap_states.values():
            grid = state.grid
            kinetic = inner_product(state.xi, apply_kinetic(state.xi)).real
            pot = float(np.sum(state.potential.values.real * np.abs(state.xi.values) ** 2) * grid.dx)
            quart = 0.5 * state.u_tilde * float(np.sum(np.abs(state.xi.values) ** 4) * grid.dx)
            assert abs(2 * kinetic - 2 * pot + quart) < 1e-6

    def test_attractive_rejected(self, trap_grid):
        with pytest.raises(ConfigurationError):
            solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=-1.0)

    def test_nonconvergence_reports_residual(self, trap_grid):
        with pytest.raises(ConvergenceError) as excinfo:
            solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=10.0, tol=1e-16)
        assert excinfo.value.residual is not None
        assert excinfo.value.residual > 1e-16


ORIGINAL_SOLVE = scipy.linalg.solve


class SolveSpy:
    """Stand-in for scipy.linalg.solve that counts the bordered solves.

    ``on_call`` maps a 1-based call number to a function that replaces
    the true solution of that call (or raises).
    """

    def __init__(self, on_call=None):
        self.calls = 0
        self.on_call = on_call or {}

    def __call__(self, *args, **kwargs):
        self.calls += 1
        solution = ORIGINAL_SOLVE(*args, **kwargs)
        tamper = self.on_call.get(self.calls)
        return tamper(solution) if tamper else solution


def _huge_step(solution):
    return 1e6 * solution


def _singular(solution):
    raise scipy.linalg.LinAlgError("singular matrix")


class TestNewtonPolish:
    @pytest.mark.parametrize("boundary", ["box", "periodic"])
    @pytest.mark.parametrize("n_points", [128, 512, 1024])
    def test_ladder_converges_in_few_solves(self, monkeypatch, boundary, n_points):
        spy = SolveSpy()
        monkeypatch.setattr(gpe.scipy.linalg, "solve", spy)
        grid = build_grid(n_points, 16.0, boundary)
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde=10.0)
        assert state.residual <= 1e-11
        assert state.residual == pytest.approx(gpe_residual(state))
        assert 1 <= spy.calls <= 6

    def test_floor_above_tol_fails_fast_and_names_it(self, monkeypatch):
        # At n=2048 on this box the round-off floor (about 1.2e-11) lies
        # just above the default tol.
        spy = SolveSpy()
        monkeypatch.setattr(gpe.scipy.linalg, "solve", spy)
        grid = build_grid(2048, 16.0, "box")
        with pytest.raises(ConvergenceError, match="round-off floor") as excinfo:
            solve_stationary(grid, harmonic_potential(grid), u_tilde=2.0)
        assert excinfo.value.residual > 1e-11
        assert f"{excinfo.value.residual:.3e}" in str(excinfo.value)
        assert spy.calls <= 6

    def test_rejected_step_keeps_last_accepted_state(self, monkeypatch, trap_grid):
        # The first Newton step reaches ~4e-5 <= tol; the second is blown up.
        # The returned residual must belong to the returned orbital.
        monkeypatch.setattr(gpe.scipy.linalg, "solve", SolveSpy({2: _huge_step}))
        state = solve_stationary(trap_grid, harmonic_potential(trap_grid), 10.0, tol=1e-4)
        assert state.residual == pytest.approx(gpe_residual(state))
        assert abs(norm(state.xi) - 1.0) < 1e-12

    def test_diverging_step_named(self, monkeypatch, trap_grid):
        monkeypatch.setattr(gpe.scipy.linalg, "solve", SolveSpy({2: _huge_step}))
        with pytest.raises(ConvergenceError, match="diverging step") as excinfo:
            solve_stationary(trap_grid, harmonic_potential(trap_grid), 10.0)
        assert excinfo.value.residual < 1e-3

    def test_singular_jacobian_named_and_chained(self, monkeypatch, trap_grid):
        monkeypatch.setattr(gpe.scipy.linalg, "solve", SolveSpy({1: _singular}))
        with pytest.raises(ConvergenceError, match="singular Jacobian") as excinfo:
            solve_stationary(trap_grid, harmonic_potential(trap_grid), 10.0)
        assert isinstance(excinfo.value.__cause__, scipy.linalg.LinAlgError)


class TestFunctionals:
    def test_uniform_values(self, uniform_state, uniform_grid):
        L = uniform_grid.length
        assert chemical_potential(uniform_state) == pytest.approx(2.0 / L, abs=1e-14)
        assert energy_functional_h1(uniform_state) == pytest.approx(1.0 / L, abs=1e-14)

    def test_harmonic_zero_point(self, trap_states):
        state = trap_states[0.0]
        assert chemical_potential(state) == pytest.approx(0.5, abs=1e-10)
        assert energy_functional_h1(state) == pytest.approx(0.5, abs=1e-10)

    def test_mu_minus_h1_identity(self, trap_states):
        for state in trap_states.values():
            quart = 0.5 * state.u_tilde * float(
                np.sum(np.abs(state.xi.values) ** 4) * state.grid.dx
            )
            assert state.mu - energy_functional_h1(state) == pytest.approx(quart, abs=1e-10)

    def test_thomas_fermi_profile_oracle(self):
        # Quadrature of the potential + interaction parts of the chemical
        # potential over the analytic Thomas-Fermi profile reproduces the
        # analytic mu; the solved state sits nearby (kinetic correction).
        grid = build_grid(512, 24.0, "box")
        u_tilde = 100.0
        mu_tf = thomas_fermi_mu(u_tilde)
        x = grid.points - grid.center
        dens = np.maximum(mu_tf - 0.5 * x**2, 0.0) / u_tilde
        dens /= np.sum(dens) * grid.dx
        pot_part = float(np.sum(0.5 * x**2 * dens) * grid.dx)
        int_part = u_tilde * float(np.sum(dens**2) * grid.dx)
        assert pot_part + int_part == pytest.approx(mu_tf, rel=1e-2)
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde=u_tilde)
        assert state.mu == pytest.approx(mu_tf, rel=0.02)


class TestResidualAndH2:
    def test_uniform_residual_roundoff(self, uniform_state):
        assert gpe_residual(uniform_state) < 1e-13

    def test_solver_output_below_tol(self, trap_states):
        for state in trap_states.values():
            assert gpe_residual(state) <= 1e-11

    def test_analytic_gaussian_residual(self):
        grid = build_grid(512, 24.0, "box")
        x = grid.points - grid.center
        gaussian = (np.exp(-0.5 * x**2) / np.pi**0.25).astype(complex)
        state = CondensateState(
            xi=ComplexField(gaussian, grid),
            n_particles=1.0,
            u_tilde=0.0,
            potential=harmonic_potential(grid),
            mu=0.5,
            residual=0.0,
        )
        assert gpe_residual(state) < 1e-10

    def test_h2_vanishes_at_converged_states(self, trap_states):
        for state in trap_states.values():
            basis = build_phonon_basis(state, 32)
            assert np.linalg.norm(h2_coefficients(state, basis)) < 1e-8

    def test_h2_detects_perturbation(self, trap_states):
        state = trap_states[10.0]
        basis = build_phonon_basis(state, 32)
        perturbed = state.xi.values + 0.01 * basis.mode_matrix[0]
        perturbed /= np.sqrt(np.sum(np.abs(perturbed) ** 2) * state.grid.dx)
        bad = CondensateState(
            xi=ComplexField(perturbed, state.grid),
            n_particles=state.n_particles,
            u_tilde=state.u_tilde,
            potential=state.potential,
            mu=state.mu,
            residual=np.inf,
        )
        bad_basis = build_phonon_basis(bad, 32)
        assert np.linalg.norm(h2_coefficients(bad, bad_basis)) > 1e-3

    def test_h2_uniform_plane_waves_exact(self, uniform_state):
        basis = plane_wave_basis(uniform_state, 8)
        assert np.linalg.norm(h2_coefficients(uniform_state, basis)) < 1e-14
