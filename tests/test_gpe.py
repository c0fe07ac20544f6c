import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg

from bogolib import gpe
from bogolib.bdg import build_phonon_basis
from bogolib.errors import ConfigurationError, ConvergenceError
from bogolib.gpe import (
    CondensateState,
    chemical_potential,
    default_tol,
    energy_functional_h1,
    gpe_residual,
    h2_coefficients,
    harmonic_potential,
    solve_stationary,
)
from bogolib.grid import (
    ComplexField,
    build_grid,
    inner_product,
    kinetic_matrix,
    norm,
    spectral_map,
)
from bogolib.number_shift import StationaryProblem, exact_dxi_dN

from oracles import plane_wave_basis

TWO_PI = 2.0 * np.pi


def thomas_fermi_mu(u_tilde, omega=1.0):
    return (3.0 * u_tilde * omega / (4.0 * np.sqrt(2.0))) ** (2.0 / 3.0)


def thomas_fermi_mu_box(u_tilde, omega, length):
    """Thomas-Fermi mu of a harmonic trap inside a box of this length.

    When the Thomas-Fermi radius sqrt(2 mu)/omega exceeds L/2 the walls
    clip the profile, and the integral of mu - omega^2 x^2/2 over the box
    equals u_tilde.
    """
    mu = thomas_fermi_mu(u_tilde, omega)
    half = 0.5 * length
    if np.sqrt(2.0 * mu) / omega <= half:
        return mu
    return (u_tilde + omega**2 * half**3 / 3.0) / (2.0 * half)


def fixed_start(shape):
    """Stand-in for gpe._starting_orbital that always starts from ``shape``."""

    def start(grid, v_real, u_tilde):
        psi = shape(grid, v_real)
        return psi / np.sqrt(np.sum(psi**2) * grid.dx)

    return start


def named_excited_state(error):
    """(sign changes, mu) that the certificate's error names."""
    match = re.search(r"excited state.*mu = (\S+), sign changes of xi = (\d+)", str(error))
    return int(match.group(2)), float(match.group(1))


def exp_shape(grid, v_real):
    return np.exp(-(v_real - v_real.min()))


def one_node_shape(grid, v_real):
    return (grid.points - grid.center) * np.exp(-(v_real - v_real.min()))


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

    def test_orbital_and_potential_are_contiguous_float64(self, trap_grid):
        # A complex-typed potential with zero imaginary part is converted once;
        # the state holds that float64 copy and the same orbital bit for bit,
        # and no state can be built on the complex-typed one.
        real = harmonic_potential(trap_grid)
        cast = ComplexField(real.values + 0j, trap_grid)
        states = [solve_stationary(trap_grid, v, u_tilde=1.0) for v in (real, cast)]
        for state in states:
            for values in (state.xi.values, state.potential.values):
                assert values.dtype == np.float64 and values.flags.c_contiguous
        assert states[1].potential is not cast
        np.testing.assert_array_equal(states[1].xi.values, states[0].xi.values)
        with pytest.raises(ConfigurationError, match="potential must be float64"):
            dataclasses.replace(states[0], potential=cast)

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
            t_xi = ComplexField(spectral_map(grid, grid.kinetic_eigs, state.xi.values), grid)
            kinetic = inner_product(state.xi, t_xi).real
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

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"u_tilde": float("nan")}, "u_tilde must be finite"),
            ({"u_tilde": float("inf")}, "u_tilde must be finite"),
            ({"n_particles": -5.0}, "n_particles"),
            ({"n_particles": 0.0}, "n_particles"),
            ({"n_particles": float("nan")}, "n_particles"),
            ({"n_particles": float("inf")}, "n_particles"),
            ({"tol": float("nan")}, "tol must be positive"),
            ({"potential_entry": float("nan")}, "potential must be finite"),
            ({"potential_entry": float("inf")}, "potential must be finite"),
            ({"potential_entry": 1.0 + 1e-3j}, "potential must be real-valued"),
        ],
    )
    def test_non_finite_inputs_rejected(self, trap_grid, bad, match):
        kwargs = {"u_tilde": 1.0, "n_particles": 10.0, "tol": None}
        values = harmonic_potential(trap_grid).values
        entry = bad.pop("potential_entry", values[7])
        values = np.where(np.arange(values.size) == 7, entry, values)  # complex for a complex entry
        kwargs.update(bad)
        with pytest.raises(ConfigurationError, match=match):
            solve_stationary(trap_grid, ComplexField(values, trap_grid), **kwargs)

    def test_nan_residual_never_passes(self, monkeypatch, trap_grid):
        # H psi reads NaN everywhere but inside the descent, which passes its own T psi.
        real = gpe._gp_operator

        def nan_operator(grid, v_real, u_tilde, psi, t_psi=None):
            h_psi, mu, h1 = real(grid, v_real, u_tilde, psi, t_psi)
            return (h_psi if t_psi is not None else np.full_like(h_psi, np.nan)), mu, h1

        monkeypatch.setattr(gpe, "_gp_operator", nan_operator)
        with pytest.raises(ConvergenceError, match="stalled at residual nan"):
            solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=1.0)


# Stiff, coarse box traps at u_tilde = 2000 (n, L, omega), far from the
# exp(-V) start; the grids do not resolve the healing length.
STRONG_COUPLING_TRAPS = [(128, 8.0, 3.0), (128, 16.0, 5.0), (256, 40.0, 1.0), (256, 40.0, 5.0)]


class TestGroundStateCertificate:
    @pytest.mark.parametrize("n_points, length, omega", STRONG_COUPLING_TRAPS)
    def test_strong_coupling_reaches_nodeless_ground_state(self, n_points, length, omega):
        grid = build_grid(n_points, length, "box")
        state = solve_stationary(grid, harmonic_potential(grid, omega), u_tilde=2000.0)
        assert state.residual <= default_tol(grid)
        assert state.trace.sign_changes == 0
        xi = state.xi.values.real
        assert xi.min() > -gpe._NODE_FLOOR * xi.max()
        assert state.mu == pytest.approx(thomas_fermi_mu_box(2000.0, omega, length), rel=0.03)

    def test_excited_state_from_exp_start_is_named(self, monkeypatch):
        # From exp(-(V - V_min)) the descent on this stiff, coarse trap ends
        # near a state with many nodes, and Newton polishes it.
        monkeypatch.setattr(gpe, "_starting_orbital", fixed_start(exp_shape))
        n_points, length, omega = STRONG_COUPLING_TRAPS[-1]
        grid = build_grid(n_points, length, "box")
        with pytest.raises(ConvergenceError, match="excited state") as excinfo:
            solve_stationary(grid, harmonic_potential(grid, omega), u_tilde=2000.0)
        changes, mu = named_excited_state(excinfo.value)
        assert changes > 0
        assert mu > 1.1 * thomas_fermi_mu(2000.0, omega)
        assert excinfo.value.residual <= default_tol(grid)

    def test_one_node_state_is_named(self, monkeypatch, wide_trap_grid):
        # x exp(-x^2/2) is the first excited state of the linear trap.
        monkeypatch.setattr(gpe, "_starting_orbital", fixed_start(one_node_shape))
        grid = wide_trap_grid
        with pytest.raises(ConvergenceError, match="excited state") as excinfo:
            solve_stationary(grid, harmonic_potential(grid), u_tilde=0.0)
        changes, mu = named_excited_state(excinfo.value)
        assert changes == 1
        assert mu == pytest.approx(1.5, abs=1e-8)


ORIGINAL_SOLVE = gpe._solve_linearized


class SolveSpy:
    """Stand-in for gpe._solve_linearized that counts the Newton solves.

    ``on_call`` maps a 1-based call number to a function that replaces
    the true (d, m, iterations) of that call (or raises).
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
    d, m, iterations = solution
    return 1e6 * d, m, iterations


def _failed_solve(solution):
    raise ConvergenceError("CG met non-positive curvature p.Jp = -1.000e+00 at iteration 1")


def dense_bordered_solve(grid, v_real, u_tilde, psi, mu, rhs):
    """The bordered system of the gpe module docstring, by dense LU: O(n^3).

    [[T + V + 3 u psi^2 - mu, -psi], [psi^T dx, 0]] [d; m] = [rhs; 0].
    """
    n = grid.n_points
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = kinetic_matrix(grid)
    system[range(n), range(n)] += v_real + 3.0 * u_tilde * psi**2 - mu
    system[:n, n] = -psi
    system[n, :n] = psi * grid.dx
    solution = scipy.linalg.solve(system, np.append(rhs, 0.0))
    return solution[:n], float(solution[n])


def perturbed_newton_problem(state):
    """A normalized orbital off the ground state and its Newton right-hand side."""
    grid = state.grid
    v_real = state.potential.values.real
    psi = state.xi.values.real + 1e-3 * np.sin(3.0 * np.pi * grid.points / grid.length)
    psi /= np.sqrt(np.sum(psi**2) * grid.dx)
    h_psi, mu, _ = gpe._gp_operator(grid, v_real, state.u_tilde, psi)
    residual = h_psi.real - mu * psi
    return v_real, psi, mu, -residual


def _assert_close(d, m, dense_d, dense_m):
    assert np.linalg.norm(d - dense_d) <= 1e-10 * np.linalg.norm(dense_d)
    assert abs(m - dense_m) <= 1e-10 * abs(dense_m)


class TestLinearizedSolve:
    @pytest.mark.parametrize("u_tilde", [0.0, 2.0, 50.0])
    @pytest.mark.parametrize("boundary", ["box", "periodic"])
    @pytest.mark.parametrize("n_points", [128, 512])
    def test_matches_dense_bordered_oracle(self, n_points, boundary, u_tilde):
        grid = build_grid(n_points, 16.0, boundary)
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde, n_particles=100.0)
        # A Newton step off the ground state.
        v_real, psi, mu, rhs = perturbed_newton_problem(state)
        d, m, iterations = gpe._solve_linearized(grid, v_real, u_tilde, psi, mu, rhs)
        _assert_close(d, m, *dense_bordered_solve(grid, v_real, u_tilde, psi, mu, rhs))
        assert 0 < iterations <= 60
        # The N-derivative at the ground state (zero when u_tilde = 0).
        dxi, dmu = exact_dxi_dN(state)
        psi = state.xi.values.real
        rhs = -(u_tilde / state.n_particles) * psi**3
        _assert_close(
            dxi.values.real, dmu, *dense_bordered_solve(grid, v_real, u_tilde, psi, state.mu, rhs)
        )

    @pytest.mark.parametrize("boundary", ["box", "periodic"])
    def test_one_transform_pair_per_iteration(self, monkeypatch, boundary):
        # The CG runs on spectral coefficients: each iteration transforms only
        # for the potential term of J; three more transforms take rhs and the
        # orbital to the spectral basis and the solution back.
        grid = build_grid(1024, 16.0, boundary)
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde=2.0)
        v_real, psi, mu, rhs = perturbed_newton_problem(state)
        calls = []

        def counted(transform):
            def wrapper(*args):
                calls.append(transform.__name__)
                return transform(*args)

            return wrapper

        for name in ("to_spectral", "from_spectral"):
            monkeypatch.setattr(gpe, name, counted(getattr(gpe, name)))
        d, m, iterations = gpe._solve_linearized(grid, v_real, 2.0, psi, mu, rhs)
        assert iterations > 0
        assert len(calls) == 2 * iterations + 3
        assert d.dtype == np.float64 and d.flags.c_contiguous

    def test_zero_right_hand_side(self, trap_states):
        state = trap_states[10.0]
        psi = state.xi.values.real
        d, m, iterations = gpe._solve_linearized(
            state.grid, state.potential.values.real, 10.0, psi, state.mu, np.zeros_like(psi)
        )
        assert iterations == 0 and m == 0.0 and not np.any(d)

    def test_right_hand_side_along_the_orbital(self, trap_states):
        # J d - m psi = c psi has d = 0 and m = -c; CG on the round-off of
        # the projected right-hand side would meet non-positive curvature.
        state = trap_states[10.0]
        psi = state.xi.values.real
        d, m, iterations = gpe._solve_linearized(
            state.grid, state.potential.values.real, 10.0, psi, state.mu, 0.3 * psi
        )
        assert iterations == 0 and not np.any(d)
        assert m == pytest.approx(-0.3, rel=1e-14)

    def test_uniform_state_derivative_has_no_shape_change(self, uniform_state):
        # xi^3 is parallel to a constant xi: dxi/dN = 0, dmu/dN = u integral xi^4 / N.
        dxi, dmu = exact_dxi_dN(uniform_state)
        assert not np.any(dxi.values)
        L = uniform_state.grid.length
        assert dmu == pytest.approx(uniform_state.u_tilde / L / uniform_state.n_particles, rel=1e-13)

    def test_non_positive_curvature_raises(self, trap_states):
        # Far above the spectrum, J is negative definite off the orbital.
        state = trap_states[10.0]
        psi = state.xi.values.real
        rhs = np.sin(2.0 * np.pi * state.grid.points / state.grid.length)
        with pytest.raises(ConvergenceError, match="non-positive curvature"):
            gpe._solve_linearized(state.grid, state.potential.values.real, 10.0, psi, 1e3, rhs)

    def test_iteration_cap_raises(self, monkeypatch, trap_states):
        monkeypatch.setattr(gpe, "_CG_MAX_ITERS", 3)
        state = trap_states[10.0]
        v_real, psi, mu, rhs = perturbed_newton_problem(state)
        with pytest.raises(ConvergenceError, match="did not converge in 3 iterations"):
            gpe._solve_linearized(state.grid, v_real, 10.0, psi, mu, rhs)


class TestNewtonPolish:
    @pytest.mark.parametrize("boundary", ["box", "periodic"])
    @pytest.mark.parametrize("n_points", [128, 512, 1024, 2048, 4096])
    def test_ladder_converges_in_few_solves(self, monkeypatch, boundary, n_points):
        spy = SolveSpy()
        monkeypatch.setattr(gpe, "_solve_linearized", spy)
        grid = build_grid(n_points, 16.0, boundary)
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde=10.0)
        trace = state.trace
        assert state.residual <= default_tol(grid)
        assert state.residual == pytest.approx(gpe_residual(state))
        assert trace.stop_reason == "round-off floor"
        assert 1 <= trace.newton_steps == spy.calls <= 6
        assert all(0 < k <= 60 for k in trace.cg_iterations)
        assert state.residual == min(trace.residuals)

    def test_floor_above_tol_fails_fast_and_names_it(self, monkeypatch):
        # At n=2048 on this box the round-off floor (about 1.2e-11) lies
        # just above an explicit tol of 1e-11, which stays absolute.
        spy = SolveSpy()
        monkeypatch.setattr(gpe, "_solve_linearized", spy)
        grid = build_grid(2048, 16.0, "box")
        with pytest.raises(ConvergenceError, match="round-off floor") as excinfo:
            solve_stationary(grid, harmonic_potential(grid), u_tilde=2.0, tol=1e-11)
        assert excinfo.value.residual > 1e-11
        assert f"{excinfo.value.residual:.3e}" in str(excinfo.value)
        assert spy.calls <= 6

    def test_rejected_step_keeps_last_accepted_state(self, monkeypatch, trap_grid):
        # The first Newton step reaches ~1e-12 <= tol; the second is blown up.
        # The returned residual must belong to the returned orbital.
        monkeypatch.setattr(gpe, "_solve_linearized", SolveSpy({2: _huge_step}))
        state = solve_stationary(trap_grid, harmonic_potential(trap_grid), 10.0, tol=1e-8)
        assert state.residual == pytest.approx(gpe_residual(state))
        assert abs(norm(state.xi) - 1.0) < 1e-12
        assert state.trace.stop_reason == "diverging step"
        assert state.trace.newton_steps == 2

    def test_diverging_step_named(self, monkeypatch, trap_grid):
        # The first Newton step, from the descent's hand-over, is blown up.
        monkeypatch.setattr(gpe, "_solve_linearized", SolveSpy({1: _huge_step}))
        with pytest.raises(ConvergenceError, match="diverging step") as excinfo:
            solve_stationary(trap_grid, harmonic_potential(trap_grid), 10.0)
        assert excinfo.value.residual < gpe._HANDOVER
        assert excinfo.value.__cause__ is None

    def test_failed_solve_named_and_chained(self, monkeypatch, trap_grid):
        monkeypatch.setattr(gpe, "_solve_linearized", SolveSpy({1: _failed_solve}))
        with pytest.raises(
            ConvergenceError, match="failed to solve for its step: CG met non-positive curvature"
        ) as excinfo:
            solve_stationary(trap_grid, harmonic_potential(trap_grid), 10.0)
        assert isinstance(excinfo.value.__cause__, ConvergenceError)
        # The descent's hand-over residual.
        assert default_tol(trap_grid) < excinfo.value.residual < gpe._HANDOVER

    @pytest.mark.parametrize("n_points, boundary", [(256, "box"), (1024, "box"), (128, "periodic")])
    def test_one_kinetic_application_per_evaluation(self, monkeypatch, n_points, boundary):
        # Outside the descent, the CG solves and the choice of start, the solve
        # applies T once at the hand-over and once per Newton trial.
        calls, paused = [], []
        kinetic = gpe._kinetic_values

        def counted(grid, values):
            if not paused:
                calls.append(1)
            return kinetic(grid, values)

        def pausing(inner):
            def wrapper(*args, **kwargs):
                paused.append(1)
                try:
                    return inner(*args, **kwargs)
                finally:
                    paused.pop()

            return wrapper

        monkeypatch.setattr(gpe, "_kinetic_values", counted)
        for name in ("_descend", "_solve_linearized", "_starting_orbital"):
            monkeypatch.setattr(gpe, name, pausing(getattr(gpe, name)))
        grid = build_grid(n_points, 16.0, boundary)
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde=2.0)
        assert state.trace.newton_steps >= 2
        assert len(calls) == 1 + state.trace.newton_steps


class TestDefaultTol:
    def test_tracks_largest_kinetic_eigenvalue(self):
        eps = np.finfo(float).eps
        assert default_tol(build_grid(1024, 16.0, "box")) == 1e-11
        for boundary in ("box", "periodic"):
            grid = build_grid(8192, 16.0, boundary)
            assert default_tol(grid) == 2.0 * eps * grid.kinetic_eigs.max()

    @pytest.mark.parametrize("boundary", ["box", "periodic"])
    def test_largest_grid_converges(self, boundary):
        grid = build_grid(8192, 16.0, boundary)
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde=2.0)
        assert state.residual <= default_tol(grid)
        assert state.trace.stop_reason == "round-off floor"

    def test_explicit_tol_validated(self, trap_grid):
        for tol in (0.0, -1e-11):
            with pytest.raises(ConfigurationError, match="tol"):
                solve_stationary(trap_grid, harmonic_potential(trap_grid), 1.0, tol=tol)

    def test_problem_defaults_to_grid_tol(self, trap_grid):
        problem = StationaryProblem(trap_grid, harmonic_potential(trap_grid), u=0.1)
        assert problem.tol is None
        assert problem.solve(100.0).residual <= default_tol(trap_grid)


class TestSolveTrace:
    def test_records_both_stages(self, trap_states):
        for state in trap_states.values():
            trace = state.trace
            assert trace.descent_steps == len(state.h1_history) - 2
            assert trace.sign_changes == 0
            assert len(trace.residuals) == trace.newton_steps + 1
            assert state.residual == min(trace.residuals)

    def test_descent_hands_over_to_newton(self, trap_states, trap_grid):
        # The descent stops below the hand-over residual; Newton does the rest.
        for u_tilde in (1.0, 10.0, 50.0):
            trace = trap_states[u_tilde].trace
            assert trace.descent_steps > 0
            assert default_tol(trap_grid) < trace.residuals[0] < gpe._HANDOVER
            assert trace.stop_reason == "round-off floor"

    def test_exact_start_needs_no_descent_or_newton(self, uniform_state):
        # At V = 0 both starts are the uniform state itself.
        trace = uniform_state.trace
        assert trace.stop_reason == "tol reached in descent"
        assert trace.descent_steps == 0 and trace.newton_steps == 0

    def test_frozen(self, uniform_state):
        with pytest.raises(dataclasses.FrozenInstanceError):
            uniform_state.trace.stop_reason = "other"


class TestFunctionals:
    def test_uniform_values(self, uniform_state, uniform_grid):
        L = uniform_grid.length
        assert chemical_potential(uniform_state) == pytest.approx(2.0 / L, abs=1e-14)
        assert energy_functional_h1(uniform_state) == pytest.approx(1.0 / L, abs=1e-14)

    @pytest.mark.parametrize("omega", [1e200, float("nan"), float("inf")])
    def test_harmonic_potential_rejects_non_finite_values(self, omega):
        # 1e200 is finite, but omega^2 overflows: the potential itself must be checked.
        grid = build_grid(64, 8.0, "box")
        with pytest.raises(ConfigurationError, match="not finite on the grid"):
            harmonic_potential(grid, omega)

    @pytest.mark.parametrize("omega", [0.0, 1e-300])
    def test_harmonic_potential_rejects_a_uniform_gas(self, omega):
        # omega^2 underflows at 1e-300: the potential is zero at every point.
        grid = build_grid(64, 8.0, "box")
        with pytest.raises(ConfigurationError, match="potential = none"):
            harmonic_potential(grid, omega)

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
