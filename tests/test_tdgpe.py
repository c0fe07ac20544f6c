import numpy as np
import pytest
import scipy.fft

from bogolib import tdgpe
from bogolib.bdg import PhononBasis, assemble, build_phonon_basis, diagonalize, h3_expectation
from bogolib.errors import ConfigurationError, DimensionMismatchError, IntegratorError
from bogolib.gpe import (
    CondensateState,
    _gp_operator,
    chemical_potential,
    harmonic_potential,
    solve_stationary,
)
from bogolib.grid import ComplexField, _sine_transform, build_grid, inner_product
from bogolib.tdgpe import (
    TrapQuench,
    TrapRamp,
    _fd_first_derivative_weights,
    _transport_block,
    center_of_mass,
    h3_of_t,
    hr_diagnostic,
    mu_from_rate,
    propagate,
    propagate_modes,
)

from conftest import orthonormal_modes
from oracles import split_step_final

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def trap_state_u1(trap_grid):
    return solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=1.0)


@pytest.fixture(scope="module")
def quench_setup(trap_grid):
    state = solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=2.0)
    quench = TrapQuench(trap_grid, omega_from=1.0, omega_to=1.2, t_switch=0.0)
    basis = build_phonon_basis(state, 24)
    traj = propagate(state, t_final=1.0, dt=2e-4, potential_of_t=quench, stride=500, basis=basis)
    return traj, basis


def displaced_gaussian_state(grid, x0):
    x = grid.points - grid.center
    values = np.exp(-0.5 * (x - x0) ** 2).astype(complex)
    values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx)
    return CondensateState(
        xi=ComplexField(values, grid),
        n_particles=1.0,
        u_tilde=0.0,
        potential=harmonic_potential(grid),
        mu=0.5,
        residual=0.0,
    )


def mode_diagnostics(traj):
    grid = traj.grid
    K = traj.modes_t[0].K
    gram_devs, overlaps = [], []
    for i in range(len(traj.times)):
        phi = traj.modes_t[i].mode_matrix
        gram_devs.append(np.max(np.abs(phi.conj() @ phi.T * grid.dx - np.eye(K))))
        overlaps.append(np.max(np.abs(phi.conj() @ traj.xi_t[i].values * grid.dx)))
    # The trajectory's own per-snapshot record is the same measurement.
    assert np.array_equal(traj.gram_t, gram_devs)
    assert np.array_equal(traj.overlap_t, overlaps)
    return max(gram_devs), max(overlaps)


def reference_stepper(grid, dt, u_eff, potential_of_t):
    """One symmetric split step psi(t) -> psi(t + dt), four transforms a step.

    The plain real-space Strang step that the library's spectral loop
    rewrites; kept as its oracle.
    """
    exp_half = np.exp(-0.5j * dt * grid.kinetic_eigs)

    if grid.boundary == "periodic":

        def kinetic_half(values):
            return scipy.fft.ifft(exp_half * scipy.fft.fft(values))

    else:

        def kinetic_half(values):
            return _sine_transform(exp_half * _sine_transform(values))

    def step(values, t):
        out = kinetic_half(values)
        w = potential_of_t(t + 0.5 * dt) + u_eff * np.abs(out) ** 2
        out = out * np.exp(-1j * dt * w)
        return kinetic_half(out)

    return step


def reference_transport(phi, psi0, psi1, dx):
    """The parallel-transport map written out with an explicit outer product.

    Returns the carried block and the common phase; ``phi`` is not touched.
    """
    e0 = psi0 / np.sqrt(np.vdot(psi0, psi0).real * dx)
    e1 = psi1 / np.sqrt(np.vdot(psi1, psi1).real * dx)
    a = np.vdot(e0, e1) * dx
    r = e1 - a * e0
    s = np.sqrt(np.vdot(r, r).real * dx)
    phase = a / abs(a)
    if s == 0.0:
        return phi.copy(), phase
    w = r / s
    return phi + np.outer(phi @ w.conj() * dx, (abs(a) - 1.0) * w - s * phase * e0), phase


def reference_one_pass(traj, basis):
    """The real-space loop: reference steps, with the modes carried in real space.

    Returns every fine-step condensate value and the modes at each stored time.
    """
    grid, dt, dx = traj.grid, traj.dt, traj.grid.dx
    u_eff = traj.u_tilde if traj.evolution == "gpe" else 0.0
    step = reference_stepper(grid, dt, u_eff, traj.potential_of_t)
    snapshot_steps = {int(round(t / dt)) for t in traj.times}
    psi = traj.xi_t[0].values.copy()
    phi, phase = basis.mode_matrix.astype(np.complex128), 1.0
    states, modes = [psi], [phi.copy()]
    for j in range(1, traj.n_steps + 1):
        psi_next = step(psi, (j - 1) * dt)
        phi, step_phase = reference_transport(phi, psi, psi_next, dx)
        phase *= step_phase
        psi = psi_next
        states.append(psi)
        if j in snapshot_steps:
            modes.append(phase * phi)
    return states, modes


def reference_mode_propagation(traj, basis):
    """Two-stage Heun loop for the paper's mode equation, re-stepping the condensate.

    dxi_k/dt = xi_k <xi, dxi/dt> - xi <dxi/dt, xi_k>, with dxi/dt taken from
    the evolution's right-hand side: an oracle independent of the library's
    parallel transport, which never evaluates that right-hand side.

    Returns the condensate and mode matrix at every stored time.
    """
    grid, dt, dx = traj.grid, traj.dt, traj.grid.dx
    u_eff = traj.u_tilde if traj.evolution == "gpe" else 0.0
    pot = traj.potential_of_t
    step = reference_stepper(grid, dt, u_eff, pot)

    def rhs(values, t):
        return -1j * _gp_operator(grid, pot(t), u_eff, values)[0]

    def mode_rhs(phi, psi, psi_dot):
        c = np.vdot(psi, psi_dot) * dx
        b = (phi @ psi_dot.conj()) * dx
        return c * phi - np.outer(b, psi)

    snapshot_steps = {int(round(t / dt)) for t in traj.times}
    n_steps = max(snapshot_steps)
    phi = basis.mode_matrix.astype(np.complex128).copy()
    psi = traj.xi_t[0].values.copy()
    psi_dot = rhs(psi, 0.0)
    xi_out, phi_out = [psi.copy()], [phi.copy()]
    for j in range(1, n_steps + 1):
        psi_next = step(psi, (j - 1) * dt)
        psi_dot_next = rhs(psi_next, j * dt)
        k1 = mode_rhs(phi, psi, psi_dot)
        k2 = mode_rhs(phi + dt * k1, psi_next, psi_dot_next)
        phi = phi + 0.5 * dt * (k1 + k2)
        psi, psi_dot = psi_next, psi_dot_next
        if j in snapshot_steps:
            xi_out.append(psi.copy())
            phi_out.append(phi.copy())
    return xi_out, phi_out


class TestPropagate:
    def test_stationary_state_rotates_at_mu(self, trap_state_u1):
        traj = propagate(trap_state_u1, t_final=1.0, dt=1e-3, stride=100)
        assert np.max(np.abs(np.abs(traj.xi_t[-1].values) - np.abs(traj.xi_t[0].values))) < 1e-7
        phase = np.angle(inner_product(traj.xi_t[0], traj.xi_t[-1]))
        expected = -trap_state_u1.mu * 1.0
        assert abs(np.exp(1j * phase) - np.exp(1j * expected)) < 1e-6

    def test_displaced_gaussian_oscillates_classically(self, trap_grid):
        state = displaced_gaussian_state(trap_grid, 1.0)
        traj = propagate(state, t_final=10.0, dt=1e-3, stride=1000)
        for t, field in zip(traj.times, traj.xi_t):
            assert center_of_mass(field) == pytest.approx(np.cos(t), abs=1e-6)

    def test_conservation_uniform_gas(self, uniform_state):
        traj = propagate(uniform_state, t_final=10.0, dt=1e-3, stride=1000)
        assert np.max(np.abs(traj.norm_t - 1.0)) < 1e-10
        assert np.max(np.abs(traj.h1_t - traj.h1_t[0])) < 1e-8

    def test_conservation_trapped(self, trap_state_u1):
        traj = propagate(trap_state_u1, t_final=10.0, dt=1e-3, stride=2000)
        assert np.max(np.abs(traj.norm_t - 1.0)) < 1e-10
        assert np.max(np.abs(traj.h1_t - traj.h1_t[0])) < 1e-8

    def test_norm_holds_over_a_long_dense_transform_quench(self, wide_trap_grid):
        # n = 256 steps through the dense sine transform; 5000 steps must not
        # accumulate its round-off (criterion 09 allows 1e-10).
        state = solve_stationary(wide_trap_grid, harmonic_potential(wide_trap_grid), u_tilde=3.0)
        traj = propagate(state, t_final=1.0, dt=2e-4, stride=500,
                         potential_of_t=TrapQuench(wide_trap_grid, 1.0, 1.3))
        assert traj.n_steps == 5000
        assert np.max(np.abs(traj.norm_t - 1.0)) <= 1e-11

    def test_second_order_convergence(self, trap_grid):
        state = solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=2.0)
        quench = TrapQuench(trap_grid, 1.0, 1.2, 0.0)

        def final(dt):
            traj = propagate(state, t_final=2.0, dt=dt, potential_of_t=quench,
                             stride=int(round(2.0 / dt)))
            return traj.xi_t[-1].values

        ref = final(2.5e-4)
        err_coarse = np.linalg.norm(final(4e-3) - ref)
        err_fine = np.linalg.norm(final(2e-3) - ref)
        assert 3.0 < err_coarse / err_fine < 5.0

    def test_records_step_count_and_worst_drifts(self, trap_state_u1):
        plain = propagate(trap_state_u1, t_final=0.05, dt=1e-3, stride=20)
        assert plain.n_steps == 50
        assert plain.max_norm_drift == float(np.max(np.abs(plain.norm_t - 1.0)))
        assert plain.max_gram_deviation is None and plain.max_overlap is None
        traj = propagate(trap_state_u1, t_final=0.05, dt=1e-3, stride=20,
                         basis=build_phonon_basis(trap_state_u1, 4))
        assert traj.max_gram_deviation == float(np.max(traj.gram_t))
        assert traj.max_overlap == float(np.max(traj.overlap_t))

    def test_parameter_validation(self, trap_state_u1):
        with pytest.raises(ConfigurationError):
            propagate(trap_state_u1, t_final=1.0, dt=-1e-3)
        with pytest.raises(ConfigurationError):
            propagate(trap_state_u1, t_final=1.0, dt=0.3)  # not a multiple
        with pytest.raises(ConfigurationError):
            propagate(trap_state_u1, t_final=1.0, dt=1e-3, evolution="imaginary")
        nan, inf = float("nan"), float("inf")
        for t_final, dt in ((1.0, nan), (1.0, inf), (nan, 1e-3), (inf, 1e-3), (-inf, 1e-3)):
            with pytest.raises(ConfigurationError):
                propagate(trap_state_u1, t_final=t_final, dt=dt)
        for stride in (2.5, 0, "2"):
            with pytest.raises(ConfigurationError, match="stride"):
                propagate(trap_state_u1, t_final=1.0, dt=1e-3, stride=stride)

    def test_nan_motion_raises_integrator_error(self):
        # A NaN norm must fail the drift guard, not pass it as "not > 1e-6".
        grid = build_grid(64, 8.0, "box")
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde=1.0)
        v0 = harmonic_potential(grid).values.real

        def nan_trap(t):
            return v0 if t <= 0.0 else np.full_like(v0, np.nan)

        with pytest.raises(IntegratorError, match="norm drifted to nan"):
            propagate(state, t_final=0.01, dt=1e-3, potential_of_t=nan_trap, stride=5)

    @pytest.mark.parametrize("lo", [0, -1, -2, -3, -4])
    def test_fd_weights_are_exact_on_quartics(self, lo):
        offsets = np.arange(lo, lo + 5, dtype=float)
        weights = _fd_first_derivative_weights(offsets)
        for p in range(5):
            assert weights @ offsets**p == pytest.approx(float(p == 1), abs=1e-12)
        if lo == -2:
            assert np.allclose(weights, [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12], rtol=0, atol=1e-15)


class TestPropagateModes:
    def test_stationary_modes_keep_modulus_and_gain_common_phase(self, trap_state_u1):
        basis = build_phonon_basis(trap_state_u1, 16)
        traj = propagate(trap_state_u1, t_final=2.0, dt=2e-4, stride=2000, basis=basis)
        last = traj.modes_t[-1].mode_matrix
        assert np.max(np.abs(np.abs(last) - np.abs(basis.mode_matrix))) < 1e-8
        # All modes rotate with the condensate phase exp(-i mu t).
        phases = np.sum(last * basis.mode_matrix.conj(), axis=1) * traj.grid.dx
        expected = np.exp(-1j * trap_state_u1.mu * 2.0)
        assert np.max(np.abs(phases - expected)) < 1e-6

    def test_orthonormality_preserved_uniform(self, uniform_state):
        basis = build_phonon_basis(uniform_state, 16)
        traj = propagate(uniform_state, t_final=10.0, dt=1e-3, stride=1000, basis=basis)
        gram_dev, overlap = mode_diagnostics(traj)
        assert gram_dev < 1e-8
        assert overlap < 1e-8

    def test_orthonormality_quench(self, quench_setup):
        traj, _ = quench_setup
        gram_dev, overlap = mode_diagnostics(traj)
        assert gram_dev < 1e-8
        assert overlap < 1e-8

    def test_geometry_at_strong_coupling(self):
        # Criterion 09's overlap bound on the quench-dynamics setup at its
        # strongest coupling.
        grid = build_grid(256, 16.0, "box")
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde=5.0)
        traj = propagate(state, t_final=1.0, dt=2e-4, potential_of_t=TrapQuench(grid, 1.0, 1.3),
                         stride=500, basis=build_phonon_basis(state, 32))
        gram_dev, overlap = mode_diagnostics(traj)
        assert gram_dev <= 1e-10
        assert overlap <= 1e-8

    def test_second_order_against_heun_reference(self, trap_grid):
        state = solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=2.0)
        quench = TrapQuench(trap_grid, omega_from=1.0, omega_to=1.2, t_switch=0.0)
        basis = build_phonon_basis(state, 16)

        def mode_error(dt):
            traj = propagate(state, t_final=0.2, dt=dt, potential_of_t=quench,
                             stride=int(round(0.1 / dt)), basis=basis)
            xi_ref, phi_ref = reference_mode_propagation(traj, basis)
            assert len(xi_ref) == traj.n_snapshots == 3
            return max(
                np.max(np.abs(modes.mode_matrix - phi))
                for modes, phi in zip(traj.modes_t, phi_ref)
            )

        # Both integrators are second order, so their difference is O(dt^2).
        assert 3.5 < mode_error(1e-4) / mode_error(5e-5) < 4.5

    def test_one_pass_matches_wrapper_and_plain_propagate(self, trap_grid):
        state = solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=2.0)
        quench = TrapQuench(trap_grid, omega_from=1.0, omega_to=1.2, t_switch=0.0)
        basis = build_phonon_basis(state, 16)
        kwargs = dict(t_final=0.1, dt=2e-4, potential_of_t=quench, stride=100)
        plain = propagate(state, **kwargs)
        one_pass = propagate(state, basis=basis, **kwargs)
        wrapped = propagate_modes(plain, basis)
        assert plain.modes_t is None and plain.gram_t is None
        for i in range(plain.n_snapshots):
            assert np.array_equal(one_pass.xi_t[i].values, plain.xi_t[i].values)
            assert np.array_equal(wrapped.xi_t[i].values, plain.xi_t[i].values)
            assert np.array_equal(wrapped.modes_t[i].mode_matrix, one_pass.modes_t[i].mode_matrix)

    def test_modes_evaluate_no_right_hand_side(self, trap_state_u1, monkeypatch):
        # The operator is evaluated once per snapshot (for mu and h1), never per step.
        calls = []
        real = tdgpe._gp_operator

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tdgpe, "_gp_operator", spy)
        basis = build_phonon_basis(trap_state_u1, 8)
        traj = propagate(trap_state_u1, t_final=0.1, dt=1e-3, stride=20, basis=basis)
        assert traj.n_steps == 100 and traj.n_snapshots == 6
        assert len(calls) == traj.n_snapshots

    def test_rejects_bad_basis(self, trap_state_u1, trap_grid):
        traj = propagate(trap_state_u1, t_final=0.01, dt=1e-3, stride=10)
        rng = np.random.default_rng(0)
        bad = PhononBasis(rng.standard_normal((4, trap_grid.n_points)), trap_state_u1.xi)
        with pytest.raises(ConfigurationError):
            propagate_modes(traj, bad)
        with pytest.raises(ConfigurationError):
            propagate(trap_state_u1, t_final=0.01, dt=1e-3, stride=10, basis=bad)

    def test_rejects_basis_on_another_grid_of_the_same_size(self, trap_state_u1, trap_grid):
        basis = build_phonon_basis(trap_state_u1, 4)
        for boundary, length in (("periodic", trap_grid.length), ("box", 2 * trap_grid.length)):
            grid = build_grid(trap_grid.n_points, length, boundary)
            state = solve_stationary(grid, harmonic_potential(grid), u_tilde=1.0)
            with pytest.raises(DimensionMismatchError):
                propagate(state, t_final=0.01, dt=1e-3, stride=10, basis=basis)

    def test_large_step_keeps_geometry(self, trap_state_u1):
        # A step far too coarse for accuracy: the transport stays unitary.
        basis = build_phonon_basis(trap_state_u1, 8)
        traj = propagate(trap_state_u1, t_final=40.0, dt=0.2, stride=10, basis=basis)
        gram_dev, overlap = mode_diagnostics(traj)
        assert gram_dev <= 1e-12
        assert overlap <= 1e-12

    def test_non_unitary_transport_triggers_integrator_error(self, trap_state_u1, monkeypatch):
        real = tdgpe._transport_block

        def leaky(phi, window, dx):
            phi, phase = real(phi, window, dx)
            return phi * (1.0 + 1e-7), phase

        monkeypatch.setattr(tdgpe, "_transport_block", leaky)
        basis = build_phonon_basis(trap_state_u1, 8)
        with pytest.raises(IntegratorError):
            propagate(trap_state_u1, t_final=1.0, dt=1e-3, stride=100, basis=basis)

    def test_nan_motion_with_modes_raises_integrator_error(self):
        # The window fills with NaN and is flushed at step 32, before the
        # snapshot at step 40: the flush must carry the NaN into the modes,
        # not stop on a finite check, and the snapshot guard then raises.
        grid = build_grid(64, 8.0, "box")
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde=1.0)
        v0 = harmonic_potential(grid).values.real

        def nan_trap(t):
            return v0 if t <= 0.0 else np.full_like(v0, np.nan)

        with pytest.raises(IntegratorError, match="norm drifted to nan"):
            propagate(state, t_final=0.04, dt=1e-3, potential_of_t=nan_trap, stride=40,
                      basis=build_phonon_basis(state, 4))

    def test_nan_modes_trigger_integrator_error(self, trap_state_u1, monkeypatch):
        real = tdgpe._transport_block

        def poisoned(phi, window, dx):
            phi, phase = real(phi, window, dx)
            phi[0, 0] = np.nan
            return phi, phase

        monkeypatch.setattr(tdgpe, "_transport_block", poisoned)
        basis = build_phonon_basis(trap_state_u1, 4)
        with pytest.raises(IntegratorError, match="orthonormality drift nan"):
            propagate(trap_state_u1, t_final=0.01, dt=1e-3, stride=5, basis=basis)


@pytest.fixture(scope="module")
def ramp_states(trap_grid):
    """Trapped ground states by (boundary, n_points): box and periodic at the trap grid's
    size, and a 320-point box, whose sine transform takes the FFT."""
    periodic = build_grid(trap_grid.n_points, trap_grid.length, "periodic")
    fft_box = build_grid(320, trap_grid.length, "box")
    return {
        (grid.boundary, grid.n_points): solve_stationary(grid, harmonic_potential(grid),
                                                         u_tilde=2.0)
        for grid in (trap_grid, periodic, fft_box)
    }


# The three ways a grid transforms: dense sine matrix, FFT of the odd extension, unitary FFT.
LOOP_GRIDS = [
    pytest.param("box", 128, id="box"),
    pytest.param("periodic", 128, id="periodic"),
    pytest.param("box", 320, id="box-320"),
]


class TestSpectralLoop:
    @pytest.mark.parametrize(("boundary", "n_points"), LOOP_GRIDS)
    @pytest.mark.parametrize("evolution", ["gpe", "linear"])
    @pytest.mark.parametrize(("stride", "n_snapshots"), [(50, 5), (45, 6)])
    def test_matches_four_transform_reference(self, ramp_states, boundary, n_points, evolution,
                                              stride, n_snapshots):
        # A ramp changes V within every step, so sampling it anywhere but
        # at t + dt/2 would show far above round-off.  Stride 45 puts
        # snapshots, and the last of the 200 steps, off the 32-step windows.
        state = ramp_states[boundary, n_points]
        ramp = TrapRamp(state.grid, 1.0, 1.3, t0=0.0, t1=0.2)
        basis = build_phonon_basis(state, 12)
        traj = propagate(state, t_final=0.2, dt=1e-3, potential_of_t=ramp, stride=stride,
                         evolution=evolution, basis=basis)
        states, modes = reference_one_pass(traj, basis)
        assert traj.n_snapshots == len(modes) == n_snapshots
        for i, t in enumerate(traj.times):
            j = int(round(t / traj.dt))
            assert np.max(np.abs(traj.xi_t[i].values - states[j])) <= 1e-11
            assert np.max(np.abs(traj.modes_t[i].mode_matrix - modes[i])) <= 1e-11
            # The same five-step difference of the reference states; a 1e-11
            # error per state reaches dxi/dt scaled by sum |w| / dt.
            lo = min(max(j - 2, 0), traj.n_steps - 4)
            weights = _fd_first_derivative_weights(np.arange(lo - j, lo - j + 5, dtype=float))
            xi_dot = weights @ np.stack(states[lo : lo + 5]) / traj.dt
            bound = 1e-11 * np.sum(np.abs(weights)) / traj.dt
            assert np.max(np.abs(traj.xi_dot_t[i] - xi_dot)) <= bound

    @pytest.mark.parametrize(
        ("boundary", "n_points"), [("box", 128), ("box", 320), ("periodic", 128)]
    )
    def test_real_basis_matches_its_complex_cast(self, boundary, n_points):
        # On a box the real basis of a stationary xi takes the real DST-I and
        # becomes complex only at the first flush; its cast takes the complex
        # transform.  Neither may write into the caller's basis.
        grid = build_grid(n_points, 16.0, boundary)
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde=2.0)
        basis = build_phonon_basis(state, 12)
        assert basis.mode_matrix.dtype == np.float64
        before = basis.mode_matrix.copy()
        cast = PhononBasis(basis.mode_matrix.astype(np.complex128), state.xi)
        ramp = TrapRamp(grid, 1.0, 1.3, t0=0.0, t1=0.2)
        real, ref = (
            propagate(state, t_final=0.2, dt=1e-3, potential_of_t=ramp, stride=50, basis=b)
            for b in (basis, cast)
        )
        assert np.array_equal(basis.mode_matrix, before)
        for a, b in zip(real.modes_t, ref.modes_t, strict=True):
            assert np.max(np.abs(a.mode_matrix - b.mode_matrix)) <= 1e-14
        assert np.max(np.abs(real.gram_t - ref.gram_t)) <= 1e-14
        assert np.max(np.abs(real.overlap_t - ref.overlap_t)) <= 1e-14

    def test_initial_snapshot_is_the_input(self, ramp_states):
        state = ramp_states["box", 128]
        traj = propagate(state, t_final=0.01, dt=1e-3, stride=5)
        assert np.array_equal(traj.xi_t[0].values, state.xi.values)

    @pytest.mark.parametrize(("boundary", "n_points"), LOOP_GRIDS)
    @pytest.mark.parametrize("evolution", ["gpe", "linear"])
    def test_in_place_step_is_the_allocating_step(self, ramp_states, boundary, n_points,
                                                  evolution):
        state = ramp_states[boundary, n_points]
        ramp = TrapRamp(state.grid, 1.0, 1.3, t0=0.0, t1=0.2)
        traj = propagate(state, t_final=0.2, dt=1e-3, potential_of_t=ramp, stride=50,
                         evolution=evolution)
        expected = split_step_final(state, traj.n_steps, traj.dt, ramp, evolution)
        assert np.array_equal(traj.xi_t[-1].values, expected)

    @pytest.mark.parametrize("boundary", ["box", "periodic"])
    def test_no_transform_call_per_step(self, ramp_states, monkeypatch, boundary):
        # Twice the steps at twice the stride store the same snapshots and
        # stencils, so the transform calls match unless one runs per step.
        state = ramp_states[boundary, 128]
        basis = build_phonon_basis(state, 8)
        calls = []
        for name in ("to_spectral", "from_spectral"):
            def spy(grid, values, transform=getattr(tdgpe, name)):
                calls.append(transform)
                return transform(grid, values)
            monkeypatch.setattr(tdgpe, name, spy)
        counts = []
        for n_steps, stride in ((200, 50), (400, 100)):
            calls.clear()
            propagate(state, t_final=n_steps * 1e-3, dt=1e-3, stride=stride, basis=basis)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


def random_window(seed, steps, n=64, K=6, dx=0.25):
    """steps + 1 nearby condensate values and a mode block orthonormal to the first."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((steps + 1, n)) + 1j * rng.standard_normal((steps + 1, n))
    window = np.cumsum(noise * np.r_[1.0, np.full(steps, 0.05)][:, None], axis=0)
    e0 = window[0] / np.sqrt(np.vdot(window[0], window[0]).real * dx)
    raw = rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n))
    raw -= np.outer(raw @ e0.conj() * dx, e0)
    q, _ = np.linalg.qr(raw.T)
    return q.T / np.sqrt(dx), window, dx


def chained_reference(phi, window, dx):
    """reference_transport applied once per consecutive pair of window rows."""
    phase = 1.0
    for psi0, psi1 in zip(window[:-1], window[1:]):
        phi, step_phase = reference_transport(phi, psi0, psi1, dx)
        phase *= step_phase
    return phi, phase


class TestTransportBlock:
    @pytest.mark.parametrize("steps", [1, 2, 31, 32, 33])
    def test_matches_the_per_step_maps_and_writes_neither_input(self, steps):
        phi, window, dx = random_window(steps, steps)
        phi_in, window_in = phi.copy(), window.copy()
        carried, phase = _transport_block(phi, window, dx)
        expected, expected_phase = chained_reference(phi, window, dx)
        assert np.max(np.abs(carried - expected)) <= 1e-13
        assert abs(phase - expected_phase) <= 1e-13
        assert np.array_equal(phi, phi_in) and np.array_equal(window, window_in)

    @pytest.mark.parametrize("steps", [2, 31, 32, 33])
    def test_phase_only_step_inside_a_window(self, steps):
        # Rows m and m + 1 are 2 delta_0 and 2i delta_0: at dx = 1/4 every
        # value is exact, so s_m comes out exactly 0 (a rounded phase would
        # leave an s of order eps), and that step must contribute nothing.
        phi, window, dx = random_window(100 + steps, steps)
        m = steps // 2
        window[m:m + 2] = 0.0
        window[m, 0], window[m + 1, 0] = 2.0, 2.0j
        carried, phase = _transport_block(phi, window, dx)
        expected, expected_phase = chained_reference(phi, window, dx)
        assert np.all(np.isfinite(carried))
        assert np.max(np.abs(carried - expected)) <= 1e-13
        assert abs(phase - expected_phase) <= 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_propagates_into_the_block(self, bad):
        phi, window, dx = random_window(300, 32)
        window[5, 3] = bad
        carried, _ = _transport_block(phi, window, dx)
        assert not np.all(np.isfinite(carried))

    @pytest.mark.parametrize("steps", [1, 32, 33])
    def test_complement_of_e0_goes_to_complement_of_the_last_row(self, steps):
        phi, window, dx = random_window(200 + steps, steps)
        e_last = window[-1] / np.sqrt(np.vdot(window[-1], window[-1]).real * dx)
        assert np.max(np.abs(phi.conj() @ e_last * dx)) > 1e-3
        carried, _ = _transport_block(phi, window, dx)
        assert np.max(np.abs(carried.conj() @ e_last * dx)) < 1e-13
        assert np.max(np.abs(carried.conj() @ carried.T * dx - np.eye(phi.shape[0]))) < 1e-13


def rate_form(traj, i):
    return mu_from_rate(traj.xi_t[i], ComplexField(traj.xi_dot_t[i], traj.grid))


class TestMuOfT:
    def test_stationary_consistency(self, trap_state_u1):
        traj = propagate(trap_state_u1, t_final=0.5, dt=1e-3, stride=100)
        # mu_t is the functional of gpe.chemical_potential, evaluated per snapshot.
        assert traj.mu_t[0] == chemical_potential(trap_state_u1)
        for i in range(len(traj.times)):
            assert traj.mu_t[i] == pytest.approx(trap_state_u1.mu, abs=1e-8)
            assert rate_form(traj, i) == pytest.approx(traj.mu_t[i], abs=1e-8)

    def test_uniform_value(self, uniform_state, uniform_grid):
        assert chemical_potential(uniform_state) == pytest.approx(
            2.0 / uniform_grid.length, abs=1e-14
        )

    def test_quench_dual_forms_track(self, quench_setup):
        traj, _ = quench_setup
        for i in range(len(traj.times)):
            assert rate_form(traj, i) == pytest.approx(traj.mu_t[i], abs=1e-7)
        assert np.ptp(traj.mu_t) > 1e-4  # mu(t) genuinely varies after the quench


class TestH3OfT:
    def test_stationary_coefficients_constant(self, trap_state_u1):
        basis = build_phonon_basis(trap_state_u1, 16)
        traj = propagate(trap_state_u1, t_final=2.0, dt=2e-4, stride=2000, basis=basis)
        h3s = h3_of_t(traj)
        for qh in h3s[1:]:
            assert np.max(np.abs(qh.m_matrix - h3s[0].m_matrix)) < 1e-7
            assert np.max(np.abs(np.abs(qh.g_matrix) - np.abs(h3s[0].g_matrix))) < 1e-7
        # The density itself wiggles at the O(dt^2) splitting level.
        assert h3s[-1].e3 == pytest.approx(h3s[0].e3, abs=1e-8)

    def test_linear_case_has_no_anomalous_part(self, trap_grid):
        state = solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=0.0)
        basis = build_phonon_basis(state, 8)
        traj = propagate(state, t_final=0.1, dt=1e-3, stride=20, basis=basis)
        for qh in h3_of_t(traj):
            assert np.max(np.abs(qh.g_matrix)) == 0.0

    def test_e3_matches_direct_quadrature(self, quench_setup):
        traj, _ = quench_setup
        for i, qh in enumerate(h3_of_t(traj)):
            direct = -0.5 * traj.u_tilde * float(
                np.sum(np.abs(traj.xi_t[i].values) ** 4) * traj.grid.dx
            )
            assert qh.e3 == pytest.approx(direct, abs=1e-12)

    def test_hermiticity_along_trajectory(self, quench_setup):
        traj, _ = quench_setup
        for qh in h3_of_t(traj):
            assert np.max(np.abs(qh.m_matrix - qh.m_matrix.conj().T)) < 1e-12
            assert np.max(np.abs(qh.g_matrix - qh.g_matrix.T)) < 1e-12

    def test_requires_modes(self, trap_state_u1):
        traj = propagate(trap_state_u1, t_final=0.01, dt=1e-3, stride=10)
        with pytest.raises(ConfigurationError):
            h3_of_t(traj)

    def test_transported_coefficients_are_complex_and_refused(self, quench_setup):
        traj, _ = quench_setup
        h3s = h3_of_t(traj)
        # Snapshot 0 is the float64 start as given, so its (M, G) are real.
        assert traj.xi_t[0].values.dtype == np.float64
        assert h3s[0].m_matrix.dtype == h3s[0].g_matrix.dtype == np.float64
        assert np.all(diagonalize(h3s[0], traj.modes_t[0]).energies > 0)
        for qh, modes in zip(h3s[1:], traj.modes_t[1:]):
            # The condensate is complex from the first step on, so G is.
            assert qh.g_matrix.dtype == np.complex128
            with pytest.raises(ConfigurationError, match="complex128"):
                diagonalize(qh, modes)
            with pytest.raises(ConfigurationError, match="complex128"):
                h3_expectation(qh, np.zeros(qh.n_modes))

    def test_stationary_start_snapshot_is_the_stationary_problem(self, trap_state_u1):
        basis = build_phonon_basis(trap_state_u1, 16)
        traj = propagate(trap_state_u1, t_final=0.01, dt=1e-3, stride=5, basis=basis)
        energies = diagonalize(h3_of_t(traj)[0], traj.modes_t[0]).energies
        expected = diagonalize(assemble(trap_state_u1, basis), basis).energies
        np.testing.assert_allclose(energies, expected, rtol=1e-12, atol=0)


class TestHrDiagnostic:
    def test_gpe_trajectory_cancels(self, quench_setup):
        traj, _ = quench_setup
        diags = hr_diagnostic(traj)
        assert max(d.mismatch for d in diags) < 1e-7

    def test_h2_comes_from_the_stepping_pass(self, quench_setup, monkeypatch):
        # h2_k = <xi_k | H xi> is stored by propagate, so the diagnostic applies
        # no operator and no transform of its own, and gives the same bytes.
        traj, _ = quench_setup
        expected = [
            modes.mode_matrix.conj()
            @ _gp_operator(traj.grid, traj.potential_of_t(t), traj.u_tilde, xi.values)[0]
            * traj.grid.dx
            for t, xi, modes in zip(traj.times, traj.xi_t, traj.modes_t)
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("hr_diagnostic applied an operator")

        for name in ("_gp_operator", "to_spectral", "from_spectral"):
            monkeypatch.setattr(tdgpe, name, refuse)
        diags = hr_diagnostic(traj)
        assert traj.h2_t.shape == (traj.n_snapshots, 24)
        for d, h2 in zip(diags, expected):
            assert np.array_equal(d.h2_vector, h2)

    def test_falsified_evolution_fails_to_cancel(self, trap_grid):
        state = solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=10.0)
        basis = build_phonon_basis(state, 24)
        traj = propagate(state, t_final=1.0, dt=1e-3, stride=200, evolution="linear", basis=basis)
        diags = hr_diagnostic(traj)
        assert min(d.mismatch for d in diags) > 1e-3

    def test_linear_evolution_at_zero_interaction_cancels(self, trap_grid):
        # With u = 0 the linear equation IS the interacting one; evolve a
        # displaced packet so the coefficients are far from trivial.
        state = displaced_gaussian_state(trap_grid, 1.0)
        ground = solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=0.0)
        seeds = build_phonon_basis(ground, 16).mode_matrix
        basis = PhononBasis(orthonormal_modes(seeds, state.xi), state.xi)
        traj = propagate(state, t_final=0.5, dt=5e-5, stride=2500, evolution="linear", basis=basis)
        diags = hr_diagnostic(traj)
        assert max(np.linalg.norm(d.h2_vector) for d in diags) > 0.1
        assert max(d.mismatch for d in diags) < 1e-9

    def test_mismatch_scales_with_dt_only_for_consistent_motion(self, trap_grid):
        state = solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=2.0)
        quench = TrapQuench(trap_grid, 1.0, 1.2, 0.0)

        def max_mismatch(dt, evolution):
            traj = propagate(state, t_final=0.5, dt=dt, potential_of_t=quench,
                             stride=int(round(0.25 / dt)), evolution=evolution,
                             basis=build_phonon_basis(state, 16))
            return max(d.mismatch for d in hr_diagnostic(traj))

        gpe_coarse = max_mismatch(1e-3, "gpe")
        gpe_fine = max_mismatch(5e-4, "gpe")
        assert gpe_coarse / gpe_fine == pytest.approx(4.0, rel=0.5)
        lin_coarse = max_mismatch(1e-3, "linear")
        lin_fine = max_mismatch(5e-4, "linear")
        assert lin_fine > 0.5 * lin_coarse  # does not shrink with the step
        assert lin_fine > 1e-3


class TestTimeDependentPotentials:
    def test_quench_switches_at_given_time(self, trap_grid):
        quench = TrapQuench(trap_grid, 1.0, 2.0, t_switch=0.5)
        x = trap_grid.points - trap_grid.center
        assert np.array_equal(quench(0.0), 0.5 * x**2)
        assert np.array_equal(quench(0.5), 2.0 * x**2)

    @pytest.mark.parametrize(
        "params",
        [
            (float("nan"), 1.2, 0.0),
            (1.0, float("inf"), 0.0),
            (1.0, 1.2, float("nan")),
            (1.0, 1e200, 0.0),  # finite, but the potential overflows
        ],
    )
    def test_quench_rejects_non_finite_parameters(self, trap_grid, params):
        with pytest.raises(ConfigurationError, match="finite"):
            TrapQuench(trap_grid, *params)

    @pytest.mark.parametrize(
        "params, match",
        [
            ((float("nan"), 1.2, 0.0, 1.0), "finite"),
            ((1.0, float("nan"), 0.0, 0.005), "finite"),
            ((1.0, 1.2, float("-inf"), 1.0), "finite"),
            ((1.0, 1.2, 0.0, float("inf")), "finite"),
            ((1.0, 1.2, 1.0, 0.5), "t1 > t0"),
            ((1.0, 1.2, 1.0, 1.0), "t1 > t0"),
            ((1.0, 1e200, 0.0, 1.0), "not finite on the grid"),
            ((1.0, 1e-300, 0.0, 1.0), "potential = none"),
            # omega passes through 0 halfway: a zero potential in mid-run.
            ((-1.0, 1.0, 0.0, 1.0), "same sign"),
        ],
        ids=[
            "nan-from", "nan-to", "inf-t0", "inf-t1", "t1-before-t0", "t1-at-t0", "overflow",
            "underflow", "sign-change",
        ],
    )
    def test_ramp_rejects_bad_parameters(self, trap_grid, params, match):
        with pytest.raises(ConfigurationError, match=match):
            TrapRamp(trap_grid, *params)

    def test_ramp_is_smooth_and_monotone(self, trap_grid):
        ramp = TrapRamp(trap_grid, 1.0, 2.0, t0=0.0, t1=1.0)
        x = trap_grid.points - trap_grid.center
        assert np.allclose(ramp(-1.0), 0.5 * x**2)
        assert np.allclose(ramp(2.0), 2.0 * x**2)
        mid_omegas = [np.sqrt(2 * ramp(t)[0] / x[0] ** 2) for t in (0.25, 0.5, 0.75)]
        assert mid_omegas[0] < mid_omegas[1] < mid_omegas[2]

    def test_h1_settles_after_ramp(self, trap_grid):
        state = solve_stationary(trap_grid, harmonic_potential(trap_grid), u_tilde=1.0)
        ramp = TrapRamp(trap_grid, 1.0, 1.1, t0=0.0, t1=0.5)
        traj = propagate(state, t_final=2.0, dt=5e-4, potential_of_t=ramp, stride=200)
        after = traj.h1_t[traj.times >= 0.5]
        assert np.max(np.abs(after - after[0])) < 1e-6
        assert abs(traj.h1_t[-1] - traj.h1_t[0]) > 1e-4  # the ramp did work
