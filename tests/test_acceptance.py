"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  Tolerances are pinned here and nowhere else."""

import json
import time

import numpy as np
import pytest

from bogolib.bdg import assemble, build_phonon_basis, diagonalize
from bogolib.cli import main as cli_main
from bogolib.gpe import (
    CondensateState,
    h2_coefficients,
    harmonic_potential,
    solve_stationary,
    zero_potential,
)
from bogolib.grid import ComplexField, build_grid
from bogolib.homogeneous import (
    bogoliubov_dispersion,
    compare_asymptotics,
    exact_fock_spectrum,
    hydro_coefficients,
    number_conservation_offblock,
)
from bogolib.number_shift import StationaryProblem, modified_amplitudes, phase_fix_and_r
from bogolib.tdgpe import TrapQuench, hr_diagnostic, propagate, propagate_modes

from oracles import dxi_dN

TWO_PI = 2.0 * np.pi


def check(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {criterion:02d}] {status} {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def wide_grid():
    return build_grid(256, 20.0, "box")


@pytest.fixture(scope="module")
def wide_trap_states(wide_grid):
    pot = harmonic_potential(wide_grid)
    return {ut: solve_stationary(wide_grid, pot, u_tilde=ut) for ut in (0.0, 1.0, 10.0, 50.0)}


def mirror_parity(values: np.ndarray) -> str:
    flipped = values[::-1]
    return "odd" if np.linalg.norm(values + flipped) < np.linalg.norm(values - flipped) else "even"


def test_criterion_01_uniform_gas_spectrum():
    started = time.monotonic()
    grid = build_grid(64, TWO_PI, "periodic")
    state = solve_stationary(grid, zero_potential(grid), u_tilde=2.0)
    basis = build_phonon_basis(state, 16)
    spectrum = diagonalize(assemble(state, basis), basis)
    base = TWO_PI / grid.length
    expected = np.sort(
        [bogoliubov_dispersion(s * j * base, 2.0, grid.length) for j in range(1, 9) for s in (1, -1)]
    )
    rel = float(np.max(np.abs(spectrum.energies - expected) / expected))
    elapsed = time.monotonic() - started
    check(
        1,
        "uniform-gas pipeline reproduces the quasiparticle dispersion",
        rel < 1e-8 and elapsed < 10.0,
        f"max rel dev {rel:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_02_sound_speed_slope():
    length, u_tilde = 200.0, 3000.0
    grid = build_grid(128, length, "periodic")
    state = solve_stationary(grid, zero_potential(grid), u_tilde=u_tilde)
    basis = build_phonon_basis(state, 8)
    spectrum = diagonalize(assemble(state, basis), basis)
    k1, k2 = TWO_PI / length, 2 * TWO_PI / length
    eps1 = 0.5 * (spectrum.energies[0] + spectrum.energies[1])
    eps2 = 0.5 * (spectrum.energies[2] + spectrum.energies[3])
    slope = (eps2 - eps1) / (k2 - k1)
    v_sound = np.sqrt(u_tilde / length)
    rel = abs(slope - v_sound) / v_sound
    check(
        2,
        "fitted low-k slope matches the sound speed sqrt(u_tilde/L)",
        rel < 1e-4,
        f"slope {slope:.6f} vs v {v_sound:.6f}, rel {rel:.2e}",
    )


def test_criterion_03_kohn_mode(wide_trap_states):
    worst = 0.0
    for ut, state in wide_trap_states.items():
        basis = build_phonon_basis(state, 48)
        spectrum = diagonalize(assemble(state, basis), basis)
        odd = [
            eps
            for eps, p in zip(spectrum.energies, spectrum.p_waves)
            if mirror_parity(p) == "odd"
        ]
        worst = max(worst, abs(odd[0] - 1.0))
    check(
        3,
        "lowest odd-parity excitation sits at the trap frequency for every u_tilde",
        worst < 1e-4,
        f"max |eps - 1| = {worst:.2e} over u_tilde in {{0, 1, 10, 50}}",
    )


def test_criterion_04_linear_limit(wide_trap_states):
    state = wide_trap_states[0.0]
    basis = build_phonon_basis(state, 16)
    qh = assemble(state, basis)
    spectrum = diagonalize(qh, basis)
    mu_err = abs(state.mu - 0.5)
    eps_err = float(np.max(np.abs(spectrum.energies[:10] - np.arange(1, 11))))
    g_max = float(np.max(np.abs(qh.g_matrix)))
    check(
        4,
        "noninteracting trap: mu, ladder spectrum, no anomalous part, zero shift",
        mu_err < 1e-8 and eps_err < 1e-6 and g_max == 0.0 and abs(spectrum.omega_g) < 1e-10,
        f"|mu-1/2| {mu_err:.1e}, max|eps_m - m| {eps_err:.1e}, |G| {g_max:.1e}, "
        f"|omega_g| {abs(spectrum.omega_g):.1e}",
    )


def test_criterion_05_h2_vanishing(wide_trap_states):
    states = list(wide_trap_states.values())
    grid_u = build_grid(64, TWO_PI, "periodic")
    states.append(solve_stationary(grid_u, zero_potential(grid_u), u_tilde=2.0))
    wide = states[0].grid
    states.append(solve_stationary(wide, harmonic_potential(wide), u_tilde=100.0))
    worst = 0.0
    for state in states:
        basis = build_phonon_basis(state, 32)
        worst = max(worst, float(np.linalg.norm(h2_coefficients(state, basis))))

    reference = wide_trap_states[10.0]
    ref_basis = build_phonon_basis(reference, 32)
    bumped = reference.xi.values + 0.01 * ref_basis.mode_matrix[0]
    bumped /= np.sqrt(np.sum(np.abs(bumped) ** 2) * reference.grid.dx)
    perturbed = CondensateState(
        xi=ComplexField(bumped, reference.grid),
        n_particles=reference.n_particles,
        u_tilde=reference.u_tilde,
        potential=reference.potential,
        mu=reference.mu,
        residual=np.inf,
    )
    perturbed_norm = float(
        np.linalg.norm(h2_coefficients(perturbed, build_phonon_basis(perturbed, 32)))
    )
    check(
        5,
        "phonon-linear coefficients vanish at stationarity and detect perturbations",
        worst < 1e-8 and perturbed_norm > 1e-3,
        f"max converged |h2| {worst:.2e}, perturbed |h2| {perturbed_norm:.2e}",
    )


def test_criterion_06_exact_fock_asymptotics():
    started = time.monotonic()
    u_tilde = 1.0
    spectra = [exact_fock_spectrum(n, 1.0, u_tilde / n, 1.0, n) for n in (10, 20, 40)]
    report = compare_asymptotics(spectra, u_tilde)
    errs = [row.gap_error for row in report.rows]
    monotone = errs[0] > errs[1] > errs[2]
    power_ok = 0.5 <= report.fitted_power <= 1.5
    offblock = max(
        number_conservation_offblock(n, 1.0, u_tilde / n, 1.0, n) for n in (10, 20, 40)
    )
    elapsed = time.monotonic() - started
    check(
        6,
        "exact-Fock gap errors shrink as 1/N and the Hamiltonian conserves N",
        monotone and power_ok and offblock == 0.0 and elapsed < 60.0,
        f"errors {[f'{e:.2e}' for e in errs]}, power {report.fitted_power:.2f}, "
        f"offblock {offblock}, runtime {elapsed:.1f}s",
    )


def test_criterion_07_thomas_fermi():
    grid = build_grid(512, 24.0, "box")
    state = solve_stationary(grid, harmonic_potential(grid), u_tilde=100.0)
    mu_tf = (3.0 * 100.0 / (4.0 * np.sqrt(2.0))) ** (2.0 / 3.0)
    rel = abs(state.mu - mu_tf) / mu_tf
    check(
        7,
        "strong-coupling chemical potential matches the Thomas-Fermi law",
        rel < 0.02,
        f"mu {state.mu:.4f} vs {mu_tf:.4f}, rel {rel:.2e}",
    )


def test_criterion_08_time_dependent_validity():
    grid = build_grid(128, 16.0, "box")
    # Consistent branch: interacting quench propagated by its own equation.
    state = solve_stationary(grid, harmonic_potential(grid), u_tilde=2.0)
    quench = TrapQuench(grid, omega_from=1.0, omega_to=1.2, t_switch=0.0)
    traj = propagate(state, t_final=1.0, dt=2e-4, potential_of_t=quench, stride=250)
    traj = propagate_modes(traj, build_phonon_basis(state, 24))
    consistent = max(d.mismatch for d in hr_diagnostic(traj))

    # Falsified branch: interacting gas evolved by the linear equation.
    state_f = solve_stationary(grid, harmonic_potential(grid), u_tilde=10.0)
    traj_f = propagate(state_f, t_final=1.0, dt=1e-3, stride=100, evolution="linear")
    traj_f = propagate_modes(traj_f, build_phonon_basis(state_f, 24))
    falsified = min(d.mismatch for d in hr_diagnostic(traj_f))
    check(
        8,
        "linear and kinematic coefficients cancel iff the motion is the "
        "interacting equation",
        consistent < 1e-7 and falsified > 1e-3,
        f"consistent max {consistent:.2e}, falsified min {falsified:.2e}",
    )


def test_criterion_09_conservation_suite():
    grid = build_grid(64, TWO_PI, "periodic")
    state = solve_stationary(grid, zero_potential(grid), u_tilde=2.0)
    traj = propagate(state, t_final=10.0, dt=1e-3, stride=500)
    traj = propagate_modes(traj, build_phonon_basis(state, 16))
    norm_drift = float(np.max(np.abs(traj.norm_t - 1.0)))
    h1_drift = float(np.max(np.abs(traj.h1_t - traj.h1_t[0])))
    gram_dev, overlap = 0.0, 0.0
    eye = np.eye(16)
    for i in range(len(traj.times)):
        phi = traj.modes_t[i].mode_matrix
        gram_dev = max(gram_dev, float(np.max(np.abs(phi.conj() @ phi.T * grid.dx - eye))))
        overlap = max(overlap, float(np.max(np.abs(phi.conj() @ traj.xi_t[i].values * grid.dx))))
    check(
        9,
        "10-unit evolution conserves norm, mean-field energy, and mode geometry",
        norm_drift < 1e-10 and h1_drift < 1e-8 and gram_dev < 1e-8 and overlap < 1e-8,
        f"norm {norm_drift:.1e}, h1 {h1_drift:.1e}, gram {gram_dev:.1e}, overlap {overlap:.1e}",
    )


def test_criterion_10_number_shift_consistency():
    # No-shift cases: uniform gas and the noninteracting trap.
    grid_u = build_grid(64, TWO_PI, "periodic")
    prob_u = StationaryProblem(grid=grid_u, potential=zero_potential(grid_u), u=0.02)
    state_u = prob_u.solve(100.0)
    fix_u = phase_fix_and_r(state_u, build_phonon_basis(state_u, 16), dxi_dN(prob_u, 100.0, 0.5))

    grid_t = build_grid(128, 16.0, "box")
    prob_0 = StationaryProblem(grid=grid_t, potential=harmonic_potential(grid_t), u=0.0)
    state_0 = prob_0.solve(100.0)
    fix_0 = phase_fix_and_r(state_0, build_phonon_basis(state_0, 32), dxi_dN(prob_0, 100.0, 0.5))
    no_shift = max(float(np.max(np.abs(fix_u.r))), float(np.max(np.abs(fix_0.r))))

    # Interacting trap: step-size robustness of the significant r_k.
    prob_i = StationaryProblem(grid=grid_t, potential=harmonic_potential(grid_t), u=0.025)
    state_i = prob_i.solve(400.0)
    basis_i = build_phonon_basis(state_i, 32)
    fix_a = phase_fix_and_r(state_i, basis_i, dxi_dN(prob_i, 400.0, 0.5))
    fix_b = phase_fix_and_r(state_i, basis_i, dxi_dN(prob_i, 400.0, 0.25))
    significant = np.abs(fix_a.r) > 1e-3 * np.max(np.abs(fix_a.r))
    richardson = float(
        np.max(np.abs(fix_a.r[significant] - fix_b.r[significant]) / np.abs(fix_a.r[significant]))
    )
    r0_after = max(abs(fix_u.r0), abs(fix_0.r0), abs(fix_a.r0))

    # f/g reduce exactly to p/q at r = 0.
    spectrum = diagonalize(assemble(state_i, basis_i), basis_i)
    f_waves, g_waves = modified_amplitudes(spectrum, state_i, np.zeros(32))
    exact_reduction = np.array_equal(f_waves, spectrum.p_waves) and np.array_equal(
        g_waves, spectrum.q_waves
    )

    check(
        10,
        "number-shift coefficients: zero cases, step robustness, gauge residual, "
        "amplitude reduction",
        no_shift < 1e-8 and richardson < 1e-5 and r0_after < 1e-8 and exact_reduction,
        f"max|r| no-shift {no_shift:.1e}, Richardson {richardson:.1e}, |r0| {r0_after:.1e}",
    )


def test_criterion_11_canonical_pair_product():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        k = 10.0 ** rng.uniform(-3, 2)
        u = 10.0 ** rng.uniform(-4, 1)
        n = int(rng.integers(1, 10**6))
        volume = 10.0 ** rng.uniform(-1, 3)
        hc = hydro_coefficients(k, u, n, volume)
        worst = max(worst, abs(hc.phi_coeff * hc.rho_coeff - 0.5))
    check(
        11,
        "velocity-potential and density amplitudes multiply to exactly 1/2",
        worst < 1e-15,
        f"max deviation {worst:.2e} over 1000 draws",
    )


def test_criterion_12_cli_determinism(tmp_path):
    config = tmp_path / "fock.ini"
    outdir = tmp_path / "out"
    config.write_text(
        "[scenario]\nname = fock-oracle\n\n"
        "[physics]\nu = 0.05\nn_particles = 20\nvolume = 1.0\nk_mode = 1.0\n\n"
        "[numerics]\nn_max_excited = 20\n\n"
        f"[output]\ndirectory = {outdir}\n"
    )
    assert cli_main(["run", str(config)]) == 0
    first = (outdir / "summary.json").read_bytes()
    first_csv = (outdir / "sectors.csv").read_bytes()
    assert cli_main(["run", str(config)]) == 0
    second = (outdir / "summary.json").read_bytes()
    second_csv = (outdir / "sectors.csv").read_bytes()
    check(
        12,
        "repeated identical runs produce byte-identical summaries",
        first == second and first_csv == second_csv and json.loads(first)["results"],
        f"{len(first)} summary bytes compared",
    )
