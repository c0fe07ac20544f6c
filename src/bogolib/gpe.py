"""Stationary Gross-Pitaevskii solver.

Finds the real, nodeless ground-state orbital xi(x) of

    -1/2 xi'' + V xi + u_tilde |xi|^2 xi = mu xi,   integral |xi|^2 dx = 1,

by normalized imaginary-time split stepping with an adaptive step,
polished by a projected Newton iteration once the residual is small.

Each Newton step solves the bordered system

    [[T + V + 3 u_tilde xi^2 - mu, -xi], [xi^T dx, 0]] [d xi; d mu] = [-r; 0]

for the residual r = (T + V + u_tilde xi^2 - mu) xi, with T the dense
kinetic matrix.  Newton stops as soon as a step fails to halve the
residual: that residual is the round-off floor of the grid.  A floor
above ``tol`` is a ``ConvergenceError`` that names it.  The same matrix
at the converged state gives the exact N-derivative of the orbital (see
``number_shift.exact_dxi_dN``), with right-hand side [-(u_tilde/N) xi^3; 0].

The chemical potential is always reported through the energy functional

    mu = integral( xi* (-1/2 d^2/dx^2) xi + V |xi|^2 + u_tilde |xi|^4 ) dx,

and the mean-field energy per particle is

    h1 = kinetic + potential + (u_tilde/2) integral |xi|^4 dx,

so mu - h1 = (u_tilde/2) integral |xi|^4 dx holds identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.fft
import scipy.linalg

from .errors import ConfigurationError, ConvergenceError, DimensionMismatchError
from .grid import ComplexField, Grid1D, _kinetic_values, kinetic_matrix

if TYPE_CHECKING:  # pragma: no cover
    from .bdg import PhononBasis


@dataclass(frozen=True, eq=False)
class CondensateState:
    """Converged condensate orbital with its defining parameters."""

    xi: ComplexField
    n_particles: float
    u_tilde: float
    potential: ComplexField
    mu: float
    residual: float
    # Accepted-step energies of the imaginary-time stage (diagnostic).
    h1_history: np.ndarray = field(repr=False, default=None)

    @property
    def grid(self) -> Grid1D:
        return self.xi.grid


# Safety cap on Newton steps; each kept step at least halves the residual.
_NEWTON_MAX_STEPS = 40


def zero_potential(grid: Grid1D) -> ComplexField:
    return ComplexField(np.zeros(grid.n_points, dtype=np.complex128), grid)


def harmonic_potential(grid: Grid1D, omega: float = 1.0) -> ComplexField:
    """V(x) = omega^2 (x - L/2)^2 / 2, centered in the domain."""
    x = grid.points - grid.center
    return ComplexField(0.5 * omega**2 * x**2 + 0j, grid)


def apply_gp_operator(
    grid: Grid1D, potential_values: np.ndarray, u_tilde: float, values: np.ndarray
) -> np.ndarray:
    """(-1/2 d^2/dx^2 + V + u_tilde |psi|^2) psi on raw arrays."""
    return _kinetic_values(grid, values) + (
        potential_values + u_tilde * np.abs(values) ** 2
    ) * values


def _check_potential(grid: Grid1D, potential: ComplexField) -> np.ndarray:
    if potential.grid.n_points != grid.n_points or potential.grid.boundary != grid.boundary:
        raise DimensionMismatchError("potential grid does not match")
    if np.max(np.abs(potential.values.imag)) > 0:
        raise ConfigurationError("potential must be real-valued")
    return potential.values.real


def _quadrature_mu_h1(grid, v_real, u_tilde, xi_values):
    kin = np.vdot(xi_values, _kinetic_values(grid, xi_values)).real * grid.dx
    dens = np.abs(xi_values) ** 2
    pot = float(np.sum(v_real * dens) * grid.dx)
    quart = float(np.sum(dens**2) * grid.dx)
    mu = kin + pot + u_tilde * quart
    h1 = kin + pot + 0.5 * u_tilde * quart
    return mu, h1, quart


def _residual_norm(grid, v_real, u_tilde, xi_values, mu):
    r = apply_gp_operator(grid, v_real, u_tilde, xi_values) - mu * xi_values
    return float(np.sqrt(np.vdot(r, r).real * grid.dx))


def _solve_bordered(kin, v_real, u_tilde, psi, mu, dx, rhs):
    """Solve the bordered system of the module docstring for (d, m).

    [[kin + V + 3 u_tilde psi^2 - mu, -psi], [psi^T dx, 0]] [d; m] = [rhs; 0],
    with ``psi`` the real orbital and ``kin`` the dense kinetic matrix.
    Raises ``scipy.linalg.LinAlgError`` if the matrix is singular.
    """
    n = psi.shape[0]
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = kin
    diag = np.arange(n)
    system[diag, diag] += v_real + 3.0 * u_tilde * psi**2 - mu
    system[:n, n] = -psi
    system[n, :n] = psi * dx
    solution = scipy.linalg.solve(system, np.append(rhs, 0.0), overwrite_a=True)
    return solution[:n], float(solution[n])


def solve_stationary(
    grid: Grid1D,
    potential: ComplexField,
    u_tilde: float,
    n_particles: float = 1.0,
    tol: float = 1e-11,
    max_iters: int = 20000,
) -> CondensateState:
    """Ground-state branch of the stationary equation.

    Parameters
    ----------
    u_tilde : float
        Scaled repulsive interaction (N times the physical coupling);
        attractive values are rejected.
    tol : float
        Target L2 residual of the stationary equation.
    max_iters : int
        Cap on imaginary-time iterations.

    Raises
    ------
    ConfigurationError
        For u_tilde < 0 or a complex potential.
    ConvergenceError
        If the residual target is not reached; carries the residual of the
        last kept iterate, and the message says why Newton stopped (its
        round-off floor, a singular Jacobian or a diverging step).
    """
    if u_tilde < 0:
        raise ConfigurationError("attractive interactions (u_tilde < 0) are not supported")
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    v_real = _check_potential(grid, potential)

    # Nodeless positive starting guess shaped by the potential.
    psi = np.exp(-(v_real - v_real.min()))
    psi /= np.sqrt(np.sum(psi**2) * grid.dx)

    dtau = 1e-2
    dtau_max = 0.1
    newton_switch = 1e-4
    history = []
    mu, h1, _ = _quadrature_mu_h1(grid, v_real, u_tilde, psi)
    history.append(h1)
    residual = _residual_norm(grid, v_real, u_tilde, psi, mu)

    exp_half = np.exp(-0.5 * dtau * grid.kinetic_eigs)

    def kinetic_half(values):
        if grid.boundary == "periodic":
            return scipy.fft.ifft(exp_half * scipy.fft.fft(values)).real
        return scipy.fft.idst(
            exp_half * scipy.fft.dst(values, type=1, norm="ortho"), type=1, norm="ortho"
        )

    iters = 0
    last_checked = np.inf
    while residual > newton_switch and residual > tol and iters < max_iters:
        trial = kinetic_half(psi)
        trial = trial * np.exp(-dtau * (v_real + u_tilde * trial**2))
        trial = kinetic_half(trial)
        trial /= np.sqrt(np.sum(trial**2) * grid.dx)
        mu_t, h1_t, _ = _quadrature_mu_h1(grid, v_real, u_tilde, trial)
        if h1_t > history[-1] + 1e-13:
            dtau *= 0.5
            if dtau < 1e-12:
                break
            exp_half = np.exp(-0.5 * dtau * grid.kinetic_eigs)
            continue
        psi, mu = trial, mu_t
        history.append(h1_t)
        iters += 1
        if dtau < dtau_max:  # recover from early halvings
            dtau = min(dtau * 1.05, dtau_max)
            exp_half = np.exp(-0.5 * dtau * grid.kinetic_eigs)
        if iters % 10 == 0:
            residual = _residual_norm(grid, v_real, u_tilde, psi, mu)
            # The split map's own fixed point carries an O(dtau^2) residual
            # floor; once improvement stops, hand over to the Newton stage.
            if residual > 0.99 * last_checked:
                break
            last_checked = residual

    residual = _residual_norm(grid, v_real, u_tilde, psi, mu)

    # Projected Newton polish on the real-valued problem.  A step is kept
    # only if it lowers the residual; Newton stops at the first step that
    # does not halve it, so ``residual`` always belongs to ``psi``.
    stop, cause = f"took {_NEWTON_MAX_STEPS} steps without reaching its floor", None
    if residual > tol:
        kin = kinetic_matrix(grid)
        for _ in range(_NEWTON_MAX_STEPS):
            r_vec = apply_gp_operator(grid, v_real, u_tilde, psi).real - mu * psi
            try:
                step, _ = _solve_bordered(kin, v_real, u_tilde, psi, mu, grid.dx, -r_vec)
            except scipy.linalg.LinAlgError as exc:
                stop, cause = "hit a singular Jacobian", exc
                break
            trial = psi + step
            trial /= np.sqrt(np.sum(trial**2) * grid.dx)
            trial_mu, _, _ = _quadrature_mu_h1(grid, v_real, u_tilde, trial)
            new_residual = _residual_norm(grid, v_real, u_tilde, trial, trial_mu)
            if not new_residual <= 10 * residual:  # also catches NaN
                stop = f"took a diverging step (residual {new_residual:.3e})"
                break
            if new_residual < residual:
                psi, mu = trial, trial_mu
            if new_residual > 0.5 * residual:
                residual = min(residual, new_residual)
                stop = f"reached the round-off floor {residual:.3e} of the grid"
                break
            residual = new_residual

    if residual > tol:
        raise ConvergenceError(
            f"stationary solve stalled at residual {residual:.3e} (target {tol:.1e}): "
            f"Newton {stop}",
            residual=residual,
        ) from cause

    # Ground-state gauge: real and non-negative overall sign.
    if psi.sum() < 0:
        psi = -psi
    mu, h1, _ = _quadrature_mu_h1(grid, v_real, u_tilde, psi)
    history.append(h1)

    return CondensateState(
        xi=ComplexField(psi.astype(np.complex128), grid),
        n_particles=float(n_particles),
        u_tilde=float(u_tilde),
        potential=potential,
        mu=mu,
        residual=residual,
        h1_history=np.asarray(history),
    )


def chemical_potential(state: CondensateState) -> float:
    """Energy-functional chemical potential evaluated by quadrature."""
    v_real = state.potential.values.real
    mu, _, _ = _quadrature_mu_h1(state.grid, v_real, state.u_tilde, state.xi.values)
    return mu


def energy_functional_h1(state: CondensateState) -> float:
    """Mean-field energy per particle (interaction weighted 1/2)."""
    v_real = state.potential.values.real
    _, h1, _ = _quadrature_mu_h1(state.grid, v_real, state.u_tilde, state.xi.values)
    return h1


def gpe_residual(state: CondensateState) -> float:
    """L2 norm of (-1/2 d^2/dx^2 + V + u|xi|^2 - mu) xi."""
    v_real = state.potential.values.real
    return _residual_norm(state.grid, v_real, state.u_tilde, state.xi.values, state.mu)


def h2_coefficients(state: CondensateState, basis: "PhononBasis") -> np.ndarray:
    """Coefficients of the phonon-linear part of the energy.

    Entry k is <xi_k | (-1/2 d^2/dx^2 + V + u|xi|^2) xi>; at a converged
    stationary state the whole vector vanishes to solver accuracy because
    the basis is orthogonal to xi.
    """
    if basis.condensate.grid.n_points != state.grid.n_points:
        raise DimensionMismatchError("basis grid does not match state grid")
    gp = apply_gp_operator(
        state.grid, state.potential.values.real, state.u_tilde, state.xi.values
    )
    return basis.mode_matrix.conj() @ gp * state.grid.dx
