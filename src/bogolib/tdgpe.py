"""Time-dependent condensate dynamics and the expansion-validity diagnostic.

The condensate is evolved by a second-order symmetric split step of

    i dxi/dt = -1/2 xi'' + V(t) xi + u_tilde |xi|^2 xi        (gauge: no
    extra chemical-potential phase), with no renormalization -- norm
    drift is a measured diagnostic, not an enforced constraint.

Mode functions ride along via

    dxi_k/dt = xi_k <xi, dxi/dt> - xi <dxi/dt, xi_k>,

integrated with an explicit second-order (Heun) step synchronized to the
condensate steps, the time derivative taken from the evolution's own
right-hand side.  The right-hand side is linear in the modes, so the two
Heun stages fold into closed form: one scale of the (K, n) mode matrix
plus a rank-2 update along xi(t) and xi(t + dt).  This keeps the mode
set orthonormal and orthogonal to the condensate up to integrator error,
which is tracked, not repaired.

The central consistency check: the phonon-linear energy coefficients
h2_k = <xi_k | (-1/2 d^2/dx^2 + V + u|xi|^2) xi> must cancel against the
kinematic coefficients hr_k = -<xi_k | i dxi/dt> exactly when the
condensate follows the equation above, and fail to cancel otherwise.
Here dxi/dt is measured from the stored trajectory by fourth-order
finite differences, so the cancellation is a property of the actual
numerical motion rather than an algebraic identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.fft
import scipy.linalg

from .bdg import PhononBasis, QuadraticHamiltonian, assemble_from_fields
from .errors import ConfigurationError, DimensionMismatchError, IntegratorError
from .gpe import CondensateState, _quadrature_mu_h1, apply_gp_operator
from .grid import ComplexField, Grid1D, _sine_transform, inner_product

EVOLUTIONS = ("gpe", "linear")


# ---------------------------------------------------------------------------
# Time-dependent potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticPotential:
    values: np.ndarray

    def __call__(self, t: float) -> np.ndarray:
        return self.values


@dataclass(frozen=True)
class TrapQuench:
    """Harmonic trap whose frequency switches abruptly at t_switch."""

    grid: Grid1D
    omega_from: float
    omega_to: float
    t_switch: float = 0.0
    _v_from: np.ndarray = field(init=False, repr=False)
    _v_to: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = self.grid.points - self.grid.center
        object.__setattr__(self, "_v_from", 0.5 * self.omega_from**2 * x**2)
        object.__setattr__(self, "_v_to", 0.5 * self.omega_to**2 * x**2)

    def __call__(self, t: float) -> np.ndarray:
        return self._v_to if t >= self.t_switch else self._v_from


@dataclass(frozen=True)
class TrapRamp:
    """Harmonic trap frequency ramped smoothly (half-cosine) in [t0, t1]."""

    grid: Grid1D
    omega_from: float
    omega_to: float
    t0: float
    t1: float

    def __call__(self, t: float) -> np.ndarray:
        if t <= self.t0:
            omega = self.omega_from
        elif t >= self.t1:
            omega = self.omega_to
        else:
            s = 0.5 * (1.0 - np.cos(np.pi * (t - self.t0) / (self.t1 - self.t0)))
            omega = self.omega_from + s * (self.omega_to - self.omega_from)
        x = self.grid.points - self.grid.center
        return 0.5 * omega**2 * x**2


# ---------------------------------------------------------------------------
# Trajectory container
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Trajectory:
    """Snapshots of a propagated condensate and optional mode functions."""

    times: np.ndarray
    xi_t: list[ComplexField]
    mu_t: np.ndarray
    h1_t: np.ndarray
    norm_t: np.ndarray
    grid: Grid1D
    u_tilde: float
    dt: float
    stride: int
    evolution: str
    potential_of_t: Callable[[float], np.ndarray]
    n_particles: float
    # Fine-step neighborhoods for finite-difference time derivatives:
    # per snapshot, (offsets in units of dt, list of value arrays).
    stencils: list = field(default=None, repr=False)
    modes_t: list[PhononBasis] | None = None
    h3_t: list[QuadraticHamiltonian] | None = None

    @property
    def n_snapshots(self) -> int:
        return len(self.xi_t)


@dataclass(frozen=True, eq=False)
class HrDiagnostic:
    """Phonon-linear vs kinematic coefficients at one stored time."""

    time: float
    h2_vector: np.ndarray
    hr_vector: np.ndarray
    mismatch: float


def _fd_first_derivative_weights(offsets: np.ndarray) -> np.ndarray:
    """Weights w with sum w_i f(o_i h) = h f'(0) + O(h^5) for 5 offsets."""
    p = np.arange(offsets.size)
    vander = offsets[None, :].astype(float) ** p[:, None]
    rhs = np.zeros(offsets.size)
    rhs[1] = 1.0
    return scipy.linalg.solve(vander, rhs)


def _stepper(grid: Grid1D, dt: float, u_eff: float, potential_of_t):
    """One symmetric split step psi(t) -> psi(t + dt)."""
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


def _resolve_potential(initial: CondensateState, potential_of_t):
    if potential_of_t is None:
        return StaticPotential(initial.potential.values.real.copy())
    return potential_of_t


def propagate(
    initial: CondensateState,
    t_final: float,
    dt: float,
    potential_of_t=None,
    stride: int = 10,
    evolution: str = "gpe",
) -> Trajectory:
    """Second-order split-step evolution with snapshot diagnostics.

    ``evolution="linear"`` drops the nonlinear term from the stepping
    while keeping the physical u_tilde in the trajectory metadata -- the
    deliberately wrong motion used to show the expansion's validity
    condition is necessary.

    Raises
    ------
    IntegratorError
        If the norm drifts beyond 1e-6 at any stored time.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    if evolution not in EVOLUTIONS:
        raise ConfigurationError(f"evolution must be one of {EVOLUTIONS}")
    n_steps = int(round(t_final / dt))
    if n_steps < 5 or abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ConfigurationError("t_final must be a multiple of dt (and >= 5 steps)")
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")

    grid = initial.grid
    pot = _resolve_potential(initial, potential_of_t)
    u_eff = initial.u_tilde if evolution == "gpe" else 0.0
    step = _stepper(grid, dt, u_eff, pot)

    snapshot_steps = sorted({*range(0, n_steps + 1, stride), n_steps})
    # Fine-step window [lo, lo+4] carrying each snapshot's derivative stencil.
    stencil_lo = {j: min(max(j - 2, 0), n_steps - 4) for j in snapshot_steps}
    needed_states = sorted({lo + i for lo in stencil_lo.values() for i in range(5)})
    needed_set = set(needed_states) | set(snapshot_steps)

    states: dict[int, np.ndarray] = {}
    psi = initial.xi.values.copy()
    if 0 in needed_set:
        states[0] = psi.copy()
    for j in range(1, n_steps + 1):
        psi = step(psi, (j - 1) * dt)
        if j in needed_set:
            states[j] = psi.copy()

    times = np.array([j * dt for j in snapshot_steps])
    xi_t, mu_t, h1_t, norm_t, stencils = [], [], [], [], []
    for j in snapshot_steps:
        values = states[j]
        t = j * dt
        xi_t.append(ComplexField(values, grid))
        mu, h1, _ = _quadrature_mu_h1(grid, pot(t), initial.u_tilde, values)
        mu_t.append(mu)
        h1_t.append(h1)
        nrm = float(np.sqrt(np.vdot(values, values).real * grid.dx))
        norm_t.append(nrm)
        if abs(nrm - 1.0) > 1e-6:
            raise IntegratorError(
                f"norm drifted to {nrm} at t = {t}; reduce dt"
            )
        lo = stencil_lo[j]
        offsets = np.arange(lo - j, lo - j + 5)
        stencils.append((offsets, [states[lo + i] for i in range(5)]))

    return Trajectory(
        times=times,
        xi_t=xi_t,
        mu_t=np.asarray(mu_t),
        h1_t=np.asarray(h1_t),
        norm_t=np.asarray(norm_t),
        grid=grid,
        u_tilde=initial.u_tilde,
        dt=dt,
        stride=stride,
        evolution=evolution,
        potential_of_t=pot,
        n_particles=initial.n_particles,
        stencils=stencils,
    )


def _heun_mode_step(phi, psi, psi_dot, psi_next, psi_dot_next, dt, dx):
    """One Heun step of dphi_k/dt = c phi_k - b_k psi in closed form.

    With c = <psi, psi_dot> dx and b = phi psi_dot^* dx, the two stages
    k1 = c1 phi - b1 psi and k2 = c2 (phi + dt k1) - b2 psi_next fold into

        phi + dt/2 (k1 + k2) = a phi - (dt/2)(1 + dt c2) b1 psi - (dt/2) b2 psi_next,

    a = 1 + dt/2 (c1 + c2 (1 + dt c1)), where b2 = (phi + dt k1) psi_dot_next^* dx
    = (1 + dt c1) phi psi_dot_next^* dx - dt b1 (psi . psi_dot_next^*) dx.
    That is one scale of phi plus a (K, 2) by (2, n) product, with no
    (K, n) stage temporaries.
    """
    c1 = np.vdot(psi, psi_dot) * dx
    c2 = np.vdot(psi_next, psi_dot_next) * dx
    b12 = phi @ np.conj(np.stack((psi_dot, psi_dot_next), axis=1)) * dx
    b1 = b12[:, 0]
    b2 = (1.0 + dt * c1) * b12[:, 1] - dt * b1 * (np.vdot(psi_dot_next, psi) * dx)
    coeffs = np.stack((-0.5 * dt * (1.0 + dt * c2) * b1, -0.5 * dt * b2), axis=1)
    a = 1.0 + 0.5 * dt * (c1 + c2 * (1.0 + dt * c1))
    return a * phi + coeffs @ np.stack((psi, psi_next))


def propagate_modes(traj: Trajectory, initial_basis: PhononBasis) -> Trajectory:
    """Fill the trajectory with co-evolved mode-function snapshots.

    Re-runs the condensate stepping (bit-identical to ``propagate``) and
    advances the K mode functions with a Heun step driven by the
    condensate's equation-of-motion right-hand side.

    Raises
    ------
    IntegratorError
        If mode orthonormality or condensate overlap drifts beyond 1e-6
        at a stored time.
    """
    grid = traj.grid
    if initial_basis.grid.n_points != grid.n_points:
        raise DimensionMismatchError("basis grid does not match trajectory")
    xi0 = traj.xi_t[0]
    gram0 = initial_basis.mode_matrix.conj() @ initial_basis.mode_matrix.T * grid.dx
    if np.max(np.abs(gram0 - np.eye(initial_basis.K))) > 1e-8:
        raise ConfigurationError("initial basis is not orthonormal")
    overlap0 = initial_basis.mode_matrix.conj() @ xi0.values * grid.dx
    if np.max(np.abs(overlap0)) > 1e-8:
        raise ConfigurationError("initial basis is not orthogonal to the condensate")

    u_eff = traj.u_tilde if traj.evolution == "gpe" else 0.0
    pot = traj.potential_of_t
    step = _stepper(grid, traj.dt, u_eff, pot)
    dt = traj.dt
    dx = grid.dx
    n_steps = int(round(traj.times[-1] / dt))
    snapshot_steps = {int(round(t / dt)): i for i, t in enumerate(traj.times)}

    def rhs(values, t):
        return -1j * apply_gp_operator(grid, pot(t), u_eff, values)

    phi = initial_basis.mode_matrix.astype(np.complex128).copy()
    psi = xi0.values.copy()
    psi_dot = rhs(psi, 0.0)
    modes_t: list[PhononBasis | None] = [None] * len(traj.times)

    def record(step_index, phi_now):
        idx = snapshot_steps[step_index]
        xi_here = traj.xi_t[idx]
        fields = [ComplexField(row.copy(), grid) for row in phi_now]
        basis = PhononBasis(modes=fields, condensate=xi_here, K=initial_basis.K)
        gram = phi_now.conj() @ phi_now.T * dx
        gram_dev = np.max(np.abs(gram - np.eye(initial_basis.K)))
        ovl = np.max(np.abs(phi_now.conj() @ xi_here.values * dx))
        if gram_dev > 1e-6 or ovl > 1e-6:
            raise IntegratorError(
                f"mode orthonormality drift {gram_dev:.2e} / overlap {ovl:.2e} "
                f"at t = {traj.times[idx]}; reduce dt"
            )
        modes_t[idx] = basis

    if 0 in snapshot_steps:
        record(0, phi)
    for j in range(1, n_steps + 1):
        t_prev = (j - 1) * dt
        psi_next = step(psi, t_prev)
        psi_dot_next = rhs(psi_next, j * dt)
        phi = _heun_mode_step(phi, psi, psi_dot, psi_next, psi_dot_next, dt, dx)
        psi, psi_dot = psi_next, psi_dot_next
        if j in snapshot_steps:
            record(j, phi)

    return replace(traj, modes_t=modes_t)


def mu_of_t(xi: ComplexField, potential, u_tilde: float) -> float:
    """Chemical-potential functional (kinetic + trap + full interaction)."""
    values = potential.values.real if isinstance(potential, ComplexField) else potential
    mu, _, _ = _quadrature_mu_h1(xi.grid, values, u_tilde, xi.values)
    return mu


def mu_from_rate(xi: ComplexField, xi_dot: ComplexField) -> float:
    """Equivalent form i <xi, dxi/dt> (real part) along the motion."""
    return float((1j * inner_product(xi, xi_dot)).real)


def trajectory_xi_dot(traj: Trajectory, index: int) -> ComplexField:
    """Fourth-order finite-difference time derivative at a stored time."""
    offsets, arrays = traj.stencils[index]
    weights = _fd_first_derivative_weights(np.asarray(offsets, dtype=float))
    stack = np.stack(arrays)
    return ComplexField(weights @ stack / traj.dt, traj.grid)


def h3_of_t(traj: Trajectory, u_tilde: float | None = None) -> list[QuadraticHamiltonian]:
    """Quadratic-energy coefficients in the instantaneous mode basis.

    The list is also stored on the trajectory (``traj.h3_t``).
    """
    if traj.modes_t is None:
        raise ConfigurationError("trajectory has no mode functions; run propagate_modes")
    u = traj.u_tilde if u_tilde is None else u_tilde
    out = []
    for i, t in enumerate(traj.times):
        out.append(
            assemble_from_fields(
                traj.xi_t[i].values,
                traj.modes_t[i],
                traj.potential_of_t(t),
                u,
                traj.mu_t[i],
            )
        )
    traj.h3_t = out
    return out


def hr_diagnostic(traj: Trajectory) -> list[HrDiagnostic]:
    """Cancellation check between phonon-linear and kinematic coefficients.

    h2_k projects the full interacting right-hand side (physical u_tilde)
    onto the modes; hr_k projects -i times the measured time derivative.
    Their sum vanishes exactly when the stored motion solves the
    interacting equation, and is of order u_tilde times the projected
    nonlinearity when it does not.
    """
    if traj.modes_t is None:
        raise ConfigurationError("trajectory has no mode functions; run propagate_modes")
    grid = traj.grid
    out = []
    for i, t in enumerate(traj.times):
        xi = traj.xi_t[i].values
        phi = traj.modes_t[i].mode_matrix
        gp = apply_gp_operator(grid, traj.potential_of_t(t), traj.u_tilde, xi)
        h2 = phi.conj() @ gp * grid.dx
        xi_dot = trajectory_xi_dot(traj, i).values
        hr = -1j * (phi.conj() @ xi_dot) * grid.dx
        mismatch = float(np.linalg.norm(h2 + hr))
        out.append(HrDiagnostic(time=float(t), h2_vector=h2, hr_vector=hr, mismatch=mismatch))
    return out


def center_of_mass(f: ComplexField) -> float:
    """Quadrature of x |f|^2, measured from the domain center."""
    x = f.grid.points - f.grid.center
    return float(np.sum(x * np.abs(f.values) ** 2) * f.grid.dx)
