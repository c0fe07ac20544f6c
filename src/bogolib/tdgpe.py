"""Time-dependent condensate dynamics and the expansion-validity diagnostic.

The condensate is evolved by a second-order symmetric (Strang) split step of

    i dxi/dt = -1/2 xi'' + V(t) xi + u_tilde |xi|^2 xi        (gauge: no
    extra chemical-potential phase), with no renormalization -- norm
    drift is a measured diagnostic, not an enforced constraint.

The loop runs in the grid's orthonormal spectral basis S (``grid.to_spectral``,
the transform the stationary solver applies T with).  With D = exp(-i dt lambda/2)
the kinetic half step and N_j the potential and nonlinear phase at t_j + dt/2,
it carries chi_j = D S psi_j, so a step chi_{j+1} = D^2 S N_j S^-1 chi_j
takes two transforms; psi_j = S^-1 D* chi_j is formed only at stored steps.
A step runs in buffers allocated once per trajectory, with S and S^-1 bound
to two of them once (``grid.spectral_kernels``); it makes the operations of
the allocating form chi = D^2 S((S^-1 chi) exp(-i dt w)) in the same order,
so every result is the same bit for bit.

Mode functions ride along via

    dxi_k/dt = xi_k <xi, dxi/dt> - xi <dxi/dt, xi_k>,

which parallel-transports the complement of xi, times the common phase
exp(int <xi, dxi/dt> dt).  Each step contributes the rank-1 unitary map that
carries the complement of xi(t) exactly onto that of xi(t + dt) (the
parallel-transport gauge of Jia, An, Wang & Lin, J. Chem. Theory Comput. 14,
5645 (2018)): second order in dt, built from the two condensate values alone,
and made of inner products, which S keeps, so the modes are carried as
spectral coefficients too.  The loop only records the condensate of each
step; every 32 steps, and at each snapshot, the maps of the steps since are
composed in compact WY form and applied to the modes at once, by two matrix
products.  Orthonormality and orthogonality to the condensate hold to
round-off; both are measured at every snapshot, not repaired.

The central consistency check: the phonon-linear energy coefficients
h2_k = <xi_k | (-1/2 d^2/dx^2 + V + u|xi|^2) xi> must cancel against the
kinematic coefficients hr_k = -<xi_k | i dxi/dt> exactly when the
condensate follows the equation above, and fail to cancel otherwise.
Here dxi/dt is measured once per snapshot, by fourth-order finite
differences over the fine steps around it (``Trajectory.xi_dot_t``), so
the cancellation is a property of the actual numerical motion rather
than an algebraic identity.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .bdg import PhononBasis, QuadraticHamiltonian, assemble_from_fields
from .errors import ConfigurationError, IntegratorError
from .gpe import CondensateState, _gp_operator, _harmonic_values
from .grid import (ComplexField, Grid1D, _check_same_grid, from_spectral, inner_product, norm,
                   spectral_kernels, to_spectral)

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
        if not np.all(np.isfinite([self.omega_from, self.omega_to, self.t_switch])):
            raise ConfigurationError("quench frequencies and t_switch must be finite")
        object.__setattr__(self, "_v_from", _harmonic_values(self.grid, self.omega_from))
        object.__setattr__(self, "_v_to", _harmonic_values(self.grid, self.omega_to))

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

    def __post_init__(self):
        if not np.all(np.isfinite([self.omega_from, self.omega_to, self.t0, self.t1])):
            raise ConfigurationError("ramp frequencies, t0 and t1 must be finite")
        if not self.t1 > self.t0:
            raise ConfigurationError(f"ramp needs t1 > t0, got t0 = {self.t0}, t1 = {self.t1}")
        # Every frequency of the ramp lies between the two ends.
        _harmonic_values(self.grid, self.omega_from)
        _harmonic_values(self.grid, self.omega_to)

    def __call__(self, t: float) -> np.ndarray:
        if t <= self.t0:
            omega = self.omega_from
        elif t >= self.t1:
            omega = self.omega_to
        else:
            s = 0.5 * (1.0 - np.cos(np.pi * (t - self.t0) / (self.t1 - self.t0)))
            omega = self.omega_from + s * (self.omega_to - self.omega_from)
        return _harmonic_values(self.grid, omega)


# ---------------------------------------------------------------------------
# Trajectory container
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Trajectory:
    """Snapshots of a propagated condensate and optional mode functions."""

    times: np.ndarray
    # xi_t[0] is the start in the dtype it was given; later snapshots are complex.
    xi_t: list[ComplexField]
    mu_t: np.ndarray
    h1_t: np.ndarray
    norm_t: np.ndarray
    grid: Grid1D
    u_tilde: float
    dt: float
    stride: int
    n_steps: int
    evolution: str
    potential_of_t: Callable[[float], np.ndarray]
    n_particles: float
    # (n_snapshots, n_points): dxi/dt at each snapshot by fourth-order finite
    # differences over five consecutive fine steps, centered where they fit.
    xi_dot_t: np.ndarray = field(repr=False)
    modes_t: list[PhononBasis] | None = None
    # Per snapshot: max |Gram - I| of the modes and max |<xi_k, xi>|.
    gram_t: np.ndarray | None = None
    overlap_t: np.ndarray | None = None
    # (n_snapshots, K): h2_k = <xi_k | H xi>, H the Gross-Pitaevskii operator
    # at the physical u_tilde, from the same evaluation as mu_t and h1_t.
    h2_t: np.ndarray | None = None

    @property
    def n_snapshots(self) -> int:
        return len(self.xi_t)

    @property
    def max_norm_drift(self) -> float:
        return float(np.max(np.abs(self.norm_t - 1.0)))

    @property
    def max_gram_deviation(self) -> float | None:
        return None if self.gram_t is None else float(np.max(self.gram_t))

    @property
    def max_overlap(self) -> float | None:
        return None if self.overlap_t is None else float(np.max(self.overlap_t))


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


# Steps per flush of the mode transport; a snapshot also flushes.  A step then
# costs (2K + s) n complex multiply-adds plus a share of a fixed overhead.  On
# a 2-vCPU VM (1 BLAS thread) s = 16 / 32 / 64 added 12.8 / 10.8 / 12.0 us to
# a 15.4 us step at n = 128, K = 24, and 22.8 / 21.5 / 20.0 us to a 32.4 us
# step at n = 256, K = 32; s = 16 cost 1.4x s = 32 at n = 1024, K = 256
# (2 threads).
_WINDOW = 32


def _transport_block(phi: np.ndarray, window: np.ndarray, dx: float) -> tuple[np.ndarray, complex]:
    """Carry the rows of phi along the condensate values in the rows of window.

    Step m maps the complement of e_m (row m, normalized) exactly onto that of
    e_{m+1}: with a_m = <e_m, e_{m+1}> and s_m w_m = e_{m+1} - a_m e_m
    (||w_m|| = 1), the rank-1 map phi -> phi + <w_m, phi> z_m,
    z_m = (|a_m| - 1) w_m - s_m (a_m/|a_m|) e_m, is unitary and sends w_m to a
    vector orthogonal to e_{m+1}; a step that only multiplies the condensate by
    a phase (s_m = 0) has w_m = z_m = 0.  Normalizing first matters: a norm
    error of order eps, divided by s ~ dt, would tilt w toward e_m; and r_m is
    formed explicitly, since 1 - |a_m|^2 from a Gram matrix would cancel.

    The maps compose to I + W^H T Z (compact WY form, Schreiber & Van Loan,
    SIAM J. Sci. Stat. Comput. 10, 53 (1989)), with T upper triangular and
    T^-1 = I/dx - striu(Z W^H) (Joffrain et al., ACM TOMS 32, 169 (2006)), so
    the block moves by two GEMMs and one triangular solve.  Returns the carried
    block and the common phase prod a_m/|a_m|, not applied; neither argument
    is written.
    """
    # A NaN or inf in the window reaches the block without a warning; the
    # snapshot guard in _evolve names it.
    with np.errstate(invalid="ignore"):
        e = window * (1.0 / (np.linalg.norm(window, axis=1) * np.sqrt(dx)))[:, None]
        a = np.einsum("ij,ij->i", e[:-1].conj(), e[1:]) * dx
        r = e[1:] - a[:, None] * e[:-1]
        s = np.linalg.norm(r, axis=1) * np.sqrt(dx)
        phase = a / np.abs(a)
        w = r * (1.0 / np.where(s == 0.0, 1.0, s))[:, None]
        z = (np.abs(a) - 1.0)[:, None] * w - (s * phase)[:, None] * e[:-1]
        w_h = w.conj().T
        t_inv = -(z @ w_h)
        np.fill_diagonal(t_inv, 1.0 / dx)
    # x = (phi W^H) T solves x T^-1 = phi W^H from the right.  ztrsm reads only
    # the upper triangle of t_inv, so its strict lower part is left as it is,
    # and it makes no finiteness check, so a NaN reaches the modes.
    x = scipy.linalg.blas.ztrsm(1.0, t_inv, phi @ w_h, side=1)
    return phi + x @ z, np.prod(phase)


def _step_count(t_final: float, dt: float) -> int:
    """t_final / dt; ConfigurationError unless a whole number of at least 5 steps."""
    if not 0 < dt < np.inf:
        raise ConfigurationError("dt must be positive and finite")
    n_steps = int(round(t_final / dt)) if np.isfinite(t_final / dt) else 0
    if n_steps < 5 or abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ConfigurationError("t_final must be a finite multiple of dt (and >= 5 steps)")
    return n_steps


def _evolve(xi0, grid, u_tilde, n_particles, pot, t_final, dt, stride, evolution, basis):
    """The stepping loop behind ``propagate`` and ``propagate_modes``."""
    n_steps = _step_count(t_final, dt)
    if evolution not in EVOLUTIONS:
        raise ConfigurationError(f"evolution must be one of {EVOLUTIONS}")
    if not isinstance(stride, numbers.Integral) or stride < 1:
        raise ConfigurationError(f"stride must be an integer >= 1, got {stride!r}")
    dx = grid.dx
    # The motion is complex from the first step; snapshot 0 keeps the orbital
    # as given, so a stationary start's mu_t[0] is gpe.chemical_potential's.
    spec = to_spectral(grid, xi0.astype(np.complex128))
    if basis is not None:
        _check_same_grid(basis.grid, grid)
        phi = basis.mode_matrix
        if np.max(np.abs(phi.conj() @ phi.T * dx - np.eye(basis.K))) > 1e-8:
            raise ConfigurationError("initial basis is not orthonormal")
        if np.max(np.abs(phi.conj() @ xi0 * dx)) > 1e-8:
            raise ConfigurationError("initial basis is not orthogonal to the condensate")
        phi = to_spectral(grid, phi)
        phase = 1.0
        # Row 0 holds the spectral condensate at the last flush, rows 1..fill
        # the steps since; the modes move only when the window is flushed.
        window = np.empty((_WINDOW + 1, grid.n_points), dtype=np.complex128)
        window[0], fill = spec, 0
    u_eff = u_tilde if evolution == "gpe" else 0.0
    half = np.exp(-0.5j * dt * grid.kinetic_eigs)
    full, back = half * half, half.conj()

    snapshot_steps = sorted({*range(0, n_steps + 1, stride), n_steps})
    # Fine steps [lo, lo+4] carrying each snapshot's derivative stencil.
    stencil_lo = {j: min(max(j - 2, 0), n_steps - 4) for j in snapshot_steps}
    needed = {lo + i for lo in stencil_lo.values() for i in range(5)} | set(snapshot_steps)

    states: dict[int, np.ndarray] = {0: xi0.copy()}
    xi_t, mu_t, h1_t, norm_t, modes_t, gram_t, overlap_t, h2_t = [], [], [], [], [], [], [], []
    # A step runs in these buffers: inverse() fills mid from chi, forward() chi from mid.
    chi = half * spec
    mid = np.empty_like(chi)
    theta = np.empty(grid.n_points)
    kick = np.empty_like(chi)
    forward, inverse = spectral_kernels(grid, chi, mid)
    rotation = -1j * dt
    for j in range(n_steps + 1):
        if j > 0:
            # theta = V(t + dt/2) + u |mid|^2, mid *= exp(-i dt theta).
            inverse()
            np.abs(mid, out=theta)
            np.square(theta, out=theta)
            theta *= u_eff
            theta += pot((j - 1) * dt + 0.5 * dt)
            np.multiply(rotation, theta, out=kick)
            np.exp(kick, out=kick)
            mid *= kick
            forward()
            np.multiply(full, chi, out=chi)
            if basis is not None:
                fill += 1
                np.multiply(back, chi, out=window[fill])
            if j in needed:
                # from_spectral returns a new array, never a view of the window.
                states[j] = from_spectral(grid, back * chi if basis is None else window[fill])
            if basis is not None and (fill == _WINDOW or j in stencil_lo):
                phi, block_phase = _transport_block(phi, window[: fill + 1], dx)
                phase *= block_phase
                window[0] = window[fill]
                fill = 0
        if j not in stencil_lo:
            continue
        t = j * dt
        xi = ComplexField(states[j], grid)
        nrm = norm(xi)
        if not abs(nrm - 1.0) <= 1e-6:  # also catches NaN
            raise IntegratorError(f"norm drifted to {nrm} at t = {t}; reduce dt")
        h_xi, mu, h1 = _gp_operator(grid, pot(t), u_tilde, xi.values)
        xi_t.append(xi)
        mu_t.append(mu)
        h1_t.append(h1)
        norm_t.append(nrm)
        if basis is not None:
            modes = phase * from_spectral(grid, phi)
            gram_dev = float(np.max(np.abs(modes.conj() @ modes.T * dx - np.eye(basis.K))))
            ovl = float(np.max(np.abs(modes.conj() @ xi.values * dx)))
            if not (gram_dev <= 1e-6 and ovl <= 1e-6):
                raise IntegratorError(
                    f"mode orthonormality drift {gram_dev:.2e} / overlap {ovl:.2e} "
                    f"at t = {t}; reduce dt"
                )
            modes_t.append(PhononBasis(modes, xi))
            gram_t.append(gram_dev)
            overlap_t.append(ovl)
            h2_t.append(modes.conj() @ h_xi * dx)

    xi_dot_t = np.array([
        _fd_first_derivative_weights(np.arange(lo - j, lo - j + 5, dtype=float))
        @ np.stack([states[lo + i] for i in range(5)]) / dt
        for j, lo in stencil_lo.items()
    ])
    with_modes = basis is not None
    return Trajectory(
        times=np.array([j * dt for j in snapshot_steps]),
        xi_t=xi_t,
        mu_t=np.asarray(mu_t),
        h1_t=np.asarray(h1_t),
        norm_t=np.asarray(norm_t),
        grid=grid,
        u_tilde=u_tilde,
        dt=dt,
        stride=stride,
        n_steps=n_steps,
        evolution=evolution,
        potential_of_t=pot,
        n_particles=n_particles,
        xi_dot_t=xi_dot_t,
        modes_t=modes_t if with_modes else None,
        gram_t=np.asarray(gram_t) if with_modes else None,
        overlap_t=np.asarray(overlap_t) if with_modes else None,
        h2_t=np.asarray(h2_t) if with_modes else None,
    )


def propagate(
    initial: CondensateState,
    t_final: float,
    dt: float,
    potential_of_t=None,
    stride: int = 10,
    evolution: str = "gpe",
    basis: PhononBasis | None = None,
) -> Trajectory:
    """Second-order split-step evolution with snapshot diagnostics.

    ``evolution="linear"`` drops the nonlinear term from the stepping
    while keeping the physical u_tilde in the trajectory metadata -- the
    deliberately wrong motion used to show the expansion's validity
    condition is necessary.  Every trajectory stores dxi/dt at each
    snapshot (``xi_dot_t``), differenced from the fine steps around it.

    With a ``basis`` (orthonormal modes orthogonal to the initial
    condensate), the modes are parallel-transported along the split steps,
    in blocks of steps (see the module docstring); the
    trajectory then carries their snapshots (``modes_t``) and, per
    snapshot, the Gram deviation (``gram_t``) and the condensate overlap
    (``overlap_t``).  The condensate snapshots do not depend on ``basis``.

    Raises
    ------
    ConfigurationError
        If the basis is not orthonormal or not orthogonal to the condensate.
    DimensionMismatchError
        If the basis lives on another grid (n_points, length or boundary).
    IntegratorError
        If the norm, the mode orthonormality or the mode-condensate overlap
        drifts beyond 1e-6, or is NaN, at any stored time.
    """
    if potential_of_t is None:
        potential_of_t = StaticPotential(initial.potential.values)
    return _evolve(initial.xi.values, initial.grid, initial.u_tilde, initial.n_particles,
                   potential_of_t, t_final, dt, stride, evolution, basis)


def propagate_modes(traj: Trajectory, initial_basis: PhononBasis) -> Trajectory:
    """``traj`` re-run from its own inputs with ``basis=initial_basis``.

    The same as passing the basis to ``propagate`` in the first place: the
    condensate snapshots come out bit-identical and the modes are filled in.
    """
    return _evolve(traj.xi_t[0].values, traj.grid, traj.u_tilde, traj.n_particles,
                   traj.potential_of_t, traj.times[-1], traj.dt, traj.stride,
                   traj.evolution, initial_basis)


def mu_from_rate(xi: ComplexField, xi_dot: ComplexField) -> float:
    """Equivalent form i <xi, dxi/dt> (real part) along the motion."""
    return float((1j * inner_product(xi, xi_dot)).real)


def h3_of_t(traj: Trajectory) -> list[QuadraticHamiltonian]:
    """Quadratic-energy coefficients in the instantaneous mode basis, one per snapshot.

    Each is assembled at the trajectory's u_tilde and snapshot ``mu_t``.
    From the first step on the condensate is complex, so G is (and M once
    the modes move): ``bdg.diagonalize`` refuses these; no output of the
    library reads them.  Snapshot 0 holds the start as given, so a float64
    start with its real basis gives real (M, G) there.
    """
    if traj.modes_t is None:
        raise ConfigurationError("trajectory has no mode functions; pass basis= to propagate")
    return [
        assemble_from_fields(xi.values, modes, traj.potential_of_t(t), traj.u_tilde, mu)
        for xi, modes, t, mu in zip(traj.xi_t, traj.modes_t, traj.times, traj.mu_t)
    ]


def hr_diagnostic(traj: Trajectory) -> list[HrDiagnostic]:
    """Cancellation check between phonon-linear and kinematic coefficients.

    h2_k projects the full interacting right-hand side (physical u_tilde)
    onto the modes, as stored per snapshot in ``traj.h2_t``; hr_k projects
    -i times the measured time derivative ``traj.xi_dot_t``.
    Their sum vanishes exactly when the stored motion solves the
    interacting equation, and is of order u_tilde times the projected
    nonlinearity when it does not.
    """
    if traj.modes_t is None:
        raise ConfigurationError("trajectory has no mode functions; pass basis= to propagate")
    dx, out = traj.grid.dx, []
    for t, modes, h2, xi_dot in zip(traj.times, traj.modes_t, traj.h2_t, traj.xi_dot_t):
        hr = -1j * (modes.mode_matrix.conj() @ xi_dot) * dx
        out.append(HrDiagnostic(float(t), h2, hr, float(np.linalg.norm(h2 + hr))))
    return out


def center_of_mass(f: ComplexField) -> float:
    """Quadrature of x |f|^2, measured from the domain center."""
    x = f.grid.points - f.grid.center
    return float(np.sum(x * np.abs(f.values) ** 2) * f.grid.dx)
