"""Stationary Gross-Pitaevskii solver.

Finds the real, nodeless ground-state orbital xi(x) of

    -1/2 xi'' + V xi + u_tilde |xi|^2 xi = mu xi,   integral |xi|^2 dx = 1,

in three stages.

1. Descent: Polak-Ribiere nonlinear CG on h1 (below) over the unit sphere,
   searching along great circles so that each step lowers h1, with the
   preconditioner s (T + s)^-1/2 (V - V_min + u_tilde psi^2 + s)^-1 (T + s)^-1/2,
   s = max(mu - V_min, 1); see Antoine, Levitt & Tang, J. Comput. Phys.
   343, 92 (2017).  It starts from the lower-energy of exp(-(V - V_min))
   and the Thomas-Fermi profile sqrt(max(mu_TF - V, 0)/u_tilde), and hands
   over below the residual ``_HANDOVER``.
2. Newton polish.  Each step solves the bordered system

       [[J, -xi], [xi^T dx, 0]] [d xi; d mu] = [-r; 0],   J = T + V + 3 u_tilde xi^2 - mu,

   for the residual r = (T + V + u_tilde xi^2 - mu) xi.  No matrix is
   formed: with e = xi/|xi| and P = I - e e^T, the step is the solution
   orthogonal to xi of P J P d = P rhs, found by conjugate gradients with
   (T + s)^-1 as preconditioner; then d mu = e.(J d - rhs)/(e.xi).  The
   CG runs on the coefficients of ``grid.to_spectral``, where T and the
   preconditioner are diagonal, so each iteration takes one transform
   pair, for the potential term of J.  P J P is positive definite on the
   complement of xi near the ground state for every u_tilde >= 0 (J
   itself is singular along xi at u_tilde = 0), so one CG solve serves
   each step.  This is Newton-Krylov in the sense of Knoll &
   Keyes, J. Comput. Phys. 193, 357 (2004), and inexact Newton in the
   sense of Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 400
   (1982): a step's CG stops at a tenth of eps (lambda_max(T) +
   max|V + 3 u_tilde xi^2 - mu|) |xi|, the size of the round-off in J xi
   and so of the residual floor, unless 1e-14 |rhs| is larger.  Without
   that bound, a target relative to the small right-hand side near
   convergence falls below what J resolves, and tight traps fail in CG.
   Newton stops as soon as a step fails to halve the residual: that
   residual is the round-off floor of the grid.  A floor above ``tol`` is
   a ``ConvergenceError`` that names it.
   The default ``tol`` tracks that floor (see ``default_tol``).  The same
   solve at the converged state gives the exact N-derivative of the orbital
   (see ``number_shift.exact_dxi_dN``), with right-hand side
   [-(u_tilde/N) xi^3; 0]; that solve keeps the relative target 1e-14 |rhs|
   alone, since its right-hand side is not small.
3. Certificate: in 1-D the ground state is the only stationary state with
   no sign change (counted above ``_NODE_FLOOR`` max|xi|), so a result
   whose sign changes is an excited state, and the solve raises a
   ``ConvergenceError`` that names it.

H psi = (T + V + u_tilde |psi|^2) psi, the chemical potential

    mu = integral( psi* T psi + V |psi|^2 + u_tilde |psi|^4 ) dx

and the mean-field energy per particle h1, the same with the quartic
term weighted 1/2, are defined once, by ``_gp_operator``, from one
application of T; every solver stage, functional and ``tdgpe`` snapshot
evaluates them there.  The three sums are kept apart, so mu - h1 =
(u_tilde/2) integral |psi|^4 dx holds identically.  Outside the CG of
stage 2, every function of T in a solve is one ``grid.spectral_map`` call
on a real array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .grid import (ComplexField, Grid1D, _check_same_grid, _kinetic_values, from_spectral,
                   spectral_map, to_spectral)

if TYPE_CHECKING:  # pragma: no cover
    from .bdg import PhononBasis


@dataclass(frozen=True)
class SolveTrace:
    """What ``solve_stationary`` did to reach its state.

    ``residuals`` holds the residual after the descent, then the
    residual of each Newton trial, kept or not; ``cg_iterations`` has
    one entry per Newton step.  ``stop_reason`` is ``"tol reached in
    descent"`` (no Newton step was needed), or what ended Newton:
    ``"round-off floor"``, ``"Newton step cap"``, ``"failed linear
    solve"`` or ``"diverging step"`` (the last two only after an earlier
    step already reached tol).  ``sign_changes`` is the certificate's
    count for the returned orbital, always 0: any other count raises.
    """

    descent_steps: int
    cg_iterations: tuple[int, ...]
    residuals: tuple[float, ...]
    stop_reason: str
    sign_changes: int

    @property
    def newton_steps(self) -> int:
        return len(self.cg_iterations)


@dataclass(frozen=True, eq=False)
class CondensateState:
    """Converged condensate orbital with its defining parameters; the potential is float64."""

    xi: ComplexField
    n_particles: float
    u_tilde: float
    potential: ComplexField
    mu: float
    residual: float
    # h1 of the start, after each descent step, and of the result (diagnostic).
    h1_history: np.ndarray = field(repr=False, default=None)
    trace: SolveTrace | None = field(repr=False, default=None)

    def __post_init__(self):
        if np.iscomplexobj(self.potential.values):
            raise ConfigurationError("a state's potential must be float64, not complex-typed")

    @property
    def grid(self) -> Grid1D:
        return self.xi.grid


# The descent hands over to the Newton polish below this residual.  It has
# taken at most 23 steps (harmonic traps, L = 16, n = 128-8192, omega =
# 0.3-5, u_tilde = 0-2000); the caps below are for safety.
_HANDOVER = 1e-4
_DESCENT_MAX_STEPS = 500
_LINE_SEARCH_HALVINGS = 40
# Safety cap on Newton steps; each kept step at least halves the residual.
_NEWTON_MAX_STEPS = 40
# CG stops once its residual is below _CG_RTOL times the norm of the
# right-hand side; a Newton step's CG stops earlier, at _CG_FLOOR_FRACTION
# times the round-off scale eps |J| |psi| (``_solve_linearized``).  Over
# box and periodic grids with n = 128-8192, u_tilde = 0, 2 and 50 (L = 16),
# a Newton step took 1-21 CG iterations at omega = 1 and 1-38 at omega = 3
# (20-35 and 37-65 with the relative target alone), and the largest
# converged residual stayed at 0.57 and 0.40 of ``default_tol``.  A
# fraction of 0.01 cost 15-20% more iterations and still failed in CG on a
# box harmonic(300) trap at n = 4096; 1.0 left the residual of harmonic(60)
# to harmonic(300) traps above ``default_tol``.
_CG_RTOL = 1e-14
_CG_FLOOR_FRACTION = 0.1
_CG_MAX_ITERS = 300
# The residual floor of a converged solve is 0.37-0.90 eps lambda_max(T)
# (box and periodic grids, n = 1024-8192, u_tilde = 2 and 50, omega = 1
# and 3); see ``default_tol``.
_FLOOR_FACTOR = 2.0
# The certificate counts sign changes between samples above this fraction
# of max|xi|.  An under-resolved ground state has tails that ripple in sign
# up to 7e-4 max|xi| (omega <= 5, u_tilde <= 2000, n >= 16); the excited
# states met had lobes above 0.1 max|xi|.
_NODE_FLOOR = 1e-2


def default_tol(grid: Grid1D) -> float:
    """Residual target used when ``tol`` is not given: max(1e-11, 2 eps lambda_max(T)).

    The round-off floor of the stationary residual grows with the largest
    kinetic eigenvalue lambda_max of the grid (4x per doubling of n), so a
    fixed target fails on fine grids.  The factor 2 clears the largest
    measured floor, about 0.90 eps lambda_max; up to n = 1024 on a box of
    length 16 the target is 1e-11.
    """
    lam_max = float(np.max(grid.kinetic_eigs))
    return max(1e-11, _FLOOR_FACTOR * np.finfo(float).eps * lam_max)


def zero_potential(grid: Grid1D) -> ComplexField:
    return ComplexField(np.zeros(grid.n_points), grid)


def _harmonic_values(grid: Grid1D, omega: float) -> np.ndarray:
    """omega^2 (x - L/2)^2 / 2 on the grid; ConfigurationError unless finite and nonzero there."""
    x = grid.points - grid.center
    with np.errstate(over="ignore", invalid="ignore"):
        values = 0.5 * np.float64(omega) ** 2 * x**2
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(
            f"harmonic potential with omega = {omega!r} is not finite on the grid"
        )
    if not np.any(values):
        raise ConfigurationError(
            f"omega = {omega!r} gives a zero potential on the grid; use potential = none"
        )
    return values


def harmonic_potential(grid: Grid1D, omega: float = 1.0) -> ComplexField:
    """V(x) = omega^2 (x - L/2)^2 / 2, centered in the domain."""
    return ComplexField(_harmonic_values(grid, omega), grid)


def _check_potential(grid: Grid1D, potential: ComplexField) -> np.ndarray:
    """The potential as one contiguous float64 array; the one place a field turns real."""
    _check_same_grid(potential.grid, grid)
    if not np.all(np.isfinite(potential.values)):
        raise ConfigurationError("potential must be finite")
    if np.any(potential.values.imag):
        raise ConfigurationError("potential must be real-valued")
    return np.ascontiguousarray(potential.values.real)


def _gp_operator(grid, v_real, u_tilde, psi, t_psi=None):
    """(H psi, mu, h1) of ``psi`` (module docstring), from one application of T.

    ``t_psi``, when given, stands for T psi; the descent passes the T psi it
    carries along its great circles, so it applies no transform here.
    """
    if t_psi is None:
        t_psi = _kinetic_values(grid, psi)
    dens = np.abs(psi) ** 2
    kin = np.vdot(psi, t_psi).real * grid.dx
    pot = float(np.sum(v_real * dens) * grid.dx)
    quart = float(np.sum(dens**2) * grid.dx)
    h_psi = t_psi + (v_real + u_tilde * dens) * psi
    return h_psi, kin + pot + u_tilde * quart, kin + pot + 0.5 * u_tilde * quart


def _solve_linearized(grid, v_real, u_tilde, psi, mu, rhs, *, newton_step=False):
    """Solve the bordered system of the module docstring for (d, m).

    [[J, -psi], [psi^T dx, 0]] [d; m] = [rhs; 0] for the real orbital
    ``psi``, by conjugate gradients on P J P d = P rhs with d orthogonal
    to psi, preconditioned with (T + s)^-1, s = median|V + 3 u_tilde
    psi^2 - mu|, on the coefficients of ``grid.to_spectral``, which is
    orthonormal, so norms and inner products carry over.  CG stops once
    its residual is at most _CG_RTOL |rhs|, so a right-hand side along psi
    gives d = 0 without iterating.  With ``newton_step`` (the Newton loop
    of ``solve_stationary``) it stops at the larger of that and
    _CG_FLOOR_FRACTION eps (lambda_max(T) + max|V + 3 u_tilde psi^2 - mu|)
    |psi|, a tenth of the round-off in J psi.  Returns (d, m, CG
    iterations), d a contiguous float64 array.

    Raises ``ConvergenceError`` if CG meets non-positive curvature (P J P
    not positive definite at psi) or does not converge in _CG_MAX_ITERS.
    """
    lam = grid.kinetic_eigs
    diag = v_real + 3.0 * u_tilde * psi**2 - mu
    inverse = 1.0 / (lam + np.median(np.abs(diag)))
    psi_norm = np.linalg.norm(psi)
    e = psi / psi_norm
    e_t = to_spectral(grid, e)

    def dot(a, b):  # real part: box coefficients are real, periodic ones complex
        return np.vdot(a, b).real

    def jacobian(v):  # the potential term acts on real grid values
        return lam * v + to_spectral(grid, diag * from_spectral(grid, v).real)

    def project(v):
        return v - dot(e_t, v) * e_t

    d_t = np.zeros_like(e_t)
    r = project(to_spectral(grid, rhs))
    target = _CG_RTOL * np.linalg.norm(rhs)
    if newton_step:
        scale = np.max(lam) + np.max(np.abs(diag))
        target = max(target, _CG_FLOOR_FRACTION * np.finfo(float).eps * scale * psi_norm)
    iterations = 0
    if np.linalg.norm(r) > target:
        z = project(inverse * r)
        p, rz = z, dot(r, z)
        for iterations in range(1, _CG_MAX_ITERS + 1):
            q = project(jacobian(p))
            curvature = dot(p, q)
            if not curvature > 0:
                raise ConvergenceError(
                    f"CG met non-positive curvature p.Jp = {curvature:.3e} at "
                    f"iteration {iterations}: the Jacobian is not positive "
                    "definite off the orbital"
                )
            alpha = rz / curvature
            d_t += alpha * p
            r -= alpha * q
            if np.linalg.norm(r) <= target:
                break
            z = project(inverse * r)
            rz, rz_old = dot(r, z), rz
            p = z + (rz / rz_old) * p
        else:
            raise ConvergenceError(
                f"CG did not converge in {_CG_MAX_ITERS} iterations "
                f"(residual {np.linalg.norm(r):.3e}, target {target:.3e})"
            )
    # .real drops the round-off imaginary part of a periodic grid's inverse
    # FFT.  m = e.(J d - rhs)/|psi| takes T d in the spectral basis.
    d = np.ascontiguousarray(from_spectral(grid, d_t).real)
    m = float((dot(e_t, lam * d_t) + e @ (diag * d - rhs)) / psi_norm)
    return d, m, iterations


def _starting_orbital(grid: Grid1D, v_real: np.ndarray, u_tilde: float) -> np.ndarray:
    """The lower-energy normalized start of the descent (module docstring)."""
    starts = [np.exp(-(v_real - v_real.min()))]
    if u_tilde > 0:
        # Filling the k lowest samples of V to the level mu with sum(mu - V) dx
        # = u_tilde; mu_TF is the first such level not above the next sample.
        v = np.sort(v_real)
        levels = (u_tilde / grid.dx + np.cumsum(v)) / np.arange(1, v.size + 1)
        mu_tf = levels[np.argmax(np.append(levels[:-1] <= v[1:], True))]
        starts.append(np.sqrt(np.maximum(mu_tf - v_real, 0.0) / u_tilde))
    starts = [psi / np.sqrt(np.sum(psi**2) * grid.dx) for psi in starts]
    return min(starts, key=lambda psi: _gp_operator(grid, v_real, u_tilde, psi)[2])


def _descend(grid, v_real, u_tilde, psi, stop):
    """Stage 1 of the module docstring, from the normalized real ``psi``.

    Stops at residual ``stop``, at a line search that cannot lower h1, or
    after _DESCENT_MAX_STEPS.  Returns (psi, h1 at the start and after
    each step).  T is linear, so T psi follows each step without a
    transform.
    """
    dx, v_min = grid.dx, v_real.min()
    t_psi, energies, direction = _kinetic_values(grid, psi), [], None
    while True:
        h_psi, mu, h1 = _gp_operator(grid, v_real, u_tilde, psi, t_psi)
        r = h_psi - mu * psi
        quadratic = 2.0 * h1 - mu  # kinetic + potential
        energies.append(h1)
        if dx * (r @ r) <= stop**2 or len(energies) > _DESCENT_MAX_STEPS:
            return psi, energies

        s = max(mu - v_min, 1.0)
        half = (grid.kinetic_eigs + s) ** -0.5
        interaction = u_tilde * psi**2
        scaled = s / (v_real - v_min + interaction + s) * spectral_map(grid, half, r)
        pr = spectral_map(grid, half, scaled)
        if direction is not None:  # Polak-Ribiere, restarted when not downhill
            direction = max((r - r_old) @ pr / pr_old, 0.0) * direction - pr
        if direction is None or not direction @ r < 0:
            direction = -pr
        direction -= dx * (psi @ direction) * psi
        r_old, pr_old = r, r @ pr

        # On the great circle cos(t) psi + sin(t) p, h1 is a trigonometric
        # quadratic from three inner products plus the quartic term.  The
        # first angle minimizes its second-order model at t = 0.
        p = direction / np.sqrt(dx * (direction @ direction))
        t_p = _kinetic_values(grid, p)
        cross = dx * (p @ t_psi + v_real @ (p * psi))
        square = dx * (p @ t_p + v_real @ p**2)
        curvature = 2.0 * (square + 3.0 * dx * (interaction @ p**2) - mu)
        angle = min(-2.0 * dx * (p @ r) / curvature if curvature > 0 else np.inf, 0.5 * np.pi)
        for _ in range(_LINE_SEARCH_HALVINGS):
            cs, sn = np.cos(angle), np.sin(angle)
            trial_quadratic = cs * cs * quadratic + 2.0 * cs * sn * cross + sn * sn * square
            trial_quartic = 0.5 * u_tilde * dx * np.sum((cs * psi + sn * p) ** 4)
            if trial_quadratic + trial_quartic < energies[-1]:
                break
            angle *= 0.5
        else:
            return psi, energies
        psi, t_psi = cs * psi + sn * p, cs * t_psi + sn * t_p


def solve_stationary(
    grid: Grid1D,
    potential: ComplexField,
    u_tilde: float,
    n_particles: float = 1.0,
    tol: float | None = None,
) -> CondensateState:
    """Ground state of the stationary equation (module docstring).

    Parameters
    ----------
    u_tilde : float
        Scaled repulsive interaction (N times the physical coupling);
        attractive values are rejected.
    tol : float, optional
        Target L2 residual of the stationary equation.  ``None`` means
        ``default_tol(grid)``, which tracks the grid's round-off floor; an
        explicit value is absolute.

    Raises
    ------
    ConfigurationError
        For a u_tilde that is negative or not finite, a potential that is
        not finite or has a non-zero imaginary part, or n_particles that is
        not finite and positive.
    ConvergenceError
        If the residual target is not reached; carries the residual of the
        last kept iterate, and the message says why Newton stopped (its
        round-off floor, a failed linear solve, chained as the cause, or a
        diverging step).  Also if the result is an excited state: the
        message names its mu and the sign changes of xi.
    """
    if not np.isfinite(u_tilde):
        raise ConfigurationError("u_tilde must be finite")
    if u_tilde < 0:
        raise ConfigurationError("attractive interactions (u_tilde < 0) are not supported")
    if not 0 < n_particles < np.inf:
        raise ConfigurationError("n_particles must be finite and positive")
    if tol is None:
        tol = default_tol(grid)
    elif not tol > 0:
        raise ConfigurationError("tol must be positive")
    v_real = _check_potential(grid, potential)

    def evaluate(psi):  # mu, h1, residual vector and its norm
        h_psi, mu, h1 = _gp_operator(grid, v_real, u_tilde, psi)
        r = h_psi - mu * psi
        return mu, h1, r, float(np.sqrt(np.vdot(r, r).real * grid.dx))

    psi, history = _descend(
        grid, v_real, u_tilde, _starting_orbital(grid, v_real, u_tilde), max(_HANDOVER, tol)
    )
    descent_steps = len(history) - 1
    mu, h1, r_vec, residual = evaluate(psi)
    residuals = [residual]
    cg_iterations = []

    # Projected Newton polish on the real-valued problem.  A step is kept
    # only if it lowers the residual; Newton stops at the first step that
    # does not halve it, so ``residual`` always belongs to ``psi``.  Each
    # trial is evaluated once, and a kept trial's residual vector is the
    # next step's right-hand side.
    reason, stop, cause = "tol reached in descent", "", None
    if residual > tol:
        reason = "Newton step cap"
        stop = f"took {_NEWTON_MAX_STEPS} steps without reaching its floor"
        for _ in range(_NEWTON_MAX_STEPS):
            try:
                step, _, cg_iters = _solve_linearized(
                    grid, v_real, u_tilde, psi, mu, -r_vec, newton_step=True
                )
            except ConvergenceError as exc:
                reason, cause = "failed linear solve", exc
                stop = f"failed to solve for its step: {exc}"
                break
            cg_iterations.append(cg_iters)
            trial = psi + step
            trial /= np.sqrt(np.sum(trial**2) * grid.dx)
            trial_mu, trial_h1, trial_r, new_residual = evaluate(trial)
            residuals.append(new_residual)
            if not new_residual <= 10 * residual:  # also catches NaN
                reason = "diverging step"
                stop = f"took a diverging step (residual {new_residual:.3e})"
                break
            if new_residual < residual:
                psi, mu, h1, r_vec = trial, trial_mu, trial_h1, trial_r
            if new_residual > 0.5 * residual:
                residual = min(residual, new_residual)
                reason = "round-off floor"
                stop = f"reached the round-off floor {residual:.3e} of the grid"
                break
            residual = new_residual

    if not residual <= tol:  # also catches NaN
        raise ConvergenceError(
            f"stationary solve stalled at residual {residual:.3e} (target {tol:.1e}) "
            f"after {descent_steps} descent steps: Newton {stop}",
            residual=residual,
        ) from cause

    # Ground-state gauge: real and non-negative overall sign.  The flip is
    # exact in floating point, so mu and h1 carry over.
    if psi.sum() < 0:
        psi = -psi
    history.append(h1)
    big = psi[np.abs(psi) > _NODE_FLOOR * np.max(np.abs(psi))]
    sign_changes = int(np.count_nonzero(np.signbit(big[1:]) != np.signbit(big[:-1])))
    if sign_changes:
        raise ConvergenceError(
            "stationary solve converged to an excited state, not the ground state: "
            f"mu = {mu:.10g}, sign changes of xi = {sign_changes}",
            residual=residual,
        )

    return CondensateState(
        xi=ComplexField(psi, grid),
        n_particles=float(n_particles),
        u_tilde=float(u_tilde),
        potential=ComplexField(v_real, grid),
        mu=mu,
        residual=residual,
        h1_history=np.asarray(history),
        trace=SolveTrace(
            descent_steps=descent_steps,
            cg_iterations=tuple(cg_iterations),
            residuals=tuple(residuals),
            stop_reason=reason,
            sign_changes=sign_changes,
        ),
    )


def _state_operator(state: CondensateState, values: np.ndarray) -> tuple:
    return _gp_operator(state.grid, state.potential.values, state.u_tilde, values)


def chemical_potential(state: CondensateState) -> float:
    """Energy-functional chemical potential evaluated by quadrature."""
    return _state_operator(state, state.xi.values)[1]


def energy_functional_h1(state: CondensateState) -> float:
    """Mean-field energy per particle (interaction weighted 1/2)."""
    return _state_operator(state, state.xi.values)[2]


def gpe_residual(state: CondensateState) -> float:
    """L2 norm of (-1/2 d^2/dx^2 + V + u|xi|^2 - mu) xi."""
    values = state.xi.values
    r = _state_operator(state, values)[0] - state.mu * values
    return float(np.sqrt(np.vdot(r, r).real * state.grid.dx))


def h2_coefficients(state: CondensateState, basis: "PhononBasis") -> np.ndarray:
    """Coefficients of the phonon-linear part of the energy.

    Entry k is <xi_k | (-1/2 d^2/dx^2 + V + u|xi|^2) xi>; at a converged
    stationary state the whole vector vanishes to solver accuracy because
    the basis is orthogonal to xi.
    """
    _check_same_grid(basis.grid, state.grid)
    return basis.mode_matrix.conj() @ _state_operator(state, state.xi.values)[0] * state.grid.dx
