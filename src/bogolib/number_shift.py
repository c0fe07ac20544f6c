"""Connection between ground states whose particle numbers differ by one.

The condensate orbital depends on the total number N through the scaled
interaction N*u.  Differentiating the solved orbital with respect to N
gives a field whose expansion over {xi, xi_k} yields a gauge coefficient
r0 (removable by a phase choice along the N-family) and coefficients r_k
of order one.  ``exact_dxi_dN`` differentiates the stationary equation
itself: one matrix-free solve of the Newton system of ``gpe`` at the
converged state,

    [[T + V + 3 u_tilde xi^2 - mu, -xi], [xi^T dx, 0]] [dxi/dN; dmu/dN] = [-u xi^3; 0],

whose solution is real and orthogonal to xi, so r0 vanishes by
construction.  ``build_report`` starts its conjugate gradients from the
Galerkin solution on the phonon space, where the operator block above is
A = M + G (``bdg``): the real form of the spectrum holds
A^-1 = (c + s) E^-1 (c + s)^T, E = diag(eps), so the start costs four
matrix-vector products ("init-CG" of Saad, Yeung, Erhel & Guyomarc'h,
SIAM J. Sci. Comput. 21, 1909 (2000)).  The r_k feed the corrected
transition amplitudes

    f_m = p_m - xi * sum_k r_k c_km
    g_m = q_m - xi * sum_k r_k s_km

which govern processes that add a particle while changing the
quasiparticle number, and the leading condensate matrix element
sqrt(N+1) * xi(x) between neighboring ground states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bdg import PhononBasis, QuasiparticleSpectrum
from .errors import ConfigurationError, DimensionMismatchError, TruncationError
from .gpe import CondensateState, _solve_linearized, solve_stationary
from .grid import ComplexField, Grid1D, _check_same_grid, inner_product


@dataclass(frozen=True)
class StationaryProblem:
    """Stationary solves as a function of N at fixed physical coupling u."""

    grid: Grid1D
    potential: ComplexField
    u: float
    tol: float | None = None  # None: gpe.default_tol of the grid

    def solve(self, n_particles: float) -> CondensateState:
        return solve_stationary(
            self.grid,
            self.potential,
            self.u * n_particles,
            n_particles=n_particles,
            tol=self.tol,
        )


def _rhs(state: CondensateState) -> np.ndarray:
    """-(u_tilde/N) xi^3, the right-hand side of the bordered solve for dxi/dN."""
    return -(state.u_tilde / state.n_particles) * state.xi.values**3


def _derivative_solve(state: CondensateState, start=None) -> tuple[ComplexField, float, int]:
    """(dxi/dN, dmu/dN, CG iterations) of ``exact_dxi_dN``."""
    psi = state.xi.values
    if np.iscomplexobj(psi):
        raise ConfigurationError(
            "the exact N-derivative needs the float64 orbital solve_stationary "
            "returns; this state's xi is complex-typed, whatever its imaginary part"
        )
    grid = state.grid
    dpsi, dmu, iterations = _solve_linearized(
        grid, state.potential.values, state.u_tilde, psi, state.mu, _rhs(state), start=start
    )
    return ComplexField(dpsi, grid), dmu, iterations


def exact_dxi_dN(state: CondensateState) -> tuple[ComplexField, float]:
    """N-derivatives (dxi/dN, dmu/dN) of a solved state, by one bordered solve.

    The physical coupling is fixed, so d u_tilde/dN = u_tilde / N.
    ``state`` must hold the float64 orbital that ``solve_stationary``
    returns; a complex-typed orbital raises ``ConfigurationError``, even
    one whose imaginary part is zero.  The solve is the Newton step's
    conjugate-gradient solve, started from zero, and raises its
    ``ConvergenceError`` when that fails.
    """
    return _derivative_solve(state)[:2]


def _galerkin_start(
    state: CondensateState, basis: PhononBasis, spectrum: QuasiparticleSpectrum
) -> np.ndarray:
    """Galerkin solution in span(xi_k) of the dxi/dN equation, a CG start.

    On the phonon space the Jacobian J of the bordered solve is
    A = M + G = <xi_k | J | xi_q>, whose inverse the real form of the
    spectrum holds: A^-1 = (c + s) E^-1 (c + s)^T with E = diag(eps).  The
    start is sum_k a_k xi_k with a = A^-1 <xi_k, rhs> dx.  A spectrum of
    another state with the same K gives a worse start, not a wrong answer.
    """
    if spectrum.c_matrix.shape[0] != basis.K:
        raise DimensionMismatchError(
            f"spectrum has {spectrum.c_matrix.shape[0]} modes, basis has {basis.K}"
        )
    phi = basis.mode_matrix
    cs = spectrum.c_matrix + spectrum.s_matrix
    b = (phi.conj() @ _rhs(state)) * basis.grid.dx
    return (cs @ ((b @ cs) / spectrum.energies)) @ phi


@dataclass(frozen=True, eq=False)
class PhaseFixResult:
    """Expansion of the N-derivative over the condensate and mode basis."""

    r0_raw: float
    r0: float
    r: np.ndarray
    dxi_fixed: ComplexField
    truncation_residual: float


# Largest norm of dxi outside span(xi, xi_k) that phase_fix_and_r accepts.
_TRUNCATION_TOL = 1e-6


def phase_fix_and_r(
    state: CondensateState, basis: PhononBasis, dxi: ComplexField
) -> PhaseFixResult:
    """Gauge coefficient r0 and mode coefficients r_k of the N-derivative.

    The expansion convention is d(conj xi)/dN = (i r0 conj(xi)
    + sum_k r_k conj(xi_k)) / N, so r_k = N * conj(<xi_k, dxi>) and the
    real gauge parameter is r0 = -N * Im <xi, dxi>.  The returned ``r0``
    is evaluated after removing the condensate component (the phase
    choice along the family), hence vanishes identically; ``r0_raw`` is
    the pre-fix value.  A part of dxi outside span(xi, xi_k) larger than
    ``_TRUNCATION_TOL`` raises ``TruncationError``.
    """
    n = state.n_particles
    _check_same_grid(state.grid, dxi.grid)
    # Not ``inner_product``, whose Python complex would make a real dxi complex.
    c0 = np.vdot(state.xi.values, dxi.values) * state.grid.dx
    ck = basis.mode_matrix.conj() @ dxi.values * basis.grid.dx
    r0_raw = -n * c0.imag
    r = n * np.conj(ck)

    fixed_values = dxi.values - c0 * state.xi.values
    dxi_fixed = ComplexField(fixed_values, dxi.grid)
    r0 = -n * inner_product(state.xi, dxi_fixed).imag

    residual = fixed_values - ck @ basis.mode_matrix
    residual_norm = float(np.sqrt(np.vdot(residual, residual).real * basis.grid.dx))
    if residual_norm > _TRUNCATION_TOL:
        raise TruncationError(
            f"dxi has component {residual_norm:.3e} outside span(xi, xi_k); "
            "increase the basis size K"
        )
    return PhaseFixResult(
        r0_raw=float(r0_raw),
        r0=float(r0),
        r=r,
        dxi_fixed=dxi_fixed,
        truncation_residual=residual_norm,
    )


def modified_amplitudes(
    spectrum: QuasiparticleSpectrum,
    state: CondensateState,
    r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes f_m, g_m for adding one particle and one quasiparticle.

    Returns two (K, n_points) arrays, row m the values of f_m and g_m.
    """
    r = np.asarray(r)
    if r.shape[0] != spectrum.c_matrix.shape[0]:
        raise DimensionMismatchError(
            f"r has {r.shape[0]} entries, transformation expects "
            f"{spectrum.c_matrix.shape[0]}"
        )
    xi = state.xi.values
    f_waves = spectrum.p_waves - np.outer(r @ spectrum.c_matrix, xi)
    g_waves = spectrum.q_waves - np.outer(r @ spectrum.s_matrix, xi)
    return f_waves, g_waves


@dataclass(frozen=True, eq=False)
class NumberShiftReport:
    """Everything needed to connect the N and N+1 ground states.

    ``f_waves`` and ``g_waves`` are (K, n_points) arrays, row m the values
    of f_m and g_m.
    """

    dxi_dN: ComplexField
    r0: float
    r: np.ndarray
    f_waves: np.ndarray
    g_waves: np.ndarray
    dmu_dN: float
    condensate_amplitude: float
    r0_raw: float = 0.0
    truncation_residual: float = 0.0
    cg_iterations: int = 0  # of the dxi/dN solve


def build_report(
    problem: StationaryProblem,
    state: CondensateState,
    basis: PhononBasis,
    spectrum: QuasiparticleSpectrum,
) -> NumberShiftReport:
    """Run the full derivative -> expansion -> amplitude chain.

    ``state`` is ``problem.solve(N)``; the derivative is exact (one
    bordered solve), with no further stationary solve.  Its CG starts from
    the Galerkin solution that ``spectrum`` gives (module docstring) and
    stops at the same 1e-14 |rhs| as from zero; ``cg_iterations`` counts
    its iterations.  A spectrum whose K is not the basis's raises
    ``DimensionMismatchError``.
    """
    if not np.isclose(state.u_tilde, problem.u * state.n_particles, rtol=1e-12, atol=0.0):
        raise ConfigurationError(
            f"state has u_tilde {state.u_tilde!r}, but the problem's coupling "
            f"gives {problem.u * state.n_particles!r} at N = {state.n_particles!r}"
        )
    dxi, dmu, iterations = _derivative_solve(state, _galerkin_start(state, basis, spectrum))
    fix = phase_fix_and_r(state, basis, dxi)
    f_waves, g_waves = modified_amplitudes(spectrum, state, fix.r)
    return NumberShiftReport(
        dxi_dN=dxi,
        r0=fix.r0,
        r=fix.r,
        f_waves=f_waves,
        g_waves=g_waves,
        dmu_dN=dmu,
        condensate_amplitude=float(np.sqrt(state.n_particles + 1.0)),
        r0_raw=fix.r0_raw,
        truncation_residual=fix.truncation_residual,
        cg_iterations=iterations,
    )


@dataclass(frozen=True, eq=False)
class MatrixElements:
    """Field-operator matrix elements between N and N+1 particle states.

    ``ground_to_ground`` is the leading amplitude sqrt(N+1) * xi(x); the
    per-quasiparticle channels are suppressed by ``channel_order``
    = 1/sqrt(N) relative to it (``f_channels`` create a quasiparticle on
    top of the particle addition, ``g_channels`` destroy one).  Both are
    (K, n_points) arrays, row m the channel of quasiparticle m.
    """

    ground_to_ground: ComplexField
    f_channels: np.ndarray
    g_channels: np.ndarray
    condensate_amplitude: float
    channel_order: float


def matrix_elements(state: CondensateState, report: NumberShiftReport) -> MatrixElements:
    n = state.n_particles
    amp = report.condensate_amplitude
    order = 1.0 / np.sqrt(n)
    return MatrixElements(
        ground_to_ground=ComplexField(amp * state.xi.values, state.grid),
        f_channels=amp * order * report.f_waves,
        g_channels=amp * order * report.g_waves,
        condensate_amplitude=amp,
        channel_order=float(order),
    )
