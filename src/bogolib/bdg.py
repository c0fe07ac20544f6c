"""Quadratic phonon Hamiltonian in the subspace orthogonal to the condensate.

The phonon basis (``build_phonon_basis``) is orthonormal, orthogonal to xi
and spans span(xi, Phi_K) with Phi_K the K lowest eigenfunctions of T + V,
from one Householder reflector (Golub & Van Loan, Matrix Computations, 4th
ed., sec. 5.1).  When xi's part tau outside Phi_K has |tau| <= 1e-8 ~ sqrt(eps),
tau's direction keeps fewer than half the working digits and Phi_{K+1}
replaces it; every mode lies in span(xi, Phi_{K+1}).

The quadratic energy in a K-mode basis {xi_k} orthogonal to the condensate
xi is parametrized by a Hermitian matrix M = L + F and a symmetric matrix G:

    L_kq = <xi_k | -1/2 d^2/dx^2 + V | xi_q>
    F_kq = <xi_k | 2 u_tilde |xi|^2 - mu | xi_q>
    G_kq = u_tilde * integral( xi^2 conj(xi_k) conj(xi_q) ) dx
    E3   = -(u_tilde/2) * integral |xi|^4 dx

Quasiparticles follow from the positive-norm eigenpairs of the 2K x 2K
block matrix sigma D = [[M, G], [-conj(G), -conj(M)]], with
D = [[M, G], [conj(G), conj(M)]] and sigma = diag(I, -I); an eigenvector
(u; v) with u^H u - v^H v = 1 gives transformation columns c = u and
s = conj(v), and mode wavefunctions p_m = sum_k c_km xi_k,
q_m = sum_k s_km xi_k.  The scalar left over after normal ordering is

    omega_g = E3 + (sum_m eps_m - tr M) / 2.

D must be positive definite, and M and G real.  A float64 xi (the
stationary solution) gives a real basis and real symmetric M and G; D is
then positive definite iff A = M + G and B = M - G both are, and the K x K
form of Shao, Gao & Yang (Linear Algebra Appl. 488, 148 (2016)) applies:
with A = L_A L_A^T, B = L_B L_B^T and L_B^T L_A = U Sigma V^T, the
energies are Sigma, u + v = L_A^-T V Sigma^1/2 and u - v = L_A V Sigma^-1/2,
and u^T u - v^T v = I holds by construction.  ``diagonalize`` and
``h3_expectation`` refuse complex-typed M or G (a phased xi, the
transported modes of ``tdgpe.h3_of_t``) with ``ConfigurationError``.  A D
that is not positive definite (a complex frequency, a negative energy or a
zero mode) has no quasiparticle spectrum: they then raise
``InstabilityError``, whose ``eigenvalues`` are the 2K eigenvalues of
sigma D.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, DimensionMismatchError, InstabilityError
from .gpe import CondensateState
from .grid import (
    ComplexField,
    Grid1D,
    _check_same_grid,
    _kinetic_values,
    build_grid,
    kinetic_matrix,
)

REALITY_TOLERANCE = 1e-9
# Below this norm the part of xi outside the K lowest modes of T + V keeps
# fewer than half the working digits (sqrt(eps) ~ 1.5e-8), so its direction
# is round-off; the (K+1)-th mode takes its place in the phonon basis.
_TAIL_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class PhononBasis:
    """Orthonormal mode functions spanning the subspace orthogonal to xi.

    ``mode_matrix`` is a (K, n_points) array, row k the values of xi_k on
    the condensate's grid; it is the only copy of the modes.  Real input is
    kept as float64 (the basis of a float64 xi), complex input as complex128.
    """

    mode_matrix: np.ndarray
    condensate: ComplexField

    def __post_init__(self):
        phi = np.asarray(self.mode_matrix)
        phi = phi.astype(np.complex128 if np.iscomplexobj(phi) else np.float64, copy=False)
        if phi.ndim != 2 or phi.shape[1] != self.grid.n_points:
            raise DimensionMismatchError(
                f"mode matrix has {phi.shape}, grid expects (K, {self.grid.n_points})"
            )
        object.__setattr__(self, "mode_matrix", phi)

    @property
    def K(self) -> int:
        return self.mode_matrix.shape[0]

    @property
    def grid(self) -> Grid1D:
        return self.condensate.grid


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Matrices and scalar defining the phonon-quadratic energy.

    M and G are (K, K), K >= 1, with finite entries; M is Hermitian and G
    symmetric to 1e-10 of their largest entry.  Both are real (float64) when
    assembled from a float64 xi and a real basis, and complex otherwise (a
    phased xi, the transported modes of ``tdgpe.h3_of_t``).  Only real ones
    have a quasiparticle spectrum here: ``diagonalize`` and
    ``h3_expectation`` refuse complex ones (module docstring).
    """

    e3: float
    m_matrix: np.ndarray
    g_matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m_matrix)
        g = np.asarray(self.g_matrix)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[0] != m.shape[1] or g.shape != m.shape:
            raise DimensionMismatchError(
                f"M and G must both be (K, K) with K >= 1, got {m.shape} and {g.shape}"
            )
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(g))):
            raise ConfigurationError("M and G must have finite entries")
        # The Cholesky factorization of D reads only its lower triangle, so
        # an asymmetric input would be diagonalized as a different matrix.
        scale = max(np.max(np.abs(m)), np.max(np.abs(g)))
        asymmetry = max(np.max(np.abs(m - m.conj().T)), np.max(np.abs(g - g.T)))
        if asymmetry > 1e-10 * scale:
            raise ConfigurationError(
                f"M must be Hermitian and G symmetric: deviation {asymmetry:.3g} "
                f"against largest entry {scale:.3g}"
            )
        object.__setattr__(self, "m_matrix", m)
        object.__setattr__(self, "g_matrix", g)

    @property
    def n_modes(self) -> int:
        return self.m_matrix.shape[0]


@dataclass(frozen=True, eq=False)
class QuasiparticleSpectrum:
    """Quasiparticle energies, transformation matrices, and wavefunctions.

    ``p_waves`` and ``q_waves`` are (K, n_points) arrays, row m the values
    of p_m and q_m.  ``diagonalize`` returns one only for a positive-definite
    D, so its energies are all positive.
    """

    energies: np.ndarray
    c_matrix: np.ndarray
    s_matrix: np.ndarray
    p_waves: np.ndarray
    q_waves: np.ndarray
    omega_g: float


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    offending_modes: tuple[int, ...]
    messages: tuple[str, ...]


@lru_cache(maxsize=4)
def _single_particle_modes(
    n_points: int, length: float, boundary: str, K: int, potential: bytes
) -> np.ndarray:
    """Read-only (K+1, n_points) array of the lowest eigenfunctions of T + V.

    Rows are normalized to integral |v|^2 dx = 1.  T + V depends only on
    the grid, the potential and K, not on xi, N or u_tilde, so the dense
    ``eigh`` runs once per trap.  The memo is keyed by content (the grid
    parameters and the potential's bytes), never by object identity:
    grids and fields hash by id, and an id can be reused after garbage
    collection.
    """
    grid = build_grid(n_points, length, boundary)
    h0 = kinetic_matrix(grid) + np.diag(np.frombuffer(potential))
    _, vecs = scipy.linalg.eigh(h0, subset_by_index=[0, K])
    modes = vecs.T / np.sqrt(grid.dx)
    modes.flags.writeable = False
    return modes


def _check_mode_count(grid: Grid1D, K) -> None:
    """ConfigurationError unless K is an integer in [1, n_points - 2]."""
    if not isinstance(K, numbers.Integral) or not 1 <= K < grid.n_points - 1:
        raise ConfigurationError(f"K must be an integer in [1, {grid.n_points - 2}], got {K!r}")


def build_phonon_basis(state: CondensateState, K: int) -> PhononBasis:
    """K orthonormal modes of span(xi, Phi_K) orthogonal to xi (see the module docstring).

    With tau the part of xi outside Phi_K, Q = [Phi_K; tau/|tau|], or
    Phi_{K+1} when |tau| <= ``_TAIL_FLOOR``.  One Householder reflector U
    maps c_j = <Q_j, xi> onto e0; rows 1..K of conj(U) Q, projected once off
    xi, are the modes.  A float64 xi gives a float64 basis, a complex128 xi
    a complex128 one.  The eigenfunctions of T + V are memoized per grid,
    potential and K (a few traps at a time), so later bases in the same trap
    skip the dense ``eigh``; a hit returns the same vectors bit for bit.
    """
    grid = state.grid
    _check_mode_count(grid, K)
    xi = state.xi.values
    real = np.isrealobj(xi)
    q = _single_particle_modes(
        grid.n_points, grid.length, grid.boundary, K, state.potential.values.tobytes()
    ).astype(np.float64 if real else np.complex128)

    dx = grid.dx
    xi_hat = xi / np.sqrt(np.vdot(xi, xi).real * dx)
    # Projected twice: one pass leaves a part of order eps inside span(Phi_K),
    # which 1/|tau| amplifies (a 6e-10 Gram error at |tau| = 1.9e-6).
    tail = xi_hat - (q[:K] @ xi_hat.conj()).conj() * dx @ q[:K]
    tail -= (q[:K] @ tail.conj()).conj() * dx @ q[:K]
    tail_norm = np.sqrt(np.vdot(tail, tail).real * dx)
    if tail_norm > _TAIL_FLOOR:
        q[K] = tail / tail_norm

    c = (q @ xi_hat.conj()).conj() * dx
    v = c.copy()
    v[0] += (c[0] / abs(c[0]) if c[0] else 1.0) * np.linalg.norm(c)
    # U = I - 2 v v^H / |v|^2 sends c to a multiple of e0.  conj(U) Q and the
    # projection off xi are rank-1 updates, each one in-place BLAS ger on q.T.
    ger = scipy.linalg.blas.dger if real else scipy.linalg.blas.zgeru
    ger(-2.0 / np.vdot(v, v).real, v @ q, v.conj(), a=q.T, overwrite_a=1)
    modes = q[1:]
    ger(-dx, xi_hat, (modes @ xi_hat.conj()).conj(), a=modes.T, overwrite_a=1)
    return PhononBasis(modes, state.xi)


def assemble_from_fields(
    xi_values: np.ndarray,
    basis: PhononBasis,
    potential_values: np.ndarray,
    u_tilde: float,
    mu: float,
) -> QuadraticHamiltonian:
    """Assemble (M, G, E3) from raw condensate/potential arrays.

    A float64 xi and a real basis give real M and G.
    """
    grid = basis.grid
    phi = basis.mode_matrix
    if xi_values.shape != (grid.n_points,):
        raise DimensionMismatchError("condensate values do not match basis grid")

    density = np.abs(xi_values) ** 2
    w = potential_values + 2.0 * u_tilde * density - mu
    op_phi = _kinetic_values(grid, phi) + w * phi
    m_matrix = (phi.conj() @ op_phi.T) * grid.dx

    g_matrix = u_tilde * ((phi.conj() * (xi_values**2 * grid.dx)) @ phi.conj().T)
    e3 = -0.5 * u_tilde * float(np.sum(density**2) * grid.dx)
    return QuadraticHamiltonian(e3=e3, m_matrix=m_matrix, g_matrix=g_matrix)


def assemble(state: CondensateState, basis: PhononBasis) -> QuadraticHamiltonian:
    """Quadratic Hamiltonian of a converged stationary state."""
    _check_same_grid(basis.grid, state.grid)
    return assemble_from_fields(
        state.xi.values, basis, state.potential.values, state.u_tilde, state.mu
    )


def _instability(m_matrix: np.ndarray, g_matrix: np.ndarray) -> InstabilityError:
    """The error for a D that is not positive definite, with sigma D's eigenvalues.

    D is formed in complex128, the dtype of sigma D's eigenvalues.
    lambda_min(D) < 0 with all eigenvalues of sigma D real means a negative
    energy; a non-zero imaginary part means a complex frequency.
    """
    d = np.block([[m_matrix, g_matrix], [g_matrix, m_matrix]]).astype(np.complex128)
    lowest = scipy.linalg.eigvalsh(d, subset_by_index=[0, 0])[0]
    d[m_matrix.shape[0] :] *= -1.0
    eigenvalues = np.sort(scipy.linalg.eigvals(d))
    return InstabilityError(
        f"D = [[M, G], [G*, M*]] is not positive definite (lambda_min(D) = {lowest:.6g}, "
        f"largest |Im| of sigma D's eigenvalues = {np.max(np.abs(eigenvalues.imag)):.3g}); "
        "there is no quasiparticle spectrum",
        eigenvalues=eigenvalues,
    )


def _quasiparticles(m_matrix: np.ndarray, g_matrix: np.ndarray, vectors: bool = True):
    """Energies in ascending order, or (energies, u, v), of a positive-definite D.

    The K x K real form (module docstring): the energies are the singular
    values of L_B^T L_A, never the eigenvalues of the squared form
    (M - G)(M + G), which lose half the digits of the lowest.  Each
    column's sign makes its largest-|u| entry positive.  Raises
    ``ConfigurationError`` for complex-typed M or G, and
    ``InstabilityError`` when D is not positive definite.
    """
    if np.iscomplexobj(m_matrix) or np.iscomplexobj(g_matrix):
        raise ConfigurationError(
            f"the quasiparticle spectrum needs real M and G, got {m_matrix.dtype} "
            f"and {g_matrix.dtype}"
        )
    try:
        chol_a = scipy.linalg.cholesky(m_matrix + g_matrix, lower=True)
        chol_b = scipy.linalg.cholesky(m_matrix - g_matrix, lower=True)
    except scipy.linalg.LinAlgError:
        raise _instability(m_matrix, g_matrix) from None
    core = chol_b.T @ chol_a
    if vectors:
        _, sigma, right_t = scipy.linalg.svd(core)
    else:
        sigma = scipy.linalg.svdvals(core)
    energies = sigma[::-1]
    if energies[0] <= 0.0:
        # Two successful Cholesky factors make the core nonsingular, unless
        # D is numerically singular.
        raise _instability(m_matrix, g_matrix)
    if not vectors:
        return energies
    right = right_t[::-1].T
    root = np.sqrt(energies)
    x = scipy.linalg.solve_triangular(chol_a, right * root, lower=True, trans="T")
    y = chol_a @ (right / root)
    u, v = 0.5 * (x + y), 0.5 * (x - y)
    sign = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    return energies, u * sign, v * sign


def diagonalize(qh: QuadraticHamiltonian, basis: PhononBasis) -> QuasiparticleSpectrum:
    """Positive-norm quasiparticle branch of the quadratic Hamiltonian.

    The K x K real form: two Cholesky factorizations and one SVD, giving
    exactly symplectic real columns c = u and s = v (module docstring).
    Raises ``ConfigurationError`` for complex-typed M or G, and
    ``InstabilityError``, carrying sigma D's eigenvalues, when D is not
    positive definite.
    """
    if basis.K != qh.n_modes:
        raise DimensionMismatchError("basis size does not match Hamiltonian")
    energies, c_matrix, s_matrix = _quasiparticles(qh.m_matrix, qh.g_matrix)
    omega_g = qh.e3 + 0.5 * float(np.sum(energies) - np.trace(qh.m_matrix))
    return QuasiparticleSpectrum(
        energies=energies,
        c_matrix=c_matrix,
        s_matrix=s_matrix,
        p_waves=c_matrix.T @ basis.mode_matrix,
        q_waves=s_matrix.T @ basis.mode_matrix,
        omega_g=omega_g,
    )


def check_stability(spectrum: QuasiparticleSpectrum) -> StabilityReport:
    """Energy-sign check: reports every mode with eps_m < -``REALITY_TOLERANCE``.

    ``diagonalize`` raises ``InstabilityError`` instead of returning an
    unstable spectrum, so its results always pass; this check is for
    spectra built by other means.
    """
    offending = tuple(m for m, eps in enumerate(spectrum.energies) if eps < -REALITY_TOLERANCE)
    messages = tuple(f"mode {m}: negative energy {spectrum.energies[m]:.6g}" for m in offending)
    return StabilityReport(stable=not offending, offending_modes=offending, messages=messages)


def h3_expectation(qh: QuadraticHamiltonian, occupations) -> float:
    """Energy omega_g + sum_m n_m eps_m for given quasiparticle occupations.

    The energies alone are computed, as the singular values of the real
    form.  Raises ``ConfigurationError`` for complex-typed M or G, and
    ``InstabilityError`` when D is not positive definite, since the
    quasiparticle occupations are then not defined.
    """
    occ = np.asarray(occupations, dtype=float)
    if occ.shape != (qh.n_modes,):
        raise DimensionMismatchError(
            f"expected {qh.n_modes} occupations, got shape {occ.shape}"
        )
    if not np.all((occ >= 0) & (occ < np.inf)):  # also catches NaN
        raise ConfigurationError("occupations must be finite and non-negative")
    energies = _quasiparticles(qh.m_matrix, qh.g_matrix, vectors=False)
    omega_g = qh.e3 + 0.5 * float(np.sum(energies) - np.trace(qh.m_matrix))
    return omega_g + float(occ @ energies)
