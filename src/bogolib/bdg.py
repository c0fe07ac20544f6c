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

A stable Hamiltonian has D positive definite and is diagonalized by
Colpa's method (J. H. P. Colpa, Physica A 93, 327 (1978)): with the
Cholesky factor D = L L^H, the Hermitian matrix L^H sigma L has K positive
eigenvalues, the quasiparticle energies, and its eigenvectors Y give the
symplectic columns T = L^-H Y sqrt(eps) directly.  The general
non-Hermitian ``eig`` of sigma D runs only when the Cholesky factorization
fails, i.e. for a complex frequency, a negative energy or a zero mode.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
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

POSITIVE_NORM_THRESHOLD = 1e-8
REALITY_TOLERANCE = 1e-9
# Below this norm the part of xi outside the K lowest modes of T + V keeps
# fewer than half the working digits (sqrt(eps) ~ 1.5e-8), so its direction
# is round-off; the (K+1)-th mode takes its place in the phonon basis.
_TAIL_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class PhononBasis:
    """Orthonormal mode functions spanning the subspace orthogonal to xi.

    ``mode_matrix`` is a complex (K, n_points) array, row k the values of
    xi_k on the condensate's grid; it is the only copy of the modes.
    """

    mode_matrix: np.ndarray
    condensate: ComplexField

    def __post_init__(self):
        phi = np.asarray(self.mode_matrix, dtype=np.complex128)
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
    """Matrices and scalar defining the phonon-quadratic energy."""

    e3: float
    m_matrix: np.ndarray
    g_matrix: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.m_matrix.shape[0]


@dataclass(frozen=True, eq=False)
class QuasiparticleSpectrum:
    """Quasiparticle energies, transformation matrices, and wavefunctions.

    ``p_waves`` and ``q_waves`` are (K, n_points) arrays, row m the values
    of p_m and q_m.  ``path`` names the diagonalization that produced them:
    ``"colpa"`` for a positive-definite D, ``"anomalous"`` for the general
    ``eig``.
    """

    energies: np.ndarray
    c_matrix: np.ndarray
    s_matrix: np.ndarray
    p_waves: np.ndarray
    q_waves: np.ndarray
    omega_g: float
    stable: bool
    path: str
    anomalies: tuple[str, ...] = field(default=())


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
    xi, are the modes.  The eigenfunctions of T + V are memoized per grid,
    potential and K (a few traps at a time), so later bases in the same trap
    skip the dense ``eigh``; a hit returns the same vectors bit for bit.
    """
    grid = state.grid
    _check_mode_count(grid, K)
    q = _single_particle_modes(
        grid.n_points, grid.length, grid.boundary, K, state.potential.values.real.tobytes()
    ).astype(np.complex128)

    dx = grid.dx
    xi_hat = state.xi.values / np.sqrt(np.vdot(state.xi.values, state.xi.values).real * dx)
    # Projected twice: one pass leaves a part of order eps inside span(Phi_K),
    # which 1/|tau| amplifies (a 6e-10 Gram error at |tau| = 1.9e-6).
    tail = xi_hat - (q[:K] @ xi_hat.conj()).conj() * dx @ q[:K]
    tail -= (q[:K] @ tail.conj()).conj() * dx @ q[:K]
    tail_norm = np.sqrt(np.vdot(tail, tail).real * dx)
    if tail_norm > _TAIL_FLOOR:
        q[K] = tail / tail_norm

    c = (q @ xi_hat.conj()).conj() * dx
    v = c.copy()
    v[0] += np.exp(1j * np.angle(c[0])) * np.linalg.norm(c)
    # U = I - 2 v v^H / |v|^2 sends c to a multiple of e0.  conj(U) Q and the
    # projection off xi are rank-1 updates, each one in-place BLAS zgeru on q.T.
    scipy.linalg.blas.zgeru(-2.0 / np.vdot(v, v).real, v @ q, v.conj(), a=q.T, overwrite_a=1)
    modes = q[1:]
    scipy.linalg.blas.zgeru(-dx, xi_hat, (modes @ xi_hat.conj()).conj(), a=modes.T, overwrite_a=1)
    return PhononBasis(modes, state.xi)


def plane_wave_basis(state: CondensateState, K: int) -> PhononBasis:
    """Complex plane waves exp(ikx)/sqrt(L) in +-k pairs (periodic grids).

    K must be even so every retained +k mode keeps its -k partner; the
    anomalous coupling closes only on complete pairs.
    """
    grid = state.grid
    if grid.boundary != "periodic":
        raise ConfigurationError("plane-wave basis requires a periodic grid")
    _check_mode_count(grid, K)
    if K % 2:
        raise ConfigurationError("K must be even to keep +-k pairs together")
    ks = np.outer(np.arange(1, K // 2 + 1), [1, -1]).ravel() * (2.0 * np.pi / grid.length)
    return PhononBasis(np.exp(1j * np.outer(ks, grid.points)) / np.sqrt(grid.length), state.xi)


def assemble_from_fields(
    xi_values: np.ndarray,
    basis: PhononBasis,
    potential_values: np.ndarray,
    u_tilde: float,
    mu: float,
) -> QuadraticHamiltonian:
    """Assemble (M, G, E3) from raw condensate/potential arrays."""
    grid = basis.grid
    phi = basis.mode_matrix
    if xi_values.shape != (grid.n_points,):
        raise DimensionMismatchError("condensate values do not match basis grid")

    density = np.abs(xi_values) ** 2
    w = potential_values.real + 2.0 * u_tilde * density - mu
    op_phi = _kinetic_values(grid, phi) + w * phi
    m_matrix = (phi.conj() @ op_phi.T) * grid.dx

    g_matrix = u_tilde * ((phi.conj() * (xi_values**2 * grid.dx)) @ phi.conj().T)
    e3 = -0.5 * u_tilde * float(np.sum(density**2) * grid.dx)
    return QuadraticHamiltonian(e3=e3, m_matrix=m_matrix, g_matrix=g_matrix)


def assemble(state: CondensateState, basis: PhononBasis) -> QuadraticHamiltonian:
    """Quadratic Hamiltonian of a converged stationary state."""
    _check_same_grid(basis.grid, state.grid)
    return assemble_from_fields(
        state.xi.values, basis, state.potential.values.real, state.u_tilde, state.mu
    )


def _colpa(m_matrix: np.ndarray, g_matrix: np.ndarray, vectors: bool = True):
    """Colpa's Hermitian diagonalization of a positive-definite D.

    Factors D = [[M, G], [G*, M*]] = L L^H and diagonalizes the Hermitian
    W = L^H sigma L, sigma = diag(I, -I).  W has exactly K positive
    eigenvalues w, which are the quasiparticle energies; for eigenvectors
    Y of W the columns of T = L^-H Y sqrt(w) are eigenvectors of sigma D
    with T^H sigma T = I, degenerate clusters included.  Each column's
    phase makes its largest-|u| entry real and positive.  Returns the
    energies, or (energies, u, v) with T = (u; v).  Raises ``LinAlgError``
    when D is not positive definite (an instability, a negative energy
    or a zero mode).
    """
    k = m_matrix.shape[0]
    d = np.block([[m_matrix, g_matrix], [g_matrix.conj(), m_matrix.conj()]])
    chol = scipy.linalg.cholesky(d, lower=True)
    sigma_chol = chol.copy()
    sigma_chol[k:] *= -1.0
    w = chol.conj().T @ sigma_chol
    upper = [k, 2 * k - 1]
    if vectors:
        energies, y = scipy.linalg.eigh(w, subset_by_index=upper)
    else:
        energies = scipy.linalg.eigh(w, eigvals_only=True, subset_by_index=upper)
    if energies[0] <= 0.0:
        # Sylvester's law rules this out unless D is numerically singular.
        raise scipy.linalg.LinAlgError("D is not numerically positive definite")
    if not vectors:
        return energies
    t = scipy.linalg.solve_triangular(chol, y, lower=True, trans="C") * np.sqrt(energies)
    lead = t[np.argmax(np.abs(t[:k]), axis=0), np.arange(k)]
    t /= lead / np.abs(lead)
    return energies, t[:k], t[k:]


def _anomalous_branch(m_matrix: np.ndarray, g_matrix: np.ndarray):
    """K eigenpairs of sigma D by the general ``eig`` when D is not definite.

    Keeps the positive-norm eigenpairs, normalized to u^H u - v^H v = 1,
    and fills the remaining slots from the null-norm subspace, one
    representative per complex-conjugate pair.  Returns the real parts
    of the K eigenvalues, u, v, the anomaly notes and whether any
    eigenvalue of sigma D is complex.
    """
    k = m_matrix.shape[0]
    block = np.block([[m_matrix, g_matrix], [-g_matrix.conj(), -m_matrix.conj()]])
    eigvals, eigvecs = scipy.linalg.eig(block.astype(np.complex128))
    u = eigvecs[:k, :]
    v = eigvecs[k:, :]
    u_sq = np.sum(np.abs(u) ** 2, axis=0)
    v_sq = np.sum(np.abs(v) ** 2, axis=0)
    rel_norms = (u_sq - v_sq) / (u_sq + v_sq)

    anomalies: list[str] = []
    complex_mask = np.abs(eigvals.imag) > REALITY_TOLERANCE
    has_complex = bool(np.any(complex_mask))
    if has_complex:
        anomalies.append(
            f"{int(np.sum(complex_mask))} eigenvalues with |Im| > {REALITY_TOLERANCE:g}"
        )

    pos = np.flatnonzero(rel_norms > POSITIVE_NORM_THRESHOLD)
    sel_u = u[:, pos].copy()
    sel_v = v[:, pos].copy()
    sel_e = eigvals[pos].copy()
    # Normalize to u^H u - v^H v = 1.
    sigma = np.sum(np.abs(sel_u) ** 2, axis=0) - np.sum(np.abs(sel_v) ** 2, axis=0)
    sel_u /= np.sqrt(sigma)
    sel_v /= np.sqrt(sigma)

    if sel_e.shape[0] < k:
        # Null-norm pairs (complex-frequency or Goldstone-like); keep one
        # representative per conjugate pair so the mode count stays K.
        anomalies.append(
            f"{k - sel_e.shape[0]} modes taken from zero-norm subspace"
        )
        rest = np.flatnonzero(rel_norms <= POSITIVE_NORM_THRESHOLD)
        order = np.lexsort((-eigvals[rest].imag, np.abs(eigvals[rest].real)))
        picked = []
        for idx in rest[order]:
            ev = eigvals[idx]
            if any(
                abs(ev - np.conj(eigvals[j])) < 1e-10 and abs(ev.imag) > REALITY_TOLERANCE
                for j in picked
            ):
                continue
            picked.append(idx)
            if sel_e.shape[0] + len(picked) == k:
                break
        extra_u = u[:, picked]
        extra_v = v[:, picked]
        scale = np.sqrt(np.sum(np.abs(extra_u) ** 2, axis=0) + np.sum(np.abs(extra_v) ** 2, axis=0))
        sel_u = np.hstack([sel_u, extra_u / scale])
        sel_v = np.hstack([sel_v, extra_v / scale])
        sel_e = np.concatenate([sel_e, eigvals[picked]])

    order = np.argsort(sel_e.real)
    return sel_e.real[order], sel_u[:, order], sel_v[:, order], anomalies, has_complex


def diagonalize(qh: QuadraticHamiltonian, basis: PhononBasis) -> QuasiparticleSpectrum:
    """Positive-norm quasiparticle branch of the quadratic Hamiltonian.

    A stable Hamiltonian (D = [[M, G], [G*, M*]] positive definite) is
    solved by Colpa's method: one Cholesky factorization and one Hermitian
    ``eigh``, whose upper K eigenpairs give the energies and exactly
    symplectic columns.  Only when the Cholesky factorization fails (a
    complex frequency, a negative energy or a zero mode) does the general
    ``eig`` of sigma D run; the spectrum is then still returned (real
    parts, Euclidean-normalized null-norm vectors) with ``stable = False``
    when an energy is complex or negative, and an explanatory anomaly
    entry.
    """
    k = qh.n_modes
    if basis.K != k:
        raise DimensionMismatchError("basis size does not match Hamiltonian")
    try:
        energies, u, v = _colpa(qh.m_matrix, qh.g_matrix)
        has_complex, anomalies, path = False, [], "colpa"
    except scipy.linalg.LinAlgError:
        energies, u, v, anomalies, has_complex = _anomalous_branch(qh.m_matrix, qh.g_matrix)
        path = "anomalous"

    c_matrix = u
    s_matrix = v.conj()

    omega_g = qh.e3 + 0.5 * float(np.sum(energies) - np.trace(qh.m_matrix).real)
    stable = (not has_complex) and bool(np.all(energies >= -REALITY_TOLERANCE))

    return QuasiparticleSpectrum(
        energies=energies,
        c_matrix=c_matrix,
        s_matrix=s_matrix,
        p_waves=c_matrix.T @ basis.mode_matrix,
        q_waves=s_matrix.T @ basis.mode_matrix,
        omega_g=omega_g,
        stable=stable,
        path=path,
        anomalies=tuple(anomalies),
    )


def check_stability(spectrum: QuasiparticleSpectrum) -> StabilityReport:
    """All energies real and non-negative?  Reports offending modes."""
    offending = []
    messages = []
    for m, eps in enumerate(spectrum.energies):
        if eps < -REALITY_TOLERANCE:
            offending.append(m)
            messages.append(f"mode {m}: negative energy {eps:.6g}")
    for note in spectrum.anomalies:
        messages.append(note)
    stable = spectrum.stable and not offending
    return StabilityReport(
        stable=stable, offending_modes=tuple(offending), messages=tuple(messages)
    )


def h3_expectation(qh: QuadraticHamiltonian, occupations) -> float:
    """Energy omega_g + sum_m n_m eps_m for given quasiparticle occupations.

    The energies come from the eigenvalues of Colpa's Hermitian matrix
    alone.  Raises ``InstabilityError`` when D is not positive definite,
    since the quasiparticle occupations are then not defined.
    """
    occ = np.asarray(occupations, dtype=float)
    if occ.shape != (qh.n_modes,):
        raise DimensionMismatchError(
            f"expected {qh.n_modes} occupations, got shape {occ.shape}"
        )
    if not np.all((occ >= 0) & (occ < np.inf)):  # also catches NaN
        raise ConfigurationError("occupations must be finite and non-negative")
    try:
        energies = _colpa(qh.m_matrix, qh.g_matrix, vectors=False)
    except scipy.linalg.LinAlgError as exc:
        raise InstabilityError(
            "quadratic Hamiltonian is not positive definite (complex, negative "
            "or zero quasiparticle energy); the excitation energies are undefined"
        ) from exc
    omega_g = qh.e3 + 0.5 * float(np.sum(energies) - np.trace(qh.m_matrix).real)
    return omega_g + float(occ @ energies)
