"""Slow, readable references that the library itself does not need.

``colpa`` diagonalizes (M, G) of any dtype by Colpa's 2K method
(J. H. P. Colpa, Physica A 93, 327 (1978)), the reference for the K x K
real form of ``bogolib.bdg``.  ``plane_wave_basis`` gives the complex
exp(ikx) modes of a uniform gas on a periodic grid.  ``split_step_final``
is the spectral split-step loop of ``bogolib.tdgpe`` with a fresh array for
every intermediate, the reference for its in-place step.  ``dxi_dN``
differentiates three full stationary solves in N by central differences,
the reference for the one bordered solve of ``number_shift.exact_dxi_dN``.
"""

import numpy as np
import scipy.linalg

from bogolib.bdg import PhononBasis, QuadraticHamiltonian, QuasiparticleSpectrum
from bogolib.grid import ComplexField, from_spectral, inner_product, to_spectral


def colpa(qh: QuadraticHamiltonian, basis: PhononBasis) -> QuasiparticleSpectrum:
    """Positive-norm quasiparticle branch by Colpa's Hermitian diagonalization.

    Factors D = [[M, G], [G*, M*]] = L L^H and diagonalizes the Hermitian
    W = L^H sigma L, sigma = diag(I, -I).  W has exactly K positive
    eigenvalues, the quasiparticle energies; for eigenvectors Y of W the
    columns of T = L^-H Y sqrt(eps) are eigenvectors of sigma D with
    T^H sigma T = I.  Each column's phase makes its largest-|u| entry real
    and positive, as ``bdg.diagonalize`` does by a sign.  A D that is not
    positive definite raises ``scipy.linalg.LinAlgError`` from the Cholesky
    factorization.
    """
    m, g = qh.m_matrix, qh.g_matrix
    k = qh.n_modes
    d = np.block([[m, g], [g.conj(), m.conj()]]).astype(np.complex128)
    chol = scipy.linalg.cholesky(d, lower=True)
    sigma_chol = chol.copy()
    sigma_chol[k:] *= -1.0
    energies, y = scipy.linalg.eigh(chol.conj().T @ sigma_chol, subset_by_index=[k, 2 * k - 1])
    assert energies[0] > 0.0
    t = scipy.linalg.solve_triangular(chol, y, lower=True, trans="C") * np.sqrt(energies)
    lead = t[np.argmax(np.abs(t[:k]), axis=0), np.arange(k)]
    t /= lead / np.abs(lead)
    c_matrix, s_matrix = t[:k], t[k:].conj()
    return QuasiparticleSpectrum(
        energies=energies,
        c_matrix=c_matrix,
        s_matrix=s_matrix,
        p_waves=c_matrix.T @ basis.mode_matrix,
        q_waves=s_matrix.T @ basis.mode_matrix,
        omega_g=qh.e3 + 0.5 * float(np.sum(energies) - np.trace(m).real),
    )


def plane_wave_basis(state, K: int) -> PhononBasis:
    """Complex plane waves exp(ikx)/sqrt(L) in +-k pairs, k = 2 pi j / L, j = 1..K/2.

    K must be even so every retained +k mode keeps its -k partner; the
    anomalous coupling closes only on complete pairs.
    """
    grid = state.grid
    assert grid.boundary == "periodic" and K % 2 == 0
    ks = np.outer(np.arange(1, K // 2 + 1), [1, -1]).ravel() * (2.0 * np.pi / grid.length)
    return PhononBasis(np.exp(1j * np.outer(ks, grid.points)) / np.sqrt(grid.length), state.xi)


def split_step_final(state, n_steps, dt, potential_of_t, evolution="gpe"):
    """The condensate after n_steps split steps, each written with fresh arrays.

    The loop carries chi = D S psi with D = exp(-i dt lambda/2), as
    ``tdgpe._evolve`` does, and the same operations in the same operand
    order, so the result matches its last snapshot bit for bit.
    """
    grid = state.grid
    u_eff = state.u_tilde if evolution == "gpe" else 0.0
    half = np.exp(-0.5j * dt * grid.kinetic_eigs)
    full = half * half
    chi = half * to_spectral(grid, state.xi.values.astype(np.complex128))
    for j in range(1, n_steps + 1):
        mid = from_spectral(grid, chi)
        w = potential_of_t((j - 1) * dt + 0.5 * dt) + u_eff * np.abs(mid) ** 2
        chi = full * to_spectral(grid, mid * np.exp(-1j * dt * w))
    return from_spectral(grid, half.conj() * chi)


def _align_phase(reference: ComplexField, other: ComplexField) -> ComplexField:
    """Multiply by the phase making <reference, other> real positive."""
    overlap = inner_product(reference, other)
    phase = overlap / abs(overlap)
    return ComplexField(other.values / phase, other.grid)


def dxi_dN(problem, n_particles: float, delta_N: float) -> ComplexField:
    """Central-difference derivative of the orbital with respect to N.

    ``problem`` is a ``number_shift.StationaryProblem``.  The solves at
    N +- delta_N are parallel-transport aligned (phase fixed so the overlap
    with the N-point orbital is real positive) before differencing.  The
    result approaches ``exact_dxi_dN``'s as O(delta_N^2).
    """
    assert delta_N > 0
    ref = problem.solve(n_particles)
    plus = _align_phase(ref.xi, problem.solve(n_particles + delta_N).xi)
    minus = _align_phase(ref.xi, problem.solve(n_particles - delta_N).xi)
    return ComplexField((plus.values - minus.values) / (2.0 * delta_N), problem.grid)
