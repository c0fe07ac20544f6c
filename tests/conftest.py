import numpy as np
import pytest

from bogolib.gpe import harmonic_potential, solve_stationary, zero_potential
from bogolib.grid import build_grid

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def uniform_grid():
    return build_grid(64, TWO_PI, "periodic")


@pytest.fixture(scope="session")
def trap_grid():
    return build_grid(128, 16.0, "box")


@pytest.fixture(scope="session")
def wide_trap_grid():
    return build_grid(256, 20.0, "box")


@pytest.fixture(scope="session")
def uniform_state(uniform_grid):
    return solve_stationary(uniform_grid, zero_potential(uniform_grid), u_tilde=2.0)


@pytest.fixture(scope="session")
def trap_states(trap_grid):
    """Converged harmonic-trap states keyed by u_tilde."""
    pot = harmonic_potential(trap_grid)
    return {
        ut: solve_stationary(trap_grid, pot, u_tilde=ut) for ut in (0.0, 1.0, 10.0, 50.0)
    }


def orthonormal_modes(rows, xi):
    """Orthonormal (K, n_points) basis of span(rows) projected off the condensate xi.

    One Householder QR of the columns [xi, rows]: Q's later columns span the
    rows' part orthogonal to xi and stay orthogonal to it to round-off,
    however ill-conditioned the rows are.
    """
    q, _ = np.linalg.qr(np.column_stack([xi.values, np.asarray(rows).T]))
    return np.ascontiguousarray(q[:, 1:].T) / np.sqrt(xi.grid.dx)
