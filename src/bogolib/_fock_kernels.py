"""Dense Hamiltonian assembly kernels for the three-mode Fock oracle.

The basis is a set of occupation triples (n0, n+, n-).  Within a fixed
total number the Hamiltonian couples a state only to itself (kinetic and
density-density terms) and to (n0 + 2, n+ - 1, n- - 1) through the pair
exchange a0^dag a0^dag a+ a- and its conjugate.

Two interchangeable implementations are provided: a numba ``@njit``
kernel (default when numba imports) and a vectorized pure-numpy assembly.
Set the environment variable ``BOGOLIB_DISABLE_NUMBA=1`` to force the
numpy path.
"""

from __future__ import annotations

import os

import numpy as np

try:  # pragma: no cover - exercised implicitly by the dispatch test
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def numba_enabled() -> bool:
    """True when the jitted kernel is selected."""
    return NUMBA_AVAILABLE and os.environ.get("BOGOLIB_DISABLE_NUMBA", "0") != "1"


def build_index_map(states: np.ndarray, cap: int) -> np.ndarray:
    """Lookup (n+, n-) -> row index; -1 where no such state exists."""
    index_map = np.full((cap + 2, cap + 2), -1, dtype=np.int64)
    index_map[states[:, 1], states[:, 2]] = np.arange(states.shape[0])
    return index_map


@njit(cache=True)
def _assemble_jit(states, index_map, omega_k, g2):  # pragma: no cover - jitted
    n_states = states.shape[0]
    h = np.zeros((n_states, n_states))
    for i in range(n_states):
        n0 = states[i, 0]
        np_ = states[i, 1]
        nm = states[i, 2]
        h[i, i] = omega_k * (np_ + nm) + g2 * (
            n0 * (n0 - 1)
            + np_ * (np_ - 1)
            + nm * (nm - 1)
            + 4.0 * (n0 * np_ + n0 * nm + np_ * nm)
        )
        if np_ >= 1 and nm >= 1:
            j = index_map[np_ - 1, nm - 1]
            if j >= 0:
                amp = 2.0 * g2 * np.sqrt((n0 + 1.0) * (n0 + 2.0) * np_ * nm)
                h[i, j] += amp
                h[j, i] += amp
    return h


def _assemble_numpy(states, index_map, omega_k, g2):
    n0 = states[:, 0].astype(np.float64)
    npl = states[:, 1].astype(np.float64)
    nmi = states[:, 2].astype(np.float64)
    diag = omega_k * (npl + nmi) + g2 * (
        n0 * (n0 - 1) + npl * (npl - 1) + nmi * (nmi - 1)
        + 4.0 * (n0 * npl + n0 * nmi + npl * nmi)
    )
    h = np.diag(diag)
    src = np.flatnonzero((states[:, 1] >= 1) & (states[:, 2] >= 1))
    if src.size:
        tgt = index_map[states[src, 1] - 1, states[src, 2] - 1]
        ok = tgt >= 0
        src, tgt = src[ok], tgt[ok]
        amp = 2.0 * g2 * np.sqrt(
            (n0[src] + 1.0) * (n0[src] + 2.0) * npl[src] * nmi[src]
        )
        h[src, tgt] += amp
        h[tgt, src] += amp
    return h


def assemble_dense(states: np.ndarray, cap: int, omega_k: float, g2: float) -> np.ndarray:
    """Dense Hamiltonian over the given occupation triples.

    Parameters
    ----------
    states : (n_states, 3) int64 array
        Occupation triples (n0, n+, n-), all with the same total.
    cap : int
        Largest n+ + n- present (sizes the index map).
    omega_k : float
        Single-particle energy of the +-k modes (the zero mode carries
        no kinetic energy).
    g2 : float
        Interaction normalization u / (2 * volume).
    """
    states = np.ascontiguousarray(states, dtype=np.int64)
    index_map = build_index_map(states, cap)
    if numba_enabled():
        return _assemble_jit(states, index_map, float(omega_k), float(g2))
    return _assemble_numpy(states, index_map, float(omega_k), float(g2))
