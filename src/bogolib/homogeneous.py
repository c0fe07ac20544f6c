"""Analytic and exact-diagonalization oracles for the uniform gas.

Everything here is independent of the grid-based pipeline and serves to
validate it: the closed-form quasiparticle dispersion, the long-wavelength
velocity-potential / density-fluctuation mode coefficients, and an exact
diagonalization of the number-conserving Hamiltonian truncated to the
three momentum modes {0, +k, -k}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.linalg

from .errors import BogolibError, ConfigurationError, ResourceError

# States in one assembled Fock basis: the spectrum's, or the N and N-1 union
# of the number-conservation check.
MAX_FOCK_STATES = 200_000


def bogoliubov_dispersion(k: float, u_tilde: float, length: float) -> float:
    """Quasiparticle energy sqrt(e_k (e_k + 2 u_tilde / L)), e_k = k^2/2."""
    if not (np.all(np.isfinite([k, u_tilde, length])) and length > 0):
        raise ConfigurationError("k, u_tilde and length must be finite, and length positive")
    if k == 0:
        raise ConfigurationError("k = 0 is the condensate mode; dispersion undefined")
    if u_tilde < 0:
        raise ConfigurationError("u_tilde must be non-negative")
    e_k = 0.5 * k * k
    return float(np.sqrt(e_k * (e_k + 2.0 * u_tilde / length)))


@dataclass(frozen=True)
class HydroCoefficients:
    """Long-wavelength mode amplitudes of phase and density fluctuations.

    ``phi_coeff`` multiplies the velocity-potential mode, ``rho_coeff``
    the density mode; their product is exactly 1/2 (canonical pair), and
    assembling the sound-wave energy from them returns k * v_sound.
    """

    k: float
    phi_coeff: float
    rho_coeff: float
    v_sound: float
    rho0: float
    n_particles: int
    volume: float


def hydro_coefficients(
    k: float, u: float, n_particles: int, volume: float
) -> HydroCoefficients:
    """Mode coefficients sqrt(v/2kN) and sqrt(Nk/2v) with v = sqrt(uN/V)."""
    if not np.all(np.isfinite([k, u, n_particles, volume])):
        raise ConfigurationError("k, u, n_particles and volume must be finite")
    if k <= 0:
        raise ConfigurationError("k must be positive")
    if u <= 0:
        raise ConfigurationError("u must be positive")
    if n_particles < 1 or volume <= 0:
        raise ConfigurationError("need n_particles >= 1 and volume > 0")
    v = float(np.sqrt(u * n_particles / volume))
    phi = float(np.sqrt(v / (2.0 * k * n_particles)))
    rho = float(np.sqrt(n_particles * k / (2.0 * v)))
    return HydroCoefficients(
        k=float(k),
        phi_coeff=phi,
        rho_coeff=rho,
        v_sound=v,
        rho0=n_particles / volume,
        n_particles=int(n_particles),
        volume=float(volume),
    )


def sound_mode_energy(hc: HydroCoefficients) -> float:
    """Normal-ordered per-mode energy of the sound Hamiltonian.

    Kinetic part rho0 k^2 phi^2 V plus compressional part
    v^2 rho^2 / (rho0 V); each contributes k v / 2.
    """
    kinetic = hc.rho0 * hc.k**2 * hc.phi_coeff**2 * hc.volume
    compress = hc.v_sound**2 * hc.rho_coeff**2 / (hc.rho0 * hc.volume)
    return float(kinetic + compress)


# ---------------------------------------------------------------------------
# Exact three-mode Fock oracle
# ---------------------------------------------------------------------------

# Mode momenta in units of k: index 0 -> 0, 1 -> +1, 2 -> -1.
_MODE_MOMENTA = (0, 1, -1)

# The ordered momentum-conserving quartic terms a^dag_{i1} a^dag_{i2} a_{i3} a_{i4}
# over the three modes (19 of them); with the kinetic diagonal they are the
# whole Hamiltonian, each carrying the coupling u / (2 * volume).
_QUARTIC_TERMS = tuple(
    (i1, i2, i3, i4)
    for i1, i2, i3, i4 in product(range(3), repeat=4)
    if _MODE_MOMENTA[i1] + _MODE_MOMENTA[i2] == _MODE_MOMENTA[i3] + _MODE_MOMENTA[i4]
)


@dataclass(frozen=True)
class FockSpectrum:
    """Exact spectrum of the three-mode number-conserving Hamiltonian."""

    n_particles: int
    k_mode: float
    u: float
    ground_energy: float
    gaps: np.ndarray
    dimension: int
    volume: float
    n_max_excited: int
    first_gap: float
    sector_minima: dict


def _sector_states(n_particles: int, cap: int, s: int) -> np.ndarray:
    """States (n0, n+, n-) of momentum sector s = n+ - n-, ordered by j = min(n+, n-)."""
    j = np.arange((cap - abs(s)) // 2 + 1, dtype=np.int64)
    n_plus = j + max(s, 0)
    n_minus = j + max(-s, 0)
    return np.column_stack([n_particles - n_plus - n_minus, n_plus, n_minus])


def _basis_size(cap: int) -> int:
    """Number of states with a given total and n+ + n- <= ``cap``."""
    return (cap + 1) * (cap + 2) // 2


def _fock_counts(n_particles, k_mode, u, volume, n_max_excited) -> tuple[int, int]:
    """(N, n_max_excited) as ints; ConfigurationError for inputs no Fock basis is built from."""
    if not (np.all(np.isfinite([k_mode, u, volume])) and volume > 0):
        raise ConfigurationError("k_mode, u and volume must be finite, and volume positive")
    if not all(float(n).is_integer() and n >= 1 for n in (n_particles, n_max_excited)):
        raise ConfigurationError("n_particles and n_max_excited must be whole numbers >= 1")
    return int(n_particles), int(n_max_excited)


def _spectrum_counts(n_particles, k_mode, u, volume, n_max_excited) -> tuple[int, int]:
    """``_fock_counts`` plus the checks of ``exact_fock_spectrum``'s own inputs."""
    n_particles, n_max_excited = _fock_counts(n_particles, k_mode, u, volume, n_max_excited)
    if n_max_excited > n_particles:
        raise ConfigurationError("need 1 <= n_max_excited <= n_particles")
    if k_mode == 0:
        raise ConfigurationError("k_mode must be nonzero")
    if u < 0:
        raise ConfigurationError("u must be non-negative")
    return n_particles, n_max_excited


def _require_states(n_states: int) -> None:
    if n_states > MAX_FOCK_STATES:
        raise ResourceError(f"Fock basis has {n_states} states (limit {MAX_FOCK_STATES})")


def _fock_basis(n_particles: int, cap: int):
    """The sector chains s = -cap..cap stacked, and the offset of each."""
    blocks = [_sector_states(n_particles, cap, s) for s in range(-cap, cap + 1)]
    offsets = np.cumsum([0] + [len(b) for b in blocks])
    return np.vstack(blocks), offsets


def _hamiltonian_entries(states: np.ndarray, omega_k: float, g2: float):
    """Entries (row, col, value) of H = omega_k (n+ + n-) + g2 * (sum of quartic terms).

    ``states`` may mix different totals.  Each quartic term acts on every
    state in one numpy pass; a term that gives the state back is added, in
    term order, into the kinetic diagonal (the first entries, one per state).
    The other terms' targets are found by ``searchsorted`` on mixed-radix
    encoded occupations; zero amplitudes and targets outside the basis are
    dropped, and repeated (row, col) pairs are to be summed.
    """
    lo, hi = states.min(axis=0), states.max(axis=0)
    radix = hi - lo + 1

    def encode(occ):
        digits = occ - lo
        return (digits[:, 0] * radix[1] + digits[:, 1]) * radix[2] + digits[:, 2]

    keys = encode(states)
    order = np.argsort(keys)
    keys = keys[order]
    cols = np.arange(len(states))
    diagonal = omega_k * (states[:, 1] + states[:, 2])
    rows_out, cols_out, vals_out = [cols], [cols], [diagonal]
    for i1, i2, i3, i4 in _QUARTIC_TERMS:
        occ = states.copy()
        amp = np.full(len(states), g2)
        for down in (i4, i3):
            amp *= np.sqrt(occ[:, down].clip(min=0))
            occ[:, down] -= 1
        for up in (i2, i1):
            occ[:, up] += 1
            amp *= np.sqrt(occ[:, up].clip(min=0))
        if sorted((i1, i2)) == sorted((i3, i4)):
            diagonal += amp
            continue
        target = encode(occ)
        pos = np.searchsorted(keys, target).clip(max=len(keys) - 1)
        hit = (amp != 0.0) & np.all((occ >= lo) & (occ <= hi), axis=1) & (keys[pos] == target)
        rows_out.append(order[pos[hit]])
        cols_out.append(cols[hit])
        vals_out.append(amp[hit])
    return np.concatenate(rows_out), np.concatenate(cols_out), np.concatenate(vals_out)


def _lowest_tridiagonal_eigenvalues(d: np.ndarray, e: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of a symmetric tridiagonal matrix, ascending.

    Calls LAPACK's bisection ``dstebz`` (range 2: by index; order "E":
    ascending) directly, because scipy's ``eigvalsh_tridiagonal`` wrapper
    costs more than the solve of a Fock sector chain of a few dozen states.
    """
    if d.size == 1:  # the wrapper rejects a 1x1 chain's empty off-diagonal
        return d.copy()
    n_eigs, eigs, _, _, info = scipy.linalg.lapack.dstebz(
        d, e, 2, 0.0, 0.0, 1, min(count, d.size), 0.0, "E"
    )
    if info:
        raise scipy.linalg.LinAlgError(f"dstebz failed to converge (info {info})")
    return eigs[:n_eigs]


def exact_fock_spectrum(
    n_particles: int,
    k_mode: float,
    u: float,
    volume: float,
    n_max_excited: int,
    n_gaps: int = 6,
) -> FockSpectrum:
    """Exact diagonalization over states |n0, n+, n-> with fixed total N.

    The basis is capped at ``n_max_excited`` particles outside the zero
    mode and split into momentum sectors s = n+ - n-, which the
    Hamiltonian does not couple.  Interaction terms carry the coupling
    u / (2 * volume) with every momentum-conserving quartic term inside
    the three-mode truncation retained.  Within a sector the states form
    a chain in j = min(n+, n-): the kinetic and density-density terms are
    diagonal and the pair exchange links j only to j +- 1, so each sector
    is a symmetric tridiagonal matrix, of which only the lowest
    n_gaps + 1 eigenvalues are computed: the ground energy, the sector
    minima and the n_gaps lowest excitations need no more.  The chains
    are read off the term-by-term entries, and any entry that leaves them
    raises.  N and n_max_excited must be whole numbers, k_mode and u
    finite, and the volume finite and positive.
    """
    n_particles, cap = _spectrum_counts(n_particles, k_mode, u, volume, n_max_excited)
    dimension = _basis_size(cap)
    _require_states(dimension)
    states, offsets = _fock_basis(n_particles, cap)
    rows, cols, vals = _hamiltonian_entries(states, 0.5 * k_mode * k_mode, u / (2.0 * volume))
    momentum = states[:, 1] - states[:, 2]
    if np.any(momentum[rows] != momentum[cols]) or np.any(np.abs(rows - cols) > 1):
        raise BogolibError("Fock Hamiltonian entry outside the sector chains")
    diag, lower = rows == cols, rows == cols + 1
    d = np.bincount(rows[diag], vals[diag], minlength=dimension)
    e = np.bincount(cols[lower], vals[lower], minlength=dimension)  # e[i] = H[i+1, i]

    sector_minima = {}
    all_eigs = []
    for s, start, stop in zip(range(-cap, cap + 1), offsets[:-1], offsets[1:]):
        eigs = _lowest_tridiagonal_eigenvalues(d[start:stop], e[start:stop - 1], n_gaps + 1)
        sector_minima[s] = float(eigs[0])
        all_eigs.append(eigs)
    all_eigs = np.sort(np.concatenate(all_eigs))

    ground = sector_minima[0]
    excitations = all_eigs - ground
    excitations = excitations[excitations > 1e-12]
    gap_candidates = [sector_minima[s] - ground for s in (+1, -1) if s in sector_minima]
    first_gap = float(min(gap_candidates)) if gap_candidates else float("nan")

    return FockSpectrum(
        n_particles=int(n_particles),
        k_mode=float(k_mode),
        u=float(u),
        ground_energy=float(ground),
        gaps=excitations[:n_gaps].copy(),
        dimension=int(dimension),
        volume=float(volume),
        n_max_excited=cap,
        first_gap=first_gap,
        sector_minima=sector_minima,
    )


def number_conservation_offblock(
    n_particles: int, k_mode: float, u: float, volume: float, n_max_excited: int
) -> float:
    """Largest |matrix element| between sectors of different total number.

    Applies the term-by-term Hamiltonian to the union of the N and N-1
    particle bases and returns the largest magnitude among the entries
    whose row and column totals differ (identically zero when the
    Hamiltonian conserves the total).  N and n_max_excited must be whole
    numbers >= 1, k_mode and u finite, and the volume finite and positive.
    """
    n_particles, n_max_excited = _fock_counts(n_particles, k_mode, u, volume, n_max_excited)
    cap = min(n_max_excited, n_particles - 1)
    _require_states(2 * _basis_size(cap))
    union = np.vstack([_fock_basis(n_particles, cap)[0], _fock_basis(n_particles - 1, cap)[0]])
    rows, cols, vals = _hamiltonian_entries(union, 0.5 * k_mode**2, u / (2.0 * volume))
    totals = union.sum(axis=1)
    return float(np.max(np.abs(vals[totals[rows] != totals[cols]]), initial=0.0))


@dataclass(frozen=True)
class AsymptoticsRow:
    n_particles: int
    gap_exact: float
    gap_predicted: float
    gap_error: float
    ground_exact: float
    ground_predicted: float
    ground_error: float


@dataclass(frozen=True)
class AsymptoticsReport:
    rows: tuple
    fitted_power: float | None


def compare_asymptotics(spectra, u_tilde: float) -> AsymptoticsReport:
    """Exact-vs-quadratic-theory errors across an N sequence.

    Accepts one spectrum or an iterable of spectra computed at fixed
    u_tilde = u * N.  The gap prediction is the dispersion at the oracle's
    wavenumber; the ground-state prediction adds the pair zero-point shift
    eps_k - e_k - u_tilde/V to the c-number (u/2V) N (N-1).  With two or
    more N values the report fits the power p in gap_error ~ N^(-p).
    """
    if isinstance(spectra, FockSpectrum):
        spectra = [spectra]
    spectra = list(spectra)
    rows = []
    for spec in spectra:
        if abs(spec.u * spec.n_particles - u_tilde) > 1e-9 * max(1.0, abs(u_tilde)):
            raise ConfigurationError(
                f"spectrum at N={spec.n_particles} has u*N={spec.u * spec.n_particles}, "
                f"expected u_tilde={u_tilde}"
            )
        e_k = 0.5 * spec.k_mode**2
        disp = bogoliubov_dispersion(spec.k_mode, u_tilde, spec.volume)
        ground_pred = (
            0.5 * (spec.u / spec.volume) * spec.n_particles * (spec.n_particles - 1)
            + disp
            - e_k
            - u_tilde / spec.volume
        )
        rows.append(
            AsymptoticsRow(
                n_particles=spec.n_particles,
                gap_exact=spec.first_gap,
                gap_predicted=disp,
                gap_error=abs(spec.first_gap - disp),
                ground_exact=spec.ground_energy,
                ground_predicted=ground_pred,
                ground_error=abs(spec.ground_energy - ground_pred),
            )
        )
    fitted_power = None
    usable = [r for r in rows if r.gap_error > 0]
    if len(usable) >= 2:
        logn = np.log([r.n_particles for r in usable])
        logerr = np.log([r.gap_error for r in usable])
        slope = np.polyfit(logn, logerr, 1)[0]
        fitted_power = float(-slope)
    return AsymptoticsReport(rows=tuple(rows), fitted_power=fitted_power)
