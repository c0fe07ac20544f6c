from itertools import product

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import bogolib.homogeneous as homogeneous
from bogolib.bdg import assemble, build_phonon_basis, diagonalize
from bogolib.errors import BogolibError, ConfigurationError, ResourceError
from bogolib.gpe import solve_stationary, zero_potential
from bogolib.grid import build_grid
from bogolib.homogeneous import (
    _basis_size,
    _fock_basis,
    _hamiltonian_entries,
    _sector_states,
    bogoliubov_dispersion,
    compare_asymptotics,
    exact_fock_spectrum,
    hydro_coefficients,
    number_conservation_offblock,
    sound_mode_energy,
)

TWO_PI = 2.0 * np.pi

# Mode momenta in units of k: index 0 -> 0, 1 -> +1, 2 -> -1.
_MODE_MOMENTA = (0, 1, -1)


def fock_hamiltonian_reference(
    states: np.ndarray, omega_k: float, g2: float
) -> np.ndarray:
    """Readable term-by-term assembly used to cross-check the sector chains.

    Applies every ordered momentum-conserving quartic term
    a^dag_{i1} a^dag_{i2} a_{i3} a_{i4} over the three modes, plus the
    kinetic term, to each basis state.  States may mix different totals;
    particle-number conservation then shows up as exactly zero matrix
    elements between different-total sectors.
    """
    index = {tuple(s): i for i, s in enumerate(np.asarray(states, dtype=np.int64))}
    n_states = len(index)
    h = np.zeros((n_states, n_states))

    quartics = [
        (i1, i2, i3, i4)
        for i1, i2, i3, i4 in product(range(3), repeat=4)
        if _MODE_MOMENTA[i1] + _MODE_MOMENTA[i2] == _MODE_MOMENTA[i3] + _MODE_MOMENTA[i4]
    ]

    for occ, col in index.items():
        occ = np.asarray(occ, dtype=np.int64)
        h[col, col] += omega_k * (occ[1] + occ[2])
        for i1, i2, i3, i4 in quartics:
            n = occ.astype(np.float64).copy()
            amp = g2
            # a_{i4}, a_{i3}, then a^dag_{i2}, a^dag_{i1}
            for down in (i4, i3):
                if n[down] <= 0:
                    amp = 0.0
                    break
                amp *= np.sqrt(n[down])
                n[down] -= 1
            if amp == 0.0:
                continue
            for up in (i2, i1):
                n[up] += 1
                amp *= np.sqrt(n[up])
            key = tuple(int(x) for x in n)
            if key in index:
                h[index[key], col] += amp
    return h


def dense_from_entries(states, omega_k, g2):
    """The applier's (row, col, value) entries summed into a dense matrix."""
    rows, cols, vals = _hamiltonian_entries(states, omega_k, g2)
    h = np.zeros((len(states), len(states)))
    np.add.at(h, (rows, cols), vals)
    return h


def mixed_basis(n_particles, cap):
    """The N and N-1 particle bases stacked, as number_conservation_offblock builds them."""
    return np.vstack([_fock_basis(n_particles, cap)[0], _fock_basis(n_particles - 1, cap)[0]])


class TestDispersion:
    def test_free_limit(self):
        assert bogoliubov_dispersion(1.7, 0.0, 5.0) == pytest.approx(0.5 * 1.7**2, abs=0)

    def test_hand_value(self):
        # sqrt(0.5 * (0.5 + 4)) = 1.5 for k = 1, u_tilde = 2, L = 1.
        assert bogoliubov_dispersion(1.0, 2.0, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_small_k_slope_is_sound_speed(self):
        u_tilde, L = 7.0, 3.0
        v = np.sqrt(u_tilde / L)
        k = 1e-7
        assert bogoliubov_dispersion(k, u_tilde, L) / k == pytest.approx(v, rel=1e-10)

    def test_zero_k_rejected(self):
        with pytest.raises(ConfigurationError):
            bogoliubov_dispersion(0.0, 1.0, 1.0)

    def test_matches_grid_pipeline(self):
        grid = build_grid(32, TWO_PI, "periodic")
        state = solve_stationary(grid, zero_potential(grid), u_tilde=2.0)
        basis = build_phonon_basis(state, 8)
        spec = diagonalize(assemble(state, basis), basis)
        expected = np.sort(
            [bogoliubov_dispersion(s * j, 2.0, TWO_PI) for j in (1, 2, 3, 4) for s in (1, -1)]
        )
        assert np.max(np.abs(spec.energies - expected) / expected) < 1e-8


class TestHydroCoefficients:
    def test_canonical_pair_product(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            k = 10.0 ** rng.uniform(-3, 2)
            u = 10.0 ** rng.uniform(-4, 1)
            n = int(rng.integers(1, 10**6))
            vol = 10.0 ** rng.uniform(-1, 3)
            hc = hydro_coefficients(k, u, n, vol)
            assert abs(hc.phi_coeff * hc.rho_coeff - 0.5) < 1e-15

    def test_sound_speed_definition(self):
        hc = hydro_coefficients(0.1, 1.0 / 50, 50, 4.0)
        assert hc.v_sound == pytest.approx(np.sqrt(1.0 / 4.0), abs=1e-15)

    def test_scaling_with_n_at_fixed_u_tilde(self):
        # Doubling N at fixed u_tilde = u N leaves v fixed and rescales the
        # mode amplitudes by 1/sqrt(2) and sqrt(2).
        k, u_tilde, vol = 0.3, 1.0, 5.0
        a = hydro_coefficients(k, u_tilde / 1000, 1000, vol)
        b = hydro_coefficients(k, u_tilde / 2000, 2000, vol)
        assert b.v_sound == pytest.approx(a.v_sound, rel=1e-14)
        assert b.phi_coeff == pytest.approx(a.phi_coeff / np.sqrt(2), rel=1e-14)
        assert b.rho_coeff == pytest.approx(a.rho_coeff * np.sqrt(2), rel=1e-14)

    def test_mode_energy_equals_kv_and_matches_dispersion_at_small_k(self):
        u, n, vol = 2e-3, 1000, 100.0
        u_tilde = u * n
        hc_any = hydro_coefficients(1.0, u, n, vol)
        v = hc_any.v_sound
        for k in (0.01 * v, 0.05 * v):
            hc = hydro_coefficients(k, u, n, vol)
            energy = sound_mode_energy(hc)
            assert energy == pytest.approx(k * v, rel=1e-12)
            eps = bogoliubov_dispersion(k, u_tilde, vol)
            assert abs(energy - eps) / eps < 0.01

    def test_domain_checks(self):
        with pytest.raises(ConfigurationError):
            hydro_coefficients(-1.0, 1.0, 10, 1.0)
        with pytest.raises(ConfigurationError):
            hydro_coefficients(1.0, 0.0, 10, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.floats(1e-4, 1e3),
        u=st.floats(1e-6, 1e2),
        n=st.integers(1, 10**9),
        volume=st.floats(1e-3, 1e4),
    )
    def test_canonical_pair_property(self, k, u, n, volume):
        hc = hydro_coefficients(k, u, n, volume)
        assert abs(hc.phi_coeff * hc.rho_coeff - 0.5) < 1e-15
        assert sound_mode_energy(hc) == pytest.approx(k * hc.v_sound, rel=1e-12)


class TestFockOracle:
    def test_free_gas(self):
        spec = exact_fock_spectrum(10, 1.0, 0.0, 1.0, 10)
        assert spec.ground_energy == pytest.approx(0.0, abs=1e-14)
        assert spec.first_gap == pytest.approx(0.5, abs=1e-14)

    def test_two_particle_hand_diagonalization(self):
        # Zero-momentum sector at N = 2 is the 2x2 matrix
        # [[u/V, sqrt(2) u/V], [sqrt(2) u/V, 2 w + 2 u/V]]  (w = k^2/2).
        u, vol, k = 0.3, 1.0, 1.0
        w = 0.5 * k**2
        hand = np.linalg.eigvalsh(
            np.array([[u / vol, np.sqrt(2) * u / vol], [np.sqrt(2) * u / vol, 2 * w + 2 * u / vol]])
        )
        spec = exact_fock_spectrum(2, k, u, vol, 2)
        assert spec.ground_energy == pytest.approx(hand[0], abs=1e-14)
        assert spec.sector_minima[0] == pytest.approx(hand[0], abs=1e-14)

    def test_every_state_has_fixed_total(self):
        states, offsets = _fock_basis(12, 7)
        assert np.all(states.sum(axis=1) == 12)
        assert np.all(states >= 0)
        assert np.all(states[:, 1] + states[:, 2] <= 7)
        assert len({tuple(st) for st in states}) == len(states) == _basis_size(7) == offsets[-1]

    def test_reference_sectors_are_tridiagonal_chains(self):
        # Restricted to one momentum sector and ordered by j = min(n+, n-),
        # the term-by-term Hamiltonian is exactly tridiagonal; the applier's
        # entries reproduce it, and they too stay on the sector chains.
        for n_particles, cap, omega_k, g2 in ((6, 6, 0.5, 0.15), (13, 9, 2.0, 0.07), (20, 20, 0.5, 1.3)):
            states, offsets = _fock_basis(n_particles, cap)
            ref = fock_hamiltonian_reference(states, omega_k, g2)
            assert np.max(np.abs(dense_from_entries(states, omega_k, g2) - ref)) < 1e-12
            for start, stop in zip(offsets[:-1], offsets[1:]):
                block = ref[start:stop, start:stop]
                assert np.all(np.triu(block, 2) == 0.0)
                assert np.all(np.tril(block, -2) == 0.0)
                assert np.all(ref[start:stop, :start] == 0.0)
                assert np.all(ref[start:stop, stop:] == 0.0)
            rows, cols, _ = _hamiltonian_entries(states, omega_k, g2)
            assert np.all(np.abs(rows - cols) <= 1)

    @pytest.mark.parametrize(
        "n_particles, cap", [(3, 1), (3, 2), (8, 2), (8, 5), (8, 7), (13, 4), (13, 12)]
    )
    def test_applier_matches_reference_on_mixed_totals(self, n_particles, cap):
        # On the N and N-1 bases stacked, every entry (cross blocks
        # included) equals the term-by-term loop's.
        states = mixed_basis(n_particles, cap)
        for omega_k, g2 in ((0.5, 0.15), (2.0, 1.3)):
            ref = fock_hamiltonian_reference(states, omega_k, g2)
            dense = dense_from_entries(states, omega_k, g2)
            assert np.max(np.abs(dense - ref)) <= 1e-12
            n_top = _basis_size(cap)
            assert np.all(dense[:n_top, n_top:] == 0.0)
            assert np.all(dense[n_top:, :n_top] == 0.0)

    def test_diagonal_is_one_entry_per_state(self):
        # The terms that give a state back are summed into the kinetic
        # diagonal, in term order, before any off-diagonal entry.
        states = mixed_basis(13, 12)
        omega_k, g2 = 0.5, 0.15
        rows, cols, vals = _hamiltonian_entries(states, omega_k, g2)
        n = len(states)
        assert np.array_equal(rows[:n], np.arange(n)) and np.array_equal(cols[:n], np.arange(n))
        assert np.all(rows[n:] != cols[n:])
        assert np.array_equal(vals[:n], np.diag(fock_hamiltonian_reference(states, omega_k, g2)))

    def test_entry_off_the_chains_raises(self, monkeypatch):
        # a^dag_0 a^dag_0 a_0 a_+ changes the momentum: it leaves the sector.
        monkeypatch.setattr(
            homogeneous, "_QUARTIC_TERMS", homogeneous._QUARTIC_TERMS + ((0, 0, 0, 1),)
        )
        with pytest.raises(BogolibError, match="outside the sector chains"):
            exact_fock_spectrum(6, 1.0, 0.2, 1.0, 6)

    @pytest.mark.parametrize(
        "n_particles, cap, u",
        [(2, 2, 0.3), (7, 3, 1.0 / 7), (10, 10, 5.0), (20, 10, 0.3), (40, 40, 1.0 / 40)],
    )
    def test_chain_spectrum_matches_dense_reference(self, n_particles, cap, u):
        spec = exact_fock_spectrum(n_particles, 1.0, u, 1.0, cap)
        states, _ = _fock_basis(n_particles, cap)
        ref = fock_hamiltonian_reference(states, 0.5, u / 2.0)
        sectors = states[:, 1] - states[:, 2]
        dense = {}
        for s in np.unique(sectors):
            block = ref[np.ix_(sectors == s, sectors == s)]
            dense[int(s)] = np.linalg.eigvalsh(block)
        assert spec.dimension == states.shape[0]
        assert spec.sector_minima.keys() == dense.keys()
        for s, eigs in dense.items():
            assert spec.sector_minima[s] == pytest.approx(eigs[0], rel=1e-12, abs=1e-12)
        all_eigs = np.sort(np.concatenate(list(dense.values())))
        gaps = all_eigs - dense[0][0]
        gaps = gaps[gaps > 1e-12][: spec.gaps.size]
        np.testing.assert_allclose(spec.gaps, gaps, rtol=1e-12, atol=1e-12)

    def test_number_conservation_offblock_zero(self):
        assert number_conservation_offblock(8, 1.0, 0.2, 1.0, 8) == 0.0

    def test_offblock_reports_a_number_changing_entry(self, monkeypatch):
        # An entry from an N-1 state to an N state is what the check is
        # for; a planted one is reported at its magnitude.
        applier = homogeneous._hamiltonian_entries

        def planted(states, omega_k, g2):
            rows, cols, vals = applier(states, omega_k, g2)
            top = int(np.argmax(states.sum(axis=1)))
            bottom = int(np.argmin(states.sum(axis=1)))
            return np.append(rows, top), np.append(cols, bottom), np.append(vals, -0.75)

        monkeypatch.setattr(homogeneous, "_hamiltonian_entries", planted)
        assert number_conservation_offblock(8, 1.0, 0.2, 1.0, 8) == 0.75

    def test_gap_law_to_n_320(self):
        # Gap error ~ 1/N at fixed u_tilde = u N, over three doublings.
        u_tilde = 1.0
        spectra = [exact_fock_spectrum(n, 1.0, u_tilde / n, 1.0, n) for n in (40, 80, 160, 320)]
        report = compare_asymptotics(spectra, u_tilde)
        errs = [row.gap_error for row in report.rows]
        for a, b in zip(errs, errs[1:]):
            assert 1.75 <= a / b <= 2.05
        assert 0.9 <= report.fitted_power <= 1.05

    def test_gap_error_shrinks_with_n(self):
        u_tilde = 1.0
        spectra = [exact_fock_spectrum(n, 1.0, u_tilde / n, 1.0, n) for n in (10, 20, 40)]
        report = compare_asymptotics(spectra, u_tilde)
        errs = [row.gap_error for row in report.rows]
        assert errs[0] > errs[1] > errs[2]
        assert 0.5 <= report.fitted_power <= 1.5
        # Error roughly halves per doubling of N.
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(2.0, rel=0.3)

    @pytest.mark.parametrize("n_particles", [40, 60, 200])
    def test_lowest_sector_eigenvalues_match_full_spectra(self, n_particles, monkeypatch):
        # Oracle: every eigenvalue of every sector chain.
        u = 1.0 / n_particles
        fast = {
            n_gaps: exact_fock_spectrum(n_particles, 1.0, u, 1.0, n_particles, n_gaps)
            for n_gaps in (1, 6, 20)
        }
        monkeypatch.setattr(
            homogeneous,
            "_lowest_tridiagonal_eigenvalues",
            lambda d, e, count: scipy.linalg.eigvalsh_tridiagonal(d, e),
        )
        for n_gaps, spec in fast.items():
            full = exact_fock_spectrum(n_particles, 1.0, u, 1.0, n_particles, n_gaps)
            assert spec.ground_energy == pytest.approx(full.ground_energy, rel=1e-12)
            assert spec.first_gap == pytest.approx(full.first_gap, rel=1e-12)
            np.testing.assert_allclose(spec.gaps, full.gaps, rtol=1e-12, atol=0)
            assert spec.sector_minima.keys() == full.sector_minima.keys()
            np.testing.assert_allclose(
                list(spec.sector_minima.values()),
                list(full.sector_minima.values()),
                rtol=1e-12,
                atol=0,
            )

    def test_cap_convergence(self):
        a = exact_fock_spectrum(40, 2.0, 1.0 / 40, 1.0, 20)
        b = exact_fock_spectrum(40, 2.0, 1.0 / 40, 1.0, 40)
        assert abs(a.first_gap - b.first_gap) < 1e-8

    def test_free_gas_asymptotics_identically_zero(self):
        spec = exact_fock_spectrum(20, 1.0, 0.0, 1.0, 20)
        report = compare_asymptotics(spec, 0.0)
        assert report.rows[0].gap_error == pytest.approx(0.0, abs=1e-13)
        assert report.rows[0].ground_error == pytest.approx(0.0, abs=1e-13)

    def test_ground_prediction_validates_omega_g_formula(self):
        # Restricting the grid pipeline to one +-k pair, the Fock-oracle
        # ground prediction (u/2V) N (N-1) + eps - e_k - u_tilde/V must
        # equal N h1 + omega_g: the pair zero-point shift is omega_g - E3,
        # and E3 = -u_tilde/(2V) converts N h1 into the N(N-1) c-number.
        L, u_tilde, n = TWO_PI, 2.0, 37
        grid = build_grid(32, L, "periodic")
        state = solve_stationary(grid, zero_potential(grid), u_tilde=u_tilde)
        basis = build_phonon_basis(state, 2)
        qh = assemble(state, basis)
        spec = diagonalize(qh, basis)
        k = TWO_PI / L
        e_k = 0.5 * k**2
        eps = bogoliubov_dispersion(k, u_tilde, L)
        assert spec.omega_g - qh.e3 == pytest.approx(eps - e_k - u_tilde / L, abs=1e-12)
        h1_uniform = 0.5 * u_tilde / L
        ground_pred = 0.5 * (u_tilde / n / L) * n * (n - 1) + eps - e_k - u_tilde / L
        assert ground_pred == pytest.approx(n * h1_uniform + spec.omega_g, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            exact_fock_spectrum(0, 1.0, 0.1, 1.0, 1)
        with pytest.raises(ConfigurationError):
            number_conservation_offblock(0, 1.0, 0.1, 1.0, 1)
        with pytest.raises(ConfigurationError):
            exact_fock_spectrum(10, 1.0, 0.1, 1.0, 11)
        with pytest.raises(ConfigurationError):
            exact_fock_spectrum(10, 0.0, 0.1, 1.0, 10)

    def test_whole_float_counts_accepted(self):
        whole = exact_fock_spectrum(10.0, 1.0, 0.1, 1.0, 5.0)
        exact = exact_fock_spectrum(10, 1.0, 0.1, 1.0, 5)
        assert (whole.n_particles, whole.dimension) == (exact.n_particles, exact.dimension)
        assert np.array_equal(whole.gaps, exact.gaps)
        assert whole.sector_minima == exact.sector_minima

    def test_particle_number_is_not_capped(self):
        spec = exact_fock_spectrum(61, 1.0, 0.1, 1.0, 10)
        assert spec.dimension == _basis_size(10)

    def test_resource_guard(self, monkeypatch):
        monkeypatch.setattr(homogeneous, "MAX_FOCK_STATES", 10)
        with pytest.raises(ResourceError):
            exact_fock_spectrum(30, 1.0, 0.1, 1.0, 30)

    def test_offblock_resource_guard_before_building(self, monkeypatch):
        # The N and N-1 union has 2 * _basis_size(cap) states; one over the
        # limit raises before any basis is built.
        def no_build(*args):
            raise AssertionError("basis built before the size guard")

        monkeypatch.setattr(homogeneous, "MAX_FOCK_STATES", 2 * _basis_size(7) - 1)
        monkeypatch.setattr(homogeneous, "_fock_basis", no_build)
        with pytest.raises(ResourceError, match="limit"):
            number_conservation_offblock(8, 1.0, 0.2, 1.0, 8)

    def test_mismatched_u_tilde_rejected(self):
        spec = exact_fock_spectrum(10, 1.0, 0.1, 1.0, 10)
        with pytest.raises(ConfigurationError):
            compare_asymptotics(spec, 2.0)

    def test_index_map_roundtrip(self):
        # Every basis state sits in exactly one sector chain, at position
        # j = min(n+, n-) of sector s = n+ - n-.
        states = {
            (9 - n_plus - n_minus, n_plus, n_minus)
            for n_plus in range(6)
            for n_minus in range(6 - n_plus)
        }
        chained = {}
        for s in range(-5, 6):
            for j, st in enumerate(_sector_states(9, 5, s)):
                assert st[1] - st[2] == s and min(st[1], st[2]) == j
                chained[tuple(int(x) for x in st)] = (s, j)
        assert set(chained) == states
        assert len(chained) == len(states)
        stacked, offsets = _fock_basis(9, 5)
        assert [chained[tuple(int(x) for x in st)][0] for st in stacked] == list(
            np.repeat(np.arange(-5, 6), np.diff(offsets))
        )


@pytest.mark.parametrize(
    "oracle, args",
    [
        (number_conservation_offblock, (10, 1.0, float("nan"), 1.0, 5)),
        (number_conservation_offblock, (10, 1.0, 0.1, float("inf"), 5)),
        (number_conservation_offblock, (10.5, 1.0, 0.1, 1.0, 5)),
        (exact_fock_spectrum, (10.5, 1.0, 0.1, 1.0, 5)),
        (exact_fock_spectrum, (10, 1.0, 0.1, 1.0, 5.5)),
        (exact_fock_spectrum, (10, 1.0, float("nan"), 1.0, 5)),
        (exact_fock_spectrum, (10, 1.0, 0.1, float("inf"), 5)),
        (exact_fock_spectrum, (10, float("nan"), 0.1, 1.0, 5)),
        (exact_fock_spectrum, (10, float("inf"), 0.1, 1.0, 5)),
        (exact_fock_spectrum, (10, 1.0, 0.1, 0.0, 5)),
        (number_conservation_offblock, (10, 1.0, 0.1, -1.0, 5)),
        (bogoliubov_dispersion, (float("nan"), 1.0, 1.0)),
        (bogoliubov_dispersion, (1.0, float("inf"), 1.0)),
        (bogoliubov_dispersion, (1.0, 1.0, float("nan"))),
        (bogoliubov_dispersion, (1.0, 1.0, 0.0)),
        (hydro_coefficients, (float("nan"), 1.0, 10, 1.0)),
        (hydro_coefficients, (1.0, float("inf"), 10, 1.0)),
        (hydro_coefficients, (1.0, 1.0, 10, float("inf"))),
    ],
    ids=lambda value: getattr(value, "__name__", None) or repr(value),
)
def test_oracles_reject_non_finite_or_fractional_inputs(oracle, args):
    # No result is defined for these; a number (0.0 reads "conserved") or a
    # LAPACK error would hide that.
    with pytest.raises(ConfigurationError):
        oracle(*args)
