import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from bogolib import grid as grid_module
from bogolib.errors import ConfigurationError, DimensionMismatchError
from bogolib.gpe import gpe_residual, harmonic_potential, solve_stationary
from bogolib.grid import (
    ComplexField,
    _kinetic_values,
    _sine_matrix,
    _sine_transform,
    build_grid,
    from_spectral,
    inner_product,
    kinetic_matrix,
    spectral_kernels,
    spectral_map,
    to_spectral,
)

TWO_PI = 2.0 * np.pi


def random_field(grid, rng):
    values = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    return ComplexField(values, grid)


class TestBuildGrid:
    def test_periodic_points_and_wavenumbers(self):
        grid = build_grid(8, TWO_PI, "periodic")
        assert np.allclose(grid.points, np.arange(8) * np.pi / 4)
        assert sorted(grid.wavenumbers) == [-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]

    def test_box_interior_spacing(self):
        grid = build_grid(16, 10.0, "box")
        assert grid.n_points == 16
        assert grid.dx == pytest.approx(10.0 / 17.0, abs=0)
        assert grid.points[0] == pytest.approx(10.0 / 17.0)
        assert grid.points[-1] == pytest.approx(16 * 10.0 / 17.0)

    def test_periodic_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            build_grid(12, TWO_PI, "periodic")

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            build_grid(4, 1.0, "box")
        with pytest.raises(ConfigurationError):
            build_grid(16, -1.0, "box")
        with pytest.raises(ConfigurationError):
            build_grid(16, 1.0, "moebius")
        for length in (float("nan"), float("inf"), "8", 8.0 + 0j, None):
            with pytest.raises(ConfigurationError, match="length"):
                build_grid(64, length, "box")
        for n_points in (64.0, np.float64(64.0), "64"):
            with pytest.raises(ConfigurationError, match="n_points"):
                build_grid(n_points, 8.0, "box")

    def test_numpy_integer_points_accepted(self):
        grid = build_grid(np.int64(64), 8.0, "periodic")
        assert grid.n_points == 64 and type(grid.n_points) is int


def apply_kinetic(f):
    """-1/2 f'' through the public spectral map."""
    return ComplexField(spectral_map(f.grid, f.grid.kinetic_eigs, f.values), f.grid)


class TestApplyKinetic:
    def test_plane_wave_eigenfunction(self):
        grid = build_grid(32, TWO_PI, "periodic")
        for k in (1.0, 3.0, -5.0):
            f = ComplexField(np.exp(1j * k * grid.points), grid)
            out = apply_kinetic(f)
            assert np.max(np.abs(out.values - 0.5 * k**2 * f.values)) < 1e-12

    def test_constant_maps_to_zero(self):
        grid = build_grid(32, TWO_PI, "periodic")
        out = apply_kinetic(ComplexField(np.full(32, 2.0 + 1j), grid))
        assert np.max(np.abs(out.values)) < 1e-13

    def test_box_sine_against_analytic_second_derivative(self):
        # Oracle: -1/2 (d^2/dx^2) sin(2 pi x / L) = (1/2)(2 pi / L)^2 sin(2 pi x / L).
        grid = build_grid(64, 10.0, "box")
        f = ComplexField(np.sin(2 * np.pi * grid.points / 10.0), grid)
        expected = 0.5 * (2 * np.pi / 10.0) ** 2 * f.values
        out = apply_kinetic(f)
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_hermitian_and_positive(self):
        rng = np.random.default_rng(7)
        for boundary, length in (("periodic", TWO_PI), ("box", 9.0)):
            grid = build_grid(32, length, boundary)
            for _ in range(20):
                f, g = random_field(grid, rng), random_field(grid, rng)
                lhs = inner_product(f, apply_kinetic(g))
                rhs = np.conj(inner_product(g, apply_kinetic(f)))
                assert abs(lhs - rhs) < 1e-10
                quad = inner_product(f, apply_kinetic(f))
                assert quad.real >= -1e-12

    def test_dense_matrix_matches_operator(self):
        rng = np.random.default_rng(3)
        for boundary in ("periodic", "box"):
            grid = build_grid(16, 5.0, boundary) if boundary == "periodic" else build_grid(16, 5.0, "box")
            f = random_field(grid, rng)
            dense = kinetic_matrix(grid)
            assert np.max(np.abs(dense @ f.values - apply_kinetic(f).values)) < 1e-11
            assert np.max(np.abs(dense - dense.T)) < 1e-12


def dense_kinetic_oracle(grid):
    """Dense kinetic matrix as the spectral transform of the identity, O(n^3)."""
    eye = np.eye(grid.n_points)
    if grid.boundary == "periodic":
        cols = scipy.fft.ifft(grid.kinetic_eigs[:, None] * scipy.fft.fft(eye, axis=0), axis=0)
        return cols.real
    return scipy.fft.idst(
        grid.kinetic_eigs[:, None] * scipy.fft.dst(eye, type=1, norm="ortho", axis=0),
        type=1,
        norm="ortho",
        axis=0,
    )


class TestKineticMatrix:
    @pytest.mark.parametrize(
        "n, boundary",
        [(n, "box") for n in (8, 9, 128, 255, 1024)] + [(n, "periodic") for n in (8, 128, 1024)],
    )
    def test_matches_transform_of_identity(self, n, boundary):
        grid = build_grid(n, 12.0, boundary)
        dense = kinetic_matrix(grid)
        expected = dense_kinetic_oracle(grid)
        assert dense.shape == (n, n) and dense.dtype == np.float64
        assert np.max(np.abs(dense - expected)) < 1e-13 * np.max(np.abs(expected))
        assert np.array_equal(dense, dense.T)


def dst_oracle(values):
    """Orthonormal DST-I through scipy's real transform, part by part."""
    re = scipy.fft.dst(values.real, type=1, norm="ortho")
    im = scipy.fft.dst(values.imag, type=1, norm="ortho")
    return re + 1j * im


class TestSineTransform:
    # n <= 256 takes the cached dense matrix, n > 256 the FFT.
    @pytest.mark.parametrize("n", [8, 9, 64, 128, 255, 256, 257, 320, 1024, 2048])
    @pytest.mark.parametrize("shape", ["1d", "batched"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_real_dst(self, n, shape, kind):
        rng = np.random.default_rng(n)
        size = (n,) if shape == "1d" else (32, n)
        values = rng.standard_normal(size)
        if kind == "complex":
            values = values + 1j * rng.standard_normal(size)
        out = _sine_transform(values)
        expected = dst_oracle(values)
        assert out.shape == values.shape
        assert out.dtype == (np.float64 if kind == "real" else np.complex128)
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [64, 256, 257, 1024])
    def test_involution(self, n):
        rng = np.random.default_rng(n + 1)
        values = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        twice = _sine_transform(_sine_transform(values))
        assert np.max(np.abs(twice - values)) < 1e-13 * np.max(np.abs(values))

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("boundary", ["periodic", "box"])
    def test_kinetic_values_match_dense_oracle(self, n, boundary):
        rng = np.random.default_rng(n)
        grid = build_grid(n, 12.0, boundary)
        dense = kinetic_matrix(grid)
        for values in (
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
            rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)),
            rng.standard_normal(n),
        ):
            expected = values @ dense.T
            out = _kinetic_values(grid, values)
            assert np.max(np.abs(out - expected)) < 1e-10 * np.max(np.abs(expected))
            if boundary == "box" and np.isrealobj(values):
                # The stationary solver's residual floor relies on this.
                assert not np.any(np.imag(out))

    def test_size_picks_the_method(self, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("FFT called")

        monkeypatch.setattr(grid_module.scipy.fft, "fft", no_fft)
        monkeypatch.setattr(grid_module.scipy.fft, "dst", no_fft)
        _sine_transform(np.ones(256))
        _sine_transform(np.ones((3, 256)) + 0j)
        for values in (np.ones(257), np.ones(257) + 0j):
            with pytest.raises(AssertionError, match="FFT called"):
                _sine_transform(values)

    @pytest.mark.parametrize("n", [8, 9, 128, 255, 256])
    def test_cached_matrix_is_a_read_only_symmetric_involution(self, n):
        s = _sine_matrix(n)
        assert s is _sine_matrix(n)
        assert np.array_equal(s, s.T)
        assert np.max(np.abs(s @ s - np.eye(n))) <= 1e-14
        with pytest.raises(ValueError):
            s[0, 0] = 0.0


SPECTRAL_GRIDS = [(n, "box") for n in (128, 255, 256, 1024)] + [
    (n, "periodic") for n in (128, 1024)
]


class TestSpectralMap:
    """The grid's one transform S and the operators S^-1 diag(w) S built on it."""

    @pytest.mark.parametrize("boundary", ["box", "periodic"])
    def test_real_input_stays_real(self, boundary):
        grid = build_grid(128, 12.0, boundary)
        values = np.random.default_rng(5).standard_normal((3, 128))
        assert spectral_map(grid, grid.kinetic_eigs, values).dtype == np.float64
        assert _kinetic_values(grid, values[0]).dtype == np.float64
        complex_out = spectral_map(grid, grid.kinetic_eigs, values + 0j)
        assert complex_out.dtype == np.complex128

    @pytest.mark.parametrize("n, boundary", SPECTRAL_GRIDS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_dense_oracle(self, n, boundary, kind):
        rng = np.random.default_rng(n)
        grid = build_grid(n, 12.0, boundary)
        dense = kinetic_matrix(grid)
        shift = 3.0
        resolvent = np.linalg.inv(dense + shift * np.eye(n))
        values = rng.standard_normal((2, n))
        if kind == "complex":
            values = values + 1j * rng.standard_normal((2, n))
        # The dense inverse carries round-off of order eps * cond(T + shift).
        for weights, matrix, rtol in (
            (grid.kinetic_eigs, dense, 1e-13),
            (1.0 / (grid.kinetic_eigs + shift), resolvent, 1e-11),
        ):
            expected = values @ matrix.T
            out = spectral_map(grid, weights, values)
            assert np.max(np.abs(out - expected)) < rtol * np.max(np.abs(expected))

    @pytest.mark.parametrize("n, boundary", SPECTRAL_GRIDS)
    def test_round_trip(self, n, boundary):
        rng = np.random.default_rng(n + 2)
        grid = build_grid(n, 12.0, boundary)
        for values in (
            rng.standard_normal(n),
            rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)),
        ):
            back = from_spectral(grid, to_spectral(grid, values))
            assert np.max(np.abs(back - values)) < 1e-13 * np.max(np.abs(values))

    @pytest.mark.parametrize("boundary", ["box", "periodic"])
    def test_solver_residual_is_the_reported_residual(self, boundary):
        grid = build_grid(256, 16.0, boundary)
        state = solve_stationary(grid, harmonic_potential(grid), u_tilde=10.0)
        assert state.residual == gpe_residual(state)


class TestSpectralKernels:
    """The split-step loop's bound transform pair against to_spectral / from_spectral."""

    # Dense matrix, FFT of the odd extension, unitary FFT.
    @pytest.mark.parametrize(("boundary", "n"), [("box", 128), ("box", 320), ("periodic", 128)])
    def test_bit_identical_to_the_transform(self, boundary, n):
        grid = build_grid(n, 12.0, boundary)
        rng = np.random.default_rng(n)
        coeffs, values = np.empty(n, dtype=np.complex128), np.empty(n, dtype=np.complex128)
        forward, inverse = spectral_kernels(grid, coeffs, values)
        # Twice each, so a buffer the kernels keep is reused.
        for _ in range(2):
            values[:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            source = values.copy()
            forward()
            assert np.array_equal(values, source)
            assert np.array_equal(coeffs, to_spectral(grid, source))
            coeffs[:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            source = coeffs.copy()
            inverse()
            assert np.array_equal(coeffs, source)
            assert np.array_equal(values, from_spectral(grid, source))

    @pytest.mark.parametrize(
        "buffer",
        [np.empty(64, dtype=np.complex128), np.empty(128), np.empty(256, dtype=np.complex128)[::2]],
        ids=["size", "dtype", "strided"],
    )
    def test_rejects_a_buffer_it_cannot_view(self, buffer):
        grid = build_grid(128, 12.0, "box")
        with pytest.raises(DimensionMismatchError):
            spectral_kernels(grid, np.empty(128, dtype=np.complex128), buffer)


class TestInnerProduct:
    def test_normalized_gaussian(self):
        grid = build_grid(256, 20.0, "box")
        x = grid.points - grid.center
        g = np.exp(-0.5 * x**2) / np.pi**0.25
        f = ComplexField(g, grid)
        assert abs(inner_product(f, f) - 1.0) < 1e-12

    def test_plane_wave_orthogonality(self):
        grid = build_grid(32, TWO_PI, "periodic")
        f = ComplexField(np.exp(1j * grid.points) / np.sqrt(TWO_PI), grid)
        g = ComplexField(np.exp(3j * grid.points) / np.sqrt(TWO_PI), grid)
        assert abs(inner_product(f, g)) < 1e-14

    def test_linear_ramp_quadrature_vs_analytic(self):
        # Rectangle rule of integral x dx over [0, L]: off from L^2/2 by
        # exactly L dx / 2 on the interior-point grid.
        grid = build_grid(64, 10.0, "box")
        one = ComplexField(np.ones(64), grid)
        ramp = ComplexField(grid.points.astype(complex), grid)
        value = inner_product(one, ramp).real
        assert abs(value - 10.0**2 / 2) == pytest.approx(10.0 * grid.dx / 2, rel=1e-12)

    def test_mismatched_grids_rejected(self):
        f = ComplexField(np.ones(16), build_grid(16, 1.0, "box"))
        g = ComplexField(np.ones(16), build_grid(16, 2.0, "box"))
        with pytest.raises(DimensionMismatchError):
            inner_product(f, g)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        grid = build_grid(16, 3.0, "box")
        f, g = random_field(grid, rng), random_field(grid, rng)
        assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)), abs=1e-12)


class TestComplexField:
    @pytest.mark.parametrize(
        "values, dtype",
        [
            (np.ones(16), np.float64),
            (np.ones(16, dtype=np.float32), np.float64),
            (np.arange(16), np.float64),
            (list(range(16)), np.float64),
            (np.ones(16) + 0j, np.complex128),
            (np.ones(16, dtype=np.complex64), np.complex128),
        ],
    )
    def test_keeps_real_or_complex_dtype(self, values, dtype):
        field = ComplexField(values, build_grid(16, 1.0, "box"))
        assert field.values.dtype == dtype
        np.testing.assert_array_equal(field.values, np.asarray(values))

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ComplexField(np.ones(15), build_grid(16, 1.0, "box"))
