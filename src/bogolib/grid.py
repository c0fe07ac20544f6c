"""One-dimensional spatial grids with spectral differentiation.

Two boundary types are supported (units: hbar = m = 1):

* ``periodic`` -- uniform grid on [0, L); derivatives via FFT. The number
  of points must be a power of two.
* ``box`` -- hard walls at x = 0 and x = L; n interior points spaced
  L/(n+1); derivatives in the sine (DST-I) basis, which builds in the
  wall boundary condition.

The library's one spectral transform S lives here: the boundary picks
the basis, and the size and dtype the method: on a box, a cached dense
matrix up to n = 256 and an FFT above.  A real array stays real.
``spectral_kernels`` binds S and S^-1 to two complex buffers once, for a
loop that transforms one vector per step; its kernels give the bits of
``to_spectral`` / ``from_spectral`` without their per-call dispatch.

All quadrature is the uniform rectangle rule with weight dx, which is
exact for the periodic spectral representation and consistent with the
sine basis (integrands vanish at the walls).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DimensionMismatchError

BOUNDARIES = ("periodic", "box")


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform 1D grid.

    Attributes
    ----------
    n_points : int
        Number of grid points (interior points for ``box``).
    length : float
        Domain length L.
    boundary : str
        ``"periodic"`` or ``"box"``.
    points : np.ndarray
        Abscissae. Periodic: j*L/n for j = 0..n-1. Box: j*L/(n+1) for
        j = 1..n.
    wavenumbers : np.ndarray | None
        Spectral wavenumbers in FFT order (periodic grids only).
    dx : float
        Quadrature weight / grid spacing.
    """

    n_points: int
    length: float
    boundary: str
    points: np.ndarray
    wavenumbers: np.ndarray | None
    dx: float
    # Eigenvalues of -1/2 d^2/dx^2 in the grid's spectral basis.
    kinetic_eigs: np.ndarray = field(repr=False, default=None)

    @property
    def center(self) -> float:
        return 0.5 * self.length


def build_grid(n_points: int, length: float, boundary: str = "periodic") -> Grid1D:
    """Construct a grid, validating the discretization parameters."""
    if boundary not in BOUNDARIES:
        raise ConfigurationError(
            f"unknown boundary {boundary!r}; expected one of {BOUNDARIES}"
        )
    if not isinstance(n_points, numbers.Integral) or n_points < 8:
        raise ConfigurationError(f"n_points must be an integer >= 8, got {n_points!r}")
    if not isinstance(length, numbers.Real) or not 0 < length < np.inf:
        raise ConfigurationError(f"length must be a positive finite real number, got {length!r}")

    if boundary == "periodic":
        if n_points & (n_points - 1):
            raise ConfigurationError(
                f"periodic grids require a power-of-two n_points, got {n_points}"
            )
        dx = length / n_points
        points = dx * np.arange(n_points)
        wavenumbers = 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)
        kinetic_eigs = 0.5 * wavenumbers**2
    else:
        dx = length / (n_points + 1)
        points = dx * np.arange(1, n_points + 1)
        wavenumbers = None
        sine_k = np.pi * np.arange(1, n_points + 1) / length
        kinetic_eigs = 0.5 * sine_k**2

    return Grid1D(
        n_points=int(n_points),
        length=float(length),
        boundary=boundary,
        points=points,
        wavenumbers=wavenumbers,
        dx=dx,
        kinetic_eigs=kinetic_eigs,
    )


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Amplitudes sampled on a :class:`Grid1D`, in the dtype they were made with.

    Real input is kept as float64 (a stationary orbital, a potential), complex
    input as complex128 (an evolved condensate), as ``bdg.PhononBasis`` keeps
    its modes.  The name stays from when every field was complex.
    """

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        values = np.asarray(self.values)
        dtype = np.complex128 if np.iscomplexobj(values) else np.float64
        values = values.astype(dtype, copy=False)
        if values.shape != (self.grid.n_points,):
            raise DimensionMismatchError(
                f"field has {values.shape}, grid expects ({self.grid.n_points},)"
            )
        object.__setattr__(self, "values", values)

    def copy(self) -> "ComplexField":
        return ComplexField(self.values.copy(), self.grid)


def _check_same_grid(a: Grid1D, b: Grid1D) -> None:
    if a is not b and (a.n_points, a.length, a.boundary) != (b.n_points, b.length, b.boundary):
        raise DimensionMismatchError("operands live on different grids")


def inner_product(f: ComplexField, g: ComplexField) -> complex:
    """Quadrature of integral conj(f) g dx; conjugate-linear in ``f``."""
    _check_same_grid(f.grid, g.grid)
    return complex(np.vdot(f.values, g.values) * f.grid.dx)


def norm(f: ComplexField) -> float:
    """L2 norm sqrt(integral |f|^2 dx)."""
    return float(np.sqrt(np.vdot(f.values, f.values).real * f.grid.dx))


# Largest n whose sine transform is one product with the cached matrix S.
_DENSE_SINE_MAX_N = 256


@functools.lru_cache(maxsize=4)
def _sine_matrix(n: int) -> np.ndarray:
    """Read-only orthonormal DST-I matrix, symmetric and its own inverse.

    S_jk = sqrt(2/(n+1)) sin(pi m/(n+1)) with m = jk mod 2(n+1): reducing the
    index first keeps the argument of sin small, so S matches the FFT to 1e-15.
    Built in place in one array (jk is exact in float64), so the build's
    transient memory is S itself.
    """
    j = np.arange(1.0, n + 1)
    s = np.outer(j, j)
    np.fmod(s, 2 * (n + 1), out=s)
    s *= np.pi
    s /= n + 1
    np.sin(s, out=s)
    s *= np.sqrt(2.0 / (n + 1))
    s.flags.writeable = False
    return s


def _odd_extension_sine(values: np.ndarray, ext: np.ndarray, out=None) -> np.ndarray:
    """Complex DST-I along the last axis by one FFT of the odd extension [0, v, 0, -v[::-1]].

    ``ext`` is a complex128 buffer of 2(n+1) along the last axis, which the
    in-place FFT overwrites (its zeros too, so they are written every call);
    the result goes to ``out``, or to a new array when ``out`` is None.
    """
    n = values.shape[-1]
    ext[..., 0] = ext[..., n + 1] = 0.0
    ext[..., 1 : n + 1] = values
    np.negative(values[..., ::-1], out=ext[..., n + 2 :])
    spectrum = scipy.fft.fft(ext, axis=-1, overwrite_x=True)
    return np.multiply(spectrum[..., 1 : n + 1], 0.5j * np.sqrt(2.0 / (n + 1)), out=out)


def _sine_transform(values: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis, its own inverse; real stays real.

    Up to n = 256 this is one BLAS product with the cached matrix S, the
    columns of a complex block read as float64 pairs.  Small transforms are
    bound by call overhead rather than flops, and for the usual n = 2^k the
    FFT length 2(n+1) = 2(2^k + 1) has large prime factors (2 * 257 at
    n = 256), so S is 2-3x faster at n = 128-256; the FFT wins from n = 384
    on (crossover table in CHANGES.md).  Larger arrays take the FFT: a real
    array ``scipy.fft.dst``, a complex one one complex FFT of the odd
    extension [0, v, 0, -v[::-1]].
    """
    n = values.shape[-1]
    if n <= _DENSE_SINE_MAX_N:
        c = np.ascontiguousarray(values.reshape(-1, n).T)
        if c.dtype == np.complex128:
            out = (_sine_matrix(n) @ c.view(np.float64)).view(np.complex128)
        else:
            out = _sine_matrix(n) @ c
        return out.T.reshape(values.shape)
    if np.isrealobj(values):
        return scipy.fft.dst(values, type=1, norm="ortho")
    ext = np.empty(values.shape[:-1] + (2 * (n + 1),), dtype=np.complex128)
    return _odd_extension_sine(values, ext)


def to_spectral(grid: Grid1D, values: np.ndarray) -> np.ndarray:
    """Orthonormal S along the last axis: DST-I on a box, unitary FFT if periodic."""
    if grid.boundary == "periodic":
        return scipy.fft.fft(values, norm="ortho")
    return _sine_transform(values)


def from_spectral(grid: Grid1D, coeffs: np.ndarray) -> np.ndarray:
    """The inverse of :func:`to_spectral`."""
    if grid.boundary == "periodic":
        return scipy.fft.ifft(coeffs, norm="ortho")
    return _sine_transform(coeffs)


def spectral_kernels(grid: Grid1D, coeffs: np.ndarray, values: np.ndarray):
    """S and S^-1 bound to two buffers: ``forward()`` and ``inverse()``.

    ``forward()`` writes S values into coeffs and ``inverse()`` S^-1 coeffs
    into values, bit for bit as :func:`to_spectral` / :func:`from_spectral`
    of the vector; neither writes its source.  Both buffers are contiguous
    complex128 vectors of the grid's size.  For loops that transform one
    vector per step: the views are made here, once, and on a box a kernel
    allocates nothing.  Above n = 256 the box kernels share one odd extension
    for their FFT, so the pair must not run in two threads at once.
    """
    n = grid.n_points
    for buffer in (coeffs, values):
        if buffer.shape != (n,) or buffer.dtype != np.complex128 or not buffer.flags.c_contiguous:
            raise DimensionMismatchError(
                f"spectral kernels need contiguous complex128 ({n},) buffers"
            )
    if grid.boundary == "periodic":

        def forward():
            coeffs[...] = scipy.fft.fft(values, norm="ortho")

        def inverse():
            values[...] = scipy.fft.ifft(coeffs, norm="ortho")

        return forward, inverse
    if n <= _DENSE_SINE_MAX_N:
        # The product _sine_transform makes, on the same float64 pair views.
        matrix = _sine_matrix(n)
        c, v = (buffer.view(np.float64).reshape(n, 2) for buffer in (coeffs, values))

        def forward():
            np.matmul(matrix, v, out=c)

        def inverse():
            np.matmul(matrix, c, out=v)

        return forward, inverse
    ext = np.empty(2 * (n + 1), dtype=np.complex128)
    return (
        functools.partial(_odd_extension_sine, values, ext, coeffs),
        functools.partial(_odd_extension_sine, coeffs, ext, values),
    )


def spectral_map(grid: Grid1D, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """S^-1 diag(weights) S along the last axis, real for real input; weights even in k."""
    if grid.boundary == "periodic" and np.isrealobj(values):
        n = grid.n_points
        return scipy.fft.irfft(weights[: n // 2 + 1] * scipy.fft.rfft(values), n)
    return from_spectral(grid, weights * to_spectral(grid, values))


def _kinetic_values(grid: Grid1D, values: np.ndarray) -> np.ndarray:
    """Apply -1/2 d^2/dx^2 to a raw array, batched along its last axis."""
    return spectral_map(grid, grid.kinetic_eigs, values)


def kinetic_gram(grid: Grid1D, values: np.ndarray) -> np.ndarray:
    """(K, K) Gram sum_k lambda_k conj(S a)_k (S b)_k over the rows a, b of ``values``.

    Times dx this is <a | -1/2 d^2/dx^2 | b>: S is orthonormal and T
    diagonal in it, so one forward transform of the rows is all it takes.
    With H = S(values) sqrt(lambda) the Gram is conj(H) H^T, and for a real
    H numpy's ``H @ H.T`` is one symmetric rank-k update.  A real array on a
    periodic grid takes the real FFT's half spectrum: each pair (k, -k)
    appears once with weight 2, and conj(a_k) b_k + a_k conj(b_k) is a real
    product of the float64 views of the coefficients: half the columns of
    the float64 view of ``to_spectral``, and so the faster of the two.
    """
    lam = grid.kinetic_eigs
    if grid.boundary == "periodic" and np.isrealobj(values):
        n = grid.n_points
        weights = 2.0 * lam[: n // 2 + 1] / n  # rfft is unnormalized
        weights[[0, -1]] *= 0.5  # k = 0 and k = n/2 have no partner
        h = (scipy.fft.rfft(values) * np.sqrt(weights)).view(np.float64)
        return h @ h.T
    h = to_spectral(grid, values) * np.sqrt(lam)
    return h @ h.T if np.isrealobj(h) else h.conj() @ h.T


def kinetic_matrix(grid: Grid1D) -> np.ndarray:
    """Dense real-symmetric matrix of -1/2 d^2/dx^2 on the grid, in O(n^2).

    Periodic grids give a circulant matrix whose first column is the
    inverse FFT of the kinetic eigenvalues.  On a box, S diag(lambda) S
    with the orthonormal DST-I S is Toeplitz minus Hankel: with 0-based
    indices, T_ij = c(|i - j|) - c(i + j + 2), where
    c(m) = (1/(n+1)) sum_k lambda_k cos(pi k m / (n+1)) is the real part
    of one FFT of length 2(n+1).  Both are exactly symmetric, and each
    call returns a fresh C-ordered array that the caller may overwrite.
    """
    n = grid.n_points
    if grid.boundary == "periodic":
        return scipy.linalg.circulant(scipy.fft.ifft(grid.kinetic_eigs).real)
    padded = np.zeros(2 * (n + 1))
    padded[1 : n + 1] = grid.kinetic_eigs
    c = scipy.fft.fft(padded).real / (n + 1)
    # Row i of the Toeplitz part is the window of ``mirrored`` starting at n-1-i.
    mirrored = np.concatenate((c[n - 1 : 0 : -1], c[:n]))
    toeplitz = sliding_window_view(mirrored, n)[::-1]
    hankel = sliding_window_view(c[2 : 2 * n + 1], n)
    return toeplitz - hankel

