"""Spectral operators on the periodic torus [0, 2*pi)^d.

Fields are sampled on a uniform grid with n points per axis. Derivatives,
the Leray projection, sharp frequency truncation and 2/3-rule dealiasing are
all diagonal in Fourier space, hence exact (to rounding) on resolved modes.

There is one operator API. It acts on raw arrays with arbitrary leading
component axes: the *_values functions take and return grid samples, and
the hat-level pieces (jacobian_from_hat, leray_hat and the grid's k, k_sq,
inv_k_sq and dealias_mask multipliers) let callers chain Fourier
multipliers on one transform without round trips. ScalarField, VectorField
and MatrixField are plain shape-checked containers with no operators.

All fields are real, so transforms use the half spectrum: the last axis keeps
only the n//2 + 1 nonnegative frequencies and the conjugate modes are implied.
Every multiplier maps the hat of a real field to the hat of a real field, so
a hat never needs a round trip through the grid to stay that of its values:
odd derivatives and the Leray projection act with k_odd, which is 0 on the
Nyquist modes |k_i| = n/2.
The forward transform is the unnormalized DFT fhat(k) = sum_x f(x) exp(-i k.x)
and backward(forward(f)) == f. The discrete Parseval identity used throughout
is

    integral |f|^2 dx = (2*pi)^d / n^(2d) * sum_k w_k |fhat(k)|^2,

where w_k = 2 for half-spectrum modes whose conjugate partner is implied
(0 < k_last < n/2) and w_k = 1 otherwise.

All mode and grid reductions use numpy's deterministic pairwise summation in
canonical array order, so results are bit-reproducible for a fixed
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy import fft as _fft

TAU = 2.0 * np.pi


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [0, 2*pi)^d and its integer wavenumber lattice.

    Args:
        dim: spatial dimension, 2 or 3.
        n: points per axis, even and >= 8.
    """

    dim: int
    n: int

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def hat_shape(self) -> tuple[int, ...]:
        """Half-spectrum shape: full on leading axes, n//2 + 1 on the last."""
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

    @property
    def spacing(self) -> float:
        return TAU / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def volume(self) -> float:
        return TAU**self.dim

    @cached_property
    def x(self) -> np.ndarray:
        """Coordinate meshes, shape (dim,) + shape, 'ij' indexing."""
        axis = np.arange(self.n) * self.spacing
        return np.stack(np.meshgrid(*([axis] * self.dim), indexing="ij"))

    @cached_property
    def k(self) -> np.ndarray:
        """Integer wavenumber meshes on the half spectrum, shape (dim,) + hat_shape."""
        full = np.fft.fftfreq(self.n, d=1.0 / self.n)
        half = np.fft.rfftfreq(self.n, d=1.0 / self.n)
        axes = [full] * (self.dim - 1) + [half]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    @property
    def ik(self) -> np.ndarray:
        """1j * k_odd, the first-derivative multipliers."""
        return _odd_multipliers(self.dim, self.n)[0]

    @property
    def k_odd(self) -> np.ndarray:
        """k with the Nyquist entries (|k_i| = n/2) set to 0: the multipliers of
        odd derivatives, which have no real trigonometric interpolant there; a
        view of ik, whose imaginary part it is exactly."""
        return self.ik.imag

    @property
    def inv_k_odd_sq(self) -> np.ndarray:
        """1/|k_odd|^2, 0 where k_odd = 0."""
        return _odd_multipliers(self.dim, self.n)[1]

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|k|^2 per half-spectrum mode."""
        return np.sum(self.k**2, axis=0)

    @cached_property
    def inv_k_sq(self) -> np.ndarray:
        """1/|k|^2 with the zero mode set to 0."""
        ksq = self.k_sq.copy()
        ksq.flat[0] = 1.0
        inv = 1.0 / ksq
        inv.flat[0] = 0.0
        return inv

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True on modes kept by the 2/3 rule: all |k_i| <= n/3."""
        return np.all(np.abs(self.k) <= self.n / 3.0, axis=0)

    @cached_property
    def mode_weight(self) -> np.ndarray:
        """Parseval multiplicity per half-spectrum mode: 2 where the conjugate
        partner is implied (0 < k_last < n/2), 1 on the self-conjugate planes."""
        weight = np.ones(self.hat_shape)
        weight[..., 1 : self.n // 2] = 2.0
        return weight

    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(-self.dim, 0))

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Forward real transform over the trailing dim axes (half spectrum)."""
        return _fft.rfftn(values, axes=self.spatial_axes())

    def ifft(self, hat: np.ndarray) -> np.ndarray:
        """Backward real transform over the trailing dim axes."""
        return _fft.irfftn(hat, s=self.shape, axes=self.spatial_axes())


@cache
def _odd_multipliers(dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ik, inv_k_odd_sq) of the (dim, n) grid, made once and shared by every
    equal grid: runs, records and snapshot loads each make their own grid."""
    k = TorusGrid(dim, n).k
    ik = 1j * np.where(np.abs(k) == n // 2, 0.0, k)
    ksq = np.sum(ik.imag**2, axis=0)
    return ik, np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)


# --------------------------------------------------------------------------
# Field containers
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real samples at grid points, canonical row-major ordering."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"scalar values shape {self.values.shape} != grid shape {self.grid.shape}"
            )


@dataclass(frozen=True, eq=False)
class VectorField:
    """Stack of component scalars; values shape (ncomp,) + grid.shape."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != self.grid.dim + 1 or self.values.shape[1:] != self.grid.shape:
            raise ValueError(
                f"vector values shape {self.values.shape} incompatible with grid {self.grid.shape}"
            )

    @property
    def ncomp(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class MatrixField:
    """d x d matrix samples; values shape (d, d) + grid.shape, entry (i, j) = row i, column j."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        d = self.grid.dim
        if self.values.shape != (d, d) + self.grid.shape:
            raise ValueError(
                f"matrix values shape {self.values.shape} != {(d, d) + self.grid.shape}"
            )


Field = ScalarField | VectorField | MatrixField


# --------------------------------------------------------------------------
# Array-level operators (arbitrary leading component axes)
# --------------------------------------------------------------------------


def jacobian_values(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """All first derivatives; output[..., j, <space>] = d_j values[..., <space>]."""
    return jacobian_from_hat(grid, grid.fft(values))


def jacobian_from_hat(grid: TorusGrid, hat: np.ndarray) -> np.ndarray:
    """Jacobian from an already transformed field (shares one forward FFT)."""
    return grid.ifft(np.expand_dims(hat, -grid.dim - 1) * grid.ik)


def laplacian_values(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    return grid.ifft(grid.fft(values) * (-grid.k_sq))


def divergence_values(grid: TorusGrid, vec: np.ndarray) -> np.ndarray:
    """sum_i d_i vec[i] for a (dim,) + shape stack."""
    return divergence_from_hat(grid, grid.fft(vec))


def divergence_from_hat(grid: TorusGrid, hat: np.ndarray) -> np.ndarray:
    """Divergence values from an already transformed (dim,) + hat_shape stack."""
    return grid.ifft(np.einsum("i...,i...->...", grid.ik, hat))


def leray_hat(grid: TorusGrid, hat: np.ndarray) -> np.ndarray:
    """Leray projection of a transformed (dim,) + hat_shape stack; input unchanged.

    It projects onto the kernel of divergence_from_hat, so it uses the
    derivative multipliers k_odd: on the Nyquist modes, k itself would map
    the hat of a real field to one that is not.
    """
    dot = np.einsum("i...,i...->...", grid.k_odd, hat)
    dot *= grid.inv_k_odd_sq
    return hat - grid.k_odd * dot


def l2_norm_sq_values(grid: TorusGrid, values: np.ndarray) -> float:
    """integral |f|^2 dx by the grid sum (cell volume times sum of squares)."""
    return float(grid.cell_volume * np.sum(values**2))
