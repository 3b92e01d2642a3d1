"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.fft

from elastomag.spectral import MatrixField, ScalarField, TorusGrid, VectorField, leray_hat


@pytest.fixture(scope="session")
def grid2() -> TorusGrid:
    return TorusGrid(dim=2, n=16)


@pytest.fixture(scope="session")
def grid2_small() -> TorusGrid:
    return TorusGrid(dim=2, n=8)


@pytest.fixture(scope="session")
def grid3() -> TorusGrid:
    return TorusGrid(dim=3, n=8)


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated during fn(), after one untraced
    call that makes the first-call caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextmanager
def full_free_lists():
    """Run the block with CPython's tuple free lists full and the cyclic
    collector off. A freed tuple of length below 20 goes to its length's free
    list (up to 2000 tuples) instead of back to the allocator, so while those
    lists fill, memory allocated under tracemalloc stays traced: tens of KB
    of small tuples in a Picard run at 2D n = 16, more in a longer run. How full
    they are depends on what the process ran before, and a full collection
    empties them, so a traced peak otherwise swings with the test order."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        held = [tuple(range(length)) for length in range(1, 20) for _ in range(2000)]
        del held
        yield
    finally:
        if enabled:
            gc.enable()


def value_bytes(state) -> int:
    """Bytes of a state's field values (not its hats)."""
    return sum(f.values.nbytes for f in state.fields)


def scalar(grid: TorusGrid, values: np.ndarray) -> ScalarField:
    return ScalarField(grid, np.asarray(values, dtype=float))


def vector(grid: TorusGrid, *components: np.ndarray) -> VectorField:
    stacked = np.stack([np.broadcast_to(c, grid.shape) for c in components])
    return VectorField(grid, np.ascontiguousarray(stacked, dtype=float))


def matrix(grid: TorusGrid, rows: list[list[np.ndarray]]) -> MatrixField:
    d = len(rows)
    vals = np.zeros((d, d) + grid.shape)
    for i in range(d):
        for j in range(d):
            vals[i, j] = np.broadcast_to(rows[i][j], grid.shape)
    return MatrixField(grid, vals)


def random_band_limited(
    grid: TorusGrid, rng: np.random.Generator, ncomp: int | None = None, band: int = 2
) -> np.ndarray:
    """Smooth random field containing only modes with every |k_i| <= band."""
    shape = grid.shape if ncomp is None else (ncomp,) + grid.shape
    values = np.zeros(shape)
    flat = values.reshape(-1 if ncomp is None else ncomp, *grid.shape)
    comps = [flat] if ncomp is None else list(flat)
    for comp in comps:
        for _ in range(3):
            k = rng.integers(-band, band + 1, size=grid.dim)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(-1.0, 1.0)
            arg = sum(int(k[i]) * grid.x[i] for i in range(grid.dim))
            comp += amp * np.cos(arg + phase)
    return values


def div_free_vector(grid: TorusGrid, rng: np.random.Generator, band: int = 2) -> VectorField:
    """Band-limited divergence-free velocity built from a stream potential."""
    raw = random_band_limited(grid, rng, ncomp=grid.dim, band=band)
    return VectorField(grid, leray(grid, raw))


def leray(grid: TorusGrid, vec: np.ndarray) -> np.ndarray:
    """Divergence-free part of a (dim,) + shape stack."""
    return grid.ifft(leray_hat(grid, grid.fft(vec)))


def truncate(grid: TorusGrid, values: np.ndarray, cutoff: float) -> np.ndarray:
    """Sharp Fourier truncation to the ball |k| <= cutoff."""
    return grid.ifft(grid.fft(values) * (grid.k_sq <= cutoff * cutoff))


def dealiased(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """2/3-rule dealiasing: zero every mode with some |k_i| > n/3."""
    return grid.ifft(grid.fft(values) * grid.dealias_mask)


class TransformCounter:
    """Scalar transforms through scipy.fft.rfftn/irfftn on one grid: each call
    counts its leading component slices under "fwd" or "inv"."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch, grid: TorusGrid) -> None:
        self.counts = {"fwd": 0, "inv": 0}
        self.calls = {"fwd": 0, "inv": 0}
        for name, direction, shape in (("rfftn", "fwd", grid.shape),
                                       ("irfftn", "inv", grid.hat_shape)):
            monkeypatch.setattr(scipy.fft, name, self._counted(getattr(scipy.fft, name),
                                                               direction, shape))

    def _counted(self, fn, direction: str, shape: tuple[int, ...]):
        def counted(x, *args, **kwargs):
            self.calls[direction] += 1
            self.counts[direction] += np.asarray(x).size // int(np.prod(shape))
            return fn(x, *args, **kwargs)

        return counted


def repeated_forward_inputs(monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """Spy on scipy.fft.rfftn: the returned list collects the sha256 of each scalar
    slice (over the transformed trailing axes) passed to it a second time."""
    seen: set[str] = set()
    repeats: list[str] = []
    original = scipy.fft.rfftn

    def spied(x, *args, axes, **kwargs):
        arr = np.asarray(x)
        for piece in arr.reshape((-1,) + arr.shape[arr.ndim - len(axes):]):
            digest = hashlib.sha256(np.ascontiguousarray(piece).tobytes()).hexdigest()
            if digest in seen:
                repeats.append(digest)
            seen.add(digest)
        return original(x, *args, axes=axes, **kwargs)

    monkeypatch.setattr(scipy.fft, "rfftn", spied)
    return repeats
