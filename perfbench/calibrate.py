"""A fixed reference kernel that tracks how fast the machine runs right now.

The machine these figures come from is shared with other tenants. Its speed
drifts by up to 50% for minutes at a time, and the drift shows equally in
wall and CPU time. A kernel that uses only NumPy and SciPy (never
elastomag), with the solver's mix of half-spectrum transforms and einsum
contractions at both grid sizes, slows down with it. End-to-end times are
therefore reported in reference seconds:

    reference seconds = measured seconds * NOMINAL_S / (median kernel time)

where the kernel times are taken in the same process, right before and
right after the measured stretch. On a machine running at the reference
speed the two are equal. No change to elastomag can move the kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import fft

NOMINAL_S = 0.12  # kernel time at the reference speed


class ReferenceKernel:
    """Times one pass of the fixed kernel; inputs never depend on --seed.

    Construct it before any transform wrapper is installed: it keeps the
    original transform functions, so its passes are never counted or traced.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._inputs = (rng.standard_normal((9, 128, 128)), rng.standard_normal((9, 32, 32, 32)))
        self._rfftn = fft.rfftn
        self._irfftn = fft.irfftn
        self.samples: list[float] = []

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(6):
            for x in self._inputs:
                axes = tuple(range(1, x.ndim))
                hat = self._rfftn(x, axes=axes) * 0.5
                m = self._irfftn(hat, s=x.shape[1:], axes=axes).reshape((3, 3) + x.shape[1:])
                np.einsum("ik...,jk...->ij...", m, m)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


class SegmentClock:
    """Splits a stretch of work into segments at each tick().

    Every tick runs one kernel pass, so each segment is bracketed by two
    passes and is converted with their mean: the machine's speed is
    estimated locally, a few seconds wide. Kernel time is not counted in
    any segment.
    """

    def __init__(self, kernel: ReferenceKernel) -> None:
        self.kernel = kernel
        self._marks: list[tuple[float, float, float]] = []  # kernel start, end, seconds

    def tick(self) -> None:
        start = time.perf_counter()
        seconds = self.kernel()
        self._marks.append((start, time.perf_counter(), seconds))

    def segments(self) -> list[tuple[float, float]]:
        """(measured seconds, reference factor) of each segment."""
        return [
            (s1 - e0, 2.0 * NOMINAL_S / (k0 + k1))
            for (_, e0, k0), (s1, _, k1) in zip(self._marks, self._marks[1:])
        ]


def to_reference(seconds: float, samples: list[float]) -> float:
    """Scale measured seconds by kernel passes taken next to the measurement."""
    return seconds * NOMINAL_S / statistics.median(samples)
