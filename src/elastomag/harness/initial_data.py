"""Deterministic initial-data generators for both formulations.

Each variant builds the velocity, the magnetization and a deformation
potential psi (none for the undeformed `zero_steady` and `harmonic_map`);
formulation A takes F = (I + grad psi)^{-1} and B takes psi itself. Only
`flow_map_F` builds F directly; it has no potential, so formulation B
refuses it.

Random variants draw trigonometric-polynomial coefficients in a canonical
mode order that does not depend on the grid resolution, then synthesize the
sums at the grid nodes with one inverse FFT of those coefficients; a mode
past the Nyquist frequency aliases exactly as it would at the nodes.
Amplitude scaling uses analytic bounds computed from the coefficients, not
grid maxima. The same seed therefore samples the same continuum field at
every resolution, which is what resolution-comparison studies require.

Hygiene guarantees: generated velocities are divergence free to roundoff
(the incompressibility projection acts on the coefficients, mode by mode),
generated magnetizations are unit length to roundoff (pointwise
normalization), and the flow-map deformation gradient has unit determinant
to far better than 1e-8 (it integrates dF/dtau = (grad u) F along a
divergence-free u, which preserves det F exactly in the continuum).
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from ..fields import (
    STATES, G_to_F, StateA, StateB, grad_potential, identity_matrix_field, identity_values
)
from ..schemes import DIV_TOL
from ..spectral import MatrixField, TorusGrid, VectorField, divergence_from_hat, jacobian_values
from .snapshot import load_snapshot

STATE_BAND = 3
FLOW_BAND = 2
FLOW_DTAU = 1e-3
COEFF_DECAY = 2.0

VARIANTS = (
    "zero_steady",
    "harmonic_map",
    "random_small",
    "shear_F",
    "flow_map_F",
    "from_snapshot",
)


def _half_lattice_modes(dim: int, band: int) -> list[tuple[int, ...]]:
    """Nonzero integer modes with entries in [-band, band], one per +-k pair.

    Keeping only modes whose first nonzero entry is positive avoids double
    counting cos(k.x) = cos(-k.x). The itertools.product order is the
    canonical lexicographic order the coefficient draws rely on.
    """
    modes = []
    for k in product(range(-band, band + 1), repeat=dim):
        lead = next((c for c in k if c != 0), 0)
        if lead > 0:
            modes.append(k)
    return modes


def _draw_coeffs(
    rng: np.random.Generator,
    ncomp: int,
    modes: list[tuple[int, ...]],
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian cosine/sine coefficients, damped by 1/|k|^COEFF_DECAY."""
    weight = np.array([sum(c * c for c in k) ** (-COEFF_DECAY / 2.0) for k in modes])
    a = rng.standard_normal((ncomp, len(modes))) * weight
    b = rng.standard_normal((ncomp, len(modes))) * weight
    return a, b


def _project_div_free(
    modes: list[tuple[int, ...]], a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Remove the component of each coefficient vector along its mode."""
    a = a.copy()
    b = b.copy()
    for m, k in enumerate(modes):
        kv = np.asarray(k, dtype=np.float64)
        ksq = float(kv @ kv)
        a[:, m] -= kv * float(kv @ a[:, m]) / ksq
        b[:, m] -= kv * float(kv @ b[:, m]) / ksq
    return a, b


def _eval_trig(
    grid: TorusGrid, modes: list[tuple[int, ...]], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """sum_m a[:, m] cos(k_m.x) + b[:, m] sin(k_m.x) on the grid by one inverse FFT:
    mode k carries (n^d / 2)(a - i b) and -k its conjugate, folded mod n. Entries
    off the half spectrum are dropped and the rest accumulate (folded modes and
    the self-conjugate planes k_d = 0, n/2 take two)."""
    n = grid.n
    k = np.array(modes, dtype=np.int64).reshape(-1, grid.dim).T
    index = np.concatenate([k % n, -k % n], axis=1)
    coeff = 0.5 * n**grid.dim * (a - 1j * b)
    coeff = np.concatenate([coeff, coeff.conj()], axis=1)
    keep = index[-1] <= n // 2
    hat = np.zeros((a.shape[0],) + grid.hat_shape, dtype=np.complex128)
    np.add.at(hat, (slice(None),) + tuple(index[:, keep]), coeff[:, keep])
    return grid.ifft(hat)


def random_trig_field(
    rng: np.random.Generator,
    grid: TorusGrid,
    ncomp: int,
    band: int,
) -> np.ndarray:
    """Unscaled random trig polynomial, shape (ncomp,) + grid.shape, synthesized
    by one inverse FFT.

    Zero mean by construction; the same rng state samples the same
    continuum field at any resolution that resolves the band.
    """
    modes = _half_lattice_modes(grid.dim, band)
    a, b = _draw_coeffs(rng, ncomp, modes)
    return _eval_trig(grid, modes, a, b)


def _scaled_trig(rng: np.random.Generator, grid: TorusGrid, ncomp: int, amplitude: float,
                 band: int, *, div_free: bool = False, bound_gradient: bool = False
                 ) -> np.ndarray:
    """Draw a trig polynomial, project it divergence free if div_free, and scale
    it so the analytic bound on max |f_comp| (max |d_i f_comp| if bound_gradient)
    is amplitude; returns its values."""
    modes = _half_lattice_modes(grid.dim, band)
    a, b = _draw_coeffs(rng, ncomp, modes)
    if div_free:
        a, b = _project_div_free(modes, a, b)
    amp = np.hypot(a, b)
    if bound_gradient:
        bound = float(np.max(amp @ np.abs(np.asarray(modes, dtype=np.float64))))
    else:
        bound = float(np.max(np.sum(amp, axis=1)))
    scale = amplitude / bound if bound > 0 else 0.0
    return _eval_trig(grid, modes, a * scale, b * scale)


def _random_velocity(rng: np.random.Generator, grid: TorusGrid, amplitude: float) -> VectorField:
    return VectorField(grid, _scaled_trig(rng, grid, grid.dim, amplitude, STATE_BAND,
                                          div_free=True))


def _random_potential(rng: np.random.Generator, grid: TorusGrid, amplitude: float) -> VectorField:
    """Zero-mean psi scaled so the analytic bound on max |d_i psi^j| is amplitude."""
    return VectorField(grid, _scaled_trig(rng, grid, grid.dim, amplitude, STATE_BAND,
                                          bound_gradient=True))


def _random_magnetization(
    rng: np.random.Generator, grid: TorusGrid, amplitude: float
) -> VectorField:
    """Unit field: constant e3 plus an amplitude-bounded perturbation, normalized."""
    vals = _scaled_trig(rng, grid, 3, amplitude, STATE_BAND)
    vals[2] += 1.0
    norms = np.sqrt(np.sum(vals**2, axis=0))
    return VectorField(grid, vals / norms)


def _flow_map_deformation(
    rng: np.random.Generator, grid: TorusGrid, amplitude: float, dtau: float = FLOW_DTAU
) -> MatrixField:
    """F with det F = 1: integrate dF/dtau = (grad u) F from I over tau in [0, 1].

    u is a fixed divergence-free trig polynomial with max |grad u| bounded by
    amplitude; the classical four-stage explicit scheme at step dtau keeps the
    determinant within roundoff of 1.
    """
    u = _scaled_trig(rng, grid, grid.dim, amplitude, FLOW_BAND, div_free=True,
                     bound_gradient=True)
    grad_u = jacobian_values(grid, u)

    def rate(mat: np.ndarray) -> np.ndarray:
        return np.einsum("ik...,kj...->ij...", grad_u, mat)

    F = identity_values(grid)
    for _ in range(round(1.0 / dtau)):
        k1 = rate(F)
        k2 = rate(F + 0.5 * dtau * k1)
        k3 = rate(F + 0.5 * dtau * k2)
        k4 = rate(F + dtau * k3)
        F = F + (dtau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return MatrixField(grid, F)


def _zero_velocity(grid: TorusGrid) -> VectorField:
    return VectorField(grid, np.zeros((grid.dim,) + grid.shape))


def _from_snapshot(
    grid: TorusGrid, formulation: str, snapshot_path: str | Path | None
) -> StateA | StateB:
    """The snapshot's state, refused unless it fits the config and its v is divergence
    free; it holds the hats made for that check, so a run transforms it no more."""
    if snapshot_path is None:
        raise ConfigError("from_snapshot initial data needs snapshot_path")
    state = load_snapshot(snapshot_path)
    if state.formulation != formulation:
        raise ConfigError(
            f"snapshot holds formulation {state.formulation} state but config says {formulation}"
        )
    if state.grid.dim != grid.dim or state.grid.n != grid.n:
        raise ConfigError(
            f"snapshot grid (dim={state.grid.dim}, n={state.grid.n}) does not match "
            f"config grid (dim={grid.dim}, n={grid.n})"
        )
    hats = state.field_hats()
    div_v = float(np.max(np.abs(divergence_from_hat(grid, hats[0]))))
    if div_v > DIV_TOL:
        raise ConfigError(f"snapshot velocity has max |div v| = {div_v:.3g} > {DIV_TOL:g}")
    return replace(state, hats=hats)


def generate_initial_data(
    grid: TorusGrid,
    variant: str,
    formulation: str,
    amplitude: float = 1e-2,
    seed: int = 0,
    snapshot_path: str | Path | None = None,
) -> StateA | StateB:
    """Build the initial state for a run; deterministic for a fixed seed.

    Every variant makes v, M and a potential psi (None: undeformed), except
    flow_map_F, which makes F itself; one conversion at the end picks the
    formulation: A takes F = (I + grad psi)^{-1}, B takes psi.
    """
    if formulation not in STATES:
        raise ConfigError(f"formulation must be A or B, got {formulation!r}")
    if variant == "from_snapshot":
        return _from_snapshot(grid, formulation, snapshot_path)

    rng = np.random.default_rng(seed)
    v, psi, F = _zero_velocity(grid), None, None
    if variant in ("zero_steady", "harmonic_map", "shear_F"):
        mvals = np.zeros((3,) + grid.shape)
        if variant == "harmonic_map":
            mvals[0] = np.cos(grid.x[0])
            mvals[1] = np.sin(grid.x[0])
        else:
            mvals[2] = 1.0
        m = VectorField(grid, mvals)
        if variant == "shear_F":
            pvals = np.zeros((grid.dim,) + grid.shape)
            pvals[0] = amplitude * np.cos(grid.x[1])
            psi = VectorField(grid, pvals)
    elif variant == "random_small":
        v = _random_velocity(rng, grid, amplitude)
        psi = _random_potential(rng, grid, amplitude)
        m = _random_magnetization(rng, grid, amplitude)
    elif variant == "flow_map_F":
        v = _random_velocity(rng, grid, amplitude)
        m = _random_magnetization(rng, grid, amplitude)
        F = _flow_map_deformation(rng, grid, amplitude)
    else:
        raise ConfigError(f"unknown initial data variant {variant!r}")

    if formulation == "B":
        if F is not None:
            raise ConfigError(
                f"{variant} initial data has no potential: formulation B needs every "
                "row of G to be an exact gradient"
            )
        return StateB(t=0.0, v=v, psi=_zero_velocity(grid) if psi is None else psi, M=m)
    if F is None:
        F = identity_matrix_field(grid) if psi is None else G_to_F(grad_potential(psi))
    return StateA(t=0.0, v=v, F=F, M=m)
