"""Spectral solver for the generalized Stokes problem and the w = nu v - psi diagnostic.

The system -Delta w + grad q = f, div w = g on the torus is solved exactly
per Fourier mode. The diagnostic assembles the forcing that nu v - psi
satisfies along reformulated-system trajectories, solves for (w, q), and
reports the measured gradient norms against the a priori bracket that the
theory bounds them by (with its non-constructive constant replaced by 1,
so only the ratio is meaningful).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ericksen_stress_div, g_of_G, _advect, _dealias, _div_rows, momentum_rhs_B
from .energetics import grad_sobolev_norm_sq, laplacian_sobolev_norm_sq, sobolev_norm_sq
from .fields import PhysParams, StateB, grad_potential
from .spectral import (
    ScalarField,
    VectorField,
    divergence_values,
    mean_value,
)

MEAN_G_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StokesSolution:
    """Velocity w and zero-mean pressure q with -Delta w + grad q = f, div w = g."""

    w: VectorField
    q: ScalarField


def solve_generalized_stokes(f: VectorField, g: ScalarField) -> StokesSolution:
    """Solve -Delta w + grad q = f, div w = g exactly in Fourier space.

    Per mode xi != 0:
        qhat = -i xi.fhat/|xi|^2 + ghat
        what = (fhat - xi (xi.fhat)/|xi|^2)/|xi|^2 - i xi ghat/|xi|^2
    The zero modes of w and q are set to 0 (gauge); the mean of f plays no
    role in the solve. g must have zero mean (torus compatibility).
    """
    grid = f.grid
    if f.ncomp != grid.dim:
        raise ValueError(f"forcing needs {grid.dim} components, got {f.ncomp}")
    if g.grid != grid:
        raise ValueError("forcing and divergence data live on different grids")
    g_mean = mean_value(grid, g.values)
    if abs(g_mean) > MEAN_G_TOL:
        raise ValueError(f"divergence data must have zero mean, got {g_mean:g}")

    fhat = grid.fft(f.values)
    ghat = grid.fft(g.values)
    inv = grid.inv_k_sq
    kdotf = np.einsum("i...,i...->...", grid.k, fhat)
    qhat = -1j * kdotf * inv + ghat
    qhat.flat[0] = 0.0
    what = np.empty_like(fhat)
    for i in range(grid.dim):
        what[i] = (fhat[i] - grid.k[i] * kdotf * inv) * inv - 1j * grid.k[i] * ghat * inv
    return StokesSolution(w=VectorField(grid, grid.ifft(what)), q=ScalarField(grid, grid.ifft(qhat)))


@dataclass(frozen=True)
class WDiagnostic:
    """Measured norms of the w = nu v - psi dissipation diagnostic.

    grad_w_hs is ||grad w||_{H^s}; bracket is the a priori right-hand side
    4 ||grad dt_v||_{H^{s-2}} + (||v|| + ||grad psi|| + ||grad M||)_{H^s}
    * (||grad v|| + ||grad psi|| + ||Delta M||)_{H^s} with all constants
    set to 1; ratio = grad_w_hs / bracket (NaN for the 0/0 zero state).
    """

    grad_w_hs: float
    grad_q_hs1: float
    bracket: float
    ratio: float


def w_diagnostic(state: StateB, params: PhysParams, s: int, dealias: bool = True) -> WDiagnostic:
    """Solve the Stokes system that w = nu v - psi satisfies and report norms.

    The forcing is f = -dt_v - v.grad v + div g(grad psi) - div(grad M (.)
    grad M) with dt_v the instantaneous projected momentum tendency, and
    g = -div psi. The recovered w equals nu v - psi to rounding when v and
    psi are zero-mean.
    """
    if s < 2:
        raise ValueError(f"the diagnostic needs s >= 2, got {s}")
    grid = state.grid
    dv = momentum_rhs_B(state.v, state.psi, state.M, params.nu, dealias)
    f_vals = -dv.values - _advect(grid, state.v.values, state.v.values, dealias)
    gmat = g_of_G(grad_potential(state.psi))
    f_vals += _div_rows(grid, _dealias(grid, gmat.values, dealias))
    f_vals -= ericksen_stress_div(state.M, dealias).values
    g_vals = -divergence_values(grid, state.psi.values)
    sol = solve_generalized_stokes(VectorField(grid, f_vals), ScalarField(grid, g_vals))

    grad_w = math.sqrt(grad_sobolev_norm_sq(sol.w, s))
    grad_q = math.sqrt(grad_sobolev_norm_sq(sol.q, s - 1))
    low = (
        math.sqrt(sobolev_norm_sq(state.v, s))
        + math.sqrt(grad_sobolev_norm_sq(state.psi, s))
        + math.sqrt(grad_sobolev_norm_sq(state.M, s))
    )
    high = (
        math.sqrt(grad_sobolev_norm_sq(state.v, s))
        + math.sqrt(grad_sobolev_norm_sq(state.psi, s))
        + math.sqrt(laplacian_sobolev_norm_sq(state.M, s))
    )
    bracket = 4.0 * math.sqrt(grad_sobolev_norm_sq(dv, s - 2)) + low * high
    ratio = grad_w / bracket if bracket > 0 else float("nan")
    return WDiagnostic(grad_w_hs=grad_w, grad_q_hs1=grad_q, bracket=bracket, ratio=ratio)
