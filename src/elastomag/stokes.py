"""Spectral solver for the generalized Stokes problem and the w = nu v - psi diagnostic.

The system -Delta w + grad q = f, div w = g on the torus is solved exactly
per Fourier mode. The diagnostic assembles the forcing that nu v - psi
satisfies along reformulated-system trajectories, solves for (w, q), and
reports the measured gradient norms against the a priori bracket that the
theory bounds them by (with its non-constructive constant replaced by 1,
so only the ratio is meaningful). Its tendencies come from one
dynamics.rhs_B evaluation, the same one a diagnostic record reads, and it
works on hats throughout: no field it holds a hat of is transformed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .energetics import _StateHats, _hat_norm_sq, _hat_sq, _norms
from .fields import PhysParams, StateB
from .spectral import ScalarField, TorusGrid, VectorField

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
    g_mean = float(np.mean(g.values))
    if abs(g_mean) > MEAN_G_TOL:
        raise ValueError(f"divergence data must have zero mean, got {g_mean:g}")

    what, qhat = _stokes_hats(grid, grid.fft(f.values), grid.fft(g.values))
    return StokesSolution(w=VectorField(grid, grid.ifft(what)), q=ScalarField(grid, grid.ifft(qhat)))


def _stokes_hats(grid: TorusGrid, fhat: np.ndarray, ghat: np.ndarray) -> tuple[np.ndarray, ...]:
    """(what, qhat) of the per-mode solve in solve_generalized_stokes; its odd
    multipliers xi are k_odd, as in spectral.leray_hat, so real data give real w, q."""
    k = grid.k_odd
    kf_over_ksq = np.einsum("i...,i...->...", k, fhat) * grid.inv_k_odd_sq
    qhat = -1j * kf_over_ksq + ghat
    qhat.flat[0] = 0.0
    return (fhat - k * kf_over_ksq - 1j * k * ghat) * grid.inv_k_sq, qhat


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
    g = -div psi. Every term comes from one evaluation dynamics.rhs_B: g
    from its psi hat, dt_v as its dv tendency hat, and its unprojected
    stage-1 momentum hat is
    raw = -v.grad v + div g(grad psi) - div(grad M (.) grad M) + |k|^2 psihat,
    so f = raw - |k|^2 psihat - dt_v. The system is solved on these hats,
    as solve_generalized_stokes does after its transforms, and the norms of w
    and q sum over what and qhat. The bracket's norms sum over the same
    evaluation's state hats, seeded into energetics._StateHats, and its dt_v
    hat.
    The recovered w equals nu v - psi to rounding when v and psi are
    zero-mean.
    """
    if s < 2:
        raise ValueError(f"the diagnostic needs s >= 2, got {s}")
    grid = state.grid
    rhs = dynamics.rhs_B(state, params.nu, dealias)
    psi_hat, raw, dv_hat = rhs.state_hats[1], rhs.stage1_hats[0], rhs.tendency_hats[0]
    g_hat = -np.einsum("i...,i...->...", grid.ik, psi_hat)
    what, qhat = _stokes_hats(grid, raw - grid.k_sq * psi_hat - dv_hat, g_hat)
    grad_w = math.sqrt(_hat_norm_sq(grid, _hat_sq(what), s, 1))
    grad_q = math.sqrt(_hat_norm_sq(grid, _hat_sq(qhat), s - 1, 1))
    # the state norms and dt v's from the evaluation's hats
    hats = _StateHats(state, rhs.state_hats, dv=dv_hat)
    norm = _norms(grid, hats)
    low = math.sqrt(norm("v", s)) + math.sqrt(norm("psi", s, 1)) + math.sqrt(norm("M", s, 1))
    high = math.sqrt(norm("v", s, 1)) + math.sqrt(norm("psi", s, 1)) + math.sqrt(norm("M", s, 2))
    bracket = 4.0 * math.sqrt(norm("dv", s - 2, 1)) + low * high
    ratio = grad_w / bracket if bracket > 0 else float("nan")
    return WDiagnostic(grad_w_hs=grad_w, grad_q_hs1=grad_q, bracket=bracket, ratio=ratio)
