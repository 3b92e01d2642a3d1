"""Right-hand-side evaluation for both formulations.

Index conventions:

    (grad v)_{ij}          = d_j v^i
    (div G)_i              = d_j G^{ji}
    (grad M (.) grad M)_ij = d_i M_k d_j M_k
    ((grad H)^T M)_i       = (d_i H_k) M_k

All nonlinear products are formed pointwise in physical space and then
dealiased (2/3 rule) when dealiasing is enabled; derivatives are always
spectral. g(G) is computed by exact pointwise inversion, not a truncated
series, which keeps the two formulations algebraically equivalent up to
rounding. The simplified coefficient choice (elastic energy (1/2)|F|^2,
unit exchange/gyromagnetic/damping constants) is hard-coded.

There is one tendency implementation: the fused kernels _tendency_hats_A
and _tendency_hats_B (they take the state hats, share jacobians across
terms and return tendencies in Fourier space). rhs_A and rhs_B transform
the state once, add the stiff terms to the kernel's tendencies in Fourier
space and return one Rhs of hats only: the state hats, the kernel's
nonstiff hats and the full tendency hats. That one evaluation serves a
diagnostic record, the next step's first stage (timestepper.run hands it
over) and stokes.w_diagnostic. The steppers and the schemes call the
kernels or their pieces (_momentum_hat_A, _deformation_hat, _llg_hat)
directly. tests/oracles.py rebuilds every term from the PDE with the
public spectral operators, as the independent reference the kernels are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import HExt, StateA, StateB, inverse_values
from .spectral import (
    TorusGrid,
    jacobian_from_hat,
    jacobian_values,
    leray_hat,
)


Hats = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class Rhs:
    """One right-hand-side evaluation at a state, as hats ordered (v, F|psi, M).

    state_hats are the transforms of the state; stage1_hats are the nonstiff
    kernel hats, the first IMEX2 stage of a step from this state (_imex2's
    n1); tendency_hats are the full tendencies, with the stiff terms added
    and dv Leray-projected.
    """

    state_hats: Hats
    stage1_hats: Hats
    tendency_hats: Hats


def _mask(grid: TorusGrid, enabled: bool) -> np.ndarray | None:
    return grid.dealias_mask if enabled else None


def _masked_fft(grid: TorusGrid, values: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Transform a pointwise product and truncate it in one pass."""
    hat = grid.fft(values)
    if mask is not None:
        hat *= mask
    return hat


def _div_rows_hat(grid: TorusGrid, mat_hat: np.ndarray) -> np.ndarray:
    """(div G)_i = d_j G^{ji} as the mode sum sum_j i k_j Ghat^{ji}."""
    return np.einsum("j...,ji...->i...", 1j * grid.k, mat_hat)


def _h_values(h_ext: HExt | None, grid: TorusGrid, t: float) -> np.ndarray | None:
    """Sample the external field as a (3,)+shape array, or None if it is zero."""
    if h_ext is None:
        return None
    sampled = h_ext.evaluate(grid, t)
    return None if sampled is None else sampled.values


def _llg_hat(
    grid: TorusGrid,
    v: np.ndarray | None,
    m: np.ndarray,
    jac_m: np.ndarray,
    lap_m: np.ndarray,
    h: np.ndarray | None,
    mask: np.ndarray | None,
) -> np.ndarray:
    """Hat of every magnetization tendency term except the stiff Delta M."""
    heff = lap_m if h is None else lap_m + h
    gamma = np.einsum("ki...,ki...->...", jac_m, jac_m)
    if h is not None:
        gamma = gamma - np.einsum("k...,k...->...", m, h)
    combo = -np.cross(m, heff, axis=0)
    combo += gamma[np.newaxis] * m
    if v is not None:
        combo -= np.einsum("a...,ka...->k...", v, jac_m)
    out = _masked_fft(grid, combo, mask)
    if h is not None:
        out += grid.fft(h)
    return out


def _momentum_hat_A(
    grid: TorusGrid,
    v: np.ndarray,
    f: np.ndarray,
    m: np.ndarray,
    jac_v: np.ndarray,
    jac_m: np.ndarray,
    h: np.ndarray | None,
    mask: np.ndarray | None,
) -> np.ndarray:
    """Unprojected hat of -v.grad v - div(grad M (.) grad M) + div(F F^T) + (grad H)^T M."""
    vec = -np.einsum("j...,ij...->i...", v, jac_v)
    if h is not None:
        jac_h = jacobian_values(grid, h)
        vec += np.einsum("ki...,k...->i...", jac_h, m)
    stress = np.einsum("ik...,jk...->ij...", f, f)
    stress -= np.einsum("ki...,kj...->ij...", jac_m, jac_m)
    return _masked_fft(grid, vec, mask) + _div_rows_hat(
        grid, _masked_fft(grid, stress, mask)
    )


def _deformation_hat(
    grid: TorusGrid,
    v: np.ndarray,
    f: np.ndarray,
    jac_v: np.ndarray,
    jac_f: np.ndarray,
    mask: np.ndarray | None,
) -> np.ndarray:
    """Hat of the nonstiff deformation tendency -v.grad F + (grad v) F."""
    combo = np.einsum("ik...,kj...->ij...", jac_v, f)
    combo -= np.einsum("a...,ija...->ij...", v, jac_f)
    return _masked_fft(grid, combo, mask)


def _g_values(grid: TorusGrid, g_vals: np.ndarray) -> np.ndarray:
    """g(G) = (I+G)^{-1} (I+G)^{-T} - I + G + G^T on raw (d, d) + shape values."""
    a = g_vals.copy()
    for i in range(grid.dim):
        a[i, i] += 1.0
    b = inverse_values(grid, a, "g_of_G")
    out = np.einsum("ik...,jk...->ij...", b, b)
    for i in range(grid.dim):
        out[i, i] -= 1.0
    out += g_vals
    out += np.swapaxes(g_vals, 0, 1)
    return out


def _momentum_hat_B(
    grid: TorusGrid,
    v: np.ndarray,
    psi_hat: np.ndarray,
    jac_v: np.ndarray,
    jac_psi: np.ndarray,
    jac_m: np.ndarray,
    mask: np.ndarray | None,
) -> np.ndarray:
    """Unprojected hat of -Delta psi - v.grad v + div g(grad psi) - div(grad M (.) grad M)."""
    vec = -np.einsum("j...,ij...->i...", v, jac_v)
    stress = _g_values(grid, jac_psi)
    stress -= np.einsum("ki...,kj...->ij...", jac_m, jac_m)
    hat = _masked_fft(grid, vec, mask) + _div_rows_hat(
        grid, _masked_fft(grid, stress, mask)
    )
    hat += grid.k_sq * psi_hat
    return hat


def _tendency_hats_A(
    grid: TorusGrid,
    v: np.ndarray,
    f: np.ndarray,
    m: np.ndarray,
    h: np.ndarray | None,
    mask: np.ndarray | None,
    state_hats: Hats,
) -> Hats:
    """All nonstiff tendency hats of formulation A with shared transforms.

    state_hats are the transforms of (v, f, m). Returns (dv_hat, dF_hat,
    dM_hat); dv_hat is not Leray-projected and no stiff diffusion term is
    included.
    """
    v_hat, f_hat, m_hat = state_hats
    jac_v = jacobian_from_hat(grid, v_hat)
    jac_f = jacobian_from_hat(grid, f_hat)
    jac_m = jacobian_from_hat(grid, m_hat)
    lap_m = grid.ifft(m_hat * (-grid.k_sq))
    dv = _momentum_hat_A(grid, v, f, m, jac_v, jac_m, h, mask)
    df = _deformation_hat(grid, v, f, jac_v, jac_f, mask)
    dm = _llg_hat(grid, v, m, jac_m, lap_m, h, mask)
    return dv, df, dm


def _tendency_hats_B(
    grid: TorusGrid,
    v: np.ndarray,
    psi: np.ndarray,
    m: np.ndarray,
    mask: np.ndarray | None,
    state_hats: Hats,
) -> Hats:
    """All nonstiff tendency hats of formulation B with shared transforms.

    state_hats are the transforms of (v, psi, m). Returns (dv_hat, dpsi_hat,
    dM_hat); dv_hat is not Leray-projected and no stiff diffusion term is
    included.
    """
    v_hat, psi_hat, m_hat = state_hats
    jac_v = jacobian_from_hat(grid, v_hat)
    jac_psi = jacobian_from_hat(grid, psi_hat)
    jac_m = jacobian_from_hat(grid, m_hat)
    lap_m = grid.ifft(m_hat * (-grid.k_sq))
    dv = _momentum_hat_B(grid, v, psi_hat, jac_v, jac_psi, jac_m, mask)
    adv_psi = np.einsum("a...,ka...->k...", v, jac_psi)
    dpsi = -v_hat - _masked_fft(grid, adv_psi, mask)
    dm = _llg_hat(grid, v, m, jac_m, lap_m, None, mask)
    return dv, dpsi, dm


def _with_stiff_terms(grid: TorusGrid, hats: Hats, stage1: Hats, nu: float,
                      kappa: float) -> Rhs:
    """Add the stiff diffusion to the kernel's stage-1 hats and Leray-project dv."""
    (v_hat, x_hat, m_hat), (dv, dx, dm) = hats, stage1
    dv = leray_hat(grid, dv + nu * (-grid.k_sq) * v_hat)
    if kappa != 0.0:
        dx = dx + kappa * (-grid.k_sq) * x_hat
    dm = dm + (-grid.k_sq) * m_hat
    return Rhs(hats, stage1, (dv, dx, dm))


def rhs_A(state: StateA, nu: float, kappa: float = 0.0,
          h_ext: HExt | None = None, dealias: bool = True) -> Rhs:
    """All evaluated tendencies of formulation A at the state's time."""
    grid = state.grid
    h = _h_values(h_ext, grid, state.t)
    values = tuple(f.values for f in state.fields)
    hats = tuple(grid.fft(x) for x in values)
    stage1 = _tendency_hats_A(grid, *values, h, _mask(grid, dealias), hats)
    return _with_stiff_terms(grid, hats, stage1, nu, kappa)


def rhs_B(state: StateB, nu: float, dealias: bool = True) -> Rhs:
    """All evaluated tendencies of formulation B (external field zero)."""
    grid = state.grid
    values = tuple(f.values for f in state.fields)
    hats = tuple(grid.fft(x) for x in values)
    stage1 = _tendency_hats_B(grid, *values, _mask(grid, dealias), hats)
    return _with_stiff_terms(grid, hats, stage1, nu, 0.0)
