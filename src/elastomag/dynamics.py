"""Right-hand-side evaluation for both formulations.

Index conventions:

    (grad v)_{ij}          = d_j v^i
    (div G)_i              = d_j G^{ji}
    (grad M (.) grad M)_ij = d_i M_k d_j M_k
    ((grad H)^T M)_i       = (d_i H_k) M_k

All nonlinear products are formed pointwise in physical space and then
dealiased (2/3 rule) when dealiasing is enabled; derivatives are always
spectral. Both transport terms are taken in divergence form, the same by
the product rule when div v = 0, which every stage's Leray projection keeps
and initial_data checks in a snapshot; rhs_A, rhs_B and every step assume
it, and no kernel makes a jacobian of v or F. _momentum_hat forms -v.grad v
as -d_j (v_i v_j), and _deformation_hat forms (grad v) F - v.grad F in the
divergence-corrected flux form -d_k (v_k F_ij - v_i F_kj) - v_i d_k F_kj.
g(G) is computed by exact pointwise inversion, not a truncated series, which
keeps the two formulations algebraically equivalent up to rounding. The
simplified coefficient choice (elastic energy (1/2)|F|^2, unit
exchange/gyromagnetic/damping constants) is hard-coded.

There is one tendency implementation: the fused kernels _tendency_hats_A
and _tendency_hats_B, which share one signature (grid, v, F|psi, M, h,
mask, state_hats), share jacobians and a field's hat across terms and
return tendencies in Fourier space, with the geometry B makes on the way
(G = grad psi, (I + G)^{-1}, det(I + G); None in A). B reads psi only
through its hat, so a step's predictor hands it no values of psi. Both
build the momentum with _momentum_hat from the upper entries i <= j of
their elastic stress less grad M (.) grad M (_stress_A in A; B subtracts
_magnetic_stress from _g_values), each made by _upper_outer, which sums as
np.einsum does, so with its bits. The kernels make their
temporaries one row or entry at a time (the stress entries, the
deformation's correction rows and flux pairs) and free each input once its
last term is made, which bounds a 3D step's memory.
rhs_A and rhs_B pass their kernel to one evaluation, which takes the hats
a stepped state holds (and transforms a state that holds none, such as
generated initial data), adds the stiff terms in Fourier space and returns
one Rhs: the state hats, the kernel's nonstiff hats, the full tendency
hats and its geometry. That one evaluation serves a diagnostic record,
which takes the geometry instead of making it again, the next step's first
stage (timestepper.run hands it over) and stokes.w_diagnostic. The
steppers and the schemes call the kernels or their pieces (_momentum_hat,
_deformation_hat, _llg_hat) directly. tests/oracles.py rebuilds every term
from the PDE with the public spectral operators, as the independent
reference the kernels are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .fields import HExt, StateA, StateB, identity_plus, inverse_values
from .spectral import TorusGrid, jacobian_from_hat, leray_hat


Hats = tuple[np.ndarray, np.ndarray, np.ndarray]
Geometry = tuple[np.ndarray, np.ndarray, np.ndarray]
Kernel = Callable[..., tuple[Hats, Geometry | None]]


@dataclass(frozen=True, eq=False)
class Rhs:
    """One right-hand-side evaluation at a state, as hats ordered (v, F|psi, M).

    state_hats are the transforms of the state; stage1_hats are the nonstiff
    kernel hats, the first IMEX2 stage of a step from this state (_imex2's
    n1); tendency_hats are the full tendencies, with the stiff terms added
    and dv Leray-projected. geometry is the kernel's: in B, the G = grad psi,
    F = (I + G)^{-1} and det(I + G) a diagnostic record reads; None in A.
    timestepper.run hands a step the evaluation with neither (both None).
    """

    state_hats: Hats
    stage1_hats: Hats
    tendency_hats: Hats | None
    geometry: Geometry | None = None


def _mask(grid: TorusGrid, enabled: bool) -> np.ndarray | None:
    return grid.dealias_mask if enabled else None


def _masked_fft(grid: TorusGrid, values: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Transform a pointwise product and truncate it in one pass."""
    hat = grid.fft(values)
    if mask is not None:
        hat *= mask
    return hat


@cache
def _upper(dim: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(dim, offset), made once per (dim, offset)."""
    return np.triu_indices(dim, offset)


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
    m_hat: np.ndarray,
    h: np.ndarray | None,
    h_hat: np.ndarray | None,
    mask: np.ndarray | None,
) -> np.ndarray:
    """Hat of every magnetization tendency term except the stiff Delta M, for
    a field h with hat h_hat (both None for no field)."""
    lap_m = grid.ifft(m_hat * (-grid.k_sq))
    heff = lap_m if h is None else lap_m + h
    gamma = np.einsum("ki...,ki...->...", jac_m, jac_m)
    if h is not None:
        gamma = gamma - np.einsum("k...,k...->...", m, h)
    combo = np.empty_like(m)
    for i in range(3):  # -(m x heff), with the bits of -np.cross(m, heff, axis=0)
        j, k = (i + 1) % 3, (i + 2) % 3
        combo[i] = m[k] * heff[j] - m[j] * heff[k]
    combo += gamma[np.newaxis] * m
    if v is not None:
        combo -= np.einsum("a...,ka...->k...", v, jac_m)
    out = _masked_fft(grid, combo, mask)
    if h is not None:
        out += h_hat
    return out


def _upper_outer(a: np.ndarray) -> np.ndarray:
    """The entries i <= j of a a^T, in _upper(d, 0) order, for a (d, K) + shape
    stack: sum_k a_ik a_jk, summed over k = 0..K-1 in turn, as
    np.einsum("ik...,jk...->ij...", a, a) sums it, so with its bits."""
    rows, cols = _upper(len(a), 0)
    out = np.empty((len(rows),) + a.shape[2:])
    for p, (i, j) in enumerate(zip(rows, cols)):
        np.multiply(a[i, 0], a[j, 0], out=out[p])
        for k in range(1, a.shape[1]):
            out[p] += a[i, k] * a[j, k]
    return out


def _magnetic_stress(jac_m: np.ndarray) -> np.ndarray:
    """The entries i <= j of grad M (.) grad M, sum_k d_i M_k d_j M_k, from M's
    (k, i) + shape jacobian, made by _upper_outer."""
    return _upper_outer(np.swapaxes(jac_m, 0, 1))


def _stress_A(f: np.ndarray, jac_m: np.ndarray) -> np.ndarray:
    """The entries i <= j of F F^T - grad M (.) grad M, the stress that
    _momentum_hat takes in formulation A (its kernel and Picard's velocity)."""
    stress = _upper_outer(f)
    stress -= _magnetic_stress(jac_m)
    return stress


def _momentum_hat(
    grid: TorusGrid,
    v: np.ndarray,
    m: np.ndarray,
    stress: np.ndarray,
    h_hat: np.ndarray | None,
    mask: np.ndarray | None,
) -> np.ndarray:
    """Unprojected hat of div S + (grad H)^T M with S = stress - v (x) v, stress being
    the upper entries i <= j, in _upper(d, 0) order, of the elastic stress less
    grad M (.) grad M (_stress_A in A; _g_values less _magnetic_stress in B).
    v (x) v is subtracted from them in place, and (div S)_i = sum_j i k_j Shat^{ji}
    is summed from their hats; -div(v (x) v) is -v.grad v for div v = 0. h_hat is
    the field's hat, or None for no field."""
    rows, cols = _upper(grid.dim, 0)
    for p, (i, j) in enumerate(zip(rows, cols)):
        stress[p] -= v[i] * v[j]
    upper_hat = _masked_fft(grid, stress, mask)
    out = np.zeros((grid.dim,) + grid.hat_shape, dtype=complex)
    for p, (i, j) in enumerate(zip(rows, cols)):  # S_ij = S_ji feeds rows j and i
        out[j] += grid.ik[i] * upper_hat[p]
        if i != j:
            out[i] += grid.ik[j] * upper_hat[p]
    if h_hat is not None:
        jac_h = jacobian_from_hat(grid, h_hat)
        out += _masked_fft(grid, np.einsum("ki...,k...->i...", jac_h, m), mask)
    return out


def _deformation_hat(
    grid: TorusGrid,
    v: np.ndarray,
    f: np.ndarray,
    f_hat: np.ndarray,
    mask: np.ndarray | None,
) -> np.ndarray:
    """Hat of the nonstiff deformation tendency (grad v) F - v.grad F in the flux
    form -d_k P_kij - v_i d_k F_kj, exact for div v = 0 and any F. d_k F_kj costs d
    inverse transforms, F's jacobian d^3. The correction is made and transformed one
    row i at a time. P_kij = v_k F_ij - v_i F_kj is antisymmetric in (k, i), so only
    its entries k < i are made, one pair at a time, each transformed and folded into
    the result at once, so at most one row's products and hats are alive."""
    col_div = grid.ifft(np.einsum("k...,kj...->j...", grid.ik, f_hat))
    out = np.empty(f_hat.shape, dtype=complex)
    for i in range(grid.dim):
        np.negative(_masked_fft(grid, v[i] * col_div, mask), out=out[i])
    del col_div
    flux = np.empty(f.shape[1:])
    for k, i in zip(*_upper(grid.dim, 1)):  # P_kij = -P_ikj feeds rows i and k
        np.multiply(v[k], f[i], out=flux)
        flux -= v[i] * f[k]
        flux_hat = _masked_fft(grid, flux, mask)
        out[i] -= grid.ik[k] * flux_hat
        out[k] += grid.ik[i] * flux_hat
    return out


def _g_values(grid: TorusGrid, g_vals: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The upper entries i <= j, in _upper(d, 0) order, of
    g(G) = (I+G)^{-1} (I+G)^{-T} - I + G + G^T on raw (d, d) + shape values of G,
    given b = (I+G)^{-1}."""
    out = _upper_outer(b)
    for p, (i, j) in enumerate(zip(*_upper(grid.dim, 0))):
        if i == j:
            out[p] -= 1.0
        out[p] += g_vals[i, j]
        out[p] += g_vals[j, i]
    return out


def _tendency_hats_A(
    grid: TorusGrid,
    v: np.ndarray,
    f: np.ndarray,
    m: np.ndarray,
    h: np.ndarray | None,
    mask: np.ndarray | None,
    state_hats: Hats,
) -> tuple[Hats, Geometry | None]:
    """All nonstiff tendency hats of formulation A with shared transforms.

    state_hats are the transforms of (v, f, m); a field h is transformed once,
    for the momentum and the magnetization. Returns (dv_hat, dF_hat, dM_hat)
    and None; dv_hat is not Leray-projected and no stiff diffusion term is
    included. The terms are made in the order momentum, magnetization,
    deformation: the two that read M's jacobian come first, so it is freed
    before the deformation's flux and correction temporaries, the kernel's
    peak.
    """
    jac_m = jacobian_from_hat(grid, state_hats[2])
    h_hat = None if h is None else grid.fft(h)
    dv = _momentum_hat(grid, v, m, _stress_A(f, jac_m), h_hat, mask)
    dm = _llg_hat(grid, v, m, jac_m, state_hats[2], h, h_hat, mask)
    del jac_m
    df = _deformation_hat(grid, v, f, state_hats[1], mask)
    return (dv, df, dm), None


def _tendency_hats_B(
    grid: TorusGrid,
    v: np.ndarray,
    psi: np.ndarray | None,
    m: np.ndarray,
    h: np.ndarray | None,
    mask: np.ndarray | None,
    state_hats: Hats,
) -> tuple[Hats, Geometry]:
    """All nonstiff tendency hats of formulation B with shared transforms.

    Same signature as _tendency_hats_A, with psi in place of F; psi's values
    are not read (the step passes None), only its hat. h is always None, as
    fields.check_params refuses a field in B. Returns (dv_hat, dpsi_hat,
    dM_hat), dv_hat including the explicit -Delta psi coupling, and the
    geometry (G, (I + G)^{-1}, det(I + G)) of G = grad psi, which a record
    reads. The magnetization comes first and M's jacobian is freed, its
    grad M (.) grad M entries kept, before the geometry is made: the geometry
    lives to the return, so the kernel's peak is the inversion of I + G.
    """
    v_hat, psi_hat, m_hat = state_hats
    jac_m = jacobian_from_hat(grid, m_hat)
    dm = _llg_hat(grid, v, m, jac_m, m_hat, None, None, mask)
    gm = _magnetic_stress(jac_m)
    del jac_m
    jac_psi = jacobian_from_hat(grid, psi_hat)
    a, det = identity_plus(grid, jac_psi)
    f = inverse_values(grid, a, "g_of_G", det)
    del a
    stress = _g_values(grid, jac_psi, f)
    stress -= gm
    del gm
    dv = _momentum_hat(grid, v, m, stress, None, mask)
    del stress
    dv += grid.k_sq * psi_hat
    adv_psi = np.einsum("a...,ka...->k...", v, jac_psi)
    dpsi = -v_hat - _masked_fft(grid, adv_psi, mask)
    return (dv, dpsi, dm), (jac_psi, f, det)


def _evaluate(kernel: Kernel, state: StateA | StateB, nu: float, kappa: float,
              h_ext: HExt | None, dealias: bool) -> Rhs:
    """One evaluation with a formulation's kernel: transform the state once,
    add the stiff diffusion to the kernel's stage-1 hats, Leray-project dv
    and hand on the kernel's geometry."""
    grid = state.grid
    h = _h_values(h_ext, grid, state.t)
    values = tuple(f.values for f in state.fields)
    hats = state.field_hats()
    stage1, geometry = kernel(grid, *values, h, _mask(grid, dealias), hats)
    (v_hat, x_hat, m_hat), (dv, dx, dm) = hats, stage1
    dv = leray_hat(grid, dv + nu * (-grid.k_sq) * v_hat)
    if kappa != 0.0:
        dx = dx + kappa * (-grid.k_sq) * x_hat
    dm = dm + (-grid.k_sq) * m_hat
    return Rhs(hats, stage1, (dv, dx, dm), geometry)


def rhs_A(state: StateA, nu: float, kappa: float = 0.0,
          h_ext: HExt | None = None, dealias: bool = True) -> Rhs:
    """All evaluated tendencies of formulation A at the state's time, for div v = 0."""
    return _evaluate(_tendency_hats_A, state, nu, kappa, h_ext, dealias)


def rhs_B(state: StateB, nu: float, dealias: bool = True) -> Rhs:
    """All evaluated tendencies of formulation B (H = 0) at the state's time, for div v = 0."""
    return _evaluate(_tendency_hats_B, state, nu, 0.0, None, dealias)
