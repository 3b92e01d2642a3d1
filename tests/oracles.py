"""Term-by-term reference tendencies, built straight from the PDE.

Each term is formed pointwise from the public array-level operators of
elastomag.spectral and dealiased on its own. Dealiasing is linear, so the
sum agrees to rounding with the fused kernels of elastomag.dynamics, which
dealias whole sums in Fourier space. Nothing here comes from
elastomag.dynamics: these functions are the independent reference that the
kernels are tested against. Index conventions follow elastomag.dynamics:
(grad v)_{ij} = d_j v^i and (div G)_i = d_j G^{ji}. The module also holds
the spectral operators that only tests use: the multi-index derivative
and the zero-mean inverse Laplacian, and the full-jacobian curl residual.
"""

from __future__ import annotations

import numpy as np

from elastomag.fields import HExt
from elastomag.spectral import (
    MatrixField,
    ScalarField,
    TorusGrid,
    VectorField,
    divergence_values,
    jacobian_values,
    laplacian_values,
)

from conftest import dealiased, leray


def _product(grid: TorusGrid, values: np.ndarray, dealias: bool) -> np.ndarray:
    return dealiased(grid, values) if dealias else values


def _h(h_ext: HExt | None, grid: TorusGrid, t: float) -> np.ndarray | None:
    sampled = None if h_ext is None else h_ext.evaluate(grid, t)
    return None if sampled is None else sampled.values


def advect(grid: TorusGrid, v: np.ndarray, field: np.ndarray, dealias: bool) -> np.ndarray:
    """(v . grad) field for a component stack of any rank."""
    jac = jacobian_values(grid, field)
    out = np.zeros_like(field)
    spatial = (slice(None),) * grid.dim
    for i in range(grid.dim):
        out += v[i] * jac[(Ellipsis, i) + spatial]
    return _product(grid, out, dealias)


def stress_div(grid: TorusGrid, mat: np.ndarray, dealias: bool) -> np.ndarray:
    """(div G)_i = d_j G^{ji} of a dealiased (d, d) + shape product."""
    return divergence_values(grid, _product(grid, mat, dealias))


def lagrange_multiplier(M: VectorField, h_ext: HExt | None = None, t: float = 0.0) -> ScalarField:
    """Gamma(M) = |grad M|^2 - M . H."""
    grid = M.grid
    gamma = np.sum(jacobian_values(grid, M.values) ** 2, axis=(0, 1))
    h = _h(h_ext, grid, t)
    if h is not None:
        gamma = gamma - np.sum(M.values * h, axis=0)
    return ScalarField(grid, gamma)


def llg_rhs(v: VectorField | None, M: VectorField, h_ext: HExt | None = None,
            t: float = 0.0, dealias: bool = True) -> VectorField:
    """-v.grad M + Delta M + H + Gamma(M) M - M x (Delta M + H)."""
    grid, m = M.grid, M.values
    lap = laplacian_values(grid, m)
    h = _h(h_ext, grid, t)
    heff = lap if h is None else lap + h
    gamma = lagrange_multiplier(M, h_ext, t).values
    out = lap + _product(grid, gamma * m, dealias)
    out -= _product(grid, np.cross(m, heff, axis=0), dealias)
    if h is not None:
        out += h
    if v is not None:
        out -= advect(grid, v.values, m, dealias)
    return VectorField(grid, out)


def ericksen_stress_div(M: VectorField, dealias: bool = True) -> VectorField:
    """div(grad M (.) grad M), with (grad M (.) grad M)_ij = d_i M_k d_j M_k."""
    grid = M.grid
    jac = jacobian_values(grid, M.values)
    return VectorField(grid, stress_div(grid, np.einsum("ki...,kj...->ij...", jac, jac), dealias))


def elastic_stress_div(F: MatrixField, dealias: bool = True) -> VectorField:
    """div(F F^T)."""
    grid, f = F.grid, F.values
    return VectorField(grid, stress_div(grid, np.einsum("ik...,jk...->ij...", f, f), dealias))


def momentum_rhs_A(v: VectorField, F: MatrixField, M: VectorField, h_ext: HExt | None = None,
                   nu: float = 1.0, t: float = 0.0, dealias: bool = True) -> VectorField:
    """Leray[nu Delta v - v.grad v + div(F F^T) - div(grad M (.) grad M) + (grad H)^T M]."""
    grid = v.grid
    out = nu * laplacian_values(grid, v.values) - advect(grid, v.values, v.values, dealias)
    out += elastic_stress_div(F, dealias).values - ericksen_stress_div(M, dealias).values
    h = _h(h_ext, grid, t)
    if h is not None:
        out += _product(grid, np.einsum("ki...,k...->i...", jacobian_values(grid, h), M.values), dealias)
    return VectorField(grid, leray(grid, out))


def deformation_rhs(v: VectorField, F: MatrixField, kappa: float = 0.0,
                    dealias: bool = True) -> MatrixField:
    """-v.grad F + (grad v) F + kappa Delta F."""
    grid = v.grid
    stretch = np.einsum("ik...,kj...->ij...", jacobian_values(grid, v.values), F.values)
    out = _product(grid, stretch, dealias) - advect(grid, v.values, F.values, dealias)
    if kappa != 0.0:
        out += kappa * laplacian_values(grid, F.values)
    return MatrixField(grid, out)


def g_of_G(G: MatrixField) -> MatrixField:
    """g(G) = (I+G)^{-1} (I+G)^{-T} - I + G + G^T, by pointwise matrix inversion."""
    g = G.values
    eye = np.eye(G.grid.dim).reshape(g.shape[:2] + (1,) * G.grid.dim)
    b = np.moveaxis(np.linalg.inv(np.moveaxis(eye + g, (0, 1), (-2, -1))), (-2, -1), (0, 1))
    return MatrixField(G.grid, np.einsum("ik...,jk...->ij...", b, b) - eye + g + np.swapaxes(g, 0, 1))


def curl_residual(G: MatrixField) -> float:
    """max over the grid and all (i, j, k) of |d_i G^{jk} - d_k G^{ji}|, from
    the full jacobian of G: all d^3 derivatives d_i G^{jk}, diagonal ones too."""
    grid = G.grid
    jac = jacobian_values(grid, G.values)  # jac[j, k, i] = d_i G^{jk}
    res = 0.0
    for j in range(grid.dim):
        for k in range(grid.dim):
            for i in range(k):
                diff = jac[j, k, i] - jac[j, i, k]
                res = max(res, float(np.max(np.abs(diff))))
    return res


def momentum_rhs_B(v: VectorField, psi: VectorField, M: VectorField, nu: float = 1.0,
                   dealias: bool = True) -> VectorField:
    """Leray[nu Delta v - Delta psi - v.grad v + div g(grad psi) - div(grad M (.) grad M)]."""
    grid = v.grid
    out = nu * laplacian_values(grid, v.values) - laplacian_values(grid, psi.values)
    out -= advect(grid, v.values, v.values, dealias)
    gmat = g_of_G(MatrixField(grid, jacobian_values(grid, psi.values))).values
    out += stress_div(grid, gmat, dealias) - ericksen_stress_div(M, dealias).values
    return VectorField(grid, leray(grid, out))


def psi_rhs(v: VectorField, psi: VectorField, dealias: bool = True) -> VectorField:
    """-v - v.grad psi."""
    return VectorField(v.grid, -v.values - advect(v.grid, v.values, psi.values, dealias))


def trig_sum(grid: TorusGrid, modes: list[tuple[int, ...]], a: np.ndarray,
             b: np.ndarray) -> np.ndarray:
    """sum_m a[:, m] cos(k_m.x) + b[:, m] sin(k_m.x), evaluated at every grid node."""
    ncomp = a.shape[0]
    out = np.zeros((ncomp,) + grid.shape)
    lift = (slice(None),) + (None,) * grid.dim
    for m, k in enumerate(modes):
        phase = np.zeros(grid.shape)
        for i, ki in enumerate(k):
            if ki:
                phase += ki * grid.x[i]
        out += a[:, m][lift] * np.cos(phase) + b[:, m][lift] * np.sin(phase)
    return out


def _deriv_multiplier(grid: TorusGrid, m: tuple[int, ...]) -> np.ndarray:
    """Fourier multiplier prod_i (i*k_i)^m_i of the multi-index m."""
    if len(m) != grid.dim:
        raise ValueError(f"multi-index length {len(m)} != grid dim {grid.dim}")
    if any(mi < 0 for mi in m):
        raise ValueError(f"multi-index entries must be >= 0, got {m}")
    mult = np.ones(grid.hat_shape, dtype=np.complex128)
    for i, mi in enumerate(m):
        if mi > 0:
            mult = mult * (1j * grid.k[i]) ** mi
    return mult


def deriv_values(grid: TorusGrid, values: np.ndarray, m: tuple[int, ...]) -> np.ndarray:
    """Partial derivative of multi-index m via the multiplier prod_i (i*k_i)^m_i."""
    return grid.ifft(grid.fft(values) * _deriv_multiplier(grid, m))


def inverse_laplacian_values(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Zero-mean inverse Laplacian; the zero mode of the result is 0."""
    return grid.ifft(grid.fft(values) * (-grid.inv_k_sq))


def imex2_step_matrix(stiff: np.ndarray, explicit: np.ndarray, dt: float) -> np.ndarray:
    """IMEX2's one-step map y_k -> y_{k+1} of the linear system y' = L y + N y,
    with L = diag(stiff) implicit and N = explicit, in closed form:
    y* = (I - dt L)^{-1} (I + dt N) y_k and
    y_{k+1} = (I - dt/2 L)^{-1} [(I + dt/2 L) y_k + dt/2 N (y_k + y*)]."""
    eye = np.eye(len(stiff))
    predictor = np.diag(1.0 / (1.0 - dt * stiff)) @ (eye + dt * explicit)
    return np.diag(1.0 / (1.0 - 0.5 * dt * stiff)) @ (
        np.diag(1.0 + 0.5 * dt * stiff) + 0.5 * dt * explicit @ (eye + predictor)
    )


def transverse_step_B(nu: float, k_sq: float, dt: float) -> np.ndarray:
    """IMEX2's one-step matrix of formulation B's transverse (v-hat, psi-hat)
    pair at a mode of squared wavenumber k_sq, linearized about rest (v = 0,
    psi = 0, M = e3): v' = -nu |k|^2 v + |k|^2 psi and psi' = -v, with the
    stiff part diag(-nu |k|^2, 0) and the explicit part [[0, |k|^2], [-1, 0]]."""
    return imex2_step_matrix(np.array([-nu * k_sq, 0.0]),
                             np.array([[0.0, k_sq], [-1.0, 0.0]]), dt)
