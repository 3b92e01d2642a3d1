"""Constructive solution schemes: mollified magnetization flow and Picard iteration.

Two solver families live here. solve_llg_given_v integrates the
magnetization equation with a prescribed velocity, wrapping every nonlinear
term in a sharp Fourier-ball projection J (cutoff=None means the native
2/3-rule projection, i.e. full resolution). picard_iterate runs the staged
linearization: per iterate a linear implicit Stokes-type velocity solve with
frozen sources, a deformation update driven by the previous iterate, and a
full magnetization solve with the previous iterate's velocity. Both come
with convergence-study drivers that report the quantities the acceptance
checks assert.

Both families advance in time with the IMEX2 rule of the timestepper
(timestepper._imex2, shared with step_A and step_B) through one
single-field march, _march: _integrate_llg runs it on M with diffusivity 1
and the magnetization tendency of dynamics._llg_hat under the projection's
mask, and the transported Picard deformation on F with diffusivity kappa.
The Picard velocity and frozen deformation stages march with its
Crank-Nicolson stage and sources known at the nodes (_cn_march).

Every march has one node contract: on_node(k, t, x, x_hat) fires at each
node, the initial one included, with the values and the transform the next
step starts from, and a non-finite value raises BlowUpError at its node's
time. The solvers read their node norms from that transform instead of
transforming the node again.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .dynamics import (
    _deformation_hat,
    _h_values,
    _llg_hat,
    _mask,
    _momentum_hat,
)
from .energetics import (
    _hat_norm_sq, _hat_sq, _local, grad_sobolev_norm_sq, l2_norm_sq_modes,
    local_functionals, sobolev_norm_sq,
)
from .errors import BlowUpError, NumericalError
from .fields import HExt, PhysParams, StateA, det_field, sphere_residual
from .spectral import (
    MatrixField,
    TorusGrid,
    VectorField,
    divergence_from_hat,
    divergence_values,
    jacobian_from_hat,
    jacobian_values,
    leray_hat,
)
from .timestepper import IntegratorConfig, _cn_stage, _imex2, _step_count

VProvider = Callable[[float], VectorField]
NodeHook = Callable[[int, float, np.ndarray, np.ndarray], None]

SPHERE_TOL = 1e-8
DIV_TOL = 1e-10
DET_TOL = 1e-6


# --------------------------------------------------------------------------
# Magnetization flow with prescribed velocity (mollified scheme)
# --------------------------------------------------------------------------


def _march(grid: TorusGrid, x0: np.ndarray,
           tendency: Callable[[np.ndarray, np.ndarray, float], np.ndarray], c: float,
           dt: float, n_steps: int, on_node: NodeHook) -> np.ndarray:
    """IMEX2 march of x_t = c Delta x + N(x, t) from x0, tendency(x, x_hat, t)
    being N's hat; on_node(k, t, x, x_hat) fires at every node including the
    initial one, with the transform the next step starts from. Returns the
    final values; a non-finite one raises BlowUpError."""

    def tendency_hats(values, hats, t):
        return (tendency(values[0], hats[0], t),)

    x = x0
    x_hat = grid.fft(x)
    on_node(0, 0.0, x, x_hat)
    for k in range(n_steps):
        (x,) = _imex2(grid, (x,), (x_hat,), k * dt, dt, tendency_hats, (c,), (None,))
        t1 = (k + 1) * dt
        if not np.all(np.isfinite(x)):
            raise BlowUpError(t1)
        x_hat = grid.fft(x)
        on_node(k + 1, t1, x, x_hat)
    return x


def _integrate_llg(
    grid: TorusGrid,
    m0: np.ndarray,
    v_at: Callable[[float], np.ndarray | None],
    h_ext: HExt | None,
    mask: np.ndarray | None,
    dt: float,
    n_steps: int,
    on_node: NodeHook,
) -> np.ndarray:
    """Integrate the magnetization flow with the single-field IMEX2 march.

    Delta M is Crank-Nicolson, everything else trapezoidal-explicit, with
    the nonlinear terms truncated to mask (None: no truncation); on_node
    fires at every node including the initial one.
    """

    def tendency(m, m_hat, t):
        jac = jacobian_from_hat(grid, m_hat)
        return _llg_hat(grid, v_at(t), m, jac, m_hat, _h_values(h_ext, grid, t), mask)

    return _march(grid, m0, tendency, 1.0, dt, n_steps, on_node)


@dataclass(frozen=True, eq=False)
class MollifierRun:
    """One mollified magnetization integration and its energy series.

    e_eps[i] = ||grad M||^2_{H^s} + ||M - J M0||^2_{L^2} at times[i];
    d_eps[i] = ||Delta M||^2_{H^s}; e0 is ||grad M0||^2_{H^s} of the
    untruncated initial data, so e_eps[0] <= e0 always holds.
    """

    cutoff: float | None
    s: int
    times: list[float]
    e_eps: list[float]
    d_eps: list[float]
    M0_truncated: VectorField
    M_final: VectorField
    e0: float
    trajectory: list[tuple[float, VectorField]]

    @property
    def sup_e_eps(self) -> float:
        return max(self.e_eps)


def solve_llg_given_v(
    v_provider: VProvider | None,
    M0: VectorField,
    h_ext: HExt | None,
    cutoff: float | None,
    s: int,
    cfg: IntegratorConfig,
) -> MollifierRun:
    """Integrate the magnetization flow with velocity supplied from outside.

    cutoff = K wraps each nonlinear term in the sharp ball projection
    |k| <= K and starts from the projected initial data; cutoff = None uses
    the native 2/3-rule projection (full resolution). K must not exceed n/3.
    """
    grid = M0.grid
    if sphere_residual(M0) > SPHERE_TOL:
        raise ValueError("initial magnetization must be unit length before truncation")
    if cutoff is not None and cutoff <= 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    if cutoff is not None and cutoff > grid.n / 3.0:
        raise ValueError(f"cutoff {cutoff} exceeds the dealias bound n/3 = {grid.n / 3:g}")

    mask = grid.dealias_mask if cutoff is None else grid.k_sq <= cutoff * cutoff

    def v_at(t: float) -> np.ndarray | None:
        return None if v_provider is None else v_provider(t).values

    m0_trunc = grid.ifft(grid.fft(M0.values) * mask)
    n_steps = _step_count(cfg.t_end, cfg.dt)
    times: list[float] = []
    e_eps: list[float] = []
    d_eps: list[float] = []
    trajectory: list[tuple[float, VectorField]] = []

    def on_node(k: int, t: float, m: np.ndarray, m_hat: np.ndarray) -> None:
        if k % cfg.diag_every == 0 or k == n_steps:
            sq = _hat_sq(m_hat)
            times.append(t)
            e_eps.append(
                _hat_norm_sq(grid, sq, s, 1) + l2_norm_sq_modes(VectorField(grid, m - m0_trunc))
            )
            d_eps.append(_hat_norm_sq(grid, sq, s, 2))
        if cfg.snapshot_every > 0 and (k % cfg.snapshot_every == 0 or k == n_steps):
            trajectory.append((t, VectorField(grid, m.copy())))

    m_final = _integrate_llg(grid, m0_trunc, v_at, h_ext, mask, cfg.dt, n_steps, on_node)
    return MollifierRun(
        cutoff=cutoff,
        s=s,
        times=times,
        e_eps=e_eps,
        d_eps=d_eps,
        M0_truncated=VectorField(grid, m0_trunc),
        M_final=VectorField(grid, m_final),
        e0=grad_sobolev_norm_sq(M0, s),
        trajectory=trajectory,
    )


@dataclass(frozen=True, eq=False)
class MollifierReport:
    """Cutoff-refinement study: pairwise final-time differences and bounds.

    diffs[i] = ||M^{K_i} - M^{K_{i+1}}||_{L^2} at t_end; drop_factors[i] =
    diffs[i] / diffs[i+1]; bound_ok asserts sup_t E_eps <= 2.2 E0 per run.
    """

    cutoffs: list[float]
    runs: list[MollifierRun]
    diffs: list[float]
    e0: float
    e_bound: float
    bound_ok: bool

    @property
    def drop_factors(self) -> list[float]:
        return [
            self.diffs[i] / self.diffs[i + 1] if self.diffs[i + 1] > 0 else float("inf")
            for i in range(len(self.diffs) - 1)
        ]


def mollifier_convergence_study(
    cutoffs: list[float],
    M0: VectorField,
    h_ext: HExt | None,
    s: int,
    cfg: IntegratorConfig,
    v_provider: VProvider | None = None,
) -> MollifierReport:
    """Run the mollified scheme across increasing cutoffs and compare limits."""
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly increasing, got {cutoffs}")
    runs = [solve_llg_given_v(v_provider, M0, h_ext, k, s, cfg) for k in cutoffs]
    grid = M0.grid
    diffs = [
        math.sqrt(
            l2_norm_sq_modes(VectorField(grid, a.M_final.values - b.M_final.values))
        )
        for a, b in zip(runs, runs[1:])
    ]
    e0 = runs[0].e0 if runs else 0.0
    e_bound = 2.2 * e0
    bound_ok = all(r.sup_e_eps <= e_bound for r in runs)
    return MollifierReport(
        cutoffs=list(cutoffs), runs=runs, diffs=diffs, e0=e0, e_bound=e_bound, bound_ok=bound_ok
    )


# --------------------------------------------------------------------------
# Picard iteration
# --------------------------------------------------------------------------


def picard_metric(a: StateA, b: StateA, s: int) -> float:
    """||dv||_{H^s} + ||dF||_{H^s} + ||grad dM||_{H^s} between two states."""
    grid = a.grid
    return (
        math.sqrt(sobolev_norm_sq(VectorField(grid, a.v.values - b.v.values), s))
        + math.sqrt(sobolev_norm_sq(MatrixField(grid, a.F.values - b.F.values), s))
        + math.sqrt(grad_sobolev_norm_sq(VectorField(grid, a.M.values - b.M.values), s))
    )


@dataclass(frozen=True, eq=False)
class PicardRun:
    """Iterate trajectory summary of the staged linearization.

    states_at_T[n] is iterate n at the horizon cfg.t_end (index 0 is the
    constant-in-time initial data); diffs[n] is the metric distance between
    iterates n+1 and n there; e_sup/d_int/div_v_res/sphere_res are per
    computed iterate (index n corresponds to iterate n+1).
    """

    variant: str
    s: int
    e0: float
    states_at_T: list[StateA]
    diffs: list[float]
    e_sup: list[float]
    d_int: list[float]
    div_v_res: list[float]
    sphere_res: list[float]

    @property
    def ratios(self) -> list[float]:
        return [
            self.diffs[i] / self.diffs[i - 1] if self.diffs[i - 1] > 0 else float("nan")
            for i in range(1, len(self.diffs))
        ]


@contextmanager
def _stage(name: str, n: int) -> Iterator[None]:
    """Context decoration for per-stage numerical failures."""
    try:
        yield
    except NumericalError as exc:
        t = getattr(exc, "t", float("nan"))
        raise BlowUpError(t, f"iterate {n} {name} stage: {exc}") from exc


def _cn_march(grid: TorusGrid, x0: np.ndarray, source_hat: Callable[[int], np.ndarray],
              c: float, dt: float, n_steps: int,
              post: Callable[[TorusGrid, np.ndarray], np.ndarray] | None,
              on_node: NodeHook) -> None:
    """Crank-Nicolson march of x_t = c Delta x + source from x0, source_hat(k)
    being the source's hat at node k; on_node fires as in _march. post (None:
    identity) acts on each new hat before its transform; a non-finite value
    raises BlowUpError at its node's time."""
    x = x0
    x_hat = grid.fft(x)
    on_node(0, 0.0, x, x_hat)
    n1 = source_hat(0)
    for k in range(n_steps):
        n2 = source_hat(k + 1)
        hat = _cn_stage(grid, x_hat, n1, n2, c, dt)
        x = grid.ifft(hat if post is None else post(grid, hat))
        t1 = (k + 1) * dt
        if not np.all(np.isfinite(x)):
            raise BlowUpError(t1)
        x_hat = grid.fft(x)
        on_node(k + 1, t1, x, x_hat)
        n1 = n2


def _keeper(grid: TorusGrid, s: int, traj: np.ndarray, cols: dict[int, np.ndarray],
            div: np.ndarray | None = None) -> NodeHook:
    """on_node that stores node k's values in traj[k] and, from the hat the
    march made, _hat_norm_sq(., s, power) in cols[power][k] and, given div,
    max |div x| in div[k]."""

    def on_node(k: int, t: float, x: np.ndarray, x_hat: np.ndarray) -> None:
        traj[k] = x
        sq = _hat_sq(x_hat)
        for power, col in cols.items():
            col[k] = _hat_norm_sq(grid, sq, s, power)
        if div is not None:
            div[k] = np.max(np.abs(divergence_from_hat(grid, x_hat)))

    return on_node


def picard_iterate(
    initial: StateA,
    params: PhysParams,
    n_max: int,
    cfg: IntegratorConfig,
    s: int,
    variant: str = "frozen",
    dealias: bool = True,
) -> PicardRun:
    """Run the staged linearization from constant-in-time initial data.

    Per iterate: (i) the velocity solves a linear implicit-diffusion system
    with trapezoidal sources assembled from the previous iterate; (ii) the
    deformation update uses the previous iterate's velocity, either with the
    previous iterate's deformation on the right-hand side ("frozen", a pure
    time quadrature, the form the staged system displays) or transporting
    the new deformation ("transported"); (iii) the magnetization solves the
    full nonlinear flow with the previous iterate's velocity at full
    resolution. The horizon is cfg.t_end; successive-difference norms are
    recorded there. Each march hands every node to a _keeper, which keeps
    the trajectory for the next iterate and the node's norms, so E_s and D_s
    per node come from the hats the marches made.
    """
    if variant not in ("frozen", "transported"):
        raise ValueError(f"unknown deformation variant {variant!r}")
    grid = initial.grid
    if float(np.max(np.abs(divergence_values(grid, initial.v.values)))) > DIV_TOL:
        raise ValueError("initial velocity must be divergence-free")
    if float(np.max(np.abs(det_field(initial.F).values - 1.0))) > DET_TOL:
        raise ValueError("initial deformation must have unit determinant")
    if sphere_residual(initial.M) > SPHERE_TOL:
        raise ValueError("initial magnetization must be unit length")

    dt = cfg.dt
    n_steps = _step_count(cfg.t_end, dt)
    mask = _mask(grid, dealias)
    nodes = n_steps + 1
    d = grid.dim

    prev_v = np.broadcast_to(initial.v.values, (nodes, d) + grid.shape).copy()
    prev_f = np.broadcast_to(initial.F.values, (nodes, d, d) + grid.shape).copy()
    prev_m = np.broadcast_to(initial.M.values, (nodes, 3) + grid.shape).copy()

    e_s0, _ = local_functionals(initial, params.nu, s)
    states_at_T = [StateA(t=cfg.t_end, v=initial.v, F=initial.F, M=initial.M)]
    diffs: list[float] = []
    e_sup: list[float] = []
    d_int: list[float] = []
    div_res: list[float] = []
    sphere_res_list: list[float] = []

    for n in range(1, n_max + 1):
        new_v, new_f, new_m = (np.empty_like(x) for x in (prev_v, prev_f, prev_m))
        # per-node norms at order s: at[name][power], the terms _local sums
        at = {name: {power: np.empty(nodes) for power in powers}
              for name, powers in (("v", (0, 1)), ("F", (0,)), ("M", (1, 2)))}
        div_nodes = np.empty(nodes)

        with _stage("velocity", n):

            def source_hat(k: int) -> np.ndarray:
                v, f, m = prev_v[k], prev_f[k], prev_m[k]
                jac_v, jac_m = jacobian_values(grid, v), jacobian_values(grid, m)
                h = _h_values(params.h_ext, grid, k * dt)
                stress = np.einsum("ik...,jk...->ij...", f, f)
                return leray_hat(grid, _momentum_hat(grid, v, m, jac_v, jac_m, stress, h, mask))

            _cn_march(grid, initial.v.values, source_hat, params.nu, dt, n_steps, leray_hat,
                      _keeper(grid, s, new_v, at["v"], div_nodes))

        with _stage("deformation", n):
            on_f_node = _keeper(grid, s, new_f, at["F"])

            def deformation_hat(v: np.ndarray, f: np.ndarray, f_hat: np.ndarray) -> np.ndarray:
                jac_v, jac_f = jacobian_values(grid, v), jacobian_from_hat(grid, f_hat)
                return _deformation_hat(grid, v, f, jac_v, jac_f, mask)

            if variant == "frozen":

                def frozen_hat(k: int) -> np.ndarray:
                    return deformation_hat(prev_v[k], prev_f[k], grid.fft(prev_f[k]))

                _cn_march(grid, initial.F.values, frozen_hat, params.kappa, dt, n_steps, None,
                          on_f_node)
            else:

                def transported_hat(f: np.ndarray, f_hat: np.ndarray, t: float) -> np.ndarray:
                    return deformation_hat(prev_v[round(t / dt)], f, f_hat)

                _march(grid, initial.F.values, transported_hat, params.kappa, dt, n_steps,
                       on_f_node)

        with _stage("magnetization", n):
            _integrate_llg(
                grid,
                initial.M.values.copy(),
                lambda t: prev_v[round(t / dt)],
                params.h_ext,
                mask,
                dt,
                n_steps,
                _keeper(grid, s, new_m, at["M"]),
            )

        # copies, so a stored state does not keep its iterate's trajectory alive
        final = (new_v[-1].copy(), new_f[-1].copy(), new_m[-1].copy())
        new_state = StateA.from_values(cfg.t_end, grid, final)
        diffs.append(picard_metric(new_state, states_at_T[-1], s))
        states_at_T.append(new_state)

        e_nodes, d_nodes = _local(lambda name, _, power=0: at[name][power], params.nu, s)
        e_sup.append(float(np.max(e_nodes)))
        d_int.append(float(dt * (np.sum(d_nodes) - 0.5 * d_nodes[0] - 0.5 * d_nodes[-1])))
        div_res.append(float(np.max(div_nodes)))
        sphere_res_list.append(sphere_residual(new_state.M))

        prev_v, prev_f, prev_m = new_v, new_f, new_m

    return PicardRun(
        variant=variant,
        s=s,
        e0=e_s0,
        states_at_T=states_at_T,
        diffs=diffs,
        e_sup=e_sup,
        d_int=d_int,
        div_v_res=div_res,
        sphere_res=sphere_res_list,
    )
