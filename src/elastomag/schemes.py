"""Constructive solution schemes: mollified magnetization flow and Picard iteration.

Two solver families live here. solve_llg_given_v integrates the
magnetization equation with the velocity at rest, wrapping every nonlinear
term in a sharp Fourier-ball projection J (cutoff=None means the native
2/3-rule projection, i.e. full resolution). picard_iterate runs the staged
linearization: per iterate a linear implicit Stokes-type velocity solve with
frozen sources, a deformation update driven by the previous iterate, and a
full magnetization solve with the previous iterate's velocity. Both come
with convergence-study drivers that report the quantities the acceptance
checks assert.

Both families advance in time with the IMEX2 rule of the timestepper, one
timestepper._imex2 call per field and step with the field's entry of
dynamics._linear_split, and start each step from the hats the last one
returned: no node is transformed. _integrate_llg is the whole mollified
solve: it checks and truncates the initial data, marches M alone from a
given t0 (M0 carries no time) with the tendency of dynamics._llg_hat under
the projection's mask, and at each node, the initial one included, sums the
mollified energies over the hat the next step starts from and copies M into
the trajectory on the snapshot cadence.

picard_iterate makes one sweep over the time steps from the initial state's
time. At step k -> k+1, iterates n = 1, 2, ... in turn step each of v, F and
M by its own call, reading iterate n-1's node k+1 and no other field of the
iterate: v and F take that node's sources (Crank-Nicolson) and declare no
predictor, M declares its predictor and is evaluated there with that node's
v. The v and F tendencies (dynamics._momentum_hat and _deformation_hat) make
no jacobian of v or F and assume the div v = 0 that iterate n-1's velocity
meets. Each node is an energetics._StateHats view of its fields' values and
hats, which makes each jacobian at most once, for every stage and norm that
reads it, and lives until iterate n+1 has read it; between steps an iterate
holds only its per-field hats and next first stages, and no trajectory is
stored. No iterate reads the last iterate's nodes, so before the horizon
it keeps only the hats of v and F and makes no node; its norms and the
finiteness check of v and F read those hats. Iterate 1 reads the constant
iterate 0, so node 0's sources and M's first stage serve every iterate
(with no external field the velocity source at every step), and a field's
values and hat are made once per time and serve every iterate and term.
In both families a non-finite value raises BlowUpError at its node's time;
in the sweep, for the first (node, iterate, stage) in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import dynamics
from .energetics import _StateHats, _hat_norm_sq, _hat_sq, _local, _norms, sobolev_norm_sq
from .errors import BlowUpError
from .fields import HExt, PhysParams, StateA, det_field, sphere_residual
from .spectral import (
    MatrixField,
    TorusGrid,
    VectorField,
    divergence_from_hat,
    jacobian_from_hat,
    leray_hat,
)
from .timestepper import IntegratorConfig, _imex2, _step_count

SPHERE_TOL = 1e-8
DIV_TOL = 1e-10
DET_TOL = 1e-6


# --------------------------------------------------------------------------
# Magnetization flow with the velocity at rest (mollified scheme)
# --------------------------------------------------------------------------


def _field_at(h_ext: HExt | None, grid: TorusGrid, t: float
              ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The external field's values at t and their hat, both None for no field."""
    h = dynamics._h_values(h_ext, grid, t)
    return h, None if h is None else grid.fft(h)


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
    M0: VectorField,
    h_ext: HExt | None,
    cutoff: float | None,
    s: int,
    cfg: IntegratorConfig,
    t0: float = 0.0,
) -> MollifierRun:
    """Integrate the magnetization flow with the velocity at rest, from t0.

    cutoff = K wraps each nonlinear term in the sharp ball projection
    |k| <= K and starts from the projected initial data; cutoff = None uses
    the native 2/3-rule projection (full resolution). K must not exceed n/3.
    """
    return _integrate_llg(M0, M0.grid.fft(M0.values), h_ext, cutoff, s, cfg, t0)


def _integrate_llg(
    M0: VectorField,
    m0_hat: np.ndarray,
    h_ext: HExt | None,
    cutoff: float | None,
    s: int,
    cfg: IntegratorConfig,
    t0: float,
) -> MollifierRun:
    """solve_llg_given_v from M0 and its hat m0_hat, which a study makes once
    for all its cutoffs, with one single-field IMEX2 call per step (M's entry
    of dynamics._linear_split), the nonlinear terms truncated to the cutoff's
    mask. Node k is at t0 + k*dt."""
    grid = M0.grid
    if sphere_residual(M0) > SPHERE_TOL:
        raise ValueError("initial magnetization must be unit length before truncation")
    if cutoff is not None and cutoff <= 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    if cutoff is not None and cutoff > grid.n / 3.0:
        raise ValueError(f"cutoff {cutoff} exceeds the dealias bound n/3 = {grid.n / 3:g}")

    mask = grid.dealias_mask if cutoff is None else grid.k_sq <= cutoff * cutoff
    m0_trunc_hat = m0_hat * mask
    m0_trunc = grid.ifft(m0_trunc_hat)
    dt, n_steps = cfg.dt, _step_count(cfg.t_end, cfg.dt)
    stiff_m = dynamics._linear_split("A", 0.0, 0.0)[2:]  # M's entry, which no parameter reaches

    def nonstiff(values, hats, t):
        (m,), (m_hat,) = values, hats
        jac = jacobian_from_hat(grid, m_hat)
        return (dynamics._llg_hat(grid, None, m, jac, m_hat, *_field_at(h_ext, grid, t), mask),)

    times: list[float] = []
    e_eps: list[float] = []
    d_eps: list[float] = []
    trajectory: list[tuple[float, VectorField]] = []
    m, m_hat = m0_trunc, m0_trunc_hat
    for k in range(n_steps + 1):
        t = t0 + k * dt
        if k > 0:
            tk = t0 + (k - 1) * dt  # the step from node k-1 starts there, not at t - dt
            (m,), (m_hat,) = _imex2(grid, (m_hat,), nonstiff((m,), (m_hat,), tk), tk, dt,
                                    nonstiff, (True,), (True,), stiff_m)
            if not np.all(np.isfinite(m)):
                raise BlowUpError(t)
        if k % cfg.diag_every == 0 or k == n_steps:
            sq = _hat_sq(m_hat)
            times.append(t)
            e_eps.append(
                _hat_norm_sq(grid, sq, s, 1) + _hat_norm_sq(grid, _hat_sq(m_hat - m0_trunc_hat), 0)
            )
            d_eps.append(_hat_norm_sq(grid, sq, s, 2))
        if cfg.snapshot_every > 0 and (k % cfg.snapshot_every == 0 or k == n_steps):
            trajectory.append((t, VectorField(grid, m.copy())))
    return MollifierRun(
        cutoff=cutoff,
        s=s,
        times=times,
        e_eps=e_eps,
        d_eps=d_eps,
        M0_truncated=VectorField(grid, m0_trunc),
        M_final=VectorField(grid, m),
        e0=_hat_norm_sq(grid, _hat_sq(m0_hat), s, 1),
        trajectory=trajectory,
    )


@dataclass(frozen=True, eq=False)
class MollifierReport:
    """Cutoff-refinement study: pairwise final-time differences and bounds.

    diffs[i] = ||M^{K_i} - M^{K_{i+1}}||_{L^2} at t_end; drop_factors[i] =
    diffs[i] / diffs[i+1]; bound_ok asserts sup_t E_eps <= 2.2 E0 per run.
    """

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
    t0: float = 0.0,
) -> MollifierReport:
    """Run the mollified scheme from t0 across increasing cutoffs and compare limits;
    M0 is transformed once for all cutoffs."""
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly increasing, got {cutoffs}")
    grid = M0.grid
    m0_hat = grid.fft(M0.values)
    runs = [_integrate_llg(M0, m0_hat, h_ext, k, s, cfg, t0) for k in cutoffs]
    diffs = [
        math.sqrt(
            sobolev_norm_sq(VectorField(grid, a.M_final.values - b.M_final.values), 0)
        )
        for a, b in zip(runs, runs[1:])
    ]
    e0 = runs[0].e0 if runs else 0.0
    e_bound = 2.2 * e0
    bound_ok = all(r.sup_e_eps <= e_bound for r in runs)
    return MollifierReport(runs=runs, diffs=diffs, e0=e0, e_bound=e_bound, bound_ok=bound_ok)


# --------------------------------------------------------------------------
# Picard iteration
# --------------------------------------------------------------------------


def picard_metric(a: StateA, b: StateA, s: int) -> float:
    """||dv||_{H^s} + ||dF||_{H^s} + ||grad dM||_{H^s} between two states."""
    grid = a.grid
    return (
        math.sqrt(sobolev_norm_sq(VectorField(grid, a.v.values - b.v.values), s))
        + math.sqrt(sobolev_norm_sq(MatrixField(grid, a.F.values - b.F.values), s))
        + math.sqrt(sobolev_norm_sq(VectorField(grid, a.M.values - b.M.values), s, 1))
    )


@dataclass(frozen=True, eq=False)
class PicardRun:
    """Iterate trajectory summary of the staged linearization.

    states_at_T[n] is iterate n at the horizon initial.t + cfg.t_end (index 0
    is the constant-in-time initial data); diffs[n] is the metric distance
    between iterates n+1 and n there; e_sup/d_int/div_v_res/sphere_res are
    per computed iterate (index n corresponds to iterate n+1).
    """

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


_STAGES = ("velocity", "deformation", "magnetization")


def picard_iterate(
    initial: StateA,
    params: PhysParams,
    n_max: int,
    cfg: IntegratorConfig,
    s: int,
    dealias: bool = True,
) -> PicardRun:
    """Run the staged linearization from constant-in-time initial data.

    Per iterate: (i) the velocity solves a linear implicit-diffusion system
    with trapezoidal sources assembled from the previous iterate; (ii) the
    deformation update is a pure time quadrature of the previous iterate's
    velocity and deformation, the form the staged system displays; (iii)
    the magnetization solves the full nonlinear flow with the previous
    iterate's velocity at full resolution. The run starts at initial.t and
    lasts cfg.t_end; successive-difference norms are recorded at its end.

    One sweep over the time steps advances every iterate: for k = 0, 1, ...,
    iterates n = 1..n_max in turn step each of v, F and M from k to k+1 by
    its own one-field IMEX2 call, reading iterate n-1's node k+1 (iterate 0
    is one constant node) and no other field of their own iterate. v and F
    take that node's sources (Crank-Nicolson) and declare no predictor; M
    declares its predictor and is evaluated there with that node's v.

    Between steps an iterate holds only its per-field hats and next first
    stages: the sources of v and F at iterate n-1's node and M's tendency at
    its new values. A node lives until iterate n+1 has read it, and the last
    step keeps only the states; before it, the last iterate keeps v and F as
    hats only. E_s and D_s per node come from the node's hats. A non-finite
    value (a hat where only the hat is kept) raises BlowUpError for the
    first (node, iterate, stage) in this order.
    """
    grid = initial.grid
    node0 = _StateHats(initial)
    e0, d0 = _local(_norms(grid, node0), params.nu, s)
    div0 = float(np.max(np.abs(divergence_from_hat(grid, node0["v"]))))
    if div0 > DIV_TOL:
        raise ValueError("initial velocity must be divergence-free")
    if float(np.max(np.abs(det_field(initial.F).values - 1.0))) > DET_TOL:
        raise ValueError("initial deformation must have unit determinant")
    if sphere_residual(initial.M) > SPHERE_TOL:
        raise ValueError("initial magnetization must be unit length")

    dt, nu, kappa = cfg.dt, params.nu, params.kappa
    mask = dynamics._mask(grid, dealias)
    # a step reads the field at t1 and its predictor's t0 + dt, for every
    # iterate and term: each time's values and hat are made once
    field = lru_cache(maxsize=3)(partial(_field_at, params.h_ext, grid))

    def velocity_hat(p: _StateHats, t: float) -> np.ndarray:
        v, f, m = (x.values for x in p.state.fields)
        return leray_hat(grid, dynamics._momentum_hat(
            grid, v, m, dynamics._stress_A(f, p.jac("M")), field(t)[1], mask))

    def deformation_hat(p: _StateHats) -> np.ndarray:
        return dynamics._deformation_hat(grid, p.state.v.values, p.state.F.values, p["F"], mask)

    def llg_hat(p: _StateHats, m: np.ndarray, m_hat: np.ndarray, jac_m: np.ndarray,
                t: float) -> np.ndarray:
        return dynamics._llg_hat(grid, p.state.v.values, m, jac_m, m_hat, *field(t), mask)

    start, n_steps = initial.t, _step_count(cfg.t_end, dt)
    # node 0's sources serve every iterate; with no field its v source is the
    # same at every time
    src0 = (velocity_hat(node0, start), deformation_hat(node0))

    def source(j: int, p: _StateHats, t: float) -> np.ndarray:
        # v's (j = 0) or F's Crank-Nicolson source at iterate n-1's node p
        if p is node0 and (j == 1 or params.h_ext.is_zero):
            return src0[j]
        return velocity_hat(p, t) if j == 0 else deformation_hat(p)

    # the one-field tendencies (timestepper._imex2's nonstiff): v's and F's is
    # their given source, M's reads iterate n-1's node p1
    def given(src: np.ndarray, values: tuple, hats: tuple, t: float) -> tuple[np.ndarray]:
        return (src,)

    def magnetization(p1: _StateHats, values: tuple, hats: tuple, t: float
                      ) -> tuple[np.ndarray]:
        (m,), (m_hat,) = values, hats
        return (llg_hat(p1, m, m_hat, jacobian_from_hat(grid, m_hat), t),)

    # per iterate: its hats and first-stage hats at node k; at step 0 every
    # iterate's node and its predecessor's are node 0
    stage0 = llg_hat(node0, initial.M.values, node0["M"], node0.jac("M"), start)
    held = [(tuple(node0[name] for name in StateA.names), (*src0, stage0))] * n_max
    states = [replace(initial, t=start + cfg.t_end, hats=None)] * (n_max + 1)
    e_sup = [e0] * n_max
    div_res = [div0] * n_max
    # scalar D_s per node, for the trapezoid
    d_nodes = [[d0] for _ in range(n_max)]

    for k in range(n_steps):
        t0, t1, last = start + k * dt, start + (k + 1) * dt, k == n_steps - 1
        p1 = node0  # iterate n-1's node k+1
        for i in range(n_max):
            # no iterate reads the last one's nodes: before the horizon it keeps v and F as hats
            bare = i == n_max - 1 and not last
            # per field: new values and hat, next first stage, v's max |div v| or M's jacobians
            cells = []
            for j, (hat, n1) in enumerate(zip(*held[i])):
                src = source(j, p1, t1) if j < 2 else None
                if src is None:  # M reads its predictor
                    tendency, reads = partial(magnetization, p1), True
                else:
                    tendency, reads = partial(given, src), None
                (x,), (x_hat,) = _imex2(grid, (hat,), (n1,), t0, dt, tendency, (reads,),
                                        (j == 2 or not bare,),
                                        (dynamics._linear_split("A", nu, kappa)[j],))
                if not np.all(np.isfinite(x_hat if x is None else x)):
                    raise BlowUpError(
                        t1, f"iterate {i + 1} {_STAGES[j]} stage: {BlowUpError(t1)}")
                extra, n1 = None, src
                if j == 0:
                    extra = float(np.max(np.abs(divergence_from_hat(grid, x_hat))))
                elif j == 2:  # after the last step M's jacobian is made on first read
                    extra = {} if last else {"M": jacobian_from_hat(grid, x_hat)}
                    if not last:  # the next first stage, at the new values
                        n1 = llg_hat(p1, x, x_hat, extra["M"], t1)
                cells.append((x, x_hat, n1, extra))
            values, hats, n1s, extras = zip(*cells)
            e_s, d_s = _local(_norms(grid, dict(zip(StateA.names, hats))), nu, s)
            e_sup[i] = max(e_sup[i], e_s)
            div_res[i] = max(div_res[i], extras[0])
            d_nodes[i].append(d_s)
            held[i] = None if last else (hats, n1s)
            if bare:
                continue
            p1 = _StateHats(StateA.from_values(t1, grid, values, hats))
            p1.jacs = extras[2]
            if last:
                states[i + 1] = replace(p1.state, t=start + cfg.t_end, hats=None)

    return PicardRun(
        s=s,
        e0=e0,
        states_at_T=states,
        diffs=[picard_metric(b, a, s) for a, b in zip(states, states[1:])],
        e_sup=e_sup,
        d_int=[float(dt * (np.sum(d) - 0.5 * d[0] - 0.5 * d[-1]))
               for d in d_nodes],
        div_v_res=div_res,
        sphere_res=[sphere_residual(state.M) for state in states[1:]],
    )
