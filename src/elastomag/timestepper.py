"""Time integration of both formulations.

The scheme is a two-stage second-order implicit-explicit rule (Ascher,
Ruuth & Wetton, SIAM J. Numer. Anal. 32, 1995). Stage one is an IMEX Euler
predictor: stiff linear diffusion (nu Delta v, Delta M, and kappa Delta F
when kappa > 0) is solved implicitly by an exact per-mode solve,
everything else is advanced explicitly. Stage two combines
Crank-Nicolson for the diffusion with a trapezoidal (Heun) average of the
explicit tendencies evaluated at the old state and at the predictor:

    y*      = (I - dt L)^{-1} (y_k + dt N(y_k, t_k))
    y_{k+1} = (I - dt/2 L)^{-1} [ (I + dt/2 L) y_k
                                  + dt/2 (N(y_k, t_k) + N(y*, t_{k+1})) ]

The velocity is Leray-projected after each stage. Steady states of the
continuous system are exact fixed points of the scheme. Blow-up (NaN/Inf)
is reported with its time stamp, never silently clipped; the time step is
fixed (no adaptivity) so energy-monotonicity checks stay clean and runs
are bit-reproducible.

The rule is written once, in _imex2, on Fourier coefficients: it starts
from the fields' hats and first-stage tendency hats n1, and the nonstiff
callable that makes n1 makes the hats at the predictor too. Each march
declares per field what that callable reads there (a step's _READS: B's
kernel takes psi only through its hat), and _imex2 makes only the declared
predictor hats and transforms back only the declared values. The implicit
solves (_implicit_stage, _cn_stage) and the per-field post-operations
(_POSTS) are diagonal there, and each new field is transformed back once.
It returns the final hats beside the values, and every march hands them on
with the new state (fields._State.hats), so no march transforms a state it
just made: a field is transformed only where nobody holds its hat, as for
generated initial data and M after renormalize_m. A diffusivity of 0 makes
a field purely explicit. _step, to which step_A and step_B hand their kernel
(dynamics._tendency_hats_A/_B), and schemes._integrate_llg make one _imex2
call per step; schemes.picard_iterate makes one per field and step, since
no field of a Picard iterate reads another field of it.

What a step holds: the state (values and hats) and n1 live through the
whole step, since the final stage reads both. _imex2 makes the predictor
hats and the declared predictor values, and hands them to the nonstiff
callable; the values die with that call and the predictor hats right after
it. The final stage then goes one field at a time: its Crank-Nicolson
stage and post-operation, then its inverse transform, and that field's
second-stage hats n2 are dropped once its new hat exists. The kernels make
their temporaries one row or entry at a time (dynamics), so a 3D step peaks
inside the predictor's kernel call, with the state, n1 and the predictor
hats alive, not in the final stage.

run picks the stepper and the evaluation (dynamics.rhs_A/rhs_B) in one
formulation choice, and shares one evaluation between a diagnostic record
and the next step: the record reads its state and tendency hats, and the
step takes its state hats and nonstiff stage-1 hats as n1, which they
equal bit for bit; without a record, _step makes n1 with its kernel from
the state's hats. A run holds only what its next stage reads: the step
after a record gets the evaluation without its tendency hats and geometry,
and run drops its reference to the initial state when step 1 returns, so a
caller that hands run a state made in the call frees it there; a caller
that needs the initial state later keeps it (as scenarios._picard_study
does for its sweep and the reference run).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import dynamics
from .energetics import DiagnosticRecord, diagnostic_record
from .errors import BlowUpError, CflError, NumericalError
from .fields import PhysParams, StateA, StateB, check_params, renormalize_M
from .spectral import TorusGrid, VectorField, leray_hat


def _step_count(t_end: float, dt: float) -> int:
    """Number of dt steps to t_end; rejects a t_end that is not a multiple of dt."""
    ratio = t_end / dt
    steps = round(ratio)
    if abs(ratio - steps) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"t_end {t_end} is not a whole multiple of dt {dt}")
    return steps


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-integration settings; dt is fixed for the whole run."""

    dt: float
    t_end: float
    renormalize_m: bool = False
    cfl_guard: float = 0.5
    snapshot_every: int = 0
    diag_every: int = 1

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        _step_count(self.t_end, self.dt)
        if not 0 < self.cfl_guard <= 1:
            raise ValueError(f"cfl_guard must be in (0, 1], got {self.cfl_guard}")
        if self.diag_every < 1:
            raise ValueError(f"diag_every must be >= 1, got {self.diag_every}")
        if self.snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {self.snapshot_every}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of a run: final state, reached time, steps, and the
    NumericalError that ended it (None when it completed), whose status and
    text are the run's status and message."""

    state: StateA | StateB
    t_reached: float
    steps: int
    error: NumericalError | None = None

    @property
    def status(self) -> str:
        return "completed" if self.error is None else self.error.status

    @property
    def message(self) -> str:
        return "" if self.error is None else str(self.error)


def _check_cfl(state: StateA | StateB, cfg: IntegratorConfig) -> None:
    vmax = float(np.max(np.abs(state.v.values)))
    cfl = cfg.dt * vmax / state.grid.spacing
    if cfl > cfg.cfl_guard:
        raise CflError(state.t, cfl, cfg.cfl_guard)


def _check_finite(state: StateA | StateB, t: float) -> None:
    for f in state.fields:
        if not np.all(np.isfinite(f.values)):
            raise BlowUpError(t)


def _gauge_hat(grid: TorusGrid, hat: np.ndarray) -> np.ndarray:
    """Zero-mean gauge for psi: clear the k = 0 mode of each component in place."""
    hat[(Ellipsis,) + (0,) * grid.dim] = 0.0
    return hat


# Each formulation's post-operations on the (v, F|psi, M) hats after a stage,
# and what its kernel reads of each predictor (_imex2's reads: B takes psi by its hat).
_POSTS = {"A": (leray_hat, None, None), "B": (leray_hat, _gauge_hat, None)}
_READS = {"A": (True, True, True), "B": (True, False, True)}


@lru_cache(maxsize=64)
def _stage_factors(grid: TorusGrid, c: float, dt: float) -> tuple[np.ndarray, ...]:
    """Per-mode factors of diffusivity c at step dt, cached per (grid, c, dt):
    1 / (1 + c dt k_sq) for the implicit stage, 1 - c dt k_sq / 2 and
    1 / (1 + c dt k_sq / 2) for Crank-Nicolson. NumPy's divide of a complex hat
    by a real array makes the product with the reciprocal (up to a zero's
    sign) at 2.5-3x the multiply's cost."""
    half = 0.5 * c * dt * grid.k_sq
    return 1.0 / (1.0 + c * dt * grid.k_sq), 1.0 - half, 1.0 / (1.0 + half)


def _implicit_stage(
    grid: TorusGrid, hat: np.ndarray, n: np.ndarray, c: float, dt: float
) -> np.ndarray:
    """(I - c dt Delta)^{-1} (hat + dt n), per mode by the cached reciprocal;
    c = 0 skips the multiply by 1 here and in _cn_stage."""
    if c == 0.0:
        return hat + dt * n
    return (hat + dt * n) * _stage_factors(grid, c, dt)[0]


def _cn_stage(
    grid: TorusGrid, hat: np.ndarray, n1: np.ndarray, n2: np.ndarray, c: float, dt: float
) -> np.ndarray:
    """(I - c dt/2 Delta)^{-1} [(I + c dt/2 Delta) hat + dt/2 (n1 + n2)] per mode."""
    if c == 0.0:
        return hat + 0.5 * dt * (n1 + n2)
    _, minus, inv_plus = _stage_factors(grid, c, dt)
    return (hat * minus + 0.5 * dt * (n1 + n2)) * inv_plus


def _imex2(
    grid: TorusGrid,
    hats: tuple[np.ndarray, ...],
    n1: tuple[np.ndarray, ...],
    t0: float,
    dt: float,
    nonstiff: Callable[[tuple, tuple, float], tuple[np.ndarray, ...]],
    reads: tuple[bool | None, ...],
    diffusivities: tuple[float, ...],
    posts: tuple[Callable[[TorusGrid, np.ndarray], np.ndarray] | None, ...],
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """One IMEX2 step of a set of fields from their hats at t0; returns the new
    values and the hats they were transformed back from.

    n1 holds the nonstiff tendency hats of every field at (hats, t0), and
    nonstiff(values, hats, t0 + dt) gives them at the predictor. reads[i]
    declares what it takes of field i there: True its predictor values and
    hat, False the hat only, None neither (both None), as for a field whose
    tendency is a given source. Field i diffuses with diffusivities[i] (0:
    none), and posts[i] (None: identity) is applied to its hat after each
    stage. The predictor hats are dropped when nonstiff returns, and the
    final stage is made one field at a time (stage, post, inverse
    transform), each field's second-stage hats dropped once its new hat
    exists; hats and n1 stay the caller's.
    """

    def post(hat: np.ndarray, op) -> np.ndarray:
        return hat if op is None else op(grid, hat)

    stars = tuple(
        None if r is None else post(_implicit_stage(grid, h, a, c, dt), op)
        for h, a, r, c, op in zip(hats, n1, reads, diffusivities, posts)
    )
    # the predictor values die with the call, and its hats right after it, before
    # the final stage's arrays are made
    n2 = list(nonstiff(tuple(grid.ifft(h) if r else None for h, r in zip(stars, reads)),
                       stars, t0 + dt))
    del stars
    values, new_hats = [], []
    for i, (h, a, c, op) in enumerate(zip(hats, n1, diffusivities, posts)):
        new_hats.append(post(_cn_stage(grid, h, a, n2[i], c, dt), op))
        n2[i] = None  # field i's second stage is spent once its new hat exists
        values.append(grid.ifft(new_hats[-1]))
    return tuple(values), tuple(new_hats)


def _step(state: StateA | StateB, params: PhysParams, cfg: IntegratorConfig, dealias: bool,
          rhs: dynamics.Rhs | None, kernel: dynamics.Kernel) -> StateA | StateB:
    """One IMEX2 step of either formulation with its tendency kernel; parameters
    the state cannot honour raise ValueError. rhs, if given, is rhs_A/rhs_B of
    this state with the same params and dealias, and supplies the first stage."""
    check_params(state.formulation, state.grid.dim, params)
    _check_cfl(state, cfg)
    grid = state.grid
    mask = dynamics._mask(grid, dealias)

    def nonstiff(values, hats, t):
        h = dynamics._h_values(params.h_ext, grid, t)
        return kernel(grid, *values, h, mask, hats)[0]

    if rhs is None:
        hats = state.field_hats()
        n1 = nonstiff(tuple(f.values for f in state.fields), hats, state.t)
    else:
        hats, n1 = rhs.state_hats, rhs.stage1_hats
    values, new_hats = _imex2(
        grid, hats, n1, state.t, cfg.dt, nonstiff, _READS[state.formulation],
        (params.nu, params.kappa, 1.0), _POSTS[state.formulation]
    )
    if cfg.renormalize_m:
        m_new = renormalize_M(VectorField(grid, values[2])).values
        values, new_hats = values[:2] + (m_new,), new_hats[:2] + (grid.fft(m_new),)
    t1 = state.t + cfg.dt
    new = type(state).from_values(t1, grid, values, new_hats)
    _check_finite(new, t1)
    return new


def step_A(state: StateA, params: PhysParams, cfg: IntegratorConfig, dealias: bool = True,
           _rhs: dynamics.Rhs | None = None) -> StateA:
    """Advance a primitive-formulation state by one dt; v, F and M diffuse with
    nu, kappa and 1. _rhs is rhs_A of this state, reused as the first stage."""
    return _step(state, params, cfg, dealias, _rhs, dynamics._tendency_hats_A)


def step_B(state: StateB, params: PhysParams, cfg: IntegratorConfig, dealias: bool = True,
           _rhs: dynamics.Rhs | None = None) -> StateB:
    """Advance a reformulated-system state by one dt; v, psi and M diffuse with
    nu, kappa = 0 (the -Delta psi coupling is explicit) and 1. _rhs as in step_A."""
    return _step(state, params, cfg, dealias, _rhs, dynamics._tendency_hats_B)


def run(
    state: StateA | StateB,
    params: PhysParams,
    cfg: IntegratorConfig,
    s: int = 2,
    delta: float = 0.25,
    dealias: bool = True,
    diag_sink: Callable[[DiagnosticRecord], None] | None = None,
    snap_sink: Callable[[StateA | StateB, int], None] | None = None,
) -> RunResult:
    """Step for a duration t_end from the state's time t0, emitting
    diagnostics and snapshots; step k is stamped t0 + k dt.

    Terminates at t0 + t_end or on a numerical error in a step or a record; the
    result carries the reached time (the empirical lifespan) and a status
    string instead of raising, so callers can report blow-up cleanly. A
    failed step leaves the last good state; a failed record, the state it
    was recording. A recorded state's right-hand side serves its record and
    the next step's first stage, which gets only its state and stage-1 hats.
    run holds the given state until step 1 returns; a caller's local, or the
    argument tuple of a ** call, holds it through the whole run. The result's
    state holds no hats, so a caller that keeps results keeps values only.
    Parameters the state cannot honour raise ValueError before any work.
    """
    check_params(state.formulation, state.grid.dim, params)
    if state.formulation == "A":
        stepper, evaluate = step_A, partial(dynamics.rhs_A, kappa=params.kappa, h_ext=params.h_ext)
    else:
        stepper, evaluate = step_B, dynamics.rhs_B
    n_steps = _step_count(cfg.t_end, cfg.dt)
    t0 = state.t

    def emit(st: StateA | StateB) -> dynamics.Rhs | None:
        if diag_sink is None:
            return None
        rhs = evaluate(st, nu=params.nu, dealias=dealias)
        diag_sink(diagnostic_record(st, params, s, delta, rhs))
        return replace(rhs, tendency_hats=None, geometry=None)

    steps = 0
    try:
        rhs = emit(state)
        if snap_sink is not None and cfg.snapshot_every > 0:
            snap_sink(state, 0)
        for k in range(1, n_steps + 1):
            state = replace(stepper(state, params, cfg, dealias, rhs), t=t0 + k * cfg.dt)
            steps, rhs = k, None
            if k % cfg.diag_every == 0 or k == n_steps:
                rhs = emit(state)
            if snap_sink is not None and cfg.snapshot_every > 0 and (
                k % cfg.snapshot_every == 0 or k == n_steps
            ):
                snap_sink(state, k)
    except NumericalError as err:
        # without its traceback, whose frames would hold the run's arrays
        return RunResult(replace(state, hats=None), state.t, steps, err.with_traceback(None))
    return RunResult(replace(state, hats=None), state.t, n_steps)
