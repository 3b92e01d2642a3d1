"""Named experiment presets: each runs, writes artifacts, and self-judges.

Every scenario emits CSV diagnostics plus a verdict.json whose per-check
entries carry the measured value and the threshold it was compared with,
so a verdict can be audited from the written files alone. Every check is
built by `_at_most` or `_at_least`. A scenario that runs the solver more
than once writes each further run into its own subdirectory of out_dir:
`formulation_equivalence` writes `A/` and `B/`, the formulation B
`constraint_audit` its half-resolution run in `coarse/`. Exit semantics:
the caller gets 0 when every check passed and 1 otherwise; numerical
failures inside a scenario that needs a completed run are raised (the CLI
maps them to exit 3).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..energetics import CSV_HEADER, DiagnosticRecord, _hat_norm_sq, _hat_sq, constraint_bundle
from ..errors import ConfigError
from ..fields import state_B_to_A
from ..schemes import (
    MollifierReport,
    PicardRun,
    mollifier_convergence_study,
    picard_iterate,
    picard_metric,
)
from ..spectral import (
    ScalarField,
    TorusGrid,
    VectorField,
    divergence_from_hat,
    jacobian_from_hat,
    l2_norm_sq_values,
)
from ..stokes import _stokes_hats, solve_generalized_stokes
from ..timestepper import RunResult, run
from .config import SimulationConfig
from .initial_data import random_trig_field
from .snapshot import _write_atomic, write_snapshot

DECAY_STEP_SLACK = 1e-8
DECAY_FINAL_RATIO = 0.9
EQUIVALENCE_TOL = 1e-5
SPHERE_TOL_PER_TIME = 1e-7
DET_DRIFT_TOL = 1e-6
DIV_TOL = 1e-11
CURL_TOL = 1e-11
TRG_TOL = 1e-13
RATIO_STABILITY = 2.0
PICARD_ITERATES = 8
PICARD_RATIO_TOL = 0.5
PICARD_DISTANCE_TOL = 1e-4
MOLLIFIER_CUTOFFS = (4.0, 8.0, 16.0)
MOLLIFIER_MIN_DROP = 4.0
STOKES_TRIALS = 100
STOKES_BAND = 6
STOKES_REL_TOL = 1e-10
STOKES_ABS_TOL = 1e-12
STOKES_ANALYTIC_TOL = 1e-12


@dataclass(frozen=True)
class Check:
    """One named pass/fail comparison recorded in the verdict."""

    name: str
    passed: bool
    value: float
    threshold: float


def _at_most(name: str, value: float, threshold: float) -> Check:
    return Check(name, value <= threshold, value, threshold)


def _at_least(name: str, value: float, threshold: float) -> Check:
    return Check(name, value >= threshold, value, threshold)


def _spread(a: float, b: float) -> float:
    """max/min of two positive measurements; inf when the smaller is not positive."""
    lo, hi = min(a, b), max(a, b)
    return hi / lo if lo > 0 else math.inf


@dataclass(frozen=True, eq=False)
class RunArtifacts:
    """What one simulation run left on disk and in memory."""

    result: RunResult
    records: list[DiagnosticRecord]
    csv_path: Path
    final_snapshot: Path


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    """Write the header line and one line per row to path atomically."""
    _write_atomic(path, ("\n".join([header, *rows]) + "\n").encode())


def _csv_row(cells: tuple) -> str:
    """One CSV line; float cells keep 17 significant digits."""
    return ",".join(format(c, ".17g") if isinstance(c, float) else str(c) for c in cells)


def _write_table(config: SimulationConfig, header: str, rows: list[str]) -> Path:
    """Write config.csv_name into config.out_dir, creating it; returns the path."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / config.csv_name
    _write_csv(csv_path, header, rows)
    return csv_path


def run_simulation(config: SimulationConfig) -> RunArtifacts:
    """Generate initial data, integrate, and write CSV plus final snapshot.

    Invalid initial data raises ConfigError before out_dir is created. The
    initial state is made in the run call, with no ** argument tuple and no
    local to hold it, so it is freed when the first step returns.
    """
    out_dir = Path(config.out_dir)
    records: list[DiagnosticRecord] = []

    def snap_sink(state: Any, k: int) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_snapshot(state, out_dir / f"step_{k:08d}.snap")

    result = run(
        config.make_state(),
        config.make_params(),
        config.make_integrator(),
        s=config.s,
        delta=config.resolved_delta(),
        dealias=config.dealias,
        diag_sink=records.append,
        snap_sink=snap_sink,
    )
    csv_path = _write_table(config, CSV_HEADER, [r.to_csv_row() for r in records])
    final_snapshot = out_dir / "final.snap"
    write_snapshot(result.state, final_snapshot)
    return RunArtifacts(
        result=result, records=records, csv_path=csv_path, final_snapshot=final_snapshot
    )


def _completed(result: RunResult, context: str) -> RunResult:
    """The result of a completed run; any other ending re-raises the error that
    ended it, with its class and figures, and context before its message."""
    err = result.error
    if err is not None:
        err.args = (f"{context}: {err}",)
        raise err
    return result


# --------------------------------------------------------------------------
# Scenarios
# --------------------------------------------------------------------------


def _decay_small_data(config: SimulationConfig) -> tuple[list[Check], dict]:
    """Global-decay audit: the damped energy must shrink monotonically."""
    if config.formulation != "B":
        raise ConfigError("decay_small_data requires formulation B")
    art = run_simulation(config)
    _completed(art.result, "decay_small_data")
    recs = art.records
    worst = -math.inf
    for prev, cur in zip(recs, recs[1:]):
        gap = max(1, round((cur.t - prev.t) / config.dt))
        if prev.e_global > 0:
            worst = max(worst, (cur.e_global - prev.e_global) / prev.e_global / gap)
    final_ratio = (
        recs[-1].e_global / recs[0].e_global if recs[0].e_global > 0 else 0.0
    )
    checks = [
        _at_most("e_global_per_step_increase", worst, DECAY_STEP_SLACK),
        _at_most("e_global_final_ratio", final_ratio, DECAY_FINAL_RATIO),
    ]
    extra = {
        "e_global_initial": recs[0].e_global,
        "e_global_final": recs[-1].e_global,
        "csv": art.csv_path.name,
    }
    return checks, extra


def _formulation_equivalence(config: SimulationConfig) -> tuple[list[Check], dict]:
    """Run both formulations from matched data; compare F against (I + grad psi)^{-1}."""
    if config.initial_data == "flow_map_F":
        raise ConfigError(
            "formulation_equivalence needs matched initial data; the flow-map "
            "deformation has no exact potential counterpart"
        )
    # both configs are validated before any work: B refuses an external field or kappa
    configs = {
        f: config.with_overrides(formulation=f, out_dir=str(Path(config.out_dir) / f))
        for f in ("A", "B")
    }
    arts = {f: run_simulation(cfg) for f, cfg in configs.items()}
    state_a, state_b = (
        _completed(arts[f].result, f"formulation_equivalence[{f}]").state for f in ("A", "B")
    )
    f_from_b = state_B_to_A(state_b).F
    gap = float(np.max(np.abs(state_a.F.values - f_from_b.values)))
    v_gap = float(np.max(np.abs(state_a.v.values - state_b.v.values)))
    checks = [_at_most("deformation_gap_max", gap, EQUIVALENCE_TOL)]
    extra = {
        "velocity_gap_max": v_gap,
        "t_final": state_a.t,
        **{f"csv_{f}": f"{f}/{art.csv_path.name}" for f, art in arts.items()},
    }
    return checks, extra


def _constraint_audit(config: SimulationConfig) -> tuple[list[Check], dict]:
    """Track every geometric constraint residual along one run."""
    art = run_simulation(config)
    _completed(art.result, "constraint_audit")
    recs = art.records
    sphere_tol = SPHERE_TOL_PER_TIME * max(1.0, config.t_end)
    sphere_max = max(r.sphere_res for r in recs)
    det_drift = max(r.det_res for r in recs) - recs[0].det_res
    div_max = max(r.div_v_res for r in recs)
    checks = [
        _at_most("sphere_res_max", sphere_max, sphere_tol),
        _at_most("det_res_drift", det_drift, DET_DRIFT_TOL),
        _at_most("div_v_res_max", div_max, DIV_TOL),
    ]
    extra: dict[str, Any] = {"csv": art.csv_path.name}
    if config.formulation == "B":
        curl_max = max(r.curl_res for r in recs)
        trg_max = max(r.trG_vs_divpsi_res for r in recs)
        checks.append(_at_most("curl_res_max", curl_max, CURL_TOL))
        checks.append(_at_most("trG_vs_divpsi_res_max", trg_max, TRG_TOL))
        coarse_n = config.n // 4 * 2  # the largest even grid <= n/2
        if coarse_n >= 8:
            coarse_cfg = config.with_overrides(
                n=coarse_n, out_dir=str(Path(config.out_dir) / "coarse")
            )
            coarse = _completed(run_simulation(coarse_cfg).result, "constraint_audit[coarse]")
            ratio_fine, ratio_coarse = (
                constraint_bundle(st, config.s)["key_structure_ratio"]
                for st in (art.result.state, coarse.state)
            )
            checks.append(
                _at_most(
                    "key_structure_ratio_stability",
                    _spread(ratio_fine, ratio_coarse),
                    RATIO_STABILITY,
                )
            )
            extra["key_structure_ratio_fine"] = ratio_fine
            extra["key_structure_ratio_coarse"] = ratio_coarse
    return checks, extra


def _picard_rows(prun: PicardRun, distances: list[float]) -> list[str]:
    rows = []
    for i, (diff, ratio) in enumerate(zip(prun.diffs, [math.nan, *prun.ratios])):
        cells = (
            i + 1,
            diff,
            ratio,
            prun.e_sup[i],
            prun.d_int[i],
            prun.div_v_res[i],
            prun.sphere_res[i],
            distances[i],
        )
        rows.append(_csv_row(cells))
    return rows


def _picard_study(config: SimulationConfig) -> tuple[list[Check], dict]:
    """Staged-linearization convergence against the monolithic integrator."""
    if config.formulation != "A":
        raise ConfigError("picard_study requires formulation A")
    state = config.make_state()
    # one set of initial hats serves the sweep and the reference run
    initial = replace(state, hats=state.field_hats())
    params = config.make_params()
    integ = config.make_integrator()
    # the sweep runs before the reference, so unsuitable data fails before any run
    try:
        prun = picard_iterate(
            initial, params, PICARD_ITERATES, integ, config.s, dealias=config.dealias
        )
    except ValueError as err:
        raise ConfigError(f"picard_study initial data unsuitable: {err}") from None
    reference = _completed(
        run(initial, params, integ, s=config.s, delta=config.resolved_delta(),
            dealias=config.dealias),
        "picard_study[reference]",
    ).state

    # each iterate's distance to the monolithic solution, computed once
    distances = [picard_metric(state, reference, config.s) for state in prun.states_at_T[1:]]
    header = "iterate,diff,ratio,e_sup,d_int,div_v_res,sphere_res,distance_to_reference"
    csv_path = _write_table(config, header, _picard_rows(prun, distances))

    max_ratio = max(prun.ratios, default=math.inf)
    # the iterates' uniform bound: sup_t E_s + int D_s dt stays below 2 E_s(0)
    max_total = max(e + d for e, d in zip(prun.e_sup, prun.d_int))
    checks = [
        _at_most("frozen_ratio_max", max_ratio, PICARD_RATIO_TOL),
        _at_most("frozen_distance_to_monolithic", distances[-1], PICARD_DISTANCE_TOL),
        _at_most("frozen_uniform_bound", max_total, 2.0 * prun.e0),
    ]
    extra = {
        "T": config.t_end,
        "iterates": PICARD_ITERATES,
        "csv": csv_path.name,
    }
    return checks, extra


def _mollifier_rows(report: MollifierReport) -> list[str]:
    rows = []
    for mrun, diff in zip(report.runs, [*report.diffs, math.nan]):
        cells = (
            mrun.cutoff,
            mrun.sup_e_eps,
            max(mrun.d_eps),
            mrun.e_eps[-1],
            diff,
        )
        rows.append(_csv_row(cells))
    return rows


def _mollifier_study(config: SimulationConfig) -> tuple[list[Check], dict]:
    """Cutoff-refinement study of the mollified magnetization scheme."""
    cutoffs = list(MOLLIFIER_CUTOFFS)
    if cutoffs[-1] > config.n / 3.0:
        raise ConfigError(
            f"largest cutoff {cutoffs[-1]} exceeds the resolution bound n/3 = {config.n / 3:.6g}"
        )
    initial = config.make_state()
    report = mollifier_convergence_study(
        cutoffs, initial.M, config.h_ext, config.s, config.make_integrator(), initial.t
    )
    header = "cutoff,sup_e_eps,max_d_eps,e_eps_final,diff_to_next"
    csv_path = _write_table(config, header, _mollifier_rows(report))

    min_drop = min(report.drop_factors, default=math.inf)
    sup_e = max(r.sup_e_eps for r in report.runs)
    checks = [
        _at_least("diff_drop_per_doubling", min_drop, MOLLIFIER_MIN_DROP),
        _at_most("energy_bound", sup_e, report.e_bound),
    ]
    extra = {
        "cutoffs": cutoffs,
        "diffs": report.diffs,
        "e0": report.e0,
        "csv": csv_path.name,
    }
    return checks, extra


def _stokes_trials(
    grid: TorusGrid, seed: int, count: int
) -> tuple[int, float, float, float]:
    """Random solves on hats, as solve_generalized_stokes makes them: (passes,
    worst f-residual, worst g-residual, measured C)."""
    rng = np.random.default_rng(seed)

    def norm(hat: np.ndarray, s: int) -> float:
        return math.sqrt(_hat_norm_sq(grid, _hat_sq(hat), s))

    passes = 0
    worst_f = 0.0
    worst_g = 0.0
    c_hat = 0.0
    for _ in range(count):
        f_vals = random_trig_field(rng, grid, grid.dim, STOKES_BAND)
        g_vals = random_trig_field(rng, grid, 1, STOKES_BAND)[0]
        # one transform each of f, g, w and q serves the solve, residuals and norms
        f_hat, g_hat = grid.fft(f_vals), grid.fft(g_vals)
        w_hat, q_hat = (grid.fft(grid.ifft(x)) for x in _stokes_hats(grid, f_hat, g_hat))
        mom_res = -grid.ifft(w_hat * (-grid.k_sq)) + jacobian_from_hat(grid, q_hat) - f_vals
        div_res = divergence_from_hat(grid, w_hat) - g_vals
        f_norm = math.sqrt(l2_norm_sq_values(grid, f_vals))
        g_norm = math.sqrt(l2_norm_sq_values(grid, g_vals))
        r_f = math.sqrt(l2_norm_sq_values(grid, mom_res))
        r_g = math.sqrt(l2_norm_sq_values(grid, div_res))
        ok_f = r_f <= STOKES_ABS_TOL + STOKES_REL_TOL * f_norm
        ok_g = r_g <= STOKES_ABS_TOL + STOKES_REL_TOL * g_norm
        if ok_f and ok_g:
            passes += 1
        if f_norm > 0:
            worst_f = max(worst_f, r_f / f_norm)
        if g_norm > 0:
            worst_g = max(worst_g, r_g / g_norm)
        out_norm = norm(w_hat, 2) + norm(q_hat, 1)
        in_norm = norm(f_hat, 0) + norm(g_hat, 1)
        if in_norm > 0:
            c_hat = max(c_hat, out_norm / in_norm)
    return passes, worst_f, worst_g, c_hat


def _stokes_analytic_error(grid: TorusGrid) -> float:
    """Worst max-norm error over the closed-form solve examples."""
    zero_v = np.zeros((grid.dim,) + grid.shape)
    zero_s = np.zeros(grid.shape)
    x, y = grid.x[0], grid.x[1]
    shear = zero_v.copy()
    shear[0] = np.sin(y)
    w_expect = zero_v.copy()
    w_expect[0] = -np.cos(x)
    # (f, g) -> (w, q): no data, a shear force solved by w = f, a divergence source g = sin x
    examples = [
        (zero_v, zero_s, zero_v, zero_s),
        (shear, zero_s, shear, zero_s),
        (zero_v, np.sin(x), w_expect, np.sin(x)),
    ]
    err = 0.0
    for f, g, w, q in examples:
        sol = solve_generalized_stokes(VectorField(grid, f), ScalarField(grid, g))
        err = max(err, float(np.max(np.abs(sol.w.values - w))))
        err = max(err, float(np.max(np.abs(sol.q.values - q))))
    return err


def _stokes_verify(config: SimulationConfig) -> tuple[list[Check], dict]:
    """Randomized and closed-form validation of the Stokes solver."""
    grid = config.make_grid()
    passes, worst_f, worst_g, c_fine = _stokes_trials(grid, config.seed, STOKES_TRIALS)
    alt_n = 32 if config.n != 32 else 64
    alt_grid = TorusGrid(dim=config.dim, n=alt_n)
    _, _, _, c_alt = _stokes_trials(alt_grid, config.seed, STOKES_TRIALS)
    checks = [
        _at_least("residual_trials_passed", float(passes), float(STOKES_TRIALS)),
        _at_most("analytic_examples_max_err", _stokes_analytic_error(grid), STOKES_ANALYTIC_TOL),
        _at_most("c_hat_stability", _spread(c_fine, c_alt), RATIO_STABILITY),
    ]
    extra = {
        "worst_momentum_residual_rel": worst_f,
        "worst_divergence_residual_rel": worst_g,
        "c_hat": c_fine,
        "c_hat_alt_resolution": c_alt,
        "alt_n": alt_n,
    }
    return checks, extra


def _lifespan_probe(config: SimulationConfig) -> tuple[list[Check], dict]:
    """Report the empirical lifespan; any cleanly reported outcome passes."""
    art = run_simulation(config)
    result = art.result
    checks = [_at_least("lifespan_reported", result.t_reached, 0.0)]
    extra = {
        "status": result.status,
        "t_reached": result.t_reached,
        "steps": result.steps,
        "message": result.message,
        "csv": art.csv_path.name,
    }
    return checks, extra


SCENARIOS: dict[str, Callable[[SimulationConfig], tuple[list[Check], dict]]] = {
    "decay_small_data": _decay_small_data,
    "formulation_equivalence": _formulation_equivalence,
    "constraint_audit": _constraint_audit,
    "picard_study": _picard_study,
    "mollifier_study": _mollifier_study,
    "stokes_verify": _stokes_verify,
    "lifespan_probe": _lifespan_probe,
}


def _json_safe(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def run_scenario(name: str, config: SimulationConfig) -> tuple[int, Path, dict]:
    """Execute one preset; returns (exit code, verdict path, verdict dict)."""
    fn = SCENARIOS.get(name)
    if fn is None:
        raise ConfigError(
            f"unknown scenario {name!r} (expected one of: {', '.join(sorted(SCENARIOS))})"
        )
    checks, extra = fn(config)
    verdict = {
        "scenario": name,
        "pass": all(c.passed for c in checks),
        "checks": [
            {
                "name": c.name,
                "pass": c.passed,
                "value": _json_safe(c.value),
                "threshold": _json_safe(c.threshold),
            }
            for c in checks
        ],
        **{k: _json_safe(v) for k, v in extra.items()},
    }
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    verdict_path = out_dir / "verdict.json"
    _write_atomic(verdict_path, (json.dumps(verdict, indent=2) + "\n").encode())
    return (0 if verdict["pass"] else 1), verdict_path, verdict
