"""The benchmark's workloads: set-up, one round of operations, and gates.

Each workload drives the solver through the calls the command line makes
(`SimulationConfig.from_file`, `run_simulation`, `run_scenario`,
`load_snapshot`), always looked up on the package at call time so that a
traced run sees them through its wrappers.

A round is a fixed list of operations; every run or scenario is one
operation. `round` calls `tick` before each operation, so the worker can
time the reference kernel between operations. An operation *fails* when it
raises or does not run to its end; the gates below judge the outputs of the
operations that did not fail. No gate compares against stored output: each
checks a property the method must have, or compares two independent code
paths.
"""

from __future__ import annotations

import hashlib
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SPHERE_TOL_PER_TIME = 1e-7
DET_DRIFT_TOL = 1e-6
DIV_TOL = 1e-11
E_GLOB_STEP_RISE = 1e-8
EQUIVALENCE_TOL = 1e-5

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass
class Gate:
    name: str
    passed: bool
    value: float
    threshold: float


@dataclass
class OpResult:
    """One operation of a round: its wall time and the gates on its output."""

    name: str
    seconds: float
    steps: int = 0
    failed: bool = False
    gates: list[Gate] = field(default_factory=list)
    digest: str = ""
    reference: float = 0.0  # seconds in reference seconds, set by the worker


def _digest(directory: Path) -> str:
    """sha256 over the names and bytes of every file in an output directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _same_state(a, b) -> bool:
    """Bit-for-bit equality of two states of one formulation."""
    if type(a) is not type(b) or a.t != b.t:
        return False
    names = ("v", "F", "M") if hasattr(a, "F") else ("v", "psi", "M")
    return all(
        getattr(a, n).values.tobytes() == getattr(b, n).values.tobytes() for n in names
    )


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def _attempt(name: str, fn) -> tuple[OpResult | None, object]:
    """Run one operation, timing it; an exception counts as a failed operation."""
    start = time.perf_counter()
    try:
        out = fn()
    except Exception:  # an operation boundary: record and keep the round going
        traceback.print_exc()
        return OpResult(name, time.perf_counter() - start, failed=True), None
    return None, (time.perf_counter() - start, out)


class RunWorkload:
    """Formulation A, then B, from matched `random_small` data.

    Set-up parses the config and generates both initial states once, writing
    them as snapshots; every round then runs `run_simulation` from those
    snapshots, so the timed phase holds steps, diagnostics and IO only.
    """

    ops = ("A", "B")
    min_rounds = 2  # the output-bytes gate compares repeats

    def __init__(self, name: str) -> None:
        self.name = name
        self.configs: dict = {}
        self.steps = 0

    def setup(self, em, seed: int, workdir: Path) -> None:
        base = em.SimulationConfig.from_file(CONFIG_DIR / f"{self.name}.json")
        base = base.with_overrides(seed=seed, out_dir=str(workdir))
        grid = base.make_grid()
        self.steps = int(round(base.t_end / base.dt))
        for form in self.ops:
            state = em.generate_initial_data(
                grid, base.initial_data, form, base.amplitude, base.seed
            )
            snap = workdir / f"initial_{form}.snap"
            em.write_snapshot(state, snap)
            self.configs[form] = base.with_overrides(
                formulation=form,
                initial_data="from_snapshot",
                snapshot_path=str(snap),
                out_dir=str(workdir / "round" / form),
            )

    def round(self, em, probe, label: str, tick) -> tuple[list[OpResult], list[Gate]]:
        results: list[OpResult] = []
        finals = {}
        for form in self.ops:
            tick()
            cfg = self.configs[form]
            out_dir = _fresh(Path(cfg.out_dir))
            probe.run_id = f"{label}/{form}"
            failed, done = _attempt(form, lambda: em.run_simulation(cfg))
            if failed is not None:
                results.append(failed)
                continue
            seconds, art = done
            res = OpResult(form, seconds, steps=art.result.steps)
            if art.result.status != "completed" or art.result.steps != self.steps:
                res.failed = True
                print(f"{form}: {art.result.status} after {art.result.steps} steps "
                      f"{art.result.message}", flush=True)
                results.append(res)
                continue
            res.gates = self._run_gates(em, cfg, art)
            res.digest = _digest(out_dir)
            finals[form] = art.result.state
            results.append(res)
        probe.run_id = f"{label}/check"
        cross = []
        if len(finals) == 2:
            f_from_b = em.state_B_to_A(finals["B"]).F.values
            gap = float(np.max(np.abs(finals["A"].F.values - f_from_b)))
            cross.append(Gate("A_F_vs_B_inverse_grad_psi", gap <= EQUIVALENCE_TOL, gap,
                              EQUIVALENCE_TOL))
        return results, cross

    def _run_gates(self, em, cfg, art) -> list[Gate]:
        recs = art.records
        sphere_tol = SPHERE_TOL_PER_TIME * max(1.0, cfg.t_end)
        sphere = max(r.sphere_res for r in recs)
        drift = max(r.det_res for r in recs) - recs[0].det_res
        div = max(r.div_v_res for r in recs)
        gates = [
            Gate("sphere_res_max", sphere <= sphere_tol, sphere, sphere_tol),
            Gate("det_res_drift", drift <= DET_DRIFT_TOL, drift, DET_DRIFT_TOL),
            Gate("div_v_res_max", div <= DIV_TOL, div, DIV_TOL),
        ]
        if cfg.formulation == "B":
            worst = -np.inf
            for prev, cur in zip(recs, recs[1:]):
                gap = max(1, round((cur.t - prev.t) / cfg.dt))
                worst = max(worst, (cur.e_global - prev.e_global) / prev.e_global / gap)
            ratio = recs[-1].e_global / recs[0].e_global
            gates.append(Gate("e_global_rise_per_step", worst <= E_GLOB_STEP_RISE, worst,
                              E_GLOB_STEP_RISE))
            gates.append(Gate("e_global_final_over_initial", ratio < 1.0, ratio, 1.0))
        reloaded = em.load_snapshot(art.final_snapshot)
        same = _same_state(reloaded, art.result.state)
        gates.append(Gate("snapshot_reload_bitwise", same, float(same), 1.0))
        return gates


class SchemesWorkload:
    """The mollified-LLG, Picard and generalized Stokes scenarios at 2D n = 64."""

    ops = ("mollifier_study", "picard_study", "stokes_verify")
    min_rounds = 1

    def __init__(self, name: str) -> None:
        self.name = name
        self.configs: dict = {}

    def setup(self, em, seed: int, workdir: Path) -> None:
        for op in self.ops:
            cfg = em.SimulationConfig.from_file(CONFIG_DIR / f"{op}.json")
            self.configs[op] = cfg.with_overrides(seed=seed, out_dir=str(workdir / "round" / op))

    def round(self, em, probe, label: str, tick) -> tuple[list[OpResult], list[Gate]]:
        results: list[OpResult] = []
        for op in self.ops:
            tick()
            cfg = self.configs[op]
            _fresh(Path(cfg.out_dir))
            probe.run_id = f"{label}/{op}"
            failed, done = _attempt(op, lambda: em.run_scenario(op, cfg))
            if failed is not None:
                results.append(failed)
                continue
            seconds, (code, _, verdict) = done
            res = OpResult(op, seconds)
            for check in verdict["checks"]:
                res.gates.append(Gate(f"{op}.{check['name']}", bool(check["pass"]),
                                      check["value"], check["threshold"]))
            res.gates.append(Gate(f"{op}.exit_code", code == 0, float(code), 0.0))
            results.append(res)
        return results, []


WORKLOADS = {
    "run2d_diag": RunWorkload,
    "run3d_sparse": RunWorkload,
    "schemes_2d": SchemesWorkload,
}
