"""End-to-end acceptance checks at desk scale (64^2 grid, dt = 1e-3).

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all)
and asserts the same condition, so the suite is green exactly when every
line reads PASS. Budgeted items also assert their wall-clock limit.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from elastomag.energetics import delta_default, multiindex_count, sobolev_norm_sq
from elastomag.fields import (
    HExt,
    PhysParams,
    StateA,
    StateB,
    G_to_F,
    grad_potential,
    identity_matrix_field,
)
from elastomag.harness import (
    SimulationConfig,
    generate_initial_data,
    run_scenario,
    run_simulation,
)
from elastomag.harness.cli import main
from elastomag.schemes import (
    mollifier_convergence_study,
    picard_iterate,
    picard_metric,
)
from elastomag.spectral import (
    ScalarField,
    TorusGrid,
    VectorField,
    divergence_values,
    l2_norm_sq_values,
)
from elastomag.timestepper import IntegratorConfig, run

from conftest import leray, truncate
from oracles import deriv_values

GRID_N = 64
DT = 1e-3
PARAMS = PhysParams(nu=1.0, kappa=0.0, h_ext=HExt())


def report(num: int, label: str, passed: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d} {label}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def grid64() -> TorusGrid:
    return TorusGrid(dim=2, n=GRID_N)


@pytest.fixture(scope="module")
def smooth_run(tmp_path_factory: pytest.TempPathFactory):
    """One 1000-step small-data run with per-step residuals, shared by 3 and 4."""
    out = tmp_path_factory.mktemp("smooth")
    config = SimulationConfig.from_dict(
        {
            "dim": 2,
            "n": GRID_N,
            "dt": DT,
            "t_end": 1.0,
            "initial_data": "flow_map_F",
            "amplitude": 1e-2,
            "seed": 5,
            "out_dir": str(out),
        }
    )
    start = time.monotonic()
    artifacts = run_simulation(config)
    elapsed = time.monotonic() - start
    assert artifacts.result.status == "completed"
    return artifacts, elapsed


def steady_states(grid: TorusGrid) -> list[StateA | StateB]:
    zero_v = VectorField(grid, np.zeros((grid.dim,) + grid.shape))
    const_m = np.zeros((3,) + grid.shape)
    const_m[2] = 1.0
    circle_m = np.zeros((3,) + grid.shape)
    circle_m[0] = np.cos(grid.x[0])
    circle_m[1] = np.sin(grid.x[0])
    eye = identity_matrix_field(grid)
    zero_psi = VectorField(grid, np.zeros((grid.dim,) + grid.shape))
    return [
        StateA(t=0.0, v=zero_v, F=eye, M=VectorField(grid, const_m)),
        StateA(t=0.0, v=zero_v, F=eye, M=VectorField(grid, circle_m)),
        StateB(t=0.0, v=zero_v, psi=zero_psi, M=VectorField(grid, const_m)),
        StateB(t=0.0, v=zero_v, psi=zero_psi, M=VectorField(grid, circle_m)),
    ]


def max_state_diff(a: StateA | StateB, b: StateA | StateB) -> float:
    return max(float(np.max(np.abs(x.values - y.values))) for x, y in zip(a.fields, b.fields))


def test_criterion_01_spectral_operator_suite(grid64: TorusGrid) -> None:
    start = time.monotonic()
    grid = grid64
    x, y = grid.x
    errs = []

    f = ScalarField(grid, np.sin(x))
    errs.append(float(np.max(np.abs(deriv_values(grid, f.values, (1, 0)) - np.cos(x)))))
    g = ScalarField(grid, np.sin(x) * np.cos(2 * y))
    errs.append(
        float(np.max(np.abs(deriv_values(grid, g.values, (1, 1)) + 2 * np.cos(x) * np.sin(2 * y))))
    )

    gradient = VectorField(grid, np.stack([-np.sin(x), np.zeros(grid.shape)]))
    errs.append(float(np.max(np.abs(leray(grid, gradient.values)))))
    shear = VectorField(grid, np.stack([np.sin(y), np.zeros(grid.shape)]))
    errs.append(float(np.max(np.abs(leray(grid, shear.values) - shear.values))))
    errs.append(float(np.max(np.abs(divergence_values(grid, leray(grid, shear.values))))))

    high = ScalarField(grid, np.sin(3 * x))
    errs.append(float(np.max(np.abs(truncate(grid, high.values, 2.0)))))
    low = ScalarField(grid, np.sin(x))
    errs.append(float(np.max(np.abs(truncate(grid, low.values, 2.0) - low.values))))
    square = ScalarField(grid, np.sin(5 * x) ** 2)
    kept = 0.5 * (1.0 - np.cos(10 * x))
    errs.append(float(np.max(np.abs(truncate(grid, square.values, 12.0) - kept))))

    rng = np.random.default_rng(0)
    noise = rng.standard_normal(grid.shape)
    grid_norm = l2_norm_sq_values(grid, noise)
    mode_norm = sobolev_norm_sq(ScalarField(grid, noise), 0)
    parseval_rel = abs(grid_norm - mode_norm) / grid_norm

    worst = max(errs)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-11 and parseval_rel <= 1e-12 and elapsed < 5.0
    report(
        1,
        "spectral operator suite",
        ok,
        f"max_err={worst:.2e}, parseval_rel={parseval_rel:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_exact_steady_states(grid64: TorusGrid) -> None:
    start = time.monotonic()
    cfg = IntegratorConfig(dt=DT, t_end=1.0)
    worst = 0.0
    for initial in steady_states(grid64):
        result = run(initial, PARAMS, cfg)
        assert result.status == "completed"
        worst = max(worst, max_state_diff(result.state, initial))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report(2, "exact steady states", ok, f"max_drift={worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_sphere_constraint_propagation(smooth_run) -> None:
    artifacts, elapsed = smooth_run
    sphere_max = max(r.sphere_res for r in artifacts.records)
    ok = sphere_max <= 1e-7 and elapsed < 60.0
    report(
        3,
        "sphere constraint propagation",
        ok,
        f"max_sphere_res={sphere_max:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_04_determinant_preservation(smooth_run) -> None:
    artifacts, _ = smooth_run
    det_max = max(r.det_res for r in artifacts.records)
    ok = det_max <= 1e-6
    report(4, "determinant preservation", ok, f"max_det_res={det_max:.2e}")
    assert ok


def test_criterion_05_basic_energy_dissipation(grid64: TorusGrid) -> None:
    start = time.monotonic()
    cfg = IntegratorConfig(dt=DT, t_end=0.5)
    worst_jump = -math.inf
    for formulation in ("A", "B"):
        state = generate_initial_data(
            grid64, "random_small", formulation, amplitude=1e-2, seed=3
        )
        records = []
        result = run(state, PARAMS, cfg, dealias=False, diag_sink=records.append)
        assert result.status == "completed"
        energies = [r.e_basic for r in records]
        for before, after in zip(energies, energies[1:]):
            worst_jump = max(worst_jump, (after - before) / before)
    elapsed = time.monotonic() - start
    ok = worst_jump <= 1e-9 and elapsed < 60.0
    report(
        5,
        "basic energy dissipation",
        ok,
        f"worst_per_step_increase={worst_jump:.2e} rel, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_06_global_energy_decay(grid64: TorusGrid) -> None:
    start = time.monotonic()
    s = 3
    delta = delta_default(PARAMS.nu, 1.0, multiindex_count(2, s))
    state = generate_initial_data(grid64, "random_small", "B", amplitude=1e-2, seed=3)
    cfg = IntegratorConfig(dt=DT, t_end=2.0)
    records = []
    result = run(state, PARAMS, cfg, s=s, delta=delta, diag_sink=records.append)
    assert result.status == "completed"
    energies = [r.e_global for r in records]
    worst_jump = max(
        (after - before) / before for before, after in zip(energies, energies[1:])
    )
    final_ratio = energies[-1] / energies[0]
    elapsed = time.monotonic() - start
    ok = worst_jump <= 1e-8 and final_ratio <= 0.9 and elapsed < 180.0
    report(
        6,
        "global energy decay",
        ok,
        f"worst_step={worst_jump:.2e} rel, E(2)/E(0)={final_ratio:.4f}, "
        f"delta={delta:.6g}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_07_formulation_equivalence(grid64: TorusGrid) -> None:
    start = time.monotonic()
    cfg = IntegratorConfig(dt=DT, t_end=0.5)
    state_a = generate_initial_data(grid64, "random_small", "A", amplitude=1e-2, seed=7)
    state_b = generate_initial_data(grid64, "random_small", "B", amplitude=1e-2, seed=7)
    result_a = run(state_a, PARAMS, cfg)
    result_b = run(state_b, PARAMS, cfg)
    assert result_a.status == "completed"
    assert result_b.status == "completed"
    recovered_F = G_to_F(grad_potential(result_b.state.psi))
    gap = float(np.max(np.abs(result_a.state.F.values - recovered_F.values)))
    elapsed = time.monotonic() - start
    ok = gap <= 1e-5 and elapsed < 120.0
    report(7, "formulation equivalence", ok, f"max_F_gap={gap:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_08_curl_free_and_key_structure(tmp_path: Path) -> None:
    config = SimulationConfig.from_dict(
        {
            "dim": 2,
            "n": GRID_N,
            "dt": DT,
            "t_end": 0.25,
            "formulation": "B",
            "initial_data": "random_small",
            "amplitude": 1e-2,
            "seed": 3,
            "out_dir": str(tmp_path),
        }
    )
    code, _, verdict = run_scenario("constraint_audit", config)
    by_name = {c["name"]: c for c in verdict["checks"]}
    curl = by_name["curl_res_max"]
    trg = by_name["trG_vs_divpsi_res_max"]
    stability = by_name["key_structure_ratio_stability"]
    ok = code == 0 and curl["pass"] and trg["pass"] and stability["pass"]
    report(
        8,
        "curl-free and key structure",
        ok,
        f"curl={curl['value']:.2e}, trG_gap={trg['value']:.2e}, "
        f"ratio_stability={stability['value']:.3f}x",
    )
    assert ok


def test_criterion_09_generalized_stokes(tmp_path: Path) -> None:
    start = time.monotonic()
    config = SimulationConfig.from_dict(
        {"dim": 2, "n": GRID_N, "seed": 0, "out_dir": str(tmp_path)}
    )
    code, _, verdict = run_scenario("stokes_verify", config)
    by_name = {c["name"]: c for c in verdict["checks"]}
    trials = by_name["residual_trials_passed"]
    analytic = by_name["analytic_examples_max_err"]
    elapsed = time.monotonic() - start
    ok = code == 0 and trials["value"] == 100.0 and analytic["pass"] and elapsed < 10.0
    report(
        9,
        "generalized Stokes solver",
        ok,
        f"trials={trials['value']:.0f}/100, analytic_err={analytic['value']:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_mollifier_convergence(grid64: TorusGrid) -> None:
    start = time.monotonic()
    m0 = generate_initial_data(grid64, "random_small", "A", amplitude=1e-2, seed=5).M
    cfg = IntegratorConfig(dt=DT, t_end=0.2)
    study = mollifier_convergence_study([4.0, 8.0, 16.0], m0, None, 2, cfg)
    min_drop = min(study.drop_factors)
    elapsed = time.monotonic() - start
    ok = min_drop >= 4.0 and study.bound_ok and elapsed < 120.0
    report(
        10,
        "mollifier cutoff convergence",
        ok,
        f"min_drop={min_drop:.3g}x, energy_bound_ok={study.bound_ok}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_11_picard_iteration(grid64: TorusGrid) -> None:
    start = time.monotonic()
    initial = generate_initial_data(grid64, "flow_map_F", "A", amplitude=1e-2, seed=5)
    cfg = IntegratorConfig(dt=DT, t_end=0.1)
    prun = picard_iterate(initial, PARAMS, 8, cfg, 2)
    mono = run(initial, PARAMS, cfg)
    assert mono.status == "completed"
    distance = picard_metric(prun.states_at_T[-1], mono.state, 2)
    bound_ok = max(e + d for e, d in zip(prun.e_sup, prun.d_int)) <= 2.0 * prun.e0
    max_ratio = max(prun.ratios)
    elapsed = time.monotonic() - start
    ok = (
        max_ratio <= 0.5
        and distance <= 1e-4
        and bound_ok
        and elapsed < 180.0
    )
    report(
        11,
        "Picard iteration convergence",
        ok,
        f"max_ratio={max_ratio:.3f}, distance={distance:.2e}, "
        f"bound_ok={bound_ok}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_12_temporal_order(grid64: TorusGrid) -> None:
    start = time.monotonic()
    horizon = 0.1
    orders = {}
    for formulation in ("A", "B"):
        state = generate_initial_data(
            grid64, "random_small", formulation, amplitude=1e-2, seed=2
        )
        reference = run(state, PARAMS, IntegratorConfig(dt=horizon / 800, t_end=horizon))
        assert reference.status == "completed"
        errors = []
        for dt in (4e-3, 2e-3):
            result = run(state, PARAMS, IntegratorConfig(dt=dt, t_end=horizon))
            assert result.status == "completed"
            errors.append(max_state_diff(result.state, reference.state))
        orders[formulation] = math.log2(errors[0] / errors[1])
    elapsed = time.monotonic() - start
    ok = all(order >= 1.9 for order in orders.values()) and elapsed < 120.0
    report(
        12,
        "second-order time accuracy",
        ok,
        f"order_A={orders['A']:.3f}, order_B={orders['B']:.3f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_13_reproducibility(tmp_path: Path) -> None:
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "dim": 2,
                "n": GRID_N,
                "dt": DT,
                "t_end": 0.05,
                "initial_data": "random_small",
                "amplitude": 1e-2,
            }
        )
    )
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    args = ["run", str(config_path), "--seed", "3", "--quiet"]
    assert main(args + ["--out-dir", str(dir_a)]) == 0
    assert main(args + ["--out-dir", str(dir_b)]) == 0
    csv_a = (dir_a / "diagnostics.csv").read_bytes()
    csv_b = (dir_b / "diagnostics.csv").read_bytes()
    snap_a = (dir_a / "final.snap").read_bytes()
    snap_b = (dir_b / "final.snap").read_bytes()
    ok = csv_a == csv_b and snap_a == snap_b
    report(
        13,
        "bitwise reproducibility",
        ok,
        f"csv_bytes={len(csv_a)}, identical={ok}",
    )
    assert ok
