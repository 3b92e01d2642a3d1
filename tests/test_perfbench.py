"""The benchmark's traced entry points still name callables in the package."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_entry_point_resolves_to_a_callable() -> None:
    entry_points = load_tracing().ENTRY_POINTS
    assert entry_points
    missing = [
        f"{ep.module}.{ep.attr}"
        for ep in entry_points
        if not (ep.module == "elastomag" or ep.module.startswith("elastomag."))
        or not callable(getattr(importlib.import_module(ep.module), ep.attr, None))
    ]
    assert missing == []


def test_run_path_passes_the_entry_point_guard(tmp_path) -> None:
    """A small A and B run calls every entry point the run workloads trace,
    rhs_A and rhs_B included."""
    import elastomag

    tracing = load_tracing()
    probe = tracing.Probe()
    try:
        probe.install_counter()
        probe.install_entry_points()
        for formulation in ("A", "B"):
            config = elastomag.SimulationConfig.from_dict(
                {
                    "dim": 2,
                    "n": 16,
                    "dt": 1e-3,
                    "t_end": 2e-3,
                    "formulation": formulation,
                    "initial_data": "random_small",
                    "snapshot_every": 1,
                    "out_dir": str(tmp_path / formulation),
                }
            )
            art = elastomag.run_simulation(config)
            elastomag.load_snapshot(art.final_snapshot)
        assert tracing.entry_point_guard(probe, "run2d_diag") == []
    finally:
        probe.uninstall()


def test_schemes_path_passes_the_entry_point_guard(tmp_path) -> None:
    """A small mollifier study, Picard study and Stokes check, the workload's
    three scenarios, call every entry point the schemes workload traces:
    _integrate_llg only through the mollifier study, picard_iterate through
    the Picard study."""
    import elastomag

    tracing = load_tracing()
    probe = tracing.Probe()
    try:
        probe.install_counter()
        probe.install_entry_points()
        # n = 48 is the smallest grid the study's largest cutoff (16 <= n/3) allows
        mollifier = elastomag.SimulationConfig.from_dict(
            {"dim": 2, "n": 48, "dt": 1e-3, "t_end": 2e-3, "initial_data": "random_small",
             "amplitude": 0.01, "out_dir": str(tmp_path / "mollifier")}
        )
        elastomag.run_scenario("mollifier_study", mollifier)
        picard = elastomag.SimulationConfig.from_dict(
            {
                "dim": 2,
                "n": 16,
                "dt": 1e-3,
                "t_end": 2e-3,
                "formulation": "A",
                "initial_data": "flow_map_F",
                "out_dir": str(tmp_path / "picard"),
            }
        )
        elastomag.run_scenario("picard_study", picard)
        stokes = elastomag.SimulationConfig.from_dict(
            {"dim": 2, "n": 16, "out_dir": str(tmp_path / "stokes")}
        )
        elastomag.run_scenario("stokes_verify", stokes)
        assert tracing.entry_point_guard(probe, "schemes_2d") == []
    finally:
        probe.uninstall()
