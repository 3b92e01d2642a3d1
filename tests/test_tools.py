"""The golden-hash tool still names configs and scenarios the package accepts."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from elastomag.harness import SimulationConfig
from elastomag.harness.scenarios import SCENARIOS

GOLDEN = Path(__file__).resolve().parent.parent / "tools" / "golden_hashes.py"


def load_runs() -> dict:
    spec = importlib.util.spec_from_file_location("golden_hashes", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RUNS


RUNS = load_runs()


@pytest.mark.parametrize("name", list(RUNS))
def test_every_golden_run_parses(name: str) -> None:
    args, config, _seed = RUNS[name]
    if isinstance(config, dict):
        SimulationConfig.from_dict(config)
    else:
        SimulationConfig.from_file(config)
    assert args[0] in ("run", "scenario")
    if args[0] == "scenario":
        assert args[1] in SCENARIOS
