"""Print the golden hashes of the reproducibility configs.

Runs every tracked config and all seven scenarios through the elastomag
CLI, each in a fresh temporary directory, and prints one line per output
file, with its path relative to the run's output directory:

    <config> <file> <sha256[:16]>

The package comes from the src/ tree of the checkout this file sits in, so
running the tool from two checkouts and diffing the output compares their
bytes. Nothing is stored; the tool is slow (minutes) and not a test.

    python3 tools/golden_hashes.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from elastomag.harness.cli import main as cli  # noqa: E402

RUN2D_DIAG = {"dim": 2, "n": 128, "dt": 0.001, "t_end": 0.03, "initial_data": "random_small",
              "amplitude": 0.01, "diag_every": 1, "snapshot_every": 10}
RUN3D_SPARSE = {"dim": 3, "n": 32, "dt": 0.001, "t_end": 0.012, "initial_data": "random_small",
                "amplitude": 0.01, "diag_every": 12, "snapshot_every": 0}
N32 = {"dim": 2, "n": 32, "dt": 0.001, "t_end": 0.05, "initial_data": "random_small",
       "amplitude": 0.01}

# name -> (CLI subcommand and its leading arguments, config dict or file, seed)
RUNS: dict[str, tuple[list[str], dict | Path, int]] = {
    "run2d_diag_A": (["run"], {**RUN2D_DIAG, "formulation": "A"}, 0),
    "run2d_diag_B": (["run"], {**RUN2D_DIAG, "formulation": "B"}, 0),
    "run3d_sparse_A": (["run"], {**RUN3D_SPARSE, "formulation": "A"}, 0),
    "run3d_sparse_B": (["run"], {**RUN3D_SPARSE, "formulation": "B"}, 0),
    "criterion_13": (["run"], {"dim": 2, "n": 64, "dt": 0.001, "t_end": 0.05,
                               "initial_data": "random_small", "amplitude": 0.01}, 3),
    "n32_A_kappa_single_mode": (["run"], {**N32, "formulation": "A", "kappa": 0.1,
                                          "h_ext": {"type": "single_mode", "amplitude": 0.1,
                                                    "wavevector": [1, 0], "component": 0,
                                                    "omega": 2.0}}, 0),
    "n32_B_no_dealias": (["run"], {**N32, "formulation": "B", "dealias": False}, 0),
    "n32_B_sparse_renormalized": (["run"], {**N32, "formulation": "B", "diag_every": 3,
                                            "renormalize_m": True, "snapshot_every": 5}, 0),
}
# the scenarios: three on their perfbench configs, then the four without one
RUNS.update(
    (name, (["scenario", name], config, 0))
    for name, config in (
        ("mollifier_study", ROOT / "perfbench" / "configs" / "mollifier_study.json"),
        ("picard_study", ROOT / "perfbench" / "configs" / "picard_study.json"),
        ("stokes_verify", ROOT / "perfbench" / "configs" / "stokes_verify.json"),
        ("decay_small_data", {**N32, "formulation": "B"}),
        ("formulation_equivalence", N32),
        ("constraint_audit", {**N32, "formulation": "B"}),
        ("lifespan_probe", {**N32, "formulation": "A"}),
    )
)


def _hashes(out_dir: Path) -> list[tuple[str, str]]:
    return [(p.relative_to(out_dir).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest()[:16])
            for p in sorted(out_dir.rglob("*")) if p.is_file()]


def _run(args: list[str], config_path: Path, seed: int, out_dir: Path) -> None:
    code = cli(args + [str(config_path), "--seed", str(seed), "--out-dir", str(out_dir),
                        "--quiet"])
    if code != 0:
        raise SystemExit(f"{' '.join(args)} {config_path} exited with {code}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, (args, config, seed) in RUNS.items():
            path = config
            if isinstance(config, dict):
                path = work / f"{name}.json"
                path.write_text(json.dumps(config))
            out_dir = work / "out" / name
            _run(args, path, seed, out_dir)
            for file_name, digest in _hashes(out_dir):
                print(f"{name} {file_name} {digest}", flush=True)


if __name__ == "__main__":
    main()
