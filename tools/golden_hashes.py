"""Print the golden hashes of the reproducibility configs, or compare kept outputs.

Runs every tracked config and all seven scenarios through the elastomag
CLI, each in a fresh temporary directory, and prints one line per output
file, with its path relative to the run's output directory:

    <config> <file> <sha256[:16]>

The package comes from the src/ tree of the checkout this file sits in, so
running the tool from two checkouts and diffing the output compares their
bytes. With --keep DIR the outputs stay in DIR/<config>/. Nothing is stored
otherwise; the tool is slow (minutes) and not a test.

--compare OLD NEW reads two kept trees and prints, per file, the largest
relative change of its entries: CSV columns, snapshot fields (and t) and
numeric JSON leaves. An entry's change is max|new - old| / max|old|; entries
whose scale max|old| is below SMALL are reported apart, by their absolute
change, since rounding-sized residuals have no meaningful relative change.
Entries kept in only one of the two files are named after the changes of
the entries they share.

    python3 tools/golden_hashes.py [--keep DIR]
    python3 tools/golden_hashes.py --compare OLD NEW
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from elastomag.harness.cli import main as cli  # noqa: E402
from elastomag.harness.snapshot import load_snapshot  # noqa: E402

SMALL = 1e-9  # entries whose scale max|old| is below this get an absolute change

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


def _run_all(work: Path, keep: Path | None) -> None:
    for name, (args, config, seed) in RUNS.items():
        path = config
        if isinstance(config, dict):
            path = work / f"{name}.json"
            path.write_text(json.dumps(config))
        out_dir = (keep if keep is not None else work / "out") / name
        _run(args, path, seed, out_dir)
        for file_name, digest in _hashes(out_dir):
            print(f"{name} {file_name} {digest}", flush=True)


def _entries(path: Path) -> dict[str, np.ndarray | str]:
    """A kept output file's entries by name: float arrays, or text compared as is."""
    if path.suffix == ".snap":
        state = load_snapshot(path)
        return {"t": np.array([state.t]),
                **{name: f.values for name, f in zip(state.names, state.fields)}}
    if path.suffix == ".csv":
        with path.open(newline="") as handle:
            header, *rows = list(csv.reader(handle))
        out: dict[str, np.ndarray | str] = {}
        for i, column in enumerate(header):
            cells = [row[i] for row in rows]
            try:
                out[column] = np.array([float(c) for c in cells])
            except ValueError:
                out[column] = ",".join(cells)
        return out
    if path.suffix == ".json":
        leaves: dict[str, np.ndarray | str] = {}

        def walk(node, key: str) -> None:
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(v, f"{key}.{k}" if key else k)
            elif isinstance(node, list):
                for k, v in enumerate(node):
                    walk(v, f"{key}[{k}]")
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                leaves[key] = np.array([float(node)])
            else:
                leaves[key] = json.dumps(node)

        walk(json.loads(path.read_text()), "")
        return leaves
    return {"bytes": path.read_bytes().hex()}


def _change(old: np.ndarray | str, new: np.ndarray | str) -> tuple[float, float] | None:
    """(change, scale) of one entry over its non-NaN values, (0, 0) for equal
    text; None when a text entry, the shape or the place of a NaN differs."""
    if isinstance(old, str) or isinstance(new, str):
        return (0.0, 0.0) if old == new else None
    if old.shape != new.shape or not np.array_equal(np.isnan(old), np.isnan(new)):
        return None
    kept = ~np.isnan(old)
    if not kept.any():
        return 0.0, 0.0
    return float(np.max(np.abs(new[kept] - old[kept]))), float(np.max(np.abs(old[kept])))


def compare_file(old_path: Path, new_path: Path) -> str:
    """One line of compare output for a file kept in both trees."""
    if old_path.read_bytes() == new_path.read_bytes():
        return "identical"
    old, new = _entries(old_path), _entries(new_path)
    rel, rel_key, small, small_key, broken = 0.0, "", 0.0, "", []
    for key in (k for k in old if k in new):
        change = _change(old[key], new[key])
        if change is None:
            broken.append(key)
        elif change[1] >= SMALL:
            if change[0] / change[1] > rel:
                rel, rel_key = change[0] / change[1], key
        elif change[0] > small:
            small, small_key = change[0], key
    line = f"max_rel {rel:.2g} ({rel_key})" if rel_key else "max_rel 0"
    if small_key:
        line += f"; below {SMALL:g} scale: max_abs {small:.2g} ({small_key})"
    if broken:
        line += f"; changed text, shape or NaN: {', '.join(broken)}"
    if set(old) != set(new):
        line += f"; entries differ: {sorted(set(old) ^ set(new))}"
    return line


def compare(old_dir: Path, new_dir: Path) -> None:
    """Print <config>/<file> and its compare line for every file of either tree."""
    names = sorted({p.relative_to(root).as_posix() for root in (old_dir, new_dir)
                    for p in root.rglob("*") if p.is_file()})
    for name in names:
        old_path, new_path = old_dir / name, new_dir / name
        if not (old_path.is_file() and new_path.is_file()):
            line = f"only in {old_dir if old_path.is_file() else new_dir}"
        else:
            line = compare_file(old_path, new_path)
        print(f"{name} {line}", flush=True)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="keep every run's outputs in DIR/<config>/")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="compare two kept trees instead of running")
    args = parser.parse_args(argv)
    if args.compare is not None:
        compare(*args.compare)
        return
    with tempfile.TemporaryDirectory() as tmp:
        _run_all(Path(tmp), args.keep)


if __name__ == "__main__":
    main()
