"""Print the per-change trajectory of every workload's medians from the BENCH files.

Reads workloads.<workload>.pairs from every BENCH_*.json in a directory
(the repository root by default) and prints, per file, workload and
metric, the median over the parent runs and over the change runs, in the
order the files were first committed (files git does not know come last,
by name):

    BENCH_state_layout.json
      run2d_diag  wall_s  2.437 -> 2.401  (-1.5%, 10/10 runs)

Two pair layouts are read:

- per-run records, one per side, with "side" "parent" or "change" and the
  metrics either in "metrics" or in the record itself; a metric is a
  number or an object {"value": number, ...} as perfbench prints it;
- records that hold both sides, {"parent": {...}, "change": {...}}, each
  side's metrics as above.

New files use the first layout with metrics as perfbench prints them, and
may hold any other key beside "pairs":

    {"what": "...",
     "workloads": {"schemes_2d": {"pairs": [
         {"pair": 0, "seed": 1, "side": "parent", "run_order": 0,
          "correct": true, "attempted": 3, "failed": 0,
          "metrics": {"wall_s": {"value": 14.1, "unit": "s"}, ...}},
         {"pair": 0, "seed": 1, "side": "change", "run_order": 1, ...},
         ...]}}}

Keys that describe a run rather than measure it (pair, seed, side,
run_order, first, correct, attempted, failed) are not metrics.

    python3 tools/bench_trajectory.py [--dir DIR]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
NOT_METRICS = {"pair", "seed", "side", "run_order", "first", "correct", "attempted", "failed"}


def _metrics(record: dict) -> dict[str, float]:
    """The numeric metrics of one side's run record."""
    found = record.get("metrics", record)
    out = {}
    for name, value in found.items():
        if isinstance(value, dict):
            value = value.get("value")
        if name not in NOT_METRICS and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            out[name] = float(value)
    return out


def read_pairs(doc: dict) -> dict[str, dict[str, dict[str, list[float]]]]:
    """workload -> side -> metric -> the values of its runs, in file order."""
    out: dict[str, dict[str, dict[str, list[float]]]] = {}
    for workload, entry in doc.get("workloads", {}).items():
        if not isinstance(entry, dict) or "pairs" not in entry:
            continue
        sides: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
        for record in entry["pairs"]:
            runs = [(record["side"], record)] if "side" in record else \
                [(side, record[side]) for side in SIDES if side in record]
            for side, run in runs:
                for name, value in _metrics(run).items():
                    sides[side].setdefault(name, []).append(value)
        out[workload] = sides
    return out


def commit_order(paths: list[Path]) -> list[Path]:
    """paths ordered by the time git first committed each, unknown ones last by name."""
    first: dict[str, int] = {}
    if paths:
        try:
            log = subprocess.run(
                ["git", "log", "--reverse", "--diff-filter=A", "--name-only", "--format=%ct",
                 "--", *(p.name for p in paths)],
                cwd=paths[0].parent, capture_output=True, text=True, check=True,
            ).stdout
        except (OSError, subprocess.CalledProcessError):
            log = ""
        stamp = 0
        for line in log.splitlines():
            if line.isdigit():
                stamp = int(line)
            elif line:
                first.setdefault(Path(line).name, stamp)
    return sorted(paths, key=lambda p: (p.name not in first, first.get(p.name, 0), p.name))


def trajectory(paths: list[Path]) -> list[tuple[str, str, str, float, float, int, int]]:
    """(file, workload, metric, parent median, change median, parent runs,
    change runs) for every metric both sides report, files in the given order."""
    rows = []
    for path in paths:
        for workload, sides in read_pairs(json.loads(path.read_text())).items():
            parent, change = (sides[side] for side in SIDES)
            for name in parent:
                if name in change:
                    rows.append((path.name, workload, name,
                                 statistics.median(parent[name]),
                                 statistics.median(change[name]),
                                 len(parent[name]), len(change[name])))
    return rows


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, default=ROOT,
                        help="directory holding the BENCH_*.json files")
    args = parser.parse_args(argv)
    current = None
    for name, workload, metric, before, after, n_before, n_after in trajectory(
            commit_order(sorted(args.dir.glob("BENCH_*.json")))):
        if name != current:
            print(name)
            current = name
        change = f"{100.0 * (after - before) / before:+.1f}%" if before else "n/a"
        print(f"  {workload}  {metric}  {before:.6g} -> {after:.6g}  "
              f"({change}, {n_before}/{n_after} runs)")


if __name__ == "__main__":
    main()
