"""One workload run in a fresh process (started by run.py, not by hand).

The launcher sets the thread-count variables before this interpreter
starts and passes the CLOCK_MONOTONIC reading taken just before the spawn,
so `setup_s` covers interpreter start, imports, config parsing and initial
data. After set-up the worker runs whole rounds of the workload's
operations for as long as another round is expected to end within
--seconds, reports round times as medians over the rounds, and writes its
figures to result.json in its work directory.

End-to-end times are converted to reference seconds with the reference
kernel (calibrate.py): KERNEL_PASSES passes right after set-up, and inside
each round one pass before every operation and one after the last, so each
operation is converted with the passes on either side of it. Per-layer
times stay in measured seconds.

With --trace 1, rounds alternate untraced and traced; the traced rounds give
the per-layer figures and the difference of the median round of each kind
gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path


KERNEL_PASSES = 5


@dataclass
class Round:
    label: str
    traced: bool
    wall: float  # measured seconds, reference-kernel passes excluded
    reference: float  # the same in reference seconds
    ops: list  # workloads.OpResult
    cross: list  # cross-path workloads.Gate
    scalars: int  # scalar transforms in the round


def _import_package(root: Path):
    """Import elastomag from the checkout's src/, never from elsewhere."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import elastomag

    if Path(elastomag.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"elastomag imported from {elastomag.__file__}, not from {src}")
    return elastomag


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    workdir = Path(args.workdir)
    em = _import_package(root)
    import numpy
    import scipy
    import scipy.fft

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from calibrate import ReferenceKernel, SegmentClock, to_reference
    from tracing import Probe, entry_point_guard, layer_metrics
    from workloads import WORKLOADS, Gate

    result: dict = {}
    with scipy.fft.set_workers(1):
        kernel = ReferenceKernel()
        probe = Probe()
        probe.install_counter()
        if args.trace:
            probe.install_entry_points()
        workload = WORKLOADS[args.workload](args.workload)
        workload.setup(em, args.seed, workdir)
        setup_raw = time.monotonic() - args.spawned_at
        probe.remove_entry_points()
        for _ in range(KERNEL_PASSES):
            kernel()
        result["setup_raw_s"] = setup_raw
        result["setup_s"] = to_reference(setup_raw, kernel.samples)
        if args.setup_only:
            (workdir / "result.json").write_text(json.dumps(result))
            return 0

        rounds: list[Round] = []
        min_rounds = max(workload.min_rounds, 2 * args.trace)
        phase_start = time.perf_counter()
        while True:
            label = f"round{len(rounds)}"
            traced = bool(args.trace) and len(rounds) % 2 == 1
            if traced:
                probe.install_entry_points()
            before = sum(probe.scalars.values())
            clock = SegmentClock(kernel)
            ops, cross = workload.round(em, probe, label, clock.tick)
            clock.tick()
            if traced:
                probe.remove_entry_points()
            scalars = sum(probe.scalars.values()) - before
            segments = clock.segments()
            for op, (_, factor) in zip(ops, segments):
                op.reference = op.seconds * factor
            wall = sum(seconds for seconds, _ in segments)
            reference = sum(seconds * factor for seconds, factor in segments)
            rounds.append(Round(label, traced, wall, reference, ops, cross, scalars))
            elapsed = time.perf_counter() - phase_start
            typical = statistics.median(r.wall for r in rounds)
            if len(rounds) >= min_rounds and elapsed + typical > args.seconds:
                break
        probe.uninstall()

    gates = []
    attempted = failed = 0
    for r in rounds:
        for op in r.ops:
            attempted += 1
            failed += op.failed
            gates.extend((r.label, g) for g in op.gates)
        gates.extend((r.label, g) for g in r.cross)
    for op_name in workload.ops:
        digests = {op.digest for r in rounds for op in r.ops if op.name == op_name and op.digest}
        if len(digests) > 1:
            gates.append(("all", Gate(f"output_bytes_repeat_{op_name}", False, len(digests), 1)))
    counts = {r.scalars for r in rounds}
    gates.append(("all", Gate("transform_count_repeats", len(counts) == 1, len(counts), 1)))
    bad = [(label, g) for label, g in gates if not g.passed]
    for label, g in bad:
        print(f"gate failed [{label}] {g.name}: value={g.value} threshold={g.threshold}",
              file=sys.stderr)

    untraced = [r for r in rounds if not r.traced]
    per_op: dict[str, float] = {}
    for op_name in workload.ops:
        done = [op for r in untraced for op in r.ops if op.name == op_name and not op.failed]
        if not done:
            continue
        seconds = statistics.median(op.reference for op in done)
        if done[0].steps:
            per_op[f"ms_per_step_{op_name}"] = 1e3 * seconds / done[0].steps
        else:
            per_op[f"{op_name}_s"] = seconds

    result.update(
        {
            "correct": not bad,
            "attempted": attempted,
            "failed": failed,
            "rounds": len(rounds),
            "wall_s": statistics.median(r.reference for r in untraced),
            "wall_raw_s": statistics.median(r.wall for r in untraced),
            "kernel_s": kernel.samples,
            "round_walls": [r.wall for r in rounds],
            "round_references": [r.reference for r in rounds],
            "fft_scalar_count": rounds[0].scalars,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "per_op": per_op,
            "gates": [
                {"round": label, "name": g.name, "pass": g.passed,
                 "value": g.value, "threshold": g.threshold}
                for label, g in gates
            ],
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "elastomag": em.__version__,
            },
        }
    )
    if args.trace:
        problems = entry_point_guard(probe, args.workload)
        if problems:
            for p in problems:
                print(f"entry-point guard: {p}", file=sys.stderr)
            return 1
        traced_rounds = [r for r in rounds if r.traced]
        layers = layer_metrics(probe, [r.label for r in traced_rounds])
        traced_wall = statistics.median(r.wall for r in traced_rounds)
        layers["energetics.diag_share"] = layers["energetics.diag_s"] / traced_wall
        layers["trace.overhead_s"] = traced_wall - result["wall_raw_s"]
        result["per_layer"] = layers
        probe.write_spans(str(workdir / "spans.csv"))
    (workdir / "result.json").write_text(json.dumps(result, indent=1, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
