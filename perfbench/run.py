"""Benchmark of the elastomag solver; run from the root of a checkout.

    python3 perfbench/run.py --workload run2d_diag --seed 0 --seconds 30 --trace 0

Every workload runs in a fresh, single-threaded worker process (BLAS and
OpenMP pools at one thread, scipy.fft workers at 1). Set-up is measured in
SETUP_SAMPLES fresh processes and reported as their median. End-to-end times
are in reference seconds (see calibrate.py). The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics BENCHMARK.json lists with --trace 0, its
per-layer metrics with --trace 1). Everything a run writes goes under .perfbench_runs/ in the
checkout. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("run2d_diag", "run3d_sparse", "schemes_2d")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _spawn(args: argparse.Namespace, workdir: Path, deadline: float, setup_only: bool) -> dict:
    """Run one worker process to its end and return its result.json."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [
        sys.executable,
        str(Path(__file__).resolve().parent / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    cmd += ["--spawned-at", repr(time.monotonic())]
    # the worker's own output goes to stderr: stdout ends with the result line
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the time limit") from None
    if code != 0 or not result_path.is_file():
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(result_path.read_text())


def main() -> int:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "elastomag" / "__init__.py").is_file():
        return _fail(f"no elastomag source tree under {root / 'src'}; run from a checkout root")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = root / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probes.append(_spawn(args, workdir, deadline, setup_only=True))
        result = _spawn(args, workdir, deadline, setup_only=False)
    except RuntimeError as err:
        return _fail(str(err))
    probes.append(result)
    setup = [p["setup_s"] for p in probes]

    env = dict(result["env"], nproc=os.cpu_count())
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"rounds: {result['rounds']}  operations: {result['attempted']} attempted, "
          f"{result['failed']} failed  correct: {result['correct']}")
    print(f"measured: median round {result['wall_raw_s']:.6g} s, reference kernel "
          f"{statistics.median(result['kernel_s']):.6g} s (times below are reference seconds)")
    for name, value in result["per_op"].items():
        unit = "ms" if name.startswith("ms_per_step") else "s"
        print(f"  {name:<32} {value:.6g} {unit}")
    if args.trace:
        values = result["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "fft_scalar_count": result["fft_scalar_count"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"no figure for metrics {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    details = dict(
        summary,
        env=env,
        setup_samples=setup,
        setup_raw_samples=[p["setup_raw_s"] for p in probes],
        round_walls=result["round_walls"],
        round_references=result["round_references"],
        wall_raw_s=result["wall_raw_s"],
        kernel_s=result["kernel_s"],
    )
    (workdir / "summary.json").write_text(json.dumps(details, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
