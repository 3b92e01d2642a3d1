"""Print where a perfbench workload's resident peak rises, in one process.

Replays what a perfbench worker does with one workload: single-threaded
transforms, the transform counter, the workload's set-up, the reference
kernel's passes after it and one before every operation of each round.
A tracer that sees only elastomag's frames reads ru_maxrss at each of
their line and call events and at every Python call outside them; each
rise of at least --min-mb is printed with its phase and the elastomag call
path (innermost frame first) that ran since the last reading, or the
outside function it was in; the peak and where it was reached come last:

    rss_trace: run3d_sparse seed 31, 2 rounds, ru_maxrss in MB
      +4.75 -> 73.76  setup  elastomag.spectral.TorusGrid.ifft:151 < ...
      ...
      +0.70 -> 96.71  round1  elastomag.dynamics._deformation_hat:212 < ...
    peak 96.71 MB in round1 at elastomag.dynamics._deformation_hat:212 < ...

ru_maxrss also counts what NumPy and scipy.fft allocate outside Python's
allocator, which tracemalloc does not see. Linux starts a process's
ru_maxrss at its parent's peak, so start the tool from a shell or another
small process, as perfbench starts its workers from run.py. --n replaces the grid size of
every config the workload reads (a smaller replica, not the benchmark's
figures). The workload's files go to a temporary directory. Line events
make the run several times slower than the worker, but the allocations,
and so the path of the peak, are the worker's. The peak's size moves by
about 1 MB with the heap's history (one tree read 96.7 MB from one
directory and 97.9 MB from another), so compare trees by perfbench's
peak_rss_mb over alternating runs, not by one trace each.

    python3 tools/rss_trace.py WORKLOAD [--seed S] [--rounds R] [--min-mb X] [--n N]
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import scipy.fft  # noqa: E402

import elastomag as em  # noqa: E402
from calibrate import ReferenceKernel, SegmentClock  # noqa: E402
from tracing import Probe  # noqa: E402
from worker import KERNEL_PASSES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE = str(ROOT / "src" / "elastomag")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RssTracer:
    """Records each rise of ru_maxrss with the code that ran since the last reading."""

    def __init__(self, min_mb: float) -> None:
        self.min_mb = min_mb
        self.phase = "setup"
        self.where = "start"
        self.last = _maxrss_mb()
        self.rises: list[tuple[float, float, str, str]] = []  # rise, total, phase, path
        self.peak = (self.last, self.phase, self.where)

    def _read(self) -> None:
        now = _maxrss_mb()
        if now > self.last:
            if now - self.last >= self.min_mb:
                self.rises.append((now - self.last, now, self.phase, self.where))
            self.last = now
            self.peak = (now, self.phase, self.where)

    def _local(self, frame, event, arg):
        self._read()
        self.where = _where(frame.f_back if event == "return" else frame)
        return self._local

    def __call__(self, frame, event, arg):
        self._read()
        self.where = _where(frame)
        return self._local if frame.f_code.co_filename.startswith(PACKAGE) else None


def _where(frame) -> str:
    """The elastomag frames from this one outward, as module.function:line, or
    without one, the innermost function outside NumPy and SciPy."""
    out, outside = [], None
    while frame is not None:
        module = frame.f_globals.get("__name__", "?")
        name = getattr(frame.f_code, "co_qualname", frame.f_code.co_name)  # 3.11+
        if frame.f_code.co_filename.startswith(PACKAGE):
            out.append(f"{module}.{name}:{frame.f_lineno}")
        elif outside is None and not module.startswith(("numpy", "scipy")):
            outside = f"{module}.{name}"
        frame = frame.f_back
    return " < ".join(out) or outside or "?"


def _smaller(n: int) -> None:
    """Make every config the workload reads use an n-point grid."""
    from_file = em.SimulationConfig.from_file.__func__
    em.SimulationConfig.from_file = classmethod(
        lambda cls, path: from_file(cls, path).with_overrides(n=n))


def trace(name: str, seed: int, rounds: int, min_mb: float, workdir: Path) -> RssTracer:
    """Set up the workload and run its rounds under the tracer, as a worker would."""
    tracer = RssTracer(min_mb)
    sys.settrace(tracer)
    try:
        with scipy.fft.set_workers(1):
            kernel = ReferenceKernel()
            probe = Probe()
            probe.install_counter()
            workload = WORKLOADS[name](name)
            workload.setup(em, seed, workdir)
            for _ in range(KERNEL_PASSES):
                kernel()
            for r in range(rounds):
                tracer.phase = f"round{r}"
                clock = SegmentClock(kernel)
                workload.round(em, probe, tracer.phase, clock.tick)
                clock.tick()
            probe.uninstall()
    finally:
        sys.settrace(None)
    tracer._read()
    return tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--min-mb", type=float, default=0.5)
    ap.add_argument("--n", type=int, default=None)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    if args.n is not None:
        _smaller(args.n)
    with tempfile.TemporaryDirectory(prefix="rss_trace_") as tmp:
        tracer = trace(args.workload, args.seed, args.rounds, args.min_mb, Path(tmp))
    print(f"rss_trace: {args.workload} seed {args.seed}, {args.rounds} rounds, "
          f"ru_maxrss in MB")
    for rise, total, phase, where in tracer.rises:
        print(f"  +{rise:.2f} -> {total:.2f}  {phase}  {where}")
    peak, phase, where = tracer.peak
    print(f"peak {peak:.2f} MB in {phase} at {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
