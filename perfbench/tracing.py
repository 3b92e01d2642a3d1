"""Transform counting and span tracing, installed from outside the package.

Nothing here edits elastomag: the probe rebinds module attributes. A
function is replaced in every elastomag module that holds it under any
name, so calls made through `from .x import f` bindings are seen too.

Two modes share one probe:

* counting (always on): every scipy.fft / numpy.fft transform entry adds
  the number of scalar transforms it performs, which is the product of the
  sizes of the axes it does not transform;
* tracing (opt-in): each wrapped call, transforms included, also records a
  span (name, start, end, parent, run id). Spans stay in memory and are
  written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

RUNS = ("run2d_diag", "run3d_sparse")
SCHEMES = ("schemes_2d",)
ALL = RUNS + SCHEMES

_TRANSFORM_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
)


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped boundary: span name, where the function lives, and the
    workloads on which a traced run must see it called."""

    span: str
    module: str
    attr: str
    workloads: tuple[str, ...]
    bytes_arg: int | None = None  # index of a path argument whose file size is recorded


ENTRY_POINTS = (
    EntryPoint("harness.run_simulation", "elastomag.harness.scenarios", "run_simulation", RUNS),
    EntryPoint("harness.run_scenario", "elastomag.harness.scenarios", "run_scenario", SCHEMES),
    EntryPoint("harness.initial_data", "elastomag.harness.initial_data", "generate_initial_data", ALL),
    EntryPoint("harness.snapshot_write", "elastomag.harness.snapshot", "write_snapshot", RUNS, 1),
    EntryPoint("harness.snapshot_read", "elastomag.harness.snapshot", "load_snapshot", RUNS, 0),
    EntryPoint("harness.csv", "elastomag.harness.scenarios", "_write_csv", RUNS, 0),
    EntryPoint("timestepper.run", "elastomag.timestepper", "run", ALL),
    EntryPoint("timestepper.step_A", "elastomag.timestepper", "step_A", ALL),
    EntryPoint("timestepper.step_B", "elastomag.timestepper", "step_B", RUNS),
    EntryPoint("energetics.diag", "elastomag.energetics", "diagnostic_record", RUNS),
    EntryPoint("dynamics.rhs_A", "elastomag.dynamics", "rhs_A", RUNS),
    EntryPoint("dynamics.rhs_B", "elastomag.dynamics", "rhs_B", RUNS),
    EntryPoint("dynamics.tendency_A", "elastomag.dynamics", "_tendency_hats_A", ALL),
    EntryPoint("dynamics.tendency_B", "elastomag.dynamics", "_tendency_hats_B", RUNS),
    EntryPoint("fields.inverse", "elastomag.fields", "inverse_values", RUNS),
    EntryPoint("schemes.llg_solve", "elastomag.schemes", "_integrate_llg", SCHEMES),
    EntryPoint("schemes.picard", "elastomag.schemes", "picard_iterate", SCHEMES),
    EntryPoint("stokes.solve", "elastomag.stokes", "solve_generalized_stokes", SCHEMES),
)


def _transform_arity(fn) -> tuple[str, list[str]]:
    """('1d' | '2d' | 'nd', parameter names) of a transform function."""
    names = list(inspect.signature(fn).parameters)
    name = fn.__name__
    kind = "2d" if name.endswith("2") else "nd" if name.endswith("n") else "1d"
    return kind, names


def scalar_transforms(kind: str, names: list[str], args: tuple, kwargs: dict) -> tuple[int, int]:
    """(scalar transforms, input bytes) of one call: the product of the
    sizes of the axes that are not transformed."""
    x = np.asarray(args[0])
    bound = dict(zip(names[1:], args[1:]))
    bound.update(kwargs)
    ndim = x.ndim
    if kind == "1d":
        axes = (bound.get("axis", -1),)
    else:
        axes = bound.get("axes")
        if axes is None:
            s = bound.get("s")
            if kind == "2d":
                axes = (-2, -1)
            elif s is not None:
                axes = range(-len(s), 0)
            else:
                axes = range(ndim)
    transformed = {a % ndim for a in axes}
    batch = math.prod(x.shape[i] for i in range(ndim) if i not in transformed)
    return batch, x.nbytes


class Probe:
    """Transform counter plus optional span recorder for one process."""

    def __init__(self) -> None:
        self.scalars = {"fwd": 0, "inv": 0}
        self.tracing = False
        self.run_id = "setup"
        self.names: list[str] = []
        self.runs: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.extra: dict[int, tuple[int, int]] = {}  # span -> (scalars, bytes)
        self._stack: list[int] = []
        self._counter_restore: list[tuple[object, str, object]] = []
        self._entry_restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.runs.append(self.run_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    # -- installation ------------------------------------------------------

    def _rebind(self, original: object, wrapper: object) -> int:
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "elastomag" or mod_name.startswith("elastomag.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._entry_restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    hits += 1
        return hits

    def install_counter(self) -> None:
        """Count every transform entry of scipy.fft and numpy.fft."""
        for lib in (importlib.import_module("scipy.fft"), np.fft):
            for name in _TRANSFORM_NAMES:
                fn = getattr(lib, name, None)
                if fn is None:
                    continue
                self._counter_restore.append((lib, name, fn))
                setattr(lib, name, self._transform_wrapper(fn, name))

    def _transform_wrapper(self, fn, name: str):
        kind, names = _transform_arity(fn)
        direction = "inv" if name.startswith("i") else "fwd"
        span = f"spectral.{direction}"
        probe = self
        scalars = self.scalars

        def wrapper(*args, **kwargs):
            batch, nbytes = scalar_transforms(kind, names, args, kwargs)
            scalars[direction] += batch
            if not probe.tracing:
                return fn(*args, **kwargs)
            idx = probe._open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                probe._close(idx)
            probe.extra[idx] = (batch, nbytes + out.nbytes)
            return out

        wrapper.__name__ = name
        return wrapper

    def install_entry_points(self) -> None:
        """Wrap every entry point and start recording spans. An attribute
        that no longer exists is recorded in `missing`, so the run fails
        instead of reading as free."""
        self.tracing = True
        self.missing.clear()
        for ep in ENTRY_POINTS:
            mod = importlib.import_module(ep.module)
            fn = getattr(mod, ep.attr, None)
            if fn is None or self._rebind(fn, self._span_wrapper(fn, ep)) == 0:
                self.missing.append(f"{ep.module}.{ep.attr}")

    def _span_wrapper(self, fn, ep: EntryPoint):
        probe = self
        name = ep.span
        bytes_arg = ep.bytes_arg

        def wrapper(*args, **kwargs):
            idx = probe._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                probe._close(idx)
                if bytes_arg is not None and len(args) > bytes_arg:
                    try:
                        probe.extra[idx] = (0, os.path.getsize(args[bytes_arg]))
                    except OSError:
                        pass

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def remove_entry_points(self) -> None:
        """Restore the original entry points and stop recording spans."""
        self.tracing = False
        _restore(self._entry_restore)

    def uninstall(self) -> None:
        self.remove_entry_points()
        _restore(self._counter_restore)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            out.write("id,name,run,parent,start,end,scalars,bytes\n")
            for i, name in enumerate(self.names):
                scalars, nbytes = self.extra.get(i, (0, 0))
                out.write(
                    f"{i},{name},{self.runs[i]},{self.parents[i]},"
                    f"{self.starts[i]:.9f},{self.ends[i]:.9f},{scalars},{nbytes}\n"
                )


def _restore(bindings: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(bindings):
        setattr(owner, attr, original)
    bindings.clear()


def entry_point_guard(probe: Probe, workload: str) -> list[str]:
    """Mapped entry points (and transform directions) that saw no call."""
    seen = set(probe.names)
    problems = [f"missing entry point {m}" for m in probe.missing]
    for ep in ENTRY_POINTS:
        if workload in ep.workloads and ep.span not in seen:
            problems.append(f"{ep.span} ({ep.module}.{ep.attr}) was never called")
    for direction in ("fwd", "inv"):
        if f"spectral.{direction}" not in seen:
            problems.append(f"no {direction} transform was traced")
    return problems


def layer_metrics(probe: Probe, rounds: list[str]) -> dict:
    """Per-layer figures per traced round, derived from the spans.

    rounds are the run ids of the traced rounds; a span's run id is
    "<round>/<operation>", and the operations of the run workloads are
    named after their formulation. Self time is a span's duration minus the
    durations of its direct children.
    """
    n = len(probe.names)
    names, parents, runs = probe.names, probe.parents, probe.runs
    dur = [probe.ends[i] - probe.starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += dur[i]
    # nearest enclosing step or diagnostic record, tagged by formulation
    tag: list[str | None] = [None] * n
    for i in range(n):
        nm = names[i]
        if nm in ("timestepper.step_A", "timestepper.step_B"):
            tag[i] = "step_" + nm[-1]
        elif nm == "energetics.diag":
            tag[i] = "diag_" + runs[i].rsplit("/", 1)[-1]
        elif parents[i] >= 0:
            tag[i] = tag[parents[i]]

    traced = [i for i in range(n) if runs[i].split("/", 1)[0] in rounds]
    nr = max(1, len(rounds))
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    nbytes: dict[str, int] = {}
    scal: dict[tuple[str, str | None], int] = {}
    rhs_in_diag = 0
    for i in traced:
        nm = names[i]
        total[nm] = total.get(nm, 0.0) + dur[i]
        self_t[nm] = self_t.get(nm, 0.0) + dur[i] - child[i]
        calls[nm] = calls.get(nm, 0) + 1
        extra = probe.extra.get(i)
        if extra is not None:
            nbytes[nm] = nbytes.get(nm, 0) + extra[1]
            if nm.startswith("spectral."):
                key = (nm[-3:], tag[i])
                scal[key] = scal.get(key, 0) + extra[0]
        if nm.startswith("dynamics.rhs_") and tag[i] is not None and tag[i].startswith("diag"):
            rhs_in_diag += 1

    def t(name: str) -> float:
        return total.get(name, 0.0) / nr

    def c(*names_: str) -> int:
        return sum(calls.get(x, 0) for x in names_)

    def per(direction: str, kind: str, forms: str) -> float:
        count = sum(scal.get((direction, f"{kind}_{f}"), 0) for f in forms)
        span = "energetics.diag" if kind == "diag" else None
        if span is None:
            denom = c(*(f"timestepper.step_{f}" for f in forms))
        else:
            denom = sum(
                1 for i in traced
                if names[i] == span and tag[i] in tuple(f"diag_{f}" for f in forms)
            )
        return count / denom if denom else 0.0

    fwd_scalars = sum(v for (d, _), v in scal.items() if d == "fwd")
    inv_scalars = sum(v for (d, _), v in scal.items() if d == "inv")
    diag_calls = c("energetics.diag")
    out = {
        "spectral.fwd_scalar_per_step": per("fwd", "step", "AB"),
        "spectral.inv_scalar_per_step": per("inv", "step", "AB"),
        "spectral.fwd_scalar_per_step_A": per("fwd", "step", "A"),
        "spectral.inv_scalar_per_step_A": per("inv", "step", "A"),
        "spectral.fwd_scalar_per_step_B": per("fwd", "step", "B"),
        "spectral.inv_scalar_per_step_B": per("inv", "step", "B"),
        "spectral.fwd_scalar_per_diag": per("fwd", "diag", "AB"),
        "spectral.inv_scalar_per_diag": per("inv", "diag", "AB"),
        "spectral.fwd_scalar_per_diag_A": per("fwd", "diag", "A"),
        "spectral.inv_scalar_per_diag_A": per("inv", "diag", "A"),
        "spectral.fwd_scalar_per_diag_B": per("fwd", "diag", "B"),
        "spectral.inv_scalar_per_diag_B": per("inv", "diag", "B"),
        "spectral.fwd_s": t("spectral.fwd"),
        "spectral.inv_s": t("spectral.inv"),
        "spectral.fwd_us_per_scalar": (
            1e6 * total.get("spectral.fwd", 0.0) / fwd_scalars if fwd_scalars else 0.0
        ),
        "spectral.inv_us_per_scalar": (
            1e6 * total.get("spectral.inv", 0.0) / inv_scalars if inv_scalars else 0.0
        ),
        "spectral.bytes_computed": (
            nbytes.get("spectral.fwd", 0) + nbytes.get("spectral.inv", 0)
        ) / nr,
        "energetics.diag_calls": diag_calls / nr,
        "energetics.diag_s": t("energetics.diag"),
        "energetics.diag_self_s": self_t.get("energetics.diag", 0.0) / nr,
        "energetics.rhs_calls_per_diag": rhs_in_diag / diag_calls if diag_calls else 0.0,
        "dynamics.tendency_calls": c("dynamics.tendency_A", "dynamics.tendency_B") / nr,
        "dynamics.tendency_s": t("dynamics.tendency_A") + t("dynamics.tendency_B"),
        "dynamics.tendency_self_s": (
            self_t.get("dynamics.tendency_A", 0.0) + self_t.get("dynamics.tendency_B", 0.0)
        ) / nr,
        "timestepper.step_calls": c("timestepper.step_A", "timestepper.step_B") / nr,
        "timestepper.step_s": t("timestepper.step_A") + t("timestepper.step_B"),
        "timestepper.step_self_s": (
            self_t.get("timestepper.step_A", 0.0) + self_t.get("timestepper.step_B", 0.0)
        ) / nr,
        "fields.inverse_calls": c("fields.inverse") / nr,
        "fields.inverse_s": t("fields.inverse"),
        "harness.initial_data_s": sum(
            dur[i] for i in range(n) if names[i] == "harness.initial_data" and runs[i] == "setup"
        ),
        "harness.snapshot_write_s": t("harness.snapshot_write"),
        "harness.snapshot_read_s": t("harness.snapshot_read"),
        "harness.snapshot_bytes": nbytes.get("harness.snapshot_write", 0) / nr,
        "harness.csv_s": t("harness.csv"),
        "harness.csv_bytes": nbytes.get("harness.csv", 0) / nr,
        "schemes.llg_solve_calls": c("schemes.llg_solve") / nr,
        "schemes.llg_solve_s": t("schemes.llg_solve"),
        "schemes.picard_s": t("schemes.picard"),
        "stokes.solve_calls": c("stokes.solve") / nr,
        "stokes.solve_s": t("stokes.solve"),
    }
    return out
