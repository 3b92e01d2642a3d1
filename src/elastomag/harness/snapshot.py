"""Bit-exact state snapshots: one JSON header line plus raw f64 payload.

Layout: a single compact JSON object terminated by a newline, then the
concatenated little-endian float64 arrays in header order, row-major. The
header names every field with its component count and value count, so a
reader can validate the payload length before touching the numbers. The
header's field list (names, order and component counts) comes from the state
layout in elastomag.fields, for writing and for checking alike. Round trips
are bit-identical.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from ..errors import SnapshotError
from ..fields import STATES, StateA, StateB
from ..spectral import TorusGrid

FORMAT_VERSION = 1
_HEADER_KEYS = {"format_version", "dim", "n", "t", "formulation", "fields"}
_FIELD_KEYS = {"name", "components", "dtype", "count"}


def _layout(dim: int, formulation: str) -> list[tuple[str, tuple[int, ...]]]:
    """(name, component shape) per field in serialization order."""
    cls = STATES[formulation]
    return list(zip(cls.names, cls.component_shapes(dim)))


def _write_atomic(path: str | Path, *parts: bytes | np.ndarray) -> None:
    """Write the parts (bytes, or C-contiguous arrays as their buffers) one after
    another beside path, then rename over it: a failed write leaves no partial file."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as out:
            for part in parts:
                out.write(part)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_snapshot(state: StateA | StateB, path: str | Path) -> None:
    grid = state.grid
    arrays = [f.values for f in state.fields]
    header = {
        "format_version": FORMAT_VERSION,
        "dim": grid.dim,
        "n": grid.n,
        "t": state.t,
        "formulation": state.formulation,
        "fields": [
            {"name": name, "components": math.prod(shape), "dtype": "f64-le", "count": arr.size}
            for (name, shape), arr in zip(_layout(grid.dim, state.formulation), arrays)
        ],
    }
    # the values are written from their own buffers (ascontiguousarray copies
    # only an array that is not little-endian f64 in C order), not joined
    _write_atomic(path, json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n",
                  *(np.ascontiguousarray(arr, dtype="<f8") for arr in arrays))


def _expect_int(header: dict, key: str) -> int:
    value = header.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SnapshotError(f"header {key} must be an integer, got {value!r}")
    return value


def load_snapshot(path: str | Path) -> StateA | StateB:
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise SnapshotError(f"cannot read snapshot {path}: {err}") from err

    newline = raw.find(b"\n")
    if newline < 0:
        raise SnapshotError("snapshot has no header line")
    try:
        header = json.loads(raw[:newline])
    except json.JSONDecodeError as err:
        raise SnapshotError(f"snapshot header is not valid JSON: {err}") from err
    if not isinstance(header, dict):
        raise SnapshotError("snapshot header must be a JSON object")
    unknown = sorted(set(header) - _HEADER_KEYS)
    if unknown:
        raise SnapshotError(f"unknown header keys: {', '.join(unknown)}")

    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(f"unsupported format_version {version!r}")
    dim = _expect_int(header, "dim")
    if dim not in (2, 3):
        raise SnapshotError(f"dim must be 2 or 3, got {dim}")
    n = _expect_int(header, "n")
    try:
        grid = TorusGrid(dim=dim, n=n)
    except ValueError as err:
        raise SnapshotError(str(err)) from err
    t = header.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool) or not math.isfinite(t):
        raise SnapshotError(f"header t must be a finite number, got {t!r}")
    formulation = header.get("formulation")
    if formulation not in tuple(STATES):  # a tuple: JSON may give an unhashable value
        raise SnapshotError(f"formulation must be 'A' or 'B', got {formulation!r}")

    expected = _layout(dim, formulation)
    meta = header.get("fields")
    if not isinstance(meta, list) or len(meta) != len(expected):
        raise SnapshotError(
            f"header must list exactly {len(expected)} fields for formulation {formulation}"
        )
    points = n**dim
    for entry, (name, shape) in zip(meta, expected):
        if not isinstance(entry, dict) or set(entry) != _FIELD_KEYS:
            raise SnapshotError(f"malformed field entry {entry!r}")
        comps = math.prod(shape)
        want = {"name": name, "components": comps, "dtype": "f64-le", "count": comps * points}
        if entry != want:
            raise SnapshotError(f"field entry {entry!r} does not match expected {want!r}")

    payload = raw[newline + 1 :]
    offset = 0
    arrays: list[np.ndarray] = []
    for name, shape in expected:
        count = math.prod(shape) * points
        nbytes = 8 * count
        if len(payload) - offset < nbytes:
            raise SnapshotError(f"truncated payload: field '{name}' is incomplete")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).copy()
        offset += nbytes
        if not np.all(np.isfinite(arr)):
            raise SnapshotError(f"non-finite values in field '{name}'")
        arrays.append(arr.reshape(shape + grid.shape))
    if offset != len(payload):
        raise SnapshotError(f"{len(payload) - offset} unexpected trailing bytes")
    return STATES[formulation].from_values(float(t), grid, arrays)
