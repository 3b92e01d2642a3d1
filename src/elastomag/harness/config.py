"""Flat JSON run configuration with fail-closed validation.

Unknown keys are rejected, every referenced precondition is checked at
parse time, and the parsed object can build the grid, physics, and
integrator settings it describes. The same config plus the same seed must
reproduce a run byte for byte, so nothing here is environment-dependent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable

from ..energetics import delta_default, multiindex_count
from ..errors import ConfigError
from ..fields import STATES, HExt, PhysParams, StateA, StateB, check_params
from ..spectral import TorusGrid
from ..timestepper import IntegratorConfig
from .initial_data import VARIANTS, generate_initial_data


_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _json_value(key: str, kind: type, value: Any) -> Any:
    """value as kind if it has kind's JSON type, else a ConfigError; a boolean
    is neither an integer nor a number here."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {_JSON_TYPES[kind]}, got {value!r}")
    return kind(value)


def _uniform_h_ext(value: Any) -> HExt:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"uniform h_ext needs 3 numbers, got {value!r}")
    return HExt(kind="uniform", vector=tuple(_json_value("h_ext", float, c) for c in value))


def _parse_h_ext(value: Any) -> HExt:
    if value == "zero":
        return HExt()
    if isinstance(value, (list, tuple)):
        return _uniform_h_ext(value)
    if isinstance(value, dict):
        kind = value.get("type")
        if kind == "zero":
            _reject_unknown(value, {"type"}, "h_ext")
            return HExt()
        if kind == "uniform":
            _reject_unknown(value, {"type", "vector"}, "h_ext")
            return _uniform_h_ext(value.get("vector", (0.0, 0.0, 0.0)))
        if kind == "single_mode":
            _reject_unknown(
                value, {"type", "amplitude", "wavevector", "component", "omega"}, "h_ext"
            )
            try:
                return HExt(
                    kind="single_mode",
                    amplitude=_json_value("amplitude", float, value.get("amplitude", 0.0)),
                    wavevector=tuple(
                        _json_value("wavevector", int, k) for k in value.get("wavevector", (1, 0))
                    ),
                    component=_json_value("component", int, value.get("component", 2)),
                    omega=_json_value("omega", float, value.get("omega", 0.0)),
                )
            except (TypeError, ValueError) as err:
                raise ConfigError(f"invalid single_mode h_ext: {err}") from err
        raise ConfigError(f"unknown h_ext type {kind!r}")
    raise ConfigError(f"h_ext must be 'zero', a 3-vector, or a profile object, got {value!r}")


# Every other key is cast by the type of its default.
_CASTS: dict[str, Callable[[Any], Any]] = {
    "h_ext": _parse_h_ext,
    "snapshot_path": lambda value: (
        None if value is None else _json_value("snapshot_path", str, value)
    ),
    "delta": lambda value: value if value == "auto" else _json_value("delta", float, value),
}


def _reject_unknown(data: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {', '.join(unknown)}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class SimulationConfig:
    """Parsed, validated run configuration; the fields are the config keys and
    their defaults."""

    dim: int = 2
    n: int = 64
    nu: float = 1.0
    kappa: float = 0.0
    h_ext: HExt = HExt()
    formulation: str = "A"
    initial_data: str = "zero_steady"
    amplitude: float = 1e-2
    snapshot_path: str | None = None
    dt: float = 1e-3
    t_end: float = 1.0
    renormalize_m: bool = False
    cfl_guard: float = 0.5
    snapshot_every: int = 0
    diag_every: int = 1
    s: int = 2
    delta: float | str = "auto"
    c0_hat: float = 1.0
    dealias: bool = True
    seed: int = 0
    out_dir: str = "."
    csv_name: str = "diagnostics.csv"

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimulationConfig":
        defaults = {f.name: f.default for f in fields(cls)}
        _reject_unknown(data, set(defaults), "config")
        cfg = cls(**{key: _CASTS[key](value) if key in _CASTS
                     else _json_value(key, type(defaults[key]), value)
                     for key, value in data.items()})
        cfg._validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "SimulationConfig":
        try:
            text = Path(path).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config {path} is not valid JSON: {err}") from err
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        return cls.from_dict(data)

    def _validate(self) -> None:
        try:
            self.make_grid()
            self.make_integrator()
            check_params(self.formulation, self.dim, self.make_params())
        except ValueError as err:
            raise ConfigError(str(err)) from err
        _require(self.formulation in STATES, f"formulation must be A or B, got {self.formulation!r}")
        _require(
            self.initial_data in VARIANTS,
            f"unknown initial_data {self.initial_data!r}",
        )
        _require(self.amplitude > 0, f"amplitude must be > 0, got {self.amplitude}")
        _require(self.s >= 2, f"s must be >= 2, got {self.s}")
        _require(self.c0_hat > 0, f"c0_hat must be > 0, got {self.c0_hat}")
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        if self.delta != "auto":
            _require(isinstance(self.delta, float) and self.delta > 0, "delta must be 'auto' or > 0")
        if self.initial_data == "from_snapshot":
            _require(self.snapshot_path is not None, "from_snapshot needs snapshot_path")

    def make_grid(self) -> TorusGrid:
        return TorusGrid(dim=self.dim, n=self.n)

    def make_params(self) -> PhysParams:
        return PhysParams(nu=self.nu, kappa=self.kappa, h_ext=self.h_ext)

    def make_state(self) -> StateA | StateB:
        """The configured initial state on the configured grid."""
        return generate_initial_data(self.make_grid(), self.initial_data, self.formulation,
                                     self.amplitude, self.seed, self.snapshot_path)

    def make_integrator(self) -> IntegratorConfig:
        return IntegratorConfig(**{f.name: getattr(self, f.name) for f in fields(IntegratorConfig)})

    def resolved_delta(self) -> float:
        if self.delta == "auto":
            return delta_default(self.nu, self.c0_hat, multiindex_count(self.dim, self.s))
        return float(self.delta)

    def with_overrides(self, **updates: Any) -> "SimulationConfig":
        """Replace and revalidate the given keys; None keeps a key, as an unset CLI flag."""
        cfg = replace(self, **{key: value for key, value in updates.items() if value is not None})
        cfg._validate()
        return cfg

    def to_dict(self) -> dict[str, Any]:
        h: Any
        if self.h_ext.kind == "zero":
            h = "zero"
        elif self.h_ext.kind == "uniform":
            h = list(self.h_ext.vector)
        else:
            h = {
                "type": "single_mode",
                "amplitude": self.h_ext.amplitude,
                "wavevector": list(self.h_ext.wavevector),
                "component": self.h_ext.component,
                "omega": self.h_ext.omega,
            }
        return {f.name: h if f.name == "h_ext" else getattr(self, f.name) for f in fields(self)}
