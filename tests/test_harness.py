"""Configuration, initial data, snapshot I/O, scenario driver, and the CLI."""

from __future__ import annotations

import json
import os
import struct
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from elastomag.energetics import CSV_HEADER, delta_default, multiindex_count
from elastomag.errors import CflError, ConfigError, SnapshotError
from elastomag.fields import HExt, PhysParams, StateA, StateB, det_values, sphere_residual
from elastomag.harness import (
    SimulationConfig,
    generate_initial_data,
    load_snapshot,
    random_trig_field,
    run_simulation,
    write_snapshot,
)
from elastomag.harness import initial_data, scenarios
from elastomag.harness.cli import main
from elastomag.harness.scenarios import _write_csv
from elastomag.schemes import picard_iterate, picard_metric, solve_llg_given_v
from elastomag.spectral import TorusGrid, VectorField, divergence_values
from elastomag.timestepper import IntegratorConfig, run

from conftest import TransformCounter, repeated_forward_inputs
from oracles import momentum_rhs_A, trig_sum


def tiny_config(tmp_path: Path, **overrides) -> SimulationConfig:
    base = {
        "dim": 2,
        "n": 8,
        "dt": 1e-3,
        "t_end": 3e-3,
        "initial_data": "random_small",
        "out_dir": str(tmp_path),
    }
    base.update(overrides)
    return SimulationConfig.from_dict(base)


def write_config(tmp_path: Path, name: str = "config.json", **overrides) -> Path:
    path = tmp_path / name
    payload = {
        "dim": 2,
        "n": 8,
        "dt": 1e-3,
        "t_end": 3e-3,
        "initial_data": "random_small",
        "out_dir": str(tmp_path),
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


class TestConfig:
    def test_defaults(self) -> None:
        config = SimulationConfig.from_dict({})
        assert config.dim == 2
        assert config.n == 64
        assert config.formulation == "A"
        assert config.delta == "auto"
        assert config.h_ext.is_zero

    def test_rejects_unknown_keys(self) -> None:
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict({"viscosity": 1.0})

    def test_rejects_unknown_initial_data(self) -> None:
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict({"initial_data": "vortex"})

    def test_missing_file_is_config_error(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigError):
            SimulationConfig.from_file(tmp_path / "absent.json")

    def test_malformed_json_is_config_error(self, tmp_path: Path) -> None:
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            SimulationConfig.from_file(path)

    def test_reformulation_requires_zero_field(self) -> None:
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(
                {"formulation": "B", "h_ext": [0.0, 0.0, 0.5]}
            )

    def test_snapshot_variant_needs_path(self) -> None:
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict({"initial_data": "from_snapshot"})

    def test_auto_delta_resolution(self) -> None:
        config = SimulationConfig.from_dict({"nu": 1.0, "c0_hat": 1.0, "s": 2})
        expected = delta_default(1.0, 1.0, multiindex_count(2, 2))
        assert config.resolved_delta() == expected
        assert expected == pytest.approx(1.0 / 576.0, rel=1e-15)

    def test_numeric_delta_passes_through(self) -> None:
        config = SimulationConfig.from_dict({"delta": 0.01})
        assert config.resolved_delta() == 0.01

    def test_overrides_revalidate(self) -> None:
        config = SimulationConfig.from_dict({"h_ext": [0.0, 0.0, 0.5]})
        updated = config.with_overrides(seed=7)
        assert updated.seed == 7
        assert updated.nu == config.nu
        with pytest.raises(ConfigError):
            config.with_overrides(formulation="B")

    def test_dict_round_trip(self) -> None:
        config = SimulationConfig.from_dict(
            {"n": 16, "nu": 0.7, "h_ext": [0.1, 0.0, 0.2], "delta": 0.05}
        )
        assert SimulationConfig.from_dict(config.to_dict()) == config

    def test_zero_field_echoes_as_zero(self) -> None:
        config = SimulationConfig.from_dict({"n": 16})
        assert config.to_dict()["h_ext"] == "zero"
        assert SimulationConfig.from_dict(config.to_dict()) == config

    def test_uniform_field_object(self) -> None:
        vector = SimulationConfig.from_dict({"h_ext": {"type": "uniform", "vector": [0, 0.5, 1]}})
        default = SimulationConfig.from_dict({"h_ext": {"type": "uniform"}})
        assert vector.h_ext == HExt(kind="uniform", vector=(0.0, 0.5, 1.0))
        assert default.h_ext == HExt(kind="uniform", vector=(0.0, 0.0, 0.0))

    def test_single_mode_field_round_trip(self) -> None:
        config = SimulationConfig.from_dict(
            {
                "h_ext": {
                    "type": "single_mode",
                    "amplitude": 0.3,
                    "wavevector": [1, -2],
                    "component": 1,
                    "omega": 2.0,
                }
            }
        )
        assert SimulationConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "data",
        [
            {"dealias": "false"},
            {"renormalize_m": "no"},
            {"n": 64.9},
            {"seed": True},
            {"dt": "0.001"},
            {"h_ext": [True, 0.0, 0.0]},
            {"h_ext": {"type": "single_mode", "amplitude": 0.1, "wavevector": [1.5, 0]}},
            {"h_ext": {"type": "uniform", "vector": {"type": "single_mode", "amplitude": 0.1}}},
            {"h_ext": {"type": "uniform", "vector": "zero"}},
            {"h_ext": {"type": "uniform", "vector": {"type": "uniform", "vector": [0, 0, 1]}}},
        ],
        ids=[
            "bool_as_string",
            "bool_as_word",
            "int_as_float",
            "int_as_bool",
            "float_as_string",
            "h_ext_bool_vector_entry",
            "h_ext_float_wavevector",
            "uniform_h_ext_single_mode_vector",
            "uniform_h_ext_zero_vector",
            "uniform_h_ext_nested_uniform_vector",
        ],
    )
    def test_rejects_values_of_the_wrong_json_type(self, data: dict) -> None:
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(data)

    def test_zero_field_by_name_and_by_object(self) -> None:
        for h_ext in ("zero", {"type": "zero"}):
            assert SimulationConfig.from_dict({"h_ext": h_ext}).h_ext == HExt()

    @pytest.mark.parametrize(
        "h_ext, message",
        [
            ({"type": "single_mode", "component": 3}, "invalid single_mode h_ext"),
            ({"type": "dipole"}, "unknown h_ext type 'dipole'"),
            (0.5, "h_ext must be 'zero', a 3-vector, or a profile object"),
        ],
        ids=["single_mode_component", "unknown_type", "not_an_object"],
    )
    def test_rejects_a_bad_field(self, h_ext, message: str) -> None:
        with pytest.raises(ConfigError, match=message) as info:
            SimulationConfig.from_dict({"h_ext": h_ext})
        assert type(info.value) is ConfigError

    def test_file_that_is_not_an_object_is_config_error(self, tmp_path: Path) -> None:
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="must be a JSON object") as info:
            SimulationConfig.from_file(path)
        assert type(info.value) is ConfigError

    def test_overrides_keep_the_keys_given_none(self) -> None:
        """None is an unset CLI flag, for every key: it keeps the config's value."""
        config = SimulationConfig.from_dict({"n": 16, "seed": 3, "out_dir": "runs"})
        assert config.with_overrides(n=None, seed=None, out_dir=None, dt=None) == config
        assert config.with_overrides(n=32, dt=None) == replace(config, n=32)


class TestInitialData:
    @pytest.mark.parametrize("variant", ["zero_steady", "harmonic_map", "shear_F", "random_small", "flow_map_F"])
    @pytest.mark.parametrize("formulation", ["A", "B"])
    def test_generated_triples_satisfy_hypotheses(self, grid2, variant: str, formulation: str) -> None:
        if (variant, formulation) == ("flow_map_F", "B"):
            # the flow-map F has no potential, which formulation B needs
            with pytest.raises(ConfigError, match="potential"):
                generate_initial_data(grid2, variant, formulation, amplitude=1e-2, seed=3)
            return
        state = generate_initial_data(grid2, variant, formulation, amplitude=1e-2, seed=3)
        assert np.max(np.abs(divergence_values(grid2, state.v.values))) <= 1e-11
        assert sphere_residual(state.M) <= 1e-14
        assert state.t == 0.0

    def test_flow_map_determinant(self, grid2) -> None:
        state = generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=3)
        assert isinstance(state, StateA)
        assert np.max(np.abs(det_values(grid2, state.F.values) - 1.0)) <= 1e-8

    def test_determinism(self, grid2) -> None:
        first = generate_initial_data(grid2, "random_small", "A", amplitude=1e-2, seed=11)
        second = generate_initial_data(grid2, "random_small", "A", amplitude=1e-2, seed=11)
        assert np.array_equal(first.v.values, second.v.values)
        assert np.array_equal(first.F.values, second.F.values)
        assert np.array_equal(first.M.values, second.M.values)

    def test_zero_steady_is_exact(self, grid2) -> None:
        state = generate_initial_data(grid2, "zero_steady", "A")
        assert not state.v.values.any()
        eye = np.zeros((2, 2) + grid2.shape)
        eye[0, 0] = eye[1, 1] = 1.0
        assert np.array_equal(state.F.values, eye)
        assert np.array_equal(state.M.values[2], np.ones(grid2.shape))

    def test_harmonic_map_is_momentum_steady(self, grid2) -> None:
        state = generate_initial_data(grid2, "harmonic_map", "A")
        rhs = momentum_rhs_A(state.v, state.F, state.M, HExt(), nu=1.0, t=0.0)
        assert np.max(np.abs(rhs.values)) <= 1e-12

    @pytest.mark.parametrize(
        "overrides, message",
        [({"formulation": "B"}, "holds formulation A state but config says B"),
         ({"n": 8}, r"snapshot grid \(dim=2, n=16\) does not match config grid \(dim=2, n=8\)")],
        ids=["formulation", "grid"],
    )
    def test_snapshot_that_does_not_fit_the_config(self, grid2, tmp_path: Path, overrides: dict,
                                                   message: str) -> None:
        snap = tmp_path / "state.snap"
        write_snapshot(generate_initial_data(grid2, "zero_steady", "A"), snap)
        config = tiny_config(tmp_path, **{"n": grid2.n, **overrides},
                             initial_data="from_snapshot", snapshot_path=str(snap))
        with pytest.raises(ConfigError, match=message) as info:
            config.make_state()
        assert type(info.value) is ConfigError

    def test_unknown_variant_rejected(self, grid2) -> None:
        with pytest.raises(ConfigError):
            generate_initial_data(grid2, "spiral", "A")


class TestTrigSynthesis:
    """random_trig_field synthesizes the trig sum with one inverse FFT."""

    @pytest.mark.parametrize("band", [3, 6])
    @pytest.mark.parametrize("ncomp", [1, 3])
    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_the_pointwise_sum(self, dim: int, n: int, ncomp: int, band: int) -> None:
        """Band 6 at n = 8 folds modes onto lower ones and the Nyquist planes."""
        grid = TorusGrid(dim=dim, n=n)
        field = random_trig_field(np.random.default_rng(7), grid, ncomp, band)
        modes = initial_data._half_lattice_modes(dim, band)
        a, b = initial_data._draw_coeffs(np.random.default_rng(7), ncomp, modes)
        expected = trig_sum(grid, modes, a, b)
        assert field.shape == expected.shape
        assert np.max(np.abs(field - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_same_seed_samples_the_same_field_at_any_resolution(self, dim: int) -> None:
        coarse = random_trig_field(np.random.default_rng(3), TorusGrid(dim=dim, n=16), 3, 3)
        fine = random_trig_field(np.random.default_rng(3), TorusGrid(dim=dim, n=32), 3, 3)
        nodes = fine[(Ellipsis,) + (slice(None, None, 2),) * dim]
        assert np.max(np.abs(coarse - nodes)) <= 1e-14 * np.max(np.abs(nodes))

    def test_makes_one_inverse_transform(self, monkeypatch) -> None:
        grid = TorusGrid(dim=3, n=16)
        counter = TransformCounter(monkeypatch, grid)
        random_trig_field(np.random.default_rng(0), grid, 3, 3)
        assert counter.calls == {"fwd": 0, "inv": 1}


SNAPSHOT_GRIDS = [TorusGrid(dim=2, n=16), TorusGrid(dim=3, n=8)]


def _with(key: str, value):
    """A header edit that sets key to value."""
    return lambda header: {**header, key: value}


def _with_field(entry):
    """A header edit that makes entry the first field entry."""
    return lambda header: {**header, "fields": [entry, *header["fields"][1:]]}


# case -> (edit of the parsed header, or None to remove the file; its message)
BAD_HEADERS = {
    "missing_file": (None, "cannot read snapshot"),
    "not_json": (lambda header: b"{not json", "snapshot header is not valid JSON"),
    "not_an_object": (lambda header: b"[1, 2]", "snapshot header must be a JSON object"),
    "unknown_key": (_with("units", "SI"), "unknown header keys: units"),
    "float_dim": (_with("dim", 2.0), "header dim must be an integer"),
    "string_n": (_with("n", "16"), "header n must be an integer"),
    "odd_n": (_with("n", 7), "n must be even and >= 8, got 7"),
    "infinite_t": (_with("t", float("inf")), "header t must be a finite number"),
    "boolean_t": (_with("t", True), "header t must be a finite number"),
    "formulation": (_with("formulation", "C"), "formulation must be 'A' or 'B'"),
    "unhashable_formulation": (_with("formulation", ["A"]), "formulation must be 'A' or 'B'"),
    "field_count": (lambda header: {**header, "fields": header["fields"][:2]},
                    "header must list exactly 3 fields for formulation A"),
    "malformed_field": (_with_field("v"), "malformed field entry"),
    "mismatched_field": (_with_field({"name": "v", "components": 3, "dtype": "f64-le",
                                      "count": 3 * 16 * 16}), "does not match expected"),
}


class TestSnapshot:
    @pytest.mark.parametrize("grid", SNAPSHOT_GRIDS, ids=lambda g: f"{g.dim}d_n{g.n}")
    def test_round_trip_is_bit_identical_A(self, grid: TorusGrid, tmp_path: Path) -> None:
        state = generate_initial_data(grid, "flow_map_F", "A", amplitude=1e-2, seed=4)
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        loaded = load_snapshot(path)
        assert isinstance(loaded, StateA)
        assert loaded.t == state.t
        assert np.array_equal(loaded.v.values, state.v.values)
        assert np.array_equal(loaded.F.values, state.F.values)
        assert np.array_equal(loaded.M.values, state.M.values)

    @pytest.mark.parametrize("grid", SNAPSHOT_GRIDS, ids=lambda g: f"{g.dim}d_n{g.n}")
    def test_round_trip_is_bit_identical_B(self, grid: TorusGrid, tmp_path: Path) -> None:
        state = generate_initial_data(grid, "random_small", "B", amplitude=1e-2, seed=4)
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        loaded = load_snapshot(path)
        assert isinstance(loaded, StateB)
        assert np.array_equal(loaded.psi.values, state.psi.values)

    def test_values_are_written_without_a_joined_copy(self, tmp_path: Path) -> None:
        """The header and each field's values go to the file one after another,
        from the values' own buffers: writing allocates far less than the
        payload, which a joined bytes object would take twice over."""
        state = generate_initial_data(TorusGrid(dim=3, n=16), "random_small", "A", seed=4)
        payload = sum(f.values.nbytes for f in state.fields)
        path = tmp_path / "state.snap"
        write_snapshot(state, path)  # untraced: first-call allocations
        tracemalloc.start()
        try:
            write_snapshot(state, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= payload // 8
        assert np.array_equal(load_snapshot(path).F.values, state.F.values)

    def _write_valid(self, grid2, tmp_path: Path) -> Path:
        state = generate_initial_data(grid2, "zero_steady", "A")
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        return path

    def test_truncated_payload_names_the_field(self, grid2, tmp_path: Path) -> None:
        path = self._write_valid(grid2, tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(SnapshotError, match="'M'"):
            load_snapshot(path)

    def test_rejects_unsupported_dimension(self, grid2, tmp_path: Path) -> None:
        path = self._write_valid(grid2, tmp_path)
        raw = path.read_bytes()
        newline = raw.index(b"\n")
        header = json.loads(raw[:newline])
        header["dim"] = 4
        path.write_bytes(json.dumps(header).encode() + raw[newline:])
        with pytest.raises(SnapshotError, match="dim"):
            load_snapshot(path)

    def test_rejects_version_mismatch(self, grid2, tmp_path: Path) -> None:
        path = self._write_valid(grid2, tmp_path)
        raw = path.read_bytes()
        newline = raw.index(b"\n")
        header = json.loads(raw[:newline])
        header["format_version"] = 2
        path.write_bytes(json.dumps(header).encode() + raw[newline:])
        with pytest.raises(SnapshotError, match="format_version"):
            load_snapshot(path)

    def test_rejects_non_finite_payload(self, grid2, tmp_path: Path) -> None:
        path = self._write_valid(grid2, tmp_path)
        raw = path.read_bytes()
        newline = raw.index(b"\n")
        patched = raw[: newline + 1] + struct.pack("<d", float("nan")) + raw[newline + 9 :]
        path.write_bytes(patched)
        with pytest.raises(SnapshotError, match="non-finite"):
            load_snapshot(path)

    def test_rejects_trailing_bytes(self, grid2, tmp_path: Path) -> None:
        path = self._write_valid(grid2, tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(SnapshotError, match="trailing"):
            load_snapshot(path)

    @pytest.mark.parametrize("case", list(BAD_HEADERS))
    def test_bad_header_fails_closed(self, case: str, grid2, tmp_path: Path, capsys) -> None:
        """Each header defect raises SnapshotError itself, inspect exits 1 on
        it, and a run from it exits 2 before it writes anything."""
        edit, message = BAD_HEADERS[case]
        path = self._write_valid(grid2, tmp_path)
        raw = path.read_bytes()
        newline = raw.index(b"\n")
        if edit is None:
            path.unlink()
        else:
            header = edit(json.loads(raw[:newline]))
            line = header if isinstance(header, bytes) else json.dumps(header).encode()
            path.write_bytes(line + raw[newline:])
        with pytest.raises(SnapshotError, match=message) as info:
            load_snapshot(path)
        assert type(info.value) is SnapshotError
        assert main(["inspect", str(path)]) == 1
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, n=grid2.n, initial_data="from_snapshot",
                              snapshot_path=str(path), out_dir=str(out_dir))
        assert main(["run", str(config)]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()


class TestAtomicWrites:
    """A failed write keeps the previous file and leaves no temporary behind."""

    @staticmethod
    def _failing_replace(src, dst) -> None:
        raise OSError("simulated failure at rename")

    def test_failed_snapshot_write_keeps_the_old_file(self, grid2, tmp_path, monkeypatch) -> None:
        path = tmp_path / "state.snap"
        write_snapshot(generate_initial_data(grid2, "zero_steady", "A"), path)
        before = path.read_bytes()
        monkeypatch.setattr(os, "replace", self._failing_replace)
        with pytest.raises(OSError, match="simulated"):
            write_snapshot(generate_initial_data(grid2, "random_small", "A", seed=1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.snap"]

    def test_failed_csv_write_keeps_the_old_file(self, tmp_path, monkeypatch) -> None:
        artifacts = run_simulation(tiny_config(tmp_path))
        before = artifacts.csv_path.read_bytes()
        names = sorted(p.name for p in tmp_path.iterdir())
        monkeypatch.setattr(os, "replace", self._failing_replace)
        with pytest.raises(OSError, match="simulated"):
            _write_csv(artifacts.csv_path, CSV_HEADER, [artifacts.records[0].to_csv_row()])
        assert artifacts.csv_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == names


class TestRunSimulation:
    def test_writes_csv_with_full_precision(self, tmp_path: Path) -> None:
        config = tiny_config(tmp_path)
        artifacts = run_simulation(config)
        assert artifacts.result.status == "completed"
        lines = artifacts.csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(artifacts.records)
        first_energy = float(lines[1].split(",")[1])
        assert first_energy == artifacts.records[0].e_basic

    def test_reproducible_csv_bytes(self, tmp_path: Path) -> None:
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        art_a = run_simulation(tiny_config(dir_a, seed=9))
        art_b = run_simulation(tiny_config(dir_b, seed=9))
        assert art_a.csv_path.read_bytes() == art_b.csv_path.read_bytes()

    def test_final_snapshot_restores_the_final_state(self, tmp_path: Path) -> None:
        config = tiny_config(tmp_path)
        artifacts = run_simulation(config)
        loaded = load_snapshot(artifacts.final_snapshot)
        assert np.array_equal(loaded.v.values, artifacts.result.state.v.values)
        assert loaded.t == artifacts.result.state.t


def state_bytes_with_hats(state: StateA | StateB) -> int:
    """Bytes of one state's values and of its fields' hats."""
    return sum(f.values.nbytes for f in state.fields) + sum(h.nbytes for h in state.field_hats())


class TestRunHoldsOnlyWhatItReads:
    """A run holds no array its next stage does not read: the initial state
    dies when step 1 returns, and the step after a record gets the record's
    evaluation without its tendency hats and geometry."""

    @staticmethod
    def _watch(state: StateA | StateB, refs: list) -> StateA | StateB:
        """The state, after taking weak references to its values and held hats."""
        refs.extend(weakref.ref(a) for a in (*(f.values for f in state.fields), *state.hats))
        return state

    def test_initial_state_given_to_run_dies_with_step_1(self) -> None:
        grid = TorusGrid(dim=2, n=16)
        refs: list = []
        alive: dict[int, int] = {}

        def make() -> StateA:
            state = generate_initial_data(grid, "random_small", "A", amplitude=1e-2, seed=5)
            return self._watch(replace(state, hats=state.field_hats()), refs)

        def snap_sink(state, k: int) -> None:
            alive[k] = sum(r() is not None for r in refs)

        cfg = IntegratorConfig(dt=1e-3, t_end=2e-3, snapshot_every=1)
        result = run(make(), PhysParams(nu=1.0), cfg, diag_sink=lambda rec: None,
                     snap_sink=snap_sink)
        assert result.status == "completed"
        assert alive == {0: 6, 1: 0, 2: 0}

    @pytest.mark.parametrize("formulation", ["A", "B"])
    def test_initial_state_read_from_a_snapshot_dies_with_step_1(
        self, formulation: str, tmp_path: Path, monkeypatch
    ) -> None:
        grid = TorusGrid(dim=2, n=16)
        snap = tmp_path / "start.snap"
        write_snapshot(generate_initial_data(grid, "random_small", formulation, amplitude=1e-2,
                                             seed=5), snap)
        config = tiny_config(tmp_path / "out", n=16, formulation=formulation,
                             initial_data="from_snapshot", snapshot_path=str(snap),
                             snapshot_every=1)
        refs: list = []
        alive: dict[str, int] = {}
        make_state, write = SimulationConfig.make_state, scenarios.write_snapshot
        monkeypatch.setattr(SimulationConfig, "make_state",
                            lambda cfg: self._watch(make_state(cfg), refs))

        def spy(state, path) -> None:
            alive[Path(path).name] = sum(r() is not None for r in refs)
            write(state, path)

        monkeypatch.setattr(scenarios, "write_snapshot", spy)
        assert run_simulation(config).result.status == "completed"
        assert len(refs) == 6
        assert {name: alive[name] for name in ("step_00000000.snap", "step_00000001.snap")} == {
            "step_00000000.snap": 6, "step_00000001.snap": 0}

    def test_peak_in_units_of_one_state(self, tmp_path: Path) -> None:
        """A 3D A run from a snapshot, with records at both ends, peaks at no
        more than 4.5 states' values and hats (5.13 when the initial state and
        the record's tendency hats lived through the run)."""
        grid = TorusGrid(dim=3, n=16)
        state = generate_initial_data(grid, "random_small", "A", amplitude=1e-2, seed=3)
        unit = state_bytes_with_hats(state)
        snap = tmp_path / "start.snap"
        write_snapshot(state, snap)
        del state
        config = tiny_config(tmp_path / "out", dim=3, n=16, initial_data="from_snapshot",
                             snapshot_path=str(snap), t_end=3e-3, diag_every=3)
        run_simulation(config)  # untraced: first-call allocations and caches
        tracemalloc.start()
        try:
            artifacts = run_simulation(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert artifacts.result.status == "completed" and len(artifacts.records) == 2
        assert peak <= 4.5 * unit


# a formulation-B run whose first step trips the CFL guard
GUARD_TRIP = {"formulation": "B", "n": 16, "dt": 1.0, "t_end": 4.0, "amplitude": 0.3}


class TestCli:
    def test_missing_subcommand_is_usage_error(self, capsys) -> None:
        assert main([]) == 2
        capsys.readouterr()

    def test_missing_argument_is_usage_error(self, capsys) -> None:
        assert main(["run"]) == 2
        capsys.readouterr()

    def test_missing_config_file_is_usage_error(self, tmp_path: Path, capsys) -> None:
        assert main(["run", str(tmp_path / "none.json")]) == 2
        capsys.readouterr()

    def test_t_end_off_the_time_grid_is_usage_error(self, tmp_path: Path, capsys) -> None:
        config = write_config(tmp_path, dt=0.3, t_end=1.0)
        assert main(["run", str(config)]) == 2
        assert not (tmp_path / "diagnostics.csv").exists()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "dim, wavevector", [(3, None), (3, [1, 0]), (2, [1, 0, 0])], ids=["3d_default", "3d", "2d"]
    )
    def test_wavevector_of_the_wrong_length_is_usage_error(
        self, tmp_path: Path, capsys, dim: int, wavevector: list[int] | None
    ) -> None:
        h_ext = {"type": "single_mode", "amplitude": 0.1, "component": 0}
        if wavevector is not None:
            h_ext["wavevector"] = wavevector
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, dim=dim, h_ext=h_ext, out_dir=str(out_dir))
        assert main(["run", str(config)]) == 2
        assert "wavevector" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_reformulation_with_kappa_is_usage_error(self, tmp_path: Path, capsys) -> None:
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, formulation="B", kappa=0.5, out_dir=str(out_dir))
        assert main(["run", str(config)]) == 2
        assert "kappa" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_snapshot_with_divergent_velocity_is_usage_error(self, grid2, tmp_path: Path,
                                                             capsys) -> None:
        state = generate_initial_data(grid2, "random_small", "A")
        v = state.v.values.copy()
        v[0] += 1e-3 * np.sin(grid2.x[0])
        snap = tmp_path / "divergent.snap"
        write_snapshot(replace(state, v=VectorField(grid2, v), hats=None), snap)
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, n=grid2.n, initial_data="from_snapshot",
                              snapshot_path=str(snap), out_dir=str(out_dir))
        assert main(["run", str(config)]) == 2
        assert "div v" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_scenario_is_usage_error(self, tmp_path: Path, capsys) -> None:
        config = write_config(tmp_path)
        assert main(["scenario", "warp", str(config)]) == 2
        capsys.readouterr()

    def test_run_succeeds_and_writes_artifacts(self, tmp_path: Path, capsys) -> None:
        config = write_config(tmp_path)
        assert main(["run", str(config)]) == 0
        out = capsys.readouterr().out
        assert "status: completed" in out
        assert (tmp_path / "diagnostics.csv").exists()

    def test_quiet_suppresses_output(self, tmp_path: Path, capsys) -> None:
        config = write_config(tmp_path)
        assert main(["run", str(config), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_seed_and_out_dir_overrides(self, tmp_path: Path, capsys) -> None:
        config = write_config(tmp_path)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert main(["run", str(config), "--seed", "5", "--out-dir", str(dir_a), "--quiet"]) == 0
        assert main(["run", str(config), "--seed", "5", "--out-dir", str(dir_b), "--quiet"]) == 0
        csv_a = (dir_a / "diagnostics.csv").read_bytes()
        csv_b = (dir_b / "diagnostics.csv").read_bytes()
        assert csv_a == csv_b

    def test_inspect_round_trip(self, grid2, tmp_path: Path, capsys) -> None:
        state = generate_initial_data(grid2, "harmonic_map", "A")
        snap = tmp_path / "state.snap"
        write_snapshot(state, snap)
        assert main(["inspect", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "formulation: A" in out
        assert "sphere_res" in out

    def test_inspect_corrupt_snapshot_fails_check(self, tmp_path: Path, capsys) -> None:
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"not a snapshot")
        assert main(["inspect", str(bad)]) == 1
        capsys.readouterr()

    def test_run_that_trips_a_guard_exits_3(self, tmp_path: Path, capsys) -> None:
        """The CFL guard ends the run: exit 3, its status printed, and what it
        wrote kept."""
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, **GUARD_TRIP, out_dir=str(out_dir))
        assert main(["run", str(config)]) == 3
        assert "status: cfl_violation" in capsys.readouterr().out
        assert sorted(p.name for p in out_dir.iterdir()) == ["diagnostics.csv", "final.snap"]

    def test_scenario_that_trips_a_guard_exits_3(self, tmp_path: Path, capsys) -> None:
        """A scenario whose run trips a guard raises a NumericalError, which
        main reports on stderr with exit 3 and no verdict."""
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, **GUARD_TRIP, out_dir=str(out_dir))
        assert main(["scenario", "decay_small_data", str(config)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not (out_dir / "verdict.json").exists()

    def test_scenario_writes_verdict(self, tmp_path: Path, capsys) -> None:
        config = write_config(tmp_path, n=16, t_end=1e-3)
        assert main(["scenario", "stokes_verify", str(config)]) == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["pass"] is True
        assert verdict["scenario"] == "stokes_verify"
        out = capsys.readouterr().out
        assert "PASS" in out


SCENARIO_BASE = {"dim": 2, "n": 16, "dt": 1e-3, "t_end": 0.02, "initial_data": "random_small",
                 "amplitude": 0.01}
RUN_FILES = ["diagnostics.csv", "final.snap", "verdict.json"]
# id -> (CLI arguments before the config, config overrides, exit code, checks, files written,
#        verdict entries); a case that exits 2 writes nothing
SCENARIO_CASES = {
    "decay_small_data_B": (
        ["scenario", "decay_small_data"], {"formulation": "B"}, 0,
        [("e_global_per_step_increase", True), ("e_global_final_ratio", True)], RUN_FILES, {},
    ),
    "decay_small_data_A": (["scenario", "decay_small_data"], {}, 2, None, None, None),
    "formulation_equivalence": (
        ["scenario", "formulation_equivalence"], {}, 0, [("deformation_gap_max", True)],
        ["A/diagnostics.csv", "A/final.snap", "B/diagnostics.csv", "B/final.snap", "verdict.json"],
        {"csv_A": "A/diagnostics.csv", "csv_B": "B/diagnostics.csv"},
    ),
    "formulation_equivalence_kappa": (
        ["scenario", "formulation_equivalence"], {"kappa": 0.1}, 2, None, None, None,
    ),
    "formulation_equivalence_flow_map": (
        ["scenario", "formulation_equivalence"], {"initial_data": "flow_map_F"}, 2, None, None,
        None,
    ),
    "constraint_audit_B": (
        ["scenario", "constraint_audit"], {"formulation": "B"}, 0,
        [("sphere_res_max", True), ("det_res_drift", True), ("div_v_res_max", True),
         ("curl_res_max", True), ("trG_vs_divpsi_res_max", True),
         ("key_structure_ratio_stability", True)],
        ["coarse/diagnostics.csv", "coarse/final.snap", *RUN_FILES], {},
    ),
    "constraint_audit_B_n18": (
        ["scenario", "constraint_audit"], {"formulation": "B", "n": 18}, 0,
        [("sphere_res_max", True), ("det_res_drift", True), ("div_v_res_max", True),
         ("curl_res_max", True), ("trG_vs_divpsi_res_max", True),
         ("key_structure_ratio_stability", True)],
        ["coarse/diagnostics.csv", "coarse/final.snap", *RUN_FILES], {},
    ),
    "lifespan_probe": (
        ["scenario", "lifespan_probe"], {}, 0, [("lifespan_reported", True)], RUN_FILES,
        {"status": "completed", "steps": 20},
    ),
    "lifespan_probe_cfl": (
        ["scenario", "lifespan_probe"], {"dt": 1.0, "t_end": 4.0, "amplitude": 0.3}, 0,
        [("lifespan_reported", True)], RUN_FILES,
        {"status": "cfl_violation", "t_reached": 0.0, "steps": 0},
    ),
    "run_flow_map_B": (
        ["run"], {"formulation": "B", "initial_data": "flow_map_F"}, 2, None, None, None,
    ),
}


class TestScenarios:
    """Each scenario through the CLI: exit code, verdict checks and the files written."""

    def test_picard_study_refuses_data_before_any_run(self, tmp_path: Path,
                                                       monkeypatch) -> None:
        """random_small data has no unit determinant: picard_study refuses it
        before it runs the monolithic reference."""
        calls = []
        monkeypatch.setattr(scenarios, "run", lambda *args, **kwargs: calls.append(args))
        config = tiny_config(tmp_path, n=16)
        with pytest.raises(ConfigError, match="unit determinant"):
            scenarios.run_scenario("picard_study", config)
        assert calls == []

    def test_verdict_writes_non_finite_values_as_strings(self, tmp_path: Path,
                                                         monkeypatch) -> None:
        """A check value of inf is written as "inf", and the non-finite entries
        of a nested dict of extras as strings under their keys, so verdict.json
        is strict JSON."""
        def scenario(config):
            return ([scenarios.Check("bounded", False, float("inf"), 1.0)],
                    {"rates": {"A": [1.0, float("-inf")], "B": {"last": float("nan")}}})

        monkeypatch.setitem(scenarios.SCENARIOS, "non_finite", scenario)
        code, path, verdict = scenarios.run_scenario("non_finite", tiny_config(tmp_path))
        text = path.read_text()
        written = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
        assert code == 1 and written == verdict
        assert written["checks"] == [
            {"name": "bounded", "pass": False, "value": "inf", "threshold": 1.0}]
        assert written["rates"] == {"A": [1.0, "-inf"], "B": {"last": "nan"}}

    def test_picard_study_refuses_formulation_B(self, tmp_path: Path) -> None:
        config = tiny_config(tmp_path / "out", formulation="B")
        with pytest.raises(ConfigError, match="picard_study requires formulation A") as info:
            scenarios.run_scenario("picard_study", config)
        assert type(info.value) is ConfigError
        assert not (tmp_path / "out").exists()

    def test_picard_study_table_is_the_sweep(self, tmp_path: Path) -> None:
        """picard_study writes one row per iterate of its one sweep: the diff,
        ratio and distance_to_reference columns are what picard_iterate and
        picard_metric give directly, and the verdict holds the three frozen
        checks and the extras T, iterates and csv."""
        config = tiny_config(tmp_path, n=16, initial_data="flow_map_F", t_end=0.01)
        code, _, verdict = scenarios.run_scenario("picard_study", config)
        state, params, integ = config.make_state(), config.make_params(), config.make_integrator()
        prun = picard_iterate(state, params, scenarios.PICARD_ITERATES, integ, config.s,
                              dealias=config.dealias)
        reference = run(state, params, integ, s=config.s, delta=config.resolved_delta(),
                        dealias=config.dealias).state
        lines = (tmp_path / config.csv_name).read_text().splitlines()
        assert lines[0] == ("iterate,diff,ratio,e_sup,d_int,div_v_res,sphere_res,"
                            "distance_to_reference")
        rows = [dict(zip(lines[0].split(","), map(float, line.split(","))))
                for line in lines[1:]]
        assert len(rows) == scenarios.PICARD_ITERATES
        assert [row["iterate"] for row in rows] == list(range(1, len(rows) + 1))
        assert [row["diff"] for row in rows] == prun.diffs
        assert np.array_equal([row["ratio"] for row in rows], [np.nan, *prun.ratios],
                              equal_nan=True)
        assert [row["distance_to_reference"] for row in rows] == [
            picard_metric(x, reference, config.s) for x in prun.states_at_T[1:]]
        assert code == 0 and verdict["pass"]
        assert [check["name"] for check in verdict["checks"]] == [
            "frozen_ratio_max", "frozen_distance_to_monolithic", "frozen_uniform_bound"]
        assert set(verdict) == {"scenario", "pass", "checks", "T", "iterates", "csv"}
        assert (verdict["T"], verdict["iterates"], verdict["csv"]) == (
            0.01, scenarios.PICARD_ITERATES, config.csv_name)

    def test_mollifier_study_refuses_a_grid_below_its_cutoffs(self, tmp_path: Path) -> None:
        """The largest cutoff, 16, needs n >= 48."""
        config = tiny_config(tmp_path / "out", n=46)
        with pytest.raises(ConfigError, match="largest cutoff 16.0 exceeds") as info:
            scenarios.run_scenario("mollifier_study", config)
        assert type(info.value) is ConfigError
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, context",
        [("decay_small_data", "decay_small_data"),
         ("formulation_equivalence", r"formulation_equivalence\[A\]"),
         ("constraint_audit", "constraint_audit")],
        ids=["decay_small_data", "formulation_equivalence", "constraint_audit"],
    )
    def test_failed_run_keeps_its_error(self, name: str, context: str, tmp_path: Path) -> None:
        """A run that trips the CFL guard surfaces as that CflError, with its
        time and figure, the scenario's context before its message."""
        config = tiny_config(tmp_path, **GUARD_TRIP)
        with pytest.raises(CflError, match=rf"^{context}: CFL number \S+ exceeds guard 0.5 "
                                           r"at t = 0$") as info:
            scenarios.run_scenario(name, config)
        assert (info.value.t, info.value.cfl > 0.5) == (0.0, True)
        assert not (tmp_path / "verdict.json").exists()

    def test_mollifier_study_starts_at_the_snapshot_time(self, tmp_path: Path) -> None:
        """A time-dependent field is sampled from the initial state's time, so
        the same data stamped t = 0 and t = 0.5 give different tables."""
        grid = TorusGrid(dim=2, n=48)
        state = generate_initial_data(grid, "random_small", "A", amplitude=1e-2, seed=0)
        h_ext = {"type": "single_mode", "amplitude": 0.5, "wavevector": [1, 0], "component": 0,
                 "omega": 20.0}
        tables = []
        for t in (0.0, 0.5):
            snap = tmp_path / f"t{t}.snap"
            write_snapshot(replace(state, t=t), snap)
            config = tiny_config(tmp_path / f"out{t}", n=48, t_end=0.01, h_ext=h_ext,
                                 initial_data="from_snapshot", snapshot_path=str(snap))
            scenarios.run_scenario("mollifier_study", config)
            tables.append((tmp_path / f"out{t}" / config.csv_name).read_bytes())
        assert tables[0] != tables[1]

    @pytest.mark.parametrize("case", list(SCENARIO_CASES))
    def test_exit_checks_and_files(self, case: str, tmp_path: Path, capsys) -> None:
        args, overrides, code, checks, files, entries = SCENARIO_CASES[case]
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, **{**SCENARIO_BASE, **overrides, "out_dir": str(out_dir)})
        assert main(args + [str(config), "--quiet"]) == code
        capsys.readouterr()
        if files is None:
            assert not out_dir.exists()
            return
        written = sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file())
        assert written == files
        verdict = json.loads((out_dir / "verdict.json").read_text())
        assert [(c["name"], c["pass"]) for c in verdict["checks"]] == checks
        assert verdict["pass"] is (code == 0)
        assert {key: verdict[key] for key in entries} == entries


class TestNoForwardTransformRepeats:
    """No data is transformed forward twice: the hats a snapshot load, a record,
    a step, the mollified march and a Stokes trial make are handed on. Only
    forward transforms are gated, because the snapshot's div v check and the
    first record's div_v_res still make the same inverse transform of v's hat."""

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)], ids=["2d_n16", "3d_n8"])
    @pytest.mark.parametrize("formulation", ["A", "B"])
    def test_run_from_a_snapshot_with_a_record_every_step(
        self, dim: int, n: int, formulation: str, tmp_path: Path, monkeypatch
    ) -> None:
        grid = TorusGrid(dim=dim, n=n)
        state = generate_initial_data(grid, "random_small", formulation, amplitude=1e-2, seed=5)
        snap = tmp_path / "start.snap"
        write_snapshot(state, snap)
        config = tiny_config(tmp_path / "out", dim=dim, n=n, formulation=formulation,
                             initial_data="from_snapshot", snapshot_path=str(snap), diag_every=1)
        repeats = repeated_forward_inputs(monkeypatch)
        artifacts = run_simulation(config)
        assert artifacts.result.status == "completed" and len(artifacts.records) == 4
        assert repeats == []

    def test_mollified_march(self, monkeypatch) -> None:
        grid = TorusGrid(dim=2, n=16)
        m0 = generate_initial_data(grid, "random_small", "A", amplitude=1e-2, seed=5).M
        repeats = repeated_forward_inputs(monkeypatch)
        solve_llg_given_v(m0, None, 4.0, 2, IntegratorConfig(dt=1e-3, t_end=3e-3))
        assert repeats == []

    def test_stokes_trials(self, monkeypatch) -> None:
        repeats = repeated_forward_inputs(monkeypatch)
        assert scenarios._stokes_trials(TorusGrid(dim=2, n=16), 0, 3)[0] == 3
        assert repeats == []
