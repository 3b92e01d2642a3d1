"""Two-stage implicit-explicit integrator and the run loop."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from elastomag import dynamics, timestepper
from elastomag.energetics import diagnostic_record
from elastomag.errors import BlowUpError, CflError, NearSingularError
from elastomag.fields import (
    HExt,
    PhysParams,
    StateA,
    StateB,
    identity_matrix_field,
    state_B_to_A,
)
from elastomag.harness import generate_initial_data
from elastomag.spectral import MatrixField, TorusGrid, VectorField
from elastomag.timestepper import (
    IntegratorConfig,
    _cn_stage,
    _implicit_stage,
    run,
    step_A,
    step_B,
)

from conftest import TransformCounter, traced_peak, value_bytes, vector


def const_m(grid: TorusGrid, direction: tuple[float, float, float]) -> VectorField:
    vals = np.zeros((3,) + grid.shape)
    for c in range(3):
        vals[c] = direction[c]
    return VectorField(grid, vals)


def circle_steady_A(grid: TorusGrid) -> StateA:
    zero = np.zeros(grid.shape)
    mvals = np.zeros((3,) + grid.shape)
    mvals[0] = np.cos(grid.x[0])
    mvals[1] = np.sin(grid.x[0])
    return StateA(
        t=0.0,
        v=vector(grid, zero, zero),
        F=identity_matrix_field(grid),
        M=VectorField(grid, mvals),
    )


def uniform_steady(grid: TorusGrid, formulation: str) -> StateA | StateB:
    """Zero velocity, zero strain and constant magnetization in any dimension."""
    zero = VectorField(grid, np.zeros((grid.dim,) + grid.shape))
    m = const_m(grid, (0.0, 0.0, 1.0))
    if formulation == "A":
        return StateA(t=0.0, v=zero, F=identity_matrix_field(grid), M=m)
    return StateB(t=0.0, v=zero, psi=zero, M=m)


def max_state_change(a: StateA | StateB, b: StateA | StateB) -> float:
    return max(float(np.max(np.abs(x.values - y.values))) for x, y in zip(a.fields, b.fields))


def assert_formulations_agree(grid: TorusGrid) -> None:
    """Matched small data stepped 20 times through A and through B."""
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0)
    state_a = generate_initial_data(grid, "random_small", "A", amplitude=1e-2, seed=5)
    state_b = generate_initial_data(grid, "random_small", "B", amplitude=1e-2, seed=5)
    for _ in range(20):
        state_a = step_A(state_a, PARAMS, cfg)
        state_b = step_B(state_b, PARAMS, cfg)
    converted = state_B_to_A(state_b)
    assert np.max(np.abs(converted.F.values - state_a.F.values)) <= 1e-6
    assert np.max(np.abs(converted.v.values - state_a.v.values)) <= 1e-6


PARAMS = PhysParams(nu=1.0, kappa=0.0, h_ext=HExt())


class TestIntegratorConfig:
    def test_rejects_nonpositive_dt(self) -> None:
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0, t_end=1.0)

    def test_rejects_negative_t_end(self) -> None:
        with pytest.raises(ValueError):
            IntegratorConfig(dt=1e-3, t_end=-1.0)

    def test_rejects_bad_cfl_guard(self) -> None:
        with pytest.raises(ValueError):
            IntegratorConfig(dt=1e-3, t_end=1.0, cfl_guard=0.0)

    def test_rejects_t_end_off_the_time_grid(self) -> None:
        with pytest.raises(ValueError, match="multiple of dt"):
            IntegratorConfig(dt=0.3, t_end=1.0)

    @pytest.mark.parametrize(
        "cadence", [{"diag_every": 0}, {"diag_every": -2}, {"snapshot_every": -1}]
    )
    def test_rejects_bad_output_cadence(self, cadence: dict) -> None:
        # run() takes k % diag_every, so a zero cadence must fail before any step
        with pytest.raises(ValueError, match="_every must be"):
            IntegratorConfig(dt=1e-3, t_end=1e-2, **cadence)

    def test_accepts_multiples_up_to_rounding(self, grid2: TorusGrid) -> None:
        horizon = 0.1
        IntegratorConfig(dt=horizon / 800, t_end=horizon)
        cfg = IntegratorConfig(dt=0.1, t_end=0.3)  # 0.3 / 0.1 = 2.9999999999999996
        result = run(uniform_steady(grid2, "A"), PARAMS, cfg)
        assert result.status == "completed"
        assert result.steps == 3


class TestDiffusionSolves:
    def test_implicit_solve_damps_single_mode(self, grid2: TorusGrid) -> None:
        c, dt = 2.0, 0.1
        values = np.sin(grid2.x[0])
        out = grid2.ifft(_implicit_stage(grid2, grid2.fft(values), 0.0, c, dt))
        assert np.max(np.abs(out - values / (1.0 + c * dt))) <= 1e-13

    def test_implicit_solve_keeps_constants(self, grid2: TorusGrid) -> None:
        values = np.full(grid2.shape, 1.5)
        out = grid2.ifft(_implicit_stage(grid2, grid2.fft(values), 0.0, 2.0, 0.1))
        assert np.max(np.abs(out - values)) <= 1e-13

    def test_imex2_makes_only_the_predictors_a_tendency_reads(self, grid2: TorusGrid,
                                                               monkeypatch) -> None:
        """reads (None, False, True): nonstiff gets no predictor of field 0, the
        hat of field 1 and the values and hat of field 2; two implicit stages,
        no forward transform, one inverse transform for field 2's predictor and
        one per field for the result, which is the Crank-Nicolson step of the
        given sources, as values and as the hats they were transformed back from."""
        rng = np.random.default_rng(3)
        fields = [rng.standard_normal((ncomp,) + grid2.shape) for ncomp in (2, 4, 3)]
        hats = tuple(grid2.fft(x) for x in fields)
        n1 = tuple(0.1 * h for h in hats)
        n2 = tuple(0.2 * h for h in hats)
        cs, dt = (1.0, 0.0, 2.0), 0.1
        seen = []

        def nonstiff(values, stars, t):
            seen.append((values, stars, t))
            return n2

        implicit_calls = []
        monkeypatch.setattr(timestepper, "_implicit_stage",
                            lambda *args: implicit_calls.append(args) or _implicit_stage(*args))
        counter = TransformCounter(monkeypatch, grid2)
        out, out_hats = timestepper._imex2(grid2, hats, n1, 0.0, dt, nonstiff, (None, False, True),
                                           cs, (None, None, None))
        counts, calls = dict(counter.counts), dict(counter.calls)
        assert counts == {"fwd": 0, "inv": 3 + 9}
        assert calls == {"fwd": 0, "inv": 1 + 3}
        assert len(implicit_calls) == 2
        (values, stars, t), = seen
        assert t == dt
        assert values[:2] == (None, None) and stars[0] is None
        for i in (1, 2):
            assert np.array_equal(stars[i], _implicit_stage(grid2, hats[i], n1[i], cs[i], dt))
        assert np.array_equal(values[2], grid2.ifft(stars[2]))
        for x, x_hat, h, a, b, c in zip(out, out_hats, hats, n1, n2, cs):
            assert np.array_equal(x_hat, _cn_stage(grid2, h, a, b, c, dt))
            assert np.array_equal(x, grid2.ifft(x_hat))

    def test_crank_nicolson_single_mode(self, grid2: TorusGrid) -> None:
        c, dt = 1.0, 0.2
        values = np.sin(grid2.x[0])
        out = grid2.ifft(_cn_stage(grid2, grid2.fft(values), 0.0, 0.0, c, dt))
        factor = (1.0 - 0.5 * c * dt) / (1.0 + 0.5 * c * dt)
        assert np.max(np.abs(out - factor * values)) <= 1e-13


class TestSteadyStates:
    def test_uniform_steady_state_100_steps(self, grid2: TorusGrid) -> None:
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0)
        state = uniform_steady(grid2, "A")
        current = state
        for _ in range(100):
            current = step_A(current, PARAMS, cfg)
        assert np.max(np.abs(current.v.values - state.v.values)) <= 1e-10
        assert np.max(np.abs(current.F.values - state.F.values)) <= 1e-10
        assert np.max(np.abs(current.M.values - state.M.values)) <= 1e-10

    def test_circle_steady_state_100_steps(self, grid2: TorusGrid) -> None:
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0)
        state = circle_steady_A(grid2)
        current = state
        for _ in range(100):
            current = step_A(current, PARAMS, cfg)
        assert np.max(np.abs(current.v.values - state.v.values)) <= 1e-8
        assert np.max(np.abs(current.F.values - state.F.values)) <= 1e-8
        assert np.max(np.abs(current.M.values - state.M.values)) <= 1e-8

    def test_zero_state_B_is_fixed_point(self, grid2: TorusGrid) -> None:
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0)
        state = uniform_steady(grid2, "B")
        out = step_B(state, PARAMS, cfg)
        assert np.array_equal(out.v.values, state.v.values)
        assert np.array_equal(out.psi.values, state.psi.values)
        assert np.array_equal(out.M.values, state.M.values)

    def test_uniform_steady_states_3d(self) -> None:
        grid = TorusGrid(dim=3, n=16)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0)
        for formulation, stepper in (("A", step_A), ("B", step_B)):
            state = uniform_steady(grid, formulation)
            current = state
            for _ in range(20):
                current = stepper(current, PARAMS, cfg)
            assert max_state_change(current, state) <= 1e-12

    def test_renormalization_keeps_unit_length(self, grid2: TorusGrid) -> None:
        from elastomag.fields import sphere_residual

        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, renormalize_m=True)
        state = generate_initial_data(grid2, "random_small", "A", amplitude=1e-2, seed=3)
        for _ in range(5):
            state = step_A(state, PARAMS, cfg)
        assert sphere_residual(state.M) <= 1e-14


class TestDeformationDiffusion:
    def test_kappa_step_damps_a_stress_free_shear(self, grid2: TorusGrid) -> None:
        # F = I + eps cos(x2) e1 (x) e1 has div(F F^T) = 0, so with v = 0 and a
        # constant M only kappa Delta F acts, and one step is the CN factor.
        eps, kappa, dt = 1e-2, 0.5, 1e-2
        fvals = identity_matrix_field(grid2).values.copy()
        fvals[0, 0] += eps * np.cos(grid2.x[1])
        state = uniform_steady(grid2, "A")
        state = StateA(t=0.0, v=state.v, F=MatrixField(grid2, fvals), M=state.M)
        params = PhysParams(nu=1.0, kappa=kappa, h_ext=HExt())
        out = step_A(state, params, IntegratorConfig(dt=dt, t_end=1.0))
        factor = (1.0 - 0.5 * kappa * dt) / (1.0 + 0.5 * kappa * dt)
        expected = np.zeros_like(fvals)
        expected[0, 0] = eps * np.cos(grid2.x[1]) * factor
        strain = out.F.values - identity_matrix_field(grid2).values
        assert np.max(np.abs(strain - expected)) <= 1e-14
        assert np.max(np.abs(out.v.values)) <= 1e-14
        assert np.max(np.abs(out.M.values - state.M.values)) <= 1e-14


class TestGuards:
    def test_cfl_violation_raises_from_step(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        state = StateA(
            t=0.0,
            v=vector(grid2, np.full(grid2.shape, 500.0), zero),
            F=identity_matrix_field(grid2),
            M=const_m(grid2, (0.0, 0.0, 1.0)),
        )
        cfg = IntegratorConfig(dt=1e-2, t_end=1.0)
        with pytest.raises(CflError):
            step_A(state, PARAMS, cfg)

    def test_run_reports_cfl_violation_without_raising(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        state = StateA(
            t=0.0,
            v=vector(grid2, np.full(grid2.shape, 500.0), zero),
            F=identity_matrix_field(grid2),
            M=const_m(grid2, (0.0, 0.0, 1.0)),
        )
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1)
        result = run(state, PARAMS, cfg)
        assert result.status == "cfl_violation"
        assert result.steps == 0
        assert result.message

    def test_run_reports_blowup_on_nonfinite_values(self, grid2: TorusGrid) -> None:
        state = uniform_steady(grid2, "A")
        poisoned = np.array(state.v.values)
        poisoned[0, 0, 0] = np.nan
        bad = StateA(t=0.0, v=VectorField(grid2, poisoned), F=state.F, M=state.M)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        result = run(bad, PARAMS, cfg)
        assert result.status == "blowup"
        assert result.steps == 0

    def test_run_reports_a_failed_first_record(self, grid2: TorusGrid) -> None:
        """F scaled by 1/4 at one node (det F = 1/16) steps cleanly, but its
        record's curl residual inverts F, which the determinant guard refuses."""
        state = uniform_steady(grid2, "A")
        pinched = np.array(state.F.values)
        pinched[:, :, 0, 0] *= 0.25
        state = replace(state, F=MatrixField(grid2, pinched))
        cfg = IntegratorConfig(dt=1e-3, t_end=5e-3)
        assert run(state, PARAMS, cfg).status == "completed"
        records = []
        result = run(state, PARAMS, cfg, diag_sink=records.append)
        assert (result.status, result.steps, result.t_reached) == ("numerical_guard", 0, 0.0)
        assert "F_to_G" in result.message
        assert records == []

    @pytest.mark.parametrize(
        "error, status",
        [(NearSingularError("record refused"), "numerical_guard"),
         (BlowUpError(1e-3), "blowup")],
        ids=["near_singular", "blowup"],
    )
    def test_run_reports_a_failed_record_mid_run(
        self, grid2: TorusGrid, monkeypatch, error: Exception, status: str
    ) -> None:
        """The second record fails: the run ends at the state it was recording,
        and the first record has reached the sink."""
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise error
            return diagnostic_record(*args, **kwargs)

        monkeypatch.setattr(timestepper, "diagnostic_record", second_fails)
        records, snaps = [], []
        cfg = IntegratorConfig(dt=1e-3, t_end=5e-3, snapshot_every=1)
        result = run(uniform_steady(grid2, "A"), PARAMS, cfg, diag_sink=records.append,
                     snap_sink=lambda st, k: snaps.append(k))
        assert (result.status, result.steps, result.t_reached) == (status, 1, 1e-3)
        assert result.state.t == 1e-3
        assert [r.t for r in records] == [0.0]
        assert snaps == [0]

    @pytest.mark.parametrize(
        "formulation, params",
        [
            ("A", PhysParams(h_ext=HExt(kind="single_mode", amplitude=0.1))),
            ("B", PhysParams(kappa=0.5)),
            ("B", PhysParams(h_ext=HExt(kind="uniform", vector=(0.0, 0.0, 0.5)))),
        ],
        ids=["A_wavevector_length", "B_kappa", "B_h_ext"],
    )
    def test_run_refuses_parameters_before_any_work(
        self, grid3: TorusGrid, formulation: str, params: PhysParams
    ) -> None:
        calls = []
        cfg = IntegratorConfig(dt=1e-3, t_end=3e-3, snapshot_every=1)
        for diag_sink in (calls.append, None):  # without records, snapshot 0 comes first
            with pytest.raises(ValueError):
                run(
                    uniform_steady(grid3, formulation),
                    params,
                    cfg,
                    diag_sink=diag_sink,
                    snap_sink=lambda state, k: calls.append(k),
                )
        assert calls == []

    @pytest.mark.parametrize(
        "stepper, params",
        [
            (step_B, PhysParams(kappa=0.5)),
            (step_B, PhysParams(h_ext=HExt(kind="uniform", vector=(0.0, 0.0, 0.5)))),
            (step_A, PhysParams(h_ext=HExt(kind="single_mode", amplitude=0.1))),
        ],
        ids=["B_kappa", "B_h_ext", "A_wavevector_length"],
    )
    def test_step_refuses_parameters(
        self, grid3: TorusGrid, stepper, params: PhysParams
    ) -> None:
        """A step called directly checks its parameters as run() does; in 3D
        the default single_mode wavevector (1, 0) is one entry short."""
        state = uniform_steady(grid3, "A" if stepper is step_A else "B")
        with pytest.raises(ValueError):
            stepper(state, params, IntegratorConfig(dt=1e-3, t_end=1e-3))


class TestRunLoop:
    def test_zero_horizon_emits_single_row(self, grid2: TorusGrid) -> None:
        records = []
        cfg = IntegratorConfig(dt=1e-3, t_end=0.0)
        result = run(uniform_steady(grid2, "A"), PARAMS, cfg, diag_sink=records.append)
        assert result.status == "completed"
        assert result.steps == 0
        assert len(records) == 1
        assert records[0].t == 0.0

    def test_diag_cadence_includes_endpoints(self, grid2: TorusGrid) -> None:
        records = []
        cfg = IntegratorConfig(dt=1e-3, t_end=1e-2, diag_every=3)
        result = run(uniform_steady(grid2, "A"), PARAMS, cfg, diag_sink=records.append)
        assert result.status == "completed"
        assert result.steps == 10
        times = [round(r.t / 1e-3) for r in records]
        assert times == [0, 3, 6, 9, 10]

    def test_snapshot_cadence(self, grid2: TorusGrid) -> None:
        snaps = []
        cfg = IntegratorConfig(dt=1e-3, t_end=1e-2, snapshot_every=5)
        run(
            uniform_steady(grid2, "A"),
            PARAMS,
            cfg,
            snap_sink=lambda state, k: snaps.append(k),
        )
        assert snaps == [0, 5, 10]

    def test_snapshots_suppressed_by_default(self, grid2: TorusGrid) -> None:
        snaps = []
        cfg = IntegratorConfig(dt=1e-3, t_end=5e-3)
        run(
            uniform_steady(grid2, "A"),
            PARAMS,
            cfg,
            snap_sink=lambda state, k: snaps.append(k),
        )
        assert snaps == []

    def test_final_time_stamp(self, grid2: TorusGrid) -> None:
        cfg = IntegratorConfig(dt=1e-3, t_end=7e-3)
        result = run(uniform_steady(grid2, "A"), PARAMS, cfg)
        assert result.t_reached == pytest.approx(7e-3, rel=1e-12)
        assert result.state.t == pytest.approx(7e-3, rel=1e-12)

    def test_restart_continues_the_clock(self, grid2: TorusGrid) -> None:
        """3 + 3 steps, restarted from the first run's final state, are 6 steps."""
        h_ext = HExt(kind="single_mode", amplitude=0.5, wavevector=(1, 0), component=0, omega=20.0)
        params = PhysParams(nu=1.0, kappa=0.1, h_ext=h_ext)
        state = generate_initial_data(grid2, "random_small", "A", amplitude=1e-2, seed=3)
        whole = run(state, params, IntegratorConfig(dt=1e-3, t_end=6e-3))
        half = IntegratorConfig(dt=1e-3, t_end=3e-3)
        records = []
        second = run(run(state, params, half).state, params, half, diag_sink=records.append)
        assert second.steps == 3
        assert [r.t for r in records] == pytest.approx([3e-3, 4e-3, 5e-3, 6e-3], rel=1e-12)
        assert second.t_reached == pytest.approx(6e-3, rel=1e-12)
        assert max_state_change(whole.state, second.state) <= 1e-12


class TestFormulationAgreement:
    def test_matched_small_data_stays_close(self) -> None:
        assert_formulations_agree(TorusGrid(dim=2, n=16))

    def test_matched_small_data_stays_close_3d(self) -> None:
        assert_formulations_agree(TorusGrid(dim=3, n=16))


REUSE_GRIDS = [TorusGrid(dim=2, n=16), TorusGrid(dim=3, n=8)]
REUSE_CASES = {
    # name: (formulation, kappa and single_mode h_ext, dealias, diag_every, renormalize_m)
    "A_kappa_hext": ("A", True, True, 1, False),
    "B": ("B", False, True, 1, False),
    "A_no_dealias": ("A", True, False, 1, False),
    "B_no_dealias": ("B", False, False, 1, False),
    "B_diag3_renorm": ("B", False, True, 3, True),
    "A_diag3_renorm": ("A", True, True, 3, True),
}


def reuse_setup(grid: TorusGrid, case: str):
    formulation, forced, dealias, diag_every, renorm = REUSE_CASES[case]
    params = PARAMS
    if forced:
        wavevector = (1,) + (0,) * (grid.dim - 1)
        h_ext = HExt(
            kind="single_mode", amplitude=0.1, wavevector=wavevector, component=0, omega=2.0
        )
        params = PhysParams(nu=1.0, kappa=0.1, h_ext=h_ext)
    state = generate_initial_data(grid, "random_small", formulation, amplitude=1e-2, seed=5)
    cfg = IntegratorConfig(
        dt=1e-3, t_end=7e-3, diag_every=diag_every, renormalize_m=renorm, snapshot_every=1
    )
    return state, params, cfg, dealias


def evaluate_rhs(state: StateA | StateB, params: PhysParams, dealias: bool):
    if state.formulation == "A":
        return dynamics.rhs_A(state, params.nu, params.kappa, params.h_ext, dealias)
    return dynamics.rhs_B(state, params.nu, dealias)


def state_bytes(state: StateA | StateB) -> list[bytes]:
    return [state.t.hex().encode()] + [f.values.tobytes() for f in state.fields]


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
@pytest.mark.parametrize("grid", REUSE_GRIDS, ids=lambda g: f"{g.dim}d_n{g.n}")
class TestSharedEvaluation:
    """run() evaluates a recorded state's right-hand side once, for the record
    and for the next step's first stage; both must read as if unshared."""

    def test_records_equal_fresh_records(self, grid: TorusGrid, case: str, monkeypatch) -> None:
        state, params, cfg, dealias = reuse_setup(grid, case)
        kernel = f"_tendency_hats_{state.formulation}"
        original = getattr(dynamics, kernel)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(dynamics, kernel, counted)
        records, states = [], {}
        result = run(
            state,
            params,
            cfg,
            dealias=dealias,
            diag_sink=records.append,
            snap_sink=lambda st, k: states.setdefault(k, st),
        )
        monkeypatch.undo()
        assert result.status == "completed"
        steps = [round(r.t / cfg.dt) for r in records]
        assert steps == ([0, 1, 2, 3, 4, 5, 6, 7] if cfg.diag_every == 1 else [0, 3, 6, 7])
        # two stages per step plus one evaluation for the last record only
        assert len(calls) == 2 * 7 + 1
        for k, record in zip(steps, records):
            fresh = diagnostic_record(
                states[k], params, 2, 0.25, evaluate_rhs(states[k], params, dealias)
            )
            assert record.to_csv_row() == fresh.to_csv_row()
        stepper = step_A if state.formulation == "A" else step_B
        for k in range(1, 8):
            state = replace(stepper(state, params, cfg, dealias), t=k * cfg.dt)
            assert state_bytes(state) == state_bytes(states[k])

    def test_step_with_rhs_is_bitwise_the_plain_step(self, grid: TorusGrid, case: str) -> None:
        state, params, cfg, dealias = reuse_setup(grid, case)
        state = replace(state, t=3e-3)  # a forced run samples h_ext at the state's time
        stepper = step_A if state.formulation == "A" else step_B
        shared = stepper(state, params, cfg, dealias, evaluate_rhs(state, params, dealias))
        plain = stepper(state, params, cfg, dealias)
        assert state_bytes(shared) == state_bytes(plain)


# Scalar transforms (forward, inverse) of one step from random_small data at
# 2D n = 16 and 3D n = 8: a plain step, the rhs_A/rhs_B evaluation run()
# makes at a recorded state, and the step given that evaluation. The
# evaluation is the step's first stage, so the last two add up to the first.
STEP_TRANSFORMS = {
    (2, "A"): {"step": (33, 40), "rhs": (21, 11), "step_given_rhs": (12, 29)},
    (2, "B"): {"step": (23, 38), "rhs": (15, 13), "step_given_rhs": (8, 25)},
    (3, "A"): {"step": (69, 60), "rhs": (42, 15), "step_given_rhs": (27, 45)},
    (3, "B"): {"step": (33, 57), "rhs": (21, 21), "step_given_rhs": (12, 36)},
}


@pytest.mark.parametrize("dim, formulation", sorted(STEP_TRANSFORMS))
def test_scalar_transforms_per_step(monkeypatch, dim: int, formulation: str) -> None:
    grid = TorusGrid(dim=dim, n=16 if dim == 2 else 8)
    state = generate_initial_data(grid, "random_small", formulation, amplitude=1e-2, seed=5)
    stepper = step_A if formulation == "A" else step_B
    cfg = IntegratorConfig(dt=1e-3, t_end=1e-3)
    counts = TransformCounter(monkeypatch, grid).counts
    seen = {}

    def count(name: str, call):
        before = dict(counts)
        out = call()
        seen[name] = (counts["fwd"] - before["fwd"], counts["inv"] - before["inv"])
        return out

    count("step", lambda: stepper(state, PARAMS, cfg))
    rhs = count("rhs", lambda: evaluate_rhs(state, PARAMS, True))
    count("step_given_rhs", lambda: stepper(state, PARAMS, cfg, True, rhs))
    assert seen == STEP_TRANSFORMS[dim, formulation]


def test_run_hands_the_step_an_evaluation_without_geometry(monkeypatch) -> None:
    """A recorded B state's evaluation reaches the next step without the
    kernel's geometry and the tendency hats, which only the record reads, so
    no step holds them."""
    grid = TorusGrid(dim=2, n=16)
    state = generate_initial_data(grid, "random_small", "B", amplitude=1e-2, seed=5)
    handed = []
    original = timestepper.step_B

    def spy(state, params, cfg, dealias=True, _rhs=None):
        handed.append(_rhs)
        return original(state, params, cfg, dealias, _rhs)

    monkeypatch.setattr(timestepper, "step_B", spy)
    records = []
    result = run(state, PARAMS, IntegratorConfig(dt=1e-3, t_end=2e-3), diag_sink=records.append)
    assert result.status == "completed" and len(records) == 3
    assert len(handed) == 2
    assert all(rhs.geometry is None and rhs.tendency_hats is None for rhs in handed)


@pytest.mark.parametrize("h_ext, counts", [
    (HExt(), {"fwd": 33, "inv": 40}),
    (HExt(kind="uniform", vector=(0.0, 0.0, 0.5)), {"fwd": 43, "inv": 52}),
    (HExt(kind="single_mode", amplitude=0.1), {"fwd": 43, "inv": 52}),
], ids=["zero", "uniform", "single_mode"])
def test_a_field_is_transformed_once_per_kernel_call(monkeypatch, h_ext: HExt,
                                                     counts: dict[str, int]) -> None:
    """A bare 2D A step with a field transforms it once per kernel call, for
    the momentum's jacobian of h and the magnetization's + h hat alike: 3
    forward transforms per call for h's components and 6 inverse ones for its
    jacobian, in both of the step's calls."""
    grid = TorusGrid(dim=2, n=16)
    state = generate_initial_data(grid, "random_small", "A", amplitude=1e-2, seed=5)
    counter = TransformCounter(monkeypatch, grid)
    step_A(state, PhysParams(nu=1.0, h_ext=h_ext), IntegratorConfig(dt=1e-3, t_end=1e-3))
    assert counter.counts == counts


@pytest.mark.parametrize("dim, formulation", sorted(STEP_TRANSFORMS))
def test_run_transforms_only_its_initial_state(monkeypatch, dim: int, formulation: str) -> None:
    """Each step hands its state the hats it made: k steps without a record
    cost one bare step and k - 1 steps from carried hats, which are the bare
    step less one forward transform per state component."""
    grid = TorusGrid(dim=dim, n=16 if dim == 2 else 8)
    state = generate_initial_data(grid, "random_small", formulation, amplitude=1e-2, seed=5)
    counts = TransformCounter(monkeypatch, grid).counts
    k = 4
    assert run(state, PARAMS, IntegratorConfig(dt=1e-3, t_end=k * 1e-3)).status == "completed"
    fwd, inv = STEP_TRANSFORMS[dim, formulation]["step"]
    components = sum(int(np.prod(shape)) for shape in type(state).component_shapes(dim))
    assert counts == {"fwd": fwd + (k - 1) * (fwd - components), "inv": k * inv}


@pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "no_dealias"])
@pytest.mark.parametrize("formulation", ["A", "B"])
@pytest.mark.parametrize("grid", [TorusGrid(dim=2, n=32), TorusGrid(dim=3, n=16)],
                         ids=lambda g: f"{g.dim}d_n{g.n}")
def test_carried_hats_are_the_transforms_of_the_values(grid: TorusGrid, formulation: str,
                                                       dealias: bool) -> None:
    """After 20 steps a state's carried hats are the transforms of its values
    to rounding: every multiplier keeps a real field's hat real (Nyquist modes
    included), so the inverse transform that made the values dropped nothing."""
    state = generate_initial_data(grid, "random_small", formulation, amplitude=1e-2, seed=5)
    stepper = step_A if formulation == "A" else step_B
    cfg = IntegratorConfig(dt=1e-3, t_end=1e-3)
    for _ in range(20):
        state = stepper(state, PARAMS, cfg, dealias)
    for hat, f in zip(state.hats, state.fields, strict=True):
        expected = grid.fft(f.values)
        assert np.max(np.abs(hat - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("formulation, bound", [("A", 4.5), ("B", 7.0)])
def test_a_step_from_a_record_is_bounded(formulation: str, bound: float) -> None:
    """At 3D n = 16 one step given a record's evaluation, as run hands it
    (no tendency hats, no geometry), allocates at most `bound` times the
    state's value bytes: 4.13 in A and 6.29 in B, against 4.96 and 8.58 when
    _imex2 held the predictor hats and every second stage through its final
    stage and the kernels made their temporaries on all entries at once."""
    grid = TorusGrid(dim=3, n=16)
    params, cfg = PhysParams(nu=1.0), IntegratorConfig(dt=1e-3, t_end=1e-3)
    stepper, evaluate = {"A": (step_A, dynamics.rhs_A), "B": (step_B, dynamics.rhs_B)}[formulation]
    state = stepper(generate_initial_data(grid, "random_small", formulation, amplitude=1e-2,
                                          seed=5), params, cfg)
    rhs = replace(evaluate(state, nu=params.nu), tendency_hats=None, geometry=None)
    peak = traced_peak(lambda: stepper(state, params, cfg, True, rhs))
    assert peak <= bound * value_bytes(state)
