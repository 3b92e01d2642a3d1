"""Mollified magnetization solver and the staged Picard iteration."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from elastomag import dynamics, schemes
from elastomag.energetics import sobolev_norm_sq
from elastomag.errors import BlowUpError
from elastomag.fields import (
    HExt,
    PhysParams,
    StateA,
    identity_matrix_field,
    renormalize_M,
    sphere_residual,
)
from elastomag.harness import generate_initial_data
from elastomag.harness.scenarios import (
    MOLLIFIER_MIN_DROP,
    PICARD_DISTANCE_TOL,
    PICARD_RATIO_TOL,
)
from elastomag.schemes import (
    mollifier_convergence_study,
    picard_iterate,
    picard_metric,
    solve_llg_given_v,
)
from elastomag.spectral import MatrixField, TorusGrid, VectorField, divergence_from_hat
from elastomag.timestepper import IntegratorConfig, run

from conftest import TransformCounter, full_free_lists, truncate, vector

PARAMS = PhysParams(nu=1.0, kappa=0.0, h_ext=HExt())


def constant_m(grid: TorusGrid) -> VectorField:
    vals = np.zeros((3,) + grid.shape)
    vals[2] = 1.0
    return VectorField(grid, vals)


def circle_m(grid: TorusGrid) -> VectorField:
    vals = np.zeros((3,) + grid.shape)
    vals[0] = np.cos(grid.x[0])
    vals[1] = np.sin(grid.x[0])
    return VectorField(grid, vals)


def perturbed_m(grid: TorusGrid, amplitude: float, band: int, seed: int) -> VectorField:
    """Unit magnetization near the north pole with a random trig perturbation."""
    rng = np.random.default_rng(seed)
    vals = np.zeros((3,) + grid.shape)
    vals[2] = 1.0
    phases = grid.x
    for c in range(3):
        for _ in range(3):
            k = rng.integers(-band, band + 1, size=grid.dim)
            ph = rng.uniform(0.0, 2.0 * np.pi)
            arg = sum(int(k[i]) * phases[i] for i in range(grid.dim)) + ph
            vals[c] += amplitude * np.cos(arg)
    return renormalize_M(VectorField(grid, vals))


def steady_circle_state(grid: TorusGrid) -> StateA:
    zero = np.zeros(grid.shape)
    return StateA(
        t=0.0,
        v=vector(grid, zero, zero),
        F=identity_matrix_field(grid),
        M=circle_m(grid),
    )


class TestSolveLlgGivenV:
    def test_rejects_non_unit_initial_data(self, grid2: TorusGrid) -> None:
        bad = VectorField(grid2, 1.5 * constant_m(grid2).values)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError):
            solve_llg_given_v(bad, None, 2.0, 2, cfg)

    def test_rejects_cutoff_beyond_dealias_band(self, grid2: TorusGrid) -> None:
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError):
            solve_llg_given_v(constant_m(grid2), None, grid2.n / 3.0 + 1.0, 2, cfg)

    def test_rejects_nonpositive_cutoff(self, grid2: TorusGrid) -> None:
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError, match="cutoff must be > 0"):
            solve_llg_given_v(constant_m(grid2), None, 0.0, 2, cfg)

    def test_constant_magnetization_is_fixed(self, grid2: TorusGrid) -> None:
        m0 = constant_m(grid2)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.05)
        out = solve_llg_given_v(m0, None, 2.0, 2, cfg)
        assert np.max(np.abs(out.M_final.values - m0.values)) <= 1e-14

    def test_harmonic_map_profile_is_stationary(self, grid2: TorusGrid) -> None:
        m0 = circle_m(grid2)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.5, snapshot_every=100)
        out = solve_llg_given_v(m0, None, 4.0, 2, cfg)
        deviation = max(
            np.max(np.abs(m.values - m0.values)) for _, m in out.trajectory
        )
        assert deviation <= 1e-8

    def test_resolving_cutoff_matches_native_projection(self, grid2: TorusGrid) -> None:
        m0 = perturbed_m(grid2, 1e-3, band=1, seed=7)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.1)
        with_ball = solve_llg_given_v(m0, None, grid2.n / 3.0, 2, cfg)
        native = solve_llg_given_v(m0, None, None, 2, cfg)
        diff = np.max(np.abs(with_ball.M_final.values - native.M_final.values))
        assert diff <= 1e-10

    def test_initial_energy_is_truncated_gradient_norm(self, grid2: TorusGrid) -> None:
        m0 = perturbed_m(grid2, 0.15, band=3, seed=2)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        out = solve_llg_given_v(m0, None, 2.0, 2, cfg)
        projected = VectorField(grid2, truncate(grid2, m0.values, 2.0))
        assert np.array_equal(out.M0_truncated.values, projected.values)
        assert out.e_eps[0] == pytest.approx(sobolev_norm_sq(projected, 2, 1), rel=1e-13)
        assert out.e_eps[0] < out.e0
        assert out.e0 == pytest.approx(sobolev_norm_sq(m0, 2, 1), rel=1e-13)

    def test_series_covers_the_horizon(self, grid2: TorusGrid) -> None:
        cfg = IntegratorConfig(dt=1e-3, t_end=0.02, diag_every=5)
        out = solve_llg_given_v(constant_m(grid2), None, 2.0, 2, cfg)
        assert out.times[0] == 0.0
        assert out.times[-1] == pytest.approx(0.02, rel=1e-12)
        assert len(out.times) == len(out.e_eps) == len(out.d_eps)


    def test_a_recorded_step_transforms_its_node_once(self, grid2: TorusGrid,
                                                       monkeypatch) -> None:
        """A step with a record: 6 forward scalar transforms in the march, which
        hands on the hat it made, none for ||M - J M0|| and the two norms of M,
        which sum over hats; 24 inverse."""
        m0 = perturbed_m(grid2, 0.05, 2, seed=3)
        counter = TransformCounter(monkeypatch, grid2)
        totals = []
        for steps in (4, 5):
            cfg = IntegratorConfig(dt=1e-3, t_end=steps * 1e-3)
            solve_llg_given_v(m0, None, None, 2, cfg)
            totals.append(dict(counter.counts))
        assert {k: totals[1][k] - 2 * totals[0][k] for k in totals[0]} == {"fwd": 6, "inv": 24}

    def test_march_clocks_from_t0(self) -> None:
        """A time-dependent field is sampled from t0: a whole period later gives
        the t0 = 0 run to rounding, half a period later a different one."""
        grid = TorusGrid(dim=2, n=32)
        m0 = generate_initial_data(grid, "random_small", "A", seed=3).M
        omega = 20.0
        h_ext = HExt(kind="single_mode", amplitude=0.5, wavevector=(1, 0), component=0,
                     omega=omega)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        base = solve_llg_given_v(m0, h_ext, 4.0, 2, cfg).M_final.values
        period = solve_llg_given_v(m0, h_ext, 4.0, 2, cfg, t0=2.0 * np.pi / omega)
        half = solve_llg_given_v(m0, h_ext, 4.0, 2, cfg, t0=np.pi / omega)
        assert period.times[0] == 2.0 * np.pi / omega
        assert half.times[0] == np.pi / omega
        assert np.max(np.abs(period.M_final.values - base)) <= 1e-15
        assert np.max(np.abs(half.M_final.values - base)) > 1e-3

    def test_blowup_is_stamped_at_its_node(self, grid2: TorusGrid, monkeypatch) -> None:
        """A tendency that turns NaN in step 2's first stage (the third of two
        calls per step) spoils node 2: the march raises BlowUpError stamped
        t0 + 2 dt there and makes no further call."""
        calls, original = [], dynamics._llg_hat

        def llg_hat(*args):
            calls.append(1)
            out = original(*args)
            return np.full_like(out, np.nan) if len(calls) == 3 else out

        monkeypatch.setattr(dynamics, "_llg_hat", llg_hat)
        t0, dt = 0.5, 1e-3
        cfg = IntegratorConfig(dt=dt, t_end=5 * dt)
        with pytest.raises(BlowUpError) as info:
            solve_llg_given_v(perturbed_m(grid2, 0.05, 2, seed=3), None, None, 2, cfg, t0=t0)
        assert type(info.value) is BlowUpError
        assert info.value.t == t0 + 2 * dt
        assert len(calls) == 4


class TestMollifierStudy:
    def test_rejects_non_increasing_cutoffs(self, grid2: TorusGrid) -> None:
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError):
            mollifier_convergence_study([4.0, 4.0], constant_m(grid2), None, 2, cfg)

    def test_single_cutoff_gives_degenerate_report(self, grid2: TorusGrid) -> None:
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        report = mollifier_convergence_study([2.0], constant_m(grid2), None, 2, cfg)
        assert report.diffs == []
        assert report.drop_factors == []
        assert len(report.runs) == 1

    def test_differences_drop_as_cutoff_doubles(self) -> None:
        grid = TorusGrid(dim=2, n=32)
        m0 = perturbed_m(grid, 1e-2, band=3, seed=5)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.2)
        report = mollifier_convergence_study([2.0, 4.0, 8.0], m0, None, 2, cfg)
        assert report.diffs[0] > report.diffs[1]
        assert report.drop_factors[0] >= 4.0
        assert report.bound_ok

    def test_energy_stays_below_bootstrap_ceiling(self) -> None:
        grid = TorusGrid(dim=2, n=32)
        m0 = perturbed_m(grid, 1e-2, band=3, seed=5)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.1)
        report = mollifier_convergence_study([2.0, 8.0], m0, None, 2, cfg)
        for one_run in report.runs:
            assert one_run.sup_e_eps <= 2.2 * one_run.e0

    def test_initial_data_is_transformed_once_per_study(self, grid2: TorusGrid,
                                                         monkeypatch) -> None:
        """The study makes M0's hat once for all its cutoffs: three cutoffs cost
        their three solves and the two final differences' norms (3 forward
        transforms each), less two forward transforms of M0's 3 components."""
        m0 = perturbed_m(grid2, 0.05, 2, seed=3)
        cutoffs = [2.0, 3.0, 4.0]
        cfg = IntegratorConfig(dt=1e-3, t_end=2e-3)
        counts = TransformCounter(monkeypatch, grid2).counts
        mollifier_convergence_study(cutoffs, m0, None, 2, cfg)
        study = dict(counts)
        for cutoff in cutoffs:
            solve_llg_given_v(m0, None, cutoff, 2, cfg)
        solves = {k: counts[k] - study[k] for k in study}
        assert study == {"fwd": solves["fwd"] + 2 * 3 - 2 * 3, "inv": solves["inv"]}


class TestPicardGuards:
    def test_rejects_non_div_free_velocity(self, grid2: TorusGrid) -> None:
        state = steady_circle_state(grid2)
        bad_v = vector(grid2, np.sin(grid2.x[0]), np.zeros(grid2.shape))
        bad = StateA(t=0.0, v=bad_v, F=state.F, M=state.M)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError):
            picard_iterate(bad, PARAMS, 1, cfg, 2)

    def test_rejects_non_unit_determinant(self, grid2: TorusGrid) -> None:
        state = steady_circle_state(grid2)
        bad = StateA(
            t=0.0,
            v=state.v,
            F=MatrixField(grid2, 1.1 * state.F.values),
            M=state.M,
        )
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError):
            picard_iterate(bad, PARAMS, 1, cfg, 2)

    def test_rejects_non_unit_magnetization(self, grid2: TorusGrid) -> None:
        state = steady_circle_state(grid2)
        bad = StateA(
            t=0.0, v=state.v, F=state.F, M=VectorField(grid2, 1.2 * state.M.values)
        )
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError):
            picard_iterate(bad, PARAMS, 1, cfg, 2)


class TestPicardIteration:
    def test_iterate_zero_is_the_initial_data(self, grid2: TorusGrid) -> None:
        init = steady_circle_state(grid2)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.02)
        first = picard_iterate(init, PARAMS, 1, cfg, 2).states_at_T[0]
        assert first.t == 0.02
        assert np.array_equal(first.v.values, init.v.values)
        assert np.array_equal(first.F.values, init.F.values)
        assert np.array_equal(first.M.values, init.M.values)

    def test_a_zero_length_sweep_returns_the_initial_data(self, grid2: TorusGrid) -> None:
        """With t_end = 0 no step runs: every iterate is the initial data at its
        own time, no iterate differs from the last, no dissipation accrues,
        and the per-iterate sups hold node 0's values."""
        init = replace(
            generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=5), t=0.25
        )
        run_ = picard_iterate(init, PARAMS, 3, IntegratorConfig(dt=1e-3, t_end=0.0), 2)
        e0 = (sobolev_norm_sq(init.v, 2) + sobolev_norm_sq(init.F, 2)
              + sobolev_norm_sq(init.M, 2, 1))
        div0 = float(np.max(np.abs(divergence_from_hat(grid2, grid2.fft(init.v.values)))))
        assert isinstance(run_, schemes.PicardRun)
        assert len(run_.states_at_T) == 4
        for state in run_.states_at_T:
            assert state.t == init.t
            assert all(np.array_equal(x.values, y.values)
                       for x, y in zip(state.fields, init.fields))
        assert run_.diffs == [0.0] * 3
        assert run_.d_int == [0.0] * 3
        assert run_.e0 == pytest.approx(e0, rel=1e-12)
        assert run_.e_sup == [run_.e0] * 3
        assert run_.div_v_res == [div0] * 3
        assert run_.sphere_res == [sphere_residual(init.M)] * 3

    def test_stored_iterates_own_their_data(self, grid2: TorusGrid) -> None:
        # a view into an iterate's node arrays would keep its whole trajectory alive
        init = generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=5)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        for state in picard_iterate(init, PARAMS, 2, cfg, 2).states_at_T[1:]:
            assert all(f.values.base is None for f in (state.v, state.F, state.M))

    @pytest.mark.parametrize("extra", [{"fwd": 21, "inv": 58}], ids=["frozen"])
    def test_iterate_transforms_per_node(self, grid2: TorusGrid, extra: dict[str, int],
                                         monkeypatch) -> None:
        """Scalar transforms per step of 2 iterates, sources, steps and norms
        together: no node is transformed, each holding the hats its step made,
        and each makes each jacobian at most once. Iterate 1 reads the
        constant iterate 0, whose jacobians and, with no field, whose sources
        are made once per run, and no node makes a jacobian of v or F. No
        iterate reads the last one's nodes, so before the horizon its v and F
        are not transformed back (21/64 when they were)."""
        init = generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=5)
        counter = TransformCounter(monkeypatch, grid2)
        totals = []
        for steps in (4, 5):
            cfg = IntegratorConfig(dt=1e-3, t_end=steps * 1e-3)
            picard_iterate(init, PARAMS, 2, cfg, 2)
            totals.append(dict(counter.counts))
        # counts accumulate: this is the 5-step run less the 4-step one, one step
        # more of each iterate
        assert {k: totals[1][k] - 2 * totals[0][k] for k in totals[0]} == extra

    @pytest.mark.parametrize("added", [{"fwd": 42, "inv": 60}], ids=["frozen"])
    def test_step_zero_makes_the_first_stage_once(self, grid2: TorusGrid,
                                                  added: dict[str, int],
                                                  monkeypatch) -> None:
        """At step 0 every iterate's own node and its predecessor's are node 0,
        so the first-stage hats of M and F's source there are the same for all
        iterates and made once per sweep: each iterate past the first adds to
        a one-step sweep only its sources at node 1, its predictor tendency,
        its new node and its norms. Made per iterate, M's first stage would
        cost 3/3 more."""
        init = generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=5)
        counts = TransformCounter(monkeypatch, grid2).counts
        totals = []
        for n_max in (1, 3):
            before = dict(counts)
            picard_iterate(init, PARAMS, n_max, IntegratorConfig(dt=1e-3, t_end=1e-3), 2)
            totals.append({k: counts[k] - before[k] for k in before})
        assert {k: totals[1][k] - totals[0][k] for k in totals[0]} == added

    @pytest.mark.parametrize("counts", [{"fwd": 100, "inv": 152}], ids=["frozen"])
    def test_a_field_is_transformed_once_per_time(self, grid2: TorusGrid,
                                                  counts: dict[str, int],
                                                  monkeypatch) -> None:
        """With a field, every iterate and term at one time share its values
        and hat: 2 iterates of 2 steps transform h at t = 0, dt and 2 dt only,
        not once per iterate, velocity source and magnetization term (130/152
        that way). F's source at the constant node 0 does not depend on t, so
        iterate 1 reads it made once per run even with a field (6/2 per
        step)."""
        init = generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=5)
        params = PhysParams(nu=1.0, h_ext=HExt(kind="single_mode", amplitude=0.1, omega=20.0))
        counter = TransformCounter(monkeypatch, grid2)
        picard_iterate(init, params, 2, IntegratorConfig(dt=1e-3, t_end=2e-3), 2)
        assert counter.counts == counts

    def test_later_iterates_leave_earlier_ones_unchanged(self, grid2: TorusGrid) -> None:
        init = generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=5)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        short = picard_iterate(init, PARAMS, 3, cfg, 2)
        long = picard_iterate(init, PARAMS, 5, cfg, 2)
        for a, b in zip(short.states_at_T, long.states_at_T[:4], strict=True):
            assert all(np.array_equal(x.values, y.values) for x, y in zip(a.fields, b.fields))
        for name in ("diffs", "e_sup", "d_int", "div_v_res", "sphere_res"):
            assert getattr(short, name) == getattr(long, name)[:3]

    def test_memory_does_not_grow_with_the_horizon(self, grid2: TorusGrid) -> None:
        """Only the current nodes are held, so the peak is the same for a
        horizon four times longer. The traced runs start with the tuple free
        lists full, whose filling would otherwise read as up to 1.14x growth
        when the test runs alone."""
        init = generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=5)
        # an untraced run first makes the first-call caches
        picard_iterate(init, PARAMS, 3, IntegratorConfig(dt=1e-3, t_end=0.04), 2)
        peaks = []
        with full_free_lists():
            for t_end in (0.01, 0.04):
                cfg = IntegratorConfig(dt=1e-3, t_end=t_end)
                tracemalloc.start()
                try:
                    picard_iterate(init, PARAMS, 3, cfg, 2)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    def test_blowup_names_the_first_bad_node_and_stage(self, grid2: TorusGrid,
                                                       monkeypatch) -> None:
        """A field that turns NaN at t = 2 dt spoils iterate 1's velocity
        source there first: the sweep reaches node 2 of iterate 1's velocity
        stage before any later node or iterate. The field is a time-dependent
        one, for which iterate 1's velocity source is made at every node. An F
        whose new values turn NaN at node 2 names iterate 1's deformation
        stage, which the sweep reaches before iterate 2 and before M."""
        dt = 1e-3

        def h_values(h_ext, grid, t):
            return np.full((3,) + grid.shape, np.nan) if t == 2 * dt else None

        monkeypatch.setattr(dynamics, "_h_values", h_values)
        init = generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=5)
        h_ext = HExt(kind="single_mode", amplitude=0.5, wavevector=(1, 0), component=0,
                     omega=20.0)
        params = PhysParams(nu=1.0, kappa=0.0, h_ext=h_ext)
        at_node_2 = r" stage: non-finite field values at t = 0\.002$"
        with pytest.raises(BlowUpError, match="^iterate 1 velocity" + at_node_2) as info:
            picard_iterate(init, params, 3, IntegratorConfig(dt=dt, t_end=5 * dt), 2)
        assert info.value.t == 2 * dt

        monkeypatch.undo()
        imex2 = schemes._imex2

        def spoiled(grid, hats, *args):
            values, new_hats = imex2(grid, hats, *args)
            # args[1] is the step's t0: F is the one matrix field
            if hats[0].ndim == grid.dim + 2 and args[1] == dt:
                values = tuple(np.full_like(x, np.nan) for x in values)
            return values, new_hats

        monkeypatch.setattr(schemes, "_imex2", spoiled)
        with pytest.raises(BlowUpError, match="^iterate 1 deformation" + at_node_2) as info:
            picard_iterate(init, PARAMS, 3, IntegratorConfig(dt=dt, t_end=5 * dt), 2)
        assert info.value.t == 2 * dt

    @pytest.mark.parametrize("stage, ndim", [("velocity", 3), ("deformation", 4)],
                             ids=["velocity", "deformation"])
    def test_blowup_in_the_last_iterates_hats(self, grid2: TorusGrid, stage: str, ndim: int,
                                              monkeypatch) -> None:
        """Before the horizon the last iterate's v and F come back as hats only,
        and a NaN there still raises BlowUpError at its node, naming that
        iterate and stage: their finiteness check reads the hats."""
        dt = 1e-3
        imex2 = schemes._imex2
        spoiled_values = []

        def spoiled(grid, hats, n1, t0, *args):
            values, new_hats = imex2(grid, hats, n1, t0, *args)
            # args[-2] is the call's keeps: only the last iterate's v and F keep no values
            if args[-2] == (False,) and hats[0].ndim == ndim and t0 == dt:
                spoiled_values.append(values)
                new_hats = tuple(np.full_like(h, np.nan) for h in new_hats)
            return values, new_hats

        monkeypatch.setattr(schemes, "_imex2", spoiled)
        init = generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=5)
        at_node_2 = r" stage: non-finite field values at t = 0\.002$"
        with pytest.raises(BlowUpError, match=f"^iterate 3 {stage}" + at_node_2) as info:
            picard_iterate(init, PARAMS, 3, IntegratorConfig(dt=dt, t_end=5 * dt), 2)
        assert info.value.t == 2 * dt
        assert spoiled_values == [(None,)]

    def test_sweep_starts_at_the_initial_time(self, grid2: TorusGrid) -> None:
        """From data at t = 0.5 the sweep samples a time-dependent field where
        run does, and stamps its iterates at the end of its own interval."""
        h_ext = HExt(kind="single_mode", amplitude=0.5, wavevector=(1, 0), component=0,
                     omega=20.0)
        params = PhysParams(nu=1.0, kappa=0.0, h_ext=h_ext)
        init = replace(
            generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=5), t=0.5
        )
        cfg = IntegratorConfig(dt=1e-3, t_end=3e-3)
        last = picard_iterate(init, params, 6, cfg, 2).states_at_T[-1]
        mono = run(init, params, cfg)
        assert mono.status == "completed"
        assert last.t == mono.state.t == pytest.approx(0.503, abs=1e-15)
        assert np.max(np.abs(last.M.values - mono.state.M.values)) <= 1e-11

    def test_steady_state_iterates_stay_put(self, grid2: TorusGrid) -> None:
        init = steady_circle_state(grid2)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.05)
        out = picard_iterate(init, PARAMS, 3, cfg, 2)
        for state in out.states_at_T:
            assert np.max(np.abs(state.v.values - init.v.values)) <= 1e-10
            assert np.max(np.abs(state.F.values - init.F.values)) <= 1e-10
            assert np.max(np.abs(state.M.values - init.M.values)) <= 1e-10

    def test_small_data_contracts(self, grid2: TorusGrid) -> None:
        init = generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=5)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.05)
        out = picard_iterate(init, PARAMS, 5, cfg, 2)
        assert all(b < a for a, b in zip(out.diffs, out.diffs[1:]))
        assert all(r <= 0.5 for r in out.ratios)
        assert max(out.div_v_res) <= 1e-11
        assert max(out.sphere_res) <= 1e-7

    def test_metric_basics(self, grid2: TorusGrid) -> None:
        a = steady_circle_state(grid2)
        b = generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=1)
        assert picard_metric(a, a, 2) == 0.0
        assert picard_metric(a, b, 2) == pytest.approx(picard_metric(b, a, 2), rel=1e-12)
        assert picard_metric(a, b, 2) > 0.0


class TestConvergenceReport:
    def test_steady_run_distance_is_tiny(self, grid2: TorusGrid) -> None:
        init = steady_circle_state(grid2)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.05)
        out = picard_iterate(init, PARAMS, 3, cfg, 2)
        reference = StateA(t=0.05, v=init.v, F=init.F, M=init.M)
        assert picard_metric(out.states_at_T[-1], reference, 2) <= 1e-10
        assert max(e + d for e, d in zip(out.e_sup, out.d_int)) <= 2.0 * out.e0

    def test_small_data_limit_matches_monolithic_solver(self, grid2: TorusGrid) -> None:
        init = generate_initial_data(grid2, "flow_map_F", "A", amplitude=1e-2, seed=5)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.05)
        out = picard_iterate(init, PARAMS, 5, cfg, 2)
        mono = run(init, PARAMS, cfg)
        assert mono.status == "completed"
        assert picard_metric(out.states_at_T[-1], mono.state, 2) <= 1e-5
        assert max(e + d for e, d in zip(out.e_sup, out.d_int)) <= 2.0 * out.e0


GRID3 = TorusGrid(dim=3, n=12)
PICARD_CFG3 = IntegratorConfig(dt=2e-3, t_end=0.1)


@pytest.fixture(scope="module")
def flow_map_3d() -> StateA:
    """3D flow_map_F data, built once: its RK4 flow map is the slow part."""
    return generate_initial_data(GRID3, "flow_map_F", "A", amplitude=0.05, seed=5)


@pytest.fixture(scope="module")
def picard_3d(flow_map_3d: StateA) -> schemes.PicardRun:
    return picard_iterate(flow_map_3d, PARAMS, 6, PICARD_CFG3, 2)


@pytest.fixture(scope="module")
def monolithic_3d(flow_map_3d: StateA) -> StateA:
    result = run(flow_map_3d, PARAMS, PICARD_CFG3)
    assert result.status == "completed"
    return result.state


class TestSchemes3D:
    """The constructive schemes in 3D, against the picard_study and
    mollifier_study thresholds."""

    def test_picard_contracts_to_the_monolithic_run(self, picard_3d: schemes.PicardRun,
                                                    monolithic_3d: StateA) -> None:
        out = picard_3d
        assert max(out.ratios) <= PICARD_RATIO_TOL
        assert picard_metric(out.states_at_T[-1], monolithic_3d, 2) <= PICARD_DISTANCE_TOL
        assert max(e + d for e, d in zip(out.e_sup, out.d_int)) <= 2.0 * out.e0
        assert max(out.div_v_res) <= 1e-11

    def test_mollifier_differences_drop_as_cutoff_doubles(self) -> None:
        grid = TorusGrid(dim=3, n=24)
        m0 = generate_initial_data(grid, "random_small", "A", seed=3).M
        cfg = IntegratorConfig(dt=1e-3, t_end=0.05)
        report = mollifier_convergence_study([2.0, 4.0, 8.0], m0, None, 2, cfg)
        assert min(report.drop_factors) >= MOLLIFIER_MIN_DROP
        assert report.bound_ok
