"""Sobolev-norm functionals, energy bookkeeping, and diagnostic rows."""

from __future__ import annotations

import math
from dataclasses import fields as dataclass_fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastomag import energetics, fields, spectral
from elastomag.dynamics import Rhs, rhs_A, rhs_B
from elastomag.energetics import (
    CSV_HEADER,
    DiagnosticRecord,
    _hat_norm_sq,
    _hat_sq,
    basic_energy,
    constraint_bundle,
    delta_default,
    diagnostic_record,
    multiindex_count,
    multiindices,
    sobolev_norm_sq,
    sobolev_weight,
)
from elastomag.errors import NearSingularError
from elastomag.fields import HExt, PhysParams, StateA, StateB, identity_matrix_field
from elastomag.timestepper import IntegratorConfig, step_A
from elastomag.harness import generate_initial_data
from elastomag.spectral import (
    MatrixField,
    ScalarField,
    TorusGrid,
    VectorField,
)

from conftest import (
    TransformCounter,
    div_free_vector,
    random_band_limited,
    traced_peak,
    value_bytes,
    vector,
)
from oracles import deriv_values

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PI_SQ = math.pi**2


def const_m(grid: TorusGrid, direction: tuple[float, float, float]) -> VectorField:
    vals = np.zeros((3,) + grid.shape)
    for c in range(3):
        vals[c] = direction[c]
    return VectorField(grid, vals)


def harmonic_state(grid: TorusGrid) -> StateA:
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


class TestMultiindexBookkeeping:
    @pytest.mark.parametrize("d,s,count", [(2, 2, 6), (3, 0, 1), (2, 3, 10)])
    def test_counts(self, d: int, s: int, count: int) -> None:
        assert multiindex_count(d, s) == count
        assert len(multiindices(d, s)) == count

    def test_enumeration_is_exact(self) -> None:
        assert set(multiindices(2, 1)) == {(0, 0), (0, 1), (1, 0)}

    @pytest.mark.parametrize(
        "nu,c0,k,expected",
        [(1.0, 1.0, 6, 1.0 / 576.0), (100.0, 1.0, 1, 0.25), (1.0, 2.0, 6, 1.0 / 2304.0)],
    )
    def test_delta_default(self, nu: float, c0: float, k: int, expected: float) -> None:
        assert delta_default(nu, c0, k) == pytest.approx(expected, rel=1e-15)

    def test_delta_default_rejects_nonpositive(self) -> None:
        with pytest.raises(ValueError):
            delta_default(0.0, 1.0, 6)


class TestSobolevNorms:
    @pytest.mark.parametrize("s,expected", [(0, 2 * PI_SQ), (1, 4 * PI_SQ), (2, 6 * PI_SQ)])
    def test_single_mode(self, grid2: TorusGrid, s: int, expected: float) -> None:
        f = ScalarField(grid2, np.sin(grid2.x[0]))
        assert sobolev_norm_sq(f, s) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("s", [0, 2, 3])
    def test_constant(self, grid3: TorusGrid, s: int) -> None:
        c = 1.7
        f = ScalarField(grid3, np.full(grid3.shape, c))
        assert sobolev_norm_sq(f, s) == pytest.approx(c**2 * (2 * math.pi) ** 3, rel=1e-13)

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS)
    def test_monotone_in_order(self, seed: int) -> None:
        grid = TorusGrid(dim=2, n=16)
        rng = np.random.default_rng(seed)
        f = ScalarField(grid, random_band_limited(grid, rng, band=4))
        norms = [sobolev_norm_sq(f, s) for s in range(4)]
        assert all(a <= b * (1 + 1e-14) for a, b in zip(norms, norms[1:]))

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_matches_derivative_enumeration(self, seed: int) -> None:
        grid = TorusGrid(dim=2, n=16)
        rng = np.random.default_rng(seed)
        f = random_band_limited(grid, rng, band=4)
        s = 2
        direct = sum(
            sobolev_norm_sq(ScalarField(grid, deriv_values(grid, f, m)), 0)
            for m in multiindices(grid.dim, s)
        )
        assert sobolev_norm_sq(ScalarField(grid, f), s) == pytest.approx(direct, rel=1e-12)


class TestHatNorms:
    """The hat-level mode sum behind every norm and functional."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["scalar", "vector", "matrix"])
    def test_matches_the_field_norms_exactly(self, dim: int, kind: str) -> None:
        grid = TorusGrid(dim=dim, n=16 if dim == 2 else 8)
        rng = np.random.default_rng(dim)
        if kind == "scalar":
            field = ScalarField(grid, rng.standard_normal(grid.shape))
        elif kind == "vector":
            field = VectorField(grid, rng.standard_normal((3,) + grid.shape))
        else:
            field = MatrixField(grid, rng.standard_normal((dim, dim) + grid.shape))
        hat = grid.fft(field.values)
        sq = _hat_sq(hat)
        scale = grid.volume / grid.n ** (2 * dim)
        for s in range(4):
            for power in range(3):
                weight = sobolev_weight(grid, s) * grid.k_sq**power
                parseval = float(
                    scale * np.sum(weight * grid.mode_weight * (hat.real**2 + hat.imag**2))
                )
                assert _hat_norm_sq(grid, sq, s, power) == sobolev_norm_sq(field, s, power)
                assert sobolev_norm_sq(field, s, power) == parseval
        assert _hat_norm_sq(grid, sq, 0) == sobolev_norm_sq(field, 0)


class TestLocalFunctionals:
    def test_identity_deformation_alone(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        state = StateA(
            t=0.0,
            v=vector(grid2, zero, zero),
            F=identity_matrix_field(grid2),
            M=const_m(grid2, (0.0, 0.0, 1.0)),
        )
        record = diagnostic_record(state, PhysParams(nu=1.0), s=2, delta=0.1, rhs=rhs_A(state, 1.0))
        assert record.e_s == pytest.approx(2.0 * (2 * math.pi) ** 2, rel=1e-13)
        assert record.d_s == pytest.approx(0.0, abs=1e-12)

    def test_steady_circle_state(self, grid2: TorusGrid) -> None:
        """E_s is the sum of its component norms: the record's at s = 2 is
        that sum bit for bit; at s = 0, which a record cannot take (its
        tendency norms are of order s - 2), the sum has the closed form."""
        state = harmonic_state(grid2)

        def e_sum(s: int) -> float:
            return (sobolev_norm_sq(state.v, s) + sobolev_norm_sq(state.F, s)
                    + sobolev_norm_sq(state.M, s, 1))

        record = diagnostic_record(state, PhysParams(nu=1.0), s=2, delta=0.1, rhs=rhs_A(state, 1.0))
        assert record.e_s == e_sum(2)
        assert e_sum(0) == pytest.approx(2.0 * (2 * math.pi) ** 2 + (2 * math.pi) ** 2, rel=1e-13)

    def test_basic_energy_of_steady_circle_state(self, grid2: TorusGrid) -> None:
        expected = 0.5 * (2.0 * (2 * math.pi) ** 2 + (2 * math.pi) ** 2)
        assert basic_energy(harmonic_state(grid2)) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(("dim", "formulation", "counts"), [
        (2, "A", {"fwd": 9, "inv": 0}),
        (2, "B", {"fwd": 11, "inv": 4}),
        (3, "A", {"fwd": 15, "inv": 0}),
        (3, "B", {"fwd": 18, "inv": 9}),
    ])
    def test_basic_energy_transforms_only_what_it_sums(
        self, dim: int, formulation: str, counts: dict[str, int], monkeypatch
    ) -> None:
        """One forward transform per component of v, F and M, and no residual;
        B first makes F = (I + grad psi)^{-1} from one transform of psi."""
        grid = TorusGrid(dim=dim, n=16 if dim == 2 else 8)
        state = generate_initial_data(grid, "random_small", formulation, amplitude=1e-2, seed=5)
        counter = TransformCounter(monkeypatch, grid)
        basic_energy(state)
        assert counter.counts == counts


class TestGlobalFunctionals:
    def zero_rhs(self, state: StateB) -> Rhs:
        """The state's own hats with zero tendency hats."""
        grid = state.grid
        hats = tuple(grid.fft(f.values) for f in (state.v, state.psi, state.M))
        zero = tuple(np.zeros_like(hat) for hat in hats)
        return Rhs(state_hats=hats, stage1_hats=zero, tendency_hats=zero)

    def global_pair(self, state: StateB, rhs: Rhs, nu: float, s: int,
                    delta: float) -> tuple[float, float]:
        """(E_glob, D_glob) as the diagnostic record computes them."""
        record = diagnostic_record(state, PhysParams(nu=nu), s, delta, rhs)
        return record.e_global, record.d_global

    def test_zero_state(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        state = StateB(
            t=0.0,
            v=vector(grid2, zero, zero),
            psi=vector(grid2, zero, zero),
            M=const_m(grid2, (0.0, 0.0, 1.0)),
        )
        e, d = self.global_pair(state, self.zero_rhs(state), nu=1.0, s=2, delta=0.1)
        assert e == pytest.approx(0.0, abs=1e-13)
        assert d == pytest.approx(0.0, abs=1e-13)

    def test_pure_potential_state(self, grid2: TorusGrid) -> None:
        """psi^1 = sin(x)/2: the record also makes F = (I + grad psi)^{-1},
        and det(I + grad psi) = 1 + cos(x)/2 keeps it invertible."""
        zero = np.zeros(grid2.shape)
        state = StateB(
            t=0.0,
            v=vector(grid2, zero, zero),
            psi=vector(grid2, 0.5 * np.sin(grid2.x[0]), zero),
            M=const_m(grid2, (0.0, 0.0, 1.0)),
        )
        e, _ = self.global_pair(state, self.zero_rhs(state), nu=1.0, s=2, delta=0.1)
        assert e == pytest.approx(0.1 * 0.25 * 6.0 * PI_SQ, rel=1e-13)

    def test_rejects_low_order(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        state = StateB(
            t=0.0,
            v=vector(grid2, zero, zero),
            psi=vector(grid2, zero, zero),
            M=const_m(grid2, (0.0, 0.0, 1.0)),
        )
        with pytest.raises(ValueError):
            self.global_pair(state, self.zero_rhs(state), nu=1.0, s=1, delta=0.1)

    def test_recomputes_from_component_norms(self, grid2: TorusGrid) -> None:
        rng = np.random.default_rng(12)
        v = div_free_vector(grid2, rng)
        psi = VectorField(grid2, 0.05 * random_band_limited(grid2, rng, ncomp=2, band=2))
        state = StateB(t=0.0, v=v, psi=psi, M=const_m(grid2, (0.0, 0.0, 1.0)))
        nu, s, delta = 0.8, 2, 0.05
        rhs = rhs_B(state, nu)
        e, d = self.global_pair(state, rhs, nu, s, delta)
        dv, dpsi = (VectorField(grid2, grid2.ifft(hat)) for hat in rhs.tendency_hats[:2])
        e_direct = (
            delta**2 * sobolev_norm_sq(state.v, s)
            + sobolev_norm_sq(state.M, s, 1)
            + delta * sobolev_norm_sq(state.psi, s, 1)
            + sobolev_norm_sq(dv, s - 2)
            + sobolev_norm_sq(dpsi, s - 2, 1)
        )
        d_direct = (
            0.5 * delta**2 * nu * sobolev_norm_sq(state.v, s, 1)
            + delta**2 * nu * sobolev_norm_sq(dpsi, s - 2, 1)
            + 2.0 * sobolev_norm_sq(state.M, s, 2)
            + delta / (2.0 * nu) * sobolev_norm_sq(state.psi, s, 1)
            + nu * sobolev_norm_sq(dv, s - 2, 1)
        )
        assert e == pytest.approx(e_direct, rel=1e-13)
        assert d == pytest.approx(d_direct, rel=1e-13)

    def test_delta_scaling_is_affine(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        state = StateB(
            t=0.0,
            v=vector(grid2, np.sin(grid2.x[1]), zero),
            psi=vector(grid2, 0.5 * np.sin(grid2.x[0]), zero),  # I + grad psi invertible
            M=const_m(grid2, (0.0, 0.0, 1.0)),
        )
        rhs = self.zero_rhs(state)
        nu, s = 1.0, 2
        values = {}
        for delta in (0.1, 0.2, 0.4):
            values[delta], _ = self.global_pair(state, rhs, nu, s, delta)
        v_sq = sobolev_norm_sq(state.v, s)
        gpsi = sobolev_norm_sq(state.psi, s, 1)
        gm = sobolev_norm_sq(state.M, s, 1)
        for delta, e in values.items():
            assert e == pytest.approx(delta**2 * v_sq + delta * gpsi + gm, rel=1e-13)


class TestConstraintBundle:
    def test_steady_state_residuals(self, grid2: TorusGrid) -> None:
        bundle = constraint_bundle(harmonic_state(grid2))
        assert bundle["sphere_res"] <= 1e-15  # cos^2 + sin^2 rounds at machine eps
        assert bundle["det_res"] == 0.0
        assert bundle["curl_res"] <= 1e-11
        assert bundle["div_v_res"] <= 1e-11
        assert bundle["trG_vs_divpsi_res"] == 0.0

    def test_uniform_steady_state_residuals_are_exact_zeros(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        state = StateA(
            t=0.0,
            v=vector(grid2, zero, zero),
            F=identity_matrix_field(grid2),
            M=const_m(grid2, (0.0, 0.0, 1.0)),
        )
        bundle = constraint_bundle(state)
        assert bundle["sphere_res"] == 0.0
        assert bundle["det_res"] == 0.0
        assert bundle["curl_res"] == 0.0
        assert bundle["div_v_res"] == 0.0

    def test_scaled_magnetization(self, grid2: TorusGrid) -> None:
        state = harmonic_state(grid2)
        scaled = StateA(
            t=0.0, v=state.v, F=state.F, M=VectorField(grid2, 1.01 * state.M.values)
        )
        assert constraint_bundle(scaled)["sphere_res"] == pytest.approx(0.01, abs=1e-12)

    def test_potential_state_structure_fields(self, grid2: TorusGrid) -> None:
        rng = np.random.default_rng(8)
        zero = np.zeros(grid2.shape)
        psi = VectorField(grid2, 0.05 * random_band_limited(grid2, rng, ncomp=2, band=2))
        state = StateB(
            t=0.0, v=vector(grid2, zero, zero), psi=psi, M=const_m(grid2, (0.0, 0.0, 1.0))
        )
        bundle = constraint_bundle(state)
        assert bundle["curl_res"] <= 1e-11
        assert bundle["trG_vs_divpsi_res"] <= 1e-13
        assert bundle["key_structure_ratio"] >= 0.0

    def test_near_singular_potential_is_reported_not_refused(self, grid2: TorusGrid) -> None:
        """det(I + grad psi) = 1 + 0.95 cos(x) dips to 0.05, below the
        determinant guard: the bundle reports it, while a record, which needs
        F = (I + grad psi)^{-1}, refuses the state."""
        zero = np.zeros(grid2.shape)
        state = StateB(
            t=0.0,
            v=vector(grid2, zero, zero),
            psi=vector(grid2, 0.95 * np.sin(grid2.x[0]), zero),
            M=const_m(grid2, (0.0, 0.0, 1.0)),
        )
        assert constraint_bundle(state)["det_res"] == pytest.approx(19.0, rel=1e-10)
        with pytest.raises(NearSingularError):
            diagnostic_record(state, PhysParams(), s=2, delta=0.1, rhs=rhs_B(state, 1.0))


class TestDiagnosticRecord:
    def test_header_matches_field_order(self) -> None:
        assert CSV_HEADER.split(",") == [
            "t",
            "e_basic",
            "e_s",
            "d_s",
            "e_global",
            "d_global",
            "dt_v_norm",
            "dt_psi_norm",
            "sphere_res",
            "det_res",
            "curl_res",
            "div_v_res",
            "trG_vs_divpsi_res",
        ]

    def test_row_has_17_significant_digits(self) -> None:
        record = DiagnosticRecord(
            t=1.0 / 3.0,
            e_basic=math.pi,
            e_s=0.0,
            d_s=0.0,
            e_global=0.0,
            d_global=0.0,
            dt_v_norm=0.0,
            dt_psi_norm=0.0,
            sphere_res=0.0,
            det_res=0.0,
            curl_res=0.0,
            div_v_res=0.0,
            trG_vs_divpsi_res=0.0,
        )
        row = record.to_csv_row()
        assert row.split(",")[0] == format(1.0 / 3.0, ".17g")
        assert float(row.split(",")[1]) == math.pi  # round trip is exact

    def test_assembles_for_both_formulations(self, grid2: TorusGrid) -> None:
        params = PhysParams(nu=1.0, kappa=0.0, h_ext=HExt())
        state_a = harmonic_state(grid2)
        rhs_a = rhs_A(state_a, params.nu, params.kappa, params.h_ext)
        rec_a = diagnostic_record(state_a, params, s=2, delta=0.1, rhs=rhs_a)
        assert rec_a.e_basic > 0.0
        assert rec_a.e_global == 0.0
        zero = np.zeros(grid2.shape)
        state_b = StateB(
            t=0.0,
            v=vector(grid2, zero, zero),
            psi=vector(grid2, zero, zero),
            M=const_m(grid2, (0.0, 0.0, 1.0)),
        )
        rec_b = diagnostic_record(state_b, params, s=2, delta=0.1, rhs=rhs_B(state_b, params.nu))
        assert rec_b.e_basic == pytest.approx(0.5 * 2.0 * (2 * math.pi) ** 2, rel=1e-13)

    @pytest.mark.parametrize("dim, formulation, record, bundle", [
        (2, "A", {"fwd": 4, "inv": 5}, {"fwd": 6, "inv": 5}),
        (2, "B", {"fwd": 8, "inv": 6}, {"fwd": 9, "inv": 10}),
        (3, "A", {"fwd": 9, "inv": 19}, {"fwd": 12, "inv": 19}),
        (3, "B", {"fwd": 18, "inv": 20}, {"fwd": 16, "inv": 29}),
    ])
    def test_record_and_bundle_transforms(self, dim: int, formulation: str,
                                          record: dict[str, int], bundle: dict[str, int],
                                          monkeypatch) -> None:
        """Scalar transforms of one record from a given evaluation, and of one
        constraint bundle. The record reads the evaluation's state and
        tendency hats, which are those of real fields, as they are; a B
        record takes G = grad psi, F = (I + G)^{-1} and det(I + G) from the
        evaluation's geometry, so it makes no jacobian of psi at all and
        transforms F only forward. The curl residual transforms back only the
        d^2 (d - 1) derivatives it compares."""
        grid = TorusGrid(dim=dim, n=16 if dim == 2 else 8)
        state = generate_initial_data(grid, "random_small", formulation, amplitude=1e-2, seed=5)
        params = PhysParams(nu=1.0)
        rhs = rhs_A(state, 1.0, 0.0, params.h_ext) if formulation == "A" else rhs_B(state, 1.0)
        counter = TransformCounter(monkeypatch, grid)
        diagnostic_record(state, params, 2, 0.1, rhs)
        assert counter.counts == record
        counter.counts.update(fwd=0, inv=0)
        constraint_bundle(state)
        assert counter.counts == bundle

    @pytest.mark.parametrize("formulation", ["A", "B"])
    @pytest.mark.parametrize("grid", [TorusGrid(dim=2, n=16), TorusGrid(dim=3, n=8)],
                             ids=lambda g: f"{g.dim}d_n{g.n}")
    def test_record_from_an_evaluation_equals_a_self_made_one(self, grid: TorusGrid,
                                                              formulation: str) -> None:
        """A record that reads an evaluation's state hats and, in B, its
        geometry equals, field by field and bit for bit, the record whose view
        transforms the state and makes G, F and det(I + G) itself."""
        state = generate_initial_data(grid, "random_small", formulation, amplitude=1e-2, seed=5)
        params = PhysParams(nu=0.9)
        rhs = rhs_A(state, params.nu) if formulation == "A" else rhs_B(state, params.nu)
        assert (rhs.geometry is None) == (formulation == "A")
        own = replace(rhs, state_hats=(), geometry=None)
        given, made = (diagnostic_record(replace(state, hats=None), params, 2, 0.1, r)
                       for r in (rhs, own))
        names = [f.name for f in dataclass_fields(DiagnosticRecord)]
        assert [getattr(given, n).hex() for n in names] == [getattr(made, n).hex() for n in names]

    @pytest.mark.parametrize("grid", [TorusGrid(dim=2, n=16), TorusGrid(dim=3, n=8)],
                             ids=lambda g: f"{g.dim}d_n{g.n}")
    def test_b_record_makes_no_jacobian_and_no_inverse(self, grid: TorusGrid,
                                                       monkeypatch) -> None:
        """A B record takes G = grad psi and F = (I + G)^{-1} from its
        evaluation: it calls neither jacobian_from_hat nor inverse_values,
        which the same record without the evaluation's geometry calls."""
        state = generate_initial_data(grid, "random_small", "B", amplitude=1e-2, seed=5)
        params = PhysParams(nu=1.0)
        rhs = rhs_B(state, params.nu)
        calls: list[str] = []

        def spy(module, name: str) -> None:
            original = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        for module in (spectral, fields, energetics):
            for name in ("jacobian_from_hat", "inverse_values"):
                if hasattr(module, name):
                    spy(module, name)
        diagnostic_record(state, params, 2, 0.1, rhs)
        assert calls == []
        diagnostic_record(state, params, 2, 0.1, replace(rhs, geometry=None))
        assert sorted(set(calls)) == ["inverse_values", "jacobian_from_hat"]


def test_an_A_record_is_bounded() -> None:
    """At 3D n = 16 one A diagnostic_record from a stepped state's evaluation
    allocates at most 2.1 times the state's value bytes (1.76), against 2.65
    when the curl residual transformed back a row's 6 derivatives at once."""
    grid = TorusGrid(dim=3, n=16)
    params = PhysParams(nu=1.0)
    state = step_A(generate_initial_data(grid, "random_small", "A", amplitude=1e-2, seed=5),
                   params, IntegratorConfig(dt=1e-3, t_end=1e-3))
    rhs = rhs_A(state, nu=params.nu)
    peak = traced_peak(lambda: diagnostic_record(state, params, 2, 0.25, rhs))
    assert peak <= 2.1 * value_bytes(state)
