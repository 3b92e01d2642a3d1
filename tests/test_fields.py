"""State containers, external-field profiles, and geometric residuals."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastomag.errors import ConstraintError, NearSingularError
from elastomag.fields import (
    F_to_G,
    G_to_F,
    HExt,
    PhysParams,
    StateA,
    StateB,
    curl_residual,
    det_field,
    grad_potential,
    identity_matrix_field,
    renormalize_M,
    sphere_residual,
    state_B_to_A,
)
from elastomag.spectral import MatrixField, TorusGrid, VectorField

from conftest import matrix, random_band_limited, vector
from oracles import curl_residual as full_jacobian_curl_residual

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _const_m(grid: TorusGrid, direction: tuple[float, float, float]) -> VectorField:
    vals = np.zeros((3,) + grid.shape)
    for c in range(3):
        vals[c] = direction[c]
    return VectorField(grid, vals)


class TestStates:
    def test_state_A_accepts_consistent_fields(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        state = StateA(
            t=0.0,
            v=vector(grid2, zero, zero),
            F=identity_matrix_field(grid2),
            M=_const_m(grid2, (0.0, 0.0, 1.0)),
        )
        assert state.grid is grid2

    def test_state_A_rejects_two_component_m(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        with pytest.raises(ValueError):
            StateA(
                t=0.0,
                v=vector(grid2, zero, zero),
                F=identity_matrix_field(grid2),
                M=vector(grid2, zero, zero),
            )

    def test_state_B_rejects_mixed_grids(self, grid2: TorusGrid, grid2_small: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        zero_small = np.zeros(grid2_small.shape)
        with pytest.raises(ValueError):
            StateB(
                t=0.0,
                v=vector(grid2, zero, zero),
                psi=vector(grid2_small, zero_small, zero_small),
                M=_const_m(grid2, (0.0, 0.0, 1.0)),
            )


class TestHExt:
    def test_zero_evaluates_to_none(self, grid2: TorusGrid) -> None:
        assert HExt().is_zero
        assert HExt().evaluate(grid2, 0.0) is None

    def test_uniform_field(self, grid2: TorusGrid) -> None:
        h = HExt(kind="uniform", vector=(0.5, 0.0, -1.0))
        values = h.evaluate(grid2, 1.0).values
        assert np.all(values[0] == 0.5)
        assert np.all(values[2] == -1.0)

    def test_single_mode_profile(self, grid2: TorusGrid) -> None:
        h = HExt(kind="single_mode", amplitude=0.3, wavevector=(1, 0), component=2, omega=2.0)
        t = 0.25
        values = h.evaluate(grid2, t).values
        exact = 0.3 * np.cos(grid2.x[0] - 2.0 * t)
        assert np.max(np.abs(values[2] - exact)) <= 1e-15
        assert np.all(values[0] == 0.0)

    def test_rejects_unknown_kind(self) -> None:
        with pytest.raises(ValueError):
            HExt(kind="quadratic")

    def test_phys_params_reject_nonpositive_nu(self) -> None:
        with pytest.raises(ValueError):
            PhysParams(nu=0.0)


class TestDeformationAlgebra:
    def test_shear_inverse(self, grid2: TorusGrid) -> None:
        F = matrix(grid2, [[1.0, 0.2], [0.0, 1.0]])
        G = F_to_G(F)
        exact = matrix(grid2, [[0.0, -0.2], [0.0, 0.0]])
        assert np.max(np.abs(G.values - exact.values)) <= 1e-15

    def test_unit_determinant_of_diagonal_stretch(self, grid2: TorusGrid) -> None:
        F = matrix(grid2, [[2.0, 0.0], [0.0, 0.5]])
        assert np.max(np.abs(det_field(F).values - 1.0)) <= 1e-15

    def test_near_singular_rejected(self, grid2: TorusGrid) -> None:
        F = matrix(grid2, [[0.01, 0.0], [0.0, 1.0]])
        with pytest.raises(NearSingularError):
            F_to_G(F)

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_F_to_G_and_back(self, seed: int) -> None:
        grid = TorusGrid(dim=2, n=8)
        rng = np.random.default_rng(seed)
        vals = np.zeros((2, 2) + grid.shape)
        for i in range(2):
            vals[i, i] = 1.0
        vals += 0.05 * random_band_limited(grid, rng, ncomp=4, band=2).reshape(
            (2, 2) + grid.shape
        )
        F = MatrixField(grid, vals)
        back = G_to_F(F_to_G(F))
        assert np.max(np.abs(back.values - F.values)) <= 1e-13

    def test_identity_maps_to_zero_G(self, grid2: TorusGrid) -> None:
        G = F_to_G(identity_matrix_field(grid2))
        assert np.max(np.abs(G.values)) == 0.0


class TestCurlResidual:
    def test_single_off_gradient_entry(self, grid2: TorusGrid) -> None:
        vals = np.zeros((2, 2) + grid2.shape)
        vals[0, 1] = np.sin(grid2.x[0])
        residual = curl_residual(MatrixField(grid2, vals))
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_gradient_rows_are_curl_free(self, grid2: TorusGrid) -> None:
        rng = np.random.default_rng(2)
        psi = VectorField(grid2, random_band_limited(grid2, rng, ncomp=2, band=3))
        assert curl_residual(grad_potential(psi)) <= 1e-12

    @pytest.mark.parametrize("gradient", [True, False], ids=["gradient", "non_gradient"])
    @pytest.mark.parametrize("grid", [TorusGrid(dim=2, n=16), TorusGrid(dim=3, n=8)],
                             ids=lambda g: f"{g.dim}d_n{g.n}")
    def test_matches_the_full_jacobian_bit_for_bit(self, grid: TorusGrid,
                                                   gradient: bool) -> None:
        """Transforming back only the derivatives d_i G^{jk} with i != k gives
        the float of the full d^3 jacobian, on G = grad psi and on a G with
        no gradient rows."""
        rng = np.random.default_rng(7)
        d = grid.dim
        if gradient:
            psi = VectorField(grid, random_band_limited(grid, rng, ncomp=d, band=3))
            G = grad_potential(psi)
        else:
            values = random_band_limited(grid, rng, ncomp=d * d, band=3)
            G = MatrixField(grid, values.reshape((d, d) + grid.shape))
        residual = curl_residual(G)
        assert residual.hex() == full_jacobian_curl_residual(G).hex()
        assert (residual <= 1e-12) == gradient

    def test_derivatives_are_made_one_row_at_a_time(self) -> None:
        """At 3D n = 16 the residual allocates at most 4 times G's values: its
        hat, and one row's 6 derivatives with their hats and the transform's
        copy (3.30 times; 5.65 when all 18 were made at once)."""
        grid = TorusGrid(dim=3, n=16)
        rng = np.random.default_rng(7)
        G = MatrixField(grid, random_band_limited(grid, rng, ncomp=9, band=3).reshape(
            (3, 3) + grid.shape))
        curl_residual(G)  # untraced: first-call allocations
        tracemalloc.start()
        try:
            curl_residual(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * G.values.nbytes


class TestSphereResidual:
    def test_stretched_constant(self, grid2: TorusGrid) -> None:
        M = _const_m(grid2, (0.0, 0.0, 1.1))
        assert sphere_residual(M) == pytest.approx(0.1, abs=1e-14)

    def test_unit_circle_profile(self, grid2: TorusGrid) -> None:
        vals = np.zeros((3,) + grid2.shape)
        vals[0] = np.cos(grid2.x[0])
        vals[1] = np.sin(grid2.x[0])
        assert sphere_residual(VectorField(grid2, vals)) <= 1e-15

    def test_renormalize_restores_unit_length(self, grid2: TorusGrid) -> None:
        vals = np.zeros((3,) + grid2.shape)
        vals[0] = np.cos(grid2.x[0])
        vals[1] = np.sin(grid2.x[0])
        vals[2] = 0.1
        M = renormalize_M(VectorField(grid2, vals))
        assert sphere_residual(M) <= 1e-15

    def test_renormalize_rejects_collapsed_length(self, grid2: TorusGrid) -> None:
        M = _const_m(grid2, (0.0, 0.0, 0.2))
        with pytest.raises(ConstraintError):
            renormalize_M(M)


class TestFormulationConversion:
    def test_zero_potential_gives_identity_F(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        state = StateB(
            t=0.5,
            v=vector(grid2, zero, zero),
            psi=vector(grid2, zero, zero),
            M=_const_m(grid2, (0.0, 0.0, 1.0)),
        )
        a_state = state_B_to_A(state)
        assert a_state.t == 0.5
        assert np.max(np.abs(a_state.F.values - identity_matrix_field(grid2).values)) <= 1e-15

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_round_trip_through_G(self, seed: int) -> None:
        grid = TorusGrid(dim=2, n=16)
        rng = np.random.default_rng(seed)
        psi = VectorField(grid, 0.05 * random_band_limited(grid, rng, ncomp=2, band=2))
        F = G_to_F(grad_potential(psi))
        G_back = F_to_G(F)
        assert np.max(np.abs(G_back.values - grad_potential(psi).values)) <= 1e-13
