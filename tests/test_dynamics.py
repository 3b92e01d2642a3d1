"""Right-hand-side terms against analytic values, and the fused kernels against the term oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastomag import dynamics, energetics, schemes, spectral
from elastomag.dynamics import rhs_A, rhs_B
from elastomag.fields import (
    G_to_F,
    HExt,
    identity_plus,
    inverse_values,
    PhysParams,
    StateA,
    StateB,
    grad_potential,
    identity_matrix_field,
    renormalize_M,
)
from elastomag.harness import generate_initial_data
from elastomag.schemes import picard_iterate
from elastomag.spectral import (
    MatrixField,
    TorusGrid,
    VectorField,
    divergence_values,
    jacobian_values,
    laplacian_values,
)
from elastomag.timestepper import IntegratorConfig, step_A, step_B

from conftest import (
    TransformCounter,
    div_free_vector,
    matrix,
    random_band_limited,
    traced_peak,
    value_bytes,
    vector,
)
from oracles import (
    deformation_rhs,
    elastic_stress_div,
    ericksen_stress_div,
    g_of_G,
    lagrange_multiplier,
    llg_rhs,
    momentum_rhs_A,
    momentum_rhs_B,
    psi_rhs,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def const_m(grid: TorusGrid, direction: tuple[float, float, float]) -> VectorField:
    vals = np.zeros((3,) + grid.shape)
    for c in range(3):
        vals[c] = direction[c]
    return VectorField(grid, vals)


def circle_m(grid: TorusGrid) -> VectorField:
    vals = np.zeros((3,) + grid.shape)
    vals[0] = np.cos(grid.x[0])
    vals[1] = np.sin(grid.x[0])
    return VectorField(grid, vals)


def smooth_unit_m(grid: TorusGrid, seed: int, amplitude: float = 0.1) -> VectorField:
    rng = np.random.default_rng(seed)
    vals = np.zeros((3,) + grid.shape)
    vals[2] = 1.0
    vals += amplitude * random_band_limited(grid, rng, ncomp=3, band=2)
    return renormalize_M(VectorField(grid, vals))


def grid_inner(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> float:
    return float(grid.cell_volume * np.sum(a * b))


class TestLagrangeMultiplier:
    def test_constant_m_no_field(self, grid2: TorusGrid) -> None:
        gamma = lagrange_multiplier(const_m(grid2, (0.0, 0.0, 1.0)))
        assert np.max(np.abs(gamma.values)) <= 1e-14

    def test_circle_profile_gives_one(self, grid2: TorusGrid) -> None:
        gamma = lagrange_multiplier(circle_m(grid2))
        assert np.max(np.abs(gamma.values - 1.0)) <= 1e-12

    def test_uniform_field_term(self, grid2: TorusGrid) -> None:
        h = 0.7
        gamma = lagrange_multiplier(
            const_m(grid2, (1.0, 0.0, 0.0)), HExt(kind="uniform", vector=(h, 0.0, 0.0))
        )
        assert np.max(np.abs(gamma.values + h)) <= 1e-14


class TestLlgRhs:
    def test_constant_unit_m_is_steady(self, grid2: TorusGrid) -> None:
        out = llg_rhs(None, const_m(grid2, (0.0, 0.0, 1.0)))
        assert np.max(np.abs(out.values)) <= 1e-13

    def test_circle_profile_is_steady(self, grid2: TorusGrid) -> None:
        out = llg_rhs(None, circle_m(grid2))
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_uniform_transverse_field(self, grid2: TorusGrid) -> None:
        h = 0.4
        out = llg_rhs(
            None,
            const_m(grid2, (1.0, 0.0, 0.0)),
            HExt(kind="uniform", vector=(0.0, 0.0, h)),
        )
        exact = np.zeros((3,) + grid2.shape)
        exact[1] = h
        exact[2] = h
        assert np.max(np.abs(out.values - exact)) <= 1e-13

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_tendency_orthogonal_to_unit_m_in_mean(self, seed: int) -> None:
        # great-circle profile: exactly unit length and band-limited, so the
        # orthogonality of the tendency to M survives discretization
        grid = TorusGrid(dim=2, n=16)
        u = grid.x[0] + 2.0 * grid.x[1]
        vals = np.zeros((3,) + grid.shape)
        vals[0] = np.cos(u)
        vals[1] = np.sin(u)
        m = VectorField(grid, vals)
        v = div_free_vector(grid, np.random.default_rng(seed + 1))
        out = llg_rhs(v, m, dealias=False)
        integral = grid_inner(grid, m.values, out.values)
        scale = max(1.0, abs(grid_inner(grid, out.values, out.values)))
        assert abs(integral) <= 1e-10 * scale


class TestStressDivergences:
    def test_ericksen_constant_m(self, grid2: TorusGrid) -> None:
        out = ericksen_stress_div(const_m(grid2, (0.0, 0.0, 1.0)))
        assert np.max(np.abs(out.values)) <= 1e-14

    def test_ericksen_circle_profile(self, grid2: TorusGrid) -> None:
        out = ericksen_stress_div(circle_m(grid2))
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_ericksen_modulated_phase(self) -> None:
        grid = TorusGrid(dim=2, n=32)
        x = grid.x[0]
        f = x + 0.1 * np.sin(x)
        vals = np.zeros((3,) + grid.shape)
        vals[0] = np.cos(f)
        vals[1] = np.sin(f)
        out = ericksen_stress_div(VectorField(grid, vals))
        fp = 1.0 + 0.1 * np.cos(x)
        fpp = -0.1 * np.sin(x)
        assert np.max(np.abs(out.values[0] - 2.0 * fp * fpp)) <= 1e-12
        assert np.max(np.abs(out.values[1])) <= 1e-12

    def test_elastic_identity_and_constant(self, grid2: TorusGrid) -> None:
        assert np.max(np.abs(elastic_stress_div(identity_matrix_field(grid2)).values)) <= 1e-14
        F = matrix(grid2, [[1.3, 0.2], [0.1, 0.9]])
        assert np.max(np.abs(elastic_stress_div(F).values)) <= 1e-13

    def test_elastic_sinusoidal_perturbation(self, grid2: TorusGrid) -> None:
        eps = 0.01
        x = grid2.x[0]
        vals = identity_matrix_field(grid2).values.copy()
        vals[0, 0] += eps * np.sin(x)
        out = elastic_stress_div(MatrixField(grid2, vals))
        exact = 2.0 * eps * np.cos(x) * (1.0 + eps * np.sin(x))
        assert np.max(np.abs(out.values[0] - exact)) <= 1e-13
        assert np.max(np.abs(out.values[1])) <= 1e-13


class TestMomentumA:
    def test_uniform_steady_state(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        out = momentum_rhs_A(
            vector(grid2, zero, zero),
            identity_matrix_field(grid2),
            const_m(grid2, (0.0, 0.0, 1.0)),
        )
        assert np.max(np.abs(out.values)) <= 1e-13

    def test_circle_profile_steady_state(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        out = momentum_rhs_A(
            vector(grid2, zero, zero), identity_matrix_field(grid2), circle_m(grid2)
        )
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_shear_flow_reduces_to_viscosity(self, grid2: TorusGrid) -> None:
        nu = 0.7
        v = vector(grid2, np.sin(grid2.x[1]), np.zeros(grid2.shape))
        out = momentum_rhs_A(
            v, identity_matrix_field(grid2), const_m(grid2, (0.0, 0.0, 1.0)), nu=nu
        )
        assert np.max(np.abs(out.values[0] + nu * np.sin(grid2.x[1]))) <= 1e-12
        assert np.max(np.abs(out.values[1])) <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_output_is_divergence_free(self, seed: int) -> None:
        grid = TorusGrid(dim=2, n=16)
        rng = np.random.default_rng(seed)
        v = div_free_vector(grid, rng)
        fvals = identity_matrix_field(grid).values + 0.1 * random_band_limited(
            grid, rng, ncomp=4, band=2
        ).reshape((2, 2) + grid.shape)
        out = momentum_rhs_A(v, MatrixField(grid, fvals), smooth_unit_m(grid, seed))
        assert np.max(np.abs(divergence_values(grid, out.values))) <= 1e-11


class TestDeformation:
    def test_zero_velocity_zero_kappa(self, grid2: TorusGrid) -> None:
        F = matrix(grid2, [[1.0, 0.3], [0.0, 1.0]])
        zero = np.zeros(grid2.shape)
        out = deformation_rhs(vector(grid2, zero, zero), F)
        assert np.max(np.abs(out.values)) <= 1e-14

    def test_shear_flow_gradient(self, grid2: TorusGrid) -> None:
        v = vector(grid2, np.sin(grid2.x[1]), np.zeros(grid2.shape))
        out = deformation_rhs(v, identity_matrix_field(grid2))
        assert np.max(np.abs(out.values[0, 1] - np.cos(grid2.x[1]))) <= 1e-12
        for i, j in ((0, 0), (1, 0), (1, 1)):
            assert np.max(np.abs(out.values[i, j])) <= 1e-12

    def test_identity_is_steady_under_diffusion(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        out = deformation_rhs(vector(grid2, zero, zero), identity_matrix_field(grid2), kappa=0.1)
        assert np.max(np.abs(out.values)) <= 1e-14


class TestGofG:
    def test_zero_input(self, grid2: TorusGrid) -> None:
        G = matrix(grid2, [[0.0, 0.0], [0.0, 0.0]])
        assert np.max(np.abs(g_of_G(G).values)) <= 1e-15

    def test_diagonal_closed_form(self, grid2: TorusGrid) -> None:
        G = matrix(grid2, [[0.1, 0.0], [0.0, 0.0]])
        out = g_of_G(G)
        exact_00 = 1.0 / 1.21 - 1.0 + 0.2
        assert np.max(np.abs(out.values[0, 0] - exact_00)) <= 1e-15
        for i, j in ((0, 1), (1, 0), (1, 1)):
            assert np.max(np.abs(out.values[i, j])) <= 1e-15

    def test_quadratic_small_amplitude_scaling(self, grid2: TorusGrid) -> None:
        rng = np.random.default_rng(9)
        base = random_band_limited(grid2, rng, ncomp=4, band=2).reshape((2, 2) + grid2.shape)
        ratios = []
        for tau in (1e-2, 1e-3):
            G = MatrixField(grid2, tau * base)
            ratios.append(float(np.max(np.abs(g_of_G(G).values))) / tau**2)
        assert ratios[1] == pytest.approx(ratios[0], rel=0.05)


class TestMomentumB:
    def test_rest_state(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        out = momentum_rhs_B(
            vector(grid2, zero, zero),
            vector(grid2, zero, zero),
            const_m(grid2, (0.0, 0.0, 1.0)),
        )
        assert np.max(np.abs(out.values)) <= 1e-13

    def test_zero_potential_matches_viscous_decay(self, grid2: TorusGrid) -> None:
        nu = 1.3
        zero = np.zeros(grid2.shape)
        v = vector(grid2, np.sin(grid2.x[1]), zero)
        out = momentum_rhs_B(v, vector(grid2, zero, zero), const_m(grid2, (0.0, 0.0, 1.0)), nu=nu)
        assert np.max(np.abs(out.values[0] + nu * np.sin(grid2.x[1]))) <= 1e-12
        assert np.max(np.abs(out.values[1])) <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_matches_primitive_formulation_on_converted_state(self, seed: int) -> None:
        grid = TorusGrid(dim=2, n=16)
        rng = np.random.default_rng(seed)
        v = div_free_vector(grid, rng)
        vv = VectorField(grid, 0.02 * v.values)
        psi = VectorField(grid, 0.02 * random_band_limited(grid, rng, ncomp=2, band=2))
        m = smooth_unit_m(grid, seed, amplitude=0.02)
        F = G_to_F(grad_potential(psi))
        out_b = momentum_rhs_B(vv, psi, m, nu=0.8)
        out_a = momentum_rhs_A(vv, F, m, nu=0.8)
        assert np.max(np.abs(out_b.values - out_a.values)) <= 1e-10


class TestPsiRhs:
    def test_zero_velocity(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        psi = vector(grid2, np.sin(grid2.x[0]), zero)
        out = psi_rhs(vector(grid2, zero, zero), psi)
        assert np.max(np.abs(out.values)) <= 1e-14

    def test_zero_potential_returns_minus_v(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        v = vector(grid2, np.sin(grid2.x[1]), zero)
        out = psi_rhs(v, vector(grid2, zero, zero))
        assert np.max(np.abs(out.values + v.values)) <= 1e-13

    def test_transport_product(self, grid2: TorusGrid) -> None:
        zero = np.zeros(grid2.shape)
        v = vector(grid2, np.sin(grid2.x[1]), zero)
        psi = vector(grid2, np.sin(grid2.x[0]), zero)
        out = psi_rhs(v, psi)
        exact = -np.sin(grid2.x[1]) - np.sin(grid2.x[1]) * np.cos(grid2.x[0])
        assert np.max(np.abs(out.values[0] - exact)) <= 1e-12
        assert np.max(np.abs(out.values[1])) <= 1e-13


class TestDiscreteCancellations:
    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_magnetic_stress_balances_transport(self, seed: int) -> None:
        # band-limited M keeps every pointwise product alias-free at this n,
        # so the discrete duality between the stress divergence and the
        # transport term is exact to rounding
        grid = TorusGrid(dim=2, n=16)
        rng = np.random.default_rng(seed)
        v = div_free_vector(grid, rng)
        mvals = np.zeros((3,) + grid.shape)
        mvals[2] = 1.0
        mvals += 0.3 * random_band_limited(grid, rng, ncomp=3, band=2)
        m = VectorField(grid, mvals)
        stress = ericksen_stress_div(m, dealias=False)
        ip1 = grid_inner(grid, stress.values, v.values)
        jac_m = jacobian_values(grid, m.values)
        adv = np.einsum("a...,ka...->k...", v.values, jac_m)
        lap = laplacian_values(grid, m.values)
        ip2 = grid_inner(grid, adv, lap)
        scale = max(abs(ip1), abs(ip2), 1.0)
        assert abs(ip1 - ip2) <= 1e-10 * scale

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_elastic_stress_balances_stretching(self, seed: int) -> None:
        grid = TorusGrid(dim=2, n=16)
        rng = np.random.default_rng(seed)
        v = div_free_vector(grid, rng)
        fvals = identity_matrix_field(grid).values + 0.2 * random_band_limited(
            grid, rng, ncomp=4, band=2
        ).reshape((2, 2) + grid.shape)
        F = MatrixField(grid, fvals)
        stress = elastic_stress_div(F, dealias=False)
        ip1 = grid_inner(grid, stress.values, v.values)
        jac_v = jacobian_values(grid, v.values)
        stretch = np.einsum("ik...,kj...->ij...", jac_v, F.values)
        ip2 = grid_inner(grid, stretch, F.values)
        scale = max(abs(ip1), abs(ip2), 1.0)
        assert abs(ip1 + ip2) <= 1e-10 * scale


class TestFusedTendencies:
    def test_primitive_bundle_matches_term_by_term(self, grid2: TorusGrid) -> None:
        rng = np.random.default_rng(21)
        v = div_free_vector(grid2, rng)
        fvals = identity_matrix_field(grid2).values + 0.1 * random_band_limited(
            grid2, rng, ncomp=4, band=2
        ).reshape((2, 2) + grid2.shape)
        state = StateA(
            t=0.0, v=v, F=MatrixField(grid2, fvals), M=smooth_unit_m(grid2, 3)
        )
        nu, kappa = 0.9, 0.05
        out_dv, out_dF, out_dM = (grid2.ifft(hat) for hat in rhs_A(state, nu, kappa).tendency_hats)
        dv = momentum_rhs_A(state.v, state.F, state.M, nu=nu)
        dF = deformation_rhs(state.v, state.F, kappa=kappa)
        dM = llg_rhs(state.v, state.M)
        assert np.max(np.abs(out_dv - dv.values)) <= 1e-12
        assert np.max(np.abs(out_dF - dF.values)) <= 1e-12
        assert np.max(np.abs(out_dM - dM.values)) <= 1e-12
        assert np.max(np.abs(divergence_values(grid2, out_dv))) <= 1e-11

    def test_potential_bundle_matches_term_by_term(self, grid2: TorusGrid) -> None:
        rng = np.random.default_rng(22)
        v = div_free_vector(grid2, rng)
        psi = VectorField(grid2, 0.05 * random_band_limited(grid2, rng, ncomp=2, band=2))
        state = StateB(t=0.0, v=v, psi=psi, M=smooth_unit_m(grid2, 5))
        nu = 1.1
        out_dv, out_dpsi, out_dM = (grid2.ifft(hat) for hat in rhs_B(state, nu).tendency_hats)
        dv = momentum_rhs_B(state.v, state.psi, state.M, nu=nu)
        dpsi = psi_rhs(state.v, state.psi)
        dM = llg_rhs(state.v, state.M)
        assert np.max(np.abs(out_dv - dv.values)) <= 1e-12
        assert np.max(np.abs(out_dpsi - dpsi.values)) <= 1e-12
        assert np.max(np.abs(out_dM - dM.values)) <= 1e-12

    def test_bundles_match_term_by_term_without_dealiasing(self, grid2: TorusGrid) -> None:
        """With dealiasing off the Nyquist modes take part: the kernels, which
        stay on hats, and the oracle, which passes through grid values, still
        agree, since odd derivatives and the Leray projection keep real fields
        real there."""
        rng = np.random.default_rng(21)
        v = div_free_vector(grid2, rng)
        fvals = identity_matrix_field(grid2).values + 0.1 * random_band_limited(
            grid2, rng, ncomp=4, band=2
        ).reshape((2, 2) + grid2.shape)
        state_a = StateA(t=0.0, v=v, F=MatrixField(grid2, fvals), M=smooth_unit_m(grid2, 3))
        psi = VectorField(grid2, 0.05 * random_band_limited(grid2, rng, ncomp=2, band=2))
        state_b = StateB(t=0.0, v=v, psi=psi, M=smooth_unit_m(grid2, 5))
        pairs = [
            (rhs_A(state_a, 0.9, 0.05, dealias=False),
             (momentum_rhs_A(v, state_a.F, state_a.M, nu=0.9, dealias=False),
              deformation_rhs(v, state_a.F, kappa=0.05, dealias=False),
              llg_rhs(v, state_a.M, dealias=False))),
            (rhs_B(state_b, 1.1, dealias=False),
             (momentum_rhs_B(v, psi, state_b.M, nu=1.1, dealias=False),
              psi_rhs(v, psi, dealias=False), llg_rhs(v, state_b.M, dealias=False))),
        ]
        for rhs, oracle in pairs:
            for hat, expected in zip(rhs.tendency_hats, oracle, strict=True):
                assert np.max(np.abs(grid2.ifft(hat) - expected.values)) <= 1e-12


    @pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "no_dealias"])
    def test_primitive_bundle_matches_term_by_term_3d(self, dealias: bool) -> None:
        """In 3D too; at n = 12 every product of the band-2 v and F is resolved,
        so the flux form of dF and the advective oracle agree to rounding."""
        grid = TorusGrid(dim=3, n=12)
        rng = np.random.default_rng(23)
        v = div_free_vector(grid, rng)
        fvals = identity_matrix_field(grid).values + 0.1 * random_band_limited(
            grid, rng, ncomp=9, band=2
        ).reshape((3, 3) + grid.shape)
        state = StateA(t=0.0, v=v, F=MatrixField(grid, fvals), M=smooth_unit_m(grid, 3))
        oracle = (momentum_rhs_A(v, state.F, state.M, nu=0.9, dealias=dealias),
                  deformation_rhs(v, state.F, kappa=0.05, dealias=dealias),
                  llg_rhs(v, state.M, dealias=dealias))
        rhs = rhs_A(state, 0.9, 0.05, dealias=dealias)
        for hat, expected in zip(rhs.tendency_hats, oracle, strict=True):
            assert np.max(np.abs(grid.ifft(hat) - expected.values)) <= 1e-12

    @pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "no_dealias"])
    def test_potential_bundle_matches_term_by_term_3d(self, dealias: bool) -> None:
        """B in 3D; at n = 12 every product of the band-2 v is resolved, so the
        divergence form of the advection and the convective oracle agree to
        rounding."""
        grid = TorusGrid(dim=3, n=12)
        rng = np.random.default_rng(24)
        v = div_free_vector(grid, rng)
        psi = VectorField(grid, 0.05 * random_band_limited(grid, rng, ncomp=3, band=2))
        state = StateB(t=0.0, v=v, psi=psi, M=smooth_unit_m(grid, 5))
        oracle = (momentum_rhs_B(v, psi, state.M, nu=1.1, dealias=dealias),
                  psi_rhs(v, psi, dealias=dealias), llg_rhs(v, state.M, dealias=dealias))
        rhs = rhs_B(state, 1.1, dealias=dealias)
        for hat, expected in zip(rhs.tendency_hats, oracle, strict=True):
            assert np.max(np.abs(grid.ifft(hat) - expected.values)) <= 1e-12

    @pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "no_dealias"])
    def test_deformation_matches_where_columns_diverge(self, dealias: bool) -> None:
        """random_small's F = (I + grad psi)^{-1} has |d_k F_kj| above 1e-2, so
        the flux form meets the advective oracle only with its correction
        -v_i d_k F_kj, which is about 8e-5 here."""
        grid = TorusGrid(dim=2, n=32)
        state = generate_initial_data(grid, "random_small", "A", amplitude=1e-2, seed=5)
        col_div = divergence_values(grid, np.swapaxes(state.F.values, 0, 1))
        assert np.max(np.abs(col_div)) > 1e-2
        out = grid.ifft(rhs_A(state, 1.0, dealias=dealias).tendency_hats[1])
        expected = deformation_rhs(state.v, state.F, dealias=dealias).values
        assert np.max(np.abs(out - expected)) <= 1e-12


@pytest.mark.parametrize("grid", [TorusGrid(dim=2, n=16), TorusGrid(dim=3, n=8)],
                         ids=lambda g: f"{g.dim}d_n{g.n}")
def test_mirrored_stress_hats_are_the_full_transform_in_A(grid: TorusGrid) -> None:
    """A's total stress F F^T - grad M (.) grad M - v (x) v, the advection taken
    in divergence form, is symmetric bit for bit, so the momentum hat made from
    its entries i <= j is, bit for bit, (div S)_i = sum_j i k_j Shat^{ji} of the
    full d^2 transform Shat = fft(S) * mask."""
    state = generate_initial_data(grid, "random_small", "A", amplitude=1e-2, seed=5)
    v, f, m = (x.values for x in state.fields)
    jac_m = jacobian_values(grid, m)
    stress = np.einsum("ik...,jk...->ij...", f, f) - np.einsum("ki...,kj...->ij...", jac_m, jac_m)
    stress -= np.einsum("i...,j...->ij...", v, v)
    stress_hat = grid.fft(stress) * grid.dealias_mask
    expected = np.einsum("j...,ji...->i...", grid.ik, stress_hat)
    assert np.array_equal(rhs_A(state, nu=1.0).stage1_hats[0], expected)


@pytest.mark.parametrize("call", ["rhs_A", "rhs_B", "step_A", "step_B", "picard"])
@pytest.mark.parametrize("grid", [TorusGrid(dim=2, n=16), TorusGrid(dim=3, n=8)],
                         ids=lambda g: f"{g.dim}d_n{g.n}")
def test_no_kernel_makes_a_jacobian_of_v(grid: TorusGrid, call: str, monkeypatch) -> None:
    """-v.grad v is taken as -div(v (x) v), so no evaluation, step or Picard
    node hands a velocity's hat to jacobian_from_hat. Every velocity hat is
    divergence-free (Leray-projected), and no other vector hat of this data
    is, so that is how a velocity's hat is told apart."""
    formulation = "B" if call.endswith("B") else "A"
    variant = "flow_map_F" if call == "picard" else "random_small"
    state = generate_initial_data(grid, variant, formulation, amplitude=1e-2, seed=5)
    params, cfg = PhysParams(nu=1.0), IntegratorConfig(dt=1e-3, t_end=2e-3)

    def is_velocity(hat: np.ndarray) -> bool:
        if hat.shape != (grid.dim,) + grid.hat_shape:
            return False
        div = np.einsum("i...,i...->...", grid.ik, hat)
        return bool(np.max(np.abs(div)) <= 1e-10 * np.max(np.abs(hat)))

    assert is_velocity(grid.fft(state.v.values))
    assert not is_velocity(grid.fft(state.fields[2].values))
    hats = []
    jacobian = spectral.jacobian_from_hat

    def spy(grid_: TorusGrid, hat: np.ndarray) -> np.ndarray:
        hats.append(hat)
        return jacobian(grid_, hat)

    for module in (spectral, dynamics, energetics, schemes):
        monkeypatch.setattr(module, "jacobian_from_hat", spy)
    calls = {
        "rhs_A": lambda: rhs_A(state, params.nu),
        "rhs_B": lambda: rhs_B(state, params.nu),
        "step_A": lambda: step_A(state, params, cfg),
        "step_B": lambda: step_B(state, params, cfg),
        "picard": lambda: picard_iterate(state, params, 2, cfg, 2),
    }
    calls[call]()
    assert hats
    assert not any(is_velocity(hat) for hat in hats)


@pytest.mark.parametrize("formulation", ["A", "B"])
@pytest.mark.parametrize("grid", [TorusGrid(dim=2, n=16), TorusGrid(dim=3, n=8)],
                         ids=lambda g: f"{g.dim}d_n{g.n}")
def test_evaluation_adds_no_inverse_transforms(grid: TorusGrid, formulation: str,
                                               monkeypatch) -> None:
    """rhs_A/rhs_B hand over hats: no inverse transform beyond the kernel's own."""
    state = generate_initial_data(grid, "random_small", formulation, amplitude=1e-2, seed=5)
    calls = TransformCounter(monkeypatch, grid).calls
    mask = grid.dealias_mask
    if formulation == "A":
        values = (state.v.values, state.F.values, state.M.values)
        hats = tuple(grid.fft(x) for x in values)
        dynamics._tendency_hats_A(grid, *values, None, mask, hats)
        kernel_calls = calls["inv"]
        rhs_A(state, nu=0.9, kappa=0.1)
    else:
        values = (state.v.values, state.psi.values, state.M.values)
        hats = tuple(grid.fft(x) for x in values)
        dynamics._tendency_hats_B(grid, *values, None, mask, hats)
        kernel_calls = calls["inv"]
        rhs_B(state, nu=0.9)
    assert kernel_calls > 0
    assert calls["inv"] - kernel_calls == kernel_calls


@pytest.mark.parametrize("dim", [2, 3])
def test_upper_outer_is_the_einsum_it_replaces(dim: int) -> None:
    """_upper_outer sums k in einsum's order: its entries i <= j equal, bit for
    bit, those of np.einsum for F F^T, (I+G)^{-1} (I+G)^{-T} and
    grad M (.) grad M on random data, where another order rounds differently.
    A NumPy whose einsum sums in another order fails here before it moves a
    golden byte. The data tells the orders apart: summed in reverse, every
    product of three terms differs somewhere. _magnetic_stress and _stress_A,
    which A's kernel and Picard's velocity hand to _momentum_hat, equal the
    einsums they replace too."""
    grid = TorusGrid(dim=dim, n=8)
    rng = np.random.default_rng(11)
    rows, cols = np.triu_indices(dim)
    f = rng.standard_normal((dim, dim) + grid.shape)
    g = 0.1 * rng.standard_normal((dim, dim) + grid.shape)
    mat, det = identity_plus(grid, g)
    b = inverse_values(grid, mat, "test", det)
    jac_m = jacobian_values(grid, rng.standard_normal((3,) + grid.shape))
    cases = {
        "F F^T": (f, np.einsum("ik...,jk...->ij...", f, f)),
        "(I+G)^-1 (I+G)^-T": (b, np.einsum("ik...,jk...->ij...", b, b)),
        "grad M (.) grad M": (np.swapaxes(jac_m, 0, 1),
                              np.einsum("ki...,kj...->ij...", jac_m, jac_m)),
    }
    for name, (a, full) in cases.items():
        upper = dynamics._upper_outer(a)
        assert upper.shape == (len(rows),) + grid.shape, name
        assert np.array_equal(upper, full[rows, cols]), name
        if a.shape[1] > 2:  # two terms sum alike in either order
            reversed_sum = sum(a[rows, k] * a[cols, k] for k in reversed(range(a.shape[1])))
            assert not np.array_equal(upper, reversed_sum), name
    grad_m_sq = cases["grad M (.) grad M"][1]
    assert np.array_equal(dynamics._magnetic_stress(jac_m), grad_m_sq[rows, cols])
    stress = cases["F F^T"][1] - grad_m_sq
    assert np.array_equal(dynamics._stress_A(f, jac_m), stress[rows, cols])


@pytest.mark.parametrize("formulation, bound", [("A", 2.3), ("B", 5.0)])
def test_kernel_temporaries_are_bounded(formulation: str, bound: float) -> None:
    """At 3D n = 16 one kernel call from a stepped state's values and hats
    allocates at most `bound` times the state's value bytes: 2.00 in A and
    4.49 in B, against 2.83 and 6.78 when the stress was made on all d^2
    entries, the deformation's correction and flux whole, and B held M's
    jacobian and the full stress through its momentum."""
    grid = TorusGrid(dim=3, n=16)
    params, cfg = PhysParams(nu=1.0), IntegratorConfig(dt=1e-3, t_end=1e-3)
    stepper, kernel = {"A": (step_A, dynamics._tendency_hats_A),
                       "B": (step_B, dynamics._tendency_hats_B)}[formulation]
    state = stepper(generate_initial_data(grid, "random_small", formulation, amplitude=1e-2,
                                          seed=5), params, cfg)
    values = (state.v.values, state.F.values if formulation == "A" else None, state.M.values)
    peak = traced_peak(lambda: kernel(grid, *values, None, grid.dealias_mask, state.hats))
    assert peak <= bound * value_bytes(state)
