"""Grid, derivative, projection, truncation, and norm operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastomag.energetics import sobolev_norm_sq
from elastomag.spectral import (
    ScalarField,
    TorusGrid,
    VectorField,
    divergence_values,
    l2_norm_sq_values,
    laplacian_values,
    leray_hat,
)

from conftest import (
    dealiased,
    div_free_vector,
    leray,
    random_band_limited,
    scalar,
    truncate,
    vector,
)
from oracles import deriv_values, inverse_laplacian_values

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestTorusGrid:
    def test_rejects_bad_dim(self) -> None:
        with pytest.raises(ValueError):
            TorusGrid(dim=4, n=8)

    def test_rejects_odd_n(self) -> None:
        with pytest.raises(ValueError):
            TorusGrid(dim=2, n=9)

    def test_coordinates_span_torus(self, grid2: TorusGrid) -> None:
        assert grid2.x.shape == (2, 16, 16)
        assert grid2.x[0].min() == 0.0
        assert np.isclose(grid2.x[0].max(), 2.0 * np.pi - grid2.spacing)

    def test_volume(self, grid2: TorusGrid, grid3: TorusGrid) -> None:
        assert np.isclose(grid2.volume, (2.0 * np.pi) ** 2)
        assert np.isclose(grid3.volume, (2.0 * np.pi) ** 3)

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 16), (3, 8)])
    def test_round_trip_identity(self, dim: int, n: int) -> None:
        grid = TorusGrid(dim=dim, n=n)
        rng = np.random.default_rng(0)
        values = rng.standard_normal(grid.shape)
        back = grid.ifft(grid.fft(values))
        assert np.max(np.abs(back - values)) <= 1e-13 * max(1.0, np.max(np.abs(values)))


class TestDerivative:
    def test_sin_x_to_cos_x(self, grid2: TorusGrid) -> None:
        f = scalar(grid2, np.sin(grid2.x[0]))
        df = deriv_values(grid2, f.values, (1, 0))
        assert np.max(np.abs(df - np.cos(grid2.x[0]))) <= 1e-12

    def test_mixed_second_derivative(self, grid2: TorusGrid) -> None:
        f = scalar(grid2, np.sin(grid2.x[0]) * np.sin(grid2.x[1]))
        df = deriv_values(grid2, f.values, (1, 1))
        exact = np.cos(grid2.x[0]) * np.cos(grid2.x[1])
        assert np.max(np.abs(df - exact)) <= 1e-12

    def test_constant_has_zero_derivative(self, grid2: TorusGrid) -> None:
        f = scalar(grid2, np.full(grid2.shape, 3.5))
        df = deriv_values(grid2, f.values, (1, 0))
        assert np.max(np.abs(df)) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_wrong_multiindex_length(self, grid2: TorusGrid) -> None:
        f = scalar(grid2, np.sin(grid2.x[0]))
        with pytest.raises(ValueError):
            deriv_values(grid2, f.values, (1,))

    def test_commutes_with_truncation(self, grid2: TorusGrid) -> None:
        # multipliers chained on one transform, with no round trip between them
        rng = np.random.default_rng(7)
        hat = grid2.fft(rng.standard_normal(grid2.shape))
        ball = grid2.k_sq <= 3.0 * 3.0
        dx = 1j * grid2.k[0]
        a = grid2.ifft(hat * dx * ball)
        b = grid2.ifft(hat * ball * dx)
        assert np.array_equal(a, b)


class TestLaplacian:
    def test_sin_x(self, grid2: TorusGrid) -> None:
        f = scalar(grid2, np.sin(grid2.x[0]))
        assert np.max(np.abs(laplacian_values(grid2, f.values) + np.sin(grid2.x[0]))) <= 1e-12

    def test_inverse_recovers_sin_x(self, grid2: TorusGrid) -> None:
        f = scalar(grid2, -np.sin(grid2.x[0]))
        g = inverse_laplacian_values(grid2, f.values)
        assert np.max(np.abs(g - np.sin(grid2.x[0]))) <= 1e-12

    def test_inverse_then_laplacian_round_trip(self, grid2: TorusGrid) -> None:
        rng = np.random.default_rng(3)
        values = rng.standard_normal(grid2.shape)
        values -= values.mean()
        f = scalar(grid2, values)
        back = laplacian_values(grid2, inverse_laplacian_values(grid2, f.values))
        assert np.max(np.abs(back - values)) <= 1e-11


class TestLeray:
    def test_annihilates_gradient(self, grid2: TorusGrid) -> None:
        u = vector(grid2, -np.sin(grid2.x[0]), np.zeros(grid2.shape))
        p = leray(grid2, u.values)
        assert np.max(np.abs(p)) <= 1e-12

    def test_keeps_divergence_free_field(self, grid2: TorusGrid) -> None:
        u = vector(grid2, np.sin(grid2.x[1]), np.zeros(grid2.shape))
        p = leray(grid2, u.values)
        assert np.max(np.abs(p - u.values)) <= 1e-12

    def test_removes_compressive_part(self, grid2: TorusGrid) -> None:
        u = vector(grid2, np.sin(grid2.x[0]), np.zeros(grid2.shape))
        p = leray(grid2, u.values)
        assert np.max(np.abs(p)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_idempotent_and_divergence_free(self, seed: int) -> None:
        grid = TorusGrid(dim=2, n=16)
        rng = np.random.default_rng(seed)
        u = VectorField(grid, random_band_limited(grid, rng, ncomp=2, band=4))
        once = leray(grid, u.values)
        twice = leray(grid, once)
        assert np.max(np.abs(twice - once)) <= 1e-12
        assert np.max(np.abs(divergence_values(grid, once))) <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_gradients_map_to_zero(self, seed: int) -> None:
        grid = TorusGrid(dim=2, n=16)
        rng = np.random.default_rng(seed)
        p = scalar(grid, random_band_limited(grid, rng, band=4))
        gx = deriv_values(grid, p.values, (1, 0))
        gy = deriv_values(grid, p.values, (0, 1))
        proj = leray(grid, np.stack([gx, gy]))
        scale = max(1.0, float(np.max(np.abs(np.stack([gx, gy])))))
        assert np.max(np.abs(proj)) <= 1e-12 * scale

    @pytest.mark.parametrize("dim", [2, 3])
    def test_keeps_real_fields_real_with_the_derivatives(self, dim: int) -> None:
        """The projection and the derivative multipliers map the hat of a real
        field to the hat of a real field, Nyquist modes included, so a round
        trip through the grid changes their output by rounding only."""
        grid = TorusGrid(dim=dim, n=8)
        hat = grid.fft(np.random.default_rng(1).standard_normal((dim,) + grid.shape))
        for out in (leray_hat(grid, hat), *(hat * ik for ik in grid.ik)):
            back = grid.fft(grid.ifft(out))
            assert np.max(np.abs(back - out)) <= 1e-13 * np.max(np.abs(out))


class TestTruncation:
    def test_drops_high_mode(self, grid2: TorusGrid) -> None:
        f = scalar(grid2, np.sin(3.0 * grid2.x[0]))
        assert np.max(np.abs(truncate(grid2, f.values, 2.0))) <= 1e-13

    def test_keeps_low_mode(self, grid2: TorusGrid) -> None:
        f = scalar(grid2, np.sin(grid2.x[0]) + np.sin(3.0 * grid2.x[0]))
        out = truncate(grid2, f.values, 2.0)
        assert np.max(np.abs(out - np.sin(grid2.x[0]))) <= 1e-13

    def test_idempotent_bit_exact(self, grid2: TorusGrid) -> None:
        # the mask applied twice to one transform, with no round trip between
        rng = np.random.default_rng(11)
        hat = grid2.fft(rng.standard_normal(grid2.shape))
        ball = grid2.k_sq <= 4.0 * 4.0
        once = grid2.ifft(hat * ball)
        twice = grid2.ifft(hat * ball * ball)
        assert np.array_equal(once, twice)

    def test_dealias_keeps_band_limited_field(self, grid2: TorusGrid) -> None:
        f = scalar(grid2, np.sin(2.0 * grid2.x[0]))
        out = dealiased(grid2, f.values)
        assert np.max(np.abs(out - f.values)) <= 1e-13

    def test_dealias_removes_near_nyquist_mode(self) -> None:
        grid = TorusGrid(dim=2, n=64)
        f = scalar(grid, np.sin((grid.n / 2 - 1) * grid.x[0]))
        assert np.max(np.abs(dealiased(grid, f.values))) <= 1e-13

    def test_dealias_preserves_resolved_product(self) -> None:
        grid = TorusGrid(dim=2, n=64)
        k = 5  # 2k = 10 <= n/3
        prod = np.sin(k * grid.x[0]) ** 2
        out = dealiased(grid, prod)
        exact = 0.5 * (1.0 - np.cos(2.0 * k * grid.x[0]))
        assert np.max(np.abs(out - exact)) <= 1e-12


class TestNorms:
    def test_l2_norm_of_sin(self, grid2: TorusGrid) -> None:
        f = scalar(grid2, np.sin(grid2.x[0]))
        assert l2_norm_sq_values(grid2, f.values) == pytest.approx(0.5 * grid2.volume, rel=1e-13)

    def test_l2_norm_of_constant(self, grid3: TorusGrid) -> None:
        f = scalar(grid3, np.full(grid3.shape, 2.0))
        assert l2_norm_sq_values(grid3, f.values) == pytest.approx(4.0 * grid3.volume, rel=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_parseval_grid_sum_matches_mode_sum(self, seed: int) -> None:
        grid = TorusGrid(dim=2, n=16)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(grid.shape)
        grid_sum = float(np.sum(values**2)) * grid.cell_volume
        mode_sum = sobolev_norm_sq(ScalarField(grid, values), 0)
        assert mode_sum == pytest.approx(grid_sum, rel=1e-12)

    def test_parseval_in_3d(self, grid3: TorusGrid) -> None:
        rng = np.random.default_rng(1)
        values = rng.standard_normal(grid3.shape)
        grid_sum = float(np.sum(values**2)) * grid3.cell_volume
        assert sobolev_norm_sq(ScalarField(grid3, values), 0) == pytest.approx(grid_sum, rel=1e-12)


class TestDivergence:
    def test_analytic_divergence(self, grid2: TorusGrid) -> None:
        u = vector(grid2, np.sin(grid2.x[0]), np.zeros(grid2.shape))
        div = divergence_values(grid2, u.values)
        assert np.max(np.abs(div - np.cos(grid2.x[0]))) <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_divergence_free_construction(self, seed: int) -> None:
        grid = TorusGrid(dim=2, n=16)
        u = div_free_vector(grid, np.random.default_rng(seed))
        assert np.max(np.abs(divergence_values(grid, u.values))) <= 1e-12


class TestFieldContainers:
    def test_scalar_shape_check(self, grid2: TorusGrid) -> None:
        with pytest.raises(ValueError):
            ScalarField(grid2, np.zeros((4, 4)))
