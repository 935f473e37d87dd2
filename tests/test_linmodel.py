"""Core least-squares fitting and subset costs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varsel import (
    ConfigError,
    CostCache,
    FeatureSubset,
    InvalidSubsetError,
    RankDeficiencyError,
    build_design_matrix,
    fit_least_squares,
    fit_subset,
    make_dataset,
    subset_cost,
)
from varsel.linmodel import error_metrics, residual_norm_cost

from conftest import assert_residuals_orthogonal, random_instance
from oracles import loop_error_metrics


def small_dataset():
    x = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 31.0], [4.0, 39.0]])
    return make_dataset(x, np.array([1.0, 2.0, 3.0, 4.0]))


class TestErrorMetrics:
    @pytest.mark.parametrize("value", [0.0, 0.1, -3.7, 1e300])
    def test_constant_target_scores_zero_r2(self, value):
        # nonzero residuals, as a CV test split has: still R-squared 0
        residuals = np.random.default_rng(6).normal(size=45)
        assert error_metrics(residuals, np.full(45, value))[3] == 0.0

    def test_stacked_rows_equal_the_one_vector_call(self):
        # bit for bit: CV scores its splits in stacked blocks, in-sample fits
        # one vector at a time, and both must give the old scorer's doubles
        # (SS_res as BLAS ddot takes it, means and sums pairwise); a numpy
        # whose matmul stops matching ddot fails here
        rng = np.random.default_rng(12)
        for n in [1, 2, 3, 7, 243, 1213, 2000, *rng.integers(1, 2001, size=40)]:
            rows = int(rng.integers(1, 9))
            scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 2))
            residuals = rng.normal(size=(rows, n)) * scales[:, :1]
            target = rng.normal(size=(rows, n)) * scales[:, 1:] + rng.normal()
            residuals[rng.random(rows) < 0.2] = 0.0
            for row in np.flatnonzero(rng.random(rows) < 0.3):
                target[row] = rng.choice([0.1, 0.0])
            stacked = np.column_stack(error_metrics(residuals, target))
            for row in range(rows):
                one = error_metrics(residuals[row], target[row])
                assert all(type(v) is float for v in one)
                assert stacked[row].tobytes() == np.array(one).tobytes(), (n, row)
                old = loop_error_metrics(residuals[row], target[row])
                assert np.array(one).tobytes() == np.array(old).tobytes(), (n, row)


class TestDesignMatrix:
    def test_selects_named_column(self):
        ds = small_dataset()
        design = build_design_matrix(ds, FeatureSubset((2,)))
        assert design.values.shape == (4, 2)
        np.testing.assert_array_equal(design.values[:, 0], np.ones(4))
        np.testing.assert_array_equal(design.values[:, 1], ds.features[:, 1])

    def test_empty_subset_is_ones_column(self):
        design = build_design_matrix(small_dataset(), FeatureSubset(()))
        np.testing.assert_array_equal(design.values, np.ones((4, 1)))

    def test_subset_order_preserved(self):
        ds = small_dataset()
        design = build_design_matrix(ds, FeatureSubset((2, 1)))
        np.testing.assert_array_equal(design.values[:, 1], ds.features[:, 1])
        np.testing.assert_array_equal(design.values[:, 2], ds.features[:, 0])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InvalidSubsetError):
            build_design_matrix(small_dataset(), FeatureSubset((3,)))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(InvalidSubsetError):
            FeatureSubset((1, 1))


class TestFit:
    def test_intercept_only_is_sample_mean(self):
        # Hand-computed: mean 2.5, |residuals| = [1.5, .5, .5, 1.5],
        # squared = [2.25, .25, .25, 2.25] -> MAE 1.0, MSE 1.25.
        ds = small_dataset()
        fit = fit_subset(ds, FeatureSubset(()))
        assert fit.intercept == pytest.approx(2.5, rel=1e-12)
        assert fit.mae == pytest.approx(1.0, rel=1e-12)
        assert fit.mse == pytest.approx(1.25, rel=1e-12)
        assert fit.rmse == pytest.approx(math.sqrt(1.25), rel=1e-12)

    def test_exact_linear_relation(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        ds = make_dataset(x, 2.0 * x[:, 0] + 1.0)
        fit = fit_subset(ds, FeatureSubset((1,)))
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.mae == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_three_point_fit_matches_normal_equations(self):
        # Solving the 2x2 normal equations by hand for x=[0,1,2], y=[0,1,1]
        # gives intercept 1/6 and slope 1/2.
        ds = make_dataset(np.array([[0.0], [1.0], [2.0]]), [0.0, 1.0, 1.0])
        fit = fit_subset(ds, FeatureSubset((1,)))
        assert fit.intercept == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert fit.coefficients[0] == pytest.approx(0.5, rel=1e-12)
        # independent route: pseudo-inverse of the design
        design = build_design_matrix(ds, FeatureSubset((1,)))
        expected = np.linalg.pinv(design.values) @ ds.target
        assert fit.intercept == pytest.approx(expected[0], rel=1e-10)
        assert fit.coefficients[0] == pytest.approx(expected[1], rel=1e-10)

    def test_rank_deficient_design_raises_and_names_subset(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        ds = make_dataset(x, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(RankDeficiencyError) as err:
            fit_subset(ds, FeatureSubset((1, 2)))
        assert err.value.subset.indices == (1, 2)
        assert "(1, 2)" in str(err.value)

    def test_zero_variance_target_reports_zero_r2(self):
        # 60 copies of 0.1 do not centre to exact zeros: the rule is max == min
        for value, n in ((5.0, 4), (0.1, 60)):
            x = np.arange(1.0, n + 1).reshape(-1, 1)
            ds = make_dataset(x, np.full(n, value))
            fit = fit_subset(ds, FeatureSubset((1,)))
            assert fit.r_squared == 0.0
            assert fit.mae == pytest.approx(0.0, abs=1e-12)

    def test_metrics_recomputable_from_residuals(self):
        x, y, _ = random_instance(3, 30, 4)
        ds = make_dataset(x, y)
        fit = fit_subset(ds, FeatureSubset((1, 3)))
        n = ds.n_rows
        assert fit.mae == pytest.approx(np.abs(fit.residuals).mean(), rel=1e-12)
        assert fit.mse == pytest.approx((fit.residuals**2).sum() / n, rel=1e-12)
        assert fit.rmse == pytest.approx(math.sqrt(fit.mse), rel=1e-12)

    def test_residual_orthogonality(self):
        x, y, _ = random_instance(11, 40, 6)
        ds = make_dataset(x, y)
        design = build_design_matrix(ds, FeatureSubset((1, 2, 5)))
        fit = fit_least_squares(design, ds.target)
        bound = 1e-8 * np.linalg.norm(design.values) * np.linalg.norm(ds.target)
        assert np.abs(design.values.T @ fit.residuals).max() <= bound

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(0, 6),
           log_ratio=st.floats(-6.0, 0.0))
    def test_fit_subset_residuals_are_orthogonal(self, seed, m, log_ratio):
        # x2 is x1 plus a perturbation of relative size 10**log_ratio, so
        # the designs run up to a condition number near 1e6, beyond which
        # eps * kappa outgrows the 1e-8 orthogonality bound
        x, y, _ = random_instance(seed, 30, 6)
        x[:, 1] = x[:, 0] + 10.0**log_ratio * x[:, 1]
        ds = make_dataset(x, y)
        subset = FeatureSubset(tuple(range(1, m + 1)))
        fit = fit_subset(ds, subset)
        design = build_design_matrix(ds, subset).values
        assert_residuals_orthogonal(design, fit.residuals, ds.target)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fit_is_permutation_invariant(self, seed):
        x, y, _ = random_instance(seed, 25, 4)
        ds = make_dataset(x, y)
        forward = fit_subset(ds, FeatureSubset((2, 4)))
        backward = fit_subset(ds, FeatureSubset((4, 2)))
        np.testing.assert_allclose(forward.residuals, backward.residuals,
                                   rtol=1e-10, atol=1e-12)
        assert forward.mae == pytest.approx(backward.mae, rel=1e-10)
        assert forward.mse == pytest.approx(backward.mse, rel=1e-10)
        np.testing.assert_allclose(forward.coefficients, backward.coefficients[::-1],
                                   rtol=1e-8, atol=1e-10)

    def test_nested_subsets_never_increase_mse(self):
        for seed in range(8):
            x, y, _ = random_instance(seed, 35, 6)
            ds = make_dataset(x, y)
            order = np.random.default_rng(seed).permutation(6) + 1
            previous = fit_subset(ds, FeatureSubset(())).mse
            for m in range(1, 7):
                current = fit_subset(ds, FeatureSubset(tuple(order[:m]))).mse
                assert current <= previous * (1 + 1e-12) + 1e-15
                previous = current


class TestSubsetCost:
    def test_perfect_fit_costs_zero(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        ds = make_dataset(x, 3.0 * x[:, 0] - 2.0)
        for p, alpha in [(1, 1), (2, 2), (0.5, 3)]:
            assert subset_cost(ds, FeatureSubset((1,)), p, alpha) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_l1_cost_is_sum_of_absolute_residuals(self):
        assert residual_norm_cost(np.array([1.0, -1.0, 2.0]), 1, 1) == pytest.approx(
            4.0, rel=1e-12
        )

    @pytest.mark.parametrize("p, alpha", [(math.inf, 1.0), (math.nan, 1.0),
                                          (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_cost_parameters_rejected(self, p, alpha):
        with pytest.raises(ConfigError, match="finite p > 0"):
            residual_norm_cost(np.array([3.0, 4.0]), p, alpha)

    def test_squared_l2_cost(self):
        assert residual_norm_cost(np.array([3.0, 4.0]), 2, 2) == pytest.approx(
            25.0, rel=1e-12
        )

    def test_default_cost_equals_n_times_mae(self):
        x, y, _ = random_instance(5, 30, 4)
        ds = make_dataset(x, y)
        subset = FeatureSubset((1, 4))
        fit = fit_subset(ds, subset)
        assert subset_cost(ds, subset) == pytest.approx(
            ds.n_rows * fit.mae, rel=1e-10
        )

    def test_p2_alpha2_cost_equals_n_times_mse(self):
        x, y, _ = random_instance(6, 30, 4)
        ds = make_dataset(x, y)
        subset = FeatureSubset((2, 3))
        fit = fit_subset(ds, subset)
        assert subset_cost(ds, subset, 2, 2) == pytest.approx(
            ds.n_rows * fit.mse, rel=1e-10
        )

    def test_cost_propagates_rank_deficiency(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        ds = make_dataset(x, [1.0, 0.0, 1.0, 0.0])
        with pytest.raises(RankDeficiencyError):
            subset_cost(ds, FeatureSubset((1, 2)))


class TestCostCache:
    def test_cache_is_order_insensitive_and_counts_hits(self):
        x, y, _ = random_instance(9, 30, 5)
        cache = CostCache(make_dataset(x, y))
        first = cache.cost((3, 1))
        second = cache.cost((1, 3))
        assert first == second
        assert cache.hits == 1 and cache.misses == 1

    def test_degenerate_subset_maps_to_infinite_cost(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        cache = CostCache(make_dataset(x, [1.0, 0.0, 1.0, 0.0]))
        assert cache.cost((1, 2)) == math.inf

    def test_keeps_every_priced_subset(self):
        x, y, _ = random_instance(10, 30, 6)
        cache = CostCache(make_dataset(x, y))
        first = [cache.cost((k,)) for k in range(1, 7)]
        assert [cache.cost((k,)) for k in range(1, 7)] == first
        assert (cache.hits, cache.misses, len(cache._store)) == (6, 6, 6)
