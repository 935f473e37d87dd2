"""Monte Carlo cross-validation, correlation graph, named model fits."""

import numpy as np
import pytest

from varsel import (
    ConfigError,
    FeatureSubset,
    correlation_graph,
    fit_named_model,
    fit_subset,
    make_dataset,
    monte_carlo_cv,
)
from varsel.data import run_rng

from conftest import random_instance
from oracles import loop_correlation_graph


def linear_dataset(seed=15, n=30, r=3, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, r))
    y = x @ rng.normal(size=r) + noise * rng.normal(size=n)
    return make_dataset(x, y)


class TestMonteCarloCv:
    def test_noiseless_model_scores_perfectly(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(25, 2))
        ds = make_dataset(x, 2.0 * x[:, 0] + 1.0)
        report = monte_carlo_cv(ds, FeatureSubset((1,)), runs=20, seed=3)
        assert report.mean_mae == pytest.approx(0.0, abs=1e-10)
        assert report.mean_r2 == pytest.approx(1.0, abs=1e-10)

    def test_single_run_matches_manual_split_oracle(self):
        ds = linear_dataset()
        report = monte_carlo_cv(ds, FeatureSubset((1, 2, 3)), runs=1, seed=11,
                                train_fraction=0.8)
        # manual oracle: same split derivation, pseudo-inverse fit
        perm = run_rng(11, 0).permutation(30)
        train, test = perm[:24], perm[24:]
        design = np.hstack([np.ones((24, 1)), ds.features[train]])
        beta = np.linalg.pinv(design) @ ds.target[train]
        test_design = np.hstack([np.ones((6, 1)), ds.features[test]])
        residuals = ds.target[test] - test_design @ beta
        assert report.mean_mae == pytest.approx(np.abs(residuals).mean(), rel=1e-10)
        assert report.mean_mse == pytest.approx(
            float(residuals @ residuals) / 6, rel=1e-10
        )
        ss_tot = float(((ds.target[test] - ds.target[test].mean()) ** 2).sum())
        assert report.mean_r2 == pytest.approx(
            1 - float(residuals @ residuals) / ss_tot, rel=1e-10
        )

    def test_seed_determinism(self):
        ds = linear_dataset()
        first = monte_carlo_cv(ds, FeatureSubset((1, 2)), runs=25, seed=9)
        second = monte_carlo_cv(ds, FeatureSubset((1, 2)), runs=25, seed=9)
        assert first == second

    def test_degenerate_splits_resampled_then_skipped(self):
        # feature 1 is nonzero only in row 0; splits without that row are
        # rank-deficient, so some runs skip even after one resample
        rng = np.random.default_rng(88)
        n = 12
        x2 = rng.normal(size=n)
        x1 = np.zeros(n)
        x1[0] = 1.0
        ds = make_dataset(np.column_stack([x1, x2]), x2 + 0.1 * rng.normal(size=n))
        report = monte_carlo_cv(ds, FeatureSubset((1, 2)), train_fraction=0.7,
                                runs=60, seed=4)
        assert report.runs + report.skipped == 60
        assert report.skipped == 10  # frozen for this seed
        assert report.high_skip_warning

    def test_mean_rmse_within_run_extremes(self):
        ds = linear_dataset(seed=23)
        report = monte_carlo_cv(ds, FeatureSubset((1, 3)), runs=80, seed=2)
        assert report.min_rmse <= report.mean_rmse <= report.max_rmse

    def test_in_sample_mse_not_better_than_cv_mean_minus_dispersion(self):
        for seed in (3, 4, 5):
            ds = linear_dataset(seed=seed, n=60, r=4)
            subset = FeatureSubset((1, 2, 3, 4))
            report = monte_carlo_cv(ds, subset, runs=200, seed=seed)
            in_sample = fit_subset(ds, subset).mse
            assert report.mean_mse >= in_sample - 3 * report.std_mse

    def test_train_mean_baseline_changes_r2(self):
        ds = linear_dataset(seed=31)
        test_based = monte_carlo_cv(ds, FeatureSubset((1,)), runs=30, seed=1)
        train_based = monte_carlo_cv(ds, FeatureSubset((1,)), runs=30, seed=1,
                                     r2_baseline="train-mean")
        assert test_based.mean_r2 != train_based.mean_r2
        assert test_based.mean_mae == train_based.mean_mae

    def test_invalid_parameters_rejected(self):
        ds = linear_dataset()
        with pytest.raises(ConfigError):
            monte_carlo_cv(ds, FeatureSubset((1,)), train_fraction=1.2, runs=5)
        with pytest.raises(ConfigError):
            monte_carlo_cv(ds, FeatureSubset((1,)), runs=0)
        with pytest.raises(ConfigError):
            monte_carlo_cv(ds, FeatureSubset((1, 2, 3)), train_fraction=0.1, runs=5)


class TestCorrelationGraph:
    def test_duplicated_column_yields_unit_edge(self):
        rng = np.random.default_rng(41)
        base = rng.normal(size=20)
        x = np.column_stack([base, rng.normal(size=20), base])
        ds = make_dataset(x, rng.normal(size=20))
        graph = correlation_graph(ds, threshold=0.95)
        assert (1, 3, pytest.approx(1.0, abs=1e-12)) in [
            (i, j, rho) for i, j, rho in graph.edges
        ]

    def test_negated_column_yields_minus_one(self):
        rng = np.random.default_rng(42)
        base = rng.normal(size=20)
        x = np.column_stack([base, -base])
        ds = make_dataset(x, rng.normal(size=20))
        ((i, j, rho),) = graph_edges = correlation_graph(ds).edges
        assert (i, j) == (1, 2)
        assert rho == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_column_never_appears(self):
        rng = np.random.default_rng(43)
        x = np.column_stack([np.full(20, 3.0), rng.normal(size=20)])
        ds = make_dataset(x, rng.normal(size=20))
        assert correlation_graph(ds, threshold=0.0).edges == tuple(
            e for e in correlation_graph(ds, threshold=0.0).edges if 1 not in e[:2]
        )

    def test_column_permutation_permutes_edges(self):
        rng = np.random.default_rng(44)
        base = rng.normal(size=25)
        x = np.column_stack([rng.normal(size=25), base,
                             base + 0.01 * rng.normal(size=25)])
        ds = make_dataset(x, rng.normal(size=25))
        edges = correlation_graph(ds, 0.95).edges
        assert [(i, j) for i, j, _ in edges] == [(2, 3)]
        swapped = make_dataset(x[:, [1, 0, 2]], ds.target)
        swapped_edges = correlation_graph(swapped, 0.95).edges
        assert [(i, j) for i, j, _ in swapped_edges] == [(1, 3)]

    @pytest.mark.parametrize("seed,n,r", [(0, 30, 4), (1, 60, 12), (2, 200, 40),
                                          (3, 1213, 30)])
    def test_matches_the_per_pair_loop(self, seed, n, r):
        x, y, _ = random_instance(seed, n, r)
        # correlated columns, so that the higher thresholds keep some pairs
        x[:, 1::2] = x[:, ::2][:, :r // 2] + 0.1 * x[:, 1::2]
        ds = make_dataset(x, y)
        for threshold in (0.0, 0.5, 0.95):
            got = correlation_graph(ds, threshold).edges
            want = loop_correlation_graph(ds, threshold)
            assert [e[:2] for e in got] == [e[:2] for e in want]
            np.testing.assert_allclose([e[2] for e in got], [e[2] for e in want],
                                       rtol=0, atol=1e-12)

    def test_constant_columns_with_rounding_residue_have_no_edge(self):
        # centering 0.1 or 0.3 over 1213 rows does not give exact zeros
        rng = np.random.default_rng(45)
        x = np.column_stack([np.full(1213, 0.1), np.full(1213, 0.3),
                             rng.normal(size=1213)])
        ds = make_dataset(x, rng.normal(size=1213))
        assert correlation_graph(ds, 0.95).edges == ()
        assert correlation_graph(ds, 0.0).edges == ()

    def test_every_rho_is_within_one(self):
        rng = np.random.default_rng(46)
        base = rng.normal(size=(1213, 4)) + 0.7
        # affine copies: the old per-pair quotient gave |rho| up to 1 + 7 ulp
        x = np.hstack([base, 3.0 * base + 0.1, -base / 7.0])
        ds = make_dataset(x, rng.normal(size=1213))
        rhos = [rho for _, _, rho in correlation_graph(ds, 0.0).edges]
        assert len(rhos) == 66
        assert max(abs(rho) for rho in rhos) <= 1.0


class TestNamedModel:
    def test_labels_attached_in_subset_order(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(20, 3))
        ds = make_dataset(x, x @ np.array([1.0, 2.0, -1.0]),
                          labels=("rms", "flux", "pitch"))
        model = fit_named_model(ds, FeatureSubset((3, 1)))
        assert [label for label, _ in model.coefficients] == ["pitch", "rms"]

    def test_constant_target_empty_subset(self):
        x = np.arange(8.0).reshape(-1, 1)
        ds = make_dataset(x, np.full(8, 4.25))
        model = fit_named_model(ds, FeatureSubset(()))
        assert model.intercept == pytest.approx(4.25, rel=1e-12)
        assert model.fit.r_squared == 0.0
        assert model.coefficients == ()
