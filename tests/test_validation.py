"""Monte Carlo cross-validation, correlation graph, named model fits."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varsel import (
    ConfigError,
    FeatureSubset,
    RankDeficiencyError,
    correlation_graph,
    fit_named_model,
    fit_subset,
    make_dataset,
    monte_carlo_cv,
)
from varsel import data, linmodel, validation
from varsel.data import run_rng

from conftest import awkward_tables, near_duplicate_table, random_instance
from oracles import (cv_report_of, exact_cv_runs, loop_correlation_graph,
                     loop_monte_carlo_cv, loop_run_rngs)


def cv_outcome(cv, dataset, subset, train_fraction, runs, seed):
    """The report's canonical JSON (round-trip floats, so bit for bit), or
    the exception's type and message."""
    try:
        return cv(dataset, subset, train_fraction, runs, seed).to_json()
    except Exception as exc:
        return type(exc), str(exc)


def block_runs(dataset, subset, train_fraction, entries):
    """Run counts about the block size ``monte_carlo_cv`` takes for this
    table and subset when its block buffers hold ``entries`` entries."""
    n_test = dataset.n_rows - int(np.floor(train_fraction * dataset.n_rows))
    block = max(1, entries // (n_test * (subset.m + 3)))
    return sorted({1, max(1, block - 1), block, block + 1, 2 * block + 3})


def assert_cv_matches_the_per_split_loop(dataset, subset, train_fraction, seed,
                                         entries):
    """With the certificate switched off (an infinite cap certifies no
    design), every split is fitted by the SVD rule: the report equals the
    loop's byte for byte."""
    with mock.patch.object(validation, "CV_BLOCK_ENTRIES", entries), \
            mock.patch.object(linmodel, "CERTIFIED_RATIO_CAP", math.inf):
        for runs in block_runs(dataset, subset, train_fraction, entries):
            args = (dataset, subset, train_fraction, runs, seed)
            assert cv_outcome(monte_carlo_cv, *args) == cv_outcome(
                loop_monte_carlo_cv, *args)


# Each kept split's test residuals are held within CV_BOUND * eps * cond(X_S)
# * ||y|| of the exact ones: eps times the train design's condition number
# and the target's scale, not the residual's (a constant target leaves
# residuals near 1e-17).  On 3000 hypothesis draws of ``mixed_cases`` both
# the SVD loop and the downdate stayed within 1.7 of that unit of a 50-digit
# solve; the largest seen anywhere was the loop's 4.8, at cond 1e5.
CV_BOUND = 64
CV_FLOATS = ("mean_mae", "mean_mse", "mean_rmse", "mean_r2", "std_mae",
             "std_mse", "std_rmse", "std_r2", "min_rmse", "max_rmse")


def cv_float_tolerances(dataset, train_fraction, exact):
    """The bound on each report float, from the per-split bound ``delta`` on
    the test residuals of the kept splits of ``exact_cv_runs``: MAE and RMSE
    move by at most delta, MSE by delta (2 RMSE + delta), R-squared by that
    times n_test / SS_tot (by nothing for a constant test target, scored 0).
    A mean, a standard deviation (a seminorm), a minimum or a maximum of
    per-split values moves by at most the largest per-split move; 4 eps of
    the largest per-split value cover the rounding of the aggregation."""
    eps = np.finfo(float).eps
    n_test = dataset.n_rows - int(np.floor(train_fraction * dataset.n_rows))
    metrics = np.array([m for m, _, _ in exact])
    delta = np.array([CV_BOUND * eps * cond for _, cond, _ in exact]) * float(
        np.linalg.norm(dataset.target))
    ss_tot = np.array([ss for _, _, ss in exact])
    mse = delta * (2.0 * metrics[:, 2] + delta)
    r2 = np.divide(mse * n_test, ss_tot, out=np.zeros_like(mse), where=ss_tot > 0)
    moves = np.column_stack([delta, mse, delta, r2]).max(axis=0)
    moves += 4 * eps * np.abs(metrics).max(axis=0)
    by_metric = dict(zip(("mae", "mse", "rmse", "r2"), moves))
    return {name: by_metric[name.split("_")[1]] for name in CV_FLOATS}


def assert_cv_within_the_bound(dataset, subset, train_fraction, seed,
                               run_counts=(16,)):
    """As shipped: the split each run keeps, the runs skipped and every
    error equal the SVD loop's, and each float lies within its bound of the
    loop's, as the loop's does of a 50-digit solve of the same splits (runs
    are keyed by their index, so the first ``runs`` of one exact solve
    serve every run count)."""
    exact_runs = None
    for runs in run_counts:
        args = (dataset, subset, train_fraction, runs, seed)
        want = cv_outcome(loop_monte_carlo_cv, *args)
        if isinstance(want, tuple):
            assert cv_outcome(monte_carlo_cv, *args) == want
            continue
        if exact_runs is None:
            exact_runs = exact_cv_runs(dataset, subset, train_fraction,
                                       max(run_counts), seed)
        got, want = monte_carlo_cv(*args), loop_monte_carlo_cv(*args)
        exact = cv_report_of([e and e[0] for e in exact_runs[:runs]], subset,
                             train_fraction, seed)
        tolerances = cv_float_tolerances(
            dataset, train_fraction, [e for e in exact_runs[:runs] if e])
        floats = dict.fromkeys(CV_FLOATS, 0.0)
        assert replace(got, **floats) == replace(want, **floats)
        for name, tol in tolerances.items():
            g, w, x = (getattr(r, name) for r in (got, want, exact))
            assert abs(g - w) <= tol and abs(w - x) <= tol, (name, g, w, x, tol)


def degenerate_split_dataset():
    """Feature 1 is nonzero only in row 0; splits without that row are
    rank-deficient, so some runs skip even after one resample."""
    rng = np.random.default_rng(88)
    n = 12
    x2 = rng.normal(size=n)
    x1 = np.zeros(n)
    x1[0] = 1.0
    return make_dataset(np.column_stack([x1, x2]), x2 + 0.1 * rng.normal(size=n))


@st.composite
def mixed_cases(draw):
    """A table and subset on which, within one block, some CV splits are
    downdated and others fall back to the SVD rule: Gaussian columns plus a
    column nonzero in only 1-4 rows, alone or as the difference of a
    near-duplicate pair, every column in the subset, and a constant or
    noisy linear target; or an ``awkward_tables`` draw and a drawn subset."""
    if draw(st.booleans()):
        dataset = draw(awkward_tables())
        r = dataset.n_features
        return dataset, FeatureSubset(draw(st.lists(
            st.integers(1, r), unique=True, min_size=1, max_size=min(r, 4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(12, 40))
    columns = [rng.normal(size=n) for _ in range(draw(st.integers(1, 3)))]
    rows = rng.choice(n, size=draw(st.integers(1, 4)), replace=False)
    sparse = np.zeros(n)
    sparse[rows] = rng.normal(size=len(rows))
    if draw(st.booleans()):
        columns.append(sparse)
    else:
        exponent = draw(st.floats(-6.0, -2.0))
        columns += [columns[0].copy(), columns[0] + 10.0**exponent * sparse]
    x = np.column_stack(columns)
    if draw(st.booleans()):
        y = np.full(n, draw(st.sampled_from([0.0, 0.1, 3.7])))
    else:
        y = x @ rng.normal(size=x.shape[1]) + 0.5 * rng.normal(size=n)
    return make_dataset(x, y), FeatureSubset(tuple(range(1, x.shape[1] + 1)))


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

    def test_constant_target_scores_zero_r2(self):
        # centring 0.1 leaves a rounding residue; max == min decides
        x = np.random.default_rng(0).normal(size=(60, 5))
        ds = make_dataset(x, np.full(60, 0.1))
        report = monte_carlo_cv(ds, FeatureSubset((1, 2, 3)), runs=50, seed=1)
        assert report.mean_r2 == 0.0
        assert report.r2_baseline == "test-mean"

    @settings(max_examples=120, deadline=None)
    @given(dataset=awkward_tables(), data=st.data(),
           train_fraction=st.sampled_from([0.3, 0.5, 0.7, 0.8, 0.95]),
           seed=st.integers(0, 2**16), entries=st.integers(1, 64))
    def test_matches_the_per_split_loop(self, dataset, data, train_fraction,
                                        seed, entries):
        # near-duplicate, duplicate and zero columns: splits that resample,
        # skip, or all fail, and settings the table cannot take
        r = dataset.n_features
        subset = FeatureSubset(data.draw(st.lists(
            st.integers(1, r), unique=True, max_size=min(r, 4))))
        assert_cv_matches_the_per_split_loop(dataset, subset, train_fraction,
                                             seed, entries)

    @pytest.mark.parametrize("entries", [1, 8, 30, 64])
    def test_resampled_and_skipped_splits_match_the_per_split_loop(self, entries):
        for train_fraction in (0.5, 0.7, 0.8):
            assert_cv_matches_the_per_split_loop(
                degenerate_split_dataset(), FeatureSubset((1, 2)),
                train_fraction, 4, entries)

    def test_every_train_fit_rank_deficient_matches_the_per_split_loop(self):
        x = np.random.default_rng(5).normal(size=(20, 2))
        ds = make_dataset(np.column_stack([x, x[:, 0]]), x[:, 1])
        with pytest.raises(RankDeficiencyError, match="every CV train fit"):
            monte_carlo_cv(ds, FeatureSubset((1, 3)), runs=3)
        assert_cv_matches_the_per_split_loop(ds, FeatureSubset((1, 3)), 0.8, 0, 16)

    @pytest.mark.parametrize("value", [0.1, 0.0])
    def test_constant_target_matches_the_per_split_loop(self, value):
        x = np.random.default_rng(0).normal(size=(60, 5))
        ds = make_dataset(x, np.full(60, value))
        assert_cv_matches_the_per_split_loop(ds, FeatureSubset((1, 2, 3)), 0.8, 1, 40)

    def test_full_size_blocks_match_the_per_split_loop(self):
        # the module's own block size: 10 splits a block at 1500 test rows
        # and 6 design columns
        x, y, support = random_instance(8, 3000, 12, sparse=5)
        ds = make_dataset(x, y)
        assert_cv_matches_the_per_split_loop(ds, FeatureSubset(support), 0.5, 7,
                                             validation.CV_BLOCK_ENTRIES)

    @settings(max_examples=60, deadline=None)
    @given(case=mixed_cases(), train_fraction=st.sampled_from([0.5, 0.7, 0.8]),
           seed=st.integers(0, 2**16))
    def test_mixed_blocks_keep_the_loops_splits_within_the_bound(
            self, case, train_fraction, seed):
        dataset, subset = case
        assert_cv_within_the_bound(dataset, subset, train_fraction, seed)

    def test_one_block_mixes_downdated_and_svd_splits(self):
        fallback = mock.Mock(wraps=validation._split_by_svd)
        with mock.patch.object(validation, "_split_by_svd", fallback):
            report = monte_carlo_cv(degenerate_split_dataset(), FeatureSubset((1, 2)),
                                    train_fraction=0.7, runs=60, seed=4)
        # all 60 runs in one block: 4 test rows of 3 design columns
        assert validation.CV_BLOCK_ENTRIES // (4 * (3 + 2)) >= 60
        assert report.skipped == 10
        assert 10 < fallback.call_count < 60

    def test_an_uncertified_design_sends_every_split_to_the_svd_rule(self):
        # the near-rank-deficient pair: _factor does not certify the design
        ds = near_duplicate_table(3, 1e-9)
        fallback = mock.Mock(wraps=validation._split_by_svd)
        with mock.patch.object(validation, "_split_by_svd", fallback):
            got = monte_carlo_cv(ds, FeatureSubset((1, 2, 3)), runs=30, seed=2)
        assert fallback.call_count == 30
        assert got == loop_monte_carlo_cv(ds, FeatureSubset((1, 2, 3)), runs=30, seed=2)

    @pytest.mark.parametrize("seed,log_ratio,indices", [(0, -5.5, (1, 2)),
                                                        (1, -5.4, (1, 2, 3))])
    def test_certified_designs_downdate_every_split_above_the_floor(
            self, seed, log_ratio, indices):
        # a certified design with kappa_F = ||A^-1||_F ||X||_F in (3.2e5,
        # 1e6): the former floor, (CERTIFIED_RATIO_CAP kappa_F)^2 plus
        # N p eps, sent some splits above DOWNDATE_EIGENVALUE_FLOOR to the
        # SVD rule; now only the design's certificate and that floor decide
        ds, subset = near_duplicate_table(seed, 10.0**log_ratio), FeatureSubset(indices)
        factor = linmodel._factor(ds, indices)
        kappa = factor.a_inv_norm * math.sqrt(factor.design_norm2)
        assert factor.a_inv is not None and 3.2e5 < kappa < 1e6
        n, width = ds.n_rows, len(indices) + 1
        former_floor = ((linmodel.CERTIFIED_RATIO_CAP * kappa) ** 2
                        + n * width * np.finfo(float).eps)
        lambda_min = []
        for run in range(30):
            q_test = factor.q[run_rng(2, run).permutation(n)[int(0.8 * n):]]
            lambda_min.append(np.linalg.eigvalsh(np.eye(width) - q_test.T @ q_test)[0])
        lambda_min = np.array(lambda_min)
        fallback = mock.Mock(wraps=validation._split_by_svd)
        with mock.patch.object(validation, "_split_by_svd", fallback):
            monte_carlo_cv(ds, subset, 0.8, 30, 2)
        floor = validation.DOWNDATE_EIGENVALUE_FLOOR
        assert fallback.call_count == np.sum(lambda_min <= floor)
        assert np.sum((lambda_min > floor) & (lambda_min <= former_floor)) > 0
        assert_cv_within_the_bound(ds, subset, 0.8, 2, (30,))

    @pytest.mark.parametrize("train_fraction", [0.5, 0.7, 0.8])
    def test_resampled_and_skipped_splits_within_the_bound(self, train_fraction):
        assert_cv_within_the_bound(degenerate_split_dataset(), FeatureSubset((1, 2)),
                                   train_fraction, 4, (1, 7, 60))

    @pytest.mark.parametrize("value", [0.1, 0.0, 3.7])
    def test_constant_target_within_the_bound(self, value):
        x = np.random.default_rng(0).normal(size=(60, 5))
        ds = make_dataset(x, np.full(60, value))
        assert_cv_within_the_bound(ds, FeatureSubset((1, 2, 3)), 0.8, 1, (1, 20))

    def test_full_size_blocks_within_the_bound(self):
        x, y, support = random_instance(8, 3000, 12, sparse=5)
        ds = make_dataset(x, y)
        subset = FeatureSubset(tuple(support))
        assert_cv_within_the_bound(
            ds, subset, 0.5, 7,
            block_runs(ds, subset, 0.5, validation.CV_BLOCK_ENTRIES))

    @pytest.mark.parametrize("dataset,subset,train_fraction,seed,svd_splits", [
        # a certified design whose every split is downdated
        (linear_dataset(n=60), FeatureSubset((1, 2, 3)), 0.8, 5, "none"),
        # a certified design with degenerate splits, resampled or skipped
        # by the SVD rule
        (degenerate_split_dataset(), FeatureSubset((1, 2)), 0.7, 4, "some"),
        # an uncertified design: no split is drawn in bulk
        (near_duplicate_table(3, 1e-9), FeatureSubset((1, 2, 3)), 0.8, 2, "all"),
    ])
    def test_bulk_split_streams_equal_the_per_key_loop(
            self, dataset, subset, train_fraction, seed, svd_splits):
        # blocks of 7 splits, so that every block after the first starts at
        # a nonzero run index, and passes of 3 keys, which straddle blocks
        runs = 40
        n_test = dataset.n_rows - int(np.floor(train_fraction * dataset.n_rows))
        fallback = mock.Mock(wraps=validation._split_by_svd)
        with mock.patch.object(validation, "CV_BLOCK_ENTRIES", 7 * n_test * (subset.m + 3)), \
                mock.patch.object(data, "RUN_RNGS_PASS", 3), \
                mock.patch.object(validation, "_split_by_svd", fallback):
            args = (dataset, subset, train_fraction, runs, seed)
            bulk = cv_outcome(monte_carlo_cv, *args)
            calls = fallback.call_count
            with mock.patch.object(validation, "run_rngs", loop_run_rngs):
                assert bulk == cv_outcome(monte_carlo_cv, *args)
        assert {"none": calls == 0, "some": 0 < calls < runs,
                "all": calls == runs}[svd_splits], calls

    def test_negative_seed_rejected_before_the_design_is_factored(self):
        factor = mock.Mock(wraps=linmodel._factor)
        with mock.patch.object(validation, "_factor", factor), \
                pytest.raises(ConfigError, match="seed must be >= 0"):
            monte_carlo_cv(linear_dataset(), FeatureSubset((1,)), runs=5, seed=-1)
        factor.assert_not_called()

    def test_invalid_parameters_rejected(self):
        ds = linear_dataset()
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            monte_carlo_cv(ds, FeatureSubset((1,)), runs=5, seed=-1)
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

    @pytest.mark.parametrize("threshold", [-0.1, 1.01, 5.0, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ConfigError, match="correlation threshold"):
            correlation_graph(linear_dataset(), threshold)

    def test_threshold_one_keeps_exact_copies_only(self):
        rng = np.random.default_rng(44)
        base = rng.normal(size=20)
        x = np.column_stack([base, rng.normal(size=20), 2.0 * base + 1.0])
        edges = correlation_graph(make_dataset(x, rng.normal(size=20)), 1.0).edges
        assert [e[:2] for e in edges] in ([], [(1, 3)])

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
        for value, n in ((4.25, 8), (0.1, 60)):
            x = np.arange(float(n)).reshape(-1, 1)
            ds = make_dataset(x, np.full(n, value))
            model = fit_named_model(ds, FeatureSubset(()))
            assert model.fit.intercept == pytest.approx(value, rel=1e-12)
            assert model.fit.r_squared == 0.0
            assert model.coefficients == ()


def eigvalsh_mask(m):
    """The floor test as one stacked ``eigvalsh`` takes it."""
    return np.linalg.eigvalsh(m)[:, 0] > validation.DOWNDATE_EIGENVALUE_FLOOR


def gershgorin_bound(m):
    return (2.0 * np.diagonal(m, axis1=1, axis2=2) - np.abs(m).sum(axis=2)).min(axis=1)


def with_spectrum(rng, eigenvalues):
    """A symmetric matrix with the given eigenvalues in a random basis."""
    v, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues),) * 2))
    return (v * eigenvalues) @ v.T


@st.composite
def floor_stacks(draw):
    """Stacks of symmetric matrices for the floor test: ``I - Q_T^T Q_T``
    of random test rows of an orthonormal Q, as CV forms them, and
    matrices whose least eigenvalue lies 1e-12..0.5 (relative) either side
    of the floor, in a random basis or (rotated by at most 1e-8) nearly
    diagonal, so that the Gershgorin bound nearly meets it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 8))
    floor = validation.DOWNDATE_EIGENVALUE_FLOOR
    stack = []
    for kind in draw(st.lists(st.sampled_from(["cv", "straddle", "near-diagonal"]),
                              min_size=1, max_size=12)):
        if kind == "cv":
            n = draw(st.integers(width + 1, 60))
            q, _ = np.linalg.qr(rng.normal(size=(n, width)))
            test = rng.choice(n, size=draw(st.integers(1, n - 1)), replace=False)
            stack.append(np.eye(width) - q[test].T @ q[test])
            continue
        side = draw(st.sampled_from([-1.0, 1.0]))
        least = floor * (1.0 + side * 10.0 ** draw(st.floats(-12.0, np.log10(0.5))))
        spectrum = np.concatenate([[least], least + rng.uniform(0.0, 3.0, width - 1)])
        if kind == "straddle":
            stack.append(with_spectrum(rng, spectrum))
        else:
            tilt = 10.0 ** draw(st.floats(-16.0, -8.0))
            v = np.linalg.qr(np.eye(width) + tilt * rng.normal(size=(width, width)))[0]
            stack.append((v * spectrum) @ v.T)
    return np.array(stack)


class TestGershgorinThenEigvalsh:
    """CV certifies a split when the Gershgorin bound puts lambda_min(M)
    above the floor and asks ``eigvalsh`` only of the rest: the same mask,
    so the same splits downdated and the same report bytes."""

    @settings(max_examples=200, deadline=None)
    @given(stack=floor_stacks())
    def test_mask_equals_the_stacked_eigvalsh(self, stack):
        original = stack.copy()
        assert validation._above_floor(stack).tolist() == eigvalsh_mask(stack).tolist()
        assert stack.tobytes() == original.tobytes()

    def test_eigvalsh_decides_what_the_bound_leaves(self):
        # lambda_min 0.15 and 0.05 behind a negative bound; the same
        # lambda_min 0.15 on a diagonal, which the bound alone settles
        rng = np.random.default_rng(3)
        stack = np.array([with_spectrum(rng, [0.15, 2.0, 4.0, 6.0]),
                          with_spectrum(rng, [0.05, 2.0, 4.0, 6.0]),
                          np.diag([0.15, 2.0, 4.0, 6.0])])
        assert (gershgorin_bound(stack[:2]) < 0.0).all()
        spy = mock.Mock(wraps=np.linalg.eigvalsh)
        with mock.patch.object(validation.np.linalg, "eigvalsh", spy):
            mask = validation._above_floor(stack)
        assert mask.tolist() == [True, False, True]
        assert len(spy.call_args.args[0]) == 2

    def test_cv_with_splits_the_bound_leaves(self):
        # 40 rows, three Gaussian columns and one nonzero in three rows: at
        # a train fraction of 0.7 the bound settles most splits; of the
        # rest eigvalsh puts some above the floor (downdated) and some
        # below (the SVD rule), in every block of 16
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 4))
        x[:, 3] = 0.0
        x[rng.choice(40, 3, replace=False), 3] = rng.normal(size=3)
        ds = make_dataset(x, x @ rng.normal(size=4) + rng.normal(size=40))
        subset, args = FeatureSubset((1, 2, 3, 4)), (0.7, 100, 3)
        factor = linmodel._factor(ds, subset.indices)
        tests = np.array([run_rng(3, run).permutation(40)[28:] for run in range(100)])
        m = np.eye(5) - factor.q[tests].transpose(0, 2, 1) @ factor.q[tests]
        bound, mask = gershgorin_bound(m), eigvalsh_mask(m)
        left = bound <= validation.DOWNDATE_EIGENVALUE_FLOOR
        assert factor.a_inv is not None
        assert (left & mask).sum() >= 10 and (~mask).sum() >= 5
        entries = 16 * 12 * 7  # 16 splits a block: 12 test rows, 5 columns

        def report(above_floor):
            fallback = mock.Mock(wraps=validation._split_by_svd)
            with mock.patch.object(validation, "_above_floor", above_floor), \
                    mock.patch.object(validation, "_split_by_svd", fallback), \
                    mock.patch.object(validation, "CV_BLOCK_ENTRIES", entries):
                return monte_carlo_cv(ds, subset, *args).to_json(), fallback.call_count

        got, fallbacks = report(validation._above_floor)
        assert (got, fallbacks) == report(eigvalsh_mask)
        assert fallbacks == (~mask).sum()
        # a bound-only rule sends the splits it leaves to the SVD rule too
        gershgorin_only = report(
            lambda m: gershgorin_bound(m) > validation.DOWNDATE_EIGENVALUE_FLOOR)
        assert gershgorin_only[1] == left.sum() and gershgorin_only[0] != got
        with mock.patch.object(validation, "CV_BLOCK_ENTRIES", entries):
            assert_cv_within_the_bound(ds, subset, 0.7, 3, (7, 16, 100))


def test_split_draws_are_those_of_permutation():
    # one shuffled buffer per split: the test rows, and the generator state
    # after them, of run_rng(seed, run).permutation(n)[n_train:]
    n, n_train = 1213, 970
    rows, order = np.arange(n), np.empty(n, dtype=np.intp)
    for seed, run in [(0, 0), (1, 5), (7, 999)]:
        ours, theirs = run_rng(seed, run), run_rng(seed, run)
        order[:] = rows
        ours.shuffle(order)
        assert order[n_train:].tobytes() == theirs.permutation(n)[n_train:].tobytes()
        assert ours.random() == theirs.random()
