"""Ranking methods against independently written brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import t as student_t

from varsel import (
    ConfigError,
    DegenerateStepError,
    FeatureSubset,
    RankDeficiencyError,
    Ranking,
    RankingMethod,
    coefficient_pvalues,
    error_curve,
    fit_subset,
    make_dataset,
    rank_add_max_error,
    rank_backward_elimination,
    rank_correlation,
    rank_features,
    rank_forward_selection,
    rank_pvalues,
    rank_remove_max_error,
)
from varsel.data import unit_centered_columns
from varsel.ranking import _stepwise

from conftest import awkward_tables, random_instance
from oracles import (
    loop_backward_elimination,
    loop_correlation,
    loop_pvalues,
    loop_remove_max_error,
    oracle_mae,
    oracle_rm1,
    oracle_rm2,
    oracle_rm3,
    oracle_rm4,
)


def exact_predictor_dataset():
    rng = np.random.default_rng(0)
    x1 = rng.normal(size=12)
    x2 = rng.normal(size=12)
    return make_dataset(np.column_stack([x1, x2]), x1)


class TestGreedyMethods:
    def test_exact_predictor_ranks_first_everywhere(self):
        ds = exact_predictor_dataset()
        for method in RankingMethod:
            assert rank_features(ds, method).order == (1, 2), method

    def test_rm1_first_pick_is_univariate_argmin(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 3))
        y = x[:, 1] + 0.1 * x[:, 2] + 0.01 * rng.normal(size=30)
        ds = make_dataset(x, y)
        ranking = rank_forward_selection(ds)
        maes = [oracle_mae(x, y, [k]) for k in (1, 2, 3)]
        assert ranking.order[0] == int(np.argmin(maes)) + 1 == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_rm1_matches_oracle(self, seed):
        x, y, _ = random_instance(seed, 25, 4)
        assert list(rank_forward_selection(make_dataset(x, y)).order) == oracle_rm1(x, y)

    @pytest.mark.parametrize("seed", range(6))
    def test_rm2_matches_oracle(self, seed):
        x, y, _ = random_instance(seed + 50, 25, 4)
        assert (
            list(rank_backward_elimination(make_dataset(x, y)).order)
            == oracle_rm2(x, y)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_rm3_matches_oracle(self, seed):
        x, y, _ = random_instance(seed + 100, 25, 4)
        assert list(rank_remove_max_error(make_dataset(x, y)).order) == oracle_rm3(x, y)

    @pytest.mark.parametrize("seed", range(6))
    def test_rm4_matches_oracle(self, seed):
        x, y, _ = random_instance(seed + 150, 25, 4)
        assert list(rank_add_max_error(make_dataset(x, y)).order) == oracle_rm4(x, y)

    def test_rm2_and_rm4_keep_raw_sequences(self):
        x, y, _ = random_instance(7, 25, 4)
        ds = make_dataset(x, y)
        rm2 = rank_backward_elimination(ds)
        assert rm2.raw_order == tuple(reversed(rm2.order))
        rm4 = rank_add_max_error(ds)
        assert rm4.raw_order == tuple(reversed(rm4.order))

    def test_duplicate_column_errors_forward_and_tails_backward(self):
        rng = np.random.default_rng(13)
        x1 = rng.normal(size=10)
        x = np.column_stack([x1, x1, rng.normal(size=10)])
        ds = make_dataset(x, x1 + 0.1 * rng.normal(size=10))
        with pytest.raises(DegenerateStepError):
            rank_forward_selection(ds)
        rm2 = rank_backward_elimination(ds)
        assert rm2.order[-1] == 2  # duplicate dropped to the tail
        assert 3 in rm2.filled_prefixes
        rm3 = rank_remove_max_error(ds)
        assert rm3.order[-1] == 2


class TestStepwiseDriver:
    """RM2, RM3 and p-value elimination on the shared stepwise driver
    reproduce the hand-written loops they replaced, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(dataset=awkward_tables())
    def test_backward_rankings_match_former_loops(self, dataset):
        pairs = (
            (rank_backward_elimination, loop_backward_elimination),
            (rank_remove_max_error, loop_remove_max_error),
            (rank_pvalues, loop_pvalues),
        )
        for method, loop in pairs:
            got, want = method(dataset), loop(dataset)
            assert got.order == want.order, method.__name__
            assert got.raw_order == want.raw_order, method.__name__
            assert got.admissible == want.admissible, method.__name__
            assert got.filled_prefixes == want.filled_prefixes, method.__name__
            assert got.error_curve.tobytes() == want.error_curve.tobytes()

    def test_ties_go_to_the_earliest_entry(self):
        def flat(taken, pool):
            return np.ones(len(pool))
        assert _stepwise([3, 1, 2], flat, largest=False) == [3, 1, 2]
        assert _stepwise([3, 1, 2], flat, largest=True) == [3, 1, 2]

    def test_largest_skips_infinite_scores(self):
        def inf_for_3(taken, pool):
            return [np.inf if k == 3 and len(pool) > 1 else 1.0 for k in pool]
        assert _stepwise([3, 1, 2], inf_for_3, largest=True) == [1, 2, 3]
        assert _stepwise([3, 1, 2], inf_for_3, largest=False) == [1, 2, 3]


class TestCorrelation:
    def test_perfect_anticorrelation(self):
        ds = make_dataset(np.array([[1.0], [2.0], [3.0]]), [3.0, 2.0, 1.0])
        ranking = rank_correlation(ds)
        assert ranking.order == (1,)
        assert ranking.error_curve[0] == pytest.approx(0.0, abs=1e-12)

    def test_sorted_by_absolute_correlation(self):
        rng = np.random.default_rng(21)
        base = rng.normal(size=40)
        x = np.column_stack(
            [rng.normal(size=40), -base + 0.1 * rng.normal(size=40), base]
        )
        ds = make_dataset(x, base)
        assert rank_correlation(ds).order == (3, 2, 1)

    def test_zero_variance_feature_ranks_last(self):
        rng = np.random.default_rng(22)
        base = rng.normal(size=20)
        x = np.column_stack([np.full(20, 7.0), base])
        ds = make_dataset(x, base)
        assert rank_correlation(ds).order == (2, 1)

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(0.01, 100.0), shift=st.floats(-50.0, 50.0))
    def test_invariant_under_positive_affine_rescaling(self, scale, shift):
        x, y, _ = random_instance(33, 30, 4)
        ds = make_dataset(x, y)
        rescaled = x.copy()
        rescaled[:, 2] = scale * rescaled[:, 2] + shift
        assert rank_correlation(make_dataset(rescaled, y)).order == rank_correlation(ds).order

    @pytest.mark.parametrize("seed,n,r", [(0, 30, 4), (1, 60, 12), (2, 200, 40),
                                          (3, 1213, 30)])
    def test_matches_the_per_feature_loop(self, seed, n, r):
        x, y, _ = random_instance(seed, n, r, sparse=r // 2)
        ds = make_dataset(x, y)
        order, rhos = loop_correlation(ds)
        assert list(rank_correlation(ds).order) == order
        unit = unit_centered_columns(ds.features)
        rho = unit.T @ unit_centered_columns(ds.target[:, None])[:, 0]
        np.testing.assert_allclose(rho, rhos, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0),
           log_offset=st.floats(-3.0, 5.0))
    def test_affine_copy_ranks_after_the_original(self, seed, log_scale,
                                                  log_offset):
        # equal |rho| in exact arithmetic: the lower index must win the tie,
        # for offsets b up to 1e5 times the scale a (|b/a| <= 1e5)
        rng = np.random.default_rng(seed)
        x1 = rng.normal(size=200)
        a = rng.choice([-1.0, 1.0]) * 10.0**log_scale
        b = a * rng.choice([-1.0, 1.0]) * 10.0**log_offset
        x = np.column_stack([x1, a * x1 + b])
        ds = make_dataset(x, x1 + rng.normal(size=200))
        assert rank_correlation(ds).order == (1, 2)

    def test_constant_target_gives_index_order(self):
        rng = np.random.default_rng(23)
        ds = make_dataset(rng.normal(size=(1213, 6)), np.full(1213, 0.1))
        assert rank_correlation(ds).order == (1, 2, 3, 4, 5, 6)


class TestPValues:
    def test_pvalues_match_hand_computed_t_statistics(self):
        x, y, _ = random_instance(17, 40, 3)
        ds = make_dataset(x, y)
        indices = (1, 2, 3)
        got = coefficient_pvalues(ds, indices)
        # oracle: sigma^2 * diag((X^T X)^-1) through the pseudo-inverse
        design = np.hstack([np.ones((40, 1)), x])
        beta = np.linalg.pinv(design) @ y
        resid = y - design @ beta
        dof = 40 - 4
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.pinv(design.T @ design)
        tstats = beta[1:] / np.sqrt(np.diag(cov)[1:])
        expected = 2 * student_t.sf(np.abs(tstats), dof)
        np.testing.assert_allclose(got, expected, rtol=1e-8)

    def test_null_coefficient_removed_first(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(60, 3))
        y = 2.0 * x[:, 0] + 1.0 * x[:, 1] + 0.2 * rng.normal(size=60)
        ds = make_dataset(x, y)
        ranking = rank_pvalues(ds)
        assert ranking.raw_order[0] == 3
        assert ranking.order[-1] == 3

    def test_noiseless_predictor_dominates(self):
        ds = exact_predictor_dataset()
        assert rank_pvalues(ds).order == (1, 2)

    def test_admissibility_flags_recorded(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(60, 3))
        y = 2.0 * x[:, 0] + 0.1 * rng.normal(size=60)
        ranking = rank_pvalues(make_dataset(x, y))
        assert ranking.admissible is not None and len(ranking.admissible) == 3
        assert ranking.admissible[0]  # the strong single feature passes

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ConfigError, match="p-value threshold"):
            rank_pvalues(exact_predictor_dataset(), alpha)
        with pytest.raises(ConfigError, match="p-value threshold"):
            rank_features(exact_predictor_dataset(), RankingMethod.PVALUE, alpha)

    def test_threshold_one_is_accepted(self):
        ranking = rank_pvalues(exact_predictor_dataset(), 1.0)
        assert ranking.order == (1, 2)


class TestErrorCurve:
    def test_perfect_first_feature_zeroes_the_curve(self):
        ds = exact_predictor_dataset()
        curve, mse = error_curve(ds, (1, 2))
        assert curve[0] == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(mse).all()

    def test_identity_permutation_equals_direct_fits(self):
        x, y, _ = random_instance(41, 25, 3)
        ds = make_dataset(x, y)
        curve, mse = error_curve(ds, (1, 2, 3))
        for m in range(1, 4):
            direct = fit_subset(ds, FeatureSubset(tuple(range(1, m + 1))))
            assert curve[m - 1] == pytest.approx(direct.mae, rel=1e-12)
            assert mse[m - 1] == direct.mse

    def test_curves_are_non_increasing_and_share_the_final_point(self):
        x, y, _ = random_instance(43, 30, 5)
        ds = make_dataset(x, y)
        finals = []
        for method in RankingMethod:
            curve = rank_features(ds, method).error_curve
            assert (np.diff(curve) <= 1e-12).all()
            finals.append(curve[-1])
        assert np.ptp(finals) <= 1e-10

    def test_rank_deficient_prefix_is_filled_with_previous_value(self):
        rng = np.random.default_rng(47)
        x1 = rng.normal(size=10)
        x = np.column_stack([x1, x1, rng.normal(size=10)])
        ds = make_dataset(x, x1 + rng.normal(size=10))
        # prefixes (1,2) and (1,2,3) both contain the duplicated pair
        curve, mse = error_curve(ds, (1, 2, 3))
        ranking = Ranking(RankingMethod.RM1_FORWARD, (1, 2, 3), curve, mse)
        assert ranking.filled_prefixes == (2, 3)
        assert curve[1] == curve[0] and curve[2] == curve[0]
        assert np.isfinite(mse[0]) and np.isinf(mse[1:]).all()

    @settings(max_examples=40, deadline=None)
    @given(dataset=awkward_tables())
    def test_filled_prefixes_are_the_rank_deficient_refits(self, dataset):
        """``filled_prefixes`` is read off the +inf entries of the MSE curve;
        a refit of each prefix on its own checks that reading."""
        for method in RankingMethod:
            try:
                ranking = rank_features(dataset, method)
            except DegenerateStepError:
                continue  # RM1/RM4 reach a step with no full-rank candidate
            deficient = []
            for m in range(1, dataset.n_features + 1):
                try:
                    fit_subset(dataset, FeatureSubset(ranking.order[:m]))
                except RankDeficiencyError:
                    deficient.append(m)
            assert ranking.filled_prefixes == tuple(deficient), method.value

    def test_rejects_non_permutations(self):
        x, y, _ = random_instance(48, 20, 3)
        ds = make_dataset(x, y)
        for bad in ((1, 2), (1, 2, 2), (0, 1, 2), (1, 2, 4)):
            with pytest.raises(Exception, match="permutation"):
                error_curve(ds, bad)

    def test_rm1_curve_dominates_rm4_curve(self):
        for seed in (1, 2, 3, 4, 5):
            x, y, _ = random_instance(seed + 200, 30, 5)
            ds = make_dataset(x, y)
            rm1 = rank_forward_selection(ds).error_curve
            rm4 = rank_add_max_error(ds).error_curve
            assert (rm1 <= rm4 + 1e-12).all()
