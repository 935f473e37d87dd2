"""Ranking methods against independently written brute-force oracles."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import stdtr
from scipy.stats import t as student_t

from varsel import (
    ConfigError,
    FeatureSubset,
    RankDeficiencyError,
    Ranking,
    RankingMethod,
    build_design_matrix,
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
from varsel import linmodel, pipeline
from varsel import ranking as ranking_module
from varsel.data import unit_centered_columns
from varsel.linmodel import (
    CERTIFIED_RATIO_CAP,
    RANK_BAND,
    RANK_RCOND,
    _factor,
    _prefix_decisions,
    _DropState,
    _usable_features,
)
from varsel.pipeline import RunConfig
from varsel.ranking import _stepwise, _t_statistics

from conftest import (
    assert_prefix_fits_within_the_bound,
    awkward_tables,
    near_duplicate_table,
    random_instance,
)
from oracles import (
    exact_prefix_fits,
    loop_backward_elimination,
    loop_correlation,
    loop_error_curve,
    loop_prefix_decisions,
    loop_pvalues,
    loop_remove_max_error,
    loop_usable_features,
    oracle_mae,
    oracle_rm1,
    oracle_rm2,
    oracle_rm3,
    oracle_rm4,
)
from test_neighbour_costs import benchmark_table, in_band_table


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

    def test_duplicate_column_goes_to_the_tail_everywhere(self):
        # forward, the copy is left when no candidate is full-rank;
        # backward, the scan drops it; either way it is ranked last
        rng = np.random.default_rng(13)
        x1 = rng.normal(size=10)
        x = np.column_stack([x1, x1, rng.normal(size=10)])
        ds = make_dataset(x, x1 + 0.1 * rng.normal(size=10))
        for rank in (rank_forward_selection, rank_backward_elimination,
                     rank_remove_max_error, rank_add_max_error):
            ranking = rank(ds)
            assert ranking.order[-1] == 2, rank.__name__
            assert ranking.filled_prefixes == (3,), rank.__name__


def assert_copy_ranks_last(dataset, column):
    """Append an exact copy of ``column``: every greedy ranking keeps the
    order of the original columns (and their rank-deficient prefixes),
    puts the copy last and lists its prefix in ``filled_prefixes``.  RM5
    is exempt: it ranks an affine copy right after its original."""
    r = dataset.n_features
    copied = make_dataset(
        np.column_stack([dataset.features, dataset.features[:, column - 1]]),
        dataset.target)
    for method in RankingMethod:
        if method == RankingMethod.RM5_CORRELATION:
            continue
        want, got = rank_features(dataset, method), rank_features(copied, method)
        assert got.order == want.order + (r + 1,), (method, column)
        if want.raw_order is not None:
            assert got.raw_order == want.raw_order + (r + 1,), (method, column)
        assert got.filled_prefixes == want.filled_prefixes + (r + 1,), (method, column)


class TestAppendedCopy:
    """The metamorphic relation of an appended exact copy (Chen, Cheung &
    Yiu 1998), which holds in exact arithmetic and, by the tail rule and
    the earliest-wins tie, in floating point."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_on_the_benchmark_table(self, seed):
        table = benchmark_table(seed, 30)
        dataset = make_dataset(table.features, table.target)
        for column in (1, 5, 18, 30):
            assert_copy_ranks_last(dataset, column)

    @settings(max_examples=40, deadline=None)
    @given(dataset=awkward_tables(), data=st.data())
    def test_on_awkward_tables(self, dataset, data):
        assert_copy_ranks_last(dataset, data.draw(st.integers(1, dataset.n_features)))


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


@st.composite
def scan_tables(draw):
    """Tables for the Gram-Schmidt scan: an ``awkward_tables`` draw, a
    near-duplicate pair whose difference is within a factor 3 of the scan's
    1e-8 cut, or Gaussian columns with some scaled by 1e-12."""
    kind = draw(st.sampled_from(["awkward", "near", "scaled"]))
    if kind == "awkward":
        return draw(awkward_tables())
    seed = draw(st.integers(0, 10_000))
    if kind == "near":
        return near_duplicate_table(seed, 10.0 ** draw(st.floats(-8.5, -7.5)))
    x, y, _ = random_instance(seed, draw(st.integers(8, 30)), 6)
    x[:, draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))] *= 1e-12
    return make_dataset(x, y)


class TestUsableFeatures:
    @settings(max_examples=120, deadline=None)
    @given(dataset=scan_tables())
    def test_matches_the_former_scan(self, dataset):
        assert _usable_features(dataset) == loop_usable_features(dataset)

    @pytest.mark.parametrize("scale", [1e160, 1e-300])
    def test_a_column_whose_squares_leave_the_doubles_is_kept(self, scale):
        # its norms are taken at the scale of ``binary_scaled``: a column
        # times 1e160 no longer overflows (numpy's warning fails the test),
        # and one times 1e-300 no longer underflows to a norm of 0
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        x[:, 1] *= scale
        ds = make_dataset(x, rng.normal(size=40))
        assert _usable_features(ds) == loop_usable_features(ds) == ([1, 2, 3], [])

    @pytest.mark.parametrize("ratio,kept", [(0.95e-8, False), (1.05e-8, True),
                                            (1.5e-8, True)])
    def test_the_cut_at_1e_8_of_the_column_norm(self, ratio, kept):
        # column 2's component orthogonal to [1, x1] is ``ratio`` of its norm
        dataset = near_duplicate_table(1, ratio)
        usable, dropped = _usable_features(dataset)
        assert (usable, dropped) == loop_usable_features(dataset)
        assert dropped == ([] if kept else [2])


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

    def test_underflowed_pvalues_still_drop_the_smaller_t_first(self):
        # a near-noiseless fit: both p-values underflow to 0.0 under scipy's
        # stdtr, where the largest p would tie and take x1, the earliest;
        # the smaller |t| is x2's, and it goes first
        rng = np.random.default_rng(41)
        x = rng.normal(size=(200, 2))
        y = 3.0 * x[:, 0] + x[:, 1] + 1e-9 * rng.normal(size=200)
        ds = make_dataset(x, y)
        t, dof = _t_statistics(_DropState(ds, (1, 2)))
        assert (stdtr(dof, -t) == 0.0).all() and t[1] < t[0]
        assert rank_pvalues(ds).raw_order == loop_pvalues(ds).raw_order == (2, 1)
        assert rank_pvalues(ds).admissible == (True, True)

    def test_zero_standard_errors_rank_without_error(self):
        # a zero residual makes every se 0: a nonzero coefficient's |t| is
        # +inf (p = 0) and a zero one's 0 (p = 1); the ranking's read scores
        # +inf by a finite stand-in, so a step over them has one to take
        x = np.random.default_rng(43).normal(size=(6, 3))
        ds = make_dataset(x, x[:, 0])
        coefficients = {1: 2.0, 2: 0.0, 3: -1.0}

        def exact_fit(state):
            b = np.array([coefficients[k] for k in state.pool])
            return b, np.zeros(6), np.ones(len(b) + 1)

        with mock.patch.object(_DropState, "coefficient_fit", autospec=True,
                               side_effect=exact_fit):
            t, dof = _t_statistics(_DropState(ds, (1, 2, 3)))
            assert t.tolist() == [math.inf, 0.0, math.inf] and dof == 2
            assert coefficient_pvalues(ds, (1, 2, 3)).tolist() == [0.0, 1.0, 0.0]
            ranking = rank_pvalues(ds)
        assert ranking.raw_order == (2, 1, 3)
        assert ranking.admissible == (True, True, False)

    def test_a_pool_the_svd_rule_calls_deficient_goes_to_the_tail(self):
        # the Gram-Schmidt scan keeps a column scaled by 1e-12, and the SVD
        # rule calls the pool rank-deficient: the pass ends at its first
        # step, as RM1-RM4 end theirs, and every column goes to the tail
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        x[:, 2] *= 1e-12
        ds = make_dataset(x, x[:, 0] + rng.normal(size=40))
        assert _usable_features(ds) == ([1, 2, 3], [])
        ranking, want = rank_pvalues(ds), loop_pvalues(ds)
        assert ranking.order == ranking.raw_order == want.raw_order == (1, 2, 3)
        assert ranking.admissible == want.admissible == (False, False, False)
        assert ranking.filled_prefixes == (3,)

    def test_a_pass_that_ends_early_flags_the_sizes_it_priced(self):
        # a pool of fewer than 3 columns reads as rank-deficient: the pass
        # prices the pools of 4 and 3 columns, and only those flags are set
        rng = np.random.default_rng(31)
        x = rng.normal(size=(60, 4))
        ds = make_dataset(x, x @ [2.0, 1.5, 1.0, 0.5] + 0.1 * rng.normal(size=60))
        whole = rank_pvalues(ds)
        fit = _DropState.coefficient_fit

        def deficient_below_three(state):
            if len(state.pool) < 3:
                raise RankDeficiencyError("fewer than 3 columns")
            return fit(state)

        with mock.patch.object(_DropState, "coefficient_fit", autospec=True,
                               side_effect=deficient_below_three):
            ranking = rank_pvalues(replace(ds))
        assert ranking.raw_order[:2] == whole.raw_order[:2]
        assert ranking.raw_order[2:] == tuple(sorted(whole.raw_order[2:]))
        assert whole.admissible == (True, True, True, True)
        assert ranking.admissible == (False, False, True, True)

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
        # the curve is read from the table's QR and a small QR of its R
        # factor, the loop refits each prefix directly by SVD: both lie
        # within the bound of a 50-digit solve
        x, y, _ = random_instance(41, 25, 3)
        ds = make_dataset(x, y)
        got = error_curve(ds, (1, 2, 3))
        want = loop_error_curve(ds, (1, 2, 3))
        assert np.isfinite(got[1]).all() and np.isfinite(want[1]).all()
        assert_prefix_fits_within_the_bound(
            ds, exact_prefix_fits(ds, (1, 2, 3), [1, 2, 3]), [1, 2, 3], [got, want])

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
            ranking = rank_features(dataset, method)
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


@st.composite
def prefix_decision_cases(draw):
    """A table and an order whose prefixes straddle the rank rule: an
    ``awkward_tables`` draw, a ``near_duplicate_table`` pair at a residual
    ratio of 10^-10.6 to 10^-9.4, or a column scaled by 1e-12."""
    kind = draw(st.sampled_from(["awkward", "pair", "scaled"]))
    if kind == "awkward":
        dataset = draw(awkward_tables())
    elif kind == "pair":
        # the ratio from the seed, uniform in log: hypothesis draws floats
        # near the ends of a range and few in between
        seed = draw(st.integers(0, 10_000))
        ratio = 10.0 ** np.random.default_rng(seed).uniform(-10.6, -9.4)
        dataset = near_duplicate_table(seed, ratio)
    else:
        x, y, _ = random_instance(draw(st.integers(0, 10_000)), 30, 5)
        x[:, draw(st.integers(0, 4))] *= 1e-12
        dataset = make_dataset(x, y)
    order = draw(st.permutations(range(1, dataset.n_features + 1)))
    return dataset, tuple(order)


def spy(module, name):
    """Patch ``module.<name>`` with a spy that still calls it."""
    return mock.patch.object(module, name, wraps=getattr(module, name))


class TestPrefixDecisions:
    """``error_curve`` decides each prefix by the certificate, the singular
    values of its leading block or, in the band, the SVD rule, and fills
    the prefixes the SVD refit loop fills."""

    @settings(max_examples=120, deadline=None)
    @given(case=prefix_decision_cases())
    def test_filled_prefixes_equal_the_refit_loops(self, case):
        dataset, order = case
        got = error_curve(dataset, order)
        want = loop_error_curve(dataset, order)
        assert np.isinf(got[1]).tolist() == np.isinf(want[1]).tolist()
        for i in np.flatnonzero(np.isinf(got[1])):
            assert i == 0 or got[0][i] == got[0][i - 1]  # the MAE repeats

    def test_a_certified_order_makes_no_lstsq_or_svd_call(self):
        x, y, _ = random_instance(61, 40, 6)
        ds = make_dataset(x, y)
        order = (4, 2, 6, 1, 5, 3)
        assert _factor(ds, order).a_inv is not None
        with spy(np.linalg, "lstsq") as lstsq, spy(np.linalg, "svd") as svd:
            error_curve(ds, order)
        lstsq.assert_not_called()
        svd.assert_not_called()

    def test_prefixes_before_an_uncertified_pair_stay_certified(self):
        # (1, 2) fails the certificate at a residual ratio of 1e-9 but is
        # full-rank: only the last prefix, which completes the pair, takes
        # the singular values of its leading block
        ds = near_duplicate_table(4, 1e-9)
        order = (3, 4, 1, 5, 6, 2)
        assert _factor(ds, order).a_inv is None
        with spy(np.linalg, "lstsq") as lstsq, spy(np.linalg, "svd") as svd:
            got = error_curve(ds, order)
        lstsq.assert_not_called()
        assert svd.call_count == 1
        assert np.isfinite(got[1]).all()

    @settings(max_examples=150, deadline=None)
    @given(case=prefix_decision_cases())
    def test_bisection_equals_the_per_prefix_loop(self, case):
        """The masks equal those of the loop that takes the singular values
        of every uncertified leading block, from SVDs at the bisection's
        points, at the prefixes in the band and at the first one below it:
        at most 2 ceil(log2 R) plus the band's prefixes.  Every ratio taken
        is the loop's, bit for bit."""
        dataset, order = case
        factor = _factor(dataset, order)
        want_ratios, want_full, want_deficient = loop_prefix_decisions(factor)
        with spy(np.linalg, "svd") as svd:
            ratios, full_rank, deficient = _prefix_decisions(factor)
        assert full_rank.tolist() == want_full.tolist()
        assert deficient.tolist() == want_deficient.tolist()
        taken = ~np.isnan(ratios)
        assert ratios[taken].tobytes() == want_ratios[taken].tobytes()
        band = int(np.count_nonzero(~(want_full | want_deficient)))
        r = dataset.n_features
        assert svd.call_count == np.count_nonzero(np.isfinite(ratios))
        assert svd.call_count <= 2 * math.ceil(math.log2(r)) + band

    def test_a_long_uncertified_run_takes_a_few_svds(self):
        # a pair at residual ratio 1e-9 leads a 30-feature order: every
        # prefix after the first two is full-rank and uncertified, and the
        # bisection finds that from 4 of their 29 leading blocks
        ds = near_duplicate_table(4, 1e-9, r=30)
        factor = _factor(ds, tuple(range(1, 31)))
        assert factor.n_certified == 2
        with spy(np.linalg, "svd") as svd:
            _, full_rank, deficient = _prefix_decisions(factor)
        assert full_rank.all() and not deficient.any()
        assert svd.call_count == 4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_an_in_band_prefix_reaches_fit_subset(self, seed):
        ds = in_band_table(seed)
        a = _factor(ds, (1, 2)).a
        sv = np.linalg.svd(a, compute_uv=False)
        assert RANK_RCOND / RANK_BAND < sv[-1] / sv[0] <= RANK_RCOND * RANK_BAND
        with spy(ranking_module, "fit_subset") as fit:
            got = error_curve(ds, (1, 2, 3, 4, 5, 6))
        assert FeatureSubset((1, 2)) in [c.args[1] for c in fit.call_args_list]
        want = loop_error_curve(ds, (1, 2, 3, 4, 5, 6))
        assert np.isinf(got[1]).tolist() == np.isinf(want[1]).tolist()


@st.composite
def certificate_cases(draw):
    """A table and an order for the certificate: an ``awkward_tables``
    draw, or a ``near_duplicate_table`` pair at a residual ratio of 1e-3,
    of 10^-10.6 to 10^-9.4 or of 10^-6.2 to 10^-4.8 (uniform in log), where
    the bound's product for the prefixes holding the pair straddles 1."""
    kind = draw(st.sampled_from(["awkward", 1e-3, (-10.6, -9.4), (-6.2, -4.8)]))
    if kind == "awkward":
        dataset = draw(awkward_tables())
    else:
        seed = draw(st.integers(0, 10_000))
        ratio = (kind if isinstance(kind, float)
                 else 10.0 ** np.random.default_rng(seed).uniform(*kind))
        dataset = near_duplicate_table(seed, ratio)
    order = draw(st.permutations(range(1, dataset.n_features + 1)))
    return dataset, tuple(order)


def loop_certified_prefixes(dataset, order, a):
    """The leading run of prefixes M = 0..R of ``order`` that pass the
    certificate, one prefix at a time: with ``A_M = a[:M+1, :M+1]`` and
    ``X_M`` the prefix's design, the guard ``min |diag A_M| >
    CERTIFIED_RATIO_CAP ||X_M||_F``, then the bound ``||A_M^-1||_F ||X_M||_F
    CERTIFIED_RATIO_CAP < 1`` on the inverse of the block.  None when a
    guard or bound product up to the end of the run lies within 1e-9
    relative of 1, where the last bits decide."""
    x = build_design_matrix(dataset, FeatureSubset(order)).values
    for m in range(len(a)):
        cap_norm = CERTIFIED_RATIO_CAP * np.linalg.norm(x[:, :m + 1])
        block = a[:m + 1, :m + 1]
        smallest = np.abs(np.diag(block)).min()
        products = [cap_norm / smallest if smallest > 0.0 else math.inf]
        if products[0] < 1.0:
            products.append(np.linalg.norm(np.linalg.inv(block)) * cap_norm)
        if any(abs(p - 1.0) <= 1e-9 for p in products):
            return None
        if products[-1] >= 1.0:
            return m
    return len(a)


class TestCertifiedPrefixes:
    """``Factor.n_certified``, the run of prefixes ``error_curve`` takes as
    certified, against a loop that inverts each leading block."""

    @settings(max_examples=150, deadline=None)
    @given(case=certificate_cases())
    def test_the_count_equals_the_per_prefix_loop(self, case):
        dataset, order = case
        factor = _factor(dataset, order)
        want = loop_certified_prefixes(dataset, order, factor.a)
        assume(want is not None)
        assert factor.n_certified == want
        assert (factor.a_inv is not None) == (want == len(factor.a))


def rank_stage(dataset, methods):
    """The rankings of one rank stage, as ``pipeline._rankings`` runs it."""
    config = RunConfig(dataset_path="table.csv", target_column="y", stages=("rank",),
                       methods=tuple(RankingMethod(m).value for m in methods))
    return list(pipeline._rankings(config, dataset, {}).values())


def ranked_alone(dataset, methods):
    """Each method ranked on its own copy of the table, which shares no
    ``Dataset.usable_pool`` with another."""
    return [rank_features(replace(dataset), method) for method in methods]


def assert_same_rankings(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.method == w.method
        assert g.order == w.order, g.method
        assert g.raw_order == w.raw_order, g.method
        assert g.admissible == w.admissible, g.method
        assert g.error_curve.tobytes() == w.error_curve.tobytes(), g.method
        assert g.mse_curve.tobytes() == w.mse_curve.tobytes(), g.method


class TestRankStage:
    """The removing rankings of one table share one start, its
    ``Dataset.usable_pool``: each equals the method ranked alone, in any
    order of the methods, and the table is scanned once and its usable pool
    factored once, however many stages rank it."""

    @settings(max_examples=40, deadline=None)
    @given(dataset=awkward_tables(), methods=st.permutations(list(RankingMethod)))
    def test_ranked_together_equal_ranked_alone(self, dataset, methods):
        assert_same_rankings(rank_stage(dataset, methods),
                             ranked_alone(dataset, methods))

    @pytest.mark.parametrize("methods", [
        list(RankingMethod),
        [RankingMethod.RM2_BACKWARD, RankingMethod.RM3_REMOVE_MAX, RankingMethod.PVALUE],
    ], ids=["six", "backward"])
    def test_the_benchmark_table_in_both_orders(self, methods):
        table = benchmark_table(1, 30)
        ds = make_dataset(table.features, table.target)
        alone = ranked_alone(ds, methods)
        assert_same_rankings(rank_stage(ds, methods), alone)
        assert_same_rankings(rank_stage(ds, methods[::-1]), alone[::-1])

    def test_one_scan_and_one_pool_factor_a_table(self):
        table = benchmark_table(1, 30)
        ds = make_dataset(table.features, table.target)
        usable, _ = _usable_features(ds)
        with spy(linmodel, "_usable_features") as scan, \
                spy(linmodel, "_factor") as factor:
            ranked = rank_stage(ds, list(RankingMethod))
            assert [r.method for r in ranked] == list(RankingMethod)
            rank_stage(ds, list(RankingMethod)[::-1])
        scan.assert_called_once()
        assert [c.args[1] for c in factor.call_args_list].count(tuple(usable)) == 1


PUBLIC = {
    RankingMethod.RM1_FORWARD: rank_forward_selection,
    RankingMethod.RM2_BACKWARD: rank_backward_elimination,
    RankingMethod.RM3_REMOVE_MAX: rank_remove_max_error,
    RankingMethod.RM4_ADD_MAX: rank_add_max_error,
    RankingMethod.RM5_CORRELATION: rank_correlation,
    RankingMethod.PVALUE: rank_pvalues,
}


class TestMethodTable:
    """Every greedy method is one row of ``ranking._GREEDY``, and every
    public ``rank_*`` function returns what ``rank_features`` returns for
    its method."""

    def test_every_method_is_rm5_or_a_row(self):
        rows = set(ranking_module._GREEDY)
        assert RankingMethod.RM5_CORRELATION not in rows
        assert rows | {RankingMethod.RM5_CORRELATION} == set(RankingMethod)
        assert set(PUBLIC) == set(RankingMethod)

    @staticmethod
    def assert_public_functions_are_rank_features(dataset):
        for method, public in PUBLIC.items():
            assert_same_rankings([public(dataset)], [rank_features(dataset, method)])

    @settings(max_examples=20, deadline=None)
    @given(dataset=awkward_tables())
    def test_on_awkward_tables(self, dataset):
        self.assert_public_functions_are_rank_features(dataset)

    def test_on_the_benchmark_table(self):
        table = benchmark_table(1, 30)
        self.assert_public_functions_are_rank_features(
            make_dataset(table.features, table.target))
