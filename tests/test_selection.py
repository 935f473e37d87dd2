"""Information criteria and p-value model-order selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from varsel import (
    ConfigError,
    Criterion,
    DegenerateStepError,
    FeatureSubset,
    RankingMethod,
    elbow_annotation,
    fit_subset,
    information_criterion_value,
    make_dataset,
    pvalue_stopping,
    rank_features,
    rank_forward_selection,
    rank_pvalues,
    select_order,
)
from varsel.selection import penalty_constant

from conftest import awkward_tables, random_instance
from oracles import loop_select_order


def some_fit(seed=3, n=30, r=4, m=2):
    x, y, _ = random_instance(seed, n, r)
    ds = make_dataset(x, y)
    return ds, fit_subset(ds, FeatureSubset(tuple(range(1, m + 1))))


class TestCriterionValues:
    def test_bic_matches_hand_formula(self):
        ds, fit = some_fit()
        n, m = 100, 5
        got = information_criterion_value(fit.mse, n, m, Criterion.BIC)
        expected = n * math.log(2 * math.pi * fit.mse) + n + m * math.log(n)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_frozen_hand_evaluation(self):
        # n=100, mse=0.25, m=5: 100*ln(2*pi*0.25) + 100 + 5*ln(100)
        got = information_criterion_value(0.25, 100, 5, Criterion.BIC)
        assert got == pytest.approx(168.18412145888595, rel=1e-12)

    def test_aic_minus_bic_penalty_algebra(self):
        ds, fit = some_fit()
        for n, m in [(50, 3), (200, 7), (1000, 1)]:
            aic = information_criterion_value(fit.mse, n, m, Criterion.AIC)
            bic = information_criterion_value(fit.mse, n, m, Criterion.BIC)
            assert aic - bic == pytest.approx(
                2 * m * (1 - math.log(n) / 2), rel=1e-10
            )

    def test_values_linear_in_m_with_slope_two_xi(self):
        ds, fit = some_fit()
        n = 60
        for criterion in (Criterion.AIC, Criterion.BIC, Criterion.HQIC):
            xi = penalty_constant(criterion, n)
            values = [
                information_criterion_value(fit.mse, n, m, criterion)
                for m in range(1, 6)
            ]
            diffs = np.diff(values)
            np.testing.assert_allclose(diffs, 2 * xi, rtol=1e-12)

    def test_hqic_penalty_below_bic_for_n_at_least_16(self):
        for n in np.unique(np.geomspace(16, 1_000_000, 200).astype(int)):
            assert penalty_constant(Criterion.HQIC, int(n)) < penalty_constant(
                Criterion.BIC, int(n)
            )

    def test_perfect_fit_is_winning_sentinel(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        ds = make_dataset(x, 2.0 * x[:, 0] + 1.0)
        fit = fit_subset(ds, FeatureSubset((1,)))
        assert information_criterion_value(fit.mse, 4, 1, Criterion.BIC) == -math.inf


class TestSelectOrder:
    def test_noiseless_single_feature_selects_one(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 4))
        ds = make_dataset(x, 2.0 * x[:, 2] - 1.0)
        ranking = rank_forward_selection(ds)
        for criterion in (Criterion.AIC, Criterion.BIC, Criterion.HQIC):
            assert select_order(ds, ranking, criterion).m_star == 1

    def test_bic_never_larger_than_aic(self):
        for seed in range(25):
            rng = np.random.default_rng(900 + seed)
            x = rng.normal(size=(20, 6))
            y = x @ rng.normal(size=6) + rng.normal(size=20)
            ds = make_dataset(x, y)
            ranking = rank_forward_selection(ds)
            bic = select_order(ds, ranking, Criterion.BIC).m_star
            aic = select_order(ds, ranking, Criterion.AIC).m_star
            assert bic <= aic

    def test_three_true_features_mostly_recovered(self):
        # the greedy ranking occasionally drags one extra noise feature past
        # the penalty (max-of-chi-square effect), so the check is statistical
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            x = rng.normal(size=(2000, 10))
            support = rng.choice(10, size=3, replace=False)
            beta = np.where(rng.normal(size=3) >= 0, 1.0, -1.0) * (
                1.0 + rng.uniform(size=3)
            )
            y = x[:, support] @ beta + 0.5 + 0.1 * rng.normal(size=2000)
            ds = make_dataset(x, y)
            ranking = rank_forward_selection(ds)
            hits += select_order(ds, ranking, Criterion.BIC).m_star == 3
        assert hits >= 9

    def test_curve_minimum_sits_at_m_star(self):
        x, y, _ = random_instance(31, 40, 6)
        ds = make_dataset(x, y)
        ranking = rank_forward_selection(ds)
        chosen = select_order(ds, ranking, Criterion.HQIC)
        assert np.argmin(chosen.curve) + 1 == chosen.m_star

    def test_degenerate_prefixes_score_infinite(self):
        from varsel import rank_backward_elimination

        rng = np.random.default_rng(32)
        x1 = rng.normal(size=12)
        x = np.column_stack([x1, x1, rng.normal(size=12)])
        ds = make_dataset(x, x1 + 0.3 * rng.normal(size=12))
        rk = rank_backward_elimination(ds)
        chosen = select_order(ds, rk, Criterion.BIC)
        assert math.isinf(chosen.curve[-1])  # full prefix holds the duplicate
        assert chosen.m_star <= 2


class TestPValueStopping:
    def test_single_strong_predictor(self):
        rng = np.random.default_rng(70)
        x = rng.normal(size=(50, 4))
        y = 3.0 * x[:, 0] + 0.05 * rng.normal(size=50)
        ds = make_dataset(x, y)
        chosen = pvalue_stopping(rank_pvalues(ds))
        assert chosen.m_star == 1
        assert chosen.curve[0] == 1.0

    def test_all_noise_targets_stay_small(self):
        stars = []
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            x = rng.normal(size=(40, 5))
            ds = make_dataset(x, rng.normal(size=40))
            stars.append(pvalue_stopping(rank_pvalues(ds)).m_star)
        # frozen for these seeds: 38 runs stop at 1, two at 2
        assert max(stars) <= 2
        assert sum(1 for s in stars if s == 1) >= 35

    def test_requires_pvalue_ranking(self):
        x, y, _ = random_instance(33, 30, 4)
        ds = make_dataset(x, y)
        with pytest.raises(Exception):
            pvalue_stopping(rank_forward_selection(ds))


class TestSelectOrderReadsTheRanking:
    """``select_order`` scores the MSEs the ranking already fitted and
    reproduces the loop that refitted every prefix, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(dataset=awkward_tables())
    def test_matches_the_refit_loop(self, dataset):
        for method in RankingMethod:
            try:
                ranking = rank_features(dataset, method)
            except DegenerateStepError:
                continue  # RM1/RM4 on a duplicate or zero column
            for criterion in (Criterion.AIC, Criterion.BIC, Criterion.HQIC):
                try:
                    want_curve, want_m = loop_select_order(dataset, ranking,
                                                           criterion)
                except ConfigError:
                    with pytest.raises(ConfigError):
                        select_order(dataset, ranking, criterion)
                    continue
                got = select_order(dataset, ranking, criterion)
                assert got.curve.tobytes() == want_curve.tobytes(), method
                assert got.m_star == want_m, method

    def test_rejects_a_ranking_of_another_size(self):
        x, y, _ = random_instance(35, 30, 4)
        ranking = rank_forward_selection(make_dataset(x[:, :3], y))
        with pytest.raises(ConfigError):
            select_order(make_dataset(x, y), ranking, Criterion.BIC)


class TestElbow:
    def test_sharp_corner_is_annotated(self):
        curve = np.array([1 / m for m in range(1, 6)] + [0.2] * 7)
        assert elbow_annotation(curve) == 5

    def test_short_or_flat_curves_give_none(self):
        assert elbow_annotation(np.array([1.0, 0.5])) is None
        assert elbow_annotation(np.zeros(10)) is None
