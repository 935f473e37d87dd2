"""Gibbs subset sampler against the exact enumeration oracle."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varsel import (
    ConfigError,
    DegenerateStepError,
    FeatureSubset,
    GibbsChain,
    GibbsConfig,
    InvalidSubsetError,
    exact_target_enumeration,
    full_conditional_weights,
    gibbs_run,
    inclusion_frequencies,
    make_dataset,
)

from conftest import random_instance
from oracles import oracle_cost


def log3_dataset():
    # x1 reproduces the target exactly (cost 0); the fit on x2 leaves
    # residuals (-s, 0, s) so with s = ln(3)/2 its L1 cost is exactly ln 3.
    s = math.log(3.0) / 2.0
    y = np.array([s, 2 * s, 3 * s])
    return make_dataset(np.column_stack([y, [0.0, 1.0, 0.0]]), y)


def equal_cost_pair():
    rng = np.random.default_rng(3)
    x1 = rng.normal(size=6)
    return make_dataset(np.column_stack([x1, -x1]), rng.normal(size=6))


def symmetric_triple():
    # Three pairwise-independent columns orthogonal to both the ones vector
    # and the target: every 2-subset fit leaves the same residuals.
    u = np.array([1.0, -1.0, -1.0, 1.0])
    v = np.array([1.0, -3.0, 3.0, -1.0])
    return make_dataset(np.column_stack([u, v, u + v]), [1.0, 2.0, 3.0, 4.0])


def empirical_subset_distribution(chain, burn_in):
    counts = {}
    retained = chain.states[burn_in:]
    for state in retained:
        key = tuple(sorted(state.indices))
        counts[key] = counts.get(key, 0) + 1
    return {k: c / len(retained) for k, c in counts.items()}


def tv_distance(empirical, exact):
    keys = set(empirical) | set(exact)
    return 0.5 * sum(
        abs(empirical.get(k, 0.0) - exact.get(k, 0.0)) for k in keys
    )


class TestFullConditional:
    def test_equal_costs_give_half_half(self):
        cand, weights = full_conditional_weights(
            equal_cost_pair(), FeatureSubset((1,)), 1, GibbsConfig(m=1, eta=1.0)
        )
        np.testing.assert_array_equal(cand, [1, 2])
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)

    def test_hand_computed_softmax(self):
        # costs (0, ln 3) at eta=1: weights (1, 1/3) normalized = (3/4, 1/4)
        cand, weights = full_conditional_weights(
            log3_dataset(), FeatureSubset((2,)), 1, GibbsConfig(m=1, eta=1.0)
        )
        np.testing.assert_array_equal(cand, [1, 2])
        np.testing.assert_allclose(weights, [0.75, 0.25], atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_direct_cost_enumeration(self, seed):
        x, y, _ = random_instance(seed + 600, 20, 4)
        ds = make_dataset(x, y)
        state = FeatureSubset((2, 4))
        config = GibbsConfig(m=2, eta=0.7)
        cand, weights = full_conditional_weights(ds, state, 2, config)
        np.testing.assert_array_equal(cand, [1, 3, 4])
        costs = np.array([oracle_cost(x, y, (2, k)) for k in (1, 3, 4)])
        raw = np.exp(-config.eta * (costs - costs.min()))
        np.testing.assert_allclose(weights, raw / raw.sum(), rtol=1e-9)

    def test_weights_sum_to_one(self):
        x, y, _ = random_instance(601, 25, 5)
        ds = make_dataset(x, y)
        _, weights = full_conditional_weights(
            ds, FeatureSubset((1, 3)), 1, GibbsConfig(m=2, eta=100.0)
        )
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (weights >= 0).all()

    def test_all_degenerate_candidates_error(self):
        constant = np.full(5, 2.0)
        ds = make_dataset(
            np.column_stack([constant, 3.0 * constant]),
            np.arange(5.0),
        )
        with pytest.raises(DegenerateStepError):
            full_conditional_weights(
                ds, FeatureSubset((1,)), 1, GibbsConfig(m=1, eta=1.0)
            )

    def test_rejects_out_of_range_state_and_position(self):
        # the checks the sampler's own loop skips, kept for outside callers
        x, y, _ = random_instance(602, 20, 4)
        ds = make_dataset(x, y)
        config = GibbsConfig(m=2, eta=1.0)
        with pytest.raises(InvalidSubsetError, match=r"\[5\] outside \[1, 4\]"):
            full_conditional_weights(ds, FeatureSubset((1, 5)), 1, config)
        for j in (0, 3):
            with pytest.raises(ConfigError, match=f"position {j} outside"):
                full_conditional_weights(ds, FeatureSubset((1, 2)), j, config)

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.05, 20.0))
    def test_tempering_scale_identity(self, scale):
        # dividing all costs by s while multiplying eta by s leaves the
        # conditional unchanged; costs scale with the target for alpha=1
        x, y, _ = random_instance(603, 20, 4)
        ds = make_dataset(x, y)
        scaled = make_dataset(x, y / scale)
        state = FeatureSubset((1, 4))
        _, base = full_conditional_weights(ds, state, 1, GibbsConfig(m=2, eta=2.0))
        _, matched = full_conditional_weights(
            scaled, state, 1, GibbsConfig(m=2, eta=2.0 * scale)
        )
        np.testing.assert_allclose(base, matched, rtol=1e-9, atol=1e-12)


class TestConfig:
    def test_burn_in_defaults_to_one_fifth(self):
        assert GibbsConfig(m=2, sweeps=1000).burn_in == 200

    def test_invalid_settings_rejected(self):
        with pytest.raises(Exception, match="eta"):
            GibbsConfig(m=2, eta=0.0)
        with pytest.raises(Exception, match="burn_in"):
            GibbsConfig(m=2, sweeps=10, burn_in=10)
        with pytest.raises(Exception, match="m must"):
            GibbsConfig(m=0)
        with pytest.raises(Exception, match="sweeps"):
            GibbsConfig(m=1, sweeps=0)
        for eta in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="eta must be finite"):
                GibbsConfig(m=2, eta=eta)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            GibbsConfig(m=2, seed=-1)


class TestGibbsRun:
    def test_identical_seeds_give_identical_chains(self):
        x, y, _ = random_instance(604, 25, 5)
        ds = make_dataset(x, y)
        config = GibbsConfig(m=2, eta=1.0, sweeps=50, seed=9)
        first = gibbs_run(ds, config)
        second = gibbs_run(ds, config)
        assert first.states == second.states
        assert first.costs == second.costs

    def test_states_always_valid_subsets(self):
        x, y, _ = random_instance(605, 25, 5)
        ds = make_dataset(x, y)
        chain = gibbs_run(ds, GibbsConfig(m=3, eta=1.0, sweeps=200, seed=1))
        for state in chain.states:
            assert len(set(state.indices)) == 3
            assert all(1 <= k <= 5 for k in state.indices)

    def test_chain_matches_exact_distribution(self):
        rng = np.random.default_rng(505)
        x = rng.normal(size=(30, 5))
        y = x @ rng.normal(size=5) + 0.5 * rng.normal(size=30)
        ds = make_dataset(x, y)
        config = GibbsConfig(m=2, eta=1.0, sweeps=20000, seed=2)
        chain = gibbs_run(ds, config)
        exact = exact_target_enumeration(ds, 2, eta=1.0)
        empirical = empirical_subset_distribution(chain, config.burn_in)
        assert tv_distance(empirical, exact.subset_probabilities) <= 0.05

    def test_small_eta_limit_is_uniform(self):
        x, y, _ = random_instance(606, 25, 5)
        ds = make_dataset(x, y)
        exact = exact_target_enumeration(ds, 2, eta=1e-9)
        probs = np.array(list(exact.subset_probabilities.values()))
        np.testing.assert_allclose(probs, 1.0 / math.comb(5, 2), rtol=1e-6)
        config = GibbsConfig(m=2, eta=1e-9, sweeps=20000, seed=3)
        empirical = empirical_subset_distribution(
            gibbs_run(ds, config), config.burn_in
        )
        assert tv_distance(empirical, exact.subset_probabilities) <= 0.05

    def test_large_eta_limit_concentrates_on_best_subset(self):
        rng = np.random.default_rng(607)
        x = rng.normal(size=(30, 5))
        y = x @ rng.normal(size=5) + 0.5 * rng.normal(size=30)
        ds = make_dataset(x, y)
        exact = exact_target_enumeration(ds, 2, eta=200.0)
        top_key, top_prob = max(
            exact.subset_probabilities.items(), key=lambda kv: kv[1]
        )
        assert top_prob >= 0.999
        config = GibbsConfig(m=2, eta=200.0, sweeps=2000, seed=4)
        empirical = empirical_subset_distribution(
            gibbs_run(ds, config), config.burn_in
        )
        assert empirical.get(top_key, 0.0) >= 0.99


class TestInclusion:
    def test_feature_in_every_state_has_probability_one(self):
        states = tuple(FeatureSubset((7, k)) for k in (1, 2, 3, 4))
        chain = GibbsChain(states=states, costs=(0.0,) * 4, n_features=8)
        profile = inclusion_frequencies(chain, 0)
        assert profile.probabilities[6] == 1.0

    def test_two_state_alternating_chain(self):
        states = tuple(
            FeatureSubset((1, 2)) if i % 2 == 0 else FeatureSubset((1, 3))
            for i in range(10)
        )
        chain = GibbsChain(states=states, costs=(0.0,) * 10, n_features=3)
        profile = inclusion_frequencies(chain, 0)
        np.testing.assert_allclose(profile.probabilities, [1.0, 0.5, 0.5])

    def test_empirical_sums_to_m(self):
        x, y, _ = random_instance(608, 25, 5)
        ds = make_dataset(x, y)
        config = GibbsConfig(m=3, eta=1.0, sweeps=500, seed=5)
        profile = inclusion_frequencies(gibbs_run(ds, config), config.burn_in)
        assert profile.probabilities.sum() == pytest.approx(3.0, abs=1e-12)
        assert profile.uniform_reference == 1 / 5


class TestExactEnumeration:
    def test_two_features_equal_costs(self):
        exact = exact_target_enumeration(equal_cost_pair(), 1, eta=1.0)
        np.testing.assert_allclose(exact.inclusion.probabilities, [0.5, 0.5],
                                   atol=1e-10)

    def test_symmetric_triple_each_included_two_thirds(self):
        exact = exact_target_enumeration(symmetric_triple(), 2, eta=1.0)
        np.testing.assert_allclose(
            exact.inclusion.probabilities, [2 / 3] * 3, atol=1e-10
        )
        assert exact.inclusion.probabilities.sum() == pytest.approx(2.0, abs=1e-12)
        assert exact.inclusion.uniform_reference == 1 / 3

    def test_matches_hand_normalized_table(self):
        x, y, _ = random_instance(609, 20, 4)
        ds = make_dataset(x, y)
        eta = 0.5
        exact = exact_target_enumeration(ds, 2, eta=eta)
        keys = list(combinations(range(1, 5), 2))
        costs = {k: oracle_cost(x, y, k) for k in keys}
        shift = min(costs.values())
        raw = {k: math.exp(-eta * (c - shift)) for k, c in costs.items()}
        total = sum(raw.values())
        for key in keys:
            assert exact.subset_probabilities[key] == pytest.approx(
                raw[key] / total, rel=1e-9
            )
        for k in range(1, 5):
            marginal = sum(raw[key] / total for key in keys if k in key)
            assert exact.inclusion.probabilities[k - 1] == pytest.approx(
                marginal, rel=1e-9
            )

    def test_label_permutation_equivariance(self):
        x, y, _ = random_instance(610, 20, 4)
        ds = make_dataset(x, y)
        perm = [2, 0, 3, 1]  # permuted column c of new table = column perm[c]
        permuted = make_dataset(x[:, perm], y)
        base = exact_target_enumeration(ds, 2, eta=1.0).inclusion.probabilities
        moved = exact_target_enumeration(permuted, 2, eta=1.0).inclusion.probabilities
        np.testing.assert_allclose(moved, base[perm], rtol=1e-10)

    def test_budget_refusal(self):
        x, y, _ = random_instance(611, 30, 8)
        ds = make_dataset(x, y)
        with pytest.raises(Exception) as err:
            exact_target_enumeration(ds, 4, eta=1.0, budget=10)
        assert "budget" in str(err.value)
