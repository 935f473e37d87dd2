"""Best-subset search: exhaustive, alternating optimization, multi-restart."""

import math
from itertools import combinations

import numpy as np
import pytest

from varsel import (
    BudgetExceededError,
    ConfigError,
    FeatureSubset,
    alternating_optimization,
    exhaustive_best_subset,
    make_dataset,
    multi_restart_search,
    subset_cost,
)
from varsel.data import run_rng
from varsel.search import random_subset

from conftest import random_instance
from oracles import oracle_cost


def two_basin_instance():
    # Verified by exhaustive landscape inspection: for m=2 this table has
    # exactly two subsets that no single-position swap improves, the global
    # optimum (1,5) and a separate local optimum (3,6).
    rng = np.random.default_rng(49)
    x = rng.normal(size=(20, 6))
    y = x @ rng.normal(size=6) + 0.3 * rng.normal(size=20)
    return make_dataset(x, y)


class TestExhaustive:
    def test_exact_predictor_found(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(15, 3))
        ds = make_dataset(x, x[:, 1])
        result = exhaustive_best_subset(ds, 1)
        assert result.subset.indices == (2,)
        assert result.cost == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_enumeration(self, seed):
        x, y, _ = random_instance(seed + 300, 25, 5)
        ds = make_dataset(x, y)
        result = exhaustive_best_subset(ds, 2)
        best = min(
            (oracle_cost(x, y, key), key) for key in combinations(range(1, 6), 2)
        )
        assert result.subset.indices == best[1]
        assert result.cost == pytest.approx(best[0], rel=1e-10)

    def test_budget_refusal_names_the_count(self):
        x, y, _ = random_instance(2, 30, 8)
        ds = make_dataset(x, y)
        with pytest.raises(BudgetExceededError) as err:
            exhaustive_best_subset(ds, 4, budget=50)
        assert err.value.count == math.comb(8, 4)
        assert str(math.comb(8, 4)) in str(err.value)

    def test_reported_cost_is_recomputable(self):
        x, y, _ = random_instance(3, 25, 5)
        ds = make_dataset(x, y)
        result = exhaustive_best_subset(ds, 2)
        assert result.cost == pytest.approx(
            subset_cost(ds, result.subset), rel=1e-10
        )

    def test_empty_subset_size_is_intercept_only(self):
        x, y, _ = random_instance(4, 25, 3)
        ds = make_dataset(x, y)
        result = exhaustive_best_subset(ds, 0)
        assert result.subset.indices == ()
        assert result.cost == pytest.approx(
            subset_cost(ds, FeatureSubset(())), rel=1e-12
        )


class TestAlternatingOptimization:
    def test_global_optimum_is_a_fixed_point(self):
        ds = two_basin_instance()
        best = exhaustive_best_subset(ds, 2)
        result = alternating_optimization(ds, 2, best.subset)
        assert result.subset.indices == best.subset.indices
        assert result.converged and result.iterations == 1

    def test_result_is_single_swap_unimprovable(self):
        for seed in (0, 1, 2):
            x, y, _ = random_instance(seed + 350, 25, 6)
            ds = make_dataset(x, y)
            init = random_subset(np.random.default_rng(seed), 6, 2)
            result = alternating_optimization(ds, 2, init)
            assert result.cost <= subset_cost(ds, init) + 1e-12
            for pos in range(2):
                for k in range(1, 7):
                    if k in result.subset.indices:
                        continue
                    probe = list(result.subset.indices)
                    probe[pos] = k
                    assert oracle_cost(x, y, probe) >= result.cost - 1e-9

    def test_basin_init_returns_local_not_global_minimum(self):
        ds = two_basin_instance()
        result = alternating_optimization(ds, 2, FeatureSubset((3, 6)))
        assert result.subset.indices == (3, 6)
        global_best = exhaustive_best_subset(ds, 2)
        assert global_best.subset.indices == (1, 5)
        assert result.cost > global_best.cost

    def test_update_costs_are_non_increasing(self):
        x, y, _ = random_instance(5, 30, 8)
        ds = make_dataset(x, y)
        result = alternating_optimization(ds, 3, FeatureSubset((8, 7, 6)))
        trace = np.array(result.update_costs)
        assert (np.diff(trace) <= 0).all()


class TestMultiRestart:
    def test_negative_seed_rejected(self):
        x, y, _ = random_instance(7, 25, 6)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            multi_restart_search(make_dataset(x, y), 2, runs=3, seed=-1)

    def test_single_run_reduces_to_alternating_from_seeded_init(self):
        x, y, _ = random_instance(7, 25, 6)
        ds = make_dataset(x, y)
        got = multi_restart_search(ds, 2, runs=1, seed=123)
        init = random_subset(run_rng(123, 0), 6, 2)
        expected = alternating_optimization(ds, 2, init)
        assert got.subset.indices == expected.subset.indices
        assert got.cost == expected.cost

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_exhaustive_with_enough_restarts(self, seed):
        x, y, _ = random_instance(seed + 400, 30, 8)
        ds = make_dataset(x, y)
        got = multi_restart_search(ds, 3, runs=200, seed=seed)
        best = exhaustive_best_subset(ds, 3)
        assert got.subset.indices == best.subset.indices
        assert got.cost == pytest.approx(best.cost, rel=1e-10)

    def test_deterministic_for_fixed_seed(self):
        x, y, _ = random_instance(9, 25, 6)
        ds = make_dataset(x, y)
        first = multi_restart_search(ds, 2, runs=30, seed=77)
        second = multi_restart_search(ds, 2, runs=30, seed=77)
        assert first.subset.indices == second.subset.indices
        assert first.cost == second.cost

    def test_doubling_runs_never_hurts(self):
        x, y, _ = random_instance(10, 25, 7)
        ds = make_dataset(x, y)
        for runs in (1, 2, 4, 8, 16):
            few = multi_restart_search(ds, 2, runs=runs, seed=5)
            many = multi_restart_search(ds, 2, runs=2 * runs, seed=5)
            assert many.cost <= few.cost

    def test_subset_reported_ascending(self):
        x, y, _ = random_instance(11, 25, 6)
        ds = make_dataset(x, y)
        result = multi_restart_search(ds, 3, runs=10, seed=3)
        assert list(result.subset.indices) == sorted(result.subset.indices)

    def test_degenerate_restarts_are_counted(self):
        # x1 and x2 are zero columns: a restart that starts on {1, 2} has no
        # finite-cost move, and every other start escapes them
        x, y, _ = random_instance(12, 25, 5)
        x[:, :2] = 0.0
        ds = make_dataset(x, y)
        runs, seed = 40, 6
        stuck = sum(set(random_subset(run_rng(seed, run), 5, 2).indices) == {1, 2}
                    for run in range(runs))
        assert stuck >= 2
        result = multi_restart_search(ds, 2, runs=runs, seed=seed)
        assert result.degenerate_restarts == stuck
        assert math.isfinite(result.cost)
        assert not set(result.subset.indices) & {1, 2}
        clean = multi_restart_search(make_dataset(*random_instance(12, 25, 5)[:2]),
                                     2, runs=runs, seed=seed)
        assert clean.degenerate_restarts == 0
