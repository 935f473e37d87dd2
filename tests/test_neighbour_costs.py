"""The batched one-position cost kernel against the per-subset SVD path,
and the library loops built on it against their former per-candidate
versions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varsel import (
    CostCache,
    FeatureSubset,
    GibbsConfig,
    InvalidSubsetError,
    RankDeficiencyError,
    alternating_optimization,
    build_design_matrix,
    gibbs_run,
    make_dataset,
    multi_restart_search,
    neighbour_costs,
    rank_add_max_error,
    rank_forward_selection,
    subset_cost,
)
from varsel.linmodel import CERTIFIED_RATIO_CAP, _neighbour_residuals
from varsel.search import random_subset

from conftest import (
    assert_residuals_orthogonal,
    cost_tolerance,
    near_duplicate_table,
    orthogonal_direction,
    random_instance,
)
from oracles import (
    loop_alternating_optimization,
    loop_forward_order,
    loop_gibbs_states,
    loop_multi_restart_search,
)

P_VALUES = st.sampled_from([1.0, 2.0, 0.5, 3.0])
ALPHA_VALUES = st.sampled_from([1.0, 2.0, 0.5])


def svd_costs(dataset, fixed, candidates, p=1.0, alpha=1.0):
    out = []
    for k in candidates:
        try:
            out.append(subset_cost(dataset, FeatureSubset(fixed + (k,)), p, alpha))
        except RankDeficiencyError:
            out.append(math.inf)
    return np.array(out)


def assert_matches_svd(dataset, fixed, p=1.0, alpha=1.0):
    """Kernel costs equal the SVD path's: exactly the same candidates are
    +inf and finite costs agree to ``cost_tolerance``.  Every certified
    candidate has a residual orthogonal to its design and an SVD condition
    above the cap.  Returns the certified mask."""
    fixed = tuple(fixed)
    candidates = [k for k in range(1, dataset.n_features + 1) if k not in fixed]
    got = neighbour_costs(dataset, fixed, candidates, p, alpha)
    want = svd_costs(dataset, fixed, candidates, p, alpha)
    np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
    for k, g, w in zip(candidates, got, want):
        if math.isfinite(w):
            design = build_design_matrix(dataset, FeatureSubset(fixed + (k,))).values
            assert abs(g - w) <= cost_tolerance(dataset, design, p, alpha) * w, (
                k, g, w)
    certified, residuals = _neighbour_residuals(dataset, fixed, candidates)
    for k, res in zip(np.array(candidates)[certified], residuals):
        design = build_design_matrix(dataset, FeatureSubset(fixed + (int(k),))).values
        assert_residuals_orthogonal(design, res, dataset.target)
        sv = np.linalg.svd(design, compute_uv=False)
        assert sv[-1] / sv[0] > CERTIFIED_RATIO_CAP
    return certified


class TestKernelAgainstSvd:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), log_ratio=st.floats(-12.0, -4.0),
           fixed=st.sampled_from([(), (1,), (2,), (1, 3), (4, 2, 5)]),
           p=P_VALUES, alpha=ALPHA_VALUES)
    def test_near_duplicate_columns(self, seed, log_ratio, fixed, p, alpha):
        ds = near_duplicate_table(seed, 10.0**log_ratio)
        assert_matches_svd(ds, fixed, p, alpha)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), log_scale=st.floats(-12.0, 6.0),
           column=st.integers(1, 5), fixed=st.sampled_from([(), (1,), (3, 5)]),
           p=P_VALUES, alpha=ALPHA_VALUES)
    def test_scaled_columns(self, seed, log_scale, column, fixed, p, alpha):
        x, y, _ = random_instance(seed, 30, 5)
        x[:, column - 1] *= 10.0**log_scale
        assert_matches_svd(make_dataset(x, y), fixed, p, alpha)

    @pytest.mark.parametrize("fixed", [(), (1,), (2,), (3,), (4,), (5, 1), (2, 5)])
    def test_constant_and_duplicate_columns(self, fixed):
        # x1 constant (collinear with the intercept), x2 all zeros, x4 an
        # exact copy of x3, x5 ordinary
        rng = np.random.default_rng(8)
        x = rng.normal(size=(25, 5))
        x[:, 0] = 3.5
        x[:, 1] = 0.0
        x[:, 3] = x[:, 2]
        ds = make_dataset(x, rng.normal(size=25))
        assert_matches_svd(ds, fixed)

    def test_rank_deficient_fixed_set_sends_every_candidate_to_svd(self):
        x, y, _ = random_instance(12, 30, 5)
        x[:, 1] = 2.0 * x[:, 0]
        ds = make_dataset(x, y)
        certified = assert_matches_svd(ds, (1, 2))
        assert not certified.any()
        assert np.isinf(neighbour_costs(ds, (1, 2), [3, 4, 5])).all()

    def test_well_conditioned_candidates_are_all_certified(self):
        x, y, _ = random_instance(13, 200, 12)
        certified = assert_matches_svd(make_dataset(x, y), (4, 9, 1))
        assert certified.all()

    def test_candidate_order_is_kept(self):
        x, y, _ = random_instance(14, 30, 6)
        ds = make_dataset(x, y)
        forward = neighbour_costs(ds, (2,), [1, 3, 6])
        backward = neighbour_costs(ds, (2,), [6, 3, 1])
        np.testing.assert_allclose(forward, backward[::-1], rtol=1e-14)

    def test_no_candidates(self):
        x, y, _ = random_instance(15, 30, 4)
        assert neighbour_costs(make_dataset(x, y), (1,), []).shape == (0,)

    @pytest.mark.parametrize("fixed,candidates",
                             [((1,), [1, 2]), ((), [0]), ((), [5]), ((2, 2), [1])])
    def test_invalid_indices_rejected(self, fixed, candidates):
        x, y, _ = random_instance(16, 30, 4)
        with pytest.raises(InvalidSubsetError):
            neighbour_costs(make_dataset(x, y), fixed, candidates)


class TestCacheBatch:
    def test_matches_per_key_lookups(self):
        x, y, _ = random_instance(17, 30, 7)
        ds = make_dataset(x, y)
        batched = CostCache(ds)
        per_key = CostCache(ds)
        rng = np.random.default_rng(0)
        for _ in range(40):
            fixed = tuple(int(k) + 1 for k in rng.permutation(7)[:2])
            candidates = [k for k in range(1, 8) if k not in fixed]
            got = batched.neighbour_costs(fixed, candidates)
            want = [per_key.cost(fixed + (k,)) for k in candidates]
            np.testing.assert_allclose(got, want, rtol=1e-12)
            assert (batched.hits, batched.misses) == (per_key.hits, per_key.misses)
            assert list(batched._store) == list(per_key._store)

    def test_keeps_the_first_stored_value(self):
        # (1, 2) priced by the SVD, then read back by a batch whose kernel
        # prices only its miss (1, 3): the stored value is never replaced
        x, y, _ = random_instance(18, 30, 5)
        ds = make_dataset(x, y)
        cache = CostCache(ds)
        first = cache.cost((2, 1))
        costs = cache.neighbour_costs((1,), [2, 3])
        assert costs[0] == first
        assert (cache.hits, cache.misses) == (1, 2)
        assert len(cache._store) == 2
        np.testing.assert_allclose(costs, svd_costs(ds, (1,), [2, 3]), rtol=1e-12)


class TestCacheRejectsInvalidIndices:
    """A bitmask key forgets order and multiplicity: (1, 1) has the bits of
    (1,), and (1, 2) + (2,) those of (1, 2).  The cache checks the indices
    on every call, so a warm cache raises what a cold one does."""

    CALLS = [
        ("cost", ((1, 1),), "duplicate indices in subset (1, 1)"),
        ("cost", ((2, 1, 2),), "duplicate indices in subset (1, 2, 2)"),
        ("cost", ((-1,),), "indices must be >= 1, got (-1,)"),
        ("cost", ((0, 1),), "indices must be >= 1, got (0, 1)"),
        ("cost", ((6, 1),), "indices [6] outside [1, 5]"),
        ("neighbour_costs", ((1,), [1]), "duplicate indices in subset (1, 1)"),
        ("neighbour_costs", ((1, 2), [2]), "duplicate indices in subset (1, 2, 2)"),
        ("neighbour_costs", ((2, 2), [1]), "duplicate indices in subset (2, 2, 1)"),
        ("neighbour_costs", ((1,), [2, 2]), "duplicate indices in subset (1, 2, 2)"),
        ("neighbour_costs", ((1,), [0]), "indices must be >= 1, got (1, 0)"),
        ("neighbour_costs", ((1,), [-1]), "indices must be >= 1, got (1, -1)"),
        ("neighbour_costs", ((1,), [6]), "indices [6] outside [1, 5]"),
        ("neighbour_costs", ((7,), [2]), "indices [7] outside [1, 5]"),
    ]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("method,args,message", CALLS)
    def test_raises_hit_or_miss(self, warm, method, args, message):
        x, y, _ = random_instance(21, 30, 5)
        cache = CostCache(make_dataset(x, y))
        if warm:  # (1,) and (1, 2) have the bits of the repeated-index calls
            cache.cost((1,))
            cache.neighbour_costs((1,), [2, 3, 4, 5])
        stored = dict(cache._store)
        with pytest.raises(InvalidSubsetError) as raised:
            getattr(cache, method)(*args)
        assert str(raised.value) == message
        assert cache._store == stored


def awkward_table(seed, n=50, r=10):
    """Gaussian table with an ordinary near-duplicate pair (x2 ~ x1) and a
    pair (x4 ~ x3) whose orthogonal residual ratio 1e-9 the SVD rule still
    calls full-rank but the kernel's bound leaves to the SVD."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, r))
    x[:, 1] = x[:, 0] + 0.03 * rng.normal(size=n)
    x[:, 3] = x[:, 2] + 1e-9 * np.linalg.norm(x[:, 2]) * orthogonal_direction(
        rng, x, [2])
    y = x[:, [0, 2, 5, 7]] @ rng.normal(size=4) + 0.5 * rng.normal(size=n)
    return make_dataset(x, y)


TABLES = [
    pytest.param(lambda: make_dataset(*random_instance(19, 40, 9)[:2]), id="gaussian"),
    pytest.param(lambda: awkward_table(20), id="near-duplicates"),
]


class TestEquivalenceWithLoops:
    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize("m", [2, 3])
    def test_alternating_optimization(self, table, m):
        ds = table()
        for seed in range(6):
            init = random_subset(np.random.default_rng(seed), ds.n_features, m)
            got = alternating_optimization(ds, m, init, cache=CostCache(ds))
            subset, cost, sweeps, trace = loop_alternating_optimization(
                ds, m, init, CostCache(ds))
            assert got.subset.indices == subset
            assert got.iterations == sweeps
            np.testing.assert_allclose(got.update_costs, trace, rtol=1e-12)

    @pytest.mark.parametrize("table", TABLES)
    def test_multi_restart_search(self, table):
        ds = table()
        got = multi_restart_search(ds, 3, runs=8, seed=5, cache=CostCache(ds))
        subset, cost, iterations = loop_multi_restart_search(
            ds, 3, 8, 5, CostCache(ds))
        assert got.subset.indices == subset
        assert got.iterations == iterations
        assert got.cost == pytest.approx(cost, rel=1e-12)

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize("eta", [1.0, 30.0])
    def test_gibbs_chain_states(self, table, eta):
        ds = table()
        config = GibbsConfig(m=3, eta=eta, sweeps=40, seed=9)
        chain = gibbs_run(ds, config, cache=CostCache(ds))
        assert chain.states == loop_gibbs_states(ds, config, CostCache(ds))

    @pytest.mark.parametrize("table", TABLES)
    def test_cache_counters_after_search_then_gibbs(self, table):
        ds = table()
        config = GibbsConfig(m=3, eta=1.0, sweeps=20, seed=2)
        library, loop = CostCache(ds), CostCache(ds)
        multi_restart_search(ds, 3, runs=5, seed=1, cache=library)
        gibbs_run(ds, config, cache=library)
        loop_multi_restart_search(ds, 3, 5, 1, loop)
        loop_gibbs_states(ds, config, loop)
        assert (library.hits, library.misses) == (loop.hits, loop.misses)
        # every miss stores a new key: no subset is priced twice
        assert library.misses == len(library._store)

    @pytest.mark.parametrize("table", TABLES)
    def test_forward_rankings(self, table):
        ds = table()
        assert list(rank_forward_selection(ds).order) == loop_forward_order(ds, False)
        assert list(rank_add_max_error(ds).raw_order) == loop_forward_order(ds, True)
