"""The batched one-position cost kernel against the per-subset SVD path,
and the library loops built on it against their former per-candidate
versions."""

import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from varsel import (
    CostCache,
    FeatureSubset,
    GibbsConfig,
    InvalidSubsetError,
    RankDeficiencyError,
    alternating_optimization,
    build_design_matrix,
    exhaustive_best_subset,
    gibbs_run,
    make_dataset,
    multi_restart_search,
    neighbour_costs,
    rank_add_max_error,
    rank_forward_selection,
    subset_cost,
)
from varsel import linmodel
from varsel.linmodel import (
    RANK_BAND,
    RANK_RCOND,
    _AddState,
    _factor,
    _neighbour_residuals,
    _project_out,
)
from varsel.search import EXHAUSTIVE_BUDGET, all_subset_costs, random_subset

from conftest import (
    EPS,
    PREFIX_BOUND,
    assert_residuals_orthogonal,
    awkward_tables,
    benchmark_table,
    cost_tolerance,
    near_duplicate_table,
    orthogonal_direction,
    random_instance,
)
from oracles import (
    LoopCostCache,
    exact_prefix_fits,
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
    +inf and finite costs agree to ``cost_tolerance``.  Every candidate the
    kernel updates has a residual orthogonal to its design.  The SVD ratio
    of every updated candidate clears ``RANK_RCOND`` by half the band, and
    that of every candidate called rank-deficient falls short of it by half
    the band.  Returns the updated mask."""
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
    updated, singular, residuals = _neighbour_residuals(dataset, fixed, candidates)
    assert not (updated & singular).any()

    def design_ratio(k):
        design = build_design_matrix(dataset, FeatureSubset(fixed + (int(k),))).values
        sv = np.linalg.svd(design, compute_uv=False)
        return design, sv[-1] / sv[0]

    for k, res in zip(np.array(candidates)[updated], residuals):
        design, ratio = design_ratio(k)
        assert_residuals_orthogonal(design, res, dataset.target)
        assert ratio > RANK_RCOND * math.sqrt(RANK_BAND)
    for k in np.array(candidates)[singular]:
        assert design_ratio(k)[1] < RANK_RCOND / math.sqrt(RANK_BAND)
    return updated


def count_calls(name):
    """Patch ``linmodel.<name>`` with a spy that still calls it."""
    return mock.patch.object(linmodel, name, wraps=getattr(linmodel, name))


def in_band_table(seed):
    """A ``near_duplicate_table`` whose design ``[1, x1, x2]`` has
    sigma_min / sigma_max at ``RANK_RCOND`` to within about 1e-6: that
    ratio is linear in the drawn residual ratio this close to zero."""
    def design_ratio(ratio):
        ds = near_duplicate_table(seed, ratio)
        sv = np.linalg.svd(build_design_matrix(ds, FeatureSubset((1, 2))).values,
                           compute_uv=False)
        return sv[-1] / sv[0]

    return near_duplicate_table(seed, 1e-9 * RANK_RCOND / design_ratio(1e-9))


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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), log_ratio=st.floats(-10.5, -9.5),
           fixed=st.sampled_from([(), (1,), (2,), (1, 3), (4, 2, 5)]),
           p=P_VALUES, alpha=ALPHA_VALUES)
    def test_near_threshold_columns(self, seed, log_ratio, fixed, p, alpha):
        # the pair's design ratio straddles RANK_RCOND: the small factors
        # must call exactly the SVD rule's candidates rank-deficient
        ds = near_duplicate_table(seed, 10.0**log_ratio)
        assert_matches_svd(ds, fixed, p, alpha)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_in_band_candidate_goes_to_the_svd(self, seed):
        ds = in_band_table(seed)
        sv = np.linalg.svd(build_design_matrix(ds, FeatureSubset((1, 2))).values,
                           compute_uv=False)
        assert RANK_RCOND / RANK_BAND < sv[-1] / sv[0] <= RANK_RCOND * RANK_BAND
        with count_calls("_svd_costs") as svd:
            got = neighbour_costs(ds, (1,), [2, 3, 4])
        svd.assert_called_once()
        assert svd.call_args.args[1] == [(1, 2)]
        np.testing.assert_array_equal(np.isinf(got), np.isinf(svd_costs(ds, (1,), [2, 3, 4])))
        assert_matches_svd(ds, (1,))

    def test_rank_deficient_fixed_set_makes_every_candidate_inf_without_svd(self):
        x, y, _ = random_instance(12, 30, 5)
        x[:, 1] = 2.0 * x[:, 0]
        ds = make_dataset(x, y)
        updated = assert_matches_svd(ds, (1, 2))
        assert not updated.any()
        with count_calls("_svd_costs") as svd:
            costs = neighbour_costs(ds, (1, 2), [3, 4, 5])
        assert np.isinf(costs).all()
        svd.assert_not_called()

    def test_uncertified_fixed_set_is_decided_by_small_factors(self):
        # (1, 2) fails the certificate at a residual ratio of 1e-9 but is
        # full-rank: every candidate takes the rank-one update.  Its A fails
        # the diagonal guard, so no inverse is taken and no bound is read at
        # the band edge: every candidate goes to its small factor
        ds = near_duplicate_table(4, 1e-9)
        factor = linmodel._factor(ds, (1, 2))
        assert factor.a_inv is None and math.isinf(factor.a_inv_norm)
        with count_calls("_small_factor_ratios") as small, \
                count_calls("_svd_costs") as svd:
            updated = assert_matches_svd(ds, (1, 2))
        assert updated.all()
        assert [len(call.args[1]) for call in small.call_args_list] == [4, 4]
        svd.assert_not_called()

    def test_the_band_edge_bound_leaves_a_candidate_to_its_small_factor(self):
        # a forward state past the pair (1, 2) at a residual ratio of 1e-9:
        # its design is not certified, but the state's ||A^-1||_F bounds
        # every candidate's sigma_min.  Columns 4 to 6 clear the band's edge
        # by that bound; column 3, mostly along x1 (|c| >> |z|), does not,
        # and its small factor shows it full-rank
        ds = near_duplicate_table(0, 1e-9)
        x = ds.features.copy()
        x[:, 2] = x[:, 0] + 0.1 * x[:, 2]
        ds = make_dataset(x, ds.target)
        state = _AddState(ds).follow([1, 2])
        with count_calls("_decide_and_update") as decide, \
                count_calls("_small_factor_ratios") as small, \
                count_calls("_svd_costs") as svd:
            updated, singular, _ = state.fits()
            costs = state.costs()
        assert decide.call_args.args[0].a_inv is None
        assert updated.all() and not singular.any()
        open_rows = [call.args[1] for call in small.call_args_list]
        assert [len(c) for c in open_rows] == [1, 1]
        assert open_rows[0].tobytes() == state.c[0, :state.width].tobytes()
        svd.assert_not_called()
        want = svd_costs(ds, (1, 2), [3, 4, 5, 6])
        for k, got, w in zip([3, 4, 5, 6], costs, want):
            design = build_design_matrix(ds, FeatureSubset((1, 2, k))).values
            assert abs(got - w) <= cost_tolerance(ds, design, 1.0, 1.0) * w, k

    @pytest.mark.parametrize("entries", [1, 2 * 16 + 1, 3 * 16])
    def test_stack_blocks_give_the_same_bits(self, entries):
        # 3 fixed columns: each small factor has 16 entries, so blocks of
        # 1, 2 and 3 of the 10 candidates; every ratio equals that of its
        # own factor, built and factored alone
        rng = np.random.default_rng(6)
        a = np.triu(rng.normal(size=(3, 3)))
        c, zeta = rng.normal(size=(10, 3)), 10.0 ** rng.uniform(-12, 0, size=10)
        alone = []
        for ck, zk in zip(c, zeta):
            sv = np.linalg.svd(np.block([[a, ck[:, None]], [np.zeros((1, 3)), zk]]),
                               compute_uv=False)
            alone.append(sv[-1] / sv[0])
        ds = near_duplicate_table(5, 1e-9, r=12)
        fixed, candidates = (1, 2), list(range(3, 13))
        want = neighbour_costs(ds, fixed, candidates, 0.5, 2.0)
        with mock.patch.object(linmodel, "FACTOR_BLOCK_ENTRIES", entries):
            ratios = linmodel._small_factor_ratios(a, c, zeta)
            got = neighbour_costs(ds, fixed, candidates, 0.5, 2.0)
        assert ratios.tobytes() == np.array(alone).tobytes()
        assert got.tobytes() == want.tobytes()

    def test_well_conditioned_candidates_are_all_decided_by_the_bound(self):
        x, y, _ = random_instance(13, 200, 12)
        with count_calls("_small_factor_ratios") as small, \
                count_calls("_svd_costs") as svd:
            updated = assert_matches_svd(make_dataset(x, y), (4, 9, 1))
        assert updated.all()
        assert not small.called and not svd.called

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


PROJECTION_TABLES = [
    pytest.param(lambda: make_dataset(*random_instance(22, 40, 6)[:2]), False,
                 id="gaussian-40"),
    pytest.param(lambda: make_dataset(*random_instance(23, 300, 6)[:2]), False,
                 id="gaussian-300"),
    pytest.param(lambda: near_duplicate_table(24, 1e-3), True, id="pair-1e-3"),
    pytest.param(lambda: near_duplicate_table(25, 1e-3, n=300), True,
                 id="pair-1e-3-300"),
] + [
    pytest.param(lambda u=u: near_duplicate_table(26, 10.0**u), True,
                 id=f"pair-1e{u}")
    for u in (-10.6, -10.2, -9.8, -9.4)
]
PROJECTION_FIXED = [(), (1,), (2,), (1, 3), (4, 2, 5)]


def projected_candidates(dataset, fixed):
    """The Q of the fixed columns, every other column x as a row and
    ``|x|^2``, and ``_project_out``'s ``(c, |z|^2)`` and projected rows z,
    as the kernel projects them."""
    q = _factor(dataset, fixed).q
    rows = np.array([k - 1 for k in range(1, dataset.n_features + 1)
                     if k not in fixed])
    x = dataset.features.T[rows]
    norm2 = dataset.column_norm2[rows]
    z = x.copy()
    c, zeta2 = _project_out(q, z, norm2)
    return q, x, norm2, c, zeta2, z


class TestOnePassProjection:
    """``_project_out`` given the rows' squared norms: one Gram-Schmidt
    pass, and a second only for the rows that kept less than half their
    squared norm."""

    @pytest.mark.parametrize("table,has_pair", PROJECTION_TABLES)
    def test_second_pass_only_where_the_first_lost_half(self, table, has_pair):
        ds = table()
        both = np.zeros(2, dtype=bool)  # a one-pass row seen, a two-pass row seen
        for fixed in PROJECTION_FIXED:
            q, x, norm2, c, zeta2, z = projected_candidates(ds, fixed)
            c1 = x @ q
            z1 = x - c1 @ q.T
            twice = np.einsum("ij,ij->i", z1, z1) < 0.5 * norm2
            # the pair's second column after its first, or the first after
            # the second, is all the branch takes
            candidates = [k for k in range(1, ds.n_features + 1) if k not in fixed]
            pair = [has_pair and {1, 2} <= set(fixed + (k,)) for k in candidates]
            np.testing.assert_array_equal(twice, pair)
            assert z[~twice].tobytes() == z1[~twice].tobytes()
            assert c[~twice].tobytes() == c1[~twice].tobytes()
            again = z1[twice]
            c2 = again @ q
            again -= c2 @ q.T
            assert z[twice].tobytes() == again.tobytes()
            assert c[twice].tobytes() == (c1[twice] + c2).tobytes()
            assert zeta2.tobytes() == np.einsum("ij,ij->i", z, z).tobytes()
            both |= [(~twice).any(), twice.any()]
        assert both.tolist() == [True, has_pair]

    @pytest.mark.parametrize("table,has_pair", PROJECTION_TABLES)
    def test_rows_are_orthogonal_to_q(self, table, has_pair):
        # one pass leaves a row within sqrt(N) eps |x| of orthogonal to Q,
        # two passes within sqrt(N) eps |z|; and x = Q c + z to sqrt(N) eps |x|
        ds = table()
        bound = math.sqrt(ds.n_rows) * EPS
        for fixed in PROJECTION_FIXED:
            q, x, norm2, c, zeta2, z = projected_candidates(ds, fixed)
            x_norm = np.sqrt(norm2)
            loss = np.abs(z @ q).max(axis=1)
            assert (loss <= bound * x_norm).all(), (fixed, loss / (EPS * x_norm))
            twice = zeta2 < 0.5 * norm2  # a one-pass row keeps at least half
            assert (loss[twice] <= bound * np.sqrt(zeta2[twice])).all(), fixed
            rebuilt = np.abs(x - (c @ q.T + z)).max(axis=1)
            assert (rebuilt <= bound * x_norm).all(), fixed

    @pytest.mark.parametrize("table,has_pair", PROJECTION_TABLES)
    def test_costs_within_the_bound_of_an_exact_solve(self, table, has_pair):
        # p = 1 prices N * MAE and p = alpha = 2 prices N * MSE; each lies
        # within PREFIX_BOUND eps cond ||y|| of the 50-digit fit's residual
        ds = table()
        n, y_norm = ds.n_rows, float(np.linalg.norm(ds.target))
        for fixed in PROJECTION_FIXED:
            candidates = [k for k in range(1, ds.n_features + 1) if k not in fixed]
            l1 = neighbour_costs(ds, fixed, candidates)
            l2 = neighbour_costs(ds, fixed, candidates, 2.0, 2.0)
            for k, sum_abs, sum_sq in zip(candidates, l1, l2):
                if math.isinf(sum_abs):
                    continue
                (mae, mse, cond), = exact_prefix_fits(ds, fixed + (k,),
                                                      [len(fixed) + 1])
                delta = PREFIX_BOUND * EPS * cond * y_norm
                assert abs(sum_abs / n - mae) <= delta + 4 * EPS * mae, (fixed, k)
                mse_tol = delta * (2.0 * math.sqrt(mse) + delta) + 4 * EPS * mse
                assert abs(sum_sq / n - mse) <= mse_tol, (fixed, k)


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
        # (1, 2) priced by a miss of its own, one kernel call with fixed
        # (1,) and the one candidate 2, then read back by a batch whose
        # kernel call prices only its miss (1, 3): the stored value is never
        # replaced
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

    @pytest.mark.parametrize("indices", [("2", 3), (3, "2"), (None, 1)])
    def test_indices_that_do_not_compare_raise_before_any_sort(self, indices):
        # a string beside an int cannot be sorted: the key is taken, and
        # the indices checked, before anything orders them
        x, y, _ = random_instance(21, 30, 5)
        cache = CostCache(make_dataset(x, y))
        with pytest.raises(InvalidSubsetError, match="must be integers"):
            cache.cost(indices)
        assert (cache.hits, cache.misses, cache._store) == (0, 0, {})

    def test_a_miss_is_priced_on_ascending_columns(self):
        # every ordering shares one key, and the miss that stores it is the
        # kernel's price of the sorted subset, bit for bit: its largest
        # index the one candidate, with no SVD fit on a full-rank table
        x, y, _ = random_instance(22, 30, 5)
        ds = make_dataset(x, y)
        want = neighbour_costs(ds, (1, 3), [4])[0]
        design = build_design_matrix(ds, FeatureSubset((1, 3, 4))).values
        svd = subset_cost(ds, FeatureSubset((1, 3, 4)))
        assert abs(want - svd) <= cost_tolerance(ds, design, 1.0, 1.0) * svd
        for order in [(4, 1, 3), (3, 4, 1)]:
            cache = CostCache(ds)
            with count_calls("_neighbour_residuals") as kernel, \
                    count_calls("_svd_costs") as svd_fits:
                assert cache.cost(order) == want
                assert cache.cost((1, 3, 4)) == cache.cost(order)
            assert [call.args[1:] for call in kernel.call_args_list] == [((1, 3), [4])]
            svd_fits.assert_not_called()
            assert (cache.hits, cache.misses) == (2, 1)


def loop_subset_costs(dataset, m):
    """``(key, cost)`` of every size-m ascending index tuple in
    ``combinations`` order, each priced by its own SVD fit (+inf when
    rank-deficient): the enumeration before it was grouped."""
    svd = LoopCostCache(dataset).svd_cost
    return [(key, svd(key))
            for key in combinations(range(1, dataset.n_features + 1), m)]


class TestGroupedEnumeration:
    """``search.all_subset_costs`` prices each group of subsets that share
    their first m - 1 indices by one kernel call, against the loop that
    fits every subset by SVD."""

    @settings(max_examples=40, deadline=None)
    @given(dataset=awkward_tables(), m=st.integers(0, 3))
    def test_matches_the_per_subset_loop(self, dataset, m):
        # near-duplicate, duplicate and zero columns: +inf subsets, and
        # subsets whose designs are one another's columns in another order
        assume(m <= dataset.n_features)
        count = math.comb(dataset.n_features, m)
        want = loop_subset_costs(dataset, m)
        cache = CostCache(dataset)
        got = list(all_subset_costs(cache, m, EXHAUSTIVE_BUDGET))
        assert [key for key, _ in got] == [key for key, _ in want]
        assert (cache.hits, cache.misses) == (0, count)
        costs = np.array([cost for _, cost in got])
        loop = np.array([cost for _, cost in want])
        np.testing.assert_array_equal(np.isinf(costs), np.isinf(loop))
        tolerance = np.full(count, math.inf)
        for i, (key, _) in enumerate(want):
            if math.isfinite(loop[i]):
                design = build_design_matrix(dataset, FeatureSubset(key)).values
                tolerance[i] = cost_tolerance(dataset, design, 1.0, 1.0) * loop[i]
                assert abs(costs[i] - loop[i]) <= tolerance[i], (key, costs[i], loop[i])
        assert list(all_subset_costs(cache, m, EXHAUSTIVE_BUDGET)) == got
        assert (cache.hits, cache.misses) == (count, count)
        if not np.isfinite(loop).any():
            return
        # The first minimum in lexicographic order wins, of costs as each
        # route computes them.  A subset whose design holds the same
        # columns as another's in another order (an exact copy in place of
        # its original) has that subset's cost only up to rounding, on
        # either route, so either may be the minimum: the loop's first
        # minimum is the library's wherever it leads every other subset by
        # more than the tolerance, and the library's is within the
        # tolerance of it everywhere.
        best = exhaustive_best_subset(dataset, m, cache=cache)
        chosen = [key for key, _ in want].index(best.subset.indices)
        first = int(np.argmin(loop))
        assert best.cost == costs[chosen] == costs.min()
        runner_up = np.delete(loop, first).min(initial=math.inf)
        if runner_up - loop[first] > tolerance[first]:
            assert chosen == first
        else:
            assert loop[chosen] - loop[first] <= max(tolerance[chosen],
                                                     tolerance[first])

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_one_kernel_call_per_group(self, m):
        # a full-rank table: no SVD fit, one kernel call on each head with
        # every larger index its candidates, and none on a second pass
        x, y, _ = random_instance(23, 30, 7)
        ds = make_dataset(x, y)
        cache = CostCache(ds)
        with count_calls("_neighbour_residuals") as kernel, \
                count_calls("_svd_costs") as svd:
            keys = [key for key, _ in all_subset_costs(cache, m, EXHAUSTIVE_BUDGET)]
            heads = dict.fromkeys(key[:-1] for key in keys) if m else {}
            assert [call.args[1:] for call in kernel.call_args_list] == [
                (head, list(range(max(head, default=0) + 1, 8))) for head in heads]
            kernel.reset_mock()
            list(all_subset_costs(cache, m, EXHAUSTIVE_BUDGET))
            kernel.assert_not_called()
        svd.assert_not_called()
        assert len(keys) == math.comb(7, m)


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
                ds, m, init, LoopCostCache(ds))
            assert got.subset.indices == subset
            assert got.iterations == sweeps
            np.testing.assert_allclose(got.update_costs, trace, rtol=1e-12)

    @pytest.mark.parametrize("table", TABLES)
    def test_multi_restart_search(self, table):
        ds = table()
        got = multi_restart_search(ds, 3, runs=8, seed=5, cache=CostCache(ds))
        subset, cost, iterations = loop_multi_restart_search(
            ds, 3, 8, 5, LoopCostCache(ds))
        assert got.subset.indices == subset
        assert got.iterations == iterations
        assert got.cost == pytest.approx(cost, rel=1e-12)

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize("eta", [1.0, 30.0])
    def test_gibbs_chain_states(self, table, eta):
        ds = table()
        config = GibbsConfig(m=3, eta=eta, sweeps=40, seed=9)
        chain = gibbs_run(ds, config, cache=CostCache(ds))
        assert chain.states == loop_gibbs_states(ds, config, LoopCostCache(ds))

    @pytest.mark.parametrize("table", TABLES)
    def test_cache_counters_after_search_then_gibbs(self, table):
        ds = table()
        config = GibbsConfig(m=3, eta=1.0, sweeps=20, seed=2)
        library, loop = CostCache(ds), LoopCostCache(ds)
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


class TestForwardRankingsOnTheBenchmarkTable:
    """On the benchmark-shaped 1213 x 30 table the forward rankings take
    both columns of its near-rank-deficient pair; after that no fixed set
    is certified, the bound read at the band edge decides all but a few
    candidates and their small factors decide those, with no SVD fit."""

    @pytest.mark.parametrize("largest, uncertified, opened", [
        (False, 3, [1]), (True, 120, [1, 1]),
    ], ids=["rm1", "rm4"])
    def test_orders_match_the_loop_without_svd_fits(self, largest, uncertified,
                                                     opened):
        table = benchmark_table(1, 30)
        ds = make_dataset(table.features, table.target)
        rank = rank_add_max_error if largest else rank_forward_selection
        with count_calls("_decide_and_update") as decide, \
                count_calls("_small_factor_ratios") as small, \
                count_calls("_svd_costs") as svd:
            added = rank(ds).raw_order if largest else rank(ds).order
        assert list(added) == loop_forward_order(ds, largest)
        pair_in = max(added.index(k) for k in table.rank_rule_pair)
        assert pair_in < len(added) - 1
        # one step a column taken; every step after the pair entered prices
        # a fixed set the bound does not certify, whose ||A^-1||_F the state
        # still gives
        late = [call.args for call in decide.call_args_list[pair_in + 1:]]
        assert len(late) == len(added) - 1 - pair_in
        assert all(f.a_inv is None and math.isfinite(f.a_inv_norm) for f, *_ in late)
        assert sum(len(c) for _, c, *_ in late) == uncertified
        assert [len(call.args[1]) for call in small.call_args_list] == opened
        svd.assert_not_called()


class TestSearchAndGibbsOnTheBenchmarkTable:
    """The search and Gibbs stages of the benchmark on its own 1213 x 122
    table, whose correlated columns send some candidates of most kernel
    calls through a second projection pass: m = 7, three restarts, then
    a chain at eta = 1 on the same cache."""

    def test_match_the_loops(self):
        table = benchmark_table(1, 122)
        ds = make_dataset(table.features, table.target)
        library, loop = CostCache(ds), LoopCostCache(ds)
        got = multi_restart_search(ds, 7, runs=3, seed=1, cache=library)
        subset, cost, iterations = loop_multi_restart_search(ds, 7, 3, 1, loop)
        assert got.subset.indices == subset
        assert got.iterations == iterations
        assert got.cost == pytest.approx(cost, rel=1e-12)
        config = GibbsConfig(m=7, eta=1.0, sweeps=3, seed=1)
        chain = gibbs_run(ds, config, cache=library)
        assert chain.states == loop_gibbs_states(ds, config, loop)
        assert (library.hits, library.misses) == (loop.hits, loop.misses)
