"""The certified factor (``linmodel._factor``) against the per-candidate
paths it replaces: removal MAEs of RM2/RM3 against one SVD fit per removal,
coefficient p-values against the former two-factor computation, and the
unchanged fallback of a pool the bound does not certify; and its drop
direction (``_DropState.removal_maes``) against its add direction
(``neighbour_costs``)."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import t as student_t

from varsel import (
    ConfigError,
    FeatureSubset,
    RankDeficiencyError,
    build_design_matrix,
    coefficient_pvalues,
    fit_subset,
    make_dataset,
    neighbour_costs,
    rank_backward_elimination,
    rank_pvalues,
    rank_remove_max_error,
)
from varsel import linmodel
from varsel.linmodel import (
    CERTIFIED_RATIO_CAP,
    _DropState,
    _factor,
)

from conftest import (
    assert_residuals_orthogonal,
    cost_tolerance,
    near_duplicate_table,
    random_instance,
)
from oracles import (
    loop_backward_elimination,
    loop_coefficient_pvalues,
    loop_pvalues,
    loop_remove_max_error,
)

POOLS = st.sampled_from([(1,), (1, 2), (2, 3), (1, 2, 3), (3, 5), (2, 4, 5, 6),
                         (1, 2, 3, 4, 5, 6)])


def loop_removal_maes(dataset, pool):
    """MAE of the pool without each entry, one SVD fit each; +inf when the
    rest is rank-deficient."""
    maes = []
    for i in range(len(pool)):
        try:
            maes.append(fit_subset(dataset, FeatureSubset(pool[:i] + pool[i + 1:])).mae)
        except RankDeficiencyError:
            maes.append(math.inf)
    return np.array(maes)


def outcome(function, *args):
    """The function's value, or the type of the error it raised."""
    try:
        return function(*args)
    except (RankDeficiencyError, ConfigError) as exc:
        return type(exc)


def assert_pvalues_close(dataset, pool, got, want, design):
    """p-values agree as their t statistics do: |dt| within
    ``cost_tolerance`` of 1 + |t|, which moves p by at most that times
    (1 + t^2) relative (Mills' ratio).  Underflowed p-values stay tiny."""
    dof = dataset.n_rows - len(pool) - 1
    tol = cost_tolerance(dataset, design, 1.0, 1.0)
    for g, w in zip(got, want):
        if w < 1e-250:
            assert g < 1e-200, (pool, g, w)
            continue
        t = student_t.isf(w / 2.0, dof)
        assert abs(g - w) <= 4.0 * tol * (1.0 + t * t) * w, (pool, g, w)


def assert_pool_matches(dataset, pool):
    """A certified pool prices every removal and every p-value as the
    per-candidate paths do, within ``cost_tolerance``, and its design's true
    sigma ratio exceeds the cap; an uncertified pool gives exactly the values
    and errors of those paths.  Returns whether the pool was certified."""
    pool = tuple(pool)
    factor = _factor(dataset, pool)
    got = _DropState(dataset, pool).removal_maes()
    want = loop_removal_maes(dataset, pool)
    got_p = outcome(coefficient_pvalues, dataset, pool)
    want_p = outcome(loop_coefficient_pvalues, dataset, pool)
    if factor.a_inv is None:
        np.testing.assert_array_equal(got, want)
        if isinstance(want_p, type):
            assert got_p is want_p
        else:
            np.testing.assert_array_equal(got_p, want_p)
        return False

    design = build_design_matrix(dataset, FeatureSubset(pool)).values
    sv = np.linalg.svd(design, compute_uv=False)
    assert sv[-1] / sv[0] > CERTIFIED_RATIO_CAP
    assert_residuals_orthogonal(design, factor.residuals, dataset.target)
    assert np.isfinite(want).all()
    for j, (g, w) in enumerate(zip(got, want)):
        rest = np.delete(design, j + 1, axis=1)
        assert abs(g - w) <= cost_tolerance(dataset, rest, 1.0, 1.0) * w, (j, g, w)
    assert_pvalues_close(dataset, pool, got_p, want_p, design)
    return True


class TestCertifiedFactorAgainstLoops:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), log_ratio=st.floats(-12.0, -4.0),
           pool=POOLS)
    def test_near_duplicate_columns(self, seed, log_ratio, pool):
        assert_pool_matches(near_duplicate_table(seed, 10.0**log_ratio), pool)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), log_scale=st.floats(-12.0, 6.0),
           column=st.integers(1, 6), pool=POOLS)
    def test_scaled_columns(self, seed, log_scale, column, pool):
        x, y, _ = random_instance(seed, 30, 6)
        x[:, column - 1] *= 10.0**log_scale
        assert_pool_matches(make_dataset(x, y), pool)

    @pytest.mark.parametrize("pool", [(1,), (2,), (3, 4), (1, 5), (2, 5),
                                      (3, 4, 5), (1, 2, 3, 4, 5), (5,),
                                      (3, 5), (4, 5)])
    def test_constant_zero_and_duplicate_columns(self, pool):
        # x1 constant (collinear with the intercept), x2 all zeros, x4 an
        # exact copy of x3, x5 ordinary: a pool holding x1, x2 or both
        # copies is left to the fallback
        rng = np.random.default_rng(8)
        x = rng.normal(size=(25, 5))
        x[:, 0] = 3.5
        x[:, 1] = 0.0
        x[:, 3] = x[:, 2]
        ds = make_dataset(x, rng.normal(size=25))
        degenerate = bool(set(pool) & {1, 2}) or {3, 4} <= set(pool)
        assert assert_pool_matches(ds, pool) is not degenerate

    def test_both_routes_are_taken(self):
        assert assert_pool_matches(near_duplicate_table(3, 1e-3), (1, 2, 3))
        assert not assert_pool_matches(near_duplicate_table(3, 1e-9), (1, 2, 3))

    def test_norm_bound_rejects_what_the_diagonal_passes(self):
        # design = Q K with K a 30 x 30 Kahan matrix: every |R_kk| is above
        # 2e-3 of the design's norm, but sigma_min / sigma_max is 4.5e-8,
        # below the cap (and above the SVD rule's 1e-10)
        n, c = 60, 0.5
        s = math.sqrt(1.0 - c * c)
        kahan = np.diag(s ** np.arange(30)) @ (
            np.eye(30) - c * np.triu(np.ones((30, 30)), 1))
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, 29))]))
        design = math.sqrt(n) * (q * np.sign(q[0, 0])) @ kahan
        ds = make_dataset(design[:, 1:], rng.normal(size=n))
        pool = tuple(range(1, 30))
        diagonal = np.abs(np.diag(np.linalg.qr(design, mode="r")))
        assert diagonal.min() > 2e-3 * np.linalg.norm(design)
        assert _factor(ds, pool).a_inv is None
        assert not assert_pool_matches(ds, pool)
        assert np.isfinite(_DropState(ds, pool).removal_maes()).all()

    def test_degrees_of_freedom_and_rank_errors_as_before(self):
        x, y, _ = random_instance(21, 7, 6)
        square = make_dataset(x, y)  # N = M + 1: a full-rank fit, no dof
        assert _factor(square, tuple(range(1, 7))).a_inv is not None
        with pytest.raises(ConfigError):
            coefficient_pvalues(square, tuple(range(1, 7)))
        x[:, 5] = x[:, 4]
        with pytest.raises(RankDeficiencyError):
            coefficient_pvalues(make_dataset(x, y), (5, 6))


def assert_add_and_drop_agree(dataset, pool):
    """On a certified pool the drop and add directions price the same fit:
    for every j and every other entry i, N times entry j of
    ``_DropState.removal_maes`` (the fit on the pool without j) equals
    ``neighbour_costs`` of the pool without i and j plus i, within
    ``cost_tolerance``.  Returns how many of those additions the factor
    decided itself, with no small factor and no SVD fit."""
    pool = tuple(pool)
    if _factor(dataset, pool).a_inv is None:
        return 0
    dropped = dataset.n_rows * _DropState(dataset, pool).removal_maes()
    decided = 0
    with mock.patch.object(linmodel, "_small_factor_ratios",
                           wraps=linmodel._small_factor_ratios) as small, \
            mock.patch.object(linmodel, "_svd_costs", wraps=linmodel._svd_costs) as svd:
        for j in range(len(pool)):
            rest = pool[:j] + pool[j + 1:]
            design = build_design_matrix(dataset, FeatureSubset(rest)).values
            tol = cost_tolerance(dataset, design, 1.0, 1.0)
            for i, k in enumerate(rest):
                others = rest[:i] + rest[i + 1:]
                opened = small.call_count + svd.call_count
                added = neighbour_costs(dataset, others, [k])[0]
                assert abs(dropped[j] - added) <= tol * added, (pool, j, k)
                decided += small.call_count + svd.call_count == opened
    return decided


class TestAddAndDropAgree:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), log_ratio=st.floats(-12.0, -4.0),
           pool=POOLS)
    def test_near_duplicate_columns(self, seed, log_ratio, pool):
        assert_add_and_drop_agree(near_duplicate_table(seed, 10.0**log_ratio), pool)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), log_scale=st.floats(-12.0, 6.0),
           column=st.integers(1, 6), pool=POOLS)
    def test_scaled_columns(self, seed, log_scale, column, pool):
        x, y, _ = random_instance(seed, 30, 6)
        x[:, column - 1] *= 10.0**log_scale
        assert_add_and_drop_agree(make_dataset(x, y), pool)

    def test_the_factor_decides_both_directions(self):
        pool = (1, 2, 3, 4, 5, 6)
        assert assert_add_and_drop_agree(near_duplicate_table(3, 1e-3), pool) == 30


class TestBackwardRankingsOnNearDuplicates:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), log_ratio=st.floats(-12.0, -2.0))
    def test_orders_match_the_former_loops(self, seed, log_ratio):
        ds = near_duplicate_table(seed, 10.0**log_ratio)
        pairs = ((rank_backward_elimination, loop_backward_elimination),
                 (rank_remove_max_error, loop_remove_max_error),
                 (rank_pvalues, loop_pvalues))
        for method, loop in pairs:
            got, want = method(ds), loop(ds)
            assert got.raw_order == want.raw_order, method.__name__
            assert got.admissible == want.admissible, method.__name__
