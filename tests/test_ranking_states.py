"""The states the greedy rankings update at each step (``linmodel._AddState``
for RM1 and RM4, ``linmodel._DropState`` for RM2, RM3 and p-values): how many
factors a ranking takes, the forward state's running norms against
``_certified``'s, the downdates' drift from a fresh factor and the check that
bounds it, ties between equal columns, and the orders of the
one-SVD-fit-per-candidate loops."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varsel import (
    linmodel,
    make_dataset,
    rank_add_max_error,
    rank_backward_elimination,
    rank_forward_selection,
    rank_pvalues,
    rank_remove_max_error,
)
from varsel.linmodel import (
    DOWNDATE_LIMIT,
    _AddState,
    _DropState,
    _factor,
    _usable_features,
)
from varsel.ranking import _pvalues, _stepwise

from conftest import (
    EPS,
    awkward_tables,
    benchmark_table,
    near_duplicate_table,
    random_instance,
    unit_orthogonal_to,
)
from oracles import (
    loop_backward_elimination,
    loop_forward_order,
    loop_pvalues,
    loop_remove_max_error,
    loop_state_certificate,
)

BACKWARD = (
    (rank_backward_elimination, loop_backward_elimination),
    (rank_remove_max_error, loop_remove_max_error),
    (rank_pvalues, loop_pvalues),
)


@st.composite
def state_tables(draw):
    """An ``awkward_tables`` draw or a ``near_duplicate_table`` pair at a
    residual ratio of 10^-10.6 to 10^-9.4, uniform in log."""
    if draw(st.booleans()):
        return draw(awkward_tables())
    seed = draw(st.integers(0, 10_000))
    ratio = 10.0 ** np.random.default_rng(seed).uniform(-10.6, -9.4)
    return near_duplicate_table(seed, ratio)


@st.composite
def wide_tables(draw):
    """Nine to sixteen columns, wider than the eight below which ``np.sum``
    adds in order: Gaussian columns and one to four of a near duplicate of
    column 1 (10^-10 to 10^-3 of its norm off it), a tiny column (10^-12 to
    10^-4 of the others' scale) and a constant column, in a drawn order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plain = draw(st.integers(8, 12))
    n = draw(st.integers(plain + 10, 40))
    columns = [rng.normal(size=n) for _ in range(plain)]
    extra = []
    for kind in draw(st.lists(st.sampled_from(["near", "tiny", "constant"]),
                              min_size=1, max_size=4)):
        if kind == "near":
            off = 10.0 ** draw(st.floats(-10.0, -3.0)) * np.linalg.norm(columns[0])
            extra.append(columns[0] + off * unit_orthogonal_to(rng, columns))
        elif kind == "tiny":
            extra.append(10.0 ** draw(st.floats(-12.0, -4.0)) * rng.normal(size=n))
        else:
            extra.append(np.full(n, draw(st.sampled_from([0.1, 0.3, 2.0]))))
    x = np.column_stack(columns + extra)
    x = x[:, draw(st.permutations(range(x.shape[1])))]
    y = np.column_stack(columns) @ rng.normal(size=plain) + 0.5 * rng.normal(size=n)
    return make_dataset(x, y)


def certified_walk(dataset, largest):
    """Walk RM1 (RM4 if ``largest``) on the forward state, asserting at
    every step that its running ``||[1, X_taken]||_F^2`` and ``||A^-1||_F``
    equal ``loop_state_certificate``'s bit for bit; returns the state and
    the number of steps."""
    state, steps = _AddState(dataset), []

    def price(taken, pool):
        state.follow(taken)
        got = (state.design_norm2, math.sqrt(state.inv_norm2))
        want = loop_state_certificate(state)
        assert np.array(got).tobytes() == np.array(want).tobytes(), (
            largest, state.taken)
        steps.append(len(taken))
        return state.costs()

    _stepwise(state.pool, price, largest)
    return state, len(steps)


class TestForwardCertificate:
    """The forward state's running norms, which its band-edge bound reads,
    are the ones ``_certified`` would take: at every step of RM1 and RM4,
    ``||[1, X_taken]||_F^2`` and ``||A^-1||_F`` equal its formula over the
    state's own ``A^-1``, bit for bit, also once a near-duplicate or tiny
    column has ended the certified run."""

    @settings(max_examples=80, deadline=None)
    @given(dataset=st.one_of(state_tables(), awkward_tables(), wide_tables()))
    def test_every_step_equals_certified(self, dataset):
        for largest in (False, True):
            certified_walk(dataset, largest)

    @pytest.mark.parametrize("largest", [False, True], ids=["rm1", "rm4"])
    def test_every_step_on_the_benchmark_table(self, largest):
        # 122 features: past step 84, where the rank-rule pair enters RM1,
        # the certified run stops, so the factor of the columns taken last
        # certifies no whole design
        table = benchmark_table(1, 122)
        ds = make_dataset(table.features, table.target)
        state, steps = certified_walk(ds, largest)
        assert steps == 122
        assert _factor(ds, tuple(state.taken)).a_inv is None


class TestOneFactorPerRanking:
    """On a certified table no step of a greedy ranking takes a factor, nor
    does its ``error_curve``, which reads the table's QR: the forward
    rankings take none, the backward ones one for the pool."""

    @pytest.mark.parametrize("method, pool_factors", [
        (rank_forward_selection, 0), (rank_add_max_error, 0),
        (rank_backward_elimination, 1), (rank_remove_max_error, 1),
        (rank_pvalues, 1),
    ])
    def test_factor_calls(self, method, pool_factors):
        x, y, _ = random_instance(61, 40, 8)
        ds = make_dataset(x, y)
        assert _factor(ds, tuple(range(1, 9))).a_inv is not None
        with mock.patch.object(linmodel, "_factor", wraps=_factor) as factors:
            method(ds)
        assert factors.call_count == pool_factors
        assert "table_qr" in vars(ds)  # the ranking's error_curve


def walk_backward(dataset, read, largest, visit):
    """Run a backward pass on one ``_DropState``, calling ``visit(state,
    removals)`` before each step is priced; returns the removal order."""
    usable, _ = _usable_features(dataset)
    state = _DropState(dataset, usable)

    def price(taken, pool):
        state.follow(taken)
        visit(state, len(taken))
        return read(state)

    return _stepwise(usable, price, largest)


def assert_close_to_a_fresh_factor(state, removals):
    """A certified state's b, r and diag(B) lie within ``16 eps (kappa +
    s growth)`` of a fresh factor of its pool, relative to ``sqrt(B_ii)
    |y|``, ``|y|`` and ``B_ii``: kappa, the certified bound on the pool's
    condition, covers both factors' own rounding, and s growth, the
    removals times the largest fall of a diagonal since the state's last
    fresh factor, the downdates' (``_DropState``)."""
    if state.fallback is not None:
        return
    fresh = _factor(state.dataset, tuple(state.pool))
    assert fresh.a_inv is not None
    d_fresh = np.einsum("ij,ij->i", fresh.a_inv, fresh.a_inv)
    d = state.gram_inv.diagonal()
    kappa = fresh.a_inv_norm * math.sqrt(fresh.design_norm2)
    growth = float(np.max(state.anchor / d))
    assert growth <= DOWNDATE_LIMIT
    bound = 16 * EPS * (kappa + removals * growth)
    y_norm = float(np.linalg.norm(state.dataset.target))
    assert (np.abs(d - d_fresh) <= bound * d_fresh).all()
    b_fresh = fresh.a_inv @ fresh.qty
    assert (np.abs(state.coefficients - b_fresh)
            <= bound * np.sqrt(d_fresh) * y_norm).all()
    assert np.linalg.norm(state.residuals - fresh.residuals) <= bound * y_norm


class TestDropStateDrift:
    @settings(max_examples=80, deadline=None)
    @given(dataset=state_tables())
    def test_every_step_stays_near_a_fresh_factor(self, dataset):
        for read, largest in ((_DropState.removal_maes, False),
                              (_DropState.removal_maes, True),
                              (_pvalues, True)):
            walk_backward(dataset, read, largest, assert_close_to_a_fresh_factor)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_check_refactors_and_the_orders_hold(self, seed):
        # a certified pool holding a pair at residual ratio 1e-3: once one
        # column of the pair is removed the other's (X^T X)^-1 diagonal
        # falls by about 1e6, past DOWNDATE_LIMIT, and the state takes a
        # fresh factor of the five columns left
        ds = near_duplicate_table(seed, 1e-3)
        assert _factor(ds, tuple(range(1, 7))).a_inv is not None
        for method, loop in BACKWARD:
            with mock.patch.object(linmodel, "_factor", wraps=_factor) as spy:
                got = method(replace(ds))  # a copy: ds keeps its usable pool
            assert len(spy.call_args_list[0].args[1]) == 6
            assert spy.call_count >= 2, method.__name__
            want = loop(ds)
            assert got.raw_order == want.raw_order, method.__name__
            assert got.admissible == want.admissible, method.__name__


class TestTies:
    """Equal columns get prices equal bit for bit wherever their rows sit
    after compaction, and the earliest entry wins."""

    @pytest.mark.parametrize("largest", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_forward_duplicates(self, largest, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, 9))
        x[:, 7] = x[:, 2]
        y = 3.0 * x[:, 0] + x[:, 2] + x[:, 5] + 0.1 * rng.normal(size=30)
        state = _AddState(make_dataset(x, y))
        ties = []

        def price(taken, pool):
            costs = state.follow(taken).costs()
            if 3 in pool:
                ties.append(costs[pool.index(3)] == costs[pool.index(8)])
            return costs

        # no candidate is full-rank once 3 is in: the pass stops, 8 left
        taken = _stepwise(range(1, 10), price, largest)
        assert ties and all(ties)
        assert state.taken.index(3) >= 1  # a row was compacted before
        assert taken == state.taken and 8 not in taken and state.pool == [8]
        ranking = (rank_add_max_error if largest else rank_forward_selection)(
            make_dataset(x, y))
        assert ranking.order[-1] == 8 and ranking.filled_prefixes == (9,)

    def test_backward_duplicates(self):
        # the pool holds an exact copy beside its original, so its first step
        # goes to the SVD rule, where dropping either leaves the same design
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 5))
        x[:, 2] = x[:, 1]
        ds = make_dataset(x, x @ rng.normal(size=5) + 0.3 * rng.normal(size=30))
        state = _DropState(ds, [1, 2, 3, 4, 5])
        assert state.fallback is not None
        first = state.removal_maes()
        assert first[1] == first[2] == first.min()
        removals = _stepwise([1, 2, 3, 4, 5],
                             lambda taken, pool: state.follow(taken).removal_maes(),
                             largest=False)
        assert removals[0] == 2 and state.fallback is None

    @pytest.mark.parametrize("read, largest", [
        (_DropState.removal_maes, False), (_DropState.removal_maes, True),
        (_pvalues, True)])
    def test_backward_zero_target(self, read, largest):
        # a zero target gives b = 0 and r = 0 exactly, and every downdate
        # keeps them so: each step prices every column alike (MAE 0, p 1)
        # and removes the first entry of the compacted pool
        x = np.random.default_rng(8).normal(size=(40, 6))
        x = np.column_stack([x, x[:, 1]])  # a copy, set aside to the tail
        ds = make_dataset(x, np.zeros(40))
        prices = []
        removals = walk_backward(ds, read, largest,
                                 lambda state, _: prices.append(read(state)))
        assert removals == [1, 2, 3, 4, 5, 6]
        assert all((p == p[0]).all() for p in prices)
        for method, loop in BACKWARD:
            got, want = method(ds), loop(ds)
            assert got.raw_order == want.raw_order == (1, 2, 3, 4, 5, 6, 7)
            assert got.admissible == want.admissible


class TestOrdersMatchTheLoops:
    @settings(max_examples=60, deadline=None)
    @given(dataset=state_tables())
    def test_forward(self, dataset):
        # the addition sequence, with the columns a step with no full-rank
        # candidate left at its tail in index order, as the loop leaves them
        rm1, rm4 = rank_forward_selection(dataset), rank_add_max_error(dataset)
        assert list(rm1.order) == loop_forward_order(dataset, False)
        assert list(rm4.raw_order) == loop_forward_order(dataset, True)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_backward_on_near_duplicate_pairs(self, seed):
        ratio = 10.0 ** np.random.default_rng(seed).uniform(-10.6, -9.4)
        ds = near_duplicate_table(seed, ratio)
        for method, loop in BACKWARD:
            got, want = method(ds), loop(ds)
            assert got.raw_order == want.raw_order, method.__name__
            assert got.admissible == want.admissible, method.__name__
            assert got.filled_prefixes == want.filled_prefixes, method.__name__
