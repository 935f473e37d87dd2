"""The one QR of the table (``Dataset.table_qr``) that every error curve
reads: taken once per table, by the rank stage alone, and giving each
order's curve as the SVD refit loop and a 50-digit solve do."""

from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varsel import RunConfig, make_dataset, run_pipeline
from varsel.data import Dataset
from varsel.ranking import RankingMethod, error_curve

from conftest import (
    assert_prefix_fits_within_the_bound,
    awkward_tables,
    benchmark_csv,
    benchmark_table,
    random_instance,
)
from oracles import exact_prefix_fits, loop_error_curve


@pytest.fixture
def table_qrs(monkeypatch):
    """The tables whose ``table_qr`` is computed while the fixture is on,
    one entry per computation."""
    computed = []
    table_qr = Dataset.__dict__["table_qr"].func

    def counted(dataset):
        computed.append(dataset)
        return table_qr(dataset)

    prop = cached_property(counted)
    prop.__set_name__(Dataset, "table_qr")
    monkeypatch.setattr(Dataset, "table_qr", prop)
    return computed


def benchmark_dataset():
    table = benchmark_table(1, 30)
    return make_dataset(table.features, table.target)


class TestOneTableQR:
    def test_a_six_method_rank_stage_takes_it_once(self, tmp_path, table_qrs):
        path, target = benchmark_csv(tmp_path, 1, 30)
        report, _ = run_pipeline(RunConfig(
            dataset_path=str(path), target_column=target,
            output_dir=str(tmp_path / "out"), stages=("rank", "select")))
        assert len(report["rankings"]) == len(RankingMethod)
        assert len(table_qrs) == 1

    def test_search_gibbs_cv_and_corr_never_build_it(self, tmp_path, table_qrs):
        path, target = benchmark_csv(tmp_path, 1, 30)
        report, _ = run_pipeline(RunConfig(
            dataset_path=str(path), target_column=target,
            output_dir=str(tmp_path / "out"),
            stages=("search", "gibbs", "cv", "corr"), m_values=(2,),
            search_runs=4, max_iters=20, sweeps=40, cv_runs=50, seed=1))
        assert sorted(report["stages_run"]) == ["corr", "cv", "gibbs", "search"]
        assert table_qrs == []

    def test_it_is_read_only(self):
        x, y, _ = random_instance(3, 20, 4)
        for array in make_dataset(x, y).table_qr:
            assert not array.flags.writeable


class TestBitIdenticalCurves:
    """A curve depends on its table and order alone: not on the orders
    whose curves were taken before it, nor on which ``Dataset`` of the
    table holds the QR."""

    @pytest.mark.parametrize("make", [
        benchmark_dataset,
        lambda: make_dataset(*random_instance(7, 30, 6)[:2]),
    ], ids=["benchmark-30", "gaussian-6"])
    def test_first_later_and_fresh(self, make):
        ds = make()
        r = ds.n_features
        rng = np.random.default_rng(5)
        orders = [tuple((rng.permutation(r) + 1).tolist()) for _ in range(4)]
        first = error_curve(ds, orders[0])
        for order in orders[1:]:
            error_curve(ds, order)
        later = error_curve(ds, orders[0])
        fresh = error_curve(make(), orders[0])
        for curves in (later, fresh):
            for got, want in zip(curves, first):
                assert got.tobytes() == want.tobytes()


_BENCHMARK = []


@st.composite
def curve_cases(draw):
    """A table, an order and the prefixes to solve exactly: an
    ``awkward_tables`` draw with all its prefixes, or the 30-feature
    benchmark table (with its rank-rule pair) and two drawn prefixes, as a
    50-digit solve of its 1213 rows takes up to 0.3 s a prefix."""
    if draw(st.booleans()):
        dataset = draw(awkward_tables())
        prefixes = list(range(1, dataset.n_features + 1))
    else:
        if not _BENCHMARK:
            _BENCHMARK.append(benchmark_dataset())
        dataset = _BENCHMARK[0]
        prefixes = sorted(draw(st.sets(st.integers(1, 30), min_size=2, max_size=2)))
    order = tuple(draw(st.permutations(range(1, dataset.n_features + 1))))
    return dataset, order, prefixes


class TestCurvesAgainstTheOracles:
    @settings(max_examples=30, deadline=None)
    @given(case=curve_cases())
    def test_refit_loop_and_exact_fits(self, case):
        """``filled_prefixes`` are the SVD refit loop's, and every finite
        entry lies within ``64 eps cond(X_M) ||y||`` of the exact fit."""
        dataset, order, prefixes = case
        got = error_curve(dataset, order)
        want = loop_error_curve(dataset, order)
        assert np.isinf(got[1]).tolist() == np.isinf(want[1]).tolist()
        prefixes = [m for m in prefixes if np.isfinite(got[1][m - 1])]
        assert_prefix_fits_within_the_bound(
            dataset, exact_prefix_fits(dataset, order, prefixes), prefixes, [got])
