"""Checks of the command-line entry point on the benchmark's tables that no
other test module makes: each runs ``varsel`` as a user would (in-process
``cli.main``) or calls the package on a table of ``bench/generate.py``, and
holds the result to a loop of ``tests/oracles.py``.

Every test run makes them against ``src/``.  The "Entry point" step of the
CI workflow makes them once more against the installed package: after
``varsel --version`` and ``varsel report --help`` it runs ``python -m
pytest <checkout>/tests/test_entry_point.py -o pythonpath=`` from a
directory outside the checkout, where ``src/`` is not importable.
``test_the_package_under_test_is_the_one_meant`` then asserts that
``varsel`` comes from site-packages, and the run's header
(``conftest.pytest_report_header``) prints the numpy and scipy versions.
The step's other checks are parameters of the tests they extend: the
byte-identical output trees of two runs (``test_pipeline_cli``), the Gibbs
memo (``test_gibbs``), the forward certificate (``test_ranking_states``),
CV of an uncertified design (``test_validation``), the shared backward
start (``test_ranking``) and the scipy-free run (``test_pipeline_cli``)."""

import csv
import json
import sys
import sysconfig
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import varsel
from varsel import FeatureSubset, ingest_csv, make_dataset, monte_carlo_cv, rank_pvalues
from varsel import ingest, validation
from varsel.cli import EXIT_OK, main
from varsel.linmodel import build_design_matrix

from conftest import EPS, benchmark_csv, benchmark_table
from oracles import (
    loop_backward_elimination,
    loop_error_curve,
    loop_forward_order,
    loop_pvalues,
    loop_remove_max_error,
    loop_run_rngs,
)


def test_the_package_under_test_is_the_one_meant():
    """With this checkout's ``src/`` on the path (pyproject.toml's
    ``pythonpath``) ``varsel`` is imported from it; without it (``-o
    pythonpath=`` from outside the checkout) from site-packages, so that
    the installed package is the one under test."""
    src = Path(__file__).resolve().parents[1] / "src"
    on_path = any(Path(entry).resolve() == src for entry in sys.path if entry)
    home = src if on_path else Path(sysconfig.get_paths()["purelib"]).resolve()
    assert Path(varsel.__file__).resolve().parent == home / "varsel", varsel.__file__


def rank(path, target, out, *methods):
    """The rankings of a ``varsel rank`` run, in report order."""
    argv = ["rank", "-i", str(path), "--target", target, "-o", str(out)]
    if methods:
        argv += ["--methods", ",".join(methods)]
    assert main(argv) == EXIT_OK
    return json.loads((out / "report.json").read_text())["rankings"]


def test_six_error_curves_of_the_benchmark_table(tmp_path):
    """Every ranking of a ``varsel rank`` run on the 30-feature
    benchmark table fills the prefixes the SVD refit loop fills, and
    each error-curve entry lies within ``max(1e-9, eps cond)`` of that
    loop's, relative: the bound of ``bench/checks.py``."""
    path, target = benchmark_csv(tmp_path, 1, 30)
    rankings = rank(path, target, tmp_path / "curves",
                    "rm1", "rm2", "rm3", "rm4", "rm5", "pvalue")
    assert len(rankings) == 6, [r["method"] for r in rankings]
    ds = ingest_csv(path, target)
    for r in rankings:
        mae, mse = loop_error_curve(ds, r["order"])
        assert r["filled_prefixes"] == (np.flatnonzero(np.isinf(mse)) + 1).tolist(), r["method"]
        for m, got in enumerate(r["error_curve"], start=1):
            x = build_design_matrix(ds, FeatureSubset(tuple(r["order"][:m]))).values
            tol = max(1e-9, EPS * np.linalg.cond(x))
            assert abs(got - mae[m - 1]) <= tol * abs(mae[m - 1]), (r["method"], m)


def backward(loop):
    def orders(dataset):
        want = loop(dataset)
        return {"order": list(want.order), "raw_order": list(want.raw_order)}
    return orders


# the report fields of each greedy ranking but the p-values' and the loop of
# the tests, one SVD fit per candidate or removal, that gives them
GREEDY_LOOPS = {
    "rm1-forward": lambda ds: {"order": loop_forward_order(ds, False)},
    "rm4-add-max": lambda ds: {"raw_order": loop_forward_order(ds, True)},
    "rm2-backward": backward(loop_backward_elimination),
    "rm3-remove-max": backward(loop_remove_max_error),
}


@pytest.mark.parametrize("seed, methods", [
    # RM1 and RM4 of seed 1 are TestForwardRankingsOnTheBenchmarkTable's
    (1, ("rm2", "rm3", "pvalue")),
    (2, ("rm1", "rm2", "rm3", "rm4", "pvalue")),
    (3, ("rm1", "rm2", "rm3", "rm4", "pvalue")),
], ids=["seed-1-backward", "seed-2", "seed-3"])
def test_greedy_orders_equal_the_loops(tmp_path, seed, methods):
    """On the 30-feature table of each seed, RM1 and RM4 grow one state
    and RM2, RM3 and the p-values downdate one; every order and raw order
    of a ``varsel rank`` run equals the loop's."""
    path, target = benchmark_csv(tmp_path, seed, 30)
    got = {r["method"]: r for r in rank(path, target, tmp_path / "orders", *methods)}
    assert len(got) == len(methods), list(got)
    ds = ingest_csv(path, target)
    pvalues = got.pop("pvalue")
    for method, entry in got.items():
        for field, want in GREEDY_LOOPS[method](ds).items():
            assert entry[field] == want, (method, field)
    # the report holds no admissible flags: the ranking of the same table
    # in-process gives the report's orders, and the loop's flags too
    ranked, want = rank_pvalues(ds), loop_pvalues(ds)
    assert [pvalues["order"], pvalues["raw_order"]] == [list(ranked.order),
                                                        list(ranked.raw_order)]
    assert ((ranked.order, ranked.raw_order, ranked.admissible)
            == (want.order, want.raw_order, want.admissible))


@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["utf-8", "utf-8-bom"])
def test_quoted_table_ranks_as_the_plain_one(tmp_path, bom):
    """The 16-feature table with every cell quoted and '\\r' line ends, and
    in one case a leading byte-order mark, as spreadsheets write it, is read
    by the row walk, not the one-call C parse; it is ranked exactly as the
    plain table is, under the same feature labels."""
    path, target = benchmark_csv(tmp_path, 1, 16)
    quoted = tmp_path / "quoted.csv"
    with (path.open(newline="") as src,
          quoted.open("w", newline="", encoding="utf-8") as dst):
        dst.write(bom)
        csv.writer(dst, quoting=csv.QUOTE_ALL, lineterminator="\r").writerows(
            csv.reader(src))
    plain = rank(path, target, tmp_path / "rank-plain")
    walk = mock.Mock(wraps=ingest._walk_rows)
    with mock.patch.object(ingest, "_walk_rows", walk):
        assert plain and plain == rank(quoted, target, tmp_path / "rank-quoted")
    walk.assert_called_once()
    assert ingest_csv(quoted, target).labels == ingest_csv(path, target).labels


def test_bulk_split_streams_of_the_benchmark_table():
    """CV of the 122-feature table's planted subset draws each block's
    splits from one vectorized derivation of their seed sequences
    (``data.run_rngs``), at the shipped block and pass sizes; its report
    equals, bit for bit, that of one ``run_rng`` call per split."""
    table = benchmark_table(1, 122)
    ds = make_dataset(table.features, table.target)
    subset = FeatureSubset(tuple(table.planted))
    bulk = monte_carlo_cv(ds, subset, runs=300, seed=1)
    with mock.patch.object(validation, "run_rngs", loop_run_rngs):
        assert asdict(bulk) == asdict(monte_carlo_cv(ds, subset, runs=300, seed=1))
