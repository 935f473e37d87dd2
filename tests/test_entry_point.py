"""Checks of the command-line entry point on the benchmark's tables,
moved here from the "Entry point" step of the CI workflow so that every
test run makes them: each runs ``varsel`` as a user would and holds what
it writes to a loop of ``tests/oracles.py``."""

import json

import numpy as np

from varsel import ingest_csv
from varsel.cli import EXIT_OK, main
from varsel.data import FeatureSubset
from varsel.linmodel import build_design_matrix

from conftest import EPS, benchmark_csv
from oracles import loop_error_curve


def test_six_error_curves_of_the_benchmark_table(tmp_path):
    """Every ranking of a ``varsel rank`` run on the 30-feature
    benchmark table fills the prefixes the SVD refit loop fills, and
    each error-curve entry lies within ``max(1e-9, eps cond)`` of that
    loop's, relative: the bound of ``bench/checks.py``."""
    path, target = benchmark_csv(tmp_path, 1, 30)
    out = tmp_path / "curves"
    assert main(["rank", "-i", str(path), "--target", target, "--methods",
                 "rm1,rm2,rm3,rm4,rm5,pvalue", "-o", str(out)]) == EXIT_OK
    ds = ingest_csv(path, target)
    rankings = json.loads((out / "report.json").read_text())["rankings"]
    assert len(rankings) == 6, [r["method"] for r in rankings]
    for r in rankings:
        mae, mse = loop_error_curve(ds, r["order"])
        assert r["filled_prefixes"] == (np.flatnonzero(np.isinf(mse)) + 1).tolist(), r["method"]
        for m, got in enumerate(r["error_curve"], start=1):
            x = build_design_matrix(ds, FeatureSubset(tuple(r["order"][:m]))).values
            tol = max(1e-9, EPS * np.linalg.cond(x))
            assert abs(got - mae[m - 1]) <= tol * abs(mae[m - 1]), (r["method"], m)
