"""The paper's workflow at full width, on the benchmark's emo-shaped
1213 x 122 table (``bench/generate.py``'s ``make_table(1, 122)``, planted
support (5, 50, 64, 93, 95, 107, 109)): what search, exhaustive search and
exact enumeration find there, and the time enumeration takes."""

import time

import numpy as np
import pytest

from varsel import (
    exact_target_enumeration,
    exhaustive_best_subset,
    make_dataset,
    multi_restart_search,
)

from conftest import benchmark_table

# Wall-time bound of one enumeration of the C(122, 2) = 7381 pairs: each
# took 0.08-0.1 s through the grouped kernel calls on a 2-vCPU Xeon host
# with one BLAS thread, and 0.75-1.5 s when every pair took its own SVD
# fit.
ENUMERATION_SECONDS = 0.5


@pytest.fixture(scope="module")
def table():
    return benchmark_table(1, 122)


@pytest.fixture(scope="module")
def dataset(table):
    return make_dataset(table.features, table.target)


def timed(call):
    started = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - started
    assert elapsed < ENUMERATION_SECONDS, elapsed
    return result


def test_search_finds_the_best_pair(dataset):
    best = timed(lambda: exhaustive_best_subset(dataset, 2))
    assert best.subset.indices == (93, 95)
    found = multi_restart_search(dataset, 2, runs=20, seed=1)
    assert found.subset == best.subset
    assert found.cost == pytest.approx(best.cost, rel=1e-12)
    assert found.degenerate_restarts == 0


def test_exact_enumeration_of_the_pairs(dataset, table):
    # at eta = 0.1 the profile is far from a point mass: its mode is the
    # best pair, and the six features it includes most are planted, the
    # sixth at 0.022 and the first unplanted one at 0.014
    exact = timed(lambda: exact_target_enumeration(dataset, 2, eta=0.1))
    probabilities = exact.subset_probabilities
    assert len(probabilities) == 7381
    assert max(probabilities, key=probabilities.get) == (93, 95)
    most = np.argsort(-exact.inclusion.probabilities, kind="stable")[:6] + 1
    assert set(most.tolist()) <= set(table.planted)
