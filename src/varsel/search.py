"""Minimum-cost subsets of a fixed size M.

Exhaustive enumeration is feasible only for tiny M, so the general tool is
alternating optimization: cycle through the M subset positions, solving each
one-position subproblem exhaustively over the unused feature indices, until
a full sweep makes no change.  Restarting from many random initializations
and keeping the best run recovers the global minimum with high probability.
Costs come from a ``CostCache`` of the table searched, the one holder of
the cost settings; an omitted cache means the L1 cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import Dataset, FeatureSubset, run_rngs
from .errors import BudgetExceededError, ConfigError, DegenerateStepError
from .linmodel import CostCache

EXHAUSTIVE_BUDGET = 2_000_000
DEFAULT_MAX_SWEEPS = 100


@dataclass(frozen=True)
class SearchResult:
    """Best subset found, reported with ascending indices.

    ``degenerate_restarts`` counts the restarts of ``multi_restart_search``
    that ended on a rank-deficient subset with no finite-cost move; they add
    nothing to ``iterations``.  ``update_costs`` is the cost trace of one
    ``alternating_optimization`` run, None for the other searches.
    """

    subset: FeatureSubset
    cost: float
    iterations: int
    converged: bool
    update_costs: tuple[float, ...] | None = None
    degenerate_restarts: int = 0


def random_subset(rng: np.random.Generator, r: int, m: int) -> FeatureSubset:
    """Uniform draw over ordered distinct-index subsets."""
    return FeatureSubset(tuple(int(k) + 1 for k in rng.permutation(r)[:m]))


def cost_cache(dataset: Dataset, cache: CostCache | None) -> CostCache:
    """``cache``, or the L1 ``CostCache`` of ``dataset`` when it is None:
    the cache of every search and sampling entry point.

    Raises:
        ConfigError: the cache was built on another table.
    """
    if cache is None:
        return CostCache(dataset)
    if cache.dataset is not dataset:
        raise ConfigError("the cost cache was built on another table")
    return cache


def all_subset_costs(cache: CostCache, m: int, budget: int):
    """Lazy ``(key, cost)`` over all size-m ascending index tuples in
    lexicographic order, one cache hit or miss each; raises
    ``BudgetExceededError`` at the call when C(R, m) exceeds the budget.

    The tuples that share their first m - 1 indices, the head, are
    consecutive, and one ``CostCache.neighbour_costs`` call prices them
    all: the head fixed and every larger index a candidate, so a group's
    misses take one QR of the head's design.
    """
    r = cache.dataset.n_features
    count = math.comb(r, m)
    if count > budget:
        raise BudgetExceededError(
            f"enumerating C({r},{m}) = {count} subsets exceeds the budget "
            f"of {budget}",
            count=count,
            budget=budget,
        )
    return _grouped_costs(cache, r, m)


def _grouped_costs(cache: CostCache, r: int, m: int):
    if m == 0:
        yield (), cache.cost(())
        return
    # every head with a larger index left, ascending
    for head in combinations(range(1, r), m - 1):
        tail = range(head[-1] + 1 if head else 1, r + 1)
        costs = cache.neighbour_costs(head, list(tail)).tolist()
        yield from ((head + (k,), cost) for k, cost in zip(tail, costs))


def exhaustive_best_subset(
    dataset: Dataset,
    m: int,
    budget: int = EXHAUSTIVE_BUDGET,
    cache: CostCache | None = None,
) -> SearchResult:
    """Global minimum over all size-m subsets by full enumeration
    (``all_subset_costs``); the first of equal costs in lexicographic order
    wins.

    Raises:
        ConfigError: m is outside [0, R], or the cache was built on another
            table.
        BudgetExceededError: C(R, m) exceeds the subset budget.
        DegenerateStepError: every size-m subset is rank-deficient.
    """
    r = dataset.n_features
    if not 0 <= m <= r:
        raise ConfigError(f"m={m} outside [0, {r}]")
    cache = cost_cache(dataset, cache)
    best_key, best_cost = None, math.inf
    for key, cost in all_subset_costs(cache, m, budget):
        if cost < best_cost:
            best_key, best_cost = key, cost
    if best_key is None:
        raise DegenerateStepError(f"every subset of size {m} is rank-deficient")
    return SearchResult(
        subset=FeatureSubset(best_key),
        cost=best_cost,
        iterations=math.comb(r, m),
        converged=True,
    )


def check_search_settings(m: int, runs: int, max_iters: int) -> None:
    """The settings ``multi_restart_search`` rejects before it reads the
    table; m <= R is checked against the table."""
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    if m < 1:
        raise ConfigError("m must be >= 1")


def alternating_optimization(
    dataset: Dataset,
    m: int,
    init: FeatureSubset,
    max_iters: int = DEFAULT_MAX_SWEEPS,
    cache: CostCache | None = None,
) -> SearchResult:
    """Cyclic coordinate descent over subset positions from a given start.

    Each position update prices every feature index not used by the state
    in one ``CostCache.neighbour_costs`` batch and accepts only a strict
    improvement on the current cost, so a sweep without change is a fixed
    point and the cost trace is non-increasing by construction.  The trace
    is ``update_costs``: the starting cost, then the cost after each
    position update.
    """
    check_search_settings(m, 1, max_iters)
    init.validate_against(dataset)
    if init.m != m:
        raise ConfigError(f"init has {init.m} indices, expected m={m}")
    cache = cost_cache(dataset, cache)
    r = dataset.n_features
    state = list(init.indices)
    current_cost = cache.cost(tuple(state))
    trace = [current_cost]
    converged = False
    sweeps = 0
    for _ in range(max_iters):
        sweeps += 1
        changed = False
        for j in range(m):
            used = set(state)
            candidates = [k for k in range(1, r + 1) if k not in used]
            costs = cache.neighbour_costs(state[:j] + state[j + 1:], candidates)
            if candidates and costs.min() < current_cost:
                best = int(np.argmin(costs))  # the lowest index wins ties
                state[j] = candidates[best]
                current_cost = float(costs[best])
                changed = True
            trace.append(current_cost)
        if not changed:
            converged = True
            break
    if not math.isfinite(current_cost):
        raise DegenerateStepError(
            f"alternating optimization stuck on a rank-deficient subset "
            f"{tuple(state)} with no finite-cost move"
        )
    return SearchResult(
        subset=FeatureSubset(tuple(sorted(state))),
        cost=current_cost,
        iterations=sweeps,
        converged=converged,
        update_costs=tuple(trace),
    )


def multi_restart_search(
    dataset: Dataset,
    m: int,
    runs: int = 1000,
    seed: int = 0,
    max_iters: int = DEFAULT_MAX_SWEEPS,
    cache: CostCache | None = None,
) -> SearchResult:
    """Best-of-N alternating optimization from seeded random starts.

    Restart i starts from its own generator, that of ``run_rng(seed, i)``,
    drawn through ``run_rngs``, which derives the seed sequences of the
    restart indices in vectorized passes; ties between runs resolve to the
    lexicographically smallest ascending subset, so the result is
    deterministic for a given (seed, runs, m).
    Restarts stuck on a rank-deficient subset are counted in
    ``degenerate_restarts``.

    Raises:
        DegenerateStepError: every restart was degenerate.
    """
    check_search_settings(m, runs, max_iters)
    r = dataset.n_features
    if m > r:
        raise ConfigError(f"m={m} outside [1, {r}]")
    cache = cost_cache(dataset, cache)
    best: SearchResult | None = None
    iterations = degenerate = 0
    for rng in run_rngs(seed, range(runs)):
        init = random_subset(rng, r, m)
        try:
            result = alternating_optimization(
                dataset, m, init, max_iters=max_iters, cache=cache
            )
        except DegenerateStepError:
            degenerate += 1
            continue
        iterations += result.iterations
        key = (result.cost, result.subset.indices)
        if best is None or key < (best.cost, best.subset.indices):
            best = result
    if best is None:
        raise DegenerateStepError(
            f"all {runs} restarts landed on rank-deficient subsets"
        )
    return SearchResult(
        subset=best.subset,
        cost=best.cost,
        iterations=iterations,
        converged=best.converged,
        degenerate_restarts=degenerate,
    )
