"""Minimum-cost subsets of a fixed size M.

Exhaustive enumeration is feasible only for tiny M, so the general tool is
alternating optimization: cycle through the M subset positions, solving each
one-position subproblem exhaustively over the unused feature indices, until
a full sweep makes no change.  Restarting from many random initializations
and keeping the best run recovers the global minimum with high probability.
Costs come from a ``CostCache``, the one holder of the cost settings; an
omitted cache means the L1 cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import Dataset, FeatureSubset, run_rng
from .errors import BudgetExceededError, ConfigError, DegenerateStepError
from .linmodel import CostCache

EXHAUSTIVE_BUDGET = 2_000_000
DEFAULT_MAX_SWEEPS = 100


@dataclass(frozen=True)
class SearchResult:
    """Best subset found, reported with ascending indices."""

    subset: FeatureSubset
    cost: float
    iterations: int
    converged: bool
    update_costs: tuple[float, ...] | None = None


def random_subset(rng: np.random.Generator, r: int, m: int) -> FeatureSubset:
    """Uniform draw over ordered distinct-index subsets."""
    return FeatureSubset(tuple(int(k) + 1 for k in rng.permutation(r)[:m]))


def all_subset_costs(cache: CostCache, m: int, budget: int):
    """Lazy ``(key, cost)`` over all size-m ascending index tuples in
    lexicographic order; raises ``BudgetExceededError`` at the call when
    C(R, m) exceeds the budget."""
    r = cache.dataset.n_features
    count = math.comb(r, m)
    if count > budget:
        raise BudgetExceededError(
            f"enumerating C({r},{m}) = {count} subsets exceeds the budget "
            f"of {budget}",
            count=count,
            budget=budget,
        )
    return ((key, cache.cost(key)) for key in combinations(range(1, r + 1), m))


def exhaustive_best_subset(
    dataset: Dataset,
    m: int,
    budget: int = EXHAUSTIVE_BUDGET,
    cache: CostCache | None = None,
) -> SearchResult:
    """Global minimum over all size-m subsets by full enumeration.

    Raises:
        BudgetExceededError: C(R, m) exceeds the subset budget.
        DegenerateStepError: every size-m subset is rank-deficient.
    """
    r = dataset.n_features
    if not 0 <= m <= r:
        raise ConfigError(f"m={m} outside [0, {r}]")
    cache = cache or CostCache(dataset)
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


def alternating_optimization(
    dataset: Dataset,
    m: int,
    init: FeatureSubset,
    max_iters: int = DEFAULT_MAX_SWEEPS,
    cache: CostCache | None = None,
    track_updates: bool = False,
) -> SearchResult:
    """Cyclic coordinate descent over subset positions from a given start.

    Each position update prices every feature index not used by the state
    in one ``CostCache.neighbour_costs`` batch and accepts only a strict
    improvement on the current cost, so a sweep without change is a fixed
    point and the cost trace is non-increasing by construction.
    """
    init.validate_against(dataset)
    if init.m != m:
        raise ConfigError(f"init has {init.m} indices, expected m={m}")
    cache = cache or CostCache(dataset)
    r = dataset.n_features
    state = list(init.indices)
    current_cost = cache.cost(tuple(state))
    trace = [current_cost] if track_updates else None
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
            if trace is not None:
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
        update_costs=None if trace is None else tuple(trace),
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

    Ties between runs resolve to the lexicographically smallest ascending
    subset, making the result deterministic for a given (seed, runs, m)
    regardless of any parallel execution of the runs.
    """
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    r = dataset.n_features
    if not 1 <= m <= r:
        raise ConfigError(f"m={m} outside [1, {r}]")
    cache = cache or CostCache(dataset)
    best: SearchResult | None = None
    iterations = 0
    for run in range(runs):
        init = random_subset(run_rng(seed, run), r, m)
        try:
            result = alternating_optimization(
                dataset, m, init, max_iters=max_iters, cache=cache
            )
        except DegenerateStepError:
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
    )
