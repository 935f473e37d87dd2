"""Brute-force oracles shared by the module and acceptance tests.

The ``oracle_*`` functions fit through the pseudo-inverse and re-implement
the greedy loops directly, so none of them shares code with the library
paths they validate.  The ``loop_*`` functions keep the library's former
per-candidate loops, which priced each candidate subset with its own SVD
fit; the batched library paths must reproduce them.
"""

import numpy as np

from varsel import FeatureSubset, RankDeficiencyError, fit_subset
from varsel.search import random_subset, run_rng


def oracle_mae(x, y, cols):
    design = np.hstack([np.ones((len(y), 1)), x[:, [c - 1 for c in cols]]])
    beta = np.linalg.pinv(design) @ y
    return float(np.abs(y - design @ beta).mean())


def oracle_cost(x, y, cols, p=1.0, alpha=1.0):
    design = np.hstack([np.ones((len(y), 1)), x[:, [c - 1 for c in cols]]])
    beta = np.linalg.pinv(design) @ y
    return float(np.sum(np.abs(y - design @ beta) ** p) ** (alpha / p))


def oracle_rm1(x, y):
    r = x.shape[1]
    chosen, remaining = [], list(range(1, r + 1))
    while remaining:
        _, best = min((oracle_mae(x, y, chosen + [k]), k) for k in remaining)
        chosen.append(best)
        remaining.remove(best)
    return chosen


def oracle_rm2(x, y):
    removals, current = [], list(range(1, x.shape[1] + 1))
    while current:
        _, best = min(
            (oracle_mae(x, y, [i for i in current if i != k]), k) for k in current
        )
        removals.append(best)
        current.remove(best)
    return list(reversed(removals))


def oracle_rm3(x, y):
    removals, current = [], list(range(1, x.shape[1] + 1))
    while current:
        _, neg_best = max(
            (oracle_mae(x, y, [i for i in current if i != k]), -k) for k in current
        )
        removals.append(-neg_best)
        current.remove(-neg_best)
    return removals


def oracle_rm4(x, y):
    added, remaining = [], list(range(1, x.shape[1] + 1))
    while remaining:
        _, neg_best = max((oracle_mae(x, y, added + [k]), -k) for k in remaining)
        added.append(-neg_best)
        remaining.remove(-neg_best)
    return list(reversed(added))


def loop_alternating_optimization(dataset, m, init, cache, max_iters=100):
    """(ascending subset, cost, sweeps, update-cost trace) of the old
    coordinate loop, one ``cache.cost`` call per candidate."""
    r = dataset.n_features
    state = list(init.indices)
    current_cost = cache.cost(tuple(state))
    trace = [current_cost]
    sweeps = 0
    for _ in range(max_iters):
        sweeps += 1
        changed = False
        for j in range(m):
            others = set(state) - {state[j]}
            best_k, best_cost = state[j], current_cost
            for k in range(1, r + 1):
                if k in others or k == state[j]:
                    continue
                state_j = state.copy()
                state_j[j] = k
                cost = cache.cost(tuple(state_j))
                if cost < best_cost:
                    best_k, best_cost = k, cost
            if best_k != state[j]:
                state[j] = best_k
                current_cost = best_cost
                changed = True
            trace.append(current_cost)
        if not changed:
            break
    return tuple(sorted(state)), current_cost, sweeps, tuple(trace)


def loop_multi_restart_search(dataset, m, runs, seed, cache):
    """(subset, cost, total sweeps) of the old best-of-N loop; no restart
    of the instances it is run on lands on a rank-deficient subset."""
    best, iterations = None, 0
    for run in range(runs):
        init = random_subset(run_rng(seed, run), dataset.n_features, m)
        subset, cost, sweeps, _ = loop_alternating_optimization(
            dataset, m, init, cache
        )
        iterations += sweeps
        if best is None or (cost, subset) < best:
            best = (cost, subset)
    return best[1], best[0], iterations


def loop_full_conditional(dataset, state, j, eta, cache):
    """(candidates, probabilities) of position j, one cache lookup each."""
    others = set(state.indices) - {state.indices[j - 1]}
    candidates = np.array(
        [k for k in range(1, dataset.n_features + 1) if k not in others],
        dtype=int,
    )
    exponents = np.empty(len(candidates), dtype=float)
    for i, k in enumerate(candidates):
        exponents[i] = -eta * cache.cost(state.replace_position(j, int(k)).indices)
    weights = np.exp(exponents - exponents.max())
    return candidates, weights / weights.sum()


def loop_gibbs_states(dataset, config, cache):
    """Chain states of the old systematic-scan sampler."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed))
    state = random_subset(rng, dataset.n_features, config.m)
    states = []
    for _ in range(config.sweeps):
        for j in range(1, config.m + 1):
            candidates, weights = loop_full_conditional(
                dataset, state, j, config.eta, cache
            )
            draw = rng.choice(len(candidates), p=weights)
            state = state.replace_position(j, int(candidates[draw]))
        states.append(state)
        cache.cost(state.indices)
    return tuple(states)


def loop_forward_order(dataset, largest):
    """Addition order of the old RM1 (``largest=False``) / RM4 loop, one
    SVD fit per candidate; rank-deficient candidates are skipped."""
    chosen, remaining = [], list(range(1, dataset.n_features + 1))
    while remaining:
        best_k, best_mae = None, -np.inf if largest else np.inf
        for k in remaining:
            try:
                mae = fit_subset(dataset, FeatureSubset(tuple(chosen) + (k,))).mae
            except RankDeficiencyError:
                continue
            if (mae > best_mae) if largest else (mae < best_mae):
                best_k, best_mae = k, mae
        chosen.append(best_k)
        remaining.remove(best_k)
    return chosen
