"""Gibbs sampling of fixed-size feature subsets from an error-driven density.

The target is p(v) proportional to exp(-eta * cost(v)) over ordered tuples
of M distinct feature indices, where cost is the subset prediction error.
A systematic-scan Gibbs sampler draws each position in turn from its full
conditional (an explicit categorical over the unused indices), and the
retained states give an empirical inclusion probability per feature: how
often that feature appears in a low-error subset.  Small eta flattens the
density toward uniform; large eta concentrates it near the minimum-cost
subset (verified against exact enumeration in the tests).  Costs come from
a ``CostCache``, and the generator from ``data.run_rng``, as in ``search``.

A chain keeps a memo of its full conditionals, keyed by the ``CostCache``
bitmask of the other positions' indices.  The memo is exact: the candidates
are every index outside that set in ascending order, and the cache never
re-prices a key, so a repeated set gets the same costs and the same weights.
A memo hit adds one cache hit per candidate, the hits a lookup of every
candidate would count.  The memo is cleared when it holds
``CONDITIONAL_MEMO_ENTRIES`` conditionals; a chain frozen on one state needs
only M of them.

A chain position whose conditional has no candidate of finite cost keeps
its index (``gibbs_run``); ``full_conditional_weights`` and
``exact_target_enumeration`` raise on such a distribution.

Costs at eta around 100 differ by hundreds of units, so every softmax here
subtracts the largest exponent before exponentiating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSubset, check_seed, run_rng
from .errors import ConfigError, DegenerateStepError
from .linmodel import CostCache
from .search import all_subset_costs, cost_cache, random_subset

ENUMERATION_BUDGET = 100_000

# Full conditionals ``gibbs_run`` keeps before it clears its memo: each holds
# a candidate list and its weights, about 2 KiB at R = 122, so the memo stays
# near 256 KiB however hot the chain, and a chain frozen at M <= 128 never
# clears it.
CONDITIONAL_MEMO_ENTRIES = 128


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler settings; burn_in defaults to 20% of sweeps."""

    m: int
    eta: float = 100.0
    sweeps: int = 5000
    burn_in: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.sweeps // 5)
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if not 0 < self.eta < math.inf:
            raise ConfigError("eta must be finite and positive")
        if self.sweeps < 1:
            raise ConfigError("sweeps must be >= 1")
        if not 0 <= self.burn_in < self.sweeps:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < sweeps")
        check_seed(self.seed)


@dataclass(frozen=True)
class GibbsChain:
    """States after each sweep with their aligned costs."""

    states: tuple[FeatureSubset, ...]
    costs: tuple[float, ...]
    n_features: int

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class InclusionProfile:
    """Per-feature probability of appearing in a sampled subset."""

    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    @property
    def uniform_reference(self) -> float:
        """The uniform level 1/R the probabilities are read against."""
        return 1.0 / len(self.probabilities)


def _stable_weights(exponents: np.ndarray) -> np.ndarray:
    """Normalized exp(exponents) with max-subtraction; -inf maps to 0."""
    shift = exponents.max()
    if not math.isfinite(shift):
        raise DegenerateStepError("no candidate has finite cost")
    weights = np.exp(exponents - shift)
    return weights / weights.sum()


def _draw(rng: np.random.Generator, weights: np.ndarray) -> int:
    """An index drawn with probabilities ``weights`` by inverse CDF from one
    ``rng.random()``: the index, and the generator state after it, of
    ``rng.choice(len(weights), p=weights)``, without its checks of p."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _conditional(
    cache: CostCache, others: tuple[int, ...], eta: float
) -> tuple[list[int], np.ndarray]:
    """Every index not in ``others`` (in state order, which the kernel's QR
    follows to the last bit) and its softmax weight for the free position."""
    candidates = [k for k in range(1, cache.dataset.n_features + 1)
                  if k not in others]
    return candidates, _stable_weights(-eta * cache.neighbour_costs(others, candidates))


class _ConditionalMemo:
    """``_conditional`` of one chain, memoized by the ``CostCache`` bitmask
    of ``others`` and cleared when it holds ``CONDITIONAL_MEMO_ENTRIES``
    conditionals; a hit counts one cache hit per candidate."""

    def __init__(self, cache: CostCache, eta: float):
        self.cache = cache
        self.eta = eta
        self.entries: dict[int, tuple[list[int], np.ndarray]] = {}

    def __call__(self, others: tuple[int, ...]) -> tuple[list[int], np.ndarray]:
        key = self.cache._bitmask(others)
        found = self.entries.get(key)
        if found is None:
            if len(self.entries) >= CONDITIONAL_MEMO_ENTRIES:
                self.entries.clear()
            found = self.entries[key] = _conditional(self.cache, others, self.eta)
        else:
            self.cache.hits += len(found[0])
        return found


def full_conditional_weights(
    dataset: Dataset,
    state: FeatureSubset,
    j: int,
    config: GibbsConfig,
    cache: CostCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Categorical distribution of position j given the other positions.

    Returns (candidate_indices, probabilities): for every feature index not
    used at the other positions, the probability proportional to
    exp(-eta * cost(state with position j replaced)).  Rank-deficient
    candidates get probability zero.

    Raises:
        DegenerateStepError: every candidate subset is rank-deficient.
    """
    state.validate_against(dataset)
    if not 1 <= j <= state.m:
        raise ConfigError(f"position {j} outside [1, {state.m}]")
    others = state.indices[:j - 1] + state.indices[j:]
    cache = cost_cache(dataset, cache)
    candidates, weights = _conditional(cache, others, config.eta)
    return np.array(candidates, dtype=int), weights


def gibbs_run(
    dataset: Dataset, config: GibbsConfig, cache: CostCache | None = None
) -> GibbsChain:
    """Systematic-scan Gibbs sampler drawing from ``run_rng(seed)``.

    The initial state is uniform over distinct-index subsets; each sweep
    redraws positions 1..M in order from their full conditionals, on a
    plain index list checked once here, and records the state after it.
    A conditional whose other positions hold a set seen before is read
    from the run's memo (see the module docstring).  A position whose
    conditional has no candidate of finite cost (with the other positions,
    every candidate makes a rank-deficient design) keeps its index and
    draws nothing, and that conditional is not memoized; a random start
    that holds a constant or copied column thus leaves it when that
    column's own position is redrawn.

    Raises:
        DegenerateStepError: a sweep in which no position had a candidate
            of finite cost, so the chain can never move.
    """
    r = dataset.n_features
    if config.m > r:
        raise ConfigError(f"m={config.m} exceeds R={r}")
    cache = cost_cache(dataset, cache)
    rng = run_rng(config.seed)
    state = list(random_subset(rng, r, config.m).indices)
    states, costs = [], []
    conditional = _ConditionalMemo(cache, config.eta)
    for _ in range(config.sweeps):
        moved = False
        for j in range(config.m):
            try:
                candidates, weights = conditional(tuple(state[:j] + state[j + 1:]))
            except DegenerateStepError:
                continue  # no finite candidate: the position keeps its index
            state[j] = candidates[_draw(rng, weights)]
            moved = True
        if not moved:
            raise DegenerateStepError(
                f"no position of state {tuple(state)} has a candidate of finite cost")
        states.append(FeatureSubset(tuple(state)))
        costs.append(cache.cost(states[-1].indices))
    return GibbsChain(states=tuple(states), costs=tuple(costs), n_features=r)


def inclusion_frequencies(chain: GibbsChain, burn_in: int) -> InclusionProfile:
    """Empirical per-feature inclusion probability from the retained states."""
    if not 0 <= burn_in < len(chain):
        raise ConfigError("burn_in must satisfy 0 <= burn_in < chain length")
    retained = chain.states[burn_in:]
    taken = np.array([state.indices for state in retained]).ravel() - 1
    counts = np.bincount(taken, minlength=chain.n_features).astype(float)
    return InclusionProfile(counts / len(retained))


@dataclass(frozen=True)
class ExactDistribution:
    """Exact enumeration of the subset density (test oracle for the chain).

    ``subset_probabilities`` maps each ascending index tuple to its target
    probability (orderings of a tuple share one cost, so the unordered
    distribution is proportional to the same exponential weights).
    """

    subset_probabilities: dict[tuple[int, ...], float]
    inclusion: InclusionProfile


def exact_target_enumeration(
    dataset: Dataset,
    m: int,
    eta: float,
    budget: int = ENUMERATION_BUDGET,
    cache: CostCache | None = None,
) -> ExactDistribution:
    """Enumerate every size-m subset, normalize exp(-eta*cost) with
    max-subtraction, and marginalize exact inclusion probabilities."""
    r = dataset.n_features
    if not 1 <= m <= r:
        raise ConfigError(f"m={m} outside [1, {r}]")
    cache = cost_cache(dataset, cache)
    keys, costs = zip(*all_subset_costs(cache, m, budget))
    probs = _stable_weights(-eta * np.array(costs))
    # bincount adds in input order: key by key, index by index
    inclusion = np.bincount(np.array(keys).ravel() - 1,
                            weights=np.repeat(probs, m), minlength=r)
    return ExactDistribution(
        subset_probabilities={k: float(pr) for k, pr in zip(keys, probs)},
        inclusion=InclusionProfile(inclusion),
    )
