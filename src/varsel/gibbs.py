"""Gibbs sampling of fixed-size feature subsets from an error-driven density.

The target is p(v) proportional to exp(-eta * cost(v)) over ordered tuples
of M distinct feature indices, where cost is the subset prediction error.
A systematic-scan Gibbs sampler draws each position in turn from its full
conditional (an explicit categorical over the unused indices), and the
retained states give an empirical inclusion probability per feature: how
often that feature appears in a low-error subset.  Small eta flattens the
density toward uniform; large eta concentrates it near the minimum-cost
subset (verified against exact enumeration in the tests).  Costs come from
a ``CostCache`` as in ``search``.

Costs at eta around 100 differ by hundreds of units, so every softmax here
subtracts the largest exponent before exponentiating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSubset
from .errors import ConfigError, DegenerateStepError
from .linmodel import CostCache
from .search import all_subset_costs, random_subset

ENUMERATION_BUDGET = 100_000


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
        if self.eta <= 0:
            raise ConfigError("eta must be positive")
        if self.sweeps < 1:
            raise ConfigError("sweeps must be >= 1")
        if not 0 <= self.burn_in < self.sweeps:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < sweeps")


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
    uniform_reference: float
    m: int

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)


def _stable_weights(exponents: np.ndarray) -> np.ndarray:
    """Normalized exp(exponents) with max-subtraction; -inf maps to 0."""
    shift = exponents.max()
    if not math.isfinite(shift):
        raise DegenerateStepError("no candidate has finite cost")
    weights = np.exp(exponents - shift)
    return weights / weights.sum()


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
    cache = cache or CostCache(dataset)
    others = state.indices[:j - 1] + state.indices[j:]
    candidates = [k for k in range(1, dataset.n_features + 1) if k not in others]
    costs = cache.neighbour_costs(others, candidates)
    return np.array(candidates, dtype=int), _stable_weights(-config.eta * costs)


def gibbs_run(
    dataset: Dataset, config: GibbsConfig, cache: CostCache | None = None
) -> GibbsChain:
    """Systematic-scan Gibbs sampler, fully deterministic given the seed.

    The initial state is uniform over distinct-index subsets; each sweep
    redraws positions 1..M in order from their full conditionals and the
    state after every sweep is recorded.
    """
    r = dataset.n_features
    if config.m > r:
        raise ConfigError(f"m={config.m} exceeds R={r}")
    cache = cache or CostCache(dataset)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed))
    state = random_subset(rng, r, config.m)
    states, costs = [], []
    for _ in range(config.sweeps):
        for j in range(1, config.m + 1):
            candidates, weights = full_conditional_weights(
                dataset, state, j, config, cache=cache
            )
            draw = rng.choice(len(candidates), p=weights)
            state = state.replace_position(j, int(candidates[draw]))
        states.append(state)
        costs.append(cache.cost(state.indices))
    return GibbsChain(states=tuple(states), costs=tuple(costs), n_features=r)


def inclusion_frequencies(chain: GibbsChain, burn_in: int) -> InclusionProfile:
    """Empirical per-feature inclusion probability from the retained states."""
    if not 0 <= burn_in < len(chain):
        raise ConfigError("burn_in must satisfy 0 <= burn_in < chain length")
    retained = chain.states[burn_in:]
    counts = np.zeros(chain.n_features, dtype=float)
    for state in retained:
        for k in state.indices:
            counts[k - 1] += 1.0
    return InclusionProfile(
        probabilities=counts / len(retained),
        uniform_reference=1.0 / chain.n_features,
        m=retained[0].m,
    )


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
    cache = cache or CostCache(dataset)
    keys, costs = zip(*all_subset_costs(cache, m, budget))
    probs = _stable_weights(-eta * np.array(costs))
    inclusion = np.zeros(r, dtype=float)
    for key, prob in zip(keys, probs):
        for k in key:
            inclusion[k - 1] += prob
    return ExactDistribution(
        subset_probabilities={k: float(pr) for k, pr in zip(keys, probs)},
        inclusion=InclusionProfile(
            probabilities=inclusion, uniform_reference=1.0 / r, m=m
        ),
    )
