"""Best-to-worst feature orderings under six ranking criteria.

Four of the methods are greedy procedures over prediction error (forward
add-min, backward remove-min, remove-max, add-max), one sorts by absolute
Pearson correlation with the target, and one is classical backward
elimination on per-coefficient t-test p-values; all but RM5 run one loop.

Every method returns the same shape: a best-to-worst permutation of all
features plus the per-prefix MAE and MSE curves.  Methods whose native
output runs worst-to-best (backward elimination, add-max) are normalized
by reversal; the raw removal/addition sequence is kept alongside so reports
can show both conventions.  Ties are always broken by the lowest feature
index.  RM5 ties |rho| values within ``RHO_TIE`` = 1e-10 of their
neighbour in decreasing order, transitively: affine copies of a column
correlate equally in exact arithmetic, and a fixed grid such as
``round(|rho|, 10)`` still orders the copies that straddle a grid line.  A
constant column (``max == min``) correlates 0 with everything, and a
constant target with every feature.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.stats import t as student_t

from .data import Dataset, FeatureSubset, unit_centered_columns
from .errors import ConfigError, DegenerateStepError, RankDeficiencyError
from .linmodel import (
    build_design_matrix,
    fit_least_squares,
    fit_subset,
    neighbour_costs,
)

RHO_TIE = 1e-10


class RankingMethod(str, Enum):
    RM1_FORWARD = "rm1-forward"
    RM2_BACKWARD = "rm2-backward"
    RM3_REMOVE_MAX = "rm3-remove-max"
    RM4_ADD_MAX = "rm4-add-max"
    RM5_CORRELATION = "rm5-correlation"
    PVALUE = "pvalue"


@dataclass(frozen=True)
class Ranking:
    """A method tag, a best-to-worst permutation, and its error curves.

    ``raw_order`` preserves the native removal/addition sequence for the
    methods that produce one (None otherwise).  ``admissible`` is only set
    by the p-value method: entry M-1 says whether the M-feature model kept
    all coefficients below the significance threshold.  ``filled_prefixes``
    lists prefix sizes whose fit was rank-deficient; there ``error_curve``
    repeats the previous prefix's MAE and ``mse_curve`` holds +inf.
    """

    method: RankingMethod
    order: tuple[int, ...]
    error_curve: np.ndarray
    mse_curve: np.ndarray
    raw_order: tuple[int, ...] | None = None
    admissible: tuple[bool, ...] | None = None
    filled_prefixes: tuple[int, ...] = ()

    def __post_init__(self):
        r = len(self.order)
        if sorted(self.order) != list(range(1, r + 1)):
            raise ConfigError("order must be a permutation of 1..R")
        for name in ("error_curve", "mse_curve"):
            curve = np.asarray(getattr(self, name), dtype=float)
            curve.setflags(write=False)
            object.__setattr__(self, name, curve)
            if curve.shape != (r,):
                raise ConfigError(f"{name} must have one entry per feature")


def error_curve(
    dataset: Dataset, order: tuple[int, ...] | list[int]
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """MAE and MSE of the least-squares fit on each prefix of ``order``.

    Entry M-1 holds the errors using the first M features.  At a
    rank-deficient prefix the MAE repeats the previous prefix's (the
    intercept-only MAE for M=1), the MSE is +inf, and its size is reported
    in the third return value.
    """
    order = tuple(int(k) for k in order)
    r = dataset.n_features
    if sorted(order) != list(range(1, r + 1)):
        raise ConfigError("order must be a permutation of 1..R")
    mae_curve = np.empty(r, dtype=float)
    mse_curve = np.full(r, math.inf)
    filled = []
    previous = fit_subset(dataset, FeatureSubset(())).mae
    for m in range(1, r + 1):
        try:
            fit = fit_subset(dataset, FeatureSubset(order[:m]))
            previous, mse_curve[m - 1] = fit.mae, fit.mse
        except RankDeficiencyError:
            filled.append(m)
        mae_curve[m - 1] = previous
    return mae_curve, mse_curve, tuple(filled)


def _usable_features(dataset: Dataset) -> tuple[list[int], list[int]]:
    """Split features into a maximal full-rank set and the dropped rest.

    Greedy scan in ascending index order over an incrementally extended
    orthonormal basis (intercept first, always kept): a column is kept iff
    its component orthogonal to the current basis is non-negligible.
    Backward procedures start from the usable set and record the dropped
    indices at the tail of their order.
    """
    n = dataset.n_rows
    basis = np.ones((n, 1)) / math.sqrt(n)
    usable, dropped = [], []
    for k in range(1, dataset.n_features + 1):
        x = dataset.features[:, k - 1]
        scale = np.linalg.norm(x)
        resid = x - basis @ (basis.T @ x)
        resid -= basis @ (basis.T @ resid)  # one reorthogonalization pass
        norm = np.linalg.norm(resid)
        # Cutoff sits well above the solver's singular-value threshold so a
        # kept column can never trip the rank check downstream.
        if scale == 0.0 or norm <= 1e-8 * scale:
            dropped.append(k)
        else:
            basis = np.hstack([basis, (resid / norm)[:, None]])
            usable.append(k)
    return usable, dropped


def _finish(method, dataset, order, raw_order=None, admissible=None) -> Ranking:
    mae_curve, mse_curve, filled = error_curve(dataset, tuple(order))
    return Ranking(
        method=method,
        order=tuple(order),
        error_curve=mae_curve,
        mse_curve=mse_curve,
        raw_order=None if raw_order is None else tuple(raw_order),
        admissible=None if admissible is None else tuple(admissible),
        filled_prefixes=filled,
    )


def _stepwise(pool, price, largest: bool) -> list[int]:
    """Empty ``pool`` greedily; return its entries in the order taken.

    Each step ``price(taken, pool)`` scores every entry left (+inf when
    rank-deficient) and takes the lowest score, or the highest finite one
    with ``largest``; the earliest entry wins ties.  Raises
    ``DegenerateStepError`` when no score of a step is finite.
    """
    pool = list(pool)
    taken: list[int] = []
    while pool:
        scores = np.asarray(price(taken, pool), dtype=float)
        finite = np.isfinite(scores)
        if not finite.any():
            raise DegenerateStepError(
                f"every candidate of {pool} after {taken} is rank-deficient"
            )
        if largest:
            pick = np.argmax(np.where(finite, scores, -math.inf))
        else:
            pick = np.argmin(scores)
        taken.append(pool.pop(int(pick)))
    return taken


def _grow(dataset: Dataset, largest: bool) -> list[int]:
    """Addition order of a forward pass: one ``neighbour_costs`` batch
    prices every remaining feature at each step."""
    return _stepwise(
        range(1, dataset.n_features + 1),
        lambda taken, pool: neighbour_costs(dataset, tuple(taken), pool),
        largest,
    )


def _removal_maes(dataset: Dataset):
    """Price each removal by the MAE of the rest of the pool (one SVD fit
    per candidate)."""
    def price(taken, pool):
        maes = np.full(len(pool), math.inf)
        for i in range(len(pool)):
            rest = FeatureSubset(tuple(pool[:i] + pool[i + 1:]))
            with suppress(RankDeficiencyError):
                maes[i] = fit_subset(dataset, rest).mae
        return maes
    return price


def rank_forward_selection(dataset: Dataset) -> Ranking:
    """RM1: grow the model by the feature minimizing the prefix MAE."""
    return _finish(RankingMethod.RM1_FORWARD, dataset,
                   _grow(dataset, largest=False))


def rank_backward_elimination(dataset: Dataset) -> Ranking:
    """RM2: repeatedly remove the feature whose removal leaves the lowest
    MAE; the reversed removal order is best-to-worst."""
    usable, dropped = _usable_features(dataset)
    removals = _stepwise(usable, _removal_maes(dataset), largest=False)
    return _finish(RankingMethod.RM2_BACKWARD, dataset,
                   removals[::-1] + dropped, raw_order=removals + dropped)


def rank_remove_max_error(dataset: Dataset) -> Ranking:
    """RM3: repeatedly remove the feature whose removal raises the MAE the
    most; the removal order itself is best-to-worst."""
    usable, dropped = _usable_features(dataset)
    order = _stepwise(usable, _removal_maes(dataset), largest=True) + dropped
    return _finish(RankingMethod.RM3_REMOVE_MAX, dataset, order,
                   raw_order=order)


def rank_add_max_error(dataset: Dataset) -> Ranking:
    """RM4: grow the model by the feature maximizing the prefix MAE, worst
    to best; the reversed addition order is best-to-worst."""
    added = _grow(dataset, largest=True)
    return _finish(RankingMethod.RM4_ADD_MAX, dataset, added[::-1],
                   raw_order=added)


def rank_correlation(dataset: Dataset) -> Ranking:
    """RM5: sort by decreasing |Pearson correlation| with the target, one
    product of ``unit_centered_columns``; ties as in the module docstring."""
    unit = unit_centered_columns(dataset.features)
    rho = unit.T @ unit_centered_columns(dataset.target[:, None])[:, 0]
    score = np.abs(rho)
    desc = np.argsort(-score, kind="stable")
    tie_group = np.cumsum(np.r_[0, -np.diff(score[desc]) > RHO_TIE])
    order = desc[np.lexsort((desc, tie_group))] + 1
    return _finish(RankingMethod.RM5_CORRELATION, dataset, order.tolist())


def coefficient_pvalues(dataset: Dataset, indices: tuple[int, ...]) -> np.ndarray:
    """Two-sided t-test p-values for each feature coefficient of the fit on
    ``indices`` (intercept excluded).

    Standard errors come from sigma^2 * diag((X^T X)^-1) with the unbiased
    sigma^2 = SS_res / (N - M - 1), computed through the economic QR factor
    rather than an explicit Gram inverse.
    """
    design = build_design_matrix(dataset, FeatureSubset(indices))
    fit = fit_least_squares(design, dataset.target)
    x = design.values
    n, p = x.shape
    dof = n - p
    if dof < 1:
        raise ConfigError(f"p-values need N >= M + 2 (N={n}, M={p - 1})")
    _, r_factor = scipy.linalg.qr(x, mode="economic")
    r_inv = scipy.linalg.solve_triangular(r_factor, np.eye(p))
    gram_inv_diag = (r_inv**2).sum(axis=1)
    sigma2 = float(fit.residuals @ fit.residuals) / dof
    se = np.sqrt(sigma2 * gram_inv_diag[1:])
    coefs = fit.coefficients
    pvalues = np.empty(len(indices), dtype=float)
    for i, (b, s) in enumerate(zip(coefs, se)):
        if s == 0.0:
            pvalues[i] = 0.0 if b != 0.0 else 1.0
        else:
            pvalues[i] = 2.0 * float(student_t.sf(abs(b) / s, dof))
    return pvalues


def rank_pvalues(dataset: Dataset, alpha_threshold: float = 0.05) -> Ranking:
    """Backward stepwise elimination on t-test p-values.

    Repeatedly drops the coefficient with the largest p-value; the reversed
    removal order is best-to-worst.  For each model size M the ``admissible``
    flag records whether all retained coefficients had p < alpha, which is
    where the classical stopping rule would halt.
    """
    admissible = [False] * dataset.n_features

    def price(taken, pool):
        pvalues = coefficient_pvalues(dataset, tuple(pool))
        admissible[len(pool) - 1] = bool(np.max(pvalues) < alpha_threshold)
        return pvalues

    usable, dropped = _usable_features(dataset)
    removals = _stepwise(usable, price, largest=True)
    return _finish(RankingMethod.PVALUE, dataset, removals[::-1] + dropped,
                   raw_order=removals + dropped, admissible=admissible)


_DISPATCH = {
    RankingMethod.RM1_FORWARD: rank_forward_selection,
    RankingMethod.RM2_BACKWARD: rank_backward_elimination,
    RankingMethod.RM3_REMOVE_MAX: rank_remove_max_error,
    RankingMethod.RM4_ADD_MAX: rank_add_max_error,
    RankingMethod.RM5_CORRELATION: rank_correlation,
}


def rank_features(dataset: Dataset, method: RankingMethod,
                  alpha_threshold: float = 0.05) -> Ranking:
    """Run one ranking method by tag."""
    if method == RankingMethod.PVALUE:
        return rank_pvalues(dataset, alpha_threshold)
    return _DISPATCH[method](dataset)
