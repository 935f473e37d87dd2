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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset, FeatureSubset, unit_centered_columns
from .errors import ConfigError, DegenerateStepError, RankDeficiencyError
from .linmodel import (
    build_design_matrix,
    fit_least_squares,
    fit_subset,
    neighbour_costs,
    pool_factor,
    removal_maes,
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
    all coefficients below the significance threshold.  A rank-deficient
    prefix is recorded once, as +inf in ``mse_curve`` (a full-rank fit's
    SS_res / N is finite); there ``error_curve`` repeats the previous
    prefix's MAE.
    """

    method: RankingMethod
    order: tuple[int, ...]
    error_curve: np.ndarray
    mse_curve: np.ndarray
    raw_order: tuple[int, ...] | None = None
    admissible: tuple[bool, ...] | None = None

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

    @property
    def filled_prefixes(self) -> tuple[int, ...]:
        """The 1-based prefix sizes whose fit was rank-deficient."""
        return tuple((np.flatnonzero(np.isinf(self.mse_curve)) + 1).tolist())


def error_curve(
    dataset: Dataset, order: tuple[int, ...] | list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """MAE and MSE of the least-squares fit on each prefix of ``order``.

    Entry M-1 holds the errors using the first M features.  At a
    rank-deficient prefix the MAE repeats the previous prefix's (the
    intercept-only MAE for M=1) and the MSE is +inf.
    """
    order = tuple(int(k) for k in order)
    r = dataset.n_features
    if sorted(order) != list(range(1, r + 1)):
        raise ConfigError("order must be a permutation of 1..R")
    mae_curve = np.empty(r, dtype=float)
    mse_curve = np.full(r, math.inf)
    previous = fit_subset(dataset, FeatureSubset(())).mae
    for m in range(1, r + 1):
        try:
            fit = fit_subset(dataset, FeatureSubset(order[:m]))
            previous, mse_curve[m - 1] = fit.mae, fit.mse
        except RankDeficiencyError:
            pass  # the MAE repeats and the MSE stays +inf
        mae_curve[m - 1] = previous
    return mae_curve, mse_curve


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
    mae_curve, mse_curve = error_curve(dataset, tuple(order))
    return Ranking(
        method=method,
        order=tuple(order),
        error_curve=mae_curve,
        mse_curve=mse_curve,
        raw_order=None if raw_order is None else tuple(raw_order),
        admissible=None if admissible is None else tuple(admissible),
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


def rank_forward_selection(dataset: Dataset) -> Ranking:
    """RM1: grow the model by the feature minimizing the prefix MAE."""
    return _finish(RankingMethod.RM1_FORWARD, dataset,
                   _grow(dataset, largest=False))


def rank_backward_elimination(dataset: Dataset) -> Ranking:
    """RM2: repeatedly remove the feature whose removal leaves the lowest
    MAE; the reversed removal order is best-to-worst."""
    usable, dropped = _usable_features(dataset)
    removals = _stepwise(usable, lambda taken, pool: removal_maes(dataset, pool),
                         largest=False)
    return _finish(RankingMethod.RM2_BACKWARD, dataset,
                   removals[::-1] + dropped, raw_order=removals + dropped)


def rank_remove_max_error(dataset: Dataset) -> Ranking:
    """RM3: repeatedly remove the feature whose removal raises the MAE the
    most; the removal order itself is best-to-worst."""
    usable, dropped = _usable_features(dataset)
    order = _stepwise(usable, lambda taken, pool: removal_maes(dataset, pool),
                      largest=True) + dropped
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
    sigma^2 = SS_res / (N - M - 1).  A certified pool reads the fit and the
    diagonal from its ``pool_factor``; any other pool is fitted by the SVD
    rule, which decides rank deficiency, and its diagonal comes from a
    triangular solve on the QR factor.  A zero standard error gives p = 0
    for a nonzero coefficient and p = 1 for a zero one.
    """
    factor = pool_factor(dataset, indices)
    if factor is not None:
        coefs, residuals = factor.coefficients[1:], factor.residuals
        gram_inv_diag = factor.gram_inv_diag
    else:
        design = build_design_matrix(dataset, FeatureSubset(indices))
        fit = fit_least_squares(design, dataset.target)
        coefs, residuals = fit.coefficients, fit.residuals
        # LU leaves a triangular factor as it is, so ``solve`` is the
        # triangular back substitution
        r_inv = np.linalg.solve(np.linalg.qr(design.values, mode="r"),
                                np.eye(design.n_columns))
        gram_inv_diag = (r_inv**2).sum(axis=1)
    n, p = dataset.n_rows, len(indices) + 1
    dof = n - p
    if dof < 1:
        raise ConfigError(f"p-values need N >= M + 2 (N={n}, M={p - 1})")
    sigma2 = float(residuals @ residuals) / dof
    se = np.sqrt(sigma2 * gram_inv_diag[1:])
    positive = se > 0.0
    t = np.divide(np.abs(coefs), se, out=np.zeros(len(se)), where=positive)
    # stdtr(dof, -t) is the t survival function, the very call that
    # ``scipy.stats.t.sf`` makes, without importing ``scipy.stats``; it is
    # imported here so that only a p-value ranking loads ``scipy.special``
    from scipy.special import stdtr

    return np.where(positive, 2.0 * stdtr(dof, -t),
                    np.where(coefs != 0.0, 0.0, 1.0))


def check_pvalue_threshold(alpha_threshold: float) -> None:
    """The significance levels ``rank_pvalues`` accepts: (0, 1]."""
    if not 0.0 < alpha_threshold <= 1.0:
        raise ConfigError("the p-value threshold must lie in (0, 1]")


def rank_pvalues(dataset: Dataset, alpha_threshold: float = 0.05) -> Ranking:
    """Backward stepwise elimination on t-test p-values.

    Repeatedly drops the coefficient with the largest p-value; the reversed
    removal order is best-to-worst.  For each model size M the ``admissible``
    flag records whether all retained coefficients had p < alpha, which is
    where the classical stopping rule would halt.
    """
    check_pvalue_threshold(alpha_threshold)
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
