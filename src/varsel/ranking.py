"""Best-to-worst feature orderings under six ranking criteria.

Four of the methods are greedy procedures over prediction error (forward
add-min, backward remove-min, remove-max, add-max), one sorts by absolute
Pearson correlation with the target, and one is classical backward
elimination on per-coefficient t-test p-values, which drops the smallest
|t| at each step and takes the Student t tail (``student_t``) only for the
``admissible`` flags and ``coefficient_pvalues``.  All but RM5 run one loop,
``_stepwise``, and one row each of ``_GREEDY`` says how: whether the method
adds columns or removes them, whether a step takes the largest score, and
whether the sequence taken runs worst to best.  ``rank_features`` runs
every method; each public ``rank_*`` function calls it.

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
import sys
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .data import Dataset, FeatureSubset, feature_indices, unit_centered_columns
from .errors import ConfigError, DegenerateStepError, RankDeficiencyError
from .linmodel import (
    _AddState,
    _DropState,
    _factor,
    _prefix_decisions,
    _usable_features,
    error_metrics,
    fit_subset,
)
from .student_t import two_sided_tail

RHO_TIE = 1e-10
UNBOUNDED_T = sys.float_info.max  # the score of |t| = +inf


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

    Every prefix is read from one ``linmodel._factor`` of the whole ordered
    design, ``[1, x_o1, ..., x_oR] = Q A`` (Bjorck, *Numerical Methods for
    Least Squares Problems*, 1996, 2.4; Golub & Van Loan 5.3).  Prefix M's
    design is ``Q[:, :M+1] A_M`` with ``A_M = A[:M+1, :M+1]``, so its
    residual is ``y - Q[:, :M+1] (Q^T y)[:M+1]``; all R + 1 residuals are
    scored by one ``error_metrics`` call.  ``linmodel._prefix_decisions``
    decides each prefix in one of three ways, as
    ``linmodel.neighbour_costs`` decides a candidate.

    * Certified.  The factor's certificate (``linmodel._certified``) bounds
      the condition of a leading run of prefixes, ``Factor.n_certified``
      long, far inside the SVD rule; those are full-rank with no further
      work.
    * By the leading block.  The singular values of ``A_M`` are the
      design's up to the Householder backward error (the argument for
      ``RANK_BAND`` in ``neighbour_costs``).  A ratio above ``RANK_RCOND *
      RANK_BAND`` is full-rank and one at or below ``RANK_RCOND /
      RANK_BAND`` rank-deficient.  The ratio of nested prefixes does not
      rise with M, so past the certified run a bisection finds the first
      prefix not above the band from about log2 R blocks; the prefixes in
      the band are taken one by one up to the first below it.  A prefix
      before the first is full-rank, its ratio at least that of a later
      block found above the band, and one after the last rank-deficient,
      its ratio at most that of an earlier block found below it.
    * By the SVD rule.  A ratio in the band between is refitted by
      ``fit_subset``, which decides its rank and gives its errors.
    """
    order = feature_indices(order)
    r = dataset.n_features
    if sorted(order) != list(range(1, r + 1)):
        raise ConfigError("order must be a permutation of 1..R")
    factor = _factor(dataset, order)
    residuals = dataset.target - np.cumsum(factor.q * factor.qty, axis=1).T
    mae, mse, _, _ = error_metrics(residuals, dataset.target)
    _, full_rank, deficient = _prefix_decisions(factor)
    mae_curve = np.empty(r, dtype=float)
    mse_curve = np.full(r, math.inf)
    previous = mae[0]
    for m in range(1, r + 1):
        if full_rank[m]:
            previous, mse_curve[m - 1] = mae[m], mse[m]
        elif not deficient[m]:
            with suppress(RankDeficiencyError):
                fit = fit_subset(dataset, FeatureSubset(order[:m]))
                previous, mse_curve[m - 1] = fit.mae, fit.mse
        mae_curve[m - 1] = previous  # repeated where rank-deficient
    return mae_curve, mse_curve


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


def _backward_start(dataset: Dataset) -> tuple[_DropState, list[int]]:
    """The start of a backward pass: the ``linmodel._DropState`` of the
    pool ``linmodel._usable_features`` keeps, and the dropped rest."""
    usable, dropped = _usable_features(dataset)
    return _DropState(dataset, usable), dropped


def rank_forward_selection(dataset: Dataset) -> Ranking:
    """RM1: grow the model by the feature minimizing the prefix MAE."""
    return rank_features(dataset, RankingMethod.RM1_FORWARD)


def rank_backward_elimination(dataset: Dataset) -> Ranking:
    """RM2: repeatedly remove the feature whose removal leaves the lowest
    MAE; the reversed removal order is best-to-worst."""
    return rank_features(dataset, RankingMethod.RM2_BACKWARD)


def rank_remove_max_error(dataset: Dataset) -> Ranking:
    """RM3: repeatedly remove the feature whose removal raises the MAE the
    most; the removal order itself is best-to-worst."""
    return rank_features(dataset, RankingMethod.RM3_REMOVE_MAX)


def rank_add_max_error(dataset: Dataset) -> Ranking:
    """RM4: grow the model by the feature maximizing the prefix MAE, worst
    to best; the reversed addition order is best-to-worst."""
    return rank_features(dataset, RankingMethod.RM4_ADD_MAX)


def rank_correlation(dataset: Dataset) -> Ranking:
    """RM5: sort by decreasing |Pearson correlation| with the target, one
    product of ``unit_centered_columns``; ties as in the module docstring."""
    return rank_features(dataset, RankingMethod.RM5_CORRELATION)


def _correlation_order(dataset: Dataset) -> list[int]:
    """The order ``rank_correlation`` ranks by."""
    unit = unit_centered_columns(dataset.features)
    rho = unit.T @ unit_centered_columns(dataset.target[:, None])[:, 0]
    score = np.abs(rho)
    desc = np.argsort(-score, kind="stable")
    tie_group = np.cumsum(np.r_[0, -np.diff(score[desc]) > RHO_TIE])
    return (desc[np.lexsort((desc, tie_group))] + 1).tolist()


def coefficient_pvalues(dataset: Dataset, indices: tuple[int, ...]) -> np.ndarray:
    """Two-sided t-test p-values for each feature coefficient of the fit on
    ``indices`` (intercept excluded).

    Standard errors come from sigma^2 * diag((X^T X)^-1) with the unbiased
    sigma^2 = SS_res / (N - M - 1), both read from the pool's
    ``linmodel._DropState`` (``coefficient_fit``), and each p is
    ``student_t.two_sided_tail`` of its |t|.  A zero standard error gives
    p = 0 for a nonzero coefficient and p = 1 for a zero one.
    """
    return _pvalues(_DropState(dataset, indices))


def _t_statistics(state: _DropState) -> tuple[np.ndarray, int]:
    """The |t| of each feature coefficient of the state's pool, and the
    fit's degrees of freedom.  A zero standard error gives |t| = 0 for a
    zero coefficient and +inf for a nonzero one."""
    coefs, residuals, gram_inv_diag = state.coefficient_fit()
    n, p = state.dataset.n_rows, len(state.pool) + 1
    dof = n - p
    if dof < 1:
        raise ConfigError(f"p-values need N >= M + 2 (N={n}, M={p - 1})")
    sigma2 = float(residuals @ residuals) / dof
    se = np.sqrt(sigma2 * gram_inv_diag[1:])
    t = np.where(coefs != 0.0, math.inf, 0.0)
    with np.errstate(over="ignore"):
        return np.divide(np.abs(coefs), se, out=t, where=se > 0.0), dof


def _pvalues(state: _DropState) -> np.ndarray:
    """``coefficient_pvalues`` of the state's pool."""
    t, dof = _t_statistics(state)
    return two_sided_tail(t, dof)


def check_pvalue_threshold(alpha_threshold: float) -> None:
    """The significance levels ``rank_pvalues`` accepts: (0, 1]."""
    if not 0.0 < alpha_threshold <= 1.0:
        raise ConfigError("the p-value threshold must lie in (0, 1]")


def rank_pvalues(dataset: Dataset, alpha_threshold: float = 0.05) -> Ranking:
    """Backward stepwise elimination on t-test p-values.

    Repeatedly drops the coefficient with the smallest |t|, which is the
    largest p-value, as every coefficient of one fit shares its degrees of
    freedom; ties in |t| go to the earliest.  The reversed removal order is
    best-to-worst.  For each model size M the ``admissible`` flag records
    whether all retained coefficients had p < alpha, which is where the
    classical stopping rule would halt: the tail at the step's smallest |t|,
    taken for every step at once after the pass.
    """
    return rank_features(dataset, RankingMethod.PVALUE, alpha_threshold)


class _Greedy(NamedTuple):
    """How a greedy ranking runs ``_stepwise``."""

    removes: bool  # empties its ``backward_starts`` start, or adds every column
    largest: bool  # a step takes the largest score, or the smallest
    worst_first: bool  # the sequence taken runs worst to best


# One row per method but RM5.  The adding methods score by
# ``_AddState.costs``, the removing ones by ``_DropState.removal_maes``, or
# by |t| for ``PVALUE``.
_GREEDY = {
    RankingMethod.RM1_FORWARD: _Greedy(removes=False, largest=False, worst_first=False),
    RankingMethod.RM2_BACKWARD: _Greedy(removes=True, largest=False, worst_first=True),
    RankingMethod.RM3_REMOVE_MAX: _Greedy(removes=True, largest=True, worst_first=False),
    RankingMethod.RM4_ADD_MAX: _Greedy(removes=False, largest=True, worst_first=True),
    RankingMethod.PVALUE: _Greedy(removes=True, largest=False, worst_first=True),
}


def backward_starts(dataset: Dataset, methods):
    """The start each of ``methods`` is ranked from by ``rank_features``, in
    order: None for a method that does not remove columns, and for the
    others (RM2, RM3 and p-values) one start, the ``_usable_features`` scan
    and the ``_DropState`` of the usable pool, built once.  Each removing
    ranking downdates its own copy; the last takes the start itself, and
    nothing here keeps it."""
    removes = [RankingMethod(m) in _GREEDY and _GREEDY[RankingMethod(m)].removes
               for m in methods]
    left = sum(removes)
    held = []
    for removing in removes:
        if not removing:
            yield None
            continue
        if not held:
            held.append(_backward_start(dataset))
        left -= 1
        yield held.pop() if not left else (held[0][0].copy(), held[0][1])


def rank_features(dataset: Dataset, method: RankingMethod,
                  alpha_threshold: float = 0.05, start=None) -> Ranking:
    """Run one ranking method by tag, as its ``_GREEDY`` row says.  A
    removing one runs from ``start``, its entry of ``backward_starts``, or
    from a start of its own, and puts the columns the scan dropped at the
    tail of its orders."""
    method = RankingMethod(method)
    if method not in _GREEDY:
        return _finish(method, dataset, _correlation_order(dataset))
    greedy = _GREEDY[method]
    if greedy.removes:
        state, tail = _backward_start(dataset) if start is None else start
        read = _DropState.removal_maes
    else:
        state, tail, read = _AddState(dataset), [], _AddState.costs
    admissible = None
    if method == RankingMethod.PVALUE:
        check_pvalue_threshold(alpha_threshold)
        smallest = []  # each step's smallest |t| and its degrees of freedom

        def read(state):
            t, dof = _t_statistics(state)
            smallest.append((t.min(), dof))
            # a finite stand-in for +inf, which ``_stepwise`` would not take
            return np.minimum(t, UNBOUNDED_T)

    taken = _stepwise(state.pool, lambda done, pool: read(state.follow(done)),
                      greedy.largest)
    del start, state  # the state goes before the error curve takes its factor
    if method == RankingMethod.PVALUE:
        # step i of k prices a pool of k - i columns: entry k - 1 - i
        t, dof = np.array(smallest, dtype=float).reshape(-1, 2).T
        admissible = [False] * dataset.n_features
        admissible[:len(t)] = (two_sided_tail(t, dof) < alpha_threshold)[::-1].tolist()
    order = (taken[::-1] if greedy.worst_first else taken) + tail
    # kept for every removal, and for the addition run worst to best (RM4)
    raw_order = taken + tail if greedy.removes or greedy.worst_first else None
    return _finish(method, dataset, order, raw_order, admissible)
