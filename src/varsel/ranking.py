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
every method; each public ``rank_*`` function calls it.  The removing
methods build their state from ``Dataset.usable_pool``, which every
removing ranking of the table shares.

Every method returns the same shape: a best-to-worst permutation of all
features plus the per-prefix MAE and MSE curves.  Methods whose native
output runs worst-to-best (backward elimination, add-max) are normalized
by reversal; the raw removal/addition sequence is kept alongside so reports
can show both conventions.  A greedy method ranks the columns it cannot
rank last, in index order (see ``rank_features``): a forward step with no
full-rank candidate, and a p-value pool the SVD rule calls rank-deficient,
end the pass.  Ties are always broken by the lowest feature index.  RM5
ties |rho| values within ``RHO_TIE`` = 1e-10 of their neighbour in
decreasing order, transitively: affine copies of a column correlate
equally in exact arithmetic, and a fixed grid such as ``round(|rho|, 10)``
still orders the copies that straddle a grid line.  A constant column (``max == min``) correlates 0 with everything, and a
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

from .data import (Dataset, FeatureSubset, binary_scaled, feature_indices,
                   unit_centered_columns)
from .errors import ConfigError, RankDeficiencyError
from .linmodel import (
    Factor,
    _AddState,
    _DropState,
    _certified,
    _prefix_decisions,
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

    Every prefix is read from the table's one QR, ``Dataset.table_qr``:
    ``[1, X] = Q_T A_T`` in index order, with ``Q_T^T y`` (Bjorck,
    *Numerical Methods for Least Squares Problems*, 1996, 2.4; Golub & Van
    Loan 5.3).  The order's design ``[1, x_o1, ..., x_oR]`` is ``Q_T`` times
    the columns ``cols = [0, o1, ..., oR]`` of ``A_T``, whose small QR
    ``A_T[:, cols] = Q_B A_B`` gives the order's factor ``(Q_T Q_B) A_B``
    with ``t = Q_B^T (Q_T^T y)``.  Prefix M's design is ``Q_T Q_B[:, :M+1]
    A_M`` with ``A_M = A_B[:M+1, :M+1]``, so its fit is ``Q_T`` times the
    sum of the first M + 1 columns of ``Q_B`` scaled by t: all R + 1
    residuals are ``y - Q_T cumsum(Q_B * t, axis=1)``, one product, scored
    by one ``error_metrics`` call, and the order's N x (R+1) Q is never
    formed.  ``linmodel._prefix_decisions`` decides each prefix in one of
    three ways, as ``linmodel.neighbour_costs`` decides a candidate.

    * Certified.  The certificate (``linmodel._certified``) of ``A_B`` and
      the table's column norms bounds the condition of a leading run of
      prefixes, ``Factor.n_certified`` long, far inside the SVD rule; those
      are full-rank with no further work.
    * By the leading block.  The singular values of ``A_M`` are the
      design's up to the Householder backward error of both QRs (the
      argument for ``RANK_BAND`` in ``neighbour_costs``).  A ratio above
      ``RANK_RCOND * RANK_BAND`` is full-rank and one at or below
      ``RANK_RCOND / RANK_BAND`` rank-deficient.  The ratio of nested
      prefixes does not rise with M, so past the certified run a bisection
      finds the first prefix not above the band from about log2 R blocks;
      the prefixes in the band are taken one by one up to the first below
      it.  A prefix before the first is full-rank, its ratio at least that
      of a later block found above the band, and one after the last
      rank-deficient, its ratio at most that of an earlier block found
      below it.
    * By the SVD rule.  A ratio in the band between is refitted by
      ``fit_subset``, which decides its rank and gives its errors.
    """
    order = feature_indices(order)
    r = dataset.n_features
    if sorted(order) != list(range(1, r + 1)):
        raise ConfigError("order must be a permutation of 1..R")
    factor, residuals = _order_factor(dataset, order)
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


def _order_factor(dataset: Dataset, order: tuple[int, ...]
                  ) -> tuple[Factor, np.ndarray]:
    """The ``Factor`` of the design of ``order``, a permutation of 1..R,
    read from the table's QR as ``error_curve`` describes, and the
    residual of every prefix, one row each, M = 0..R.  The factor's ``q``
    is ``Q_B``, the order's Q in the basis of ``Q_T``."""
    q_t, a_t, qty = dataset.table_qr
    cols = np.array([0, *order])
    q_b, a_b = np.linalg.qr(a_t[:, cols])
    t = qty @ q_b
    # column M: prefix M's fit in the basis of Q_T
    fits = np.cumsum(q_b * t, axis=1)
    residuals = fits.T @ q_t.T  # row M: prefix M's fit, then its residual
    np.subtract(dataset.target, residuals, out=residuals)
    norm2 = np.r_[float(dataset.n_rows), dataset.column_norm2][cols]
    return _certified(q_b, a_b, norm2, t, residuals[-1]), residuals


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
    with ``largest``; the earliest entry wins ties.  A step with no finite
    score ends the pass, and the entries taken so far are returned.
    """
    pool = list(pool)
    taken: list[int] = []
    while pool:
        scores = np.asarray(price(taken, pool), dtype=float)
        if largest:  # the largest finite score is the least negated one
            scores = np.where(np.isfinite(scores), -scores, math.inf)
        pick = int(np.argmin(scores))
        if scores[pick] == math.inf:
            break
        taken.append(pool.pop(pick))
    return taken


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
    zero coefficient and +inf for a nonzero one.  sigma^2 is summed from
    the residuals at the scale 2^-e of ``binary_scaled``, and |t| is
    ``2^-e |b| / (2^-e se)``: the bits of ``|b| / se``, with no square to
    overflow on a large target."""
    n, p = state.dataset.n_rows, len(state.pool) + 1
    dof = n - p
    if dof < 1:
        raise ConfigError(f"p-values need N >= M + 2 (N={n}, M={p - 1})")
    coefs, residuals, gram_inv_diag = state.coefficient_fit()
    scaled, exponent = binary_scaled(residuals)
    se_scaled = np.sqrt(float(scaled @ scaled) / dof * gram_inv_diag[1:])
    t = np.where(coefs != 0.0, math.inf, 0.0)
    with np.errstate(over="ignore"):
        return np.divide(np.ldexp(np.abs(coefs), -exponent), se_scaled, out=t,
                         where=se_scaled > 0.0), dof


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

    removes: bool  # empties the ``Dataset.usable_pool``, or adds every column
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


def rank_features(dataset: Dataset, method: RankingMethod,
                  alpha_threshold: float = 0.05) -> Ranking:
    """Run one ranking method by tag, as its ``_GREEDY`` row says.  A
    removing one builds its state from the table's ``Dataset.usable_pool``,
    which the removing rankings of a table share.  Both orders end in one
    tail: the columns left by a step with no full-rank candidate, or by a
    p-value pool the SVD rule calls rank-deficient, then those the
    ``linmodel._usable_features`` scan dropped, each in index order."""
    method = RankingMethod(method)
    if method not in _GREEDY:
        return _finish(method, dataset, _correlation_order(dataset))
    greedy = _GREEDY[method]
    if greedy.removes:
        usable, dropped, factor = dataset.usable_pool
        state, tail = _DropState(dataset, usable, factor), list(dropped)
        read = _DropState.removal_maes
    else:
        state, tail, read = _AddState(dataset), [], _AddState.costs
    admissible = None
    if method == RankingMethod.PVALUE:
        check_pvalue_threshold(alpha_threshold)
        smallest = []  # each step's smallest |t| and its degrees of freedom

        def read(state):
            try:
                t, dof = _t_statistics(state)
            except RankDeficiencyError:  # the SVD rule's pool: the pass ends
                return np.full(len(state.pool), math.inf)
            smallest.append((t.min(), dof))
            # a finite stand-in for +inf, which ``_stepwise`` would not take
            return np.minimum(t, UNBOUNDED_T)

    pool = list(state.pool)
    taken = _stepwise(pool, lambda done, _: read(state.follow(done)), greedy.largest)
    del state  # the state goes before the error curve takes its residuals
    tail = sorted(set(pool).difference(taken)) + tail  # the one tail rule
    if method == RankingMethod.PVALUE:
        # step i of k prices a pool of k - i columns: entry k - 1 - i
        t, dof = np.array(smallest, dtype=float).reshape(-1, 2).T
        admissible = [False] * dataset.n_features
        k = len(pool)
        admissible[k - len(t):k] = (two_sided_tail(t, dof) < alpha_threshold)[::-1].tolist()
    order = (taken[::-1] if greedy.worst_first else taken) + tail
    # kept for every removal, and for the addition run worst to best (RM4)
    raw_order = taken + tail if greedy.removes or greedy.worst_first else None
    return _finish(method, dataset, order, raw_order, admissible)
