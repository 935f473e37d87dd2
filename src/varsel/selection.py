"""Selection of the effective number of variables along a ranking.

An information criterion scores each prefix of a ranking with a Gaussian
fitting term plus a complexity penalty, 2 * xi * M; the constant xi is all
that distinguishes AIC, BIC and HQIC.  The p-value rule instead stops
backward elimination at the largest model whose coefficients all pass the
significance threshold.  Elbow detection on the error curve stays a report
annotation, never a selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .ranking import Ranking


class Criterion(str, Enum):
    AIC = "aic"
    BIC = "bic"
    HQIC = "hqic"
    PVALUE = "pvalue"


@dataclass(frozen=True)
class OrderSelection:
    """Chosen model size plus the per-prefix criterion curve.

    For the information criteria the curve holds criterion values (+inf for
    rank-deficient prefixes, -inf for perfect fits); for the p-value rule it
    holds 0/1 admissibility flags.
    """

    criterion: Criterion
    m_star: int
    curve: np.ndarray

    def __post_init__(self):
        curve = np.asarray(self.curve, dtype=float)
        curve.setflags(write=False)
        object.__setattr__(self, "curve", curve)
        if not 1 <= self.m_star <= len(self.curve):
            raise ConfigError("m_star must lie in [1, R]")


def penalty_constant(criterion: Criterion, n: int) -> float:
    """The xi multiplier of the complexity penalty 2 * xi * M."""
    if criterion == Criterion.AIC:
        return 1.0
    if criterion == Criterion.BIC:
        return math.log(n) / 2.0
    if criterion == Criterion.HQIC:
        return math.log(math.log(n))
    raise ConfigError(f"{criterion} has no penalty constant")


def information_criterion_value(
    mse: float, n: int, m: int, criterion: Criterion
) -> float:
    """Gaussian -2 log-likelihood at the MLE plus the complexity penalty.

    With sigma^2 estimated by the in-sample MSE the fitting term closes to
    n*log(2*pi*mse) + n.  The penalty counts the m features only (counting
    the intercept too would add the same constant to every prefix and
    could not move the argmin).  A perfect fit (mse = 0) returns -inf, a
    sentinel that always wins the argmin.
    """
    if n < m + 2:
        raise ConfigError(f"need n >= m + 2 (n={n}, m={m})")
    if mse == 0.0:
        return -math.inf
    fitting = n * math.log(2.0 * math.pi * mse) + n
    return fitting + 2.0 * penalty_constant(criterion, n) * m


def select_order(
    dataset: Dataset, ranking: Ranking, criterion: Criterion
) -> OrderSelection:
    """Evaluate the criterion along ranking prefixes and return the argmin.

    Each prefix's MSE comes from ``ranking.mse_curve``, fitted once when
    the ranking was built on ``dataset``; nothing is refitted here.
    Rank-deficient prefixes (+inf MSE) and prefixes with n < m + 2 score
    +inf and are never selected; ties go to the smallest model.
    """
    if criterion == Criterion.PVALUE:
        raise ConfigError("use pvalue_stopping for the p-value rule")
    if len(ranking.order) != dataset.n_features:
        raise ConfigError("ranking and dataset differ in feature count")
    curve = np.full(dataset.n_features, math.inf)
    for m, mse in enumerate(ranking.mse_curve.tolist(), start=1):
        try:  # a rank-deficient prefix's +inf MSE scores +inf
            curve[m - 1] = information_criterion_value(
                mse, dataset.n_rows, m, criterion)
        except ConfigError:
            continue  # n < m + 2
    if not (curve < math.inf).any():
        raise ConfigError("every ranking prefix is rank-deficient")
    m_star = int(np.argmin(curve)) + 1
    return OrderSelection(criterion=criterion, m_star=m_star, curve=curve)


def pvalue_stopping(pv_ranking: Ranking) -> OrderSelection:
    """Largest model size at which backward elimination on p-values stops,
    i.e. every retained coefficient satisfies the threshold the ranking was
    built with (``rank_pvalues(alpha_threshold=...)``).

    Falls back to m_star = 1 when no prefix is admissible (the rule would
    reject even the single best feature).
    """
    if pv_ranking.admissible is None:
        raise ConfigError("pvalue_stopping needs a ranking from rank_pvalues")
    flags = np.array(pv_ranking.admissible, dtype=float)
    admissible_sizes = [m for m, ok in enumerate(pv_ranking.admissible, start=1) if ok]
    m_star = max(admissible_sizes) if admissible_sizes else 1
    return OrderSelection(criterion=Criterion.PVALUE, m_star=m_star, curve=flags)


def elbow_annotation(error_curve: np.ndarray) -> int | None:
    """Prefix size of maximum curvature of the error curve in log-log axes.

    Purely a report annotation mirroring visual elbow inspection; returns
    None when the curve is too short or degenerate to bend.
    """
    values = np.asarray(error_curve, dtype=float)
    r = len(values)
    if r < 3:
        return None
    positive = values[values > 0]
    if positive.size == 0:
        return None
    floor = positive.min() * 1e-6
    u = np.log(np.arange(1, r + 1, dtype=float))
    v = np.log(np.maximum(values, floor))
    best_m, best_curvature = None, 0.0
    for i in range(1, r - 1):
        du, dv = u[i + 1] - u[i - 1], v[i + 1] - v[i - 1]
        d2u = u[i + 1] - 2 * u[i] + u[i - 1]
        d2v = v[i + 1] - 2 * v[i] + v[i - 1]
        speed = math.hypot(du, dv)
        if speed == 0.0:
            continue
        curvature = abs(du * d2v - dv * d2u) / speed**3
        if curvature > best_curvature:
            best_m, best_curvature = i + 1, curvature
    return best_m
