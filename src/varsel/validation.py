"""Monte Carlo cross-validation and the feature-correlation graph.

``monte_carlo_cv`` fits every CV train split from one economic QR of the
subset's whole design, by downdating the split's test rows, a block of
splits at a time: each split's generator, from vectorized derivations of
the runs' seed sequences (``data.run_rngs``), shuffles the row indices
once, then one gather of the test rows of Q, stacked products, a
Gershgorin bound (with a stacked ``eigvalsh`` of only the splits it leaves)
and one stacked ``solve``.  The design's certificate
(``linmodel.Factor``) and a floor on each split's smallest eigenvalue
certify the split full-rank under the SVD rule, and any other split is
fitted by that rule, one ``lstsq`` as before.  The test splits are scored
by ``linmodel.error_metrics``, as every in-sample fit is, one stacked call
a block; the block buffers (test rows of Q, test residuals, test targets)
hold ``CV_BLOCK_ENTRIES`` entries together."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from .data import (Dataset, FeatureSubset, check_seed, run_rng, run_rngs,
                   unit_centered_columns)
from .errors import ConfigError, RankDeficiencyError
from .linmodel import (FitResult, _factor, build_design_matrix, error_metrics,
                       fit_subset, full_rank_lstsq)

# Entries of CV's three block buffers together (the test rows of Q, test
# residuals, test targets): 1 MiB, 53 splits a block at 243 test rows and 8
# design columns.
CV_BLOCK_ENTRIES = 1 << 17

# Least eigenvalue of a split's ``M = Q_S^T Q_S`` below which
# ``monte_carlo_cv`` fits the split by the SVD rule rather than downdating
# it: the downdate solves with M, so its error grows as 1 / lambda_min(M),
# and above it a certified design's split is full-rank (see there).
DOWNDATE_EIGENVALUE_FLOOR = 0.1


@dataclass(frozen=True)
class CvReport:
    """Aggregated test-set metrics over repeated random train/test splits."""

    runs: int
    requested_runs: int
    skipped: int
    train_fraction: float
    seed: int
    r2_baseline: str  # always "test-mean", see ``monte_carlo_cv``
    mean_mae: float
    mean_mse: float
    mean_rmse: float
    mean_r2: float
    std_mae: float
    std_mse: float
    std_rmse: float
    std_r2: float
    min_rmse: float
    max_rmse: float
    high_skip_warning: bool

    def to_json(self) -> str:
        """Canonical serialization (sorted keys, round-trip floats)."""
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def check_cv_settings(train_fraction: float, runs: int) -> None:
    """The settings ``monte_carlo_cv`` rejects before it reads the table."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must lie in (0, 1)")
    if runs < 1:
        raise ConfigError("runs must be >= 1")


def _above_floor(m: np.ndarray) -> np.ndarray:
    """Mask of the symmetric matrices of the stack ``m`` whose least
    eigenvalue exceeds ``DOWNDATE_EIGENVALUE_FLOOR``.  The Gershgorin bound
    ``min_i (2 M_ii - sum_j |M_ij|) <= lambda_min`` (Gershgorin 1931)
    settles every matrix it puts above the floor, and one stacked
    ``eigvalsh`` decides the rest.  The mask is that of ``eigvalsh`` alone
    unless ``lambda_min`` lies within its rounding, about ``eps ||M||``, of
    the floor."""
    diagonal = np.diagonal(m, axis1=1, axis2=2)
    bound = (2.0 * diagonal - np.abs(m).sum(axis=2)).min(axis=1)
    above = bound > DOWNDATE_EIGENVALUE_FLOOR
    rest = np.flatnonzero(~above)
    if rest.size:
        above[rest] = np.linalg.eigvalsh(m[rest])[:, 0] > DOWNDATE_EIGENVALUE_FLOOR
    return above


def _downdated_residuals(q, r, tests, residuals, qt):
    """Fit the train split of every row of ``tests`` from the certified QR
    ``[1, X] = Q A`` of the whole design and its residual ``r``, as
    ``monte_carlo_cv`` describes: row i of ``residuals`` takes the test
    residual of split i where the returned mask (``lambda_min(M)`` above
    ``DOWNDATE_EIGENVALUE_FLOOR``, ``_above_floor``) is True and is left
    undefined elsewhere.  ``qt`` is the buffer ``Q[tests]`` is gathered
    into."""
    qt = np.take(q, tests, axis=0, out=qt)
    qtt = qt.transpose(0, 2, 1)
    m = np.eye(q.shape[1]) - qtt @ qt
    certified = _above_floor(m)
    m[~certified] = np.eye(q.shape[1])  # rows left undefined, solved harmlessly
    rt = np.take(r, tests, out=residuals)
    rt += (qt @ np.linalg.solve(m, qtt @ rt[..., None]))[..., 0]
    return certified


def _split_by_svd(x, y, n_train, subset, seed, run):
    """One run as the SVD rule fits it: ``(test residual, test target)`` of
    its first split whose train fit is full-rank, drawn from
    ``run_rng(seed, run)`` with one resample allowed, or None."""
    rng = run_rng(seed, run)
    for _ in range(2):
        perm = rng.permutation(len(y))
        xp, yp = x.take(perm, axis=0), y.take(perm)
        try:
            coef = full_rank_lstsq(xp[:n_train], yp[:n_train], subset)
        except RankDeficiencyError:
            continue
        return yp[n_train:] - xp[n_train:] @ coef, yp[n_train:]
    return None


def monte_carlo_cv(
    dataset: Dataset,
    subset: FeatureSubset,
    train_fraction: float = 0.8,
    runs: int = 20000,
    seed: int = 0,
) -> CvReport:
    """Repeated random-split validation of one subset model.

    Each run draws a fresh uniform split from a per-run generator keyed by
    (seed, run index): the first ``floor(train_fraction * N)`` rows of a
    permutation train, the rest test.  A train fit that is rank-deficient
    by the SVD rule (``linmodel.full_rank_lstsq``) is resampled once, then
    counted as skipped.  Test splits are scored by
    ``linmodel.error_metrics``, a block of splits to a call, so test
    R-squared is taken about the test-split mean, and the report
    aggregates the kept splits in run order.

    A split is fitted from one economic QR of the whole design,
    ``X = [1, X_subset] = Q A`` (``linmodel._factor``), by downdating the
    test rows T (Bjorck, *Numerical Methods for Least Squares Problems*,
    1996; Golub & Van Loan, *Matrix Computations*, 6.5).  With
    ``G = Q_T^T Q_T``, the train rows S have ``Q_S^T Q_S = M = I - G``
    and ``X_S = Q_S A``.  With ``r = y - Q Q^T y`` the full fit's
    residual, the train fit in the basis Q is ``Q^T y - M^-1 Q_T^T r_T``,
    so its test residual is ``r_T + Q_T M^-1 Q_T^T r_T``: no triangular
    solve and no gather of ``X_T``.  A block of splits takes one gather
    of ``Q[tests]``, stacked products, the floor test of ``_above_floor``
    and one stacked ``solve``.  Each split's test rows are the tail of
    one buffer of row indices that its generator shuffles afresh: the
    rows, and the generator calls, of ``run_rng(seed, run).permutation(N)``.
    The generators come from one ``run_rngs(seed, range(runs))``, which
    derives the seed sequences of ``RUN_RNGS_PASS`` run indices together,
    so that at most that many keys, not all ``runs``, are held at once: a
    few hundred kilobytes, less than the block buffers.

    The SVD rule stays the only rank rule; the downdate only fits splits
    it would certainly call full-rank.  A split is downdated iff
    ``_factor`` certifies the design (``||A^-1||_F ||X||_F <
    1 / CERTIFIED_RATIO_CAP``) and ``lambda_min(M)`` exceeds
    ``DOWNDATE_EIGENVALUE_FLOOR`` = 0.1, as a stacked ``eigvalsh``
    computes it; the Gershgorin bound settles every split it puts above
    the floor, and ``eigvalsh`` runs on the rest.  Since ``X_S = Q_S A``,
    ``sigma_min(X_S) >= sigma_min(Q_S) sigma_min(A) >= sqrt(lambda_min(M))
    / ||A^-1||_F``, and ``sigma_max(X_S) <= ||X_S||_F <= ||X||_F``, so
    such a split has ``sigma_min / sigma_max > sqrt(0.1)
    CERTIFIED_RATIO_CAP``, about 3.2e-7: 3000 times ``RANK_RCOND``.  The
    computed ``lambda_min(M)``, or its bound, is off by the rounding of G
    (dots of n_test terms of Q's unit columns), by Q's departure from
    orthonormality and by ``eigvalsh``'s own error or the rounding of the
    bound's sums, about 1e-12 together, and the QR's own
    backward error, ``eps ||X||``, moves the ratio by a multiple of eps;
    both are far inside that margin.

    The floor also keeps the downdate as accurate as the SVD fit.  M is
    formed as ``I - G``, with an error of about ``n_test eps``, and the
    solve with it magnifies that by up to ``1 / lambda_min(M)``.  The mean
    eigenvalue of M is about ``n_train / N``, so at the default 0.8 every
    ordinary split clears the floor, while at a train fraction of 0.1 or
    less nearly every split goes to the SVD rule.  At that floor the
    downdated test residuals were as close to a 50-digit solve as the SVD
    fit's (``tests/test_validation`` holds both within ``64 eps cond(X_S)
    ||y||``).

    Every other split is fitted by the SVD rule as it always was: its run
    is redrawn from ``run_rng(seed, run)`` with the same resample.  So kept
    and skipped runs and every error are those of one ``full_rank_lstsq``
    fit per split, and the downdated splits' metrics differ from that
    fit's only in their last digits.
    """
    subset.validate_against(dataset)
    check_cv_settings(train_fraction, runs)
    check_seed(seed)
    n = dataset.n_rows
    n_train = int(math.floor(train_fraction * n))
    if n_train < subset.m + 2:
        raise ConfigError(
            f"train split of {n_train} rows cannot fit {subset.m} features"
        )
    if n_train >= n:
        raise ConfigError("test split is empty")
    x, y = build_design_matrix(dataset, subset).values, dataset.target
    n_test, width = n - n_train, subset.m + 1
    factor = _factor(dataset, subset.indices)
    block = min(runs, max(1, CV_BLOCK_ENTRIES // (n_test * (width + 2))))
    residuals, targets = np.empty((block, n_test)), np.empty((block, n_test))
    qt = np.empty((block, n_test, width))
    # each split shuffles a fresh copy of 0..n-1 in ``order``: the generator
    # calls, and the permutation, of ``permutation(n)``
    rows, order = np.arange(n), np.empty(n, dtype=np.intp)
    test_rows = np.empty((block, n_test), dtype=np.intp)
    # the generators of runs 0, 1, ..., a block's worth at a time
    rngs = run_rngs(seed, range(runs)) if factor.a_inv is not None else None
    scored = []
    for start in range(0, runs, block):
        size = min(block, runs - start)
        fitted = np.zeros(size, dtype=bool)
        if rngs is not None:
            tests = test_rows[:size]
            for i, rng in enumerate(islice(rngs, size)):
                order[:] = rows
                rng.shuffle(order)
                tests[i] = order[n_train:]
            fitted = _downdated_residuals(factor.q, factor.residuals, tests,
                                          residuals[:size], qt[:size])
            np.take(y, tests, out=targets[:size])
        for i in np.flatnonzero(~fitted).tolist():
            split = _split_by_svd(x, y, n_train, subset, seed, start + i)
            if split is not None:
                residuals[i], targets[i] = split
                fitted[i] = True
        if fitted.any():
            scored.append(np.column_stack(error_metrics(
                residuals[:size][fitted], targets[:size][fitted])))
    if not scored:
        raise RankDeficiencyError(
            f"every CV train fit for subset {subset.indices} was rank-deficient",
            subset=subset,
        )
    kept = np.concatenate(scored)
    skipped = runs - len(kept)
    # compensated accumulation in run order
    count = len(kept)
    means = [math.fsum(kept[:, c]) / count for c in range(4)]
    stds = [
        math.sqrt(math.fsum((kept[:, c] - means[c]) ** 2) / count)
        for c in range(4)
    ]
    return CvReport(
        runs=int(len(kept)),
        requested_runs=runs,
        skipped=int(skipped),
        train_fraction=train_fraction,
        seed=seed,
        r2_baseline="test-mean",
        mean_mae=float(means[0]),
        mean_mse=float(means[1]),
        mean_rmse=float(means[2]),
        mean_r2=float(means[3]),
        std_mae=float(stds[0]),
        std_mse=float(stds[1]),
        std_rmse=float(stds[2]),
        std_r2=float(stds[3]),
        min_rmse=float(kept[:, 2].min()),
        max_rmse=float(kept[:, 2].max()),
        high_skip_warning=bool(skipped > 0.01 * runs),
    )


@dataclass(frozen=True)
class CorrelationGraph:
    """Feature pairs whose |Pearson correlation| reaches the threshold."""

    edges: tuple[tuple[int, int, float], ...]
    threshold: float


def check_correlation_threshold(threshold: float) -> None:
    """The thresholds ``correlation_graph`` accepts: [0, 1], as |rho|."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError("the correlation threshold must lie in [0, 1]")


def correlation_graph(dataset: Dataset, threshold: float = 0.95) -> CorrelationGraph:
    """All pairs (i < j, both 1-based, row-major) with |rho| >= threshold,
    rho from one product of ``unit_centered_columns`` clipped to [-1, 1];
    constant columns (``max == min``) produce no edges."""
    check_correlation_threshold(threshold)
    unit = unit_centered_columns(dataset.features)
    rho = np.clip(unit.T @ unit, -1.0, 1.0)
    varying = unit.any(axis=0)
    i, j = np.triu_indices(dataset.n_features, 1)
    keep = (np.abs(rho[i, j]) >= threshold) & varying[i] & varying[j]
    i, j = i[keep], j[keep]
    edges = zip((i + 1).tolist(), (j + 1).tolist(), rho[i, j].tolist())
    return CorrelationGraph(edges=tuple(edges), threshold=threshold)


@dataclass(frozen=True)
class NamedModel:
    """Full-data fit of a subset with coefficients keyed by feature label."""

    subset: FeatureSubset
    fit: FitResult
    coefficients: tuple[tuple[str, float], ...]


def fit_named_model(dataset: Dataset, subset: FeatureSubset) -> NamedModel:
    """Fit the subset on all rows and attach feature labels for reporting."""
    fit = fit_subset(dataset, subset)
    pairs = tuple(
        (dataset.label_of(k), float(b))
        for k, b in zip(subset.indices, fit.coefficients)
    )
    return NamedModel(subset=subset, fit=fit, coefficients=pairs)
