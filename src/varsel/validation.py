"""Monte Carlo cross-validation and the feature-correlation graph.

CV test splits are scored by ``linmodel.error_metrics``, as every in-sample
fit is, a block of splits to a call: ``monte_carlo_cv`` writes each kept
split's test residuals and test targets into one row of two block buffers
(``CV_BLOCK_ENTRIES`` entries each) and scores the full block, and the
partial one at the end, with one stacked call."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, FeatureSubset, run_rng, unit_centered_columns
from .errors import ConfigError, RankDeficiencyError
from .linmodel import (FitResult, build_design_matrix, error_metrics, fit_subset,
                       full_rank_lstsq)

# Entries of each of CV's two block buffers (test residuals, test targets):
# 2 x 512 KiB, 269 splits a block at 243 test rows.
CV_BLOCK_ENTRIES = 1 << 16


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


def monte_carlo_cv(
    dataset: Dataset,
    subset: FeatureSubset,
    train_fraction: float = 0.8,
    runs: int = 20000,
    seed: int = 0,
) -> CvReport:
    """Repeated random-split validation of one subset model.

    Each run draws a fresh uniform split from a per-run generator keyed by
    (seed, run index) and gathers the permuted rows once: the first
    ``floor(train_fraction * N)`` are fitted with ``linmodel.full_rank_lstsq``
    and the rest are scored with ``linmodel.error_metrics``, a block of
    splits to a call (see the module docstring), so test R-squared is taken
    about the test-split mean.  A train fit that is rank-deficient is
    resampled once, then counted as skipped.  The report aggregates the kept
    splits in run order.
    """
    subset.validate_against(dataset)
    check_cv_settings(train_fraction, runs)
    n = dataset.n_rows
    n_train = int(math.floor(train_fraction * n))
    if n_train < subset.m + 2:
        raise ConfigError(
            f"train split of {n_train} rows cannot fit {subset.m} features"
        )
    if n_train >= n:
        raise ConfigError("test split is empty")
    x, y = build_design_matrix(dataset, subset).values, dataset.target
    n_test = n - n_train
    block = min(runs, max(1, CV_BLOCK_ENTRIES // n_test))
    residuals, targets = np.empty((block, n_test)), np.empty((block, n_test))
    scored, filled = [], 0
    for run in range(runs):
        rng = run_rng(seed, run)
        for _ in range(2):  # one resample allowed per run
            perm = rng.permutation(n)
            xp, yp = x.take(perm, axis=0), y.take(perm)
            try:
                coef = full_rank_lstsq(xp[:n_train], yp[:n_train], subset)
            except RankDeficiencyError:
                continue
            np.subtract(yp[n_train:], xp[n_train:] @ coef, out=residuals[filled])
            targets[filled] = yp[n_train:]
            filled += 1
            break
        if filled == block or (run == runs - 1 and filled):
            scored.append(np.column_stack(
                error_metrics(residuals[:filled], targets[:filled])))
            filled = 0
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
