"""Monte Carlo cross-validation and the feature-correlation graph."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, FeatureSubset, run_rng, unit_centered_columns
from .errors import ConfigError, RankDeficiencyError
from .linmodel import FitResult, fit_subset, full_rank_lstsq


@dataclass(frozen=True)
class CvReport:
    """Aggregated test-set metrics over repeated random train/test splits."""

    runs: int
    requested_runs: int
    skipped: int
    train_fraction: float
    seed: int
    r2_baseline: str
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


def _split_metrics(dataset, subset, train_rows, test_rows, r2_baseline):
    """Fit on the train rows, score on the test rows; None if degenerate."""
    cols = [k - 1 for k in subset.indices]
    x_train = np.hstack(
        [np.ones((len(train_rows), 1)), dataset.features[np.ix_(train_rows, cols)]]
    )
    y_train = dataset.target[train_rows]
    try:
        coef = full_rank_lstsq(x_train, y_train, subset)
    except RankDeficiencyError:
        return None
    x_test = np.hstack(
        [np.ones((len(test_rows), 1)), dataset.features[np.ix_(test_rows, cols)]]
    )
    y_test = dataset.target[test_rows]
    residuals = y_test - x_test @ coef
    mae = float(np.abs(residuals).mean())
    mse = float(residuals @ residuals) / len(test_rows)
    baseline = y_test.mean() if r2_baseline == "test-mean" else y_train.mean()
    ss_tot = float(((y_test - baseline) ** 2).sum())
    ss_res = float(residuals @ residuals)
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return mae, mse, math.sqrt(mse), r2


def monte_carlo_cv(
    dataset: Dataset,
    subset: FeatureSubset,
    train_fraction: float = 0.8,
    runs: int = 20000,
    seed: int = 0,
    r2_baseline: str = "test-mean",
) -> CvReport:
    """Repeated random-split validation of one subset model.

    Each run draws a fresh uniform split from a per-run generator keyed by
    (seed, run index), fits on the train part and scores on the test part.
    Test R-squared is computed against the test-set mean by default
    ("train-mean" available).  A train fit that is rank-deficient under
    ``linmodel.full_rank_lstsq`` is resampled once, then counted as skipped.
    """
    subset.validate_against(dataset)
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must lie in (0, 1)")
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    if r2_baseline not in ("test-mean", "train-mean"):
        raise ConfigError(f"unknown r2_baseline {r2_baseline!r}")
    n = dataset.n_rows
    n_train = int(math.floor(train_fraction * n))
    if n_train < subset.m + 2:
        raise ConfigError(
            f"train split of {n_train} rows cannot fit {subset.m} features"
        )
    if n_train >= n:
        raise ConfigError("test split is empty")

    def one_run(run: int):
        rng = run_rng(seed, run)
        for _ in range(2):  # one resample allowed per run
            perm = rng.permutation(n)
            metrics = _split_metrics(
                dataset, subset, perm[:n_train], perm[n_train:], r2_baseline
            )
            if metrics is not None:
                return metrics
        return None

    outcomes = [one_run(run) for run in range(runs)]
    kept = np.array([m for m in outcomes if m is not None], dtype=float)
    skipped = runs - len(kept)
    if len(kept) == 0:
        raise RankDeficiencyError(
            f"every CV train fit for subset {subset.indices} was rank-deficient",
            subset=subset,
        )
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
        r2_baseline=r2_baseline,
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


def correlation_graph(dataset: Dataset, threshold: float = 0.95) -> CorrelationGraph:
    """All pairs (i < j, both 1-based, row-major) with |rho| >= threshold,
    rho from one product of ``unit_centered_columns`` clipped to [-1, 1];
    constant columns (``max == min``) produce no edges."""
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
    intercept: float
    coefficients: tuple[tuple[str, float], ...]


def fit_named_model(dataset: Dataset, subset: FeatureSubset) -> NamedModel:
    """Fit the subset on all rows and attach feature labels for reporting."""
    fit = fit_subset(dataset, subset)
    pairs = tuple(
        (dataset.label_of(k), float(b))
        for k, b in zip(subset.indices, fit.coefficients)
    )
    return NamedModel(
        subset=subset, fit=fit, intercept=fit.intercept, coefficients=pairs
    )
