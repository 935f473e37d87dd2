"""Core immutable data containers: feature table and feature subsets, plus
the seeded generator of every stochastic stage (``run_rng``).

Feature indices are 1-based everywhere in the public API, matching the
labeling used in reports (feature 113 is the 113th column of the table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidSubsetError


@dataclass(frozen=True)
class Dataset:
    """An N x R feature table with one numeric target vector.

    Invariants enforced at construction: N >= R + 1 (one more row than
    features plus the intercept), all entries finite, unique labels.
    """

    features: np.ndarray
    target: np.ndarray
    labels: tuple[str, ...]
    target_label: str = "target"

    def __post_init__(self):
        # own private copies: they get frozen, and callers keep their arrays
        features = np.array(self.features, dtype=float)
        target = np.array(self.target, dtype=float)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "labels", tuple(self.labels))
        if features.ndim != 2:
            raise ConfigError("features must be a 2-D array")
        n, r = features.shape
        if target.shape != (n,):
            raise ConfigError(
                f"target length {target.shape} does not match {n} feature rows"
            )
        if len(self.labels) != r:
            raise ConfigError(f"{len(self.labels)} labels for {r} feature columns")
        if len(set(self.labels)) != r:
            raise ConfigError("feature labels must be unique")
        if n < r + 1:
            raise ConfigError(
                f"need at least R+1 rows: got N={n} rows for R={r} features"
            )
        if not np.isfinite(features).all() or not np.isfinite(target).all():
            raise ConfigError("non-finite entries in features or target")
        features.setflags(write=False)
        target.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def label_of(self, index: int) -> str:
        if not 1 <= index <= self.n_features:
            raise InvalidSubsetError(
                f"feature index {index} outside [1, {self.n_features}]"
            )
        return self.labels[index - 1]


@dataclass(frozen=True)
class FeatureSubset:
    """Ordered list of M distinct 1-based feature indices."""

    indices: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        indices = tuple(int(k) for k in self.indices)
        object.__setattr__(self, "indices", indices)
        if len(set(indices)) != len(indices):
            raise InvalidSubsetError(f"duplicate indices in subset {indices}")
        if any(k < 1 for k in indices):
            raise InvalidSubsetError(f"indices must be >= 1, got {indices}")

    @property
    def m(self) -> int:
        return len(self.indices)

    def validate_against(self, dataset: Dataset) -> None:
        bad = [k for k in self.indices if k > dataset.n_features]
        if bad:
            raise InvalidSubsetError(
                f"indices {bad} outside [1, {dataset.n_features}]"
            )


def check_seed(seed: int) -> None:
    """The master seeds numpy's seed sequence takes: integers >= 0."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def run_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """The one generator rule of every stochastic stage, numpy's seed
    sequence of the master seed at ``spawn_key``: Gibbs draws
    ``run_rng(seed)``, search restart i and CV split i ``run_rng(seed, i)``,
    so results never depend on execution order."""
    check_seed(seed)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    )


def constant_columns(values: np.ndarray) -> np.ndarray:
    """Mask of the constant columns, ``max == min``: a test on centered
    values or on the std misses a constant such as 0.1, whose centering
    leaves a rounding residue."""
    return values.max(axis=0) == values.min(axis=0)


def unit_centered_columns(values: np.ndarray) -> np.ndarray:
    """Columns centered and scaled to unit norm in one new array, so that a
    Pearson correlation is an inner product; constant columns come out as
    exact zeros (any other column keeps a nonzero entry after centering)."""
    out = values - values.mean(axis=0)
    constant = constant_columns(values)
    out[:, constant] = 0.0
    norms = np.sqrt(np.einsum("ij,ij->j", out, out))
    norms[constant] = 1.0
    out /= norms
    return out


def normalize_columns(values: np.ndarray, mode: str) -> np.ndarray:
    """Column-wise feature normalization used at ingestion.

    ``zscore`` centers and scales to unit (population) standard deviation,
    ``minmax`` maps the observed range onto [0, 1]; constant columns
    (``constant_columns``) map to zero in both modes.  A varying column
    whose shift or scale leaves the double range (a range or a sum of
    squares past 1.8e308, or a sum of squares that underflows to 0) is
    rejected by its 1-based position.
    """
    values = np.array(values, dtype=float)
    if mode == "none":
        return values
    with np.errstate(over="ignore"):
        if mode == "zscore":
            shift, scale = values.mean(axis=0), values.std(axis=0)
        elif mode == "minmax":
            shift, scale = values.min(axis=0), np.ptp(values, axis=0)
        else:
            raise ConfigError(f"unknown normalization mode {mode!r}")
    constant = constant_columns(values)
    bad = ~constant & ~(np.isfinite(shift) & np.isfinite(scale) & (scale > 0.0))
    if bad.any():
        raise ConfigError(
            f"cannot {mode}-normalize feature column(s) "
            f"{(np.flatnonzero(bad) + 1).tolist()}: shift or scale outside "
            f"the double range"
        )
    out = (values - shift) / np.where(constant, 1.0, scale)
    out[:, constant] = 0.0
    return out


def make_dataset(
    features: Sequence[Sequence[float]] | np.ndarray,
    target: Sequence[float] | np.ndarray,
    labels: Sequence[str] | None = None,
    target_label: str = "target",
    normalize: str = "none",
) -> Dataset:
    """Convenience constructor with optional normalization and default labels."""
    features = normalize_columns(np.asarray(features, dtype=float), normalize)
    if labels is None:
        labels = tuple(f"x{k}" for k in range(1, features.shape[1] + 1))
    return Dataset(features, np.asarray(target, dtype=float), tuple(labels),
                   target_label)
