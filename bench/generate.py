"""Seeded emo-shaped feature table for the benchmark.

The real input of the toolkit is an emo-soundscapes export: 1213 clips,
122 audio descriptors and a continuous arousal rating.  That file is not
public, so the benchmark builds a table with the properties the code paths
depend on, each for a stated reason:

* **Latent-factor columns.**  Descriptors are driven by a few shared
  factors, so columns are correlated (|rho| up to about 0.6), as audio
  features are.  Correlation changes how many alternating-optimization
  sweeps a restart needs and how peaked a Gibbs full conditional is.
* **Heterogeneous scales and offsets.**  Descriptors come in different
  units; the intercept column and the scale spread set the conditioning
  of every design the solver sees.
* **A planted support** of 7 features (6 when R < 100) with noise set so the
  planted model has R^2 of about 0.87, the emo arousal reference of
  acceptance criterion 9.  It gives every stage a known right answer.
* **Ordinary near-duplicate pairs** (|rho| about 0.98), as the export has
  them: they put edges in the correlation graph and near-ties in the
  greedy rankings.
* **One rank-rule pair**: the second column equals the first plus a
  residual orthogonal to every other column, sized so its relative norm
  lies between the two rank-deficiency rules of the toolkit (the SVD
  ``rcond`` 1e-10 of ``linmodel`` and the Gram-Schmidt 1e-8 of
  ``ranking._usable_features``).  The backward rankings drop that column
  while the forward ones keep it, so unifying the two rules shows up here.
* **No exact duplicates.**  RM1 and RM4 raise ``DegenerateStepError`` on an
  exact duplicate by design, and the real export runs RM1.

Every value is written with ``repr`` so ingestion reproduces the generated
doubles bit for bit, and the file is byte-identical for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_ROWS = 1213
TARGET = "arousal"
R_SQUARED = 0.87
N_FACTORS = 8

# The two rank rules the rank-rule pair must sit between.
SVD_RCOND = 1e-10
GRAM_SCHMIDT_TOL = 1e-8
# Required distance of the pair from either rule, as a factor.
RANK_RULE_MARGIN = 3.0


@dataclass(frozen=True)
class Table:
    """A generated table plus the structure planted in it (1-based)."""

    features: np.ndarray
    target: np.ndarray
    labels: tuple[str, ...]
    planted: tuple[int, ...]
    near_duplicate_pairs: tuple[tuple[int, int], ...]
    rank_rule_pair: tuple[int, int]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def make_table(seed: int, n_features: int = 122, n_rows: int = N_ROWS) -> Table:
    """Build the table for one workload seed; same seed, same doubles."""
    if n_features < 16:
        raise ValueError("the table needs at least 16 features")
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_features, n_rows]))
    r = n_features

    factors = rng.normal(size=(n_rows, N_FACTORS))
    loadings = np.zeros((N_FACTORS, r))
    for k in range(r):
        chosen = rng.choice(N_FACTORS, size=2, replace=False)
        loadings[chosen, k] = rng.normal(size=2)
    loadings /= np.linalg.norm(loadings, axis=0)
    shared = rng.uniform(0.2, 0.6, size=r)
    raw = (factors @ loadings) * np.sqrt(shared) + rng.normal(
        size=(n_rows, r)
    ) * np.sqrt(1.0 - shared)

    # Roles: the planted support, one rank-rule pair and the ordinary
    # near-duplicate pairs take distinct columns.
    n_pairs = 2 if r >= 100 else 1
    roles = rng.permutation(r)
    m = 7 if r >= 100 else 6
    planted = np.sort(roles[:m])
    pair_cols = roles[m:m + 2 * (n_pairs + 1)].reshape(-1, 2)
    pair_cols.sort(axis=1)
    ordinary, rank_rule = pair_cols[:-1], pair_cols[-1]

    scale = 10.0 ** rng.uniform(-0.5, 0.5, size=r)
    offset = scale * rng.uniform(-1.0, 1.0, size=r)
    # The widest column takes the rank-rule pair: the gap between the two
    # rules is a factor of 100, and the full design's largest singular
    # value over |x_b| must fit in it with room on both sides.
    scale[rank_rule[0]] = 2.0 * scale.max()
    for a, b in ordinary:
        scale[b] = scale[a]
        raw[:, b] = raw[:, a] + 0.2 * rng.normal(size=n_rows)
    x = offset + scale * raw

    beta = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.6, 1.4, size=m)
    signal = raw[:, planted] @ beta
    signal *= 0.54 / signal.std()
    noise_sd = signal.std() * math.sqrt((1.0 - R_SQUARED) / R_SQUARED)
    y = 0.1 + signal + noise_sd * rng.normal(size=n_rows)

    a, b = (int(v) for v in rank_rule)
    x[:, b] = x[:, a] + _orthogonal_residual(x, a, b, rng)

    labels = tuple(f"d{k:03d}" for k in range(1, r + 1))
    return Table(
        features=x,
        target=y,
        labels=labels,
        planted=tuple(int(k) + 1 for k in planted),
        near_duplicate_pairs=tuple(
            (int(i) + 1, int(j) + 1) for i, j in pair_cols
        ),
        rank_rule_pair=(a + 1, b + 1),
    )


def _orthogonal_residual(x: np.ndarray, a: int, b: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Residual for column b = column a + residual, sized between the rules.

    The residual is orthogonal to the intercept and every other column, so
    its norm is what Gram-Schmidt sees for column b, relative to |x_b|;
    the smallest singular value of the full design is about that norm over
    sqrt(2), relative to the largest.  The norm is placed at the geometric
    middle of the two rules, and both margins are verified.
    """
    n = x.shape[0]
    others = np.hstack([np.ones((n, 1)), np.delete(x, b, axis=1)])
    q, _ = np.linalg.qr(others)
    z = rng.normal(size=n)
    z -= q @ (q.T @ z)
    z -= q @ (q.T @ z)
    u = z / np.linalg.norm(z)
    s_max = np.linalg.norm(others, 2)
    norm_b = np.linalg.norm(x[:, a])
    size = math.sqrt(SVD_RCOND * GRAM_SCHMIDT_TOL * math.sqrt(2.0) * s_max * norm_b)
    residual = size * u

    column = x[:, a] + residual
    design = np.hstack([others, column[:, None]])
    sv = np.linalg.svd(design, compute_uv=False)
    svd_ratio = sv[-1] / sv[0]
    gs_ratio = np.linalg.norm(column - q @ (q.T @ column)) / np.linalg.norm(column)
    if not (svd_ratio > RANK_RULE_MARGIN * SVD_RCOND
            and gs_ratio < GRAM_SCHMIDT_TOL / RANK_RULE_MARGIN):
        raise RuntimeError(
            f"rank-rule pair misplaced: svd ratio {svd_ratio:.3g}, "
            f"Gram-Schmidt ratio {gs_ratio:.3g}"
        )
    return residual


def csv_text(table: Table) -> str:
    """The table as CSV text: header, then one repr-formatted row per clip."""
    lines = [",".join(table.labels + (TARGET,))]
    for row, y in zip(table.features.tolist(), table.target.tolist()):
        lines.append(",".join(map(repr, row)) + "," + repr(y))
    return "\n".join(lines) + "\n"


def write_csv(table: Table, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(csv_text(table))
