"""Least-squares fitting of linear models restricted to feature subsets.

Two routes compute a fit, both through orthogonal decompositions, never
raw normal equations: feature tables in this domain contain near-duplicate
columns and conditioning matters.

* ``fit_least_squares`` / ``subset_cost`` solve one design by SVD
  (``numpy.linalg.lstsq``).  A design whose numerical rank (relative
  singular-value threshold ``RANK_RCOND``) is below its column count raises
  ``RankDeficiencyError`` instead of being silently pseudo-inverted, so
  search procedures can skip degenerate subsets deterministically.  This
  rule is the arbiter of rank deficiency everywhere.
* ``neighbour_costs`` answers the question every search and sampling loop
  asks, "cost of the fixed columns plus candidate k, for every k", from one
  QR factorization of the fixed columns: all candidates are projected onto
  its orthogonal complement at once and every residual follows by a rank-one
  update.  It decides a candidate itself only when a bound certifies the
  candidate design's condition far inside the SVD rule
  (``CERTIFIED_RATIO_CAP``); every other candidate, and every candidate of
  a fixed set that fails the bound, is solved by ``subset_cost``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSubset
from .errors import RankDeficiencyError, VarselError

# Relative singular-value cutoff for declaring a design rank-deficient.
RANK_RCOND = 1e-10

# Lower bound a candidate design's certified sigma_min / sigma_max must
# exceed for ``neighbour_costs`` to decide it without the SVD (see there).
CERTIFIED_RATIO_CAP = 1e-6


@dataclass(frozen=True)
class DesignMatrix:
    """N x (M+1) matrix: a leading all-ones column then subset columns."""

    values: np.ndarray
    subset: FeatureSubset

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FitResult:
    """Coefficients and error metrics of one least-squares fit."""

    intercept: float
    coefficients: np.ndarray
    residuals: np.ndarray
    mae: float
    mse: float
    rmse: float
    r_squared: float

    @property
    def n_rows(self) -> int:
        return self.residuals.shape[0]


def build_design_matrix(dataset: Dataset, subset: FeatureSubset) -> DesignMatrix:
    """Ones-prepended column selection; M=0 yields the N x 1 ones matrix."""
    subset.validate_against(dataset)
    n = dataset.n_rows
    values = np.empty((n, subset.m + 1), dtype=float)
    values[:, 0] = 1.0
    for j, k in enumerate(subset.indices):
        values[:, j + 1] = dataset.features[:, k - 1]
    return DesignMatrix(values, subset)


def fit_least_squares(design: DesignMatrix, target: np.ndarray) -> FitResult:
    """Fit ``target ~ design`` by least squares and compute error metrics.

    R-squared is ``1 - SS_res / SS_tot`` with SS_tot about the target mean;
    a zero-variance target with a perfect fit reports 0 by convention.

    Raises:
        RankDeficiencyError: numerical rank below the column count.
    """
    x = design.values
    y = np.asarray(target, dtype=float)
    n, p = x.shape
    if y.shape != (n,):
        raise VarselError(f"target length {y.shape} does not match {n} design rows")
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=RANK_RCOND)
    if rank < p:
        raise RankDeficiencyError(
            f"design matrix for subset {design.subset.indices} has numerical "
            f"rank {rank} < {p} (relative threshold {RANK_RCOND:g})",
            subset=design.subset,
        )
    residuals = y - x @ coef
    mae = float(np.abs(residuals).mean())
    mse = float((residuals @ residuals) / n)
    ss_res = float(residuals @ residuals)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    elif ss_res <= 1e-20 * max(1.0, float(y @ y)):
        r_squared = 0.0
    else:
        raise VarselError("zero-variance target with a nonzero residual")

    residuals.setflags(write=False)
    coefs = coef[1:].copy()
    coefs.setflags(write=False)
    return FitResult(
        intercept=float(coef[0]),
        coefficients=coefs,
        residuals=residuals,
        mae=mae,
        mse=mse,
        rmse=math.sqrt(mse),
        r_squared=r_squared,
    )


def fit_subset(dataset: Dataset, subset: FeatureSubset) -> FitResult:
    """Fit the dataset target on the given feature subset (plus intercept)."""
    return fit_least_squares(build_design_matrix(dataset, subset), dataset.target)


def residual_norm_cost(residuals: np.ndarray, p: float,
                       alpha: float) -> float | np.ndarray:
    """``||residuals||_p ** alpha`` for any p > 0 (p < 1 allowed), taken
    along the last axis: a float for one residual vector, an array of costs
    for a stack of them."""
    if p <= 0 or alpha <= 0:
        raise VarselError("cost parameters require p > 0 and alpha > 0")
    powered = np.abs(np.asarray(residuals, dtype=float))
    if p != 1:
        powered **= p  # in place: a stack of residuals can be large
    costs = np.sum(powered, axis=-1) ** (alpha / p)
    return float(costs) if costs.ndim == 0 else costs


def subset_cost(
    dataset: Dataset,
    subset: FeatureSubset,
    p: float = 1.0,
    alpha: float = 1.0,
) -> float:
    """Prediction-error cost of a subset: Lp norm of the fit residuals, to
    the power alpha.  The default (p=1, alpha=1) equals N * MAE.

    Raises:
        RankDeficiencyError: propagated from the underlying fit.
    """
    fit = fit_subset(dataset, subset)
    return residual_norm_cost(fit.residuals, p, alpha)


def _neighbour_residuals(
    dataset: Dataset, fixed: tuple[int, ...], candidates: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the fits on ``[1, X_fixed, x_k]`` for the candidates
    whose design the bound of ``neighbour_costs`` certifies.

    Returns ``(certified, residuals)``: a boolean mask over the candidates
    and one residual row per certified candidate, in candidate order.
    """
    base = build_design_matrix(dataset, FeatureSubset(fixed)).values
    n = base.shape[0]
    undecided = np.zeros(len(candidates), dtype=bool), np.empty((0, n))
    if not candidates:
        return undecided
    q, a = np.linalg.qr(base)
    base_norm2 = float(np.einsum("ij,ij->", base, base))
    # sigma_min(A) <= min |diag(A)| for triangular A, so a tiny diagonal
    # fails the bound below for every candidate; checking it first also
    # keeps the triangular inverse away from an exactly singular factor.
    if np.abs(np.diag(a)).min() <= CERTIFIED_RATIO_CAP * math.sqrt(base_norm2):
        return undecided
    # Frobenius norm, an upper bound on ||A^-1||_2
    a_inv_norm = float(np.linalg.norm(np.linalg.inv(a)))
    if a_inv_norm * math.sqrt(base_norm2) * CERTIFIED_RATIO_CAP >= 1.0:
        return undecided

    # One row per candidate, so each residual is summed contiguously.
    z = dataset.features.T[np.asarray(candidates) - 1]
    col_norm2 = np.einsum("ij,ij->i", z, z)
    c = z @ q
    z -= c @ q.T
    c2 = z @ q  # one reorthogonalization pass
    z -= c2 @ q.T
    c += c2
    zeta = np.sqrt(np.einsum("ij,ij->i", z, z))
    c_norm = np.sqrt(np.einsum("ij,ij->i", c, c))
    sigma_min_lb = zeta / (a_inv_norm * (zeta + c_norm) + 1.0)
    sigma_max_ub = np.sqrt(base_norm2 + col_norm2)
    certified = sigma_min_lb > CERTIFIED_RATIO_CAP * sigma_max_ub
    if not certified.all():
        z, zeta = z[certified], zeta[certified]

    y = dataset.target
    r0 = y - q @ (q.T @ y)
    r0 -= q @ (q.T @ r0)
    step = (z @ r0) / (zeta * zeta)
    z *= step[:, None]
    np.subtract(r0, z, out=z)
    return certified, z


def neighbour_costs(
    dataset: Dataset,
    fixed: tuple[int, ...],
    candidates: list[int],
    p: float = 1.0,
    alpha: float = 1.0,
) -> np.ndarray:
    """``subset_cost`` of ``fixed + (k,)`` for every candidate k, +inf where
    that design is rank-deficient, from one QR of the fixed columns.

    With ``[1, X_fixed] = Q A`` (economic QR), ``c = Q^T x`` and ``z`` the
    component of a candidate column ``x`` orthogonal to ``Q`` (two
    Gram-Schmidt passes), the candidate design is ``[Q, z/|z|]`` times
    ``[[A, c], [0, |z|]]``, whose inverse bounds
    ``sigma_min >= 1 / (||A^-1|| (1 + |c|/|z|) + 1/|z|)``, while
    ``sigma_max <= ||[1, X_fixed, x]||_F``.  Its residual is
    ``r0 - z (z^T r0) / |z|^2`` with ``r0`` the residual of the fixed
    columns alone.

    A candidate whose certified ratio exceeds ``CERTIFIED_RATIO_CAP`` = 1e-6
    takes that rank-one update.  The cap sits 1e4 above ``RANK_RCOND``, so
    such a design is full-rank under the SVD rule with ample room for
    rounding in the bound itself, and at a condition number below 1e6 the
    update's residual is off by at most about eps * 1e6 = 2e-10 relative
    (about 1e-15 on typical tables), inside the 1e-9 to which costs are
    checked.  The choice is not delicate: on the emo-shaped benchmark table
    every cap from 1e-9 to 1e-3 leaves the same candidates to the SVD (those
    pairing the two columns of a near-rank-deficient pair), and only from
    1e-2 do ordinary near-duplicate pairs join them.  Every candidate the
    bound cannot decide goes through ``subset_cost``, so the SVD rule alone
    says what is rank-deficient.

    Raises:
        InvalidSubsetError: an index is out of range, repeated, or both
            fixed and a candidate.
    """
    fixed = tuple(int(k) for k in fixed)
    candidates = [int(k) for k in candidates]
    FeatureSubset(fixed + tuple(candidates)).validate_against(dataset)
    certified, residuals = _neighbour_residuals(dataset, fixed, candidates)
    costs = np.empty(len(candidates))
    costs[certified] = residual_norm_cost(residuals, p, alpha)
    for i in np.flatnonzero(~certified):
        try:
            costs[i] = subset_cost(
                dataset, FeatureSubset(fixed + (candidates[i],)), p, alpha
            )
        except RankDeficiencyError:
            costs[i] = math.inf
    return costs


class CostCache:
    """Memo for subset costs keyed by the sorted index tuple.

    The cost function is invariant under subset reordering, so one entry
    serves every ordering.  Degenerate subsets are recorded as +inf, which
    search treats as never-improving and sampling as weight zero.  Size is
    bounded (LRU eviction) so long chains on wide tables stay in memory.
    """

    def __init__(self, dataset: Dataset, p: float = 1.0, alpha: float = 1.0,
                 max_entries: int = 262144):
        self.dataset = dataset
        self.p = p
        self.alpha = alpha
        self.max_entries = max_entries
        self._store: OrderedDict[tuple[int, ...], float] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _lookup(self, key: tuple[int, ...]) -> float | None:
        found = self._store.get(key)
        if found is not None:
            self.hits += 1
            self._store.move_to_end(key)
        else:
            self.misses += 1
        return found

    def _insert(self, key: tuple[int, ...], value: float) -> None:
        self._store[key] = value
        if len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def cost(self, indices: tuple[int, ...]) -> float:
        """Cost of the subset; +inf when the design is rank-deficient."""
        key = tuple(sorted(indices))
        found = self._lookup(key)
        if found is not None:
            return found
        try:
            value = subset_cost(self.dataset, FeatureSubset(key), self.p, self.alpha)
        except RankDeficiencyError:
            value = math.inf
        self._insert(key, value)
        return value

    def neighbour_costs(self, fixed: tuple[int, ...],
                        candidates: list[int]) -> np.ndarray:
        """``cost(fixed + (k,))`` for every candidate k, in candidate order.

        Entries are looked up, counted, stored and evicted exactly as that
        sequence of ``cost`` calls would; the misses are computed together by
        one ``neighbour_costs`` kernel call.
        """
        fixed = tuple(fixed)
        keys = [tuple(sorted(fixed + (k,))) for k in candidates]
        missing = [k for k, key in zip(candidates, keys) if key not in self._store]
        computed = {}
        if missing:
            computed = dict(zip(missing, neighbour_costs(
                self.dataset, fixed, missing, self.p, self.alpha).tolist()))
        costs = np.empty(len(keys))
        for i, (k, key) in enumerate(zip(candidates, keys)):
            found = self._lookup(key)
            if found is None:
                found = computed.get(k)
                if found is None:  # evicted by an earlier miss of this batch
                    found = float(neighbour_costs(
                        self.dataset, fixed, [k], self.p, self.alpha)[0])
                self._insert(key, found)
            costs[i] = found
        return costs
