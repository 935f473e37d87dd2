"""Least-squares fitting of linear models restricted to feature subsets.

Two routes compute a fit, both through orthogonal decompositions, never
raw normal equations: feature tables in this domain contain near-duplicate
columns and conditioning matters.

* The SVD rule.  ``full_rank_lstsq`` is the one rank rule, and the only
  ``lstsq`` call: ``fit_least_squares`` / ``subset_cost``, every CV train
  split the pool factor does not certify and every fit it leaves
  undecided (``_svd_costs``, +inf when rank-deficient) solve through it.
  A design is rank-deficient when ``sigma_min <= RANK_RCOND *
  sigma_max``; it then raises ``RankDeficiencyError`` instead of being
  silently pseudo-inverted, so search procedures can skip degenerate
  subsets deterministically.  (The
  backward rankings also set aside columns by a stricter Gram-Schmidt cut,
  ``ranking._usable_features``, before they fit anything.)
* One pool factor.  ``_factor`` takes one economic QR of a set of columns,
  ``[1, X_pool] = Q A``, and a bound says whether the design's condition
  is certified far inside the SVD rule (``CERTIFIED_RATIO_CAP``).  It
  answers the three questions of the greedy rankings, search and sampling.
  Drop (``removal_maes``: every removal from the dual basis ``Q A^-T``) and
  test (``ranking.coefficient_pvalues``: every t statistic from b, r and
  ``diag((X^T X)^-1)``) read the fit of a certified factor,
  ``pool_factor``, and send any other pool to the SVD rule.  Add
  (``neighbour_costs``) reads the factor certified or not: every candidate
  is projected onto the complement of Q at once, and each candidate design
  is decided by the certificate or by the singular values of its small
  factor ``[[A, c], [0, |z|]]``, which are the design's up to rounding.
  A full-rank candidate's residual is a rank-one update, a rank-deficient
  one's cost +inf, and only a ratio within ``RANK_BAND`` of ``RANK_RCOND``
  goes to the SVD rule.  CV (``validation.monte_carlo_cv``) fits each
  train split from the factor of the whole design by downdating its test
  rows, and sends every split the factor does not certify to the SVD
  rule.

``error_metrics`` is the one scorer: it gives the MAE, MSE, RMSE and
R-squared of every ``fit_least_squares`` fit and every CV test split
(``validation.monte_carlo_cv``, a stacked block of splits to a call), with
one rule for a constant target.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSubset, constant_columns
from .errors import ConfigError, RankDeficiencyError, VarselError

# Relative singular-value cutoff for declaring a design rank-deficient.
RANK_RCOND = 1e-10

# Lower bound a candidate design's certified sigma_min / sigma_max must
# exceed for ``neighbour_costs`` to decide it by the bound alone (see there).
CERTIFIED_RATIO_CAP = 1e-6

# Factor either side of ``RANK_RCOND`` within which ``neighbour_costs``
# leaves a small factor's singular-value ratio to the SVD rule (derived
# there).
RANK_BAND = 1.01

# Entries of each stack of small factors ``neighbour_costs`` takes singular
# values of in one call: 512 KiB, 72 candidates a stack at 28 fixed columns.
FACTOR_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class DesignMatrix:
    """N x (M+1) matrix: a leading all-ones column then subset columns."""

    values: np.ndarray
    subset: FeatureSubset

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


def build_design_matrix(dataset: Dataset, subset: FeatureSubset) -> DesignMatrix:
    """Ones-prepended column selection; M=0 yields the N x 1 ones matrix."""
    subset.validate_against(dataset)
    n = dataset.n_rows
    values = np.empty((n, subset.m + 1), dtype=float)
    values[:, 0] = 1.0
    values[:, 1:] = dataset.features[:, [k - 1 for k in subset.indices]]
    return DesignMatrix(values, subset)


def full_rank_lstsq(x: np.ndarray, y: np.ndarray,
                    subset: FeatureSubset) -> np.ndarray:
    """Coefficients of ``y ~ x`` by SVD ``lstsq``; raises
    ``RankDeficiencyError`` when the numerical rank is below the column
    count (the package's one rank rule, see the module docstring)."""
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=RANK_RCOND)
    if rank < x.shape[1]:
        raise RankDeficiencyError(
            f"design matrix for subset {subset.indices} has numerical "
            f"rank {rank} < {x.shape[1]} (relative threshold {RANK_RCOND:g})",
            subset=subset,
        )
    return coef


def error_metrics(residuals: np.ndarray, target: np.ndarray
                  ) -> tuple[float, ...] | tuple[np.ndarray, ...]:
    """MAE, MSE, RMSE and R-squared of ``residuals`` scored against
    ``target``, taken along the last axis: the one scorer of in-sample fits
    and CV test splits.  One residual vector gives four floats; a stack of
    them (one per row) gives four arrays, entry i equal, bit for bit, to the
    call on row i.

    R-squared is ``1 - SS_res / SS_tot`` with SS_tot about the mean of the
    scored target, and 0 when SS_tot is 0.  A constant target
    (``constant_columns``, ``max == min``) has SS_tot 0 by that rule, not by
    centering: centering a constant such as 0.1 leaves a rounding residue.
    """
    mae = np.abs(residuals).mean(axis=-1)
    # one BLAS dot per row, as ``r @ r`` takes it (einsum sums in another order)
    ss_res = (residuals[..., None, :] @ residuals[..., :, None])[..., 0, 0]
    mse = ss_res / residuals.shape[-1]
    constant = constant_columns(target.T)
    if constant.any():
        # scored as zeros: SS_tot 0, with no centring to overflow
        target = np.where(constant[..., None], 0.0, target)
    ss_tot = ((target - target.mean(axis=-1, keepdims=True)) ** 2).sum(axis=-1)
    ratio = np.divide(ss_res, ss_tot, out=np.ones_like(ss_res), where=ss_tot > 0.0)
    metrics = (mae, mse, np.sqrt(mse), 1.0 - ratio)
    if residuals.ndim == 1:
        return tuple(float(m) for m in metrics)
    return metrics


def fit_least_squares(design: DesignMatrix, target: np.ndarray) -> FitResult:
    """Fit ``target ~ design`` by least squares, scored by ``error_metrics``.

    Raises:
        RankDeficiencyError: numerical rank below the column count.
    """
    x = design.values
    y = np.asarray(target, dtype=float)
    n = x.shape[0]
    if y.shape != (n,):
        raise VarselError(f"target length {y.shape} does not match {n} design rows")
    coef = full_rank_lstsq(x, y, design.subset)
    residuals = y - x @ coef
    residuals.setflags(write=False)
    coefs = coef[1:].copy()
    coefs.setflags(write=False)
    return FitResult(float(coef[0]), coefs, residuals, *error_metrics(residuals, y))


def fit_subset(dataset: Dataset, subset: FeatureSubset) -> FitResult:
    """Fit the dataset target on the given feature subset (plus intercept)."""
    return fit_least_squares(build_design_matrix(dataset, subset), dataset.target)


def check_cost_parameters(p: float, alpha: float) -> None:
    """The cost's domain: finite p > 0 (p < 1 allowed) and finite alpha > 0."""
    if not (0 < p < math.inf and 0 < alpha < math.inf):
        raise ConfigError("cost parameters require finite p > 0 and alpha > 0")


def residual_norm_cost(residuals: np.ndarray, p: float,
                       alpha: float) -> float | np.ndarray:
    """``||residuals||_p ** alpha``, taken along the last axis: a float for
    one residual vector, an array of costs for a stack of them."""
    check_cost_parameters(p, alpha)
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


def _svd_costs(dataset: Dataset, subsets, p=1.0, alpha=1.0) -> np.ndarray:
    """``subset_cost`` of each index tuple by the SVD rule, +inf where its
    design is rank-deficient: the fallback of every fit the certified
    factor does not decide."""
    costs = np.full(len(subsets), math.inf)
    for i, indices in enumerate(subsets):
        with suppress(RankDeficiencyError):
            costs[i] = subset_cost(dataset, FeatureSubset(tuple(indices)), p, alpha)
    return costs


@dataclass(frozen=True)
class PoolFactor:
    """One certified economic QR ``[1, X_pool] = Q A`` and the fit it
    gives, in design-column order (intercept first)."""

    q: np.ndarray  # N x (M+1), orthonormal columns
    a_inv: np.ndarray  # A^-1
    coefficients: np.ndarray  # b = A^-1 Q^T y
    residuals: np.ndarray  # r = y - X b

    @property
    def gram_inv_diag(self) -> np.ndarray:
        """``d_j = ||row j of A^-1||^2 = (X^T X)^-1_jj``."""
        return np.einsum("ij,ij->i", self.a_inv, self.a_inv)


def _factor(dataset: Dataset, indices: tuple[int, ...]
            ) -> tuple[np.ndarray, np.ndarray, float, tuple[np.ndarray, float] | None]:
    """The economic QR ``[1, X_pool] = Q A`` behind ``pool_factor`` and
    ``neighbour_costs``: ``(Q, A, ||[1, X_pool]||_F^2, inverse)``, where
    ``inverse`` is ``(A^-1, ||A^-1||_F)`` when ``1 / ||A^-1||_F``, a lower
    bound on the design's sigma_min, exceeds ``CERTIFIED_RATIO_CAP`` times
    ``||[1, X_pool]||_F``, an upper bound on its sigma_max, and None when
    it does not."""
    x = build_design_matrix(dataset, FeatureSubset(tuple(indices))).values
    q, a = np.linalg.qr(x)
    design_norm2 = float(np.einsum("ij,ij->", x, x))
    design_norm = math.sqrt(design_norm2)
    # sigma_min(A) <= min |diag(A)| for triangular A, so a tiny diagonal
    # fails the bound for certain; checking it first also keeps the inverse
    # away from an exactly singular factor.  ``inv``, not a triangular
    # solve: the same cost single-threaded, and far cheaper than a
    # multithreaded BLAS triangular solve on small factors.
    if np.abs(np.diag(a)).min() <= CERTIFIED_RATIO_CAP * design_norm:
        return q, a, design_norm2, None
    a_inv = np.linalg.inv(a)
    a_inv_norm = float(np.linalg.norm(a_inv))
    if a_inv_norm * design_norm * CERTIFIED_RATIO_CAP >= 1.0:
        return q, a, design_norm2, None
    return q, a, design_norm2, (a_inv, a_inv_norm)


def _project_out(q: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Q^T y, y - Q Q^T y)`` by two Gram-Schmidt passes."""
    c = q.T @ y
    r = y - q @ c
    c2 = q.T @ r  # one reorthogonalization pass
    r -= q @ c2
    c += c2
    return c, r


def pool_factor(dataset: Dataset, indices: tuple[int, ...]) -> PoolFactor | None:
    """The least-squares fit on ``indices`` from one economic QR
    ``[1, X_pool] = Q A``; None unless ``_factor`` certifies it."""
    q, _, _, inverse = _factor(dataset, indices)
    if inverse is None:
        return None
    a_inv = inverse[0]
    c, r = _project_out(q, dataset.target)
    return PoolFactor(q, a_inv, a_inv @ c, r)


def _rank_one_update(z: np.ndarray, zeta: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """``r0 - z (z^T r0) / |z|^2`` for each row z, written over ``z``."""
    step = (z @ r0) / (zeta * zeta)
    z *= step[:, None]
    np.subtract(r0, z, out=z)
    return z


def _small_factor_ratios(a: np.ndarray, c: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """``sigma_min / sigma_max`` of ``T_k = [[A, c_k], [0, zeta_k]]`` for
    every row k of ``c``, from one ``np.linalg.svd`` of a stack of
    ``FACTOR_BLOCK_ENTRIES`` entries at a time."""
    n_candidates, width = c.shape
    block = max(1, FACTOR_BLOCK_ENTRIES // (width + 1) ** 2)
    stack = np.zeros((min(block, n_candidates), width + 1, width + 1))
    stack[:, :width, :width] = a
    ratios = np.empty(n_candidates)
    for start in range(0, n_candidates, block):
        stop = min(start + block, n_candidates)
        t = stack[:stop - start]
        t[:, :width, width] = c[start:stop]
        t[:, width, width] = zeta[start:stop]
        sv = np.linalg.svd(t, compute_uv=False)
        ratios[start:stop] = sv[:, -1] / sv[:, 0]
    return ratios


def _neighbour_residuals(
    dataset: Dataset, fixed: tuple[int, ...], candidates: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decide the fits on ``[1, X_fixed, x_k]`` from one QR of the fixed
    columns, as ``neighbour_costs`` describes.

    Returns ``(certified, updated, singular, residuals)``: boolean masks
    over the candidates of those the bound certifies, of those that take
    the rank-one update (the certified ones and those their small factor
    shows full-rank) and of those whose design is rank-deficient, and one
    residual row per updated candidate, in candidate order.  The rest are
    left to the SVD rule.
    """
    n_candidates = len(candidates)
    if not n_candidates:
        empty = np.zeros(0, dtype=bool)
        return empty, empty, empty, np.empty((0, dataset.n_rows))
    q, a, design_norm2, inverse = _factor(dataset, fixed)
    r0 = _project_out(q, dataset.target)[1]

    # One row per candidate, so each residual is summed contiguously.
    z = dataset.features.T[np.asarray(candidates) - 1]
    col_norm2 = np.einsum("ij,ij->i", z, z)
    c = z @ q
    z -= c @ q.T
    c2 = z @ q  # one reorthogonalization pass
    z -= c2 @ q.T
    c += c2
    zeta = np.sqrt(np.einsum("ij,ij->i", z, z))
    if inverse is None:
        certified = np.zeros(n_candidates, dtype=bool)
    else:
        c_norm = np.sqrt(np.einsum("ij,ij->i", c, c))
        sigma_min_lb = zeta / (inverse[1] * (zeta + c_norm) + 1.0)
        sigma_max_ub = np.sqrt(design_norm2 + col_norm2)
        certified = sigma_min_lb > CERTIFIED_RATIO_CAP * sigma_max_ub
        if certified.all():
            return certified, certified, ~certified, _rank_one_update(z, zeta, r0)

    rest = np.flatnonzero(~certified)
    ratios = _small_factor_ratios(a, c[rest], zeta[rest])
    singular = np.zeros(n_candidates, dtype=bool)
    singular[rest[ratios <= RANK_RCOND / RANK_BAND]] = True
    updated = certified.copy()
    updated[rest[ratios > RANK_RCOND * RANK_BAND]] = True
    return certified, updated, singular, _rank_one_update(z[updated], zeta[updated], r0)


def neighbour_costs(
    dataset: Dataset,
    fixed: tuple[int, ...],
    candidates: list[int],
    p: float = 1.0,
    alpha: float = 1.0,
) -> np.ndarray:
    """``subset_cost`` of ``fixed + (k,)`` for every candidate k, +inf where
    that design is rank-deficient, from one economic QR of the fixed
    columns, ``[1, X_fixed] = Q A``.

    With ``c = Q^T x`` and ``z`` the component of a candidate column ``x``
    orthogonal to ``Q`` (two Gram-Schmidt passes), the candidate design is
    ``[Q, z/|z|]`` times the small factor ``T = [[A, c], [0, |z|]]``.  The
    left factor is orthonormal, so the design and ``T`` have the same
    singular values up to rounding (Golub & Van Loan, *Matrix
    Computations*, 2.4 and 5.3), and the fit's residual is the rank-one
    update ``r0 - z (z^T r0) / |z|^2`` of the residual ``r0`` of the fixed
    columns alone (Bjorck, *Numerical Methods for Least Squares Problems*,
    1996, on updating QR).  Each candidate is decided in one of three ways.

    * Certified.  When ``_factor`` certifies the fixed columns, the inverse
      of ``T`` bounds ``sigma_min >= 1 / (||A^-1|| (1 + |c|/|z|) + 1/|z|)``,
      while ``sigma_max <= ||[1, X_fixed, x]||_F``.  A candidate whose
      certified ratio exceeds ``CERTIFIED_RATIO_CAP`` = 1e-6 takes the
      rank-one update with no further factoring.  At a condition number
      below 1e6 the update's residual is off by at most about eps * 1e6 =
      2e-10 relative (about 1e-15 on typical tables), inside the 1e-9 to
      which costs are checked.  The cap is not delicate: on the emo-shaped
      benchmark table every cap from 1e-9 to 1e-3 leaves the same
      candidates uncertified (those pairing the two columns of a
      near-rank-deficient pair), and only from 1e-2 do ordinary
      near-duplicate pairs join them.
    * By the small factor.  Every other candidate, and every candidate of
      fixed columns the bound does not certify, gets the singular values of
      its ``T``, from one stacked ``np.linalg.svd`` of
      ``FACTOR_BLOCK_ENTRIES`` entries at a time (``T`` is square:
      ``Dataset`` holds at least R + 1 rows, so N >= M + 2).  The rank rule
      is the SVD rule's, rank-deficient iff ``sigma_min <= RANK_RCOND *
      sigma_max``.  A ratio above ``RANK_RCOND * RANK_BAND`` takes the
      rank-one update and one at or below ``RANK_RCOND / RANK_BAND`` is
      +inf.
    * By the SVD rule.  A ratio in the band between goes to
      ``_svd_costs``, whose ``gelsd`` decides its rank and prices it.

    Why ``RANK_BAND`` = 1.01 suffices.  The SVD rule reads ``gelsd``'s
    singular values of the design; the small factor's differ from them by
    three roundings: of ``Q A`` against ``[1, X_fixed]`` (Householder QR,
    backward error a small multiple of eps times the column norms), of
    ``c`` and ``z`` against ``x`` (two passes leave ``z`` orthogonal to
    ``Q`` to working precision, so ``[Q, z/|z|]`` is orthonormal to a few
    eps and scales singular values by 1 + O(eps)), and ``gelsd``'s own
    (backward stable, error a small multiple of eps * sigma_max).  By
    Weyl's theorem each moves a singular value by at most its error's
    norm, so the two ratios sigma_min / sigma_max differ additively by a
    multiple of eps that grows only slowly with the table's size.
    Measured by ``tests/stress_rank_band.py``, the difference was at most
    1.2e-15 (5.5 eps) over 25500 candidates of ``near_duplicate_table`` at
    residual ratios 10^-10.6 to 10^-9.4, and below 2e-17 after the
    near-rank-deficient pair enters RM1 or RM4 on the emo-shaped benchmark
    tables (R = 30 and 122); of 10500 designs there holding the pair, the
    small factors decided 10406, all as ``full_rank_lstsq`` does, and left
    94 to the SVD.  The band reaches 1e-12 either side of ``RANK_RCOND``,
    about 800 times that difference, and only candidates in it pay for an
    SVD of the design.  The benchmark tables'
    pair sits at a ratio of 6e-10, so once it is in the fixed columns
    every candidate is decided by its small factor.

    Raises:
        InvalidSubsetError: an index is out of range, repeated, or both
            fixed and a candidate.
    """
    fixed = tuple(int(k) for k in fixed)
    candidates = [int(k) for k in candidates]
    FeatureSubset(fixed + tuple(candidates)).validate_against(dataset)
    _, updated, singular, residuals = _neighbour_residuals(dataset, fixed, candidates)
    costs = np.full(len(candidates), math.inf)
    costs[updated] = residual_norm_cost(residuals, p, alpha)
    undecided = ~(updated | singular)
    if undecided.any():
        costs[undecided] = _svd_costs(
            dataset, [fixed + (k,) for k, u in zip(candidates, undecided) if u],
            p, alpha)
    return costs


def removal_maes(dataset: Dataset, pool) -> np.ndarray:
    """MAE of the fit on ``pool`` without each entry, in pool order; +inf
    where that fit is rank-deficient.

    With the dual basis ``W = Q A^-T = X (X^T X)^-1`` of a certified pool,
    dropping column j leaves the residual ``r + (b_j / d_j) W[:, j]``: it is
    orthogonal to every other column (``X^T W[:, j] = e_j``) and zeroes
    coefficient j.  By singular-value interlacing every sub-pool of a
    certified pool is full-rank under the SVD rule.  Any other pool takes
    one SVD fit per removal.
    """
    pool = tuple(int(k) for k in pool)
    factor = pool_factor(dataset, pool)
    if factor is None:
        rests = [pool[:i] + pool[i + 1:] for i in range(len(pool))]
        return _svd_costs(dataset, rests) / dataset.n_rows
    step = factor.coefficients[1:] / factor.gram_inv_diag[1:]
    dropped = (factor.q @ factor.a_inv.T)[:, 1:].T * step[:, None]
    dropped += factor.residuals  # row j: the residual without column j
    return np.abs(dropped).mean(axis=1)


class CostCache:
    """Memo of subset costs keyed by the subset's bitmask, the OR of
    ``1 << k`` over its indices, so one entry serves every ordering.

    Degenerate subsets are recorded as +inf, which search treats as
    never-improving and sampling as weight zero.  Every priced subset is
    kept for the life of the cache, so its cost is the first value stored,
    whichever kernel computed it.  Indices are checked on every call.
    """

    def __init__(self, dataset: Dataset, p: float = 1.0, alpha: float = 1.0):
        self.dataset = dataset
        self.p = p
        self.alpha = alpha
        # Python ints of any width, also for numpy integer indices, whose
        # own ``1 << k`` overflows past bit 63
        self._bits = [1 << k for k in range(dataset.n_features + 1)]
        self._store: dict[int, float] = {}
        self.hits = 0
        self.misses = 0

    def _bitmask(self, indices: tuple[int, ...]) -> int:
        """The key of ``indices``; ``FeatureSubset``'s ``InvalidSubsetError``
        unless they are distinct and in [1, R]."""
        bits = self._bits
        key = 0
        if not indices or 0 < min(indices) and max(indices) < len(bits):
            for k in indices:
                key |= bits[k]
        if key.bit_count() != len(indices):
            FeatureSubset(indices).validate_against(self.dataset)
        return key

    def cost(self, indices: tuple[int, ...]) -> float:
        """Cost of the subset; +inf when the design is rank-deficient."""
        indices = tuple(sorted(indices))
        key = self._bitmask(indices)
        found = self._store.get(key)
        if found is None:
            self.misses += 1
            found = float(_svd_costs(self.dataset, [indices], self.p, self.alpha)[0])
            self._store[key] = found
        else:
            self.hits += 1
        return found

    def neighbour_costs(self, fixed: tuple[int, ...],
                        candidates: list[int]) -> np.ndarray:
        """``cost(fixed + (k,))`` for every candidate k, in candidate order:
        one hit or miss counted per candidate, every miss priced by one
        ``neighbour_costs`` kernel call.  As for the kernel, the candidates
        must be distinct and outside ``fixed``.
        """
        fixed = tuple(fixed)
        self._bitmask(fixed + tuple(candidates))
        base = self._bitmask(fixed)
        bits, store = self._bits, self._store
        keys = [base | bits[k] for k in candidates]
        missing = [k for k, key in zip(candidates, keys) if key not in store]
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)
        if missing:
            costs = neighbour_costs(self.dataset, fixed, missing, self.p, self.alpha)
            store.update(zip([base | bits[k] for k in missing], costs.tolist()))
        return np.array([store[key] for key in keys])
