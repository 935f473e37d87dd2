"""Least-squares fitting of linear models restricted to feature subsets.

Two routes compute a fit, both through orthogonal decompositions, never
raw normal equations: feature tables in this domain contain near-duplicate
columns and conditioning matters.

* The SVD rule.  ``full_rank_lstsq`` is the one rank rule, and the only
  ``lstsq`` call: ``fit_least_squares`` / ``subset_cost`` (the reference
  the factor's fits are held to), every CV train split the factor does not
  certify, and ``_svd_costs`` (+inf when rank-deficient), which prices only
  the candidates the factor leaves in the band and the removals from a
  pool it does not certify, solve through it.
  A design is rank-deficient when ``sigma_min <= RANK_RCOND *
  sigma_max``; it then raises ``RankDeficiencyError`` instead of being
  silently pseudo-inverted, so search procedures can skip degenerate
  subsets deterministically.  (The
  backward rankings also set aside columns by a stricter Gram-Schmidt cut,
  ``_usable_features``, before they fit anything.)
* One factor.  ``_factor`` takes one economic QR of a set of columns,
  ``[1, X_pool] = Q A``, and returns it as a ``Factor``: with the target's
  projection ``Q^T y`` and residual, the number of its leading prefixes
  whose condition a bound certifies far inside the SVD rule
  (``CERTIFIED_RATIO_CAP``), ``A^-1`` when that run covers the whole
  design, and ``||A^-1||_F`` whenever all of ``A^-1`` was taken.
  ``_certified`` is the one certificate and builds every ``Factor``: it
  applies the bound and its guard to every prefix of a factor at once,
  for ``_factor`` and for the error curves' factor
  (``ranking._order_factor``).
  ``_project_out`` projects the target here and the columns of
  ``_usable_features`` by two Gram-Schmidt passes.  The candidates of add
  and the rows the forward state deflates take one, and a second only
  where the first left a row less than half the squared norm it held
  before: the one reorthogonalisation rule, ``_project_rows``, for both.
  The factor answers the three questions
  of the greedy rankings, search and sampling, and gives every ranking's
  prefix curves.  Add (``neighbour_costs``) reads the factor of the fixed
  columns certified or not: every candidate is projected onto the
  complement of Q at once, and ``_decide_and_update`` decides each
  candidate design by the condition bound read at the band's upper
  edge, or by the singular values of its small factor
  ``[[A, c], [0, |z|]]``, which are the design's up to rounding, read by
  ``_band_decisions``, the one place the band is applied.  A full-rank
  candidate's residual is a rank-one update, a rank-deficient one's cost
  +inf, and only a ratio within ``RANK_BAND`` of ``RANK_RCOND`` goes to
  the SVD rule.  ``CostCache`` prices every miss through the same kernel.
  The forward rankings (RM1, RM4)
  price every step through the same helper from one ``_AddState``, which
  keeps the taken columns' Q, A and ``A^-1``, and the complement of every
  column not taken, and grows them by one Gram-Schmidt direction a step,
  with no new factor.  Drop (every removal from the dual basis
  ``Q A^-T``) and test
  (every t statistic from b, r and ``diag((X^T X)^-1)``) read one
  ``_DropState`` of a certified pool (``removal_maes``,
  ``coefficient_fit``); the backward rankings (RM2, RM3,
  p-values) downdate it by one rank-one Schur step a removal, taking a
  fresh factor only when a diagonal of ``(X^T X)^-1`` has fallen past
  ``DOWNDATE_LIMIT``.  A pool the bound does not certify goes to the SVD
  rule and takes a fresh factor at each removal.  The backward rankings
  of a table share one start, the usable scan and the factor of the usable
  pool (``Dataset.usable_pool``), and each builds its own state from it.
  CV
  (``validation.monte_carlo_cv``) fits each train split of a certified
  design from its factor by downdating its test rows, and sends every
  other split to the SVD rule.  The prefix
  curves (``ranking.error_curve``) read every prefix of a ranked order
  from the table's one QR (``Dataset.table_qr``), ``[1, X] = Q_T A_T``,
  and the small QR of the order's columns of ``A_T``, ``Q_B A``: prefix
  M's residual is ``y - Q_T Q_B[:, :M+1] (Q_B^T Q_T^T y)[:M+1]``, and
  ``_prefix_decisions`` decides it by the certificate, which covers a
  leading run of prefixes, or by
  the singular values of leading blocks ``A[:M+1, :M+1]``, taken at the
  points of a bisection and in the band (the ratio of nested prefixes does
  not rise with M), the SVD rule taking only a ratio within
  ``RANK_BAND``.

``error_metrics`` is the one scorer: it gives the MAE, MSE, RMSE and
R-squared of every ``fit_least_squares`` fit, every CV test split
(``validation.monte_carlo_cv``, a stacked block of splits to a call) and
every prefix of an error curve (all of a ranking's prefixes in one call),
with one rule for a constant target.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .data import (Dataset, FeatureSubset, binary_scaled, constant_columns,
                   feature_indices)
from .errors import ConfigError, InvalidSubsetError, RankDeficiencyError, VarselError

# Relative singular-value cutoff for declaring a design rank-deficient.
RANK_RCOND = 1e-10

# Lower bound a design's certified sigma_min / sigma_max must exceed for
# ``_certified`` to certify it, and with it the inverse that ``_DropState``,
# CV and the leading run of an error curve read.
CERTIFIED_RATIO_CAP = 1e-6

# Factor either side of ``RANK_RCOND`` within which ``neighbour_costs``
# leaves a small factor's singular-value ratio to the SVD rule (derived
# there).
RANK_BAND = 1.01

# Factor by which a diagonal entry of ``(X^T X)^-1`` may fall over the
# downdates since ``_DropState`` last took a fresh factor (derived there).
DOWNDATE_LIMIT = 1e3

# Entries of each stack of small factors ``neighbour_costs`` takes singular
# values of in one call: 512 KiB, 72 candidates a stack at 28 fixed columns.
FACTOR_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class DesignMatrix:
    """N x (M+1) matrix: a leading all-ones column then subset columns."""

    values: np.ndarray
    subset: FeatureSubset


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


def _usable_features(dataset: Dataset) -> tuple[list[int], list[int]]:
    """Split features into a maximal full-rank set and the dropped rest.

    Greedy scan in ascending index order over an incrementally extended
    orthonormal basis (intercept first, always kept), written column by
    column into one N x (R+1) array: a column is kept iff its component
    orthogonal to the current basis is non-negligible.  Each column is
    scaled by ``binary_scaled`` before its norms are taken, which is exact,
    so no square overflows, or underflows to 0, on a column far from 1.
    Backward procedures start from the usable set and record the dropped
    indices at the tail of their order.
    """
    n = dataset.n_rows
    basis = np.empty((n, dataset.n_features + 1))
    basis[:, 0] = 1.0 / math.sqrt(n)
    usable, dropped = [], []
    for k in range(1, dataset.n_features + 1):
        resid, _ = binary_scaled(dataset.features[:, k - 1])
        scale = np.linalg.norm(resid)
        _project_out(basis[:, :len(usable) + 1], resid)
        norm = np.linalg.norm(resid)
        # Cutoff sits well above the solver's singular-value threshold so a
        # kept column can never trip the rank check downstream.
        if scale == 0.0 or norm <= 1e-8 * scale:
            dropped.append(k)
        else:
            usable.append(k)
            basis[:, len(usable)] = resid / norm
    return usable, dropped


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
    SS_res and SS_tot are summed at the scale of ``data.binary_scaled``, so
    a large target's MSE overflows only if its value does.
    """
    mae = np.abs(residuals).mean(axis=-1)
    scaled, e_res = binary_scaled(residuals)
    e_res = e_res[..., 0]
    # one BLAS dot per row, as ``r @ r`` takes it (einsum sums in another order)
    ss_res = (scaled[..., None, :] @ scaled[..., :, None])[..., 0, 0]
    mse = np.ldexp(ss_res / residuals.shape[-1], 2 * e_res)
    constant = constant_columns(target.T)
    if constant.any():
        # scored as zeros: SS_tot 0, with no centring to overflow
        target = np.where(constant[..., None], 0.0, target)
    scaled, e_tot = binary_scaled(target - target.mean(axis=-1, keepdims=True))
    ss_tot = (scaled ** 2).sum(axis=-1)
    ratio = np.divide(np.ldexp(ss_res, 2 * (e_res - e_tot[..., 0])), ss_tot,
                      out=np.ones_like(ss_res), where=ss_tot > 0.0)
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
    one residual vector, an array of costs for a stack of them.  At p != 1
    the magnitudes are raised to p unscaled, unlike the sums of squares of
    ``data.binary_scaled``: at p = 2 a cost is +inf once |r| passes about
    1e154."""
    check_cost_parameters(p, alpha)
    return _magnitude_cost(np.abs(np.asarray(residuals, dtype=float)), p, alpha)


def _magnitude_cost(magnitudes: np.ndarray, p: float,
                    alpha: float) -> float | np.ndarray:
    """``residual_norm_cost`` of the residuals whose absolute values are
    ``magnitudes``, raised to p in place: a stack of residuals can be
    large."""
    if p != 1:
        magnitudes **= p
    costs = np.sum(magnitudes, axis=-1) ** (alpha / p)
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
    design is rank-deficient: the price of a candidate ``neighbour_costs``
    leaves in the band (``_priced``) and of a removal from a pool the bound
    does not certify (``_DropState.removal_maes``)."""
    costs = np.full(len(subsets), math.inf)
    for i, indices in enumerate(subsets):
        with suppress(RankDeficiencyError):
            costs[i] = subset_cost(dataset, FeatureSubset(tuple(indices)), p, alpha)
    return costs


@dataclass(frozen=True)
class Factor:
    """One economic QR ``[1, X_pool] = Q A`` of a set of columns, its
    certificate and the target's projection, in design-column order
    (intercept first), as ``_certified`` builds it: no other code does.

    ``n_certified`` counts the leading prefixes of the design that the
    bound certifies.  ``a_inv`` is ``A^-1`` when they are all of them, and
    None otherwise.  ``a_inv_norm`` is ``||A^-1||_F`` whenever the guard
    let ``_certified`` invert all of A, certified or not, and +inf when it
    inverted only a leading block."""

    q: np.ndarray  # N x (M+1), orthonormal columns
    a: np.ndarray  # upper triangular
    design_norm2: float  # ||[1, X_pool]||_F^2
    n_certified: int
    a_inv: np.ndarray | None
    a_inv_norm: float  # ||A^-1||_F
    qty: np.ndarray  # Q^T y
    residuals: np.ndarray  # r = y - Q Q^T y


def _project_out(q: np.ndarray, r: np.ndarray, norm2: np.ndarray | None = None
                 ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Project ``r`` (a vector, or one vector a row) onto the complement of
    Q's columns in place; returns ``Q^T r``.

    With no ``norm2`` it takes two Gram-Schmidt passes.  Given ``norm2``,
    the rows' squared norms before projection, it takes one pass, and a
    second only where ``_project_rows`` takes it; it then returns ``(Q^T r,
    |r|^2)``, the squared norms after projection.  Which rows share the
    second pass's products can move their last bits.
    """
    def project(rows):
        c = rows @ q
        rows -= c @ q.T
        return c

    if norm2 is None:
        c = project(r)
        c += project(r)
        return c
    return _project_rows(project, r, norm2)


def _project_rows(project, r: np.ndarray, norm2: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One Gram-Schmidt pass ``project`` (which projects the rows it is
    given in place and returns their coefficients) over every row of ``r``,
    and a second over the rows it left with less than half ``norm2``, their
    squared norms before the pass; returns the rows' summed coefficients and
    their squared norms after projection, each taken by one ``einsum`` row
    by row.

    That is the criterion of Daniel, Gragg, Kaufman & Stewart (1976) at
    1/sqrt(2): a pass that keeps that much of a row leaves it orthogonal to
    the directions projected out within a small multiple of eps times its
    norm, and two passes are enough for any other row (Giraud, Langou &
    Rozloznik, 2005, "twice is enough").
    """
    c = project(r)
    zeta2 = np.einsum("ij,ij->i", r, r)
    again = np.flatnonzero(zeta2 < 0.5 * norm2)
    if again.size:
        rows = r[again]
        c[again] += project(rows)
        r[again] = rows
        zeta2[again] = np.einsum("ij,ij->i", rows, rows)
    return c, zeta2


def _leading_run(flags: np.ndarray) -> int:
    """The number of leading True entries of ``flags``."""
    return int(np.argmin(np.append(flags, False)))


def _certified(q: np.ndarray, a: np.ndarray, column_norm2: np.ndarray,
               qty: np.ndarray, residuals: np.ndarray) -> Factor:
    """The ``Factor`` of the design ``X = Q A`` whose columns have squared
    norms ``column_norm2``, with its certificate.

    Prefix M's design is ``X_M = Q[:, :M+1] A_M``, ``A_M = A[:M+1, :M+1]``.
    As ``sigma_min(X_M) >= 1 / ||A_M^-1||_F`` and ``sigma_max(X_M) <=
    ||X_M||_F``, the prefix is full-rank under the SVD rule, its ratio
    above ``CERTIFIED_RATIO_CAP``, when ``||A_M^-1||_F ||X_M||_F
    CERTIFIED_RATIO_CAP < 1``.  A is upper triangular, so ``A_M^-1`` is the
    leading block of ``A^-1`` (column j of ``A^-1`` is zero below row j) and
    ``||A_M^-1||_F^2`` the sum of its first M + 1 squared column norms.
    Both norms grow with M, so the certified prefixes form a leading run,
    ``n_certified`` long.  That run lies within the leading block whose
    diagonal passes ``|A_jj| > CERTIFIED_RATIO_CAP ||X_j||_F`` (as
    ``sigma_min(A_M) <= min |diag(A_M)|``), the only block inverted, which
    also keeps the inverse away from an exactly singular factor.  ``inv``,
    not a triangular solve: the same cost single-threaded, and far cheaper
    than a multithreaded BLAS triangular solve on small factors.
    ``a_inv_norm`` is ``||A^-1||_F`` whenever the guarded block is all of
    A, also when the bound does not certify the whole design.
    """
    design_norm2 = np.cumsum(column_norm2)
    design_norm = np.sqrt(design_norm2)
    lead = _leading_run(np.abs(np.diag(a)) > CERTIFIED_RATIO_CAP * design_norm)
    a_inv = np.linalg.inv(a[:lead, :lead])
    inv_norm = np.sqrt(np.cumsum(np.einsum("ij,ij->j", a_inv, a_inv)))
    n_certified = _leading_run(
        inv_norm * design_norm[:lead] * CERTIFIED_RATIO_CAP < 1.0)
    return Factor(q, a, float(design_norm2[-1]), n_certified,
                  a_inv if n_certified == len(a) else None,
                  float(inv_norm[-1]) if lead == len(a) else math.inf, qty,
                  residuals)


def _factor(dataset: Dataset, indices: tuple[int, ...]) -> Factor:
    """The ``Factor`` of the design on ``indices``."""
    x = build_design_matrix(dataset, FeatureSubset(tuple(indices))).values
    q, a = np.linalg.qr(x)
    residuals = dataset.target.copy()
    qty = _project_out(q, residuals)
    residuals.setflags(write=False)
    return _certified(q, a, np.einsum("ij,ij->j", x, x), qty, residuals)


def _rank_one_update(z: np.ndarray, zeta: np.ndarray, zr: np.ndarray,
                     r0: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``r0 - z (z^T r0) / |z|^2`` for each row z, with ``zr`` its ``z^T
    r0``, written to ``out`` (which may be ``z``)."""
    step = zr / (zeta * zeta)
    np.multiply(z, step[:, None], out=out)
    return np.subtract(r0, out, out=out)


def _band_decisions(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rank rule read from ``sigma_min / sigma_max`` ratios that are the
    design's up to rounding: ``(full_rank, deficient)``, a ratio above
    ``RANK_RCOND * RANK_BAND`` full-rank and one at or below ``RANK_RCOND /
    RANK_BAND`` rank-deficient.  A ratio in the band between is neither,
    and goes to the SVD rule (``neighbour_costs`` derives the band)."""
    return ratios > RANK_RCOND * RANK_BAND, ratios <= RANK_RCOND / RANK_BAND


def _prefix_decisions(factor: Factor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decide the prefixes of the factor's design as
    ``ranking.error_curve`` describes.

    Returns ``(ratios, full_rank, deficient)``: ``sigma_min / sigma_max`` of
    the leading blocks ``A[:M+1, :M+1]`` whose singular values were taken,
    M = 0..R, +inf on the leading run the certificate covers and NaN where a
    prefix was decided without them, and masks of the prefixes that are
    full-rank and of those that are rank-deficient.  The rest are left to
    the SVD rule.

    Adding a column can only lower sigma_min and raise sigma_max
    (interlacing; Golub & Van Loan, *Matrix Computations*, 8.6), so the
    ratio of nested prefixes does not rise with M.  After the certified
    run, a bisection finds the first prefix not above ``RANK_RCOND *
    RANK_BAND``; every prefix before it is full-rank, as its ratio is at
    least that of a later prefix found above the band.  From there the
    prefixes are taken one by one, each decided by its own ratio, up to the
    first at or below ``RANK_RCOND / RANK_BAND``; every prefix after that
    is rank-deficient, its ratio at most that one's.  Each prefix whose
    singular values were taken is decided by them.
    """
    a = factor.a
    ratios = np.full(len(a), math.nan)
    ratios[:factor.n_certified] = math.inf

    def ratio(m: int) -> float:
        if math.isnan(ratios[m]):
            sv = np.linalg.svd(a[:m + 1, :m + 1], compute_uv=False)
            ratios[m] = sv[-1] / sv[0]
        return ratios[m]

    lo, hi = factor.n_certified, len(a)
    while lo < hi:
        mid = (lo + hi) // 2
        if ratio(mid) > RANK_RCOND * RANK_BAND:
            lo = mid + 1
        else:
            hi = mid
    last = lo
    while last < len(a) and ratio(last) > RANK_RCOND / RANK_BAND:
        last += 1
    full_rank, deficient = _band_decisions(ratios)
    taken = ~np.isnan(ratios)
    prefix = np.arange(len(a))
    return (ratios, np.where(taken, full_rank, prefix < lo),
            np.where(taken, deficient, prefix >= last))


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


def _decide_and_update(
    a: np.ndarray, inv_norm: float, design_norm2: float, r0: np.ndarray,
    c: np.ndarray, z: np.ndarray, zeta2: np.ndarray, col_norm2: np.ndarray,
    zr: np.ndarray, out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decide the fits on ``[1, X_fixed, x_k]`` for every candidate k, as
    ``neighbour_costs`` describes, from the fixed columns' factor A, their
    ``||A^-1||_F`` (+inf when it was not taken), ``||[1, X_fixed]||_F^2``
    and residual ``r0`` and, one row per candidate, ``c = Q^T x``, the
    complement ``z``, ``|z|^2``, ``|x|^2`` and ``z^T r0``: the bound
    against the band's upper edge when ``||A^-1||_F`` is finite, then
    ``_band_decisions`` of the singular values of the small factor.

    Returns ``(updated, singular, residuals)``: boolean masks over the
    candidates of those that take the rank-one update (those the bound puts
    above the band and those their small factor shows full-rank) and of
    those whose design is rank-deficient, and one residual row per updated
    candidate, in candidate order.  The rest are left to the SVD rule.  When
    the bound decides every candidate the residuals are written to ``out``.
    """
    zeta = np.sqrt(zeta2)
    updated = np.zeros(len(z), dtype=bool)
    if math.isfinite(inv_norm):
        c_norm = np.sqrt(np.einsum("ij,ij->i", c, c))
        sigma_min_lb = zeta / (inv_norm * (zeta + c_norm) + 1.0)
        sigma_max_ub = np.sqrt(design_norm2 + col_norm2)
        updated = sigma_min_lb > RANK_RCOND * RANK_BAND * sigma_max_ub
        if updated.all():
            return updated, ~updated, _rank_one_update(z, zeta, zr, r0, out)

    # sigma_min(T) <= |z|: a candidate with no complement is rank-deficient
    singular = zeta == 0.0
    rest = np.flatnonzero(~(updated | singular))
    if rest.size:
        by_factor, deficient = _band_decisions(
            _small_factor_ratios(a, c[rest], zeta[rest]))
        singular[rest[deficient]] = True
        updated[rest[by_factor]] = True
    z = z[updated]
    return updated, singular, _rank_one_update(z, zeta[updated], zr[updated], r0, z)


def _neighbour_residuals(
    dataset: Dataset, fixed: tuple[int, ...], candidates: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_decide_and_update`` of the candidates, from one ``_factor`` of
    the fixed columns."""
    factor = _factor(dataset, fixed)
    rows = np.asarray(candidates, dtype=np.intp) - 1
    # One row per candidate, gathered whole from the column store, so each
    # residual is summed contiguously.
    z = dataset.columns[rows]
    col_norm2 = dataset.column_norm2[rows]
    c, zeta2 = _project_out(factor.q, z, col_norm2)
    return _decide_and_update(factor.a, factor.a_inv_norm, factor.design_norm2,
                              factor.residuals, c, z, zeta2, col_norm2,
                              z @ factor.residuals, z)


def _priced(dataset: Dataset, fixed: tuple[int, ...], candidates: list[int],
            fits: tuple, p: float, alpha: float) -> np.ndarray:
    """The costs of ``fixed + (k,)`` from ``_decide_and_update``'s ``fits``:
    the updated residuals' norms, +inf where rank-deficient, and the SVD
    rule's cost for every candidate left undecided.  The residuals are
    scratch: their absolute values are written over them."""
    check_cost_parameters(p, alpha)
    updated, singular, residuals = fits
    priced = _magnitude_cost(np.abs(residuals, out=residuals), p, alpha)
    if updated.all():  # every candidate took the rank-one update
        return priced
    costs = np.full(len(candidates), math.inf)
    costs[updated] = priced
    undecided = ~(updated | singular)
    if undecided.any():
        costs[undecided] = _svd_costs(
            dataset, [fixed + (k,) for k, u in zip(candidates, undecided) if u],
            p, alpha)
    return costs


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
    orthogonal to ``Q``, the candidate design is ``[Q, z/|z|]`` times the
    small factor ``T = [[A, c], [0, |z|]]``.  The left factor is
    orthonormal, so the design and ``T`` have the same singular values up
    to rounding (Golub & Van Loan, *Matrix Computations*, 2.4 and 5.3),
    and the fit's residual is the rank-one update ``r0 - z (z^T r0) /
    |z|^2`` of the residual ``r0`` of the fixed columns alone (Bjorck,
    *Numerical Methods for Least Squares Problems*, 1996, on updating QR).

    z is taken by one Gram-Schmidt pass, and by a second only when the
    first left ``|z|^2 < |x|^2 / 2`` (``_project_out``).  A pass that
    cancels less than that leaves z orthogonal to Q within a small
    multiple of eps ``|x|``, so of eps ``|z|`` (below 7.8 eps ``|x|`` on
    the benchmark's 1213-row table, and below sqrt(N) eps ``|x|`` in the
    tests), and a second pass after one that cancels more is enough
    (Daniel, Gragg, Kaufman & Stewart, 1976).  ``|x|^2`` is the table's,
    taken once (``Dataset.column_norm2``), and ``|z|^2`` the projection's.
    Each candidate is decided in one of three ways.

    * By the bound.  When ``||A^-1||_F`` is at hand (``_factor``'s, when
      every diagonal of A passes ``_certified``'s guard, or the forward
      state's running one), the inverse of ``T`` bounds ``sigma_min >= 1 /
      (||A^-1|| (1 + |c|/|z|) + 1/|z|)``, while ``sigma_max <= ||[1,
      X_fixed, x]||_F``.  A candidate whose bounded ratio exceeds
      ``RANK_RCOND * RANK_BAND``, whether the fixed columns are certified or
      not, is full-rank under the SVD rule with the band's margin, and takes
      the rank-one update its small factor would have given it, with no
      further factoring.  The computed ``||A^-1||_F`` is within a small
      multiple of n eps cond(A), relative, of the exact one (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2002, 14.2): below
      3e-4 for full-rank fixed columns and n <= 123, far inside the 1%
      margin.  The update's residual is off by about eps times the
      design's condition number, relative to ``|y|``, the resolution of the
      SVD fit itself (Golub & Van Loan, Thm 5.3.1): below about eps * 1e6 =
      2e-10 relative where the condition number is below 1e6 (about 1e-15
      on typical tables), inside the 1e-9 to which costs are checked.  Of
      the candidates the forward rankings price on the emo-shaped benchmark
      tables, the bound decided 927 of 930 at R = 30 and 14921 of 15006 at
      R = 122 (``tests/stress_rank_band.py``), and their small factors the
      rest.
    * By the small factor.  Every other candidate gets the singular values
      of its ``T``, from one stacked ``np.linalg.svd`` of
      ``FACTOR_BLOCK_ENTRIES`` entries at a time (``T`` is square:
      ``Dataset`` holds at least R + 1 rows, so N >= M + 2), except one
      with ``|z| = 0``, rank-deficient as ``sigma_min(T) <= |z|``.  The
      rank rule is the SVD rule's, rank-deficient iff ``sigma_min <=
      RANK_RCOND * sigma_max``.  A ratio above ``RANK_RCOND * RANK_BAND``
      takes the rank-one update and one at or below ``RANK_RCOND /
      RANK_BAND`` is +inf.
    * By the SVD rule.  A ratio in the band between goes to
      ``_svd_costs``, whose ``gelsd`` decides its rank and prices it.

    Why ``RANK_BAND`` = 1.01 suffices.  The SVD rule reads ``gelsd``'s
    singular values of the design; the small factor's differ from them by
    three roundings: of ``Q A`` against ``[1, X_fixed]`` (Householder QR,
    backward error a small multiple of eps times the column norms), of
    ``c`` and ``z`` against ``x`` (one pass or two, the projection leaves
    ``z`` orthogonal to ``Q`` within a few eps of ``|z|``, as above, so
    ``[Q, z/|z|]`` is orthonormal to a few eps and scales singular values
    by 1 + O(eps)), and ``gelsd``'s own (backward stable, error a small
    multiple of eps * sigma_max).  By
    Weyl's theorem each moves a singular value by at most its error's
    norm, so the two ratios sigma_min / sigma_max differ additively by a
    multiple of eps that grows only slowly with the table's size.
    Measured by ``tests/stress_rank_band.py``, the difference was at most
    1.2e-15 (5.5 eps) over 25500 candidates of ``near_duplicate_table`` at
    residual ratios 10^-10.6 to 10^-9.4 (4500 of them projected twice),
    and below 2e-17 after the
    near-rank-deficient pair enters RM1 or RM4 on the emo-shaped benchmark
    tables (R = 30 and 122); of 10500 designs there holding the pair, the
    small factors decided 10406, all as ``full_rank_lstsq`` does, and left
    94 to the SVD.  The forward rankings' ``_AddState``, whose A is built by
    Gram-Schmidt, was within 2.2e-16 on those tables' RM1 and RM4 passes
    and within 3.2e-17 on the benchmark's; of 9475 designs holding the pair
    it decided 9405, all as ``full_rank_lstsq`` does, and left 70 to the
    SVD.  The band reaches 1e-12 either side of ``RANK_RCOND``,
    about 800 times that difference, and only candidates in it pay for an
    SVD of the design.  The benchmark tables'
    pair sits at a ratio of 6e-10, so once it is in the fixed columns
    every candidate is decided by the bound or by its small factor.

    Raises:
        InvalidSubsetError: an index is out of range, repeated, or both
            fixed and a candidate.
    """
    fixed = feature_indices(fixed)
    candidates = feature_indices(candidates)
    FeatureSubset(fixed + candidates).validate_against(dataset)
    return _priced(dataset, fixed, candidates,
                   _neighbour_residuals(dataset, fixed, candidates), p, alpha)


class _AddState:
    """The fits of a forward pass: the design of the columns taken so far,
    ``[1, X_taken] = Q A``, grown by one column a step, and the complement
    of every column not taken, deflated by one direction a step.

    Each remaining column x keeps a row of ``z``, its component orthogonal
    to Q, of ``c = Q^T x``, of ``|x|^2`` and of ``|z|^2``, in ascending
    index order.
    ``costs`` prices every candidate design ``[Q, z/|z|] [[A, c], [0,
    |z|]]`` through ``_decide_and_update`` with no new factor, as
    ``neighbour_costs`` prices its candidates.

    Taking column k re-projects its z against all of Q in two passes, then
    appends ``z/|z|`` to Q and ``[c; |z|]`` to A.  (Deflated one direction
    at a time, z keeps the rounding of its first projections, about eps
    |x|; relative to a small complement, such as the benchmark's rank-rule
    pair's 6e-10 |x|, that leaves it 4e-7 off orthogonal.)  ``A^-1`` grows
    by the block inverse of a triangular factor.  The target is deflated
    by the new direction in two passes, and every remaining z in one, then
    again only where that pass left the row less than half the squared norm
    it held before the step (``_project_rows``, the rule of the candidates
    of ``neighbour_costs``), which also takes the rows' |z|^2.  Rows are
    compacted in place.  Every product of a row is an ``einsum`` row by
    row, not a BLAS product, whose last bits depend on the rows beside it:
    equal columns keep equal prices wherever their rows sit, and the
    earliest wins their tie as in ``ranking._stepwise``.

    The state keeps ``||[1, X_taken]||_F^2`` and ``||A^-1||_F^2`` as sums
    in column order, as ``_certified``'s ``np.cumsum`` adds them (each new
    column of ``A^-1`` squared by its ``einsum``), so with its values bit
    for bit; ``tests/test_ranking_states.py`` pins them at every step of RM1
    and RM4.  They feed the bound ``_decide_and_update`` reads at the
    band's edge, also once a near-duplicate column is in, where
    ``_certified``'s guard would invert no whole A.  The state holds no
    certificate of its own: ``_factor`` gives its design's.
    """

    def __init__(self, dataset: Dataset):
        n, r = dataset.n_rows, dataset.n_features
        self.dataset = dataset
        self.pool = list(range(1, r + 1))
        self.taken: list[int] = []
        self.z = dataset.features.T.copy()
        self.col_norm2 = dataset.column_norm2.copy()
        self.zeta2 = dataset.column_norm2.copy()  # |z|^2
        self.c = np.empty((r, r + 1))
        self.out = np.empty((r, n))  # the residuals when the bound decides a step
        self.q = np.empty((r + 1, n))  # row j: column j of Q
        self.a = np.zeros((r + 1, r + 1))
        self.a_inv = np.zeros((r + 1, r + 1))
        self.design_norm2 = 0.0  # ||[1, X_taken]||_F^2
        self.inv_norm2 = 0.0  # ||A^-1||_F^2
        self.residuals = dataset.target.copy()
        self.width = 0
        self._append(np.ones(n), np.empty(0), float(n))

    def _append(self, v: np.ndarray, c: np.ndarray, norm2: float) -> None:
        """Append the column with complement ``v`` (written over),
        ``Q^T x = c`` and ``|x|^2 = norm2`` to the design."""
        w = self.width
        c = c + _project_out(self.q[:w].T, v)
        zeta = math.sqrt(v @ v)
        direction = np.divide(v, zeta, out=self.q[w])
        self.a[:w, w] = c
        self.a[w, w] = zeta
        u = self.a_inv[:w, :w] @ c / -zeta
        self.a_inv[:w, w] = u
        self.a_inv[w, w] = 1.0 / zeta
        # summed in column order, each column's squared norm taken as
        # ``_certified`` takes it: its values, bit for bit
        column = self.a_inv[:w + 1, w:w + 1]
        self.design_norm2 += norm2
        self.inv_norm2 += float(np.einsum("ij,ij->j", column, column)[0])
        self.width = w + 1
        _project_out(direction[:, None], self.residuals)

        def project(rows):
            d = np.einsum("ij,j->i", rows, direction)
            rows -= d[:, None] * direction
            return d

        n = len(self.pool)
        self.c[:n, w], self.zeta2[:n] = _project_rows(project, self.z[:n],
                                                      self.zeta2[:n])

    def follow(self, taken) -> "_AddState":
        """Take the entries of ``taken`` not yet taken, in order."""
        for k in taken[len(self.taken):]:
            j = self.pool.index(k)
            n = len(self.pool)
            v, c = self.z[j].copy(), self.c[j, :self.width].copy()
            norm2 = float(self.col_norm2[j])
            for rows in (self.z, self.c, self.col_norm2, self.zeta2):
                rows[j:n - 1] = rows[j + 1:n]
            del self.pool[j]
            self.taken.append(k)
            self._append(v, c, norm2)
        return self

    def fits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_decide_and_update`` of every remaining column, in pool order,
        from the state's running values."""
        w, n = self.width, len(self.pool)
        z = self.z[:n]
        return _decide_and_update(
            self.a[:w, :w], math.sqrt(self.inv_norm2), self.design_norm2,
            self.residuals, self.c[:n, :w], z, self.zeta2[:n], self.col_norm2[:n],
            np.einsum("ij,j->i", z, self.residuals), self.out[:n])

    def costs(self) -> np.ndarray:
        """``subset_cost`` of the taken columns plus each remaining one, in
        pool order; +inf where that design is rank-deficient."""
        return _priced(self.dataset, tuple(self.taken), self.pool, self.fits(),
                       1.0, 1.0)


class _DropState:
    """The fit of a backward pass's pool, downdated at each removal.

    From one certified ``_factor`` of the pool it keeps ``B = (X^T X)^-1 =
    A^-1 A^-T``, the dual basis ``W = Q A^-T = X B`` (one row per design
    column, intercept first), the coefficients ``b = A^-1 Q^T y`` and the
    residual r.  Dropping design column j leaves the residual ``r + (b_j /
    B_jj) w_j``: it is orthogonal to every other column (``X^T w_j = e_j``)
    and zeroes coefficient j.  Removing column j is then one rank-one Schur
    step (Bjorck, *Numerical Methods for Least Squares Problems*, 1996,
    3.2; Miller, *Subset Selection in Regression*, 2002, 2-3)::

        B' = B - B_j B_j^T / B_jj      W' = W - (B_j / B_jj) w_j^T
        b' = b - B_j b_j / B_jj        r' = r + (b_j / B_jj) w_j

    with ``B_j`` row j of B, after which row (and column) j is compacted
    away.  By singular-value interlacing every sub-pool of a certified pool
    is full-rank under the SVD rule, and its ``B`` has a smaller diagonal.

    Drift.  A step moves ``B_ik`` by a few eps times ``|B_ik| + |B_ij
    B_jk| / B_jj``, which is at most ``2 sqrt(B_ii B_kk)`` as B is positive
    definite, and the diagonal only falls.  So s steps after a fresh
    factor, whose diagonal was D, ``B_ii`` is off by a few ``s eps D_i``,
    and ``w_i`` (``|w_i|^2 = B_ii``) and ``b_i`` likewise.  When some
    ``B_ii`` falls below ``D_i / DOWNDATE_LIMIT`` (the second of a
    near-duplicate pair once the first has gone) the state takes a fresh
    factor of its pool, which bounds the drift relative to B by a small
    multiple of ``s eps DOWNDATE_LIMIT``, 2.7e-11 at the 122 steps of the
    benchmark's widest table.  There the check never trips, and the drift
    from a fresh factor stayed below 1e-13.

    A pool the bound does not certify is priced by the SVD rule and takes a
    fresh ``_factor`` at each removal, until one is certified.
    """

    def __init__(self, dataset: Dataset, pool, factor: Factor | None = None):
        """The state of ``pool``, from its ``factor`` when given."""
        self.dataset = dataset
        self.pool = list(feature_indices(pool))
        self.removed: list[int] = []
        self._refactor(factor)

    def _refactor(self, factor: Factor | None = None) -> None:
        if factor is None:
            factor = _factor(self.dataset, tuple(self.pool))
        self.fallback = None if factor.a_inv is not None else factor
        if self.fallback is None:
            a_inv = factor.a_inv
            self.gram_inv = a_inv @ a_inv.T
            self.dual = a_inv @ factor.q.T
            self.coefficients = a_inv @ factor.qty
            self.residuals = factor.residuals.copy()
            self.anchor = self.gram_inv.diagonal().copy()

    def follow(self, taken) -> "_DropState":
        """Remove the entries of ``taken`` not yet removed, in order."""
        for k in taken[len(self.removed):]:
            j = self.pool.index(k) + 1  # its design column
            del self.pool[j - 1]
            self.removed.append(k)
            if self.fallback is None:
                self._downdate(j)
            elif self.pool:
                self._refactor()
        return self

    def _downdate(self, j: int) -> None:
        gram_inv, dual, b = self.gram_inv, self.dual, self.coefficients
        row = gram_inv[j].copy()
        col = row / row[j]
        self.residuals += (b[j] / row[j]) * dual[j]
        b -= b[j] * col
        dual -= np.outer(col, dual[j])
        gram_inv -= np.outer(col, row)
        n = len(b)
        for rows in (gram_inv, gram_inv.T, dual, b, self.anchor):
            rows[j:n - 1] = rows[j + 1:n]
        self.gram_inv, self.dual = gram_inv[:n - 1, :n - 1], dual[:n - 1]
        self.coefficients, self.anchor = b[:n - 1], self.anchor[:n - 1]
        if not np.all(self.gram_inv.diagonal() * DOWNDATE_LIMIT >= self.anchor):
            self._refactor()

    def removal_maes(self) -> np.ndarray:
        """MAE of the fit on the pool without each entry, in pool order;
        +inf where that fit is rank-deficient."""
        if self.fallback is not None:
            pool = tuple(self.pool)
            rests = [pool[:i] + pool[i + 1:] for i in range(len(pool))]
            return _svd_costs(self.dataset, rests) / self.dataset.n_rows
        step = self.coefficients[1:] / self.gram_inv.diagonal()[1:]
        dropped = self.dual[1:] * step[:, None]
        dropped += self.residuals  # row j: the residual without column j
        return np.abs(dropped).mean(axis=1)

    def coefficient_fit(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pool's feature coefficients, its residual and ``diag((X^T
        X)^-1)`` (intercept first), for its t statistics
        (``ranking._t_statistics``).  A certified
        pool's are the state's b, r and B; any other pool is fitted by the
        SVD rule, which decides rank deficiency (``RankDeficiencyError``),
        and its diagonal comes from a triangular solve on its factor's A."""
        if self.fallback is None:
            return self.coefficients[1:], self.residuals, self.gram_inv.diagonal()
        fit = fit_subset(self.dataset, FeatureSubset(tuple(self.pool)))
        # LU leaves a triangular factor as it is, so ``solve`` is the
        # triangular back substitution
        a = self.fallback.a
        a_inv = np.linalg.solve(a, np.eye(len(a)))
        return fit.coefficients, fit.residuals, (a_inv**2).sum(axis=1)


class CostCache:
    """Memo of subset costs keyed by the subset's bitmask, the OR of
    ``1 << k`` over its indices, so one entry serves every ordering.

    Degenerate subsets are recorded as +inf, which search treats as
    never-improving and sampling as weight zero.  Every miss is priced by
    the ``neighbour_costs`` kernel: a ``cost`` miss on the subset's
    ascending indices, its largest index the one candidate, and the misses
    of a ``neighbour_costs`` batch by one call.  The empty subset has no
    candidate, and takes the residual of the intercept's factor.  Every
    priced subset is kept for the life of the cache, so its cost is the
    first value stored.  Indices are checked on every call.
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
        unless they are distinct integers in [1, R]."""
        bits = self._bits
        key = 0
        try:
            if not indices or 0 < min(indices) and max(indices) < len(bits):
                for k in indices:
                    key |= bits[k]
        except TypeError:  # an index that is no integer
            key = -1
        if key < 0 or key.bit_count() != len(indices):
            FeatureSubset(indices).validate_against(self.dataset)
        return key

    def cost(self, indices: tuple[int, ...]) -> float:
        """Cost of the subset; +inf when the design is rank-deficient.  The
        indices are checked before anything compares them, and a miss is
        priced on their ascending order (see the class docstring), which an
        invalid subset's error names once its indices are known to be
        integers."""
        indices = tuple(indices)
        try:
            key = self._bitmask(indices)
        except InvalidSubsetError:
            FeatureSubset(tuple(sorted(feature_indices(indices)))).validate_against(
                self.dataset)
            raise
        found = self._store.get(key)
        if found is None:
            self.misses += 1
            ascending = sorted(indices)
            if ascending:
                largest = ascending.pop()
                found = self._price(key ^ self._bits[largest], tuple(ascending),
                                    [largest])[0]
            else:  # no candidate to price: the intercept's own residual
                found = self._store[key] = residual_norm_cost(
                    _factor(self.dataset, ()).residuals, self.p, self.alpha)
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
        if missing:  # checked above: straight to the kernel
            self._price(base, fixed, missing)
        return np.array([store[key] for key in keys])

    def _price(self, base: int, fixed: tuple[int, ...],
               missing: list[int]) -> list[float]:
        """Store and return the costs of ``fixed + (k,)`` for every missing
        candidate k, checked indices whose key is ``base | 1 << k``, from
        one ``neighbour_costs`` kernel call on ``fixed``."""
        costs = _priced(self.dataset, fixed, missing,
                        _neighbour_residuals(self.dataset, fixed, missing),
                        self.p, self.alpha).tolist()
        bits = self._bits
        self._store.update(zip([base | bits[k] for k in missing], costs))
        return costs
