"""Brute-force oracles shared by the module and acceptance tests.

The ``oracle_*`` functions fit through the pseudo-inverse and re-implement
the greedy loops directly, so none of them shares code with the library
paths they validate.  The ``loop_*`` functions keep the library's former
per-candidate loops, which priced each candidate subset with its own SVD
fit, the hand-written backward loops the stepwise driver replaced, the
order selection that refitted every ranking prefix, the per-feature and
per-pair Pearson loops of RM5 and the correlation graph, and the p-values
that fitted by SVD and took the standard errors from a second (scipy) QR,
the ingest that parsed and checked each cell on its own, and the CV that
fitted each split by SVD and scored it on its own, with the one-vector
scorer; the library paths must reproduce them (CV: its discrete outcomes
exactly, its floats within a stated bound).  ``exact_cv_runs`` refits
that CV's splits in 50 digits, to hold both CVs to that bound.
"""

import csv
import math
from pathlib import Path
from typing import Sequence

import mpmath
import numpy as np
import scipy.linalg
from scipy.stats import t as student_t

from varsel import (
    ConfigError,
    CvReport,
    DegenerateStepError,
    FeatureSubset,
    IngestError,
    RankDeficiencyError,
    RankingMethod,
    build_design_matrix,
    fit_least_squares,
    fit_subset,
    information_criterion_value,
)
from varsel.data import Dataset, constant_columns, normalize_columns, run_rng
from varsel.ingest import _check_delimiter, _utf8_lines
from varsel.linmodel import full_rank_lstsq
from varsel.ranking import _finish, _usable_features
from varsel.search import random_subset
from varsel.validation import check_cv_settings


def oracle_mae(x, y, cols):
    design = np.hstack([np.ones((len(y), 1)), x[:, [c - 1 for c in cols]]])
    beta = np.linalg.pinv(design) @ y
    return float(np.abs(y - design @ beta).mean())


def oracle_cost(x, y, cols, p=1.0, alpha=1.0):
    design = np.hstack([np.ones((len(y), 1)), x[:, [c - 1 for c in cols]]])
    beta = np.linalg.pinv(design) @ y
    return float(np.sum(np.abs(y - design @ beta) ** p) ** (alpha / p))


def oracle_rm1(x, y):
    r = x.shape[1]
    chosen, remaining = [], list(range(1, r + 1))
    while remaining:
        _, best = min((oracle_mae(x, y, chosen + [k]), k) for k in remaining)
        chosen.append(best)
        remaining.remove(best)
    return chosen


def oracle_rm2(x, y):
    removals, current = [], list(range(1, x.shape[1] + 1))
    while current:
        _, best = min(
            (oracle_mae(x, y, [i for i in current if i != k]), k) for k in current
        )
        removals.append(best)
        current.remove(best)
    return list(reversed(removals))


def oracle_rm3(x, y):
    removals, current = [], list(range(1, x.shape[1] + 1))
    while current:
        _, neg_best = max(
            (oracle_mae(x, y, [i for i in current if i != k]), -k) for k in current
        )
        removals.append(-neg_best)
        current.remove(-neg_best)
    return removals


def oracle_rm4(x, y):
    added, remaining = [], list(range(1, x.shape[1] + 1))
    while remaining:
        _, neg_best = max((oracle_mae(x, y, added + [k]), -k) for k in remaining)
        added.append(-neg_best)
        remaining.remove(-neg_best)
    return list(reversed(added))


def loop_alternating_optimization(dataset, m, init, cache, max_iters=100):
    """(ascending subset, cost, sweeps, update-cost trace) of the old
    coordinate loop, one ``cache.cost`` call per candidate."""
    r = dataset.n_features
    state = list(init.indices)
    current_cost = cache.cost(tuple(state))
    trace = [current_cost]
    sweeps = 0
    for _ in range(max_iters):
        sweeps += 1
        changed = False
        for j in range(m):
            others = set(state) - {state[j]}
            best_k, best_cost = state[j], current_cost
            for k in range(1, r + 1):
                if k in others or k == state[j]:
                    continue
                state_j = state.copy()
                state_j[j] = k
                cost = cache.cost(tuple(state_j))
                if cost < best_cost:
                    best_k, best_cost = k, cost
            if best_k != state[j]:
                state[j] = best_k
                current_cost = best_cost
                changed = True
            trace.append(current_cost)
        if not changed:
            break
    return tuple(sorted(state)), current_cost, sweeps, tuple(trace)


def loop_multi_restart_search(dataset, m, runs, seed, cache):
    """(subset, cost, total sweeps) of the old best-of-N loop; no restart
    of the instances it is run on lands on a rank-deficient subset."""
    best, iterations = None, 0
    for run in range(runs):
        init = random_subset(run_rng(seed, run), dataset.n_features, m)
        subset, cost, sweeps, _ = loop_alternating_optimization(
            dataset, m, init, cache
        )
        iterations += sweeps
        if best is None or (cost, subset) < best:
            best = (cost, subset)
    return best[1], best[0], iterations


def loop_full_conditional(dataset, state, j, eta, cache):
    """(candidates, probabilities) of position j, one cache lookup each."""
    others = set(state.indices) - {state.indices[j - 1]}
    candidates = np.array(
        [k for k in range(1, dataset.n_features + 1) if k not in others],
        dtype=int,
    )
    exponents = np.empty(len(candidates), dtype=float)
    for i, k in enumerate(candidates):
        exponents[i] = -eta * cache.cost(
            state.indices[:j - 1] + (int(k),) + state.indices[j:])
    weights = np.exp(exponents - exponents.max())
    return candidates, weights / weights.sum()


def loop_gibbs_states(dataset, config, cache):
    """Chain states of the old systematic-scan sampler."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed))
    state = random_subset(rng, dataset.n_features, config.m)
    states = []
    for _ in range(config.sweeps):
        for j in range(1, config.m + 1):
            candidates, weights = loop_full_conditional(
                dataset, state, j, config.eta, cache
            )
            draw = rng.choice(len(candidates), p=weights)
            state = FeatureSubset(
                state.indices[:j - 1] + (int(candidates[draw]),) + state.indices[j:])
        states.append(state)
        cache.cost(state.indices)
    return tuple(states)


def loop_forward_order(dataset, largest):
    """Addition order of the old RM1 (``largest=False``) / RM4 loop, one
    SVD fit per candidate; rank-deficient candidates are skipped."""
    chosen, remaining = [], list(range(1, dataset.n_features + 1))
    while remaining:
        best_k, best_mae = None, -np.inf if largest else np.inf
        for k in remaining:
            try:
                mae = fit_subset(dataset, FeatureSubset(tuple(chosen) + (k,))).mae
            except RankDeficiencyError:
                continue
            if (mae > best_mae) if largest else (mae < best_mae):
                best_k, best_mae = k, mae
        chosen.append(best_k)
        remaining.remove(best_k)
    return chosen


def _candidate_mae(dataset, indices):
    """MAE of one candidate fit, or None when rank-deficient."""
    try:
        return fit_subset(dataset, FeatureSubset(indices)).mae
    except RankDeficiencyError:
        return None


def loop_backward_elimination(dataset):
    """The old RM2 loop: one SVD fit per removal candidate."""
    usable, dropped = _usable_features(dataset)
    removals = []
    current = list(usable)
    while current:
        best_k, best_mae = None, math.inf
        for k in current:
            rest = tuple(i for i in current if i != k)
            mae = _candidate_mae(dataset, rest)
            if mae is not None and mae < best_mae:
                best_k, best_mae = k, mae
        if best_k is None:
            raise DegenerateStepError("every removal candidate is rank-deficient")
        removals.append(best_k)
        current.remove(best_k)
    order = list(reversed(removals)) + dropped
    return _finish(RankingMethod.RM2_BACKWARD, dataset, order,
                   raw_order=removals + dropped)


def loop_remove_max_error(dataset):
    """The old RM3 loop: one SVD fit per removal candidate."""
    usable, dropped = _usable_features(dataset)
    removals = []
    current = list(usable)
    while current:
        best_k, best_mae = None, -math.inf
        for k in current:
            rest = tuple(i for i in current if i != k)
            mae = _candidate_mae(dataset, rest)
            if mae is not None and mae > best_mae:
                best_k, best_mae = k, mae
        if best_k is None:
            raise DegenerateStepError("every removal candidate is rank-deficient")
        removals.append(best_k)
        current.remove(best_k)
    order = removals + dropped
    return _finish(RankingMethod.RM3_REMOVE_MAX, dataset, order,
                   raw_order=removals + dropped)


def loop_coefficient_pvalues(dataset, indices):
    """The old ``coefficient_pvalues``: an SVD fit for the residuals, a scipy
    QR for the standard errors, one ``student_t.sf`` call per coefficient."""
    design = build_design_matrix(dataset, FeatureSubset(indices))
    fit = fit_least_squares(design, dataset.target)
    x = design.values
    n, p = x.shape
    dof = n - p
    if dof < 1:
        raise ConfigError(f"p-values need N >= M + 2 (N={n}, M={p - 1})")
    _, r_factor = scipy.linalg.qr(x, mode="economic")
    r_inv = scipy.linalg.solve_triangular(r_factor, np.eye(p))
    gram_inv_diag = (r_inv**2).sum(axis=1)
    sigma2 = float(fit.residuals @ fit.residuals) / dof
    se = np.sqrt(sigma2 * gram_inv_diag[1:])
    coefs = fit.coefficients
    pvalues = np.empty(len(indices), dtype=float)
    for i, (b, s) in enumerate(zip(coefs, se)):
        if s == 0.0:
            pvalues[i] = 0.0 if b != 0.0 else 1.0
        else:
            pvalues[i] = 2.0 * float(student_t.sf(abs(b) / s, dof))
    return pvalues


def loop_pvalues(dataset, alpha_threshold=0.05):
    """The old p-value backward elimination loop."""
    usable, dropped = _usable_features(dataset)
    removals = []
    current = list(usable)
    r = dataset.n_features
    admissible = [False] * r
    while current:
        pvalues = loop_coefficient_pvalues(dataset, tuple(current))
        m = len(current)
        admissible[m - 1] = bool(np.max(pvalues) < alpha_threshold)
        worst_pos = int(np.argmax(pvalues))  # argmax: first (lowest index) wins ties
        removals.append(current.pop(worst_pos))
    order = list(reversed(removals)) + dropped
    return _finish(RankingMethod.PVALUE, dataset, order,
                   raw_order=removals + dropped, admissible=admissible)


def loop_select_order(dataset, ranking, criterion):
    """(curve, m_star) of the old ``select_order``, which refitted every
    prefix of the ranking."""
    n = dataset.n_rows
    r = dataset.n_features
    curve = np.full(r, math.inf)
    for m in range(1, r + 1):
        try:
            fit = fit_subset(dataset, FeatureSubset(ranking.order[:m]))
            curve[m - 1] = information_criterion_value(fit.mse, n, m, criterion)
        except (RankDeficiencyError, ConfigError):
            continue  # unscorable prefix (rank-deficient or n < m + 2)
    if not (curve < math.inf).any():
        raise ConfigError("every ranking prefix is rank-deficient")
    m_star = int(np.argmin(curve)) + 1
    return curve, m_star


def loop_correlation(dataset):
    """The old RM5 loop: (best-to-worst order, rho per feature)."""
    y = dataset.target
    yc = y - y.mean()
    y_norm = np.linalg.norm(yc)
    scores = []
    rhos = []
    for k in range(1, dataset.n_features + 1):
        x = dataset.features[:, k - 1]
        xc = x - x.mean()
        x_norm = np.linalg.norm(xc)
        if x_norm == 0.0 or y_norm == 0.0:
            rho = 0.0
        else:
            rho = float(xc @ yc) / (x_norm * y_norm)
        scores.append((-abs(rho), k))
        rhos.append(rho)
    order = [k for _, k in sorted(scores)]
    return order, np.array(rhos)


def loop_correlation_graph(dataset, threshold=0.95):
    """The old correlation graph loop: edges (i, j, rho), i < j, 1-based."""
    x = dataset.features
    centered = x - x.mean(axis=0)
    norms = np.linalg.norm(centered, axis=0)
    r = dataset.n_features
    edges = []
    for i in range(r):
        if norms[i] == 0.0:
            continue
        for j in range(i + 1, r):
            if norms[j] == 0.0:
                continue
            rho = float(centered[:, i] @ centered[:, j]) / (norms[i] * norms[j])
            if abs(rho) >= threshold:
                edges.append((i + 1, j + 1, rho))
    return tuple(edges)


def loop_ingest_csv(
    path: str | Path,
    target_column: str,
    normalize: str = "none",
    delimiter: str = ",",
    drop_columns: Sequence[str] = (),
) -> Dataset:
    """The old ``ingest_csv``: strip, parse and check every cell on its own."""
    _check_delimiter(delimiter)
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(_utf8_lines(handle, path), delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, expected a header row") from None
        header = [name.strip() for name in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise IngestError(f"{path}: duplicate header column(s) {dupes}")
        if target_column not in header:
            raise ConfigError(f"target column {target_column!r} not in header")
        missing = [c for c in drop_columns if c not in header]
        if missing:
            raise ConfigError(f"drop column(s) {missing} not in header")
        excluded = set(drop_columns) | {target_column}
        feature_names = [h for h in header if h not in excluded]
        target_pos = header.index(target_column)
        feature_pos = [header.index(h) for h in feature_names]

        rows = []
        targets = []
        # number each record by the physical line it starts on: a quoted
        # cell with a line break spans two lines
        next_line = reader.line_num + 1
        for row in reader:
            line_no, next_line = next_line, reader.line_num + 1
            if not row:
                continue  # tolerate blank trailing lines
            if len(row) != len(header):
                raise IngestError(
                    f"{path}: line {line_no} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
            parsed = []
            for pos, cell in enumerate(row):
                text = cell.strip()
                if text == "":
                    raise IngestError(
                        f"{path}: line {line_no}, column {header[pos]!r}: "
                        f"missing value"
                    )
                try:
                    value = float(text)
                except ValueError:
                    raise IngestError(
                        f"{path}: line {line_no}, column {header[pos]!r}: "
                        f"non-numeric cell {text!r}"
                    ) from None
                if not np.isfinite(value):
                    raise IngestError(
                        f"{path}: line {line_no}, column {header[pos]!r}: "
                        f"non-finite value {text!r}"
                    )
                parsed.append(value)
            rows.append([parsed[pos] for pos in feature_pos])
            targets.append(parsed[target_pos])

    if not rows:
        raise IngestError(f"{path}: no data rows after the header")
    features = normalize_columns(np.array(rows, dtype=float), normalize)
    return Dataset(
        features=features,
        target=np.array(targets, dtype=float),
        labels=tuple(feature_names),
        target_label=target_column,
    )


def loop_error_metrics(residuals, target):
    """The old one-vector ``error_metrics``: (MAE, MSE, RMSE, R-squared)."""
    mae = float(np.abs(residuals).mean())
    ss_res = float(residuals @ residuals)
    mse = ss_res / len(residuals)
    ss_tot = 0.0
    if not constant_columns(target):
        ss_tot = float(((target - target.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    return mae, mse, math.sqrt(mse), r_squared


def loop_cv_splits(dataset: Dataset, subset: FeatureSubset,
                   train_fraction: float, runs: int, seed: int):
    """The discrete outcome of every CV run, by the SVD rule: the (train
    rows, test rows, coefficients) of the first split of ``run_rng(seed,
    run)`` whose ``full_rank_lstsq`` train fit is full-rank, one resample
    allowed, or None when both are rank-deficient; after the settings
    checks, in their order."""
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

    def one_run(run: int):
        rng = run_rng(seed, run)
        for _ in range(2):  # one resample allowed per run
            perm = rng.permutation(n)
            train, test = perm[:n_train], perm[n_train:]
            try:
                return train, test, full_rank_lstsq(x[train], y[train], subset)
            except RankDeficiencyError:
                continue
        return None

    return [one_run(run) for run in range(runs)]


def cv_report_of(outcomes, subset, train_fraction, seed) -> CvReport:
    """The report over per-run (MAE, MSE, RMSE, R-squared) rows, None for a
    skipped run, aggregated as ``monte_carlo_cv`` does."""
    runs = len(outcomes)
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


def loop_monte_carlo_cv(
    dataset: Dataset,
    subset: FeatureSubset,
    train_fraction: float = 0.8,
    runs: int = 20000,
    seed: int = 0,
) -> CvReport:
    """The CV of one SVD ``full_rank_lstsq`` fit per split, with four
    fancy-index gathers and one one-vector scorer call per split.

    It is the reference for ``monte_carlo_cv``'s discrete outcomes (the
    split each run keeps, the runs it skips, every error it raises) and,
    bit for bit, for the splits it fits by the SVD rule: with the
    certificate switched off, the whole report equals this one byte for
    byte.  The splits ``monte_carlo_cv`` downdates from one QR differ
    from these fits only by rounding, bounded against ``exact_cv_runs``."""
    splits = loop_cv_splits(dataset, subset, train_fraction, runs, seed)
    x, y = build_design_matrix(dataset, subset).values, dataset.target
    outcomes = []
    for split in splits:
        if split is None:
            outcomes.append(None)
            continue
        train, test, coef = split
        outcomes.append(loop_error_metrics(y[test] - x[test] @ coef, y[test]))
    return cv_report_of(outcomes, subset, train_fraction, seed)


def _exact_integers(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``(ints, shift)`` with ``values == ints * 2**shift`` exactly: Python
    integers in an object array, so products and sums of them are exact."""
    mantissa, exponent = np.frexp(values)
    digits = (mantissa * 2.0**53).astype(np.int64)  # exact: |m| < 1
    shift = int(exponent.min()) - 53
    ints = [int(d) << int(e - 53 - shift) for d, e in
            zip(digits.ravel().tolist(), exponent.ravel().tolist())]
    return np.array(ints, dtype=object).reshape(values.shape), shift


def exact_cv_runs(dataset: Dataset, subset: FeatureSubset,
                  train_fraction: float, runs: int, seed: int,
                  digits: int = 50):
    """Every run of ``loop_cv_splits`` refitted by a ``digits``-digit
    ``mpmath`` solve of its train split: per run, None for a skipped run or
    ``(metrics, cond, ss_tot)``, the (MAE, MSE, RMSE, R-squared) of the
    exact test residual rounded to floats (R-squared 0 for a constant test
    target, as ``error_metrics`` rules), the 2-norm condition number of
    the train design and the test target's SS_tot in floats.

    The normal equations are formed in integers, exactly, and solved in
    ``digits`` digits, which loses at most 2 log10(cond) < 20 of them: the
    SVD rule keeps no train design with cond >= 1e10."""
    splits = loop_cv_splits(dataset, subset, train_fraction, runs, seed)
    x, y = build_design_matrix(dataset, subset).values, dataset.target
    xi, x_shift = _exact_integers(x)
    yi, y_shift = _exact_integers(y)
    out = []
    with mpmath.workdps(digits):
        for split in splits:
            if split is None:
                out.append(None)
                continue
            train, test, _ = split
            gram = mpmath.matrix((xi[train].T @ xi[train]).tolist())
            moment = mpmath.matrix((xi[train].T @ yi[train]).tolist())
            coef = mpmath.lu_solve(gram, moment)  # in units of 2**(y_shift - x_shift)
            # coefficients as integers of about 200 bits, so that the test
            # residual, (yi << scale) - xi @ ints in units of
            # 2**(y_shift - scale), is again exact
            scale = 200 - max((mpmath.mag(v) for v in coef if v), default=0)
            ints = np.array([int(mpmath.nint(mpmath.ldexp(v, scale))) for v in coef],
                            dtype=object)
            res = [(int(v) << scale) for v in yi[test]] - xi[test] @ ints
            unit = mpmath.ldexp(1, y_shift - scale)
            mse = mpmath.mpf(int((res * res).sum())) * unit * unit / len(test)
            ss_tot = 0.0
            if not constant_columns(y[test]):
                ss_tot = float(((y[test] - y[test].mean()) ** 2).sum())
            metrics = (float(mpmath.mpf(int(np.abs(res).sum())) * unit / len(test)),
                       float(mse), float(mpmath.sqrt(mse)),
                       float(1 - mse * len(test) / ss_tot) if ss_tot > 0.0 else 0.0)
            out.append((metrics, float(np.linalg.cond(x[train])), ss_tot))
    return out
