"""Output checks applied to every invocation's ``report.json``.

Numbers are recomputed from the generated arrays (not from what the program
ingested) with ``numpy.linalg.lstsq`` at its default cutoff.  They must agree
to a relative 1e-9, widened to machine epsilon times the design's condition
number where that is larger: a least-squares residual is only determined to
about eps * kappa, and prefixes holding both columns of the rank-rule pair
have kappa near 1e9, where two correct solvers differ by up to 1e-8.
"""

from __future__ import annotations

import numpy as np
from jsonschema import Draft202012Validator

from generate import Table

REL_TOL = 1e-9
EPS = np.finfo(float).eps
CV_MAE_SLACK = 0.05
N_RANDOM_PREFIXES = 2


def _fit_residuals(table: Table, subset) -> tuple[np.ndarray, float]:
    """Residuals of the intercept + subset fit and the design's kappa."""
    cols = [k - 1 for k in subset]
    x = np.hstack([np.ones((table.features.shape[0], 1)), table.features[:, cols]])
    coef, _, _, sv = np.linalg.lstsq(x, table.target, rcond=None)
    return table.target - x @ coef, float(sv[0] / sv[-1])


def _agree(reported, expected: float, kappa: float = 1.0) -> bool:
    if not isinstance(reported, (int, float)):
        return False
    tol = max(REL_TOL, EPS * kappa)
    return abs(reported - expected) <= tol * abs(expected)


def sampled_prefixes(n_features: int, seed: int) -> list[int]:
    """Fixed prefix sizes plus a few seeded ones, for the error-curve check."""
    rng = np.random.default_rng([seed, 2])
    fixed = {1, 2, 6, n_features // 2, n_features - 1, n_features}
    extra = rng.choice(np.arange(3, n_features - 1), N_RANDOM_PREFIXES, replace=False)
    return sorted(fixed | {int(v) for v in extra})


def check_report(report: dict, table: Table, stages, schema: dict,
                 seed: int) -> list[str]:
    """Every way the report disagrees with the table it came from."""
    problems = [
        f"schema: {error.message} at {list(error.path)}"
        for error in Draft202012Validator(schema).iter_errors(report)
    ][:5]
    if problems:
        return problems
    if report["stages_run"] != sorted(stages):
        problems.append(f"stages_run {report['stages_run']}")
    planted = set(table.planted)
    r = table.n_features

    for entry in report.get("rankings", ()):
        method, order = entry["method"], entry["order"]
        if sorted(order) != list(range(1, r + 1)) or len(entry["error_curve"]) != r:
            problems.append(f"{method}: order or error curve is not over 1..{r}")
            continue
        for m in sampled_prefixes(r, seed):
            if m in entry["filled_prefixes"]:
                continue
            res, kappa = _fit_residuals(table, order[:m])
            if not _agree(entry["error_curve"][m - 1], np.abs(res).mean(), kappa):
                problems.append(f"{method}: error_curve[{m - 1}] disagrees")
        if method in ("rm2-backward", "pvalue") and set(order[:len(planted)]) != planted:
            problems.append(f"{method}: top {len(planted)} {order[:len(planted)]} "
                            f"are not the planted {sorted(planted)}")

    for entry in report.get("best_subsets", ()):
        m, subset = entry["m"], entry["subset"]
        if len(subset) != m or subset != sorted(set(subset)):
            problems.append(f"best_subsets m={m}: malformed subset {subset}")
            continue
        res, kappa = _fit_residuals(table, subset)
        if not _agree(entry["cost"], np.abs(res).sum(), kappa):
            problems.append(f"best_subsets m={m}: cost disagrees")
        if m == len(planted) and set(subset) != planted:
            problems.append(f"best_subsets m={m}: {subset} is not the planted "
                            f"{sorted(planted)}")

    for entry in report.get("inclusion_profiles", ()):
        probs = entry["probabilities"]
        if len(probs) != r:
            problems.append(f"gibbs m={entry['m']}: {len(probs)} probabilities")
            continue
        below = [k for k in sorted(planted)
                 if not probs[k - 1] > entry["uniform_reference"]]
        if below:
            problems.append(f"gibbs m={entry['m']}: planted {below} not above "
                            f"the uniform reference")

    if "named_model" in report:
        named = report["named_model"]
        if set(named["subset"]) != planted:
            problems.append(f"named_model subset {named['subset']}")
        else:
            res, kappa = _fit_residuals(table, named["subset"])
            if not _agree(named["mae"], np.abs(res).mean(), kappa):
                problems.append("named_model: mae disagrees")
            if abs(report["cv"]["mean_mae"] / named["mae"] - 1.0) > CV_MAE_SLACK:
                problems.append(f"cv mean_mae {report['cv']['mean_mae']} not within "
                                f"5% of the named-model MAE {named['mae']}")

    if "correlation" in report:
        edges = report["correlation"]["edges"]
        rho = np.corrcoef(table.features, rowvar=False)
        for i, j, value in edges:
            if not 1 <= i < j <= r:
                problems.append(f"edge ({i}, {j}) outside 1..{r}")
            elif not _agree(value, rho[i - 1, j - 1]):
                problems.append(f"edge ({i}, {j}): rho disagrees")
        found = {(i, j) for i, j, _ in edges}
        missing = [p for p in table.near_duplicate_pairs if p not in found]
        if missing:
            problems.append(f"correlation graph misses planted pairs {missing}")
    return problems
