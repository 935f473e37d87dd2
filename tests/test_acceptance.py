"""Acceptance suite: one test per shipping criterion.

Each test prints a single pass line (visible with ``pytest -s``) and
enforces its stated tolerance and runtime budget.  Criteria 1-7 are fully
self-contained.  Criteria 8-10 validate reference results on the
emo-soundscapes export and run only when the environment variable
``VARSEL_EMO_CSV`` points at that file (122 feature columns in index
order plus ``arousal`` and ``valence`` columns); otherwise they are
skipped with an explicit notice.

Run:  pytest tests/test_acceptance.py -v -s
"""

import math
import os
import time

import numpy as np
import pytest

import varsel
from varsel import (
    Criterion,
    FeatureSubset,
    GibbsConfig,
    build_design_matrix,
    exact_target_enumeration,
    exhaustive_best_subset,
    fit_least_squares,
    gibbs_run,
    inclusion_frequencies,
    make_dataset,
    monte_carlo_cv,
    multi_restart_search,
    rank_forward_selection,
    select_order,
)
from varsel.cli import EXIT_OK, main
from varsel.data import run_rng
from varsel.search import alternating_optimization, random_subset

from oracles import exact_cv_runs, oracle_rm1, oracle_rm2, oracle_rm3, oracle_rm4

EMO_PATH = os.environ.get("VARSEL_EMO_CSV", "")
emo_gated = pytest.mark.skipif(
    not EMO_PATH,
    reason="EMO dataset not supplied; set VARSEL_EMO_CSV=/path/to/export.csv "
    "to run the reference-results criteria (8-10)",
)


def _passed(number, name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"\nCRITERION {number} ({name}): PASS in {elapsed:.1f}s")


def test_criterion_01_least_squares_correctness():
    started = time.perf_counter()
    for i in range(200):
        rng = np.random.default_rng(10_000 + i)
        n = int(rng.integers(12, 51))
        m = int(rng.integers(1, 9))
        x = rng.normal(size=(n, m))
        y = x @ rng.normal(size=m) + rng.normal() + 0.5 * rng.normal(size=n)
        ds = make_dataset(x, y)
        design = build_design_matrix(ds, FeatureSubset(tuple(range(1, m + 1))))
        fit = fit_least_squares(design, ds.target)
        bound = 1e-8 * np.linalg.norm(design.values) * np.linalg.norm(y)
        assert np.abs(design.values.T @ fit.residuals).max() <= bound
        oracle = np.linalg.pinv(design.values) @ y
        got = np.concatenate([[fit.intercept], fit.coefficients])
        np.testing.assert_allclose(got, oracle, rtol=1e-8)
    _passed(1, "LS correctness, 200 instances", started, 5.0)


def test_criterion_02_ranking_oracles():
    started = time.perf_counter()
    pairs = [
        (varsel.rank_forward_selection, oracle_rm1),
        (varsel.rank_backward_elimination, oracle_rm2),
        (varsel.rank_remove_max_error, oracle_rm3),
        (varsel.rank_add_max_error, oracle_rm4),
    ]
    for i in range(50):
        rng = np.random.default_rng(20_000 + i)
        r = int(rng.integers(3, 7))
        n = int(rng.integers(15, 35))
        x = rng.normal(size=(n, r))
        y = x @ rng.normal(size=r) + 0.5 * rng.normal(size=n)
        ds = make_dataset(x, y)
        for method, oracle in pairs:
            assert list(method(ds).order) == oracle(x, y), (i, method.__name__)
    _passed(2, "RM1-RM4 equal brute-force oracles, 50 instances", started, 30.0)


def test_criterion_03_best_subset_exactness():
    started = time.perf_counter()
    matches = 0
    for i in range(50):
        rng = np.random.default_rng(3000 + i)
        x = rng.normal(size=(40, 8))
        y = x @ rng.normal(size=8) + 0.5 * rng.normal(size=40)
        ds = make_dataset(x, y)
        m = 2 if i % 2 == 0 else 3
        got = multi_restart_search(ds, m, runs=200, seed=i)
        best = exhaustive_best_subset(ds, m)
        matches += got.subset.indices == best.subset.indices
        # every recorded coordinate update must be non-increasing
        traced = alternating_optimization(
            ds, m, random_subset(run_rng(i, 0), 8, m)
        )
        assert (np.diff(traced.update_costs) <= 0).all()
    assert matches >= 48, f"only {matches}/50 matched the exhaustive optimum"
    _passed(3, f"best-subset exactness ({matches}/50 matched)", started, 120.0)


def test_criterion_04_gibbs_against_exact_enumeration():
    started = time.perf_counter()
    combos = [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3)]
    for eta in (1.0, 100.0):
        for i, (r, m) in enumerate(combos):
            rng = np.random.default_rng(4000 + i)
            x = rng.normal(size=(30, r))
            y = x @ rng.normal(size=r) + 0.5 * rng.normal(size=30)
            ds = make_dataset(x, y)
            config = GibbsConfig(m=m, eta=eta, sweeps=20_000, seed=4000 + i)
            chain = gibbs_run(ds, config)
            exact = exact_target_enumeration(ds, m, eta=eta)
            retained = chain.states[config.burn_in :]
            counts: dict = {}
            for state in retained:
                key = tuple(sorted(state.indices))
                counts[key] = counts.get(key, 0) + 1
            keys = set(counts) | set(exact.subset_probabilities)
            tv = 0.5 * sum(
                abs(
                    counts.get(k, 0) / len(retained)
                    - exact.subset_probabilities.get(k, 0.0)
                )
                for k in keys
            )
            assert tv <= 0.05, f"TV={tv:.4f} at eta={eta}, R={r}, m={m}"
            profile = inclusion_frequencies(chain, config.burn_in)
            assert abs(profile.probabilities.sum() - m) <= 1e-12
            assert abs(exact.inclusion.probabilities.sum() - m) <= 1e-12
    _passed(4, "Gibbs TV <= 0.05 vs exact enumeration, 10 instances", started, 300.0)


def test_criterion_05_information_criteria():
    started = time.perf_counter()
    # (a) hand-formula agreement at relative 1e-12
    xi_of = {
        Criterion.AIC: lambda n: 1.0,
        Criterion.BIC: lambda n: math.log(n) / 2,
        Criterion.HQIC: lambda n: math.log(math.log(n)),
    }
    for i in range(20):
        rng = np.random.default_rng(50_000 + i)
        n = int(rng.integers(10, 200))
        m = int(rng.integers(1, 6))
        mse = float(rng.uniform(0.01, 4.0))
        for criterion, xi in xi_of.items():
            got = varsel.information_criterion_value(mse, n, m, criterion)
            expected = n * math.log(2 * math.pi * mse) + n + 2 * xi(n) * m
            assert got == pytest.approx(expected, rel=1e-12)
    # (b) BIC never selects more features than AIC, 100 instances with n >= 8
    for i in range(100):
        rng = np.random.default_rng(51_000 + i)
        n = int(rng.integers(8, 60))
        r = int(rng.integers(2, min(6, n - 2) + 1))
        x = rng.normal(size=(n, r))
        y = x @ rng.normal(size=r) + rng.normal(size=n)
        ds = make_dataset(x, y)
        ranking = rank_forward_selection(ds)
        bic = select_order(ds, ranking, Criterion.BIC).m_star
        aic = select_order(ds, ranking, Criterion.AIC).m_star
        assert bic <= aic
    # (c) three-true-feature recovery with BIC in >= 90% of 100 seeds
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        x = rng.normal(size=(2000, 10))
        support = rng.choice(10, size=3, replace=False)
        beta = np.where(rng.normal(size=3) >= 0, 1.0, -1.0) * (
            1.0 + rng.uniform(size=3)
        )
        y = x[:, support] @ beta + 0.5 + 0.1 * rng.normal(size=2000)
        ds = make_dataset(x, y)
        ranking = rank_forward_selection(ds)
        hits += select_order(ds, ranking, Criterion.BIC).m_star == 3
    assert hits >= 90, f"recovery in only {hits}/100 seeds"
    _passed(5, f"information criteria (recovery {hits}/100)", started, 60.0)


def test_criterion_06_cv_determinism():
    started = time.perf_counter()
    rng = np.random.default_rng(61)
    x = rng.normal(size=(40, 4))
    y = x @ np.array([1.0, -0.5, 0.0, 2.0]) + 0.3 * rng.normal(size=40)
    ds = make_dataset(x, y)
    subset = FeatureSubset((1, 2, 4))
    first = monte_carlo_cv(ds, subset, runs=64, seed=17).to_json()
    assert monte_carlo_cv(ds, subset, runs=64, seed=17).to_json() == first

    # runs=1 equals the manual single-split oracle (the same split, one SVD
    # lstsq, the metric expressions written out independently here) within
    # 64 eps cond(train design) relative, and so does that oracle a 50-digit
    # solve of the split: the split is downdated from one QR of the whole
    # design, so its last digits may differ from the SVD fit's
    report = monte_carlo_cv(ds, subset, runs=1, seed=23, train_fraction=0.8)
    perm = run_rng(23, 0).permutation(40)
    train, test = perm[:32], perm[32:]
    design = np.hstack([np.ones((32, 1)), ds.features[np.ix_(train, [0, 1, 3])]])
    coef = np.linalg.lstsq(design, ds.target[train], rcond=1e-10)[0]
    test_design = np.hstack([np.ones((8, 1)), ds.features[np.ix_(test, [0, 1, 3])]])
    residuals = ds.target[test] - test_design @ coef
    ss_tot = float(((ds.target[test] - ds.target[test].mean()) ** 2).sum())
    manual = (float(np.abs(residuals).mean()), float(residuals @ residuals) / 8,
              math.sqrt(float(residuals @ residuals) / 8),
              1.0 - float(residuals @ residuals) / ss_tot)
    (exact, _, _), = exact_cv_runs(ds, subset, 0.8, 1, 23)
    bound = 64 * np.finfo(float).eps * np.linalg.cond(design)
    got = (report.mean_mae, report.mean_mse, report.mean_rmse, report.mean_r2)
    for g, m, e in zip(got, manual, exact):
        assert abs(g - m) <= bound * abs(m) and abs(m - e) <= bound * abs(e)
    _passed(6, "CV determinism and single-split oracle", started, 60.0)


def test_criterion_07_pipeline_reproducibility(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(71)
    x = rng.normal(size=(40, 5))
    y = x @ rng.normal(size=5) + 0.2 * rng.normal(size=40)
    data = tmp_path / "fixture.csv"
    header = ",".join(f"f{k}" for k in range(1, 6)) + ",y"
    rows = [header] + [
        ",".join(repr(float(v)) for v in x[i]) + "," + repr(float(y[i]))
        for i in range(40)
    ]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")

    trees = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = main(
            [
                "report", "-i", str(data), "--target", "y", "--seed", "13",
                "--m", "2,3", "--runs", "25", "--sweeps", "200",
                "--cv-runs", "50", "-o", str(out),
            ]
        )
        assert code == EXIT_OK
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert trees[0].keys() == trees[1].keys()
    for name in trees[0]:
        assert trees[0][name] == trees[1][name], f"{name} differs between runs"
    _passed(7, "pipeline byte-identical reproducibility", started, 120.0)


# ---------------------------------------------------------------------------
# Dataset-gated criteria: reference results on the emo-soundscapes export.

def _load_emo(target):
    drop = "valence" if target == "arousal" else "arousal"
    return varsel.ingest_csv(EMO_PATH, target, drop_columns=[drop])


@emo_gated
def test_criterion_08_reference_rankings_and_best_sequence():
    started = time.perf_counter()
    ds = _load_emo("arousal")
    assert ds.n_features == 122, "expected the 122-feature export"
    rm2 = varsel.rank_backward_elimination(ds)
    assert rm2.order[:7] == (113, 14, 8, 114, 115, 56, 4)
    best7 = multi_restart_search(ds, 7, runs=1000, seed=0)
    assert best7.subset.indices == (4, 8, 14, 56, 113, 114, 115)
    _passed(8, "reference RM2 prefix and m=7 best sequence", started, 3600.0)


@emo_gated
def test_criterion_09_reference_model_metrics():
    started = time.perf_counter()
    arousal = _load_emo("arousal")
    model_a = varsel.fit_named_model(
        arousal, FeatureSubset((4, 8, 14, 56, 113, 114, 115))
    )
    assert model_a.fit.mae == pytest.approx(0.1593, abs=0.002)
    assert model_a.fit.mse == pytest.approx(0.0432, abs=0.002)
    assert model_a.fit.r_squared == pytest.approx(0.8703, abs=0.005)

    valence = _load_emo("valence")
    valence_subset = FeatureSubset(
        (3, 4, 8, 14, 20, 31, 40, 42, 52, 79, 88, 109, 110, 113, 114, 115)
    )
    model_v = varsel.fit_named_model(valence, valence_subset)
    assert model_v.fit.mae == pytest.approx(0.2799, abs=0.003)
    assert model_v.fit.mse == pytest.approx(0.1182, abs=0.004)
    assert model_v.fit.r_squared == pytest.approx(0.6452, abs=0.01)

    cv_a = monte_carlo_cv(
        arousal, model_a.subset, train_fraction=0.8, runs=20_000, seed=0
    )
    assert cv_a.mean_mae == pytest.approx(0.1611, abs=0.003)
    cv_v = monte_carlo_cv(
        valence, valence_subset, train_fraction=0.8, runs=20_000, seed=0
    )
    assert cv_v.mean_mae == pytest.approx(0.2849, abs=0.004)
    _passed(9, "reference model and CV metrics", started, 3600.0)


@emo_gated
def test_criterion_10_gibbs_profile_is_ordinal_only():
    started = time.perf_counter()
    ds = _load_emo("arousal")
    sweeps = int(os.environ.get("VARSEL_EMO_GIBBS_SWEEPS", "1000"))
    config = GibbsConfig(m=10, eta=100.0, sweeps=sweeps, seed=0)
    chain = gibbs_run(ds, config)
    profile = inclusion_frequencies(chain, config.burn_in)
    probs = profile.probabilities
    assert int(np.argmax(probs)) + 1 == 113
    for k in (114, 4, 115, 56, 8):
        assert probs[k - 1] > 1.0 / 122.0, f"feature {k} not above uniform"
    _passed(10, "Gibbs ordinal profile at eta=100, m=10", started, 7200.0)


@emo_gated
def test_reference_ranking_tables_extra_rows():
    # Companion checks to criterion 8 for the other unambiguous rankings.
    ds = _load_emo("arousal")
    rm1 = varsel.rank_forward_selection(ds)
    assert rm1.order[:8] == (113, 39, 14, 8, 4, 56, 115, 114)
    rm3 = varsel.rank_remove_max_error(ds)
    assert rm3.order[:5] == (113, 114, 14, 20, 18)
    rm5 = varsel.rank_correlation(ds)
    assert rm5.order[:5] == (113, 114, 14, 116, 2)
    pv = varsel.rank_pvalues(ds)
    assert pv.order[:7] == (113, 14, 8, 4, 56, 115, 114)


@emo_gated
def test_reference_order_selection_counts():
    # 17/40 variables (BIC/AIC, arousal) and 22/68 (valence); the reference
    # counts do not specify which ranking they were computed along, so both
    # orderings are reported and neither is asserted as the match.
    for target, expected in (("arousal", (17, 40, 71)), ("valence", (22, 68, 83))):
        ds = _load_emo(target)
        results = {}
        for name, ranked in (
            ("rm1", varsel.rank_forward_selection(ds)),
            ("rm2", varsel.rank_backward_elimination(ds)),
        ):
            bic = select_order(ds, ranked, Criterion.BIC).m_star
            aic = select_order(ds, ranked, Criterion.AIC).m_star
            results[name] = (bic, aic)
        pv = varsel.rank_pvalues(ds)
        m_pv = varsel.pvalue_stopping(pv).m_star
        print(
            f"\n[{target}] BIC/AIC along rm1={results['rm1']}, "
            f"rm2={results['rm2']}, p-value stop={m_pv} "
            f"(reference: BIC={expected[0]}, AIC={expected[1]}, "
            f"p-value={expected[2]})"
        )
