"""Batch orchestration: run the requested stages and emit a reproducible
report plus flat per-figure data files.

The report is a single JSON document whose field names are frozen in
``schema/report.schema.json``.  Everything written is byte-stable for a
given configuration and seed: floats serialize via repr, keys are sorted,
and no timestamps are embedded.  The config hash covers the dataset
content and every computational knob, but not the output location.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, FeatureSubset, check_seed
from .errors import ConfigError, VarselError
from .gibbs import GibbsConfig, gibbs_run, inclusion_frequencies
# ``ingest_csv`` that also returns the sha256 of the bytes it parsed, from
# its one read of the input, under the public name (the name
# ``bench/tracing.py`` times)
from .ingest import _ingest as ingest_csv, _read_bytes
from .linmodel import CostCache, check_cost_parameters
from .ranking import (
    Ranking,
    RankingMethod,
    check_pvalue_threshold,
    rank_features,
)
from .search import check_search_settings, multi_restart_search
from .selection import Criterion, elbow_annotation, pvalue_stopping, select_order
from .validation import (
    check_correlation_threshold,
    check_cv_settings,
    correlation_graph,
    fit_named_model,
    monte_carlo_cv,
)

SCHEMA_VERSION = "1"

ALL_STAGES = ("rank", "search", "gibbs", "select", "cv", "corr")
ALL_METHODS = tuple(m.value for m in RankingMethod)
IC_CRITERIA = ("aic", "bic", "hqic")


@dataclass(frozen=True)
class RunConfig:
    """Everything one batch run needs; see the CLI for the flag mapping.

    Construction rejects every setting that a configured stage would reject
    without reading the table, so such a run writes nothing.
    """

    dataset_path: str
    target_column: str
    output_dir: str = "."
    stages: tuple[str, ...] = ALL_STAGES
    drop_columns: tuple[str, ...] = ()
    delimiter: str = ","
    normalize: str = "none"
    methods: tuple[str, ...] = ALL_METHODS
    criteria: tuple[str, ...] = IC_CRITERIA
    m_values: tuple[int, ...] = ()
    eta: float = 100.0
    p_norm: float = 1.0
    cost_alpha: float = 1.0
    alpha_threshold: float = 0.05
    search_runs: int = 1000
    max_iters: int = 100
    sweeps: int = 5000
    burn_in: int | None = None
    cv_runs: int = 20000
    train_fraction: float = 0.8
    cv_subset: tuple[int, ...] | None = None
    corr_threshold: float = 0.95
    seed: int = 0

    def __post_init__(self):
        unknown = set(self.stages) - set(ALL_STAGES)
        if unknown:
            raise ConfigError(f"unknown stage(s) {sorted(unknown)}")
        unknown = set(self.methods) - set(ALL_METHODS)
        if unknown:
            raise ConfigError(f"unknown ranking method(s) {sorted(unknown)}")
        unknown = set(self.criteria) - set(IC_CRITERIA)
        if unknown:
            raise ConfigError(f"unknown criterion/criteria {sorted(unknown)}")
        for name in ("methods", "criteria", "m_values"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"repeated {name} in {list(values)}")
        stages = set(self.stages)
        needs_m = {"search", "gibbs"} & stages
        if needs_m and not self.m_values:
            raise ConfigError(f"stages {sorted(needs_m)} need --m values")
        # by the check each stage calls; the checks against the table stay there
        if needs_m:
            check_cost_parameters(self.p_norm, self.cost_alpha)
        if {"search", "gibbs", "cv"} & stages:
            check_seed(self.seed)
        if "search" in stages:
            for m in self.m_values:
                check_search_settings(m, self.search_runs, self.max_iters)
        if "gibbs" in stages:
            self.gibbs_configs()
        if "cv" in stages:
            check_cv_settings(self.train_fraction, self.cv_runs)
            if self.cv_subset is not None:
                FeatureSubset(self.cv_subset)
            elif "search" not in stages:
                raise ConfigError(
                    "cv stage needs --subset or a search stage to supply one"
                )
        if {"rank", "select"} & stages and RankingMethod.PVALUE.value in self.methods:
            check_pvalue_threshold(self.alpha_threshold)
        if "corr" in stages:
            check_correlation_threshold(self.corr_threshold)

    def gibbs_configs(self) -> tuple[GibbsConfig, ...]:
        """One sampler configuration per m; each checks its settings."""
        return tuple(
            GibbsConfig(m=m, eta=self.eta, sweeps=self.sweeps,
                        burn_in=self.burn_in, seed=self.seed)
            for m in self.m_values
        )


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def canonical_json(document: dict) -> str:
    """``document``, plain JSON values as ``_jsonable`` gives them, as text."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def dataset_sha256(path: str | Path) -> str:
    """The sha256 of the input's bytes, read as ``ingest_csv`` reads them;
    ``IngestError`` when they cannot be read."""
    return hashlib.sha256(_read_bytes(Path(path))).hexdigest()


def config_hash(config: RunConfig, dataset_digest: str) -> str:
    """Hash of everything that can influence report bytes.

    Covers the dataset content digest plus every config field except the
    output location, so equal hash + seed guarantees byte-identical
    reports wherever they are written.  The fields include
    ``dataset_path``: the report records the path, so the same bytes read
    from another path hash differently.
    """
    payload = asdict(config)
    payload.pop("output_dir")
    payload["dataset_sha256"] = dataset_digest
    text = json.dumps(_jsonable(payload), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rankings(config: RunConfig, dataset: Dataset, made: dict) -> dict[str, Ranking]:
    """The configured rankings, computed by the first of rank and select to
    run (a failure is charged to that stage) and kept for the other."""
    if "ranked" not in made:
        made["ranked"] = {name: rank_features(dataset, RankingMethod(name),
                                              config.alpha_threshold)
                          for name in config.methods}
    return made["ranked"]


def _rank(config: RunConfig, dataset: Dataset, made: dict) -> dict:
    return {"rankings": [
        {
            "method": ranking.method.value,
            "order": list(ranking.order),
            "raw_order": None if ranking.raw_order is None else list(ranking.raw_order),
            "error_curve": ranking.error_curve,
            "filled_prefixes": list(ranking.filled_prefixes),
            "elbow_hint": elbow_annotation(ranking.error_curve),
        }
        for ranking in _rankings(config, dataset, made).values()
    ]}


def _search(config: RunConfig, dataset: Dataset, made: dict) -> dict:
    entries = []
    for m in config.m_values:
        result = multi_restart_search(dataset, m, runs=config.search_runs,
                                      seed=config.seed, max_iters=config.max_iters,
                                      cache=made["cache"])
        entries.append({"m": m, "subset": list(result.subset.indices),
                        "cost": result.cost, "restarts": config.search_runs,
                        "total_sweeps": result.iterations})
    return {"best_subsets": entries}


def _gibbs(config: RunConfig, dataset: Dataset, made: dict) -> dict:
    profiles = []
    for gibbs_config in config.gibbs_configs():
        chain = gibbs_run(dataset, gibbs_config, cache=made["cache"])
        profile = inclusion_frequencies(chain, gibbs_config.burn_in)
        profiles.append({
            "m": gibbs_config.m,
            "eta": gibbs_config.eta,
            "sweeps": gibbs_config.sweeps,
            "burn_in": gibbs_config.burn_in,
            "uniform_reference": profile.uniform_reference,
            "probabilities": profile.probabilities,
        })
    return {"inclusion_profiles": profiles}


def _select(config: RunConfig, dataset: Dataset, made: dict) -> dict:
    entries = []
    for name, ranking in _rankings(config, dataset, made).items():
        if name == RankingMethod.PVALUE.value:
            chosen = [pvalue_stopping(ranking)]
        else:
            chosen = [select_order(dataset, ranking, Criterion(crit))
                      for crit in config.criteria]
        entries += [{"criterion": selection.criterion.value,
                     "ranking_method": name,
                     "m_star": selection.m_star,
                     "curve": selection.curve} for selection in chosen]
    return {"order_selection": entries}


def _cv(config: RunConfig, dataset: Dataset, made: dict) -> dict:
    """CV of ``--subset``, or else of the largest search subset."""
    if config.cv_subset is not None:
        subset = FeatureSubset(tuple(sorted(config.cv_subset)))
    else:
        largest = max(made["best_subsets"], key=lambda entry: entry["m"])
        subset = FeatureSubset(tuple(largest["subset"]))
    cv = monte_carlo_cv(dataset, subset, train_fraction=config.train_fraction,
                        runs=config.cv_runs, seed=config.seed)
    named = fit_named_model(dataset, subset)
    return {
        "cv": asdict(cv),
        "named_model": {
            "subset": list(subset.indices),
            "intercept": named.fit.intercept,
            "coefficients": [[label, b] for label, b in named.coefficients],
            "mae": named.fit.mae,
            "mse": named.fit.mse,
            "rmse": named.fit.rmse,
            "r_squared": named.fit.r_squared,
        },
    }


def _corr(config: RunConfig, dataset: Dataset, made: dict) -> dict:
    graph = correlation_graph(dataset, config.corr_threshold)
    return {"correlation": {"threshold": graph.threshold,
                            "edges": [[i, j, rho] for i, j, rho in graph.edges]}}


# Each stage maps (config, dataset, what earlier stages made) to its report
# sections, arrays and numpy scalars as they came; the loop in
# ``run_pipeline`` runs them in ``ALL_STAGES`` order and converts each
# stage's sections once, as it merges them into the report.
_STAGES = {"rank": _rank, "search": _search, "gibbs": _gibbs,
           "select": _select, "cv": _cv, "corr": _corr}


def run_pipeline(config: RunConfig) -> tuple[dict, list[Path]]:
    """Execute the configured stages; return the report document and the
    list of files written under the output directory.

    A failing stage still writes whatever completed before it, with an
    ``incomplete`` marker naming the stage, then propagates the error with
    the stage attached as ``exc.stage``.
    """
    dataset, digest = ingest_csv(
        config.dataset_path,
        config.target_column,
        normalize=config.normalize,
        delimiter=config.delimiter,
        drop_columns=config.drop_columns,
    )
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "seed": config.seed,
        "config_hash": config_hash(config, digest),
        "config": _jsonable(
            {k: v for k, v in asdict(config).items() if k != "output_dir"}
        ),
        "dataset": {
            "path": config.dataset_path,
            "sha256": digest,
            "n_rows": dataset.n_rows,
            "n_features": dataset.n_features,
            "target": config.target_column,
            "normalize": config.normalize,
        },
        "stages_run": sorted(set(config.stages)),
    }
    # the shared cost cache, the rankings and every section made so far
    made: dict = {"cache": CostCache(dataset, config.p_norm, config.cost_alpha)}
    for stage in ALL_STAGES:
        if stage not in config.stages:
            continue
        try:
            sections = _STAGES[stage](config, dataset, made)
        except VarselError as exc:
            report["incomplete"] = {"failed_stage": stage, "error": str(exc)}
            _emit(report, Path(config.output_dir))
            exc.stage = stage
            raise
        report.update(_jsonable(sections))
        made.update(sections)
    return report, _emit(report, Path(config.output_dir))


def _emit(report: dict, output_dir: Path) -> list[Path]:
    output_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def write_text(name: str, text: str) -> None:
        target = output_dir / name
        target.write_text(text, encoding="utf-8", newline="\n")
        written.append(target)

    def write_lines(name: str, header: str, lines) -> None:
        write_text(name, "\n".join([header, *lines]) + "\n")

    write_text("report.json", canonical_json(report))

    if "rankings" in report:
        write_lines("error_curves.csv", "method,M,MAE", (
            f"{entry['method']},{m},{_fmt(mae)}" for entry in report["rankings"]
            for m, mae in enumerate(entry["error_curve"], start=1)))
    for entry in report.get("inclusion_profiles", ()):
        write_lines(f"inclusion_m{entry['m']}.csv", "feature,probability", (
            f"{k},{_fmt(prob)}"
            for k, prob in enumerate(entry["probabilities"], start=1)))
    if "order_selection" in report:
        write_lines("criterion_curves.csv", "criterion,ranking_method,M,value", (
            f"{entry['criterion']},{entry['ranking_method']},{m},{_fmt(value)}"
            for entry in report["order_selection"]
            for m, value in enumerate(entry["curve"], start=1)))
    if "best_subsets" in report:
        write_lines("best_subsets.csv", "m,cost,subset", (
            f"{entry['m']},{_fmt(entry['cost'])},{' '.join(map(str, entry['subset']))}"
            for entry in report["best_subsets"]))
    if "correlation" in report:
        write_lines("correlation_edges.csv", "i,j,rho", (
            f"{i},{j},{_fmt(rho)}" for i, j, rho in report["correlation"]["edges"]))
    return written


def _fmt(value) -> str:
    if isinstance(value, str):
        return value  # "inf"/"-inf" sentinels pass through
    return repr(float(value))
