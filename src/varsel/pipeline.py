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
from .data import FeatureSubset
from .errors import ConfigError, VarselError
from .gibbs import GibbsConfig, gibbs_run, inclusion_frequencies
from .ingest import ingest_csv
from .linmodel import CostCache
from .ranking import Ranking, RankingMethod, rank_features
from .search import multi_restart_search
from .selection import Criterion, elbow_annotation, pvalue_stopping, select_order
from .validation import correlation_graph, fit_named_model, monte_carlo_cv

SCHEMA_VERSION = "1"

ALL_STAGES = ("rank", "search", "gibbs", "select", "cv", "corr")
ALL_METHODS = tuple(m.value for m in RankingMethod)
IC_CRITERIA = ("aic", "bic", "hqic")


@dataclass(frozen=True)
class RunConfig:
    """Everything one batch run needs; see the CLI for the flag mapping."""

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
        needs_m = {"search", "gibbs"} & set(self.stages)
        if needs_m and not self.m_values:
            raise ConfigError(f"stages {sorted(needs_m)} need --m values")


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
    return json.dumps(_jsonable(document), sort_keys=True, indent=2) + "\n"


def dataset_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


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


def _ranking_entry(ranking: Ranking) -> dict:
    return {
        "method": ranking.method.value,
        "order": list(ranking.order),
        "raw_order": None if ranking.raw_order is None else list(ranking.raw_order),
        "error_curve": _jsonable(ranking.error_curve),
        "filled_prefixes": list(ranking.filled_prefixes),
        "elbow_hint": elbow_annotation(ranking.error_curve),
    }


def _guard(stage: str, report: dict, output_dir: str, body):
    """Run one stage; on failure emit the partial report flagged incomplete
    and re-raise with the stage attached."""
    try:
        return body()
    except VarselError as exc:
        report["incomplete"] = {"failed_stage": stage, "error": str(exc)}
        _emit(report, Path(output_dir))
        exc.stage = stage
        raise


def run_pipeline(config: RunConfig) -> tuple[dict, list[Path]]:
    """Execute the configured stages; return the report document and the
    list of files written under the output directory.

    A failing stage still writes whatever completed before it, with an
    ``incomplete`` marker naming the stage, then propagates the error.
    """
    dataset = ingest_csv(
        config.dataset_path,
        config.target_column,
        normalize=config.normalize,
        delimiter=config.delimiter,
        drop_columns=config.drop_columns,
    )
    digest = dataset_sha256(config.dataset_path)
    stages = set(config.stages)

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
        "stages_run": sorted(stages),
    }

    rankings: dict[str, Ranking] = {}
    if stages & {"rank", "select"}:

        def compute_rankings():
            for name in config.methods:
                rankings[name] = rank_features(
                    dataset, RankingMethod(name), config.alpha_threshold
                )

        _guard("rank" if "rank" in stages else "select", report,
               config.output_dir, compute_rankings)
    if "rank" in stages:
        report["rankings"] = [
            _ranking_entry(rankings[name]) for name in config.methods
        ]

    cache = CostCache(dataset, config.p_norm, config.cost_alpha)

    best_subsets: list[dict] = []
    if "search" in stages:

        def run_search():
            for m in config.m_values:
                result = multi_restart_search(
                    dataset,
                    m,
                    runs=config.search_runs,
                    seed=config.seed,
                    max_iters=config.max_iters,
                    cache=cache,
                )
                best_subsets.append(
                    {
                        "m": m,
                        "subset": list(result.subset.indices),
                        "cost": result.cost,
                        "restarts": config.search_runs,
                        "total_sweeps": result.iterations,
                    }
                )

        _guard("search", report, config.output_dir, run_search)
        report["best_subsets"] = best_subsets

    if "gibbs" in stages:
        profiles = []

        def run_gibbs():
            for m in config.m_values:
                gibbs_config = GibbsConfig(
                    m=m,
                    eta=config.eta,
                    sweeps=config.sweeps,
                    burn_in=config.burn_in,
                    seed=config.seed,
                )
                chain = gibbs_run(dataset, gibbs_config, cache=cache)
                profile = inclusion_frequencies(chain, gibbs_config.burn_in)
                profiles.append(
                    {
                        "m": m,
                        "eta": config.eta,
                        "sweeps": config.sweeps,
                        "burn_in": gibbs_config.burn_in,
                        "uniform_reference": profile.uniform_reference,
                        "probabilities": _jsonable(profile.probabilities),
                    }
                )

        _guard("gibbs", report, config.output_dir, run_gibbs)
        report["inclusion_profiles"] = profiles

    if "select" in stages:
        selections = []

        def run_select():
            for name in config.methods:
                ranking = rankings[name]
                if name == RankingMethod.PVALUE.value:
                    chosen = pvalue_stopping(ranking)
                    selections.append(
                        {
                            "criterion": chosen.criterion.value,
                            "ranking_method": name,
                            "m_star": chosen.m_star,
                            "curve": _jsonable(chosen.curve),
                        }
                    )
                    continue
                for crit in config.criteria:
                    chosen = select_order(dataset, ranking, Criterion(crit))
                    selections.append(
                        {
                            "criterion": crit,
                            "ranking_method": name,
                            "m_star": chosen.m_star,
                            "curve": _jsonable(chosen.curve),
                        }
                    )

        _guard("select", report, config.output_dir, run_select)
        report["order_selection"] = selections

    if "cv" in stages:

        def run_cv():
            if config.cv_subset is not None:
                indices = tuple(sorted(config.cv_subset))
            elif best_subsets:
                largest = max(best_subsets, key=lambda entry: entry["m"])
                indices = tuple(largest["subset"])
            else:
                raise ConfigError(
                    "cv stage needs --subset or a search stage to supply one"
                )
            subset = FeatureSubset(indices)
            cv = monte_carlo_cv(
                dataset,
                subset,
                train_fraction=config.train_fraction,
                runs=config.cv_runs,
                seed=config.seed,
            )
            named = fit_named_model(dataset, subset)
            report["cv"] = json.loads(cv.to_json())
            report["named_model"] = {
                "subset": list(subset.indices),
                "intercept": named.intercept,
                "coefficients": [[label, b] for label, b in named.coefficients],
                "mae": named.fit.mae,
                "mse": named.fit.mse,
                "rmse": named.fit.rmse,
                "r_squared": named.fit.r_squared,
            }

        _guard("cv", report, config.output_dir, run_cv)

    if "corr" in stages:

        def run_corr():
            graph = correlation_graph(dataset, config.corr_threshold)
            report["correlation"] = {
                "threshold": graph.threshold,
                "edges": [[i, j, rho] for i, j, rho in graph.edges],
            }

        _guard("corr", report, config.output_dir, run_corr)

    written = _emit(report, Path(config.output_dir))
    return report, written


def _emit(report: dict, output_dir: Path) -> list[Path]:
    output_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def write_text(name: str, text: str) -> None:
        target = output_dir / name
        with target.open("w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        written.append(target)

    write_text("report.json", canonical_json(report))

    if "rankings" in report:
        lines = ["method,M,MAE"]
        for entry in report["rankings"]:
            for m, mae in enumerate(entry["error_curve"], start=1):
                lines.append(f"{entry['method']},{m},{_fmt(mae)}")
        write_text("error_curves.csv", "\n".join(lines) + "\n")

    for entry in report.get("inclusion_profiles", ()):
        lines = ["feature,probability"]
        for k, prob in enumerate(entry["probabilities"], start=1):
            lines.append(f"{k},{_fmt(prob)}")
        write_text(f"inclusion_m{entry['m']}.csv", "\n".join(lines) + "\n")

    if "order_selection" in report:
        lines = ["criterion,ranking_method,M,value"]
        for entry in report["order_selection"]:
            for m, value in enumerate(entry["curve"], start=1):
                lines.append(
                    f"{entry['criterion']},{entry['ranking_method']},{m},{_fmt(value)}"
                )
        write_text("criterion_curves.csv", "\n".join(lines) + "\n")

    if "best_subsets" in report:
        lines = ["m,cost,subset"]
        for entry in report["best_subsets"]:
            subset = " ".join(str(k) for k in entry["subset"])
            lines.append(f"{entry['m']},{_fmt(entry['cost'])},{subset}")
        write_text("best_subsets.csv", "\n".join(lines) + "\n")

    if "correlation" in report:
        lines = ["i,j,rho"]
        for i, j, rho in report["correlation"]["edges"]:
            lines.append(f"{i},{j},{_fmt(rho)}")
        write_text("correlation_edges.csv", "\n".join(lines) + "\n")

    return written


def _fmt(value) -> str:
    if isinstance(value, str):
        return value  # "inf"/"-inf" sentinels pass through
    return repr(float(value))
