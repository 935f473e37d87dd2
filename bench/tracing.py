"""The traced run: spans around each layer call, and the per-layer metrics.

Spans are recorded from the benchmark's side.  While a traced invocation
runs, the names ``run_pipeline`` looks up in ``varsel.pipeline`` (and the
two inner calls ``ranking.error_curve`` and ``search.alternating_optimization``)
are replaced by wrappers that time each call and pass it through unchanged,
then restored.  The traced run therefore calls exactly what ``run_pipeline``
calls, in the same order and with the same arguments; a replica written
beside it could drift.  What can still drift is the set of names: if the
pipeline stops calling a wrapped function, its spans go missing, and
``missing_spans`` reports that as a failure instead of a zero.

Layer metrics of a layer the workload bypasses read 0.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

import varsel
import varsel.pipeline
import varsel.ranking
import varsel.search
from varsel import CostCache, FeatureSubset, GibbsConfig, fit_subset, full_conditional_weights

# (module, attribute, span name) of every wrapped call.
WRAPPED = (
    (varsel.pipeline, "ingest_csv", "ingest.ingest_csv"),
    (varsel.pipeline, "dataset_sha256", "pipeline.dataset_sha256"),
    (varsel.pipeline, "config_hash", "pipeline.config_hash"),
    (varsel.pipeline, "rank_features", "ranking.rank_features"),
    (varsel.ranking, "error_curve", "ranking.error_curve"),
    (varsel.pipeline, "multi_restart_search", "search.multi_restart_search"),
    (varsel.search, "alternating_optimization", "search.alternating_optimization"),
    (varsel.pipeline, "gibbs_run", "gibbs.gibbs_run"),
    (varsel.pipeline, "inclusion_frequencies", "gibbs.inclusion_frequencies"),
    (varsel.pipeline, "select_order", "selection.select_order"),
    (varsel.pipeline, "pvalue_stopping", "selection.pvalue_stopping"),
    (varsel.pipeline, "elbow_annotation", "selection.elbow_annotation"),
    (varsel.pipeline, "monte_carlo_cv", "validation.monte_carlo_cv"),
    (varsel.pipeline, "fit_named_model", "validation.fit_named_model"),
    (varsel.pipeline, "correlation_graph", "validation.correlation_graph"),
    (varsel.pipeline, "canonical_json", "pipeline.canonical_json"),
)
ROOT = "pipeline.run_pipeline"

# Spans each stage must produce; a missing one means the pipeline changed
# what it calls and the trace no longer covers it.
REQUIRED = {
    "rank": ("ranking.rank_features", "ranking.error_curve",
             "selection.elbow_annotation"),
    "select": ("selection.select_order",),
    "search": ("search.multi_restart_search", "search.alternating_optimization"),
    "gibbs": ("gibbs.gibbs_run", "gibbs.inclusion_frequencies"),
    "cv": ("validation.monte_carlo_cv", "validation.fit_named_model"),
    "corr": ("validation.correlation_graph",),
}

N_FIT_SUBSETS = 100
N_CONDITIONALS = 10
CACHE_LOOKUPS = 20000


class Tracer:
    """In-memory spans: name, start, end, parent index, run id, attributes
    and, once the run ends, self time."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()
        self.caches: list[CostCache] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "run_id": self.run_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        except Exception as exc:
            record["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def _wrapper(self, original, name):
        def traced(*args, **kwargs):
            cache = kwargs.get("cache")
            if cache is not None and all(c is not cache for c in self.caches):
                self.caches.append(cache)
            lookups = cache.hits + cache.misses if cache is not None else 0
            with self.span(name) as record:
                result = original(*args, **kwargs)
            _annotate(record, args, result)
            if cache is not None:
                record["attrs"]["cost_evals"] = cache.hits + cache.misses - lookups
            return result
        return traced

    def run(self, config):
        """One ``run_pipeline`` call with every wrapped name traced; then
        each span gets its self time, its duration minus its children's."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
        try:
            for (module, attr, name), (_, _, original) in zip(WRAPPED, saved):
                setattr(module, attr, self._wrapper(original, name))
            with self.span(ROOT):
                result = varsel.pipeline.run_pipeline(config)
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
        for span in self.spans:
            span["self"] = _duration(span)
        for span in self.spans:
            if span["parent"] is not None:
                self.spans[span["parent"]]["self"] -= _duration(span)
        return result


def _annotate(record: dict, args, result) -> None:
    """Keep the parts of a call's result the layer metrics need."""
    attrs = record["attrs"]
    name = record["name"]
    if name == "ranking.rank_features":
        attrs["method"] = args[1].value
    elif name == "search.alternating_optimization":
        attrs.update(m=args[1], cost=result.cost,
                     subset=list(result.subset.indices), sweeps=result.iterations)
    elif name == "gibbs.gibbs_run":
        attrs.update(sweeps=len(result),
                     distinct=len({tuple(sorted(s.indices)) for s in result.states}))
    elif name == "validation.monte_carlo_cv":
        attrs.update(requested=result.requested_runs, skipped=result.skipped)


def missing_spans(spans: list[dict], stages) -> list[str]:
    seen = {s["name"] for s in spans}
    needed = {"ingest.ingest_csv", "pipeline.canonical_json"}
    for stage in stages:
        needed.update(REQUIRED[stage])
    return sorted(needed - seen)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _quantiles_ms(seconds: list[float]) -> tuple[float, float]:
    if not seconds:
        return 0.0, 0.0
    p50, p90 = np.percentile(np.array(seconds) * 1e3, [50, 90])
    return float(p50), float(p90)


def span_metrics(spans: list[dict], caches: list[CostCache], n_cells: int,
                 report_bytes: int, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics taken from one traced invocation."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name: str) -> float:
        return sum((_duration(s) for s in by_name.get(name, ())), 0.0)

    root = by_name[ROOT][0]

    out: dict[str, float] = {}
    ingest_s = total("ingest.ingest_csv")
    out["ingest.ingest_csv_s"] = ingest_s
    out["ingest.cells_per_s"] = n_cells / ingest_s

    hits = sum(c.hits for c in caches)
    misses = sum(c.misses for c in caches)
    out["linmodel.cost_cache.hits"] = float(hits)
    out["linmodel.cost_cache.misses"] = float(misses)
    out["linmodel.cost_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    methods = {s["attrs"]["method"]: _duration(s)
               for s in by_name.get("ranking.rank_features", ())}
    for key, method in (("rm1_s", "rm1-forward"), ("rm2_s", "rm2-backward"),
                        ("rm3_s", "rm3-remove-max"), ("rm4_s", "rm4-add-max"),
                        ("rm5_s", "rm5-correlation"), ("pvalue_s", "pvalue")):
        out[f"ranking.{key}"] = methods.get(method, 0.0)
    out["ranking.error_curve_s"] = total("ranking.error_curve")
    out["selection.select_order_s"] = total("selection.select_order")
    out["selection.elbow_ms"] = total("selection.elbow_annotation") * 1e3

    restarts = by_name.get("search.alternating_optimization", [])
    done = [s for s in restarts if "error" not in s["attrs"]]
    p50, p90 = _quantiles_ms([_duration(s) for s in restarts])
    out["search.restart_ms.p50"], out["search.restart_ms.p90"] = p50, p90
    best = {}
    for s in done:
        a = s["attrs"]
        best[a["m"]] = min(best.get(a["m"], float("inf")), a["cost"])
    n_done = max(len(done), 1)
    out["search.sweeps_per_restart"] = sum(s["attrs"]["sweeps"] for s in done) / n_done
    out["search.cost_evals_per_restart"] = (
        sum(s["attrs"]["cost_evals"] for s in done) / n_done)
    out["search.best_hit_ratio"] = (
        sum(s["attrs"]["cost"] == best[s["attrs"]["m"]] for s in done)
        / max(len(restarts), 1))
    out["search.degenerate_restarts"] = float(len(restarts) - len(done))
    out["search.distinct_optima"] = float(
        len({(s["attrs"]["m"], tuple(s["attrs"]["subset"])) for s in done}))

    chains = by_name.get("gibbs.gibbs_run", [])
    sweeps = sum(s["attrs"]["sweeps"] for s in chains)
    out["gibbs.sweep_ms"] = total("gibbs.gibbs_run") * 1e3 / sweeps if sweeps else 0.0
    out["gibbs.distinct_states_ratio"] = (
        sum(s["attrs"]["distinct"] for s in chains) / sweeps if sweeps else 0.0)
    out["gibbs.inclusion_ms"] = total("gibbs.inclusion_frequencies") * 1e3

    cv = by_name.get("validation.monte_carlo_cv", [])
    splits = sum(s["attrs"]["requested"] for s in cv)
    out["validation.cv_split_us"] = (
        total("validation.monte_carlo_cv") * 1e6 / splits if splits else 0.0)
    out["validation.cv_skipped"] = float(sum(s["attrs"]["skipped"] for s in cv))
    out["validation.correlation_graph_ms"] = total("validation.correlation_graph") * 1e3
    out["validation.fit_named_model_ms"] = total("validation.fit_named_model") * 1e3

    out["pipeline.self_s"] = root["self"]
    out["pipeline.canonical_json_s"] = total("pipeline.canonical_json")
    out["pipeline.report_bytes"] = float(report_bytes)
    out["trace.overhead_s"] = _duration(root) - untraced_wall_s
    return out


def micro_metrics(dataset, workload, seed: int) -> dict[str, float]:
    """Per-call timings of the shared kernels over a fixed seeded set of
    inputs: fits at three sizes, a warm cache lookup and, where the workload
    samples, a cold and a warm Gibbs full conditional."""
    rng = np.random.default_rng([seed, 3])
    r = dataset.n_features
    out: dict[str, float] = {}
    for label, m in (("small", 7), ("half", r // 2), ("full", r - 1)):
        times = []
        for _ in range(N_FIT_SUBSETS):
            subset = FeatureSubset(tuple(int(k) + 1 for k in rng.permutation(r)[:m]))
            start = time.perf_counter()
            fit_subset(dataset, subset)
            times.append(time.perf_counter() - start)
        p50, p90 = _quantiles_ms(times)
        out[f"linmodel.fit_{label}_ms.p50"] = p50
        out[f"linmodel.fit_{label}_ms.p90"] = p90

    cache = CostCache(dataset)
    keys = [tuple(int(k) + 1 for k in rng.permutation(r)[:7]) for _ in range(50)]
    for key in keys:
        cache.cost(key)
    start = time.perf_counter()
    for i in range(CACHE_LOOKUPS):
        cache.cost(keys[i % len(keys)])
    out["linmodel.cost_cache.hit_us"] = (time.perf_counter() - start) * 1e6 / CACHE_LOOKUPS

    cold, warm = [], []
    if "gibbs" in workload.stages:
        config = GibbsConfig(m=workload.m_values[0], eta=workload.eta, sweeps=2)
        for i in range(N_CONDITIONALS):
            state = FeatureSubset(
                tuple(int(k) + 1 for k in rng.permutation(r)[:config.m]))
            j = i % config.m + 1
            cache = CostCache(dataset)
            for bucket in (cold, warm):
                start = time.perf_counter()
                full_conditional_weights(dataset, state, j, config, cache=cache)
                bucket.append(time.perf_counter() - start)
    out["gibbs.full_conditional_ms.cold"] = _quantiles_ms(cold)[0]
    out["gibbs.full_conditional_ms.warm"] = _quantiles_ms(warm)[0]
    return out
