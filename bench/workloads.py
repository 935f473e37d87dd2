"""The benchmark's workloads: one ``run_pipeline`` call each.

Each workload fixes a table width and a ``RunConfig``; the program gets the
generated CSV and that config, nothing else.  Sizes are chosen so that one
invocation takes 1 to 3 s on one core of a 2-vCPU Xeon virtual machine, which
puts fifteen to forty invocations, each timed against the reference kernel
next to it, in a 50 s run.  There are two workloads, not more, because the
host's speed drifts and only runs this long give steady medians within the
time the whole schedule of runs may take.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from generate import Table, TARGET
from varsel import RunConfig


@dataclass(frozen=True)
class Workload:
    name: str
    n_features: int
    stages: tuple[str, ...]
    m_values: tuple[int, ...] = ()
    search_runs: int = 1
    eta: float = 100.0
    sweeps: int = 1
    cv_runs: int = 1

    def config(self, table: Table, csv_path: str, output_dir: str,
               seed: int) -> RunConfig:
        """The RunConfig of one invocation; paths are relative so the report
        bytes do not depend on where the checkout lives."""
        return RunConfig(
            dataset_path=csv_path,
            target_column=TARGET,
            output_dir=output_dir,
            stages=self.stages,
            m_values=self.m_values,
            eta=self.eta,
            search_runs=self.search_runs,
            sweeps=self.sweeps,
            cv_runs=self.cv_runs,
            cv_subset=table.planted if "cv" in self.stages else None,
            seed=seed,
        )

    def rates(self, wall: float) -> dict[str, float]:
        """The issue's rate for each stage this workload runs, for one
        invocation of ``wall`` seconds."""
        work = {
            "rank": ("features_ranked_per_s", self.n_features * 6),
            "search": ("restarts_per_s", self.search_runs * len(self.m_values)),
            "gibbs": ("sweeps_per_s", self.sweeps * len(self.m_values)),
            "cv": ("cv_splits_per_s", self.cv_runs),
        }
        return {work[s][0]: work[s][1] / wall for s in self.stages if s in work}


WORKLOADS = {
    w.name: w
    for w in (
        # linmodel at large M with no cache: the greedy loops, error_curve,
        # p-values and the prefix refits of select_order.  Cost grows as
        # R^4, so the table is 30 wide, not 122.
        Workload("rank-select", 30, ("rank", "select")),
        # small-M fits through one CostCache: the search restarts hit it
        # about half the time, and the Gibbs sweeps after them (eta=1 so the
        # chain mixes; at eta=100 it sits on the optimum) find about 70% of
        # their subsets already stored.  Then validation's own per-split
        # lstsq and the correlation graph, which bypass fit_subset and the
        # cache.
        Workload("search-gibbs-cv", 122, ("search", "gibbs", "cv", "corr"),
                 m_values=(7,), search_runs=6, eta=1.0, sweeps=3,
                 cv_runs=1000),
    )
}


def smoke(workload: Workload) -> Workload:
    """A tiny version of a workload for the self-tests."""
    return replace(
        workload,
        n_features=16 if "rank" in workload.stages else 24,
        search_runs=3,
        sweeps=3,
        cv_runs=200,
    )
