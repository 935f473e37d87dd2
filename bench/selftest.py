"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

They cover the generator's determinism and planted rank-rule pair, the
output checks against tampered reports, a tiny traced run of every
workload, and the command-line contract of ``run.py``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import run  # noqa: E402  (standard library only, so numpy is not loaded yet)

for var in run.THREAD_VARS:
    os.environ[var] = "1"

import checks  # noqa: E402
from generate import csv_text, make_table, write_csv  # noqa: E402
from varsel import Dataset, FeatureSubset, fit_subset, rank_backward_elimination  # noqa: E402
from varsel.pipeline import run_pipeline  # noqa: E402
from workloads import WORKLOADS, smoke  # noqa: E402

SCRATCH = run.RUN_DIR / "selftest"
SMOKE_SECONDS = 30.0


def setUpModule():
    if Path.cwd().resolve() != ROOT:
        raise unittest.SkipTest(f"run from {ROOT}")
    SCRATCH.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class GeneratorTest(unittest.TestCase):
    def test_byte_deterministic_per_seed(self):
        first, second = SCRATCH / "a.csv", SCRATCH / "b.csv"
        write_csv(make_table(7, 24), first)
        write_csv(make_table(7, 24), second)
        self.assertEqual(first.read_bytes(), second.read_bytes())
        self.assertNotEqual(csv_text(make_table(8, 24)), first.read_text())

    def test_rank_rule_pair_splits_the_two_rules(self):
        table = make_table(7, 16)
        dataset = Dataset(table.features, table.target, table.labels)
        _, b = table.rank_rule_pair
        # the SVD rule keeps every column ...
        fit_subset(dataset, FeatureSubset(tuple(range(1, 17))))
        # ... the Gram-Schmidt rule drops b, which backward elimination
        # puts at the tail of its order.
        self.assertEqual(rank_backward_elimination(dataset).order[-1], b)


class ChecksTest(unittest.TestCase):
    """A report that passes must fail once one value in it is altered."""

    @classmethod
    def setUpClass(cls):
        cls.schema = json.loads((ROOT / run.SCHEMA).read_text())
        cls.reports = {}
        for name in ("rank-select", "search-gibbs-cv"):
            workload = smoke(WORKLOADS[name])
            table = make_table(11, workload.n_features)
            path = (SCRATCH / f"{name}.csv").as_posix()
            write_csv(table, path)
            out = (SCRATCH / name).as_posix()
            report, _ = run_pipeline(workload.config(table, path, out, 11))
            cls.reports[name] = (json.loads(json.dumps(report)), table, workload)

    def problems(self, name, tamper=None):
        report, table, workload = self.reports[name]
        report = copy.deepcopy(report)
        if tamper:
            tamper(report)
        return checks.check_report(report, table, workload.stages, self.schema, 11)

    def test_untampered_reports_pass(self):
        for name in self.reports:
            self.assertEqual(self.problems(name), [], name)

    def test_altered_subset_index_fails(self):
        def tamper(report):
            entry = next(e for e in report["best_subsets"] if e["m"] == 7)
            free = min(set(range(1, 25)) - set(entry["subset"]))
            entry["subset"] = sorted(entry["subset"][1:] + [free])
        self.assertTrue(self.problems("search-gibbs-cv", tamper))

    def test_altered_curve_value_fails(self):
        def tamper(report):
            report["rankings"][0]["error_curve"][0] *= 1.0 + 1e-6
        self.assertTrue(self.problems("rank-select", tamper))

    def test_missing_edge_fails(self):
        def tamper(report):
            del report["correlation"]["edges"][0]
        self.assertTrue(self.problems("search-gibbs-cv", tamper))


class SmokeTest(unittest.TestCase):
    def test_each_workload_runs_traced_in_seconds(self):
        layer_names = {m["name"] for m in spec()["per_layer"]}
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                start = time.perf_counter()
                result = run.run_workload(smoke(workload), 5, 0.0, True, ROOT)
                self.assertLess(time.perf_counter() - start, SMOKE_SECONDS)
                self.assertEqual(result["failed"], 0, result["problems"])
                self.assertEqual(set(result["layers"]), layer_names)


class CommandLineTest(unittest.TestCase):
    def test_last_line_holds_every_end_to_end_metric(self):
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "search-gibbs-cv", "--seed", "2",
             "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_fails_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "search-gibbs-cv", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
