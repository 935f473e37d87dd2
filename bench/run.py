"""Benchmark of the varsel toolkit: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload search --seed 3 --seconds 20 --trace 0

The run generates a seeded emo-shaped table (``generate.py``), then calls
``run_pipeline`` on it in a closed loop, one invocation after another,
until ``--seconds`` have passed, checking every report (``checks.py``).
BLAS and OpenMP are pinned to one thread before numpy loads, and CV keeps
``n_jobs=1``.

Each invocation is timed between two passes of a fixed reference kernel
(``reference.py``).  With ``--trace 0`` it prints the end-to-end metrics:
``wall_ref`` and ``cpu_ref``, the medians over the invocations of wall and
process CPU time as multiples of the kernel's, which largely cancels the
drift of the shared host's speed; the peak RSS of this process; and
``setup_s``, the median over three fresh processes of ``import varsel`` plus
``ingest_csv`` of the table.  Raw seconds, ``fail_ratio`` and the issue's
rates for the workload's stages are printed beside them.
With ``--trace 1`` it runs the same loop, then one traced invocation
(``tracing.py``) whose report must be byte-identical, and prints the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A human-readable
summary, the environment record and any check failures come before it.
Each run appends a record to ``.bench_results/runs.jsonl`` and, when
traced, writes its spans to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
SCHEMA = Path("src/varsel/schema/report.schema.json")
RUN_DIR = Path(".bench_run")
RESULTS_DIR = Path(".bench_results")


def environment_record(root: Path) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = -1.0
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "git unavailable"
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "code_digest": code_digest(root),
        "loadavg_1min": load1,
        # A run started while every core already had work is flagged, not
        # dropped; -1 means the load average could not be read.
        "busy": load1 >= nproc,
    }


def code_digest(root: Path) -> str:
    """Digest of the program and benchmark sources, standing in for the
    commit when the checkout is not a git repository."""
    digest = hashlib.sha256()
    program = [p for p in (root / "src" / "varsel").rglob("*")
               if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(program) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def setup_seconds(csv_path: str, target: str) -> float:
    """Median over fresh processes of ``import varsel`` + ``ingest_csv``."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe_setup.py"), csv_path, target],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _registered_sha(key: str, sha: str) -> str:
    """The report digest first seen for this code, workload and seed."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "report_sha256.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    first = seen.setdefault(key, sha)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    return first


def run_workload(workload, seed: int, seconds: float, traced: bool,
                 root: Path, digest: str = "") -> dict:
    """Generate, loop, check and, when traced, trace one more invocation.

    Returns the counts, the check failures and the raw measurements.  An
    invocation fails when it raises or its report fails a check; a report
    that differs between invocations, or from the one an earlier run of the
    same code and seed recorded, counts as one more failure.
    """
    # Imported here: numpy must load only after main() pins the threads.
    import checks
    import reference
    from generate import make_table, write_csv
    from varsel.pipeline import run_pipeline

    run_dir = RUN_DIR / f"{workload.name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    table = make_table(seed, workload.n_features)
    csv_path = (run_dir / "table.csv").as_posix()
    write_csv(table, csv_path)
    config = workload.config(table, csv_path, (run_dir / "out").as_posix(), seed)
    schema = json.loads((root / SCHEMA).read_text())
    report_path = run_dir / "out" / "report.json"

    def check(label: str) -> str | None:
        """Check the report just written; its sha256 if it passes."""
        data = report_path.read_bytes()
        found = checks.check_report(json.loads(data), table, workload.stages,
                                    schema, seed)
        problems.extend(f"{label}: {p}" for p in found)
        return None if found else hashlib.sha256(data).hexdigest()

    attempted = failed = 0
    problems: list[str] = []
    walls, cpus, kernels, digests = [], [], [], set()
    wall_refs, cpu_refs = [], []
    # Stop when the next invocation would end past the deadline more likely
    # than not, so a run measures about ``seconds`` on average.
    deadline = time.perf_counter() + seconds
    last = 0.0
    kernel = reference.run_kernel()
    while attempted == 0 or time.perf_counter() + last / 2 < deadline:
        attempted += 1
        start, cpu = time.perf_counter(), time.process_time()
        try:
            run_pipeline(config)
        except Exception as exc:  # a failed invocation, counted
            problems.append(f"invocation {attempted}: {type(exc).__name__}: {exc}")
            failed += 1
            kernel = reference.run_kernel()
            last = time.perf_counter() - start
            continue
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        # The reference kernel just before and just after this invocation.
        before, kernel = kernel, reference.run_kernel()
        last = time.perf_counter() - start
        walls.append(wall)
        cpus.append(cpu)
        kernels.append(kernel[0])
        wall_refs.append(2.0 * wall / (before[0] + kernel[0]))
        cpu_refs.append(2.0 * cpu / (before[1] + kernel[1]))
        sha = check(f"invocation {attempted}")
        if sha is None:
            failed += 1
        else:
            digests.add(sha)
    if len(digests) > 1:
        problems.append(f"report.json differs between invocations: {sorted(digests)}")
        failed += 1
    elif digests and digest:
        sha = next(iter(digests))
        first = _registered_sha(f"{digest} {workload.name} {seed}", sha)
        if first != sha:
            problems.append(f"report.json {sha} differs from {first}, recorded by "
                            f"an earlier run of the same code and seed")
            failed += 1

    layers: dict[str, float] = {}
    if traced and walls:
        import tracing
        from varsel import ingest_csv

        attempted += 1
        tracer = tracing.Tracer(run_id=f"{workload.name}-seed{seed}-{os.getpid()}")
        before = len(problems)
        try:
            tracer.run(config)
        except Exception as exc:  # a failed invocation, counted
            problems.append(f"traced invocation: {type(exc).__name__}: {exc}")
        else:
            sha = check("traced invocation")
            if sha is not None and sha not in digests:
                problems.append("traced invocation: report differs from the "
                                "untraced one")
            missing = tracing.missing_spans(tracer.spans, workload.stages)
            if missing:
                problems.append(f"traced invocation: no spans for {missing}; "
                                f"the pipeline no longer calls these")
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"spans-{workload.name}-seed{seed}.json").write_text(
            json.dumps(tracer.spans, indent=1) + "\n")
        if len(problems) > before:
            failed += 1
        else:
            n_cells = table.features.shape[0] * (table.n_features + 1)
            layers = tracing.span_metrics(
                tracer.spans, tracer.caches, n_cells, report_path.stat().st_size,
                statistics.median(walls))
            dataset = ingest_csv(config.dataset_path, config.target_column)
            layers.update(tracing.micro_metrics(dataset, workload, seed))

    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "walls": walls,
        "cpus": cpus,
        "kernels": kernels,
        "wall_refs": wall_refs,
        "cpu_refs": cpu_refs,
        "report_sha256": sorted(digests),
        "csv_path": csv_path,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "varsel" / "__init__.py").is_file():
        print(f"error: {root} has no src/varsel; run from the root of a varsel "
              f"checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import varsel

    if Path(varsel.__file__).resolve().parent != (root / "src" / "varsel").resolve():
        print(f"error: imported varsel from {varsel.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2
    from generate import TARGET
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    env = environment_record(root)
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                          root, env["code_digest"])
    problems = result["problems"]
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    values: dict[str, float] = result["layers"]
    if not args.trace and result["walls"]:
        values = {
            "wall_ref": statistics.median(result["wall_refs"]),
            "cpu_ref": statistics.median(result["cpu_refs"]),
            "setup_s": setup_seconds(result["csv_path"], TARGET),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {k: {"value": v, "unit": expected[k]} for k, v in values.items()}

    shutil.rmtree(RUN_DIR / f"{workload.name}-seed{args.seed}", ignore_errors=True)
    _print_summary(workload, args, env, result, metrics, problems)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "attempted": result["attempted"],
        "failed": result["failed"], "problems": problems,
        "report_sha256": result["report_sha256"],
        "walls": result["walls"], "cpus": result["cpus"],
        "kernels": result["kernels"], "wall_refs": result["wall_refs"],
        "cpu_refs": result["cpu_refs"], "metrics": metrics,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0 and set(metrics) == set(expected),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _print_summary(workload, args, env, result, metrics, problems) -> None:
    busy = "  BUSY MACHINE AT START" if env["busy"] else ""
    print(f"# varsel benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}{busy}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {result['attempted']} invocations, {result['failed']} failed, "
          f"report sha256 {','.join(result['report_sha256']) or '-'}")
    if not args.trace and metrics:
        rows = {k: (m["value"], m["unit"]) for k, m in metrics.items()}
        # Raw seconds, for reading; they move with the host's speed.
        wall = statistics.median(result["walls"])
        rows["wall_s"] = (wall, "s")
        rows["cpu_s"] = (statistics.median(result["cpus"]), "s")
        rows["reference_kernel_s"] = (statistics.median(result["kernels"]), "s")
        rows["fail_ratio"] = (result["failed"] / result["attempted"], "1")
        rows.update((k, (v, "1/s")) for k, v in workload.rates(wall).items())
        for name, (value, unit) in rows.items():
            print(f"#   {name:<28} {value:>14.6g} {unit}")
    elif metrics:
        for name, m in metrics.items():
            print(f"#   {name:<40} {m['value']:>14.6g} {m['unit']}")
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")


if __name__ == "__main__":
    sys.exit(main())
