"""Reference kernel: fixed work, timed beside every invocation.

The benchmark runs on a shared virtual machine whose speed drifts by tens of
percent over seconds to minutes.  The drift shows in process CPU time as
much as in wall time, so it is not preemption but slower execution (a busy
sibling hyperthread, a shared cache, the clock).  On a 2-vCPU Xeon VM the
median wall time of the same invocation read from 0.9 to 1.4 s between 30 s
runs a few minutes apart.

So every invocation of the program is timed between two passes of this
kernel, and the end-to-end times are reported as multiples of the mean of
the two.  Of the candidates tried (CSV-cell parsing, subset least squares,
sorted-tuple dictionary traffic and a bare interpreter loop), the least
squares tracked the workloads' own slow-downs at least as well as any mix
of them, so the kernel is that alone.  It is benchmark code only: it calls
numpy, never varsel, so a change to the program moves the ratio while a
change of the host's speed largely cancels out of it.  Its inputs are
fixed, not drawn from the workload seed, so it is the same work on every
run.
"""

from __future__ import annotations

import time

import numpy as np

N_ROWS = 1213
N_COLS = 122
SUBSET = 7
REPEATS = 1500


def _inputs():
    rng = np.random.default_rng(20220725)
    table = rng.normal(size=(N_ROWS, N_COLS))
    target = rng.normal(size=N_ROWS)
    subsets = [np.sort(rng.choice(N_COLS, size=SUBSET, replace=False))
               for _ in range(64)]
    return table, target, subsets


_TABLE, _TARGET, _SUBSETS = _inputs()
_ONES = np.ones((N_ROWS, 1))


def run_kernel() -> tuple[float, float]:
    """Wall and process CPU seconds of one pass of the fixed work: least
    squares with an intercept on small column subsets gathered from a wide
    table, the toolkit's most frequent operation."""
    start, cpu = time.perf_counter(), time.process_time()
    total = 0.0
    for i in range(REPEATS):
        design = np.hstack([_ONES, _TABLE[:, _SUBSETS[i % len(_SUBSETS)]]])
        coef = np.linalg.lstsq(design, _TARGET, rcond=None)[0]
        total += float(np.abs(_TARGET - design @ coef).sum())
    if not total > 0.0:
        raise RuntimeError("reference kernel produced no work")
    return time.perf_counter() - start, time.process_time() - cpu
