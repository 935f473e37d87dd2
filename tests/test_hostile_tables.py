"""Seeded hostile tables through ``varsel report``: every run ends in a
report or a named exit, and the reports lost are counted by stage.

Each table has N in 2-60 rows and R in 1-6 feature columns, each column
Gaussian, constant, an exact copy of an earlier one, a copy 1e-9 off it,
scaled by 10^300 or 10^-300, or rounded to a few levels; the target is
linear in the columns, constant, rounded, or scaled to 1e300; the tables
cycle through every ``--normalize`` mode.  Each runs through ``cli.main
report`` with 3 restarts, 20 sweeps and 10 CV splits.  Run with ``-s`` to
see the count of reports lost in each stage.
"""

import json
import re
import warnings
from collections import Counter

import numpy as np

from varsel.cli import main
from varsel.pipeline import ALL_STAGES

TABLES = 120
COLUMN_KINDS = ("gaussian", "constant", "copy", "near", "scaled", "rounded")
TARGET_KINDS = ("linear", "constant", "rounded", "scaled")
NORMALIZE = ("none", "zscore", "minmax")
# "varsel: stage 'cv' failed: ..." or "varsel: invalid configuration (cv): ..."
NAMED = re.compile(r"^varsel: (?:stage '(\w+)' failed|invalid configuration \((\w+)\))")
# the rank stage stops only on the p-values' own error: a fit with fewer
# than two residual degrees of freedom
PVALUE_ERRORS = re.compile(r"p-values need")


def hostile_table(rng):
    """A table and its target, as drawn by the module docstring."""
    n, r = int(rng.integers(2, 61)), int(rng.integers(1, 7))
    x = rng.normal(size=(n, r))
    for j in range(r):
        kind = COLUMN_KINDS[rng.integers(len(COLUMN_KINDS))]
        source = x[:, rng.integers(j)] if j else x[:, j]
        if kind == "constant":
            x[:, j] = rng.normal()
        elif kind == "copy" and j:
            x[:, j] = source
        elif kind == "near" and j:
            x[:, j] = source + 1e-9 * np.abs(source).max() * rng.normal(size=n)
        elif kind == "scaled":
            x[:, j] *= 10.0 ** (300 * rng.choice([-1, 1]))
        elif kind == "rounded":
            x[:, j] = np.round(x[:, j])
    y = x[:, 0] + rng.normal(size=n)
    kind = TARGET_KINDS[rng.integers(len(TARGET_KINDS))]
    if kind == "constant":
        y[:] = rng.normal()
    elif kind == "rounded":
        y = np.round(y)
    elif kind == "scaled":
        y *= 1e300 / np.abs(y).max()
    return x, y


def write_table(path, x, y):
    header = [f"x{j}" for j in range(1, x.shape[1] + 1)] + ["y"]
    rows = (",".join(repr(float(v)) for v in row) for row in np.column_stack([x, y]))
    path.write_text("\n".join([",".join(header), *rows]) + "\n")


def refuse_constant(name):
    raise ValueError(f"report.json holds {name}")


def test_every_hostile_table_ends_in_a_report_or_a_named_exit(tmp_path, capsys):
    # 120 tables: 1.3-2.0 s measured on a 2-vCPU Xeon host
    rng = np.random.default_rng(23)
    outcomes, warned = Counter(), 0
    for i in range(TABLES):
        x, y = hostile_table(rng)
        data, out = tmp_path / f"t{i}.csv", tmp_path / f"o{i}"
        write_table(data, x, y)
        argv = ["report", "-i", str(data), "--target", "y",
                "--normalize", NORMALIZE[i % len(NORMALIZE)], "--m", "1,2",
                "--seed", "1", "--runs", "3", "--sweeps", "20",
                "--cv-runs", "10", "-o", str(out)]
        # numpy may warn of an overflow on a 10^300 column; a user sees
        # the warning, and the run goes on
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)  # an exception that escapes fails the test
        warned += bool(caught)
        err = capsys.readouterr().err
        assert code in (0, 64, 65, 70), (i, code, err)
        if code == 0:
            report = json.loads((out / "report.json").read_text(),
                                parse_constant=refuse_constant)
            assert "incomplete" not in report, i
            outcomes["complete"] += 1
            continue
        named = NAMED.match(err)
        stage = named and (named.group(1) or named.group(2))
        if stage not in ALL_STAGES:  # refused before any stage
            assert not out.exists() or not any(out.iterdir()), (i, err)
            outcomes["refused"] += 1
            continue
        report = json.loads((out / "report.json").read_text(),
                            parse_constant=refuse_constant)
        assert report["incomplete"]["failed_stage"] == stage, (i, err)
        # no greedy ranking fails for want of a full-rank candidate
        if stage == "rank":
            assert PVALUE_ERRORS.search(report["incomplete"]["error"]), (i, err)
        # nor a Gibbs chain for a start that holds a constant or copied column
        if stage == "gibbs":
            assert "no candidate has finite cost" not in report["incomplete"]["error"], i
        outcomes[stage] += 1
    with capsys.disabled():
        print(f"\nhostile tables: {dict(sorted(outcomes.items()))}, "
              f"{warned} with a numpy warning")
    assert sum(outcomes.values()) == TABLES
