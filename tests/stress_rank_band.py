"""Near-threshold stress of the small-factor rank rule of
``linmodel.neighbour_costs`` and the leading-block rule of
``ranking.error_curve`` against the SVD rule.

Run from the root of a checkout (about 12 s at the defaults)::

    PYTHONPATH=src python tests/stress_rank_band.py [--tables 1500]

It draws ``near_duplicate_table`` s whose pair of columns 1 and 2 has a
residual ratio of 10^u, u uniform in [-10.6, -9.4], so designs holding
the pair straddle ``RANK_RCOND``.  For the fixed sets (1,), (2,), (1, 2)
and (4, 1, 5) and every other column as candidate it prints:

* the largest difference between sigma_min / sigma_max of a candidate's
  small factor ``[[A, c], [0, |z|]]`` and of ``gelsd`` on its design, the
  error that ``RANK_BAND`` must cover (see ``neighbour_costs``), and how
  many candidates the kernel's projection took a second Gram-Schmidt
  pass for;
* over the designs holding the pair, how many the kernel decided itself,
  how many of those disagree with ``full_rank_lstsq`` and how many it left
  to the SVD.

For the orders in ``PREFIX_ORDERS`` it prints the same for the prefixes
of ``error_curve``: the largest difference between the ratio of a
prefix's leading block ``A[:M+1, :M+1]`` and ``gelsd``'s, A being the
order's factor that ``error_curve`` reads from the table's one QR (the
small QR of the order's columns of the table's R factor,
``ranking._order_factor``), over the prefixes that hold the pair and
whose block was factored, and, over every prefix, how many
``_prefix_decisions`` decided (those it inferred from a later or earlier
prefix's block among them), how many of those disagree with
``full_rank_lstsq`` and how many went to the SVD.

It prints the same for the forward rankings' own state,
``linmodel._AddState``, whose A is built by Gram-Schmidt, one column a
step, not by Householder QR: RM1 and RM4 are run on it, and at every step
each candidate design holding the pair is decided as the state decides it.
Of the forward candidates, it prints how many the bound decided at the
band edge, how many went to their small factors and how many of those
the small factors left to the SVD, and of the rows the state deflated by
a new direction, how many took the second pass.

Then it prints the largest small-factor difference on the benchmark's
``make_table(1, R)``, R = 30 and 122, for every step of RM1 and RM4 after
both columns of the near-rank-deficient pair entered (every sixth step at
R = 122), the same for the state's small factors and decisions, and the
leading-block difference and decisions for the prefixes of their
best-to-worst orders (all of them, each checked against
``full_rank_lstsq``), and the route and deflation counts of their forward
passes.
It exits 1 if any decision disagrees.
"""

from __future__ import annotations

import argparse
import os
import runpy
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from conftest import near_duplicate_table  # noqa: E402
from varsel import (  # noqa: E402
    FeatureSubset,
    RankDeficiencyError,
    build_design_matrix,
    make_dataset,
    rank_add_max_error,
    rank_forward_selection,
)
from varsel import linmodel  # noqa: E402
from varsel.linmodel import (  # noqa: E402
    _AddState,
    _factor,
    _neighbour_residuals,
    _prefix_decisions,
    _project_out,
    _small_factor_ratios,
    full_rank_lstsq,
)
from varsel.ranking import _order_factor, _stepwise  # noqa: E402

FIXED_SETS = [(1,), (2,), (1, 2), (4, 1, 5)]
PREFIX_ORDERS = [(1, 2, 3, 4, 5, 6), (4, 5, 2, 6, 3, 1)]


def ratio_differences(dataset, fixed, candidates):
    """|small-factor ratio - gelsd ratio| for every candidate, the small
    factors projected as ``_neighbour_residuals`` projects them, and how
    many candidates that projection took a second pass for."""
    factor = _factor(dataset, fixed)
    rows = np.asarray(candidates) - 1
    x = dataset.features.T[rows]
    norm2 = dataset.column_norm2[rows]
    z = x.copy()
    c, zeta2 = _project_out(factor.q, z, norm2)
    small = _small_factor_ratios(factor.a, c, np.sqrt(zeta2))
    full = [gelsd_ratio(dataset, fixed + (k,)) for k in candidates]
    # ``_project_out``'s rule: a second pass for the rows whose first kept
    # less than half their squared norm
    first = x - (x @ factor.q) @ factor.q.T
    twice = int(np.count_nonzero(np.einsum("ij,ij->i", first, first) < 0.5 * norm2))
    return np.abs(small - np.array(full)), twice


def gelsd_ratio(dataset, subset):
    design = build_design_matrix(dataset, FeatureSubset(subset)).values
    sv = np.linalg.lstsq(design, dataset.target, rcond=None)[3]
    return sv[-1] / sv[0]


def prefix_decisions(dataset, order, pair):
    """The largest |leading-block ratio - gelsd ratio| over the prefixes of
    ``order`` that hold ``pair`` and whose block was factored, and, over
    every prefix, the counts (decided, of those inferred, disagreements, to
    the SVD), each prefix decided as ``error_curve`` decides it."""
    ratios, full_rank, deficient = _prefix_decisions(_order_factor(dataset, order)[0])
    entered = 1 + max(order.index(k) for k in pair)
    worst, decided, inferred, disagree, to_svd = 0.0, 0, 0, 0, 0
    for m in range(1, len(order) + 1):
        if full_rank[m] or deficient[m]:
            decided += 1
            inferred += bool(np.isnan(ratios[m]))
            disagree += bool(full_rank[m]) != is_full_rank(dataset, order[:m])
        else:
            to_svd += 1
        if m >= entered and np.isfinite(ratios[m]):
            worst = max(worst, abs(ratios[m] - gelsd_ratio(dataset, order[:m])))
    return worst, decided, inferred, disagree, to_svd


@contextmanager
def route_counts():
    """Count, over the ``_decide_and_update`` calls made inside, the
    candidates decided by the bound at the band edge, those sent to their
    small factors, and those of them left to the SVD: ``[bound, small
    factor, SVD]``.  The rest have no complement."""
    counts = [0, 0, 0]
    decide, small = linmodel._decide_and_update, linmodel._small_factor_ratios

    def counted_decide(a, inv_norm, design_norm2, r0, c, z, zeta2, *args):
        sent = counts[1]
        updated, singular, residuals = decide(a, inv_norm, design_norm2, r0,
                                              c, z, zeta2, *args)
        counts[0] += len(c) - (counts[1] - sent) - int(np.count_nonzero(zeta2 == 0.0))
        counts[2] += int(np.count_nonzero(~(updated | singular)))
        return updated, singular, residuals

    def counted_small(a, c, zeta):
        counts[1] += len(c)
        return small(a, c, zeta)

    with mock.patch.object(linmodel, "_decide_and_update", counted_decide), \
            mock.patch.object(linmodel, "_small_factor_ratios", counted_small):
        yield counts


@contextmanager
def deflation_counts():
    """Count, over the forward state's deflations made inside, the
    remaining rows deflated by a new direction and those of them that took
    the second pass, having kept less than half their squared norm
    (``linmodel._project_rows``): ``[row-steps, second passes]``."""
    counts = [0, 0]
    project_rows = linmodel._project_rows

    def counted_rows(project, r, norm2):
        passes = []

        def counted(rows):
            passes.append(len(rows))
            return project(rows)

        projected = project_rows(counted, r, norm2)
        counts[0] += passes[0]
        counts[1] += sum(passes[1:])
        return projected

    with mock.patch.object(linmodel, "_project_rows", counted_rows):
        yield counts


def print_routes(name, counts, deflated):
    print(f"{name} candidates: {counts[0]} decided by the bound at the band "
          f"edge, {counts[1]} to their small factors, {counts[2]} of those to "
          f"the SVD; {deflated[1]} of {deflated[0]} row-steps deflated twice")


def forward_state_decisions(dataset, largest, pair, start=0, stride=1):
    """RM1 (RM4 with ``largest``) run on one ``_AddState``: over every
    ``stride``-th step from step ``start`` (the number of columns taken),
    the largest |state small-factor ratio - gelsd ratio| and the counts
    (decided, disagreements, to the SVD) of the candidate designs that hold
    ``pair``, each decided as the state decides it.  A pass stops, as the
    ranking does, at a step with no full-rank candidate."""
    state = _AddState(dataset)
    found = [0.0, 0, 0, 0]

    def price(taken, pool):
        state.follow(taken)
        step = len(taken) - start
        if step >= 0 and step % stride == 0:
            inspect_state(state, pair, found)
        return state.costs()

    _stepwise(range(1, dataset.n_features + 1), price, largest)
    return found


def inspect_state(state, pair, found):
    fixed = tuple(state.taken)
    rows = [i for i, k in enumerate(state.pool) if set(pair) <= set(fixed + (k,))]
    if not rows:
        return
    updated, singular, _ = state.fits()
    w, n = state.width, len(state.pool)
    z = state.z[:n][rows]
    small = _small_factor_ratios(state.a[:w, :w], state.c[:n, :w][rows],
                                 np.sqrt(np.einsum("ij,ij->i", z, z)))
    for i, ratio in zip(rows, small):
        subset = fixed + (state.pool[i],)
        found[0] = max(found[0], abs(ratio - gelsd_ratio(state.dataset, subset)))
        if updated[i] or singular[i]:
            found[1] += 1
            found[2] += bool(updated[i]) != is_full_rank(state.dataset, subset)
        else:
            found[3] += 1


def is_full_rank(dataset, subset):
    design = build_design_matrix(dataset, FeatureSubset(subset))
    try:
        full_rank_lstsq(design.values, dataset.target, design.subset)
    except RankDeficiencyError:
        return False
    return True


def near_threshold(n_tables):
    rng = np.random.default_rng(12345)
    worst, n_ratios, n_twice = 0.0, 0, 0
    decided = disagree = to_svd = 0
    prefix_worst = state_worst = 0.0
    # decided, of those inferred, disagreements, to the SVD
    prefix_counts = np.zeros(4, dtype=int)
    state_counts = np.zeros(3, dtype=int)
    edge, deflated = [0, 0, 0], [0, 0]
    for seed in range(n_tables):
        dataset = near_duplicate_table(seed, 10.0 ** rng.uniform(-10.6, -9.4))
        for fixed in FIXED_SETS:
            candidates = [k for k in range(1, 7) if k not in fixed]
            diff, twice = ratio_differences(dataset, fixed, candidates)
            worst, n_ratios = max(worst, diff.max()), n_ratios + len(candidates)
            n_twice += twice
            updated, singular, _ = _neighbour_residuals(dataset, fixed, candidates)
            for k, up, sing in zip(candidates, updated, singular):
                if not {1, 2} <= set(fixed + (k,)):
                    continue
                if up or sing:
                    decided += 1
                    disagree += bool(up) != is_full_rank(dataset, fixed + (k,))
                else:
                    to_svd += 1
        for order in PREFIX_ORDERS:
            found = prefix_decisions(dataset, order, (1, 2))
            prefix_worst = max(prefix_worst, found[0])
            prefix_counts += found[1:]
        for largest in (False, True):
            with route_counts() as counts, deflation_counts() as rows:
                found = forward_state_decisions(dataset, largest, (1, 2))
            edge = [e + c for e, c in zip(edge, counts)]
            deflated = [d + c for d, c in zip(deflated, rows)]
            state_worst = max(state_worst, found[0])
            state_counts += found[1:]
    print(f"near_duplicate_table: {n_ratios} candidates ({n_twice} projected "
          f"twice), largest ratio "
          f"difference {worst:.2e}; designs holding the pair: {decided} decided "
          f"by the kernel, {disagree} disagreements, {to_svd} to the SVD")
    print(f"near_duplicate_table prefixes: largest ratio difference "
          f"{prefix_worst:.2e} holding the pair; {prefix_counts[0]} decided "
          f"({prefix_counts[1]} inferred), {prefix_counts[2]} disagreements, "
          f"{prefix_counts[3]} to the SVD")
    print(f"near_duplicate_table RM1 and RM4 state designs holding the pair: "
          f"largest ratio difference {state_worst:.2e}; {state_counts[0]} "
          f"decided by the state, {state_counts[1]} disagreements, "
          f"{state_counts[2]} to the SVD")
    print_routes("near_duplicate_table RM1 and RM4", edge, deflated)
    return disagree + int(prefix_counts[2]) + int(state_counts[1])


def benchmark_tables():
    path = Path(__file__).resolve().parents[1] / "bench" / "generate.py"
    make_table = runpy.run_path(str(path))["make_table"]
    disagree = 0
    for n_features, stride in [(30, 1), (122, 6)]:
        table = make_table(1, n_features)
        dataset = make_dataset(table.features, table.target)
        for name, rank in [("RM1", rank_forward_selection), ("RM4", rank_add_max_error)]:
            with route_counts() as edge, deflation_counts() as deflated:
                ranking = rank(dataset)
            order = list(ranking.raw_order or ranking.order)
            entered = 1 + max(order.index(k) for k in table.rank_rule_pair)
            worst, n_ratios, n_twice = 0.0, 0, 0
            for step in range(entered, len(order), stride):
                diff, twice = ratio_differences(dataset, tuple(order[:step]),
                                                order[step:])
                worst, n_ratios = max(worst, diff.max()), n_ratios + len(diff)
                n_twice += twice
            print(f"make_table(1, {n_features}) {name}: {n_ratios} candidates "
                  f"({n_twice} projected twice) after the pair entered at step "
                  f"{entered}, largest ratio difference {worst:.2e}")
            found = forward_state_decisions(dataset, name == "RM4",
                                            table.rank_rule_pair, entered, stride)
            disagree += found[2]
            print(f"make_table(1, {n_features}) {name} state after the pair "
                  f"entered: largest ratio difference {found[0]:.2e}; "
                  f"{found[1]} decided by the state, {found[2]} disagreements, "
                  f"{found[3]} to the SVD")
            print_routes(f"make_table(1, {n_features}) {name}", edge, deflated)
            found = prefix_decisions(dataset, ranking.order, table.rank_rule_pair)
            disagree += found[3]
            print(f"make_table(1, {n_features}) {name} prefixes: largest ratio "
                  f"difference {found[0]:.2e} holding the pair; {found[1]} "
                  f"decided ({found[2]} inferred), {found[3]} disagreements, "
                  f"{found[4]} to the SVD")
    return disagree


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tables", type=int, default=1500)
    args = parser.parse_args()
    disagree = near_threshold(args.tables)
    disagree += benchmark_tables()
    sys.exit(1 if disagree else 0)


if __name__ == "__main__":
    main()
