"""Query-engine benchmark: synchronized-traversal spatial join.

Not a paper figure — the join is one of the new operator workloads.
Expected shape: all variants report identical pair counts (a built-in
correctness cross-check), and on the low-selectivity shifted workload
(offset past the largest rectangle side) the traversal prunes to far
fewer leaf reads than the dense-overlap workload needs.
"""

import json

from conftest import RESULTS_DIR, run_once

from repro.experiments.operators import join_experiment


def counted_columns(rows):
    """Each row's (workload, variant, pairs, leaf_ios): exact counts."""
    return [tuple(row[:4]) for row in rows]


def test_query_engine_join(benchmark, record_table):
    committed = json.loads((RESULTS_DIR / "query_engine_join.json").read_text())
    table = run_once(benchmark, join_experiment, n=3_000, fanout=16)
    record_table(table, "query_engine_join")
    # The join's answer and leaf reads are exact counts: they repeat the
    # committed table row for row, whatever order the pairs come out in.
    assert counted_columns(table.rows) == counted_columns(committed["rows"])

    workloads = {row[0] for row in table.rows}
    assert len(workloads) == 3

    for workload in workloads:
        rows = [row for row in table.rows if row[0] == workload]
        # Every variant found the same join result size.
        pair_counts = {row[2] for row in rows}
        assert len(pair_counts) == 1, rows
        # And did so without reading anywhere near every leaf pair
        # (each tree has ~190 leaves; the cartesian product is ~36k
        # pairs, i.e. >72k leaf reads for a naive nested-loop join).
        assert all(row[3] < 10_000 for row in rows), rows

    # Dense self-overlap (offset=0.002, below the max rectangle side)
    # reports a multiple of the shifted-apart workload's pairs: the
    # ~n self-match pairs dominate the background cross matches.
    dense = next(row[2] for row in table.rows if "0.002" in row[0])
    sparse = next(row[2] for row in table.rows if "0.05" in row[0])
    assert dense > 2 * sparse
