"""Array-native node kernels: per-node microbench and whole-path speedup.

Not a paper figure — this records the engineering win from the
structure-of-arrays node layout (``docs/query-engine.md``): the decoded
page is evaluated as one vectorized predicate instead of an
entry-at-a-time Python loop.  Expected shapes:

* **per-node kernels**: the numpy frame path beats the per-entry scalar
  loop by an order of magnitude at paper fanout (113 entries).
* **fig12-class traversal**: end-to-end window queries over a PR-tree
  spend >=3x less CPU than the pre-refactor per-entry traversal (the
  scalar oracle below), at **identical leaf I/O** — the layout is
  invisible to the paper's metric.
"""

import time

from conftest import run_once

from repro.experiments.report import Table
from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.rtree.query import QueryEngine, QueryStats, TraversalEngine
from repro.datasets.synthetic import uniform_rects
from repro.workloads.queries import square_queries

N = 30_000
FANOUT = 113


class _ScalarWindowEngine(TraversalEngine):
    """The pre-refactor per-entry window traversal (the CPU baseline)."""

    def _read(self, block_id, stats):
        # Internal nodes are peeked (they cost the baseline nothing, as
        # a warm pool did); leaves are counted reads.
        node = self.tree.store.peek(block_id)
        if not node.is_leaf:
            stats.internal_visits += 1
            return node
        stats.leaf_reads += 1
        return self.tree.store.read(block_id)

    def query(self, window):
        tree = self.tree
        stats = QueryStats(queries=1)
        matches = []
        stack = [tree.root_id]
        while stack:
            node = self._read(stack.pop(), stats)
            if node.is_leaf:
                for rect, pointer in node.entries:
                    if rect.intersects(window):
                        matches.append((rect, tree.objects.get(pointer)))
                        stats.reported += 1
            else:
                for rect, pointer in node.entries:
                    if rect.intersects(window):
                        stack.append(pointer)
        self.totals.merge(stats)
        return matches, stats


def _time_per_call(fn, repeats: int) -> float:
    """Best-of-3 microseconds per call."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / repeats * 1e6


def _node_kernel_rows(table: Table, entries: int, repeats: int) -> None:
    data = uniform_rects(entries, seed=7)
    rects = [rect for rect, _ in data]
    np_lo = kernels.coord_table([rect.lo for rect in rects], 2)
    np_hi = kernels.coord_table([rect.hi for rect in rects], 2)
    window = Rect((0.2, 0.2), (0.7, 0.7))

    def scalar():
        return [i for i, rect in enumerate(rects) if rect.intersects(window)]

    def frame_numpy():
        return kernels.frame_intersecting(np_lo, np_hi, window.lo, window.hi)

    paths = [("entry-scalar", scalar), ("frame-numpy", frame_numpy)]
    want = scalar()
    base_us = None
    for name, fn in paths:
        assert list(fn()) == want  # all paths agree before timing
        per_call = _time_per_call(fn, repeats)
        if base_us is None:
            base_us = per_call
        table.add_row(f"node{entries}", name, per_call, 0, base_us / per_call)


def _kernels_experiment() -> Table:
    table = Table(
        title="array-native node kernels vs per-entry scalar path",
        headers=["config", "path", "time_us", "leaf_ios", "vs_scalar"],
    )
    _node_kernel_rows(table, entries=16, repeats=2000)
    _node_kernel_rows(table, entries=FANOUT, repeats=2000)

    # fig12-class end-to-end traversal: same tree, same queries, same
    # logical I/O -- only the per-node evaluation differs.
    tree = build_prtree(BlockStore(), uniform_rects(N, seed=9), FANOUT)
    windows = list(square_queries(tree.root().mbr(), 0.25, count=300, seed=11))

    def run_vectorized():
        engine = QueryEngine(tree)
        for window in windows:
            engine.query(window)
        return engine.totals

    def run_scalar():
        engine = _ScalarWindowEngine(tree)
        for window in windows:
            engine.query(window)
        return engine.totals

    results = {}
    for name, fn in (("entry-scalar", run_scalar), ("frame-kernels", run_vectorized)):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            totals = fn()
            best = min(best, time.perf_counter() - start)
        results[name] = (best, totals)
    scalar_s, scalar_totals = results["entry-scalar"]
    vector_s, vector_totals = results["frame-kernels"]
    assert vector_totals.leaf_reads == scalar_totals.leaf_reads
    assert vector_totals.reported == scalar_totals.reported
    table.add_row(
        "fig12-traversal", "entry-scalar", scalar_s * 1e6,
        scalar_totals.leaf_reads, 1.0,
    )
    table.add_row(
        "fig12-traversal", "frame-kernels", vector_s * 1e6,
        vector_totals.leaf_reads, scalar_s / vector_s,
    )
    table.add_note(
        "node rows time one intersection kernel call (best of 3x2000); "
        "fig12 rows time 300 window queries "
        f"(0.25% area) over a PR-tree, n={N}, fanout={FANOUT}"
    )
    table.add_note(
        "leaf_ios identical by construction: the SoA layout never changes "
        "which blocks are read (tests/integration/test_vectorized_differential.py)"
    )
    return table


def test_node_kernels(benchmark, record_table):
    table = run_once(benchmark, _kernels_experiment)
    record_table(table, "storage_node_kernels")

    rows = {(row[0], row[1]): row for row in table.rows}
    speedup = rows[("fig12-traversal", "frame-kernels")][4]
    # The acceptance target is >=3x; gate loosely so shared CI runners
    # with noisy clocks cannot flake the suite.
    assert speedup >= 2.0
    assert rows[("node113", "frame-numpy")][4] > rows[("node16", "frame-numpy")][4] * 0.5
    # Identical logical I/O between the two traversal rows.
    assert (
        rows[("fig12-traversal", "frame-kernels")][3]
        == rows[("fig12-traversal", "entry-scalar")][3]
    )
