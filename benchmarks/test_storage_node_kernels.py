"""Array-native node kernels: per-node microbench and whole-path speedup.

Not a paper figure — this records the engineering win from the
structure-of-arrays node layout (``docs/query-engine.md``): the decoded
page is evaluated as one vectorized predicate instead of an
entry-at-a-time Python loop.  Expected shapes:

* **per-node kernels**: the numpy frame path beats the per-entry scalar
  loop by an order of magnitude at paper fanout (113 entries); the pure
  Python frame fallback stays within ~2x of the scalar loop.
* **fig12-class traversal**: end-to-end window queries over a PR-tree
  spend >=3x less CPU than the pre-refactor per-entry traversal (the
  scalar oracle below), at **identical leaf I/O** — the layout is
  invisible to the paper's metric.
* **batch x page**: co-located window batches evaluated set-at-a-time
  read fewer pages than solo execution.  The server executes requests
  one at a time in arrival order, so its row reads what ``solo`` reads.
"""

import tempfile
import time
from pathlib import Path

from conftest import run_once

from repro.experiments.report import Table
from repro.experiments.serving import pack_index
from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.rtree.query import QueryEngine, QueryStats, TraversalEngine
from repro.server import QueryServer, WindowRequest
from repro.storage import PagedTree
from repro.datasets.synthetic import uniform_rects
from repro.workloads.queries import square_queries

N = 30_000
FANOUT = 113


class _ScalarWindowEngine(TraversalEngine):
    """The pre-refactor per-entry window traversal (the CPU baseline)."""

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
    lo_rows = [rect.lo for rect in rects]
    hi_rows = [rect.hi for rect in rects]
    window = Rect((0.2, 0.2), (0.7, 0.7))

    def scalar():
        return [i for i, rect in enumerate(rects) if rect.intersects(window)]

    # The frame kernels dispatch on the table type, so both the numpy
    # path and the pure-Python fallback are measurable in one process.
    py_lo, py_hi = tuple(lo_rows), tuple(hi_rows)

    def frame_python():
        return kernels.frame_intersecting(py_lo, py_hi, window.lo, window.hi)

    paths = [("entry-scalar", scalar), ("frame-python", frame_python)]
    if kernels.HAVE_NUMPY:
        np_lo = kernels.coord_table(lo_rows, 2)
        np_hi = kernels.coord_table(hi_rows, 2)

        def frame_numpy():
            return kernels.frame_intersecting(np_lo, np_hi, window.lo, window.hi)

        paths.append(("frame-numpy", frame_numpy))

    want = scalar()
    base_us = None
    for name, fn in paths:
        assert fn() == want  # all paths agree before timing
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
        f"backend={kernels.BACKEND}; node rows time one intersection kernel "
        "call (best of 3x2000); fig12 rows time 300 window queries "
        f"(0.25% area) over a PR-tree, n={N}, fanout={FANOUT}"
    )
    table.add_note(
        "leaf_ios identical by construction: the SoA layout never changes "
        "which blocks are read (tests/integration/test_vectorized_differential.py)"
    )
    return table


def _batch_experiment(queries: int = 64, cache_pages: int = 64) -> Table:
    table = Table(
        title="batch x page window evaluation on a paged PR-tree",
        headers=["config", "leaf_ios", "physical_reads", "time_us", "vs_solo"],
    )
    def run_solo(tree, windows):
        engine = QueryEngine(tree)
        for window in windows:
            engine.query(window)
        return engine.totals.leaf_reads

    def run_batch(tree, windows):
        engine = QueryEngine(tree)
        engine.query_batch(windows)
        return engine.totals.leaf_reads

    def run_server(tree, windows):
        server = QueryServer(tree)
        return server.submit([WindowRequest(w) for w in windows]).leaf_ios

    configs = [
        ("solo", run_solo),
        ("batch", run_batch),
        ("server", run_server),
    ]
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmpdir:
        path = Path(tmpdir) / "index.pack"
        pack_index(path, variant="PR", dataset="uniform", n=N, seed=13)
        base_us = None
        for name, fn in configs:
            # A fresh handle per run: every pass starts from the same
            # cold page cache, so the physical read counts compare the
            # strategies, not the leftover LRU state of the previous
            # row.  Best-of-3 keeps one-time warmup (first numpy
            # broadcast, allocator growth) out of the wall-clock column.
            elapsed = float("inf")
            for _ in range(3):
                with PagedTree.open(path, cache_pages=cache_pages) as tree:
                    windows = list(
                        square_queries(
                            tree.root().mbr(), 0.25, count=queries, seed=17
                        )
                    )
                    start = time.perf_counter()
                    leaf = fn(tree, windows)
                    elapsed = min(elapsed, time.perf_counter() - start)
                    delta = tree.page_stats
            if base_us is None:
                base_us = elapsed
            table.add_row(
                name, leaf, delta.physical_reads, elapsed * 1e6,
                base_us / elapsed,
            )
    table.add_note(
        f"{queries} co-located window queries (0.25% area), cache_pages="
        f"{cache_pages}; per-query stats stay as-if-solo, the store sees "
        "deduplicated page fetches"
    )
    return table


def test_node_kernels(benchmark, record_table):
    table = run_once(benchmark, _kernels_experiment)
    record_table(table, "storage_node_kernels")

    rows = {(row[0], row[1]): row for row in table.rows}
    speedup = rows[("fig12-traversal", "frame-kernels")][4]
    if kernels.HAVE_NUMPY:
        # The acceptance target is >=3x; gate loosely so shared CI
        # runners with noisy clocks cannot flake the suite.
        assert speedup >= 2.0
        assert rows[("node113", "frame-numpy")][4] > rows[("node16", "frame-numpy")][4] * 0.5
    # Identical logical I/O between the two traversal rows.
    assert (
        rows[("fig12-traversal", "frame-kernels")][3]
        == rows[("fig12-traversal", "entry-scalar")][3]
    )


def test_batch_page_evaluation(benchmark, record_table):
    table = run_once(benchmark, _batch_experiment)
    record_table(table, "storage_node_kernels_batch")

    rows = {row[0]: row for row in table.rows}
    # As-if-solo logical accounting: per-query leaf I/O sums match.
    assert rows["batch"][1] == rows["solo"][1]
    # The batch traversal fetches shared pages once.
    assert rows["batch"][2] <= rows["solo"][2]
