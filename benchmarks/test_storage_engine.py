"""Storage-engine benchmarks: paged-tree cache behaviour and the
batched query server's dedup saving.

Not paper figures — the paper stops at the index; these benchmarks
measure the disk-backed serving layer built on top of it.  Expected
shapes:

* **cold vs warm**: logical leaf I/O (the paper's metric) is identical
  between a cold and a warm pass over the same workload — the page
  cache is invisible to the accounting — while physical file reads
  collapse once the cache holds the working set, and stay bounded (with
  re-reads) when the cache is smaller than the tree.
* **server dedup**: a batch that repeats its hot windows ten-fold
  executes each once, so the leaf I/O falls ten-fold with it.
"""

import tempfile
from pathlib import Path

from conftest import run_once

from repro.experiments.report import Table
from repro.experiments.serving import pack_index
from repro.rtree.query import QueryEngine
from repro.server import QueryServer, WindowRequest
from repro.storage import PagedTree
from repro.workloads.queries import square_queries

N = 30_000


def _cold_warm_experiment(n: int = N, queries: int = 150) -> Table:
    table = Table(
        title="paged tree: cold vs warm page cache (PR over TIGER-east)",
        headers=[
            "cache_pages", "pass", "leaf_ios", "physical_reads",
            "cache_hits", "evictions",
        ],
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmpdir:
        path = Path(tmpdir) / "index.pack"
        pack_index(path, variant="PR", dataset="tiger-east", n=n)
        for cache_pages in (64, 4096):
            with PagedTree.open(path, cache_pages=cache_pages) as tree:
                windows = square_queries(
                    tree.root().mbr(), 0.25, count=queries, seed=5
                )
                engine = QueryEngine(tree)
                for label in ("cold", "warm"):
                    before_stats = tree.page_stats.snapshot()
                    before_leaf = engine.totals.leaf_reads
                    for window in windows:
                        engine.query(window)
                    delta = tree.page_stats - before_stats
                    table.add_row(
                        cache_pages,
                        label,
                        engine.totals.leaf_reads - before_leaf,
                        delta.physical_reads,
                        delta.hits,
                        delta.evictions,
                    )
    table.add_note(
        f"n={n}, fanout=113, {queries} window queries (0.25% area), "
        "run twice per cache size"
    )
    return table


def test_storage_cold_vs_warm(benchmark, record_table):
    table = run_once(benchmark, _cold_warm_experiment)
    record_table(table, "storage_cold_vs_warm")

    rows = {(row[0], row[1]): row for row in table.rows}
    for cache_pages in (64, 4096):
        cold = rows[(cache_pages, "cold")]
        warm = rows[(cache_pages, "warm")]
        # The paper's metric is invariant under the page cache.
        assert cold[2] == warm[2]
        # Warm passes never read more than cold ones.
        assert warm[3] <= cold[3]
    # A cache holding the whole tree serves the warm pass from memory.
    assert rows[(4096, "warm")][3] == 0
    # A tight cache keeps rereading but stays within its budget
    # (evictions prove pages were dropped, not accumulated).
    assert rows[(64, "warm")][3] > 0
    assert rows[(64, "warm")][5] > 0


def test_storage_server_dedup_saves_io(benchmark, record_table):
    def _dedup_experiment(n: int = 10_000) -> Table:
        table = Table(
            title="query server: dedup savings on a repeat-heavy batch",
            headers=["dedup", "requests", "executed", "leaf_ios", "latency_ms"],
        )
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmpdir:
            path = Path(tmpdir) / "index.pack"
            pack_index(path, variant="PR", dataset="tiger-east", n=n)
            with PagedTree.open(path, cache_pages=512) as tree:
                bounds = tree.root().mbr()
                hot = square_queries(bounds, 0.25, count=25, seed=9).windows
                # A zipfian-ish stream: 250 requests over 25 hot windows.
                requests = [
                    WindowRequest(hot[i % len(hot)]) for i in range(250)
                ]
                for dedup in (False, True):
                    server = QueryServer(tree, dedup=dedup)
                    report = server.submit(requests)
                    table.add_row(
                        "on" if dedup else "off",
                        report.requests,
                        report.executed,
                        report.leaf_ios,
                        report.latency_s * 1000.0,
                    )
        table.add_note("250 window requests drawn from 25 hot windows")
        return table

    table = run_once(benchmark, _dedup_experiment)
    record_table(table, "storage_server_dedup")

    off, on = table.rows
    assert off[2] == 250 and on[2] == 25
    # Ten-fold repeat rate -> ten-fold leaf-I/O saving.
    assert on[3] * 9 <= off[3]
