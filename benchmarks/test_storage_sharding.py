"""Sharded-serving benchmarks: K=1 vs K=4/8 throughput and the
per-shard I/O balance of the Hilbert-range split.

Not paper figures — the paper stops at one index; these benchmarks
measure serving a family of shard files as one tree.  Expected shapes:

* **throughput**: the shard split adds bookkeeping per request but almost
  no logical I/O — each shard re-packs the same leaf entries in Hilbert
  order into 90 %-full leaves, K=1 included, so total leaf I/O shifts
  only a few percent across K — and
  K>1 throughput stays within a small constant factor of K=1 while
  spreading the physical reads across K files.
* **balance**: a uniform workload over a Hilbert-range split lands
  evenly — no shard should carry more than 2x the mean leaf I/O, the
  property that would make per-shard (process) parallelism worth having.
"""

import tempfile
from pathlib import Path

from conftest import run_once

from repro.datasets.synthetic import uniform_rects
from repro.experiments.harness import build_variant
from repro.experiments.report import Table
from repro.experiments.serving import mixed_requests
from repro.iomodel.codec import fanout_for_block
from repro.server import QueryServer
from repro.rtree.query import QueryEngine
from repro.storage import ShardedTree, shard_pack
from repro.workloads.queries import square_queries

N = 30_000
FANOUT = fanout_for_block(4096, 2)  # 113, the paper's
REQUESTS = 600
BATCH = 200
SHARD_COUNTS = (1, 4, 8)
#: Total decoded-page budget, split evenly across a family's shards so
#: K=1 and K=8 compare at equal memory (cache_pages is per shard).
TOTAL_CACHE_PAGES = 1024


def _pack_families(tmp: Path, tree):
    """One manifest per shard count, all from the same bulk load."""
    paths = {}
    for k in SHARD_COUNTS:
        path = tmp / f"uniform.k{k}.manifest"
        stats = shard_pack(tree, path, shards=k)
        assert stats.shards == k
        paths[k] = path
    return paths


def _throughput_experiment() -> Table:
    table = Table(
        title="sharded serving: K=1 vs K=4/8 on a uniform mixed workload",
        headers=[
            "shards", "requests", "leaf_ios",
            "physical_reads", "latency_ms", "req_per_s",
        ],
    )
    data = uniform_rects(N, max_side=0.01, seed=0)
    tree = build_variant("PR", data, FANOUT)
    with tempfile.TemporaryDirectory(prefix="repro-shardbench-") as tmpdir:
        paths = _pack_families(Path(tmpdir), tree)
        for k in SHARD_COUNTS:
            with ShardedTree.open(
                paths[k], cache_pages=TOTAL_CACHE_PAGES // k
            ) as family:
                server = QueryServer(family)
                bounds = family.root().mbr()
                stream = mixed_requests(bounds, count=REQUESTS, seed=1)
                leaf = phys = 0
                latency = 0.0
                for b in range(0, len(stream), BATCH):
                    report = server.submit(stream[b : b + BATCH])
                    leaf += report.leaf_ios
                    phys += report.physical_reads
                    latency += report.latency_s
                table.add_row(
                    k,
                    REQUESTS,
                    leaf,
                    phys,
                    latency * 1000.0,
                    REQUESTS / latency if latency > 0 else 0.0,
                )
    table.add_note(
        f"PR over {N} uniform rects, fanout {FANOUT}, {REQUESTS} mixed "
        f"requests in batches of {BATCH}; equal total memory per K "
        f"({TOTAL_CACHE_PAGES} decoded pages split across shards)"
    )
    table.add_note(
        "leaf I/O is nearly partition-invariant: every K, K=1 included, "
        "re-packs the same leaf entries in Hilbert order into leaves of "
        "101 (90 % of B), so only leaf boundaries shift between K"
    )
    return table


def test_sharded_throughput(benchmark, record_table):
    table = run_once(benchmark, _throughput_experiment)
    record_table(table, "storage_sharding_throughput")

    rows = {row[0]: row for row in table.rows}
    leaf_k1 = rows[1][2]
    for k in SHARD_COUNTS:
        if k == 1:
            continue
        # The paper's metric barely moves when the index is split: the
        # shards hold the same entries at the same fill, only leaf
        # boundaries shift.
        assert abs(rows[k][2] - leaf_k1) <= 0.15 * leaf_k1
        # The fan-out layer must not cost more than 3x K=1 throughput.
        assert rows[k][5] * 3 >= rows[1][5]
    for row in table.rows:
        assert row[5] > 0


def _balance_experiment() -> Table:
    table = Table(
        title="sharded serving: per-shard leaf-I/O balance (uniform data)",
        headers=[
            "shards", "shard", "size", "leaf_ios",
            "share", "x_mean", "busy_ms",
        ],
    )
    data = uniform_rects(N, max_side=0.01, seed=0)
    tree = build_variant("PR", data, FANOUT)
    with tempfile.TemporaryDirectory(prefix="repro-shardbench-") as tmpdir:
        paths = _pack_families(Path(tmpdir), tree)
        for k in SHARD_COUNTS:
            if k == 1:
                continue
            with ShardedTree.open(paths[k], cache_pages=256) as family:
                engine = QueryEngine(family)
                windows = square_queries(
                    family.root().mbr(), 0.25, count=200, seed=2
                )
                # Pay every internal read first, so each shard's logical
                # reads over the workload are its leaf I/O.
                engine.query(family.root().mbr())
                before = family.shard_loads()
                for window in windows:
                    engine.query(window)
                per_shard = [
                    after - start
                    for after, start in zip(family.shard_loads(), before)
                ]
                total = sum(load.reads for load in per_shard)
                mean = total / k
                for i, load in enumerate(per_shard):
                    table.add_row(
                        k,
                        i,
                        family.shards[i].size,
                        load.reads,
                        load.reads / total if total else 0.0,
                        load.reads / mean if mean else 0.0,
                        load.busy_s * 1000.0,
                    )
    table.add_note(
        f"200 window queries (0.25% area) over {N} uniform rects; "
        "x_mean is each shard's leaf I/O over the per-shard mean; "
        "busy_ms is the time inside the shard's store calls"
    )
    table.add_note(
        "acceptance bound: no shard exceeds 2x the mean leaf I/O on the "
        "uniform workload"
    )
    return table


def test_sharded_io_balance(benchmark, record_table):
    table = run_once(benchmark, _balance_experiment)
    record_table(table, "storage_sharding")

    for k in SHARD_COUNTS:
        if k == 1:
            continue
        ratios = [
            row[5] for row in table.rows if row[0] == k
        ]
        assert len(ratios) == k
        # The Hilbert-range split spreads a uniform workload evenly:
        # no shard exceeds 2x the mean leaf I/O.
        assert max(ratios) <= 2.0, ratios
        # And every shard contributes.
        assert min(ratios) > 0.0
