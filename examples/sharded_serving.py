#!/usr/bin/env python3
"""Sharded serving: one logical index, K files, scatter/gather batches.

Builds a PR-tree, splits it into a 4-shard Hilbert-range family with
`shard_pack`, and serves a mixed read/write batch through the
`QueryServer` — which fans each request out to only the shards that can
contribute and reports a per-shard I/O breakdown.  A single-file pack
of the same tree answers identically, which is the whole point: the
partition changes where the bytes live, not what queries return.

Run with:  PYTHONPATH=src python examples/sharded_serving.py
"""

import pathlib
import tempfile

from repro import BlockStore, Rect, build_prtree
from repro.datasets.tiger import tiger_dataset
from repro.server import (
    CountRequest,
    DeleteRequest,
    InsertRequest,
    KNNRequest,
    QueryServer,
    WindowRequest,
)
from repro.storage import PagedTree, ShardedTree, pack_tree, shard_pack


def main() -> None:
    n = 6_000
    data = tiger_dataset(n, "eastern", seed=0)
    tree = build_prtree(BlockStore(), data, fanout=113)
    bounds = tree.root().mbr()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)

        # One logical index, two physical shapes.
        pack_tree(tree, tmp / "roads.pack")
        family_stats = shard_pack(tree, tmp / "roads.manifest", shards=4)
        print(
            f"packed {n} rects into {family_stats.shards} shards "
            f"({family_stats.file_bytes / 2**20:.2f} MB total, "
            f"{family_stats.write_ios} write I/Os)"
        )

        values = dict(tree.objects)
        with (
            PagedTree.open(tmp / "roads.pack", values=values) as single,
            ShardedTree.open(tmp / "roads.manifest", values=values) as family,
        ):
            for i, info in enumerate(family.infos):
                print(
                    f"  shard {i}: {info.size} rects, "
                    f"{info.n_blocks} blocks, hilbert "
                    f"[{info.hilbert_lo}..{info.hilbert_hi}]"
                )

            server = QueryServer({"single": single, "family": family})

            side = bounds.side(0) * 0.08
            window = Rect(
                tuple(c - side for c in bounds.center()),
                tuple(c + side for c in bounds.center()),
            )
            fresh = tiger_dataset(10, "eastern", seed=9)

            def batch(index: str):
                requests = [
                    InsertRequest(rect, value, index=index)
                    for rect, value in fresh
                ]
                requests += [DeleteRequest(*data[3], index=index)]
                requests += [
                    WindowRequest(window, index=index),
                    CountRequest(window, index=index),
                    KNNRequest(bounds.center(), k=5, index=index),
                ]
                return requests

            report_single = server.submit(batch("single"))
            report_family = server.submit(batch("family"))

            # Identical answers from both shapes, write results included
            # (window matches are a set; each shape reports them in its
            # own traversal order).
            *writes_s, matches_s, count_s, knn_s = report_single.values()
            *writes_f, matches, count, neighbors = report_family.values()
            assert writes_s == writes_f
            assert sorted(v for _, v in matches_s) == sorted(
                v for _, v in matches
            )
            assert count_s == count
            assert [nb.distance for nb in knn_s] == [
                nb.distance for nb in neighbors
            ]
            print(
                f"window hit {count} rects; nearest 5 at distances "
                f"{[round(nb.distance, 4) for nb in neighbors]}"
            )

            loads = report_family.shard_loads["family"]
            print("per-shard batch load (logical reads / physical reads):")
            for i, load in enumerate(loads):
                print(
                    f"  shard {i}: {load.reads:4d} / {load.physical_reads:4d}"
                    f"  ({load.busy_s * 1000:.1f} ms busy)"
                )

            # The server already synced after the batch's writes
            # (sync_writes=True), so the batch reported the flushes...
            print(
                f"batch flushed {report_family.pages_flushed} dirty pages "
                f"for {report_family.write_ios} logical write I/Os"
            )
            # ...and an explicit sync is an idempotent consistency point.
            assert family.sync() == 0

        # The family reopens cold — readonly handles reject updates.
        with ShardedTree.open(
            tmp / "roads.manifest", values=values, readonly=True
        ) as cold:
            assert cold.size == n + len(fresh) - 1
            print(
                f"reopened cold: {cold.n_shards} shards, "
                f"{cold.size} rects, identical answers"
            )


if __name__ == "__main__":
    main()
