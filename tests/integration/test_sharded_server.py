"""End-to-end acceptance for sharded serving: a TIGER-scale PR-tree is
packed both as one index file and as a K=4 Hilbert-range shard family,
and a 1k mixed batch — window, point, count, containment, kNN, insert
and delete — produces identical results through the QueryServer on both,
with the sharded batch reporting a per-shard I/O/latency breakdown.
"""

import pytest

from repro.datasets.tiger import tiger_dataset
from repro.experiments.harness import build_variant
from repro.experiments.serving import mixed_requests
from repro.rtree.validate import validate_rtree
from repro.server import (
    ContainmentRequest,
    CountRequest,
    DeleteRequest,
    InsertRequest,
    KNNRequest,
    PointRequest,
    QueryServer,
    WindowRequest,
)
from repro.storage import PagedTree, ShardedTree, shard_pack, pack_tree

N = 30_000
SHARDS = 4
FANOUT = 113  # the paper's 4 KB-block fan-out
SEED = 0
BATCH = 1000
WRITES = 60  # inserts + deletes mixed into the batch


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """Single-file and K=4 sharded packs of the same 30k PR-tree."""
    tmp = tmp_path_factory.mktemp("sharded-server")
    data = tiger_dataset(N, "eastern", seed=SEED)
    tree = build_variant("PR", data, FANOUT)

    single_path = tmp / "tiger.pack"
    pack_tree(tree, single_path)
    manifest_path = tmp / "tiger.manifest"
    family_stats = shard_pack(tree, manifest_path, shards=SHARDS)
    assert family_stats.shards == SHARDS

    single = PagedTree.open(
        single_path, values=dict(tree.objects), cache_pages=128
    )
    sharded = ShardedTree.open(
        manifest_path, values=dict(tree.objects), cache_pages=64
    )
    yield single, sharded, tree, data
    single.close()
    sharded.close()


def make_batch(bounds, data, index):
    """The 1k mixed batch: ~94% reads plus interleaved inserts/deletes."""
    requests = mixed_requests(
        bounds, count=BATCH - WRITES, seed=7, index=index
    )
    fresh = tiger_dataset(WRITES // 2, "eastern", seed=SEED + 101)
    for i in range(WRITES // 2):
        # Interleave writes through the read stream (the server applies
        # them first, in submission order, on both shapes).
        requests.insert(i * 17, InsertRequest(*fresh[i], index=index))
        rect, value = data[i * 31]
        requests.insert(i * 29, DeleteRequest(rect, value, index=index))
    assert len(requests) == BATCH
    return requests


def test_sharded_family_shape(stack):
    _, sharded, tree, _ = stack
    assert sharded.n_shards == SHARDS
    assert sharded.size == N == sum(s.size for s in sharded.shards)
    sizes = [s.size for s in sharded.shards]
    assert max(sizes) - min(sizes) <= 1
    for shard in sharded.shards:
        validate_rtree(shard)
    # The family's synthetic root covers the same bounds as the tree.
    assert sharded.root().mbr() == tree.root().mbr()


def test_mixed_batch_identical_to_single_file(stack):
    single, sharded, tree, data = stack
    server = QueryServer({"single": single, "sharded": sharded})
    bounds = tree.root().mbr()

    report_single = server.submit(make_batch(bounds, data, "single"))
    report_sharded = server.submit(make_batch(bounds, data, "sharded"))

    assert report_single.requests == report_sharded.requests == BATCH
    assert report_single.writes == report_sharded.writes == WRITES

    checked = {kind: 0 for kind in (
        "window", "containment", "count", "point", "knn", "insert", "delete"
    )}
    for a, b in zip(report_single.results, report_sharded.results):
        assert type(a.request) is type(b.request)
        checked[a.request.kind] += 1
        if isinstance(a.request, (CountRequest, InsertRequest, DeleteRequest)):
            # Counts, assigned object ids, and delete outcomes are scalars
            # and must agree exactly — the sharded family hands out the
            # same family-wide ids as the single-file write path.
            assert a.value == b.value
        elif isinstance(a.request, KNNRequest):
            assert [n.distance for n in a.value] == [
                n.distance for n in b.value
            ]
            assert sorted(
                n.value for n in a.value
            ) == sorted(n.value for n in b.value)
        elif isinstance(
            a.request, (WindowRequest, ContainmentRequest, PointRequest)
        ):
            key = lambda pair: (pair[0].lo, pair[0].hi, pair[1])
            assert sorted(a.value, key=key) == sorted(b.value, key=key)
        else:  # pragma: no cover - no other kinds in the batch
            raise AssertionError(a.request)
    # Every operator actually appeared in the batch.
    assert all(count > 0 for count in checked.values()), checked

    # The same logical work was measured on both shapes (the paper's
    # metric does not care how the blocks are spread across files).
    assert report_sharded.leaf_ios > 0
    assert report_sharded.write_ios > 0

    # Only the sharded index reports a per-shard breakdown.
    assert not report_single.shard_loads
    loads = report_sharded.shard_loads["sharded"]
    assert len(loads) == SHARDS
    assert sum(load.reads for load in loads) > 0
    assert sum(load.physical_reads for load in loads) > 0
    assert sum(load.busy_s for load in loads) > 0
    # Every shard of the uniform-ish TIGER batch saw some work.
    assert all(load.reads > 0 for load in loads)


def test_sharded_family_stays_consistent_after_batch(stack):
    _, sharded, _, _ = stack
    # The previous test's writes are already synced (sync_writes=True);
    # the family still validates shard by shard and sizes line up.
    assert sharded.size == sum(s.size for s in sharded.shards)
    for shard in sharded.shards:
        validate_rtree(shard)


def test_page_caches_stay_bounded(stack):
    _, sharded, _, _ = stack
    for shard in sharded.shards:
        assert shard.page_store.cached_pages() <= 64
