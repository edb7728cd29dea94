"""End-to-end acceptance: TIGER-scale PR-tree → `repro pack` index file
→ lazily paged tree with a bounded cache → 1k-request mixed batch
through the QueryServer, identical to the in-memory engines.
"""

import pytest

from repro.datasets.tiger import tiger_dataset
from repro.experiments.harness import build_variant
from repro.experiments.serving import mixed_requests, pack_index
from repro.queries.join import SpatialJoinEngine
from repro.queries.knn import KNNEngine
from repro.queries.point import PointQueryEngine
from repro.rtree.query import QueryEngine
from repro.server import (
    ContainmentRequest,
    CountRequest,
    JoinRequest,
    KNNRequest,
    PointRequest,
    QueryServer,
    WindowRequest,
)
from repro.storage import PagedTree

N = 30_000
MINOR_N = 800
FANOUT = 113  # the paper's 4 KB-block fan-out
SEED = 0


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """The packed index files plus matching in-memory reference trees."""
    tmp = tmp_path_factory.mktemp("storage-server")

    # `repro pack` builds its dataset deterministically from (dataset,
    # n, seed); rebuilding with the same parameters gives the exact
    # in-memory tree the file was packed from.
    main_path = tmp / "tiger.pack"
    pack_index(
        main_path, variant="PR", dataset="tiger-east", n=N, seed=SEED
    )
    mem_main = build_variant(
        "PR", tiger_dataset(N, "eastern", seed=SEED), FANOUT
    )

    minor_path = tmp / "minor.pack"
    pack_index(
        minor_path, variant="H", dataset="tiger-east", n=MINOR_N, seed=SEED + 1
    )
    mem_minor = build_variant(
        "H", tiger_dataset(MINOR_N, "eastern", seed=SEED + 1), FANOUT
    )

    paged_main = PagedTree.open(
        main_path, values=dict(mem_main.objects), cache_pages=128
    )
    paged_minor = PagedTree.open(
        minor_path, values=dict(mem_minor.objects), cache_pages=32
    )
    yield paged_main, paged_minor, mem_main, mem_minor
    paged_main.close()
    paged_minor.close()


def test_paged_tree_is_bounded_and_lazy(stack):
    paged_main, _, mem_main, _ = stack
    assert paged_main.size == mem_main.size == N
    assert paged_main.height == mem_main.height
    # The file holds hundreds of nodes; the cache never exceeds its budget.
    assert mem_main.node_count() > 128
    assert paged_main.page_store.cached_pages() <= 128


def test_thousand_request_mixed_batch_matches_in_memory_engines(stack):
    paged_main, paged_minor, mem_main, mem_minor = stack
    server = QueryServer({"tiger": paged_main, "minor": paged_minor})

    bounds = mem_main.root().mbr()
    requests = mixed_requests(bounds, count=999, seed=7, index="tiger")
    requests.append(JoinRequest("tiger", "minor"))
    assert len(requests) == 1000

    report = server.submit(requests)

    # Per-batch accounting is reported.
    assert report.requests == 1000
    assert report.latency_s > 0
    assert report.leaf_ios > 0
    assert report.physical_reads > 0  # pages really came off the file
    assert report.executed + report.dedup_hits == 1000
    assert [r.request for r in report.results] == requests

    # Every result is identical to the matching in-memory engine's.
    window_engine = QueryEngine(mem_main)
    point_engine = PointQueryEngine(mem_main)
    knn_engine = KNNEngine(mem_main)
    for result in report.results:
        request = result.request
        if isinstance(request, WindowRequest):
            want, _ = window_engine.query(request.window)
            assert sorted(v for _, v in result.value) == sorted(
                v for _, v in want
            )
        elif isinstance(request, ContainmentRequest):
            want, _ = point_engine.containment_query(request.window)
            assert sorted(v for _, v in result.value) == sorted(
                v for _, v in want
            )
        elif isinstance(request, CountRequest):
            want_count, _ = point_engine.count(request.window)
            assert result.value == want_count
        elif isinstance(request, PointRequest):
            want, _ = point_engine.point_query(request.point)
            assert sorted(v for _, v in result.value) == sorted(
                v for _, v in want
            )
        elif isinstance(request, KNNRequest):
            want, _ = knn_engine.knn(request.target, request.k)
            assert [n.distance for n in result.value] == [
                n.distance for n in want
            ]
        elif isinstance(request, JoinRequest):
            want, _ = SpatialJoinEngine(mem_main, mem_minor).join()
            assert len(result.value) == len(want)


def test_second_batch_is_cheaper_physically_but_not_logically(stack):
    paged_main, _, mem_main, _ = stack
    # A fresh handle with a cache larger than the whole file, so the
    # second batch demonstrates pure warm-cache behaviour.  Read-only:
    # the fixture's handle is the file's one writer.
    path = paged_main.page_store.file_store.path
    with PagedTree.open(
        path, values=dict(mem_main.objects), cache_pages=4096, readonly=True
    ) as fresh:
        server = QueryServer({"tiger": fresh})
        bounds = mem_main.root().mbr()
        requests = [
            r
            for r in mixed_requests(bounds, count=200, seed=11, index="tiger")
            if isinstance(r, WindowRequest)
        ]
        cold = server.submit(requests)
        warm = server.submit(requests)
        # Logical I/O (the paper's metric) is identical batch over batch...
        assert warm.leaf_ios == cold.leaf_ios
        # ...while the warmed page cache and internal-node pools remove
        # the physical work entirely.
        assert cold.physical_reads > 0
        assert warm.physical_reads == 0
        assert warm.internal_reads == 0
