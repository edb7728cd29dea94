"""Unit tests for the batched query server."""

import pytest

from repro.bulk.hilbert import build_hilbert
from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries.join import SpatialJoinEngine
from repro.queries.knn import KNNEngine
from repro.queries.point import PointQueryEngine
from repro.rtree.query import QueryEngine
from repro.server import (
    ContainmentRequest,
    CountRequest,
    DeleteRequest,
    InsertRequest,
    JoinRequest,
    KNNRequest,
    PointRequest,
    QueryServer,
    UpdateStats,
    WindowRequest,
)
from repro.rtree.validate import validate_rtree
from repro.storage import PagedTree, pack_tree

from tests.conftest import assert_same_matches, random_rects, random_windows


@pytest.fixture(scope="module")
def trees():
    data_a = random_rects(1200, seed=31)
    data_b = random_rects(300, seed=32)
    a = build_prtree(BlockStore(), data_a, 16)
    b = build_hilbert(BlockStore(), data_b, 16)
    return a, b


@pytest.fixture
def server(trees):
    a, b = trees
    return QueryServer({"a": a, "b": b})


class TestCatalog:
    def test_single_tree_served_as_default(self, trees):
        a, _ = trees
        server = QueryServer(a)
        report = server.submit([WindowRequest(Rect((0, 0), (1, 1)))])
        assert len(report.results) == 1
        assert len(report.results[0].value) == a.size

    def test_unknown_index_raises(self, server):
        with pytest.raises(KeyError, match="no index named"):
            server.submit([WindowRequest(Rect((0, 0), (1, 1)), index="zz")])

    def test_unknown_index_fails_before_any_write(self):
        # Every name the batch addresses is looked up before phase 1, so
        # the insert ahead of the bad read never applies.
        data = random_rects(100, seed=33)
        tree = build_prtree(BlockStore(), data, 16)
        server = QueryServer({"a": tree})
        with pytest.raises(KeyError, match="'zz'"):
            server.submit(
                [
                    InsertRequest(Rect((0.5, 0.5), (0.6, 0.6)), "new", index="a"),
                    WindowRequest(Rect((0, 0), (1, 1)), index="zz"),
                ]
            )
        assert tree.size == len(data)
        assert sorted(v for _, v in tree.all_data()) == sorted(
            v for _, v in data
        )

    def test_attach_replaces(self, trees, server):
        a, _ = trees
        server.attach("c", a)
        report = server.submit(
            [CountRequest(Rect((0, 0), (1, 1)), index="c")]
        )
        assert report.results[0].value == a.size

    def test_index_named_join_is_not_special(self, trees):
        a, _ = trees
        server = QueryServer({"join": a})
        report = server.submit(
            [
                WindowRequest(Rect((0, 0), (1, 1)), index="join"),
                JoinRequest("join", "join"),
            ]
        )
        assert len(report.results[0].value) == a.size
        assert report.results[1].value  # the self-join reports pairs

    def test_attach_evicts_only_that_index_engines(self, trees, server):
        a, b = trees
        windows = random_windows(2, seed=47)
        server.submit([WindowRequest(w, index="a") for w in windows])
        server.submit([WindowRequest(w, index="b") for w in windows])
        server.attach("a", b)  # replace "a"; "b" engines must stay warm
        warm_b = server.submit([WindowRequest(w, index="b") for w in windows])
        assert warm_b.internal_reads == 0
        fresh_a = server.submit([WindowRequest(w, index="a") for w in windows])
        assert fresh_a.results[0].value is not None


class TestResultsMatchEngines:
    def test_window(self, trees, server):
        a, _ = trees
        windows = random_windows(8, seed=33)
        report = server.submit(
            [WindowRequest(w, index="a") for w in windows]
        )
        engine = QueryEngine(a)
        for window, result in zip(windows, report.results):
            want, _ = engine.query(window)
            assert_same_matches(result.value, want)

    def test_point_and_containment_and_count(self, trees, server):
        a, _ = trees
        window = random_windows(1, seed=34)[0]
        point = (0.45, 0.55)
        report = server.submit(
            [
                PointRequest(point, index="a"),
                ContainmentRequest(window, index="a"),
                CountRequest(window, index="a"),
            ]
        )
        engine = PointQueryEngine(a)
        want_point, _ = engine.point_query(point)
        want_contained, _ = engine.containment_query(window)
        want_count, _ = engine.count(window)
        assert_same_matches(report.results[0].value, want_point)
        assert_same_matches(report.results[1].value, want_contained)
        assert report.results[2].value == want_count

    def test_knn(self, trees, server):
        a, _ = trees
        report = server.submit([KNNRequest((0.3, 0.3), k=7, index="a")])
        want, _ = KNNEngine(a).knn((0.3, 0.3), 7)
        got = report.results[0].value
        assert [n.distance for n in got] == [n.distance for n in want]

    def test_join(self, trees, server):
        a, b = trees
        report = server.submit([JoinRequest("a", "b")])
        want, _ = SpatialJoinEngine(a, b).join()
        assert len(report.results[0].value) == len(want)

    def test_mixed_batch_keeps_submission_order(self, trees, server):
        windows = random_windows(5, seed=35)
        requests = []
        for w in windows:
            requests.append(WindowRequest(w, index="a"))
            requests.append(CountRequest(w, index="b"))
            requests.append(KNNRequest(tuple(w.center()), k=3, index="a"))
        report = server.submit(requests)
        assert [r.request for r in report.results] == requests


class TestDedup:
    def test_duplicates_execute_once(self, server):
        window = random_windows(1, seed=36)[0]
        request = WindowRequest(window, index="a")
        report = server.submit([request] * 10)
        assert report.requests == 10
        assert report.executed == 1
        assert report.dedup_hits == 9
        first, *rest = report.results
        assert not first.deduped
        assert all(r.deduped for r in rest)
        assert all(r.value is first.value for r in rest)

    def test_a_client_cannot_change_its_twins_reply(self, server):
        # Two identical requests share one payload; while that was a
        # list, one client editing its reply edited the other's.
        window = random_windows(1, seed=36)[0]
        report = server.submit([WindowRequest(window, index="a")] * 2)
        mine, theirs = (result.value for result in report.results)
        assert mine is theirs and len(theirs) > 0
        before = list(theirs)
        for edit in (
            lambda reply: reply.append(before[0]),
            lambda reply: reply.clear(),
            lambda reply: reply.sort(),
            lambda reply: reply.__setitem__(0, before[-1]),
            lambda reply: reply.__delitem__(0),
        ):
            with pytest.raises((AttributeError, TypeError)):
                edit(mine)
        # The columns are immutable or the caller's own copy.
        with pytest.raises(TypeError):
            mine.values[0] = None
        mine.lo[:] = 0.0
        list(mine)[:] = []
        mine[:].clear()
        assert list(theirs) == before
        assert [rect.lo for rect, _ in before] == [
            tuple(row) for row in kernels.table_tuples(theirs.lo)
        ]

    def test_dedup_disabled_runs_every_occurrence(self, trees):
        a, _ = trees
        server = QueryServer({"a": a}, dedup=False)
        window = random_windows(1, seed=37)[0]
        report = server.submit([WindowRequest(window, index="a")] * 4)
        assert report.executed == 4
        assert report.dedup_hits == 0

    def test_dedup_batch_leaf_ios_counted_once(self, trees):
        a, _ = trees
        window = random_windows(1, seed=38)[0]
        once = QueryServer({"a": a}).submit([WindowRequest(window, "a")])
        many = QueryServer({"a": a}).submit([WindowRequest(window, "a")] * 6)
        assert many.leaf_ios == once.leaf_ios


def spy_dispatch(server):
    """Record every request the server hands to an engine, in order."""
    dispatched = []
    dispatch = server._dispatch

    def spy(engine, request):
        dispatched.append(request)
        return dispatch(engine, request)

    server._dispatch = spy
    return dispatched


class TestArrivalOrder:
    def test_unique_reads_execute_in_first_occurrence_order(self, server):
        # Kinds interleaved and neighbours on the Hilbert curve far apart
        # in the batch: grouping by kind or sorting along the curve would
        # both change the order the engines see.
        point = PointRequest((0.05, 0.05), index="a")
        requests = [
            point,
            WindowRequest(Rect((0.9, 0.9), (0.95, 0.95)), index="a"),
            CountRequest(Rect((0.05, 0.9), (0.1, 0.95)), index="a"),
            point,
            KNNRequest((0.9, 0.05), k=3, index="a"),
            WindowRequest(Rect((0.1, 0.1), (0.15, 0.15)), index="a"),
            PointRequest((0.95, 0.95), index="a"),
        ]
        dispatched = spy_dispatch(server)
        report = server.submit(requests)
        assert dispatched == requests[:3] + requests[4:]
        repeat = report.results[3]
        assert repeat.deduped and repeat.value is report.results[0].value
        assert [r.request for r in report.results] == requests

    def test_without_dedup_every_read_executes_in_order(self, trees):
        a, _ = trees
        server = QueryServer({"a": a}, dedup=False)
        windows = random_windows(3, seed=41)
        requests = [WindowRequest(w, index="a") for w in windows] * 2
        dispatched = spy_dispatch(server)
        server.submit(requests)
        assert dispatched == requests


@pytest.fixture(scope="module")
def batch_tree():
    return build_prtree(BlockStore(), random_rects(1500, seed=41), 16)


@pytest.fixture(scope="module")
def batch_windows():
    return random_windows(12, seed=42)


class TestServerBatchWindows:
    """A server batch of window requests runs one request at a time, in
    arrival order, and answers each exactly as a batch of one would."""

    def test_results_match_per_request_execution(self, batch_tree, batch_windows):
        server = QueryServer(batch_tree)
        requests = [WindowRequest(w) for w in batch_windows]
        got = server.submit(list(requests))
        want = [server.submit([r]).results[0] for r in requests]
        for a, b in zip(got.results, want):
            assert a.value == b.value
            assert a.stats.leaf_reads == b.stats.leaf_reads
            assert a.stats.internal_visits == b.stats.internal_visits
            assert a.stats.reported == b.stats.reported
        assert got.leaf_ios == sum(r.stats.leaf_reads for r in want)

    def test_dedup_still_applies(self, batch_tree, batch_windows):
        server = QueryServer(batch_tree)
        repeated = [WindowRequest(w) for w in batch_windows * 2]
        report = server.submit(repeated)
        assert report.dedup_hits == len(batch_windows)
        for i, result in enumerate(report.results):
            assert result.value == report.results[i % len(batch_windows)].value

    def test_mixed_batches_fall_back_per_request(self, batch_tree, batch_windows):
        w0, w1, w2 = batch_windows[:3]
        report = QueryServer(batch_tree).submit(
            [WindowRequest(w0), CountRequest(w1), WindowRequest(w2)]
        )
        engine = QueryEngine(batch_tree)
        assert report.results[0].value == engine.query(w0)[0]
        assert report.results[1].value == len(engine.query(w1)[0])
        assert report.results[2].value == engine.query(w2)[0]

    def test_single_window_runs_solo(self, batch_tree, batch_windows):
        report = QueryServer(batch_tree).submit([WindowRequest(batch_windows[0])])
        want, _ = QueryEngine(batch_tree).query(batch_windows[0])
        assert report.results[0].value == want


class TestLocalityAndStats:
    def test_logical_ios_independent_of_reorder(self, trees):
        # A query is charged the leaves it visits, so the order a batch
        # runs in never changes its logical I/O: a caller that sorts its
        # batch along x gets the same totals as arrival order.
        a, _ = trees
        windows = random_windows(20, seed=41)
        requests = [WindowRequest(w, index="a") for w in windows]
        by_x = sorted(requests, key=lambda r: r.window.center())
        assert by_x != requests
        plain = QueryServer({"a": a}).submit(requests)
        sorted_ = QueryServer({"a": a}).submit(by_x)
        assert plain.leaf_ios == sorted_.leaf_ios
        assert plain.reported == sorted_.reported

    def test_batch_report_aggregates(self, server):
        windows = random_windows(6, seed=42)
        report = server.submit([WindowRequest(w, index="a") for w in windows])
        assert report.leaf_ios == sum(
            r.stats.leaf_reads for r in report.results
        )
        assert report.reported == sum(
            len(r.value) for r in report.results
        )
        assert report.latency_s > 0
        assert report.throughput_rps > 0

    def test_physical_reads_zero_for_in_memory_trees(self, server):
        report = server.submit(
            [WindowRequest(w, index="a") for w in random_windows(3, seed=43)]
        )
        assert report.physical_reads == 0

    def test_engines_stay_warm_across_batches(self, trees):
        a, _ = trees
        server = QueryServer({"a": a})
        windows = random_windows(4, seed=44)
        first = server.submit([WindowRequest(w, index="a") for w in windows])
        second = server.submit([WindowRequest(w, index="a") for w in windows])
        # Internal nodes were pooled by the first batch.
        assert second.internal_reads == 0
        assert first.internal_reads >= second.internal_reads
        assert server.batches_served == 2


class TestWrites:
    """Insert/delete request kinds: ordering, dedup exemption, and the
    per-batch write-I/O / flushed-page accounting."""

    @pytest.fixture
    def paged(self, tmp_path):
        data = random_rects(600, seed=61)
        tree = build_prtree(BlockStore(), data, 16)
        path = tmp_path / "w.pack"
        pack_tree(tree, path, block_size=4096)
        paged = PagedTree.open(
            path, values=dict(tree.objects), cache_pages=256
        )
        yield paged, data
        paged.close()

    def test_insert_returns_oid_and_is_queryable(self, paged):
        tree, data = paged
        server = QueryServer(tree)
        rect = Rect((0.31, 0.41), (0.32, 0.42))
        report = server.submit(
            [
                InsertRequest(rect, "fresh"),
                WindowRequest(Rect((0.3, 0.4), (0.33, 0.43))),
            ]
        )
        oid = report.results[0].value
        assert tree.objects[oid] == "fresh"
        # The read in the same batch observes the write.
        assert "fresh" in [v for _, v in report.results[1].value]
        assert report.writes == 1
        assert report.write_ios > 0
        assert isinstance(report.results[0].stats, UpdateStats)
        assert report.results[0].stats.writes > 0

    def test_delete_result_reports_found(self, paged):
        tree, data = paged
        server = QueryServer(tree)
        rect, value = data[0]
        report = server.submit(
            [
                DeleteRequest(rect, value),
                DeleteRequest(rect, value),  # second one finds nothing
            ]
        )
        assert report.results[0].value is True
        assert report.results[1].value is False
        assert report.writes == 2
        assert tree.size == len(data) - 1

    def test_delete_of_another_dimension_fails_the_batch(self, paged):
        tree, data = paged
        rect, value = data[0]
        wider = Rect(rect.lo + (0.0,), rect.hi + (1.0,))
        server = QueryServer(tree)
        with pytest.raises(
            ValueError, match="3-d argument against a 2-d index"
        ):
            server.submit([DeleteRequest(wider, value)])
        assert tree.size == len(data)
        assert server.submit([DeleteRequest(rect, value)]).values() == [True]

    def test_identical_inserts_are_never_deduped(self, paged):
        tree, data = paged
        server = QueryServer(tree)
        rect = Rect((0.11, 0.11), (0.12, 0.12))
        report = server.submit([InsertRequest(rect, "dup")] * 5)
        assert report.executed == 5
        assert report.dedup_hits == 0
        assert report.writes == 5
        assert tree.size == len(data) + 5
        oids = [r.value for r in report.results]
        assert len(set(oids)) == 5

    def test_unhashable_write_values_are_fine(self, paged):
        tree, data = paged
        server = QueryServer(tree)
        rect = Rect((0.21, 0.21), (0.22, 0.22))
        report = server.submit(
            [InsertRequest(rect, ["a", "list"]), CountRequest(rect)]
        )
        assert report.results[1].value >= 1

    def test_writes_apply_before_reads(self, paged):
        tree, data = paged
        server = QueryServer(tree)
        rect = Rect((0.61, 0.61), (0.62, 0.62))
        # Read submitted first still observes the later write: batch
        # semantics are writes-first.
        report = server.submit(
            [CountRequest(rect), InsertRequest(rect, "later")]
        )
        assert report.results[0].value >= 1

    def test_the_same_warm_engine_sees_a_later_batchs_insert(self, paged):
        tree, data = paged
        server = QueryServer(tree)
        window = Rect((0.4, 0.4), (0.45, 0.45))
        before = server.submit([WindowRequest(window)])
        engines = dict(server._engines)
        inside = Rect((0.41, 0.41), (0.42, 0.42))
        server.submit([InsertRequest(inside, "inserted")])
        after = server.submit([WindowRequest(window)])
        got = [v for _, v in after.results[0].value]
        want = [v for _, v in before.results[0].value] + ["inserted"]
        assert sorted(map(str, got)) == sorted(map(str, want))
        # No engine was dropped: the one that answered before the write
        # answered after it.
        assert server._engines.keys() == engines.keys()
        assert all(server._engines[k] is e for k, e in engines.items())

    def test_batch_sync_flushes_dirty_pages(self, paged):
        tree, data = paged
        server = QueryServer(tree)
        requests = [
            InsertRequest(Rect((0.5 + i * 0.001, 0.5), (0.5 + i * 0.001 + 0.002, 0.502)), i)
            for i in range(40)
        ]
        report = server.submit(requests)
        assert report.pages_flushed > 0
        # Write-back: far fewer physical page writes than logical write
        # I/Os (write-through would pay one physical write each).
        assert report.pages_flushed < report.write_ios
        assert tree.page_store.dirty_pages() == 0  # batch is a sync point

    def test_sync_writes_disabled_defers_flushing(self, paged):
        tree, data = paged
        server = QueryServer(tree, sync_writes=False)
        report = server.submit(
            [InsertRequest(Rect((0.7, 0.7), (0.71, 0.71)), "x")]
        )
        assert tree.page_store.dirty_pages() > 0
        assert report.pages_flushed == 0
        assert tree.sync() > 0

    def test_mixed_write_read_batch_stays_consistent(self, paged):
        tree, data = paged
        server = QueryServer(tree)
        requests = []
        for i, (rect, value) in enumerate(data[:30]):
            requests.append(DeleteRequest(rect, value))
        for i in range(30):
            x = 0.8 + (i % 6) * 0.01
            y = 0.1 + (i // 6) * 0.01
            requests.append(
                InsertRequest(Rect((x, y), (x + 0.005, y + 0.005)), f"n{i}")
            )
        requests.append(WindowRequest(Rect((0, 0), (1, 1))))
        report = server.submit(requests)
        assert len(report.results[-1].value) == len(data)
        validate_rtree(tree, expect_size=len(data))

    def test_writes_work_on_in_memory_trees_too(self, trees):
        a, _ = trees
        server = QueryServer({"a": a})
        size_before = a.size
        report = server.submit(
            [InsertRequest(Rect((0.5, 0.5), (0.51, 0.51)), "mem", index="a")]
        )
        assert a.size == size_before + 1
        assert report.pages_flushed == 0  # nothing paged behind "a"
        assert report.write_ios > 0
        # Leave the shared fixture as we found it.
        assert a.delete(Rect((0.5, 0.5), (0.51, 0.51)), "mem")

    def test_update_stream_oracle_handles_duplicate_pairs(self, paged):
        from repro.experiments.serving import mixed_update_requests

        tree, data = paged
        rect = Rect((0.9, 0.9), (0.91, 0.91))
        # Two identical (rect, value) pairs; one drawn as a delete must
        # leave exactly one copy in the predicted live set.
        doubled = [(rect, "twin"), (rect, "twin")]
        requests, live = mixed_update_requests(
            doubled, fresh=[], delete_frac=1.0, seed=4
        )
        assert len(requests) == 2  # both copies are deleted eventually
        assert live == []
        requests, live = mixed_update_requests(
            doubled, fresh=[(rect, "other")], delete_frac=0.0, seed=4
        )
        deletes = [r for r in requests if r.kind == "delete"]
        assert live.count((rect, "twin")) == 2 - len(deletes)

    def test_readonly_index_write_error_propagates(self, tmp_path):
        data = random_rects(200, seed=62)
        tree = build_prtree(BlockStore(), data, 16)
        path = tmp_path / "ro.pack"
        pack_tree(tree, path)
        with PagedTree.open(
            path, values=dict(tree.objects), readonly=True
        ) as ro:
            server = QueryServer(ro)
            from repro.storage import StorageError

            with pytest.raises(StorageError, match="read-only"):
                server.submit(
                    [InsertRequest(Rect((0, 0), (1, 1)), "nope")]
                )

    def test_a_failed_write_batch_leaves_the_warm_engine_answering_right(
        self, tmp_path
    ):
        # A write that raises after earlier writes of its batch applied
        # must leave the warm engine reading the updated tree: the same
        # server reads next (the async service runs reads and writes on
        # one server), on the same engine, through the tree's level
        # table.  A tiny page cache makes stale pages diverge from the
        # re-decoded ones.
        data = random_rects(3000, seed=63)
        tree = build_prtree(BlockStore(), data, 16)
        path = tmp_path / "partial.pack"
        pack_tree(tree, path)
        far = Rect((2.0, 2.0), (3.0, 3.0))
        probes = [CountRequest(far), CountRequest(Rect((0, 0), (3, 3)))]
        with PagedTree.open(
            path, values=dict(tree.objects), cache_pages=4
        ) as paged:
            server = QueryServer(paged, sync_writes=False)
            assert server.submit(probes).values() == [0, 3000]  # warm
            engines = dict(server._engines)
            fresh = [
                InsertRequest(
                    Rect((2.0 + i * 0.01, 2.0), (2.1 + i * 0.01, 2.1)), i
                )
                for i in range(40)
            ]
            bad = InsertRequest(Rect((0, 0, 0), (1, 1, 1)), "3-d")
            with pytest.raises(ValueError, match="3-d argument"):
                server.submit(fresh + [bad])
            assert server.submit(probes).values() == [40, 3040]
            assert server._engines.keys() == engines.keys()
            assert all(server._engines[k] is e for k, e in engines.items())

