"""Unit tests for the asyncio serving layer over an in-memory tree."""

import asyncio
import os
import threading

import pytest

from repro import BlockStore, Rect, build_prtree
from repro.server import (
    CountRequest,
    DeleteRequest,
    InsertRequest,
    KNNRequest,
    PointRequest,
    QueryServer,
    WindowRequest,
)
from repro.service import (
    AdmissionError,
    AsyncQueryService,
    ServiceClosed,
)

from tests.conftest import random_rects


@pytest.fixture
def data():
    return random_rects(800, seed=11)


@pytest.fixture
def tree(data):
    return build_prtree(BlockStore(), data, fanout=16)


def run(coro):
    return asyncio.run(coro)


EVERYTHING = Rect((0.0, 0.0), (1.0, 1.0))


def far_insert(i):
    """An insert well outside the unit square the data lives in."""
    return InsertRequest(Rect((2.0 + i, 2.0), (2.1 + i, 2.1)), 9_000 + i)


@pytest.fixture
def packed(tmp_path, data):
    """``(path, values)``: ``data`` packed as one index file."""
    from repro.storage import pack_tree

    oracle = build_prtree(BlockStore(), data, fanout=16)
    path = tmp_path / "gc.pack"
    pack_tree(oracle, path)
    return path, dict(oracle.objects)


async def queue_up(service, requests):
    """Submit without awaiting; every request is in its lane on return.

    Same-turn submission: the dispatcher executes batches on the loop,
    so everything submitted before its next turn is queued when that
    turn comes — one ``sleep(0)`` runs each submit up to its await and
    returns here *before* the dispatcher (woken by the first of them)
    is scheduled.  No thread, sleep or timer is involved.
    """
    depth = service.queue_depth
    tasks = [asyncio.ensure_future(service.submit(r)) for r in requests]
    await asyncio.sleep(0)  # one loop turn: each submit runs to its await
    assert service.queue_depth == depth + len(requests)
    return tasks


def read_mix(count=30, seed=5):
    rects = random_rects(count, seed=seed, max_side=0.2)
    requests = []
    for i, (rect, _) in enumerate(rects):
        if i % 4 == 0:
            requests.append(CountRequest(rect))
        elif i % 4 == 1:
            requests.append(PointRequest(rect.lo))
        elif i % 4 == 2:
            requests.append(KNNRequest(rect.lo, k=3))
        else:
            requests.append(WindowRequest(rect))
    return requests


class TestReads:
    def test_values_match_sync_server(self, tree):
        requests = read_mix()

        async def main():
            async with AsyncQueryService(tree, max_batch=8) as service:
                return await service.submit_many(requests)

        responses = run(main())
        expected = QueryServer(tree).submit(requests).values()
        assert [r.value for r in responses] == expected

    def test_response_latency_fields(self, tree):
        async def main():
            async with AsyncQueryService(tree) as service:
                return await service.submit(
                    WindowRequest(Rect((0.0, 0.0), (0.5, 0.5)))
                )

        response = run(main())
        assert response.latency_s >= response.queue_s >= 0.0
        assert response.engine_s >= 0.0
        assert response.batch_size >= 1

    def test_coalescing_batches_concurrent_clients(self, tree):
        async def main():
            async with AsyncQueryService(tree, max_batch=64) as service:
                responses = await service.submit_many(read_mix(20))
                assert service.stats.batches < 20  # riders shared batches
                return responses

        responses = run(main())
        assert max(r.batch_size for r in responses) > 1

    def test_stats_per_kind_counts(self, tree):
        requests = read_mix(16)

        async def main():
            async with AsyncQueryService(tree) as service:
                await service.submit_many(requests)
                return service.stats

        stats = run(main())
        assert stats.completed == len(requests)
        counts = {s.kind: s.count for s in stats.kind_summaries()}
        assert counts["count"] == 4
        assert counts["knn"] == 4


class TestDispatch:
    """Work-conserving dispatch: a batch is whatever is queued, up to
    ``max_batch``, when the dispatcher's turn comes.

    Deterministic by construction — see :func:`queue_up`.
    """

    def test_lone_read_on_idle_service_ships_alone(self, tree):
        async def main():
            async with AsyncQueryService(tree) as service:
                response = await service.submit(CountRequest(EVERYTHING))
                assert response.batch_size == 1
                assert service.stats.batches == 1

        run(main())

    @pytest.mark.parametrize(
        "queued, sizes", [(5, [5]), (8, [8]), (11, [8, 3]), (19, [8, 8, 3])]
    )
    def test_reads_queued_together_ship_together(self, tree, queued, sizes):
        async def main():
            async with AsyncQueryService(tree, max_batch=8) as service:
                tasks = await queue_up(service, read_mix(queued))
                assert service.stats.batches == 0  # nothing shipped yet
                responses = await asyncio.gather(*tasks)
                assert service.stats.batches == len(sizes)
                return responses

        responses = run(main())
        # FIFO: the first max_batch requests share the first batch.
        expected = [size for size in sizes for _ in range(size)]
        assert [r.batch_size for r in responses] == expected

    def test_write_runs_before_reads_queued_ahead_of_it(self, tree):
        rect = Rect((0.41, 0.41), (0.42, 0.42))
        probe = CountRequest(rect)
        before = QueryServer(tree).submit([probe]).values()[0]

        async def main():
            async with AsyncQueryService(tree, max_batch=8) as service:
                *reads, write = await queue_up(
                    service, [probe] * 3 + [InsertRequest(rect, "late")]
                )
                return await asyncio.gather(write, *reads)

        write, *reads = run(main())
        assert isinstance(write.value, int)
        # The reads were admitted first but executed after the write.
        assert [r.value for r in reads] == [before + 1] * 3

    def test_close_answers_what_is_queued(self, tree):
        requests = read_mix(12)

        async def main():
            service = AsyncQueryService(tree, max_batch=4)
            tasks = await queue_up(service, requests)
            closing = asyncio.ensure_future(service.aclose())
            # One loop turn: the dispatcher ships the first batch and
            # yields, aclose runs up to awaiting the drain.
            await asyncio.sleep(0)
            assert service.queue_depth == 8 and not closing.done()
            with pytest.raises(ServiceClosed):
                await service.submit(CountRequest(EVERYTHING))
            await closing
            assert service.closed
            assert all(task.done() for task in tasks)
            return await asyncio.gather(*tasks)

        responses = run(main())
        expected = QueryServer(tree).submit(requests).values()
        assert [r.value for r in responses] == expected

    def test_every_batch_yields_to_the_loop(self, tree):
        # Fairness: the loop is held for at most one max_batch batch.
        # With ten batches queued, a coroutine that only ever yields
        # gets a turn between any two of them.
        async def main():
            async with AsyncQueryService(tree, max_batch=4) as service:
                tasks = await queue_up(service, read_mix(40))
                seen = []

                async def bystander():
                    while service.stats.batches < 10:
                        seen.append(service.stats.batches)
                        await asyncio.sleep(0)

                await asyncio.gather(bystander(), *tasks)
                return seen

        seen = run(main())
        assert seen[0] <= 1 and seen[-1] == 9
        assert all(b - a <= 1 for a, b in zip(seen, seen[1:]))


class TestWrites:
    def test_read_your_writes_after_await(self, tree):
        rect = Rect((0.31, 0.31), (0.32, 0.32))

        async def main():
            async with AsyncQueryService(tree) as service:
                inserted = await service.submit(InsertRequest(rect, "fresh"))
                assert isinstance(inserted.value, int)
                seen = await service.submit(WindowRequest(rect))
                assert any(v == "fresh" for _, v in seen.value)
                removed = await service.submit(DeleteRequest(rect, "fresh"))
                assert removed.value is True
                gone = await service.submit(WindowRequest(rect))
                assert not any(v == "fresh" for _, v in gone.value)

        run(main())

    def test_write_order_is_admission_order(self, tree):
        # Fire interleaved inserts/deletes of the same entry without
        # awaiting; FIFO write order means exactly the serial outcome.
        rect = Rect((0.71, 0.71), (0.72, 0.72))
        size_before = tree.size

        async def main():
            async with AsyncQueryService(tree, max_batch=4) as service:
                ops = []
                for round_ in range(6):
                    ops.append(service.submit(InsertRequest(rect, "dup")))
                    if round_ % 2:
                        ops.append(
                            service.submit(DeleteRequest(rect, "dup"))
                        )
                return await asyncio.gather(*ops)

        responses = run(main())
        deletes = [
            r for r in responses if isinstance(r.request, DeleteRequest)
        ]
        assert all(r.value is True for r in deletes)  # always one to remove
        assert tree.size == size_before + 6 - 3

    def test_writes_visible_to_unawaited_later_reads(self, tree):
        # A read admitted after a write (same submission burst) may be
        # batched after it; at minimum the final state must hold.
        rect = Rect((0.11, 0.83), (0.12, 0.84))

        async def main():
            async with AsyncQueryService(tree) as service:
                await asyncio.gather(
                    service.submit(InsertRequest(rect, "w")),
                    service.submit(CountRequest(Rect((0, 0), (1, 1)))),
                )
                final = await service.submit(WindowRequest(rect))
                assert any(v == "w" for _, v in final.value)

        run(main())


class TestAdmission:
    def test_reject_mode_fast_fails(self, tree):
        async def main():
            async with AsyncQueryService(
                tree,
                max_batch=4,
                max_pending_reads=3,
                admission="reject",
            ) as service:
                tasks = [
                    asyncio.ensure_future(service.submit(request))
                    for request in read_mix(40)
                ]
                await asyncio.sleep(0)  # every submit admitted or refused
                assert service.queue_depth == 3
                results = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
                rejected = [
                    r for r in results if isinstance(r, AdmissionError)
                ]
                completed = [
                    r for r in results if not isinstance(r, Exception)
                ]
                # The lane held exactly its bound; the rest was shed.
                assert len(completed) == 3 and len(rejected) == 37
                assert service.stats.rejected_reads == len(rejected)
                assert all(e.lane == "read" for e in rejected)
                # The service stays serviceable after shedding.
                ok = await service.submit(
                    CountRequest(Rect((0.0, 0.0), (1.0, 1.0)))
                )
                assert isinstance(ok.value, int)

        run(main())

    def test_write_lane_has_its_own_bound(self, tree):
        async def main():
            async with AsyncQueryService(
                tree,
                max_pending_writes=1,
                admission="reject",
            ) as service:
                rect = Rect((0.5, 0.5), (0.51, 0.51))
                tasks = [
                    asyncio.ensure_future(
                        service.submit(InsertRequest(rect, f"v{i}"))
                    )
                    for i in range(10)
                ]
                results = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
                rejected = [
                    r for r in results if isinstance(r, AdmissionError)
                ]
                assert rejected and all(
                    e.lane == "write" for e in rejected
                )
                assert service.stats.rejected_writes == len(rejected)

        run(main())

    def test_backpressure_mode_completes_everything(self, tree):
        async def main():
            async with AsyncQueryService(
                tree,
                max_batch=4,
                max_pending_reads=3,
                admission="backpressure",
            ) as service:
                responses = await service.submit_many(read_mix(40))
                assert len(responses) == 40
                assert service.stats.rejected == 0
                # The bound held: depth never exceeded the lane limit.
                assert service.stats.max_queue_depth <= 3

        run(main())


class TestCancellation:
    def test_cancelled_client_does_not_break_batch_mates(self, tree):
        # A client that times out while queued cancels its future; the
        # batch must still complete for everyone else, write batches
        # included.
        async def main():
            async with AsyncQueryService(tree, max_batch=8) as service:
                doomed, write, *mates = await queue_up(
                    service,
                    [
                        WindowRequest(EVERYTHING),
                        InsertRequest(Rect((0.9, 0.9), (0.91, 0.91)), "c"),
                    ]
                    + [CountRequest(EVERYTHING)] * 4,
                )
                doomed.cancel()
                write.cancel()
                responses = await asyncio.gather(*mates)
                assert doomed.cancelled() and write.cancelled()
                assert all(isinstance(r.value, int) for r in responses)
                # The dispatcher survived; later requests still served.
                later = await service.submit(
                    CountRequest(Rect((0.0, 0.0), (1.0, 1.0)))
                )
                assert isinstance(later.value, int)

        run(main())


class TestLifecycle:
    def test_submit_after_close_raises(self, tree):
        async def main():
            service = AsyncQueryService(tree)
            async with service:
                await service.submit(
                    CountRequest(Rect((0.0, 0.0), (1.0, 1.0)))
                )
            with pytest.raises(ServiceClosed):
                await service.submit(
                    CountRequest(Rect((0.0, 0.0), (1.0, 1.0)))
                )

        run(main())

    def test_close_drains_admitted_requests(self, tree):
        async def main():
            service = AsyncQueryService(tree)
            service_started = False
            async with service:
                service_started = True
                tasks = [
                    asyncio.ensure_future(service.submit(request))
                    for request in read_mix(12)
                ]
                await asyncio.sleep(0)  # let tasks enqueue
            assert service_started
            responses = await asyncio.gather(*tasks)
            assert len(responses) == 12
            assert all(r.value is not None for r in responses)

        run(main())

    def test_aclose_idempotent(self, tree):
        async def main():
            service = AsyncQueryService(tree)
            service.start()
            await service.aclose()
            await service.aclose()
            assert service.closed

        run(main())

    def test_invalid_parameters(self, tree):
        with pytest.raises(ValueError):
            AsyncQueryService(tree, max_batch=0)
        with pytest.raises(ValueError):
            AsyncQueryService(tree, max_pending_reads=0)
        with pytest.raises(ValueError):
            AsyncQueryService(tree, admission="maybe")
        with pytest.raises(ValueError):
            AsyncQueryService(tree, executor_workers=0)


class TestGroupCommit:
    """Group commit: durability cadence decoupled from write batches.

    ``sync_writes=True`` stalls every write batch on an fsync;
    ``sync_every_n`` / ``sync_interval_s`` instead commit the mutated
    indexes on the commit thread, beside reads (docs/durability.md).  These
    tests pin the cadence, the final commit at close, and the knobs'
    mutual exclusion — against a real file-backed index, whose
    ``commit_epoch`` counts exactly the commits that reached disk.
    """

    _insert = staticmethod(far_insert)

    def test_sync_writes_excludes_group_commit(self, tree):
        with pytest.raises(ValueError, match="group commit"):
            AsyncQueryService(tree, sync_writes=True, sync_every_n=4)
        with pytest.raises(ValueError, match="group commit"):
            AsyncQueryService(tree, sync_writes=True, sync_interval_s=1.0)
        with pytest.raises(ValueError):
            AsyncQueryService(tree, sync_every_n=0)
        with pytest.raises(ValueError):
            AsyncQueryService(tree, sync_interval_s=0.0)

    def test_every_n_batches_commits(self, packed):
        from repro.storage import PagedTree

        path, values = packed

        async def main(paged):
            service = AsyncQueryService(
                paged, max_batch=4, sync_every_n=2
            )
            async with service:
                for i in range(4):  # awaited singly: four write batches
                    await service.submit(self._insert(i))
            return service.stats

        paged = PagedTree.open(path, values=values)
        try:
            stats = run(main(paged))
        finally:
            paged.close()
        # Two cadence commits (after batches 2 and 4); close found
        # nothing left to flush.
        assert stats.commits == 2
        assert stats.committed_batches == 4
        assert stats.commit_failures == 0

        with PagedTree.open(path, readonly=True) as survivor:
            assert survivor.size == len(values) + 4
            # pack epoch + exactly the two group commits
            assert survivor.page_store.file_store.commit_epoch == 3

    def test_close_commits_the_tail(self, packed):
        from repro.storage import PagedTree

        path, values = packed

        async def main(paged):
            service = AsyncQueryService(
                paged, max_batch=4, sync_every_n=100
            )
            async with service:
                for i in range(3):
                    await service.submit(self._insert(i))
            return service.stats

        paged = PagedTree.open(path, values=values)
        try:
            stats = run(main(paged))
        finally:
            paged.close()
        assert stats.commits == 1  # only the final commit at close
        assert stats.committed_batches == 3
        with PagedTree.open(path, readonly=True) as survivor:
            assert survivor.size == len(values) + 3

    def test_interval_cadence_fires_while_idle(self, packed):
        from repro.storage import PagedTree

        path, values = packed

        async def main(paged):
            service = AsyncQueryService(
                paged,
                max_batch=4,
                sync_interval_s=0.05,
            )
            async with service:
                await service.submit(self._insert(0))
                for _ in range(40):  # idle: the timer must fire alone
                    await asyncio.sleep(0.025)
                    if service.stats.commits:
                        break
                mid_run_commits = service.stats.commits
            return mid_run_commits, service.stats

        paged = PagedTree.open(path, values=values)
        try:
            mid_run_commits, stats = run(main(paged))
        finally:
            paged.close()
        assert mid_run_commits >= 1  # fired before close, not at it
        assert stats.committed_batches == 1

    def test_reads_are_never_stalled_by_cadence(self, packed):
        # The overlap that remains: with the commit thread parked inside
        # sync(), reads are answered; the next write batch waits for the
        # commit, and so does a read admitted behind that write.
        from repro.storage import PagedTree

        path, values = packed
        release = threading.Event()
        order = []

        async def main(paged):
            loop = asyncio.get_running_loop()
            entered = asyncio.Event()
            sync, insert = paged.sync, paged.insert

            def parked_sync():
                loop.call_soon_threadsafe(entered.set)
                if not release.wait(timeout=10.0):
                    raise TimeoutError("the test never released the commit")
                flushed = sync()
                order.append("sync")
                return flushed

            def noted_insert(rect, value):
                order.append("insert")
                return insert(rect, value)

            paged.sync, paged.insert = parked_sync, noted_insert
            service = AsyncQueryService(paged, max_batch=8, sync_every_n=1)
            async with service:
                await service.submit(self._insert(0))
                await asyncio.wait_for(entered.wait(), timeout=10.0)
                for response in await service.submit_many(
                    [WindowRequest(EVERYTHING)] * 3
                ):
                    assert len(response.value) == len(values)
                assert service.stats.commits == 0  # still parked

                (write,) = await queue_up(service, [self._insert(1)])
                while service.queue_depth:
                    await asyncio.sleep(0)  # until the write is drained
                (behind,) = await queue_up(
                    service, [CountRequest(EVERYTHING)]
                )
                for _ in range(5):
                    await asyncio.sleep(0)
                assert not write.done() and not behind.done()
                assert service.queue_depth == 1 and order == ["insert"]

                release.set()
                await write
                assert (await behind).value == len(values)
            del paged.sync, paged.insert  # close() syncs after the loop
            return service.stats

        paged = PagedTree.open(path, values=values)
        try:
            stats = run(main(paged))
        finally:
            release.set()
            paged.close()
        # The second insert landed only after the parked commit returned.
        assert order[:3] == ["insert", "sync", "insert"]
        assert stats.commits == 2 and stats.completed == 6


class TestThreads:
    """One thread runs the engine; only commits leave it."""

    @pytest.fixture(params=["paged", "family"])
    def index(self, request, tmp_path, data):
        """``(open, values)`` over a PagedTree or a K=4 family."""
        from repro.storage import PagedTree, ShardedTree, pack_tree, shard_pack

        oracle = build_prtree(BlockStore(), data, fanout=16)
        if request.param == "paged":
            path, opener = tmp_path / "t.pack", PagedTree.open
            pack_tree(oracle, path)
        else:
            path, opener = tmp_path / "t.manifest", ShardedTree.open
            shard_pack(oracle, path, shards=4)
        return (lambda **kw: opener(path, **kw)), dict(oracle.objects)

    @staticmethod
    def _spy(obj, name, seen):
        method = getattr(obj, name)

        def spied(*args):
            seen.add(threading.get_ident())
            return method(*args)

        setattr(obj, name, spied)

    def test_engine_on_the_loop_sync_on_one_other(self, index):
        open_index, values = index
        here = threading.get_ident()  # asyncio.run: the loop runs here
        reads, writes, syncs = set(), set(), set()

        def value(oid):
            reads.add(threading.get_ident())
            return values[oid]

        async def serve(tree, requests, **kwargs):
            async with AsyncQueryService(tree, max_batch=4, **kwargs) as service:
                for request in requests:  # awaited singly: many batches
                    await service.submit(request)
                return service.stats

        with open_index(values=value, readonly=True) as tree:
            run(serve(tree, [WindowRequest(EVERYTHING)] + read_mix(12)))
        assert reads == {here}

        updates = [far_insert(i) for i in range(6)]
        updates += [DeleteRequest(r.rect, r.value) for r in updates[:3]]
        with open_index(values=values) as tree:
            self._spy(tree, "insert", writes)
            self._spy(tree, "delete", writes)
            self._spy(tree, "sync", syncs)
            stats = run(serve(tree, updates, sync_every_n=2))
            committing = set(syncs)  # close() syncs again, on this thread
        assert writes == {here}
        assert stats.commits == 5  # four on the cadence, one at close
        assert len(committing) == 1 and here not in committing

    def test_sync_writes_never_fsyncs_on_the_loop(
        self, index, monkeypatch
    ):
        open_index, values = index
        here = threading.get_ident()
        release = threading.Event()
        fsyncs = []

        async def main(tree):
            loop = asyncio.get_running_loop()
            entered = asyncio.Event()

            def parked_fsync(fd):
                fsyncs.append(threading.get_ident())
                loop.call_soon_threadsafe(entered.set)
                if not release.wait(timeout=10.0):
                    raise TimeoutError("the test never released the fsync")

            monkeypatch.setattr(os, "fsync", parked_fsync)
            async with AsyncQueryService(tree, sync_writes=True) as service:
                write = asyncio.ensure_future(service.submit(far_insert(0)))
                await asyncio.wait_for(entered.wait(), timeout=10.0)
                # Applied, not yet answered — and the loop is free.
                for _ in range(5):
                    await asyncio.sleep(0)
                assert not write.done()
                release.set()
                assert isinstance((await write).value, int)
                assert service.stats.commits == 0  # not a group commit
            monkeypatch.undo()

        with open_index(values=values) as tree:
            try:
                run(main(tree))
            finally:
                release.set()
        assert fsyncs and here not in fsyncs

    def test_one_thread_beside_the_loop(self, packed):
        from repro.storage import PagedTree

        path, values = packed

        async def main(paged):
            baseline = threading.active_count()
            async with AsyncQueryService(paged, sync_every_n=1) as service:
                assert threading.active_count() == baseline
                await service.submit_many(read_mix(20))
                assert threading.active_count() == baseline
                await service.submit(far_insert(0))
                # The second write waits for the first one's commit.
                await service.submit(far_insert(1))
                assert service.stats.commits >= 1
                assert threading.active_count() == baseline + 1
            assert threading.active_count() == baseline

        with PagedTree.open(path, values=values) as paged:
            run(main(paged))
