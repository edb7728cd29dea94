"""Concurrency stress: the async service versus a serial oracle.

Several asyncio clients hammer one K=4 sharded index with interleaved
reads, inserts and deletes.  Each client owns a vertical strip of the
unit square and confines its writes (and its oracle-checked reads) to
that strip, so every read's expected answer is computable from the
initial data plus that client's own serial history — regardless of how
the service interleaves clients.  After the storm, the family must
equal the union of the per-client oracles and validate from a cold
reopen.  A second test checks the admission-control failure mode at a
tiny queue bound: load is shed cleanly, everything admitted completes.
"""

import asyncio

import pytest

from repro import BlockStore, Rect, build_prtree
from repro.rtree.validate import validate_rtree
from repro.server import (
    ContainmentRequest,
    CountRequest,
    DeleteRequest,
    InsertRequest,
    WindowRequest,
)
from repro.service import AdmissionError, AsyncQueryService
from repro.storage import ShardedTree, shard_pack

from tests.conftest import random_rects

N_CLIENTS = 6
OPS_PER_CLIENT = 18


@pytest.fixture
def family(tmp_path):
    data = random_rects(4000, seed=91, max_side=0.01)
    tree = build_prtree(BlockStore(), data, fanout=16)
    manifest = tmp_path / "stress.manifest"
    shard_pack(tree, manifest, shards=4)
    with ShardedTree.open(manifest, values=dict(tree.objects)) as handle:
        yield handle, data, manifest


def _strip(client: int) -> tuple[float, float]:
    """Client ``client``'s owned x-range, with a margin so no client's
    rectangles straddle a neighbour's strip."""
    width = 1.0 / N_CLIENTS
    return client * width + 0.05 * width, (client + 1) * width - 0.05 * width


class _Oracle:
    """Brute-force serial model of one client's view of its strip."""

    def __init__(self, initial, lo_x, hi_x):
        self.initial = list(initial)  # static: nobody mutates others' data
        self.mine: list[tuple[Rect, str]] = []
        self.lo_x, self.hi_x = lo_x, hi_x

    def live(self):
        return self.initial + self.mine

    def window_matches(self, window):
        return sorted(
            (pair for pair in self.live() if window.intersects(pair[0])),
            key=repr,
        )

    def contained(self, window):
        return sorted(
            (pair for pair in self.live() if window.contains_rect(pair[0])),
            key=repr,
        )


async def _client(service, client_id, initial_data, failures):
    lo_x, hi_x = _strip(client_id)
    # Everything initially intersecting the strip, straddlers included:
    # the initial data is static (no client deletes another's entries),
    # so it answers strip-window reads deterministically.
    strip_window = Rect((lo_x, 0.0), (hi_x, 1.0))
    strip_initial = [
        (rect, value)
        for rect, value in initial_data
        if strip_window.intersects(rect)
    ]
    oracle = _Oracle(strip_initial, lo_x, hi_x)
    span = hi_x - lo_x

    def rect_at(i: int) -> Rect:
        x = lo_x + (0.1 + 0.8 * ((i * 37) % 100) / 100.0) * span
        y = 0.05 + 0.9 * ((i * 53) % 100) / 100.0
        return Rect((x, y), (min(x + 0.004, hi_x), y + 0.004))

    def check(label, got, want):
        if got != want:
            failures.append(
                f"client {client_id} {label}: got {got!r:.80}, "
                f"expected {want!r:.80}"
            )

    for i in range(OPS_PER_CLIENT):
        kind = i % 6
        if kind in (0, 3):
            rect = rect_at(i)
            value = f"c{client_id}-{i}"
            response = await service.submit(InsertRequest(rect, value))
            assert isinstance(response.value, int)
            oracle.mine.append((rect, value))
        elif kind == 1:
            window = Rect((lo_x, 0.0), (hi_x, 1.0))
            response = await service.submit(WindowRequest(window))
            got = sorted(
                ((r, v) for r, v in response.value), key=repr
            )
            check("window", got, oracle.window_matches(window))
        elif kind == 2:
            window = Rect((lo_x, 0.2), (hi_x, 0.8))
            response = await service.submit(CountRequest(window))
            check(
                "count",
                response.value,
                len(oracle.window_matches(window)),
            )
        elif kind == 4 and oracle.mine:
            rect, value = oracle.mine.pop(0)
            response = await service.submit(DeleteRequest(rect, value))
            if response.value is not True:
                failures.append(
                    f"client {client_id}: delete of own entry missed"
                )
        else:
            window = Rect((lo_x, 0.0), (hi_x, 1.0))
            response = await service.submit(ContainmentRequest(window))
            got = sorted(((r, v) for r, v in response.value), key=repr)
            check("containment", got, oracle.contained(window))
        if i % 5 == client_id % 5:
            await asyncio.sleep(0)  # shake up interleavings
    return oracle


class TestConcurrentClientsMatchSerialOracle:
    def test_interleaved_reads_and_writes(self, family, tmp_path):
        handle, data, manifest = family

        async def main():
            failures: list[str] = []
            async with AsyncQueryService(handle, max_batch=16) as service:
                oracles = await asyncio.gather(
                    *(
                        _client(service, c, data, failures)
                        for c in range(N_CLIENTS)
                    )
                )
                return failures, oracles, service.stats

        failures, oracles, stats = asyncio.run(main())
        assert not failures, failures[:5]
        assert stats.completed == N_CLIENTS * OPS_PER_CLIENT

        # Global final state: initial data plus every client's live
        # inserts (each client touched only its own strip).
        expected_mine = sorted(
            (pair for oracle in oracles for pair in oracle.mine), key=repr
        )
        got_mine = sorted(
            (
                (rect, value)
                for rect, value in handle.all_data()
                if isinstance(value, str) and value.startswith("c")
            ),
            key=repr,
        )
        assert got_mine == expected_mine
        assert handle.size == len(data) + len(expected_mine)

        # The family still validates after a sync + cold reopen.
        handle.sync()
        merged = {}
        for shard in handle.shards:
            merged.update(shard.objects)
        with ShardedTree.open(
            manifest, values=merged, readonly=True
        ) as cold:
            assert cold.size == handle.size
            for shard in cold.shards:
                validate_rtree(shard)


class TestAdmissionAtTinyBound:
    def test_flood_sheds_cleanly_and_admitted_complete(self, family):
        handle, data, _ = family
        window = Rect((0.2, 0.2), (0.4, 0.4))

        async def main():
            async with AsyncQueryService(
                handle,
                max_batch=4,
                max_pending_reads=5,
                max_pending_writes=2,
                admission="reject",
            ) as service:
                requests = [CountRequest(window) for _ in range(60)]
                requests += [
                    InsertRequest(
                        Rect((0.5 + i * 0.001, 0.5), (0.501 + i * 0.001, 0.501)),
                        f"flood{i}",
                    )
                    for i in range(20)
                ]
                tasks = [
                    asyncio.ensure_future(service.submit(request))
                    for request in requests
                ]
                results = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
                return results, service.stats

        results, stats = asyncio.run(main())
        rejected = [r for r in results if isinstance(r, AdmissionError)]
        completed = [r for r in results if not isinstance(r, Exception)]
        unexpected = [
            r
            for r in results
            if isinstance(r, Exception) and not isinstance(r, AdmissionError)
        ]
        assert not unexpected, unexpected[:3]
        assert rejected, "a 5/2 queue bound must shed an 80-request flood"
        assert len(rejected) + len(completed) == 80
        assert stats.rejected == len(rejected)
        assert stats.max_queue_depth <= 5 + 2
        # Every admitted read answered with the true count at its
        # execution point: the index only grows under this flood, so
        # counts are between the initial and final state.
        initial = sum(1 for rect, _ in data if window.intersects(rect))
        for response in completed:
            if isinstance(response.request, CountRequest):
                assert response.value >= initial
