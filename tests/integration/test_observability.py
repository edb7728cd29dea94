"""End-to-end observability: attribution exactness, span coverage, export.

Three contracts from docs/observability.md, checked against a real
packed index:

* **Attribution is exact** — with 100% sampling, summing every trace's
  I/O ledger reproduces the shared ``IOCounters`` /
  ``PageCacheStats`` deltas for the run byte-for-byte (attribute, don't
  re-count).
* **No bleed between overlapping batches** — two batches in flight on
  one shared paged handle each report exactly the I/O they caused
  (the regression the per-batch tap fixed: boundary deltas on shared
  counters credited other batches' traffic).
* **Spans tell the whole story** — every traced request's service
  spans (admission/queue/coalesce-or-commit-wait/execute) sum to at least
  95% of its end-to-end latency, and the exported Chrome-trace file
  parses with clean nesting.
"""

import asyncio
import random
import threading

import pytest

from repro.experiments.serving import mixed_requests, pack_index
from repro.geometry.rect import Rect
from repro.obs import (
    MetricsRegistry,
    SlowQueryLog,
    TraceWriter,
    Tracer,
    activate_trace,
    check_span_nesting,
    load_trace_events,
)
from repro.server import DeleteRequest, InsertRequest, QueryServer
from repro.service import AsyncQueryService
from repro.storage import PagedTree, open_index

N = 6_000
SEED = 0

#: The service spans that partition a request's end-to-end window.
SERVICE_SPANS = {"admission", "queue", "coalesce", "commit-wait", "execute"}


def mixed_stream(bounds, count, write_frac, seed):
    """The read mix with ``write_frac`` writes interleaved: inserts of
    small fresh rectangles, and deletes of rectangles the stream itself
    inserted earlier."""
    rng = random.Random(seed)
    side = tuple((hi - lo) * 0.002 for lo, hi in zip(bounds.lo, bounds.hi))
    stream, inserted = [], []
    for read in mixed_requests(bounds, count=count, seed=seed):
        if rng.random() >= write_frac:
            stream.append(read)
        elif inserted and rng.random() < 0.5:
            stream.append(
                DeleteRequest(*inserted.pop(rng.randrange(len(inserted))))
            )
        else:
            lo = tuple(
                a + rng.random() * (b - a) * 0.99
                for a, b in zip(bounds.lo, bounds.hi)
            )
            pair = (
                Rect(lo, tuple(c + s for c, s in zip(lo, side))),
                f"obs-{len(stream)}",
            )
            inserted.append(pair)
            stream.append(InsertRequest(*pair))
    return stream


async def paced(service, stream, rate):
    """Submit ``stream`` at ``rate`` requests per second without waiting
    for answers; returns every outcome (a response or the exception)."""
    tasks = []
    for request in stream:
        tasks.append(asyncio.ensure_future(service.submit(request)))
        await asyncio.sleep(1.0 / rate)
    return await asyncio.gather(*tasks, return_exceptions=True)


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("observability")
    path = tmp / "index.pack"
    pack_index(path, variant="PR", dataset="tiger-east", n=N, seed=SEED)
    return path


class TestOverlappingBatchAttribution:
    def test_concurrent_batches_do_not_bleed(self, index_path):
        bounds_probe = PagedTree.open(index_path, cache_pages=64)
        bounds = bounds_probe.root().mbr()
        bounds_probe.close()

        batch_a = mixed_requests(bounds, count=150, seed=SEED + 1)
        batch_b = mixed_requests(bounds, count=150, seed=SEED + 2)

        # Solo baseline: batch A's logical I/O is a property of the
        # tree and the requests, independent of cache state or what
        # else is in flight.
        with PagedTree.open(index_path, cache_pages=64) as tree:
            solo = QueryServer(tree).submit(batch_a)

        # Now A and B overlap on one shared paged handle (two servers,
        # shared page cache and counters — the bleed scenario).
        with PagedTree.open(index_path, cache_pages=64) as tree:
            store = tree.page_store
            counters_before = store.counters.snapshot()
            stats_before = store.stats.snapshot()
            servers = [QueryServer(tree), QueryServer(tree)]
            reports = [None, None]
            barrier = threading.Barrier(2)

            def run(i, batch):
                barrier.wait()
                reports[i] = servers[i].submit(batch)

            threads = [
                threading.Thread(target=run, args=(0, batch_a)),
                threading.Thread(target=run, args=(1, batch_b)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            counters_delta = store.counters.snapshot() - counters_before
            stats_after = store.stats.snapshot()

        report_a, report_b = reports
        # A's attributed I/O is what A alone would cost — B's traffic
        # never bleeds in, even though both ran on shared counters.
        assert report_a.io["reads"] == solo.io["reads"]
        assert report_a.leaf_ios == solo.leaf_ios

        # And the two batches' attributed slices partition the shared
        # deltas exactly: nothing lost, nothing double-counted.
        assert (
            report_a.io["reads"] + report_b.io["reads"]
            == counters_delta.reads
        )
        assert (
            report_a.physical_reads + report_b.physical_reads
            == stats_after.misses - stats_before.misses
        )
        assert (
            report_a.io["misses"] + report_b.io["misses"]
            == stats_after.misses - stats_before.misses
        )


class TestEndToEndTracing:
    @pytest.fixture(scope="class")
    def run(self, index_path, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("e2e-trace")
        trace_path = tmp / "trace.jsonl"
        writer = TraceWriter(trace_path)
        tracer = Tracer(writer, sample_rate=1.0, keep_finished=True)
        registry = MetricsRegistry()
        slow_log = SlowQueryLog(threshold_s=0.0)

        async def drive(tree, bounds):
            service = AsyncQueryService(
                tree,
                max_batch=32,
                admission="backpressure",
                tracer=tracer,
                metrics=registry,
                slow_log=slow_log,
            )
            stream = mixed_stream(
                bounds, count=150, write_frac=0.15, seed=SEED + 3
            )
            async with service:
                return await paced(service, stream, 2000.0)

        with PagedTree.open(index_path, cache_pages=64) as tree:
            store = tree.page_store
            # The bounds probe peeks the root block; keep it out of the
            # measured window so every miss in the delta belongs to a
            # request.
            bounds = tree.root().mbr()
            counters_before = store.counters.snapshot()
            stats_before = store.stats.snapshot()
            outcomes = asyncio.run(drive(tree, bounds))
            counters_delta = store.counters.snapshot() - counters_before
            misses_delta = store.stats.misses - stats_before.misses
        writer.close()
        return outcomes, tracer, registry, slow_log, trace_path, (
            counters_delta,
            misses_delta,
        )

    def test_every_completed_request_is_traced(self, run):
        outcomes, tracer, *_ = run
        assert len(outcomes) == 150
        assert not [o for o in outcomes if isinstance(o, BaseException)]
        assert tracer.emitted == 150
        assert len(tracer.finished) == 150

    def test_attributed_io_matches_shared_counters_exactly(self, run):
        _, tracer, _, _, _, (counters_delta, misses_delta) = run
        traced_reads = sum(t.io.reads for t in tracer.finished)
        traced_writes = sum(t.io.writes for t in tracer.finished)
        traced_misses = sum(t.io.misses for t in tracer.finished)
        assert traced_reads == counters_delta.reads
        assert traced_writes == counters_delta.writes
        assert traced_misses == misses_delta
        assert traced_reads > 0  # the run actually did I/O

    def test_service_spans_cover_the_request_window(self, run):
        _, tracer, *_ = run
        for trace in tracer.finished:
            covered = sum(
                span.duration_s
                for span in trace.spans
                if span.name in SERVICE_SPANS
            )
            assert covered >= 0.95 * trace.duration_s, (
                trace,
                [s.name for s in trace.spans],
            )

    def test_exported_file_parses_and_nests(self, run):
        *_, trace_path, _ = run
        events = load_trace_events(trace_path)
        assert check_span_nesting(events) == []
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert {"admission", "queue", "execute"} <= names
        assert any(name.startswith("request:") for name in names)
        # Engine-level spans nest under execute for read kinds.
        assert any(name.startswith("engine:") for name in names)
        requests = [e for e in events if e["name"].startswith("request:")]
        assert len(requests) == 150
        assert all("io" in e["args"] for e in requests)

    def test_metrics_registry_has_per_kind_series(self, run):
        _, _, registry, *_ = run
        text = registry.render_prometheus()
        assert 'repro_request_latency_seconds{kind="window"' in text
        assert "repro_requests_completed_total 150" in text
        assert "repro_index_logical_ios_total" in text

    def test_recovery_metrics_exported_per_index_file(self, run):
        # The durability layer's open-time facts (docs/durability.md)
        # ride along on every metrics snapshot: which epoch the file
        # recovered to, which header slot carried it, and how many
        # uncommitted shadow blocks rollback discarded.
        _, _, registry, *_ = run
        text = registry.render_prometheus()
        labels = '{index="default",shard="-"}'
        assert f"repro_recovery_epoch{labels}" in text
        assert f"repro_recovery_header_slot{labels}" in text
        assert f"repro_recovery_rolled_back_blocks{labels} 0" in text

    def test_slow_log_saw_every_completion(self, run):
        *_, slow_log, _, _ = run
        assert slow_log.total == 150
        record = slow_log.records()[-1]
        assert record.io is not None
        assert record.trace_id is not None


class TestShardedServiceExport:
    def test_family_trace_nests_and_metrics_carry_shard_series(
        self, tmp_path
    ):
        # A traced, metered service over a K=4 family: per-shard spans
        # land on their own tracks and still nest, and the registry
        # carries the per-kind latency and per-shard read series.
        index = tmp_path / "k4.manifest"
        pack_index(index, n=4000, shards=4, seed=SEED)
        trace_path = tmp_path / "k4.jsonl"
        registry = MetricsRegistry()

        async def drive(family):
            stream = mixed_requests(family.root().mbr(), count=100, seed=7)
            with TraceWriter(trace_path) as writer:
                async with AsyncQueryService(
                    family,
                    admission="backpressure",
                    tracer=Tracer(writer, sample_rate=1.0),
                    metrics=registry,
                    slow_log=SlowQueryLog(threshold_s=0.05),
                ) as service:
                    return await paced(service, stream, 1000.0)

        with open_index(index, readonly=True) as family:
            outcomes = asyncio.run(drive(family))
        assert not [o for o in outcomes if isinstance(o, BaseException)]
        events = load_trace_events(trace_path)
        assert check_span_nesting(events) == []
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert {"admission", "queue", "execute"} <= names
        assert any(name.startswith("shard:") for name in names)
        requests = [e for e in events if e["name"].startswith("request:")]
        assert len(requests) == 100
        assert all("io" in e["args"] for e in requests)
        prom = registry.render_prometheus()
        assert (
            'repro_request_latency_seconds{kind="window",quantile="0.99"}'
            in prom
        )
        assert "repro_requests_completed_total 100" in prom
        assert "repro_shard_logical_reads_total" in prom


class TestRecoverySpan:
    def test_open_records_a_recovery_span(self, index_path):
        """A traced open reports its recovery verdict as a span."""
        tracer = Tracer(sample_rate=1.0, keep_finished=True)
        trace = tracer.begin("open", kind="admin")
        with activate_trace(trace):
            PagedTree.open(index_path, cache_pages=8).close()
        tracer.finish(trace)
        spans = [s for s in trace.spans if s.name == "recovery"]
        assert len(spans) == 1
        span = spans[0]
        assert span.cat == "storage"
        assert span.args["epoch"] >= 1  # pack_tree commits at least once
        assert span.args["header_slot"] in (0, 1)
        assert span.args["rolled_back_blocks"] == 0  # clean shutdown
