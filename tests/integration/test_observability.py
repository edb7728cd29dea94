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
import threading

import pytest

from repro.experiments.serving import (
    mixed_requests,
    mixed_service_stream,
    pack_index,
)
from repro.obs import (
    MetricsRegistry,
    SlowQueryLog,
    TraceWriter,
    Tracer,
    activate_trace,
    check_span_nesting,
    load_trace_events,
)
from repro.server import QueryServer
from repro.service import AsyncQueryService, open_loop
from repro.storage import PagedTree

N = 6_000
SEED = 0

#: The service spans that partition a request's end-to-end window.
SERVICE_SPANS = {"admission", "queue", "coalesce", "commit-wait", "execute"}


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
            stream = mixed_service_stream(
                bounds, count=150, write_frac=0.15, seed=SEED + 3
            )
            async with service:
                report = await open_loop(service, stream, 2000.0, seed=1)
            return report

        with PagedTree.open(index_path, cache_pages=64) as tree:
            store = tree.page_store
            # The bounds probe peeks the root block; keep it out of the
            # measured window so every miss in the delta belongs to a
            # request.
            bounds = tree.root().mbr()
            counters_before = store.counters.snapshot()
            stats_before = store.stats.snapshot()
            report = asyncio.run(drive(tree, bounds))
            counters_delta = store.counters.snapshot() - counters_before
            misses_delta = store.stats.misses - stats_before.misses
        writer.close()
        return report, tracer, registry, slow_log, trace_path, (
            counters_delta,
            misses_delta,
        )

    def test_every_completed_request_is_traced(self, run):
        report, tracer, *_ = run
        assert report.errors == 0
        assert report.completed == 150
        assert tracer.emitted == 150
        assert len(tracer.finished) == 150

    def test_attributed_io_matches_shared_counters_exactly(self, run):
        report, tracer, _, _, _, (counters_delta, misses_delta) = run
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
        assert "execute" in names
        assert "queue" in names
        assert any(name.startswith("request:") for name in names)
        # Engine-level spans nest under execute for read kinds.
        assert any(name.startswith("engine:") for name in names)

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
        assert span.args["legacy"] is False
