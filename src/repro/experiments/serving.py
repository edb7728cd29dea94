"""Storage-engine experiments: packing, batch serving, and updates.

Three entry points behind the ``repro pack``, ``repro serve-bench`` and
``repro update-bench`` CLI subcommands:

* :func:`pack_index` — bulk-load one variant on the chosen dataset and
  write it to an index file with :func:`repro.storage.paged.pack_tree`,
  reporting the pack's size and (almost entirely sequential) write I/O.
  With ``shards > 1`` the tree is instead split into K Hilbert-range
  shard files plus a manifest
  (:func:`repro.storage.shard.shard_pack`), one table row per shard.
* :func:`serve_bench` — open an index (single file or shard manifest,
  sniffed by :func:`repro.storage.shard.open_index`) as a lazily paged
  tree with a bounded page cache and drive a mixed
  window/point/count/containment/kNN workload through the batched
  :class:`~repro.server.QueryServer`, reporting per-batch latency,
  logical leaf I/O, physical page reads, and dedup savings; a sharded
  index additionally reports the per-shard I/O balance.  Later
  batches revisit earlier query regions, so physical reads fall as the
  page cache warms while the logical I/O per request stays flat — the
  storage-engine counterpart of the paper's cached-internal-nodes setup.
* :func:`update_bench` — pack an index, reopen it writable, and apply a
  mixed insert/delete stream through the server's write path,
  reporting per-batch logical write I/O versus physical pages flushed
  (the dirty-page write-back saving) and the post-update query
  degradation against a fresh bulk-load of the same final data — the
  paper's observation that O(log_B N) updates do not maintain query
  efficiency, measured.
"""

from __future__ import annotations

import asyncio
import pathlib
import random
import shutil
import tempfile
import time
from collections import Counter
from typing import Sequence

from repro.datasets.synthetic import uniform_rects
from repro.datasets.tiger import tiger_dataset
from repro.experiments.harness import build_variant
from repro.experiments.report import Table
from repro.geometry.rect import Rect
from repro.iomodel.codec import fanout_for_block
from repro.obs import (
    MetricsRegistry,
    MetricsServer,
    SamplingProfiler,
    SlowQueryLog,
    TraceWriter,
    Tracer,
)
from repro.obs import health
from repro.rtree.query import QueryEngine
from repro.rtree.validate import validate_rtree
from repro.server import (
    DEFAULT_INDEX,
    ContainmentRequest,
    CountRequest,
    DeleteRequest,
    InsertRequest,
    KNNRequest,
    PointRequest,
    QueryServer,
    Request,
    WindowRequest,
)
from repro.service import AsyncQueryService, LatencyHistogram, ServiceStats, open_loop
from repro.storage import (
    FileBlockStore,
    PagedTree,
    ShardedTree,
    open_index,
    pack_tree,
    shard_pack,
)
from repro.workloads.queries import square_queries

__all__ = [
    "pack_index",
    "serve_bench",
    "serve_async_bench",
    "trace_capture",
    "profile_capture",
    "cache_report",
    "health_report",
    "explain_report",
    "update_bench",
    "mixed_requests",
    "mixed_service_stream",
    "mixed_update_requests",
    "DATASETS",
]


def _make_tracer(
    trace: str | pathlib.Path | None,
    sample_rate: float,
    slow_ms: float | None,
) -> tuple[TraceWriter | None, Tracer | None]:
    """Build the (writer, tracer) pair for a ``--trace OUT.jsonl`` run."""
    if trace is None:
        return None, None
    writer = TraceWriter(trace)
    tracer = Tracer(
        writer,
        sample_rate=sample_rate,
        slow_threshold_s=slow_ms / 1000.0 if slow_ms is not None else None,
    )
    return writer, tracer


def _profile_notes(
    table: Table, profiler: SamplingProfiler, out: str | pathlib.Path
) -> None:
    """Write the collapsed stacks and digest the per-phase self time.

    The phase rows (``(other)`` included) sum to 100% of the sampled
    wall time by construction, so the notes are a complete account of
    where the profiled window's CPU/wall time went.
    """
    profiler.write_collapsed(out)
    table.add_note(
        f"profile: {out} (collapsed stacks, {profiler.total_samples} "
        f"samples over {profiler.elapsed_s:.1f}s at "
        f"{profiler.interval_s * 1000:g}ms — flamegraph.pl/speedscope)"
    )
    for row in profiler.phase_table():
        table.add_note(
            f"phase {row.phase}: {row.fraction:.1%} self "
            f"({row.samples} samples, ~{row.seconds:.2f}s)"
        )


def _index_page_stores(tree) -> list[tuple[str, object]]:
    """``(label, PagedNodeStore)`` per page layer behind one index."""
    if isinstance(tree, ShardedTree):
        return [
            (f"shard{i}", shard.page_store)
            for i, shard in enumerate(tree.shards)
        ]
    store = getattr(tree, "page_store", None)
    return [("index", store)] if store is not None else []


def _aggregate_cache(tree):
    """Family-wide cache view: summed stats plus merged tracker curve.

    Returns ``(stats_hits, stats_misses, curve, trackers)`` where
    ``curve`` is a list of ``(budget, hits, accesses)`` summed across
    every tracker sharing the first tracker's budget set (each shard
    has its own ``cache_pages``-page cache, so per-shard budgets add).
    ``curve`` is None when no store carries a tracker.
    """
    stores = _index_page_stores(tree)
    hits = sum(store.stats.hits for _, store in stores)
    misses = sum(store.stats.misses for _, store in stores)
    trackers = [
        store.tracker for _, store in stores if store.tracker is not None
    ]
    if not trackers:
        return hits, misses, None, []
    budgets = trackers[0].budgets
    trackers = [t for t in trackers if t.budgets == budgets]
    curve = []
    accesses = sum(t.accesses for t in trackers)
    for j, budget in enumerate(budgets):
        budget_hits = sum(t.miss_ratio_curve()[j].hits for t in trackers)
        curve.append((budget, budget_hits, accesses))
    return hits, misses, curve, trackers


def _cache_notes(table: Table, tree, cache_pages: int) -> None:
    """Footnote digest of the ghost-cache analytics for one index."""
    hits, misses, curve, trackers = _aggregate_cache(tree)
    lookups = hits + misses
    if curve is None or not lookups:
        return
    actual = hits / lookups
    predicted = next(
        (h / a for b, h, a in curve if b == cache_pages and a), None
    )
    note = (
        f"page cache: {hits}/{lookups} lookups hit "
        f"({actual:.1%} measured at the {cache_pages}-page budget"
    )
    if predicted is not None:
        note += f"; ghost-LRU predicts {predicted:.1%} at that budget"
    table.add_note(note + ")")
    table.add_note(
        "miss-ratio curve (budget: predicted hit ratio): "
        + ", ".join(
            f"{b}: {h / a:.1%}" if a else f"{b}: n/a" for b, h, a in curve
        )
    )
    wss: dict[int, int] = {}
    unique = cold = 0
    for tracker in trackers:
        for window, size in tracker.working_set_sizes().items():
            wss[window] = wss.get(window, 0) + size
        unique += tracker.unique_blocks
        cold += tracker.cold_misses
    table.add_note(
        f"working set: {unique} distinct blocks ever ({cold} cold "
        "misses); trailing-window sizes "
        + ", ".join(f"{w}: {s}" for w, s in sorted(wss.items()))
    )


#: Dataset generators accepted by ``repro pack`` / ``repro serve-bench``.
DATASETS = {
    "tiger-east": lambda n, seed: tiger_dataset(n, "eastern", seed=seed),
    "tiger-west": lambda n, seed: tiger_dataset(n, "western", seed=seed),
    "uniform": lambda n, seed: uniform_rects(n, max_side=0.01, seed=seed),
}


def pack_index(
    out: str | pathlib.Path,
    variant: str = "PR",
    dataset: str = "tiger-east",
    n: int = 50_000,
    fanout: int | None = None,
    block_size: int = 4096,
    seed: int = 0,
    shards: int = 1,
) -> Table:
    """Bulk-load one variant and pack it to an index file.

    With ``shards > 1`` the bulk-loaded tree is split by Hilbert rank
    into that many shard files plus a manifest at ``out`` (see
    :func:`repro.storage.shard.shard_pack`); the table then carries one
    row per shard.
    """
    if dataset not in DATASETS:
        raise ValueError(
            f"unknown dataset {dataset!r}; choose from {sorted(DATASETS)}"
        )
    if fanout is None:
        fanout = fanout_for_block(block_size, 2)
    data = DATASETS[dataset](n, seed)

    build_start = time.perf_counter()
    tree = build_variant(variant, data, fanout)
    build_s = time.perf_counter() - build_start

    table = Table(
        title=f"pack: {variant} over {dataset}"
        + (f", {shards} shards" if shards > 1 else ""),
        headers=[
            "variant", "n", "fanout", "height", "blocks",
            "file_MB", "write_ios", "seq_frac", "build_s", "pack_s",
        ],
    )
    if shards > 1:
        pack_start = time.perf_counter()
        family = shard_pack(tree, out, shards=shards, block_size=block_size)
        pack_s = time.perf_counter() - pack_start
        for i, stats in enumerate(family.per_shard):
            table.add_row(
                f"{variant}[{i}]",
                stats.size,
                fanout,
                stats.height,
                stats.n_blocks,
                stats.file_bytes / 2**20,
                stats.write_ios,
                stats.seq_writes / stats.write_ios if stats.write_ios else 0.0,
                build_s if i == 0 else 0.0,
                pack_s if i == 0 else 0.0,
            )
        table.add_note(
            f"shard manifest: {out} ({family.shards} shard files, "
            f"{block_size}-byte blocks)"
        )
        return table

    pack_start = time.perf_counter()
    stats = pack_tree(tree, out, block_size=block_size)
    pack_s = time.perf_counter() - pack_start
    table.add_row(
        variant,
        n,
        fanout,
        stats.height,
        stats.n_blocks,
        stats.file_bytes / 2**20,
        stats.write_ios,
        stats.seq_writes / stats.write_ios if stats.write_ios else 0.0,
        build_s,
        pack_s,
    )
    table.add_note(f"index file: {out} ({block_size}-byte blocks)")
    return table


def mixed_requests(
    bounds: Rect,
    count: int = 1000,
    area_percent: float = 0.25,
    k: int = 10,
    duplicate_frac: float = 0.1,
    seed: int = 0,
    index: str = DEFAULT_INDEX,
) -> list[Request]:
    """A reproducible mixed batch: ~40% window, 20% point, 20% kNN,
    10% count, 10% containment, plus ``duplicate_frac`` exact repeats
    (real query streams repeat hot requests; the server dedups them).
    """
    rng = random.Random(seed)
    windows = square_queries(
        bounds, area_percent, count=max(count, 1), seed=seed
    ).windows

    def random_point() -> tuple[float, ...]:
        return tuple(
            lo + rng.random() * (hi - lo)
            for lo, hi in zip(bounds.lo, bounds.hi)
        )

    requests: list[Request] = []
    for i in range(count):
        roll = rng.random()
        window = windows[i % len(windows)]
        if roll < 0.40:
            requests.append(WindowRequest(window, index=index))
        elif roll < 0.60:
            requests.append(PointRequest(random_point(), index=index))
        elif roll < 0.80:
            requests.append(KNNRequest(random_point(), k=k, index=index))
        elif roll < 0.90:
            requests.append(CountRequest(window, index=index))
        else:
            requests.append(ContainmentRequest(window, index=index))
    n_dupes = int(len(requests) * duplicate_frac)
    for _ in range(n_dupes):
        requests.append(requests[rng.randrange(len(requests))])
    rng.shuffle(requests)
    return requests[:count]


def serve_bench(
    index: str | pathlib.Path | None = None,
    requests: int = 1000,
    batch_size: int = 250,
    cache_pages: int = 256,
    variant: str = "PR",
    dataset: str = "tiger-east",
    n: int = 20_000,
    fanout: int | None = None,
    block_size: int = 4096,
    seed: int = 0,
    shards: int = 1,
    mmap: bool = False,
    trace: str | pathlib.Path | None = None,
    metrics: str | pathlib.Path | None = None,
    sample_rate: float = 1.0,
    slow_ms: float | None = None,
    profile: str | pathlib.Path | None = None,
    cache_analytics: bool = False,
    explain: bool = False,
) -> Table:
    """Drive a mixed batched workload through a paged index file.

    With ``index=None`` a temporary index is built and packed first
    (``variant``/``dataset``/``n``/``shards`` control it); otherwise
    the given ``repro pack`` output — a single index file or a shard
    manifest, auto-detected — is served as-is.  A sharded index adds a
    per-shard I/O-balance note to the table; ``mmap=True`` serves the
    file(s) from memory mappings.

    Each batch row carries the executed requests' p50/p95/p99 latency,
    and the footnotes digest the whole run per request kind — both via
    the same :class:`~repro.service.stats.ServiceStats` histograms the
    async path reports, so the sync and async tables share one metrics
    vocabulary (``docs/async-serving.md``).

    ``trace=OUT.jsonl`` writes a Chrome-trace-event file of every
    sampled request's spans (``docs/observability.md``); ``sample_rate``
    head-samples it and ``slow_ms`` always keeps over-threshold
    requests.  ``metrics=OUT.prom`` dumps the run's per-kind latency
    histograms and I/O totals in Prometheus text format at the end.

    ``profile=OUT.collapsed`` runs the phase-attributed sampling
    profiler over the batch loop and writes collapsed stacks (the
    per-phase self-time digest lands in the footnotes);
    ``cache_analytics=True`` attaches the ghost-LRU reuse-distance
    tracker to every page store and footnotes the miss-ratio curve
    (``repro cache-report`` gives the full table).

    ``explain=True`` arms per-request plan capture
    (``repro.queries.explain``): every executed request carries a
    :class:`~repro.queries.explain.QueryPlan` and the footnotes digest
    the mean pruning efficiency per kind.
    """
    tmpdir: tempfile.TemporaryDirectory | None = None
    writer, tracer = _make_tracer(trace, sample_rate, slow_ms)
    if index is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
        index = pathlib.Path(tmpdir.name) / (
            "index.manifest" if shards > 1 else "index.pack"
        )
        pack_index(
            index,
            variant=variant,
            dataset=dataset,
            n=n,
            fanout=fanout,
            block_size=block_size,
            seed=seed,
            shards=shards,
        )
    try:
        # The mixed workload is read-only; opening read-only both allows
        # serving an index the process cannot write (e.g. a read-only
        # mount) and guarantees the benchmark leaves the files untouched.
        with open_index(
            index,
            cache_pages=cache_pages,
            readonly=True,
            mmap=mmap,
            cache_analytics=cache_analytics,
        ) as tree:
            server = QueryServer(tree, explain=explain)
            bounds = tree.root().mbr()
            stream = mixed_requests(bounds, count=requests, seed=seed + 1)

            sharded = isinstance(tree, ShardedTree)
            table = Table(
                title=(
                    f"serve-bench: {requests} mixed requests, "
                    f"batches of {batch_size}, {cache_pages}-page cache"
                    + (f", {tree.n_shards} shards" if sharded else "")
                    + (", mmap" if mmap else "")
                ),
                headers=[
                    "batch", "requests", "executed", "dedup",
                    "leaf_ios", "internal_reads", "physical_reads",
                    "latency_ms", "p50_ms", "p95_ms", "p99_ms", "req_per_s",
                ],
            )
            run_stats = ServiceStats()
            totals = {"leaf": 0, "phys": 0, "lat": 0.0, "reqs": 0}
            plan_totals: dict[str, list[float]] = {}
            profiler = (
                SamplingProfiler() if profile is not None else None
            )
            if profiler is not None:
                profiler.start()
            try:
                for b in range(0, len(stream), batch_size):
                    batch = stream[b : b + batch_size]
                    batch_traces = None
                    if tracer is not None:
                        batch_traces = [
                            tracer.begin(req.kind, req.kind) for req in batch
                        ]
                    report = server.submit(batch, traces=batch_traces)
                    if batch_traces is not None:
                        for pending_trace in batch_traces:
                            tracer.finish(pending_trace)
                    if explain:
                        for result in report.results:
                            plan = result.plan
                            if plan is None or result.deduped:
                                continue
                            acc = plan_totals.setdefault(
                                result.request.kind, [0, 0, 0.0]
                            )
                            acc[0] += 1
                            acc[1] += plan.nodes_visited
                            acc[2] += plan.pruning_efficiency
                    kind_latencies = report.kind_latencies()
                    batch_hist = LatencyHistogram()
                    for latencies in kind_latencies.values():
                        for latency in latencies:
                            batch_hist.observe(latency)
                    run_stats.observe_kind_latencies(kind_latencies)
                    run_stats.observe_cache(report.io)
                    table.add_row(
                        b // batch_size,
                        report.requests,
                        report.executed,
                        report.dedup_hits,
                        report.leaf_ios,
                        report.internal_reads,
                        report.physical_reads,
                        report.latency_s * 1000.0,
                        batch_hist.percentile(50) * 1000.0,
                        batch_hist.percentile(95) * 1000.0,
                        batch_hist.percentile(99) * 1000.0,
                        report.throughput_rps,
                    )
                    totals["leaf"] += report.leaf_ios
                    totals["phys"] += report.physical_reads
                    totals["lat"] += report.latency_s
                    totals["reqs"] += report.requests
            finally:
                if profiler is not None:
                    profiler.stop()
            table.add_note(
                f"index: {index} (size={tree.size}, height={tree.height}, "
                f"fanout={tree.fanout})"
            )
            for summary in run_stats.kind_summaries():
                table.add_note(
                    f"{summary.kind}: n={summary.count}, "
                    f"p50={summary.p50_ms:.3f}ms, "
                    f"p95={summary.p95_ms:.3f}ms, "
                    f"p99={summary.p99_ms:.3f}ms "
                    f"(executed-request latency)"
                )
            if totals["lat"] > 0:
                table.add_note(
                    f"overall: {totals['reqs'] / totals['lat']:,.0f} req/s, "
                    f"{totals['leaf']} leaf I/Os, "
                    f"{totals['phys']} physical page reads"
                )
            for kind, (plans, nodes, eff_sum) in sorted(plan_totals.items()):
                table.add_note(
                    f"explain {kind}: {plans} plans, "
                    f"{nodes / plans:.1f} nodes/query, "
                    f"mean pruning efficiency {eff_sum / plans:.3f}"
                )
            if sharded:
                loads = tree.shard_loads()
                table.add_note(
                    "per-shard balance (logical reads / physical reads / "
                    "busy ms): "
                    + ", ".join(
                        f"shard{i}: {load.reads}/{load.physical_reads}/"
                        f"{load.busy_s * 1000:.0f}"
                        for i, load in enumerate(loads)
                    )
                )
            if profiler is not None:
                _profile_notes(table, profiler, profile)
            if cache_analytics:
                _cache_notes(table, tree, cache_pages)
            if tracer is not None:
                table.add_note(
                    f"trace: {trace} ({tracer.emitted} of {tracer.started} "
                    f"requests emitted, {tracer.slow} slow)"
                )
            if metrics is not None:
                registry = MetricsRegistry()
                latency = registry.histogram(
                    "repro_request_latency_seconds",
                    "Executed-request latency by kind.",
                    ("kind",),
                )
                for kind, histogram in sorted(run_stats.by_kind.items()):
                    latency.labels(kind).set_from(histogram)
                registry.counter(
                    "repro_requests_total", "Requests served."
                ).labels().set_total(totals["reqs"])
                registry.counter(
                    "repro_leaf_ios_total", "Logical leaf reads."
                ).labels().set_total(totals["leaf"])
                registry.counter(
                    "repro_physical_reads_total",
                    "Page-cache misses (physical block reads).",
                ).labels().set_total(totals["phys"])
                registry.dump(metrics)
                table.add_note(f"metrics: {metrics} (Prometheus text)")
            return table
    finally:
        if writer is not None:
            writer.close()
        if tmpdir is not None:
            tmpdir.cleanup()


def mixed_service_stream(
    bounds: Rect,
    count: int = 1000,
    write_frac: float = 0.1,
    area_percent: float = 0.25,
    k: int = 10,
    seed: int = 0,
    index: str = DEFAULT_INDEX,
    value_prefix: str = "svc",
) -> list[Request]:
    """A reproducible open-loop stream: mixed reads plus interleaved writes.

    ``write_frac`` of the stream are writes — inserts of small fresh
    rectangles inside ``bounds``, and deletes of rectangles this same
    stream inserted earlier (values are namespaced by ``value_prefix``,
    so concurrent streams never delete each other's data).  The rest is
    the :func:`mixed_requests` read mix.
    """
    if not 0.0 <= write_frac <= 1.0:
        raise ValueError("write_frac must be in [0, 1]")
    rng = random.Random(seed)
    reads = mixed_requests(
        bounds,
        count=count,
        area_percent=area_percent,
        k=k,
        seed=seed,
        index=index,
    )
    if write_frac == 0.0:
        return reads

    def fresh_rect() -> Rect:
        lo = tuple(
            low + rng.random() * (high - low) * 0.99
            for low, high in zip(bounds.lo, bounds.hi)
        )
        side = tuple((high - low) * 0.002 for low, high in zip(bounds.lo, bounds.hi))
        return Rect(lo, tuple(c + s for c, s in zip(lo, side)))

    stream: list[Request] = []
    inserted: list[tuple[Rect, str]] = []
    serial = 0
    for request in reads:
        if rng.random() < write_frac:
            if inserted and rng.random() < 0.5:
                rect, value = inserted.pop(rng.randrange(len(inserted)))
                stream.append(DeleteRequest(rect, value, index=index))
            else:
                rect, value = fresh_rect(), f"{value_prefix}-{seed}-{serial}"
                serial += 1
                inserted.append((rect, value))
                stream.append(InsertRequest(rect, value, index=index))
        else:
            stream.append(request)
    return stream


def serve_async_bench(
    index: str | pathlib.Path | None = None,
    rates: Sequence[float] = (200.0, 500.0, 1000.0, 2000.0),
    requests: int = 500,
    write_frac: float = 0.1,
    max_batch: int = 64,
    max_pending_reads: int = 256,
    max_pending_writes: int = 64,
    admission: str = "reject",
    sync_every_n: int | None = None,
    sync_interval_s: float | None = None,
    cache_pages: int = 256,
    variant: str = "PR",
    dataset: str = "tiger-east",
    n: int = 20_000,
    fanout: int | None = None,
    block_size: int = 4096,
    seed: int = 0,
    shards: int = 1,
    mmap: bool = False,
    trace: str | pathlib.Path | None = None,
    metrics: str | pathlib.Path | None = None,
    sample_rate: float = 1.0,
    slow_ms: float | None = None,
    profile: str | pathlib.Path | None = None,
    cache_analytics: bool = False,
    metrics_port: int | None = None,
    explain: bool = False,
    health_interval: float | None = None,
) -> Table:
    """Open-loop latency-vs-arrival-rate sweep through the async service.

    For each rate, a fresh :class:`~repro.service.AsyncQueryService`
    fronts the index and an open-loop generator
    (:func:`~repro.service.open_loop`) offers ``requests`` mixed
    read/write requests at that Poisson arrival rate; the row records
    what came back — completions, admission rejections, achieved
    throughput, and the streaming p50/p95/p99 (end-to-end: queue wait
    plus batch execution).  The page cache persists across rates (a
    warm service is the steady state being measured); queue depth and
    the tail percentiles are where saturation shows first.

    ``trace=OUT.jsonl`` turns on end-to-end tracing — every sampled
    request's admission/queue/coalesce/execute spans plus per-shard and
    engine spans land in one Chrome-trace-event file covering all rates
    (``docs/observability.md``).  ``metrics=OUT.prom`` registers a
    shared :class:`~repro.obs.MetricsRegistry` with every service and
    dumps the final Prometheus text at the end; ``slow_ms`` arms the
    slow-query log (worst offenders become table notes) and forces
    over-threshold requests into the trace even when ``sample_rate``
    would drop them.

    ``metrics_port`` (0 picks a free port) serves the live registry
    over HTTP at ``/metrics`` for the duration of the sweep — scrape it
    mid-run with Prometheus or ``curl``.  ``profile=OUT.collapsed``
    runs the phase-attributed sampling profiler across every rate and
    writes collapsed stacks; ``cache_analytics=True`` attaches the
    ghost-LRU tracker to each page store (curves in the footnotes and,
    with metrics on, the ``repro_cache_*`` families).

    ``explain=True`` arms per-request plan capture in every engine —
    the ``repro_explain_*`` families land in the metrics dump and slow
    entries carry a plan summary.  ``health_interval`` (seconds) adds
    the ``repro_health_*`` tree-quality families to each metrics
    snapshot, re-walking at most that often (``docs/observability.md``).
    """
    tmpdir: tempfile.TemporaryDirectory | None = None
    writer, tracer = _make_tracer(trace, sample_rate, slow_ms)
    registry = (
        MetricsRegistry()
        if metrics is not None or metrics_port is not None
        else None
    )
    metrics_server = (
        MetricsServer(registry, port=metrics_port).start()
        if metrics_port is not None
        else None
    )
    slow_log = (
        SlowQueryLog(slow_ms / 1000.0) if slow_ms is not None else None
    )
    if index is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-async-")
        index = pathlib.Path(tmpdir.name) / (
            "index.manifest" if shards > 1 else "index.pack"
        )
        pack_index(
            index,
            variant=variant,
            dataset=dataset,
            n=n,
            fanout=fanout,
            block_size=block_size,
            seed=seed,
            shards=shards,
        )
    try:
        writable = write_frac > 0.0
        with open_index(
            index,
            cache_pages=cache_pages,
            readonly=not writable,
            mmap=mmap,
            cache_analytics=cache_analytics,
        ) as tree:
            sharded = isinstance(tree, ShardedTree)
            bounds = tree.root().mbr()
            table = Table(
                title=(
                    f"serve-async: open-loop sweep, {requests} requests/rate "
                    f"({write_frac:.0%} writes), max_batch={max_batch}, "
                    f"admission={admission}"
                    + (f", {tree.n_shards} shards" if sharded else "")
                    + (", mmap" if mmap else "")
                ),
                headers=[
                    "rate_rps", "offered", "completed", "rejected",
                    "achieved_rps", "p50_ms", "p95_ms", "p99_ms",
                    "max_queue", "batches",
                ],
            )

            async def run_rate(rate: float, rate_seed: int):
                service = AsyncQueryService(
                    tree,
                    max_batch=max_batch,
                    max_pending_reads=max_pending_reads,
                    max_pending_writes=max_pending_writes,
                    admission=admission,
                    sync_every_n=sync_every_n,
                    sync_interval_s=sync_interval_s,
                    tracer=tracer,
                    metrics=registry,
                    slow_log=slow_log,
                    explain=explain,
                    health_interval=health_interval,
                )
                stream = mixed_service_stream(
                    bounds,
                    count=requests,
                    write_frac=write_frac,
                    seed=rate_seed,
                    value_prefix=f"bench{rate_seed}",
                )
                async with service:
                    report = await open_loop(
                        service, stream, rate, seed=rate_seed
                    )
                return report, service.stats

            profiler = (
                SamplingProfiler() if profile is not None else None
            )
            if profiler is not None:
                profiler.start()
            try:
                commits = committed = 0
                for i, rate in enumerate(rates):
                    report, stats = asyncio.run(run_rate(rate, seed + i + 1))
                    commits += stats.commits
                    committed += stats.committed_batches
                    overall = stats.overall
                    table.add_row(
                        rate,
                        report.offered,
                        report.completed,
                        report.rejected,
                        report.achieved_rps,
                        overall.percentile(50) * 1000.0,
                        overall.percentile(95) * 1000.0,
                        overall.percentile(99) * 1000.0,
                        stats.max_queue_depth,
                        stats.batches,
                    )
                    if report.errors:
                        table.add_note(
                            f"rate {rate:g}: {report.errors} errors — "
                            + "; ".join(report.error_samples)
                        )
            finally:
                if profiler is not None:
                    profiler.stop()
            table.add_note(
                f"index: {index} (size={tree.size}, height={tree.height}, "
                f"fanout={tree.fanout})"
            )
            table.add_note(
                "latency is end-to-end (admission -> response): queue wait "
                "+ batch execution; percentiles are streaming histogram "
                "estimates (docs/async-serving.md)"
            )
            if writable:
                table.add_note(
                    "writes mutate the served index; each rate inserts "
                    "namespaced fresh rectangles and deletes only its own"
                )
            if sync_every_n is not None or sync_interval_s is not None:
                table.add_note(
                    f"group commit: {commits} commits covered "
                    f"{committed} write batches "
                    f"(sync_every_n={sync_every_n}, "
                    f"sync_interval_s={sync_interval_s}) — "
                    "docs/durability.md"
                )
            if profiler is not None:
                _profile_notes(table, profiler, profile)
            if cache_analytics:
                _cache_notes(table, tree, cache_pages)
            if tracer is not None:
                table.add_note(
                    f"trace: {trace} ({tracer.emitted} of {tracer.started} "
                    f"requests emitted, {tracer.slow} slow)"
                )
            if slow_log is not None and len(slow_log):
                worst = max(slow_log.records(), key=lambda r: r.latency_s)
                table.add_note(
                    f"slow-query log: {slow_log.total} over "
                    f"{slow_ms:g}ms; worst: {worst.kind} at "
                    f"{worst.latency_s * 1000:.2f}ms "
                    f"(queue {worst.queue_s * 1000:.2f}ms)"
                )
            if metrics_server is not None:
                table.add_note(
                    f"metrics served live at {metrics_server.url} "
                    "during the sweep"
                )
            if registry is not None and metrics is not None:
                registry.dump(metrics)
                table.add_note(f"metrics: {metrics} (Prometheus text)")
            return table
    finally:
        if metrics_server is not None:
            metrics_server.close()
        if writer is not None:
            writer.close()
        if tmpdir is not None:
            tmpdir.cleanup()


#: Durability modes ``durability_bench`` compares, in row order.
DURABILITY_MODES = ("none", "group", "interval", "sync-writes")


def durability_bench(
    modes: Sequence[str] = DURABILITY_MODES,
    sync_every_n: int = 8,
    sync_interval_ms: float = 50.0,
    rate: float = 2000.0,
    requests: int = 400,
    write_frac: float = 0.25,
    max_batch: int = 64,
    variant: str = "PR",
    dataset: str = "tiger-east",
    n: int = 20_000,
    block_size: int = 4096,
    cache_pages: int = 256,
    seed: int = 0,
) -> Table:
    """Group commit vs the all-or-nothing durability knobs.

    One fixed open-loop mixed workload (same stream, same arrival
    rate) runs against a fresh copy of the same packed index under each
    durability mode:

    * ``none`` — ``sync_writes=False``, no group commit: writes are
      never committed until ``aclose()``.  The write-latency baseline.
    * ``group`` — ``sync_every_n=N``: commit every N write batches,
      on the commit thread beside reads (``docs/durability.md``).
    * ``interval`` — ``sync_interval_s=T``: commit on a wall-clock
      cadence, even while idle.
    * ``sync-writes`` — ``sync_writes=True``: every write batch is
      answered only after its own full ``sync()``.

    The row records what each mode paid (write-request p50/p95 —
    end-to-end, so a commit a write has to wait for shows up here —
    plus overall p95 and achieved throughput) and what it bought
    (commits that reached the disk *during* the run, batches they
    covered, the store's committed epoch after close).  The acceptance
    bar: group commit's write p95 must not exceed the ``none``
    baseline's beyond noise — its commits happen concurrently with
    reads; a write waits only when it catches one in flight.
    """
    with tempfile.TemporaryDirectory(prefix="repro-durability-") as tmp:
        tmpdir = pathlib.Path(tmp)
        master = tmpdir / "master.pack"
        pack_index(
            master,
            variant=variant,
            dataset=dataset,
            n=n,
            block_size=block_size,
            seed=seed,
        )
        table = Table(
            title=(
                f"durability: group commit vs sync-per-batch, "
                f"{requests} requests at {rate:g} req/s "
                f"({write_frac:.0%} writes), max_batch={max_batch}"
            ),
            headers=[
                "mode", "completed", "batches", "commits", "committed",
                "write_p50_ms", "write_p95_ms", "p95_ms", "achieved_rps",
                "epoch",
            ],
        )

        async def run_mode(tree, knobs):
            service = AsyncQueryService(
                tree,
                max_batch=max_batch,
                admission="backpressure",
                **knobs,
            )
            bounds = tree.root().mbr()
            stream = mixed_service_stream(
                bounds,
                count=requests,
                write_frac=write_frac,
                seed=seed + 1,
                value_prefix="durability",
            )
            async with service:
                report = await open_loop(service, stream, rate, seed=1)
            return report, service.stats

        knobs_by_mode = {
            "none": {},
            "group": {"sync_every_n": sync_every_n},
            "interval": {"sync_interval_s": sync_interval_ms / 1000.0},
            "sync-writes": {"sync_writes": True},
        }
        for mode in modes:
            path = tmpdir / f"{mode}.pack"
            shutil.copy(master, path)
            with PagedTree.open(path, cache_pages=cache_pages) as tree:
                report, stats = asyncio.run(
                    run_mode(tree, knobs_by_mode[mode])
                )
            with FileBlockStore.open(path, readonly=True) as store:
                epoch = store.commit_epoch
            writes = LatencyHistogram()
            writes.merge(stats.histogram("insert"))
            writes.merge(stats.histogram("delete"))
            table.add_row(
                mode,
                report.completed,
                stats.batches,
                stats.commits,
                stats.committed_batches,
                writes.percentile(50) * 1000.0,
                writes.percentile(95) * 1000.0,
                stats.overall.percentile(95) * 1000.0,
                report.achieved_rps,
                epoch,
            )
            if report.errors:
                table.add_note(
                    f"{mode}: {report.errors} errors — "
                    + "; ".join(report.error_samples)
                )
        table.add_note(
            "write_p50/p95 are end-to-end write-request latencies: a "
            "per-batch commit (sync-writes) is inside every one of them, "
            "a group commit (docs/durability.md) only where a write "
            "batch catches it in flight"
        )
        table.add_note(
            f"group commits every {sync_every_n} write batches; interval "
            f"commits every {sync_interval_ms:g}ms; 'commits' counts the "
            "service's group commits (including its final one at close); "
            "'epoch' is the store's committed epoch after the owner's "
            "close — sync-writes commits per batch, "
            "outside the service's commit counters"
        )
        return table


def trace_capture(
    out: str | pathlib.Path,
    index: str | pathlib.Path | None = None,
    requests: int = 200,
    rate: float = 500.0,
    write_frac: float = 0.1,
    sample_rate: float = 1.0,
    slow_ms: float | None = None,
    metrics: str | pathlib.Path | None = None,
    max_batch: int = 64,
    cache_pages: int = 256,
    variant: str = "PR",
    dataset: str = "tiger-east",
    n: int = 20_000,
    fanout: int | None = None,
    block_size: int = 4096,
    seed: int = 0,
    shards: int = 1,
    mmap: bool = False,
) -> Table:
    """Capture a Chrome-trace-event file from one live async workload.

    The ``repro trace`` subcommand: runs a single open-loop rate through
    the asyncio service with tracing on (100% head sampling by default)
    and writes the span stream to ``out`` — load it at
    https://ui.perfetto.dev or ``chrome://tracing``.  Everything else is
    :func:`serve_async_bench` with one rate; ``docs/observability.md``
    walks through reading the result.
    """
    return serve_async_bench(
        index=index,
        rates=(rate,),
        requests=requests,
        write_frac=write_frac,
        max_batch=max_batch,
        cache_pages=cache_pages,
        variant=variant,
        dataset=dataset,
        n=n,
        fanout=fanout,
        block_size=block_size,
        seed=seed,
        shards=shards,
        mmap=mmap,
        trace=out,
        metrics=metrics,
        sample_rate=sample_rate,
        slow_ms=slow_ms,
    )


def profile_capture(
    out: str | pathlib.Path,
    index: str | pathlib.Path | None = None,
    requests: int = 400,
    rate: float = 500.0,
    write_frac: float = 0.1,
    trace: str | pathlib.Path | None = None,
    max_batch: int = 64,
    cache_pages: int = 256,
    variant: str = "PR",
    dataset: str = "tiger-east",
    n: int = 20_000,
    fanout: int | None = None,
    block_size: int = 4096,
    seed: int = 0,
    shards: int = 1,
    mmap: bool = False,
) -> Table:
    """Capture a collapsed-stack CPU profile from one live async workload.

    The ``repro profile`` subcommand: runs a single open-loop rate
    through the asyncio service with the phase-attributed sampling
    profiler on and writes the collapsed stacks to ``out`` — feed it to
    ``flamegraph.pl`` or paste into https://speedscope.app.  The table
    footnotes carry the per-phase self-time digest (they sum to 100% of
    the sampled wall time); pass ``trace=`` to additionally capture the
    matching span trace, so flamegraph phases line up with trace spans.
    Everything else is :func:`serve_async_bench` with one rate.
    """
    return serve_async_bench(
        index=index,
        rates=(rate,),
        requests=requests,
        write_frac=write_frac,
        max_batch=max_batch,
        cache_pages=cache_pages,
        variant=variant,
        dataset=dataset,
        n=n,
        fanout=fanout,
        block_size=block_size,
        seed=seed,
        shards=shards,
        mmap=mmap,
        trace=trace,
        profile=out,
    )


def cache_report(
    index: str | pathlib.Path | None = None,
    requests: int = 2000,
    batch_size: int = 250,
    cache_pages: int = 256,
    variant: str = "PR",
    dataset: str = "tiger-east",
    n: int = 20_000,
    fanout: int | None = None,
    block_size: int = 4096,
    seed: int = 0,
    shards: int = 1,
    mmap: bool = False,
) -> Table:
    """What-if page-cache analytics for one index under a mixed workload.

    The ``repro cache-report`` subcommand: opens the index with the
    ghost-LRU :class:`~repro.obs.ReuseDistanceTracker` attached to every
    page store, drives the standard mixed batched workload through it,
    and tabulates the Mattson miss-ratio curve — predicted hits, misses
    and hit ratio at a ladder of alternative page budgets (the
    configured budget's row is marked ``*``).  Because the tracker
    observes the very same page-table lookups
    :class:`~repro.storage.paged.PageCacheStats` counts, the predicted
    ratio at the configured budget equals the measured hit ratio (the
    footnote states both); the other rows answer "what if the cache
    were K pages" without re-running anything.  Frequency-histogram and
    working-set footnotes size the hot set (``docs/observability.md``).

    For a sharded family the per-shard trackers are summed at equal
    budgets — each shard owns a ``cache_pages``-page cache, so budgets
    add across shards.
    """
    tmpdir: tempfile.TemporaryDirectory | None = None
    if index is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-cache-")
        index = pathlib.Path(tmpdir.name) / (
            "index.manifest" if shards > 1 else "index.pack"
        )
        pack_index(
            index,
            variant=variant,
            dataset=dataset,
            n=n,
            fanout=fanout,
            block_size=block_size,
            seed=seed,
            shards=shards,
        )
    try:
        with open_index(
            index,
            cache_pages=cache_pages,
            readonly=True,
            mmap=mmap,
            cache_analytics=True,
        ) as tree:
            server = QueryServer(tree)
            bounds = tree.root().mbr()
            stream = mixed_requests(bounds, count=requests, seed=seed + 1)
            for b in range(0, len(stream), batch_size):
                server.submit(stream[b : b + batch_size])

            hits, misses, curve, trackers = _aggregate_cache(tree)
            lookups = hits + misses
            measured = hits / lookups if lookups else 0.0
            sharded = isinstance(tree, ShardedTree)
            table = Table(
                title=(
                    f"cache-report: {requests} mixed requests against a "
                    f"{cache_pages}-page budget"
                    + (f", {tree.n_shards} shards" if sharded else "")
                ),
                headers=[
                    "budget_pages", "predicted_hits", "predicted_misses",
                    "predicted_hit_ratio",
                ],
            )
            for budget, budget_hits, accesses in curve or ():
                table.add_row(
                    f"{budget}*" if budget == cache_pages else str(budget),
                    budget_hits,
                    accesses - budget_hits,
                    budget_hits / accesses if accesses else 0.0,
                )
            table.add_note(
                f"index: {index} (size={tree.size}, height={tree.height}, "
                f"fanout={tree.fanout})"
            )
            table.add_note(
                f"measured: {hits}/{lookups} page-table lookups hit "
                f"({measured:.2%}) at the configured {cache_pages}-page "
                "budget — compare the * row (same access stream, so they "
                "agree; the other rows are the what-if)"
            )
            bands: dict[tuple[int, int], list[int]] = {}
            wss: dict[int, int] = {}
            unique = cold = 0
            for tracker in trackers:
                for band in tracker.frequency_histogram():
                    entry = bands.setdefault((band.lo, band.hi), [0, 0])
                    entry[0] += band.leaf_blocks
                    entry[1] += band.internal_blocks
                for window, size in tracker.working_set_sizes().items():
                    wss[window] = wss.get(window, 0) + size
                unique += tracker.unique_blocks
                cold += tracker.cold_misses
            if bands:
                table.add_note(
                    "access frequency (times-touched: leaf/internal "
                    "blocks): "
                    + ", ".join(
                        (f"{lo}" if lo == hi else f"{lo}-{hi}")
                        + f": {leaf}/{internal}"
                        for (lo, hi), (leaf, internal) in sorted(
                            bands.items()
                        )
                    )
                )
            table.add_note(
                f"working set: {unique} distinct blocks ever ({cold} cold "
                "misses); trailing-window sizes "
                + ", ".join(f"{w}: {s}" for w, s in sorted(wss.items()))
            )
            return table
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()


def health_score(
    index: str | pathlib.Path,
    cache_pages: int = 64,
    mmap: bool = False,
) -> float | None:
    """The index's degradation score against its pack-time baseline.

    One quiet quality walk (:func:`repro.obs.health.index_quality`)
    folded through :func:`repro.obs.health.degradation_score`.  None
    when the index carries no baseline (packed before baselines existed
    or with ``baseline=False``).
    """
    with open_index(
        index, cache_pages=cache_pages, readonly=True, mmap=mmap
    ) as tree:
        quality, _ = health.index_quality(tree)
        return health.degradation_score(
            quality, getattr(tree, "health_baseline", None)
        )


def health_report(
    index: str | pathlib.Path,
    cache_pages: int = 64,
    mmap: bool = False,
) -> Table:
    """Tree-quality analytics for a packed index (``repro health``).

    Opens the index read-only and runs the cache-neutral quality walk
    (:func:`repro.obs.health.index_quality` — quiet peeks only, so
    neither :class:`~repro.storage.paged.PageCacheStats` nor the
    ghost-LRU tracker move), tabulating per level the node and entry
    counts, occupancy, sibling-MBR overlap, dead space and perimeter.
    The footnotes carry the aggregate quality ratios, store
    fragmentation, the per-shard balance of a sharded family, and —
    when the index was packed with a baseline — the baseline itself and
    the normalized degradation score that arms the self-maintenance
    trigger (``docs/observability.md``).
    """
    with open_index(
        index, cache_pages=cache_pages, readonly=True, mmap=mmap
    ) as tree:
        quality, per_shard = health.index_quality(tree)
        sharded = isinstance(tree, ShardedTree)
        table = Table(
            title=(
                f"index health: size={quality.size}, "
                f"height={quality.height}, fanout={quality.fanout}, "
                f"{quality.nodes} nodes"
                + (f", {len(per_shard)} shards" if per_shard else "")
            ),
            headers=[
                "level", "kind", "nodes", "entries", "occupancy",
                "overlap_area", "dead_area", "perimeter",
            ],
        )
        for lvl in quality.levels:
            table.add_row(
                lvl.level,
                "leaf" if lvl.leaf
                else ("root" if lvl.level == 0 else "internal"),
                lvl.nodes,
                lvl.entries,
                lvl.occupancy,
                lvl.overlap,
                lvl.dead,
                lvl.perimeter,
            )
        table.add_note(f"index: {index}")
        table.add_note(
            f"aggregate: leaf occupancy {quality.leaf_occupancy:.4f}, "
            f"directory overlap ratio {quality.overlap_ratio:.6f}, "
            f"dead-space ratio {quality.dead_ratio:.6f}, "
            f"mean directory margin {quality.mean_margin:.4f}"
        )
        table.add_note(
            f"store: {quality.free_blocks} freelist blocks, "
            f"{quality.pending_reclaim} pending reclaim, "
            f"fragmentation {quality.fragmentation:.4f}"
        )
        if sharded and per_shard:
            table.add_note(
                "per-shard size / leaf occupancy: "
                + ", ".join(
                    f"shard{i}: {q.size}/{q.leaf_occupancy:.3f}"
                    for i, q in enumerate(per_shard)
                )
                + f" (imbalance {quality.imbalance:.4f})"
            )
        baseline = getattr(tree, "health_baseline", None)
        score = health.degradation_score(quality, baseline)
        if score is None:
            table.add_note(
                "no pack-time baseline recorded: degradation score "
                "unavailable (re-pack to record one)"
            )
        else:
            table.add_note(f"baseline: {baseline}")
            table.add_note(
                f"degradation score: {score:.6f} "
                "(0 = freshly packed; weighted relative drift per "
                "repro.obs.health.DEGRADATION_WEIGHTS)"
            )
        return table


def explain_report(
    index: str | pathlib.Path | None = None,
    kind: str = "window",
    queries: int = 8,
    area_percent: float = 1.0,
    k: int = 10,
    cache_pages: int = 256,
    variant: str = "PR",
    dataset: str = "tiger-east",
    n: int = 20_000,
    fanout: int | None = None,
    block_size: int = 4096,
    seed: int = 0,
    shards: int = 1,
    mmap: bool = False,
    trace: str | pathlib.Path | None = None,
    sample_rate: float = 1.0,
) -> Table:
    """Per-query EXPLAIN plans for a workload (``repro explain``).

    Runs ``queries`` requests of ``kind`` (``window``, ``count``,
    ``containment``, ``point``, ``knn``, or ``mixed``) through a
    :class:`~repro.server.QueryServer` armed with plan capture
    (``explain=True``), one table row per executed request: nodes
    visited, entries examined/pruned, leaf I/O against the paper's
    ``ceil(T/B)`` lower bound, pruning efficiency, and attributed
    physical reads.  The footnotes render the *worst* plan (lowest
    pruning efficiency) as the full indented plan tree.

    With ``index=None`` a temporary index is packed first (the usual
    ``variant``/``dataset``/``n``/``shards`` knobs).  A sharded index
    carries no per-query plan (each shard's engine traverses
    independently) — the table then reports stats-only rows and says
    so.  ``trace=OUT.jsonl`` additionally traces the run so ``repro
    explain --trace`` can self-check span nesting.
    """
    tmpdir: tempfile.TemporaryDirectory | None = None
    writer, tracer = _make_tracer(trace, sample_rate, None)
    if index is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-explain-")
        index = pathlib.Path(tmpdir.name) / (
            "index.manifest" if shards > 1 else "index.pack"
        )
        pack_index(
            index,
            variant=variant,
            dataset=dataset,
            n=n,
            fanout=fanout,
            block_size=block_size,
            seed=seed,
            shards=shards,
        )
    try:
        with open_index(
            index, cache_pages=cache_pages, readonly=True, mmap=mmap
        ) as tree:
            server = QueryServer(tree, explain=True)
            bounds = tree.root().mbr()
            if kind == "mixed":
                requests_list = mixed_requests(
                    bounds, count=queries, seed=seed + 1
                )
            else:
                windows = square_queries(
                    bounds, area_percent, count=queries, seed=seed + 1
                ).windows
                if kind == "window":
                    requests_list = [WindowRequest(w) for w in windows]
                elif kind == "count":
                    requests_list = [CountRequest(w) for w in windows]
                elif kind == "containment":
                    requests_list = [ContainmentRequest(w) for w in windows]
                elif kind == "point":
                    requests_list = [
                        PointRequest(w.center()) for w in windows
                    ]
                elif kind == "knn":
                    requests_list = [
                        KNNRequest(w.center(), k) for w in windows
                    ]
                else:
                    raise ValueError(f"unknown explain kind: {kind!r}")
            batch_traces = None
            if tracer is not None:
                batch_traces = [
                    tracer.begin(req.kind, req.kind)
                    for req in requests_list
                ]
            report = server.submit(requests_list, traces=batch_traces)
            if batch_traces is not None:
                for pending_trace in batch_traces:
                    tracer.finish(pending_trace)

            table = Table(
                title=(
                    f"explain: {len(requests_list)} {kind} requests, "
                    f"{cache_pages}-page cache"
                ),
                headers=[
                    "query", "kind", "nodes", "entries", "pruned",
                    "leaf_ios", "lower_bound", "efficiency",
                    "physical_reads",
                ],
            )
            worst = None
            plans = 0
            for i, result in enumerate(report.results):
                plan = result.plan
                if plan is None:
                    continue
                plans += 1
                if isinstance(plan, tuple):
                    continue
                leaf_reads = getattr(plan, "leaf_reads", None)
                table.add_row(
                    i,
                    result.request.kind,
                    plan.nodes_visited,
                    getattr(plan, "entries_examined", 0),
                    getattr(plan, "entries_pruned", 0),
                    leaf_reads if leaf_reads is not None else 0,
                    getattr(plan, "leaf_lower_bound", 0),
                    plan.pruning_efficiency,
                    getattr(plan, "physical_reads", 0),
                )
                if (
                    worst is None
                    or plan.pruning_efficiency < worst.pruning_efficiency
                ):
                    worst = plan
            table.add_note(
                f"index: {index} (size={tree.size}, height={tree.height}, "
                f"fanout={tree.fanout})"
            )
            if plans == 0:
                table.add_note(
                    "no per-query plans: sharded indexes traverse each "
                    "shard's engine independently, so only aggregate "
                    "stats exist (serve with repro_explain_* metrics "
                    "instead)"
                )
            if worst is not None:
                table.add_note(
                    "worst plan (lowest pruning efficiency):\n"
                    + worst.render()
                )
            if tracer is not None:
                table.add_note(
                    f"trace: {trace} ({tracer.emitted} of "
                    f"{tracer.started} requests emitted)"
                )
            return table
    finally:
        if writer is not None:
            writer.close()
        if tmpdir is not None:
            tmpdir.cleanup()


def mixed_update_requests(
    data: list,
    fresh: list,
    delete_frac: float = 0.5,
    seed: int = 0,
    index: str = DEFAULT_INDEX,
) -> tuple[list[Request], list]:
    """A reproducible mixed write stream over an existing dataset.

    Draws deletes from ``data`` (each entry at most once) and inserts
    from ``fresh``, shuffled with ``delete_frac`` deletes.  Returns the
    request list plus the expected live ``(rect, value)`` set after
    applying it — the oracle for post-update query checks.
    """
    rng = random.Random(seed)
    deletable = list(data)
    rng.shuffle(deletable)
    insertable = list(fresh)
    requests: list[Request] = []
    removed: Counter = Counter()
    inserted: list = []
    while deletable or insertable:
        use_delete = deletable and (
            not insertable or rng.random() < delete_frac
        )
        if use_delete:
            rect, value = deletable.pop()
            removed[(rect, value)] += 1
            requests.append(DeleteRequest(rect, value, index=index))
        else:
            rect, value = insertable.pop()
            inserted.append((rect, value))
            requests.append(InsertRequest(rect, value, index=index))
    # One tree entry disappears per DeleteRequest, so a duplicated
    # (rect, value) pair leaves the live set only as often as it was
    # drawn — not wholesale.
    live = []
    for pair in data:
        if removed[pair] > 0:
            removed[pair] -= 1
            continue
        live.append(pair)
    return requests, live + inserted


def update_bench(
    updates: int = 1000,
    queries: int = 100,
    batch_size: int = 250,
    cache_pages: int = 256,
    variant: str = "PR",
    dataset: str = "tiger-east",
    n: int = 20_000,
    fanout: int | None = None,
    block_size: int = 4096,
    area_percent: float = 0.25,
    seed: int = 0,
) -> Table:
    """Measure dynamic updates on a packed index and their query cost.

    Packs a bulk-loaded ``variant`` to a temporary index file, reopens
    it as a writable paged tree, and drives ``updates`` mixed
    inserts/deletes through the batched :class:`QueryServer` — the
    write-back page layer turns every batch's logical write I/Os into
    one physical write per distinct dirty page (reported per batch).
    The same window workload is measured three times: on the freshly
    bulk-loaded index, after the updates (the paper's point that
    updates do not maintain query efficiency), and on a fresh bulk-load
    of the *final* dataset — the re-pack baseline the degradation is
    judged against.  The updated tree is validated and compared
    entry-for-entry against an in-memory oracle holding the same data.
    """
    if dataset not in DATASETS:
        raise ValueError(
            f"unknown dataset {dataset!r}; choose from {sorted(DATASETS)}"
        )
    if fanout is None:
        fanout = fanout_for_block(block_size, 2)
    data = DATASETS[dataset](n, seed)
    fresh = DATASETS[dataset](updates, seed + 7919)
    half = updates // 2
    stream_data, stream_fresh = data, fresh[: updates - half]

    table = Table(
        title=(
            f"update-bench: {updates} mixed inserts/deletes on a packed "
            f"{variant} index ({dataset}, n={n})"
        ),
        headers=[
            "phase", "ops", "write_ios", "pages_flushed",
            "leaf_ios", "ios_per_query", "latency_ms",
        ],
    )

    with tempfile.TemporaryDirectory(prefix="repro-update-") as tmpdir:
        path = pathlib.Path(tmpdir) / "index.pack"
        mem_tree = build_variant(variant, data, fanout)
        pack_tree(mem_tree, path, block_size=block_size)

        with PagedTree.open(
            path, values=dict(mem_tree.objects), cache_pages=cache_pages
        ) as tree:
            server = QueryServer(tree)
            bounds = tree.root().mbr()
            windows = square_queries(
                bounds, area_percent, count=queries, seed=seed + 1
            ).windows

            def query_phase(target, label: str) -> None:
                engine = QueryEngine(target)
                start = time.perf_counter()
                for window in windows:
                    engine.query(window)
                elapsed = time.perf_counter() - start
                table.add_row(
                    label,
                    len(windows),
                    0,
                    0,
                    engine.totals.leaf_reads,
                    engine.totals.leaf_reads / max(1, len(windows)),
                    elapsed * 1000.0,
                )

            query_phase(tree, "bulk-loaded query")

            # Draw deletes from only part of the dataset so the stream
            # has `half` deletes and the rest inserts.
            requests, live = mixed_update_requests(
                stream_data[:half] if half else [],
                stream_fresh,
                seed=seed + 2,
            )
            live = live + stream_data[half:]
            total_write_ios = 0
            total_flushed = 0
            for b in range(0, len(requests), batch_size):
                batch = requests[b : b + batch_size]
                report = server.submit(batch)
                total_write_ios += report.write_ios
                total_flushed += report.pages_flushed
                table.add_row(
                    f"update batch {b // batch_size}",
                    report.writes,
                    report.write_ios,
                    report.pages_flushed,
                    0,
                    0,
                    report.latency_s * 1000.0,
                )

            validate_rtree(tree, expect_size=len(live))
            query_phase(tree, "post-update query")

        fresh_tree = build_variant(variant, live, fanout)
        query_phase(fresh_tree, "fresh bulk-load query")

    table.add_note(
        f"write-back: {total_write_ios} logical write I/Os became "
        f"{total_flushed} physical page writes "
        f"({total_flushed / max(1, total_write_ios):.2%} of write-through)"
    )
    table.add_note(
        "post-update vs fresh bulk-load = query degradation left behind "
        "by the standard R-tree update algorithms (paper Section 1.2)"
    )
    return table
