"""The service's metric exporter as it stood before ``IndexStatus``.

Verbatim copies of ``_page_stores`` and of
``AsyncQueryService.snapshot_metrics`` with its four
``_snapshot_*_metrics`` helpers.  :class:`OracleExporter` runs them
beside a live service: it keeps its own registry and export state and
reads everything else (stats, lanes, server, EXPLAIN totals, health
interval) from the service it shadows.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs import health
from repro.obs.metrics import MetricsRegistry
from repro.storage.shard import ShardedTree


def _page_stores(tree: Any):
    """Yield ``(shard_label, PagedNodeStore)`` for an index's page layers.

    A sharded family contributes one store per shard (labelled by shard
    number), a single paged tree contributes one (labelled ``"-"``);
    simulated in-memory trees have no page layer and yield nothing.
    """
    if isinstance(tree, ShardedTree):
        for i, shard in enumerate(tree.shards):
            yield str(i), shard.page_store
    else:
        store = getattr(tree, "page_store", None)
        if store is not None:
            yield "-", store


class OracleExporter:
    """The pre-change exporter shadowing one live service."""

    def __init__(self, service, metrics: MetricsRegistry) -> None:
        self._service = service
        self.metrics = metrics
        self._exported_totals: dict[tuple[str, ...], float] = {}
        self._last_health = 0.0

    def __getattr__(self, name: str):
        return getattr(self._service, name)

    def snapshot_metrics(self) -> None:
        """Mirror the live counters/histograms into :attr:`metrics`.

        Exports the four label dimensions of the stack: ``lane``
        (admission/queue), ``kind`` (latency summaries), ``index`` and
        ``shard`` (attributed I/O totals).  The serving hot path never
        touches the registry — this copies already-maintained state, so
        it is safe to call at any time (the periodic task and the final
        :meth:`aclose` snapshot both land here).
        """
        registry = self.metrics
        if registry is None:
            return
        stats = self.stats

        def export(counter, key: tuple[str, ...], total: float) -> None:
            # Delta export: the registry counter may be shared with
            # other (earlier or concurrent) services, so this service
            # only ever adds what it has not yet contributed.
            previous = self._exported_totals.get(key, 0.0)
            if total > previous:
                counter.inc(total - previous)
                self._exported_totals[key] = total

        export(
            registry.counter(
                "repro_requests_submitted_total",
                "Requests admitted to a lane",
            ).labels(),
            ("submitted",),
            stats.submitted,
        )
        export(
            registry.counter(
                "repro_requests_completed_total", "Requests answered"
            ).labels(),
            ("completed",),
            stats.completed,
        )
        rejected = registry.counter(
            "repro_requests_rejected_total",
            "Requests refused by admission control",
            ("lane",),
        )
        export(rejected.labels("read"), ("rejected", "read"), stats.rejected_reads)
        export(
            rejected.labels("write"), ("rejected", "write"), stats.rejected_writes
        )
        export(
            registry.counter(
                "repro_batches_total", "Batches executed"
            ).labels(),
            ("batches",),
            stats.batches,
        )
        export(
            registry.counter(
                "repro_commits_total",
                "Group commits executed (cadence + final at close)",
            ).labels(),
            ("commits",),
            stats.commits,
        )
        export(
            registry.counter(
                "repro_commit_batches_total",
                "Write batches made durable by group commits",
            ).labels(),
            ("commit_batches",),
            stats.committed_batches,
        )
        export(
            registry.counter(
                "repro_commit_seconds_total",
                "Seconds spent inside group commits (off the write window)",
            ).labels(),
            ("commit_seconds",),
            stats.commit_seconds,
        )
        export(
            registry.counter(
                "repro_commit_failures_total",
                "Group commits that raised (batches re-queued)",
            ).labels(),
            ("commit_failures",),
            stats.commit_failures,
        )
        depth = registry.gauge(
            "repro_queue_depth", "Requests queued per lane", ("lane",)
        )
        depth.labels("read").set(len(self._reads))
        depth.labels("write").set(len(self._writes))
        registry.gauge(
            "repro_queue_depth_max", "High-water queued requests"
        ).labels().set(stats.max_queue_depth)
        registry.gauge(
            "repro_throughput_rps", "Completed requests per second"
        ).labels().set(stats.throughput_rps)
        latency = registry.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency by request kind",
            ("kind",),
        )
        for kind, histogram in list(stats.by_kind.items()):
            latency.labels(kind).set_from(histogram)

        logical = registry.counter(
            "repro_index_logical_ios_total",
            "Logical block I/Os per index",
            ("index", "op"),
        )
        shard_busy = registry.gauge(
            "repro_shard_busy_seconds_total",
            "Wall-clock seconds inside each shard's store calls",
            ("index", "shard"),
        )
        shard_reads = registry.counter(
            "repro_shard_logical_reads_total",
            "Logical block reads per shard",
            ("index", "shard"),
        )
        for name, tree in self._server.indexes.items():
            snapshot = tree.store.counters.snapshot()
            logical.labels(name, "read").set_total(snapshot.reads)
            logical.labels(name, "write").set_total(snapshot.writes)
            if isinstance(tree, ShardedTree):
                for i, load in enumerate(tree.shard_loads()):
                    shard_busy.labels(name, str(i)).set(load.busy_s)
                    shard_reads.labels(name, str(i)).set_total(load.reads)
        self._snapshot_recovery_metrics(registry)
        self._snapshot_cache_metrics(registry)
        self._snapshot_explain_metrics(registry)
        self._snapshot_health_metrics(registry)

    def _snapshot_explain_metrics(self, registry: MetricsRegistry) -> None:
        """Export the ``repro_explain_*`` families per request kind.

        Populated only while the service runs with ``explain=True`` —
        the aggregates come from the captured plans themselves, so a
        plain service exports nothing here.
        """
        if not self._explain_totals:
            return
        plans = registry.counter(
            "repro_explain_plans_total",
            "Requests executed with an EXPLAIN plan captured",
            ("kind",),
        )
        nodes = registry.counter(
            "repro_explain_nodes_visited_total",
            "Tree nodes visited by explained requests",
            ("kind",),
        )
        efficiency = registry.gauge(
            "repro_explain_pruning_efficiency",
            "Mean pruning efficiency (leaf-I/O lower bound / leaf reads) "
            "of explained requests",
            ("kind",),
        )
        for kind, (count, visited, eff_sum) in list(
            self._explain_totals.items()
        ):
            previous = self._exported_totals.get(("explain_plans", kind), 0.0)
            if count > previous:
                plans.labels(kind).inc(count - previous)
                self._exported_totals[("explain_plans", kind)] = count
            previous = self._exported_totals.get(("explain_nodes", kind), 0.0)
            if visited > previous:
                nodes.labels(kind).inc(visited - previous)
                self._exported_totals[("explain_nodes", kind)] = visited
            if count:
                efficiency.labels(kind).set(eff_sum / count)

    def _snapshot_health_metrics(self, registry: MetricsRegistry) -> None:
        """Export the ``repro_health_*`` families on the health cadence.

        Each walk is cache-neutral (``quiet_peek`` reads) but touches
        every node of every index, so it runs at most once per
        :attr:`health_interval` — snapshots in between re-export the
        previous gauges untouched.  The headline is
        ``repro_health_score``: the normalized degradation score of each
        index against its pack-time baseline (absent for indexes packed
        without one, e.g. pre-baseline files).
        """
        if self.health_interval is None:
            return
        now = time.perf_counter()
        if self._last_health and now - self._last_health < self.health_interval:
            return
        self._last_health = now
        score_gauge = registry.gauge(
            "repro_health_score",
            "Normalized degradation vs the pack-time baseline "
            "(0 = as packed)",
            ("index",),
        )
        gauges = {
            "leaf_occupancy": registry.gauge(
                "repro_health_leaf_occupancy",
                "Leaf fill factor (entries / capacity)",
                ("index",),
            ),
            "overlap_ratio": registry.gauge(
                "repro_health_overlap_ratio",
                "Directory MBR overlap area over directory area",
                ("index",),
            ),
            "dead_ratio": registry.gauge(
                "repro_health_dead_ratio",
                "Directory dead space over directory area",
                ("index",),
            ),
            "fragmentation": registry.gauge(
                "repro_health_fragmentation",
                "Store blocks free or pending reclaim over allocated",
                ("index",),
            ),
            "height": registry.gauge(
                "repro_health_height", "Tree height (root = level 0)",
                ("index",),
            ),
            "nodes": registry.gauge(
                "repro_health_nodes", "Total tree nodes", ("index",),
            ),
        }
        for name, tree in self._server.indexes.items():
            quality, _ = health.index_quality(tree)
            gauges["leaf_occupancy"].labels(name).set(quality.leaf_occupancy)
            gauges["overlap_ratio"].labels(name).set(quality.overlap_ratio)
            gauges["dead_ratio"].labels(name).set(quality.dead_ratio)
            gauges["fragmentation"].labels(name).set(quality.fragmentation)
            gauges["height"].labels(name).set(quality.height)
            gauges["nodes"].labels(name).set(quality.nodes)
            score = health.degradation_score(
                quality, getattr(tree, "health_baseline", None)
            )
            if score is not None:
                score_gauge.labels(name).set(score)

    def _snapshot_recovery_metrics(self, registry: MetricsRegistry) -> None:
        """Export the ``repro_recovery_*`` families per index file.

        Every file-backed store remembers how it was opened
        (:class:`~repro.storage.filestore.RecoveryInfo`): the committed
        epoch it recovered to, which of the two header slots carried it,
        and how many trailing physical blocks of uncommitted shadow
        writes the open rolled back.
        Constant per open, so dashboards see at a glance whether the
        last process death cost anything (it never costs more than the
        un-synced tail) and which commit lineage is serving.
        """
        epoch = registry.gauge(
            "repro_recovery_epoch",
            "Committed epoch the index file recovered to at open",
            ("index", "shard"),
        )
        slot = registry.gauge(
            "repro_recovery_header_slot",
            "Header slot that carried the recovered epoch",
            ("index", "shard"),
        )
        rolled = registry.gauge(
            "repro_recovery_rolled_back_blocks",
            "Uncommitted physical blocks discarded by rollback at open",
            ("index", "shard"),
        )
        for name, tree in self._server.indexes.items():
            for shard, store in _page_stores(tree):
                info = getattr(store.file_store, "recovery", None)
                if info is None:
                    continue
                epoch.labels(name, shard).set(info.epoch)
                slot.labels(name, shard).set(info.header_slot)
                rolled.labels(name, shard).set(info.rolled_back_blocks)

    def _snapshot_cache_metrics(self, registry: MetricsRegistry) -> None:
        """Export the ``repro_cache_*`` families per index page store.

        The event counters always export (every paged index maintains
        :class:`~repro.storage.paged.PageCacheStats`); the what-if
        families (predicted hit ratios per budget, working-set sizes)
        only appear when the store carries a
        :class:`~repro.obs.cachestats.ReuseDistanceTracker`
        (``cache_analytics=True`` at open time).
        """
        events = registry.counter(
            "repro_cache_events_total",
            "Page-cache events per index/shard "
            "(hit, miss, eviction, flush)",
            ("index", "shard", "event"),
        )
        ratio = registry.gauge(
            "repro_cache_hit_ratio",
            "Measured page-cache hit ratio per index/shard",
            ("index", "shard"),
        )
        predicted = registry.gauge(
            "repro_cache_predicted_hit_ratio",
            "Ghost-LRU predicted hit ratio at alternative page budgets",
            ("index", "shard", "budget"),
        )
        wss = registry.gauge(
            "repro_cache_working_set_blocks",
            "Distinct blocks touched in the trailing access window",
            ("index", "shard", "window"),
        )
        unique = registry.gauge(
            "repro_cache_unique_blocks",
            "Distinct blocks ever touched (tracker view)",
            ("index", "shard"),
        )
        for name, tree in self._server.indexes.items():
            for shard, store in _page_stores(tree):
                stats = store.stats
                events.labels(name, shard, "hit").set_total(stats.hits)
                events.labels(name, shard, "miss").set_total(stats.misses)
                events.labels(name, shard, "eviction").set_total(
                    stats.evictions
                )
                events.labels(name, shard, "flush").set_total(stats.flushes)
                lookups = stats.hits + stats.misses
                if lookups:
                    ratio.labels(name, shard).set(stats.hits / lookups)
                tracker = store.tracker
                if tracker is None:
                    continue
                for point in tracker.miss_ratio_curve():
                    predicted.labels(name, shard, str(point.budget)).set(
                        point.hit_ratio
                    )
                for window, size in tracker.working_set_sizes().items():
                    wss.labels(name, shard, str(window)).set(size)
                unique.labels(name, shard).set(tracker.unique_blocks)
