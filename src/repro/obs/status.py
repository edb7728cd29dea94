"""One status object for an open index, read offline and live alike.

The stack's question "how far has this index drifted, and what did its
last open recover?" has one answer, built by :func:`read_status` from
an open tree or shard family:

* **files** — each file's committed epoch and the header slot carrying
  it, plus what its open recovered and the verdict on that;
* **health** — the aggregate and per-shard
  :class:`~repro.obs.health.TreeQuality` of the cache-neutral walk and
  the degradation score against the pack-time baseline;
* **page stores** — cache events and hit ratio per store, and with a
  :class:`~repro.obs.cachestats.ReuseDistanceTracker` attached the
  ghost-LRU curve, working-set sizes and unique-block count.

``repro status`` renders its tables from an :class:`IndexStatus`;
:meth:`~repro.service.AsyncQueryService.status` returns one per served
index inside a :class:`ServiceStatus`, and :func:`export_metrics`
writes that object into a :class:`~repro.obs.metrics.MetricsRegistry`
through the one family table :data:`METRIC_FAMILIES`.

Like :mod:`repro.obs.health`, this module imports nothing from
:mod:`repro.storage`: trees, stores and families are duck-typed.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.obs import health as _health
from repro.obs.cachestats import CacheCurvePoint
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "FileStatus",
    "StoreStatus",
    "IndexStatus",
    "ServiceStatus",
    "read_status",
    "export_metrics",
    "METRIC_FAMILIES",
]


@dataclass(frozen=True)
class FileStatus:
    """One index file: its committed state and what its open recovered.

    ``recovery`` is the file's
    :class:`~repro.storage.filestore.RecoveryInfo`, fixed at open;
    ``epoch`` and ``header_slot`` follow later commits, so they name
    what a reopen would recover to.
    """

    name: str
    shard: str
    epoch: int
    header_slot: int
    recovery: Any

    @property
    def rolled_back_blocks(self) -> int:
        return self.recovery.rolled_back_blocks

    @property
    def verdict(self) -> str:
        info = self.recovery
        if info.discarded_epoch is not None:
            return (
                f"rolled back to manifest (epoch {info.discarded_epoch} "
                "discarded)"
            )
        if info.rolled_back_blocks:
            return "rolled back an uncommitted epoch"
        return "clean"


@dataclass(frozen=True)
class StoreStatus:
    """One page store's cache events, and its tracker's view if any."""

    shard: str
    capacity: int
    hits: int
    misses: int
    evictions: int
    flushes: int
    #: Tracker-only fields: empty / None / 0 without a tracker.
    curve: tuple[CacheCurvePoint, ...] = ()
    working_set: Mapping[int, int] = field(default_factory=dict)
    unique_blocks: int | None = None
    predicted_hits: int = 0  #: ghost-LRU hits at ``capacity``
    accesses: int = 0

    @property
    def hit_ratio(self) -> float | None:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else None


@dataclass(frozen=True)
class IndexStatus:
    """Everything :func:`read_status` knows about one open index.

    A simulated (in-memory) tree has no files and no stores.
    ``quality`` is None when the health walk was not asked for.
    """

    files: tuple[FileStatus, ...]
    stores: tuple[StoreStatus, ...]
    quality: _health.TreeQuality | None
    per_shard: tuple[_health.TreeQuality, ...]
    score: float | None
    #: Logical block I/Os of the whole index, and per-shard loads
    #: (:class:`~repro.storage.shard.ShardLoad`) of a family.
    reads: int
    writes: int
    shard_loads: tuple = ()


@dataclass(frozen=True)
class ServiceStatus:
    """A serving service's counters beside the status of every index.

    ``stats`` is a copy of the service's
    :class:`~repro.service.stats.ServiceStats`; ``explain`` maps a
    request kind to ``(plans, nodes visited, summed pruning
    efficiency)`` over the service's lifetime.
    """

    stats: Any
    queue_depth: Mapping[str, int]
    explain: Mapping[str, tuple]
    indexes: Mapping[str, IndexStatus]


def read_status(index, health: bool = True) -> IndexStatus:
    """The :class:`IndexStatus` of a single tree or a shard family.

    Files and stores are labelled by shard number, or ``"-"`` for a
    single file.  ``health=False`` skips the walk, which reads every
    node (cache-neutrally).
    """
    shards = getattr(index, "shards", None)
    trees = (
        [(str(i), tree) for i, tree in enumerate(shards)]
        if shards
        else [("-", index)]
    )
    files, stores = [], []
    for label, tree in trees:
        store = getattr(tree, "page_store", None)
        if store is None:
            continue
        file_store = store.file_store
        files.append(
            FileStatus(
                pathlib.Path(file_store.path).name,
                label,
                file_store.commit_epoch,
                file_store.header_slot,
                file_store.recovery,
            )
        )
        stores.append(_store_status(label, store))
    quality, per_shard = (
        _health.index_quality(index) if health else (None, ())
    )
    counters = index.store.counters.snapshot()
    return IndexStatus(
        files=tuple(files),
        stores=tuple(stores),
        quality=quality,
        per_shard=per_shard,
        score=(
            _health.degradation_score(
                quality, getattr(index, "health_baseline", None)
            )
            if quality is not None
            else None
        ),
        reads=counters.reads,
        writes=counters.writes,
        shard_loads=tuple(index.shard_loads()) if shards else (),
    )


def _store_status(label: str, store) -> StoreStatus:
    stats, tracker = store.stats, store.tracker
    events = (label, store.capacity, stats.hits, stats.misses,
              stats.evictions, stats.flushes)
    if tracker is None:
        return StoreStatus(*events)
    return StoreStatus(
        *events,
        curve=tuple(tracker.miss_ratio_curve()),
        working_set=tracker.working_set_sizes(),
        unique_blocks=tracker.unique_blocks,
        predicted_hits=tracker.predicted_hits(store.capacity),
        accesses=tracker.accesses,
    )


# -- metric export -----------------------------------------------------

#: ``field(status)`` yields ``(label values, value)`` pairs, or None
#: when the family has nothing to say yet (it is then not registered).
Series = Callable[[ServiceStatus], Iterable[tuple[tuple, Any]] | None]


def _indexes(get: Callable[[IndexStatus], Iterable]) -> Series:
    """Series per served index: ``get`` yields the labels after ``index``."""
    return lambda s: [
        ((name, *labels), value)
        for name, index in s.indexes.items()
        for labels, value in get(index)
    ]


def _stores(get: Callable[[StoreStatus], Any]) -> Series:
    return _indexes(lambda ix: [((st.shard,), get(st)) for st in ix.stores])


def _files(get: Callable[[FileStatus], Any]) -> Series:
    return _indexes(lambda ix: [((f.shard,), get(f)) for f in ix.files])


def _walked(get: Callable[[IndexStatus], Any]) -> Series:
    """Per-index health series; absent from snapshots that did not walk."""
    return lambda s: (
        [((name,), get(ix)) for name, ix in s.indexes.items()]
        if any(ix.quality is not None for ix in s.indexes.values())
        else None
    )


def _explained(slot: Callable[[tuple], Any]) -> Series:
    """Per-kind EXPLAIN series; absent until a plan was captured."""
    return lambda s: [((k,), slot(acc)) for k, acc in s.explain.items()] or None


def _total(get: Callable[[Any], Any]) -> Series:
    return lambda s: [((), get(s.stats))]


_LANES = ("read", "write")
_EVENTS = (("hit", "hits"), ("miss", "misses"), ("eviction", "evictions"),
           ("flush", "flushes"))

#: Every exported family: (name, type, labels, help, series).
METRIC_FAMILIES: tuple[tuple[str, str, tuple[str, ...], str, Series], ...] = (
    ("repro_requests_submitted_total", "counter", (),
     "Requests admitted to a lane", _total(lambda st: st.submitted)),
    ("repro_requests_completed_total", "counter", (),
     "Requests answered", _total(lambda st: st.completed)),
    ("repro_requests_rejected_total", "counter", ("lane",),
     "Requests refused by admission control",
     lambda s: [(("read",), s.stats.rejected_reads),
                (("write",), s.stats.rejected_writes)]),
    ("repro_batches_total", "counter", (),
     "Batches executed", _total(lambda st: st.batches)),
    ("repro_commits_total", "counter", (),
     "Group commits executed (cadence + final at close)",
     _total(lambda st: st.commits)),
    ("repro_commit_batches_total", "counter", (),
     "Write batches made durable by group commits",
     _total(lambda st: st.committed_batches)),
    ("repro_commit_seconds_total", "counter", (),
     "Seconds spent inside group commits (off the write window)",
     _total(lambda st: st.commit_seconds)),
    ("repro_commit_failures_total", "counter", (),
     "Group commits that raised (batches re-queued)",
     _total(lambda st: st.commit_failures)),
    ("repro_queue_depth", "gauge", ("lane",),
     "Requests queued per lane",
     lambda s: [((lane,), s.queue_depth[lane]) for lane in _LANES]),
    ("repro_queue_depth_max", "gauge", (),
     "High-water queued requests", _total(lambda st: st.max_queue_depth)),
    ("repro_throughput_rps", "gauge", (),
     "Completed requests per second", _total(lambda st: st.throughput_rps)),
    ("repro_request_latency_seconds", "summary", ("kind",),
     "End-to-end request latency by request kind",
     lambda s: [((kind,), hist) for kind, hist in s.stats.by_kind.items()]),
    ("repro_index_logical_ios_total", "counter", ("index", "op"),
     "Logical block I/Os per index",
     _indexes(lambda ix: [(("read",), ix.reads), (("write",), ix.writes)])),
    ("repro_shard_busy_seconds_total", "gauge", ("index", "shard"),
     "Wall-clock seconds inside each shard's store calls",
     _indexes(lambda ix: [((str(i),), load.busy_s)
                          for i, load in enumerate(ix.shard_loads)])),
    ("repro_shard_logical_reads_total", "counter", ("index", "shard"),
     "Logical block reads per shard",
     _indexes(lambda ix: [((str(i),), load.reads)
                          for i, load in enumerate(ix.shard_loads)])),
    ("repro_recovery_epoch", "gauge", ("index", "shard"),
     "Committed epoch the index file recovered to at open",
     _files(lambda f: f.recovery.epoch)),
    ("repro_recovery_header_slot", "gauge", ("index", "shard"),
     "Header slot that carried the recovered epoch",
     _files(lambda f: f.recovery.header_slot)),
    ("repro_recovery_rolled_back_blocks", "gauge", ("index", "shard"),
     "Uncommitted physical blocks discarded by rollback at open",
     _files(lambda f: f.rolled_back_blocks)),
    ("repro_cache_events_total", "counter", ("index", "shard", "event"),
     "Page-cache events per index/shard (hit, miss, eviction, flush)",
     _indexes(lambda ix: [((st.shard, event), getattr(st, attr))
                          for st in ix.stores for event, attr in _EVENTS])),
    ("repro_cache_hit_ratio", "gauge", ("index", "shard"),
     "Measured page-cache hit ratio per index/shard",
     _stores(lambda st: st.hit_ratio)),
    ("repro_cache_predicted_hit_ratio", "gauge", ("index", "shard", "budget"),
     "Ghost-LRU predicted hit ratio at alternative page budgets",
     _indexes(lambda ix: [((st.shard, str(p.budget)), p.hit_ratio)
                          for st in ix.stores for p in st.curve])),
    ("repro_cache_working_set_blocks", "gauge", ("index", "shard", "window"),
     "Distinct blocks touched in the trailing access window",
     _indexes(lambda ix: [((st.shard, str(window)), size)
                          for st in ix.stores
                          for window, size in st.working_set.items()])),
    ("repro_cache_unique_blocks", "gauge", ("index", "shard"),
     "Distinct blocks ever touched (tracker view)",
     _stores(lambda st: st.unique_blocks)),
    ("repro_explain_plans_total", "counter", ("kind",),
     "Requests executed with an EXPLAIN plan captured",
     _explained(lambda acc: acc[0])),
    ("repro_explain_nodes_visited_total", "counter", ("kind",),
     "Tree nodes visited by explained requests",
     _explained(lambda acc: acc[1])),
    ("repro_explain_pruning_efficiency", "gauge", ("kind",),
     "Mean pruning efficiency (leaf-I/O lower bound / leaf reads) "
     "of explained requests",
     _explained(lambda acc: acc[2] / acc[0])),
    ("repro_health_score", "gauge", ("index",),
     "Normalized degradation vs the pack-time baseline (0 = as packed)",
     _walked(lambda ix: ix.score)),
    ("repro_health_leaf_occupancy", "gauge", ("index",),
     "Leaf fill factor (entries / capacity)",
     _walked(lambda ix: ix.quality.leaf_occupancy)),
    ("repro_health_overlap_ratio", "gauge", ("index",),
     "Directory MBR overlap area over directory area",
     _walked(lambda ix: ix.quality.overlap_ratio)),
    ("repro_health_dead_ratio", "gauge", ("index",),
     "Directory dead space over directory area",
     _walked(lambda ix: ix.quality.dead_ratio)),
    ("repro_health_fragmentation", "gauge", ("index",),
     "Store blocks free or pending reclaim over allocated",
     _walked(lambda ix: ix.quality.fragmentation)),
    ("repro_health_height", "gauge", ("index",),
     "Tree height (root = level 0)", _walked(lambda ix: ix.quality.height)),
    ("repro_health_nodes", "gauge", ("index",),
     "Total tree nodes", _walked(lambda ix: ix.quality.nodes)),
)

_REGISTER = {"counter": "counter", "gauge": "gauge", "summary": "histogram"}


def export_metrics(
    status: ServiceStatus,
    registry: MetricsRegistry,
    exported: dict[tuple, float],
) -> None:
    """Write ``status`` into ``registry`` through :data:`METRIC_FAMILIES`.

    A series whose value is None is skipped.  Gauges are set and
    summaries copied.  Every counter follows one delta-export rule: it
    grows by what this exporter has not yet added, which ``exported``
    remembers per series.  Several services (one per rate in a sweep,
    say) can then share one registry, and their counters accumulate
    instead of regressing when a fresh service starts from zero.
    """
    for name, kind, labels, help_text, series in METRIC_FAMILIES:
        rows = series(status)
        if rows is None:
            continue
        family = getattr(registry, _REGISTER[kind])(name, help_text, labels)
        for values, value in rows:
            if value is None:
                continue
            child = family.labels(*values)
            if kind == "gauge":
                child.set(value)
            elif kind == "summary":
                child.set_from(value)
            else:
                key = (name, *values)
                previous = exported.get(key, 0.0)
                if value > previous:
                    child.inc(value - previous)
                    exported[key] = value
