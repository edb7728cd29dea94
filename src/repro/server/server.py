"""The batched query server.

Serving heavy query traffic is its own engineering problem beyond a
correct index (cf. the SIGMOD 2014 programming-contest analyses): real
workloads arrive as *batches* of heterogeneous requests with repeats.
The :class:`QueryServer` fronts a catalog of named trees (typically
:class:`~repro.storage.paged.PagedTree` handles over index files) and
executes each batch in the order it arrives, with two savings:

* **Deduplication** — identical requests in a batch run once and share
  the result (requests are frozen, hashable dataclasses).
* **Shared warm engines** — one engine per (index, operator) lives
  across batches, write batches included, paying each internal node's
  counted read once exactly like the paper's repeated-query setup.

Reads run in arrival order: the paper charges a query the leaves it
visits, so execution order never changes a query's cost, and at the
batch sizes the async service forms a locality sort bought no physical
reads either (``docs/server.md`` states the price and when to revisit).

Batches may also carry *writes* (:class:`~repro.server.requests.InsertRequest`
/ :class:`~repro.server.requests.DeleteRequest`): they are applied in
submission order before any read executes, never deduplicated, and —
over a paged tree's dirty-page write-back store — cost
one physical page write per distinct dirty page rather than one per
logical write I/O.  Each batch reports its logical write I/O and the
pages physically flushed (:attr:`BatchReport.write_ios` /
:attr:`BatchReport.pages_flushed`).

The catalog also accepts **sharded** indexes
(:class:`~repro.storage.shard.ShardedTree`) transparently: a family is
one tree to the same engines — window-style queries read only the
shards whose box can contribute, kNN is one best-first search over
every shard, and writes choose shards at its virtual root as a tree's
writes choose children (insert by least enlargement, delete in the
shards whose box contains the victim).  A caller that
wants one batch's per-shard load diffs
:meth:`~repro.storage.shard.ShardedTree.shard_loads` around
:meth:`QueryServer.submit`.

Execution is single-threaded (deterministic accounting; a thread pool
never won a recorded table — ``docs/architecture.md`` has the rule).
Every batch returns a :class:`BatchReport` with per-request payloads
*in the original order* plus the batch's latency, logical I/O, and
physical page reads — ``docs/io-accounting.md`` defines how those
columns relate to the store- and page-layer counters they aggregate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.tap import scoped_tap
from repro.obs.trace import Trace, activate_trace
from repro.queries import explain as explain_mod
from repro.queries.join import SpatialJoinEngine
from repro.queries.knn import KNNEngine
from repro.queries.point import PointQueryEngine
from repro.rtree.query import QueryEngine
from repro.rtree.tree import RTree
from repro.server.requests import (
    DEFAULT_INDEX,
    ContainmentRequest,
    CountRequest,
    DeleteRequest,
    InsertRequest,
    JoinRequest,
    KNNRequest,
    PointRequest,
    Request,
    RequestResult,
    UpdateStats,
    WindowRequest,
)
from repro.storage.shard import ShardedTree

__all__ = ["QueryServer", "BatchReport"]

#: Request kinds that mutate an index.
_WRITE_KINDS = (InsertRequest, DeleteRequest)


@dataclass
class BatchReport:
    """What one batch did and what it cost.

    ``results`` aligns one-to-one with the submitted requests, in their
    original order — deduplication is invisible to the caller except
    through the statistics.
    """

    results: list[RequestResult] = field(default_factory=list)
    latency_s: float = 0.0
    requests: int = 0
    executed: int = 0
    dedup_hits: int = 0
    leaf_ios: int = 0
    internal_reads: int = 0
    reported: int = 0
    #: Physical block reads (page-cache misses) *this batch caused*.
    #: Attributed at the store hooks through the batch's
    #: :class:`~repro.obs.tap.IOTap`, so concurrent batches on shared
    #: paged handles never bleed into each other's numbers.
    physical_reads: int = 0
    #: Write requests (insert/delete) applied by this batch.
    writes: int = 0
    #: Logical write I/Os the batch's updates performed.
    write_ios: int = 0
    #: Dirty pages physically encoded and written back during the batch
    #: (evictions plus the post-write sync) — with write-back this is at
    #: most the number of distinct dirty pages, not one per write I/O.
    #: Attributed per batch like :attr:`physical_reads`.
    pages_flushed: int = 0
    #: The batch's full attributed I/O snapshot
    #: (:meth:`~repro.obs.tap.IOTap.snapshot`): logical reads/writes plus
    #: page-cache hits/misses/evictions/flushes this batch caused.
    io: dict[str, int] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Requests answered per second of batch wall-clock."""
        return self.requests / self.latency_s if self.latency_s > 0 else 0.0

    @property
    def cache_hit_ratio(self) -> float | None:
        """Page-cache hit ratio of this batch's counted reads.

        Computed from the batch-attributed :attr:`io` tap (hits vs
        hits+misses), so overlapping batches each report their own
        ratio.  ``None`` when the batch performed no counted page reads
        (e.g. pure simulated-store traffic).
        """
        hits = self.io.get("hits", 0)
        lookups = hits + self.io.get("misses", 0)
        return hits / lookups if lookups else None

    @property
    def avg_latency_ms(self) -> float:
        """Mean executed-request latency in milliseconds."""
        if not self.executed:
            return 0.0
        total = sum(r.latency_s for r in self.results if not r.deduped)
        return 1000.0 * total / self.executed

    def values(self) -> list[Any]:
        """Just the payloads, in submission order."""
        return [r.value for r in self.results]

    def __repr__(self) -> str:
        return (
            f"BatchReport(requests={self.requests}, executed={self.executed}, "
            f"writes={self.writes}, leaf_ios={self.leaf_ios}, "
            f"physical_reads={self.physical_reads}, "
            f"pages_flushed={self.pages_flushed}, "
            f"latency={self.latency_s * 1000:.1f}ms)"
        )


def _engine_key(request: Request) -> tuple:
    """Engine-affinity key.  The first element tags the key shape so an
    index literally named "join" cannot collide with join keys."""
    if isinstance(request, JoinRequest):
        return ("join", request.left, request.right)
    return ("op", request.index, request.kind)


class QueryServer:
    """Batched executor over a catalog of named trees.

    Parameters
    ----------
    indexes:
        Either one tree (served as ``"default"``) or a name → tree
        mapping.  Any :class:`~repro.rtree.tree.RTree` works; paged
        trees get the additional physical-read reporting, and
        :class:`~repro.storage.shard.ShardedTree` families are served
        by the same engines, as one tree.
    dedup:
        Execute identical requests within a batch once (default).
    sync_writes:
        After a batch's writes are applied, ``sync()`` every mutated
        index that supports it (paged trees flush their dirty pages and
        rewrite the tree descriptor), so each batch is a consistency
        point on disk.  Disable to let dirty pages accumulate across
        batches (fewer physical writes, sync on close).
    explain:
        Capture an EXPLAIN plan (:mod:`repro.queries.explain`) for every
        executed read and attach it as
        :attr:`~repro.server.requests.RequestResult.plan`: per-level
        nodes visited / entries pruned, physical reads, and the pruning
        efficiency against the leaf-I/O lower bound, on a file or a
        family alike.  Default off — the disabled path costs a ``None``
        check or two per node.
    """

    def __init__(
        self,
        indexes: RTree | Mapping[str, RTree],
        dedup: bool = True,
        sync_writes: bool = True,
        explain: bool = False,
    ) -> None:
        if isinstance(indexes, (RTree, ShardedTree)):
            indexes = {DEFAULT_INDEX: indexes}
        self.indexes: dict[str, RTree | ShardedTree] = dict(indexes)
        self.dedup = dedup
        self.sync_writes = sync_writes
        self.explain = explain
        self.batches_served = 0
        self._engines: dict[tuple, Any] = {}

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------

    def attach(self, name: str, tree: RTree | ShardedTree) -> None:
        """Register (or replace) a named index."""
        self.indexes[name] = tree
        self._invalidate(name)

    def _invalidate(self, name: str) -> None:
        """Drop warm engines that observed ``name``: :meth:`attach`
        replaced the tree they read.  Writes need no new engines: the
        tree's level table follows them (:mod:`repro.rtree.levels`), and
        a warm engine keeps its paid internal reads across write
        batches."""
        stale = [
            k
            for k in self._engines
            if (k[0] == "op" and k[1] == name)
            or (k[0] == "join" and name in k[1:])
        ]
        for key in stale:
            del self._engines[key]

    def _tree(self, name: str) -> RTree | ShardedTree:
        try:
            return self.indexes[name]
        except KeyError:
            raise KeyError(
                f"no index named {name!r}; serving {sorted(self.indexes)}"
            ) from None

    # ------------------------------------------------------------------
    # Engines (one per (index, operator), warm across batches)
    # ------------------------------------------------------------------

    def _engine(self, key: tuple) -> Any:
        engine = self._engines.get(key)
        if engine is None:
            if key[0] == "join":
                _, left, right = key
                engine = SpatialJoinEngine(self._tree(left), self._tree(right))
            else:
                _, index, kind = key
                tree = self._tree(index)
                if kind == "window":
                    engine = QueryEngine(tree)
                elif kind == "knn":
                    engine = KNNEngine(tree)
                else:  # point / containment / count
                    engine = PointQueryEngine(tree)
            self._engines[key] = engine
        return engine

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute_write(
        self, request: Request, trace: Trace | None = None
    ) -> RequestResult:
        """Apply one insert/delete, reporting its logical I/O cost.

        The I/O numbers come from a scoped attribution tap, not a
        shared-counter delta, so concurrent traffic on the same handle
        (an overlapping batch's reads) never bleeds into this write's
        :class:`~repro.server.requests.UpdateStats`.
        """
        tree = self._tree(request.index)
        with activate_trace(trace), scoped_tap(trace) as tap:
            start = time.perf_counter()
            if isinstance(request, InsertRequest):
                value: Any = tree.insert(request.rect, request.value)
            else:
                value = tree.delete(request.rect, request.value)
            end = time.perf_counter()
        if trace is not None:
            trace.add_span(
                f"write:{request.kind}",
                start,
                end,
                cat="engine",
                index=request.index,
                io=tap.snapshot(),
            )
        return RequestResult(
            request=request,
            value=value,
            stats=UpdateStats(reads=tap.reads, writes=tap.writes),
            latency_s=end - start,
        )

    @staticmethod
    def _dispatch(engine: Any, request: Request) -> tuple[Any, Any]:
        if isinstance(request, WindowRequest):
            return engine.query(request.window)
        if isinstance(request, ContainmentRequest):
            return engine.containment_query(request.window)
        if isinstance(request, CountRequest):
            return engine.count(request.window)
        if isinstance(request, PointRequest):
            return engine.point_query(request.point)
        if isinstance(request, KNNRequest):
            return engine.knn(request.target, request.k)
        if isinstance(request, JoinRequest):
            return engine.join()
        raise TypeError(f"unsupported request {request!r}")

    def _execute_one(
        self, request: Request, trace: Trace | None = None
    ) -> RequestResult:
        engine = self._engine(_engine_key(request))
        # Plan capture is armed per executed request: requests run one
        # at a time, so the recorder never observes another request's
        # traversal.
        recorder = explain_mod.install(engine) if self.explain else None
        if trace is None:
            start = time.perf_counter()
            value, stats = self._dispatch(engine, request)
            latency = time.perf_counter() - start
            plan = explain_mod.uninstall(engine, recorder, request.kind, stats)
            return RequestResult(
                request=request, value=value, stats=stats, latency_s=latency,
                plan=plan,
            )
        # Traced: activate the trace and attribute the engine's I/O to
        # both the trace's ledger and the enclosing batch tap via the
        # scoped tap's fold-on-exit.
        with activate_trace(trace), scoped_tap(trace) as tap:
            start = time.perf_counter()
            value, stats = self._dispatch(engine, request)
            end = time.perf_counter()
        plan = explain_mod.uninstall(engine, recorder, request.kind, stats)
        trace.add_span(
            f"engine:{request.kind}",
            start,
            end,
            cat="engine",
            index=getattr(request, "index", None) or "",
            io=tap.snapshot(),
        )
        return RequestResult(
            request=request, value=value, stats=stats, latency_s=end - start,
            plan=plan,
        )

    def _batch_names(self, requests: Iterable[Request]) -> set[str]:
        """Names of every index this batch addresses."""
        names: set[str] = set()
        for request in requests:
            if isinstance(request, JoinRequest):
                names.update((request.left, request.right))
            else:
                names.add(request.index)
        return names

    def submit(
        self,
        requests: Sequence[Request],
        traces: Sequence[Trace | None] | None = None,
    ) -> BatchReport:
        """Execute one batch and report results in submission order.

        Writes (insert/delete) are applied first, in submission order
        and exempt from dedup; the batch's reads then observe the
        post-write state.  When :attr:`sync_writes` is set, every
        mutated index that supports ``sync()`` is flushed before the
        reads run.  Each unique read then executes once, in
        first-occurrence order.

        ``traces`` optionally aligns one
        :class:`~repro.obs.trace.Trace` (or None) with each request:
        traced requests get engine/write spans with per-request I/O
        attribution.  A deduplicated repeat's trace gets a
        ``dedup-hit`` instant event instead of spans.
        """
        start = time.perf_counter()
        report = BatchReport(requests=len(requests))
        if traces is not None and len(traces) != len(requests):
            raise ValueError("traces must align one-to-one with requests")

        # An unknown index fails the batch before any of its writes.
        for name in sorted(self._batch_names(requests)):
            self._tree(name)

        # Everything the batch does — writes, sync, reads — attributes
        # to this tap, so the report's physical/logical numbers are
        # exactly this batch's traffic even with other batches in flight
        # on the same handles.
        with scoped_tap() as batch_tap:
            # Phase 1: writes, strictly in submission order, never
            # deduped.
            write_results: dict[int, RequestResult] = {}
            mutated: set[str] = set()
            for i, request in enumerate(requests):
                if isinstance(request, _WRITE_KINDS):
                    mutated.add(request.index)
                    write_results[i] = self._execute_write(
                        request, traces[i] if traces else None
                    )
            if self.sync_writes:
                for name in mutated:
                    sync = getattr(self._tree(name), "sync", None)
                    if callable(sync):
                        sync()

            # Phase 2: reads, in submission order, and the results
            # reassembled alongside.  A repeat is answered from its
            # first occurrence (payload, stats and trace) and never
            # re-executed; without dedup, reads key by position.
            executed: dict[Any, RequestResult] = {}
            for i, request in enumerate(requests):
                result = write_results.get(i)
                if result is None:
                    key = request if self.dedup else i
                    first = executed.get(key)
                    if first is None:
                        result = executed[key] = self._execute_one(
                            request, traces[i] if traces else None
                        )
                    else:
                        result = RequestResult(
                            request=request,
                            value=first.value,
                            stats=first.stats,
                            latency_s=0.0,
                            deduped=True,
                        )
                        report.dedup_hits += 1
                        if traces is not None and traces[i] is not None:
                            traces[i].event("dedup-hit", kind=request.kind)
                report.results.append(result)

        report.executed = len(executed) + len(write_results)
        report.writes = len(write_results)
        for result in write_results.values():
            report.write_ios += result.stats.writes
        for result in executed.values():
            stats = result.stats
            if hasattr(stats, "left"):  # JoinStats
                report.leaf_ios += stats.left.leaf_reads + stats.right.leaf_reads
                report.internal_reads += (
                    stats.left.internal_reads + stats.right.internal_reads
                )
                report.reported += stats.pairs
            else:
                report.leaf_ios += stats.leaf_reads
                report.internal_reads += stats.internal_reads
                report.reported += stats.reported

        # Batch-attributed physical traffic: exactly what this batch
        # caused, regardless of concurrent batches on the same stores.
        report.physical_reads = batch_tap.misses
        report.pages_flushed = batch_tap.flushes
        report.io = batch_tap.snapshot()
        report.latency_s = time.perf_counter() - start
        self.batches_served += 1
        return report
