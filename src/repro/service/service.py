"""The asyncio serving layer: individual requests in, batches out.

The batched :class:`~repro.server.QueryServer` is a throughput machine
but a synchronous one — independent clients serialize behind each
other's batches.  :class:`AsyncQueryService` puts an asyncio front end
in front of the same stack so *many concurrent clients* each submit
individual requests and await individual responses, while the service
recovers the batch efficiencies underneath:

* **Work-conserving coalescing.**  Accepted requests queue in two
  priority lanes (reads vs writes).  The dispatcher ships whatever is
  queued (at most ``max_batch``) as soon as the previous batch is done:
  requests coalesce only while a batch is executing, so batches grow
  with load by themselves and an idle service answers a lone request at
  once; there is no flush timer.
* **One thread runs the engine.**  The dispatcher executes every batch
  itself, on the event-loop thread, on one warm
  :class:`~repro.server.QueryServer` — the engines are pure Python plus
  small-array numpy under one GIL, so a worker thread could never run
  beside the loop, only take turns with it (``docs/architecture.md``
  has the rule and the rows that bought it).  A write batch is simply
  the next batch, applied in admission (FIFO) order and ahead of queued
  reads: nothing is in flight beside it, writes retain submission order
  globally and a client that awaited its write always reads its own
  writes.  After every batch the dispatcher yields to the loop once, so
  submitters, timers and cancelled clients get their turn: the loop is
  held for at most one ``max_batch`` batch.
* **Group commit.**  With ``sync_every_n``/``sync_interval_s`` the
  service turns durability into a background cadence: every N write
  batches (or every T seconds), all mutated indexes ``sync()`` on the
  one *commit thread* — ``fsync`` genuinely blocks in the kernel, the
  only kind of call a thread exists around here.  Read batches keep
  executing on the loop while a commit is in flight (the atomic
  header-slot commit of the storage layer, ``docs/durability.md``,
  means readers never see a half-published state); a write batch never
  mutates under one: the dispatcher awaits the commit first, and since
  it is the only dispatcher, every read admitted behind that write
  batch waits with it.
* **Admission control.**  Each lane has a queue-depth bound.  Past it,
  ``admission="reject"`` fails fast with :class:`AdmissionError`
  (load-shedding, the open-loop benchmark's mode) and
  ``admission="backpressure"`` suspends the submitting coroutine until
  space frees (closed-loop clients slow down instead of piling up).

Every response is a :class:`ServiceResponse` carrying the request's
own end-to-end latency split into queue wait and execution; the
service-wide :class:`~repro.service.stats.ServiceStats` maintains
streaming p50/p95/p99 per request kind, throughput, queue depth and
rejection counts.  ``docs/async-serving.md`` walks through the model.

Thread-safety contract: two threads ever touch the trees.  The loop
thread runs every read and every write; the commit thread runs
``sync()`` and nothing else.  That overlap — a commit beside *reads* —
is why the paged read path
(:class:`~repro.storage.paged.PagedNodeStore`) and the file layer
(:class:`~repro.storage.filestore.FileBlockStore`) stay locked.  Tree
mutation (``insert``/``delete``) is not safe against a concurrent
``sync()``, which is why a write batch waits for an in-flight commit.
The cost of the model is stated in ``docs/architecture.md``: a page
miss that goes to a real disk holds the loop (admission, time-outs) for
its duration, not just the engine.
"""

from __future__ import annotations

import asyncio
import contextlib
import copy
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.status import ServiceStatus, export_metrics, read_status
from repro.obs.trace import Trace, Tracer
from repro.rtree.tree import RTree
from repro.server.requests import DeleteRequest, InsertRequest, Request
from repro.server.server import QueryServer
from repro.service.stats import ServiceStats
from repro.storage.shard import ShardedTree

__all__ = [
    "AdmissionError",
    "ServiceClosed",
    "ServiceResponse",
    "AsyncQueryService",
]

#: Request kinds that go down the write lane.
_WRITE_KINDS = (InsertRequest, DeleteRequest)


class AdmissionError(RuntimeError):
    """The request was refused: its lane is at the admission bound.

    Raised by :meth:`AsyncQueryService.submit` in ``"reject"`` mode —
    the fast-fail half of admission control.  ``lane`` is ``"read"`` or
    ``"write"``.
    """

    def __init__(self, lane: str, bound: int) -> None:
        super().__init__(
            f"{lane} lane is at its admission bound ({bound} queued)"
        )
        self.lane = lane
        self.bound = bound


class ServiceClosed(RuntimeError):
    """The service is shut (or shutting) down and accepts no requests."""


@dataclass
class ServiceResponse:
    """One answered request, with its own latency breakdown.

    Attributes
    ----------
    request:
        The request this response answers.
    value:
        The operator payload, exactly as
        :attr:`~repro.server.requests.RequestResult.value` defines it.
    stats:
        The operator's statistics object for this request.
    latency_s:
        End-to-end seconds from admission to response — queue wait plus
        batch execution.  This is what the service percentiles are made
        of.
    queue_s:
        Seconds the request waited in its lane before its batch
        started.
    engine_s:
        Seconds the executing engine spent on this request inside the
        batch (0.0 when it was answered from the batch dedup table).
    batch_size:
        How many requests shared the batch.
    """

    request: Request
    value: Any
    stats: Any
    latency_s: float
    queue_s: float
    engine_s: float
    batch_size: int


class _Pending:
    """A queued request and the future its client awaits."""

    __slots__ = ("request", "future", "enqueued_at", "drained_at", "trace")

    def __init__(
        self, request: Request, future: "asyncio.Future[ServiceResponse]"
    ) -> None:
        self.request = request
        self.future = future
        self.enqueued_at = time.perf_counter()
        #: Stamped when the request leaves its lane for a batch.
        self.drained_at = self.enqueued_at
        self.trace: Trace | None = None


class AsyncQueryService:
    """Asyncio front end over one batched query server.

    Parameters
    ----------
    indexes:
        One tree or a name → tree mapping, exactly as
        :class:`~repro.server.QueryServer` accepts.
    max_batch:
        Most requests coalesced into one batch — and so the longest the
        event loop is held between two yields.  A batch ships as soon
        as the previous one is done, writes ahead of queued reads: they
        are latency-critical for read-your-writes clients.
    max_pending_reads / max_pending_writes:
        Admission bound per lane: the most requests that may be queued
        (not yet batched) before admission control engages.
    admission:
        ``"reject"`` fails fast with :class:`AdmissionError` at the
        bound; ``"backpressure"`` suspends the submitter until space
        frees.
    executor_workers:
        Validated and otherwise ignored: one thread runs every batch.
    dedup:
        Passed through to the underlying server (see
        :class:`~repro.server.QueryServer`).
    sync_writes:
        Unlike the batch server, the service defaults to **False**:
        syncing every write batch (dirty-page flush on every mutated
        index plus, for a sharded family, an atomic manifest rewrite)
        puts filesystem latency on the serving path — measured spikes
        of 100 ms during which no batch runs.  With write-back
        deferred, readers still observe every write immediately (dirty
        pages are served from the page cache); durability points are
        the index owner's ``sync()`` / ``close()``.  Set True to make
        every write batch a consistency point, accepting the tail: the
        batch is applied on the loop, committed on the commit thread
        (no ``fsync`` ever runs on the loop) and answered only once the
        commit has returned.
    sync_every_n / sync_interval_s:
        **Group commit** — the middle ground the all-or-nothing
        ``sync_writes`` lacks.  After every ``sync_every_n``-th
        un-synced write batch (or once ``sync_interval_s`` seconds
        have passed since the last commit, whichever is configured and
        fires first), the service ``sync()``s every mutated index *off
        the loop*: the commit runs on the commit thread while read
        batches keep executing (the flush path is fully locked and one
        atomic header-slot flip publishes it — see
        ``docs/durability.md``), never concurrent with writes — the
        dispatcher awaits an in-flight commit before the next write
        batch mutates the trees, and whatever is queued behind that
        batch waits with it.  Un-synced batches still pending at
        :meth:`aclose` get one final commit.  Mutually exclusive with
        ``sync_writes=True``.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When set, every
        request the tracer's sampling keeps (or that turns out slow)
        records admission/queue/coalesce-or-commit-wait/execute spans
        plus the engine/shard spans the lower layers add, with exact
        per-request I/O attribution.  ``None`` (default) is the no-op
        fast path.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  A
        periodic snapshot task copies the service's counters, queue
        gauges, per-kind latency histograms and per-index/per-shard I/O
        totals into it every ``metrics_interval`` seconds (and once
        more at close).
    metrics_interval:
        Seconds between metric snapshots.
    slow_log:
        Optional :class:`~repro.obs.slowlog.SlowQueryLog`; every
        completed request at or over its threshold is recorded with its
        queue/engine split and attributed I/O (plus the compact EXPLAIN
        summary when ``explain`` is on).
    explain:
        Passed through to the server: each executed read
        captures a :mod:`repro.queries.explain` plan, attached to slow
        log entries in summary form and aggregated into the
        ``repro_explain_*`` metric families.  Off (default) keeps the
        traversal hot path at a ``None`` check or two per node.
    health_interval:
        Seconds between **index-health snapshots**: every cadence tick
        of the metrics loop past this interval walks each index
        cache-neutrally (:func:`repro.obs.health.index_quality`),
        compares against its pack-time baseline and exports the
        ``repro_health_*`` families, including the normalized
        degradation score that arms the self-maintenance trigger.
        ``None`` (default) disables the walk — it reads the whole tree,
        so pick a cadence that amortizes it.

    Use as an async context manager, or call :meth:`start` /
    :meth:`aclose` explicitly.  :meth:`submit` starts the dispatcher
    lazily, so short scripts can skip :meth:`start`.
    """

    def __init__(
        self,
        indexes: RTree | ShardedTree | Mapping[str, Any],
        max_batch: int = 64,
        max_pending_reads: int = 1024,
        max_pending_writes: int = 256,
        admission: str = "reject",
        executor_workers: int = 4,
        dedup: bool = True,
        sync_writes: bool = False,
        sync_every_n: int | None = None,
        sync_interval_s: float | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        metrics_interval: float = 1.0,
        slow_log: SlowQueryLog | None = None,
        explain: bool = False,
        health_interval: float | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending_reads < 1 or max_pending_writes < 1:
            raise ValueError("admission bounds must be >= 1")
        if admission not in ("reject", "backpressure"):
            raise ValueError(
                "admission must be 'reject' or 'backpressure', "
                f"not {admission!r}"
            )
        if executor_workers < 1:
            raise ValueError("executor_workers must be >= 1")
        if metrics_interval <= 0:
            raise ValueError("metrics_interval must be > 0")
        if health_interval is not None and health_interval <= 0:
            raise ValueError("health_interval must be > 0")
        if sync_every_n is not None and sync_every_n < 1:
            raise ValueError("sync_every_n must be >= 1")
        if sync_interval_s is not None and sync_interval_s <= 0:
            raise ValueError("sync_interval_s must be > 0")
        if sync_writes and (
            sync_every_n is not None or sync_interval_s is not None
        ):
            raise ValueError(
                "sync_writes=True already commits every write batch; "
                "group commit (sync_every_n/sync_interval_s) replaces it"
            )
        self.max_batch = max_batch
        self.max_pending_reads = max_pending_reads
        self.max_pending_writes = max_pending_writes
        self.admission = admission
        self.sync_writes = sync_writes
        self.sync_every_n = sync_every_n
        self.sync_interval_s = sync_interval_s
        self.stats = ServiceStats()
        self.tracer = tracer
        self.metrics = metrics
        self.metrics_interval = metrics_interval
        self.slow_log = slow_log
        self.explain = explain
        self.health_interval = health_interval

        # The server never syncs: with sync_writes the service commits
        # each write batch itself, on the commit thread.
        self._server = QueryServer(
            indexes, dedup=dedup, sync_writes=False, explain=explain
        )
        #: The commit thread — the one call that blocks in the kernel.
        self._committer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-commit"
        )

        self._reads: deque[_Pending] = deque()
        self._writes: deque[_Pending] = deque()
        self._wakeup = asyncio.Event()
        self._space = asyncio.Condition()
        self._dispatcher: asyncio.Task | None = None
        self._metrics_task: asyncio.Task | None = None
        #: What this service has already added to each registry
        #: counter (:func:`~repro.obs.status.export_metrics`).
        self._exported: dict[tuple, float] = {}
        #: EXPLAIN aggregates per request kind:
        #: kind → [plans, nodes visited, summed pruning efficiency].
        self._explain_totals: dict[str, list[float]] = {}
        #: Wall clock of the last index-health walk (0.0 = never; the
        #: first metrics snapshot after start walks immediately).
        self._last_health = 0.0
        #: Group-commit state: write batches applied but not yet made
        #: durable, the indexes they touched, the in-flight commit (at
        #: most one — the dispatcher awaits it before the next write
        #: batch), and the wall clock of the last commit (the
        #: ``sync_interval_s`` cadence reference).
        self._unsynced_batches = 0
        self._unsynced_indexes: set[str] = set()
        self._sync_task: asyncio.Task | None = None
        self._last_sync = time.perf_counter()
        self._closing = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher task (idempotent; needs a running loop)."""
        if self._closing:
            raise ServiceClosed("the service is shut down")
        if self._dispatcher is None:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch(), name="repro-service-dispatcher"
            )
        if self.metrics is not None and self._metrics_task is None:
            self._metrics_task = asyncio.get_running_loop().create_task(
                self._metrics_loop(), name="repro-service-metrics"
            )

    async def aclose(self) -> None:
        """Drain queued requests, stop the dispatcher and the commit thread.

        Requests already admitted are still answered; new submissions
        raise :class:`ServiceClosed`.  Idempotent.
        """
        if self._closed:
            return
        self._closing = True
        self._wakeup.set()
        await self._notify_space()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        # Group commit: whatever the cadence left un-synced becomes
        # durable now, before the commit thread goes away.
        await self._await_sync()
        if self._unsynced_batches:
            await self._commit()
        if self._metrics_task is not None:
            self._metrics_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._metrics_task
            self._metrics_task = None
        if self.metrics is not None:
            # One final snapshot so the exported state includes the
            # last partial interval.
            self.snapshot_metrics()
        self._closed = True
        self._committer.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncQueryService":
        self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queue_depth(self) -> int:
        """Requests currently queued (admitted, not yet batched)."""
        return len(self._reads) + len(self._writes)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _lane(self, request: Request) -> tuple[deque, int, str]:
        if isinstance(request, _WRITE_KINDS):
            return self._writes, self.max_pending_writes, "write"
        return self._reads, self.max_pending_reads, "read"

    async def submit(self, request: Request) -> ServiceResponse:
        """Submit one request; await its :class:`ServiceResponse`.

        Applies admission control at the lane bound: ``"reject"`` mode
        raises :class:`AdmissionError` immediately, ``"backpressure"``
        mode suspends until the lane drains.  Raises
        :class:`ServiceClosed` once :meth:`aclose` has begun.
        """
        if self._closing:
            raise ServiceClosed("the service is shut down")
        self.start()
        admitted_from = time.perf_counter()
        lane, bound, name = self._lane(request)
        if len(lane) >= bound:
            if self.admission == "reject":
                if name == "write":
                    self.stats.rejected_writes += 1
                else:
                    self.stats.rejected_reads += 1
                raise AdmissionError(name, bound)
            async with self._space:
                await self._space.wait_for(
                    lambda: len(lane) < bound or self._closing
                )
            if self._closing:
                raise ServiceClosed("the service is shut down")
        pending = _Pending(
            request, asyncio.get_running_loop().create_future()
        )
        if self.tracer is not None:
            # The trace covers admission → response; its spans then
            # partition that window exactly (admission/queue/coalesce-
            # or-commit-wait/execute), so per-span time accounts for
            # the reported end-to-end latency.
            trace = self.tracer.begin(
                request.kind, request.kind, start_s=admitted_from
            )
            if trace is not None:
                trace.add_span(
                    "admission",
                    admitted_from,
                    pending.enqueued_at,
                    cat="service",
                    lane=name,
                )
                pending.trace = trace
        lane.append(pending)
        self.stats.submitted += 1
        self.stats.note_queue_depth(self.queue_depth)
        self._wakeup.set()
        return await pending.future

    async def submit_many(
        self, requests: Sequence[Request]
    ) -> list[ServiceResponse]:
        """Submit several requests concurrently and await all responses.

        A convenience for closed-loop clients; rejections and errors
        propagate as the corresponding exception.
        """
        return list(
            await asyncio.gather(*(self.submit(r) for r in requests))
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self) -> None:
        """The single dispatcher: forms batches and executes them, here.

        Being the only task that runs batches — on the loop thread — is
        what makes write exclusivity free: a write batch is simply the
        next batch, nothing can be in flight beside it, so no lock
        protects the tree from the engine.
        """
        while True:
            self._maybe_schedule_sync()
            if not self._reads and not self._writes:
                if self._closing:
                    break
                self._wakeup.clear()
                timeout = self._sync_wait_timeout()
                if timeout is None:
                    await self._wakeup.wait()
                else:
                    # Un-synced batches and an interval cadence: wake
                    # at the commit deadline even when idle.
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(self._wakeup.wait(), timeout)
                continue

            # Writes first: reads queued ahead of a write stay queued
            # behind it.
            write = bool(self._writes)
            batch = self._drain(self._writes if write else self._reads)
            await self._notify_space()
            if write:
                # Never mutate under an in-flight group commit: the
                # commit captures a consistent tree, so the write batch
                # waits for the header flips (and the manifest rename)
                # to land.
                await self._await_sync()
            await self._run_batch(batch, write)
            if write and self._group_commit:
                self._unsynced_batches += 1
                self._unsynced_indexes.update(
                    pending.request.index for pending in batch
                )
            # One turn of the loop per batch: submitters, timers and
            # cancelled clients run before the next batch holds it.
            await asyncio.sleep(0)

    def _drain(self, lane: deque) -> list[_Pending]:
        batch = []
        drained_at = time.perf_counter()
        while lane and len(batch) < self.max_batch:
            pending = lane.popleft()
            pending.drained_at = drained_at
            batch.append(pending)
        self.stats.note_queue_depth(self.queue_depth)
        return batch

    async def _notify_space(self) -> None:
        """Wake backpressure waiters after a lane drained.

        Only ``"backpressure"`` admission ever waits on the condition,
        and only a drain (or closing) can make a waiter's predicate
        true.
        """
        if self.admission == "backpressure":
            async with self._space:
                self._space.notify_all()

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------

    @property
    def _group_commit(self) -> bool:
        return self.sync_every_n is not None or self.sync_interval_s is not None

    def _sync_due(self) -> bool:
        if not self._unsynced_batches:
            return False
        if self._sync_task is not None and not self._sync_task.done():
            return False
        if (
            self.sync_every_n is not None
            and self._unsynced_batches >= self.sync_every_n
        ):
            return True
        return (
            self.sync_interval_s is not None
            and time.perf_counter() - self._last_sync >= self.sync_interval_s
        )

    def _sync_wait_timeout(self) -> float | None:
        """Idle-wait bound: seconds until the interval cadence is due."""
        if self.sync_interval_s is None or not self._unsynced_batches:
            return None
        if self._sync_task is not None and not self._sync_task.done():
            return None
        due = self._last_sync + self.sync_interval_s
        return max(0.0, due - time.perf_counter())

    def _maybe_schedule_sync(self) -> None:
        """Launch a group commit as a background task when one is due.

        Called only from the dispatcher, so at most one commit is ever
        in flight and it never overlaps a write batch (the dispatcher
        awaits it first); it *does* overlap read batches — the flush
        path is fully locked and publication is one atomic header-slot
        flip, so readers never see a half-commit.
        """
        if self._sync_due():
            self._sync_task = asyncio.get_running_loop().create_task(
                self._commit(), name="repro-service-commit"
            )

    async def _await_sync(self) -> None:
        if self._sync_task is not None:
            await self._sync_task
            self._sync_task = None

    async def _commit(self) -> None:
        """One group commit: sync every index mutated since the last.

        Runs on the commit thread so the event loop (and with it the
        read lane) keeps serving.  A failed commit re-queues its
        batches — the next cadence point retries them.
        """
        batches = self._unsynced_batches
        names = sorted(self._unsynced_indexes)
        self._unsynced_batches = 0
        self._unsynced_indexes.clear()
        started = time.perf_counter()
        try:
            await self._sync_off_loop(names)
        except Exception:
            self.stats.commit_failures += 1
            self._unsynced_batches += batches
            self._unsynced_indexes.update(names)
        else:
            self.stats.commits += 1
            self.stats.committed_batches += batches
            self.stats.commit_seconds += time.perf_counter() - started
        finally:
            self._last_sync = time.perf_counter()

    async def _sync_off_loop(self, names: Sequence[str]) -> None:
        """``sync()`` the named indexes on the commit thread."""

        def sync_all() -> None:
            for name in names:
                sync = getattr(self._server.indexes.get(name), "sync", None)
                if sync is not None:
                    sync()

        await asyncio.get_running_loop().run_in_executor(
            self._committer, sync_all
        )

    async def _run_batch(self, batch: list[_Pending], write: bool) -> None:
        """Execute one batch on this (the loop's) thread and resolve its
        futures; only a ``sync_writes`` commit is awaited off it."""
        started = time.perf_counter()
        requests = [pending.request for pending in batch]
        # One batch holds many traces: the server activates each
        # request's trace at the moment that request executes.
        traces: list[Trace | None] | None = None
        if any(pending.trace is not None for pending in batch):
            traces = [pending.trace for pending in batch]
        try:
            report = self._server.submit(requests, traces)
            if write and self.sync_writes:
                # Applied, then committed: the batch is answered only
                # once its commit has returned.
                await self._sync_off_loop(
                    sorted({request.index for request in requests})
                )
        except Exception as exc:
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
                if pending.trace is not None:
                    pending.trace.event(
                        "error", type=type(exc).__name__, message=str(exc)
                    )
                    self.tracer.finish(pending.trace)
            return

        done = time.perf_counter()
        self.stats.batches += 1
        for pending, result in zip(batch, report.results):
            latency = done - pending.enqueued_at
            plan = result.plan
            if plan is not None and not result.deduped:
                acc = self._explain_totals.setdefault(
                    pending.request.kind, [0, 0, 0.0]
                )
                acc[0] += 1
                acc[1] += plan.nodes_visited
                acc[2] += plan.pruning_efficiency
            if pending.trace is not None:
                trace = pending.trace
                # These three spans partition enqueue → response
                # exactly; with the admission span they cover the whole
                # trace window.
                trace.add_span(
                    "queue",
                    pending.enqueued_at,
                    pending.drained_at,
                    cat="service",
                    lane="write" if write else "read",
                )
                trace.add_span(
                    "commit-wait" if write else "coalesce",
                    pending.drained_at,
                    started,
                    cat="service",
                )
                trace.add_span(
                    "execute",
                    started,
                    done,
                    cat="service",
                    batch_size=len(batch),
                    deduped=result.deduped,
                )
                self.tracer.finish(trace, end_s=done)
            if self.slow_log is not None:
                self.slow_log.note(
                    pending.request.kind,
                    latency,
                    queue_s=pending.drained_at - pending.enqueued_at,
                    engine_s=result.latency_s,
                    batch_size=len(batch),
                    detail=repr(pending.request),
                    io=(
                        pending.trace.io.snapshot()
                        if pending.trace is not None
                        else None
                    ),
                    trace_id=(
                        pending.trace.trace_id
                        if pending.trace is not None
                        else None
                    ),
                    explain=plan.summary() if plan is not None else None,
                )
            if pending.future.done():
                # The client gave up (e.g. wait_for cancelled the
                # await) while the batch was in flight; the work is
                # done either way, only the delivery is moot.
                continue
            self.stats.observe(pending.request.kind, latency)
            pending.future.set_result(
                ServiceResponse(
                    request=pending.request,
                    value=result.value,
                    stats=result.stats,
                    latency_s=latency,
                    queue_s=started - pending.enqueued_at,
                    engine_s=result.latency_s,
                    batch_size=len(batch),
                )
            )

    # ------------------------------------------------------------------
    # Metrics snapshots
    # ------------------------------------------------------------------

    async def _metrics_loop(self) -> None:
        """Copy service state into the registry every interval."""
        while True:
            await asyncio.sleep(self.metrics_interval)
            self.snapshot_metrics()

    def status(self) -> ServiceStatus:
        """The service's counters beside every served index's status.

        One :class:`~repro.obs.status.ServiceStatus`: a copy of
        :attr:`stats`, the lane depths, the EXPLAIN totals and one
        :class:`~repro.obs.status.IndexStatus` per index, its health
        walked on every call.  After :meth:`aclose` it agrees with
        ``repro status`` over the same files.
        """
        return self._status(health=True)

    def _status(self, health: bool) -> ServiceStatus:
        return ServiceStatus(
            stats=copy.deepcopy(self.stats),
            queue_depth={"read": len(self._reads), "write": len(self._writes)},
            explain={
                kind: tuple(acc) for kind, acc in self._explain_totals.items()
            },
            indexes={
                name: read_status(tree, health=health)
                for name, tree in self._server.indexes.items()
            },
        )

    def snapshot_metrics(self) -> None:
        """Mirror the service's status into :attr:`metrics`.

        Exports :data:`~repro.obs.status.METRIC_FAMILIES` over the four
        label dimensions of the stack: ``lane``, ``kind``, ``index`` and
        ``shard``.  The serving hot path never touches the registry, so
        this is safe to call at any time (the periodic task and the
        final :meth:`aclose` snapshot both land here).  The health walk
        reads every node, so it runs at most once per
        :attr:`health_interval`; snapshots in between leave the
        ``repro_health_*`` gauges as they were.
        """
        if self.metrics is None:
            return
        now = time.perf_counter()
        walk = self.health_interval is not None and (
            not self._last_health
            or now - self._last_health >= self.health_interval
        )
        if walk:
            self._last_health = now
        export_metrics(self._status(health=walk), self.metrics, self._exported)

    def __repr__(self) -> str:
        return (
            f"AsyncQueryService(queued={self.queue_depth}, "
            f"admission={self.admission!r}, {self.stats!r})"
        )
