"""Streaming latency statistics for the serving layer.

Serving systems are judged on *tail* latency — the SIGMOD 2014 contest
analyses score sustained throughput and p99, not means — so the async
service needs percentiles it can maintain in O(1) per observation
without storing every sample.  :class:`LatencyHistogram` is a
fixed-bucket geometric histogram (stdlib only): bucket boundaries grow
by a constant factor (1.2, i.e. 120 buckets from a microsecond to ~45
minutes), so any percentile estimate is off by at most half a bucket's
relative width (~9%) — plenty for latency reporting, bounded memory
forever.

:class:`ServiceStats` aggregates one histogram per request kind plus a
service-wide one, along with the queue/admission counters the async
front end maintains: submitted/completed/rejected per lane, batches
executed, live and high-water queue depth (see
``docs/async-serving.md``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

__all__ = ["LatencyHistogram", "KindSummary", "ServiceStats"]

#: Smallest latency (seconds) with its own bucket; everything below
#: lands in bucket 0.  1 µs is far under Python's timer resolution.
_FLOOR_S = 1e-6
#: Geometric growth factor between bucket upper bounds.  1.2**119
#: spans 1 µs → ~2600 s across 120 buckets of ≤ 20% relative width
#: (≤ ~9.5% error reporting the geometric midpoint).
_GROWTH = 1.2
#: Total buckets (the last one is open-ended).
_BUCKETS = 120
_LOG_GROWTH = math.log(_GROWTH)


class LatencyHistogram:
    """Fixed-bucket geometric histogram over seconds.

    ``observe`` is O(1); ``percentile`` walks the (fixed, small) bucket
    array and returns the geometric midpoint of the bucket holding the
    requested rank, so the estimate's relative error is bounded by half
    a bucket's width.  Exact ``count``/``total``/``min``/``max`` ride
    along for means and ranges.
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * _BUCKETS
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    @staticmethod
    def _bucket(latency_s: float) -> int:
        if latency_s <= _FLOOR_S:
            return 0
        index = int(math.log(latency_s / _FLOOR_S) / _LOG_GROWTH) + 1
        return min(index, _BUCKETS - 1)

    @staticmethod
    def _midpoint(bucket: int) -> float:
        """Geometric midpoint of a bucket's (lo, hi] latency range."""
        if bucket == 0:
            return _FLOOR_S / 2
        lo = _FLOOR_S * _GROWTH ** (bucket - 1)
        return lo * math.sqrt(_GROWTH)

    def observe(self, latency_s: float) -> None:
        """Record one latency sample (seconds)."""
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        self.counts[self._bucket(latency_s)] += 1
        self.count += 1
        self.total += latency_s
        self.min = min(self.min, latency_s)
        self.max = max(self.max, latency_s)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        """Exact mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile (p in [0, 100]) in seconds.

        Returns 0.0 for an empty histogram.  The estimate is the
        geometric midpoint of the bucket containing the rank, clamped
        to the exact observed ``min``/``max`` so single-bucket
        histograms report sane values.
        """
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(self.count * p / 100.0))
        seen = 0
        for bucket, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                if bucket == _BUCKETS - 1:
                    # The overflow bucket is open-ended; the observed
                    # max is the only honest estimate inside it.
                    return self.max
                return min(max(self._midpoint(bucket), self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        if not self.count:
            return "LatencyHistogram(empty)"
        return (
            f"LatencyHistogram(n={self.count}, "
            f"p50={self.percentile(50) * 1000:.2f}ms, "
            f"p99={self.percentile(99) * 1000:.2f}ms)"
        )


@dataclass(frozen=True)
class KindSummary:
    """One request kind's latency digest, in milliseconds."""

    kind: str
    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float


@dataclass
class ServiceStats:
    """Aggregated serving statistics: latency, throughput, admission.

    One :class:`LatencyHistogram` per request kind plus an overall one.
    The admission counters are maintained by the
    :class:`~repro.service.service.AsyncQueryService`.
    """

    overall: LatencyHistogram = field(default_factory=LatencyHistogram)
    by_kind: dict[str, LatencyHistogram] = field(default_factory=dict)
    #: Requests accepted into a lane (rejections are not submitted).
    submitted: int = 0
    #: Requests answered (a response future resolved with a result).
    completed: int = 0
    #: Requests refused by admission control, per lane.
    rejected_reads: int = 0
    rejected_writes: int = 0
    #: Batches executed (each on the loop thread, one at a time).
    batches: int = 0
    #: Live queued-request count across lanes, and its high-water mark.
    queue_depth: int = 0
    max_queue_depth: int = 0
    #: Wall-clock of the first/last observation (throughput window).
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Group commits executed (``sync_every_n``/``sync_interval_s``
    #: cadence plus the final commit at close) and the write batches
    #: they made durable; ``sync_writes=True`` commits per write batch
    #: instead and leaves these at zero.
    commits: int = 0
    committed_batches: int = 0
    #: Seconds spent inside group commits, total — on the commit
    #: thread, so this is concurrent-with-reads time; it stalls the
    #: lanes only where a write batch catches a commit in flight.
    commit_seconds: float = 0.0
    #: Group commits that raised (the dirty batches stay pending and
    #: the next cadence point retries).
    commit_failures: int = 0

    @property
    def rejected(self) -> int:
        """Total requests refused by admission control."""
        return self.rejected_reads + self.rejected_writes

    @property
    def elapsed_s(self) -> float:
        """Seconds between the first and last observation."""
        return max(0.0, self.finished_at - self.started_at)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of the observation window."""
        elapsed = self.elapsed_s
        return self.completed / elapsed if elapsed > 0 else 0.0

    # -- recording -----------------------------------------------------

    def _clock(self) -> None:
        now = time.perf_counter()
        if not self.started_at:
            self.started_at = now
        self.finished_at = now

    def histogram(self, kind: str) -> LatencyHistogram:
        """The (created-on-demand) histogram of one request kind."""
        histogram = self.by_kind.get(kind)
        if histogram is None:
            histogram = self.by_kind[kind] = LatencyHistogram()
        return histogram

    def observe(self, kind: str, latency_s: float) -> None:
        """Record one completed request's latency under its kind."""
        self.overall.observe(latency_s)
        self.histogram(kind).observe(latency_s)
        self.completed += 1
        self._clock()

    def note_queue_depth(self, depth: int) -> None:
        """Track the live queue depth and its high-water mark."""
        self.queue_depth = depth
        self.max_queue_depth = max(self.max_queue_depth, depth)

    # -- reporting -----------------------------------------------------

    def kind_summaries(self) -> list[KindSummary]:
        """Per-kind latency digests, sorted by kind name."""
        return [
            KindSummary(
                kind=kind,
                count=histogram.count,
                mean_ms=histogram.mean * 1000.0,
                p50_ms=histogram.percentile(50) * 1000.0,
                p95_ms=histogram.percentile(95) * 1000.0,
                p99_ms=histogram.percentile(99) * 1000.0,
            )
            for kind, histogram in sorted(self.by_kind.items())
        ]

    def __repr__(self) -> str:
        return (
            f"ServiceStats(completed={self.completed}, "
            f"rejected={self.rejected}, batches={self.batches}, "
            f"p50={self.overall.percentile(50) * 1000:.2f}ms, "
            f"p99={self.overall.percentile(99) * 1000:.2f}ms, "
            f"max_queue={self.max_queue_depth})"
        )
