"""Page-cache analytics: reuse distances and working sets.

`PageCacheStats` says what the cache *did* at its configured budget.
This module says what it *would* do at any other budget, from the same
access stream, in one pass — the input the ROADMAP's cache-policy
experiments (2Q, CLOCK, budget sizing) need before any policy is worth
implementing.

The core is a **ghost LRU** (Mattson's stack algorithm, SIGMOD's
favorite 1970 result): keep the accessed block ids in exact LRU order
*without their data*, and on each access record the block's stack
depth — its reuse distance.  An LRU cache of capacity C hits exactly
the accesses with distance <= C, so one pass yields the hit count for
*every* capacity simultaneously.

A naive stack costs O(depth) per access.  `ReuseDistanceTracker`
buckets the stack instead: a chain of ordered dicts with capacities
equal to the gaps between the requested budget boundaries.  An access
only needs to know *which bucket* the block sits in (a dict lookup),
then the block moves to the MRU bucket and each overfull bucket demotes
its own LRU tail to the next — O(#buckets) dict operations per access,
independent of stack depth, while preserving the exact global LRU
order.  Hit counts at the boundary budgets are therefore *exact*
(verified against a brute-force stack oracle in the tests); only
between boundaries does the curve interpolate.

On top of the distance histogram the tracker keeps a working-set
estimate — unique blocks touched in the trailing window of accesses
(Denning's W(t, τ) with τ in accesses) — and the cold (first-touch)
misses, which no budget can save.

The tracker hooks into ``PagedNodeStore`` under the store lock, so it
observes exactly the lookup sequence the real cache serves — counted
reads *and* kind-probe peeks, each tagged with the real hit/miss
outcome — and the curve's point at the configured capacity lands on
the measured ``PageCacheStats`` hit ratio (the engines' peek-then-read
idiom makes the ghost's insert-on-access model agree with the real
peek-around/insert-on-read behavior; only the MRU pin and peeks never
followed by a read can diverge, both marginal).  When disabled (the
default) the hook is one ``is None`` check per lookup.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "ReuseDistanceTracker",
    "CacheCurvePoint",
    "default_budgets",
]

#: Trailing-window sizes (in accesses) for the working-set estimate.
WSS_WINDOWS = (1_000, 10_000, 100_000)


def default_budgets(capacity: int) -> tuple[int, ...]:
    """Budget boundaries bracketing ``capacity`` geometrically.

    Powers-of-two fractions and multiples of the configured capacity —
    the budgets a sizing decision actually compares — deduplicated and
    cleaned of non-positive values.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    raw = [
        capacity // 8,
        capacity // 4,
        capacity // 2,
        capacity,
        capacity * 2,
        capacity * 4,
        capacity * 8,
    ]
    return tuple(sorted({b for b in raw if b >= 1}))


@dataclass(frozen=True)
class CacheCurvePoint:
    """One point of the miss-ratio curve: an LRU cache of ``budget``
    pages would have served this access stream with these counts."""

    budget: int
    hits: int
    misses: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class _GhostStack:
    """Exact LRU stack bucketed at the budget boundaries.

    ``_buckets[i]`` holds the blocks at stack depths
    ``(boundary[i-1], boundary[i]]`` in LRU order (first = shallowest).
    A hit in bucket ``i`` means reuse distance <= ``boundary[i]``:
    charge ``hits_within[i]``, move the block to the MRU end of bucket
    0, and cascade — every bucket that is now over capacity demotes its
    least-recent entry to the head of the next.  Entries demoted past
    the last boundary leave the ghost entirely (bounded memory: the
    ghost never holds more than ``boundary[-1]`` ids).
    """

    __slots__ = ("boundaries", "capacities", "_buckets", "hits_within")

    def __init__(self, boundaries: Sequence[int]) -> None:
        self.boundaries = tuple(boundaries)
        prev = 0
        self.capacities = []
        for b in self.boundaries:
            self.capacities.append(b - prev)
            prev = b
        self._buckets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in self.boundaries
        ]
        self.hits_within = [0] * len(self.boundaries)

    def touch(self, block_id: int) -> None:
        """Record an access."""
        hit_bucket = -1
        for i, bucket in enumerate(self._buckets):
            if block_id in bucket:
                del bucket[block_id]
                hit_bucket = i
                break
        if hit_bucket >= 0:
            self.hits_within[hit_bucket] += 1
        buckets = self._buckets
        buckets[0][block_id] = None
        buckets[0].move_to_end(block_id)
        # Cascade demotions: stop at the bucket the hit came from (it
        # just lost an entry and cannot overflow) or when a bucket has
        # room.  Each demotion moves one LRU tail one bucket deeper,
        # preserving the global LRU order across the chain.
        limit = hit_bucket if hit_bucket >= 0 else len(buckets)
        for i in range(limit):
            if len(buckets[i]) <= self.capacities[i]:
                break
            demoted, _ = buckets[i].popitem(last=False)
            if i + 1 < len(buckets):
                # The demoted entry was the deepest of bucket i, hence
                # shallower than all of bucket i+1: append at the
                # shallow (most-recent) end.
                buckets[i + 1][demoted] = None


class ReuseDistanceTracker:
    """One-pass ghost-LRU cache model of a page-access stream.

    Parameters
    ----------
    capacity:
        The real cache's page budget; anchors the default boundary set
        so the curve always has an exact point at the configured size.
    budgets:
        Explicit boundary budgets (ascending after dedup).  Overrides
        ``capacity``-derived defaults.
    keep_log:
        Retain the raw ``(block_id, is_leaf)`` access sequence for
        oracle replay in tests.  Never enable in production paths —
        memory grows with the trace.

    Thread safety: :meth:`record` takes the tracker's own lock, so one
    tracker may serve a store reached from several worker threads; the
    observed order is the order the callers acquired it in (for
    `PagedNodeStore` the store lock already serializes callers, making
    the ghost order identical to the real cache's).
    """

    def __init__(
        self,
        capacity: int = 1024,
        budgets: Iterable[int] | None = None,
        keep_log: bool = False,
    ) -> None:
        bounds = (
            tuple(sorted({int(b) for b in budgets if int(b) >= 1}))
            if budgets is not None
            else default_budgets(capacity)
        )
        if not bounds:
            raise ValueError("at least one positive budget required")
        self.capacity = capacity
        self._stack = _GhostStack(bounds)
        self._seen: set[int] = set()
        self.accesses = 0
        #: Accesses the *real* cache served as hits (reported by the
        #: caller per :meth:`record`).  ``observed_hits / accesses`` is
        #: the measured hit ratio over exactly the tracked stream — the
        #: ground truth the curve's point at the configured capacity is
        #: validated against.
        self.observed_hits = 0
        #: access index -> block id ring buffers for working sets.
        self._recent: OrderedDict[int, int] = OrderedDict()  # block -> last access idx
        self._lock = threading.Lock()
        self.log: list[tuple[int, bool]] | None = [] if keep_log else None

    # -- recording -----------------------------------------------------

    def record(self, block_id: int, is_leaf: bool, hit: bool = False) -> None:
        """Observe one page-table lookup; ``hit`` is the real outcome."""
        with self._lock:
            self.accesses += 1
            if hit:
                self.observed_hits += 1
            self._seen.add(block_id)
            self._stack.touch(block_id)
            self._recent[block_id] = self.accesses
            self._recent.move_to_end(block_id)
            # Age out entries no working-set window can still see.
            horizon = self.accesses - max(WSS_WINDOWS)
            while self._recent:
                oldest_block = next(iter(self._recent))
                if self._recent[oldest_block] > horizon:
                    break
                del self._recent[oldest_block]
            if self.log is not None:
                self.log.append((block_id, is_leaf))

    # -- derived views -------------------------------------------------

    @property
    def budgets(self) -> tuple[int, ...]:
        return self._stack.boundaries

    @property
    def unique_blocks(self) -> int:
        return len(self._seen)

    @property
    def cold_misses(self) -> int:
        """First touches: the misses no budget can save."""
        return len(self._seen)

    def predicted_hits(self, budget: int) -> int:
        """Exact LRU hits a ``budget``-page cache would have served.

        Exact when ``budget`` is one of the boundary budgets; otherwise
        the count for the largest boundary <= budget (a lower bound).
        """
        with self._lock:
            hits = 0
            for bound, h in zip(self._stack.boundaries, self._stack.hits_within):
                if bound <= budget:
                    hits += h
                else:
                    break
            return hits

    def miss_ratio_curve(self) -> list[CacheCurvePoint]:
        """Hit/miss counts at every boundary budget, ascending."""
        with self._lock:
            points = []
            cum_hits = 0
            for bound, h in zip(self._stack.boundaries, self._stack.hits_within):
                cum_hits += h
                points.append(
                    CacheCurvePoint(
                        budget=bound,
                        hits=cum_hits,
                        misses=self.accesses - cum_hits,
                    )
                )
            return points

    def working_set_sizes(self) -> dict[int, int]:
        """Unique blocks touched in each trailing window of accesses.

        Denning's working set W(t, τ) sampled now, with τ given in
        accesses (not seconds — access counts are reproducible).
        Windows longer than the stream so far report the full unique
        count.
        """
        with self._lock:
            sizes: dict[int, int] = {}
            for window in WSS_WINDOWS:
                horizon = self.accesses - window
                if horizon <= 0:
                    sizes[window] = len(self._seen)
                else:
                    sizes[window] = sum(
                        1 for last in self._recent.values() if last > horizon
                    )
            return sizes

    def __repr__(self) -> str:
        return (
            f"ReuseDistanceTracker(capacity={self.capacity}, "
            f"accesses={self.accesses}, unique={self.unique_blocks}, "
            f"budgets={self._stack.boundaries})"
        )
