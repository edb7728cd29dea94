"""The shard fan-out layer as it stood before a family became one tree.

Verbatim copies of ``repro.storage.shard``'s ``_ShardedFanout`` and its
four engines — ``ShardedQueryEngine``, ``ShardedPointEngine``,
``ShardedKNNEngine`` (a best-first merge of per-shard streams) and
``ShardedJoinEngine`` (a join per pair of components) — adapted only
where the family changed under them: a ``ShardedTree`` no longer keeps
engine time, so each engine keeps its own ``shard_busy_s``.  Each shard
gets its own single-tree sub-engine (``_SUB_ENGINE``), which a test may
swap for an older oracle engine, as ``tests/dfs_oracle.py``'s are:

    class OracleShardedQuery(FanoutQueryEngine):
        _SUB_ENGINE = DFSOracleQueryEngine
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import replace
from itertools import chain, islice
from typing import Any, Callable, Iterator, Sequence

from repro.geometry.rect import Rect, check_dim
from repro.obs.tap import scoped_tap
from repro.obs.trace import current_trace
from repro.queries.join import JoinStats, SpatialJoinEngine
from repro.queries.knn import (
    Hit, KNNEngine, Neighbor, Neighbors, id_column, target_dist_sq,
)
from repro.queries.point import PointQueryEngine
from repro.rtree.query import Matches, QueryEngine, QueryStats
from repro.rtree.tree import RTree
from repro.storage.shard import ShardedTree

from tests.conftest import matches_of


def concat(results, dim):
    """``Matches.concat`` as it was: the rows of every result, in order
    (a lone shard's answer is shared)."""
    results = list(results)
    if len(results) == 1:
        return results[0]
    return matches_of(
        [(result._frame, result._rows) for result in results if result],
        chain.from_iterable(result._values for result in results),
        dim,
    )


def assert_knn_as_good(got, want) -> int:
    """A family's kNN — one best-first search over every shard — against
    the fan-out's merge of per-shard streams: the same distances, the
    same neighbors strictly inside the k-th distance (ties at it may
    break either way), and no more leaf reads, since the merge made
    each stream read ahead to its next hit.  Returns the leaf reads
    saved."""
    (got_nbs, got_stats), (want_nbs, want_stats) = got, want
    got_nbs, want_nbs = list(got_nbs), list(want_nbs)
    assert [nb.distance for nb in got_nbs] == [nb.distance for nb in want_nbs]
    if got_nbs:
        kth = got_nbs[-1].distance

        def inside(neighbors):
            return sorted(
                (nb.rect.lo, nb.rect.hi, repr(nb.value))
                for nb in neighbors
                if nb.distance < kth
            )

        assert inside(got_nbs) == inside(want_nbs)
    # The merge's streams also counted the hits they read ahead to.
    assert got_stats.reported == len(got_nbs) <= want_stats.reported
    assert got_stats.queries == want_stats.queries
    assert got_stats.leaf_reads <= want_stats.leaf_reads
    return want_stats.leaf_reads - got_stats.leaf_reads


__all__ = [
    "assert_knn_as_good",
    "FanoutQueryEngine",
    "FanoutPointEngine",
    "FanoutKNNEngine",
    "FanoutJoinEngine",
]


class _ShardedFanout:
    """Shared plumbing of the sharded engines: shard selection from the
    routing table, serial fan-out in shard order (each shard on its own
    sub-engine paying each internal read once), merge, per-shard timing.
    """

    #: The single-tree engine each shard gets.
    _SUB_ENGINE: type

    def __init__(
        self, sharded: ShardedTree, cache_internal: bool = True
    ) -> None:
        self.sharded = sharded
        self.totals = QueryStats()
        self.shard_busy_s = [0.0] * len(sharded.shards)
        self._subs = [
            self._SUB_ENGINE(shard, cache_internal)
            for shard in sharded.shards
        ]

    def _scatter(
        self, shape: Rect | Sequence[float], hits: Callable[[Rect], bool],
        call: Callable, merge: Callable[[list], Any] | None = None,
    ) -> tuple[Any, QueryStats]:
        """Route, fan out and merge one window-family request.

        ``shape`` is the request's window or point; ``hits`` tests a
        shard's box from the routing table; ``call`` runs the operator
        on one shard's sub-engine; ``merge`` combines the per-shard
        answers (default: their rows as one ``Matches``, in shard
        order).  A request that touches one shard returns that
        sub-engine's answer and stats as they are.
        """
        sharded = self.sharded
        check_dim(shape, sharded.dim)
        parts = self._fan_out(
            [i for i, mbr in enumerate(sharded._mbrs) if mbr and hits(mbr)],
            call,
        )
        if len(parts) == 1:
            self.totals.merge(parts[0][1])
            return parts[0]
        found = [answer for answer, _ in parts]
        return (
            merge(found) if merge else concat(found, sharded.dim),
            self._merge_stats([stats for _, stats in parts]),
        )

    def _fan_out(
        self, indices: list[int], call: Callable[[Any], Any]
    ) -> list[Any]:
        """Run ``call`` on each listed shard's sub-engine, in order.

        Untraced, a shard's I/O lands directly on the caller's tap (the
        request's or the batch's).  Traced, each shard runs under its
        own scoped tap — folded into the caller's on exit, so the totals
        are the same — whose snapshot is the ``io=`` of a ``shard:<i>``
        span on the shard's own trace track.
        """
        trace = current_trace()
        answers = []
        for i in indices:
            start = time.perf_counter()
            try:
                if trace is None:
                    answers.append(call(self._subs[i]))
                else:
                    with scoped_tap() as tap:
                        try:
                            answers.append(call(self._subs[i]))
                        finally:
                            trace.add_span(
                                f"shard:{i}",
                                start,
                                time.perf_counter(),
                                cat="shard",
                                track=i + 1,
                                io=tap.snapshot(),
                            )
            finally:
                self._note_shard_time(i, time.perf_counter() - start)
        return answers

    def _note_shard_time(self, i: int, seconds: float) -> None:
        self.shard_busy_s[i] += seconds

    def _merge_stats(self, parts: list[QueryStats]) -> QueryStats:
        """Combine per-shard stats into one facade-level query's stats."""
        merged = QueryStats(queries=1)
        for part in parts:
            merged.leaf_reads += part.leaf_reads
            merged.internal_reads += part.internal_reads
            merged.internal_visits += part.internal_visits
            merged.reported += part.reported
        self.totals.merge(merged)
        return merged

    def per_shard_totals(self) -> list[QueryStats]:
        """Each shard sub-engine's accumulated totals, in shard order.

        The numerators of the I/O-balance tables: a well-partitioned
        family spreads a uniform workload's leaf reads evenly here.
        """
        return [replace(sub.totals) for sub in self._subs]

    def reset(self) -> None:
        """Clear the facade's and every shard's totals (engines stay warm)."""
        self.totals = QueryStats()
        for sub in self._subs:
            sub.reset()


class FanoutQueryEngine(_ShardedFanout):
    """Window queries over a sharded family.

    One :class:`~repro.rtree.query.QueryEngine` per shard reads that
    shard's pinned internal levels across queries; a query fans out only
    to shards whose live MBR intersects the window and concatenates the
    matches in shard order.
    """

    _SUB_ENGINE = QueryEngine

    def query(self, window: Rect) -> tuple[Matches, QueryStats]:
        return self._scatter(
            window, window.intersects,
            lambda sub: sub.query(window),
        )


class FanoutPointEngine(_ShardedFanout):
    """Point / containment / count queries over a sharded family."""

    _SUB_ENGINE = PointQueryEngine

    def point_query(
        self, point: Sequence[float]
    ) -> tuple[Matches, QueryStats]:
        point = tuple(float(c) for c in point)
        return self._scatter(
            point, lambda mbr: mbr.contains_point(point),
            lambda sub: sub.point_query(point),
        )

    def containment_query(
        self, window: Rect
    ) -> tuple[Matches, QueryStats]:
        return self._scatter(
            window, window.intersects,
            lambda sub: sub.containment_query(window),
        )

    def count(self, window: Rect) -> tuple[int, QueryStats]:
        return self._scatter(
            window, window.intersects,
            lambda sub: sub.count(window), merge=sum,
        )


#: kNN merge-heap tags: open this shard's stream vs consume this stream.
_SHARD, _STREAM = 0, 1


class FanoutKNNEngine(_ShardedFanout):
    """Best-first kNN merge over per-shard incremental streams.

    Each shard contributes a lazy best-first stream of its
    :class:`~repro.queries.knn.KNNEngine`; a merge heap holds, for every
    shard, either its root MINDIST (stream not yet opened) or its next
    pending neighbor, keyed by distance and then arrival.  A shard's
    stream is opened — and starts paying I/O — only when its root
    MINDIST reaches the head of the heap, so shards that cannot
    contribute to the global top-k are never read at all.  Neighbors pop
    in globally nondecreasing distance order, exactly like the
    single-tree engine.
    """

    _SUB_ENGINE = KNNEngine

    def nearest(self, target) -> Iterator[Neighbor]:
        """Incrementally yield family-wide neighbors by distance."""
        check_dim(target, self.sharded.dim)
        stats = [sub.totals for sub in self._subs]
        get = self.sharded.objects.get  # a stream: one value at a time
        return (
            Neighbor(math.sqrt(dist_sq), frame.rect(row), get(oid))
            for _, (dist_sq, frame, row, oid) in self._hits(target, stats)
        )

    def _hits(
        self, target, stats: list[QueryStats]
    ) -> Iterator[tuple[int, Hit]]:
        """``(shard, hit)`` in family-wide distance order; shard ``i``'s
        stream counts into ``stats[i]``."""
        heap: list[tuple[float, int, int, Any]] = []
        counter = 0
        for i, mbr in enumerate(self.sharded._mbrs):
            if mbr is None:
                continue
            dist = math.sqrt(target_dist_sq(mbr, target))
            heap.append((dist, counter, _SHARD, i))
            counter += 1
        heapq.heapify(heap)
        while heap:
            _, _, kind, payload = heapq.heappop(heap)
            if kind == _SHARD:
                start = time.perf_counter()
                stream = self._subs[payload]._hits(target, stats[payload])
                head = next(stream, None)
                self._note_shard_time(
                    payload, time.perf_counter() - start
                )
                if head is not None:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (math.sqrt(head[0]), counter, _STREAM,
                         (payload, head, stream)),
                    )
                continue
            shard, head, stream = payload
            yield shard, head
            start = time.perf_counter()
            following = next(stream, None)
            self._note_shard_time(
                shard, time.perf_counter() - start
            )
            if following is not None:
                counter += 1
                heapq.heappush(
                    heap,
                    (math.sqrt(following[0]), counter, _STREAM,
                     (shard, following, stream)),
                )

    def knn(self, target, k: int) -> tuple[Neighbors, QueryStats]:
        """The family-wide k nearest neighbors of ``target``."""
        if k < 0:
            raise ValueError("k must be >= 0")
        check_dim(target, self.sharded.dim)
        stats = [QueryStats() for _ in self._subs]
        found = list(islice(self._hits(target, stats), k))
        for sub, part in zip(self._subs, stats):
            sub.totals.merge(part)
        hits = [hit for _, hit in found]
        values = self.sharded.objects.take(id_column(hits))
        return Neighbors(hits, values), self._merge_stats(stats)


class FanoutJoinEngine:
    """Spatial join where either (or both) sides is a sharded family.

    Each side decomposes into its component trees (a plain tree is one
    component; a :class:`ShardedTree` is one per shard); the join runs a
    :class:`~repro.queries.join.SpatialJoinEngine` for every component
    pair whose root MBRs intersect, concatenating the pairs and summing
    the statistics in pair order.  Because shards partition their
    side's data, every intersecting data pair is reported exactly once.
    Component-pair engines are cached, so repeated joins pay each
    internal node's counted read once.
    """

    def __init__(
        self,
        left: RTree | ShardedTree,
        right: RTree | ShardedTree,
        cache_internal: bool = True,
    ) -> None:
        if left.dim != right.dim:
            raise ValueError(
                f"cannot join a {left.dim}-d index with a {right.dim}-d index"
            )
        self._left = left
        self._right = right
        self._cache_internal = cache_internal
        self._engines: dict[tuple[int, int], SpatialJoinEngine] = {}
        self.totals = JoinStats()
        sharded = left if isinstance(left, ShardedTree) else right
        self.shard_busy_s = [0.0] * len(getattr(sharded, "shards", ()))

    @staticmethod
    def _components(
        side: RTree | ShardedTree,
    ) -> list[tuple[int | None, RTree]]:
        """(shard index, tree) components; index None for a plain tree."""
        if isinstance(side, ShardedTree):
            return list(enumerate(side.shards))
        return [(None, side)]

    def _engine(self, li: int, lt: RTree, ri: int, rt: RTree):
        engine = self._engines.get((li, ri))
        if engine is None:
            engine = SpatialJoinEngine(lt, rt, self._cache_internal)
            self._engines[(li, ri)] = engine
        return engine

    def join(self) -> tuple[list, JoinStats]:
        """Report every intersecting (left, right) data-rectangle pair."""
        tasks: list[tuple[int, RTree, int, RTree]] = []
        for li, ltree in self._components(self._left):
            lroot = ltree.root()
            if not len(lroot):
                continue
            lmbr = lroot.mbr()
            for ri, rtree in self._components(self._right):
                rroot = rtree.root()
                if not len(rroot):
                    continue
                if lmbr.intersects(rroot.mbr()):
                    tasks.append((li, ltree, ri, rtree))

        def run(task):
            li, ltree, ri, rtree = task
            start = time.perf_counter()
            try:
                return self._engine(li, ltree, ri, rtree).join()
            finally:
                elapsed = time.perf_counter() - start
                if isinstance(self._left, ShardedTree):
                    self.shard_busy_s[li] += elapsed
                elif isinstance(self._right, ShardedTree):
                    self.shard_busy_s[ri] += elapsed

        out: list = []
        stats = JoinStats(joins=1)
        for pairs, part in map(run, tasks):
            out.extend(pairs)
            stats.left.merge(part.left)
            stats.right.merge(part.right)
            stats.pairs += part.pairs
            stats.node_pairs += part.node_pairs
        self.totals.merge(stats)
        return out, stats

    def reset(self) -> None:
        """Clear accumulated totals (component-pair engines stay warm)."""
        self.totals = JoinStats()
