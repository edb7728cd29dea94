"""Window queries with the paper's I/O accounting.

"To answer such a query we simply start at the root of the R-tree and
recursively visit all nodes with minimal bounding boxes intersecting Q;
when encountering a leaf l we report all data rectangles in l intersecting
Q" (Section 1.1).  This engine implements exactly that traversal — for
*every* variant, PR-tree included, since a PR-tree is queried "exactly as
on an R-tree".

I/O accounting mirrors Section 3.3: "in all our experiments we cached all
internal nodes ... when reporting the number of I/Os needed to answer a
query, we are in effect reporting the number of leaves visited."  The
engine therefore routes internal-node reads through an LRU pool (unbounded
by default) and counts leaf reads individually; construct with
``cache_internal=False`` for the paper's cache-disabled side experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.iomodel.cache import LRUCache
from repro.rtree.tree import RTree


@dataclass
class QueryStats:
    """Access statistics for one window query (or an accumulated batch).

    Attributes
    ----------
    leaf_reads:
        Leaf blocks read — the paper's reported query cost.
    internal_reads:
        Internal blocks read from disk (cache misses; 0 once warm).
    internal_visits:
        Internal nodes visited, whether or not they cost an I/O.
    reported:
        Number of data rectangles reported (the query's T).
    queries:
        Number of queries accumulated into this object.
    """

    leaf_reads: int = 0
    internal_reads: int = 0
    internal_visits: int = 0
    reported: int = 0
    queries: int = 0

    @property
    def ios(self) -> int:
        """Query cost under the paper's convention: leaf reads."""
        return self.leaf_reads

    @property
    def total_reads(self) -> int:
        """Cost with caching ignored (leaf + internal disk reads)."""
        return self.leaf_reads + self.internal_reads

    @property
    def nodes_visited(self) -> int:
        """All nodes touched by the traversal."""
        return self.leaf_reads + self.internal_visits

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another query's statistics into this object."""
        self.leaf_reads += other.leaf_reads
        self.internal_reads += other.internal_reads
        self.internal_visits += other.internal_visits
        self.reported += other.reported
        self.queries += other.queries


class TraversalEngine:
    """Shared plumbing for every query operator: one tree, one internal-node
    pool, accumulated totals.

    The window engine below and every operator in :mod:`repro.queries`
    (kNN, spatial join, point/containment/count) derive from this class,
    so all of them count I/O through the identical :meth:`_read` path and
    their reported costs are directly comparable.

    Parameters
    ----------
    tree:
        The tree to query (any variant).
    cache_internal:
        When true (default, the paper's setup) internal nodes are cached in
        an unbounded LRU pool shared across queries; leaf reads always hit
        the simulated disk.
    cache_capacity:
        Optional cap on the internal-node pool, for experiments on cache
        pressure (the paper notes the full pool "never occupied more than
        6MB").
    """

    def __init__(
        self,
        tree: RTree,
        cache_internal: bool = True,
        cache_capacity: float = math.inf,
    ) -> None:
        self.tree = tree
        self.cache_internal = cache_internal
        self._cache = LRUCache(tree.store, capacity=cache_capacity if cache_internal else 0)
        self.totals = QueryStats()
        # Opt-in EXPLAIN plan capture (repro.queries.explain); None on
        # the hot path costs one attribute load + branch per node.
        self._recorder = None

    def _read(self, block_id: int, stats: QueryStats):
        if self._recorder is not None:
            return self._read_recorded(block_id, stats)
        # A warm internal node is answered from the engine's own pool
        # without touching the store at all — the store-level peek below
        # would otherwise cost a physical decode on paged stores whose
        # page cache no longer holds the block.
        if self.cache_internal and block_id in self._cache:
            stats.internal_visits += 1
            return self._cache.get(block_id)
        # The root's leafness is known from tree height; for everything else
        # the parent knew whether its children are leaves only implicitly, so
        # peek at the node kind first (metadata, not a counted access) and
        # route the counted read appropriately.
        node = self.tree.store.peek(block_id)
        if node.is_leaf:
            stats.leaf_reads += 1
            # Count the actual disk read.
            return self.tree.store.read(block_id)
        stats.internal_visits += 1
        if self.cache_internal:
            before = self._cache.misses
            node = self._cache.get(block_id)
            stats.internal_reads += self._cache.misses - before
            return node
        stats.internal_reads += 1
        return self.tree.store.read(block_id)

    def _read_recorded(self, block_id: int, stats: QueryStats):
        """The :meth:`_read` branches with per-node plan attribution.

        A separate method so the explain-off hot path stays one branch;
        accounting is identical.  Physical reads are attributed from the
        page store's miss counter around the access (0 for stores with
        no physical layer, e.g. the in-memory simulator).
        """
        recorder = self._recorder
        pstats = getattr(self.tree.store, "stats", None)
        before_misses = pstats.misses if pstats is not None else 0
        if self.cache_internal and block_id in self._cache:
            stats.internal_visits += 1
            node = self._cache.get(block_id)
        else:
            node = self.tree.store.peek(block_id)
            if node.is_leaf:
                stats.leaf_reads += 1
                node = self.tree.store.read(block_id)
            else:
                stats.internal_visits += 1
                if self.cache_internal:
                    before = self._cache.misses
                    node = self._cache.get(block_id)
                    stats.internal_reads += self._cache.misses - before
                else:
                    stats.internal_reads += 1
                    node = self.tree.store.read(block_id)
        physical = (pstats.misses - before_misses) if pstats is not None else 0
        recorder.on_node(block_id, node, physical)
        return node

    def invalidate(self, block_id: int) -> None:
        """Drop a block from the internal pool after an update touched it."""
        self._cache.invalidate(block_id)

    def reset(self) -> None:
        """Clear accumulated totals (the cache stays warm)."""
        self.totals = QueryStats()


class QueryEngine(TraversalEngine):
    """Reusable window-query executor for one tree.

    Construction parameters are inherited from :class:`TraversalEngine`.
    """

    def query(self, window: Rect) -> tuple[list[tuple[Rect, Any]], QueryStats]:
        """Run one window query.

        Returns the matching ``(rect, value)`` pairs and this query's
        statistics; the engine's :attr:`totals` accumulate across calls.
        """
        tree = self.tree
        recorder = self._recorder
        stats = QueryStats(queries=1)
        matches: list[tuple[Rect, Any]] = []
        q_lo = kernels.as_coords(window.lo)
        q_hi = kernels.as_coords(window.hi)
        stack = [self.tree.root_id]
        while stack:
            block_id = stack.pop()
            node = self._read(block_id, stats)
            frame = node.frame()
            rows = kernels.frame_intersecting(frame.lo, frame.hi, q_lo, q_hi)
            if recorder is not None:
                recorder.note_matched(block_id, len(rows))
            if frame.is_leaf:
                entries = node.cached_entries()
                if entries is None:
                    matches += frame.report(rows, tree.objects)
                else:
                    # In-memory nodes already hold the Rect objects;
                    # reporting them directly skips the per-row
                    # materialization (identical values either way).
                    for i in rows:
                        rect, pointer = entries[i]
                        matches.append((rect, tree.objects.get(pointer)))
                stats.reported += len(rows)
            else:
                ptrs = frame.ptrs
                for i in rows:
                    stack.append(ptrs[i])
        self.totals.merge(stats)
        return matches, stats

    def query_batch(
        self, windows: Sequence[Rect]
    ) -> tuple[list[list[tuple[Rect, Any]]], list[QueryStats]]:
        """Run a batch of window queries in one shared traversal.

        Set-at-a-time evaluation: the batch walks the tree once, and at
        every page the active queries are evaluated against the whole
        frame in a single :func:`~repro.geometry.kernels.batch_intersecting`
        broadcast.  A node is read once per batch no matter how many
        queries need it, so batches of co-located windows (what the
        server's Hilbert reordering produces) cost fewer logical I/Os
        than running the queries back to back.

        Results are **bit-identical** to running :meth:`query` per
        window, in the same per-query order.  Per-query statistics are
        *as-if-solo*: each query's ``leaf_reads`` / ``internal_visits``
        / ``reported`` equal what a solo run would report (the paper's
        per-query cost stays comparable), while ``internal_reads`` —
        genuine cache misses — are attributed to the first active query
        that triggered them.  The store-level counters see the smaller,
        deduplicated read count.
        """
        tree = self.tree
        n = len(windows)
        all_matches: list[list[tuple[Rect, Any]]] = [[] for _ in range(n)]
        all_stats = [QueryStats(queries=1) for _ in range(n)]
        if n == 0:
            return all_matches, all_stats
        q_lo, q_hi = kernels.batch_windows(windows, tree.dim)
        stack: list[tuple[int, list[int]]] = [
            (tree.root_id, list(range(n)))
        ]
        while stack:
            block_id, active = stack.pop()
            shared = QueryStats()
            node = self._read(block_id, shared)
            frame = node.frame()
            hits = kernels.batch_intersecting(
                frame.lo, frame.hi, q_lo, q_hi, active
            )
            if frame.is_leaf:
                entries = node.cached_entries()
                for q in active:
                    stats = all_stats[q]
                    stats.leaf_reads += 1
                    rows = hits.get(q)
                    if rows:
                        matches = all_matches[q]
                        if entries is None:
                            matches += frame.report(rows, tree.objects)
                        else:
                            for i in rows:
                                rect, pointer = entries[i]
                                matches.append(
                                    (rect, tree.objects.get(pointer))
                                )
                        stats.reported += len(rows)
            else:
                for q in active:
                    all_stats[q].internal_visits += 1
                all_stats[active[0]].internal_reads += shared.internal_reads
                # Children keep entry order on the stack; each carries
                # exactly the queries whose window intersects its box, so
                # every query's restricted visit sequence (and therefore
                # its match order) equals its solo DFS.
                per_child: dict[int, list[int]] = {}
                for q, rows in hits.items():
                    for i in rows:
                        per_child.setdefault(i, []).append(q)
                ptrs = frame.ptrs
                for i in sorted(per_child):
                    stack.append((ptrs[i], per_child[i]))
        for stats in all_stats:
            self.totals.merge(stats)
        return all_matches, all_stats


def brute_force_query(
    data: list[tuple[Rect, Any]], window: Rect
) -> list[tuple[Rect, Any]]:
    """Reference implementation: scan everything.

    The correctness oracle for every index variant in the test suite.
    """
    return [(rect, value) for rect, value in data if rect.intersects(window)]
