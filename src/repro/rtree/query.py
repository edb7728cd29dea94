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
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.iomodel.cache import LRUCache
from repro.rtree.node import NodeFrame, rects_of
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


class ColumnarResult(Sequence):
    """An immutable sequence held as columns, one value per item among
    them: iterating, indexing and ``==`` (against any sequence) build
    its items with ``_build`` — all at once, the first time — and keep
    them."""

    __slots__ = ("_values", "_built")

    @property
    def values(self) -> tuple[Any, ...]:
        """The items' values, in result order."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def _materialized(self) -> list:
        built = self._built
        if built is None:
            built = self._built = self._build()
        return built

    def __getitem__(self, index):
        return self._materialized()[index]

    def __iter__(self) -> Iterator:
        return iter(self._materialized())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._materialized() == list(other)


class Matches(ColumnarResult):
    """A window, point or containment query's result: an immutable
    sequence of ``(rect, value)`` pairs held as columns.

    The columns are *parts*, each a frame and its matching rows: a
    lone leaf's own frame, or one fresh frame concatenated from a group
    of sibling leaves (frames are never edited in place, so either is a
    snapshot no later write can change), plus the rows' values,
    resolved at query time.  ``len()``, :attr:`values`, :attr:`ids`,
    :attr:`lo` and :attr:`hi` read them; the pairs come in traversal
    order.  A retained result keeps its parts' frames alive.
    """

    __slots__ = ("_parts", "_dim")

    def __init__(
        self,
        parts: Iterable[tuple[NodeFrame, list[int]]] = (),
        values: Iterable[Any] = (),
        dim: int = 0,
    ) -> None:
        self._parts = tuple(parts)
        self._values = tuple(values)
        self._dim = dim
        self._built: list[tuple[Rect, Any]] | None = None

    @classmethod
    def concat(cls, results: Iterable["Matches"], dim: int = 0) -> "Matches":
        """The rows of every result in ``results``, in order; no pair is
        materialized (how a sharded family merges its shards' answers)."""
        results = list(results)
        if len(results) == 1:
            return results[0]  # immutable, so the lone shard's answer is shared
        return cls(
            [part for result in results for part in result._parts],
            [value for result in results for value in result._values],
            dim,
        )

    @property
    def ids(self) -> tuple[int, ...]:
        """The matched rows' object ids (leaf pointers), in result order."""
        return tuple(
            frame.ptrs[i] for frame, rows in self._parts for i in rows
        )

    @property
    def lo(self):
        """Lower corners as one ``(len, dim)`` coordinate table."""
        return self._table("lo")

    @property
    def hi(self):
        """Upper corners as one ``(len, dim)`` coordinate table."""
        return self._table("hi")

    def _table(self, side: str):
        tables = [
            kernels.table_take(getattr(frame, side), rows)
            for frame, rows in self._parts
        ]
        if not tables:
            return kernels.coord_table([], self._dim)
        return kernels.table_concat(tables)

    def _build(self) -> list[tuple[Rect, Any]]:
        return list(zip(rects_of(self.lo, self.hi), self._values))

    def __repr__(self) -> str:
        return f"Matches({len(self._values)} rows in {len(self._parts)} parts)"


def on_window(window: Rect, *frame_kernels: Callable) -> list[Callable]:
    """``frame -> kernel(frame.lo, frame.hi, q_lo, q_hi)`` per kernel, for
    one query window whose corners are converted for the kernels once."""
    q_lo = kernels.as_coords(window.lo)
    q_hi = kernels.as_coords(window.hi)
    return [
        lambda frame, kernel=kernel: kernel(frame.lo, frame.hi, q_lo, q_hi)
        for kernel in frame_kernels
    ]


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
        # Opt-in EXPLAIN plan capture (repro.queries.explain).
        self._recorder = None

    def _read(self, block_id: int, stats: QueryStats):
        """Fetch one node, counting it the paper's way.

        With an EXPLAIN recorder armed, the node is also attributed to
        its plan level, with the physical reads it caused: the page
        store's miss counter around the access (0 for stores with no
        physical layer, e.g. the in-memory simulator).  Disarmed, that
        costs two ``None`` checks per node.
        """
        recorder = self._recorder
        if recorder is not None:
            pstats = getattr(self.tree.store, "stats", None)
            before_misses = pstats.misses if pstats is not None else 0
        if self.cache_internal and block_id in self._cache:
            # A warm internal node is answered from the engine's own
            # pool without touching the store at all — the store-level
            # peek below would otherwise cost a physical decode on paged
            # stores whose page cache no longer holds the block.
            stats.internal_visits += 1
            node = self._cache.get(block_id)
        else:
            # The root's leafness is known from tree height; for
            # everything else the parent knew whether its children are
            # leaves only implicitly, so peek at the node kind first
            # (metadata, not a counted access) and route the counted
            # read appropriately.
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
        if recorder is not None:
            physical = pstats.misses - before_misses if pstats is not None else 0
            recorder.on_node(block_id, node, physical)
        return node

    def _run(
        self,
        descend_rows: Callable[[NodeFrame], list[int]],
        report_rows: Callable[[NodeFrame], list[int]] | None,
        count_rows: Callable[[NodeFrame], int] | None = None,
    ) -> tuple[Matches, QueryStats]:
        """The depth-first reporting traversal every window, point and
        containment query is, with whole-frame evaluation.

        ``descend_rows(frame)`` returns the internal rows to push,
        ``report_rows(frame)`` the leaf rows to report; a count-only
        operator passes ``count_rows`` instead so leaves never build an
        index list at all.

        The stack holds *runs* (an internal node's pointers and its
        surviving rows, popped last row first).  The tree is balanced,
        so when a leaf comes off a run the rest of the run are leaves
        the stack would pop next: they are read at once, in that order,
        and tested as one concatenated frame — one kernel call and one
        result part per group.
        """
        tree = self.tree
        recorder = self._recorder
        get = tree.objects.get
        stats = QueryStats(queries=1)
        parts: list[tuple[NodeFrame, list[int]]] = []
        values: list[Any] = []
        stack = [([tree.root_id], [0])]
        while stack:
            ptrs, rest = stack[-1]
            block_id = ptrs[rest.pop()]
            if not rest:
                stack.pop()
            frame = self._read(block_id, stats).frame()
            if not frame.is_leaf:
                rows = descend_rows(frame)
                if rows:
                    stack.append((frame.ptrs, rows))
                if recorder is not None:
                    recorder.note_matched(block_id, len(rows))
                continue
            if rest:
                stack.pop()
                group = [frame]
                while rest:
                    group.append(self._read(ptrs[rest.pop()], stats).frame())
                frame = NodeFrame.concat(group)
            if report_rows is None:
                matched = count_rows(frame)
                stats.reported += matched
            else:
                rows = report_rows(frame)
                matched = len(rows)
                if rows:
                    parts.append((frame, rows))
                    values += map(get, map(frame.ptrs.__getitem__, rows))
                    stats.reported += matched
            if recorder is not None:
                # Every leaf of a group sits on one level of the plan.
                recorder.note_matched(block_id, matched)
        self.totals.merge(stats)
        return Matches(parts, values, tree.dim), stats

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

    def query(self, window: Rect) -> tuple[Matches, QueryStats]:
        """Run one window query.

        Returns the matching ``(rect, value)`` pairs as a
        :class:`Matches` and this query's statistics; the engine's
        :attr:`totals` accumulate across calls.
        """
        (intersecting,) = on_window(window, kernels.frame_intersecting)
        return self._run(descend_rows=intersecting, report_rows=intersecting)

    def query_batch(
        self, windows: Sequence[Rect]
    ) -> tuple[list[Matches], list[QueryStats]]:
        """Run a batch of window queries in one shared traversal.

        Set-at-a-time evaluation: the batch walks the tree once, and at
        every page the active queries are evaluated against the whole
        frame in a single :func:`~repro.geometry.kernels.batch_intersecting`
        broadcast.  A node is read once per batch no matter how many
        queries need it, so batches of co-located windows cost fewer
        logical I/Os than running the queries back to back.  An engine
        API: the query server executes requests one at a time and does
        not call it.

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
        get = tree.objects.get
        n = len(windows)
        columns: list[tuple[list, list]] = [([], []) for _ in range(n)]
        all_stats = [QueryStats(queries=1) for _ in range(n)]
        if n == 0:
            return [], all_stats
        q_lo, q_hi = kernels.batch_windows(windows, tree.dim)
        stack: list[tuple[int, list[int]]] = [
            (tree.root_id, list(range(n)))
        ]
        while stack:
            block_id, active = stack.pop()
            shared = QueryStats()
            frame = self._read(block_id, shared).frame()
            hits = kernels.batch_intersecting(
                frame.lo, frame.hi, q_lo, q_hi, active
            )
            if frame.is_leaf:
                ptrs = frame.ptrs
                for q in active:
                    stats = all_stats[q]
                    stats.leaf_reads += 1
                    rows = hits.get(q)
                    if rows:
                        parts, values = columns[q]
                        parts.append((frame, rows))
                        values += map(get, map(ptrs.__getitem__, rows))
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
        return [Matches(*column, tree.dim) for column in columns], all_stats


def brute_force_query(
    data: list[tuple[Rect, Any]], window: Rect
) -> list[tuple[Rect, Any]]:
    """Reference implementation: scan everything.

    The correctness oracle for every index variant in the test suite.
    """
    return [(rect, value) for rect, value in data if rect.intersects(window)]
