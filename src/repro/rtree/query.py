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
engine therefore descends the tree's pinned level table
(:mod:`repro.rtree.levels`) one kernel call per level, pays one counted
read per internal node on its first visit, and counts every leaf read;
``cache_internal=False`` is the paper's cache-disabled side experiment.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.geometry import kernels
from repro.geometry.rect import Rect, check_dim
from repro.rtree.levels import LevelTable, levels_of
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
        if len(self) != len(other):
            return False
        return self._materialized() == list(other)


class Matches(ColumnarResult):
    """A window, point or containment query's result: an immutable
    sequence of ``(rect, value)`` pairs held as columns.

    The columns are one frame and its matching rows (an index array):
    a lone leaf's own frame, or one fresh frame concatenated from a
    query's surviving leaves (frames are never edited in place, so
    either is a snapshot no later write can change), plus the rows'
    values, resolved at query time by one
    :meth:`~repro.rtree.tree.ObjectColumn.take` over the rows' ids.
    ``len()``, :attr:`values`, :attr:`ids`, :attr:`lo` and :attr:`hi`
    read them; the pairs come in traversal order.  A retained result
    keeps its frame alive.
    """

    __slots__ = ("_frame", "_rows", "_dim")

    def __init__(
        self,
        frame: NodeFrame | None = None,
        rows: Sequence[int] = (),
        values: Iterable[Any] = (),
        dim: int = 0,
    ) -> None:
        self._frame = frame
        self._rows = rows
        self._values = tuple(values)
        self._dim = dim
        self._built: list[tuple[Rect, Any]] | None = None

    @property
    def ids(self) -> tuple[int, ...]:
        """The matched rows' object ids (leaf pointers), in result order."""
        if self._frame is None:
            return ()
        return tuple(self._frame.ptrs[self._rows].tolist())

    @property
    def lo(self):
        """Lower corners as one ``(len, dim)`` coordinate table."""
        box = self._box()
        return np.ascontiguousarray(box[: len(box) // 2].T)

    @property
    def hi(self):
        """Upper corners as one ``(len, dim)`` coordinate table."""
        box = self._box()
        return np.negative(box[len(box) // 2 :].T, order="C")

    def _box(self):
        """The matched rows' box table (columns in result order)."""
        if self._frame is None:
            return np.empty((2 * self._dim, 0))
        return np.take(self._frame.box, self._rows, axis=1)

    def _build(self) -> list[tuple[Rect, Any]]:
        box = self._box()
        half = len(box) // 2
        return list(zip(rects_of(box[:half].T, -box[half:].T), self._values))

    def __repr__(self) -> str:
        return f"Matches({len(self._values)} rows)"


class TraversalEngine:
    """Shared plumbing for every query operator: one tree, the tree's
    pinned internal levels, accumulated totals.

    The window engine below and every operator in :mod:`repro.queries`
    (kNN, spatial join, point/containment/count) derive from this class,
    so all of them count I/O the same way and their reported costs are
    directly comparable.  Every leaf visit is a counted store read, and
    the engines reach the store only through ``read_many``.

    Parameters
    ----------
    tree:
        The tree to query (any variant).
    cache_internal:
        When true (default, the paper's setup) an internal node costs
        one counted read the first time *this engine* visits it and
        none after.  False is the cache-disabled ablation: every
        internal visit is a counted read.
    """

    def __init__(self, tree: RTree, cache_internal: bool = True) -> None:
        self.tree = tree
        self.cache_internal = cache_internal
        # Internal nodes this engine has paid for, and the level table
        # they were paid against (_levels); the ablation pays every visit.
        self._counted: set[int] = set()
        self._paid_on: LevelTable | None = None
        self.totals = QueryStats()
        # Opt-in EXPLAIN plan capture (repro.queries.explain).
        self._recorder = None

    def _levels(self) -> LevelTable:
        """The tree's pinned table, looked up once per query.  A table
        other than the one this engine last paid against voids the paid
        set, but for what the tree says still holds (a family keeps its
        unchanged shards'): every allocate or free rebuilds the table,
        and a freed id may come back as another node."""
        table, old = levels_of(self.tree), self._paid_on
        if table is not old:
            self._counted = (
                set() if old is None
                else self.tree.still_paid(self._counted, old, table)
            )
            self._paid_on = table
        return table

    def _frame(self, block_id: int, stats: QueryStats) -> NodeFrame:
        """One node's frame, counted the paper's way, for the operators
        that read a node at a time (kNN and the join).  A virtual node
        (negative id) costs nothing and is no visit."""
        frame = levels_of(self.tree).frames.get(block_id)
        recorder = self._recorder
        physical = None if recorder is None else {}
        if frame is None:
            stats.leaf_reads += 1
            frame = self.tree.store.read_many([block_id], physical)[0].frame()
        elif block_id >= 0:  # counted on the first visit (every visit: ablation)
            stats.internal_visits += 1
            if block_id not in self._counted:
                self.tree.store.read_many([block_id], physical)
                stats.internal_reads += 1
                if self.cache_internal:
                    self._counted.add(block_id)
        if recorder is not None:
            recorder.on_node(block_id, frame, physical.get(block_id, 0))
        return frame

    def _run(
        self,
        descend_rows: Callable,
        report_rows: Callable | None,
        count_rows: Callable[..., int] | None = None,
    ) -> tuple[Matches, QueryStats]:
        """The reporting traversal every window, point and containment
        query is, one kernel call per level.

        ``descend_rows(box)`` returns the internal rows of a box table
        to descend, ``report_rows(box)`` the leaf rows to report (row
        kernels: index arrays); a count-only operator passes ``count_rows``
        instead so leaves never build an index array at all.  The
        descent is level-synchronous over the tree's pinned table; the
        surviving leaves are read in depth-first order — the reverse of
        their rows — and tested as one concatenated frame: one kernel
        call, one result frame, one gather of its values.
        """
        tree = self.tree
        table = self._levels()
        stats = QueryStats(queries=1)
        steps = []  # (level, its frontier, the rows they kept)
        frontier = [0]
        for level in table.levels:
            rows = level.survivors(frontier, descend_rows)
            steps.append((level, frontier, rows))
            stats.internal_visits += len(frontier)
            frontier = rows
            if not rows:
                break
        if table.virtual:  # a family's root and pass-through rows
            stats.internal_visits -= sum(
                level.ids[j] < 0 for level, nodes, _ in steps for j in nodes
            )
        ptrs = steps[-1][0].ptrs if steps else [tree.root_id]
        stats.leaf_reads += len(frontier)
        frames = self._read_leaves(table, steps, frontier, ptrs, stats)
        matched, result = 0, Matches(dim=tree.dim)
        if frames:
            frame = frames[0] if len(frames) == 1 else NodeFrame.concat(frames)
            if report_rows is None:
                matched = count_rows(frame.box)
            else:
                rows = report_rows(frame.box)
                matched = len(rows)
                if matched:
                    values = tree.objects.take(frame.ptrs[rows])
                    result = Matches(frame, rows, values, tree.dim)
            stats.reported += matched
            if self._recorder is not None:  # every leaf is on one plan level
                self._recorder.note_matched(ptrs[frontier[-1]], matched)
        self.totals.merge(stats)
        return result, stats

    def _read_leaves(self, table, steps, frontier, ptrs, stats) -> list[NodeFrame]:
        """Make a descent's store accesses, in one ``read_many``; return
        the leaves' frames.

        They go in depth-first order — a node's read, if owed, then its
        children from the last kept row to the first — as before the
        descent went level by level, so counters, page-cache statistics
        and EXPLAIN's physical reads are unchanged.  That walk reaches a
        node after all whose rows in the last level end later, and before
        its own subtree: so the reads sort by (end of those rows,
        descending; depth; row, descending).  Once every internal node
        on the way is paid for (any warm engine) no read is owed, and
        the list is the leaves from the last row to the first.  A node
        with a negative id (a family's root or pass-through row) is no
        block: it is never read."""
        accesses = []
        for depth, (level, nodes, _) in enumerate(steps):
            for j in nodes:
                if level.ids[j] not in self._counted and level.ids[j] >= 0:
                    end = j + 1
                    for lower, _, _ in steps[depth:]:
                        end = lower.start[end]
                    accesses.append((-end, depth, -j, level.ids[j]))
        recorder = self._recorder
        physical = None if recorder is None else {}
        if not accesses:
            leaves = [ptrs[r] for r in reversed(frontier)]
            nodes = self.tree.store.read_many(leaves, physical)
            frames = [node.frame() for node in nodes]
        else:
            accesses += [
                (-r - 1, len(steps), -r, ptrs[r]) for r in reversed(frontier)
            ]
            accesses.sort()
            nodes = self.tree.store.read_many([a[-1] for a in accesses], physical)
            frames = []
            for (_, depth, _, block_id), node in zip(accesses, nodes):
                if depth == len(steps):
                    frames.append(node.frame())
                else:
                    stats.internal_reads += 1
                    if self.cache_internal:
                        self._counted.add(block_id)
        if recorder is not None:  # top-down: parents place their children
            for level, nodes, rows in steps:
                for j in nodes:
                    block_id, start = level.ids[j], level.start
                    recorder.on_node(
                        block_id, table.frames[block_id], physical.get(block_id, 0)
                    )
                    kept = bisect_left(rows, start[j + 1]) - bisect_left(rows, start[j])
                    recorder.note_matched(block_id, kept)
            for r, frame in zip(reversed(frontier), frames):
                recorder.on_node(ptrs[r], frame, physical[ptrs[r]])
        return frames

    def reset(self) -> None:
        """Clear accumulated totals (paid internal reads stay paid)."""
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
        if len(self.tree):
            # A loader given no data cannot know its dimension and
            # builds a 2-d tree: an empty tree answers every window.
            check_dim(window, self.tree.dim)
        reach = kernels.meet_bound(window.lo, window.hi)

        def intersecting(box):
            return kernels.frame_rows(kernels.LE, box, reach)

        return self._run(descend_rows=intersecting, report_rows=intersecting)


def brute_force_query(
    data: list[tuple[Rect, Any]], window: Rect
) -> list[tuple[Rect, Any]]:
    """Reference implementation: scan everything.

    The correctness oracle for every index variant in the test suite.
    """
    return [(rect, value) for rect, value in data if rect.intersects(window)]
