"""The read path as it stood before the level descent: an LRU pool of
internal nodes per engine and a depth-first traversal.

Verbatim copies of ``repro.iomodel.cache.LRUCache`` and of
``TraversalEngine.__init__`` / ``_read`` / ``_run``, adapted only to the
calling conventions that changed with them: the row kernels take
``(lo, hi)`` instead of a frame, EXPLAIN's ``on_node`` takes a frame,
the node-at-a-time operators (kNN, the join, window batches) ask
``_frame`` for a node, and a query first makes the paid-set check
(``_levels``), which drops from the pool what a rebuilt table voids.
The window, point, containment and count operators are kept too, on
their own copies of the ``(lo, hi)`` row kernels
(``tests/lohi_kernels.py``), so no engine row closure or box kernel is
called.  Mixed in ahead of an operator class, they give
that operator's pre-change I/O path:

    class DFSOracleQueryEngine(DFSOracleEngine, QueryEngine): ...
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any

from repro.geometry import kernels
from repro.geometry.rect import check_dim
from repro.queries.join import SpatialJoinEngine
from repro.queries.knn import KNNEngine
from repro.queries.point import PointQueryEngine
from repro.rtree.levels import levels_of
from repro.rtree.node import NodeFrame
from repro.rtree.query import QueryEngine, QueryStats, TraversalEngine
from tests import lohi_kernels
from tests.conftest import matches_of


class OracleLRU:
    """``LRUCache`` as it was (a least-recently-used block cache)."""

    def __init__(self, store, capacity=math.inf):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.store = store
        self.capacity = capacity
        self._entries: OrderedDict[int, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, block_id):
        if block_id in self._entries:
            self.hits += 1
            self._entries.move_to_end(block_id)
            return self._entries[block_id]
        self.misses += 1
        payload = self.store.read(block_id)
        if self.capacity > 0:
            self._entries[block_id] = payload
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return payload

    def __contains__(self, block_id):
        return block_id in self._entries


class DFSOracleEngine(TraversalEngine):
    """``TraversalEngine`` as it was: LRU pool, depth-first ``_run``."""

    def __init__(self, tree, cache_internal=True, cache_capacity=math.inf):
        self.tree = tree
        self.cache_internal = cache_internal
        self._cache = OracleLRU(
            tree.store, capacity=cache_capacity if cache_internal else 0
        )
        self.totals = QueryStats()
        self._recorder = None
        self._paid_on = None

    def _read(self, block_id, stats):
        recorder = self._recorder
        if recorder is not None:
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
        if recorder is not None:
            physical = pstats.misses - before_misses if pstats is not None else 0
            recorder.on_node(block_id, node.frame(), physical)
        return node

    def _frame(self, block_id, stats):
        return self._read(block_id, stats).frame()

    def _levels(self):
        """The operators' paid-set check, on the pool: a table other
        than the one last paid against keeps pooled only what the tree
        says still holds (``still_paid``)."""
        table, old = levels_of(self.tree), self._paid_on
        if table is not old and old is not None:
            pool = self._cache._entries
            kept = self.tree.still_paid(set(pool), old, table)
            for block_id in [b for b in pool if b not in kept]:
                del pool[block_id]
        self._paid_on = table
        return table

    def _run(self, descend_rows, report_rows, count_rows=None):
        self._levels()
        tree = self.tree
        recorder = self._recorder
        get = tree.objects.get
        stats = QueryStats(queries=1)
        parts = []
        values = []
        stack = [([tree.root_id], [0])]
        while stack:
            ptrs, rest = stack[-1]
            block_id = ptrs[rest.pop()]
            if not rest:
                stack.pop()
            frame = self._read(block_id, stats).frame()
            if not frame.is_leaf:
                rows = descend_rows(frame.lo, frame.hi).tolist()
                if rows:
                    stack.append((frame.ptrs.tolist(), rows))
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
                matched = count_rows(frame.lo, frame.hi)
                stats.reported += matched
            else:
                rows = report_rows(frame.lo, frame.hi).tolist()
                matched = len(rows)
                if rows:
                    parts.append((frame, rows))
                    values += map(get, map(frame.ptrs.__getitem__, rows))
                    stats.reported += matched
            if recorder is not None:
                recorder.note_matched(block_id, matched)
        self.totals.merge(stats)
        return matches_of(parts, values, tree.dim), stats

    # -- the operators, as they chose their (lo, hi) kernels ------------

    def query(self, window):
        if len(self.tree):
            check_dim(window, self.tree.dim)
        (intersecting,) = on_window(window, lohi_kernels.frame_intersecting)
        return self._run(descend_rows=intersecting, report_rows=intersecting)

    def point_query(self, point):
        point = tuple(float(c) for c in point)
        check_dim(point, self.tree.dim)
        p = kernels.as_coords(point)

        def stabbing(lo, hi):
            return lohi_kernels.frame_containing_point(lo, hi, p)

        return self._run(descend_rows=stabbing, report_rows=stabbing)

    def containment_query(self, window):
        check_dim(window, self.tree.dim)
        intersecting, contained = on_window(
            window, lohi_kernels.frame_intersecting, lohi_kernels.frame_contained_in
        )
        return self._run(descend_rows=intersecting, report_rows=contained)

    def count(self, window):
        check_dim(window, self.tree.dim)
        intersecting, counting = on_window(
            window,
            lohi_kernels.frame_intersecting,
            lohi_kernels.frame_count_intersecting,
        )
        _, stats = self._run(intersecting, report_rows=None, count_rows=counting)
        return stats.reported, stats


def on_window(window, *frame_kernels):
    """``(lo, hi) -> kernel(lo, hi, q_lo, q_hi)`` per kernel, for one
    query window whose corners are converted for the kernels once."""
    q_lo = kernels.as_coords(window.lo)
    q_hi = kernels.as_coords(window.hi)
    return [
        lambda lo, hi, kernel=kernel: kernel(lo, hi, q_lo, q_hi)
        for kernel in frame_kernels
    ]


class DFSOracleQueryEngine(DFSOracleEngine, QueryEngine):
    pass


class DFSOraclePointEngine(DFSOracleEngine, PointQueryEngine):
    pass


class DFSOracleKNNEngine(DFSOracleEngine, KNNEngine):
    pass


class DFSOracleJoinEngine(SpatialJoinEngine):
    """The join over two pre-change sides."""

    def __init__(self, left, right, cache_internal=True):
        super().__init__(left, right, cache_internal)
        self._left = DFSOracleEngine(left, cache_internal)
        self._right = DFSOracleEngine(right, cache_internal)
