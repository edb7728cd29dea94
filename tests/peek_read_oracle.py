"""The read path as it stood before ``read_many``: one ``peek`` and one
counted ``read`` per node, each a page-table lookup of its own.

Verbatim copies of ``TraversalEngine._fetch`` / ``_charge`` / ``_frame``
/ ``_read_leaves``, and of ``PagedNodeStore``'s ``read`` / ``peek`` and
the lookups behind them.  Mixed in ahead of an operator class, the
engine gives that operator's pre-change access path, one store call per
block; a paged tree whose store is a :class:`PeekReadPagedStore` (see
:func:`as_oracle`) serves those calls as the page layer did:

    class PeekReadQueryEngine(PeekReadEngine, QueryEngine): ...

``tests/integration/test_read_many.py`` drives the page layer's
``read_many`` against :func:`peek_read_each`, the same loop over ids.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.iomodel.store import BlockId
from repro.obs.tap import IOTap, active_tap
from repro.queries.knn import KNNEngine
from repro.queries.point import PointQueryEngine
from repro.rtree.levels import levels_of
from repro.rtree.node import Node, NodeFrame
from repro.rtree.query import QueryEngine, QueryStats, TraversalEngine
from repro.storage.paged import PagedNodeStore


class PeekReadEngine(TraversalEngine):
    """The per-block access path, as it was."""

    def _fetch(self, block_id: int, physical: dict | None):
        """One counted store access: a ``peek`` then a ``read`` (one physical
        read).  ``physical`` (EXPLAIN armed) records its page misses."""
        store = self.tree.store
        pstats = None if physical is None else getattr(store, "stats", None)
        before = 0 if pstats is None else pstats.misses
        store.peek(block_id)
        node = store.read(block_id)
        if physical is not None:
            physical[block_id] = 0 if pstats is None else pstats.misses - before
        return node

    def _charge(self, block_id: int, stats: QueryStats, physical) -> None:
        """Pay for a visit to internal node ``block_id``: a counted read
        on this engine's first visit (on every visit for the ablation)."""
        if block_id not in self._counted:
            self._fetch(block_id, physical)
            stats.internal_reads += 1
            if self.cache_internal:
                self._counted.add(block_id)

    def _frame(self, block_id: int, stats: QueryStats) -> NodeFrame:
        """One node's frame, counted the paper's way, for the operators
        that read a node at a time (kNN and the join)."""
        frame = levels_of(self.tree).frames.get(block_id)
        recorder = self._recorder
        physical = None if recorder is None else {}
        if frame is None:
            stats.leaf_reads += 1
            frame = self._fetch(block_id, physical).frame()
        else:
            stats.internal_visits += 1
            self._charge(block_id, stats, physical)
        if recorder is not None:
            recorder.on_node(block_id, frame, physical.get(block_id, 0))
        return frame

    def _read_leaves(self, table, steps, frontier, ptrs, stats) -> list[NodeFrame]:
        """Make a descent's store accesses; return the leaves' frames.

        They go in depth-first order — a node's read, if owed, then its
        children from the last kept row to the first — as before the
        descent went level by level, so counters, page-cache statistics
        and EXPLAIN's physical reads are unchanged.  That walk reaches a
        node after all whose rows in the last level end later, and before
        its own subtree: so the reads sort by (end of those rows,
        descending; depth; row, descending)."""
        accesses = []
        for depth, (level, nodes, _) in enumerate(steps):
            for j in nodes:
                if level.ids[j] not in self._counted:
                    end = j + 1
                    for lower, _, _ in steps[depth:]:
                        end = lower.start[end]
                    accesses.append((-end, depth, -j, level.ids[j]))
        accesses += [(-r - 1, len(steps), -r, ptrs[r]) for r in reversed(frontier)]
        accesses.sort()
        recorder = self._recorder
        physical = None if recorder is None else {}
        frames = []
        for _, depth, _, block_id in accesses:
            if depth < len(steps):
                self._charge(block_id, stats, physical)
            else:
                frames.append(self._fetch(block_id, physical).frame())
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


def peek_read_each(tree, block_ids, physical=None):
    """``_fetch`` over ``block_ids`` in order: what ``read_many`` must
    equal, event for event."""
    engine = PeekReadEngine(tree)
    return [engine._fetch(block_id, physical) for block_id in block_ids]


class PeekReadQueryEngine(PeekReadEngine, QueryEngine):
    pass


class PeekReadPointEngine(PeekReadEngine, PointQueryEngine):
    pass


class PeekReadKNNEngine(PeekReadEngine, KNNEngine):
    pass


class PeekReadPagedStore(PagedNodeStore):
    """The page layer's per-block ``read`` and ``peek``, as they were."""

    def _get_locked(self, block_id: BlockId, tap: IOTap | None) -> Node:
        """Counted-read lookup: hits bump recency, misses fill the cache.

        Every ``stats`` increment here (and in the helpers below) has a
        matching tap increment so the active context's
        :class:`~repro.obs.tap.IOTap` holds exactly its slice of the
        shared :class:`PageCacheStats` — attribution, not re-counting.
        """
        node = self._pages.get(block_id)
        if node is not None:
            self.stats.hits += 1
            if tap is not None:
                tap.hits += 1
            if self.tracker is not None:
                self.tracker.record(block_id, node.is_leaf, hit=True)
            self._pages.move_to_end(block_id)
            self._mru = (block_id, node)
            return node
        if self._mru is not None and self._mru[0] == block_id:
            # Peeked but not yet cached: promote without a second decode.
            self.stats.hits += 1
            if tap is not None:
                tap.hits += 1
            node = self._mru[1]
            if self.tracker is not None:
                self.tracker.record(block_id, node.is_leaf, hit=True)
            self._cache_locked(block_id, node, tap=tap)
            return node
        self.stats.misses += 1
        if tap is not None:
            tap.misses += 1
        node = self._decode_locked(block_id)
        if self.tracker is not None:
            self.tracker.record(block_id, node.is_leaf, hit=False)
        self._cache_locked(block_id, node, tap=tap)
        return node

    def _peek_locked(self, block_id: BlockId, tap: IOTap | None) -> Node:
        """Uncounted lookup that reads *around* the cache.

        Serves cached (including dirty) pages but never reorders the
        LRU, never inserts, and never evicts — a validation walk over
        the whole tree leaves the cache exactly as it found it.  The
        decoded node is still pinned in the MRU slot so the engines'
        peek-then-read pattern costs one physical read.
        """
        node = self._pages.get(block_id)
        if node is not None:
            self.stats.hits += 1
            if tap is not None:
                tap.hits += 1
            if self.tracker is not None:
                self.tracker.record(block_id, node.is_leaf, hit=True)
            self._mru = (block_id, node)
            return node
        if self._mru is not None and self._mru[0] == block_id:
            self.stats.hits += 1
            if tap is not None:
                tap.hits += 1
            if self.tracker is not None:
                self.tracker.record(block_id, self._mru[1].is_leaf, hit=True)
            return self._mru[1]
        self.stats.misses += 1
        if tap is not None:
            tap.misses += 1
        node = self._decode_locked(block_id)
        if self.tracker is not None:
            self.tracker.record(block_id, node.is_leaf, hit=False)
        self._mru = (block_id, node)
        return node

    def _decode_locked(self, block_id: BlockId) -> Node:
        """Decode one block straight into a frame-backed node.

        The decoded page is the structure-of-arrays representation the
        vectorized kernels consume, and the only one a node holds.  Physical read
        and decode accounting stays with the caller.
        """
        is_leaf, box, ptrs = self.codec.decode_arrays(
            self.file_store.peek(block_id)
        )
        return Node.from_frame(NodeFrame(is_leaf, box, ptrs))

    def read(self, block_id: BlockId) -> Node:
        """Read a node, counting one logical I/O (cached page or not)."""
        tap = active_tap()
        with self._lock:
            node = self._get_locked(block_id, tap)
            self.counters.record_read(block_id)
            if tap is not None:
                tap.reads += 1
            return node

    def peek(self, block_id: BlockId) -> Node:
        """Read a node without counting I/O (validation/debugging).

        Reads around the cache: cached pages (dirty ones included) are
        served, but a miss neither inserts nor evicts, so peeking never
        perturbs what the counted read path has warmed.
        """
        with self._lock:
            return self._peek_locked(block_id, active_tap())


def as_oracle(tree):
    """``tree`` (a paged tree), its store now serving ``read`` and
    ``peek`` the pre-change way."""
    tree.store.__class__ = PeekReadPagedStore
    return tree
