"""A tree's internal levels, pinned as one table.

The paper caches every internal node (Section 3.3, footnote 5);
:class:`LevelTable` is that cache as arrays.  Per internal level, root
first, every node's rows are stacked into one box table (columns of
:mod:`repro.geometry.kernels`'s ``(2d, n)`` layout), with node row
offsets and child pointers.  Level ``L + 1`` numbers its
nodes in the order their pointers appear among level ``L``'s rows, so
row ``r`` of level ``L`` *is* node ``r`` of level ``L + 1``: a
level-synchronous descent hands the rows it keeps down as the next
frontier with no lookup.  kNN and the join read internal frames here.

The table belongs to the tree (:func:`levels_of`): every engine on it
shares the table, and nothing edits it.  Built from side-effect-free
``quiet_peek`` reads, it is keyed by the store's ``generation`` (bumped
by every ``allocate``, ``write`` and ``free``), ``root_id`` and
``height``: the first read after a write or a root change rebuilds it,
once per tree.  The engines decide which visits are counted reads (:mod:`repro.rtree.query`).

A shard family (:class:`~repro.storage.shard.ShardedTree`) is one table
too: a root whose rows are the shards' boxes, then each shard's own
table stacked below it (:meth:`LevelTable.stacked`).  Its root and the
pass-through rows that bring a shorter shard down to the family's depth
are *virtual* nodes: their ids are negative, no block stands behind
them, and the engines count them as no visit, no read and no plan node.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Callable

from repro.rtree.node import NodeFrame

__all__ = ["Level", "LevelTable", "levels_of"]


class Level:
    """One internal level: node ``j`` is block ``ids[j]``, with frame
    ``frames[j]``, and owns rows ``start[j]:start[j + 1]``.  Row ``r``
    points at block ``ptrs[r]``: the rows' pointer column, converted
    once to the Python ints the store is called with."""

    __slots__ = ("ids", "frames", "box", "ptrs", "start")

    def __init__(self, ids: list[int], frames: list[NodeFrame]) -> None:
        rows = NodeFrame.concat(frames)
        self.ids, self.frames = ids, frames
        self.box, self.ptrs = rows.box, rows.ptrs.tolist()
        self.start = [0, *accumulate(map(len, frames))]

    def survivors(
        self, frontier: list[int], test: Callable[..., list[int]]
    ) -> list[int]:
        """The rows of the ``frontier`` nodes (ascending) that
        ``test(box)`` keeps, ascending: one kernel call over the row
        span from the first to the last frontier node, then the rows of
        nodes in between that are not on the frontier are dropped."""
        first, last = frontier[0], frontier[-1]
        begin, end = self.start[first], self.start[last + 1]
        rows = test(self.box[:, begin:end]).tolist()
        if last - first >= len(frontier):
            keep, start = set(frontier), self.start
            rows = [r for r in rows if bisect_right(start, r + begin) - 1 in keep]
        return [r + begin for r in rows] if begin else rows


class LevelTable:
    """Every internal level of one tree (``height - 1`` of them).
    ``frames`` maps an internal node's block id to its frame; a block id
    not in it is a leaf.  ``virtual`` counts the nodes with a negative
    id (none in a tree's own table)."""

    __slots__ = ("levels", "frames", "virtual", "generation", "root_id", "height")

    def __init__(self, tree) -> None:
        peek = tree.store.quiet_peek
        levels: list[Level] = []
        ids = [tree.root_id]
        for _ in range(tree.height - 1):
            levels.append(Level(ids, [peek(block_id).frame() for block_id in ids]))
            ids = levels[-1].ptrs
        self._fill(tree, levels, 0)

    @classmethod
    def stacked(cls, tree, levels: list[Level], virtual: int) -> "LevelTable":
        """A table of ready-made ``levels`` with ``virtual`` negative-id
        nodes among them, keyed to ``tree`` (a shard family)."""
        table = cls.__new__(cls)
        table._fill(tree, levels, virtual)
        return table

    def _fill(self, tree, levels: list[Level], virtual: int) -> None:
        self.generation = tree.store.generation
        self.root_id, self.height = tree.root_id, tree.height
        self.levels, self.virtual = levels, virtual
        self.frames: dict[int, NodeFrame] = {}
        for level in levels:
            self.frames.update(zip(level.ids, level.frames))


def levels_of(tree) -> LevelTable:
    """``tree``'s pinned table, rebuilt first if a node was written or
    the root moved since it was built."""
    table = tree._levels
    if (
        table is None
        or table.generation != tree.store.generation
        or table.root_id != tree.root_id
        or table.height != tree.height
    ):
        table = tree._levels = tree.level_table()
    return table
