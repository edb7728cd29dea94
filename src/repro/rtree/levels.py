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
shares the table.  It is built from side-effect-free ``quiet_peek``
reads and then follows the tree's writes, which the store logs
(:class:`~repro.iomodel.store.NodeWriteLog`).  Writes to leaves only
leave it as it is; a rewritten internal node whose child pointers are
unchanged has its rows patched, on a copy of its level's box table, so
no array an engine may hold is edited; an ``allocate`` or ``free``, a
changed pointer column, or a new root or height rebuilds it.  The
engines decide which visits are counted reads
(:mod:`repro.rtree.query`).

A shard family (:class:`~repro.storage.shard.ShardedTree`) is one table
too: a root whose rows are the shards' boxes, then each shard's own
table stacked below it (:meth:`LevelTable.stacked`).  Its root and the
pass-through rows that bring a shorter shard down to the family's depth
are *virtual* nodes: their ids are negative, no block stands behind
them, and the engines count them as no visit, no read and no plan node.
The family's table follows its shards' writes the same way
(:meth:`~repro.storage.shard.ShardedTree.follow_writes`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from repro.rtree.node import NodeFrame

__all__ = ["Level", "LevelStats", "LevelTable", "levels_of"]


@dataclass
class LevelStats:
    """How a tree's pinned table met its writes: full ``builds``, and
    catch-ups that followed the writes since the last read without one
    (``patched``, also when only leaves were written)."""

    builds: int = 0
    patched: int = 0


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
    id (none in a tree's own table).  ``generation`` is the store
    generation the table is current to; ``parts`` is what a shard
    family stacked it from (None for a tree's own table)."""

    __slots__ = (
        "levels", "frames", "virtual", "generation", "root_id", "height",
        "parts", "_where",
    )

    def __init__(self, tree) -> None:
        peek = tree.store.quiet_peek
        levels: list[Level] = []
        ids = [tree.root_id]
        for _ in range(tree.height - 1):
            levels.append(Level(ids, [peek(block_id).frame() for block_id in ids]))
            ids = levels[-1].ptrs
        self._fill(tree, levels, 0)

    @classmethod
    def stacked(
        cls, tree, levels: list[Level], virtual: int, parts: list
    ) -> "LevelTable":
        """A table of ready-made ``levels`` with ``virtual`` negative-id
        nodes among them, keyed to ``tree`` (a shard family), which
        stacked it from ``parts``."""
        table = cls.__new__(cls)
        table._fill(tree, levels, virtual)
        table.parts = parts
        return table

    def _fill(self, tree, levels: list[Level], virtual: int) -> None:
        self.generation = tree.store.generation
        self.root_id, self.height = tree.root_id, tree.height
        self.levels, self.virtual = levels, virtual
        self.parts = None
        self._where: dict[int, tuple[int, int]] | None = None
        self.frames: dict[int, NodeFrame] = {}
        for level in levels:
            self.frames.update(zip(level.ids, level.frames))

    def patch(self, written: dict[int, NodeFrame]) -> bool:
        """Give each node of ``written`` (block id -> its new frame) its
        new frame and rows, unless one of them changed its child
        pointers: then nothing is edited and the answer is False.  A
        patched level gets a new box table, a copy with the nodes'
        columns replaced."""
        if not written:
            return True
        if self._where is None:
            self._where = {
                block_id: (k, j)
                for k, level in enumerate(self.levels)
                for j, block_id in enumerate(level.ids)
            }
        where, levels = self._where, self.levels
        for block_id, frame in written.items():
            k, j = where[block_id]
            old = levels[k].frames[j].ptrs
            if old is not frame.ptrs and not np.array_equal(old, frame.ptrs):
                return False
        boxes: dict[int, np.ndarray] = {}
        for block_id, frame in written.items():
            k, j = where[block_id]
            level = levels[k]
            box = boxes.get(k)
            if box is None:
                box = boxes[k] = level.box.copy()
            box[:, level.start[j] : level.start[j + 1]] = frame.box
            level.frames[j] = self.frames[block_id] = frame
        for k, box in boxes.items():
            levels[k].box = box
        return True


def levels_of(tree) -> LevelTable:
    """``tree``'s pinned table, first brought up to the writes made
    since it was last read (``tree.follow_writes``), or rebuilt when it
    cannot follow them or the root or height moved;
    ``tree.level_stats`` counts which."""
    table = tree._levels
    if table is not None and (
        table.root_id != tree.root_id or table.height != tree.height
    ):
        table = None
    if table is not None and table.generation != tree.store.generation:
        if tree.follow_writes(table):
            table.generation = tree.store.generation
            tree.level_stats.patched += 1
        else:
            table = None
    if table is None:
        table = tree._levels = tree.level_table()
        tree.level_stats.builds += 1
    return table
