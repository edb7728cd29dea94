"""R-tree spatial join: synchronized dual-tree traversal.

The classic algorithm of Brinkhoff, Kriegel and Seeger: starting from the
two roots, recursively visit every pair of nodes whose bounding boxes
intersect, down to the leaf pairs, whose intersecting data-rectangle
pairs are the result.  Trees of different heights are handled by fixing
the shallower node and descending only the deeper tree until the levels
meet.

Every node pair is tested with one
:func:`~repro.geometry.kernels.frame_pair_mask` broadcast, and its
intersecting rows are ``np.nonzero`` of that mask, row-major.  The
original algorithm's plane sweep along x exists to avoid the nested
loop of pair tests; the broadcast has already made every test, so a
sweep could only reorder the pairs.  The order is the mask's instead:
an internal pair visits its left rows in ascending order, each with its
right partners in ascending order (so each left child is read once per
visit), and a leaf pair reports its pairs in that same row-major order.

I/O accounting follows the window engine's convention independently per
side: each side reads internal frames from its tree's pinned level
table and pays each internal node's counted read once (so repeated
joins read internal nodes for free, exactly like repeated window
queries), and every leaf fetch hits the store and is counted.  A leaf
that joins with several partners is fetched once per visiting pair
group — the uncached-leaf model the paper's query experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.queries.base import Matches, QueryStats, TraversalEngine
from repro.rtree.node import NodeFrame
from repro.rtree.query import ColumnarResult
from repro.rtree.tree import RTree

__all__ = [
    "JoinPairs",
    "JoinStats",
    "SpatialJoinEngine",
    "spatial_join",
    "brute_force_join",
]


@dataclass
class JoinStats:
    """Access statistics for one spatial join (or an accumulated batch).

    Attributes
    ----------
    left, right:
        Per-tree read statistics, same shape as window-query stats.
    pairs:
        Intersecting data-rectangle pairs reported (the join's T).
    node_pairs:
        Node pairs visited by the synchronized traversal.
    joins:
        Number of joins accumulated into this object.
    """

    left: QueryStats = field(default_factory=QueryStats)
    right: QueryStats = field(default_factory=QueryStats)
    pairs: int = 0
    node_pairs: int = 0
    joins: int = 0

    @property
    def ios(self) -> int:
        """Join cost under the paper's convention: leaf reads, both trees."""
        return self.left.leaf_reads + self.right.leaf_reads

    @property
    def total_reads(self) -> int:
        """Cost with caching ignored (all disk reads, both trees)."""
        return self.left.total_reads + self.right.total_reads

    def merge(self, other: "JoinStats") -> None:
        """Accumulate another join's statistics into this object."""
        self.left.merge(other.left)
        self.right.merge(other.right)
        self.pairs += other.pairs
        self.node_pairs += other.node_pairs
        self.joins += other.joins


class JoinPairs(ColumnarResult):
    """A join's result: an immutable sequence of
    ``((rect, value), (rect, value))`` pairs held as two row-aligned
    :class:`~repro.rtree.query.Matches`, :attr:`left` and :attr:`right`
    — row ``r`` of each is pair ``r``'s side (ids, values, ``lo`` /
    ``hi``).  :attr:`values` holds the ``(left value, right value)``
    pairs.  Like a ``Matches``, it is a snapshot no later write can
    change."""

    __slots__ = ("left", "right")

    def __init__(self, left: Matches, right: Matches) -> None:
        self.left, self.right = left, right
        self._values = tuple(zip(left.values, right.values))
        self._built: list | None = None

    def _build(self) -> list:
        return list(zip(self.left, self.right))

    def __repr__(self) -> str:
        return f"JoinPairs({len(self._values)} rows)"


class _Rows:
    """One side's output while a join runs: the leaf frames its pairs
    came from, each once, and the pairs' rows in their concatenation."""

    def __init__(self) -> None:
        self.frames: list[NodeFrame] = []
        self.start: dict[int, int] = {}  # block id -> its first row
        self.rows: list[np.ndarray] = []
        self.size = 0

    def add(self, block_id: int, frame: NodeFrame, rows: np.ndarray) -> None:
        start = self.start.get(block_id)
        if start is None:
            start = self.start[block_id] = self.size
            self.frames.append(frame)
            self.size += len(frame)
        self.rows.append(rows + start)

    def matches(self, tree) -> Matches:
        """The rows as one ``Matches``, values from one ``take``."""
        if not self.rows:
            return Matches(dim=tree.dim)
        frames = self.frames
        frame = frames[0] if len(frames) == 1 else NodeFrame.concat(frames)
        rows = np.concatenate(self.rows)
        return Matches(frame, rows, tree.objects.take(frame.ptrs[rows]), tree.dim)


class SpatialJoinEngine:
    """Reusable intersection-join executor for a pair of trees.

    Parameters
    ----------
    left, right:
        The trees to join (any variants; they may differ in height,
        fan-out and build algorithm — or be the same tree for a
        self-join).
    cache_internal:
        When true (default) each side pays one counted read per internal
        node across all joins; false counts every internal visit.
    """

    def __init__(
        self, left: RTree, right: RTree, cache_internal: bool = True
    ) -> None:
        if left.dim != right.dim:
            raise ValueError(
                f"cannot join a {left.dim}-d tree with a {right.dim}-d tree"
            )
        self._left = TraversalEngine(left, cache_internal)
        self._right = TraversalEngine(right, cache_internal)
        self.totals = JoinStats()

    def join(self) -> tuple[JoinPairs, JoinStats]:
        """Report every intersecting (left, right) data-rectangle pair.

        Returns the pairs, in the order the module docstring gives, plus
        this join's statistics; :attr:`totals` accumulate across calls.
        A self-join (both sides the same tree) reports ordered pairs,
        including each rectangle with itself.
        """
        self._left._levels()
        self._right._levels()
        stats = JoinStats(joins=1)
        out = (_Rows(), _Rows())
        left_root_id = self._left.tree.root_id
        right_root_id = self._right.tree.root_id
        left_root = self._left._frame(left_root_id, stats.left)
        right_root = self._right._frame(right_root_id, stats.right)
        if len(left_root) and len(right_root):
            if left_root.mbr().intersects(right_root.mbr()):
                self._join_pair(
                    left_root_id, left_root, right_root_id, right_root,
                    out, stats,
                )
        self.totals.merge(stats)
        pairs = JoinPairs(
            out[0].matches(self._left.tree), out[1].matches(self._right.tree)
        )
        return pairs, stats

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def _join_pair(
        self,
        id_a: int,
        frame_a: NodeFrame,
        id_b: int,
        frame_b: NodeFrame,
        out: tuple[_Rows, _Rows],
        stats: JoinStats,
    ) -> None:
        # A shard family's root and pass-through rows (negative ids) are
        # descended alone, the left side's first: each shard then meets
        # its partner as in a join of the two trees, and no node pair is
        # counted before it does.
        virtual_a, virtual_b = id_a < 0, id_b < 0
        if not (virtual_a or virtual_b):
            stats.node_pairs += 1
        # EXPLAIN recorders (repro.queries.explain), one per side; a node
        # joined against several partners accumulates matches per visit
        # and the plan clamps to the node's entry count.
        rec_a = self._left._recorder
        rec_b = self._right._recorder
        if frame_a.is_leaf and frame_b.is_leaf:
            rows_a, rows_b = self._pair_rows(id_a, frame_a, id_b, frame_b)
            stats.pairs += len(rows_a)
            if len(rows_a):
                out[0].add(id_a, frame_a, rows_a)
                out[1].add(id_b, frame_b, rows_b)
        elif frame_a.is_leaf or virtual_b and not virtual_a:
            # Height mismatch: fix the left leaf, descend the right tree.
            reach = kernels.meet_bound(*kernels.frame_mbr(frame_a.lo, frame_a.hi))
            rows = kernels.frame_rows(kernels.LE, frame_b.box, reach)
            if rec_b is not None:
                rec_b.note_matched(id_b, len(rows))
            for child_id in frame_b.ptrs[rows].tolist():
                child = self._right._frame(child_id, stats.right)
                self._join_pair(id_a, frame_a, child_id, child, out, stats)
        elif frame_b.is_leaf or virtual_a:
            reach = kernels.meet_bound(*kernels.frame_mbr(frame_b.lo, frame_b.hi))
            rows = kernels.frame_rows(kernels.LE, frame_a.box, reach)
            if rec_a is not None:
                rec_a.note_matched(id_a, len(rows))
            for child_id in frame_a.ptrs[rows].tolist():
                child = self._left._frame(child_id, stats.left)
                self._join_pair(child_id, child, id_b, frame_b, out, stats)
        else:
            # Both internal: each left child is read once per visit.
            rows_a, rows_b = self._pair_rows(id_a, frame_a, id_b, frame_b)
            child_a_id = None
            for left_id, child_b_id in zip(
                frame_a.ptrs[rows_a].tolist(), frame_b.ptrs[rows_b].tolist()
            ):
                if left_id != child_a_id:
                    child_a_id = left_id
                    child_a = self._left._frame(child_a_id, stats.left)
                child_b = self._right._frame(child_b_id, stats.right)
                self._join_pair(
                    child_a_id, child_a, child_b_id, child_b, out, stats
                )

    def _pair_rows(
        self, id_a: int, frame_a: NodeFrame, id_b: int, frame_b: NodeFrame
    ) -> tuple[np.ndarray, np.ndarray]:
        """Two nodes' intersecting row pairs from one mask, row-major;
        under EXPLAIN each side notes the rows that met a partner."""
        mask = kernels.frame_pair_mask(frame_a.box, frame_b.box)
        if self._left._recorder is not None:
            self._left._recorder.note_matched(id_a, np.count_nonzero(mask.any(1)))
            self._right._recorder.note_matched(id_b, np.count_nonzero(mask.any(0)))
        return np.nonzero(mask)

    def reset(self) -> None:
        """Clear accumulated totals (paid internal reads stay paid)."""
        self.totals = JoinStats()


def spatial_join(left: RTree, right: RTree) -> JoinPairs:
    """One-off intersection join returning its :class:`JoinPairs`.

    For measured experiments construct a :class:`SpatialJoinEngine`
    directly — it exposes per-tree I/O statistics and pays each
    internal node's counted read once across repeated joins.
    """
    pairs, _ = SpatialJoinEngine(left, right).join()
    return pairs


def brute_force_join(
    left: Sequence[tuple[Rect, Any]], right: Sequence[tuple[Rect, Any]]
) -> list[tuple[Any, Any]]:
    """Reference implementation: nested-loop join returning value pairs.

    The correctness oracle for the join tests.
    """
    return [
        (va, vb)
        for ra, va in left
        for rb, vb in right
        if ra.intersects(rb)
    ]
