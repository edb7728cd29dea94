"""R-tree spatial join: synchronized dual-tree traversal with plane sweep.

The classic algorithm of Brinkhoff, Kriegel and Seeger: starting from the
two roots, recursively visit every pair of nodes whose bounding boxes
intersect.  At each internal pair the intersecting child-entry pairs are
found with a plane sweep along the x axis (instead of the naive nested
loop), and at a leaf-leaf pair the same sweep reports the intersecting
data-rectangle pairs.  Trees of different heights are handled by fixing
the shallower node and descending only the deeper tree until the levels
meet.  Every intersection test of a node pair is one
:func:`~repro.geometry.kernels.frame_pair_mask` broadcast; the sweep
only fixes the order the pairs come out in, and a count-only join at a
leaf pair sums the mask without sweeping.

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
from typing import Any, Iterator, Sequence

from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.queries.base import QueryStats, TraversalEngine
from repro.rtree.levels import levels_of
from repro.rtree.node import Entry, NodeFrame
from repro.rtree.tree import RTree

__all__ = [
    "JoinStats",
    "SpatialJoinEngine",
    "spatial_join",
    "sweep_pairs",
    "sweep_order",
    "brute_force_join",
]

#: One join result: ((rect, value) from the left tree, same from the right).
JoinPair = tuple[tuple[Rect, Any], tuple[Rect, Any]]


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


def sweep_pairs(
    left: Sequence[Entry],
    right: Sequence[Entry],
    left_order: Sequence[int] | None = None,
    right_order: Sequence[int] | None = None,
) -> Iterator[tuple[int, int]]:
    """Index pairs ``(i, j)`` with ``left[i]`` intersecting ``right[j]``.

    A forward plane sweep along axis 0: both entry lists are visited in
    ascending ``xmin`` order, and for each rectangle the other list is
    scanned forward while its rectangles can still overlap in x; the
    full intersection test settles the remaining axes.  Each
    intersecting pair is produced exactly once.

    ``left_order``/``right_order`` optionally supply the xmin-sorted
    index orders (as produced by :func:`sweep_order`); the join engine
    caches them per node so a node joined against many partners is
    sorted once, not once per partner.
    """
    a = sweep_order(left) if left_order is None else left_order
    b = sweep_order(right) if right_order is None else right_order
    i = j = 0
    while i < len(a) and j < len(b):
        ra = left[a[i]][0]
        rb = right[b[j]][0]
        if ra.lo[0] <= rb.lo[0]:
            # ra opens first: pair it with every right rect opening
            # before ra closes.
            jj = j
            while jj < len(b):
                rj = right[b[jj]][0]
                if rj.lo[0] > ra.hi[0]:
                    break
                if ra.intersects(rj):
                    yield a[i], b[jj]
                jj += 1
            i += 1
        else:
            ii = i
            while ii < len(a):
                ri = left[a[ii]][0]
                if ri.lo[0] > rb.hi[0]:
                    break
                if ri.intersects(rb):
                    yield a[ii], b[j]
                ii += 1
            j += 1


def sweep_order(entries: Sequence[Entry]) -> list[int]:
    """Entry indices in ascending ``xmin`` order (the sweep's sort key)."""
    return sorted(range(len(entries)), key=lambda i: entries[i][0].lo[0])


#: Per-node sweep state: (xmin-sorted row order, xmin column, xmax column).
_SweepState = tuple[list[int], list[float], list[float]]


def _sweep_state_of(frame: NodeFrame) -> _SweepState:
    """Sweep bookkeeping for one frame, computed once per node.

    The x columns are extracted as plain float lists (identical values
    to the historical ``entries[i][0].lo[0]`` accesses), and the order
    is the same stable sort :func:`sweep_order` produces.
    """
    xlo = frame.box[0].tolist()
    xhi = (-frame.box[len(frame.box) // 2]).tolist()
    order = sorted(range(len(xlo)), key=xlo.__getitem__)
    return order, xlo, xhi


def _sweep_frames(
    state_a: _SweepState, state_b: _SweepState, mask
) -> Iterator[tuple[int, int]]:
    """:func:`sweep_pairs` over frames: same sweep, vectorized tests.

    ``mask`` is :func:`~repro.geometry.kernels.frame_pair_mask`'s full
    intersection matrix.  Pair production order is identical to the
    entry-based sweep.
    """
    order_a, xlo_a, xhi_a = state_a
    order_b, xlo_b, xhi_b = state_b
    na, nb = len(order_a), len(order_b)
    i = j = 0
    while i < na and j < nb:
        ia = order_a[i]
        ib = order_b[j]
        if xlo_a[ia] <= xlo_b[ib]:
            # ia opens first: pair it with every right rect opening
            # before ia closes.
            close = xhi_a[ia]
            jj = j
            while jj < nb:
                jb = order_b[jj]
                if xlo_b[jb] > close:
                    break
                if mask[ia, jb]:
                    yield ia, jb
                jj += 1
            i += 1
        else:
            close = xhi_b[ib]
            ii = i
            while ii < na:
                ja = order_a[ii]
                if xlo_a[ja] > close:
                    break
                if mask[ja, ib]:
                    yield ja, ib
                ii += 1
            j += 1


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
        # xmin-sorted row orders plus x-column extracts, keyed by block id
        # per side, so a node visited in many node pairs is sorted once;
        # kept across joins until either tree is written (a leaf write
        # keeps the level table and a patch keeps its identity, but both
        # move its generation), and assuming no write mid-join.
        self._orders_left: dict[int, _SweepState] = {}
        self._orders_right: dict[int, _SweepState] = {}
        self._stamp: tuple = ()
        self.totals = JoinStats()

    def join(self) -> tuple[list[JoinPair], JoinStats]:
        """Report every intersecting (left, right) data-rectangle pair.

        Returns the pairs plus this join's statistics; :attr:`totals`
        accumulate across calls.  A self-join (both sides the same tree)
        reports ordered pairs, including each rectangle with itself.
        """
        out: list[JoinPair] = []
        stats = self._run(out)
        return out, stats

    def pair_count(self) -> tuple[int, JoinStats]:
        """Join cardinality without materializing the pairs.

        Same traversal and I/O cost as :meth:`join`, but the O(T) pair
        list is never built; the count is also ``stats.pairs``.
        """
        stats = self._run(out=None)
        return stats.pairs, stats

    def _run(self, out: list[JoinPair] | None) -> JoinStats:
        left, right = levels_of(self._left.tree), levels_of(self._right.tree)
        stamp = (left, left.generation, right, right.generation)
        if stamp != self._stamp:  # a node was written: re-sort
            self._orders_left, self._orders_right, self._stamp = {}, {}, stamp
        stats = JoinStats(joins=1)
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
        return stats

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def _sweep_state(
        self, cache: dict[int, _SweepState], block_id: int, frame: NodeFrame
    ) -> _SweepState:
        state = cache.get(block_id)
        if state is None:
            state = cache[block_id] = _sweep_state_of(frame)
        return state

    def _join_pair(
        self,
        id_a: int,
        frame_a: NodeFrame,
        id_b: int,
        frame_b: NodeFrame,
        out: list[JoinPair] | None,
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
            mask = kernels.frame_pair_mask(frame_a.box, frame_b.box)
            if out is None and rec_a is None:
                # Count-only: the mask already holds every intersecting
                # pair exactly once — no sweep needed.  (Under EXPLAIN
                # the sweep runs so per-side matched rows are known; the
                # pair count is identical.)
                stats.pairs += int(mask.sum())
                return
            pairs = list(_sweep_frames(
                self._sweep_state(self._orders_left, id_a, frame_a),
                self._sweep_state(self._orders_right, id_b, frame_b),
                mask,
            ))
            stats.pairs += len(pairs)
            if out is not None and pairs:
                rows_a, rows_b = map(list, zip(*pairs))
                left = self._left.tree.objects.take(frame_a.ptrs[rows_a])
                right = self._right.tree.objects.take(frame_b.ptrs[rows_b])
                out += [
                    ((frame_a.rect(i), value_a), (frame_b.rect(j), value_b))
                    for (i, j), value_a, value_b in zip(pairs, left, right)
                ]
            if rec_a is not None:
                rec_a.note_matched(id_a, len({i for i, _ in pairs}))
                rec_b.note_matched(id_b, len({j for _, j in pairs}))
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
            # Both internal: plane-sweep the entry pairs, then group by
            # left child so each left child is fetched once per visit.
            matches: dict[int, list[int]] = {}
            pairs = _sweep_frames(
                self._sweep_state(self._orders_left, id_a, frame_a),
                self._sweep_state(self._orders_right, id_b, frame_b),
                kernels.frame_pair_mask(frame_a.box, frame_b.box),
            )
            for i, j in pairs:
                matches.setdefault(i, []).append(j)
            if rec_a is not None:
                rec_a.note_matched(id_a, len(matches))
                rec_b.note_matched(
                    id_b, len({j for js in matches.values() for j in js})
                )
            for i in sorted(matches):
                child_a_id = frame_a.ptrs.item(i)
                child_a = self._left._frame(child_a_id, stats.left)
                for j in matches[i]:
                    child_b_id = frame_b.ptrs.item(j)
                    child_b = self._right._frame(child_b_id, stats.right)
                    self._join_pair(
                        child_a_id, child_a, child_b_id, child_b, out, stats
                    )

    def reset(self) -> None:
        """Clear accumulated totals (paid internal reads stay paid)."""
        self.totals = JoinStats()


def spatial_join(left: RTree, right: RTree) -> list[JoinPair]:
    """One-off intersection join returning ``((rect, value), (rect, value))``.

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
