"""The spatial join as it stood before its pairs came out of the pair
mask: a plane sweep along x fixed the order of every node pair's
intersecting rows, over a per-node cache of sweep orders.

A verbatim copy of that ``SpatialJoinEngine`` (as :class:`SweepJoinEngine`)
with its sweep helpers, adapted only to the paid-set check: each side's
table is looked up through ``TraversalEngine._levels``.  It is the
oracle for the join's pair multiset and its per-side statistics — the
order of its pairs is the sweep's, not the engine's.
"""

from __future__ import annotations

from typing import Iterator

from repro.geometry import kernels
from repro.queries.base import TraversalEngine
from repro.queries.join import JoinStats
from repro.rtree.node import NodeFrame
from repro.rtree.tree import RTree


#: Per-node sweep state: (xmin-sorted row order, xmin column, xmax column).
_SweepState = tuple[list[int], list[float], list[float]]


def _sweep_state_of(frame: NodeFrame) -> _SweepState:
    """Sweep bookkeeping for one frame, computed once per node.

    The x columns are extracted as plain float lists (identical values
    to the historical ``entries[i][0].lo[0]`` accesses), and the order
    is the same stable sort the entry-based sweep used.
    """
    xlo = frame.box[0].tolist()
    xhi = (-frame.box[len(frame.box) // 2]).tolist()
    order = sorted(range(len(xlo)), key=xlo.__getitem__)
    return order, xlo, xhi


def _sweep_frames(
    state_a: _SweepState, state_b: _SweepState, mask
) -> Iterator[tuple[int, int]]:
    """The entry-based plane sweep over frames: same sweep, vectorized tests.

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


class SweepJoinEngine:
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

    def join(self) -> tuple[list, JoinStats]:
        """Report every intersecting (left, right) data-rectangle pair.

        Returns the pairs plus this join's statistics; :attr:`totals`
        accumulate across calls.  A self-join (both sides the same tree)
        reports ordered pairs, including each rectangle with itself.
        """
        out: list = []
        stats = self._run(out)
        return out, stats

    def pair_count(self) -> tuple[int, JoinStats]:
        """Join cardinality without materializing the pairs.

        Same traversal and I/O cost as :meth:`join`, but the O(T) pair
        list is never built; the count is also ``stats.pairs``.
        """
        stats = self._run(out=None)
        return stats.pairs, stats

    def _run(self, out: list | None) -> JoinStats:
        left, right = self._left._levels(), self._right._levels()
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
        out: list | None,
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
