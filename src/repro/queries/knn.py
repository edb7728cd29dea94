"""Best-first k-nearest-neighbor search (Hjaltason & Samet).

The engine keeps a priority queue ordered by MINDIST — the distance from
the query target to the nearest point of an entry's bounding box.  Nodes
and data rectangles share the queue: popping a node expands it (its
entries join the queue as one run sorted by distance), popping a data
rectangle *reports* it.  Because a node's MINDIST lower-bounds the
distance of everything inside it, rectangles pop in exactly
nondecreasing distance order, which gives three operations for the
price of one traversal:

* :meth:`KNNEngine.nearest` — an incremental iterator producing neighbors
  one at a time (distance browsing); stop whenever you have enough.
* :meth:`KNNEngine.knn` — the batched top-k, as columnar
  :class:`Neighbors`.
* :func:`knn` — one-shot convenience wrapper.

The traversal is branch-and-bound optimal in the number of nodes touched:
it only ever reads nodes whose MINDIST is below the distance of the last
neighbor consumed.  I/O accounting follows the window engine exactly
(leaf reads counted, internal frames from the tree's pinned level
table), so kNN cost is directly comparable with the paper's window-query
figures.

The query target may be a point (any coordinate sequence) or a
:class:`~repro.geometry.rect.Rect` — the engine switches between
point-to-box and box-to-box MINDIST automatically.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from operator import itemgetter
from typing import Any, NamedTuple

import numpy as np

from repro.geometry import kernels
from repro.geometry.rect import Rect, check_dim
from repro.queries.base import QueryStats, TraversalEngine
from repro.rtree.node import NodeFrame, pointer_column
from repro.rtree.query import ColumnarResult

__all__ = ["Neighbor", "Neighbors", "KNNEngine", "knn", "brute_force_knn"]


class Neighbor(NamedTuple):
    """One kNN result: Euclidean distance, data rectangle, caller value."""

    distance: float
    rect: Rect
    value: Any


#: One reported row of a best-first stream: ``(dist_sq, leaf frame,
#: row, object id)``.
Hit = tuple[float, NodeFrame, int, int]

_dist_sq, _ids = itemgetter(0), itemgetter(3)


def id_column(hits: Sequence[Hit]):
    """The hits' object ids as one int64 column (what a value table's
    ``take`` gathers)."""
    return np.fromiter(map(_ids, hits), np.int64, len(hits))


class Neighbors(ColumnarResult):
    """A kNN query's result: an immutable sequence of :class:`Neighbor`
    tuples held as columns.

    The columns are one :data:`Hit` per neighbor — its squared
    distance, its leaf's frame, row and object id (frames are never
    edited in place, so this is a snapshot no later write can change) —
    plus its value, resolved at query time by one ``take`` over the
    hits' :func:`id_column`.  ``len()``,
    :attr:`distances`, :attr:`values` and :attr:`ids` read them; the
    tuples come in distance order.  A retained result keeps its leaves'
    frames alive.
    """

    __slots__ = ("_hits",)

    def __init__(
        self, hits: Iterable[Hit] = (), values: Iterable[Any] = ()
    ) -> None:
        self._hits = tuple(hits)
        self._values = tuple(values)
        self._built: list[Neighbor] | None = None

    @property
    def distances(self) -> tuple[float, ...]:
        """The neighbors' Euclidean distances, nondecreasing (one
        vectorised square root; IEEE-754 ``sqrt`` is correctly rounded,
        so each equals ``math.sqrt``)."""
        hits = self._hits
        squared = np.fromiter(map(_dist_sq, hits), np.float64, len(hits))
        return tuple(np.sqrt(squared).tolist())

    @property
    def ids(self) -> tuple[int, ...]:
        """The neighbors' object ids (leaf pointers), in result order."""
        return tuple(map(_ids, self._hits))

    def _build(self) -> list[Neighbor]:
        return [
            Neighbor(distance, frame.rect(row), value)
            for distance, (_, frame, row, _), value in zip(
                self.distances, self._hits, self._values
            )
        ]

    def __repr__(self) -> str:
        return f"Neighbors({len(self._hits)} rows)"


def target_dist_sq(rect: Rect, target: Rect | Sequence[float]) -> float:
    """Squared MINDIST from a query target (point or box) to ``rect``."""
    if isinstance(target, Rect):
        return rect.dist_sq_to_rect(target)
    return rect.dist_sq_to_point(target)


class KNNEngine(TraversalEngine):
    """Reusable best-first kNN executor for one tree.

    Construction matches :class:`~repro.rtree.query.QueryEngine`:
    an internal node costs one counted read per engine (the paper's
    setup) and leaf reads are the reported cost.
    """

    def nearest(self, target: Rect | Sequence[float]) -> Iterator[Neighbor]:
        """Incrementally yield neighbors in nondecreasing distance order.

        The traversal is lazy: nodes are read only when the queue head
        requires expanding them, so consuming the first j neighbors costs
        only the I/O needed to *prove* they are the nearest j.  Statistics
        accumulate into :attr:`totals` as the iterator is consumed; the
        query is counted once, when iteration starts.  The target is
        checked at once, before the first ``next()``.
        """
        check_dim(target, self.tree.dim)
        get = self.tree.objects.get  # a stream: one value at a time
        return (
            Neighbor(math.sqrt(dist_sq), frame.rect(row), get(oid))
            for dist_sq, frame, row, oid in self._hits(target, self.totals)
        )

    def _hits(self, target, stats: QueryStats) -> Iterator[Hit]:
        """The best-first stream, one :data:`Hit` per reported row,
        counting into ``stats`` (the query once it starts).

        Every expanded node is one *run*: its rows ordered by
        ``(dist_sq, row)``, from one kernel call.  Only a run's head is
        on the heap, keyed by ``(dist_sq, counter)``; an expansion
        numbers its rows ``counter + 1 + row`` and advances the counter
        by the node's size.  The keys are distinct and each run is
        sorted by them, so rows pop in exactly the order one heap entry
        per row would give, and nodes are read in that order too.
        """
        stats.queries += 1
        self._levels()
        if isinstance(target, Rect):
            reach = kernels.meet_bound(target.lo, target.hi)
        else:
            reach = kernels.meet_bound(target, target)
        recorder = self._recorder
        # (dist_sq, counter, row, frame, rest of the run); the counter
        # breaks ties, so heapq never compares further.  The root is a
        # one-row run of its own, on a frame that holds only its id.
        root_id = pointer_column([self.tree.root_id])
        root = NodeFrame(False, None, root_id)
        heap = [(0.0, 0, 0, root, iter(()))]
        counter = 0
        while heap:
            dist_sq, _, row, frame, rest = heap[0]
            following = next(rest, None)
            if following is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, following + (frame, rest))
            if frame.is_leaf:
                stats.reported += 1
                yield dist_sq, frame, row, frame.ptrs.item(row)
                continue
            block_id = frame.ptrs.item(row)
            child = self._frame(block_id, stats)
            if recorder is not None:
                # Best-first search prunes at node granularity (entries
                # of a read node all become live candidates); unread
                # nodes are the pruning the plan's per-level node counts
                # show.
                recorder.note_matched(block_id, len(child))
            dists, rows = kernels.frame_nearest_run(child.box, reach)
            if rows:
                run = zip(dists, map((counter + 1).__add__, rows), rows)
                heapq.heappush(heap, next(run) + (child, run))
                counter += len(rows)

    def knn(
        self, target: Rect | Sequence[float], k: int
    ) -> tuple[Neighbors, QueryStats]:
        """The k nearest neighbors of ``target`` (fewer if the tree is small).

        Returns the neighbors in nondecreasing distance order plus this
        query's statistics; :attr:`totals` accumulate across calls.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        check_dim(target, self.tree.dim)
        stats = QueryStats()
        hits = list(islice(self._hits(target, stats), k))
        stats.queries = 1  # also when k == 0 never starts the stream
        self.totals.merge(stats)
        return Neighbors(hits, self.tree.objects.take(id_column(hits))), stats


def knn(tree, target: Rect | Sequence[float], k: int) -> Neighbors:
    """One-off kNN returning :class:`Neighbors`.

    For measured experiments construct a :class:`KNNEngine` directly —
    it exposes I/O statistics and pays each internal node's counted
    read once across a query workload.
    """
    neighbors, _ = KNNEngine(tree).knn(target, k)
    return neighbors


def brute_force_knn(
    data: Sequence[tuple[Rect, Any]],
    target: Rect | Sequence[float],
    k: int,
) -> list[Neighbor]:
    """Reference implementation: score and sort everything.

    The correctness oracle for the kNN tests.  Ties are broken by input
    order, so compare *distances* (not values) against the engine when a
    dataset may contain equidistant rectangles.
    """
    scored = sorted(
        (
            Neighbor(math.sqrt(target_dist_sq(rect, target)), rect, value)
            for rect, value in data
        ),
        key=lambda nb: nb.distance,
    )
    return scored[:k]
