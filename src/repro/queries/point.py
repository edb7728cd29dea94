"""Point (stabbing), containment and count queries.

Three small relatives of the window query, all running the same
depth-first traversal with the window engine's I/O accounting:

* :meth:`PointQueryEngine.point_query` — all data rectangles containing a
  query point (the stabbing query).  Prunes harder than a degenerate
  window query: a subtree is descended only when its bounding box
  *contains* the point.
* :meth:`PointQueryEngine.containment_query` — all data rectangles lying
  entirely inside a query window.  Pruning still uses intersection (a
  child box need not be contained for its rectangles to be), but
  reporting checks full containment.
* :meth:`PointQueryEngine.count` — window-query cardinality without
  materializing matches; ``stats.reported`` carries the count.

Each returns the same ``(result, QueryStats)`` shape as
:class:`~repro.rtree.query.QueryEngine.query`, and one engine instance
pays each internal node's counted read once across all three operators.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.geometry import kernels
from repro.geometry.rect import Rect, check_dim
from repro.queries.base import Matches, QueryStats, TraversalEngine

__all__ = [
    "PointQueryEngine",
    "point_query",
    "containment_query",
    "count_query",
    "brute_force_point_query",
    "brute_force_containment",
]


class PointQueryEngine(TraversalEngine):
    """Reusable executor for point / containment / count queries."""

    def point_query(
        self, point: Sequence[float]
    ) -> tuple[Matches, QueryStats]:
        """All stored rectangles containing ``point`` (stabbing query)."""
        point = tuple(float(c) for c in point)
        check_dim(point, self.tree.dim)
        reach = kernels.meet_bound(point, point)

        def stabbing(box):
            return kernels.frame_rows(kernels.LE, box, reach)

        # A subtree is descended only when its box contains the point —
        # the same kernel prunes and reports.
        return self._run(descend_rows=stabbing, report_rows=stabbing)

    def containment_query(
        self, window: Rect
    ) -> tuple[Matches, QueryStats]:
        """All stored rectangles lying entirely inside ``window``."""
        check_dim(window, self.tree.dim)
        # Pruning still uses intersection (a child box need not be
        # contained for its rectangles to be); reporting checks full
        # containment.
        reach = kernels.meet_bound(window.lo, window.hi)
        inner = kernels.box_bound(window.lo, window.hi)

        def intersecting(box):
            return kernels.frame_rows(kernels.LE, box, reach)

        def contained(box):
            return kernels.frame_rows(kernels.GE, box, inner)

        return self._run(descend_rows=intersecting, report_rows=contained)

    def count(self, window: Rect) -> tuple[int, QueryStats]:
        """Number of stored rectangles intersecting ``window``.

        Same traversal as the window query; the count is also available
        as ``stats.reported``.
        """
        check_dim(window, self.tree.dim)
        reach = kernels.meet_bound(window.lo, window.hi)

        def intersecting(box):
            return kernels.frame_rows(kernels.LE, box, reach)

        def counting(box):
            return kernels.frame_count(kernels.LE, box, reach)

        _, stats = self._run(intersecting, report_rows=None, count_rows=counting)
        return stats.reported, stats


def point_query(tree, point: Sequence[float]) -> Matches:
    """One-off stabbing query returning ``(rect, value)`` matches.

    For measured experiments construct a :class:`PointQueryEngine`
    directly — it exposes I/O statistics and pays each internal node's
    counted read once across a query workload.
    """
    matches, _ = PointQueryEngine(tree).point_query(point)
    return matches


def containment_query(tree, window: Rect) -> Matches:
    """One-off containment query returning ``(rect, value)`` matches."""
    matches, _ = PointQueryEngine(tree).containment_query(window)
    return matches


def count_query(tree, window: Rect) -> int:
    """One-off count of stored rectangles intersecting ``window``."""
    count, _ = PointQueryEngine(tree).count(window)
    return count


def brute_force_point_query(
    data: Sequence[tuple[Rect, Any]], point: Sequence[float]
) -> list[tuple[Rect, Any]]:
    """Reference stabbing query: scan everything (the test oracle)."""
    return [(rect, value) for rect, value in data if rect.contains_point(point)]


def brute_force_containment(
    data: Sequence[tuple[Rect, Any]], window: Rect
) -> list[tuple[Rect, Any]]:
    """Reference containment query: scan everything (the test oracle)."""
    return [
        (rect, value) for rect, value in data if window.contains_rect(rect)
    ]
