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
shares a single warm internal-node pool across all three operators.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.queries.base import QueryStats, TraversalEngine

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
    ) -> tuple[list[tuple[Rect, Any]], QueryStats]:
        """All stored rectangles containing ``point`` (stabbing query)."""
        point = tuple(float(c) for c in point)
        if len(point) != self.tree.dim:
            raise ValueError(
                f"{len(point)}-d point against a {self.tree.dim}-d tree"
            )
        p = kernels.as_coords(point)

        def stabbing(frame):
            return kernels.frame_containing_point(frame.lo, frame.hi, p)

        # A subtree is descended only when its box contains the point —
        # the same kernel prunes and reports.
        return self._run(descend_rows=stabbing, report_rows=stabbing)

    def containment_query(
        self, window: Rect
    ) -> tuple[list[tuple[Rect, Any]], QueryStats]:
        """All stored rectangles lying entirely inside ``window``."""
        if window.dim != self.tree.dim:
            raise ValueError(
                f"{window.dim}-d window against a {self.tree.dim}-d tree"
            )
        q_lo = kernels.as_coords(window.lo)
        q_hi = kernels.as_coords(window.hi)
        # Pruning still uses intersection (a child box need not be
        # contained for its rectangles to be); reporting checks full
        # containment.
        return self._run(
            descend_rows=lambda frame: kernels.frame_intersecting(
                frame.lo, frame.hi, q_lo, q_hi
            ),
            report_rows=lambda frame: kernels.frame_contained_in(
                frame.lo, frame.hi, q_lo, q_hi
            ),
        )

    def count(self, window: Rect) -> tuple[int, QueryStats]:
        """Number of stored rectangles intersecting ``window``.

        Same traversal as the window query; the count is also available
        as ``stats.reported``.
        """
        if window.dim != self.tree.dim:
            raise ValueError(
                f"{window.dim}-d window against a {self.tree.dim}-d tree"
            )
        q_lo = kernels.as_coords(window.lo)
        q_hi = kernels.as_coords(window.hi)
        _, stats = self._run(
            descend_rows=lambda frame: kernels.frame_intersecting(
                frame.lo, frame.hi, q_lo, q_hi
            ),
            report_rows=None,
            count_rows=lambda frame: kernels.frame_count_intersecting(
                frame.lo, frame.hi, q_lo, q_hi
            ),
        )
        return stats.reported, stats

    def _run(
        self,
        descend_rows: Callable[..., list[int]],
        report_rows: Callable[..., list[int]] | None,
        count_rows: Callable[..., int] | None = None,
    ) -> tuple[list[tuple[Rect, Any]], QueryStats]:
        """Depth-first traversal with whole-frame evaluation.

        ``descend_rows(frame)`` returns the internal rows to push,
        ``report_rows(frame)`` the leaf rows to materialize; a count-only
        operator passes ``count_rows`` instead so leaves never build an
        index list (or a ``Rect``) at all.
        """
        tree = self.tree
        recorder = self._recorder
        stats = QueryStats(queries=1)
        matches: list[tuple[Rect, Any]] = []
        stack = [tree.root_id]
        while stack:
            block_id = stack.pop()
            node = self._read(block_id, stats)
            frame = node.frame()
            if frame.is_leaf:
                if report_rows is None:
                    kept = count_rows(frame)
                    stats.reported += kept
                    if recorder is not None:
                        recorder.note_matched(block_id, kept)
                    continue
                rows = report_rows(frame)
                stats.reported += len(rows)
                if recorder is not None:
                    recorder.note_matched(block_id, len(rows))
                entries = node.cached_entries()
                if entries is None:
                    matches += frame.report(rows, tree.objects)
                else:
                    # Report existing Rect objects when the node has a
                    # materialized entry list (identical values).
                    for i in rows:
                        rect, pointer = entries[i]
                        matches.append((rect, tree.objects.get(pointer)))
            else:
                ptrs = frame.ptrs
                rows = descend_rows(frame)
                if recorder is not None:
                    recorder.note_matched(block_id, len(rows))
                for i in rows:
                    stack.append(ptrs[i])
        self.totals.merge(stats)
        return matches, stats


def point_query(tree, point: Sequence[float]) -> list[tuple[Rect, Any]]:
    """One-off stabbing query returning ``(rect, value)`` matches.

    For measured experiments construct a :class:`PointQueryEngine`
    directly — it exposes I/O statistics and keeps its internal-node
    cache warm across a query workload.
    """
    matches, _ = PointQueryEngine(tree).point_query(point)
    return matches


def containment_query(tree, window: Rect) -> list[tuple[Rect, Any]]:
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
