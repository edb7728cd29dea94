"""Request and response types of the batched query server.

Requests are small frozen dataclasses — hashable so the server can
deduplicate repeats inside a batch, and carrying the *name* of the index
they target so one server can front a catalog of trees.  Each request
kind maps onto one engine from :mod:`repro.queries` /
:mod:`repro.rtree.query`:

===========  ==========================================================
kind         engine
===========  ==========================================================
window       :class:`~repro.rtree.query.QueryEngine.query`
containment  :class:`~repro.queries.point.PointQueryEngine.containment_query`
count        :class:`~repro.queries.point.PointQueryEngine.count`
point        :class:`~repro.queries.point.PointQueryEngine.point_query`
knn          :class:`~repro.queries.knn.KNNEngine.knn`
join         :class:`~repro.queries.join.SpatialJoinEngine.join`
insert       :func:`repro.rtree.update.insert` (write; never deduped)
delete       :func:`repro.rtree.update.delete` (write; never deduped)
===========  ==========================================================

The two *write* kinds are exempt from batch deduplication: two
identical inserts mean two entries, and write order is semantics.
Within a batch, all writes are applied in submission order before any
read executes (reads observe the post-write state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Sequence

from repro.geometry.rect import Rect

__all__ = [
    "DEFAULT_INDEX",
    "Request",
    "WindowRequest",
    "ContainmentRequest",
    "CountRequest",
    "PointRequest",
    "KNNRequest",
    "JoinRequest",
    "InsertRequest",
    "DeleteRequest",
    "UpdateStats",
    "RequestResult",
]

#: The index name used when a server fronts a single tree.
DEFAULT_INDEX = "default"


@dataclass(frozen=True)
class Request:
    """Base class: every request names the index it runs against."""

    kind: ClassVar[str] = "?"


@dataclass(frozen=True)
class WindowRequest(Request):
    """All data rectangles intersecting ``window``."""

    window: Rect
    index: str = DEFAULT_INDEX
    kind: ClassVar[str] = "window"


@dataclass(frozen=True)
class ContainmentRequest(Request):
    """All data rectangles lying entirely inside ``window``."""

    window: Rect
    index: str = DEFAULT_INDEX
    kind: ClassVar[str] = "containment"


@dataclass(frozen=True)
class CountRequest(Request):
    """Cardinality of a window query, without materializing matches."""

    window: Rect
    index: str = DEFAULT_INDEX
    kind: ClassVar[str] = "count"


@dataclass(frozen=True)
class PointRequest(Request):
    """All data rectangles containing ``point`` (stabbing query)."""

    point: tuple[float, ...]
    index: str = DEFAULT_INDEX
    kind: ClassVar[str] = "point"

    def __post_init__(self) -> None:
        # Accept any coordinate sequence but store a hashable tuple.
        object.__setattr__(
            self, "point", tuple(float(c) for c in self.point)
        )


@dataclass(frozen=True)
class KNNRequest(Request):
    """The ``k`` nearest data rectangles to ``target`` (point or Rect)."""

    target: tuple[float, ...] | Rect
    k: int
    index: str = DEFAULT_INDEX
    kind: ClassVar[str] = "knn"

    def __post_init__(self) -> None:
        if not isinstance(self.target, Rect):
            object.__setattr__(
                self, "target", tuple(float(c) for c in self.target)
            )
        if self.k < 0:
            raise ValueError("k must be >= 0")


@dataclass(frozen=True)
class InsertRequest(Request):
    """Insert one ``(rect, value)`` data rectangle into an index.

    A write: executed exactly once per occurrence, in submission order,
    before the batch's reads.  The result value is the assigned object
    id.  ``value`` may be any object (unhashable values are fine —
    writes never enter the dedup table).
    """

    rect: Rect
    value: Any = None
    index: str = DEFAULT_INDEX
    kind: ClassVar[str] = "insert"


@dataclass(frozen=True)
class DeleteRequest(Request):
    """Delete one data rectangle equal to ``rect`` whose value matches.

    A write: executed exactly once per occurrence, in submission order,
    before the batch's reads.  The result value is True when a matching
    entry was found and removed; duplicates of the same ``(rect,
    value)`` pair are removed one per request.
    """

    rect: Rect
    value: Any = None
    index: str = DEFAULT_INDEX
    kind: ClassVar[str] = "delete"


@dataclass
class UpdateStats:
    """I/O cost of one write request (logical, the paper's accounting).

    ``reads``/``writes`` are the counted block I/Os the update
    performed: the root-to-leaf descent plus written-back nodes, splits
    and condense work.  Physical page writes are deferred by the
    write-back layer and reported per batch
    (:attr:`~repro.server.server.BatchReport.pages_flushed`), not per
    request.
    """

    reads: int = 0
    writes: int = 0

    @property
    def ios(self) -> int:
        """Total logical block transfers of this update."""
        return self.reads + self.writes


@dataclass(frozen=True)
class JoinRequest(Request):
    """Every intersecting data-rectangle pair between two indexes."""

    left: str = DEFAULT_INDEX
    right: str = DEFAULT_INDEX
    kind: ClassVar[str] = "join"


@dataclass
class RequestResult:
    """One executed (or deduplicated) request of a batch.

    Attributes
    ----------
    request:
        The request this result answers.
    value:
        The operator's payload: a :class:`~repro.rtree.query.Matches`
        for window/containment/point (``(rect, value)`` pairs held as
        columns; the pairs are built only if the caller iterates or
        indexes), an ``int`` for count, a list of
        :class:`~repro.queries.knn.Neighbor` for knn, a list of pairs
        for join, the assigned object id for insert, and a found
        ``bool`` for delete.  Duplicates share one payload object.
    stats:
        The operator's own statistics object
        (:class:`~repro.rtree.query.QueryStats` or
        :class:`~repro.queries.join.JoinStats`); shared between
        duplicates of the same request.
    latency_s:
        Wall-clock seconds the execution took (0.0 for duplicates —
        they reuse the first occurrence's result).
    deduped:
        True when this occurrence was answered from an earlier
        identical request in the same batch.
    plan:
        The captured :class:`~repro.queries.explain.QueryPlan` (or
        :class:`~repro.queries.explain.JoinPlan`) when the server ran
        with ``explain=True`` and the engine supports plan capture;
        None otherwise (writes, sharded facades, explain off).
        Duplicates share the first occurrence's plan.
    """

    request: Request
    value: Any
    stats: Any
    latency_s: float = 0.0
    deduped: bool = False
    plan: Any = None
