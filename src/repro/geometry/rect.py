"""Axis-parallel d-dimensional rectangles.

The paper indexes minimal bounding boxes: "the smallest axis-parallel
(hyper-)rectangle that contains the object" (Section 1.1).  :class:`Rect` is
that object.  It is deliberately small and immutable — R-trees hold millions
of these, and every algorithm in the reproduction (kd-splits, Hilbert keys,
greedy splits, window queries) reads them in tight loops.

Coordinate conventions
----------------------

A ``Rect`` in d dimensions stores two tuples ``lo`` and ``hi`` with
``lo[i] <= hi[i]`` for every axis ``i``.  In two dimensions
``lo = (xmin, ymin)`` and ``hi = (xmax, ymax)``, matching the paper's
``((xmin, ymin), (xmax, ymax))`` notation.

Closed-box semantics: two rectangles that share only a boundary point do
*intersect* — this matches the window-query definition "retrieve all
rectangles that intersect Q" used by Guttman and the paper.

The 2d-dimensional corner mapping
---------------------------------

The pseudo-PR-tree and the four-dimensional Hilbert R-tree both view a
rectangle ``((xmin, ymin), (xmax, ymax))`` as the 4-dimensional point
``(xmin, ymin, xmax, ymax)`` (the paper's ``R*`` mapping).
:meth:`Rect.corner_point` performs that mapping for any d: axis ``k`` of the
2d-dimensional point is ``lo[k]`` for ``k < d`` and ``hi[k - d]`` for
``k >= d``.  All round-robin split orders in the PR-tree cycle through these
2d "corner axes" in the order ``xmin, ymin, ..., xmax, ymax, ...``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from repro.geometry import kernels


class Rect:
    """An immutable axis-parallel hyper-rectangle in d dimensions.

    Parameters
    ----------
    lo:
        Sequence of lower coordinates, one per axis.
    hi:
        Sequence of upper coordinates, one per axis; ``hi[i] >= lo[i]``.

    Examples
    --------
    >>> r = Rect((0.0, 0.0), (2.0, 1.0))
    >>> r.dim, r.area()
    (2, 2.0)
    >>> r.intersects(Rect((1.0, 0.5), (3.0, 3.0)))
    True
    >>> r.corner_point()
    (0.0, 0.0, 2.0, 1.0)
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        lo = tuple(float(c) for c in lo)
        hi = tuple(float(c) for c in hi)
        if len(lo) != len(hi):
            raise ValueError(
                f"lo has {len(lo)} coordinates but hi has {len(hi)}"
            )
        if not lo:
            raise ValueError("rectangles must have at least one dimension")
        for a, b in zip(lo, hi):
            if a > b:
                raise ValueError(f"degenerate rectangle: lo {lo} > hi {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # Rect is conceptually frozen; block assignment through the normal path.
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rect is immutable")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Number of spatial dimensions."""
        return len(self.lo)

    @property
    def xmin(self) -> float:
        """Lower x coordinate (axis 0); paper notation ``xmin(R)``."""
        return self.lo[0]

    @property
    def ymin(self) -> float:
        """Lower y coordinate (axis 1); paper notation ``ymin(R)``."""
        return self.lo[1]

    @property
    def xmax(self) -> float:
        """Upper x coordinate (axis 0); paper notation ``xmax(R)``."""
        return self.hi[0]

    @property
    def ymax(self) -> float:
        """Upper y coordinate (axis 1); paper notation ``ymax(R)``."""
        return self.hi[1]

    def side(self, axis: int) -> float:
        """Extent of the rectangle along ``axis``."""
        return self.hi[axis] - self.lo[axis]

    def center(self) -> tuple[float, ...]:
        """Center point, used by the packed Hilbert loader."""
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    def area(self) -> float:
        """d-dimensional volume (area when d = 2)."""
        return kernels.area(self.lo, self.hi)

    def margin(self) -> float:
        """Sum of side lengths (half-perimeter in 2D)."""
        return sum(b - a for a, b in zip(self.lo, self.hi))

    def aspect_ratio(self) -> float:
        """Longest side divided by shortest side (``inf`` for zero sides)."""
        sides = [b - a for a, b in zip(self.lo, self.hi)]
        shortest = min(sides)
        longest = max(sides)
        if shortest == 0.0:
            return math.inf if longest > 0.0 else 1.0
        return longest / shortest

    def is_point(self) -> bool:
        """True when the rectangle has zero extent on every axis."""
        return self.lo == self.hi

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """Closed-box intersection test (boundary contact counts)."""
        return kernels.intersects(self.lo, self.hi, other.lo, other.hi)

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return kernels.contains(self.lo, self.hi, other.lo, other.hi)

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies inside or on the boundary."""
        return kernels.contains_point(self.lo, self.hi, point)

    # ------------------------------------------------------------------
    # Distances (best-first kNN, Hjaltason & Samet's MINDIST/MAXDIST)
    # ------------------------------------------------------------------

    def dist_sq_to_point(self, point: Sequence[float]) -> float:
        """Squared Euclidean distance from ``point`` to this rectangle.

        Zero when the point lies inside or on the boundary.  The squared
        form is what the kNN engine orders its priority queue by — it is
        monotone in the true distance and avoids a sqrt per entry.
        """
        return kernels.dist_sq_to_point(self.lo, self.hi, point)

    def min_dist_to_point(self, point: Sequence[float]) -> float:
        """Euclidean distance from ``point`` to the nearest point of self."""
        return math.sqrt(self.dist_sq_to_point(point))

    def max_dist_sq_to_point(self, point: Sequence[float]) -> float:
        """Squared distance from ``point`` to the *farthest* corner.

        An upper bound on the distance to anything inside the rectangle;
        usable for kNN pruning (every object in a node is at most this far
        away).
        """
        acc = 0.0
        for a_lo, a_hi, p in zip(self.lo, self.hi, point):
            d = max(abs(p - a_lo), abs(p - a_hi))
            acc += d * d
        return acc

    def dist_sq_to_rect(self, other: "Rect") -> float:
        """Squared Euclidean distance between the two closest points.

        Zero when the rectangles intersect (closed-box semantics).  This
        is the MINDIST used when the kNN target is itself a rectangle and
        by distance-bounded joins.
        """
        return kernels.dist_sq_to_rect(self.lo, self.hi, other.lo, other.hi)

    def min_dist_to_rect(self, other: "Rect") -> float:
        """Euclidean distance between the two closest points (0 if touching)."""
        return math.sqrt(self.dist_sq_to_rect(other))

    # ------------------------------------------------------------------
    # Constructive operations
    # ------------------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        """Minimal bounding box of the two rectangles."""
        return Rect(
            tuple(min(a, b) for a, b in zip(self.lo, other.lo)),
            tuple(max(a, b) for a, b in zip(self.hi, other.hi)),
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """Intersection box, or ``None`` when the boxes are disjoint."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        for a, b in zip(lo, hi):
            if a > b:
                return None
        return Rect(lo, hi)

    def enlargement(self, other: "Rect") -> float:
        """Area increase of this box needed to also cover ``other``.

        This is Guttman's insertion criterion: choose the child whose MBR
        needs the least enlargement.  Same arithmetic (and operation
        order) as the historical ``union(other).area() - area()``.
        """
        return kernels.enlargement(self.lo, self.hi, other.lo, other.hi)

    def translated(self, offset: Sequence[float]) -> "Rect":
        """A copy shifted by ``offset`` (one value per axis)."""
        return Rect(
            tuple(a + o for a, o in zip(self.lo, offset)),
            tuple(b + o for b, o in zip(self.hi, offset)),
        )

    def scaled(self, factor: float) -> "Rect":
        """A copy scaled about the origin by ``factor`` (> 0)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Rect(
            tuple(a * factor for a in self.lo),
            tuple(b * factor for b in self.hi),
        )

    # ------------------------------------------------------------------
    # The 2d-dimensional corner mapping (paper's R* mapping)
    # ------------------------------------------------------------------

    def corner_point(self) -> tuple[float, ...]:
        """Map to the 2d-dimensional point ``(lo..., hi...)``.

        For d = 2 this is the paper's ``R* = (xmin, ymin, xmax, ymax)``.
        """
        return self.lo + self.hi

    def corner_coord(self, corner_axis: int) -> float:
        """Coordinate of :meth:`corner_point` along one of the 2d axes.

        Axes ``0..d-1`` are the ``lo`` (min) coordinates; axes ``d..2d-1``
        are the ``hi`` (max) coordinates.
        """
        d = len(self.lo)
        if corner_axis < d:
            return self.lo[corner_axis]
        return self.hi[corner_axis - d]

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Rect({self.lo}, {self.hi})"

    def __iter__(self) -> Iterator[tuple[float, ...]]:
        """Iterate ``(lo, hi)`` so ``lo, hi = rect`` unpacking works."""
        yield self.lo
        yield self.hi


def check_dim(shape: Rect | Sequence[float], dim: int) -> None:
    """Raise ``ValueError`` unless ``shape`` (a rectangle or a point)
    has the index's ``dim`` axes — the one check of every read and write
    entry."""
    got = shape.dim if isinstance(shape, Rect) else len(shape)
    if got != dim:
        raise ValueError(f"{got}-d argument against a {dim}-d index")


def point_rect(point: Sequence[float]) -> Rect:
    """A degenerate rectangle covering exactly one point.

    The paper's Theorem 3 and the ``skewed``/``cluster`` datasets consist of
    points; "points and lines are all special rectangles."
    """
    point = tuple(point)
    return Rect(point, point)


def mbr_of(rects: Iterable[Rect]) -> Rect:
    """Minimal bounding box of a non-empty collection of rectangles."""
    it = iter(rects)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("mbr_of() needs at least one rectangle") from None
    lo = list(first.lo)
    hi = list(first.hi)
    for r in it:
        for i, (a, b) in enumerate(zip(r.lo, r.hi)):
            if a < lo[i]:
                lo[i] = a
            if b > hi[i]:
                hi[i] = b
    return Rect(tuple(lo), tuple(hi))
