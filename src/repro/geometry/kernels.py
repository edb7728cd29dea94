"""Vectorized geometry kernels over a node's box table.

Traversal CPU went to per-entry Python ``Rect`` method calls.  This
module is the fix: a node's geometry is held as one ``(2d, n)`` float64
*box table* and the *whole node* is evaluated in one numpy expression.
Its rows are the paper's 2d-dimensional corner mapping of each
rectangle with the max half negated, ``lo_0 .. lo_{d-1}, -hi_0 ..
-hi_{d-1}`` (:func:`box_table`), so every containment test is one
dominance test: a box meets window Q exactly when ``[lo; -hi] <=
[Q.hi; -Q.lo]`` on every row.  Each query builds its ``(2d, 1)`` bound
once (:func:`box_bound`, :func:`meet_bound`), and :func:`frame_rows` is
one broadcast compare and one ``logical_and.reduce`` over the 2d rows,
in any dimension:

=====================  ====================  ======
rows of the table      bound                 test
=====================  ====================  ======
meeting window Q       ``meet_bound(Q)``     ``LE``
containing point p     ``meet_bound(p, p)``  ``LE``
contained in Q         ``box_bound(Q)``      ``GE``
containing Q           ``box_bound(Q)``      ``LE``
equal to Q             ``box_bound(Q)``      ``EQ``
=====================  ====================  ======

Negation is a sign-bit flip, so a box round-trips every coordinate
exactly (±0.0, subnormals, ±inf, NaN payloads).  The write path and the
index-health walk read the derived ``(n, d)`` ``lo``/``hi`` tables
instead: ChooseLeaf, the quadratic node split (:func:`quadratic_split`),
areas, margins and the pairwise sibling overlap are kernels on those.

Two tiers, one source of truth:

* **Scalar kernels** (``intersects``/``dist_sq_rect``/``enlargement``
  ...) operate on plain ``lo``/``hi`` coordinate tuples.
  :class:`~repro.geometry.rect.Rect` delegates its predicate and
  distance math here, so the scalar and vector paths literally share
  arithmetic and cannot drift apart.
* **Frame kernels** (``frame_*``) evaluate one query against every row
  of a table at once and return the matching row indices as one
  ascending index array (or a per-row value array) — an array, so a
  query gathers its rows' pointers with one index and no Python list.

numpy is the only backend.  Frame results are
**bit-identical** to the scalar kernels: both compute the same IEEE-754
operations in the same order (axis order for sums/products, entry order
for scans).  ``tests/unit/test_kernels.py`` checks every frame kernel
row by row against its scalar twin and against the ``(lo, hi)`` kernels
the box replaced, and the differential suite in
``tests/integration/test_vectorized_differential.py`` checks every
engine against verbatim scalar oracles.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "np",
    "coord_table",
    "table_tuples",
    "box_table",
    "box_of",
    "box_bound",
    "meet_bound",
    "LE",
    "GE",
    "EQ",
    # scalar kernels
    "intersects",
    "contains",
    "contains_point",
    "dist_sq_to_point",
    "dist_sq_to_rect",
    "area",
    "enlargement",
    "intersection_area",
    # frame kernels
    "frame_rows",
    "frame_count",
    "frame_intersecting",
    "frame_dist_sq_to_point",
    "frame_nearest_run",
    "frame_least_enlargement",
    "frame_areas",
    "frame_margins",
    "frame_overlap_sum",
    "frame_mbr",
    "frame_pair_mask",
    # node split
    "quadratic_split",
]

# numpy is the only backend; both constants stay only because
# ``bench/stack.py`` still reads them.
HAVE_NUMPY = True
BACKEND = "numpy"


# ----------------------------------------------------------------------
# Coordinate and box tables
# ----------------------------------------------------------------------


def coord_table(rows: Sequence[Sequence[float]], dim: int):
    """Build a C-contiguous ``(n, dim)`` float64 table from ``n`` rows of
    ``dim`` floats."""
    return np.array(rows, dtype=np.float64).reshape(len(rows), dim)


def as_coords(coords):
    """One coordinate row as a float64 array."""
    return np.asarray(coords, dtype=np.float64)


def table_tuples(table) -> Iterable[tuple[float, ...]]:
    """Every row of an ``(n, d)`` table as a tuple of Python floats (one
    ``tolist``; zipping the columns builds the tuples with no list per
    row in between)."""
    return zip(*table.T.tolist())


def box_table(rows: Sequence[Sequence[float]], dim: int):
    """A C-contiguous ``(2 * dim, n)`` box table from ``n`` rows
    ``lo + hi`` of ``2 * dim`` floats: row ``k`` holds ``lo_k`` and row
    ``dim + k`` holds ``-hi_k``."""
    box = np.array(rows, dtype=np.float64).reshape(len(rows), 2 * dim).T.copy()
    np.negative(box[dim:], out=box[dim:])
    return box


def box_of(lo, hi):
    """The box table of two ``(n, d)`` coordinate tables."""
    return np.concatenate((lo.T, np.negative(hi.T)))


def _column(first, second):
    return np.array([*first, *[-c for c in second]], dtype=np.float64)[:, None]


def box_bound(lo, hi):
    """Box ``(lo, hi)`` as a ``(2d, 1)`` column ``[lo; -hi]``: a row
    contains it where the box table is ``LE``, lies inside it where
    ``GE``, equals it where ``EQ``."""
    return _column(lo, hi)


def meet_bound(lo, hi):
    """``[hi; -lo]``: a row meets box ``(lo, hi)`` (boundary contact
    counts) where the box table is ``LE`` this column; a point ``p`` is
    the box ``(p, p)``."""
    return _column(hi, lo)


# ----------------------------------------------------------------------
# Scalar kernels (the single source of the geometric arithmetic)
# ----------------------------------------------------------------------


def intersects(a_lo, a_hi, b_lo, b_hi) -> bool:
    """Closed-box intersection (boundary contact counts)."""
    for al, ah, bl, bh in zip(a_lo, a_hi, b_lo, b_hi):
        if ah < bl or bh < al:
            return False
    return True


def contains(a_lo, a_hi, b_lo, b_hi) -> bool:
    """True when box ``b`` lies entirely inside box ``a``."""
    for al, ah, bl, bh in zip(a_lo, a_hi, b_lo, b_hi):
        if bl < al or bh > ah:
            return False
    return True


def contains_point(lo, hi, point) -> bool:
    """True when ``point`` lies inside or on the boundary of the box."""
    for a, b, p in zip(lo, hi, point):
        if p < a or p > b:
            return False
    return True


def dist_sq_to_point(lo, hi, point) -> float:
    """Squared Euclidean distance from ``point`` to the box (0 inside)."""
    acc = 0.0
    for a, b, p in zip(lo, hi, point):
        if p < a:
            d = a - p
            acc += d * d
        elif p > b:
            d = p - b
            acc += d * d
    return acc


def dist_sq_to_rect(a_lo, a_hi, b_lo, b_hi) -> float:
    """Squared distance between the closest points of two boxes."""
    acc = 0.0
    for al, ah, bl, bh in zip(a_lo, a_hi, b_lo, b_hi):
        if ah < bl:
            d = bl - ah
            acc += d * d
        elif bh < al:
            d = al - bh
            acc += d * d
    return acc


def area(lo, hi) -> float:
    """d-dimensional volume of a box."""
    out = 1.0
    for a, b in zip(lo, hi):
        out *= b - a
    return out


def enlargement(a_lo, a_hi, b_lo, b_hi) -> float:
    """Area increase of box ``a`` needed to also cover box ``b``.

    Guttman's insertion criterion, computed exactly like the historical
    ``Rect.union(other).area() - self.area()`` (same operation order).
    """
    union = 1.0
    for al, ah, bl, bh in zip(a_lo, a_hi, b_lo, b_hi):
        union *= max(ah, bh) - min(al, bl)
    return union - area(a_lo, a_hi)


def intersection_area(a_lo, a_hi, b_lo, b_hi) -> float:
    """Volume shared by two boxes (0.0 when they only touch or miss)."""
    out = 1.0
    for al, ah, bl, bh in zip(a_lo, a_hi, b_lo, b_hi):
        lo = al if al > bl else bl
        hi = ah if ah < bh else bh
        if hi <= lo:
            return 0.0
        out *= hi - lo
    return out


# ----------------------------------------------------------------------
# Frame kernels: one query x every row of a coordinate table
# ----------------------------------------------------------------------


def _axis_product(sides):
    """Product over the last axis, multiplied left to right.

    The scalar kernels fold ``out *= side`` axis by axis starting from
    1.0; spelling the same chain out (instead of ``prod``'s unspecified
    reduction order) is what keeps areas bit-identical in any dimension.
    """
    out = sides[..., 0]
    for k in range(1, sides.shape[-1]):
        out = out * sides[..., k]
    return out


@functools.lru_cache(maxsize=32)
def _upper_pairs(n: int):
    """Flat positions of every pair ``i < j`` of an ``(n, n)`` matrix,
    row-major."""
    i, j = np.triu_indices(n, 1)
    return i * n + j


LE, GE, EQ = np.less_equal, np.greater_equal, np.equal

#: What a row kernel reports for an empty table.
NO_ROWS = np.empty(0, dtype=np.intp)
NO_ROWS.flags.writeable = False


def frame_rows(test, box, bound):
    """Rows of a box table where ``test(box, bound)`` holds on all 2d
    rows, ascending: one compare, one fold over axis 0."""
    if not box.size:
        return NO_ROWS
    return np.logical_and.reduce(test(box, bound), axis=0).nonzero()[0]


def frame_count(test, box, bound) -> int:
    """How many rows :func:`frame_rows` keeps (no index array built)."""
    if not box.size:
        return 0
    return int(np.count_nonzero(np.logical_and.reduce(test(box, bound), axis=0)))


def frame_intersecting(lo, hi, q_lo, q_hi):
    """:func:`frame_rows` meeting a query box, for a caller holding two
    ``(n, d)`` coordinate tables instead of a box table."""
    return frame_rows(LE, box_of(lo, hi), meet_bound(q_lo, q_hi))


def _dist_sq(box, reach):
    """Per-row squared MINDIST to the box whose :func:`meet_bound` is
    ``reach``: of each axis's two gaps at most one is positive, and the
    squares are summed axis by axis, as the scalar kernels do."""
    gap = np.subtract(box, reach)
    np.maximum(gap, 0.0, out=gap)
    half = len(box) // 2
    side = np.add(gap[:half], gap[half:])
    np.multiply(side, side, out=side)
    return np.add.reduce(side, axis=0)


def frame_dist_sq_to_point(lo, hi, point) -> list[float]:
    """Per-row squared MINDIST from ``point`` over two ``(n, d)``
    coordinate tables (the kNN engine's arithmetic)."""
    if len(lo) == 0:
        return []
    return _dist_sq(box_of(lo, hi), meet_bound(point, point)).tolist()


def frame_nearest_run(box, reach) -> tuple[list[float], list[int]]:
    """Rows by squared MINDIST from the box whose :func:`meet_bound` is
    ``reach``, ties in row order: the sorted distances and the row order
    (one stable argsort).  A node's run on the kNN heap."""
    if not box.size:
        return [], []
    dist = _dist_sq(box, reach)
    order = dist.argsort(kind="stable")
    return dist[order].tolist(), order.tolist()


def frame_least_enlargement(lo, hi, q_lo, q_hi) -> int:
    """Guttman's ChooseLeaf over a whole node: the row to descend into.

    The row whose box grows least to also cover the query box; ties go
    to the smaller box, then to the first row.  Raises ``ValueError`` on
    an empty frame.
    """
    if len(lo) == 0:
        raise ValueError("empty frame has no row to choose")
    areas = _axis_product(hi - lo)
    growth = _axis_product(np.maximum(hi, q_hi) - np.minimum(lo, q_lo))
    growth -= areas
    best = int(growth.argmin())
    ties = growth == growth[best]
    if np.count_nonzero(ties) == 1:
        return best
    rows = np.flatnonzero(ties)
    return int(rows[areas[rows].argmin()])


def frame_areas(lo, hi) -> list[float]:
    """Per-row volume (ChooseLeaf's tie-break, the health walk's cover)."""
    if len(lo) == 0:
        return []
    return _axis_product(hi - lo).tolist()


def frame_margins(lo, hi) -> list[float]:
    """Per-row sum of side lengths (half-perimeter in 2-d).

    Each row goes through the builtin ``sum``: from Python 3.12 on it is
    compensated, so an array ``sum(axis=1)`` would differ from the
    scalar walk in the last bit for three or more axes.
    """
    return [sum(sides) for sides in (hi - lo).tolist()]


def frame_overlap_sum(lo, hi, start: float = 0.0) -> float:
    """``start`` plus the intersection volume of every row pair.

    Pairs ``i < j`` are added one at a time in row-major order — a
    running ``cumsum``, not ``sum``'s pairwise tree — so the total is
    the float the scalar double loop produces.
    """
    n = len(lo)
    if n < 2:
        return start
    shared = apart = None
    for k in range(lo.shape[1]):
        inner_hi = np.minimum.outer(hi[:, k], hi[:, k])
        inner_lo = np.maximum.outer(lo[:, k], lo[:, k])
        side = inner_hi - inner_lo
        miss = inner_hi <= inner_lo
        shared = side if shared is None else shared * side
        apart = miss if apart is None else apart | miss
    shared[apart] = 0.0
    terms = shared.ravel().take(_upper_pairs(n))
    return float(np.cumsum(np.concatenate(((start,), terms)))[-1])


def _first_zeros(table, bound: list[float]) -> tuple[float, ...]:
    """``bound`` with every zero given the sign of its column's first zero.

    ``-0.0 == 0.0``, so an array ``min``/``max`` may return either; the
    scalar scan keeps the first row that reached the bound.  The column
    is searched as a list: ``argmax`` and friends drop the GIL whatever
    the size, and a root box is taken per request and shard — with other
    threads waiting that is a context switch each time.
    """
    for k, value in enumerate(bound):
        if value == 0.0:
            column = table[:, k].tolist()
            bound[k] = column[column.index(0.0)]
    return tuple(bound)


def frame_mbr(lo, hi) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Tight bounding box of every row: ``(lo, hi)`` coordinate tuples.

    Among equal coordinates the first row's wins (it matters only for
    the sign of a zero), as in :func:`repro.geometry.rect.mbr_of`.
    """
    if len(lo) == 0:
        raise ValueError("empty frame has no bounding box")
    return (
        _first_zeros(lo, lo.min(axis=0).tolist()),
        _first_zeros(hi, hi.max(axis=0).tolist()),
    )


def frame_pair_mask(a_box, b_box):
    """Full ``(n_a, n_b)`` intersection mask between two box tables.

    The spatial join's leaf x leaf (and internal x internal) evaluation:
    one broadcast makes every per-pair ``Rect.intersects`` test, and the
    join takes its pairs from the mask's ``nonzero``.  Column ``j`` of
    ``reach`` is the :func:`meet_bound` of ``b_box``'s column ``j``.
    """
    half = len(b_box) // 2
    reach = np.negative(np.concatenate((b_box[half:], b_box[:half])))
    return np.logical_and.reduce(a_box[:, :, None] <= reach[:, None, :], axis=0)


# ----------------------------------------------------------------------
# Node split: Guttman's quadratic algorithm on one frame
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _upper_mask(n: int):
    """``(n, n)``: 0.0 above the diagonal, ``-inf`` on and below it.

    Added to a pair matrix it keeps every pair ``i < j`` as it was
    (``x + 0.0 == x``) and sinks the rest, so one ``argmax`` over the
    whole matrix is the first maximum over ``i < j`` in row-major order.
    """
    rows = np.arange(n)
    mask = np.where(rows[:, None] < rows, 0.0, -np.inf)
    mask.setflags(write=False)
    return mask


def quadratic_split(lo, hi, min_fill: int) -> tuple[list[int], list[int]]:
    """Guttman's quadratic split of one overfull node's rows.

    Returns the two groups as row-index lists: each starts with its
    seed and continues in the order PickNext assigned rows to it.
    Raises ``ValueError`` unless ``1 <= min_fill`` and
    ``2 * min_fill <= n``.

    * **PickSeeds** — the pair wasting the most volume together,
      ``union(i, j) - area(i) - area(j)``; the first such pair in
      row-major order wins ties: the waste of every pair is built in
      one ``(n, n)`` matrix, the pairs ``i >= j`` are sunk to ``-inf``
      and one ``argmax`` picks the seeds.
    * **PickNext** — the unassigned row with the largest difference
      between its two group enlargements (first such row on ties) goes
      to the group it enlarges less (ties: smaller group volume, then
      fewer rows, then the first group).  Each group keeps one column
      per axis of every row's extent once the group's box covers it;
      when the box grows, only the axes whose side moved are
      recomputed, then the enlargement column.  Assigned rows are kept
      out of the ``argmax`` by subtracting a dead column (``+inf`` on
      them, 0.0 elsewhere).
    * A group that needs every remaining row to reach ``min_fill``
      takes them all, in row order.

    The arithmetic is the scalar kernels' IEEE-754 operations in the
    same order, so the groups equal a row-at-a-time implementation's.
    """
    n = len(lo)
    if n < 2:
        raise ValueError("cannot split fewer than 2 entries")
    if min_fill < 1 or 2 * min_fill > n:
        raise ValueError(f"min_fill {min_fill} infeasible for {n} entries")
    dim = lo.shape[1]
    lo_cols = [lo[:, k].copy() for k in range(dim)]
    hi_cols = [hi[:, k].copy() for k in range(dim)]
    areas = _axis_product(hi - lo)

    waste = None
    for k in range(dim):
        side = np.maximum.outer(hi_cols[k], hi_cols[k])
        side -= np.minimum.outer(lo_cols[k], lo_cols[k])
        waste = side if waste is None else np.multiply(waste, side, out=waste)
    waste -= areas[:, None]
    waste -= areas
    waste += _upper_mask(n)
    seeds = divmod(int(waste.argmax()), n)

    groups = ([seeds[0]], [seeds[1]])
    rows_lo = lo.tolist()
    rows_hi = hi.tolist()
    box_lo = [rows_lo[seed][:] for seed in seeds]
    box_hi = [rows_hi[seed][:] for seed in seeds]
    box_area = [areas.item(seed) for seed in seeds]
    # Per group g and axis k, every row's high and low side once the
    # group's box covers it, and their difference, the row's extent.
    top = [[np.maximum(c, b) for c, b in zip(hi_cols, box)] for box in box_hi]
    bottom = [
        [np.minimum(c, b) for c, b in zip(lo_cols, box)] for box in box_lo
    ]
    extent = [[t - b for t, b in zip(top[g], bottom[g])] for g in (0, 1)]
    # Zeros, not garbage: the first regrow's preference column is read
    # (and replaced by the second) before group 1's column exists.
    enl = [np.zeros(n), np.zeros(n)]
    dead = np.zeros(n)
    dead[list(seeds)] = np.inf
    prefer = np.empty(n)

    def regrow(g: int) -> None:
        """Group ``g``'s enlargement column, then the preference column."""
        union = extent[g][0]
        for k in range(1, dim):
            union = np.multiply(union, extent[g][k], out=enl[g])
        np.subtract(union, box_area[g], out=enl[g])
        np.subtract(enl[0], enl[1], out=prefer)
        np.abs(prefer, out=prefer)
        np.subtract(prefer, dead, out=prefer)

    regrow(0)
    regrow(1)
    left = n - 2
    while left:
        for g in (0, 1):
            if len(groups[g]) + left <= min_fill:
                groups[g].extend(np.flatnonzero(dead == 0.0).tolist())
                return groups
        k = int(prefer.argmax())
        dead[k] = np.inf
        prefer[k] = -np.inf
        left -= 1
        grow_a = enl[0].item(k)
        grow_b = enl[1].item(k)
        if grow_a != grow_b:
            g = 0 if grow_a < grow_b else 1
        elif box_area[0] != box_area[1]:
            g = 0 if box_area[0] < box_area[1] else 1
        else:
            g = 0 if len(groups[0]) <= len(groups[1]) else 1
        groups[g].append(k)
        if not left:
            break
        # Only a side that moved is recomputed, and only its axis.
        g_lo, g_hi = box_lo[g], box_hi[g]
        grew = False
        for axis, (row_lo, row_hi) in enumerate(zip(rows_lo[k], rows_hi[k])):
            moved = False
            if row_lo < g_lo[axis]:
                g_lo[axis] = row_lo
                np.minimum(lo_cols[axis], row_lo, out=bottom[g][axis])
                moved = True
            if row_hi > g_hi[axis]:
                g_hi[axis] = row_hi
                np.maximum(hi_cols[axis], row_hi, out=top[g][axis])
                moved = True
            if moved:
                np.subtract(top[g][axis], bottom[g][axis], out=extent[g][axis])
                grew = True
        if grew:
            box_area[g] = area(g_lo, g_hi)
            regrow(g)
    return groups
