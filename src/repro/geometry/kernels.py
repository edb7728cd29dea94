"""Vectorized geometry kernels over structure-of-arrays node frames.

PR 7's phase-attributed profiler put the traversal CPU where the ROADMAP
suspected it: per-entry Python ``Rect`` method calls inside ``engine:*``
phases.  This module is the fix — the pyrtree idiom of holding a node's
geometry as two contiguous ``(n, d)`` coordinate arrays (``lo`` rows and
``hi`` rows) and evaluating the *whole node* in one numpy expression,
plus DMR-XPath-style set-at-a-time variants that evaluate a **batch of
query windows against one frame** in a single ``(m, n)`` broadcast.
The write path runs on the same frames: ChooseLeaf, FindLeaf, the
quadratic node split (:func:`quadratic_split`) and the pairwise sibling
overlap of the index-health walk are kernels here too.  So does
construction: the bulk loaders lay a level out as one table
(:func:`batch_windows`), cut nodes out of it (:func:`table_take`) and
box them with :func:`frame_mbr`; ``shard_pack`` gathers leaf frames
back into one (:func:`table_concat`).

Three tiers, one source of truth:

* **Scalar kernels** (``intersects``/``dist_sq_rect``/``enlargement``
  ...) operate on plain ``lo``/``hi`` coordinate tuples.
  :class:`~repro.geometry.rect.Rect` delegates its predicate and
  distance math here, so the scalar and vector paths literally share
  arithmetic and cannot drift apart.
* **Frame kernels** (``frame_*``) evaluate one query against every row
  of a coordinate table at once and return matching row indices (or a
  per-row value array).
* **Batch kernels** (``batch_*``) evaluate ``m`` queries against the
  same table in one broadcast — the compute layout of
  :meth:`~repro.rtree.query.QueryEngine.query_batch`, where co-located
  windows share the pages they land on.

Every kernel has a pure-Python fallback used when numpy is absent (or
disabled with ``REPRO_NO_NUMPY=1``), operating on tuple-of-rows tables;
dispatch is by table type, so frames built under either backend always
evaluate correctly.  Fallback results are **bit-identical** to the numpy
path: both compute the same IEEE-754 operations in the same order (axis
order for sums/products, entry order for scans), which the differential
suite in ``tests/integration/test_vectorized_differential.py`` verifies
against the scalar oracle for every engine.

``coord_table`` is the canonical constructor: it turns a list of
coordinate rows into whichever representation the active backend wants,
and everything downstream (``NodeFrame``, the codec's array decoder)
goes through it.
"""

from __future__ import annotations

import functools
import os
from typing import Iterable, Sequence

from repro.obs.profiler import pop_phase, push_phase

__all__ = [
    "HAVE_NUMPY",
    "BACKEND",
    "np",
    "coord_table",
    "table_len",
    "table_row",
    "table_tuples",
    "table_column",
    "table_concat",
    "table_take",
    "table_append",
    "table_replace",
    "table_delete",
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
    "frame_intersecting",
    "frame_containing_point",
    "frame_contained_in",
    "frame_dist_sq_to_point",
    "frame_dist_sq_to_rect",
    "frame_containing_rect",
    "frame_equal_to",
    "frame_enlargement",
    "frame_areas",
    "frame_margins",
    "frame_overlap_sum",
    "frame_mbr",
    "frame_count_intersecting",
    "frame_pair_mask",
    # batch kernels
    "batch_windows",
    "batch_intersecting",
    # node split
    "quadratic_split",
]

if os.environ.get("REPRO_NO_NUMPY"):
    np = None
else:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
        np = None

#: True when the vectorized backend is active.
HAVE_NUMPY = np is not None
#: Human-readable backend tag, reported in trace span notes and tables.
BACKEND = "numpy" if HAVE_NUMPY else "python"


# ----------------------------------------------------------------------
# Coordinate tables
# ----------------------------------------------------------------------


def coord_table(rows: Sequence[Sequence[float]], dim: int):
    """Build a coordinate table from ``n`` rows of ``dim`` floats.

    Returns a C-contiguous ``(n, dim)`` float64 array under numpy, or a
    tuple of float tuples under the fallback — the two table shapes
    every kernel below dispatches between.
    """
    if HAVE_NUMPY:
        out = np.array(rows, dtype=np.float64)
        return out.reshape(len(rows), dim) if len(rows) else out.reshape(0, dim)
    return tuple(tuple(float(c) for c in row) for row in rows)


def table_len(table) -> int:
    """Number of rows in a coordinate table."""
    return len(table)


def as_coords(coords):
    """One coordinate row in the active backend's preferred form.

    Engines convert a query's ``lo``/``hi`` once per query and hand the
    result to every frame kernel, so the per-node calls skip the
    tuple-to-array conversion under numpy.
    """
    if HAVE_NUMPY:
        return np.asarray(coords, dtype=np.float64)
    return coords


def table_row(table, i: int) -> tuple[float, ...]:
    """Row ``i`` as a tuple of Python floats (for Rect materialization)."""
    if HAVE_NUMPY and isinstance(table, np.ndarray):
        return tuple(table[i].tolist())
    return table[i]


def table_tuples(table) -> Iterable[tuple[float, ...]]:
    """Every row as a tuple of Python floats (one ``tolist``; zipping
    the columns builds the tuples with no list per row in between)."""
    if HAVE_NUMPY and isinstance(table, np.ndarray):
        return zip(*table.T.tolist())
    return table


def table_column(table, k: int) -> list[float]:
    """Column ``k`` as a list of Python floats (the join's sweep keys)."""
    if HAVE_NUMPY and isinstance(table, np.ndarray):
        return table[:, k].tolist()
    return [row[k] for row in table]


def _is_array(table) -> bool:
    return HAVE_NUMPY and isinstance(table, np.ndarray)


# The write path edits a node's tables one row at a time.  Tables are
# never mutated in place — every helper returns a new table — so a frame
# handed to a reader stays valid whatever the owning node does next.


def table_concat(tables: Sequence):
    """A new table: the rows of every table in ``tables``, in order."""
    if _is_array(tables[0]):
        return np.concatenate(tables)
    return tuple(row for table in tables for row in table)


def table_take(table, rows: Sequence[int]):
    """A new table holding rows ``rows`` of ``table``, in that order."""
    if _is_array(table):
        return table[rows]
    return tuple(table[i] for i in rows)


def table_append(table, row: Sequence[float]):
    """A new table: ``table`` plus ``row`` at the end."""
    if _is_array(table):
        # Sized by the row: an empty node's table has no width yet.
        out = np.empty((len(table) + 1, len(row)), dtype=np.float64)
        if len(table):
            out[:-1] = table
        out[-1] = row
        return out
    return table + (tuple(row),)


def table_replace(table, i: int, row: Sequence[float]):
    """A new table: ``table`` with row ``i`` replaced by ``row``."""
    if _is_array(table):
        out = table.copy()
        out[i] = row
        return out
    return table[:i] + (tuple(row),) + table[i + 1 :]


def table_delete(table, i: int):
    """A new table: ``table`` without row ``i``."""
    if _is_array(table):
        out = np.empty((len(table) - 1, table.shape[1]), dtype=np.float64)
        out[:i] = table[:i]
        out[i:] = table[i + 1 :]
        return out
    return table[:i] + table[i + 1 :]


def _kernel_phase(fn):
    """Attribute a kernel's samples to its own ``kernel:<op>`` phase.

    One integer check per call when no profiler is running (the
    vocabulary contract in :data:`repro.obs.profiler.PHASE_VOCABULARY`);
    under an active profiler the kernel shows up as its own self-time
    row nested inside the enclosing ``engine:*`` phase.
    """
    name = "kernel:" + fn.__name__

    def wrapper(*args):
        if not push_phase(name):
            return fn(*args)
        try:
            return fn(*args)
        finally:
            pop_phase()

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


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
    """Every row pair ``i < j`` of an ``(n, n)`` matrix, row-major.

    Returns ``(i, j, flat)``: the two index arrays and the pairs'
    positions in the flattened matrix.
    """
    i, j = np.triu_indices(n, 1)
    return i, j, i * n + j


@_kernel_phase
def frame_intersecting(lo, hi, q_lo, q_hi) -> list[int]:
    """Row indices whose box intersects the query box, ascending."""
    if len(lo) == 0:
        return []
    if _is_array(lo):
        mask = ((hi >= q_lo) & (lo <= q_hi)).all(axis=1)
        return np.nonzero(mask)[0].tolist()
    return [
        i
        for i in range(len(lo))
        if intersects(lo[i], hi[i], q_lo, q_hi)
    ]


@_kernel_phase
def frame_containing_point(lo, hi, point) -> list[int]:
    """Row indices whose box contains ``point`` (stabbing), ascending."""
    if len(lo) == 0:
        return []
    if _is_array(lo):
        p = np.asarray(point, dtype=np.float64)
        mask = ((lo <= p) & (hi >= p)).all(axis=1)
        return np.nonzero(mask)[0].tolist()
    return [
        i for i in range(len(lo)) if contains_point(lo[i], hi[i], point)
    ]


@_kernel_phase
def frame_contained_in(lo, hi, q_lo, q_hi) -> list[int]:
    """Row indices whose box lies entirely inside the query box."""
    if len(lo) == 0:
        return []
    if _is_array(lo):
        mask = ((lo >= q_lo) & (hi <= q_hi)).all(axis=1)
        return np.nonzero(mask)[0].tolist()
    return [
        i
        for i in range(len(lo))
        if contains(q_lo, q_hi, lo[i], hi[i])
    ]


@_kernel_phase
def frame_containing_rect(lo, hi, q_lo, q_hi) -> list[int]:
    """Row indices whose box contains the whole query box (FindLeaf)."""
    if len(lo) == 0:
        return []
    if _is_array(lo):
        mask = ((lo <= q_lo) & (hi >= q_hi)).all(axis=1)
        return np.nonzero(mask)[0].tolist()
    return [
        i
        for i in range(len(lo))
        if contains(lo[i], hi[i], q_lo, q_hi)
    ]


@_kernel_phase
def frame_equal_to(lo, hi, q_lo, q_hi) -> list[int]:
    """Row indices whose box equals the query box, ascending."""
    if len(lo) == 0:
        return []
    if _is_array(lo):
        mask = ((lo == q_lo) & (hi == q_hi)).all(axis=1)
        return np.nonzero(mask)[0].tolist()
    q_lo, q_hi = tuple(q_lo), tuple(q_hi)
    return [
        i for i in range(len(lo)) if lo[i] == q_lo and hi[i] == q_hi
    ]


@_kernel_phase
def frame_count_intersecting(lo, hi, q_lo, q_hi) -> int:
    """Number of rows intersecting the query box (no index list built)."""
    if len(lo) == 0:
        return 0
    if _is_array(lo):
        return int(((hi >= q_lo) & (lo <= q_hi)).all(axis=1).sum())
    n = 0
    for i in range(len(lo)):
        if intersects(lo[i], hi[i], q_lo, q_hi):
            n += 1
    return n


@_kernel_phase
def frame_dist_sq_to_point(lo, hi, point) -> list[float]:
    """Per-row squared MINDIST from ``point`` (kNN expansion order)."""
    if len(lo) == 0:
        return []
    if _is_array(lo):
        p = np.asarray(point, dtype=np.float64)
        below = np.maximum(lo - p, 0.0)
        above = np.maximum(p - hi, 0.0)
        d = below + above  # at most one side is nonzero per axis
        return (d * d).sum(axis=1).tolist()
    return [dist_sq_to_point(lo[i], hi[i], point) for i in range(len(lo))]


@_kernel_phase
def frame_dist_sq_to_rect(lo, hi, q_lo, q_hi) -> list[float]:
    """Per-row squared MINDIST from a query box."""
    if len(lo) == 0:
        return []
    if _is_array(lo):
        ql = np.asarray(q_lo, dtype=np.float64)
        qh = np.asarray(q_hi, dtype=np.float64)
        below = np.maximum(ql - hi, 0.0)
        above = np.maximum(lo - qh, 0.0)
        d = below + above
        return (d * d).sum(axis=1).tolist()
    return [
        dist_sq_to_rect(lo[i], hi[i], q_lo, q_hi) for i in range(len(lo))
    ]


@_kernel_phase
def frame_enlargement(lo, hi, q_lo, q_hi) -> list[float]:
    """Per-row enlargement needed to also cover the query box.

    Vectorizes Guttman's ChooseLeaf criterion over a whole node.
    """
    if len(lo) == 0:
        return []
    if _is_array(lo):
        ql = np.asarray(q_lo, dtype=np.float64)
        qh = np.asarray(q_hi, dtype=np.float64)
        union = _axis_product(np.maximum(hi, qh) - np.minimum(lo, ql))
        return (union - _axis_product(hi - lo)).tolist()
    return [
        enlargement(lo[i], hi[i], q_lo, q_hi) for i in range(len(lo))
    ]


def frame_areas(lo, hi) -> list[float]:
    """Per-row volume (ChooseLeaf's tie-break, the health walk's cover)."""
    if len(lo) == 0:
        return []
    if _is_array(lo):
        return _axis_product(hi - lo).tolist()
    return [area(lo[i], hi[i]) for i in range(len(lo))]


def frame_margins(lo, hi) -> list[float]:
    """Per-row sum of side lengths (half-perimeter in 2-d).

    Each row goes through the builtin ``sum`` under both backends: from
    Python 3.12 on it is compensated, so an array ``sum(axis=1)`` would
    differ from the scalar walk in the last bit for three or more axes.
    """
    if _is_array(lo):
        return [sum(sides) for sides in (hi - lo).tolist()]
    return [
        sum(b - a for a, b in zip(lo[i], hi[i])) for i in range(len(lo))
    ]


@_kernel_phase
def frame_overlap_sum(lo, hi, start: float = 0.0) -> float:
    """``start`` plus the intersection volume of every row pair.

    Pairs ``i < j`` are added one at a time in row-major order — a
    running ``cumsum``, not ``sum``'s pairwise tree — so the total is
    the float the scalar double loop produces.
    """
    n = len(lo)
    if n < 2:
        return start
    if _is_array(lo):
        shared = apart = None
        for k in range(lo.shape[1]):
            inner_hi = np.minimum.outer(hi[:, k], hi[:, k])
            inner_lo = np.maximum.outer(lo[:, k], lo[:, k])
            side = inner_hi - inner_lo
            miss = inner_hi <= inner_lo
            shared = side if shared is None else shared * side
            apart = miss if apart is None else apart | miss
        shared[apart] = 0.0
        terms = shared.ravel().take(_upper_pairs(n)[2])
        return float(np.cumsum(np.concatenate(((start,), terms)))[-1])
    for i in range(n):
        a_lo, a_hi = lo[i], hi[i]
        for j in range(i + 1, n):
            start += intersection_area(a_lo, a_hi, lo[j], hi[j])
    return start


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
    if _is_array(lo):
        return (
            _first_zeros(lo, lo.min(axis=0).tolist()),
            _first_zeros(hi, hi.max(axis=0).tolist()),
        )
    out_lo = list(lo[0])
    out_hi = list(hi[0])
    for i in range(1, len(lo)):
        row_lo, row_hi = lo[i], hi[i]
        for k in range(len(out_lo)):
            if row_lo[k] < out_lo[k]:
                out_lo[k] = row_lo[k]
            if row_hi[k] > out_hi[k]:
                out_hi[k] = row_hi[k]
    return tuple(out_lo), tuple(out_hi)


@_kernel_phase
def frame_pair_mask(a_lo, a_hi, b_lo, b_hi):
    """Full ``(n_a, n_b)`` intersection mask between two tables.

    The spatial join's leaf x leaf (and internal x internal) evaluation:
    one broadcast replaces every per-pair ``Rect.intersects`` call the
    plane sweep would otherwise make.  Returns ``None`` under the
    fallback backend — the sweep then keeps its scalar tests, which is
    cheaper than a Python O(n_a * n_b) mask.
    """
    if _is_array(a_lo) and _is_array(b_lo):
        # (n_a, 1, d) against (1, n_b, d)
        inter = (a_hi[:, None, :] >= b_lo[None, :, :]) & (
            a_lo[:, None, :] <= b_hi[None, :, :]
        )
        return inter.all(axis=2)
    return None


# ----------------------------------------------------------------------
# Batch kernels: m queries x one frame (set-at-a-time evaluation)
# ----------------------------------------------------------------------


def batch_windows(windows, dim: int):
    """Stack ``m`` query rectangles into one ``(Q_lo, Q_hi)`` table pair.

    Accepts anything with ``lo``/``hi`` coordinate tuples (``Rect``
    included).  The result feeds :func:`batch_intersecting` for every
    page the batch traversal touches.
    """
    lo = coord_table([w.lo for w in windows], dim)
    hi = coord_table([w.hi for w in windows], dim)
    return lo, hi


@_kernel_phase
def batch_intersecting(lo, hi, q_lo_table, q_hi_table, active):
    """Evaluate queries ``active`` against every row of one frame.

    Parameters are the frame's tables, the batch's stacked query tables
    (:func:`batch_windows`), and the list of active query indices at
    this node.  Returns ``{query index: [row indices]}`` containing only
    queries that matched at least one row — one broadcast per page
    instead of ``len(active)`` separate scans.
    """
    if len(lo) == 0:
        return {}
    if len(active) == 1:
        # Deep in the traversal most nodes serve a single remaining
        # query; the (m, n, d) broadcast machinery costs more than the
        # plain frame scan it degenerates to.
        q = active[0]
        matched = frame_intersecting(
            lo, hi, table_row(q_lo_table, q), table_row(q_hi_table, q)
        )
        return {q: matched} if matched else {}
    if _is_array(lo) and _is_array(q_lo_table):
        ql = q_lo_table[active]  # (m, d)
        qh = q_hi_table[active]
        # (m, 1, d) against (1, n, d) -> (m, n)
        mask = (ql[:, None, :] <= hi[None, :, :]) & (
            qh[:, None, :] >= lo[None, :, :]
        )
        mask = mask.all(axis=2)
        out: dict[int, list[int]] = {}
        rows, cols = np.nonzero(mask)
        for r, c in zip(rows.tolist(), cols.tolist()):
            out.setdefault(active[r], []).append(c)
        return out
    out = {}
    for q in active:
        matched = frame_intersecting(lo, hi, q_lo_table[q], q_hi_table[q])
        if matched:
            out[q] = matched
    return out


# ----------------------------------------------------------------------
# Node split: Guttman's quadratic algorithm on one frame
# ----------------------------------------------------------------------


@_kernel_phase
def quadratic_split(lo, hi, min_fill: int) -> tuple[list[int], list[int]]:
    """Guttman's quadratic split of one overfull node's rows.

    Returns the two groups as row-index lists: each starts with its
    seed and continues in the order PickNext assigned rows to it.
    Raises ``ValueError`` unless ``1 <= min_fill`` and
    ``2 * min_fill <= n``.

    * **PickSeeds** — the pair wasting the most volume together,
      ``union(i, j) - area(i) - area(j)``; the first such pair in
      row-major order wins ties.  Under numpy that is one pairwise
      ``maximum``/``minimum`` union-volume evaluation over all ``i < j``.
    * **PickNext** — the unassigned row with the largest difference
      between its two group enlargements (first such row on ties) goes
      to the group it enlarges less (ties: smaller group volume, then
      fewer rows, then the first group).  Each group's enlargement
      column is cached and recomputed only when that group's box grew.
    * A group that needs every remaining row to reach ``min_fill``
      takes them all, in row order.

    Both backends run the same IEEE-754 operations in the same order,
    so they return identical groups.
    """
    n = len(lo)
    if n < 2:
        raise ValueError("cannot split fewer than 2 entries")
    if min_fill < 1 or 2 * min_fill > n:
        raise ValueError(f"min_fill {min_fill} infeasible for {n} entries")
    if _is_array(lo):
        return _quadratic_split_arrays(lo, hi, min_fill)
    return _quadratic_split_rows(lo, hi, min_fill)


def _quadratic_split_arrays(lo, hi, min_fill: int):
    n, dim = lo.shape
    areas = _axis_product(hi - lo)
    union = None
    for k in range(dim):
        side = np.maximum.outer(hi[:, k], hi[:, k]) - np.minimum.outer(
            lo[:, k], lo[:, k]
        )
        union = side if union is None else union * side
    waste = union - areas[:, None] - areas[None, :]
    i, j, flat = _upper_pairs(n)
    worst = int(waste.ravel().take(flat).argmax())
    seeds = [int(i[worst]), int(j[worst])]

    groups = ([seeds[0]], [seeds[1]])
    # Group boxes live twice: as arrays for the column arithmetic and as
    # float lists for the cheap per-axis "did it grow" test.
    box_lo = [lo[seed].copy() for seed in seeds]
    box_hi = [hi[seed].copy() for seed in seeds]
    rows_lo = lo.tolist()
    rows_hi = hi.tolist()
    side_lo = [rows_lo[seed][:] for seed in seeds]
    side_hi = [rows_hi[seed][:] for seed in seeds]
    box_area = [float(areas[seed]) for seed in seeds]

    def growth(g: int):
        union = _axis_product(
            np.maximum(hi, box_hi[g]) - np.minimum(lo, box_lo[g])
        )
        return union - box_area[g]

    enl = [growth(0), growth(1)]
    # Assigned rows stay in the columns; a preference of -1 keeps them
    # out of argmax (every live one is >= 0).  The preference column
    # only changes when a group's box grew.
    assigned = np.zeros(n, dtype=bool)
    assigned[seeds] = True
    prefer = np.abs(enl[0] - enl[1])
    prefer[seeds] = -1.0
    left = n - 2

    while left:
        for g in (0, 1):
            if len(groups[g]) + left <= min_fill:
                groups[g].extend(np.nonzero(~assigned)[0].tolist())
                return groups
        k = int(prefer.argmax())
        prefer[k] = -1.0
        assigned[k] = True
        left -= 1
        grow_a = enl[0][k].item()
        grow_b = enl[1][k].item()
        if grow_a != grow_b:
            g = 0 if grow_a < grow_b else 1
        elif box_area[0] != box_area[1]:
            g = 0 if box_area[0] < box_area[1] else 1
        else:
            g = 0 if len(groups[0]) <= len(groups[1]) else 1
        groups[g].append(k)
        grew = False
        for axis in range(dim):
            if rows_lo[k][axis] < side_lo[g][axis]:
                side_lo[g][axis] = box_lo[g][axis] = rows_lo[k][axis]
                grew = True
            if rows_hi[k][axis] > side_hi[g][axis]:
                side_hi[g][axis] = box_hi[g][axis] = rows_hi[k][axis]
                grew = True
        if grew and left:
            box_area[g] = area(side_lo[g], side_hi[g])
            enl[g] = growth(g)
            np.subtract(enl[0], enl[1], out=prefer)
            np.abs(prefer, out=prefer)
            prefer[assigned] = -1.0
    return groups


def _quadratic_split_rows(los, his, min_fill: int):
    n = len(los)
    areas = [area(los[k], his[k]) for k in range(n)]

    def union_area(box_lo, box_hi, k: int) -> float:
        acc = 1.0
        for a, b, c, d in zip(box_lo, box_hi, los[k], his[k]):
            acc *= (b if b >= d else d) - (a if a <= c else c)
        return acc

    # PickSeeds: the most wasteful pair.
    worst = float("-inf")
    seeds = (0, 1)
    for i in range(n):
        lo_i, hi_i, area_i = los[i], his[i], areas[i]
        for j in range(i + 1, n):
            waste = union_area(lo_i, hi_i, j) - area_i - areas[j]
            if waste > worst:
                worst = waste
                seeds = (i, j)

    groups = ([seeds[0]], [seeds[1]])
    box_lo = [los[seed] for seed in seeds]
    box_hi = [his[seed] for seed in seeds]
    box_area = [areas[seed] for seed in seeds]
    remaining = [k for k in range(n) if k not in seeds]
    # Enlargements are cached per group box and only recomputed when
    # that box actually grew — cached values are bit-identical to fresh
    # ones, so PickNext's choices cannot drift.
    enl = [
        {k: union_area(box_lo[g], box_hi[g], k) - box_area[g] for k in remaining}
        for g in (0, 1)
    ]

    while remaining:
        # If one group must absorb everything to reach min_fill, do so.
        for g in (0, 1):
            if len(groups[g]) + len(remaining) <= min_fill:
                groups[g].extend(remaining)
                return groups
        # PickNext: strongest preference first.
        best_pos = 0
        best_diff = -1.0
        for pos, k in enumerate(remaining):
            diff = abs(enl[0][k] - enl[1][k])
            if diff > best_diff:
                best_diff = diff
                best_pos = pos
        k = remaining.pop(best_pos)
        grow_a = enl[0].pop(k)
        grow_b = enl[1].pop(k)
        if grow_a != grow_b:
            g = 0 if grow_a < grow_b else 1
        elif box_area[0] != box_area[1]:
            g = 0 if box_area[0] < box_area[1] else 1
        else:
            g = 0 if len(groups[0]) <= len(groups[1]) else 1
        groups[g].append(k)
        new_lo = tuple(a if a <= c else c for a, c in zip(box_lo[g], los[k]))
        new_hi = tuple(b if b >= d else d for b, d in zip(box_hi[g], his[k]))
        if new_lo != box_lo[g] or new_hi != box_hi[g]:
            box_lo[g], box_hi[g] = new_lo, new_hi
            box_area[g] = area(new_lo, new_hi)
            for kk in remaining:
                enl[g][kk] = union_area(new_lo, new_hi, kk) - box_area[g]
    return groups
