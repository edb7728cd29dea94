"""Vectorized geometry kernels over structure-of-arrays node frames.

PR 7's phase-attributed profiler put the traversal CPU where the ROADMAP
suspected it: per-entry Python ``Rect`` method calls inside ``engine:*``
phases.  This module is the fix — the pyrtree idiom of holding a node's
geometry as two contiguous ``(n, d)`` coordinate arrays (``lo`` rows and
``hi`` rows) and evaluating the *whole node* in one numpy expression,
plus DMR-XPath-style set-at-a-time variants that evaluate a **batch of
query windows against one frame** in a single ``(m, n)`` broadcast.

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
  same table in one broadcast — the compute layout matching the query
  server's Hilbert locality reordering, which already lands co-located
  windows on the same pages.

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
    "table_rows",
    "table_column",
    # scalar kernels
    "intersects",
    "contains",
    "contains_point",
    "dist_sq_to_point",
    "dist_sq_to_rect",
    "area",
    "enlargement",
    # frame kernels
    "frame_intersecting",
    "frame_containing_point",
    "frame_contained_in",
    "frame_dist_sq_to_point",
    "frame_dist_sq_to_rect",
    "frame_enlargement",
    "frame_mbr",
    "frame_count_intersecting",
    "frame_pair_mask",
    # batch kernels
    "batch_windows",
    "batch_intersecting",
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


def table_rows(table, rows: Sequence[int]) -> Iterable[tuple[float, ...]]:
    """Rows ``rows`` as tuples of Python floats, in one gather."""
    if HAVE_NUMPY and isinstance(table, np.ndarray):
        return map(tuple, table[rows].tolist())
    return [table[i] for i in rows]


def table_column(table, k: int) -> list[float]:
    """Column ``k`` as a list of Python floats (the join's sweep keys)."""
    if HAVE_NUMPY and isinstance(table, np.ndarray):
        return table[:, k].tolist()
    return [row[k] for row in table]


def _is_array(table) -> bool:
    return HAVE_NUMPY and isinstance(table, np.ndarray)


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


# ----------------------------------------------------------------------
# Frame kernels: one query x every row of a coordinate table
# ----------------------------------------------------------------------


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
        union = (np.maximum(hi, qh) - np.minimum(lo, ql)).prod(axis=1)
        return (union - (hi - lo).prod(axis=1)).tolist()
    return [
        enlargement(lo[i], hi[i], q_lo, q_hi) for i in range(len(lo))
    ]


def frame_mbr(lo, hi) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Tight bounding box of every row: ``(lo, hi)`` coordinate tuples."""
    if len(lo) == 0:
        raise ValueError("empty frame has no bounding box")
    if _is_array(lo):
        return tuple(lo.min(axis=0).tolist()), tuple(hi.max(axis=0).tolist())
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
