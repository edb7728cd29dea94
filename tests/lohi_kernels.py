"""The ``(lo, hi)`` row kernels the box table replaced, kept verbatim.

Before a node's geometry became one ``(2d, n)`` box table
(:mod:`repro.geometry.kernels`), every containment and MINDIST kernel
read two ``(n, d)`` coordinate tables.  These are those kernels as they
were: the oracle the box kernels are tested against
(``tests/unit/test_kernels.py``) and the kernels of the pre-change
engines in ``tests/dfs_oracle.py`` and the differential suites.
"""

import numpy as np


def _axes_mask(lo_test, lo, lo_bound, hi_test, hi, hi_bound):
    """``(lo_test(lo, lo_bound) & hi_test(hi, hi_bound)).all(axis=1)``,
    ANDed one axis at a time: cheaper on the few rows of a node or span."""
    mask = lo_test(lo[:, 0], lo_bound[0]) & hi_test(hi[:, 0], hi_bound[0])
    for k in range(1, lo.shape[1]):
        mask &= lo_test(lo[:, k], lo_bound[k])
        mask &= hi_test(hi[:, k], hi_bound[k])
    return mask


_LE, _GE, _EQ = np.less_equal, np.greater_equal, np.equal

#: What a row kernel reports for an empty table.
NO_ROWS = np.empty(0, dtype=np.intp)
NO_ROWS.flags.writeable = False


def frame_intersecting(lo, hi, q_lo, q_hi):
    """Row indices whose box intersects the query box, ascending."""
    if len(lo) == 0:
        return NO_ROWS
    return _axes_mask(_LE, lo, q_hi, _GE, hi, q_lo).nonzero()[0]


def frame_containing_point(lo, hi, point):
    """Row indices whose box contains ``point`` (stabbing), ascending."""
    if len(lo) == 0:
        return NO_ROWS
    return _axes_mask(_LE, lo, point, _GE, hi, point).nonzero()[0]


def frame_contained_in(lo, hi, q_lo, q_hi):
    """Row indices whose box lies entirely inside the query box."""
    if len(lo) == 0:
        return NO_ROWS
    return _axes_mask(_GE, lo, q_lo, _LE, hi, q_hi).nonzero()[0]


def frame_containing_rect(lo, hi, q_lo, q_hi):
    """Row indices whose box contains the whole query box (FindLeaf)."""
    if len(lo) == 0:
        return NO_ROWS
    return _axes_mask(_LE, lo, q_lo, _GE, hi, q_hi).nonzero()[0]


def frame_equal_to(lo, hi, q_lo, q_hi):
    """Row indices whose box equals the query box, ascending."""
    if len(lo) == 0:
        return NO_ROWS
    return _axes_mask(_EQ, lo, q_lo, _EQ, hi, q_hi).nonzero()[0]


def frame_count_intersecting(lo, hi, q_lo, q_hi) -> int:
    """Number of rows intersecting the query box (no index list built)."""
    if len(lo) == 0:
        return 0
    return int(np.count_nonzero(_axes_mask(_LE, lo, q_hi, _GE, hi, q_lo)))


def frame_dist_sq_to_point(lo, hi, point) -> list[float]:
    """Per-row squared MINDIST from ``point`` (kNN expansion order)."""
    if len(lo) == 0:
        return []
    p = np.asarray(point, dtype=np.float64)
    below = np.maximum(lo - p, 0.0)
    above = np.maximum(p - hi, 0.0)
    d = below + above  # at most one side is nonzero per axis
    return (d * d).sum(axis=1).tolist()


def _dist_sq_to_rect(lo, hi, q_lo, q_hi):
    below = np.maximum(q_lo - hi, 0.0)
    above = np.maximum(lo - q_hi, 0.0)
    d = below + above
    return (d * d).sum(axis=1)


def frame_dist_sq_to_rect(lo, hi, q_lo, q_hi) -> list[float]:
    """Per-row squared MINDIST from a query box."""
    if len(lo) == 0:
        return []
    ql = np.asarray(q_lo, dtype=np.float64)
    qh = np.asarray(q_hi, dtype=np.float64)
    return _dist_sq_to_rect(lo, hi, ql, qh).tolist()


def frame_nearest_run(lo, hi, q_lo, q_hi) -> tuple[list[float], list[int]]:
    """Rows by squared MINDIST from a query box, ties in row order: the
    sorted distances and the row order (one stable argsort; a point is
    the box ``q_lo == q_hi``).  A node's run on the kNN heap."""
    if len(lo) == 0:
        return [], []
    dist = _dist_sq_to_rect(lo, hi, q_lo, q_hi)
    order = dist.argsort(kind="stable")
    return dist[order].tolist(), order.tolist()


def frame_pair_mask(a_lo, a_hi, b_lo, b_hi):
    """Full ``(n_a, n_b)`` intersection mask between two tables.

    The spatial join's leaf x leaf (and internal x internal) evaluation:
    one broadcast replaces every per-pair ``Rect.intersects`` call the
    plane sweep would otherwise make.
    """
    # (n_a, 1, d) against (1, n_b, d)
    inter = (a_hi[:, None, :] >= b_lo[None, :, :]) & (
        a_lo[:, None, :] <= b_hi[None, :, :]
    )
    return inter.all(axis=2)
