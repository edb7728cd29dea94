"""d-dimensional Hilbert space-filling curve (Skilling's algorithm).

The packed Hilbert R-tree sorts input rectangles "according to the Hilbert
values of their centers", and the four-dimensional Hilbert R-tree sorts them
by the positions of their corner points ``(xmin, ymin, xmax, ymax)`` on the
four-dimensional Hilbert curve (paper Section 1.1).  Both need a Hilbert
curve in arbitrary dimension: d for centers, 2d for corner points.

This module implements John Skilling's bit-transposition algorithm
("Programming the Hilbert curve", AIP Conf. Proc. 707, 2004), which converts
between a point on the 2^order × ... × 2^order integer grid and its index
along the Hilbert curve in O(dim · order) bit operations, for any dimension.

Three layers are provided:

* the exact integer grid mapping — :func:`hilbert_index` and its inverse
  :func:`hilbert_point`; these are exact bijections and are what the
  property-based tests exercise;
* float-coordinate convenience keys for rectangles —
  :func:`hilbert_key_for_center` (packed Hilbert, H) and
  :func:`hilbert_key_for_corners` (four-dimensional Hilbert, H4) — which
  quantize coordinates onto the grid relative to a bounding box of the
  dataset;
* the same keys as one column for every row of a coordinate table —
  :func:`hilbert_keys_for_centers` and :func:`hilbert_keys_for_corners`,
  what the bulk loaders and ``shard_pack`` sort by.  While an index fits
  a machine word, Skilling's loops run once over ``uint64`` columns
  instead of once per rectangle; the keys are equal to the
  per-rectangle ones, key for key.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.rect import Rect

#: Default bits of precision per axis used by the bulk loaders.  16 bits per
#: axis gives a 2^32 grid in 2D and 2^64 in the 4D corner space — far finer
#: than any dataset in the experiments, so ties are effectively impossible.
DEFAULT_ORDER = 16


# ----------------------------------------------------------------------
# Skilling's transform on "transposed" indices
# ----------------------------------------------------------------------
#
# Skilling represents a Hilbert index of dim*order bits as `dim` integers of
# `order` bits each ("transposed" form): bit k of component i is bit
# (k*dim + i) of the index, counting from the most significant end.


def _axes_to_transpose(coords: Sequence[int], order: int) -> list[int]:
    """Map grid coordinates to the transposed Hilbert index (in place copy)."""
    x = list(coords)
    n = len(x)
    m = 1 << (order - 1)
    # Inverse undo excess work.
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[n - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(n):
        x[i] ^= t
    return x


def _transpose_to_axes(transposed: Sequence[int], order: int) -> list[int]:
    """Inverse of :func:`_axes_to_transpose`."""
    x = list(transposed)
    n = len(x)
    top = 2 << (order - 1)
    # Gray decode by H ^ (H/2).
    t = x[n - 1] >> 1
    for i in range(n - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    # Undo excess work.
    q = 2
    while q != top:
        p = q - 1
        for i in range(n - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return x


def _transpose_to_index(transposed: Sequence[int], order: int) -> int:
    """Interleave transposed components into a single integer index."""
    n = len(transposed)
    index = 0
    for bit in range(order - 1, -1, -1):
        for i in range(n):
            index = (index << 1) | ((transposed[i] >> bit) & 1)
    return index


def _index_to_transpose(index: int, dim: int, order: int) -> list[int]:
    """Split an integer index back into transposed components."""
    x = [0] * dim
    for pos in range(dim * order):
        bit = (index >> (dim * order - 1 - pos)) & 1
        axis = pos % dim
        x[axis] = (x[axis] << 1) | bit
    return x


# ----------------------------------------------------------------------
# Public integer-grid API
# ----------------------------------------------------------------------


def hilbert_index(coords: Sequence[int], order: int) -> int:
    """Hilbert-curve index of a grid point.

    Parameters
    ----------
    coords:
        Integer grid coordinates, each in ``[0, 2**order)``.  The length of
        the sequence is the curve's dimension.
    order:
        Bits of precision per axis.

    Returns
    -------
    int
        Position of the point along the Hilbert curve, in
        ``[0, 2**(dim*order))``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    limit = 1 << order
    for c in coords:
        if not 0 <= c < limit:
            raise ValueError(
                f"coordinate {c} outside grid [0, {limit}) for order {order}"
            )
    return _transpose_to_index(_axes_to_transpose(coords, order), order)


def hilbert_point(index: int, dim: int, order: int) -> tuple[int, ...]:
    """Inverse of :func:`hilbert_index`: grid point at curve position."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0 <= index < (1 << (dim * order)):
        raise ValueError("index outside the curve")
    return tuple(_transpose_to_axes(_index_to_transpose(index, dim, order), order))


# ----------------------------------------------------------------------
# Float-coordinate keys for rectangles
# ----------------------------------------------------------------------


def _quantize(value: float, lo: float, hi: float, order: int) -> int:
    """Map ``value`` in ``[lo, hi]`` onto the integer grid ``[0, 2**order)``."""
    cells = 1 << order
    if hi <= lo:
        return 0
    cell = int((value - lo) / (hi - lo) * cells)
    if cell < 0:
        return 0
    if cell >= cells:
        return cells - 1
    return cell


def _square_side(bounds: Rect) -> float:
    """Longest side of ``bounds``: the side of its square cover."""
    return max(hi - lo for lo, hi in zip(bounds.lo, bounds.hi))


def _point_key(
    point: Sequence[float], anchors: Sequence[float], side: float, order: int
) -> int:
    """Hilbert value of one point on the grid anchored at ``anchors``."""
    coords = [
        _quantize(c, lo, lo + side, order) for c, lo in zip(point, anchors)
    ]
    return hilbert_index(coords, order)


def hilbert_key_for_center(
    rect: Rect, bounds: Rect, order: int = DEFAULT_ORDER
) -> int:
    """Hilbert value of the rectangle's *center* (packed Hilbert R-tree, H).

    The center is quantized to a ``2**order`` grid over the *square* cover
    of ``bounds`` (side = the bounds' longest side, anchored at the lower
    corner) and mapped with the d-dimensional Hilbert curve.

    Uniform scaling — the same world-units-per-cell on every axis, rather
    than stretching each axis to the full grid — is how spatial systems
    compute Hilbert keys for same-unit coordinates, and it is what the
    paper's Theorem 3 construction exploits: on the wide-flat bit-reversal
    dataset the curve sweeps one aligned square block (= one point column)
    at a time, so the packed Hilbert R-tree makes a leaf per column.
    """
    return _point_key(rect.center(), bounds.lo, _square_side(bounds), order)


def hilbert_key_for_corners(
    rect: Rect, bounds: Rect, order: int = DEFAULT_ORDER
) -> int:
    """Hilbert value of the 2d-dimensional corner point (H4 R-tree).

    The rectangle is first mapped to ``(lo..., hi...)`` — the paper's
    ``(xmin, ymin, xmax, ymax)`` in 2D — then all 2d coordinates are
    quantized at the same uniform scale (see
    :func:`hilbert_key_for_center`) and the point is placed on the
    2d-dimensional Hilbert curve.
    """
    return _point_key(
        rect.corner_point(), bounds.lo * 2, _square_side(bounds), order
    )


# ----------------------------------------------------------------------
# Key columns: the same keys for every row of a coordinate table
# ----------------------------------------------------------------------
#
# The bulk loaders and ``shard_pack`` key a whole dataset at once.  While
# an index fits a machine word (``dim * order <= 64``), Skilling's
# transform runs on ``uint64`` columns — every ``if`` of the scalar loops
# becomes a ``where`` over all rows, the float quantization is the same
# IEEE-754 operations in the same order — and is equal to the scalar
# route key for key.  Wider indexes (3-d H4 is 96 bits) take the scalar
# route row by row.


def not_finite(i: int, lo, hi) -> ValueError:
    """The error a Hilbert-keyed load raises for rectangle ``i``: its
    coordinates have no cell on the finite grid."""
    return ValueError(
        f"rectangle {i}, {tuple(lo)} to {tuple(hi)}, has a non-finite "
        f"coordinate: Hilbert keys need finite ones"
    )


def require_finite(lo, hi) -> None:
    """Raise :func:`not_finite` for the first row of a ``lo``/``hi``
    table with an infinite or NaN coordinate."""
    finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
    if not finite.all():
        i = int(finite.argmin())
        raise not_finite(i, lo[i].tolist(), hi[i].tolist())


def hilbert_keys_for_centers(
    lo, hi, bounds: Rect, order: int = DEFAULT_ORDER
) -> list[int]:
    """:func:`hilbert_key_for_center` of every row of a ``lo``/``hi`` table
    (:func:`require_finite` first)."""
    require_finite(lo, hi)
    return _point_keys((lo + hi) / 2.0, bounds.lo, _square_side(bounds), order)


def hilbert_keys_for_corners(
    lo, hi, bounds: Rect, order: int = DEFAULT_ORDER
) -> list[int]:
    """:func:`hilbert_key_for_corners` of every row of a ``lo``/``hi`` table
    (:func:`require_finite` first)."""
    require_finite(lo, hi)
    return _point_keys(
        np.hstack((lo, hi)), bounds.lo * 2, _square_side(bounds), order
    )


def _point_keys(points, anchors, side: float, order: int) -> list[int]:
    """:func:`_point_key` of every row of the float table ``points``."""
    if len(anchors) * order <= 64:
        if order < 1:
            raise ValueError("order must be >= 1")
        columns = [
            _quantize_column(points[:, k], lo, lo + side, order)
            for k, lo in enumerate(anchors)
        ]
        if all(column is not None for column in columns):
            return _interleave_columns(
                _axes_to_transpose_columns(columns, order), order
            )
    return [_point_key(point, anchors, side, order) for point in points.tolist()]


def _quantize_column(values, lo: float, hi: float, order: int):
    """:func:`_quantize` over a float column; a ``uint64`` column.

    None when a quotient is not finite (bounds with a subnormal side):
    the scalar route then raises what ``int()`` raises.
    """
    if hi <= lo:
        return np.zeros(len(values), dtype=np.uint64)
    cells = 1 << order
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = (values - lo) / (hi - lo) * float(cells)
    if not np.isfinite(scaled).all():
        return None
    above = scaled >= float(cells)
    # Truncation toward zero; what it cannot represent is clamped anyway.
    cell = np.where(above | (scaled < 0.0), 0.0, scaled).astype(np.uint64)
    cell[above] = cells - 1
    return cell


def _axes_to_transpose_columns(columns: list, order: int) -> list:
    """:func:`_axes_to_transpose` with one ``uint64`` column per axis."""
    x = list(columns)
    n = len(x)
    zero = np.uint64(0)
    q = 1 << (order - 1)
    while q > 1:
        bit, p = np.uint64(q), np.uint64(q - 1)
        for i in range(n):
            is_set = (x[i] & bit) != zero
            if i == 0:
                x[0] = np.where(is_set, x[0] ^ p, x[0])
            else:
                t = (x[0] ^ x[i]) & p
                x[0] = x[0] ^ np.where(is_set, p, t)
                x[i] = x[i] ^ np.where(is_set, zero, t)
        q >>= 1
    for i in range(1, n):
        x[i] = x[i] ^ x[i - 1]
    t = np.zeros(len(x[0]), dtype=np.uint64)
    q = 1 << (order - 1)
    while q > 1:
        is_set = (x[n - 1] & np.uint64(q)) != zero
        t = t ^ np.where(is_set, np.uint64(q - 1), zero)
        q >>= 1
    return [column ^ t for column in x]


def _interleave_columns(transposed: list, order: int) -> list[int]:
    """:func:`_transpose_to_index` over columns, as Python ints."""
    one = np.uint64(1)
    index = np.zeros(len(transposed[0]), dtype=np.uint64)
    for bit in range(order - 1, -1, -1):
        shift = np.uint64(bit)
        for column in transposed:
            index = (index << one) | ((column >> shift) & one)
    return index.tolist()
