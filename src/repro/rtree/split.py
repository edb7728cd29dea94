"""Guttman's node-splitting heuristics.

When a dynamic insertion overflows a node, its entries must be divided
between two nodes.  Guttman's 1984 paper gives the quadratic and linear
splitting algorithms used here; the paper's update story ("a PR-tree can be
updated in O(log_B N) I/Os using the standard R-tree updating algorithms")
is exactly these algorithms applied unchanged.

Every splitter — these two and :func:`repro.rtree.rstar.rstar_split` —
has one contract, :data:`Splitter`: it takes the overfull node's ``lo``
/ ``hi`` coordinate tables (a :class:`~repro.rtree.node.NodeFrame`'s)
and ``min_fill``, and returns ``(keep_rows, move_rows)``, the two groups
as row-index lists that :meth:`~repro.rtree.node.Node.split_off` cuts
the node along.  Each side receives at least ``min_fill`` rows; a
splitter raises ``ValueError`` unless ``1 <= min_fill`` and
``2 * min_fill <= n``.

The quadratic algorithm — the default, and O(B^2) per split — is the
whole-node kernel :func:`repro.geometry.kernels.quadratic_split`.  The
linear splitter is O(B) and stays scalar: its arithmetic runs on
``Rect`` objects built once per call.
"""

from __future__ import annotations

from typing import Callable

from repro.geometry.kernels import quadratic_split
from repro.geometry.rect import mbr_of
from repro.rtree.node import rects_of

__all__ = ["Splitter", "linear_split", "quadratic_split"]

#: ``(lo, hi, min_fill) -> (keep_rows, move_rows)``.
Splitter = Callable[..., tuple[list[int], list[int]]]


def linear_split(lo, hi, min_fill: int) -> tuple[list[int], list[int]]:
    """Guttman's linear split.

    Seeds are the pair with the greatest normalized separation along any
    axis; remaining rows are assigned in row order by least
    enlargement.
    """
    n = len(lo)
    if n < 2:
        raise ValueError("cannot split fewer than 2 entries")
    if min_fill < 1 or 2 * min_fill > n:
        raise ValueError(f"min_fill {min_fill} infeasible for {n} entries")

    rects = rects_of(lo, hi)
    total = mbr_of(rects)
    best_sep = -1.0
    # Replaced only by a pair of two distinct rows, so the seeds differ.
    seed_a = 0
    seed_b = 1
    for axis in range(lo.shape[1]):
        # Row with the highest low side and row with the lowest high side.
        high_low = max(range(n), key=lambda k: rects[k].lo[axis])
        low_high = min(range(n), key=lambda k: rects[k].hi[axis])
        if high_low == low_high:
            continue
        width = total.side(axis)
        if width <= 0:
            continue
        sep = (rects[high_low].lo[axis] - rects[low_high].hi[axis]) / width
        if sep > best_sep:
            best_sep = sep
            seed_a, seed_b = high_low, low_high

    group_a = [seed_a]
    group_b = [seed_b]
    box_a = rects[seed_a]
    box_b = rects[seed_b]
    remaining = [k for k in range(n) if k not in (seed_a, seed_b)]

    for idx, k in enumerate(remaining):
        rect = rects[k]
        left = len(remaining) - idx
        if len(group_a) + left <= min_fill:
            group_a.append(k)
            box_a = box_a.union(rect)
            continue
        if len(group_b) + left <= min_fill:
            group_b.append(k)
            box_b = box_b.union(rect)
            continue
        if box_a.enlargement(rect) <= box_b.enlargement(rect):
            group_a.append(k)
            box_a = box_a.union(rect)
        else:
            group_b.append(k)
            box_b = box_b.union(rect)
    return group_a, group_b
