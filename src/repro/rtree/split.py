"""Guttman's node-splitting heuristics.

When a dynamic insertion overflows a node, its entries must be divided
between two nodes.  Guttman's 1984 paper gives the quadratic and linear
splitting algorithms used here; the paper's update story ("a PR-tree can be
updated in O(log_B N) I/Os using the standard R-tree updating algorithms")
is exactly these algorithms applied unchanged.

Both splitters guarantee each side receives at least ``min_fill`` entries.

The quadratic algorithm — the default, and O(B^2) per split — lives in
:func:`repro.geometry.kernels.quadratic_split` as a whole-node kernel
over numpy coordinate tables; this module keeps its entry-list face and
the linear splitter, which is O(B) and stays entry-at-a-time.
"""

from __future__ import annotations

from repro.geometry import kernels
from repro.geometry.rect import mbr_of
from repro.rtree.node import Entry, NodeFrame


def quadratic_split(
    entries: list[Entry], min_fill: int
) -> tuple[list[Entry], list[Entry]]:
    """Guttman's quadratic split.

    Seeds are the pair wasting the most area together; remaining entries
    are assigned one at a time, always the entry with the strongest
    preference, to the group whose bounding box grows least.

    The algorithm itself is :func:`repro.geometry.kernels.quadratic_split`
    — O(B^2) union-area evaluations per split, run as whole-node array
    operations — and this is its entry-list face: pack the rectangles
    into coordinate tables, split the rows, hand back the entries.
    :mod:`repro.rtree.update` skips the packing and calls the kernel on
    the node's frame directly.
    """
    frame = NodeFrame.from_entries(False, entries)
    rows_a, rows_b = kernels.quadratic_split(frame.lo, frame.hi, min_fill)
    return [entries[k] for k in rows_a], [entries[k] for k in rows_b]


def linear_split(
    entries: list[Entry], min_fill: int
) -> tuple[list[Entry], list[Entry]]:
    """Guttman's linear split.

    Seeds are the pair with the greatest normalized separation along any
    axis; remaining entries are assigned in input order by least
    enlargement.
    """
    if len(entries) < 2:
        raise ValueError("cannot split fewer than 2 entries")
    if min_fill < 1 or 2 * min_fill > len(entries):
        raise ValueError(
            f"min_fill {min_fill} infeasible for {len(entries)} entries"
        )

    dim = entries[0][0].dim
    total = mbr_of(rect for rect, _ in entries)
    best_sep = -1.0
    seed_a = 0
    seed_b = 1
    for axis in range(dim):
        # Entry with the highest low side and entry with the lowest high side.
        high_low = max(range(len(entries)), key=lambda k: entries[k][0].lo[axis])
        low_high = min(range(len(entries)), key=lambda k: entries[k][0].hi[axis])
        if high_low == low_high:
            continue
        width = total.side(axis)
        if width <= 0:
            continue
        sep = (
            entries[high_low][0].lo[axis] - entries[low_high][0].hi[axis]
        ) / width
        if sep > best_sep:
            best_sep = sep
            seed_a, seed_b = high_low, low_high
    if seed_a == seed_b:  # all rectangles identical along every axis
        seed_b = (seed_a + 1) % len(entries)

    group_a = [entries[seed_a]]
    group_b = [entries[seed_b]]
    box_a = entries[seed_a][0]
    box_b = entries[seed_b][0]
    remaining = [e for k, e in enumerate(entries) if k not in (seed_a, seed_b)]

    for idx, (rect, pointer) in enumerate(remaining):
        left = len(remaining) - idx
        if len(group_a) + left <= min_fill:
            group_a.append((rect, pointer))
            box_a = box_a.union(rect)
            continue
        if len(group_b) + left <= min_fill:
            group_b.append((rect, pointer))
            box_b = box_b.union(rect)
            continue
        if box_a.enlargement(rect) <= box_b.enlargement(rect):
            group_a.append((rect, pointer))
            box_a = box_a.union(rect)
        else:
            group_b.append((rect, pointer))
            box_b = box_b.union(rect)
    return group_a, group_b
