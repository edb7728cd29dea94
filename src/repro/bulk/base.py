"""Shared machinery for bottom-up R-tree packing.

The "sort, place in leaves in that order, build the rest of the index
bottom-up level-by-level" family (paper Section 1.1, [10, 15, 18]) shares
one packing step: given data in final leaf order, chunk it into full
leaves, then repeatedly chunk node bounding boxes into full internal
nodes until a single root remains.  Both Hilbert loaders and STR reduce to
:func:`pack_ordered` after their respective sorts.

A level is packed as one box table (:func:`pack_level`): its rows are
laid out once, every node is a run of ``fanout`` columns cut out of it —
stored as that frame — and its box is one
:func:`~repro.geometry.kernels.frame_mbr`.  :func:`pack_leaf_level`
packs an entry list into that table first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.iomodel.counters import IOSnapshot
from repro.rtree.node import Node, NodeFrame
from repro.rtree.tree import RTree


@dataclass
class BuildStats:
    """What one bulk load cost.

    ``io`` is meaningful only for the external loaders (the in-memory
    paths count just their node writes); ``cpu_seconds`` is measured
    wall-clock of the build call, reported alongside modelled I/O time in
    the Figure 9/11 reproductions.
    """

    io: IOSnapshot
    cpu_seconds: float
    levels: int


def require_dim(rects: Iterable[Rect], dim: int) -> None:
    """Raise ``ValueError`` unless every rectangle is ``dim``-dimensional."""
    for rect in rects:
        if len(rect.lo) != dim:
            raise ValueError(f"rect of dim {rect.dim} in a dim-{dim} load")


def pack_level(
    store: BlockStore, level: NodeFrame, fanout: int
) -> list[tuple[Rect, int]]:
    """Chunk one level's ordered rows into full nodes.

    Returns the ``(mbr, block_id)`` entries of the level above.  Every
    node except possibly the last receives exactly ``fanout`` rows — the
    near-100 % utilization all the paper's loaders target.
    """
    above: list[tuple[Rect, int]] = []
    for start in range(0, len(level), fanout):
        frame = level.take(range(start, min(start + fanout, len(level))))
        above.append((frame.mbr(), store.allocate(Node.from_frame(frame))))
    return above


def pack_leaf_level(
    store: BlockStore, entries: Sequence[tuple[Rect, int]], fanout: int, is_leaf: bool
) -> list[tuple[Rect, int]]:
    """:func:`pack_level` over an entry list; returns (mbr, block_id) pairs."""
    return pack_level(store, NodeFrame.from_entries(is_leaf, entries), fanout)


def pack_ordered(
    store: BlockStore,
    data: Sequence[tuple[Rect, Any]],
    fanout: int,
    dim: int | None = None,
) -> RTree:
    """Build an R-tree whose leaves hold ``data`` in the given order.

    ``data`` pairs rectangles with arbitrary caller values; object ids are
    assigned in order.  An empty dataset yields a tree with one empty leaf.
    """
    if dim is None:
        dim = data[0][0].dim if data else 2
    tree = RTree(
        store,
        root_id=-1,
        dim=dim,
        fanout=fanout,
        height=1,
        size=len(data),
    )
    require_dim((rect for rect, _ in data), dim)
    oids = tree.register_objects([value for _, value in data])
    entries = [(rect, oid) for (rect, _), oid in zip(data, oids)]

    if not entries:
        tree.root_id = store.allocate(Node(is_leaf=True))
        return tree

    level = pack_leaf_level(store, entries, fanout, is_leaf=True)
    height = 1
    while len(level) > 1:
        level = pack_leaf_level(store, level, fanout, is_leaf=False)
        height += 1
    tree.root_id = level[0][1]
    tree.height = height
    return tree


def timed(fn, *args, **kwargs):
    """Run ``fn`` returning ``(result, seconds)`` of wall-clock time."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
