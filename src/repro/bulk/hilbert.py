"""Packed Hilbert (H) and four-dimensional Hilbert (H4) bulk loaders.

H — Kamel & Faloutsos's packed Hilbert R-tree — "sorts the rectangles
according to the Hilbert values of their centers", places them in leaves
in that order, and builds the index bottom-up.  H4 instead maps each
rectangle to the 2d-dimensional point ``(xmin, ymin, xmax, ymax)`` and
sorts by that point's position on the 2d-dimensional Hilbert curve —
"it also takes the extent of the rectangles into account", which the
paper's experiments show makes it far more robust on extreme data
(Section 1.1, Figure 15).

Both have an in-memory face (query experiments) — one key column over
the dataset's coordinate table (:mod:`repro.geometry.hilbert`), one
stable sort, one :func:`~repro.bulk.base.pack_ordered` — and an external
face that scans, sorts and packs through counted block streams (bulk-load
experiments).  The external pipeline is three sequential passes plus the
sort — the cheapness the paper reports in Figure 9 (H uses ~2.5× fewer
I/Os than PR and ~11× fewer than TGS).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

from repro.bulk.base import BuildStats, pack_ordered, require_dim, timed
from repro.external.memory import MemoryModel
from repro.external.sort import external_sort
from repro.external.stream import BlockStream, StreamWriter
from repro.geometry import kernels
from repro.geometry.hilbert import (
    DEFAULT_ORDER,
    hilbert_key_for_center,
    hilbert_key_for_corners,
    hilbert_keys_for_centers,
    hilbert_keys_for_corners,
    not_finite,
)
from repro.geometry.rect import Rect, mbr_of
from repro.iomodel.blockstore import BlockStore
from repro.rtree.node import Node
from repro.rtree.tree import RTree

KeyFunction = Callable[[Rect, Rect], int]
#: ``(lo table, hi table, bounds, order) -> one key per row``.
KeyColumn = Callable[[Any, Any, Rect, int], list[int]]


# ----------------------------------------------------------------------
# In-memory loaders
# ----------------------------------------------------------------------


def _build_by_key(
    store: BlockStore,
    data: Sequence[tuple[Rect, Any]],
    fanout: int,
    keys: KeyColumn,
    order: int,
) -> RTree:
    """Key every rectangle in one column, sort (stably) and pack."""
    if not data:
        return pack_ordered(store, data, fanout)
    dim = data[0][0].dim
    require_dim((rect for rect, _ in data), dim)
    lo = kernels.coord_table([rect.lo for rect, _ in data], dim)
    hi = kernels.coord_table([rect.hi for rect, _ in data], dim)
    bounds = Rect(*kernels.frame_mbr(lo, hi))
    column = keys(lo, hi, bounds, order)
    rank = sorted(range(len(data)), key=column.__getitem__)
    return pack_ordered(store, [data[i] for i in rank], fanout, dim)


def build_hilbert(
    store: BlockStore,
    data: Sequence[tuple[Rect, Any]],
    fanout: int,
    order: int = DEFAULT_ORDER,
) -> RTree:
    """Packed Hilbert R-tree (H): sort centers along the Hilbert curve."""
    return _build_by_key(store, data, fanout, hilbert_keys_for_centers, order)


def build_hilbert4(
    store: BlockStore,
    data: Sequence[tuple[Rect, Any]],
    fanout: int,
    order: int = DEFAULT_ORDER,
) -> RTree:
    """Four-dimensional Hilbert R-tree (H4): sort corner points."""
    return _build_by_key(store, data, fanout, hilbert_keys_for_corners, order)


# ----------------------------------------------------------------------
# External loaders
# ----------------------------------------------------------------------


def _external_bounds(stream: BlockStream) -> Rect:
    """One scan computing the dataset MBR; a non-finite rectangle is
    refused before anything is written."""
    bounds: Rect | None = None
    for i, (rect, _) in enumerate(stream):
        if not all(map(math.isfinite, rect.lo + rect.hi)):
            raise not_finite(i, rect.lo, rect.hi)
        bounds = rect if bounds is None else bounds.union(rect)
    if bounds is None:
        raise ValueError("cannot bulk-load an empty stream externally")
    return bounds


def _pack_stream_bottom_up(
    store: BlockStore,
    sorted_stream: BlockStream,
    tree: RTree,
    fanout: int,
    register: bool,
) -> None:
    """Pack a key-sorted stream of records into the tree, level by level.

    The leaf pass reads the sorted data once and writes one node block per
    ``fanout`` records while spooling ``(mbr, block_id)`` records to a
    level stream; upper passes repeat on the level streams.  Memory use is
    one block of records plus one node — honest external packing.
    """
    level_writer = StreamWriter(store, sorted_stream.block_records)
    buffer: list[tuple[Rect, int]] = []

    def flush_leaf() -> None:
        nonlocal buffer
        if buffer:
            block_id = store.allocate(Node(is_leaf=True, entries=buffer))
            level_writer.append((mbr_of(r for r, _ in buffer), block_id))
            buffer = []

    for item in sorted_stream:
        rect, value = item[1], item[2]
        oid = tree.register_object(value) if register else value
        buffer.append((rect, oid))
        if len(buffer) == fanout:
            flush_leaf()
    flush_leaf()
    level = level_writer.finish()
    height = 1

    while len(level) > 1:
        next_writer = StreamWriter(store, level.block_records)
        node_entries: list[tuple[Rect, int]] = []

        def flush_node() -> None:
            nonlocal node_entries
            if node_entries:
                block_id = store.allocate(Node(is_leaf=False, entries=node_entries))
                next_writer.append(
                    (mbr_of(r for r, _ in node_entries), block_id)
                )
                node_entries = []

        for entry in level:
            node_entries.append(entry)
            if len(node_entries) == fanout:
                flush_node()
        flush_node()
        level.free()
        level = next_writer.finish()
        height += 1

    [(root_mbr, root_id)] = level.read_all()
    level.free()
    tree.root_id = root_id
    tree.height = height


def _build_external_by_key(
    store: BlockStore,
    input_stream: BlockStream,
    fanout: int,
    memory: MemoryModel,
    key: KeyFunction,
) -> tuple[RTree, BuildStats]:
    """Scan (compute keys) → external sort → pack: the H/H4 pipeline."""
    before = store.counters.snapshot()

    def run() -> RTree:
        if len(input_stream) == 0:
            tree = RTree(store, root_id=-1, dim=2, fanout=fanout, height=1, size=0)
            tree.root_id = store.allocate(Node(is_leaf=True))
            return tree
        dim = None
        bounds = _external_bounds(input_stream)
        # Decorating scan: attach the Hilbert key so the sort comparator is
        # a plain tuple lookup.
        writer = StreamWriter(store, input_stream.block_records)
        for rect, value in input_stream:
            if dim is None:
                dim = rect.dim
            writer.append((key(rect, bounds), rect, value))
        decorated = writer.finish()
        sorted_stream = external_sort(
            decorated, key=lambda item: item[0], memory=memory, free_input=True
        )
        tree = RTree(
            store,
            root_id=-1,
            dim=dim if dim is not None else 2,
            fanout=fanout,
            height=1,
            size=len(input_stream),
        )
        _pack_stream_bottom_up(store, sorted_stream, tree, fanout, register=True)
        sorted_stream.free()
        return tree

    tree, seconds = timed(run)
    io = store.counters.snapshot() - before
    return tree, BuildStats(io=io, cpu_seconds=seconds, levels=tree.height)


def build_hilbert_external(
    store: BlockStore,
    input_stream: BlockStream,
    fanout: int,
    memory: MemoryModel,
    order: int = DEFAULT_ORDER,
) -> tuple[RTree, BuildStats]:
    """External packed Hilbert load with I/O accounting."""
    return _build_external_by_key(
        store,
        input_stream,
        fanout,
        memory,
        lambda rect, bounds: hilbert_key_for_center(rect, bounds, order),
    )


def build_hilbert4_external(
    store: BlockStore,
    input_stream: BlockStream,
    fanout: int,
    memory: MemoryModel,
    order: int = DEFAULT_ORDER,
) -> tuple[RTree, BuildStats]:
    """External four-dimensional Hilbert load with I/O accounting."""
    return _build_external_by_key(
        store,
        input_stream,
        fanout,
        memory,
        lambda rect, bounds: hilbert_key_for_corners(rect, bounds, order),
    )
