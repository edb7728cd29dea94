"""Top-down Greedy Split (TGS) bulk loading.

García, López & Leutenegger's algorithm, as described in the paper's
Section 1.1: "To build the root of (a subtree of) an R-tree on a given set
of rectangles, this algorithm repeatedly partitions the rectangles into
two sets, until they are divided into B subsets of (approximately) equal
size. ... Each of the binary partitions takes a set of rectangles and
splits it into two subsets based on one of several one-dimensional
orderings; in two dimensions, the orderings considered are those by xmin,
ymin, xmax and ymax.  For each such ordering, the algorithm calculates,
for each of O(B) possible partitioning possibilities, the sum of the areas
of the bounding boxes of the two subsets that would result from the
partition. Then it applies the binary partition that minimizes that sum."

Following the paper's footnote 1, subset sizes are rounded up to powers of
the fan-out ("except for one remainder set"), so cuts fall on multiples of
a *unit* — the capacity of one child subtree — which yields near-100 %
space utilization and means "one node on each level, including the root,
may have less than B children."

The in-memory face keeps 2d sorted orderings of the working set and
filters them down through the binary recursion.  The external face keeps
the same orderings as sorted block streams: every binary partition scans
each ordering once to evaluate cuts at unit boundaries and once to
distribute records — the "needs to scan all the rectangles in order to
make a binary partition" cost that makes TGS the most expensive loader in
Figure 9 (effectively O((N/B)·log2 N) I/Os).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.bulk.base import BuildStats, timed
from repro.external.memory import MemoryModel
from repro.external.sort import external_sort
from repro.external.stream import BlockStream, StreamWriter
from repro.geometry.rect import Rect, mbr_of
from repro.iomodel.blockstore import BlockStore
from repro.rtree.node import Node
from repro.rtree.tree import RTree

#: A working item: (rectangle, pointer).
Item = tuple[Rect, int]


def _tree_height(n: int, fanout: int) -> int:
    """Minimal height h with fanout**h >= n (1 for a single leaf)."""
    height = 1
    capacity = fanout
    while capacity < n:
        capacity *= fanout
        height += 1
    return height


def _order_key(ordering: int):
    """Sort key for one of the 2d one-dimensional orderings.

    The object id tie-break makes orderings total even with duplicate
    coordinates (the paper assumes distinct coordinates; we don't need to).
    """

    def key(item: Item) -> tuple[float, int]:
        return (item[0].corner_coord(ordering), item[1])

    return key


def _sorted_orderings(items: Sequence[Item], dim: int) -> list[list[Item]]:
    """The 2d sorted copies of the working set."""
    return [sorted(items, key=_order_key(o)) for o in range(2 * dim)]


# ----------------------------------------------------------------------
# Split evaluation (shared by both faces)
# ----------------------------------------------------------------------


def _unit_mbrs(ordered: Sequence[Item], unit: int) -> list[Rect]:
    """Bounding box of each consecutive ``unit``-sized chunk."""
    return [
        mbr_of(rect for rect, _ in ordered[start : start + unit])
        for start in range(0, len(ordered), unit)
    ]


def _best_cut(per_ordering_unit_mbrs: list[list[Rect]]) -> tuple[int, int]:
    """Greedy choice: (ordering, cut) minimizing the two boxes' area sum.

    ``cut`` is in units: the left side takes the first ``cut`` chunks.
    """
    best = (math.inf, 0, 1)
    for ordering, chunks in enumerate(per_ordering_unit_mbrs):
        m = len(chunks)
        if m < 2:
            continue
        prefix = [chunks[0]]
        for box in chunks[1:]:
            prefix.append(prefix[-1].union(box))
        suffix = [chunks[-1]]
        for box in reversed(chunks[:-1]):
            suffix.append(suffix[-1].union(box))
        suffix.reverse()
        for cut in range(1, m):
            cost = prefix[cut - 1].area() + suffix[cut].area()
            if cost < best[0]:
                best = (cost, ordering, cut)
    _, ordering, cut = best
    return ordering, cut


# ----------------------------------------------------------------------
# In-memory face
# ----------------------------------------------------------------------


def _binary_split_mem(
    orderings: list[list[Item]], unit: int
) -> tuple[list[list[Item]], list[list[Item]]]:
    """One greedy binary partition of the working set at a unit boundary."""
    ordering, cut = _best_cut([_unit_mbrs(lst, unit) for lst in orderings])
    chosen = orderings[ordering]
    left_ids = {oid for _, oid in chosen[: cut * unit]}
    left = [[item for item in lst if item[1] in left_ids] for lst in orderings]
    right = [[item for item in lst if item[1] not in left_ids] for lst in orderings]
    return left, right


def _partition_mem(
    orderings: list[list[Item]], unit: int
) -> list[list[list[Item]]]:
    """Recursively binary-split until every group fits in one unit."""
    if len(orderings[0]) <= unit:
        return [orderings]
    left, right = _binary_split_mem(orderings, unit)
    return _partition_mem(left, unit) + _partition_mem(right, unit)


def _build_subtree_mem(
    store: BlockStore, orderings: list[list[Item]], height: int, fanout: int
) -> tuple[Rect, int]:
    """Build a subtree of exactly ``height`` levels; returns (mbr, block)."""
    items = orderings[0]
    if height == 1:
        block_id = store.allocate(Node(is_leaf=True, entries=list(items)))
        return mbr_of(rect for rect, _ in items), block_id
    unit = fanout ** (height - 1)
    children = [
        _build_subtree_mem(store, group, height - 1, fanout)
        for group in _partition_mem(orderings, unit)
    ]
    block_id = store.allocate(Node(is_leaf=False, entries=children))
    return mbr_of(rect for rect, _ in children), block_id


def build_tgs(
    store: BlockStore, data: Sequence[tuple[Rect, Any]], fanout: int
) -> RTree:
    """In-memory TGS bulk load."""
    dim = data[0][0].dim if data else 2
    tree = RTree(store, root_id=-1, dim=dim, fanout=fanout, height=1, size=len(data))
    oids = tree.register_objects([value for _, value in data])
    items: list[Item] = [(rect, oid) for (rect, _), oid in zip(data, oids)]
    if not items:
        tree.root_id = store.allocate(Node(is_leaf=True))
        return tree
    height = _tree_height(len(items), fanout)
    orderings = _sorted_orderings(items, dim)
    _, tree.root_id = _build_subtree_mem(store, orderings, height, fanout)
    tree.height = height
    return tree


# ----------------------------------------------------------------------
# External face
# ----------------------------------------------------------------------


def _scan_units_and_keys(
    stream: BlockStream, unit: int, ordering: int
) -> tuple[list[Rect], list[tuple[float, int]]]:
    """One scan: per-unit MBRs and the ordering key at each unit boundary."""
    key = _order_key(ordering)
    unit_boxes: list[Rect] = []
    boundary_keys: list[tuple[float, int]] = []
    current: Rect | None = None
    count = 0
    last_item: Item | None = None
    for item in stream:
        rect = item[0]
        current = rect if current is None else current.union(rect)
        count += 1
        last_item = item
        if count == unit:
            unit_boxes.append(current)
            boundary_keys.append(key(last_item))
            current = None
            count = 0
    if current is not None:
        unit_boxes.append(current)
        boundary_keys.append(key(last_item))
    return unit_boxes, boundary_keys


def _binary_split_ext(
    streams: list[BlockStream], unit: int
) -> tuple[list[BlockStream], list[BlockStream]]:
    """External greedy binary partition; consumes the input streams."""
    store = streams[0].store
    block_records = streams[0].block_records
    per_ordering: list[list[Rect]] = []
    per_boundaries: list[list[tuple[float, int]]] = []
    for ordering, stream in enumerate(streams):
        boxes, boundaries = _scan_units_and_keys(stream, unit, ordering)
        per_ordering.append(boxes)
        per_boundaries.append(boundaries)
    ordering, cut = _best_cut(per_ordering)
    threshold = per_boundaries[ordering][cut - 1]
    key = _order_key(ordering)

    left_streams: list[BlockStream] = []
    right_streams: list[BlockStream] = []
    for stream in streams:
        left_writer = StreamWriter(store, block_records)
        right_writer = StreamWriter(store, block_records)
        for item in stream:
            if key(item) <= threshold:
                left_writer.append(item)
            else:
                right_writer.append(item)
        stream.free()
        left_streams.append(left_writer.finish())
        right_streams.append(right_writer.finish())
    return left_streams, right_streams


def _partition_ext(
    streams: list[BlockStream], unit: int
) -> list[list[BlockStream]]:
    if len(streams[0]) <= unit:
        return [streams]
    left, right = _binary_split_ext(streams, unit)
    return _partition_ext(left, unit) + _partition_ext(right, unit)


def _build_subtree_ext(
    store: BlockStore,
    streams: list[BlockStream],
    height: int,
    fanout: int,
    memory: MemoryModel,
    dim: int,
) -> tuple[Rect, int]:
    n = len(streams[0])
    if memory.fits_in_memory(n):
        items = streams[0].read_all()
        for stream in streams:
            stream.free()
        return _build_subtree_mem(
            store, _sorted_orderings(items, dim), height, fanout
        )
    unit = fanout ** (height - 1)
    children = [
        _build_subtree_ext(store, group, height - 1, fanout, memory, dim)
        for group in _partition_ext(streams, unit)
    ]
    block_id = store.allocate(Node(is_leaf=False, entries=children))
    return mbr_of(rect for rect, _ in children), block_id


def build_tgs_external(
    store: BlockStore,
    input_stream: BlockStream,
    fanout: int,
    memory: MemoryModel,
) -> tuple[RTree, BuildStats]:
    """External TGS bulk load with I/O accounting.

    The input stream holds ``(Rect, value)`` records.  Cost: one
    registering scan, 2d external sorts to establish the orderings, then
    the greedy binary-partition recursion, each split scanning the working
    set a constant number of times.
    """
    before = store.counters.snapshot()

    def run() -> RTree:
        n = len(input_stream)
        dim: int | None = None
        tree = RTree(store, root_id=-1, dim=2, fanout=fanout, height=1, size=n)
        writer = StreamWriter(store, input_stream.block_records)
        for rect, value in input_stream:
            if dim is None:
                dim = rect.dim
                tree.dim = dim
            writer.append((rect, tree.register_object(value)))
        base = writer.finish()
        if n == 0:
            base.free()
            tree.root_id = store.allocate(Node(is_leaf=True))
            return tree
        assert dim is not None
        streams = [
            external_sort(base, key=_order_key(o), memory=memory)
            for o in range(2 * dim)
        ]
        base.free()
        height = _tree_height(n, fanout)
        _, tree.root_id = _build_subtree_ext(
            store, streams, height, fanout, memory, dim
        )
        tree.height = height
        return tree

    tree, seconds = timed(run)
    io = store.counters.snapshot() - before
    return tree, BuildStats(io=io, cpu_seconds=seconds, levels=tree.height)
