"""I/O-efficient external PR-tree bulk loading (paper Section 2.1).

The paper's efficient construction algorithm pre-sorts the corner-mapped
points 2d ways, then builds the pseudo-PR-tree top-down: a z^(2d) grid of
cell counts (z = Θ(M^(1/2d))) lets it place Θ(log M) kd levels per scan;
priority leaves are filled by streaming every point through the partial
kd-tree with replacement ("filtering"); finally the sorted lists are
distributed to the recursive subproblems.  Total:
O((N/B) log_{M/B} (N/B)) I/Os.

This implementation keeps the same skeleton — 2d pre-sorted streams,
streamed priority-leaf extraction, exact-median distribution, in-memory
construction below M — with one simplification: it places *one* kd level
per distribution pass instead of batching Θ(log M) levels through the
in-memory grid.  Costs are therefore

    sort(N) + O((N/B) · log2 (N/M))   instead of   sort(N) + O((N/B) · log_M/B (N/B)),

a log factor more on the above-memory levels.  The structure produced is
a bona-fide pseudo-PR-tree per stage (priority leaves exactly, median
splits exactly — the split key is found *during* the distribution scan by
counting, so no grid-granularity slack is introduced), and the measured
bulk-loading cost keeps the paper's ordering H < PR < TGS (Figure 9).
The substitution is recorded in DESIGN.md §5 and EXPERIMENTS.md.

Two properties worth noting:

* Priority-leaf extraction reads only the first O(1 + B/B_blk) blocks of
  each sorted stream (max-direction streams are sorted descending so
  "most extreme first" holds for all 2d of them) — the same trick that
  makes the paper's filtering cheap.
* Like the paper's in-memory tail ("once the number of points in a
  recursive call gets smaller than M, we can simply construct the rest of
  the tree in internal memory"), subproblems of at most M records are
  loaded and finished with the in-memory :class:`PseudoPRTree`, with
  splits snapped to multiples of B for near-100 % utilization.
"""

from __future__ import annotations

from typing import Any

from repro.bulk.base import BuildStats, timed
from repro.external.memory import MemoryModel
from repro.external.sort import external_sort
from repro.external.stream import BlockStream, StreamWriter
from repro.geometry.rect import Rect, mbr_of
from repro.iomodel.blockstore import BlockStore
from repro.prtree.pseudo import Item, PseudoPRTree
from repro.rtree.node import Node
from repro.rtree.tree import RTree


def _axis_key(axis: int, dim: int):
    """Total order putting the most extreme item of ``axis`` first.

    Min axes ascend; max axes descend (negated coordinate).  The object id
    breaks ties so all 2d orders are total.
    """
    if axis < dim:
        return lambda item: (item[0].corner_coord(axis), item[1])
    return lambda item: (-item[0].corner_coord(axis), item[1])


def _extract_priority(
    streams: list[BlockStream], capacity: int
) -> tuple[list[list[Item]], set[int]]:
    """Streamed priority-leaf extraction.

    Reads each sorted stream from the front, skipping items already
    claimed by an earlier direction, until B items are collected — the
    sequential definition of the paper ("the second ν_p^ymin contains the
    B rectangles *among the remaining* ...").  Returns the per-direction
    item lists (possibly fewer than 2d non-empty) and the claimed ids.
    """
    claimed: set[int] = set()
    leaves: list[list[Item]] = []
    total = len(streams[0])
    for stream in streams:
        if len(claimed) >= total:
            break
        take: list[Item] = []
        for item in stream:
            if item[1] in claimed:
                continue
            take.append(item)
            claimed.add(item[1])
            if len(take) == capacity:
                break
        if take:
            leaves.append(take)
    return leaves, claimed


def _distribute(
    streams: list[BlockStream],
    skip: set[int],
    split_axis: int,
    left_count: int,
    dim: int,
) -> tuple[list[BlockStream], list[BlockStream]]:
    """Median distribution: first ``left_count`` survivors go left.

    The split-axis stream is scanned first; the boundary *key* observed at
    position ``left_count`` then routes the remaining 2d−1 streams by
    comparison, so the division is an exact rank split with O(1) memory —
    the role the paper's grid refinement plays.  Consumes the inputs.
    """
    store = streams[0].store
    block_records = streams[0].block_records
    key = _axis_key(split_axis, dim)

    left_streams: list[BlockStream | None] = [None] * len(streams)
    right_streams: list[BlockStream | None] = [None] * len(streams)

    # Pass 1: the split axis itself, by counting.
    left_writer = StreamWriter(store, block_records)
    right_writer = StreamWriter(store, block_records)
    threshold = None
    seen = 0
    for item in streams[split_axis]:
        if item[1] in skip:
            continue
        seen += 1
        if seen <= left_count:
            left_writer.append(item)
            if seen == left_count:
                threshold = key(item)
        else:
            right_writer.append(item)
    streams[split_axis].free()
    left_streams[split_axis] = left_writer.finish()
    right_streams[split_axis] = right_writer.finish()

    # Pass 2: every other ordering, by key comparison against the boundary.
    for axis, stream in enumerate(streams):
        if axis == split_axis:
            continue
        left_writer = StreamWriter(store, block_records)
        right_writer = StreamWriter(store, block_records)
        for item in stream:
            if item[1] in skip:
                continue
            if key(item) <= threshold:
                left_writer.append(item)
            else:
                right_writer.append(item)
        stream.free()
        left_streams[axis] = left_writer.finish()
        right_streams[axis] = right_writer.finish()
    return left_streams, right_streams  # type: ignore[return-value]


def _build_pseudo_external(
    store: BlockStore,
    streams: list[BlockStream],
    capacity: int,
    memory: MemoryModel,
    dim: int,
    depth: int,
    is_leaf: bool,
    level_writer: StreamWriter,
    snap_splits: bool,
) -> None:
    """Emit the leaves of a pseudo-PR-tree on the streamed items.

    Every leaf (priority or normal) is materialized as one R-tree node
    block at the current PR level and appended to ``level_writer`` as an
    ``(mbr, block_id)`` record.
    """
    n = len(streams[0])
    if n == 0:
        for stream in streams:
            stream.free()
        return

    if memory.fits_in_memory(n):
        items = streams[0].read_all()
        for stream in streams:
            stream.free()
        pseudo = PseudoPRTree(
            items, capacity=capacity, dim=dim, snap_splits=snap_splits
        )
        for leaf in pseudo.leaves():
            level_writer.append((leaf.mbr, store.allocate(leaf.node(is_leaf))))
        return

    priority, claimed = _extract_priority(streams, capacity)
    for take in priority:
        block_id = store.allocate(Node(is_leaf, list(take)))
        level_writer.append((mbr_of(r for r, _ in take), block_id))

    remaining = n - len(claimed)
    if remaining == 0:
        for stream in streams:
            stream.free()
        return

    split_axis = depth % (2 * dim)
    half = remaining // 2
    if snap_splits:
        half = max(capacity, round(half / capacity) * capacity)
        half = min(half, remaining - 1)
    half = max(1, half)
    left, right = _distribute(streams, claimed, split_axis, half, dim)
    _build_pseudo_external(
        store, left, capacity, memory, dim, depth + 1, is_leaf, level_writer, snap_splits
    )
    _build_pseudo_external(
        store, right, capacity, memory, dim, depth + 1, is_leaf, level_writer, snap_splits
    )


def build_prtree_external(
    store: BlockStore,
    input_stream: BlockStream,
    fanout: int,
    memory: MemoryModel,
    snap_splits: bool = True,
) -> tuple[RTree, BuildStats]:
    """External PR-tree bulk load with I/O accounting.

    The input stream holds ``(Rect, value)`` records.  Each bottom-up
    stage (Section 2.2) sorts the stage set 2d ways and runs the external
    pseudo-PR-tree construction; since |S_i| shrinks by Θ(B) per stage the
    first stage dominates the cost, exactly as in the proof of Theorem 1.
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
        level = writer.finish()
        if n == 0:
            level.free()
            tree.root_id = store.allocate(Node(is_leaf=True))
            return tree
        assert dim is not None

        is_leaf = True
        height = 1
        while len(level) > fanout:
            streams = [
                external_sort(level, key=_axis_key(axis, dim), memory=memory)
                for axis in range(2 * dim)
            ]
            level.free()
            level_writer = StreamWriter(store, input_stream.block_records)
            _build_pseudo_external(
                store,
                streams,
                fanout,
                memory,
                dim,
                depth=0,
                is_leaf=is_leaf,
                level_writer=level_writer,
                snap_splits=snap_splits,
            )
            level = level_writer.finish()
            is_leaf = False
            height += 1

        tree.root_id = store.allocate(Node(is_leaf, level.read_all()))
        level.free()
        tree.height = height
        return tree

    tree, seconds = timed(run)
    io = store.counters.snapshot() - before
    return tree, BuildStats(io=io, cpu_seconds=seconds, levels=tree.height)
