r"""R*-tree insertion (Beckmann, Kriegel, Schneider, Seeger 1990).

The paper cites the R*-tree [6] as the canonical heuristic-update
R-tree — it is also what mainstream libraries ship today, which makes it
the natural "production baseline" for the dynamic-update ablations.  The
reproduction implements the three R* ingredients on top of the shared
tree representation:

* **ChooseSubtree** — descend by least *overlap* enlargement at the leaf
  level (least area enlargement above it);
* **Forced reinsertion** — the first time a node overflows on a given
  level during one insertion, evict the 30 % of entries whose centers
  lie farthest from the node's center and reinsert them, instead of
  splitting;
* **R\* split** — choose the split axis by minimum total margin over all
  legal distributions, then the distribution with minimal overlap
  (ties: minimal total area).

Deletion is unchanged from Guttman (:func:`repro.rtree.update.delete`
works on any tree).

Nodes are frames here as everywhere (:mod:`repro.rtree.node`): every
split and every eviction is a :meth:`~repro.rtree.node.Node.split_off`
along row lists, and :func:`rstar_split` has the splitter contract of
:mod:`repro.rtree.split`.  The scalar arithmetic runs on ``Rect``
objects built from the frame once per call.
"""

from __future__ import annotations

from typing import Any

from repro.geometry.rect import Rect, check_dim, mbr_of
from repro.rtree.node import Entry, Node, rects_of
from repro.rtree.tree import RTree
from repro.rtree.update import grow_root, split_overfull

#: Fraction of entries evicted by forced reinsertion (the R* paper's p).
REINSERT_FRACTION = 0.3


# ----------------------------------------------------------------------
# R* split
# ----------------------------------------------------------------------


def rstar_split(lo, hi, min_fill: int) -> tuple[list[int], list[int]]:
    """The R*-tree split: margin-minimal axis, overlap-minimal cut.

    Takes an overfull node's coordinate tables and returns the two
    groups as row lists, each in its sorted order (the
    :mod:`repro.rtree.split` contract).
    """
    n = len(lo)
    if n < 2:
        raise ValueError("cannot split fewer than 2 entries")
    if min_fill < 1 or 2 * min_fill > n:
        raise ValueError(f"min_fill {min_fill} infeasible for {n} entries")
    rects = rects_of(lo, hi)
    cuts = range(min_fill, n - min_fill + 1)

    best_axis_margin = float("inf")
    best_axis_orderings: list[list[int]] = []
    for axis in range(lo.shape[1]):
        by_lo = sorted(
            range(n), key=lambda k: (rects[k].lo[axis], rects[k].hi[axis])
        )
        by_hi = sorted(
            range(n), key=lambda k: (rects[k].hi[axis], rects[k].lo[axis])
        )
        margin = 0.0
        for ordering in (by_lo, by_hi):
            for cut in cuts:
                margin += mbr_of(rects[k] for k in ordering[:cut]).margin()
                margin += mbr_of(rects[k] for k in ordering[cut:]).margin()
        if margin < best_axis_margin:
            best_axis_margin = margin
            best_axis_orderings = [by_lo, by_hi]

    best = None
    best_key = (float("inf"), float("inf"))
    for ordering in best_axis_orderings:
        # Prefix/suffix boxes for O(n) evaluation per ordering.
        prefixes: list[Rect] = []
        box = None
        for k in ordering:
            box = rects[k] if box is None else box.union(rects[k])
            prefixes.append(box)
        suffixes: list[Rect] = [None] * n  # type: ignore[list-item]
        box = None
        for i in range(n - 1, -1, -1):
            rect = rects[ordering[i]]
            box = rect if box is None else box.union(rect)
            suffixes[i] = box
        for cut in cuts:
            left_box = prefixes[cut - 1]
            right_box = suffixes[cut]
            inter = left_box.intersection(right_box)
            overlap = inter.area() if inter is not None else 0.0
            key = (overlap, left_box.area() + right_box.area())
            if key < best_key:
                best_key = key
                best = (ordering[:cut], ordering[cut:])
    assert best is not None
    return best


# ----------------------------------------------------------------------
# ChooseSubtree
# ----------------------------------------------------------------------


def _overlap_with_siblings(boxes: list[Rect], candidate: int, box: Rect) -> float:
    """Total overlap of ``box`` with the other children's boxes."""
    total = 0.0
    for idx, other in enumerate(boxes):
        if idx == candidate:
            continue
        inter = box.intersection(other)
        if inter is not None:
            total += inter.area()
    return total


def _choose_subtree(node: Node, rect: Rect, children_are_leaves: bool) -> int:
    frame = node.frame()
    boxes = rects_of(frame.lo, frame.hi)
    if children_are_leaves:
        # Minimize overlap enlargement; ties by area enlargement, then area.
        best_idx = 0
        best_key = None
        for idx, box in enumerate(boxes):
            grown = box.union(rect)
            overlap_delta = _overlap_with_siblings(
                boxes, idx, grown
            ) - _overlap_with_siblings(boxes, idx, box)
            key = (overlap_delta, grown.area() - box.area(), box.area())
            if best_key is None or key < best_key:
                best_key = key
                best_idx = idx
        return best_idx
    best_idx = 0
    best_key = None
    for idx, box in enumerate(boxes):
        key = (box.enlargement(rect), box.area())
        if best_key is None or key < best_key:
            best_key = key
            best_idx = idx
    return best_idx


# ----------------------------------------------------------------------
# Insertion with forced reinsertion
# ----------------------------------------------------------------------


def rstar_insert(tree: RTree, rect: Rect, value: Any) -> int:
    """Insert with the R*-tree algorithm; returns the object id."""
    check_dim(rect, tree.dim)
    oid = tree.register_object(value)
    _insert(tree, rect, oid, target_level=0, reinserted_levels=set())
    tree.size += 1
    return oid


def _insert(
    tree: RTree,
    rect: Rect,
    pointer: int,
    target_level: int,
    reinserted_levels: set[int],
) -> None:
    path: list[tuple[int, Node, int]] = []
    block_id = tree.root_id
    node = tree.read_node(block_id)
    level = tree.height - 1
    while level > target_level:
        children_are_leaves = level == 1 and target_level == 0
        child_idx = _choose_subtree(node, rect, children_are_leaves)
        path.append((block_id, node, child_idx))
        block_id = node.frame().ptrs.item(child_idx)
        node = tree.read_node(block_id)
        level -= 1

    node.add(rect, pointer)
    _overflow_treatment(tree, path, block_id, node, target_level, reinserted_levels)


def _overflow_treatment(
    tree: RTree,
    path: list[tuple[int, Node, int]],
    block_id: int,
    node: Node,
    level: int,
    reinserted_levels: set[int],
) -> None:
    """Write back, handling overflow by reinsertion or split (bottom-up).

    No node on the path ever empties: an overfull node holds B + 1 >= 3
    entries, reinsertion evicts max(1, floor(0.3 (B + 1))) <= B - 1 of
    them, and a split leaves ``min_fill`` >= 1 on each side.
    """
    split_sibling: tuple[Rect, int] | None = None
    to_reinsert: list[Entry] = []

    if (
        len(node) > tree.fanout
        and level not in reinserted_levels
        and block_id != tree.root_id
    ):
        # Forced reinsertion: evict the entries farthest from the
        # node's center (once per level per insertion).
        reinserted_levels.add(level)
        center = node.mbr().center()
        frame = node.frame()
        rects = rects_of(frame.lo, frame.hi)

        def distance(k: int) -> float:
            c = rects[k].center()
            return sum((a - b) ** 2 for a, b in zip(c, center))

        rows = sorted(range(len(rects)), key=distance)
        count = max(1, int(len(rows) * REINSERT_FRACTION))
        to_reinsert = node.split_off(rows[:-count], rows[-count:]).entries
    else:
        split_sibling = split_overfull(tree, node, rstar_split)

    tree.write_node(block_id, node)
    child_mbr = node.mbr()
    child_id = block_id

    for parent_id, parent, child_idx in reversed(path):
        parent.replace(child_idx, child_mbr, child_id)
        if split_sibling is not None:
            parent.add(*split_sibling)
        split_sibling = split_overfull(tree, parent, rstar_split)
        tree.write_node(parent_id, parent)
        child_mbr = parent.mbr()
        child_id = parent_id

    if split_sibling is not None:
        grow_root(tree, split_sibling)

    for rect, pointer in to_reinsert:
        _insert(tree, rect, pointer, level, reinserted_levels)
