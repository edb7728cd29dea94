"""Standard dynamic R-tree updates (Guttman 1984).

The paper: "Guttman gave several algorithms for updating an R-tree in
O(log_B N) I/Os using B-tree-like algorithms" and "after bulk-loading, a
PR-tree can be updated in O(log_B N) I/Os using the standard R-tree
updating algorithms, but without maintaining its query efficiency"
(Sections 1.1, 1.2).  This module is those standard algorithms:

* **Insert** — ChooseLeaf by least enlargement, split on overflow
  (quadratic by default), AdjustTree upward, root split grows the tree.
* **Delete** — FindLeaf, remove, CondenseTree (underfull nodes are
  dissolved and their entries reinserted at the correct level), root
  collapse shrinks the tree.

All node reads/writes go through the tree's counted accessors, so update
I/O cost is measurable just like query cost.

Every per-node decision runs on the node's frame through
:mod:`repro.geometry.kernels` — ChooseLeaf (``frame_enlargement`` plus
the area tie-break), FindLeaf (``frame_containing_rect`` /
``frame_equal_to``), the quadratic split, and the bounding boxes
AdjustTree/CondenseTree propagate — and every edit goes through
:class:`~repro.rtree.node.Node`'s whole-node methods, so a page decoded
from disk is updated without its entry list ever existing.  Choices,
tie-breaks and floats are those of the entry-at-a-time formulation
(kept verbatim as the oracle in
``tests/integration/test_vectorized_differential.py``): the same
operations produce the same tree, block for block.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.rtree.node import Entry, Node
from repro.rtree.split import quadratic_split
from repro.rtree.tree import RTree

Splitter = Callable[[list[Entry], int], tuple[list[Entry], list[Entry]]]

#: One step of a root-to-node path: (block id, node, chosen child index).
PathStep = tuple[int, Node, int]


# ----------------------------------------------------------------------
# Insertion
# ----------------------------------------------------------------------


def insert(
    tree: RTree, rect: Rect, value: Any, splitter: Splitter = quadratic_split
) -> int:
    """Insert a data rectangle; returns the assigned object id."""
    if rect.dim != tree.dim:
        raise ValueError(f"rect has dim {rect.dim}, tree indexes dim {tree.dim}")
    oid = tree.register_object(value)
    _insert_at_level(tree, rect, oid, target_level=0, splitter=splitter)
    tree.size += 1
    return oid


def _choose_subtree(node: Node, rect: Rect) -> int:
    """Index of the child entry needing least enlargement (ties: area)."""
    frame = node.frame()
    growth = kernels.frame_enlargement(frame.lo, frame.hi, rect.lo, rect.hi)
    least = min(growth)
    ties = [idx for idx, grown in enumerate(growth) if grown == least]
    if len(ties) == 1:
        return ties[0]
    areas = kernels.frame_areas(frame.lo, frame.hi)
    return min(ties, key=areas.__getitem__)


def _insert_at_level(
    tree: RTree, rect: Rect, pointer: int, target_level: int, splitter: Splitter
) -> None:
    """Insert an entry into a node at ``target_level`` (0 = leaves).

    Used both for data inserts (level 0) and for CondenseTree's
    reinsertion of orphaned subtrees at their original level.
    """
    path: list[PathStep] = []
    block_id = tree.root_id
    node = tree.read_node(block_id)
    level = tree.height - 1
    while level > target_level:
        child_idx = _choose_subtree(node, rect)
        path.append((block_id, node, child_idx))
        block_id = node.frame().ptrs[child_idx]
        node = tree.read_node(block_id)
        level -= 1

    node.add(rect, pointer)
    _propagate_up(tree, path, block_id, node, rect, splitter)


def _split_overfull(
    tree: RTree, node: Node, splitter: Splitter
) -> tuple[Rect, int] | None:
    """Split ``node`` if it overflowed; returns the new sibling's entry.

    The default splitter runs as a whole-node kernel on the frame and
    hands back row lists, so a decoded page splits without its entries
    ever materializing; any other splitter gets the entry list it was
    written against.
    """
    if len(node) <= tree.fanout:
        return None
    if splitter is quadratic_split:
        frame = node.frame()
        keep, move = kernels.quadratic_split(frame.lo, frame.hi, tree.min_fill)
        sibling = node.split_off(keep, move)
    else:
        group_a, group_b = splitter(node.entries, tree.min_fill)
        node.entries = group_a
        sibling = Node(node.is_leaf, group_b)
    return sibling.mbr(), tree.store.allocate(sibling)


def _propagate_up(
    tree: RTree,
    path: list[PathStep],
    block_id: int,
    node: Node,
    rect: Rect,
    splitter: Splitter,
) -> None:
    """AdjustTree: write back, split overflowing nodes, grow the root.

    ``rect`` is the box just added to ``node``.  Above a node that did
    not split, the parent entry only has to grow to cover ``rect``;
    above one that did, it is recomputed from what the node kept.
    """
    sibling = _split_overfull(tree, node, splitter)
    tree.write_node(block_id, node)
    child_id, child = block_id, node

    for parent_id, parent, child_idx in reversed(path):
        if sibling is None:
            parent.extend_entry(child_idx, rect)
        else:
            parent.replace(child_idx, child.mbr(), child_id)
            parent.add(*sibling)
        sibling = _split_overfull(tree, parent, splitter)
        tree.write_node(parent_id, parent)
        child_id, child = parent_id, parent

    if sibling is not None:
        # The root itself split: grow the tree by one level.
        old_root = tree.store.peek(tree.root_id)
        new_root = Node(
            is_leaf=False,
            entries=[(old_root.mbr(), tree.root_id), sibling],
        )
        tree.root_id = tree.store.allocate(new_root)
        tree.height += 1


# ----------------------------------------------------------------------
# Deletion
# ----------------------------------------------------------------------


def delete(tree: RTree, rect: Rect, value: Any) -> bool:
    """Delete one data rectangle equal to ``rect`` whose value matches.

    Returns True when an entry was found and removed.  Matching compares
    the stored value by equality; passing the value returned at insert
    time (or by a query) deletes that entry.  When several stored
    entries carry the same ``(rect, value)`` pair, exactly one is
    removed per call — the first match in the deterministic
    find-leaf traversal order.
    """
    found = _find_leaf(tree, rect, value)
    if found is None:
        return False
    path, leaf_id, leaf, entry_idx = found
    oid = leaf.frame().ptrs[entry_idx]
    leaf.remove_at(entry_idx)
    _condense_tree(tree, path, leaf_id, leaf)
    # Bookkeeping last: a condense that fails must not leave the size
    # or object table claiming the entry was removed.
    tree.objects.pop(oid, None)
    tree.size -= 1
    return True


def _find_leaf(
    tree: RTree, rect: Rect, value: Any
) -> tuple[list[PathStep], int, Node, int] | None:
    """Locate a leaf containing ``(rect, value)``.

    Returns ``(path, leaf_block_id, leaf, entry_index)`` where path lists
    ``(block_id, node, child_index)`` from the root down.  Depth-first
    search over all subtrees whose boxes contain ``rect``.  Pending
    subtrees share their ancestors through parent links; only the path
    to the leaf that matched is ever built.
    """
    q_lo = kernels.as_coords(rect.lo)
    q_hi = kernels.as_coords(rect.hi)
    stack: list[tuple[int, tuple | None]] = [(tree.root_id, None)]
    while stack:
        block_id, link = stack.pop()
        node = tree.read_node(block_id)
        frame = node.frame()
        ptrs = frame.ptrs
        if frame.is_leaf:
            for idx in kernels.frame_equal_to(frame.lo, frame.hi, q_lo, q_hi):
                if tree.objects.get(ptrs[idx]) == value:
                    path: list[PathStep] = []
                    while link is not None:
                        parent_id, parent, child_idx, link = link
                        path.append((parent_id, parent, child_idx))
                    path.reverse()
                    return path, block_id, node, idx
        else:
            for child_idx in kernels.frame_containing_rect(
                frame.lo, frame.hi, q_lo, q_hi
            ):
                stack.append(
                    (ptrs[child_idx], (block_id, node, child_idx, link))
                )
    return None


def _condense_tree(
    tree: RTree, path: list[PathStep], block_id: int, node: Node
) -> None:
    """CondenseTree: dissolve underfull nodes, tighten boxes, reinsert."""
    # (entries, level) pairs orphaned by eliminated nodes.
    orphans: list[tuple[list[Entry], int]] = []
    level = 0
    current_id, current = block_id, node

    for parent_id, parent, child_idx in reversed(path):
        if len(current) < tree.min_fill:
            parent.remove_at(child_idx)
            if len(current):
                orphans.append((list(current.entries), level))
            tree.store.free(current_id)
        else:
            parent.replace(child_idx, current.mbr(), current_id)
            tree.write_node(current_id, current)
        current_id, current = parent_id, parent
        level += 1

    tree.write_node(current_id, current)

    # An internal root can be left empty when its entire remaining
    # subtree dissolved; restart from an empty leaf root so reinsertion
    # has somewhere to descend.
    root = tree.store.peek(tree.root_id)
    if not root.is_leaf and not len(root):
        tree.store.free(tree.root_id)
        tree.root_id = tree.store.allocate(Node(is_leaf=True))
        tree.height = 1

    # Reinsert orphans at their original level (leaf entries at level 0,
    # subtree entries higher up) *before* any root collapse, while
    # tree.height still matches the levels the orphans were recorded
    # against — collapsing first can shrink the tree below an orphan's
    # level and graft a subtree pointer at the wrong depth, corrupting
    # the tree.  Reinsertion can itself split nodes and grow the root.
    for entries, entry_level in orphans:
        for rect, pointer in entries:
            _reinsert(tree, rect, pointer, entry_level)

    # Root collapse: an internal root with one child is replaced by it.
    while True:
        root = tree.store.peek(tree.root_id)
        if root.is_leaf or len(root) != 1:
            break
        old_root_id = tree.root_id
        tree.root_id = root.child_ids()[0]
        tree.store.free(old_root_id)
        tree.height -= 1


def _reinsert(tree: RTree, rect: Rect, pointer: int, level: int) -> None:
    """Reinsert one orphaned entry at ``level`` (0 = leaf entries).

    When the tree is shorter than the orphan's level (the root chain
    above it collapsed into an empty leaf), the orphan subtree cannot be
    grafted whole; dissolve it into its children and reinsert those one
    level further down instead.
    """
    if level <= tree.height - 1:
        _insert_at_level(tree, rect, pointer, level, quadratic_split)
        return
    node = tree.read_node(pointer)
    children = list(node.entries)
    tree.store.free(pointer)
    for child_rect, child_pointer in children:
        _reinsert(tree, child_rect, child_pointer, level - 1)
