"""Structural invariant checks and space-utilization statistics.

The paper's R-tree definition (Section 1.1) pins down the invariants every
variant must satisfy: a height-balanced multiway tree with all leaves on
the same level, Θ(B) entries per node, and each internal entry holding "a
minimal bounding box covering all rectangles in the leaves of the subtree
rooted in that child".  Bulk loaders additionally target high fill: "most
bulk-loading algorithms are capable of obtaining over 95% space
utilization", and Section 3.3 reports above 99 % for all four variants.

:func:`validate_rtree` walks a tree and raises
:class:`RTreeInvariantError` on the first violation; integration tests
run it on every tree any builder produces.  On success it returns a
structured :class:`ValidationReport` — per-level node/entry counts and
the containment-check tally, the structural counterpart of the
tree-quality analytics in :mod:`repro.obs.health`.  The walk reads strictly via the quiet peek
path (``quiet_peek`` on paged stores), so validating an index never
perturbs :class:`~repro.storage.paged.PageCacheStats` or the ghost-LRU
tracker.  :func:`utilization` measures fill.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.rect import mbr_of
from repro.rtree.tree import RTree


class RTreeInvariantError(AssertionError):
    """A structural R-tree invariant does not hold."""


@dataclass(frozen=True)
class LevelCounts:
    """Node/entry tally of one tree level (0 = root)."""

    level: int
    nodes: int
    entries: int
    leaf: bool


@dataclass(frozen=True)
class ValidationReport:
    """What a successful :func:`validate_rtree` walk established.

    ``mbr_checks`` counts the internal entries whose bounding box was
    verified to be the *exact* union of the child's entries — on a
    valid tree this equals the number of non-root nodes.
    """

    height: int
    size: int
    levels: tuple[LevelCounts, ...]
    mbr_checks: int

    @property
    def nodes(self) -> int:
        """Total nodes walked."""
        return sum(l.nodes for l in self.levels)

    @property
    def entries(self) -> int:
        """Total entries (directory and data) walked."""
        return sum(l.entries for l in self.levels)


def _quiet_reader(tree: RTree):
    # Paged stores expose a strictly side-effect-free read; in-memory
    # stores' peek is already silent.
    return getattr(tree.store, "quiet_peek", None) or tree.peek_node


def validate_rtree(
    tree: RTree,
    expect_size: int | None = None,
    min_node_fill: int | None = None,
) -> ValidationReport:
    """Check all structural invariants; raise on the first violation.

    Parameters
    ----------
    tree:
        Any RTree (bulk-loaded or dynamically built).
    expect_size:
        When given, additionally require exactly this many data entries.
    min_node_fill:
        Minimum entries per non-root node to enforce.  Defaults to 1
        (structural sanity); pass ``tree.min_fill`` to check Guttman
        maintenance or a higher bound for packed trees.

    Returns
    -------
    ValidationReport
        Per-level counts of the successful walk (the health CLI's
        structural summary); raises before returning on any violation.
    """
    fill_floor = 1 if min_node_fill is None else min_node_fill
    read = _quiet_reader(tree)
    leaf_depths: set[int] = set()
    data_count = 0
    mbr_checks = 0
    seen_blocks: set[int] = set()
    level_nodes: dict[int, int] = {}
    level_entries: dict[int, int] = {}
    level_leaf: dict[int, bool] = {}

    def walk(block_id: int, depth: int, node=None) -> None:
        nonlocal data_count, mbr_checks
        if block_id in seen_blocks:
            raise RTreeInvariantError(
                f"block {block_id} reachable twice (tree is not a tree)"
            )
        seen_blocks.add(block_id)
        if node is None:
            node = read(block_id)
        is_root = block_id == tree.root_id
        level_nodes[depth] = level_nodes.get(depth, 0) + 1
        level_entries[depth] = level_entries.get(depth, 0) + len(node.entries)
        level_leaf[depth] = node.is_leaf
        if len(node.entries) > tree.fanout:
            raise RTreeInvariantError(
                f"node {block_id} has {len(node.entries)} entries, "
                f"fanout is {tree.fanout}"
            )
        if not is_root and len(node.entries) < fill_floor:
            raise RTreeInvariantError(
                f"non-root node {block_id} has only {len(node.entries)} "
                f"entries (minimum {fill_floor})"
            )
        for rect, _ in node.entries:
            if rect.dim != tree.dim:
                raise RTreeInvariantError(
                    f"node {block_id} holds a rect of dim {rect.dim}, "
                    f"tree dim is {tree.dim}"
                )
        if node.is_leaf:
            leaf_depths.add(depth)
            data_count += len(node.entries)
            for _, oid in node.entries:
                if oid not in tree.objects:
                    raise RTreeInvariantError(
                        f"leaf {block_id} points at unknown object id {oid}"
                    )
        else:
            if not node.entries and not is_root:
                raise RTreeInvariantError(f"empty internal node {block_id}")
            for rect, child_id in node.entries:
                if child_id not in tree.store:
                    raise RTreeInvariantError(
                        f"node {block_id} points at freed block {child_id}"
                    )
                child = read(child_id)
                if not child.entries:
                    raise RTreeInvariantError(
                        f"child {child_id} of node {block_id} is empty"
                    )
                exact = mbr_of(r for r, _ in child.entries)
                if exact != rect:
                    raise RTreeInvariantError(
                        f"entry box for child {child_id} is {rect}, exact "
                        f"union of the child's entries is {exact}"
                    )
                mbr_checks += 1
                walk(child_id, depth + 1, child)

    walk(tree.root_id, 0)

    if len(leaf_depths) > 1:
        raise RTreeInvariantError(
            f"leaves found on multiple levels: {sorted(leaf_depths)}"
        )
    if leaf_depths and tree.height != next(iter(leaf_depths)) + 1:
        raise RTreeInvariantError(
            f"tree.height is {tree.height} but leaves sit at depth "
            f"{next(iter(leaf_depths))}"
        )
    if tree.size != data_count:
        raise RTreeInvariantError(
            f"tree.size is {tree.size} but {data_count} data entries found"
        )
    if expect_size is not None and data_count != expect_size:
        raise RTreeInvariantError(
            f"expected {expect_size} data entries, found {data_count}"
        )
    return ValidationReport(
        height=tree.height,
        size=data_count,
        levels=tuple(
            LevelCounts(
                level=depth,
                nodes=level_nodes[depth],
                entries=level_entries[depth],
                leaf=level_leaf[depth],
            )
            for depth in sorted(level_nodes)
        ),
        mbr_checks=mbr_checks,
    )


@dataclass(frozen=True)
class Utilization:
    """Fill statistics for one tree."""

    leaf_nodes: int
    internal_nodes: int
    data_entries: int
    leaf_fill: float
    overall_fill: float

    @property
    def nodes(self) -> int:
        """Total nodes."""
        return self.leaf_nodes + self.internal_nodes


def utilization(tree: RTree) -> Utilization:
    """Space utilization: entries stored versus slots available.

    ``leaf_fill`` is the quantity the paper reports ("space utilization
    above 99%"): data entries divided by leaf capacity.
    """
    leaf_nodes = 0
    internal_nodes = 0
    data_entries = 0
    total_entries = 0
    for block_id, node, _ in tree.iter_nodes():
        total_entries += len(node.entries)
        if node.is_leaf:
            leaf_nodes += 1
            data_entries += len(node.entries)
        else:
            internal_nodes += 1
    leaf_capacity = leaf_nodes * tree.fanout
    total_capacity = (leaf_nodes + internal_nodes) * tree.fanout
    return Utilization(
        leaf_nodes=leaf_nodes,
        internal_nodes=internal_nodes,
        data_entries=data_entries,
        leaf_fill=data_entries / leaf_capacity if leaf_capacity else 0.0,
        overall_fill=total_entries / total_capacity if total_capacity else 0.0,
    )
