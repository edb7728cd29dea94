"""The R-tree handle.

An :class:`RTree` owns a root block id in a
:class:`~repro.iomodel.blockstore.BlockStore` plus the bookkeeping every
variant shares: dimension, fan-out (derived from the block size the same
way the paper derives 113 from 4 KB blocks), height, entry count, and the
object table mapping leaf pointers back to caller values (the simulated
"pointer to the original data").

The handle deliberately knows nothing about how it was built — a PR-tree, a
packed Hilbert tree and a dynamically grown Guttman tree are all just
``RTree`` instances with different shapes, queried by the same engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.geometry.rect import Rect
from repro.iomodel.store import BlockId, BlockStoreProtocol
from repro.rtree.node import Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.rtree.query import Matches


class RTree:
    """A disk-resident R-tree over a block store.

    Parameters
    ----------
    store:
        Any :class:`~repro.iomodel.store.BlockStoreProtocol` backend
        whose payloads are decoded :class:`~repro.rtree.node.Node`
        objects — the in-memory simulated disk or the lazily decoding
        paged store in :mod:`repro.storage`.
    root_id:
        Block id of the root node.
    dim:
        Spatial dimension of the indexed rectangles.
    fanout:
        Maximum entries per node (the paper's B; 113 for 4 KB blocks in 2D).
    height:
        Number of levels; 1 means the root is a leaf.
    size:
        Number of data rectangles stored.
    min_fill:
        Minimum entries per non-root node enforced by the *dynamic* update
        algorithms (Guttman's m); bulk loaders may pack fuller.
    """

    def __init__(
        self,
        store: BlockStoreProtocol,
        root_id: BlockId,
        dim: int,
        fanout: int,
        height: int,
        size: int,
        min_fill: int | None = None,
    ) -> None:
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.store = store
        self.root_id = root_id
        self.dim = dim
        self.fanout = fanout
        self.height = height
        self.size = size
        self.min_fill = min_fill if min_fill is not None else max(1, (fanout * 2) // 5)
        self.objects: dict[int, Any] = {}
        self._next_oid = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def create_empty(
        cls, store: BlockStoreProtocol, dim: int = 2, fanout: int = 32
    ) -> "RTree":
        """A tree with a single empty leaf root, ready for inserts."""
        root_id = store.allocate(Node(is_leaf=True))
        return cls(store, root_id, dim=dim, fanout=fanout, height=1, size=0)

    def register_object(self, value: Any) -> int:
        """Assign an object id for a caller value (leaf pointer target)."""
        oid = self._next_oid
        self._next_oid = oid + 1
        self.objects[oid] = value
        return oid

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------

    def read_node(self, block_id: BlockId) -> Node:
        """Read a node, counting one I/O."""
        return self.store.read(block_id)

    def peek_node(self, block_id: BlockId) -> Node:
        """Read a node without I/O accounting (validation/debugging)."""
        return self.store.peek(block_id)

    def write_node(self, block_id: BlockId, node: Node) -> None:
        """Write a node back, counting one I/O."""
        self.store.write(block_id, node)

    def root(self) -> Node:
        """The root node (uncounted; the paper pins the root in memory)."""
        return self.store.peek(self.root_id)

    # ------------------------------------------------------------------
    # Whole-tree iteration (uncounted; used by validation and tests)
    # ------------------------------------------------------------------

    def iter_nodes(self) -> Iterator[tuple[BlockId, Node, int]]:
        """Yield ``(block_id, node, depth)`` in preorder without I/O cost."""
        stack: list[tuple[BlockId, int]] = [(self.root_id, 0)]
        while stack:
            block_id, depth = stack.pop()
            node = self.store.peek(block_id)
            yield block_id, node, depth
            if not node.is_leaf:
                for child_id in node.child_ids():
                    stack.append((child_id, depth + 1))

    def iter_leaves(self) -> Iterator[tuple[BlockId, Node]]:
        """Yield all leaf nodes without I/O cost."""
        for block_id, node, _ in self.iter_nodes():
            if node.is_leaf:
                yield block_id, node

    def all_data(self) -> Iterator[tuple[Rect, Any]]:
        """Yield every stored (rectangle, value) pair without I/O cost."""
        for _, leaf in self.iter_leaves():
            for rect, oid in leaf.entries:
                yield rect, self.objects.get(oid)

    def node_count(self) -> int:
        """Total nodes in the tree."""
        return sum(1 for _ in self.iter_nodes())

    def leaf_count(self) -> int:
        """Total leaf nodes — the denominator of the paper's Table 1
        "% of the R-tree visited" row."""
        return sum(1 for _ in self.iter_leaves())

    # ------------------------------------------------------------------
    # Convenience updating (the standard dynamic algorithms)
    # ------------------------------------------------------------------

    def insert(self, rect: Rect, value: Any) -> int:
        """Insert a data rectangle (Guttman); returns the object id.

        Delegates to :func:`repro.rtree.update.insert`; use that module
        directly to choose a different node splitter.
        """
        from repro.rtree.update import insert

        return insert(self, rect, value)

    def delete(self, rect: Rect, value: Any) -> bool:
        """Delete one data rectangle equal to ``rect`` with ``value``.

        Delegates to :func:`repro.rtree.update.delete`; returns True
        when a matching entry was found and removed.
        """
        from repro.rtree.update import delete

        return delete(self, rect, value)

    # ------------------------------------------------------------------
    # Convenience querying
    # ------------------------------------------------------------------

    def query(self, window: Rect) -> Matches:
        """One-off window query returning ``(rect, value)`` matches.

        For measured experiments use :class:`repro.rtree.query.QueryEngine`
        directly — it exposes I/O statistics and reuses its cache across a
        query workload the way the paper's setup does.
        """
        from repro.rtree.query import QueryEngine

        matches, _ = QueryEngine(self).query(window)
        return matches

    def count_query(self, window: Rect) -> int:
        """Number of stored rectangles intersecting ``window``."""
        return len(self.query(window))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"RTree(dim={self.dim}, fanout={self.fanout}, height={self.height}, "
            f"size={self.size})"
        )
