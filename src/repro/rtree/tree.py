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

from collections.abc import Mapping, MutableMapping
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

from repro.geometry.rect import Rect
from repro.iomodel.store import BlockId, BlockStoreProtocol
from repro.rtree.levels import LevelStats, LevelTable
from repro.rtree.node import Node, rects_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.rtree.query import Matches


#: Object ids are what a leaf's 4-byte pointer field holds.
OID_LIMIT = 1 << 32


def _oid(key) -> int | None:
    """``key`` as an object id, or None when it is not one (a negative,
    too large or non-integer key)."""
    if isinstance(key, (int, np.integer)) and 0 <= key < OID_LIMIT:
        return int(key)
    return None


def _oid_column(keys: list):
    """``keys`` as an int64 column; ``ValueError`` names the first key
    that is not an object id."""
    ids = None
    kinds = set(map(type, keys))
    if all(issubclass(kind, (int, np.integer)) for kind in kinds):
        try:
            ids = np.fromiter(keys, dtype=np.int64, count=len(keys))
        except OverflowError:
            pass
    if ids is None or (
        len(ids) and (ids.min() < 0 or ids.max() >= OID_LIMIT)
    ):
        bad = next(key for key in keys if _oid(key) is None)
        raise ValueError(f"value key {bad!r} is not an object id")
    return ids


class ObjectColumn(MutableMapping):
    """Object id -> caller value, held as one object column indexed by id.

    A mapping like the dict it replaces (``get``, ``pop``, ``in``,
    ``len``, ``update``, ``dict(column)``), plus :meth:`take`, the one
    gather a query result resolves its values with.  Keys are object ids:
    ints in ``[0, 2**32)``; storing any other key raises ``ValueError``
    naming it.  The column is dense, so it holds one slot per id up to
    the highest stored one; an id without a value reads as ``None``.
    """

    __slots__ = ("_values", "_present")

    def __init__(self, values: Mapping[int, Any] | None = None) -> None:
        # One slot past the last id always holds None: ``take`` clips
        # ids beyond the column onto it.
        self._values = np.full(1, None, dtype=object)
        self._present = np.zeros(0, dtype=bool)
        if values:
            self.update(values)

    def _reserve(self, size: int) -> None:
        """Room for ids below ``size`` (capacity doubles)."""
        capacity = len(self._present)
        if size <= capacity:
            return
        capacity = max(size, 2 * capacity)
        grown = np.full(capacity + 1, None, dtype=object)
        grown[: len(self._present)] = self._values[:-1]
        present = np.zeros(capacity, dtype=bool)
        present[: len(self._present)] = self._present
        self._values, self._present = grown, present

    def put(self, ids: Sequence[int], values: Iterable[Any]) -> None:
        """Store ``values[i]`` under ``ids[i]``, in one assignment.

        ``ids`` must be object ids (a bulk loader's fresh range, or keys
        :meth:`update` has checked).
        """
        ids = np.asarray(ids, dtype=np.int64)
        if not len(ids):
            return
        self._reserve(int(ids.max()) + 1)
        # fromiter keeps a tuple or list value one item.
        self._values[ids] = np.fromiter(values, dtype=object, count=len(ids))
        self._present[ids] = True

    def update(self, other=(), /, **kwargs) -> None:
        """``dict.update``; a mapping is stored in one :meth:`put` once
        every key is checked."""
        if isinstance(other, Mapping) and not kwargs:
            self.put(_oid_column(list(other.keys())), other.values())
        else:
            super().update(other, **kwargs)

    def take(self, ids: Sequence[int]) -> list[Any]:
        """The values of object ids ``ids``, in order (``None`` where
        there is none): one vectorised gather."""
        try:
            return self._values[ids].tolist()
        except IndexError:  # an id past the column reads the None slot
            return self._values.take(ids, mode="clip").tolist()

    def _stored(self, oid) -> int | None:
        """``oid``'s slot when it holds a value, else None."""
        key = oid if type(oid) is int else _oid(oid)
        if key is None or not 0 <= key < len(self._present):
            return None
        return key if self._present[key] else None

    def get(self, oid, default=None):
        key = self._stored(oid)
        return default if key is None else self._values[key]

    def __getitem__(self, oid):
        key = self._stored(oid)
        if key is None:
            raise KeyError(oid)
        return self._values[key]

    def __setitem__(self, oid, value) -> None:
        key = _oid(oid)
        if key is None:
            raise ValueError(f"value key {oid!r} is not an object id")
        self._reserve(key + 1)
        self._values[key] = value
        self._present[key] = True

    def __delitem__(self, oid) -> None:
        key = self._stored(oid)
        if key is None:
            raise KeyError(oid)
        self._values[key] = None
        self._present[key] = False

    def __contains__(self, oid) -> bool:
        return self._stored(oid) is not None

    def __iter__(self) -> Iterator[int]:
        return iter(self._present.nonzero()[0].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._present))

    def __repr__(self) -> str:
        return f"ObjectColumn({len(self)} values)"


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
        self.objects: ObjectColumn = ObjectColumn()
        self._next_oid = 0
        # The pinned internal levels (repro.rtree.levels.levels_of).
        self._levels = None
        self.level_stats = LevelStats()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def level_table(self) -> LevelTable:
        """A fresh table of this tree's internal levels (what
        :func:`~repro.rtree.levels.levels_of` pins)."""
        return LevelTable(self)

    def still_paid(
        self, paid: set[int], old: LevelTable, new: LevelTable
    ) -> set[int]:
        """The internal reads an engine paid against ``old`` that still
        hold against ``new``, the table rebuilt after it: none, as a
        freed id may come back as another node."""
        return set()

    def follow_writes(self, table: LevelTable) -> bool:
        """Patch into this tree's pinned ``table`` the internal nodes the
        store logged as written since the table's generation
        (:meth:`~repro.rtree.levels.LevelTable.patch`).  False — rebuild
        — when an allocate or free came since, or a node's child
        pointers changed."""
        store = self.store
        if store.reshaped_at > table.generation:
            return False
        written = {}
        for block_id in store.internal_writes_since(table.generation):
            old = table.frames.get(block_id)
            if old is not None:  # a node of this tree
                frame = store.quiet_peek(block_id).frame()
                if frame is not old:  # not written back unchanged
                    written[block_id] = frame
        return table.patch(written)

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

    def register_objects(self, values: Sequence[Any]) -> range:
        """Assign consecutive object ids to ``values`` in one column
        assignment (a bulk loader's whole input)."""
        start = self._next_oid
        self._next_oid = start + len(values)
        self.objects.put(np.arange(start, self._next_oid), values)
        return range(start, self._next_oid)

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
            frame = leaf.frame()
            values = self.objects.take(frame.ptrs)
            yield from zip(rects_of(frame.lo, frame.hi), values)

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
