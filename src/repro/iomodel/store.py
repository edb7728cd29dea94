"""The block-store protocol every disk backend implements.

The simulator started with a single concrete store — the in-memory
:class:`~repro.iomodel.blockstore.BlockStore` holding decoded payloads —
but the trees, caches and query engines only ever touch the small
surface captured here: allocate / read / read_many / write / free /
peek / quiet_peek, a write ``generation``, capacity introspection, with an attached
:class:`~repro.iomodel.counters.IOCounters` recording every counted
access.  Pinning that surface down as a :class:`typing.Protocol` lets
the same tree handles and engines run over any backend:

* :class:`~repro.iomodel.blockstore.BlockStore` — simulated disk,
  payloads are decoded Python objects;
* :class:`~repro.storage.filestore.FileBlockStore` — a real file,
  payloads are raw ``bytes`` of exactly one block;
* :class:`~repro.storage.paged.PagedNodeStore` — a lazy node-decoding
  layer over a byte store, payloads are decoded
  :class:`~repro.rtree.node.Node` objects again.

What a payload *is* depends on the backend; what every backend promises
is the accounting contract: ``read`` and ``write`` record exactly one
I/O on :attr:`counters` per call, ``allocate`` records the write that
materializes the block, and ``peek`` is free (validation and debugging
walk structures without polluting experiment counters).  The query engines reach a store only through
``read_many``, which counts what a ``peek`` then a ``read`` of each id
would: one call per descent, or per node for kNN and the join.
"""

from __future__ import annotations

from typing import Any, Iterator, Protocol, Sequence, runtime_checkable

from repro.iomodel.counters import IOCounters

#: Block addresses are plain integers.
BlockId = int


@runtime_checkable
class BlockStoreProtocol(Protocol):
    """Structural interface of a fixed-size block store.

    ``runtime_checkable`` so backends can be asserted against it in
    tests (``isinstance(store, BlockStoreProtocol)``); method signatures
    are still only checked statically, as usual for protocols.
    """

    block_size: int
    counters: IOCounters
    #: Bumped by every allocate, write and free.  The node stores
    #: (:class:`NodeWriteLog`) also say which of those reshaped the
    #: tree and which internal nodes were rewritten, so a tree's level
    #: table follows the writes (:mod:`repro.rtree.levels`).
    generation: int

    def allocate(self, payload: Any = None) -> BlockId:
        """Allocate a block holding ``payload``, counting one write."""
        ...

    def free(self, block_id: BlockId) -> None:
        """Release a block (metadata only, no counted I/O)."""
        ...

    def read(self, block_id: BlockId) -> Any:
        """Read a block's payload, counting one I/O."""
        ...

    def read_many(
        self, block_ids: Sequence[BlockId], physical: dict | None = None
    ) -> list[Any]:
        """What a ``peek`` then a ``read`` of each id, in order, would
        return and count: the engines' only way to read a node.
        ``physical``, when given, maps each id to the page misses its
        access made (0 without a page cache)."""
        ...

    def write(self, block_id: BlockId, payload: Any) -> None:
        """Overwrite a block in place, counting one I/O."""
        ...

    def peek(self, block_id: BlockId) -> Any:
        """Read a block without counting I/O (validation/debugging)."""
        ...

    def quiet_peek(self, block_id: BlockId) -> Any:
        """:meth:`peek` that leaves no trace, not even in a page cache."""
        ...

    def __len__(self) -> int:
        """Number of live (allocated, not freed) blocks."""
        ...

    def __contains__(self, block_id: BlockId) -> bool:
        ...

    def block_ids(self) -> Iterator[BlockId]:
        """Iterate live block addresses in address order."""
        ...

    @property
    def allocated_ever(self) -> int:
        """Total blocks ever allocated (high-water address)."""
        ...

    def bytes_used(self) -> int:
        """Live blocks times block size — the disk footprint."""
        ...


class NodeWriteLog:
    """The write bookkeeping a node store keeps for the level table.

    Every ``allocate``, ``write`` and ``free`` moves :attr:`generation`.
    An ``allocate`` or ``free`` *reshapes* the store: it also sets
    :attr:`reshaped_at`, and a table built before it is rebuilt.  A
    ``write`` of an internal node (a payload whose ``is_leaf`` is
    false) is logged under its generation, so a table built after the
    last reshape patches exactly the nodes written since it was built
    (:meth:`internal_writes_since`).  The log holds each node once, at
    its latest write, and empties on every reshape: it never outgrows
    the store's internal nodes.  The in-memory
    :class:`~repro.iomodel.blockstore.BlockStore` and the paged
    :class:`~repro.storage.paged.PagedNodeStore` share it, so both
    follow writes alike.
    """

    def _init_write_log(self) -> None:
        self.generation = 0
        #: The generation of the last allocate or free.
        self.reshaped_at = 0
        self._internal_writes: dict[BlockId, int] = {}

    def _reshaped(self) -> None:
        """Log an allocate or free."""
        self.generation += 1
        self.reshaped_at = self.generation
        self._internal_writes.clear()

    def _wrote(self, block_id: BlockId, payload: Any) -> None:
        """Log a write of ``payload`` to ``block_id``."""
        self.generation += 1
        if not getattr(payload, "is_leaf", True):
            log = self._internal_writes
            log.pop(block_id, None)  # keep the log in generation order
            log[block_id] = self.generation

    def internal_writes_since(self, generation: int) -> list[BlockId]:
        """The internal nodes written after ``generation``, newest
        first; complete only when no allocate or free came after
        ``generation`` (``reshaped_at <= generation``)."""
        written = []
        for block_id, at in reversed(self._internal_writes.items()):
            if at <= generation:
                break
            written.append(block_id)
        return written
