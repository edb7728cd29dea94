"""An in-memory simulated disk of fixed-size blocks.

A :class:`BlockStore` plays the role of the paper's 36 GB SCSI disk: a flat
address space of 4 KB blocks holding R-tree nodes, stream pages of input
rectangles, and temporary files of the external algorithms.  Payloads are
kept as Python objects (decoded nodes / record lists) — what is *simulated*
is the access pattern and its cost, which the attached
:class:`~repro.iomodel.counters.IOCounters` records on every read and write.

Blocks are allocated in increasing address order, so a freshly written
stream occupies consecutive addresses and reads back sequentially — exactly
the property the paper relies on when it notes that bulk loading is
dominated by sequential I/O.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.iomodel.counters import IOCounters
from repro.iomodel.store import NodeWriteLog
from repro.obs.tap import active_tap

#: Block addresses are plain integers.
BlockId = int

#: The paper's disk block size.
DEFAULT_BLOCK_SIZE = 4096


class FreedBlockError(KeyError):
    """A freed block was freed again or accessed after being freed.

    Distinct from the plain ``KeyError`` raised for never-allocated
    addresses: a dangling pointer into recycled space is a structural
    bug (a real disk would silently return stale bytes), while an
    out-of-range address is usually a caller arithmetic bug.  Subclasses
    ``KeyError`` so existing "block is not allocated" handlers keep
    working.
    """


class BlockStore(NodeWriteLog):
    """Simulated disk: allocate, read, write and free fixed-size blocks.

    Parameters
    ----------
    block_size:
        Bytes per block; informational (capacity calculations live in
        :mod:`repro.iomodel.codec`), defaults to the paper's 4 KB.
    counters:
        Shared I/O counters; a fresh set is created when omitted.

    Notes
    -----
    Reading an unallocated or freed block raises ``KeyError`` — catching
    dangling child pointers early is worth more than faithfully simulating
    garbage reads.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        counters: IOCounters | None = None,
    ) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        self.counters = counters if counters is not None else IOCounters()
        self._blocks: dict[BlockId, Any] = {}
        self._freed: set[BlockId] = set()
        self._next_id: BlockId = 0
        self._init_write_log()  # what the level table follows

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, payload: Any = None) -> BlockId:
        """Allocate the next block address and write ``payload`` to it."""
        block_id = self._next_id
        self._next_id += 1
        self._blocks[block_id] = payload
        self._reshaped()
        self.counters.record_write(block_id)
        tap = active_tap()
        if tap is not None:
            tap.writes += 1
        return block_id

    def free(self, block_id: BlockId) -> None:
        """Release a block.  Freeing is metadata-only and costs no I/O.

        Raises :class:`FreedBlockError` on a double free and ``KeyError``
        for an address that was never allocated.
        """
        if block_id in self._freed:
            raise FreedBlockError(f"double free of block {block_id}")
        if block_id not in self._blocks:
            raise KeyError(f"block {block_id} is not allocated")
        del self._blocks[block_id]
        self._freed.add(block_id)
        self._reshaped()

    def _check_live(self, block_id: BlockId) -> None:
        if block_id in self._freed:
            raise FreedBlockError(
                f"block {block_id} was freed (read-after-free)"
            )
        if block_id not in self._blocks:
            raise KeyError(f"block {block_id} is not allocated")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def read(self, block_id: BlockId) -> Any:
        """Read a block's payload, counting one I/O."""
        self._check_live(block_id)
        self.counters.record_read(block_id)
        tap = active_tap()
        if tap is not None:
            tap.reads += 1
        return self._blocks[block_id]

    def write(self, block_id: BlockId, payload: Any) -> None:
        """Overwrite a block in place, counting one I/O."""
        self._check_live(block_id)
        self._blocks[block_id] = payload
        self._wrote(block_id, payload)
        self.counters.record_write(block_id)
        tap = active_tap()
        if tap is not None:
            tap.writes += 1

    def peek(self, block_id: BlockId) -> Any:
        """Read a block *without* counting I/O.

        For validation and debugging only — tree-invariant checkers walk
        the whole structure without polluting experiment counters.
        """
        self._check_live(block_id)
        return self._blocks[block_id]

    #: :meth:`peek` as observers (the level table, validation) call it.
    quiet_peek = peek

    def read_many(self, block_ids, physical: dict | None = None) -> list[Any]:
        """A :meth:`peek` then a :meth:`read` of each id, in order; with
        no page cache, ``physical`` records no misses."""
        payloads = []
        for block_id in block_ids:
            self.peek(block_id)
            payloads.append(self.read(block_id))
        if physical is not None:
            physical.update(dict.fromkeys(block_ids, 0))
        return payloads

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of live (allocated, not freed) blocks."""
        return len(self._blocks)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def block_ids(self) -> Iterator[BlockId]:
        """Iterate live block addresses in allocation order."""
        return iter(sorted(self._blocks))

    @property
    def allocated_ever(self) -> int:
        """Total blocks ever allocated (high-water address)."""
        return self._next_id

    def bytes_used(self) -> int:
        """Live blocks times block size — the simulated disk footprint."""
        return len(self._blocks) * self.block_size

    def __repr__(self) -> str:
        return (
            f"BlockStore(block_size={self.block_size}, live={len(self)}, "
            f"{self.counters!r})"
        )
