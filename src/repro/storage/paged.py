"""Lazily paged R-trees over an on-disk index file.

:func:`pack_tree` flattens any bulk-loaded tree into a
:class:`~repro.storage.filestore.FileBlockStore` — one codec-encoded
block per node, children first remapped to dense file addresses, the
tree descriptor in the file's metadata region.  :class:`PagedTree`
reopens such a file as a live, queryable tree **without reading it**:
nodes are fetched and decoded on first touch through
:class:`PagedNodeStore`, a bounded LRU page cache, so an index far
larger than RAM costs only ``cache_pages`` decoded nodes of memory
while every query engine — window, kNN, join, point — runs on it
unchanged.

The index is **mutable**: the page layer is a dirty-page write-back
cache.  ``write``/``allocate`` mutate the decoded page in memory, mark
it dirty, and defer encoding until the page is evicted, explicitly
:meth:`PagedNodeStore.sync`-ed, or the tree is closed — so a Guttman
insert that adjusts the same root-to-leaf path a hundred times costs a
hundred *logical* write I/Os but one *physical* page write per distinct
dirty page.  Freed blocks return to the
:class:`~repro.storage.filestore.FileBlockStore` freelist and are
reused by later allocations; :meth:`PagedTree.sync` flushes the dirty
set (in block order) and rewrites the header — tree descriptor
(``root_id``/``height``/``size``), freelist head and live count — in
one header-region write, making every sync a consistency point the
file can be cold-reopened from.

Accounting is the contract that keeps figures comparable: a *logical*
read (``store.read``) or write (``store.write``) counts one I/O on the
shared :class:`~repro.iomodel.counters.IOCounters` exactly like the
simulated store, whether or not the page was cached — the page cache
models RAM reuse of decoded nodes, not the paper's I/O semantics.  The
*physical* file traffic the cache saves or defers is reported
separately in :class:`PageCacheStats`: ``misses`` (reads + decodes,
the cold/warm story of the storage benchmarks) and ``flushes`` (dirty
pages encoded and written back, the update benchmarks' write-back
story).  ``docs/io-accounting.md`` lays the whole logical-vs-physical
vocabulary out in one place.

The read path is thread-safe (one lock over the page table, the file
store has its own), which is what lets the async service's commit
thread ``sync()`` a handle while the loop thread reads it; writes never
overlap a ``sync()`` (``docs/async-serving.md``).
"""

from __future__ import annotations

import os
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.iomodel.blockstore import DEFAULT_BLOCK_SIZE
from repro.iomodel.codec import NodeCodec
from repro.iomodel.counters import IOCounters
from repro.iomodel.store import BlockId
from repro.obs.cachestats import ReuseDistanceTracker
from repro.obs.tap import IOTap, active_tap
from repro.obs.trace import current_trace
from repro.rtree.node import Node, NodeFrame
from repro.rtree.tree import RTree
from repro.storage.faults import FaultInjector
from repro.storage.filestore import (
    FileBlockStore,
    HEADER_REGION,
    RecoveryInfo,
    StorageError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.health import TreeQuality

__all__ = [
    "PageCacheStats",
    "PagedNodeStore",
    "PagedTree",
    "PackStats",
    "pack_tree",
    "DEFAULT_CACHE_PAGES",
]

#: Default decoded-page budget: ~4 MB of nodes at the paper's 4 KB blocks.
DEFAULT_CACHE_PAGES = 1024

#: Tree descriptor stored in the file's metadata region (little-endian):
#: magic "PGT2" | u16 dim | u32 fanout | u32 height | u64 size | u64 root
#: | u64 next_oid.  next_oid is the lowest object id never handed out —
#: after deletes shrink ``size`` below the high-water id, a reopened
#: handle must not re-issue an id a live leaf entry still points at.
_TREE_META = "<4sHIIQQQ"
_TREE_META_BYTES = struct.calcsize(_TREE_META)
_TREE_MAGIC = b"PGT2"


@dataclass
class PageCacheStats:
    """Physical-access statistics of one :class:`PagedNodeStore`.

    ``hits`` are page-table lookups served without touching the file;
    ``misses`` each cost one physical block read *and* one node decode;
    ``evictions`` count pages dropped to stay within the budget;
    ``flushes`` count dirty pages encoded and physically written back
    (on eviction, :meth:`PagedNodeStore.sync`, or close).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def physical_reads(self) -> int:
        """Blocks actually read from the file (= decode count)."""
        return self.misses

    @property
    def physical_writes(self) -> int:
        """Blocks actually written to the file (= encode count)."""
        return self.flushes

    def snapshot(self) -> "PageCacheStats":
        return PageCacheStats(
            self.hits, self.misses, self.evictions, self.flushes
        )

    def __sub__(self, other: "PageCacheStats") -> "PageCacheStats":
        return PageCacheStats(
            self.hits - other.hits,
            self.misses - other.misses,
            self.evictions - other.evictions,
            self.flushes - other.flushes,
        )


class PagedNodeStore:
    """Node-decoding LRU page layer over a byte block store.

    Implements :class:`~repro.iomodel.store.BlockStoreProtocol` with
    decoded :class:`~repro.rtree.node.Node` payloads, so an
    :class:`~repro.rtree.tree.RTree` handle (and every engine built on
    one) runs over it exactly as over the simulated disk.

    Parameters
    ----------
    file_store:
        The byte store holding codec-encoded nodes.
    dim:
        Spatial dimension (fixes the entry layout).
    capacity:
        Maximum decoded pages held in memory; 0 disables caching so
        every access decodes from the file (the fully-cold setup).
    tracker:
        Optional :class:`~repro.obs.cachestats.ReuseDistanceTracker`
        observing every page-table lookup — counted reads *and* peeks,
        each tagged with the real hit/miss outcome, so the tracker's
        observed ratio equals the :class:`PageCacheStats` ratio by
        construction (what-if cache modelling).  It records under the
        store lock, so it sees exactly the sequence the real cache
        serves; ``None`` (the default) costs one ``is None`` check per
        lookup.
    """

    def __init__(
        self,
        file_store: FileBlockStore,
        dim: int,
        capacity: int = DEFAULT_CACHE_PAGES,
        tracker: ReuseDistanceTracker | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.file_store = file_store
        self.codec = NodeCodec(dim=dim, block_size=file_store.block_size)
        self.capacity = capacity
        self.tracker = tracker
        self.stats = PageCacheStats()
        self._pages: OrderedDict[BlockId, Node] = OrderedDict()
        self._dirty: set[BlockId] = set()
        # The current page stays pinned outside the LRU budget: engines
        # peek a node's kind and immediately read the same block, and
        # that pair must cost one physical read even with capacity 0.
        self._mru: tuple[BlockId, Node] | None = None
        self._lock = threading.Lock()

    # -- protocol attributes ------------------------------------------

    @property
    def block_size(self) -> int:
        return self.file_store.block_size

    @property
    def counters(self) -> IOCounters:
        return self.file_store.counters

    @property
    def readonly(self) -> bool:
        """True when the backing file forbids writes."""
        return self.file_store.readonly

    # -- page table ----------------------------------------------------

    def _get_locked(self, block_id: BlockId, tap: IOTap | None) -> Node:
        """Counted-read lookup: hits bump recency, misses fill the cache.

        Every ``stats`` increment here (and in the helpers below) has a
        matching tap increment so the active context's
        :class:`~repro.obs.tap.IOTap` holds exactly its slice of the
        shared :class:`PageCacheStats` — attribution, not re-counting.
        """
        node = self._pages.get(block_id)
        if node is not None:
            self.stats.hits += 1
            if tap is not None:
                tap.hits += 1
            if self.tracker is not None:
                self.tracker.record(block_id, node.is_leaf, hit=True)
            self._pages.move_to_end(block_id)
            self._mru = (block_id, node)
            return node
        if self._mru is not None and self._mru[0] == block_id:
            # Peeked but not yet cached: promote without a second decode.
            self.stats.hits += 1
            if tap is not None:
                tap.hits += 1
            node = self._mru[1]
            if self.tracker is not None:
                self.tracker.record(block_id, node.is_leaf, hit=True)
            self._cache_locked(block_id, node, tap=tap)
            return node
        self.stats.misses += 1
        if tap is not None:
            tap.misses += 1
        node = self._decode_locked(block_id)
        if self.tracker is not None:
            self.tracker.record(block_id, node.is_leaf, hit=False)
        self._cache_locked(block_id, node, tap=tap)
        return node

    def _peek_locked(self, block_id: BlockId, tap: IOTap | None) -> Node:
        """Uncounted lookup that reads *around* the cache.

        Serves cached (including dirty) pages but never reorders the
        LRU, never inserts, and never evicts — a validation walk over
        the whole tree leaves the cache exactly as it found it.  The
        decoded node is still pinned in the MRU slot so the engines'
        peek-then-read pattern costs one physical read.
        """
        node = self._pages.get(block_id)
        if node is not None:
            self.stats.hits += 1
            if tap is not None:
                tap.hits += 1
            if self.tracker is not None:
                self.tracker.record(block_id, node.is_leaf, hit=True)
            self._mru = (block_id, node)
            return node
        if self._mru is not None and self._mru[0] == block_id:
            self.stats.hits += 1
            if tap is not None:
                tap.hits += 1
            if self.tracker is not None:
                self.tracker.record(block_id, self._mru[1].is_leaf, hit=True)
            return self._mru[1]
        self.stats.misses += 1
        if tap is not None:
            tap.misses += 1
        node = self._decode_locked(block_id)
        if self.tracker is not None:
            self.tracker.record(block_id, node.is_leaf, hit=False)
        self._mru = (block_id, node)
        return node

    def _decode_locked(self, block_id: BlockId) -> Node:
        """Decode one block straight into a frame-backed node.

        The decoded page is the structure-of-arrays representation the
        vectorized kernels consume; ``Rect`` entry tuples only ever
        materialize if the write path touches the page.  Physical read
        and decode accounting stays with the caller.
        """
        is_leaf, lo, hi, ptrs = self.codec.decode_arrays(
            self.file_store.peek(block_id)
        )
        return Node.from_frame(NodeFrame(is_leaf, lo, hi, ptrs))

    def _cache_locked(
        self,
        block_id: BlockId,
        node: Node,
        dirty: bool = False,
        tap: IOTap | None = None,
    ) -> None:
        self._mru = (block_id, node)
        if self.capacity == 0:
            if dirty:
                # No room to defer: degenerate to write-through.
                self._flush_locked(block_id, node, tap)
            return
        self._pages[block_id] = node
        self._pages.move_to_end(block_id)
        if dirty:
            self._dirty.add(block_id)
        while len(self._pages) > self.capacity:
            victim, victim_node = self._pages.popitem(last=False)
            if victim in self._dirty:
                self._flush_locked(victim, victim_node, tap)
                self._dirty.discard(victim)
            self.stats.evictions += 1
            if tap is not None:
                tap.evictions += 1

    def _flush_locked(
        self, block_id: BlockId, node: Node, tap: IOTap | None = None
    ) -> None:
        """Encode one dirty page and physically write it (uncounted)."""
        frame = node.frame()
        encoded = self.codec.encode_arrays(
            frame.is_leaf, frame.lo, frame.hi, frame.ptrs
        )
        self.file_store.write_back(block_id, encoded)
        self.stats.flushes += 1
        if tap is not None:
            tap.flushes += 1

    def cached_pages(self) -> int:
        """Decoded pages currently held (≤ capacity)."""
        return len(self._pages)

    def dirty_pages(self) -> int:
        """Cached pages whose encoding on disk is stale."""
        return len(self._dirty)

    def sync(self) -> int:
        """Flush every dirty page to the file; returns pages written.

        Flushes in block-id order so write-back I/O is as sequential as
        the dirtied working set allows.
        """
        tap = active_tap()
        with self._lock:
            return self._sync_locked(tap)

    def _sync_locked(self, tap: IOTap | None = None) -> int:
        flushed = 0
        for block_id in sorted(self._dirty):
            self._flush_locked(block_id, self._pages[block_id], tap)
            flushed += 1
        self._dirty.clear()
        return flushed

    def clear_cache(self) -> None:
        """Drop every decoded page (go fully cold); stats are kept.

        Dirty pages are flushed first — clearing the cache must never
        lose writes.
        """
        with self._lock:
            self._sync_locked(active_tap())
            self._pages.clear()
            self._mru = None

    def _check_writable_locked(self) -> None:
        # Writes are deferred, so the readonly error must fire at the
        # write call, not at some later flush.
        if self.file_store.readonly:
            raise StorageError(
                f"{self.file_store.path} was opened read-only"
            )

    # -- counted access (the store protocol) ---------------------------

    def read(self, block_id: BlockId) -> Node:
        """Read a node, counting one logical I/O (cached page or not)."""
        tap = active_tap()
        with self._lock:
            node = self._get_locked(block_id, tap)
            self.counters.record_read(block_id)
            if tap is not None:
                tap.reads += 1
            return node

    def peek(self, block_id: BlockId) -> Node:
        """Read a node without counting I/O (validation/debugging).

        Reads around the cache: cached pages (dirty ones included) are
        served, but a miss neither inserts nor evicts, so peeking never
        perturbs what the counted read path has warmed.
        """
        with self._lock:
            return self._peek_locked(block_id, active_tap())

    def quiet_peek(self, block_id: BlockId) -> Node:
        """Read a node with **zero** observable side effects.

        Unlike :meth:`peek`, this touches neither :class:`PageCacheStats`
        nor the ghost-LRU tracker, never pins the MRU slot and never
        inserts into the page table — the observation path the health
        walk and :func:`~repro.rtree.validate.validate_rtree` use, so
        observing an index cannot perturb what is being observed.
        Cached pages (dirty ones included) are still served so the walk
        sees the in-memory truth.
        """
        with self._lock:
            node = self._pages.get(block_id)
            if node is not None:
                return node
            if self._mru is not None and self._mru[0] == block_id:
                return self._mru[1]
            return self._decode_locked(block_id)

    def write(self, block_id: BlockId, node: Node) -> None:
        """Write a node back: one logical I/O, deferred physical write.

        The decoded page is updated (or installed) in the cache and
        marked dirty; encoding and the physical block write happen on
        eviction, :meth:`sync`, or close.  With ``capacity == 0`` there
        is nowhere to defer to and the write falls back to
        write-through.
        """
        if len(node) > self.codec.fanout:
            raise ValueError(
                f"{len(node)} entries exceed block fan-out "
                f"{self.codec.fanout}"
            )
        tap = active_tap()
        with self._lock:
            self._check_writable_locked()
            # Same KeyError/FreedBlockError contract as a direct write.
            self.file_store._check_live(block_id)
            self.counters.record_write(block_id)
            if tap is not None:
                tap.writes += 1
            self._cache_locked(block_id, node, dirty=True, tap=tap)

    def allocate(self, node: Node | None = None) -> BlockId:
        """Allocate a block for a node, counting the materializing write.

        The block address is reserved immediately (freelist reuse
        included) but the node's bytes stay in the cache as a dirty
        page until flushed.
        """
        if node is not None and len(node) > self.codec.fanout:
            raise ValueError(
                f"{len(node)} entries exceed block fan-out "
                f"{self.codec.fanout}"
            )
        tap = active_tap()
        with self._lock:
            self._check_writable_locked()
            if node is None:
                # Delegates to the file store, whose own hook attributes
                # the counted write — no increment here (no double count).
                return self.file_store.allocate(None)
            block_id = self.file_store.reserve()
            self.counters.record_write(block_id)
            if tap is not None:
                tap.writes += 1
            self._cache_locked(block_id, node, dirty=True, tap=tap)
            return block_id

    def free(self, block_id: BlockId) -> None:
        """Release a block (metadata only, no counted I/O).

        A dirty cached page is simply discarded — freed blocks need no
        flush.
        """
        with self._lock:
            self.file_store.free(block_id)
            self._pages.pop(block_id, None)
            self._dirty.discard(block_id)
            if self._mru is not None and self._mru[0] == block_id:
                self._mru = None

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self.file_store)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self.file_store

    def block_ids(self) -> Iterator[BlockId]:
        return self.file_store.block_ids()

    @property
    def allocated_ever(self) -> int:
        return self.file_store.allocated_ever

    def bytes_used(self) -> int:
        return self.file_store.bytes_used()

    def __repr__(self) -> str:
        return (
            f"PagedNodeStore(pages={len(self._pages)}/{self.capacity}, "
            f"dirty={len(self._dirty)}, {self.file_store!r})"
        )


class _CallableValues(Mapping):
    """Adapts an oid → value callable to the mapping the engines expect."""

    def __init__(self, fn: Callable[[int], Any]) -> None:
        self._fn = fn

    def get(self, oid, default=None):
        value = self._fn(oid)
        return default if value is None else value

    def __getitem__(self, oid):
        return self._fn(oid)

    def __iter__(self):  # pragma: no cover - unused by the engines
        return iter(())

    def __len__(self) -> int:  # pragma: no cover - unused by the engines
        return 0


@dataclass(frozen=True)
class PackStats:
    """What :func:`pack_tree` wrote.

    ``file_bytes`` counts the header region plus every physical block —
    node data *and* the committed shadow map — i.e. the exact on-disk
    size of the index file.  ``write_ios`` / ``seq_writes`` are the
    pack-time accounting: packing emits one block write per node, all
    but the first sequential.  ``commit_epoch`` is the store epoch the
    pack committed at (the sharded manifest records it per shard so a
    family can be rolled back to a consistent cut).
    """

    n_blocks: int
    block_size: int
    file_bytes: int
    height: int
    size: int
    write_ios: int
    seq_writes: int
    commit_epoch: int = 0


def pack_tree(
    tree: RTree,
    path: str | os.PathLike | None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    baseline: bool = True,
    quality: "TreeQuality | None" = None,
) -> PackStats:
    """Write a tree to an index file in dense preorder.

    Children are remapped to the dense file addresses (a fresh store
    allocates 0, 1, 2, …), so the file is independent of the allocation
    history of the store the tree was built on, and packing is one
    sequential sweep of writes — the access pattern the paper's bulk
    loaders end with.

    Nodes are encoded from their frames
    (:meth:`~repro.iomodel.codec.NodeCodec.encode_arrays`), which a
    bulk-loaded or decoded node already holds, so packing builds no
    ``Rect``.

    ``baseline=True`` (the default) records the pack-time tree-quality
    baseline (:mod:`repro.obs.health`) in the descriptor's trailing
    bytes, the reference :func:`~repro.obs.health.degradation_score`
    judges later updates against.  ``quality`` is ``tree``'s
    :func:`~repro.obs.health.tree_quality` for a caller that has
    already walked it (``shard_pack``); it is computed here otherwise.

    Raises ``ValueError`` when the tree's fan-out physically cannot fit
    the requested block size.
    """
    codec = NodeCodec(dim=tree.dim, block_size=block_size)
    if tree.fanout > codec.fanout:
        raise ValueError(
            f"tree fan-out {tree.fanout} exceeds what a {block_size}-byte "
            f"block holds in {tree.dim}D ({codec.fanout})"
        )

    order: list[tuple[int, Node]] = [
        (bid, node) for bid, node, _ in tree.iter_nodes()
    ]
    index_of = {bid: i for i, (bid, _) in enumerate(order)}

    baseline_blob = b""
    if baseline:
        # The packed file holds the same geometry as the source tree, so
        # the baseline can be computed from the in-memory nodes before a
        # single block is written.  Lazy import: obs.health must stay
        # importable without the storage layer (no cycle).
        from repro.obs.health import encode_baseline, quality_baseline, tree_quality

        if quality is None:
            quality = tree_quality(tree)
        baseline_blob = encode_baseline(quality_baseline(quality))

    meta = struct.pack(
        _TREE_META,
        _TREE_MAGIC,
        tree.dim,
        tree.fanout,
        tree.height,
        tree.size,
        index_of[tree.root_id],
        max(tree._next_oid, tree.size),
    ) + baseline_blob
    with FileBlockStore.create(path, block_size, meta=meta) as file_store:
        for _, node in order:
            frame = node.frame()
            ptrs = frame.ptrs
            if not node.is_leaf:
                ptrs = [index_of[child] for child in ptrs]
            file_store.allocate(
                codec.encode_arrays(node.is_leaf, frame.lo, frame.hi, ptrs)
            )
        n_blocks = file_store.allocated_ever
        file_store.flush()  # commit, so the file size below is final
        file_bytes = file_store.file_bytes()
        commit_epoch = file_store.commit_epoch
        write_ios = file_store.counters.writes
        seq_writes = file_store.counters.seq_writes
    return PackStats(
        n_blocks=n_blocks,
        block_size=block_size,
        file_bytes=file_bytes,
        height=tree.height,
        size=tree.size,
        write_ios=write_ios,
        seq_writes=seq_writes,
        commit_epoch=commit_epoch,
    )


class PagedTree(RTree):
    """An R-tree whose nodes live in an index file and page in lazily.

    Construct with :meth:`open`; close (or use as a context manager)
    when done.  The handle is a plain :class:`~repro.rtree.tree.RTree`
    to every engine — only the store behind it differs — and it is
    *mutable*: :meth:`insert` / :meth:`delete` run the standard dynamic
    algorithms over the dirty-page write-back store, and :meth:`sync`
    (or :meth:`close`) persists the result.  Handles opened with
    ``readonly=True`` reject updates up front.
    """

    def __init__(
        self,
        store: PagedNodeStore,
        root_id: BlockId,
        dim: int,
        fanout: int,
        height: int,
        size: int,
        values: dict[int, Any] | Callable[[int], Any] | None = None,
        next_oid: int = 0,
    ) -> None:
        super().__init__(
            store, root_id, dim=dim, fanout=fanout, height=height, size=size
        )
        if values is None:
            pass  # engines report None values, structure is intact
        elif callable(values):
            self.objects = _CallableValues(values)
        else:
            self.objects = dict(values)
            if self.objects:
                self._next_oid = max(self.objects) + 1
        # Fresh inserts must never reuse an object id a stored leaf
        # entry still points at: honour the descriptor's high-water id
        # (size alone is not a safe floor once deletes have shrunk it).
        self._next_oid = max(self._next_oid, next_oid, size)
        # Pack-time tree-quality baseline (repro.obs.health), carried in
        # the descriptor's trailing bytes; sync() must re-append it or a
        # single update would erase the degradation reference.
        self._baseline_blob: bytes = b""

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        values: dict[int, Any] | Callable[[int], Any] | None = None,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        counters: IOCounters | None = None,
        readonly: bool = False,
        mmap: bool = False,
        cache_analytics: bool = False,
        injector: "FaultInjector | None" = None,
        at_epoch: int | None = None,
    ) -> "PagedTree":
        """Open a :func:`pack_tree` index file without reading the tree.

        Parameters
        ----------
        path:
            The index file.
        values:
            Optional object-id → value mapping (dict or callable); the
            file stores object *ids* only.
        cache_pages:
            Decoded-page budget of the LRU page cache.
        counters:
            Shared I/O counters; a fresh set is created when omitted.
        readonly:
            Open the file without write access (safe for concurrent
            readers of the same file).
        mmap:
            Serve physical block access from a memory mapping of the
            index file (see
            :meth:`~repro.storage.filestore.FileBlockStore.open`) —
            cheaper page-miss reads on hot concurrent read paths, same
            logical and physical accounting.
        cache_analytics:
            Attach a
            :class:`~repro.obs.cachestats.ReuseDistanceTracker` to the
            page store (budgets bracketing ``cache_pages``): miss-ratio
            curves, frequency histograms and working-set estimates at
            the cost of a few dict operations per counted read.
        injector:
            Optional :class:`~repro.storage.faults.FaultInjector` wired
            onto the store's physical write path (crash testing).
        at_epoch:
            Pin the open to a specific committed store epoch instead of
            the newest valid one (sharded-family rollback; see
            :meth:`~repro.storage.filestore.FileBlockStore.open`).
        """
        opened_at = time.perf_counter()
        file_store = FileBlockStore.open(
            path,
            counters=counters,
            readonly=readonly,
            mmap=mmap,
            injector=injector,
            at_epoch=at_epoch,
        )
        try:
            meta = file_store.metadata
            if len(meta) < _TREE_META_BYTES:
                raise StorageError(
                    f"{path} holds no packed tree (metadata too short)"
                )
            (
                magic, dim, fanout, height, size, root_id, next_oid
            ) = struct.unpack_from(_TREE_META, meta, 0)
            if magic != _TREE_MAGIC:
                raise StorageError(
                    f"{path} holds no packed tree (bad metadata magic "
                    f"{magic!r})"
                )
            if root_id not in file_store:
                raise StorageError(f"{path}: root block {root_id} missing")
        except Exception:
            file_store.close()
            raise
        trace = current_trace()
        if trace is not None:
            info = file_store.recovery
            trace.add_span(
                "recovery",
                opened_at,
                time.perf_counter(),
                cat="storage",
                file=str(path),
                epoch=info.epoch,
                header_slot=info.header_slot,
                rolled_back_blocks=info.rolled_back_blocks,
            )
        tracker = (
            ReuseDistanceTracker(capacity=max(1, cache_pages))
            if cache_analytics
            else None
        )
        store = PagedNodeStore(
            file_store, dim=dim, capacity=cache_pages, tracker=tracker
        )
        tree = cls(
            store,
            root_id,
            dim=dim,
            fanout=fanout,
            height=height,
            size=size,
            values=values,
            next_oid=next_oid,
        )
        tree._baseline_blob = bytes(meta[_TREE_META_BYTES:])
        return tree

    # ------------------------------------------------------------------

    @property
    def page_store(self) -> PagedNodeStore:
        """The node-decoding page layer (for cache statistics)."""
        return self.store  # type: ignore[return-value]

    @property
    def page_stats(self) -> PageCacheStats:
        """Physical page-cache statistics (hits/misses/evictions)."""
        return self.page_store.stats

    @property
    def readonly(self) -> bool:
        """True when the index file was opened without write access."""
        return self.page_store.readonly

    @property
    def health_baseline(self) -> dict | None:
        """The pack-time tree-quality baseline, or None if not recorded.

        Written by :func:`pack_tree` into the descriptor's trailing
        bytes and preserved across :meth:`sync`;
        :func:`~repro.obs.health.degradation_score` compares the live
        tree against it.
        """
        from repro.obs.health import decode_baseline

        return decode_baseline(self._baseline_blob)

    @property
    def recovery(self) -> RecoveryInfo:
        """What opening the store recovered (epoch, header slot chosen,
        rolled-back physical blocks) — exported as ``repro_recovery_*``
        metrics by the serving layer."""
        return self.page_store.file_store.recovery

    # -- write path ----------------------------------------------------

    def _require_writable(self) -> None:
        if self.readonly:
            raise StorageError(
                f"{self.page_store.file_store.path} was opened read-only; "
                "reopen with readonly=False to insert or delete"
            )
        if not isinstance(self.objects, dict):
            raise StorageError(
                "this tree's values were supplied as a callable; updates "
                "need a mutable object table (open with a dict or None)"
            )

    def insert(self, rect, value) -> int:
        """Insert a data rectangle (Guttman); returns the object id.

        The touched pages go dirty in the cache; call :meth:`sync` (or
        :meth:`close`) to persist them and the updated tree descriptor.
        Raises :class:`~repro.storage.filestore.StorageError` up front
        on a read-only handle.
        """
        self._require_writable()
        return super().insert(rect, value)

    def delete(self, rect, value) -> bool:
        """Delete one matching data rectangle (Guttman CondenseTree).

        Freed blocks return to the file's freelist and are reused by
        later inserts.  Raises
        :class:`~repro.storage.filestore.StorageError` up front on a
        read-only handle.
        """
        self._require_writable()
        return super().delete(rect, value)

    def sync(self) -> int:
        """Flush dirty pages and commit the file atomically.

        Every dirty page is encoded and written back (in block order)
        to *fresh* physical slots, then the store's :meth:`flush`
        publishes pages, freelist and the
        ``root_id``/``height``/``size`` descriptor together with a
        single checksummed header-slot write — every sync is an atomic
        commit point a crash rolls back to (see ``docs/durability.md``).
        Returns the number of pages flushed.  A read-only handle has
        nothing to flush and returns 0.
        """
        if self.readonly:
            return 0
        flushed = self.page_store.sync()
        meta = struct.pack(
            _TREE_META,
            _TREE_MAGIC,
            self.dim,
            self.fanout,
            self.height,
            self.size,
            self.root_id,
            self._next_oid,
        ) + self._baseline_blob
        file_store = self.page_store.file_store
        file_store.set_metadata(meta, persist=False)
        file_store.flush()  # one header-region write covers it
        return flushed

    def close(self) -> None:
        """Sync pending writes and close the index file (idempotent)."""
        file_store = self.page_store.file_store
        if not file_store.closed and not self.readonly and not file_store.crashed:
            self.sync()
        file_store.close()

    def __enter__(self) -> "PagedTree":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"PagedTree(dim={self.dim}, fanout={self.fanout}, "
            f"height={self.height}, size={self.size}, "
            f"pages={self.page_store.cached_pages()})"
        )
