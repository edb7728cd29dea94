"""Disk-backed storage engine: real files behind the simulated API.

The I/O model package measures access patterns over an in-memory
simulated disk; this package provides the matching *real* disk so the
byte-exact node layout (36-byte entries in 4 KB blocks, paper Section
3.1) is not just validated but actually served from a file:

* :class:`repro.storage.filestore.FileBlockStore` — fixed-size byte
  blocks in a single index file (shadow-paged behind two checksummed,
  alternating header slots, so every ``sync`` is an atomic commit),
  with the same API surface and
  :class:`~repro.iomodel.counters.IOCounters` accounting as the
  simulated store.
* :class:`repro.storage.faults.FaultInjector` /
  :class:`repro.storage.faults.FaultInjectingStore` — deterministic
  crash/torn-write/bit-flip injection on the physical write path, the
  machinery behind the crash-recovery matrix (``tools/crashtest.py``).
* :class:`repro.storage.paged.PagedNodeStore` — a bounded LRU page
  cache that decodes nodes lazily through the codec, presenting the
  block-store protocol with :class:`~repro.rtree.node.Node` payloads.
* :class:`repro.storage.paged.PagedTree` /
  :func:`repro.storage.paged.pack_tree` — flatten any bulk-loaded tree
  into an index file and reopen it as a live tree that pages nodes in
  on demand, so indexes larger than RAM stay queryable by every engine
  unchanged.
* :func:`repro.storage.shard.shard_pack` /
  :class:`repro.storage.shard.ShardedTree` — split one logical index
  into K Hilbert-range shard files behind a manifest, served to every
  engine as one tree that reads only the shards that can contribute;
  :func:`repro.storage.shard.open_index` opens either shape.

The batched query server in :mod:`repro.server` runs on these handles.
The on-disk formats are specified byte-for-byte in
``docs/storage-format.md``; the I/O vocabulary shared by every layer is
pinned down in ``docs/io-accounting.md``.
"""

from repro.storage.faults import (
    FaultInjectingStore,
    FaultInjector,
    SimulatedCrash,
)
from repro.storage.filestore import FileBlockStore, RecoveryInfo, StorageError
from repro.storage.paged import (
    DEFAULT_CACHE_PAGES,
    PackStats,
    PageCacheStats,
    PagedNodeStore,
    PagedTree,
    pack_tree,
)
from repro.storage.shard import (
    ShardError,
    ShardInfo,
    ShardLoad,
    ShardPackStats,
    ShardedKNNEngine,
    ShardedPointEngine,
    ShardedQueryEngine,
    ShardedTree,
    open_index,
    shard_pack,
)

__all__ = [
    "FileBlockStore",
    "StorageError",
    "RecoveryInfo",
    "FaultInjector",
    "FaultInjectingStore",
    "SimulatedCrash",
    "PagedNodeStore",
    "PagedTree",
    "PageCacheStats",
    "PackStats",
    "pack_tree",
    "DEFAULT_CACHE_PAGES",
    "ShardError",
    "ShardInfo",
    "ShardLoad",
    "ShardPackStats",
    "ShardedTree",
    "ShardedQueryEngine",
    "ShardedPointEngine",
    "ShardedKNNEngine",
    "shard_pack",
    "open_index",
]
