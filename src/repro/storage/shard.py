"""Sharded packed indexes: one logical tree across several index files.

A single :func:`~repro.storage.paged.pack_tree` file serializes every
query behind one page cache and one disk arm; the production-scale
answer (ROADMAP "sharding", and the partitioned-worker shape of the
SIGMOD 2014 contest systems) is to split one logical index into K
independent index files and fan requests out to only the shards that
can contribute.

:func:`shard_pack` partitions a bulk-loaded tree's *leaf entries* by the
Hilbert rank of their centers into K contiguous ranges — the same
locality order the packed Hilbert loader already uses — packs each
range as an independent index file
(reusing :func:`~repro.storage.paged.pack_tree`), and writes a JSON
*shard manifest* describing the family: per-shard file, entry count,
MBR, Hilbert key range and block count (byte-for-byte layout in
``docs/storage-format.md``).

:class:`ShardedTree` opens every shard as a
:class:`~repro.storage.paged.PagedTree` behind one facade:

* **window-family queries** (window / point / count / containment) fan
  out only to shards whose live root MBR — a routing table the facade's
  writes keep, read at no page cost — can contribute, and merge;
* **kNN** runs a best-first merge over per-shard incremental
  best-first streams, so a shard is only opened (and only pays I/O)
  once the global result genuinely needs it;
* **joins** decompose into per-component joins over MBR-intersecting
  pairs;
* **inserts** route to the shard owning the rectangle's Hilbert rank,
  **deletes** broadcast to the shards whose MBR intersects the victim,
  and :meth:`ShardedTree.sync` flushes every dirty shard then rewrites
  the manifest atomically (temp file + ``os.replace``).

Accounting follows the single-file contract exactly (see
``docs/io-accounting.md``): each shard has its own
:class:`~repro.iomodel.counters.IOCounters` and
:class:`~repro.storage.paged.PageCacheStats`, the facade aggregates
them, and :meth:`ShardedTree.shard_loads` exposes the cumulative
per-shard logical/physical split that the ``repro_shard_*`` metrics and
the ``benchmarks/test_storage_sharding.py`` I/O-balance tables are
built from (diff two snapshots for one batch's share).
"""

from __future__ import annotations

import heapq
import json
import math
import os
import pathlib
import time
from dataclasses import dataclass, replace
from itertools import islice
from typing import Any, Callable, Iterator, Sequence

from repro.bulk.base import pack_leaf_level, pack_level
from repro.geometry.hilbert import (
    DEFAULT_ORDER,
    hilbert_key_for_center,
    hilbert_keys_for_centers,
)
from repro.geometry.rect import Rect, check_dim
from repro.iomodel.blockstore import BlockStore, DEFAULT_BLOCK_SIZE
from repro.iomodel.counters import IOSnapshot
from repro.obs import health
from repro.obs.tap import scoped_tap
from repro.obs.trace import current_trace
from repro.queries.join import JoinStats, SpatialJoinEngine
from repro.queries.knn import (
    Hit, KNNEngine, Neighbor, Neighbors, id_column, target_dist_sq,
)
from repro.queries.point import PointQueryEngine
from repro.rtree.node import Node, NodeFrame
from repro.rtree.query import Matches, QueryEngine, QueryStats
from repro.rtree.tree import RTree
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.filestore import StorageError
from repro.storage.paged import (
    DEFAULT_CACHE_PAGES,
    PackStats,
    PageCacheStats,
    PagedTree,
    pack_tree,
    value_table,
)

__all__ = [
    "ShardError",
    "ShardInfo",
    "ShardLoad",
    "ShardPackStats",
    "ShardedTree",
    "ShardedQueryEngine",
    "ShardedPointEngine",
    "ShardedKNNEngine",
    "ShardedJoinEngine",
    "shard_pack",
    "open_index",
]

#: The manifest's ``format`` field; rejects arbitrary JSON files early.
MANIFEST_FORMAT = "repro-shards"
#: Manifest schema version this module writes.  Version 2 adds a
#: family ``generation`` stamp and a per-shard committed store
#: ``epoch``, so a crash between shard syncs and the manifest rewrite
#: recovers to the consistent family cut the manifest names.
MANIFEST_VERSION = 2
#: Top-level manifest fields, each a JSON integer.
_INT_FIELDS = (
    "dim", "fanout", "block_size", "order", "size", "next_oid", "shards",
    "generation",
)
#: Hilbert key bits per axis a family may route on: at least one, and
#: no finer than a ``uint64`` grid.
_ORDER_RANGE = range(1, 65)
#: Fields of each ``shard_files`` entry that are JSON integers.
_SHARD_INT_FIELDS = (
    "size", "height", "hilbert_lo", "hilbert_hi", "n_blocks", "epoch",
)


class ShardError(StorageError):
    """The shard manifest is missing, malformed, or inconsistent."""


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardInfo:
    """One shard's entry in the manifest.

    ``hilbert_lo``/``hilbert_hi`` are the inclusive Hilbert-key range
    the shard owns for insert routing; ranges are contiguous across the
    family in shard order.  ``mbr`` is the shard's root MBR at the last
    sync (``None`` for an empty shard) — query fan-out uses the *live*
    root MBR, the manifest copy exists so opening can cross-check the
    file against the manifest.  ``epoch`` is the store commit epoch the
    shard held when the manifest was written; opening pins each shard to
    it, rolling back any shard commit the manifest never acknowledged.
    """

    file: str
    size: int
    height: int
    mbr: Rect | None
    hilbert_lo: int
    hilbert_hi: int
    n_blocks: int
    epoch: int


@dataclass(frozen=True)
class ShardPackStats:
    """What :func:`shard_pack` wrote.

    ``per_shard`` holds one :class:`~repro.storage.paged.PackStats` per
    shard file, in shard order; ``file_bytes`` / ``write_ios`` are their
    sums (the manifest itself is metadata, not counted I/O).
    """

    manifest: str
    shards: int
    size: int
    per_shard: tuple[PackStats, ...]

    @property
    def file_bytes(self) -> int:
        return sum(s.file_bytes for s in self.per_shard)

    @property
    def write_ios(self) -> int:
        return sum(s.write_ios for s in self.per_shard)

    @property
    def seq_writes(self) -> int:
        return sum(s.seq_writes for s in self.per_shard)


def _rect_to_json(rect: Rect | None) -> dict | None:
    if rect is None:
        return None
    return {"lo": list(rect.lo), "hi": list(rect.hi)}


def _rect_from_json(obj: Any, where: str) -> Rect | None:
    if obj is None:
        return None
    try:
        lo, hi = tuple(obj["lo"]), tuple(obj["hi"])
        if not all(_is_number(x) for x in lo + hi):
            raise TypeError("non-numeric coordinate")
        return Rect(lo, hi)
    except (TypeError, KeyError, ValueError):
        raise ShardError(f"{where}: bad rectangle {obj!r}") from None


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _atomic_write_text(
    path: pathlib.Path, text: str, injector: "FaultInjector | None" = None
) -> None:
    """Write ``text`` so readers see either the old or the new file.

    With a fault injector attached, the temp-file write is one
    injectable physical write (it can be torn or dropped) and the
    ``os.replace`` is one injectable *atomic commit event* — a scripted
    crash lands either before the rename (old file survives) or after
    it (new file is durable), never in between.
    """
    tmp = path.with_name(path.name + ".tmp")
    data = text.encode("utf-8")
    if injector is None:
        tmp.write_bytes(data)
        os.replace(tmp, path)
        return
    try:
        data = injector.filter(str(tmp), data)
    except SimulatedCrash as crash:
        if crash.partial_data:
            tmp.write_bytes(crash.partial_data)
        raise
    tmp.write_bytes(data)
    with injector.commit_event("manifest"):
        os.replace(tmp, path)


def _shard_file_name(manifest: pathlib.Path, index: int, total: int) -> str:
    """Per-shard file name derived from the manifest name: two-digit
    suffixes keep directory listings in shard order for any K ≤ 100."""
    width = max(2, len(str(total - 1)))
    return f"{manifest.name}.shard{index:0{width}d}"


def shard_pack(
    tree: RTree,
    path: str | os.PathLike,
    shards: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    order: int = DEFAULT_ORDER,
) -> ShardPackStats:
    """Split a bulk-loaded tree into K Hilbert-range shard files.

    The tree's leaf entries are sorted by the Hilbert key of their
    centers (over the tree's bounding box, quantized at ``order`` bits
    per axis), split into ``shards`` contiguous ranges of near-equal
    cardinality, and each range is rebuilt bottom-up — *preserving the
    original object ids* — and written as its own index file next to
    the manifest with :func:`~repro.storage.paged.pack_tree`.  The
    manifest at ``path`` records the family (see
    ``docs/storage-format.md``); shard files are named
    ``<manifest>.shardNN``.

    ``shards`` is clamped to the number of data entries (an empty tree
    packs a single empty shard), so every shard is non-empty.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    _check_order("shard_pack", order)
    manifest_path = pathlib.Path(path)
    bounds = tree.root().mbr() if len(tree.root()) else None

    # Every leaf row in one frame, keyed in one column.
    leaves = NodeFrame.concat(
        [leaf.frame() for _, leaf in tree.iter_leaves()]
    )
    oids = leaves.ptrs.tolist()
    n = len(oids)
    keys: list[int] = []
    if n:
        keys = hilbert_keys_for_centers(leaves.lo, leaves.hi, bounds, order)
    # Hilbert order with (key, oid) ties broken deterministically.
    rank = sorted(range(n), key=list(zip(keys, oids)).__getitem__)

    k = max(1, min(shards, n))
    next_oid = max(tree._next_oid, tree.size)

    infos: list[ShardInfo] = []
    per_shard: list[PackStats] = []
    shard_qualities = []
    base, extra = divmod(n, k)
    start = 0
    for i in range(k):
        stop = start + base + (1 if i < extra else 0)
        rows = rank[start:stop]
        start = stop
        file_name = _shard_file_name(manifest_path, i, k)
        shard_tree = _pack_preserving_oids(
            leaves.take(rows) if rows else None, tree, next_oid
        )
        # One walk serves both the shard file's own single-tree baseline
        # and the family-level aggregate the manifest records.
        quality = health.tree_quality(shard_tree)
        shard_qualities.append(quality)
        stats = pack_tree(
            shard_tree,
            manifest_path.with_name(file_name),
            block_size,
            quality=quality,
        )
        per_shard.append(stats)
        infos.append(
            ShardInfo(
                file=file_name,
                size=len(rows),
                height=shard_tree.height,
                mbr=shard_tree.root().mbr() if rows else None,
                hilbert_lo=keys[rows[0]] if rows else 0,
                hilbert_hi=keys[rows[-1]] if rows else 0,
                n_blocks=stats.n_blocks,
                epoch=stats.commit_epoch,
            )
        )

    _write_manifest(
        manifest_path,
        dim=tree.dim,
        fanout=tree.fanout,
        block_size=block_size,
        order=order,
        size=n,
        next_oid=next_oid,
        bounds=bounds,
        infos=infos,
        health_baseline=health.quality_baseline(
            health.family_quality(shard_qualities)
        ),
    )
    return ShardPackStats(
        manifest=str(manifest_path),
        shards=k,
        size=n,
        per_shard=tuple(per_shard),
    )


def _pack_preserving_oids(
    leaf_level: NodeFrame | None, source: RTree, next_oid: int
) -> RTree:
    """Bottom-up pack of one ordered leaf level, keeping its oids.

    ``leaf_level`` is every data row of the shard as one frame (None for
    an empty shard).  Unlike :func:`~repro.bulk.base.pack_ordered`, leaf
    pointers are the *source tree's* object ids, so one global oid →
    value mapping serves every shard of the family (the shard holds no
    values; :meth:`ShardedTree.open` gives every shard one table).
    ``next_oid`` (the family-wide high-water id) is recorded in each
    shard's descriptor so no reopened shard can re-issue an id a
    sibling's live entry still points at.
    """
    store = BlockStore()
    shard = RTree(
        store,
        root_id=-1,
        dim=source.dim,
        fanout=source.fanout,
        height=1,
        size=0 if leaf_level is None else len(leaf_level),
    )
    if leaf_level is None:
        shard.root_id = store.allocate(Node(is_leaf=True))
    else:
        level = pack_level(store, leaf_level, source.fanout)
        height = 1
        while len(level) > 1:
            level = pack_leaf_level(store, level, source.fanout, is_leaf=False)
            height += 1
        shard.root_id = level[0][1]
        shard.height = height
    shard._next_oid = next_oid
    return shard


def _write_manifest(
    path: pathlib.Path,
    dim: int,
    fanout: int,
    block_size: int,
    order: int,
    size: int,
    next_oid: int,
    bounds: Rect | None,
    infos: Sequence[ShardInfo],
    generation: int = 0,
    injector: "FaultInjector | None" = None,
    health_baseline: dict | None = None,
) -> None:
    doc = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "generation": generation,
        "dim": dim,
        "fanout": fanout,
        "block_size": block_size,
        "order": order,
        "size": size,
        "next_oid": next_oid,
        "shards": len(infos),
        "bounds": _rect_to_json(bounds),
        "shard_files": [
            {
                "file": info.file,
                "size": info.size,
                "height": info.height,
                "mbr": _rect_to_json(info.mbr),
                "hilbert_lo": info.hilbert_lo,
                "hilbert_hi": info.hilbert_hi,
                "n_blocks": info.n_blocks,
                "epoch": info.epoch,
            }
            for info in infos
        ],
    }
    if health_baseline is not None:
        # The family's pack-time tree-quality baseline (repro.obs.health):
        # the reference the degradation score judges later updates
        # against.  Optional — pre-PR-10 manifests simply lack it.
        doc["health_baseline"] = health_baseline
    _atomic_write_text(
        path, json.dumps(doc, indent=2) + "\n", injector=injector
    )


def _load_manifest(path: pathlib.Path) -> dict:
    """Parse and structurally validate a manifest, with clear errors."""
    if not path.exists():
        raise ShardError(f"no shard manifest at {path}")
    if not path.is_file():
        raise ShardError(f"{path} is not a file")
    try:
        doc = json.loads(path.read_text())
    except (ValueError, UnicodeDecodeError) as exc:
        raise ShardError(
            f"{path} is not a shard manifest (invalid JSON: {exc})"
        ) from None
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        raise ShardError(
            f"{path} is not a shard manifest (missing format "
            f"{MANIFEST_FORMAT!r})"
        )
    if doc.get("version") != MANIFEST_VERSION:
        raise ShardError(
            f"{path}: unsupported manifest version {doc.get('version')!r}"
        )
    _check_ints(str(path), doc, _INT_FIELDS)
    _check_order(str(path), doc["order"])
    files = doc.get("shard_files")
    if not isinstance(files, list) or not files:
        raise ShardError(f"{path}: manifest lists no shard files")
    if len(files) != doc["shards"]:
        raise ShardError(
            f"{path}: shard file count mismatch — manifest promises "
            f"{doc['shards']} shards but lists {len(files)}"
        )
    for i, entry in enumerate(files):
        where = f"{path} shard {i}"
        if not isinstance(entry, dict):
            raise ShardError(f"{where}: manifest entry is not an object")
        _check_ints(where, entry, _SHARD_INT_FIELDS)
        name = entry.get("file")
        # A bare name next to the manifest: no separators, no "." / "..".
        if (
            not isinstance(name, str)
            or pathlib.PurePath(name).name != name
            or name in ("", "..")
        ):
            raise ShardError(f"{where}: bad shard file name {name!r}")
    if not isinstance(doc.get("health_baseline"), (dict, str, type(None))):
        raise ShardError(
            f"{path}: bad health baseline {doc['health_baseline']!r}"
        )
    return doc


def _check_ints(where: str, doc: dict, keys: Sequence[str]) -> None:
    """Each of ``keys`` is present in ``doc`` and a JSON integer."""
    for key in keys:
        if key not in doc:
            raise ShardError(f"{where}: manifest is missing {key!r}")
        if not _is_int(doc[key]):
            raise ShardError(
                f"{where}: manifest field {key!r} is not an integer: "
                f"{doc[key]!r}"
            )


def _check_order(where: str, order: int) -> None:
    """``order`` is a Hilbert resolution routing can key on."""
    if order not in _ORDER_RANGE:
        raise ShardError(
            f"{where}: field 'order' must be in [{_ORDER_RANGE.start}, "
            f"{_ORDER_RANGE.stop - 1}], got {order!r}"
        )


# ----------------------------------------------------------------------
# Per-shard load accounting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardLoad:
    """Cumulative load of one shard, in the shared I/O vocabulary.

    ``reads``/``writes`` are the shard's *logical* block I/Os
    (:class:`~repro.iomodel.counters.IOCounters`), ``physical_reads`` /
    ``pages_flushed`` the physical page traffic
    (:class:`~repro.storage.paged.PageCacheStats` misses / flushes), and
    ``busy_s`` the wall-clock seconds the sharded engines spent
    executing on this shard.  Snapshots subtract, so a batch's per-shard
    cost is ``after[i] - before[i]``.
    """

    reads: int = 0
    writes: int = 0
    physical_reads: int = 0
    pages_flushed: int = 0
    busy_s: float = 0.0

    def __sub__(self, other: "ShardLoad") -> "ShardLoad":
        return ShardLoad(
            self.reads - other.reads,
            self.writes - other.writes,
            self.physical_reads - other.physical_reads,
            self.pages_flushed - other.pages_flushed,
            self.busy_s - other.busy_s,
        )


class _AggregateCounters:
    """Summed :class:`IOCounters` view over every shard (snapshot-only)."""

    def __init__(self, sharded: "ShardedTree") -> None:
        self._sharded = sharded

    def snapshot(self) -> IOSnapshot:
        total = IOSnapshot()
        for shard in self._sharded.shards:
            total = total + shard.store.counters.snapshot()
        return total

    @property
    def reads(self) -> int:
        return self.snapshot().reads

    @property
    def writes(self) -> int:
        return self.snapshot().writes


class _ShardedStoreView:
    """The facade's ``.store``: just enough surface for the server.

    The :class:`~repro.server.QueryServer` discovers paged indexes by
    ``hasattr(store, "stats")`` and meters batches through
    ``store.stats`` / ``store.counters``; this view aggregates the
    family so a sharded index meters exactly like a single-file one.
    """

    def __init__(self, sharded: "ShardedTree") -> None:
        self._sharded = sharded
        self.counters = _AggregateCounters(sharded)

    @property
    def stats(self) -> PageCacheStats:
        total = PageCacheStats()
        for shard in self._sharded.shards:
            stats = shard.page_stats
            total.hits += stats.hits
            total.misses += stats.misses
            total.evictions += stats.evictions
            total.flushes += stats.flushes
        return total


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------


class ShardedTree:
    """One logical index served from K Hilbert-range shard files.

    Construct with :meth:`open` on a :func:`shard_pack` manifest; close
    (or use as a context manager) when done.  The facade exposes the
    same query surface as a single tree — :meth:`query`,
    :meth:`point_query`, :meth:`count_query`, :meth:`containment_query`,
    :meth:`knn`, :meth:`nearest` — by fanning out to the shards that can
    contribute (measured experiments should construct the sharded
    engines directly, exactly like the single-tree convenience
    methods recommend).  Updates go through :meth:`insert` /
    :meth:`delete`; :meth:`sync` makes the family a consistency point.
    """

    def __init__(
        self,
        path: pathlib.Path,
        shards: list[PagedTree],
        infos: list[ShardInfo],
        dim: int,
        fanout: int,
        block_size: int,
        order: int,
        size: int,
        next_oid: int,
        bounds: Rect | None,
        readonly: bool,
        generation: int = 0,
        injector: FaultInjector | None = None,
        health_baseline: dict | None = None,
    ) -> None:
        self.path = path
        self.shards = shards
        self.infos = infos
        self.dim = dim
        self.fanout = fanout
        self.block_size = block_size
        self.order = order
        self.size = size
        self.bounds = bounds
        self.generation = generation
        #: The family's pack-time tree-quality baseline (or None on a
        #: pre-baseline manifest); preserved verbatim across syncs.
        self.health_baseline = health.decode_baseline(health_baseline)
        self._injector = injector
        self._next_oid = max(next_oid, size)
        self._readonly = readonly
        self._route_his = [info.hilbert_hi for info in infos]
        #: The routing table: each shard's live root MBR (None: empty).
        #: Loop-thread state written by insert/delete; sync() reads it.
        self._mbrs: list[Rect | None] = [None] * len(shards)
        for i in range(len(shards)):
            self._refresh(i)
        self.store = _ShardedStoreView(self)
        self.shard_busy_s = [0.0] * len(shards)
        self._closed = False

    # -- construction --------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        values: dict[int, Any] | Callable[[int], Any] | None = None,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        readonly: bool = False,
        mmap: bool = False,
        cache_analytics: bool = False,
        injector: FaultInjector | None = None,
    ) -> "ShardedTree":
        """Open a :func:`shard_pack` manifest and every shard it names.

        Parameters
        ----------
        path:
            The manifest file; shard files are resolved relative to it.
        values:
            Optional *family-wide* object-id → value mapping (dict or
            callable) — :func:`shard_pack` preserves the source tree's
            object ids across shards, so every shard shares the one
            value table built from it.  A key that is not an object id
            raises ``ValueError`` before any file is opened.
        cache_pages:
            Decoded-page budget **per shard**.
        readonly:
            Open every shard without write access; :meth:`insert` /
            :meth:`delete` are rejected up front.
        mmap:
            Serve each shard file's physical block access from a memory
            mapping (see
            :meth:`~repro.storage.paged.PagedTree.open`).
        cache_analytics:
            Attach a reuse-distance tracker to **each shard's** page
            store (see :meth:`~repro.storage.paged.PagedTree.open`).
        injector:
            Optional :class:`~repro.storage.faults.FaultInjector`
            shared by every shard store *and* the manifest writes —
            one injector models one process (crash testing).

        Raises :class:`ShardError` when the manifest is corrupt, a shard
        file is missing, or a shard file disagrees with the manifest
        (dim/fanout/size/MBR) — a family must be opened exactly as it
        was synced.  The manifest pins each shard to the store epoch
        recorded for it, so a crash that flipped some shards but
        never rewrote the manifest rolls the whole family back to the
        manifest's consistent cut.
        """
        table = value_table(values)  # one table serves every shard
        manifest_path = pathlib.Path(path)
        doc = _load_manifest(manifest_path)
        bounds = _rect_from_json(doc.get("bounds"), str(manifest_path))
        if bounds is not None and bounds.dim != doc["dim"]:
            raise ShardError(
                f"{manifest_path}: field 'bounds' has {bounds.dim} "
                f"dimensions, the family {doc['dim']}"
            )

        shards: list[PagedTree] = []
        infos: list[ShardInfo] = []
        try:
            for i, entry in enumerate(doc["shard_files"]):
                where = f"{manifest_path} shard {i}"
                info = ShardInfo(
                    file=entry["file"],
                    size=entry["size"],
                    height=entry["height"],
                    mbr=_rect_from_json(entry.get("mbr"), where),
                    hilbert_lo=entry["hilbert_lo"],
                    hilbert_hi=entry["hilbert_hi"],
                    n_blocks=entry["n_blocks"],
                    epoch=entry["epoch"],
                )
                shard_path = manifest_path.with_name(info.file)
                try:
                    shard = PagedTree.open(
                        shard_path,
                        cache_pages=cache_pages,
                        readonly=readonly,
                        mmap=mmap,
                        cache_analytics=cache_analytics,
                        injector=injector,
                        # The manifest names the epoch it acknowledged;
                        # pin the shard there so commits the manifest
                        # never saw are rolled back with the family.
                        at_epoch=info.epoch,
                    )
                except StorageError as exc:
                    raise ShardError(f"{where}: {exc}") from None
                shard._use_values(table)
                shards.append(shard)
                cls._check_shard(where, shard, info, doc)
                infos.append(info)
            total = sum(info.size for info in infos)
            if total != doc["size"]:
                raise ShardError(
                    f"{manifest_path}: shards hold {total} entries, "
                    f"manifest promises {doc['size']}"
                )
        except Exception:
            for shard in shards:
                shard.page_store.file_store.close()
            raise
        return cls(
            manifest_path,
            shards,
            infos,
            dim=doc["dim"],
            fanout=doc["fanout"],
            block_size=doc["block_size"],
            order=doc["order"],
            size=doc["size"],
            next_oid=doc["next_oid"],
            bounds=bounds,
            readonly=readonly,
            generation=doc["generation"],
            injector=injector,
            health_baseline=doc.get("health_baseline"),
        )

    @staticmethod
    def _check_shard(
        where: str, shard: PagedTree, info: ShardInfo, doc: dict
    ) -> None:
        if shard.dim != doc["dim"] or shard.fanout != doc["fanout"]:
            raise ShardError(
                f"{where}: shard is dim={shard.dim} fanout={shard.fanout}, "
                f"manifest promises dim={doc['dim']} fanout={doc['fanout']}"
            )
        if shard.size != info.size:
            raise ShardError(
                f"{where}: shard file holds {shard.size} entries, "
                f"manifest promises {info.size}"
            )
        root = shard.root()
        actual = root.mbr() if len(root) else None
        if actual != info.mbr:
            raise ShardError(
                f"{where}: shard MBR mismatch — file has {actual}, "
                f"manifest promises {info.mbr}"
            )

    # -- introspection -------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def height(self) -> int:
        """Deepest shard's height (the family's worst root-to-leaf path)."""
        return max(shard.height for shard in self.shards)

    @property
    def readonly(self) -> bool:
        """True when every shard was opened without write access."""
        return self._readonly

    @property
    def objects(self):
        """The family's value table, shared by every shard."""
        return self.shards[0].objects

    @property
    def counters(self) -> _AggregateCounters:
        """Family-wide logical I/O (summed over shards, snapshot-only)."""
        return self.store.counters

    @property
    def page_stats(self) -> PageCacheStats:
        """Family-wide physical page-cache statistics (summed)."""
        return self.store.stats

    def shard_mbr(self, i: int) -> Rect | None:
        """Shard ``i``'s *live* root MBR (``None`` when empty).

        A routing-table read (no page access): :meth:`insert` /
        :meth:`delete` refresh the shard they wrote, so rectangles
        inserted since the last sync are never missed, and :meth:`sync`
        writes these boxes into the manifest.
        """
        return self._mbrs[i]

    def _refresh(self, i: int) -> None:
        """Re-read shard ``i``'s table entry from its live root, with no
        page-stat side effect."""
        shard = self.shards[i]
        root = shard.page_store.quiet_peek(shard.root_id)
        self._mbrs[i] = root.mbr() if len(root) else None

    def root(self) -> Node:
        """A synthetic internal node with one entry per non-empty shard.

        Gives the facade the same ``root().mbr()`` surface the server
        and the experiments use to learn an index's bounds.
        """
        return Node(
            is_leaf=False,
            entries=[
                (mbr, i) for i, mbr in enumerate(self._mbrs) if mbr is not None
            ],
        )

    def shard_loads(self) -> list[ShardLoad]:
        """Cumulative per-shard load snapshots, in shard order."""
        loads = []
        for i, shard in enumerate(self.shards):
            counters = shard.store.counters
            stats = shard.page_stats
            loads.append(
                ShardLoad(
                    reads=counters.reads,
                    writes=counters.writes,
                    physical_reads=stats.misses,
                    pages_flushed=stats.flushes,
                    busy_s=self.shard_busy_s[i],
                )
            )
        return loads

    def _note_shard_time(self, i: int, seconds: float) -> None:
        """Engines report their per-shard execution time here."""
        self.shard_busy_s[i] += seconds

    def all_data(self) -> Iterator[tuple[Rect, Any]]:
        """Every stored (rectangle, value) pair, shard by shard (uncounted)."""
        for shard in self.shards:
            yield from shard.all_data()

    def __len__(self) -> int:
        return self.size

    # -- routing -------------------------------------------------------

    def route(self, rect: Rect) -> int:
        """Shard index owning ``rect``'s Hilbert rank.

        Ranges are contiguous in shard order; keys above the last
        shard's range (or in a gap between ranges) fall to the first
        shard whose upper bound is not below them, keys above everything
        to the last shard.  The routing bounds are the *pack-time*
        dataset bounds, so the same rectangle always routes to the same
        shard regardless of later growth.
        """
        check_dim(rect, self.dim)
        if self.bounds is None or len(self.shards) == 1:
            return 0
        key = hilbert_key_for_center(rect, self.bounds, self.order)
        for i, hi in enumerate(self._route_his):
            if key <= hi:
                return i
        return len(self.shards) - 1

    # -- updates -------------------------------------------------------

    def _require_writable(self) -> None:
        if self._readonly:
            raise StorageError(
                f"{self.path} was opened read-only; reopen with "
                "readonly=False to insert or delete"
            )

    def insert(self, rect: Rect, value: Any) -> int:
        """Insert a data rectangle into the shard owning its Hilbert rank.

        Returns the *family-wide* object id (ids keep incrementing from
        the packed tree's high-water mark, exactly like the single-file
        write path).  The target shard's id counter is seeded with the
        family counter first, so ids stay unique across shards and one
        merged object table serves the whole family on reopen.  Raises
        :class:`~repro.storage.filestore.StorageError` up front on a
        read-only family, and ``ValueError`` on a rectangle of another
        dimension.
        """
        self._require_writable()
        check_dim(rect, self.dim)
        i = self.route(rect)
        shard = self.shards[i]
        shard._next_oid = max(shard._next_oid, self._next_oid)
        try:
            oid = shard.insert(rect, value)
        finally:
            # Also when the insert raised after the root changed.
            self._refresh(i)
        self._next_oid = oid + 1
        self.size += 1
        return oid

    def delete(self, rect: Rect, value: Any) -> bool:
        """Delete one matching data rectangle, broadcasting to shards.

        The owning shard (by Hilbert rank) is tried first, then every
        other shard whose live MBR intersects ``rect``; the first shard
        that finds a match wins.  Returns True when an entry was
        removed.  Raises ``ValueError`` on a rectangle of another
        dimension, before any shard is tried.
        """
        self._require_writable()
        check_dim(rect, self.dim)
        first = self.route(rect)
        order = [first] + [i for i in range(len(self.shards)) if i != first]
        for i in order:
            mbr = self._mbrs[i]
            if mbr is None or not mbr.intersects(rect):
                continue
            try:
                found = self.shards[i].delete(rect, value)
            finally:
                self._refresh(i)
            if found:
                self.size -= 1
                return True
        return False

    def sync(self) -> int:
        """Flush every dirty shard, then rewrite the manifest atomically.

        Each shard's :meth:`~repro.storage.paged.PagedTree.sync` is an
        atomic per-file commit (shadow pages + one header-slot flip);
        the manifest is then replaced in one ``os.replace`` recording
        the family's sizes, heights, MBRs, each shard's committed epoch
        and a bumped ``generation`` — either the old family or the new
        one is on disk, never a mix, and a crash after some shard flips
        but before the rename rolls the family back to the manifest's
        epochs on reopen.  Returns total pages flushed; a read-only
        family returns 0.  A sync with nothing new to commit (no shard
        epoch moved since the manifest was last written) skips the
        rewrite, so ``close()`` right after a ``sync()`` does not burn
        a generation.
        """
        if self._readonly:
            return 0
        flushed = sum(shard.sync() for shard in self.shards)
        if [info.epoch for info in self.infos] == [
            shard.page_store.file_store.commit_epoch for shard in self.shards
        ]:
            return flushed
        self.generation += 1
        self.infos = [
            replace(
                info,
                size=shard.size,
                height=shard.height,
                mbr=self.shard_mbr(i),
                epoch=shard.page_store.file_store.commit_epoch,
            )
            for i, (info, shard) in enumerate(zip(self.infos, self.shards))
        ]
        _write_manifest(
            self.path,
            dim=self.dim,
            fanout=self.fanout,
            block_size=self.block_size,
            order=self.order,
            size=self.size,
            next_oid=self._next_oid,
            bounds=self.bounds,
            infos=self.infos,
            generation=self.generation,
            injector=self._injector,
            health_baseline=self.health_baseline,
        )
        return flushed

    def close(self) -> None:
        """Sync pending writes and close every shard (idempotent)."""
        if self._closed:
            return
        crashed = self._injector is not None and self._injector.crashed
        if not self._readonly and not crashed:
            self.sync()
        for shard in self.shards:
            shard.page_store.file_store.close()
        self._closed = True

    def __enter__(self) -> "ShardedTree":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- convenience query surface ------------------------------------

    def query(self, window: Rect) -> Matches:
        """One-off window query over the whole family.

        For measured experiments construct a :class:`ShardedQueryEngine`
        directly — it exposes merged statistics and its per-shard
        sub-engines pay each internal read once across a workload.
        """
        matches, _ = ShardedQueryEngine(self).query(window)
        return matches

    def count_query(self, window: Rect) -> int:
        """Number of stored rectangles intersecting ``window``."""
        count, _ = ShardedPointEngine(self).count(window)
        return count

    def point_query(self, point: Sequence[float]) -> Matches:
        """One-off stabbing query over the whole family."""
        matches, _ = ShardedPointEngine(self).point_query(point)
        return matches

    def containment_query(self, window: Rect) -> Matches:
        """One-off containment query over the whole family."""
        matches, _ = ShardedPointEngine(self).containment_query(window)
        return matches

    def knn(self, target, k: int) -> Neighbors:
        """One-off k-nearest-neighbors over the whole family."""
        neighbors, _ = ShardedKNNEngine(self).knn(target, k)
        return neighbors

    def nearest(self, target) -> Iterator[Neighbor]:
        """Incremental nearest-neighbor stream over the whole family."""
        return ShardedKNNEngine(self).nearest(target)

    def __repr__(self) -> str:
        return (
            f"ShardedTree({self.path.name}, shards={len(self.shards)}, "
            f"dim={self.dim}, fanout={self.fanout}, size={self.size})"
        )


def open_index(
    path: str | os.PathLike,
    values: dict[int, Any] | Callable[[int], Any] | None = None,
    cache_pages: int = DEFAULT_CACHE_PAGES,
    readonly: bool = False,
    mmap: bool = False,
    cache_analytics: bool = False,
    injector: FaultInjector | None = None,
) -> PagedTree | ShardedTree:
    """Open a packed index, whatever its shape.

    A :func:`shard_pack` manifest (JSON, starts with ``{``) opens as a
    :class:`ShardedTree`; anything else is treated as a single
    :func:`~repro.storage.paged.pack_tree` file and opens as a
    :class:`~repro.storage.paged.PagedTree`.  ``mmap=True`` serves the
    file(s) from memory mappings; ``injector`` attaches a fault
    injector to every store the open touches (crash testing).
    """
    resolved = pathlib.Path(path)
    if not resolved.exists():
        raise StorageError(f"no index file at {resolved}")
    if not resolved.is_file():
        raise StorageError(f"{resolved} is not a file")
    with open(resolved, "rb") as handle:
        head = handle.read(1)
    if head == b"{":
        return ShardedTree.open(
            resolved,
            values=values,
            cache_pages=cache_pages,
            readonly=readonly,
            mmap=mmap,
            cache_analytics=cache_analytics,
            injector=injector,
        )
    return PagedTree.open(
        resolved,
        values=values,
        cache_pages=cache_pages,
        readonly=readonly,
        mmap=mmap,
        cache_analytics=cache_analytics,
        injector=injector,
    )


# ----------------------------------------------------------------------
# Sharded engines: the fan-out/merge layer
# ----------------------------------------------------------------------


class _ShardedFanout:
    """Shared plumbing of the sharded engines: shard selection from the
    routing table, serial fan-out in shard order (each shard on its own
    sub-engine paying each internal read once), merge, per-shard timing.
    """

    #: The single-tree engine each shard gets.
    _SUB_ENGINE: type

    def __init__(
        self, sharded: ShardedTree, cache_internal: bool = True
    ) -> None:
        self.sharded = sharded
        self.totals = QueryStats()
        self._subs = [
            self._SUB_ENGINE(shard, cache_internal)
            for shard in sharded.shards
        ]

    def _scatter(
        self, shape: Rect | Sequence[float], hits: Callable[[Rect], bool],
        call: Callable, merge: Callable[[list], Any] | None = None,
    ) -> tuple[Any, QueryStats]:
        """Route, fan out and merge one window-family request.

        ``shape`` is the request's window or point; ``hits`` tests a
        shard's box from the routing table; ``call`` runs the operator
        on one shard's sub-engine; ``merge`` combines the per-shard
        answers (default: their rows as one ``Matches``, in shard
        order).  A request that touches one shard returns that
        sub-engine's answer and stats as they are.
        """
        sharded = self.sharded
        check_dim(shape, sharded.dim)
        parts = self._fan_out(
            [i for i, mbr in enumerate(sharded._mbrs) if mbr and hits(mbr)],
            call,
        )
        if len(parts) == 1:
            self.totals.merge(parts[0][1])
            return parts[0]
        found = [answer for answer, _ in parts]
        return (
            merge(found) if merge else Matches.concat(found, sharded.dim),
            self._merge_stats([stats for _, stats in parts]),
        )

    def _fan_out(
        self, indices: list[int], call: Callable[[Any], Any]
    ) -> list[Any]:
        """Run ``call`` on each listed shard's sub-engine, in order.

        Untraced, a shard's I/O lands directly on the caller's tap (the
        request's or the batch's).  Traced, each shard runs under its
        own scoped tap — folded into the caller's on exit, so the totals
        are the same — whose snapshot is the ``io=`` of a ``shard:<i>``
        span on the shard's own trace track.
        """
        trace = current_trace()
        answers = []
        for i in indices:
            start = time.perf_counter()
            try:
                if trace is None:
                    answers.append(call(self._subs[i]))
                else:
                    with scoped_tap() as tap:
                        try:
                            answers.append(call(self._subs[i]))
                        finally:
                            trace.add_span(
                                f"shard:{i}",
                                start,
                                time.perf_counter(),
                                cat="shard",
                                track=i + 1,
                                io=tap.snapshot(),
                            )
            finally:
                self.sharded._note_shard_time(i, time.perf_counter() - start)
        return answers

    def _merge_stats(self, parts: list[QueryStats]) -> QueryStats:
        """Combine per-shard stats into one facade-level query's stats."""
        merged = QueryStats(queries=1)
        for part in parts:
            merged.leaf_reads += part.leaf_reads
            merged.internal_reads += part.internal_reads
            merged.internal_visits += part.internal_visits
            merged.reported += part.reported
        self.totals.merge(merged)
        return merged

    def per_shard_totals(self) -> list[QueryStats]:
        """Each shard sub-engine's accumulated totals, in shard order.

        The numerators of the I/O-balance tables: a well-partitioned
        family spreads a uniform workload's leaf reads evenly here.
        """
        return [replace(sub.totals) for sub in self._subs]

    def reset(self) -> None:
        """Clear the facade's and every shard's totals (engines stay warm)."""
        self.totals = QueryStats()
        for sub in self._subs:
            sub.reset()


class ShardedQueryEngine(_ShardedFanout):
    """Window queries over a sharded family.

    One :class:`~repro.rtree.query.QueryEngine` per shard reads that
    shard's pinned internal levels across queries; a query fans out only
    to shards whose live MBR intersects the window and concatenates the
    matches in shard order.
    """

    _SUB_ENGINE = QueryEngine

    def query(self, window: Rect) -> tuple[Matches, QueryStats]:
        return self._scatter(
            window, window.intersects,
            lambda sub: sub.query(window),
        )


class ShardedPointEngine(_ShardedFanout):
    """Point / containment / count queries over a sharded family."""

    _SUB_ENGINE = PointQueryEngine

    def point_query(
        self, point: Sequence[float]
    ) -> tuple[Matches, QueryStats]:
        point = tuple(float(c) for c in point)
        return self._scatter(
            point, lambda mbr: mbr.contains_point(point),
            lambda sub: sub.point_query(point),
        )

    def containment_query(
        self, window: Rect
    ) -> tuple[Matches, QueryStats]:
        return self._scatter(
            window, window.intersects,
            lambda sub: sub.containment_query(window),
        )

    def count(self, window: Rect) -> tuple[int, QueryStats]:
        return self._scatter(
            window, window.intersects,
            lambda sub: sub.count(window), merge=sum,
        )


#: kNN merge-heap tags: open this shard's stream vs consume this stream.
_SHARD, _STREAM = 0, 1


class ShardedKNNEngine(_ShardedFanout):
    """Best-first kNN merge over per-shard incremental streams.

    Each shard contributes a lazy best-first stream of its
    :class:`~repro.queries.knn.KNNEngine`; a merge heap holds, for every
    shard, either its root MINDIST (stream not yet opened) or its next
    pending neighbor, keyed by distance and then arrival.  A shard's
    stream is opened — and starts paying I/O — only when its root
    MINDIST reaches the head of the heap, so shards that cannot
    contribute to the global top-k are never read at all.  Neighbors pop
    in globally nondecreasing distance order, exactly like the
    single-tree engine.
    """

    _SUB_ENGINE = KNNEngine

    def nearest(self, target) -> Iterator[Neighbor]:
        """Incrementally yield family-wide neighbors by distance."""
        check_dim(target, self.sharded.dim)
        stats = [sub.totals for sub in self._subs]
        get = self.sharded.objects.get  # a stream: one value at a time
        return (
            Neighbor(math.sqrt(dist_sq), frame.rect(row), get(oid))
            for _, (dist_sq, frame, row, oid) in self._hits(target, stats)
        )

    def _hits(
        self, target, stats: list[QueryStats]
    ) -> Iterator[tuple[int, Hit]]:
        """``(shard, hit)`` in family-wide distance order; shard ``i``'s
        stream counts into ``stats[i]``."""
        heap: list[tuple[float, int, int, Any]] = []
        counter = 0
        for i, mbr in enumerate(self.sharded._mbrs):
            if mbr is None:
                continue
            dist = math.sqrt(target_dist_sq(mbr, target))
            heap.append((dist, counter, _SHARD, i))
            counter += 1
        heapq.heapify(heap)
        while heap:
            _, _, kind, payload = heapq.heappop(heap)
            if kind == _SHARD:
                start = time.perf_counter()
                stream = self._subs[payload]._hits(target, stats[payload])
                head = next(stream, None)
                self.sharded._note_shard_time(
                    payload, time.perf_counter() - start
                )
                if head is not None:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (math.sqrt(head[0]), counter, _STREAM,
                         (payload, head, stream)),
                    )
                continue
            shard, head, stream = payload
            yield shard, head
            start = time.perf_counter()
            following = next(stream, None)
            self.sharded._note_shard_time(
                shard, time.perf_counter() - start
            )
            if following is not None:
                counter += 1
                heapq.heappush(
                    heap,
                    (math.sqrt(following[0]), counter, _STREAM,
                     (shard, following, stream)),
                )

    def knn(self, target, k: int) -> tuple[Neighbors, QueryStats]:
        """The family-wide k nearest neighbors of ``target``."""
        if k < 0:
            raise ValueError("k must be >= 0")
        check_dim(target, self.sharded.dim)
        stats = [QueryStats() for _ in self._subs]
        found = list(islice(self._hits(target, stats), k))
        for sub, part in zip(self._subs, stats):
            sub.totals.merge(part)
        hits = [hit for _, hit in found]
        values = self.sharded.objects.take(id_column(hits))
        return Neighbors(hits, values), self._merge_stats(stats)


class ShardedJoinEngine:
    """Spatial join where either (or both) sides is a sharded family.

    Each side decomposes into its component trees (a plain tree is one
    component; a :class:`ShardedTree` is one per shard); the join runs a
    :class:`~repro.queries.join.SpatialJoinEngine` for every component
    pair whose root MBRs intersect, concatenating the pairs and summing
    the statistics in pair order.  Because shards partition their
    side's data, every intersecting data pair is reported exactly once.
    Component-pair engines are cached, so repeated joins pay each
    internal node's counted read once.
    """

    def __init__(
        self,
        left: RTree | ShardedTree,
        right: RTree | ShardedTree,
        cache_internal: bool = True,
    ) -> None:
        if left.dim != right.dim:
            raise ValueError(
                f"cannot join a {left.dim}-d index with a {right.dim}-d index"
            )
        self._left = left
        self._right = right
        self._cache_internal = cache_internal
        self._engines: dict[tuple[int, int], SpatialJoinEngine] = {}
        self.totals = JoinStats()

    @staticmethod
    def _components(
        side: RTree | ShardedTree,
    ) -> list[tuple[int | None, RTree]]:
        """(shard index, tree) components; index None for a plain tree."""
        if isinstance(side, ShardedTree):
            return list(enumerate(side.shards))
        return [(None, side)]

    def _engine(self, li: int, lt: RTree, ri: int, rt: RTree):
        engine = self._engines.get((li, ri))
        if engine is None:
            engine = SpatialJoinEngine(lt, rt, self._cache_internal)
            self._engines[(li, ri)] = engine
        return engine

    def join(self) -> tuple[list, JoinStats]:
        """Report every intersecting (left, right) data-rectangle pair."""
        tasks: list[tuple[int, RTree, int, RTree]] = []
        for li, ltree in self._components(self._left):
            lroot = ltree.root()
            if not len(lroot):
                continue
            lmbr = lroot.mbr()
            for ri, rtree in self._components(self._right):
                rroot = rtree.root()
                if not len(rroot):
                    continue
                if lmbr.intersects(rroot.mbr()):
                    tasks.append((li, ltree, ri, rtree))

        def run(task):
            li, ltree, ri, rtree = task
            start = time.perf_counter()
            try:
                return self._engine(li, ltree, ri, rtree).join()
            finally:
                elapsed = time.perf_counter() - start
                if isinstance(self._left, ShardedTree):
                    self._left._note_shard_time(li, elapsed)
                elif isinstance(self._right, ShardedTree):
                    self._right._note_shard_time(ri, elapsed)

        out: list = []
        stats = JoinStats(joins=1)
        for pairs, part in map(run, tasks):
            out.extend(pairs)
            stats.left.merge(part.left)
            stats.right.merge(part.right)
            stats.pairs += part.pairs
            stats.node_pairs += part.node_pairs
        self.totals.merge(stats)
        return out, stats

    def reset(self) -> None:
        """Clear accumulated totals (component-pair engines stay warm)."""
        self.totals = JoinStats()
