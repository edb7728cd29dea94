"""Sharded packed indexes: one logical tree across several index files.

A single :func:`~repro.storage.paged.pack_tree` file serializes every
query behind one page cache and one disk arm; the production-scale
answer (ROADMAP "sharding", and the partitioned-worker shape of the
SIGMOD 2014 contest systems) is to split one logical index into K
independent index files and read only the shards that can contribute.

:func:`shard_pack` sorts a bulk-loaded tree's *leaf entries* by the
Hilbert key of their centers, cuts that order into K contiguous ranges,
packs each range as an independent index file with leaves 90 % full
(:data:`LEAF_FILL`)
(reusing :func:`~repro.storage.paged.pack_tree`), and writes a JSON
*shard manifest* describing the family: per-shard file, entry count,
MBR, block count and committed epoch (byte-for-byte layout in
``docs/storage-format.md``).

:class:`ShardedTree` opens every shard as a
:class:`~repro.storage.paged.PagedTree` and serves the family as **one
tree**: its root is virtual, with one row per non-empty shard (the
shard's live root box, from a routing table the facade's writes keep),
and each shard's own pinned levels stack below it
(:meth:`ShardedTree.level_table`).  Block ids carry their shard, and the
family's ``store`` sends each read to that shard's page store, so every
engine — window, point, containment, count, kNN, join and EXPLAIN —
runs on a family exactly as on one file, reads only shards whose box
can contribute, and charges each shard's own counters.  Writes descend
that root as a tree's do: an **insert** takes Guttman's ChooseLeaf over
the live shard boxes (least enlargement, ties to the smaller box), a
**delete** tries that shard and then every shard whose box contains the
victim, and :meth:`ShardedTree.sync` flushes every dirty shard then
rewrites the manifest atomically (fsynced temp file + ``os.replace``).

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

import json
import math
from contextlib import ExitStack, nullcontext
import os
import pathlib
import time
from dataclasses import dataclass, replace
from itertools import count, groupby
from typing import Any, Callable, Iterator, Sequence

from repro.bulk.base import pack_leaf_level, pack_level
from repro.geometry.hilbert import DEFAULT_ORDER, hilbert_keys_for_centers
from repro.geometry import kernels
from repro.geometry.rect import Rect, check_dim
from repro.iomodel.blockstore import BlockStore, DEFAULT_BLOCK_SIZE
from repro.iomodel.counters import IOSnapshot
from repro.obs import health
from repro.obs.tap import scoped_tap
from repro.obs.trace import current_trace
from repro.queries.knn import KNNEngine, Neighbors
from repro.queries.point import PointQueryEngine
from repro.rtree.levels import Level, LevelStats, LevelTable, levels_of
from repro.rtree.node import Node, NodeFrame
from repro.rtree.query import QueryEngine
from repro.rtree.tree import RTree
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.filestore import StorageError
from repro.storage.paged import (
    DEFAULT_CACHE_PAGES,
    PackStats,
    PageCacheStats,
    PagedNodeStore,
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
    "shard_pack",
    "open_index",
]

#: The manifest's ``format`` field; rejects arbitrary JSON files early.
MANIFEST_FORMAT = "repro-shards"
#: Manifest schema version this module writes.  Version 2 added a
#: family ``generation`` stamp and a per-shard committed store
#: ``epoch``, so a crash between shard syncs and the manifest rewrite
#: recovers to the consistent family cut the manifest names.  Version 3
#: drops the Hilbert routing fields: writes route by the live boxes.
MANIFEST_VERSION = 3
#: Top-level manifest fields, each a JSON integer.
_INT_FIELDS = (
    "dim", "fanout", "block_size", "size", "next_oid", "shards", "generation",
)
#: Fields of each ``shard_files`` entry that are JSON integers.
_SHARD_INT_FIELDS = ("size", "height", "n_blocks", "epoch")
#: Share of the fan-out a packed family leaf holds: ⌊0.9·B⌋ rows, 101
#: of 113 at 4 KB (PostgreSQL's default index fillfactor).  A family is
#: the index that takes writes: a full leaf splits on its first insert,
#: often leaving a ``min_fill`` half that the next delete dissolves and
#: reinserts.  The levels above stay full.  Fixed, not an option
#: (``docs/benchmarks.md`` tables 100 / 95 / 90 / 80 %).
LEAF_FILL = 0.9


class ShardError(StorageError):
    """The shard manifest is missing, malformed, or inconsistent."""


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardInfo:
    """One shard's entry in the manifest.

    ``mbr`` is the shard's root MBR at the last sync (``None`` for an
    empty shard) — reads and writes use the *live* root MBR, the
    manifest copy exists so opening can cross-check the file against
    the manifest.  ``epoch`` is the store commit epoch the
    shard held when the manifest was written; opening pins each shard to
    it, rolling back any shard commit the manifest never acknowledged.
    """

    file: str
    size: int
    height: int
    mbr: Rect | None
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

    The temp file is fsynced before the rename and the directory after
    it, so a replaced manifest survives a power failure as a store's
    committed epoch does (``docs/durability.md``).

    With a fault injector attached, the temp-file write is one
    injectable physical write (it can be torn or dropped) and the
    ``os.replace`` is one injectable *atomic commit event* — a scripted
    crash lands either before the rename (old file survives) or after
    it (new file is durable), never in between.
    """
    tmp = path.with_name(path.name + ".tmp")
    data = text.encode("utf-8")
    if injector is None:
        _write_synced(tmp, data)
        _replace_synced(tmp, path)
        return
    try:
        data = injector.filter(str(tmp), data)
    except SimulatedCrash as crash:
        if crash.partial_data:
            tmp.write_bytes(crash.partial_data)
        raise
    _write_synced(tmp, data)
    with injector.commit_event("manifest"):
        _replace_synced(tmp, path)


def _write_synced(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` and fsync it before returning."""
    with open(path, "wb") as file:
        file.write(data)
        file.flush()
        os.fsync(file.fileno())


def _replace_synced(src: pathlib.Path, dst: pathlib.Path) -> None:
    """``os.replace`` then fsync the directory, so the rename is durable."""
    os.replace(src, dst)
    fd = os.open(dst.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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
) -> ShardPackStats:
    """Split a bulk-loaded tree into K Hilbert-range shard files.

    The tree's leaf entries are sorted by the Hilbert key of their
    centers (over the tree's bounding box, quantized at
    :data:`~repro.geometry.hilbert.DEFAULT_ORDER` bits per axis; ties by
    object id), split into ``shards`` contiguous ranges of near-equal
    cardinality, and each range is rebuilt bottom-up — *preserving the
    original object ids* — and written as its own index file next to
    the manifest with :func:`~repro.storage.paged.pack_tree`.  The
    manifest at ``path`` records the family (see
    ``docs/storage-format.md``); shard files are named
    ``<manifest>.shardNN``.

    ``shards`` is clamped to the number of data entries (an empty tree
    packs a single empty shard), so every shard is non-empty.

    Shard leaves are packed to :data:`LEAF_FILL` of the fan-out, so
    that writes find room.  :func:`pack_tree` writes a loader's tree as
    given: the loaders carry the paper's > 99 % fill, and the read-only
    indexes it serves would pay about 11 % more bytes per rectangle for
    slack they never use.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    manifest_path = pathlib.Path(path)

    # Every leaf row in one frame, keyed in one column.
    leaves = NodeFrame.concat(
        [leaf.frame() for _, leaf in tree.iter_leaves()]
    )
    oids = leaves.ptrs.tolist()
    n = len(oids)
    keys: list[int] = []
    if n:
        keys = hilbert_keys_for_centers(
            leaves.lo, leaves.hi, tree.root().mbr(), DEFAULT_ORDER
        )
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
                n_blocks=stats.n_blocks,
                epoch=stats.commit_epoch,
            )
        )

    _write_manifest(
        manifest_path,
        dim=tree.dim,
        fanout=tree.fanout,
        block_size=block_size,
        size=n,
        next_oid=next_oid,
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
    an empty shard).  Every leaf but the last holds ⌊LEAF_FILL·B⌋ rows,
    every node above B.  Unlike :func:`~repro.bulk.base.pack_ordered`, leaf
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
        level = pack_level(
            store, leaf_level, math.floor(LEAF_FILL * source.fanout)
        )
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
    size: int,
    next_oid: int,
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
        "size": size,
        "next_oid": next_oid,
        "shards": len(infos),
        "shard_files": [
            {
                "file": info.file,
                "size": info.size,
                "height": info.height,
                "mbr": _rect_to_json(info.mbr),
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
    ``busy_s`` the wall-clock seconds spent inside this shard's store
    calls made through the family's ``store`` (the only per-shard work
    a read does; writes, the merge and the engines' kernels are not
    in it).  Snapshots subtract, so a batch's per-shard cost is
    ``after[i] - before[i]``.
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

    def __init__(self, stores: list[PagedNodeStore]) -> None:
        self._stores = stores

    def snapshot(self) -> IOSnapshot:
        total = IOSnapshot()
        for store in self._stores:
            total = total + store.counters.snapshot()
        return total

    @property
    def reads(self) -> int:
        return self.snapshot().reads

    @property
    def writes(self) -> int:
        return self.snapshot().writes


#: A family block id is its shard's block id plus the shard number
#: shifted this far: shard 0's ids are its own.
_SHARD_SHIFT = 40
_BLOCK_MASK = (1 << _SHARD_SHIFT) - 1


def _shard_of(block_id: int) -> int:
    return block_id >> _SHARD_SHIFT


class _FamilyStore:
    """The family's ``.store``: what the engines and the server read.

    ``read_many`` and ``quiet_peek`` send each family block id to its
    shard's :class:`~repro.storage.paged.PagedNodeStore`, so the
    shard's own counters, page-cache statistics and tracker — and the
    active tap — are charged exactly as by a read of that file.  A
    ``read_many`` makes one call per run of one shard's ids, in order;
    the time inside it is the shard's ``busy_s``, and traced it is a
    ``shard:<i>`` span on the shard's track whose ``io=`` is that call's
    own scoped tap (folded into the caller's on exit).  ``counters`` and
    ``stats`` sum the shards, so a family meters like one file.
    ``generation`` moves whenever the facade refreshes a shard after a
    write (:func:`~repro.rtree.levels.levels_of`).
    """

    def __init__(self, stores: list[PagedNodeStore]) -> None:
        self._stores = stores
        self.counters = _AggregateCounters(stores)
        self.generation = 0
        self.busy_s = [0.0] * len(stores)

    @property
    def stats(self) -> PageCacheStats:
        total = PageCacheStats()
        for store in self._stores:
            stats = store.stats
            total.hits += stats.hits
            total.misses += stats.misses
            total.evictions += stats.evictions
            total.flushes += stats.flushes
        return total

    def read_many(
        self, block_ids: Sequence[int], physical: dict | None = None
    ) -> list[Node]:
        trace = current_trace()
        nodes: list[Node] = []
        for i, run in groupby(block_ids, key=_shard_of):
            local = [block_id & _BLOCK_MASK for block_id in run]
            misses = None if physical is None else {}
            start = time.perf_counter()
            try:
                with nullcontext() if trace is None else scoped_tap() as tap:
                    nodes += self._stores[i].read_many(local, misses)
            finally:
                end = time.perf_counter()
                self.busy_s[i] += end - start
                if trace is not None:
                    trace.add_span(
                        f"shard:{i}", start, end, cat="shard", track=i + 1,
                        io=tap.snapshot(),
                    )
            if misses:
                base = i << _SHARD_SHIFT
                physical.update((base + b, n) for b, n in misses.items())
        return nodes

    def quiet_peek(self, block_id: int) -> Node:
        return self._stores[_shard_of(block_id)].quiet_peek(
            block_id & _BLOCK_MASK
        )


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------


class ShardedTree:
    """One logical index served from K shard files, as one tree.

    Construct with :meth:`open` on a :func:`shard_pack` manifest; close
    (or use as a context manager) when done.  To the engines the family
    is one tree — a ``store``, a virtual ``root_id``, ``height``,
    ``objects`` and a level table (:meth:`level_table`) — so
    :class:`~repro.rtree.query.QueryEngine`,
    :class:`~repro.queries.point.PointQueryEngine`,
    :class:`~repro.queries.knn.KNNEngine` and
    :class:`~repro.queries.join.SpatialJoinEngine` serve it unchanged
    (measured experiments construct them directly; :meth:`query` and its
    siblings are one-off conveniences).  Updates go through
    :meth:`insert` / :meth:`delete`, which choose shards at the virtual
    root as a tree's writes choose children (:meth:`route`);
    :meth:`sync` makes the family a consistency point.
    """

    #: The virtual family root's id (negative: no block stands behind
    #: it, see :mod:`repro.rtree.levels`).
    root_id = -1

    def __init__(
        self,
        path: pathlib.Path,
        shards: list[PagedTree],
        infos: list[ShardInfo],
        dim: int,
        fanout: int,
        block_size: int,
        size: int,
        next_oid: int,
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
        self.size = size
        self.generation = generation
        #: The family's pack-time tree-quality baseline (or None on a
        #: pre-baseline manifest); preserved verbatim across syncs.
        self.health_baseline = health.decode_baseline(health_baseline)
        self._injector = injector
        self._next_oid = max(next_oid, size)
        self._readonly = readonly
        self.store = _FamilyStore([shard.page_store for shard in shards])
        self._levels: LevelTable | None = None
        self.level_stats = LevelStats()
        #: The routing table: each shard's live root MBR (None: empty).
        #: Loop-thread state written by insert/delete; sync() reads it.
        self._mbrs: list[Rect | None] = [None] * len(shards)
        for i in range(len(shards)):
            self._refresh(i)
        self._closed = False

    # -- construction --------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        values: dict[int, Any] | Callable[[int], Any] | None = None,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        readonly: bool = False,
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
                    n_blocks=entry["n_blocks"],
                    epoch=entry["epoch"],
                )
                shard_path = manifest_path.with_name(info.file)
                try:
                    shard = PagedTree.open(
                        shard_path,
                        cache_pages=cache_pages,
                        readonly=readonly,
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
            size=doc["size"],
            next_oid=doc["next_oid"],
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
        # A quiet peek, as _refresh reads it: opening leaves no page-cache
        # trace, so the first query of a family finds what it would in
        # its shards' own files.
        root = shard.page_store.quiet_peek(shard.root_id)
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
        page-stat side effect, and move the family's generation, so its
        level table follows the write (:meth:`follow_writes`)."""
        shard = self.shards[i]
        root = shard.page_store.quiet_peek(shard.root_id)
        self._mbrs[i] = root.mbr() if len(root) else None
        #: Deepest shard's height (the family's worst root-to-leaf path).
        self.height = max(shard.height for shard in self.shards)
        self.store.generation += 1

    def level_table(self) -> LevelTable:
        """The family's internal levels as one tree's table.

        Level 0 is the virtual root: one row per non-empty shard, its
        live box from the routing table, last shard first (so a
        depth-first walk, which takes rows last first, meets the shards
        in shard order).  Below it each shard's own pinned table
        (:func:`~repro.rtree.levels.levels_of`) is stacked with its node
        ids and child pointers moved into the family's id space.  A
        shard shorter than the deepest gets a chain of one-row
        pass-through nodes above its root, so every leaf lies at one
        depth; those and the root have negative ids and are no block.
        The table's ``parts`` record, per shard, the table, height,
        store generation and box it was stacked from (None for an empty
        shard), which :meth:`follow_writes` patches from.
        """
        live = [
            i for i in reversed(range(len(self.shards)))
            if self._mbrs[i] is not None
        ]
        depth = max((self.shards[i].height for i in live), default=1)
        passing = count(self.root_id - 1, -1)
        rows: list[tuple[Rect, int]] = []
        below: list[tuple[list, list]] = [([], []) for _ in range(depth - 1)]
        parts: list[tuple | None] = [None] * len(self.shards)
        for i in live:
            shard, box, base = self.shards[i], self._mbrs[i], i << _SHARD_SHIFT
            own = levels_of(shard)
            parts[i] = (own, shard.height, shard.store.generation, box)
            chain = [next(passing) for _ in range(depth - shard.height)]
            chain.append(base + shard.root_id)
            rows.append((box, chain[0]))
            for (ids, frames), node, child in zip(below, chain, chain[1:]):
                ids.append(node)
                frames.append(NodeFrame.from_entries(False, [(box, child)], self.dim))
            for (ids, frames), level in zip(below[len(chain) - 1 :], own.levels):
                ids += [base + block_id for block_id in level.ids]
                frames += [
                    NodeFrame(False, frame.box, frame.ptrs + base)
                    for frame in level.frames
                ]
        root = NodeFrame.from_entries(False, rows, self.dim)
        return LevelTable.stacked(
            self,
            [Level([self.root_id], [root])]
            + [Level(ids, frames) for ids, frames in below],
            virtual=1 + sum(depth - self.shards[i].height for i in live),
            parts=parts,
        )

    def still_paid(
        self, paid: set[int], old: LevelTable, new: LevelTable
    ) -> set[int]:
        """The internal reads an engine paid against ``old`` that still
        hold against ``new``, the table restacked after it: those of
        each shard whose own table both were stacked from, as one
        engine per shard would keep them."""
        kept = {
            i for i, (was, now) in enumerate(zip(old.parts, new.parts))
            if was is not None and now is not None and was[0] is now[0]
        }
        return {block_id for block_id in paid if block_id >> _SHARD_SHIFT in kept}

    def follow_writes(self, table: LevelTable) -> bool:
        """Bring the family's pinned ``table`` up to its shards' writes;
        False to restack.

        Only a shard written since ``table.parts`` stamped it is looked
        at.  Its own table follows its store
        (:func:`~repro.rtree.levels.levels_of`); each of its internal
        nodes written since is patched at its family id (``shard <<
        40`` plus its own), and when its box moved, so is its routing
        row in the virtual root and in each pass-through node above it.
        A shard that was emptied or filled, changed height or rebuilt
        its own table restacks the family.
        """
        parts = list(table.parts)
        live = [i for i in reversed(range(len(parts))) if parts[i] is not None]
        written: dict[int, NodeFrame] = {}
        routes = []
        for i, shard in enumerate(self.shards):
            part, box = parts[i], self._mbrs[i]
            if (part is None) != (box is None):
                return False
            if part is None or part[2] == shard.store.generation:
                continue
            own, height, seen, routed = part
            if shard.height != height or levels_of(shard) is not own:
                return False
            base = i << _SHARD_SHIFT
            for block_id in shard.store.internal_writes_since(seen):
                frame = own.frames.get(block_id)
                if frame is None:
                    continue
                # The family's frame shares the box of the shard frame it
                # was made from, and keeps its pointers: the shard's own
                # patch refused any change to them.
                old = table.frames[base + block_id]
                if frame.box is not old.box:
                    written[base + block_id] = NodeFrame(False, frame.box, old.ptrs)
            if box != routed:
                routes.append(i)
            parts[i] = (own, height, shard.store.generation, box)
        if routes:
            frames = table.frames
            root = frames[self.root_id]
            boxes = [self._mbrs[i].lo + self._mbrs[i].hi for i in live]
            written[self.root_id] = NodeFrame(
                False, kernels.box_table(boxes, self.dim), root.ptrs
            )
            for i in routes:
                box = kernels.box_table([boxes[live.index(i)]], self.dim)
                node = root.ptrs.item(live.index(i))
                while node < 0:  # the pass-through chain down to the shard
                    written[node] = NodeFrame(False, box, frames[node].ptrs)
                    node = frames[node].ptrs.item(0)
        if not table.patch(written):
            return False
        table.parts = parts
        return True

    def root(self) -> Node:
        """A synthetic internal node with one entry per non-empty shard.

        Gives the facade the same ``root().mbr()`` surface the server
        and the experiments use to learn an index's bounds, and holds
        the rows :meth:`route` chooses among.
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
                    busy_s=self.store.busy_s[i],
                )
            )
        return loads

    def all_data(self) -> Iterator[tuple[Rect, Any]]:
        """Every stored (rectangle, value) pair, shard by shard (uncounted)."""
        for shard in self.shards:
            yield from shard.all_data()

    def __len__(self) -> int:
        return self.size

    # -- routing -------------------------------------------------------

    def route(self, rect: Rect) -> int:
        """The shard an insert of ``rect`` goes to: Guttman's ChooseLeaf
        at the virtual root.

        The live shard box (:meth:`root`'s rows) that grows least to
        cover ``rect`` wins, ties going to the smaller box, then to the
        lower shard, exactly as an insert picks a child in a tree.  An
        empty shard has no row, so it takes no insert while another
        shard is live; a family with every shard empty refills shard 0.
        A rectangle with an infinite or NaN coordinate has no
        enlargement: ``ValueError``, naming it.
        """
        check_dim(rect, self.dim)
        if not all(map(math.isfinite, rect.lo + rect.hi)):
            raise ValueError(
                f"rectangle {rect.lo} to {rect.hi} has a non-finite "
                "coordinate: a family routes finite rectangles only"
            )
        frame = self.root().frame()
        if not len(frame):
            return 0
        return frame.ptrs.item(
            kernels.frame_least_enlargement(frame.lo, frame.hi, rect.lo, rect.hi)
        )

    # -- updates -------------------------------------------------------

    def _require_writable(self) -> None:
        if self._readonly:
            raise StorageError(
                f"{self.path} was opened read-only; reopen with "
                "readonly=False to insert or delete"
            )

    def insert(self, rect: Rect, value: Any) -> int:
        """Insert a data rectangle into the shard :meth:`route` chooses.

        Returns the *family-wide* object id (ids keep incrementing from
        the packed tree's high-water mark, exactly like the single-file
        write path).  The target shard's id counter is seeded with the
        family counter first, so ids stay unique across shards and one
        merged object table serves the whole family on reopen.  Raises
        :class:`~repro.storage.filestore.StorageError` up front on a
        read-only family, and ``ValueError`` on a rectangle of another
        dimension or one :meth:`route` refuses, before any shard is
        touched.
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
        """Delete one matching data rectangle.

        An entry lies inside its shard's live box, so only shards whose
        box contains ``rect`` are tried: the one :meth:`route` chooses
        first, then the others in shard order; the first shard that
        finds a match wins.  Returns True when an entry was removed.
        Raises ``ValueError`` on a rectangle of another dimension or
        one :meth:`route` refuses, before any shard is tried.
        """
        self._require_writable()
        check_dim(rect, self.dim)
        first = self.route(rect)
        order = [first] + [i for i in range(len(self.shards)) if i != first]
        for i in order:
            mbr = self._mbrs[i]
            if mbr is None or not mbr.contains_rect(rect):
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
            size=self.size,
            next_oid=self._next_oid,
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
        with ExitStack() as closing:  # every shard closes, whatever raises
            for shard in self.shards:
                closing.callback(shard.page_store.file_store.close)
            self._closed = True
            if not self._readonly and not crashed:
                self.sync()

    def __enter__(self) -> "ShardedTree":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- convenience query surface ------------------------------------

    # One-off queries, as on a tree (measured experiments construct the
    # engines, which pay each internal read once across a workload).
    query = RTree.query
    count_query = RTree.count_query

    def knn(self, target, k: int) -> Neighbors:
        """One-off k-nearest-neighbors over the whole family."""
        neighbors, _ = KNNEngine(self).knn(target, k)
        return neighbors

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
    cache_analytics: bool = False,
    injector: FaultInjector | None = None,
) -> PagedTree | ShardedTree:
    """Open a packed index, whatever its shape.

    A :func:`shard_pack` manifest (JSON, starts with ``{``) opens as a
    :class:`ShardedTree`; anything else is treated as a single
    :func:`~repro.storage.paged.pack_tree` file and opens as a
    :class:`~repro.storage.paged.PagedTree`.  ``injector`` attaches a
    fault injector to every store the open touches (crash testing).
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
            cache_analytics=cache_analytics,
            injector=injector,
        )
    return PagedTree.open(
        resolved,
        values=values,
        cache_pages=cache_pages,
        readonly=readonly,
        cache_analytics=cache_analytics,
        injector=injector,
    )


#: The single-tree engines serve a family unchanged.  These names are
#: kept only for callers written against the fan-out engines they
#: replaced.
ShardedQueryEngine = QueryEngine
ShardedPointEngine = PointQueryEngine
ShardedKNNEngine = KNNEngine
