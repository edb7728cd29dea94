"""A real on-disk block store: one file, fixed-size byte blocks.

Where :class:`~repro.iomodel.blockstore.BlockStore` *simulates* the
paper's disk (payloads stay decoded Python objects), this store **is**
one: every block is ``block_size`` raw bytes at a fixed offset in a
single index file, written through the OS like the paper's 36 GB SCSI
disk held its R-trees.  The API surface and the
:class:`~repro.iomodel.counters.IOCounters` accounting are identical to
the simulated store — one counted I/O per ``read``/``write``/``allocate``,
free of charge for ``peek`` and ``free`` — so any experiment keeps its
reported numbers when moved onto a file.

Crash safety: shadow paging + a shadow header
---------------------------------------------

The store separates the **logical** block addresses the tree layer
holds (stable for the life of a block) from the **physical** slots the
bytes live in.  A logical write never overwrites the physical slot a
committed epoch depends on: it lands in a freshly claimed slot, and the
logical → physical map is updated in memory.  :meth:`flush` is the
atomic commit point — it writes the new map to fresh slots, forces the
data down, then publishes everything with a *single* checksummed
header-slot write (see below).  Superseded physical slots are
reclaimed only **after** that flip, so a crash anywhere — including a
torn header write — leaves the previous committed state fully intact
and reachable.

File layout (little-endian)::

    header region (HEADER_REGION = 4096 bytes):
        slot 0 at offset    0   (HEADER_SLOT = 2048 bytes)
        slot 1 at offset 2048   (HEADER_SLOT bytes)
    blocks: physical slot p at offset HEADER_REGION + p * block_size

    each header slot:
        magic "FBS2" | u16 version | u32 block_size | u64 epoch
        | u64 n_logical | u64 freelist_head | u64 live_count
        | u64 phys_high | u64 map_index | u32 meta_len | meta bytes
        | zero padding | u32 crc32 of the preceding 2044 bytes

A commit with epoch E writes slot ``E % 2``, so the two slots always
hold the two most recent commits; open validates both checksums and
loads the highest valid epoch (ties break to the higher slot index,
which cannot happen for well-formed files but keeps open total).  The
logical → physical map is stored in ordinary blocks, rewritten to
*fresh* slots each commit and chained from the header's ``map_index``:
index blocks hold ``block_size/8 - 1`` pointers to map-data blocks plus
a trailing next-pointer (``2^64-1`` terminates); map-data blocks hold
``block_size/8`` entries, one ``u64`` per logical id.  A live entry is
the physical slot (with ``2^63-1`` meaning *reserved but never
written*: reads return zeros); an entry with bit 63 set is freed, and
its low 63 bits chain the logical freelist (all-ones terminates), so
``allocate`` still pops freed addresses before extending — the
simulated store's compactness property survives the indirection.

The store is thread-safe: a single lock serializes file access, which is
what lets a :class:`~repro.server.QueryServer` execute batches over
shared tree handles from several worker threads — and what the async
serving layer's overlapping read batches rely on.

One writer per file: a writable store (:meth:`create`, or :meth:`open`
without ``readonly``) holds an exclusive ``flock`` on its descriptor
until :meth:`close`, so a second writable open of the same file — in
this process or another — raises :class:`StorageError` instead of two
writers committing over each other's shadow slots.  Read-only opens
take no lock and may sit beside the writer.

Every store maps its file: block reads are slices of the mapping and
block writes land in it, so there is one access path whether the store
was opened read-only or not.  The
:class:`~repro.iomodel.counters.IOCounters` accounting is what the
*caller* did, not how the bytes arrived.  A write past the end grows
the file and the mapping to exactly the written end (``mmap.resize``),
so the file size stays the committed footprint.  Nothing read out of a
store views the mapping: ``peek``, ``read`` and :meth:`peek_many`
return copies, so a result outlives any later growth and ``close``.
Because a mapping faults (``SIGBUS``) on pages cut off under it,
nothing may truncate a file a store has open: :meth:`create` replaces
an existing file (unlink, then create) instead of truncating it.

For crash testing, a :class:`~repro.storage.faults.FaultInjector` can
be attached at :meth:`create`/:meth:`open`: every physical write is
then filtered through it, and a scripted
:class:`~repro.storage.faults.SimulatedCrash` freezes the store (no
further writes, including on ``close``) exactly like a killed process.
"""

from __future__ import annotations

import fcntl
import mmap
import os
import pathlib
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.iomodel.blockstore import DEFAULT_BLOCK_SIZE, BlockStore, FreedBlockError
from repro.iomodel.counters import IOCounters
from repro.iomodel.store import BlockId
from repro.obs.tap import active_tap
from repro.storage.faults import FaultInjector, SimulatedCrash

__all__ = [
    "FileBlockStore",
    "StorageError",
    "RecoveryInfo",
    "HEADER_REGION",
    "HEADER_SLOT",
]

_MAGIC = b"FBS2"
_VERSION = 2
#: Per-slot header prefix: magic, version, block_size, epoch, n_logical,
#: freelist_head, live_count, phys_high, map_index, meta_len.
_SLOT_STRUCT = "<4sHIQQQQQQI"
_SLOT_BYTES = struct.calcsize(_SLOT_STRUCT)

#: Magic of the retired pre-shadow format, recognised only to reject it
#: by name.
_RETIRED_MAGIC = b"FBS1"

#: Fixed room reserved at the file start for the two header slots, so
#: block offsets are independent of the block size.
HEADER_REGION = 4096
#: Each of the two alternating header slots, checksummed independently.
HEADER_SLOT = HEADER_REGION // 2
#: Maximum application metadata bytes one header slot can hold.
META_CAPACITY = HEADER_SLOT - _SLOT_BYTES - 4

#: Freelist / map-chain terminator.
_NIL = 2**64 - 1
#: Map entry bit marking a freed logical block (low 63 bits chain the
#: logical freelist; all-ones low bits terminate the chain).
_FREE_BIT = 1 << 63
_FREE_MASK = _FREE_BIT - 1
#: Live map entry meaning "address reserved, no bytes ever written".
_UNWRITTEN = _FREE_MASK


class StorageError(ValueError):
    """The index file is missing, malformed, or inconsistent."""


class _SlotError(ValueError):
    """One header slot failed validation (the other may still be good)."""


@dataclass(frozen=True)
class RecoveryInfo:
    """What :meth:`FileBlockStore.open` recovered, for observability.

    ``header_slot`` is the slot index the committed state was loaded
    from.  ``rolled_back_blocks`` counts physical blocks found in the
    file beyond the committed extent — the debris of an uncommitted
    epoch a crash abandoned.
    ``discarded_epoch`` is set when ``at_epoch`` deliberately skipped a
    newer valid commit (sharded-family rollback).
    """

    epoch: int
    header_slot: int
    rolled_back_blocks: int
    discarded_epoch: int | None = None


def _lock_for_writing(fd: int, path: pathlib.Path) -> None:
    """Take the file's one writer lock (``flock``, exclusive, without
    waiting): a second writable handle on the same file, in this
    process or another, raises :class:`StorageError` naming it.  Closing
    the descriptor releases the lock."""
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        raise StorageError(
            f"{path} is already open for writing; one writer per file "
            "(open it readonly=True to read beside the writer)"
        ) from None


class FileBlockStore:
    """Fixed-size byte blocks in a single file, with I/O accounting.

    Construct with :meth:`create` (new file) or :meth:`open` (existing
    file); both return a store that should be :meth:`close`-d — or used
    as a context manager — so the final commit hits the disk.

    Payloads are ``bytes`` of at most :attr:`block_size` (shorter
    payloads are zero-padded; reads always return exactly one block).
    Block ids handed out are **logical** addresses: stable across
    commits even though the bytes migrate between physical slots.
    """

    def __init__(
        self,
        fd: int,
        mapping: mmap.mmap,
        path: pathlib.Path,
        block_size: int,
        meta: bytes,
        counters: IOCounters | None,
        injector: FaultInjector | None = None,
    ) -> None:
        self._fd = fd
        self._map = mapping
        self.path = path
        self.block_size = block_size
        self.counters = counters if counters is not None else IOCounters()
        self.generation = 0  # bumped by every block write and free
        self._meta = meta
        self._injector = injector
        self._lock = threading.Lock()
        self._closed = False
        self._readonly = False
        self._crashed = False
        # Committed state (create/open overwrite for non-empty files).
        self._l2p: list[int] = []
        self._freelist_head = _NIL
        self._freed_count = 0
        self._phys_high = 0
        self._map_chain: list[int] = []
        self._epoch = 0
        # Uncommitted-epoch bookkeeping.
        self._phys_free: list[int] = []
        self._phys_pending: list[int] = []
        self._fresh_phys: set[int] = set()
        self._dirty = False
        # The bytes written since the last msync, [lo, hi): what the
        # next commit's msync covers.
        self._unsynced = (_NIL, 0)
        self.recovery = RecoveryInfo(epoch=0, header_slot=0, rolled_back_blocks=0)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | os.PathLike,
        block_size: int = DEFAULT_BLOCK_SIZE,
        meta: bytes = b"",
        counters: IOCounters | None = None,
        injector: FaultInjector | None = None,
    ) -> "FileBlockStore":
        """Create a fresh index file, replacing any existing one.

        An existing file is unlinked, never truncated: another store may
        still map it, and keeps reading its old blocks.
        """
        if block_size < 16:
            # A map block must hold at least one u64 entry plus the
            # chain's u64 next-pointer.
            raise ValueError("block_size must be at least 16 bytes")
        if len(meta) > META_CAPACITY:
            raise ValueError(
                f"metadata is {len(meta)} bytes, header slot holds "
                f"{META_CAPACITY}"
            )
        resolved = pathlib.Path(path)
        resolved.unlink(missing_ok=True)
        fd = os.open(resolved, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            _lock_for_writing(fd, resolved)
            os.ftruncate(fd, HEADER_REGION)  # an empty file cannot be mapped
            mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_WRITE)
        except Exception:
            os.close(fd)
            raise
        store = cls(
            fd, mapping, resolved, block_size, bytes(meta), counters, injector
        )
        # Epoch 0 is the empty store: commit it to slot 0 so the file is
        # openable from the moment it exists.
        try:
            store._write_slot_locked(0, _NIL)
        except BaseException:
            store.close()  # writes nothing more: epoch 0 is not dirty
            raise
        return store

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        counters: IOCounters | None = None,
        readonly: bool = False,
        injector: FaultInjector | None = None,
        at_epoch: int | None = None,
    ) -> "FileBlockStore":
        """Open an existing index file at its last committed state.

        Both header slots are checksum-validated and the highest valid
        epoch wins — a crash mid-commit (even a torn header write)
        rolls back to the previous commit.  ``at_epoch`` pins the open
        to a specific committed epoch instead (the slots retain the two
        most recent); the sharded layer uses it to roll a whole family
        back to the epochs its manifest named.  The file is mapped
        read-only for ``readonly=True`` and writable otherwise; a
        writable open takes the file's one writer lock, and raises
        :class:`StorageError` when another handle holds it.
        """
        resolved = pathlib.Path(path)
        if not resolved.exists():
            raise StorageError(f"no index file at {resolved}")
        if not resolved.is_file():
            raise StorageError(f"{resolved} is not a file")
        fd = os.open(resolved, os.O_RDONLY if readonly else os.O_RDWR)
        mapping = None
        try:
            if not readonly:
                _lock_for_writing(fd, resolved)
            # Checked before mapping: an empty file cannot be mapped.
            if os.fstat(fd).st_size < HEADER_REGION:
                raise StorageError(f"{resolved} is shorter than the header")
            mapping = mmap.mmap(
                fd, 0, access=mmap.ACCESS_READ if readonly else mmap.ACCESS_WRITE
            )
            region = mapping[:HEADER_REGION]
            slots: dict[int, dict] = {}
            reasons: dict[int, str] = {}
            for idx in (0, 1):
                try:
                    slots[idx] = cls._parse_slot(region, idx)
                except _SlotError as exc:
                    reasons[idx] = str(exc)
            if slots:
                store = cls._open_v2(
                    fd, mapping, resolved, slots, at_epoch, counters, injector
                )
            elif region[:4] == _RETIRED_MAGIC:
                raise StorageError(
                    f"{resolved}: {_RETIRED_MAGIC.decode()} files are no "
                    f"longer supported"
                )
            elif _MAGIC in (region[:4], region[HEADER_SLOT : HEADER_SLOT + 4]):
                raise StorageError(
                    f"{resolved}: no valid header slot "
                    f"(slot 0: {reasons[0]}; slot 1: {reasons[1]})"
                )
            else:
                raise StorageError(f"{resolved}: bad magic {region[:4]!r}")
        except Exception:
            if mapping is not None:
                mapping.close()
            os.close(fd)
            raise
        store._readonly = readonly
        return store

    # -- header-slot parsing -------------------------------------------

    @staticmethod
    def _parse_slot(region: bytes, idx: int) -> dict:
        """Validate one header slot, returning its fields or raising
        :class:`_SlotError` with the reason it cannot be trusted."""
        slot = region[idx * HEADER_SLOT : (idx + 1) * HEADER_SLOT]
        if slot[:4] != _MAGIC:
            raise _SlotError(f"no {_MAGIC.decode()} magic")
        (stored_crc,) = struct.unpack_from("<I", slot, HEADER_SLOT - 4)
        if zlib.crc32(slot[: HEADER_SLOT - 4]) != stored_crc:
            raise _SlotError("bad checksum (torn or corrupt header write)")
        (
            _magic,
            version,
            block_size,
            epoch,
            n_logical,
            freelist_head,
            live_count,
            phys_high,
            map_index,
            meta_len,
        ) = struct.unpack_from(_SLOT_STRUCT, slot)
        if version != _VERSION:
            raise _SlotError(f"unsupported version {version}")
        if block_size < 16:
            raise _SlotError(f"impossible block size {block_size}")
        if meta_len > META_CAPACITY:
            raise _SlotError(f"metadata length {meta_len}")
        if epoch % 2 != idx:
            raise _SlotError(f"epoch {epoch} in wrong slot")
        if live_count > n_logical:
            raise _SlotError(
                f"live count {live_count} exceeds {n_logical} blocks"
            )
        return {
            "slot": idx,
            "block_size": block_size,
            "epoch": epoch,
            "n_logical": n_logical,
            "freelist_head": freelist_head,
            "live_count": live_count,
            "phys_high": phys_high,
            "map_index": map_index,
            "meta": slot[_SLOT_BYTES : _SLOT_BYTES + meta_len],
        }

    @classmethod
    def _open_v2(
        cls,
        fd: int,
        mapping: mmap.mmap,
        resolved: pathlib.Path,
        slots: dict[int, dict],
        at_epoch: int | None,
        counters: IOCounters | None,
        injector: FaultInjector | None,
    ) -> "FileBlockStore":
        if at_epoch is not None:
            matching = [s for s in slots.values() if s["epoch"] == at_epoch]
            if not matching:
                have = sorted(s["epoch"] for s in slots.values())
                raise StorageError(
                    f"{resolved}: no committed epoch {at_epoch} in header "
                    f"slots (have {have})"
                )
            chosen = matching[0]
        else:
            chosen = max(
                slots.values(), key=lambda s: (s["epoch"], s["slot"])
            )
        discarded = max(
            (
                s["epoch"]
                for s in slots.values()
                if s["epoch"] > chosen["epoch"]
            ),
            default=None,
        )
        block_size = chosen["block_size"]
        phys_high = chosen["phys_high"]
        expected = HEADER_REGION + phys_high * block_size
        actual = len(mapping)
        if actual < expected:
            raise StorageError(
                f"{resolved} is {actual} bytes, header promises {expected}"
            )
        l2p, chain, used_phys = cls._load_map(
            mapping, resolved, chosen, block_size
        )
        # Cross-check the logical freelist chained through the map.
        live = sum(1 for e in l2p if not (e & _FREE_BIT))
        if live != chosen["live_count"]:
            raise StorageError(
                f"{resolved}: block map has {live} live blocks, header "
                f"promises {chosen['live_count']}"
            )
        walked = 0
        cursor = chosen["freelist_head"]
        seen_free: set[int] = set()
        while cursor != _NIL:
            if (
                cursor >= len(l2p)
                or cursor in seen_free
                or not (l2p[cursor] & _FREE_BIT)
            ):
                raise StorageError(
                    f"{resolved}: corrupt freelist at block {cursor}"
                )
            seen_free.add(cursor)
            walked += 1
            nxt = l2p[cursor] & _FREE_MASK
            cursor = _NIL if nxt == _FREE_MASK else nxt
        if walked != len(l2p) - live:
            raise StorageError(
                f"{resolved}: freelist has {walked} blocks, header "
                f"promises {len(l2p) - live}"
            )
        store = cls(
            fd, mapping, resolved, block_size, chosen["meta"], counters, injector
        )
        store._l2p = l2p
        store._freelist_head = chosen["freelist_head"]
        store._freed_count = len(l2p) - live
        store._phys_high = phys_high
        store._map_chain = chain
        store._epoch = chosen["epoch"]
        store._phys_free = sorted(
            set(range(phys_high)) - used_phys - set(chain), reverse=True
        )
        store.recovery = RecoveryInfo(
            epoch=chosen["epoch"],
            header_slot=chosen["slot"],
            rolled_back_blocks=max(
                0, (actual - HEADER_REGION) // block_size - phys_high
            ),
            discarded_epoch=discarded,
        )
        return store

    @staticmethod
    def _load_map(
        mapping: mmap.mmap, resolved: pathlib.Path, chosen: dict, block_size: int
    ) -> tuple[list[int], list[int], set[int]]:
        """Read the committed logical → physical map off disk.

        Returns the map entries, the physical chain that stores them,
        and the set of physical slots live map entries point at.  Every
        slot below ``phys_high`` lies inside the mapping (the caller
        checked the file size), so each chain block is read whole.
        """
        epb = block_size // 8  # u64 entries per block
        n_logical = chosen["n_logical"]
        phys_high = chosen["phys_high"]
        n_data = (n_logical + epb - 1) // epb
        chain: list[int] = []
        seen: set[int] = set()
        data_ptrs: list[int] = []
        cursor = chosen["map_index"]
        while cursor != _NIL and len(data_ptrs) < n_data:
            if cursor >= phys_high or cursor in seen:
                raise StorageError(
                    f"{resolved}: corrupt map chain at block {cursor}"
                )
            seen.add(cursor)
            chain.append(cursor)
            offset = HEADER_REGION + cursor * block_size
            ptrs = struct.unpack_from(f"<{epb}Q", mapping, offset)
            take = min(epb - 1, n_data - len(data_ptrs))
            data_ptrs.extend(ptrs[:take])
            cursor = ptrs[epb - 1]
        if len(data_ptrs) != n_data:
            raise StorageError(
                f"{resolved}: map chain holds {len(data_ptrs)} of "
                f"{n_data} map blocks"
            )
        l2p: list[int] = []
        used_phys: set[int] = set()
        for k, ptr in enumerate(data_ptrs):
            if ptr >= phys_high or ptr in seen:
                raise StorageError(
                    f"{resolved}: corrupt map chain at block {ptr}"
                )
            seen.add(ptr)
            chain.append(ptr)
            count = min(epb, n_logical - k * epb)
            l2p.extend(
                struct.unpack_from(
                    f"<{count}Q", mapping, HEADER_REGION + ptr * block_size
                )
            )
        for logical, entry in enumerate(l2p):
            if entry & _FREE_BIT or entry == _UNWRITTEN:
                continue
            if entry >= phys_high or entry in used_phys:
                raise StorageError(
                    f"{resolved}: corrupt block map at block {logical}"
                )
            used_phys.add(entry)
        return l2p, chain, used_phys

    # ------------------------------------------------------------------
    # Header and metadata
    # ------------------------------------------------------------------

    def _write_slot_locked(self, epoch: int, map_index: int) -> None:
        """Publish the current state as commit ``epoch`` — one write to
        the slot the epoch's parity selects, checksummed last 4 bytes."""
        body = struct.pack(
            _SLOT_STRUCT,
            _MAGIC,
            _VERSION,
            self.block_size,
            epoch,
            len(self._l2p),
            self._freelist_head,
            len(self._l2p) - self._freed_count,
            self._phys_high,
            map_index,
            len(self._meta),
        )
        slot = (body + self._meta).ljust(HEADER_SLOT - 4, b"\x00")
        slot += struct.pack("<I", zlib.crc32(slot))
        self._pwrite((epoch % 2) * HEADER_SLOT, slot)

    @property
    def metadata(self) -> bytes:
        """Application-owned metadata stored in the header slot."""
        return self._meta

    @property
    def readonly(self) -> bool:
        """True when the file was opened without write access."""
        return self._readonly

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def crashed(self) -> bool:
        """True once an injected crash froze the store."""
        return self._crashed

    @property
    def commit_epoch(self) -> int:
        """The last committed epoch (0 for a fresh store)."""
        return self._epoch

    @property
    def header_slot(self) -> int:
        """The header slot carrying :attr:`commit_epoch` (epoch E is
        written to slot ``E % 2``)."""
        return self._epoch % 2

    @property
    def dirty(self) -> bool:
        """True when uncommitted changes would be lost by a crash."""
        return self._dirty

    @property
    def pending_reclaim(self) -> tuple[int, ...]:
        """Physical slots superseded this epoch, reusable only after
        the next commit flips (the double-free/reuse-before-commit
        guard the crash tests pin down)."""
        return tuple(self._phys_pending)

    def set_metadata(self, meta: bytes, persist: bool = True) -> None:
        """Replace the metadata (committed immediately by default).

        ``persist=False`` only stages the bytes; the next
        :meth:`flush`/:meth:`close` commits them — callers that flush
        right after (e.g. a paged tree's ``sync``) get the metadata and
        the data into the *same* atomic commit.
        """
        if len(meta) > META_CAPACITY:
            raise ValueError(
                f"metadata is {len(meta)} bytes, header slot holds "
                f"{META_CAPACITY}"
            )
        with self._lock:
            self._check_writable()
            staged = bytes(meta)
            if staged != self._meta:
                self._meta = staged
                self._dirty = True
            if persist and self._dirty:
                self._commit_locked()

    # ------------------------------------------------------------------
    # Physical access (the mapping)
    # ------------------------------------------------------------------

    def _phys_offset(self, phys: int) -> int:
        return HEADER_REGION + phys * self.block_size

    def _raw_pwrite(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset`` into the mapping.

        A write past the end first grows the file and its mapping to
        exactly the written end (``mmap.resize`` resizes both), so the
        file size stays the written extent that :meth:`file_bytes` and
        the benchmarks' bytes per rectangle read.  Allocation is
        block-at-a-time and mostly sequential: one remap per appended
        block.
        """
        end = offset + len(data)
        if end > len(self._map):
            self._map.resize(end)
        self._map[offset:end] = data
        lo, hi = self._unsynced
        self._unsynced = (min(lo, offset), max(hi, end))

    def _pwrite(self, offset: int, data: bytes) -> None:
        """One physical write, routed through the fault injector.

        On a scripted crash the injector's partial bytes (a torn
        prefix, or everything for a crash-after-write) are persisted,
        the store freezes, and :class:`SimulatedCrash` propagates.
        """
        if self._injector is not None:
            try:
                data = self._injector.filter(offset, data)
            except SimulatedCrash as crash:
                self._crashed = True
                if crash.partial_data:
                    self._raw_pwrite(offset, crash.partial_data)
                raise
        self._raw_pwrite(offset, data)

    def _os_flush(self) -> None:
        """Push written bytes to stable storage: ``msync`` the pages
        written since the last flush, then ``fsync`` the file (its size
        and metadata)."""
        lo, hi = self._unsynced
        if lo < hi:  # widened to whole pages, as msync takes them
            page = mmap.PAGESIZE
            lo -= lo % page
            hi = min(-(-hi // page) * page, len(self._map))
            self._map.flush(lo, hi - lo)
            self._unsynced = (_NIL, 0)
        os.fsync(self._fd)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _pad(self, payload: bytes | None) -> bytes:
        if payload is None:
            payload = b""
        if len(payload) > self.block_size:
            raise ValueError(
                f"payload is {len(payload)} bytes, blocks hold "
                f"{self.block_size}"
            )
        return payload.ljust(self.block_size, b"\x00")

    def _check_writable(self) -> None:
        if self._readonly:
            raise StorageError(f"{self.path} was opened read-only")

    def _phys_alloc_locked(self) -> int:
        """Claim a physical slot no committed epoch depends on."""
        if self._phys_free:
            phys = self._phys_free.pop()
        else:
            phys = self._phys_high
            self._phys_high += 1
        self._fresh_phys.add(phys)
        self._dirty = True
        return phys

    def _place_locked(self, block_id: BlockId) -> int:
        """Pick the physical slot a (live) logical write lands in.

        A slot claimed earlier *this* epoch is overwritten in place —
        no committed state points at it.  A slot the last commit
        published is shadowed: the write goes to a fresh slot and the
        old one joins the pending pool, reclaimable only after the next
        header flip.
        """
        self.generation += 1
        current = self._l2p[block_id]
        if current != _UNWRITTEN and current in self._fresh_phys:
            return current
        phys = self._phys_alloc_locked()
        if current != _UNWRITTEN:
            self._phys_pending.append(current)
        self._l2p[block_id] = phys
        return phys

    def _claim_locked(self) -> BlockId:
        """Claim the next logical address: freelist pop before growth."""
        if self._freelist_head != _NIL:
            block_id = self._freelist_head
            nxt = self._l2p[block_id] & _FREE_MASK
            self._freelist_head = _NIL if nxt == _FREE_MASK else nxt
            self._l2p[block_id] = _UNWRITTEN
            self._freed_count -= 1
        else:
            block_id = len(self._l2p)
            self._l2p.append(_UNWRITTEN)
        self._dirty = True
        return block_id

    def allocate(self, payload: bytes | None = None) -> BlockId:
        """Allocate a block and write ``payload``, counting one write.

        Freed logical addresses are reused (freelist pop) before the
        address space grows.
        """
        data = self._pad(payload)
        tap = active_tap()
        with self._lock:
            self._check_writable()
            block_id = self._claim_locked()
            phys = self._place_locked(block_id)
            self._pwrite(self._phys_offset(phys), data)
            self.counters.record_write(block_id)
            if tap is not None:
                tap.writes += 1
        return block_id

    def reserve(self) -> BlockId:
        """Claim a block address without writing any payload bytes.

        Pops the freelist (reusing freed addresses) before growing,
        exactly like :meth:`allocate`, but performs **no counted I/O**
        and claims no physical slot: the caller owns the block's bytes
        and writes them later — the write-back page layer reserves on
        ``allocate`` and only materializes the block when the dirty
        page is flushed.  Until then reads return zeros.
        """
        with self._lock:
            self._check_writable()
            return self._claim_locked()

    def free(self, block_id: BlockId) -> None:
        """Release a block onto the freelist (metadata only, no I/O).

        The physical slot is *not* immediately reusable if the last
        commit published it: overwriting it before the next header flip
        would corrupt the state a crash rolls back to, so it parks in
        the pending pool until the flip.
        """
        with self._lock:
            self._check_writable()
            if not 0 <= block_id < len(self._l2p):
                raise KeyError(f"block {block_id} is not allocated")
            current = self._l2p[block_id]
            if current & _FREE_BIT:
                raise FreedBlockError(f"double free of block {block_id}")
            if current != _UNWRITTEN:
                if current in self._fresh_phys:
                    # Claimed this epoch: no commit depends on it.
                    self._fresh_phys.discard(current)
                    self._phys_free.append(current)
                else:
                    self._phys_pending.append(current)
            self._l2p[block_id] = _FREE_BIT | (
                self._freelist_head & _FREE_MASK
            )
            self._freelist_head = block_id
            self._freed_count += 1
            self.generation += 1
            self._dirty = True

    def _is_allocated(self, block_id: BlockId) -> bool:
        return 0 <= block_id < len(self._l2p) and not (
            self._l2p[block_id] & _FREE_BIT
        )

    def _check_live(self, block_id: BlockId) -> None:
        if 0 <= block_id < len(self._l2p):
            if self._l2p[block_id] & _FREE_BIT:
                raise FreedBlockError(
                    f"block {block_id} was freed (read-after-free)"
                )
            return
        raise KeyError(f"block {block_id} is not allocated")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def _read_bytes_locked(self, block_id: BlockId) -> bytes:
        phys = self._l2p[block_id]
        if phys == _UNWRITTEN:
            return b"\x00" * self.block_size
        start = self._phys_offset(phys)
        data = self._map[start : start + self.block_size]  # a copy
        if len(data) < self.block_size:
            raise StorageError(
                f"short read at block {block_id}: file is truncated"
            )
        return data

    def read(self, block_id: BlockId) -> bytes:
        """Read one block of bytes, counting one I/O."""
        tap = active_tap()
        with self._lock:
            self._check_live(block_id)
            data = self._read_bytes_locked(block_id)
            self.counters.record_read(block_id)
            if tap is not None:
                tap.reads += 1
        return data

    def write(self, block_id: BlockId, payload: bytes) -> None:
        """Overwrite a block (logically) in place, counting one I/O."""
        data = self._pad(payload)
        tap = active_tap()
        with self._lock:
            self._check_writable()
            self._check_live(block_id)
            phys = self._place_locked(block_id)
            self._pwrite(self._phys_offset(phys), data)
            self.counters.record_write(block_id)
            if tap is not None:
                tap.writes += 1

    def write_back(self, block_id: BlockId, payload: bytes) -> None:
        """Physically write a block *without* counting I/O.

        The flush half of the dirty-page write-back protocol: the
        logical write was already counted when the page was dirtied, so
        materializing it here must not count again.  Physical write
        traffic is reported by the page layer
        (:class:`~repro.storage.paged.PageCacheStats`).
        """
        data = self._pad(payload)
        with self._lock:
            self._check_writable()
            self._check_live(block_id)
            phys = self._place_locked(block_id)
            self._pwrite(self._phys_offset(phys), data)

    def peek(self, block_id: BlockId) -> bytes:
        """Read a block *without* counting I/O (validation/debugging)."""
        with self._lock:
            self._check_live(block_id)
            return self._read_bytes_locked(block_id)

    def peek_many(self, block_ids: list[BlockId]) -> bytes | bytearray | memoryview:
        """:meth:`peek` every block of ``block_ids``: a fresh bytes-like
        buffer of their bytes end to end, in request order.  Every id is
        checked, in order and with :meth:`peek`'s errors, before a byte
        is copied.  One block is one plain copy; more are gathered out
        of the mapping in one fancy index over a ``(slots, block_size)``
        view of it."""
        size = self.block_size
        with self._lock:
            l2p, n = self._l2p, len(self._l2p)
            limit = (len(self._map) - HEADER_REGION) // size  # slots mapped
            slots: list[int] = []
            unwritten: list[int] = []  # where reserved blocks read as zeros
            for block_id in block_ids:
                phys = l2p[block_id] if 0 <= block_id < n else _NIL
                if phys >= limit:  # freed, unallocated, unwritten or cut off
                    self._check_live(block_id)
                    if phys != _UNWRITTEN:
                        raise StorageError(
                            f"short read at block {block_id}: file is truncated"
                        )
                    unwritten.append(len(slots))
                    phys = 0
                slots.append(phys)
            if len(unwritten) == len(slots):
                return bytearray(len(slots) * size)
            if len(slots) == 1:
                start = self._phys_offset(slots[0])
                return self._map[start : start + size]  # a copy
            # mmap.resize and close raise BufferError while a view lives.
            mapped = np.frombuffer(
                self._map, np.uint8, limit * size, HEADER_REGION
            ).reshape(limit, size)
            try:
                out = mapped[slots]
            finally:
                del mapped
        if unwritten:
            out[unwritten] = 0
        return memoryview(out.reshape(-1))

    #: No page cache here, so :meth:`peek` already leaves no trace.
    quiet_peek = peek

    #: Nor any page miss: the simulated store's ``peek``/``read`` loop.
    read_many = BlockStore.read_many

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of live (allocated, not freed) blocks."""
        return len(self._l2p) - self._freed_count

    def __contains__(self, block_id: BlockId) -> bool:
        return self._is_allocated(block_id)

    def block_ids(self) -> Iterator[BlockId]:
        """Iterate live block addresses in address order."""
        return (
            bid
            for bid in range(len(self._l2p))
            if not (self._l2p[bid] & _FREE_BIT)
        )

    @property
    def allocated_ever(self) -> int:
        """Total blocks ever allocated (high-water logical address)."""
        return len(self._l2p)

    def bytes_used(self) -> int:
        """Live blocks times block size — the on-disk data footprint."""
        return len(self) * self.block_size

    def file_bytes(self) -> int:
        """Committed file footprint: header region plus every physical
        slot the store has claimed (data + shadow map)."""
        return HEADER_REGION + self._phys_high * self.block_size

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _commit_locked(self) -> None:
        """The atomic commit: shadow map out, fsync, one header flip,
        fsync, then — and only then — reclaim superseded slots."""
        old_chain = self._map_chain
        epb = self.block_size // 8
        new_chain: list[int] = []
        data_ptrs: list[int] = []
        for start in range(0, len(self._l2p), epb):
            chunk = self._l2p[start : start + epb]
            phys = self._phys_alloc_locked()
            self._pwrite(
                self._phys_offset(phys),
                struct.pack(f"<{len(chunk)}Q", *chunk).ljust(
                    self.block_size, b"\x00"
                ),
            )
            data_ptrs.append(phys)
            new_chain.append(phys)
        map_index = _NIL
        if data_ptrs:
            idx_cap = epb - 1
            groups = [
                data_ptrs[k : k + idx_cap]
                for k in range(0, len(data_ptrs), idx_cap)
            ]
            for group in reversed(groups):
                phys = self._phys_alloc_locked()
                body = struct.pack(f"<{len(group)}Q", *group).ljust(
                    idx_cap * 8, b"\x00"
                )
                self._pwrite(
                    self._phys_offset(phys),
                    (body + struct.pack("<Q", map_index)).ljust(
                        self.block_size, b"\x00"
                    ),
                )
                map_index = phys
                new_chain.append(phys)
        # Everything the new epoch needs is on disk before the flip.
        self._os_flush()
        epoch = self._epoch + 1
        self._write_slot_locked(epoch, map_index)
        if self._injector is not None:
            self._injector.mark_commit("store")
        self._os_flush()
        # The flip happened: the old epoch's exclusive slots (its map
        # chain and every superseded data slot) are now reclaimable.
        self._epoch = epoch
        self._map_chain = new_chain
        self._phys_free.extend(self._phys_pending)
        self._phys_free.extend(old_chain)
        self._phys_free.sort(reverse=True)
        self._phys_pending = []
        self._fresh_phys.clear()
        self._dirty = False

    def flush(self) -> None:
        """Commit all uncommitted changes atomically.

        Writes the shadow map to fresh physical slots, forces data
        down, publishes with a single checksummed header-slot write,
        and only then recycles superseded slots.  A store with nothing
        uncommitted writes nothing.  After an injected crash this is a
        no-op: a dead process writes nothing.
        """
        with self._lock:
            if self._dirty and not (self._readonly or self._crashed):
                self._commit_locked()

    def close(self) -> None:
        """Flush (commit), unmap and close the backing file, which
        releases a writable store's lock (idempotent; a crashed store
        writes nothing, and releases it too)."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._map.close()
            os.close(self._fd)
            self._closed = True

    def __enter__(self) -> "FileBlockStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"FileBlockStore({self.path}, block_size={self.block_size}, "
            f"live={len(self)}, epoch={self._epoch}, {self.counters!r})"
        )
