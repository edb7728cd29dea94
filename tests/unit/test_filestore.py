"""Unit tests for the on-disk file block store."""

import mmap
import os
import stat
import struct
import subprocess
import sys
import textwrap
import zlib

import pytest

from repro.datasets.synthetic import uniform_rects
from repro.iomodel.blockstore import BlockStore, FreedBlockError
from repro.iomodel.counters import IOCounters
from repro.iomodel.store import BlockStoreProtocol
from repro.prtree.prtree import build_prtree
from repro.storage import ShardedTree, shard_pack
from repro.storage.filestore import (
    FileBlockStore,
    HEADER_REGION,
    HEADER_SLOT,
    META_CAPACITY,
    StorageError,
)


@pytest.fixture
def path(tmp_path):
    return tmp_path / "store.fbs"


class TestCreateAndLayout:
    def test_satisfies_store_protocol(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            assert isinstance(store, BlockStoreProtocol)

    def test_fresh_store_is_empty(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            assert len(store) == 0
            assert store.allocated_ever == 0
            assert store.bytes_used() == 0

    def test_block_offsets_are_fixed(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            store.allocate(b"first")
            store.allocate(b"second")
        raw = path.read_bytes()
        assert raw[HEADER_REGION : HEADER_REGION + 5] == b"first"
        assert raw[HEADER_REGION + 64 : HEADER_REGION + 70] == b"second"

    def test_payload_zero_padded_to_block(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            bid = store.allocate(b"abc")
            data = store.read(bid)
            assert len(data) == 64
            assert data == b"abc" + b"\x00" * 61

    def test_none_payload_is_zero_block(self, path):
        with FileBlockStore.create(path, block_size=32) as store:
            assert store.read(store.allocate(None)) == b"\x00" * 32

    def test_oversized_payload_rejected(self, path):
        with FileBlockStore.create(path, block_size=16) as store:
            with pytest.raises(ValueError):
                store.allocate(b"x" * 17)

    def test_tiny_block_size_rejected(self, path):
        with pytest.raises(ValueError):
            FileBlockStore.create(path, block_size=4)

    def test_create_requires_a_path(self):
        with pytest.raises(TypeError):
            FileBlockStore.create(None, block_size=32)

    def test_create_replaces_the_file_rather_than_truncating(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            for _ in range(8):
                store.allocate(b"old")
        with open(path, "rb") as old:
            before = os.fstat(old.fileno())
            with FileBlockStore.create(path, block_size=64):
                pass
            # The old inode is whole; the path names a new one.
            assert os.fstat(old.fileno()).st_size == before.st_size
            assert os.stat(path).st_ino != before.st_ino
            assert os.path.getsize(path) < before.st_size

    def test_metadata_roundtrip(self, path):
        with FileBlockStore.create(path, block_size=64, meta=b"tree-info"):
            pass
        with FileBlockStore.open(path) as store:
            assert store.metadata == b"tree-info"

    def test_set_metadata_persists(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            store.set_metadata(b"later")
        with FileBlockStore.open(path) as store:
            assert store.metadata == b"later"

    def test_metadata_capacity_enforced(self, path):
        with pytest.raises(ValueError):
            FileBlockStore.create(
                path, block_size=64, meta=b"x" * (META_CAPACITY + 1)
            )


class TestAccounting:
    def test_same_counting_as_simulated_store(self, path):
        """The file store and the simulated store count identically."""
        sim = BlockStore(block_size=64)
        with FileBlockStore.create(path, block_size=64) as real:
            for store, payload in ((sim, "a"), (real, b"a")):
                x = store.allocate(payload)
                y = store.allocate(payload)
                store.read(x)
                store.read(y)
                store.write(x, payload)
                store.peek(y)
            assert real.counters.reads == sim.counters.reads == 2
            assert real.counters.writes == sim.counters.writes == 3
            assert real.counters.seq_reads == sim.counters.seq_reads

    def test_sequential_allocation_detected(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            for i in range(5):
                store.allocate(b"x")
            # First write has no predecessor; the next four are sequential.
            assert store.counters.seq_writes == 4

    def test_peek_and_free_cost_nothing(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            bid = store.allocate(b"x")
            before = store.counters.total
            store.peek(bid)
            store.free(bid)
            assert store.counters.total == before

    def test_peek_many_reads_what_peek_reads(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            ids = [store.allocate(bytes([i]) * 8) for i in range(3)]
            store.write(ids[1], b"z" * 8)
            got = store.peek_many([ids[2], ids[0], ids[1]])
            assert bytes(got) == b"".join(
                store.peek(i) for i in (ids[2], ids[0], ids[1])
            )

    def test_peek_many_checks_every_block(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            ids = [store.allocate(b"p") for _ in range(3)]
            store.free(ids[1])
            before = store.counters.snapshot()
            with pytest.raises(FreedBlockError):
                store.peek_many([ids[0], ids[1]])
            with pytest.raises(KeyError):
                store.peek_many([ids[2], 99])
            assert store.counters.snapshot() == before

    def test_peek_many_reads_an_unwritten_block_as_zeros(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            first = store.allocate(b"a" * 64)
            reserved = store.reserve()  # claimed, never written
            got = store.peek_many([reserved, first, reserved])
            assert bytes(got) == b"\x00" * 64 + b"a" * 64 + b"\x00" * 64
            assert store.peek(reserved) == b"\x00" * 64

    def test_shared_counters(self, path):
        counters = IOCounters()
        with FileBlockStore.create(
            path, block_size=64, counters=counters
        ) as store:
            store.allocate(b"x")
            assert counters.writes == 1


class TestFreelist:
    def test_free_then_reuse_lifo(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            ids = [store.allocate(b"x") for _ in range(4)]
            store.free(ids[1])
            store.free(ids[2])
            assert store.allocate(b"y") == ids[2]
            assert store.allocate(b"y") == ids[1]
            assert store.allocate(b"y") == 4  # freelist empty: file grows

    def test_double_free_raises(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            bid = store.allocate(b"x")
            store.free(bid)
            with pytest.raises(FreedBlockError, match="double free"):
                store.free(bid)

    def test_read_after_free_raises(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            bid = store.allocate(b"x")
            store.free(bid)
            with pytest.raises(FreedBlockError, match="read-after-free"):
                store.read(bid)
            with pytest.raises(FreedBlockError):
                store.write(bid, b"y")
            with pytest.raises(FreedBlockError):
                store.peek(bid)

    def test_unallocated_access_is_plain_key_error(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            with pytest.raises(KeyError) as excinfo:
                store.read(42)
            assert not isinstance(excinfo.value, FreedBlockError)
            with pytest.raises(KeyError):
                store.free(42)

    def test_reallocated_block_is_readable_again(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            bid = store.allocate(b"old")
            store.free(bid)
            again = store.allocate(b"new")
            assert again == bid
            assert store.read(bid)[:3] == b"new"

    def test_freelist_survives_reopen(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            ids = [store.allocate(b"x") for _ in range(5)]
            store.free(ids[0])
            store.free(ids[3])
        with FileBlockStore.open(path) as store:
            assert len(store) == 3
            assert sorted(store.block_ids()) == [1, 2, 4]
            with pytest.raises(FreedBlockError):
                store.read(ids[3])
            # LIFO order is preserved across the reopen.
            assert store.allocate(b"y") == ids[3]
            assert store.allocate(b"y") == ids[0]


class TestReserveAndWriteBack:
    """The uncounted write-back half used by the dirty-page layer."""

    def test_reserve_claims_address_without_io(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            before = store.counters.total
            bid = store.reserve()
            assert bid == 0
            assert store.counters.total == before
            assert bid in store
            assert store.reserve() == 1

    def test_reserve_pops_freelist(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            ids = [store.allocate(b"x") for _ in range(3)]
            store.free(ids[1])
            assert store.reserve() == ids[1]
            assert store.reserve() == 3

    def test_write_back_is_uncounted_and_persists(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            bid = store.reserve()
            before = store.counters.total
            store.write_back(bid, b"deferred")
            assert store.counters.total == before
            assert store.peek(bid)[:8] == b"deferred"
        with FileBlockStore.open(path) as store:
            assert store.peek(bid)[:8] == b"deferred"

    def test_write_back_checks_liveness(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            bid = store.allocate(b"x")
            store.free(bid)
            with pytest.raises(FreedBlockError):
                store.write_back(bid, b"y")
            with pytest.raises(KeyError):
                store.write_back(42, b"y")

    def test_reserved_never_written_block_survives_reopen(self, path):
        # A reserved block freed before any flush must not leave the
        # file shorter than the header promises.
        with FileBlockStore.create(path, block_size=64) as store:
            store.allocate(b"x")
            bid = store.reserve()
            store.free(bid)
        with FileBlockStore.open(path) as store:
            assert len(store) == 1
            assert store.allocate(b"y") == bid

    def test_reserve_readonly_raises(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            store.allocate(b"x")
        with FileBlockStore.open(path, readonly=True) as store:
            assert store.readonly
            with pytest.raises(StorageError, match="read-only"):
                store.reserve()
            with pytest.raises(StorageError, match="read-only"):
                store.write_back(0, b"y")


class TestReopen:
    def test_payloads_survive_reopen(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            ids = [store.allocate(bytes([i]) * 8) for i in range(3)]
        with FileBlockStore.open(path) as store:
            for i, bid in enumerate(ids):
                assert store.read(bid)[:8] == bytes([i]) * 8

    def test_open_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="no index file"):
            FileBlockStore.open(tmp_path / "nope.fbs")

    def test_open_bad_magic(self, path):
        path.write_bytes(b"JUNK" + b"\x00" * HEADER_REGION)
        with pytest.raises(StorageError, match="bad magic"):
            FileBlockStore.open(path)

    def test_open_corrupt_block_size(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            store.allocate(b"x")
        raw = bytearray(path.read_bytes())
        # Zero the block_size field (the I right after magic + version)
        # in *both* header slots, recomputing each slot's checksum so
        # the sanity check — not the checksum — is what rejects it.
        for base in (0, HEADER_SLOT):
            struct.pack_into("<I", raw, base + 6, 0)
            crc = zlib.crc32(bytes(raw[base : base + HEADER_SLOT - 4]))
            struct.pack_into("<I", raw, base + HEADER_SLOT - 4, crc)
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="block size"):
            FileBlockStore.open(path)

    def test_open_truncated_file(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            for _ in range(4):
                store.allocate(b"x")
        raw = path.read_bytes()
        path.write_bytes(raw[: HEADER_REGION + 64])  # lose three blocks
        with pytest.raises(StorageError, match="promises"):
            FileBlockStore.open(path)

    def test_open_empty_file(self, path):
        # An empty file cannot be mapped: the length is checked first.
        path.write_bytes(b"")
        with pytest.raises(StorageError, match="shorter than the header"):
            FileBlockStore.open(path)
        with pytest.raises(StorageError, match="shorter than the header"):
            FileBlockStore.open(path, readonly=True)

    def test_open_file_shorter_than_header(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            store.allocate(b"x")
        path.write_bytes(path.read_bytes()[: HEADER_REGION - 1])
        with pytest.raises(StorageError, match="shorter than the header"):
            FileBlockStore.open(path)

    def test_open_corrupt_freelist(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            bid = store.allocate(b"x")
            store.free(bid)
        raw = bytearray(path.read_bytes())
        # Point the freed block's next pointer at itself (a cycle).
        struct.pack_into("<Q", raw, HEADER_REGION + bid * 64, bid)
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="freelist"):
            FileBlockStore.open(path)

    def test_readonly_blocks_mutation(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            bid = store.allocate(b"x")
        with FileBlockStore.open(path, readonly=True) as store:
            assert store.read(bid)[:1] == b"x"
            with pytest.raises(StorageError, match="read-only"):
                store.allocate(b"y")
            with pytest.raises(StorageError, match="read-only"):
                store.write(bid, b"y")
            with pytest.raises(StorageError, match="read-only"):
                store.free(bid)

    def test_close_is_idempotent(self, path):
        store = FileBlockStore.create(path, block_size=64)
        store.close()
        store.close()


class TestMmap:
    """The store's one access path, a mapping of its file: writable for
    a plain open, read-only for ``readonly=True``."""

    def _packed(self, path, blocks=6):
        with FileBlockStore.create(path, block_size=64, meta=b"M") as store:
            return [store.allocate(bytes([65 + i]) * 8) for i in range(blocks)]

    def test_reads_identical_to_plain_open(self, path):
        ids = self._packed(path)
        with FileBlockStore.open(path) as plain, FileBlockStore.open(
            path, readonly=True
        ) as mapped:
            for bid in ids:
                assert mapped.read(bid) == plain.read(bid)
            assert mapped.peek_many(ids) == plain.peek_many(ids)
            assert mapped.counters.reads == plain.counters.reads
            assert mapped.metadata == plain.metadata

    def test_peek_is_uncounted(self, path):
        ids = self._packed(path)
        with FileBlockStore.open(path) as store:
            before = store.counters.reads
            assert store.peek(ids[0])[:8] == b"A" * 8
            assert store.peek_many(ids[:2])[64:72] == b"B" * 8
            assert store.counters.reads == before

    def test_readonly_mmap_blocks_mutation(self, path):
        ids = self._packed(path)
        with FileBlockStore.open(path, readonly=True) as store:
            assert store.read(ids[0])[:1] == b"A"
            with pytest.raises(StorageError, match="read-only"):
                store.write(ids[0], b"nope")
            with pytest.raises(StorageError, match="read-only"):
                store.write_back(ids[0], b"nope")
        with FileBlockStore.open(path) as store:
            assert store.read(ids[0])[:8] == b"A" * 8

    def test_writes_through_mapping_persist(self, path):
        ids = self._packed(path)
        with FileBlockStore.open(path) as store:
            store.write(ids[1], b"updated")
            fresh = store.allocate(b"appended")  # grows file + mapping
            store.free(ids[0])
        with FileBlockStore.open(path, readonly=True) as store:
            assert store.read(ids[1])[:7] == b"updated"
            assert store.read(fresh)[:8] == b"appended"
            assert ids[0] not in store

    def test_growth_beyond_initial_mapping(self, path):
        self._packed(path, blocks=1)
        with FileBlockStore.open(path) as store:
            new_ids = [store.allocate(b"grow") for _ in range(50)]
        with FileBlockStore.open(path) as store:
            for bid in new_ids:
                assert store.read(bid)[:4] == b"grow"

    def test_growth_is_exact(self, path):
        # The file is the written extent, never rounded up: the
        # benchmarks' bytes per rectangle read its size.
        self._packed(path, blocks=1)
        with FileBlockStore.open(path) as store:
            for _ in range(40):
                store.allocate(b"grow")
                assert os.path.getsize(path) == store.file_bytes()
            store.flush()
            assert os.path.getsize(path) == store.file_bytes()
            committed = store.file_bytes()
        assert os.path.getsize(path) == committed

    def test_reserve_write_back_under_mmap(self, path):
        self._packed(path, blocks=2)
        with FileBlockStore.open(path) as store:
            bid = store.reserve()
            writes_before = store.counters.writes
            store.write_back(bid, b"deferred")
            assert store.counters.writes == writes_before  # uncounted
        with FileBlockStore.open(path) as store:
            assert store.read(bid)[:8] == b"deferred"

    def test_freelist_pop_reads_mapping(self, path):
        ids = self._packed(path, blocks=3)
        with FileBlockStore.open(path) as store:
            store.free(ids[2])
            store.free(ids[0])
            assert store.allocate(b"reuse") == ids[0]  # LIFO freelist
            assert store.allocate(b"reuse") == ids[2]

    def test_commit_syncs_the_mapping_before_the_file(self, path, monkeypatch):
        # msync, then fsync, before the header flip and again after it.
        calls = []

        class Recording(mmap.mmap):
            def flush(self, *args):
                calls.append("msync")
                return super().flush(*args)

        real_fsync, real_flip = os.fsync, FileBlockStore._write_slot_locked

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def flip(store, *args):
            calls.append("flip")
            return real_flip(store, *args)

        monkeypatch.setattr(mmap, "mmap", Recording)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(FileBlockStore, "_write_slot_locked", flip)
        store = FileBlockStore.create(path, block_size=64)
        store.allocate(b"x")
        calls.clear()
        store.flush()
        assert calls == ["msync", "fsync", "flip", "msync", "fsync"]
        calls.clear()
        store.close()  # nothing uncommitted: no sync
        assert calls == []

    def test_commit_msyncs_only_the_pages_it_wrote(self, path, monkeypatch):
        # Each msync covers the bytes written since the last one, widened
        # to whole pages: the shadow slots and map before the flip, the
        # header slot after it.
        ranges = []

        class Recording(mmap.mmap):
            def flush(self, *args):
                ranges.append(args)
                return super().flush(*args)

        monkeypatch.setattr(mmap, "mmap", Recording)
        page = mmap.PAGESIZE

        def pages(lo, hi):  # whole pages, the last cut at the file's end
            hi = min(-(-hi // page) * page, os.path.getsize(path))
            return lo - lo % page, hi - lo + lo % page

        size = 512
        slot = lambda phys: HEADER_REGION + phys * size
        with FileBlockStore.create(path, block_size=size) as store:
            ids = [store.allocate(bytes([65 + i]) * 8) for i in range(40)]
            store.flush()  # slots 0-39, then map block 40 and index 41
            ranges.clear()
            store.write(ids[3], b"w")  # shadowed to fresh slot 42
            store.flush()  # map block 43 and index 44, then epoch 2's slot
            assert store.commit_epoch == 2
            assert ranges == [pages(slot(42), slot(45)), pages(0, HEADER_SLOT)]
            ranges.clear()
            store.write(ids[5], b"v")  # into slot 3, free since the flip
            store.flush()  # map block 40 and index 41, then epoch 3's slot
            assert ranges == [
                pages(slot(3), slot(42)), pages(HEADER_SLOT, HEADER_REGION)
            ]
        with FileBlockStore.open(path, readonly=True) as reader:
            assert reader.read(ids[3])[:1] == b"w"
            assert reader.read(ids[5])[:1] == b"v"

    def test_family_commit_syncs_the_manifest_then_its_directory(
        self, tmp_path, monkeypatch
    ):
        # The manifest's temp file is fsynced before the rename, and
        # the directory after it, once every shard has committed.
        data = uniform_rects(300, max_side=0.02, seed=2)
        tree = build_prtree(BlockStore(), data, 16)
        manifest = tmp_path / "family.manifest"
        shard_pack(tree, manifest, shards=2)
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            kind = "dir" if stat.S_ISDIR(st.st_mode) else "file"
            calls.append(("fsync", kind, st.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            real_replace(src, dst)

        with ShardedTree.open(manifest, values=dict(tree.objects)) as family:
            family.insert(data[0][0], "fresh")
            monkeypatch.setattr(os, "fsync", fsync)
            monkeypatch.setattr(os, "replace", replace)
            family.sync()
            manifest_inode = manifest.stat().st_ino
            assert calls[-3:] == [
                ("fsync", "file", manifest_inode),
                ("replace", manifest_inode),
                ("fsync", "dir", tmp_path.stat().st_ino),
            ]
            # Before them, only the written shard's own commit.
            shard_files = {
                manifest.with_name(info.file).stat().st_ino
                for info in family.infos
            }
            assert calls[:-3] and {ino for _, _, ino in calls[:-3]} < shard_files
            calls.clear()
            family.sync()  # nothing new: no manifest rewrite, no sync
            assert calls == []


class TestMappingHazards:
    """Every store maps its file.  A mapping faults (SIGBUS) on a page
    cut off under it, and cannot grow or close while anything still
    views it: the two hazards pinned here."""

    def test_create_over_a_mapped_file_leaves_its_reader_whole(self, path):
        # In a child process, so a SIGBUS is a failed assert, not a dead
        # test run.  The replacement is shorter than the reader's mapping.
        script = textwrap.dedent(
            f"""
            from repro.storage.filestore import FileBlockStore

            path = {str(path)!r}
            old = [bytes([65 + i % 26]) * 64 for i in range(120)]
            with FileBlockStore.create(path, block_size=64) as store:
                ids = [store.allocate(block) for block in old]
            reader = FileBlockStore.open(path, readonly=True)
            with FileBlockStore.create(path, block_size=64) as fresh:
                fresh.allocate(b"z" * 64)
            assert [reader.read(i) for i in ids] == old
            assert bytes(reader.peek_many(ids[::-1])) == b"".join(old[::-1])
            reader.close()
            with FileBlockStore.open(path) as store:
                assert len(store) == 1 and store.read(0) == b"z" * 64
            """
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, (done.returncode, done.stderr)

    def test_results_outlive_growth_and_close(self, path):
        # peek_many gathers out of a view of the mapping: the view must be
        # gone when it returns, and when it raises too, since the error's
        # traceback (kept here) holds the frame.
        with FileBlockStore.create(path, block_size=64) as store:
            ids = [store.allocate(bytes([65 + i]) * 64) for i in range(4)]
        store = FileBlockStore.open(path)
        store.free(ids[3])
        peeked, read = store.peek(ids[0]), store.read(ids[1])
        many = store.peek_many(ids[:3] + ids[:1])
        one = store.peek_many(ids[1:2])
        with pytest.raises(FreedBlockError) as caught:
            store.peek_many(ids)
        size = os.path.getsize(path)
        for _ in range(200):  # several pages past the mapped length
            store.allocate(b"g" * 64)
        store.write(ids[0], b"w" * 64)
        store.flush()
        assert os.path.getsize(path) > size + 200 * 64
        held = lambda: (peeked, read, bytes(many), bytes(one))
        want = (
            b"A" * 64, b"B" * 64,
            b"A" * 64 + b"B" * 64 + b"C" * 64 + b"A" * 64, b"B" * 64,
        )
        assert held() == want
        store.close()  # no BufferError: nothing views the mapping
        assert held() == want and caught.traceback


class TestOneWriter:
    """A writable store holds the file's one writer lock until it is
    closed (docs/durability.md, "One writer per file")."""

    def test_a_second_writable_open_of_a_file_is_refused(self, path):
        with FileBlockStore.create(path, block_size=64) as store:
            store.allocate(b"a")
            with pytest.raises(StorageError, match=str(path)):
                FileBlockStore.open(path)
            # Readers take no lock and see the last commit.
            with FileBlockStore.open(path, readonly=True) as reader:
                assert len(reader) == 0
        with FileBlockStore.open(path) as writer:  # reopen after close
            assert writer.read(0).rstrip(b"\0") == b"a"
            with pytest.raises(StorageError, match="already open for writing"):
                FileBlockStore.open(path)

    def test_a_second_writable_open_of_a_family_is_refused(self, tmp_path):
        data = uniform_rects(400, max_side=0.02, seed=5)
        tree = build_prtree(BlockStore(), data, 16)
        manifest = tmp_path / "four.manifest"
        shard_pack(tree, manifest, shards=4, block_size=1024)
        values = dict(tree.objects)
        with ShardedTree.open(manifest, values=values) as family:
            with pytest.raises(StorageError, match="shard00 is already open"):
                ShardedTree.open(manifest, values=values)
            with ShardedTree.open(manifest, values=values, readonly=True) as ro:
                assert len(ro) == len(family)
        with ShardedTree.open(manifest, values=values) as again:
            assert len(again) == 400

    @pytest.mark.parametrize("shards", [0, 4])
    def test_a_crashed_handle_releases_the_lock_when_closed(
        self, tmp_path, shards
    ):
        from repro.storage import PagedTree, open_index, pack_tree
        from repro.storage.faults import FaultInjector, SimulatedCrash

        data = uniform_rects(400, max_side=0.02, seed=6)
        tree = build_prtree(BlockStore(), data, 16)
        if shards:
            target = tmp_path / "crash.manifest"
            shard_pack(tree, target, shards=shards, block_size=1024)
        else:
            target = tmp_path / "crash.pack"
            pack_tree(tree, target, block_size=1024)
        values = dict(tree.objects)
        index = open_index(
            target, values=values, injector=FaultInjector(crash_after=1)
        )
        with pytest.raises(SimulatedCrash):
            for rect, value in data[:40]:
                index.insert(rect, ("again", value))
            index.sync()
        # The crashed handle still holds the lock until it is closed.
        with pytest.raises(StorageError, match="already open for writing"):
            open_index(target, values=values)
        try:
            index.close()
        except SimulatedCrash:
            pass
        with open_index(target, values=values) as survivor:
            assert len(survivor) == 400
            assert isinstance(survivor, ShardedTree if shards else PagedTree)
