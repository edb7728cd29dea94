"""Unit tests for counters, block store, cache and codec."""

import math

import pytest

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore, FreedBlockError
from repro.iomodel.store import BlockStoreProtocol
from repro.iomodel.codec import NodeCodec, entry_size, fanout_for_block
from repro.iomodel.counters import IOCounters, IOSnapshot, TimeModel


class TestCounters:
    def test_initial_state(self):
        c = IOCounters()
        assert c.reads == c.writes == 0
        assert c.total == 0

    def test_read_write_counting(self):
        c = IOCounters()
        c.record_read(0)
        c.record_write(5)
        c.record_read(6)
        assert c.reads == 2 and c.writes == 1 and c.total == 3

    def test_sequential_detection(self):
        c = IOCounters()
        c.record_read(10)  # first access: no predecessor, random
        c.record_read(11)  # sequential
        c.record_read(12)  # sequential
        c.record_read(50)  # seek
        c.record_read(51)  # sequential again
        assert c.seq_reads == 3
        snap = c.snapshot()
        assert snap.rand_reads == 2

    @pytest.mark.parametrize("first", [None, 9, 3])
    def test_record_reads_is_record_read_of_each(self, first):
        ids = [10, 11, 12, 50, 51, 51, 7, 8]
        one, many = IOCounters(), IOCounters()
        if first is not None:  # a predecessor, sequential to 10 or not
            one.record_write(first)
            many.record_write(first)
        for block_id in ids:
            one.record_read(block_id)
        many.record_reads(ids[:3])
        many.record_reads(())
        many.record_reads(ids[3:])
        assert many.snapshot() == one.snapshot()
        one.record_write(9)
        many.record_write(9)  # both after block 8
        assert many.snapshot() == one.snapshot() and one.seq_writes == 1

    def test_sequential_write_after_read(self):
        c = IOCounters()
        c.record_read(7)
        c.record_write(8)
        assert c.seq_writes == 1

    def test_snapshot_subtraction(self):
        c = IOCounters()
        c.record_read(0)
        before = c.snapshot()
        c.record_read(1)
        c.record_write(2)
        delta = c.snapshot() - before
        assert delta.reads == 1 and delta.writes == 1
        assert delta.sequential == 2

    def test_snapshot_addition(self):
        a = IOSnapshot(reads=1, writes=2, seq_reads=1, seq_writes=0)
        b = IOSnapshot(reads=3, writes=4, seq_reads=2, seq_writes=1)
        s = a + b
        assert (s.reads, s.writes, s.seq_reads, s.seq_writes) == (4, 6, 3, 1)

    def test_reset(self):
        c = IOCounters()
        c.record_read(0)
        c.reset()
        assert c.total == 0
        c.record_read(1)  # after reset, no predecessor: random
        assert c.seq_reads == 0

    def test_time_model(self):
        tm = TimeModel(seq_seconds=0.001, rand_seconds=0.1)
        snap = IOSnapshot(reads=10, writes=0, seq_reads=6, seq_writes=0)
        assert tm.seconds(snap) == pytest.approx(6 * 0.001 + 4 * 0.1)


class TestBlockStore:
    def test_allocate_read_roundtrip(self):
        store = BlockStore()
        bid = store.allocate({"x": 1})
        assert store.read(bid) == {"x": 1}

    def test_allocation_is_consecutive(self):
        store = BlockStore()
        ids = [store.allocate(i) for i in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_allocate_counts_write(self):
        store = BlockStore()
        store.allocate("a")
        assert store.counters.writes == 1

    def test_read_counts(self):
        store = BlockStore()
        bid = store.allocate("a")
        store.read(bid)
        store.read(bid)
        assert store.counters.reads == 2

    def test_peek_is_free(self):
        store = BlockStore()
        bid = store.allocate("a")
        before = store.counters.total
        assert store.peek(bid) == "a"
        assert store.counters.total == before

    def test_write_in_place(self):
        store = BlockStore()
        bid = store.allocate("a")
        store.write(bid, "b")
        assert store.peek(bid) == "b"

    def test_free_then_read_raises(self):
        store = BlockStore()
        bid = store.allocate("a")
        store.free(bid)
        with pytest.raises(FreedBlockError, match="read-after-free"):
            store.read(bid)

    def test_free_then_write_and_peek_raise(self):
        store = BlockStore()
        bid = store.allocate("a")
        store.free(bid)
        with pytest.raises(FreedBlockError):
            store.write(bid, "b")
        with pytest.raises(FreedBlockError):
            store.peek(bid)

    def test_free_unallocated_raises(self):
        store = BlockStore()
        with pytest.raises(KeyError):
            store.free(99)

    def test_double_free_raises(self):
        store = BlockStore()
        bid = store.allocate("a")
        store.free(bid)
        with pytest.raises(FreedBlockError, match="double free"):
            store.free(bid)

    def test_freed_error_is_a_key_error(self):
        # Callers catching the old generic error keep working.
        assert issubclass(FreedBlockError, KeyError)

    def test_read_never_allocated_is_plain_key_error(self):
        store = BlockStore()
        with pytest.raises(KeyError) as excinfo:
            store.read(7)
        assert not isinstance(excinfo.value, FreedBlockError)

    def test_satisfies_store_protocol(self):
        assert isinstance(BlockStore(), BlockStoreProtocol)

    def test_len_and_contains(self):
        store = BlockStore()
        a = store.allocate(1)
        b = store.allocate(2)
        store.free(a)
        assert len(store) == 1
        assert b in store and a not in store

    def test_freed_addresses_not_reused(self):
        store = BlockStore()
        a = store.allocate(1)
        store.free(a)
        b = store.allocate(2)
        assert b != a
        assert store.allocated_ever == 2

    def test_bytes_used(self):
        store = BlockStore(block_size=4096)
        store.allocate(1)
        store.allocate(2)
        assert store.bytes_used() == 8192

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            BlockStore(block_size=0)


class TestCodec:
    def test_paper_fanout(self):
        # Section 3.1: 4 KB blocks, 36-byte entries -> fan-out 113.
        assert entry_size(2) == 36
        assert fanout_for_block(4096, 2) == 113

    def test_fanout_other_dims(self):
        assert entry_size(3) == 52
        assert fanout_for_block(4096, 3) == 78
        assert entry_size(1) == 20
        assert fanout_for_block(4096, 1) == 204

    def test_tiny_block_raises(self):
        with pytest.raises(ValueError):
            fanout_for_block(40, 2)

    def test_roundtrip_leaf(self):
        codec = NodeCodec(dim=2)
        entries = [
            (Rect((0.0, 1.0), (2.0, 3.0)), 7),
            (Rect((-1.5, 0.25), (0.0, 0.5)), 123456),
        ]
        block = codec.encode(True, entries)
        assert len(block) == 4096
        assert codec.decode(block) == (True, entries)

    def test_roundtrip_internal(self):
        codec = NodeCodec(dim=2)
        entries = [(Rect((0.0, 0.0), (1.0, 1.0)), 42)]
        assert codec.decode(codec.encode(False, entries)) == (False, entries)

    def test_roundtrip_empty(self):
        codec = NodeCodec(dim=2)
        assert codec.decode(codec.encode(True, [])) == (True, [])

    def test_roundtrip_full_block(self):
        codec = NodeCodec(dim=2)
        entries = [
            (Rect((float(i), 0.0), (float(i + 1), 1.0)), i)
            for i in range(codec.fanout)
        ]
        assert codec.decode(codec.encode(False, entries)) == (False, entries)

    def test_overflow_raises(self):
        codec = NodeCodec(dim=2)
        entries = [
            (Rect((float(i), 0.0), (float(i + 1), 1.0)), i)
            for i in range(codec.fanout + 1)
        ]
        with pytest.raises(ValueError):
            codec.encode(True, entries)

    def test_wrong_dim_raises(self):
        codec = NodeCodec(dim=2)
        with pytest.raises(ValueError):
            codec.encode(True, [(Rect((0.0,), (1.0,)), 0)])

    def test_wrong_block_length_raises(self):
        codec = NodeCodec(dim=2)
        with pytest.raises(ValueError):
            codec.decode(b"\x00" * 100)

    def test_3d_roundtrip(self):
        codec = NodeCodec(dim=3)
        entries = [(Rect((0.0, 1.0, 2.0), (3.0, 4.0, 5.0)), 9)]
        assert codec.decode(codec.encode(True, entries)) == (True, entries)
