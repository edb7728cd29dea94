"""Unit tests for pack_tree, PagedNodeStore, and PagedTree."""

import pytest

from repro.bulk.hilbert import build_hilbert
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.iomodel.counters import IOCounters
from repro.iomodel.store import BlockStoreProtocol
from repro.prtree.prtree import build_prtree
from repro.queries.knn import KNNEngine
from repro.queries.point import PointQueryEngine
from repro.rtree.query import QueryEngine
from repro.rtree.validate import validate_rtree
from repro.storage import (
    FileBlockStore,
    PagedNodeStore,
    PagedTree,
    StorageError,
    pack_tree,
)

from tests.conftest import assert_same_matches, random_rects, random_windows


@pytest.fixture
def packed(tmp_path):
    """A PR-tree packed to disk, plus the in-memory original."""
    data = random_rects(800, seed=21)
    tree = build_prtree(BlockStore(), data, 16)
    path = tmp_path / "index.pack"
    stats = pack_tree(tree, path, block_size=4096)
    return tree, path, stats, data


class TestPackTree:
    def test_stats_match_tree(self, packed):
        tree, path, stats, _ = packed
        assert stats.n_blocks == tree.node_count()
        assert stats.size == tree.size
        assert stats.height == tree.height
        # Node blocks plus the committed shadow map, matching the file.
        assert stats.file_bytes > 4096 + stats.n_blocks * 4096
        assert stats.file_bytes == path.stat().st_size
        assert stats.commit_epoch == 1

    def test_pack_is_sequential_io(self, tmp_path):
        data = random_rects(300, seed=22)
        tree = build_hilbert(BlockStore(), data, 8)
        stats = pack_tree(tree, tmp_path / "seq.pack", block_size=512)
        # Packing writes blocks 0..n-1 in order: one write per node, all
        # but the first following its predecessor.
        assert stats.write_ios == stats.n_blocks
        assert stats.seq_writes == stats.n_blocks - 1

    def test_fanout_too_large_for_block(self, tmp_path):
        data = random_rects(400, seed=23)
        tree = build_hilbert(BlockStore(), data, 200)  # 200 > 113
        with pytest.raises(ValueError, match="fan-out"):
            pack_tree(tree, tmp_path / "x.pack", block_size=4096)

    def test_two_packs_of_one_tree_are_byte_identical(self, packed, tmp_path):
        tree, path, _, _ = packed
        again = tmp_path / "again.pack"
        pack_tree(tree, again, block_size=4096)
        assert again.read_bytes() == path.read_bytes()

    def test_3d_roundtrip(self, tmp_path):
        data = random_rects(100, seed=7, dim=3)
        tree = build_prtree(BlockStore(), data, 8)
        path = tmp_path / "cube.pack"
        pack_tree(tree, path)
        with PagedTree.open(path, values=dict(tree.objects)) as paged:
            assert paged.dim == 3
            validate_rtree(paged, expect_size=100)
            for window in random_windows(5, seed=8, dim=3):
                got, _ = QueryEngine(paged).query(window)
                want, _ = QueryEngine(tree).query(window)
                assert_same_matches(got, want)

    def test_pack_single_leaf_tree(self, tmp_path):
        data = random_rects(3, seed=24)
        tree = build_prtree(BlockStore(), data, 16)
        path = tmp_path / "leaf.pack"
        pack_tree(tree, path)
        with PagedTree.open(path, values=dict(tree.objects)) as paged:
            validate_rtree(paged, expect_size=3)


class TestPagedNodeStore:
    def _store(self, path, capacity=4):
        data = random_rects(300, seed=25)
        tree = build_prtree(BlockStore(), data, 8)
        pack_tree(tree, path, block_size=512)
        file_store = FileBlockStore.open(path)
        return PagedNodeStore(file_store, dim=2, capacity=capacity)

    def test_satisfies_store_protocol(self, tmp_path):
        store = self._store(tmp_path / "p.pack")
        assert isinstance(store, BlockStoreProtocol)

    def test_cache_bounded(self, tmp_path):
        store = self._store(tmp_path / "p.pack", capacity=4)
        for bid in list(store.block_ids())[:20]:
            store.read(bid)
        assert store.cached_pages() <= 4
        assert store.stats.evictions >= 16

    def test_read_counts_even_on_page_hit(self, tmp_path):
        store = self._store(tmp_path / "p.pack", capacity=4)
        bid = next(store.block_ids())
        store.read(bid)
        store.read(bid)  # page hit, still one logical I/O
        assert store.counters.reads == 2
        assert store.stats.misses == 1
        assert store.stats.hits == 1

    def test_peek_costs_no_logical_io(self, tmp_path):
        store = self._store(tmp_path / "p.pack")
        before = store.counters.total
        store.peek(next(store.block_ids()))
        assert store.counters.total == before

    def test_zero_capacity_always_decodes(self, tmp_path):
        store = self._store(tmp_path / "p.pack", capacity=0)
        a, b = list(store.block_ids())[:2]
        store.peek(a)
        store.peek(b)
        store.peek(a)  # the single pinned MRU slot now holds b
        assert store.stats.misses == 3
        assert store.cached_pages() == 0

    def test_repeated_access_costs_one_physical_read_even_cold(self, tmp_path):
        # Engines peek a node's kind then read the same block; that pair
        # must cost one physical read even with no page cache at all.
        store = self._store(tmp_path / "p.pack", capacity=0)
        bid = next(store.block_ids())
        store.peek(bid)
        store.read(bid)
        assert store.stats.misses == 1
        assert store.counters.reads == 1

    def test_zero_capacity_logical_equals_physical_io(self, tmp_path):
        data = random_rects(300, seed=25)
        tree = build_prtree(BlockStore(), data, 8)
        path = tmp_path / "cold.pack"
        pack_tree(tree, path, block_size=512)
        with PagedTree.open(path, cache_pages=0) as paged:
            engine = QueryEngine(paged, cache_internal=False)
            for window in random_windows(3, seed=29):
                engine.query(window)
            totals = engine.totals
            assert (
                paged.page_stats.physical_reads
                == totals.leaf_reads + totals.internal_reads
            )

    def test_clear_cache_goes_cold(self, tmp_path):
        store = self._store(tmp_path / "p.pack")
        bid = next(store.block_ids())
        store.peek(bid)
        store.clear_cache()
        store.peek(bid)
        assert store.stats.misses == 2

    def test_write_roundtrips_through_codec(self, tmp_path):
        store = self._store(tmp_path / "p.pack")
        from repro.rtree.node import Node

        bid = store.allocate(Node(True, [(Rect((0, 0), (1, 1)), 7)]))
        store.clear_cache()
        node = store.peek(bid)
        assert node.is_leaf and node.entries == [(Rect((0, 0), (1, 1)), 7)]

    def test_negative_capacity_rejected(self, tmp_path):
        file_store = FileBlockStore.create(tmp_path / "n.fbs", block_size=512)
        with pytest.raises(ValueError):
            PagedNodeStore(file_store, dim=2, capacity=-1)
        file_store.close()


class TestPeekReadsAroundCache:
    """Regression: peek used to insert pages, evict hot ones and bump
    LRU recency — a whole-tree validation walk could flush the working
    set a query workload had warmed."""

    def _store(self, path, capacity=4):
        data = random_rects(300, seed=25)
        tree = build_prtree(BlockStore(), data, 8)
        pack_tree(tree, path, block_size=512)
        file_store = FileBlockStore.open(path)
        return PagedNodeStore(file_store, dim=2, capacity=capacity)

    def test_peek_miss_does_not_insert_or_evict(self, tmp_path):
        store = self._store(tmp_path / "p.pack", capacity=4)
        hot = list(store.block_ids())[:4]
        for bid in hot:
            store.read(bid)
        assert store.cached_pages() == 4
        # Peek every other block: a flood bigger than the cache.
        for bid in store.block_ids():
            store.peek(bid)
        assert store.cached_pages() == 4
        assert store.stats.evictions == 0
        # The hot set is untouched: re-reading it costs no decode.
        misses_before = store.stats.misses
        for bid in hot:
            store.read(bid)
        assert store.stats.misses == misses_before

    def test_peek_hit_does_not_bump_recency(self, tmp_path):
        store = self._store(tmp_path / "p.pack", capacity=2)
        a, b, c = list(store.block_ids())[:3]
        store.read(a)
        store.read(b)  # LRU order now a, b
        store.peek(a)  # must NOT move a to the back
        store.read(c)  # evicts a (still least recently *read*)
        misses_before = store.stats.misses
        store.read(b)  # b stayed cached
        assert store.stats.misses == misses_before
        store.read(a)  # a was evicted despite the peek
        assert store.stats.misses == misses_before + 1

    def test_validation_walk_leaves_cache_as_found(self, tmp_path):
        data = random_rects(300, seed=25)
        tree = build_prtree(BlockStore(), data, 8)
        path = tmp_path / "v.pack"
        pack_tree(tree, path, block_size=512)
        with PagedTree.open(
            path, values=dict(tree.objects), cache_pages=8
        ) as paged:
            engine = QueryEngine(paged)
            windows = random_windows(5, seed=29)
            for window in windows:
                engine.query(window)
            cached_before = sorted(
                paged.page_store._pages
            )
            validate_rtree(paged, expect_size=len(data))
            assert sorted(paged.page_store._pages) == cached_before

    def test_peek_sees_dirty_pages(self, tmp_path):
        store = self._store(tmp_path / "p.pack", capacity=8)
        from repro.rtree.node import Node

        bid = next(store.block_ids())
        node = Node(True, [(Rect((0, 0), (1, 1)), 3)])
        store.write(bid, node)
        assert store.peek(bid) is node  # served from the dirty cache


class TestWriteBack:
    """The dirty-page write-back layer: logical writes defer encoding
    until eviction, sync or close."""

    def _store(self, path, capacity=8):
        data = random_rects(200, seed=30)
        tree = build_prtree(BlockStore(), data, 8)
        pack_tree(tree, path, block_size=512)
        file_store = FileBlockStore.open(path)
        return PagedNodeStore(file_store, dim=2, capacity=capacity)

    def _node(self, oid=1):
        from repro.rtree.node import Node

        return Node(True, [(Rect((0, 0), (1, 1)), oid)])

    def test_write_counts_logical_io_but_defers_physical(self, tmp_path):
        store = self._store(tmp_path / "w.pack")
        bid = next(store.block_ids())
        writes_before = store.counters.writes
        store.write(bid, self._node())
        assert store.counters.writes == writes_before + 1
        assert store.stats.flushes == 0
        assert store.dirty_pages() == 1
        # The bytes on disk are still the packed original.
        is_leaf, entries = store.codec.decode(store.file_store.peek(bid))
        assert entries != self._node().entries

    def test_repeated_writes_flush_once_on_sync(self, tmp_path):
        store = self._store(tmp_path / "w.pack")
        bid = next(store.block_ids())
        for i in range(10):
            store.write(bid, self._node(i))
        assert store.counters.writes >= 10  # logical: one per write
        assert store.sync() == 1  # physical: one dirty page
        assert store.stats.flushes == 1
        assert store.dirty_pages() == 0
        is_leaf, entries = store.codec.decode(store.file_store.peek(bid))
        assert entries == self._node(9).entries

    def test_eviction_flushes_dirty_page(self, tmp_path):
        store = self._store(tmp_path / "w.pack", capacity=2)
        ids = list(store.block_ids())[:4]
        store.write(ids[0], self._node(7))
        store.read(ids[1])
        store.read(ids[2])  # evicts ids[0], which is dirty
        assert store.stats.flushes == 1
        assert store.dirty_pages() == 0
        store.clear_cache()
        assert store.peek(ids[0]).entries == self._node(7).entries

    def test_capacity_zero_degrades_to_write_through(self, tmp_path):
        store = self._store(tmp_path / "w.pack", capacity=0)
        bid = next(store.block_ids())
        store.write(bid, self._node(5))
        assert store.stats.flushes == 1
        assert store.dirty_pages() == 0

    def test_allocate_defers_payload(self, tmp_path):
        store = self._store(tmp_path / "w.pack")
        writes_before = store.counters.writes
        bid = store.allocate(self._node(9))
        assert store.counters.writes == writes_before + 1
        assert store.stats.flushes == 0
        assert store.read(bid).entries == self._node(9).entries
        assert store.sync() == 1

    def test_free_discards_dirty_page_without_flush(self, tmp_path):
        store = self._store(tmp_path / "w.pack")
        bid = store.allocate(self._node(2))
        store.free(bid)
        assert store.dirty_pages() == 0
        assert store.sync() == 0
        assert store.stats.flushes == 0

    def test_freed_blocks_are_reused(self, tmp_path):
        store = self._store(tmp_path / "w.pack")
        high_water = store.allocated_ever
        bid = store.allocate(self._node(2))
        store.free(bid)
        again = store.allocate(self._node(3))
        assert again == bid
        assert store.allocated_ever == high_water + 1

    def test_clear_cache_flushes_first(self, tmp_path):
        store = self._store(tmp_path / "w.pack")
        bid = next(store.block_ids())
        store.write(bid, self._node(4))
        store.clear_cache()
        assert store.stats.flushes == 1
        assert store.peek(bid).entries == self._node(4).entries

    def test_sync_flushes_in_block_order(self, tmp_path):
        store = self._store(tmp_path / "w.pack", capacity=16)
        ids = sorted(store.block_ids())[:5]
        for bid in reversed(ids):
            store.write(bid, self._node(bid))
        order: list[int] = []
        original = store.file_store.write_back

        def spy(block_id, payload):
            order.append(block_id)
            original(block_id, payload)

        store.file_store.write_back = spy
        store.sync()
        assert order == ids

    def test_readonly_write_raises_up_front(self, tmp_path):
        path = tmp_path / "ro.pack"
        store = self._store(path)
        store.file_store.close()
        file_store = FileBlockStore.open(path, readonly=True)
        ro = PagedNodeStore(file_store, dim=2, capacity=4)
        bid = next(ro.block_ids())
        with pytest.raises(StorageError, match="read-only"):
            ro.write(bid, self._node())
        with pytest.raises(StorageError, match="read-only"):
            ro.allocate(self._node())
        file_store.close()


class TestPagedTree:
    def test_open_is_lazy(self, packed):
        _, path, stats, _ = packed
        with PagedTree.open(path) as paged:
            # Nothing is decoded until the first query touches the root.
            assert paged.page_store.cached_pages() == 0
            assert paged.page_stats.misses == 0

    def test_structure_and_queries_match_original(self, packed):
        tree, path, _, data = packed
        with PagedTree.open(path, values=dict(tree.objects)) as paged:
            assert paged.height == tree.height
            assert paged.fanout == tree.fanout
            assert paged.size == tree.size
            assert paged.dim == tree.dim
            validate_rtree(paged, expect_size=len(data))
            mem = QueryEngine(tree)
            disk = QueryEngine(paged)
            for window in random_windows(10, seed=26):
                got_mem, stats_mem = mem.query(window)
                got_disk, stats_disk = disk.query(window)
                assert_same_matches(got_disk, got_mem)
                assert stats_disk.leaf_reads == stats_mem.leaf_reads
                assert stats_disk.internal_visits == stats_mem.internal_visits

    def test_knn_and_point_match_original(self, packed):
        tree, path, _, _ = packed
        with PagedTree.open(path, values=dict(tree.objects)) as paged:
            got_mem, _ = KNNEngine(tree).knn((0.4, 0.6), 12)
            got_disk, _ = KNNEngine(paged).knn((0.4, 0.6), 12)
            assert [n.distance for n in got_mem] == [
                n.distance for n in got_disk
            ]
            pm, _ = PointQueryEngine(tree).point_query((0.5, 0.5))
            pd, _ = PointQueryEngine(paged).point_query((0.5, 0.5))
            assert_same_matches(pd, pm)

    def test_bounded_cache_still_correct(self, packed):
        tree, path, _, data = packed
        with PagedTree.open(
            path, values=dict(tree.objects), cache_pages=2
        ) as paged:
            engine = QueryEngine(paged)
            for window in random_windows(5, seed=27):
                got, _ = engine.query(window)
                want, _ = QueryEngine(tree).query(window)
                assert_same_matches(got, want)
            assert paged.page_store.cached_pages() <= 2

    def test_values_via_callable(self, packed):
        tree, path, _, _ = packed
        with PagedTree.open(path, values=lambda oid: f"v{oid}") as paged:
            matches, _ = QueryEngine(paged).query(Rect((0, 0), (1, 1)))
            assert len(matches) == tree.size
            assert sorted(v for _, v in matches) == sorted(
                f"v{oid}" for oid in tree.objects
            )

    def test_missing_values_are_none(self, packed):
        tree, path, _, _ = packed
        with PagedTree.open(path) as paged:
            matches, _ = QueryEngine(paged).query(Rect((0, 0), (1, 1)))
            assert matches and all(v is None for _, v in matches)

    def test_register_object_does_not_collide(self, packed):
        tree, path, _, _ = packed
        with PagedTree.open(path, values=dict(tree.objects)) as paged:
            assert paged.register_object("fresh") == tree.size

    def test_warm_cache_reduces_physical_reads(self, packed):
        tree, path, _, _ = packed
        with PagedTree.open(path, values=dict(tree.objects)) as paged:
            engine = QueryEngine(paged)
            windows = random_windows(5, seed=28)
            for window in windows:
                engine.query(window)
            cold = paged.page_stats.snapshot()
            for window in windows:
                engine.query(window)
            warm = paged.page_stats - cold
            assert warm.misses < cold.misses
            # Logical I/O is unchanged: the page cache is invisible to
            # the paper's accounting.
            assert engine.totals.queries == 10

    def test_shared_counters(self, packed):
        tree, path, _, _ = packed
        counters = IOCounters()
        with PagedTree.open(path, counters=counters) as paged:
            QueryEngine(paged).query(Rect((0.4, 0.4), (0.6, 0.6)))
            assert counters.reads > 0

    def test_open_non_tree_file(self, tmp_path):
        path = tmp_path / "plain.fbs"
        with FileBlockStore.create(path, block_size=512, meta=b"not a tree"):
            pass
        with pytest.raises(StorageError, match="packed tree"):
            PagedTree.open(path)

    def test_open_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            PagedTree.open(tmp_path / "missing.pack")


class TestPagedTreeUpdates:
    """Dynamic inserts/deletes on a packed index file."""

    def _reopen(self, path, objects, **kwargs):
        return PagedTree.open(path, values=objects, **kwargs)

    def test_insert_then_query(self, packed):
        tree, path, _, data = packed
        with self._reopen(path, dict(tree.objects)) as paged:
            oid = paged.insert(Rect((0.31, 0.41), (0.32, 0.42)), "fresh")
            assert paged.objects[oid] == "fresh"
            assert paged.size == len(data) + 1
            got, _ = QueryEngine(paged).query(
                Rect((0.3, 0.4), (0.33, 0.43))
            )
            assert "fresh" in [v for _, v in got]
            validate_rtree(paged, expect_size=len(data) + 1)

    def test_delete_then_query(self, packed):
        tree, path, _, data = packed
        rect, value = data[0]
        with self._reopen(path, dict(tree.objects)) as paged:
            assert paged.delete(rect, value)
            assert paged.size == len(data) - 1
            got, _ = QueryEngine(paged).query(rect)
            assert value not in [v for _, v in got]
            validate_rtree(paged, expect_size=len(data) - 1)

    def test_updates_survive_sync_and_reopen(self, packed):
        tree, path, _, data = packed
        with self._reopen(path, dict(tree.objects)) as paged:
            oid = paged.insert(Rect((0.5, 0.5), (0.51, 0.51)), "persisted")
            rect0, value0 = data[0]
            assert paged.delete(rect0, value0)
            flushed = paged.sync()
            assert flushed > 0
            objects = dict(paged.objects)
        with self._reopen(path, objects, readonly=True) as again:
            assert again.size == len(data)  # one in, one out
            validate_rtree(again, expect_size=len(data))
            got, _ = QueryEngine(again).query(Rect((0, 0), (1, 1)))
            values = [v for _, v in got]
            assert "persisted" in values
            assert value0 not in values

    def test_close_syncs_pending_writes(self, packed):
        tree, path, _, data = packed
        paged = self._reopen(path, dict(tree.objects))
        paged.insert(Rect((0.5, 0.5), (0.51, 0.51)), "unsynced")
        objects = dict(paged.objects)
        paged.close()  # no explicit sync
        with self._reopen(path, objects, readonly=True) as again:
            assert again.size == len(data) + 1
            validate_rtree(again, expect_size=len(data) + 1)

    def test_descriptor_tracks_height_growth(self, tmp_path):
        data = random_rects(40, seed=51)
        tree = build_prtree(BlockStore(), data, 8)
        path = tmp_path / "grow.pack"
        pack_tree(tree, path, block_size=512)
        with PagedTree.open(path, values=dict(tree.objects)) as paged:
            before = paged.height
            for i in range(200):
                x = (i % 20) / 20.0
                y = (i // 20) / 10.0
                paged.insert(Rect((x, y), (x + 0.01, y + 0.01)), 100 + i)
            assert paged.height > before
            height, size = paged.height, paged.size
            objects = dict(paged.objects)
        with PagedTree.open(path, values=objects) as again:
            assert again.height == height
            assert again.size == size == 240
            validate_rtree(again, expect_size=240)

    def test_readonly_update_raises_up_front(self, packed):
        tree, path, _, data = packed
        with self._reopen(path, dict(tree.objects), readonly=True) as paged:
            with pytest.raises(StorageError, match="read-only"):
                paged.insert(Rect((0, 0), (1, 1)), "nope")
            with pytest.raises(StorageError, match="read-only"):
                paged.delete(*data[0])
            assert paged.sync() == 0  # nothing to flush, no error

    def test_callable_values_cannot_update(self, packed):
        _, path, _, _ = packed
        with PagedTree.open(path, values=lambda oid: f"v{oid}") as paged:
            with pytest.raises(StorageError, match="callable"):
                paged.insert(Rect((0, 0), (1, 1)), "nope")

    def test_fresh_oids_do_not_collide_without_values(self, packed):
        tree, path, _, data = packed
        with PagedTree.open(path) as paged:
            oid = paged.insert(Rect((0.5, 0.5), (0.51, 0.51)), "fresh")
            assert oid >= len(data)

    def test_oids_do_not_collide_after_synced_deletes(self, tmp_path):
        # Deletes shrink `size` below the high-water object id; a
        # reopened handle must keep issuing ids above it (the
        # descriptor's next_oid), or a fresh insert aliases a live
        # entry's value.
        data = random_rects(10, seed=55)
        tree = build_prtree(BlockStore(), data, 8)
        path = tmp_path / "oids.pack"
        pack_tree(tree, path, block_size=512)
        with PagedTree.open(path, values=dict(tree.objects)) as paged:
            assert paged.delete(*data[0])
            assert paged.delete(*data[1])
        with PagedTree.open(path, values=None) as again:
            live_oids = {
                oid for _, leaf in again.iter_leaves()
                for _, oid in leaf.entries
            }
            oid = again.insert(Rect((0.5, 0.5), (0.51, 0.51)), "fresh")
            assert oid not in live_oids
            assert oid >= 10

    def test_write_back_beats_write_through(self, packed):
        tree, path, _, data = packed
        with self._reopen(path, dict(tree.objects)) as paged:
            writes_before = paged.store.counters.writes
            for i in range(50):
                x = 0.3 + (i % 10) * 0.001
                paged.insert(Rect((x, x), (x + 0.002, x + 0.002)), 900 + i)
            logical = paged.store.counters.writes - writes_before
            physical = paged.page_stats.flushes + paged.sync()
            # Write-through would have cost one physical write per
            # logical write I/O; write-back coalesces repeated touches.
            assert physical < logical


class TestMmapPagedTree:
    """PagedTree.open(mmap=True): identical answers and logical I/O."""

    def test_queries_and_accounting_match(self, packed):
        tree, path, _, data = packed
        values = dict(tree.objects)
        windows = random_windows(10, seed=27)
        with PagedTree.open(path, values=values, readonly=True) as plain, \
                PagedTree.open(
                    path, values=values, readonly=True, mmap=True
                ) as mapped:
            assert mapped.page_store.file_store.mmapped
            plain_engine, mapped_engine = QueryEngine(plain), QueryEngine(mapped)
            for window in windows:
                got_plain, stats_plain = plain_engine.query(window)
                got_mapped, stats_mapped = mapped_engine.query(window)
                assert_same_matches(got_mapped, got_plain)
                assert stats_mapped.leaf_reads == stats_plain.leaf_reads
            assert (
                mapped.store.counters.reads == plain.store.counters.reads
            )

    def test_updates_and_cold_reopen(self, packed):
        tree, path, _, data = packed
        with PagedTree.open(path, values=dict(tree.objects), mmap=True) as t:
            for i in range(40):
                t.insert(
                    Rect((0.4 + i * 0.001, 0.4), (0.41 + i * 0.001, 0.41)),
                    f"m{i}",
                )
            for rect, value in data[:10]:
                assert t.delete(rect, value)
            values = dict(t.objects)
        with PagedTree.open(path, values=values, readonly=True) as cold:
            validate_rtree(cold, expect_size=len(data) + 40 - 10)
