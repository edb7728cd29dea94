"""Internal-node accounting through the query engines.

The paper caches every internal node (footnote 5): once warm, a window
query's ``internal_reads`` is exactly 0 and its cost is leaf reads
alone.  These tests pin down the contract the engines keep with the
tree's pinned level table (:mod:`repro.rtree.levels`): an engine pays
one counted read the first time it visits an internal node and none
after, ``cache_internal=False`` pays on every visit, and the table is
one per tree, shared by its engines, kept across writes to leaves,
patched after an internal node is rewritten in place and rebuilt after
a split or a merge.
"""

import pytest

from tests.conftest import random_rects, random_windows
from tests.level_oracle import assert_same_levels

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries.join import SpatialJoinEngine
from repro.queries.knn import KNNEngine
from repro.rtree import levels
from repro.rtree.levels import LevelStats, LevelTable, levels_of
from repro.rtree.query import QueryEngine
from repro.storage import PagedTree, pack_tree


class TestFirstVisitReads:
    def test_engine_cache_internal_false_counts_every_visit(self, medium_data):
        tree = build_prtree(BlockStore(), medium_data, 8)
        engine = QueryEngine(tree, cache_internal=False)
        for window in random_windows(5, seed=1):
            engine.query(window)
        # Every internal visit was a counted disk read.
        assert engine.totals.internal_reads == engine.totals.internal_visits
        assert engine.totals.internal_reads > 0

    def test_each_internal_node_read_once_per_engine(self, medium_data):
        tree = build_prtree(BlockStore(), medium_data, 8)
        windows = random_windows(12, seed=5)
        engine = QueryEngine(tree)
        reads_before = tree.store.counters.reads
        for window in windows:
            engine.query(window)
        internal = set(levels_of(tree).frames)
        totals = engine.totals
        assert 0 < totals.internal_reads <= len(internal)
        assert totals.internal_reads == len(engine._counted)
        assert engine._counted <= internal
        assert (
            tree.store.counters.reads - reads_before
            == totals.leaf_reads + totals.internal_reads
        )
        # A second engine pays its own first visits, on the same table.
        table = levels_of(tree)
        other = QueryEngine(tree)
        for window in windows:
            other.query(window)
        assert other.totals == totals
        assert levels_of(tree) is table

    def test_operators_share_the_table(self, medium_data):
        tree = build_prtree(BlockStore(), medium_data, 8)
        QueryEngine(tree).query(random_windows(1, seed=6)[0])
        table = tree._levels
        KNNEngine(tree).knn((0.5, 0.5), 10)
        assert tree._levels is table


class TestTableLifetime:
    def test_rebuilt_once_after_a_write(self, medium_data, monkeypatch):
        tree = build_prtree(BlockStore(), medium_data, 8)
        engines = [QueryEngine(tree), KNNEngine(tree)]
        window = random_windows(1, seed=7)[0]
        engines[0].query(window)
        built = []
        real = levels.LevelTable.__init__

        def counting(self, tree):
            built.append(tree)
            real(self, tree)

        monkeypatch.setattr(levels.LevelTable, "__init__", counting)
        engines[0].query(window)
        engines[1].knn((0.5, 0.5), 5)
        assert built == []
        rect, value = random_rects(1, seed=8)[0]
        tree.insert(rect, value)
        engines[0].query(window)
        engines[1].knn((0.5, 0.5), 5)
        engines[0].query(window)
        assert built == [tree]

    def test_leaf_writes_keep_internal_rewrites_patch_splits_rebuild(
        self, medium_data
    ):
        tree = build_prtree(BlockStore(), medium_data, 8)
        table = levels_of(tree)
        assert len(table.levels) >= 2
        boxes = [level.box for level in table.levels]
        # A leaf written back: the same table, levels and box tables.
        leaf_id = table.levels[-1].ptrs[0]
        tree.write_node(leaf_id, tree.peek_node(leaf_id))
        assert levels_of(tree) is table
        assert all(a.box is b for a, b in zip(table.levels, boxes))
        assert tree.level_stats == LevelStats(builds=1, patched=1)
        # An internal node rewritten with its pointers unchanged: its
        # columns are patched on a copy of its level's box table, and
        # the array an engine may hold is left as it was.
        level = table.levels[-1]
        node_id, end = level.ids[0], level.start[1]
        node = tree.peek_node(node_id)
        held = boxes[-1].copy()
        node.extend_entry(0, Rect((5.0, 5.0), (5.1, 5.1)))
        tree.write_node(node_id, node)
        assert levels_of(tree) is table
        assert (boxes[-1] == held).all()
        assert level.box is not boxes[-1]
        assert (level.box[:, :end] == node.frame().box).all()
        assert (level.box[:, end:] == held[:, end:]).all()
        assert table.frames[node_id] is node.frame()
        assert all(a.box is b for a, b in zip(table.levels[:-1], boxes))
        assert tree.level_stats == LevelStats(builds=1, patched=2)
        # Inserts until one splits a node (an allocate): a new table.
        reshaped = tree.store.reshaped_at
        for i in range(tree.fanout + 1):
            tree.insert(Rect((0.5, 0.5), (0.5 + i / 1e3, 0.501)), i)
            if tree.store.reshaped_at != reshaped:
                break
        assert tree.store.reshaped_at != reshaped
        grown = levels_of(tree)
        assert grown is not table and len(grown.levels) == tree.height - 1
        assert tree.level_stats.builds == 2
        assert_same_levels(grown, LevelTable(tree))
        assert QueryEngine(tree).query(Rect((0.5, 0.5), (0.5, 0.5)))[0]

    def test_root_change_rebuilds(self):
        tree = build_prtree(BlockStore(), random_rects(6, seed=9), 8)
        assert levels_of(tree).levels == []
        for rect, value in random_rects(20, seed=10):
            tree.insert(rect, value)
        assert tree.height > 1
        assert len(levels_of(tree).levels) == tree.height - 1


class TestWarmCacheWindowQueries:
    def test_warm_cache_internal_reads_zero(self, medium_data):
        tree = build_prtree(BlockStore(), medium_data, 8)
        engine = QueryEngine(tree, cache_internal=True)
        windows = random_windows(10, seed=2)
        # Warm-up pass touches (at least) every internal node these
        # queries need; repeat pass must be all cache hits.
        for window in windows:
            engine.query(window)
        engine.reset()
        for window in windows:
            _, stats = engine.query(window)
            assert stats.internal_reads == 0
            assert stats.internal_visits > 0
        assert engine.totals.internal_reads == 0
        # The paper's convention: with internals cached, cost = leaf reads.
        assert engine.totals.ios == engine.totals.leaf_reads > 0

    def test_leaf_reads_never_cached(self, medium_data):
        tree = build_prtree(BlockStore(), medium_data, 8)
        engine = QueryEngine(tree, cache_internal=True)
        window = random_windows(1, seed=3)[0]
        _, first = engine.query(window)
        _, second = engine.query(window)
        assert second.leaf_reads == first.leaf_reads > 0


EVERYTHING = Rect((0.0, 0.0), (1.0, 1.0))


@pytest.fixture
def written(tmp_path):
    """The same 600 rectangles (fan-out 8) in memory and on a paged
    file, each with engines kept warm across 200 deletes and 200
    inserts: ``(memory, paged, [(window, kNN, join) engines per index])``."""
    data = random_rects(600, seed=61, max_side=0.03)
    memory = build_prtree(BlockStore(), data, 8)
    pack_tree(memory, tmp_path / "index.pack", block_size=512)
    paged = PagedTree.open(
        tmp_path / "index.pack", values=dict(memory.objects), cache_pages=8
    )
    kept = []
    for index in (memory, paged):
        engines = QueryEngine(index), KNNEngine(index), SpatialJoinEngine(index, index)
        engines[0].query(EVERYTHING)
        engines[1].knn((0.5, 0.5), 600)
        engines[2].join()
        for rect, value in data[::3]:
            assert index.delete(rect, value)
        for rect, value in random_rects(200, seed=62, max_side=0.03):
            index.insert(rect, ("new", value))
        kept.append(engines)
    yield memory, paged, kept
    paged.close()


class TestPaidSetLifetime:
    """A kept engine's paid set lives as long as the level table it was
    paid against: after the splits and merges of a write batch (which
    rebuild the table, and on a file recycle freed ids) it pays for
    every internal node again, like a fresh engine."""

    def test_window_after_frees_pays_like_a_fresh_engine(self, written):
        memory, paged, kept = written
        reads = [
            window.query(EVERYTHING)[1].internal_reads for window, _, _ in kept
        ]
        fresh = [
            QueryEngine(index).query(EVERYTHING)[1].internal_reads
            for index in (memory, paged)
        ]
        assert reads == fresh == [fresh[0]] * 2

    def test_knn_and_join_after_frees_pay_like_fresh_engines(self, written):
        memory, paged, kept = written
        for index, (_, knn, join) in zip((memory, paged), kept):
            assert knn.knn((0.5, 0.5), 600)[1] == KNNEngine(index).knn(
                (0.5, 0.5), 600
            )[1]
            assert join.join()[1] == SpatialJoinEngine(index, index).join()[1]
