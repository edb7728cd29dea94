"""Unit tests for Node, RTree handle and the query engine."""

import pytest

from repro.bulk.base import pack_ordered
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.rtree.node import Node
from repro.rtree.query import QueryEngine, QueryStats, brute_force_query
from repro.rtree.tree import RTree

from tests.conftest import random_rects, random_windows


class TestNode:
    def test_leaf_node(self):
        node = Node(is_leaf=True, entries=[(Rect((0, 0), (1, 1)), 5)])
        assert node.is_leaf and len(node) == 1

    def test_mbr(self):
        node = Node(
            True,
            [(Rect((0, 0), (1, 1)), 0), (Rect((2, -1), (3, 0.5)), 1)],
        )
        assert node.mbr() == Rect((0, -1), (3, 1))

    def test_mbr_of_empty_raises(self):
        with pytest.raises(ValueError):
            Node(True).mbr()

    def test_add_remove(self):
        node = Node(True)
        node.add(Rect((0, 0), (1, 1)), 3)
        assert node.entries == [(Rect((0, 0), (1, 1)), 3)]
        node.remove_at(0)
        assert len(node) == 0 and node.entries == []

    def test_child_ids_internal_only(self):
        internal = Node(False, [(Rect((0, 0), (1, 1)), 10)])
        assert internal.child_ids() == [10]
        with pytest.raises(ValueError):
            Node(True).child_ids()


class TestRTreeHandle:
    def test_create_empty(self, store):
        tree = RTree.create_empty(store, dim=2, fanout=8)
        assert len(tree) == 0 and tree.height == 1
        assert tree.root().is_leaf

    def test_invalid_fanout(self, store):
        with pytest.raises(ValueError):
            RTree(store, 0, dim=2, fanout=1, height=1, size=0)

    def test_register_object_sequential(self, store):
        tree = RTree.create_empty(store, fanout=8)
        assert tree.register_object("a") == 0
        assert tree.register_object("b") == 1
        assert tree.objects == {0: "a", 1: "b"}

    def test_iter_and_counts(self, store, small_data):
        tree = pack_ordered(store, small_data, 8)
        assert tree.node_count() >= tree.leaf_count() > 0
        assert sum(1 for _ in tree.all_data()) == len(small_data)

    def test_all_data_returns_values(self, store):
        data = [(Rect((0, 0), (1, 1)), "hello")]
        tree = pack_ordered(store, data, 8)
        assert list(tree.all_data()) == [(Rect((0, 0), (1, 1)), "hello")]

    def test_query_convenience(self, store, small_data):
        tree = pack_ordered(store, small_data, 8)
        window = Rect((0.2, 0.2), (0.5, 0.5))
        got = tree.query(window)
        want = brute_force_query(small_data, window)
        assert sorted(v for _, v in got) == sorted(v for _, v in want)

    def test_count_query(self, store, small_data):
        tree = pack_ordered(store, small_data, 8)
        window = Rect((0.0, 0.0), (1.0, 1.0))
        assert tree.count_query(window) == len(small_data)

    def test_default_min_fill_is_forty_percent(self, store):
        tree = RTree.create_empty(store, fanout=10)
        assert tree.min_fill == 4


class TestQueryEngine:
    def test_empty_window_misses(self, store, small_data):
        tree = pack_ordered(store, small_data, 8)
        engine = QueryEngine(tree)
        matches, stats = engine.query(Rect((5.0, 5.0), (6.0, 6.0)))
        assert matches == [] and stats.reported == 0

    def test_full_window_reports_all(self, store, small_data):
        tree = pack_ordered(store, small_data, 8)
        engine = QueryEngine(tree)
        matches, stats = engine.query(Rect((0.0, 0.0), (1.0, 1.0)))
        assert len(matches) == len(small_data)
        assert stats.leaf_reads == tree.leaf_count()

    def test_internal_nodes_cached_across_queries(self, store, medium_data):
        tree = pack_ordered(store, medium_data, 8)
        engine = QueryEngine(tree)
        window = Rect((0.1, 0.1), (0.6, 0.6))
        _, first = engine.query(window)
        _, second = engine.query(window)
        assert first.internal_reads > 0
        assert second.internal_reads == 0  # warm cache
        assert second.leaf_reads == first.leaf_reads  # leaves always hit disk

    def test_cache_disabled_mode(self, store, medium_data):
        tree = pack_ordered(store, medium_data, 8)
        engine = QueryEngine(tree, cache_internal=False)
        window = Rect((0.1, 0.1), (0.6, 0.6))
        _, first = engine.query(window)
        _, second = engine.query(window)
        assert second.internal_reads == first.internal_reads > 0

    def test_totals_accumulate(self, store, small_data):
        tree = pack_ordered(store, small_data, 8)
        engine = QueryEngine(tree)
        for window in random_windows(5, seed=3):
            engine.query(window)
        assert engine.totals.queries == 5

    def test_reset_clears_totals(self, store, small_data):
        tree = pack_ordered(store, small_data, 8)
        engine = QueryEngine(tree)
        engine.query(Rect((0, 0), (1, 1)))
        engine.reset()
        assert engine.totals.queries == 0

    def test_stats_merge(self):
        a = QueryStats(leaf_reads=1, internal_reads=2, internal_visits=3, reported=4, queries=1)
        b = QueryStats(leaf_reads=10, internal_reads=20, internal_visits=30, reported=40, queries=1)
        a.merge(b)
        assert (a.leaf_reads, a.internal_reads, a.reported, a.queries) == (11, 22, 44, 2)

    def test_stats_properties(self):
        s = QueryStats(leaf_reads=5, internal_reads=2, internal_visits=7)
        assert s.ios == 5
        assert s.total_reads == 7
        assert s.nodes_visited == 12

    def test_matches_carry_values(self, store):
        data = [(Rect((0, 0), (1, 1)), {"payload": 1})]
        tree = pack_ordered(store, data, 8)
        matches, _ = QueryEngine(tree).query(Rect((0, 0), (2, 2)))
        assert matches[0][1] == {"payload": 1}

    def test_correct_on_random_workload(self, store, medium_data):
        tree = pack_ordered(store, medium_data, 16)
        engine = QueryEngine(tree)
        for window in random_windows(25, seed=17):
            got, _ = engine.query(window)
            want = brute_force_query(medium_data, window)
            assert sorted(v for _, v in got) == sorted(v for _, v in want)


class TestPackOrdered:
    def test_empty_dataset(self, store):
        tree = pack_ordered(store, [], 8)
        assert len(tree) == 0 and tree.root().is_leaf

    def test_single_rect(self, store):
        tree = pack_ordered(store, [(Rect((0, 0), (1, 1)), "x")], 8)
        assert tree.height == 1 and len(tree) == 1

    def test_exact_fanout_boundary(self, store):
        data = random_rects(8, seed=1)
        tree = pack_ordered(store, data, 8)
        assert tree.height == 1  # exactly one full leaf
        data = random_rects(9, seed=1)
        tree = pack_ordered(BlockStore(), data, 8)
        assert tree.height == 2

    def test_all_but_last_leaf_full(self, store, medium_data):
        tree = pack_ordered(store, medium_data, 16)
        sizes = [len(leaf) for _, leaf in tree.iter_leaves()]
        assert sizes.count(16) >= len(sizes) - 1

    def test_mixed_dim_raises(self, store):
        data = [(Rect((0, 0), (1, 1)), 0), (Rect((0,), (1,)), 1)]
        with pytest.raises(ValueError):
            pack_ordered(store, data, 8)
