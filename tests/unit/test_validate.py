"""Unit tests for the invariant checker and utilization statistics."""

import pytest

from repro.bulk.base import pack_ordered
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.rtree.validate import (
    RTreeInvariantError,
    utilization,
    validate_rtree,
)

from tests.conftest import random_rects


def packed_tree(store, n=100, fanout=8):
    return pack_ordered(store, random_rects(n, seed=2), fanout)


class TestValidate:
    def test_valid_tree_passes(self, store):
        tree = packed_tree(store)
        validate_rtree(tree, expect_size=100)

    def test_wrong_expected_size(self, store):
        tree = packed_tree(store)
        with pytest.raises(RTreeInvariantError, match="expected 99"):
            validate_rtree(tree, expect_size=99)

    def test_detects_loose_parent_mbr(self, store):
        tree = packed_tree(store)
        root = tree.peek_node(tree.root_id)
        rect, child = root.entry(0)
        root.replace(0, rect.union(Rect((5.0, 5.0), (9.0, 9.0))), child)
        with pytest.raises(RTreeInvariantError, match="exact"):
            validate_rtree(tree)

    def test_detects_overflow_node(self, store):
        tree = packed_tree(store, fanout=8)
        _, leaf = next(tree.iter_leaves())
        for i in range(10):
            leaf.add(Rect((0, 0), (0.1, 0.1)), tree.register_object(f"extra{i}"))
        # Several invariants break at once (fan-out, parent MBR, size);
        # any of them must be reported.
        with pytest.raises(RTreeInvariantError):
            validate_rtree(tree)

    def test_detects_unknown_object_id(self, store):
        tree = packed_tree(store)
        block_id, leaf = next(tree.iter_leaves())
        rect, _ = leaf.entry(0)
        leaf.replace(0, rect, 999_999)
        with pytest.raises(RTreeInvariantError, match="unknown object"):
            validate_rtree(tree)

    def test_detects_wrong_dimension(self, store):
        tree = packed_tree(store, n=1)
        wide = Node(True, [(Rect((0, 0, 0), (1, 1, 1)), 0)])
        store.write(tree.root_id, wide)
        with pytest.raises(RTreeInvariantError, match="holds a rect of dim 3"):
            validate_rtree(tree)

    def test_empty_leaf_root_passes(self, store):
        # An empty leaf's table is 0 columns wide: no dimension to check.
        tree = RTree.create_empty(store, dim=3, fanout=8)
        report = validate_rtree(tree, expect_size=0)
        assert report.levels[0].entries == 0

    def test_detects_empty_internal_node(self, store):
        tree = packed_tree(store, n=200)
        root = tree.peek_node(tree.root_id)
        _, child_id = root.entry(0)
        store.write(child_id, Node(False))
        with pytest.raises(RTreeInvariantError, match="is empty"):
            validate_rtree(tree)

    def test_detects_dangling_child_pointer(self, store):
        tree = packed_tree(store, n=200)
        root = tree.peek_node(tree.root_id)
        _, child_id = root.entry(0)
        tree.store.free(child_id)
        with pytest.raises(RTreeInvariantError, match="freed block"):
            validate_rtree(tree)

    def test_detects_shared_subtree(self, store):
        tree = packed_tree(store, n=200)
        root = tree.peek_node(tree.root_id)
        if root.is_leaf:
            pytest.skip("tree too small")
        rect0, child0 = root.entry(0)
        root.replace(1, rect0, child0)
        with pytest.raises(RTreeInvariantError):
            validate_rtree(tree)

    def test_detects_uneven_leaf_depth(self, store):
        tree = packed_tree(store, n=200, fanout=6)
        root = tree.peek_node(tree.root_id)
        # Replace a subtree entry with a direct leaf: leaves now at
        # different depths.
        leaf = Node(True, [(Rect((0, 0), (0.1, 0.1)), tree.register_object("x"))])
        leaf_id = store.allocate(leaf)
        root.replace(0, leaf.mbr(), leaf_id)
        tree.size = sum(len(l) for _, l in tree.iter_leaves())
        with pytest.raises(RTreeInvariantError, match="multiple levels"):
            validate_rtree(tree)

    def test_min_fill_enforcement(self, store):
        tree = packed_tree(store, n=100, fanout=8)
        # Packed leaves are full except the last; demanding full leaves
        # everywhere may or may not pass, but demanding more than the
        # fan-out must fail on every non-root node.
        with pytest.raises(RTreeInvariantError):
            validate_rtree(tree, min_node_fill=9)

    def test_wrong_height_detected(self, store):
        tree = packed_tree(store, n=200)
        tree.height += 1
        with pytest.raises(RTreeInvariantError, match="height"):
            validate_rtree(tree)

    def test_wrong_size_detected(self, store):
        tree = packed_tree(store)
        tree.size -= 1
        with pytest.raises(RTreeInvariantError, match="size"):
            validate_rtree(tree)


class TestValidationReport:
    def test_report_counts(self, store):
        tree = packed_tree(store, n=200, fanout=8)
        report = validate_rtree(tree, expect_size=200)
        assert report.height == tree.height
        assert report.size == 200
        assert report.levels[0].level == 0 and report.levels[0].nodes == 1
        assert report.levels[-1].leaf
        assert sum(l.entries for l in report.levels if l.leaf) == 200
        assert report.nodes == tree.node_count()
        # Every non-root node's MBR was checked against its parent entry.
        assert report.mbr_checks == report.nodes - 1

    def test_single_leaf_report(self, store):
        tree = packed_tree(store, n=5, fanout=8)
        report = validate_rtree(tree)
        assert report.levels == (
            type(report.levels[0])(level=0, nodes=1, entries=5, leaf=True),
        )
        assert report.mbr_checks == 0


class TestValidationIsQuiet:
    """Validating or quality-walking an index must not perturb the
    physical cache statistics or the ghost-LRU tracker — the regression
    the ``quiet_peek`` path exists for."""

    @pytest.fixture
    def analytics_tree(self, tmp_path):
        from repro.prtree.prtree import build_prtree
        from repro.storage import open_index, pack_tree

        data = random_rects(600, seed=13)
        tree = build_prtree(BlockStore(), data, 16)
        path = tmp_path / "quiet.pack"
        pack_tree(tree, path, block_size=1024)
        with open_index(
            path,
            values=dict(tree.objects),
            cache_pages=8,
            readonly=True,
            cache_analytics=True,
        ) as paged:
            yield paged

    @staticmethod
    def observability_state(tree):
        stats = tree.page_stats
        tracker = tree.page_store.tracker
        return (
            stats.hits,
            stats.misses,
            stats.evictions,
            tracker.unique_blocks,
            tracker.cold_misses,
        )

    def test_validate_leaves_stats_untouched(self, analytics_tree):
        from repro.rtree.query import QueryEngine

        # Warm the cache so both hit and miss paths have history.
        QueryEngine(analytics_tree).query(Rect((0.2, 0.2), (0.7, 0.7)))
        before = self.observability_state(analytics_tree)
        validate_rtree(analytics_tree)
        assert self.observability_state(analytics_tree) == before

    def test_tree_quality_leaves_stats_untouched(self, analytics_tree):
        from repro.obs.health import tree_quality
        from repro.rtree.query import QueryEngine

        QueryEngine(analytics_tree).query(Rect((0.2, 0.2), (0.7, 0.7)))
        before = self.observability_state(analytics_tree)
        tree_quality(analytics_tree)
        assert self.observability_state(analytics_tree) == before


class TestUtilization:
    def test_packed_tree_is_nearly_full(self, store):
        tree = pack_ordered(store, random_rects(1000, seed=3), 10)
        u = utilization(tree)
        assert u.leaf_fill > 0.99
        assert u.leaf_nodes == 100
        assert u.data_entries == 1000

    def test_single_leaf_tree(self, store):
        tree = pack_ordered(store, random_rects(5, seed=1), 10)
        u = utilization(tree)
        assert u.leaf_nodes == 1 and u.internal_nodes == 0
        assert u.leaf_fill == 0.5

    def test_nodes_property(self, store):
        tree = pack_ordered(store, random_rects(300, seed=1), 8)
        u = utilization(tree)
        assert u.nodes == tree.node_count()
