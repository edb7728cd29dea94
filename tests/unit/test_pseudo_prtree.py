"""Unit tests for the pseudo-PR-tree (paper Section 2.1)."""

import math

import pytest

from repro.geometry.rect import Rect
from repro.prtree.pseudo import PseudoLeaf, PseudoNode, PseudoPRTree
from repro.rtree.query import brute_force_query

from tests.conftest import random_rects, random_windows


def items_of(data):
    return [(rect, value) for rect, value in data]


class TestStructure:
    def test_small_set_is_single_leaf(self):
        items = items_of(random_rects(5, seed=1))
        tree = PseudoPRTree(items, capacity=8)
        assert isinstance(tree.root, PseudoLeaf)
        assert len(tree.root) == 5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            PseudoPRTree([], capacity=8)

    @pytest.mark.parametrize("odd_at", [0, 7, 50])
    def test_mixed_dimensions_rejected(self, odd_at):
        items = items_of(random_rects(50, seed=2))
        items.insert(odd_at, (Rect((0, 0, 0), (1, 1, 1)), 50))
        with pytest.raises(ValueError, match="rect of dim . in a dim-. load"):
            PseudoPRTree(items, capacity=8)
        with pytest.raises(ValueError, match="rect of dim 3 in a dim-2 load"):
            PseudoPRTree(items, capacity=8, dim=2)

    def test_all_items_in_exactly_one_leaf(self):
        items = items_of(random_rects(500, seed=2))
        tree = PseudoPRTree(items, capacity=8)
        seen = [p for leaf in tree.leaves() for _, p in leaf.items]
        assert sorted(seen) == sorted(p for _, p in items)

    def test_leaf_capacity_respected(self):
        items = items_of(random_rects(500, seed=3))
        tree = PseudoPRTree(items, capacity=8)
        assert all(len(leaf) <= 8 for leaf in tree.leaves())

    def test_internal_degree_at_most_2d_plus_2(self):
        items = items_of(random_rects(500, seed=4))
        tree = PseudoPRTree(items, capacity=8)
        for node in tree.nodes():
            assert len(node.children) <= 2 * 2 + 2
            assert len(node.priority_leaves) <= 4
            assert len(node.subtrees) <= 2

    def test_round_robin_split_axes(self):
        items = items_of(random_rects(2000, seed=5))
        tree = PseudoPRTree(items, capacity=4, snap_splits=False)

        def walk(node, depth):
            if isinstance(node, PseudoLeaf):
                return
            assert node.split_axis == depth % 4
            for sub in node.subtrees:
                walk(sub, depth + 1)

        walk(tree.root, 0)

    def test_priority_leaves_hold_extremes(self):
        items = items_of(random_rects(300, seed=6))
        tree = PseudoPRTree(items, capacity=8)
        root = tree.root
        assert isinstance(root, PseudoNode)
        # First priority leaf: the 8 smallest xmin values overall.
        xmin_leaf = root.priority_leaves[0]
        assert xmin_leaf.kind == "priority:0"
        expected = sorted(items, key=lambda it: (it[0].lo[0], it[1]))[:8]
        assert {p for _, p in xmin_leaf.items} == {p for _, p in expected}

    def test_second_priority_leaf_excludes_first(self):
        items = items_of(random_rects(300, seed=7))
        tree = PseudoPRTree(items, capacity=8)
        root = tree.root
        taken = {p for _, p in root.priority_leaves[0].items}
        remaining = [it for it in items if it[1] not in taken]
        expected = sorted(remaining, key=lambda it: (it[0].lo[1], it[1]))[:8]
        ymin_leaf = root.priority_leaves[1]
        assert ymin_leaf.kind == "priority:1"
        assert {p for _, p in ymin_leaf.items} == {p for _, p in expected}

    def test_max_direction_priority_leaf(self):
        items = items_of(random_rects(300, seed=8))
        tree = PseudoPRTree(items, capacity=8)
        root = tree.root
        taken = {
            p
            for leaf in root.priority_leaves[:2]
            for _, p in leaf.items
        }
        remaining = [it for it in items if it[1] not in taken]
        expected = sorted(
            remaining, key=lambda it: (-it[0].hi[0], it[1])
        )[:8]
        xmax_leaf = root.priority_leaves[2]
        assert xmax_leaf.kind == "priority:2"
        assert {p for _, p in xmax_leaf.items} == {p for _, p in expected}

    def test_median_split_is_balanced(self):
        items = items_of(random_rects(4096, seed=9))
        tree = PseudoPRTree(items, capacity=4, snap_splits=False)

        def count(node):
            if isinstance(node, PseudoLeaf):
                return len(node)
            return sum(count(c) for c in node.children)

        def walk(node):
            if isinstance(node, PseudoLeaf) or len(node.subtrees) < 2:
                return
            sizes = [count(s) for s in node.subtrees]
            rest = sum(sizes)
            # Lemma 2 needs each side <= half the remainder (+1 for odd).
            assert max(sizes) <= rest // 2 + 1
            for sub in node.subtrees:
                walk(sub)

        walk(tree.root)

    def test_snap_splits_make_full_leaves(self):
        items = items_of(random_rects(4000, seed=10))
        tree = PseudoPRTree(items, capacity=8, snap_splits=True)
        sizes = [len(leaf) for leaf in tree.leaves()]
        # Near-100% utilization: the number of non-full leaves is tiny.
        assert sizes.count(8) >= len(sizes) * 0.95

    def test_priority_size_one_variant(self):
        # Agarwal et al. [2]: priority leaves of size 1.
        items = items_of(random_rects(200, seed=11))
        tree = PseudoPRTree(items, capacity=8, priority_size=1)
        root = tree.root
        assert all(len(leaf) == 1 for leaf in root.priority_leaves)

    def test_mbrs_cover_subtrees(self):
        items = items_of(random_rects(600, seed=12))
        tree = PseudoPRTree(items, capacity=8)

        def walk(node):
            if isinstance(node, PseudoLeaf):
                for rect, _ in node.items:
                    assert node.mbr.contains_rect(rect)
                return
            for child in node.children:
                assert node.mbr.contains_rect(child.mbr)
                walk(child)

        walk(tree.root)

    def test_3d_structure(self):
        items = items_of(random_rects(400, seed=13, dim=3))
        tree = PseudoPRTree(items, capacity=8)
        for node in tree.nodes():
            assert len(node.priority_leaves) <= 6  # 2d = 6 directions
            assert node.split_axis < 6
        seen = [p for leaf in tree.leaves() for _, p in leaf.items]
        assert len(seen) == 400


class TestQueries:
    def test_matches_brute_force(self):
        data = random_rects(800, seed=14)
        tree = PseudoPRTree(items_of(data), capacity=8)
        for window in random_windows(20, seed=15):
            got, _ = tree.query(window)
            want = brute_force_query(data, window)
            assert sorted(p for _, p in got) == sorted(v for _, v in want)

    def test_empty_query(self):
        data = random_rects(100, seed=16)
        tree = PseudoPRTree(items_of(data), capacity=8)
        got, stats = tree.query(Rect((10, 10), (11, 11)))
        assert got == [] and stats.leaves_visited == 0

    def test_lemma2_bound_on_uniform_points(self):
        # Lemma 2: leaves visited = O(sqrt(N/B) + T/B).  Check with a
        # generous constant on uniform data and moderate windows.
        from repro.geometry.rect import point_rect
        import random as _random

        rng = _random.Random(17)
        n, b = 4096, 8
        data = [(point_rect((rng.random(), rng.random())), i) for i in range(n)]
        tree = PseudoPRTree(items_of(data), capacity=b)
        for window in random_windows(20, seed=18, side=0.15):
            got, stats = tree.query(window)
            bound = 8 * (math.sqrt(n / b) + len(got) / b + 1)
            assert stats.leaves_visited <= bound

    def test_query_stats_total(self):
        data = random_rects(300, seed=19)
        tree = PseudoPRTree(items_of(data), capacity=8)
        _, stats = tree.query(Rect((0, 0), (1, 1)))
        assert stats.total_visited == stats.nodes_visited + stats.leaves_visited
        assert stats.reported == 300
