"""Unit tests for R*-tree insertion (the production-baseline updater)."""

import random

import pytest

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.rtree.query import QueryEngine, brute_force_query
from repro.rtree.rstar import rstar_insert, rstar_split
from repro.rtree.tree import RTree
from repro.rtree.update import delete, insert
from repro.rtree.validate import validate_rtree

from tests.conftest import (
    assert_same_matches,
    random_rects,
    random_windows,
    split_entries,
)


def grow_rstar(store, data, fanout=8):
    tree = RTree.create_empty(store, dim=2, fanout=fanout)
    for rect, value in data:
        rstar_insert(tree, rect, value)
    return tree


class TestRStarSplit:
    """The contract every splitter shares is in ``test_split.py``."""

    def test_zero_overlap_split_found(self):
        # Two x-separated bands: the R* split must cut between them with
        # zero overlap.
        left = [(Rect((0.0, i / 10), (0.1, i / 10 + 0.05)), i) for i in range(5)]
        right = [
            (Rect((0.9, i / 10), (1.0, i / 10 + 0.05)), 10 + i) for i in range(5)
        ]
        a, b = split_entries(rstar_split, left + right, min_fill=2)
        from repro.geometry.rect import mbr_of

        box_a = mbr_of(r for r, _ in a)
        box_b = mbr_of(r for r, _ in b)
        assert box_a.intersection(box_b) is None


class TestRStarInsert:
    def test_structure_valid_after_many_inserts(self, store):
        data = random_rects(600, seed=4)
        tree = grow_rstar(store, data)
        validate_rtree(tree, expect_size=600)

    def test_queries_correct(self, store):
        data = random_rects(500, seed=5)
        tree = grow_rstar(store, data)
        engine = QueryEngine(tree)
        for window in random_windows(20, seed=6):
            got, _ = engine.query(window)
            assert_same_matches(got, brute_force_query(data, window))

    def test_wrong_dim_raises(self, store):
        tree = RTree.create_empty(store, dim=2, fanout=8)
        with pytest.raises(ValueError):
            rstar_insert(tree, Rect((0,), (1,)), "x")

    def test_forced_reinsertion_happens(self, store):
        # With clustered inserts the first overflow must trigger a
        # reinsertion rather than an immediate split: after exactly
        # fanout+1 inserts into one spot the tree can still be height 1
        # only if it split — R* reinsertion defers that, so we simply
        # check the tree stays valid and queryable through the overflow
        # boundary.
        tree = RTree.create_empty(store, fanout=8)
        r = Rect((0.5, 0.5), (0.51, 0.51))
        for i in range(9):
            rstar_insert(tree, r.translated((i * 1e-4, 0)), i)
        validate_rtree(tree, expect_size=9)

    def test_mixed_with_guttman_delete(self, store):
        data = random_rects(400, seed=7)
        tree = grow_rstar(store, data)
        rng = random.Random(8)
        shuffled = data[:]
        rng.shuffle(shuffled)
        for rect, value in shuffled[:200]:
            assert delete(tree, rect, value)
        validate_rtree(tree, expect_size=200)
        live = [item for item in data if item not in shuffled[:200]]
        engine = QueryEngine(tree)
        for window in random_windows(10, seed=9):
            got, _ = engine.query(window)
            assert_same_matches(got, brute_force_query(live, window))

    def test_rstar_beats_guttman_on_clustered_data(self):
        # The reason R* exists: better query trees under dynamic load.
        rng = random.Random(10)
        data = []
        for c in range(20):
            cx, cy = rng.random(), rng.random()
            for i in range(60):
                x = cx + rng.gauss(0, 0.01)
                y = cy + rng.gauss(0, 0.01)
                data.append((Rect((x, y), (x + 0.005, y + 0.005)), (c, i)))
        guttman = RTree.create_empty(BlockStore(), fanout=8)
        rstar = RTree.create_empty(BlockStore(), fanout=8)
        for rect, value in data:
            insert(guttman, rect, value)
            rstar_insert(rstar, rect, value)
        ge, re = QueryEngine(guttman), QueryEngine(rstar)
        for window in random_windows(40, seed=11, side=0.15):
            ge.query(window)
            re.query(window)
        assert re.totals.leaf_reads <= ge.totals.leaf_reads * 1.05

    def test_duplicate_heavy_input(self, store):
        tree = RTree.create_empty(store, fanout=6)
        r = Rect((0.2, 0.2), (0.3, 0.3))
        for i in range(60):
            rstar_insert(tree, r, i)
        validate_rtree(tree, expect_size=60)
        assert tree.count_query(r) == 60
