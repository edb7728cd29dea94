"""Unit tests for the PR-tree builder and the dynamic logarithmic method."""

import math
import os
import random
import subprocess
import sys

import pytest

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.logmethod import LogMethodPRTree
from repro.prtree.prtree import build_prtree, prtree_query_bound, stage_sets
from repro.rtree.query import QueryEngine, brute_force_query
from repro.rtree.validate import utilization, validate_rtree

from tests.conftest import assert_same_matches, random_rects, random_windows


class TestBuildPRTree:
    def test_valid_structure(self, store, medium_data):
        tree = build_prtree(store, medium_data, 16)
        validate_rtree(tree, expect_size=len(medium_data))

    def test_space_utilization(self, store, medium_data):
        tree = build_prtree(store, medium_data, 16)
        assert utilization(tree).leaf_fill > 0.99

    def test_queries_match_brute_force(self, store, medium_data):
        tree = build_prtree(store, medium_data, 16)
        engine = QueryEngine(tree)
        for window in random_windows(20, seed=23):
            got, _ = engine.query(window)
            assert_same_matches(got, brute_force_query(medium_data, window))

    def test_empty_and_tiny(self, store):
        assert len(build_prtree(store, [], 8)) == 0
        tree = build_prtree(BlockStore(), random_rects(3, seed=1), 8)
        assert tree.height == 1
        validate_rtree(tree, expect_size=3)

    def test_all_leaves_one_level(self, store, medium_data):
        tree = build_prtree(store, medium_data, 8)
        depths = {d for _, node, d in tree.iter_nodes() if node.is_leaf}
        assert len(depths) == 1

    def test_no_snap_variant(self, store, medium_data):
        tree = build_prtree(store, medium_data, 16, snap_splits=False)
        validate_rtree(tree, expect_size=len(medium_data))

    def test_priority_size_override(self, store, medium_data):
        tree = build_prtree(store, medium_data, 16, priority_size=4)
        validate_rtree(tree, expect_size=len(medium_data))

    @pytest.mark.parametrize(
        "dim,fanout", [(1, 2), (2, 4), (2, 3), (3, 6)]
    )
    def test_priority_size_one_rejects_a_fanout_that_cannot_shrink(
        self, dim, fanout
    ):
        # At fanout <= 2d a stage of fanout + 1 entries yields as many
        # nodes as entries and the stage loop used to spin for ever; the
        # build runs in a child so the old behaviour fails by timeout.
        script = (
            "import random\n"
            "from repro.geometry.rect import Rect\n"
            "from repro.iomodel.blockstore import BlockStore\n"
            "from repro.prtree.prtree import build_prtree\n"
            "rng = random.Random(1)\n"
            f"corners = [[rng.random() for _ in range({dim})] for _ in range(40)]\n"
            "data = [(Rect(c, c), i) for i, c in enumerate(corners)]\n"
            "try:\n"
            f"    build_prtree(BlockStore(), data, {fanout}, priority_size=1)\n"
            "except ValueError as error:\n"
            "    print(error)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=30, check=True,
        )
        assert "priority_size=1" in done.stdout
        assert f"fanout={fanout}" in done.stdout

    @pytest.mark.parametrize("dim,fanout", [(1, 3), (2, 5), (3, 7)])
    def test_priority_size_one_builds_above_that_fanout(self, dim, fanout):
        for n in (fanout + 1, 2 * dim + fanout + 1, 150):
            data = random_rects(n, seed=n, dim=dim)
            tree = build_prtree(BlockStore(), data, fanout, priority_size=1)
            validate_rtree(tree, expect_size=n)

    def test_3d_build(self, store):
        data = random_rects(600, seed=3, dim=3)
        tree = build_prtree(store, data, 8)
        validate_rtree(tree, expect_size=600)
        engine = QueryEngine(tree)
        for window in random_windows(10, seed=4, dim=3):
            got, _ = engine.query(window)
            assert_same_matches(got, brute_force_query(data, window))

    def test_1d_build(self, store):
        data = random_rects(200, seed=5, dim=1)
        tree = build_prtree(store, data, 8)
        validate_rtree(tree, expect_size=200)
        window = Rect((0.25,), (0.5,))
        assert_same_matches(tree.query(window), brute_force_query(data, window))

    @pytest.mark.parametrize("fanout", [8, 64])
    @pytest.mark.parametrize("odd_at", [0, 25, 50])
    def test_mixed_dimensions_rejected(self, store, fanout, odd_at):
        # Fifty 2-d rectangles and one 3-d one used to die inside mbr_of
        # with an IndexError — or, when the odd one led a leaf, store a
        # truncated box silently.
        data = random_rects(50, seed=6)
        data.insert(odd_at, (Rect((0, 0, 0), (1, 1, 1)), 50))
        dim = data[0][0].dim
        odd = 5 - dim
        with pytest.raises(
            ValueError, match=f"rect of dim {odd} in a dim-{dim} load"
        ):
            build_prtree(store, data, fanout)
        assert store.allocated_ever == 0

    def test_stage_sets_shrink_geometrically(self):
        sizes = stage_sets([None] * 10_000, fanout=10)
        assert sizes[0] == 10_000
        for a, b in zip(sizes, sizes[1:]):
            assert b <= math.ceil(a / 10) + 1
        assert sizes[-1] <= 10

    def test_query_bound_helper(self):
        assert prtree_query_bound(0, 8, 0) >= 0
        small = prtree_query_bound(64, 8, 0)
        large = prtree_query_bound(6400, 8, 0)
        assert large > small


class TestLogMethod:
    def test_insert_query_roundtrip(self, store):
        index = LogMethodPRTree(store, fanout=8)
        index.insert(Rect((0, 0), (1, 1)), "a")
        index.insert(Rect((2, 2), (3, 3)), "b")
        got = index.query(Rect((0.5, 0.5), (2.5, 2.5)))
        assert sorted(v for _, v in got) == ["a", "b"]

    def test_component_size_discipline(self, store):
        index = LogMethodPRTree(store, fanout=8)
        for i, (rect, value) in enumerate(random_rects(200, seed=6)):
            index.insert(rect, value)
            if i % 37 == 0:
                index.check_invariants()
        index.check_invariants()
        levels = [level for level, _ in index.components()]
        assert len(levels) == len(set(levels))

    def test_component_count_is_logarithmic(self, store):
        index = LogMethodPRTree(store, fanout=8)
        for rect, value in random_rects(500, seed=7):
            index.insert(rect, value)
        assert len(list(index.components())) <= math.log2(500) + 2

    def test_delete_hides_immediately(self, store):
        index = LogMethodPRTree(store, fanout=8)
        r = Rect((0, 0), (1, 1))
        index.insert(r, "x")
        assert index.delete(r, "x")
        assert index.query(Rect((0, 0), (2, 2))) == []
        assert len(index) == 0

    def test_delete_missing_returns_false(self, store):
        index = LogMethodPRTree(store, fanout=8)
        assert not index.delete(Rect((0, 0), (1, 1)), "ghost")

    def test_tombstone_rebuild_triggers(self, store):
        index = LogMethodPRTree(store, fanout=8)
        data = random_rects(128, seed=8)
        for rect, value in data:
            index.insert(rect, value)
        # Delete most records: stored count must shrink via global rebuild.
        for rect, value in data[:100]:
            index.delete(rect, value)
        assert index.stored_count <= 2 * index.live_count + 1
        index.check_invariants()

    def test_mixed_workload_correctness(self, store):
        rng = random.Random(9)
        index = LogMethodPRTree(store, fanout=8)
        live = []
        for i in range(400):
            if live and rng.random() < 0.35:
                rect, value = live.pop(rng.randrange(len(live)))
                assert index.delete(rect, value)
            else:
                x, y = rng.random(), rng.random()
                rect = Rect((x, y), (x + 0.03, y + 0.03))
                index.insert(rect, i)
                live.append((rect, i))
        for window in random_windows(15, seed=10):
            got = index.query(window)
            assert_same_matches(got, brute_force_query(live, window))

    def test_query_stats_aggregate_components(self, store):
        index = LogMethodPRTree(store, fanout=8)
        for rect, value in random_rects(300, seed=11):
            index.insert(rect, value)
        _, stats = index.query_with_stats(Rect((0, 0), (1, 1)))
        assert stats.reported == 300
        assert stats.leaf_reads > 0

    def test_wrong_dim_raises(self, store):
        index = LogMethodPRTree(store, fanout=8, dim=2)
        with pytest.raises(ValueError):
            index.insert(Rect((0,), (1,)), "x")

    def test_bad_base_raises(self, store):
        with pytest.raises(ValueError):
            LogMethodPRTree(store, fanout=8, base=1)

    def test_larger_base(self, store):
        index = LogMethodPRTree(store, fanout=8, base=4)
        for rect, value in random_rects(150, seed=12):
            index.insert(rect, value)
        index.check_invariants()
        got = index.query(Rect((0, 0), (1, 1)))
        assert len(got) == 150
