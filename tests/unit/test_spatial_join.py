"""Unit tests for the synchronized-traversal spatial join."""

import pytest

from tests.conftest import random_rects

from repro.bulk.hilbert import build_hilbert
from repro.bulk.tgs import build_tgs
from repro.geometry.rect import Rect, point_rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries.join import SpatialJoinEngine, brute_force_join, spatial_join

BUILDERS = [build_prtree, build_hilbert, build_tgs]
BUILDER_IDS = ["PR", "H", "TGS"]


def value_pairs(pairs):
    return sorted(((a[1], b[1]) for a, b in pairs))


@pytest.mark.parametrize("builder", BUILDERS, ids=BUILDER_IDS)
class TestJoinMatchesOracle:
    def test_uniform_join(self, builder):
        left = random_rects(300, seed=1, max_side=0.05)
        right = random_rects(200, seed=2, max_side=0.05)
        tl = builder(BlockStore(), left, 8)
        tr = builder(BlockStore(), right, 8)
        pairs, stats = SpatialJoinEngine(tl, tr).join()
        assert value_pairs(pairs) == sorted(brute_force_join(left, right))
        assert stats.pairs == len(pairs)

    def test_mixed_variants_and_fanouts(self, builder):
        # Join a tree of this variant against a PR-tree with a different
        # fan-out (and hence height).
        left = random_rects(400, seed=3, max_side=0.05)
        right = random_rects(60, seed=4, max_side=0.05)
        tl = builder(BlockStore(), left, 16)
        tr = build_prtree(BlockStore(), right, 4)
        pairs, _ = SpatialJoinEngine(tl, tr).join()
        assert value_pairs(pairs) == sorted(brute_force_join(left, right))

    def test_points_vs_rects(self, builder):
        points = [(point_rect((i / 50, i / 50)), f"p{i}") for i in range(50)]
        rects = random_rects(100, seed=5, max_side=0.1)
        tl = builder(BlockStore(), points, 8)
        tr = builder(BlockStore(), rects, 8)
        pairs, _ = SpatialJoinEngine(tl, tr).join()
        assert value_pairs(pairs) == sorted(brute_force_join(points, rects))


class TestJoinEdgeCases:
    def test_empty_left(self):
        tl = build_prtree(BlockStore(), [], 8)
        tr = build_prtree(BlockStore(), random_rects(50, seed=1), 8)
        pairs, stats = SpatialJoinEngine(tl, tr).join()
        assert pairs == [] and stats.pairs == 0

    def test_empty_right(self):
        tl = build_prtree(BlockStore(), random_rects(50, seed=1), 8)
        tr = build_prtree(BlockStore(), [], 8)
        assert spatial_join(tl, tr) == []

    def test_disjoint_datasets_read_only_roots(self):
        left = [(Rect((0.0, 0.0), (0.1, 0.1)), 0)]
        right = [(Rect((0.8, 0.8), (0.9, 0.9)), 0)]
        tl = build_prtree(BlockStore(), left * 1, 4)
        tr = build_prtree(BlockStore(), right * 1, 4)
        pairs, stats = SpatialJoinEngine(tl, tr).join()
        assert pairs == []
        # Only the two roots are read; their MBRs are disjoint.
        assert stats.node_pairs == 0

    def test_self_join_includes_self_pairs(self):
        data = random_rects(80, seed=6, max_side=0.1)
        tree = build_prtree(BlockStore(), data, 8)
        pairs = spatial_join(tree, tree)
        got = value_pairs(pairs)
        assert got == sorted(brute_force_join(data, data))
        # Every rectangle intersects itself.
        assert all((v, v) in got for _, v in data)

    def test_dimension_mismatch_raises(self):
        t2 = build_prtree(BlockStore(), random_rects(10, seed=1), 4)
        t3 = build_prtree(BlockStore(), random_rects(10, seed=1, dim=3), 4)
        with pytest.raises(ValueError):
            SpatialJoinEngine(t2, t3)


class TestJoinAccounting:
    def test_totals_accumulate(self):
        left = random_rects(200, seed=1)
        right = random_rects(200, seed=2)
        engine = SpatialJoinEngine(
            build_prtree(BlockStore(), left, 8),
            build_prtree(BlockStore(), right, 8),
        )
        _, first = engine.join()
        engine.join()
        assert engine.totals.joins == 2
        assert engine.totals.pairs == 2 * first.pairs

    def test_second_join_has_no_internal_misses(self):
        left = random_rects(400, seed=1)
        right = random_rects(400, seed=2)
        engine = SpatialJoinEngine(
            build_prtree(BlockStore(), left, 8),
            build_prtree(BlockStore(), right, 8),
        )
        engine.join()
        _, stats = engine.join()
        assert stats.left.internal_reads == 0
        assert stats.right.internal_reads == 0
        assert stats.ios > 0  # leaves always hit the disk

    def test_pair_count_matches_join(self):
        left = random_rects(150, seed=3)
        right = random_rects(150, seed=4)
        engine = SpatialJoinEngine(
            build_prtree(BlockStore(), left, 8),
            build_prtree(BlockStore(), right, 8),
        )
        pairs, stats = engine.join()
        assert len(pairs) == stats.pairs == len(brute_force_join(left, right))

    def test_join_beats_reading_all_node_pairs(self):
        # The synchronized traversal must not degenerate to the
        # cartesian product of leaves on sparse data.
        left = random_rects(800, seed=5, max_side=0.01)
        right = random_rects(800, seed=6, max_side=0.01)
        tl = build_prtree(BlockStore(), left, 8)
        tr = build_prtree(BlockStore(), right, 8)
        _, stats = SpatialJoinEngine(tl, tr).join()
        assert stats.node_pairs < tl.leaf_count() * tr.leaf_count() // 4
