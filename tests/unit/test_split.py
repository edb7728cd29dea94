"""Unit tests for Guttman's node-splitting heuristics."""

import random

import pytest

from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.rtree.split import linear_split, quadratic_split

from tests.conftest import random_rects


def entries_of(data):
    return [(rect, value) for rect, value in data]


SPLITTERS = [quadratic_split, linear_split]


@pytest.mark.parametrize("splitter", SPLITTERS)
class TestCommonSplitContract:
    def test_partition_is_exact(self, splitter):
        entries = entries_of(random_rects(20, seed=1))
        a, b = splitter(entries, min_fill=4)
        assert sorted(p for _, p in a + b) == sorted(p for _, p in entries)

    def test_min_fill_respected(self, splitter):
        for seed in range(5):
            entries = entries_of(random_rects(15, seed=seed))
            a, b = splitter(entries, min_fill=5)
            assert len(a) >= 5 and len(b) >= 5

    def test_two_entries(self, splitter):
        entries = [
            (Rect((0, 0), (1, 1)), 0),
            (Rect((5, 5), (6, 6)), 1),
        ]
        a, b = splitter(entries, min_fill=1)
        assert len(a) == 1 and len(b) == 1

    def test_single_entry_raises(self, splitter):
        with pytest.raises(ValueError):
            splitter([(Rect((0, 0), (1, 1)), 0)], min_fill=1)

    def test_infeasible_min_fill_raises(self, splitter):
        entries = entries_of(random_rects(4, seed=0))
        with pytest.raises(ValueError):
            splitter(entries, min_fill=3)

    def test_identical_rectangles(self, splitter):
        entries = [(Rect((0, 0), (1, 1)), i) for i in range(10)]
        a, b = splitter(entries, min_fill=3)
        assert len(a) + len(b) == 10
        assert len(a) >= 3 and len(b) >= 3

    def test_separates_two_obvious_clusters(self, splitter):
        cluster_a = [(Rect((0.0, 0.0), (0.1, 0.1)).translated((i * 0.01, 0)), i) for i in range(5)]
        cluster_b = [
            (Rect((10.0, 10.0), (10.1, 10.1)).translated((i * 0.01, 0)), 100 + i)
            for i in range(5)
        ]
        rng = random.Random(0)
        entries = cluster_a + cluster_b
        rng.shuffle(entries)
        a, b = splitter(entries, min_fill=2)
        groups = [{p for _, p in a}, {p for _, p in b}]
        assert {0, 1, 2, 3, 4} in groups and {100, 101, 102, 103, 104} in groups

    def test_works_in_3d(self, splitter):
        entries = entries_of(random_rects(12, seed=2, dim=3))
        a, b = splitter(entries, min_fill=3)
        assert len(a) + len(b) == 12


class TestQuadraticSpecifics:
    def test_seeds_are_most_wasteful_pair(self):
        # Two far-apart rects plus a cluster: the far pair must seed
        # opposite groups.
        entries = [
            (Rect((0, 0), (1, 1)), "far_a"),
            (Rect((100, 100), (101, 101)), "far_b"),
            (Rect((50, 50), (51, 51)), 1),
            (Rect((50, 51), (51, 52)), 2),
        ]
        a, b = quadratic_split(entries, min_fill=1)
        pointers_a = {p for _, p in a}
        pointers_b = {p for _, p in b}
        assert ("far_a" in pointers_a) != ("far_a" in pointers_b)
        assert ("far_b" in pointers_a) != ("far_b" in pointers_b)
        assert not ({"far_a", "far_b"} <= pointers_a)
        assert not ({"far_a", "far_b"} <= pointers_b)


    def test_seeds_when_every_pair_wastes_less_than_minus_one(self):
        # Nested boxes with areas > 1 (data not normalised to the unit
        # square): every pair's waste is <= -1.  PickSeeds used to start
        # its search at -1.0 and silently fall back to entries 0 and 1
        # (waste -50) instead of the least-bad pair 0 and 3 (waste -1).
        entries = [
            (Rect((0, 0), (10, 10)), "outer"),
            (Rect((0, 0), (10, 5)), "half"),
            (Rect((1, 1), (3, 3)), "small"),
            (Rect((2, 2), (3, 3)), "tiny"),
        ]
        a, b = quadratic_split(entries, min_fill=1)
        assert a[0][1] == "outer" and b[0][1] == "tiny"

    def test_min_fill_validated_by_row_kernel(self):
        lo = kernels.coord_table([(0, 0), (1, 1), (2, 2)], 2)
        with pytest.raises(ValueError):
            kernels.quadratic_split(lo, lo, 2)
        with pytest.raises(ValueError):
            kernels.quadratic_split(lo[:1], lo[:1], 1)
        assert kernels.quadratic_split(lo, lo, 1) == ([0, 1], [2])


class TestLinearSpecifics:
    def test_extreme_separation_seeds(self):
        entries = [
            (Rect((0.0, 0.0), (0.1, 1.0)), "left"),
            (Rect((9.9, 0.0), (10.0, 1.0)), "right"),
            (Rect((5.0, 0.0), (5.1, 1.0)), "mid1"),
            (Rect((5.2, 0.0), (5.3, 1.0)), "mid2"),
        ]
        a, b = linear_split(entries, min_fill=1)
        sides = [{p for _, p in a}, {p for _, p in b}]
        assert not any({"left", "right"} <= side for side in sides)
