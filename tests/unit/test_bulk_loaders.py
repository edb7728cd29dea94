"""Unit tests for the H, H4, TGS and STR bulk loaders (in-memory faces)."""

import pytest

from repro.bulk.hilbert import (
    build_hilbert,
    build_hilbert4,
    build_hilbert4_external,
    build_hilbert_external,
)
from repro.bulk.str_pack import build_str
from repro.bulk.tgs import _best_cut, _tree_height, build_tgs
from repro.external.memory import MemoryModel
from repro.external.stream import BlockStream
from repro.geometry.rect import Rect, mbr_of
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.rtree.query import QueryEngine, brute_force_query
from repro.rtree.validate import utilization, validate_rtree
from repro.storage import shard_pack

from tests.conftest import assert_same_matches, random_rects, random_windows

ALL_LOADERS = [build_hilbert, build_hilbert4, build_tgs, build_str]
LOADER_IDS = ["H", "H4", "TGS", "STR"]


@pytest.mark.parametrize("loader", ALL_LOADERS, ids=LOADER_IDS)
class TestLoaderContract:
    """Behaviour every bulk loader must satisfy."""

    def test_structure_is_valid(self, store, loader, medium_data):
        tree = loader(store, medium_data, 16)
        validate_rtree(tree, expect_size=len(medium_data))

    def test_high_space_utilization(self, store, loader, medium_data):
        # Section 3.3: "we achieved a space utilization above 99%".
        tree = loader(store, medium_data, 16)
        assert utilization(tree).leaf_fill > 0.99

    def test_queries_match_brute_force(self, store, loader, medium_data):
        tree = loader(store, medium_data, 16)
        engine = QueryEngine(tree)
        for window in random_windows(15, seed=21):
            got, _ = engine.query(window)
            assert_same_matches(got, brute_force_query(medium_data, window))

    def test_empty_dataset(self, store, loader):
        tree = loader(store, [], 16)
        assert len(tree) == 0
        assert tree.query(Rect((0, 0), (1, 1))) == []

    def test_single_rect(self, store, loader):
        tree = loader(store, [(Rect((0, 0), (1, 1)), "only")], 16)
        assert tree.height == 1
        assert tree.query(Rect((0.5, 0.5), (2, 2))) == [(Rect((0, 0), (1, 1)), "only")]

    def test_exactly_one_block(self, store, loader):
        data = random_rects(16, seed=1)
        tree = loader(store, data, 16)
        assert tree.height == 1
        validate_rtree(tree, expect_size=16)

    def test_duplicates_preserved(self, store, loader):
        r = Rect((0.5, 0.5), (0.6, 0.6))
        data = [(r, i) for i in range(40)]
        tree = loader(store, data, 8)
        assert tree.count_query(r) == 40

    def test_point_data(self, store, loader):
        from repro.geometry.rect import point_rect

        data = [(point_rect((i / 100, i / 100)), i) for i in range(100)]
        tree = loader(store, data, 8)
        validate_rtree(tree, expect_size=100)
        assert tree.count_query(Rect((0, 0), (0.5, 0.5))) == 51


class TestHilbertSpecifics:
    def test_h_sorts_spatially(self, store):
        # Two spatial clusters must end up in different leaves.
        left = [(Rect((0.0, 0.0), (0.01, 0.01)), f"l{i}") for i in range(8)]
        right = [(Rect((0.9, 0.9), (0.91, 0.91)), f"r{i}") for i in range(8)]
        interleaved = [x for pair in zip(left, right) for x in pair]
        tree = build_hilbert(store, interleaved, 8)
        leaf_sets = [
            {value for _, oid in leaf.entries for value in [tree.objects[oid]]}
            for _, leaf in tree.iter_leaves()
        ]
        assert all(
            all(v.startswith("l") for v in s) or all(v.startswith("r") for v in s)
            for s in leaf_sets
        )

    def test_h_ignores_extent_h4_does_not(self, store):
        # Concentric rectangles: same centers, wildly different extents.
        # H puts them in center order (arbitrary); H4 separates small
        # from large.  We just assert both build valid trees and answer
        # queries identically.
        data = [
            (Rect((0.5 - s, 0.5 - s), (0.5 + s, 0.5 + s)), i)
            for i, s in enumerate([0.001 * k + 0.0001 for k in range(50)])
        ]
        h = build_hilbert(store, data, 8)
        h4 = build_hilbert4(BlockStore(), data, 8)
        window = Rect((0.49, 0.49), (0.51, 0.51))
        assert h.count_query(window) == h4.count_query(window) == 50


class TestTGSSpecifics:
    def test_tree_height_function(self):
        assert _tree_height(1, 16) == 1
        assert _tree_height(16, 16) == 1
        assert _tree_height(17, 16) == 2
        assert _tree_height(256, 16) == 2
        assert _tree_height(257, 16) == 3

    def test_best_cut_prefers_clean_separation(self):
        # Ordering 0 separates two far clusters; ordering 1 mixes them.
        clean = [Rect((0, 0), (1, 1)), Rect((100, 0), (101, 1))]
        messy = [Rect((0, 0), (101, 1)), Rect((0, 0), (101, 1))]
        ordering, cut = _best_cut([clean, messy])
        assert ordering == 0 and cut == 1

    def test_one_underfull_node_per_level(self, store):
        # Footnote 1: rounding to powers of B means at most one node per
        # level may be underfull.
        data = random_rects(1000, seed=5)
        tree = build_tgs(store, data, 8)
        for depth_nodes in _nodes_by_depth(tree).values():
            underfull = [n for n in depth_nodes if len(n.entries) < 8]
            assert len(underfull) <= 1

    def test_greedy_split_quality_on_two_clusters(self, store):
        left = [(Rect((0.0, 0.0), (0.01, 0.01)).translated((0, i * 0.001)), i) for i in range(32)]
        right = [
            (Rect((0.9, 0.9), (0.91, 0.91)).translated((0, i * 0.001)), 100 + i)
            for i in range(32)
        ]
        tree = build_tgs(store, left + right, 8)
        root = tree.peek_node(tree.root_id)
        # No root entry's box should span both clusters.
        for rect, _ in root.entries:
            assert not (rect.lo[0] < 0.5 < rect.hi[0])


def _nodes_by_depth(tree):
    by_depth = {}
    for _, node, depth in tree.iter_nodes():
        by_depth.setdefault(depth, []).append(node)
    return by_depth


class TestSTRSpecifics:
    def test_leaves_are_spatial_tiles(self, store):
        # A regular grid of points packs into leaves with low overlap:
        # total leaf MBR area should stay close to the data extent.
        data = [
            (Rect((x / 10, y / 10), (x / 10, y / 10)), (x, y))
            for x in range(10)
            for y in range(10)
        ]
        tree = build_str(store, data, 10)
        total_leaf_area = sum(leaf.mbr().area() for _, leaf in tree.iter_leaves())
        assert total_leaf_area < 1.0

    def test_3d_build(self, store):
        data = random_rects(300, seed=6, dim=3)
        tree = build_str(store, data, 8)
        validate_rtree(tree, expect_size=300)


class TestNonFiniteCoordinates:
    """``Rect`` accepts an infinite side and the PR, STR and TGS loaders
    build on one; a Hilbert key has no grid cell for it, so the
    Hilbert-keyed loads refuse the data, naming the first such
    rectangle, before anything is written."""

    INF = float("inf")

    def data(self):
        data = random_rects(51, seed=44)
        data[17] = (Rect((0.0, 0.0), (self.INF, 1.0)), 17)
        data[30] = (Rect((-self.INF, 0.0), (0.5, 0.5)), 30)
        return data

    @pytest.mark.parametrize(
        "loader", [build_hilbert, build_hilbert4], ids=["H", "H4"]
    )
    def test_hilbert_loaders_refuse(self, loader):
        store = BlockStore()
        with pytest.raises(ValueError, match=r"rectangle 17, \(0\.0, 0\.0\) to \(inf, 1\.0\)"):
            loader(store, self.data(), 8)
        assert len(store) == 0 and store.counters.writes == 0

    @pytest.mark.parametrize(
        "loader", [build_hilbert_external, build_hilbert4_external], ids=["H", "H4"]
    )
    def test_external_hilbert_loaders_refuse(self, loader):
        memory = MemoryModel(memory_records=256, block_records=16)
        store = BlockStore()
        stream = BlockStream.from_records(store, self.data(), memory.block_records)
        writes = store.counters.writes
        with pytest.raises(ValueError, match=r"rectangle 17, \(0\.0, 0\.0\) to \(inf, 1\.0\)"):
            loader(store, stream, 8, memory)
        assert store.counters.writes == writes

    @pytest.mark.parametrize(
        "loader", [build_prtree, build_str, build_tgs], ids=["PR", "STR", "TGS"]
    )
    def test_other_loaders_build_and_shard_pack_refuses(self, loader, tmp_path):
        data = self.data()
        tree = loader(BlockStore(), data, 8)
        validate_rtree(tree, expect_size=len(data))
        window = Rect((0.9, 0.2), (2.0, 0.3))
        assert_same_matches(
            QueryEngine(tree).query(window)[0], brute_force_query(data, window)
        )
        with pytest.raises(ValueError, match="has a non-finite coordinate"):
            shard_pack(tree, tmp_path / "index.manifest", shards=3)
        assert list(tmp_path.iterdir()) == []
