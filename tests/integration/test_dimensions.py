"""d-dimensional behaviour (paper Section 2.3, Theorem 2).

The PR-tree generalizes to d dimensions with 2d priority leaves and a
query bound of O((N/B)^(1-1/d) + T/B).  These tests exercise the whole
stack at d = 1 and d = 3 and check the Theorem 2 exponent at d = 3.
"""

import math
import random

import pytest

from repro.bulk.hilbert import build_hilbert, build_hilbert4
from repro.bulk.tgs import build_tgs
from repro.geometry.rect import Rect, point_rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree, prtree_query_bound
from repro.rtree.query import QueryEngine, brute_force_query
from repro.rtree.validate import utilization, validate_rtree

from tests.conftest import assert_same_matches, random_rects, random_windows

ALL_BUILDERS = {
    "H": build_hilbert,
    "H4": build_hilbert4,
    "TGS": build_tgs,
    "PR": build_prtree,
}


class TestOneDimensional:
    def test_all_variants_correct_in_1d(self):
        data = random_rects(400, seed=61, dim=1)
        for name, builder in ALL_BUILDERS.items():
            tree = builder(BlockStore(), data, 8)
            validate_rtree(tree, expect_size=400)
            for window in random_windows(10, seed=62, dim=1):
                got, _ = QueryEngine(tree).query(window)
                assert_same_matches(
                    got, brute_force_query(data, window), context=name
                )

    def test_1d_interval_stabbing(self):
        # 1D window queries are interval-stabbing queries.
        data = [(Rect((i,), (i + 0.5,)), i) for i in range(100)]
        tree = build_prtree(BlockStore(), data, 8)
        got = tree.query(point_rect((10.25,)))
        assert [v for _, v in got] == [10]


class TestThreeDimensional:
    def test_all_variants_correct_in_3d(self):
        data = random_rects(500, seed=63, dim=3)
        for name, builder in ALL_BUILDERS.items():
            tree = builder(BlockStore(), data, 8)
            validate_rtree(tree, expect_size=500)
            for window in random_windows(8, seed=64, dim=3):
                got, _ = QueryEngine(tree).query(window)
                assert_same_matches(
                    got, brute_force_query(data, window), context=name
                )

    def test_utilization_in_3d(self):
        data = random_rects(1000, seed=65, dim=3)
        for builder in ALL_BUILDERS.values():
            tree = builder(BlockStore(), data, 8)
            assert utilization(tree).leaf_fill > 0.99

    def test_theorem2_bound_in_3d(self):
        # O((N/B)^(2/3) + T/B) leaf I/Os for d = 3.
        n, fanout = 4096, 8
        data = random_rects(n, seed=66, dim=3, max_side=0.05)
        tree = build_prtree(BlockStore(), data, fanout)
        engine = QueryEngine(tree)
        for window in random_windows(15, seed=67, dim=3, side=0.3):
            _, stats = engine.query(window)
            bound = prtree_query_bound(n, fanout, stats.reported, dim=3, constant=10.0)
            assert stats.leaf_reads <= bound

    def test_theorem2_exponent_scaling(self):
        # Empty-ish queries: quadrupling N should scale cost by about
        # 4^(2/3) ≈ 2.5, not 4.  Use thin slab queries that cut the cube.
        fanout = 8
        costs = {}
        for n in (2048, 8192):
            rng = random.Random(68)
            data = [
                (point_rect((rng.random(), rng.random(), rng.random())), i)
                for i in range(n)
            ]
            tree = build_prtree(BlockStore(), data, fanout)
            engine = QueryEngine(tree)
            total = 0
            rounds = 10
            for k in range(rounds):
                x = (k + 0.5) / rounds
                window = Rect((x, 0.0, 0.0), (x + 1e-9, 1.0, 1.0))
                _, stats = engine.query(window)
                total += stats.leaf_reads
            costs[n] = total / rounds
        growth = costs[8192] / max(costs[2048], 1)
        assert growth < 3.5, costs  # linear scaling would be ~4


class TestPseudoPRTreeDimensions:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_priority_leaf_directions_match_dim(self, dim):
        from repro.prtree.pseudo import PseudoPRTree

        data = random_rects(300, seed=69, dim=dim)
        tree = PseudoPRTree([(r, v) for r, v in data], capacity=8)
        for node in tree.nodes():
            assert len(node.priority_leaves) <= 2 * dim
            assert 0 <= node.split_axis < 2 * dim


class TestWrongDimension:
    """Every read and write entry rejects a query of another dimension
    with one ``ValueError`` message, on every tree shape.  A window of
    another dimension used to be answered on the tree's own axes (a 3-d
    window reported what its 2-d projection did) or to raise
    ``IndexError`` (a 1-d window)."""

    WIDE = Rect((0.2, 0.2, 5), (0.4, 0.4, 6))
    NARROW = Rect((0.2,), (0.4,))
    KINDS = ("window", "containment", "count", "point", "knn")

    @staticmethod
    def message(got: int) -> str:
        return f"{got}-d argument against a 2-d index"

    def check_reads(self, read, kinds=KINDS):
        """``read(kind, arg)`` runs one read of ``kind``; a point or kNN
        read takes the window's lower corner."""
        for window in (self.WIDE, self.NARROW):
            for kind in kinds:
                arg = window.lo if kind in ("point", "knn") else window
                with pytest.raises(ValueError, match=self.message(window.dim)):
                    read(kind, arg)
        # The right dimension still answers.
        assert len(read("window", Rect((0.2, 0.2), (0.4, 0.4)))) > 0

    def test_rtree(self):
        from repro.datasets.synthetic import uniform_rects
        from repro.queries.knn import knn
        from repro.queries.point import PointQueryEngine

        tree = build_prtree(BlockStore(), uniform_rects(500), 16)
        engine = PointQueryEngine(tree)
        reads = {
            "window": tree.query,
            "containment": lambda w: engine.containment_query(w)[0],
            "count": engine.count,
            "point": lambda p: engine.point_query(p)[0],
            "knn": lambda p: knn(tree, p, 3),
        }
        self.check_reads(lambda kind, arg: reads[kind](arg))
        for write in (tree.insert, tree.delete):
            with pytest.raises(ValueError, match=self.message(3)):
                write(self.WIDE, 0)
        assert len(tree) == 500

    @pytest.mark.parametrize("shards", [0, 4])
    def test_paged_tree_and_server(self, tmp_path, shards):
        from repro.datasets.synthetic import uniform_rects
        from repro.server import (
            ContainmentRequest,
            CountRequest,
            KNNRequest,
            PointRequest,
            QueryServer,
            WindowRequest,
        )
        from repro.storage import open_index, pack_tree, shard_pack

        tree = build_prtree(BlockStore(), uniform_rects(500), 16)
        path = tmp_path / ("k.manifest" if shards else "one.pack")
        if shards:
            shard_pack(tree, path, shards=shards)
        else:
            pack_tree(tree, path)
        requests = {
            "window": WindowRequest,
            "containment": ContainmentRequest,
            "count": CountRequest,
            "point": PointRequest,
            "knn": lambda p: KNNRequest(p, k=3),
        }
        with open_index(path, values=dict(tree.objects)) as paged:
            self.check_reads(lambda kind, arg: paged.query(arg), ("window",))
            server = QueryServer(paged)
            self.check_reads(
                lambda kind, arg: server.submit([requests[kind](arg)])
                .results[0].value
            )
            for write in (paged.insert, paged.delete):
                with pytest.raises(ValueError, match=self.message(3)):
                    write(self.WIDE, 0)
            assert paged.size == 500
