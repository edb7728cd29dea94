"""Unit tests for ``Neighbors``, the columnar kNN result."""

import math
from collections.abc import Sequence

import pytest

import repro
from repro import queries
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries.knn import KNNEngine, Neighbor, Neighbors, brute_force_knn, knn
from repro.rtree.node import NodeFrame
from repro.storage import PagedTree, pack_tree, shard_pack, open_index
from repro.storage.shard import ShardedKNNEngine

from tests.conftest import random_rects


@pytest.fixture
def entries():
    return list(random_rects(12, seed=3))


@pytest.fixture
def no_rects(monkeypatch):
    """Fail the test if anything asks ``Neighbors`` for a ``Rect``."""

    def refuse(self, i):
        raise AssertionError("a Rect was materialized")

    monkeypatch.setattr(NodeFrame, "rect", refuse)


def two_leaf_result(entries):
    """A hand-built result over two frames, with its expected neighbors."""
    first = NodeFrame.from_entries(True, entries[:7])
    second = NodeFrame.from_entries(True, entries[7:])
    rows = [(first, 4), (second, 0), (first, 1), (second, 3), (first, 6)]
    dist_sq = [0.0, 0.25, 0.25, 2.0, 9.0]
    hits = [
        (d, frame, row, frame.ptrs[row]) for d, (frame, row) in zip(dist_sq, rows)
    ]
    picked = [entries[row + (frame is second) * 7] for frame, row in rows]
    values = [f"v{pointer}" for _, pointer in picked]
    want = [
        Neighbor(math.sqrt(d), rect, value)
        for d, (rect, _), value in zip(dist_sq, picked, values)
    ]
    return Neighbors(hits, values), want, picked


class TestColumns:
    def test_columns_never_build_a_rect(self, entries, no_rects):
        result, want, picked = two_leaf_result(entries)
        assert len(result) == 5
        assert result.distances == (0.0, 0.5, 0.5, math.sqrt(2.0), 3.0)
        assert result.distances == tuple(nb.distance for nb in want)
        assert result.values == tuple(nb.value for nb in want)
        assert result.ids == tuple(pointer for _, pointer in picked)
        assert repr(result) == "Neighbors(5 rows)"
        assert result._built is None

    def test_empty_result(self):
        empty = Neighbors()
        assert len(empty) == 0 and not empty
        assert empty.distances == empty.values == empty.ids == ()
        assert list(empty) == [] and empty == []

    def test_neighbors_are_plain_tuples(self, entries):
        result, want, _ = two_leaf_result(entries)
        for got in result:
            assert type(got) is Neighbor
            assert type(got.distance) is float
            assert all(type(c) is float for c in got.rect.lo + got.rect.hi)


class TestSequenceContract:
    def test_is_a_sequence_and_exported(self):
        assert issubclass(Neighbors, Sequence)
        assert repro.Neighbors is queries.Neighbors is Neighbors

    def test_len_index_slice(self, entries):
        result, want, _ = two_leaf_result(entries)
        assert len(result) == len(want)
        assert result[0] == want[0]
        assert result[-1] == want[-1]
        assert result[1:4] == want[1:4]
        assert result[::-1] == want[::-1]
        assert result[1].distance == 0.5 and result[1].value == want[1].value
        with pytest.raises(IndexError):
            result[5]

    def test_iteration_membership_and_search(self, entries):
        result, want, _ = two_leaf_result(entries)
        assert list(result) == want
        assert list(reversed(result)) == want[::-1]
        assert want[2] in result
        assert Neighbor(0.0, Rect((9, 9), (10, 10)), "nope") not in result
        assert result.index(want[3]) == 3
        assert result.count(want[3]) == 1
        assert [nb.value for nb in result] == [nb.value for nb in want]

    def test_equality_both_ways(self, entries):
        result, want, _ = two_leaf_result(entries)
        assert result == want and want == result
        assert result == tuple(want)
        assert not (result != want) and not (want != result)
        assert result != want[:-1] and want[:-1] != result
        assert result != want[::-1]
        again, _, _ = two_leaf_result(entries)
        assert result == again
        assert result != 5 and result != "abcde"
        with pytest.raises(TypeError):
            hash(result)

    def test_neighbors_are_built_once(self, entries):
        result, _, _ = two_leaf_result(entries)
        assert list(result)[0] is result[0] is next(iter(result))

    def test_no_mutating_method(self, entries):
        result, want, _ = two_leaf_result(entries)
        for name in ("append", "extend", "insert", "pop", "remove", "sort",
                     "clear", "reverse", "__setitem__", "__delitem__",
                     "__iadd__"):
            assert not hasattr(result, name)
        with pytest.raises(AttributeError):
            result.values = ()
        head = result[:2]
        head.clear()
        assert list(result) == want


class TestEngines:
    """What the engines hand back, in memory, from pages and from a family."""

    @pytest.fixture(scope="class")
    def data(self):
        return random_rects(900, seed=81)

    @pytest.fixture(scope="class")
    def tree(self, data):
        return build_prtree(BlockStore(), data, 16)

    def test_knn_result_reads_as_neighbors(self, tree, data):
        engine = KNNEngine(tree)
        for target in [(0.5, 0.5), (0.1, 0.9), Rect((0.2, 0.2), (0.3, 0.4))]:
            result, stats = engine.knn(target, 25)
            assert type(result) is Neighbors
            assert len(result) == stats.reported == 25
            want = brute_force_knn(data, target, 25)
            assert result.distances == tuple(nb.distance for nb in want)
            assert list(result.distances) == sorted(result.distances)
            # Object ids were handed out in input order by the loader.
            assert result.ids == result.values
            assert [nb.value for nb in result] == list(result.values)
        assert type(knn(tree, (0.5, 0.5), 3)) is Neighbors

    def test_engine_builds_no_rect(self, tree, no_rects):
        result, stats = KNNEngine(tree).knn((0.4, 0.4), 50)
        assert len(result) == len(result.values) == stats.reported == 50
        assert len(result.ids) == len(result.distances) == 50

    def test_nearest_still_yields_neighbors(self, tree):
        engine = KNNEngine(tree)
        streamed = [nb for _, nb in zip(range(10), engine.nearest((0.5, 0.5)))]
        assert all(type(nb) is Neighbor for nb in streamed)
        result, _ = engine.knn((0.5, 0.5), 10)
        assert result == streamed

    def test_values_are_resolved_at_query_time(self, data):
        tree = build_prtree(BlockStore(), data, 16)
        result, _ = KNNEngine(tree).knn((0.5, 0.5), len(data))
        tree.objects.clear()
        assert sorted(result.values) == sorted(v for _, v in data)

    def test_sharded_family_returns_neighbors(self, tree, tmp_path):
        shard_pack(tree, tmp_path / "index.manifest", shards=4, block_size=1024)
        with open_index(
            tmp_path / "index.manifest", values=dict(tree.objects),
            readonly=True,
        ) as family:
            got, stats = ShardedKNNEngine(family).knn((0.5, 0.5), 30)
            assert type(got) is Neighbors
            assert type(family.knn((0.5, 0.5), 30)) is Neighbors
            want, _ = KNNEngine(tree).knn((0.5, 0.5), 30)
            assert got.distances == want.distances
            # Each opened shard stream has reported its pending head.
            assert len(got) == 30 <= stats.reported


class TestSnapshot:
    """A result taken before a write still reads as the pre-write answer."""

    def test_survives_writes_eviction_and_clear_cache(self, tmp_path):
        data = random_rects(600, seed=91)
        tree = build_prtree(BlockStore(), data, 8)
        pack_tree(tree, tmp_path / "snapshot.pack", block_size=512)
        target = (0.4, 0.4)
        want = brute_force_knn(data, target, 40)
        with PagedTree.open(
            tmp_path / "snapshot.pack", values=dict(tree.objects), cache_pages=4
        ) as paged:
            engine = KNNEngine(paged)
            result, _ = engine.knn(target, 40)
            for i in range(12):
                paged.insert(Rect((0.39, 0.39), (0.41, 0.41)), f"new{i}")
            for nb in want[:2]:
                assert paged.delete(nb.rect, nb.value)
            for other in [(0.1, 0.1), (0.9, 0.9), (0.5, 0.2)]:
                engine.knn(other, 40)
            assert paged.page_stats.evictions > 0
            paged.page_store.clear_cache()
            after, _ = KNNEngine(paged).knn(target, 40)
            assert after.values[:12] != result.values[:12]
            # Nothing has been materialized yet: the columns are the snapshot.
            assert result._built is None
            assert result.distances == tuple(nb.distance for nb in want)
            assert [nb.rect for nb in result] == [nb.rect for nb in want]
