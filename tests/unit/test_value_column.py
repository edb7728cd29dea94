"""The value table and the id column behind every query result.

``RTree.objects`` is an :class:`~repro.rtree.tree.ObjectColumn`: one
object column indexed by object id that behaves as the dict it replaced
and gathers a result's values with one ``take``.  Frame pointers are an
``int64`` column at every stage; a pointer, an id or a value leaves the
index as a plain Python ``int``, never a numpy scalar.
"""

import dataclasses
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk.hilbert import build_hilbert, build_hilbert4
from repro.bulk.str_pack import build_str
from repro.bulk.tgs import build_tgs
from repro.experiments.cli import main
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.iomodel.codec import NodeCodec
from repro.prtree.prtree import build_prtree
from repro.queries import explain
from repro.queries.knn import KNNEngine, Neighbors, brute_force_knn, knn
from repro.rtree.levels import levels_of
from repro.rtree.node import NodeFrame
from repro.rtree.query import Matches, QueryEngine, brute_force_query
from repro.rtree.tree import ObjectColumn
from repro.storage import PagedTree, ShardedTree, open_index, pack_tree
from repro.storage.filestore import StorageError
from repro.storage.shard import shard_pack

from tests.conftest import random_rects, random_windows

LOADERS = {
    "PR": build_prtree,
    "H": build_hilbert,
    "H4": build_hilbert4,
    "TGS": build_tgs,
    "STR": build_str,
}


# ----------------------------------------------------------------------
# ObjectColumn: the dict it replaced, plus take
# ----------------------------------------------------------------------


class TestObjectColumn:
    def test_behaves_as_a_dict(self):
        values = {3: "c", 0: ("a", 1), 7: None, 1: [2]}
        column = ObjectColumn(values)
        assert dict(column) == values and column == values
        assert len(column) == 4 and sorted(column) == [0, 1, 3, 7]
        assert column[0] == ("a", 1) and column[1] == [2]
        assert 7 in column and column[7] is None and column.get(7, "x") is None
        assert 2 not in column and column.get(2) is None
        assert column.get(2, "x") == "x" and column.get(-1, "x") == "x"
        assert "a" not in column and column.get(1.5, "x") == "x"
        with pytest.raises(KeyError):
            column[5]
        assert column.pop(3) == "c" and 3 not in column
        assert column.pop(3, "gone") == "gone"
        del column[0]
        assert dict(column) == {7: None, 1: [2]}
        column.update({9: "i"}, )
        column[100] = "far"
        assert dict(column) == {1: [2], 7: None, 9: "i", 100: "far"}
        column.clear()
        assert len(column) == 0 and dict(column) == {}

    def test_take_is_one_gather_with_none_for_missing(self):
        stored = [object() for _ in range(5)]
        column = ObjectColumn(dict(enumerate(stored)))
        del column[2]
        got = column.take(np.array([4, 0, 2, 4, 5, 10**6], dtype=np.int64))
        assert got[0] is stored[4] and got[1] is stored[0]
        assert got[2] is None and got[3] is stored[4]
        assert got[4:] == [None, None]  # past the end of the column
        assert ObjectColumn().take(np.array([0, 3], dtype=np.int64)) == [
            None, None,
        ]
        assert column.take(np.empty(0, dtype=np.int64)) == []

    def test_grows_one_value_at_a_time(self):
        column = ObjectColumn()
        for oid in range(100):
            column[oid] = ("v", oid)
        assert column.take(np.arange(100)) == [("v", i) for i in range(100)]

    @pytest.mark.parametrize("key", [-1, 1.5, 2.0, "7", None, 2**32, (1,)])
    def test_rejects_a_key_that_is_not_an_object_id(self, key):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            ObjectColumn({0: "a", key: "b"})
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            ObjectColumn()[key] = "b"

    def test_numpy_integer_keys_are_object_ids(self):
        column = ObjectColumn({np.int64(3): "c", np.uint32(1): "a"})
        assert dict(column) == {1: "a", 3: "c"}
        assert all(type(key) is int for key in column)
        assert column.get(np.int64(3)) == "c"


class TestRegisterObjects:
    def test_bulk_registration_is_one_assignment(self):
        tree = build_prtree(BlockStore(), [], 8)
        oids = tree.register_objects(["a", ("b",), None])
        assert oids == range(0, 3)
        assert tree.register_object("d") == 3
        assert dict(tree.objects) == {0: "a", 1: ("b",), 2: None, 3: "d"}

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_every_loader_registers_its_values(self, loader):
        data = [(rect, ("v", i)) for i, (rect, _) in enumerate(random_rects(60))]
        tree = LOADERS[loader](BlockStore(), data, 8)
        assert sorted(tree.objects) == list(range(60))
        assert sorted(tree.all_data(), key=lambda pair: pair[1]) == data


# ----------------------------------------------------------------------
# The pointer column is int64 at every stage
# ----------------------------------------------------------------------


def assert_column(frame):
    assert isinstance(frame.ptrs, np.ndarray) and frame.ptrs.dtype == np.int64
    assert frame.ptrs.shape == (len(frame),)


class TestPointerColumn:
    def test_decode(self):
        codec = NodeCodec(dim=2, block_size=1024)
        entries = [(rect, 7 * i) for i, (rect, _) in enumerate(random_rects(9))]
        for block in (codec.encode(True, entries), codec.encode(False, [])):
            is_leaf, box, ptrs = codec.decode_arrays(block)
            assert_column(NodeFrame(is_leaf, box, ptrs))

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_every_bulk_loader(self, loader):
        tree = LOADERS[loader](BlockStore(), random_rects(300), 8)
        for _, node, _ in tree.iter_nodes():
            assert_column(node.frame())
        for level in levels_of(tree).levels:
            assert level.ptrs == [
                p for frame in level.frames for p in frame.ptrs.tolist()
            ]

    def test_every_edit_and_concat(self):
        entries = [(rect, i) for i, (rect, _) in enumerate(random_rects(6))]
        frame = NodeFrame.from_entries(True, entries)
        rect = entries[0][0]
        edited = [
            frame,
            frame.appended(rect, 99),
            frame.replaced(2, rect, 98),
            frame.without(4),
            frame.take([5, 0, 3]),
            frame.take([]),
            NodeFrame.concat([frame, frame.take([1])]),
            NodeFrame.from_entries(False, []),
            NodeFrame.from_entries(False, []).appended(rect, 4),
        ]
        for result in edited:
            assert_column(result)
        assert edited[1].ptrs.tolist() == [0, 1, 2, 3, 4, 5, 99]
        assert edited[2].ptrs.tolist() == [0, 1, 98, 3, 4, 5]
        assert edited[3].ptrs.tolist() == [0, 1, 2, 3, 5]
        assert edited[4].ptrs.tolist() == [5, 0, 3]
        assert edited[6].ptrs.tolist() == [0, 1, 2, 3, 4, 5, 1]
        assert frame.ptrs.tolist() == [0, 1, 2, 3, 4, 5]  # never edited

    def test_updates_keep_the_column(self):
        tree = build_prtree(BlockStore(), random_rects(80), 6)
        for rect, value in random_rects(60, seed=5):
            tree.insert(rect, value)
        for rect, value in random_rects(80)[:50]:
            assert tree.delete(rect, value)
        for _, node, _ in tree.iter_nodes():
            assert_column(node.frame())


# ----------------------------------------------------------------------
# Plain ints at every edge, on one file and on a K=4 family
# ----------------------------------------------------------------------

DATA = random_rects(400, seed=41)
WINDOWS = random_windows(5, seed=42, side=0.3)


@pytest.fixture(params=[1, 4], ids=["K1", "K4"])
def packed(request, tmp_path):
    """An index of DATA packed as one file (K=1) or a K=4 family, and
    whether it is a family."""
    tree = build_prtree(BlockStore(), DATA, 8)
    if request.param == 1:
        path = tmp_path / "index.pack"
        pack_tree(tree, path, block_size=1024)
    else:
        path = tmp_path / "index.manifest"
        shard_pack(tree, path, shards=4, block_size=1024)
    return path


def plain_ints(items):
    items = list(items)
    assert all(type(item) is int for item in items), {type(i) for i in items}
    return items


def single_trees(index):
    return getattr(index, "shards", [index])


def nearest(index, target, k):
    """``k`` nearest neighbors from one file or a family."""
    if hasattr(index, "shards"):
        return index.knn(target, k)
    return knn(index, target, k)


class TestPlainInts:
    """Values are resolved by a callable here, so a numpy scalar handed
    to the value table would come back out as a value."""

    def test_result_ids_and_values(self, packed):
        with open_index(packed, values=lambda oid: oid) as index:
            seen = 0
            for window in WINDOWS:
                matches = index.query(window)
                assert plain_ints(matches.ids) == plain_ints(matches.values)
                neighbors = nearest(index, window.center(), 25)
                assert plain_ints(neighbors.ids) == plain_ints(neighbors.values)
                seen += len(matches)
            assert seen

    def test_nodes_entries_and_all_data(self, packed):
        with open_index(packed, values=lambda oid: oid) as index:
            for tree in single_trees(index):
                for _, node, _ in tree.iter_nodes():
                    plain_ints(pointer for _, pointer in node.entries)
                    if not node.is_leaf:
                        plain_ints(node.child_ids())
            values = plain_ints(value for _, value in index.all_data())
            assert sorted(values) == list(range(len(DATA)))

    def test_level_table(self, packed):
        with open_index(packed) as index:
            for tree in single_trees(index):
                table = levels_of(tree)
                plain_ints(table.frames)
                for level in table.levels:
                    plain_ints(level.ids)
                    plain_ints(level.ptrs)

    def test_explain_plan_is_json(self, packed):
        with open_index(packed, values=lambda oid: oid) as index:
            for tree in single_trees(index):
                engine = QueryEngine(tree)
                knn = KNNEngine(tree)
                for window in WINDOWS:
                    for eng, run, kind in (
                        (engine, lambda e: e.query(window), "window"),
                        (knn, lambda e: e.knn(window.center(), 9), "knn"),
                    ):
                        recorder = explain.install(eng)
                        _, stats = run(eng)
                        plan = explain.uninstall(eng, recorder, kind, stats)
                        text = json.dumps(dataclasses.asdict(plan))
                        assert json.loads(text)["kind"] == kind

    def test_status_explain(self, packed, capsys):
        assert main(["status", str(packed), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "explain: 8 mixed requests" in out
        assert "np." not in out and "int64" not in out


# ----------------------------------------------------------------------
# Hostile values= maps
# ----------------------------------------------------------------------

HOSTILE_KEYS = st.one_of(
    st.integers(min_value=-5, max_value=400),
    st.just(2**32),
    st.floats(allow_nan=False, min_value=-2, max_value=50),
    st.text(max_size=2),
    st.booleans(),
)


class TestHostileValues:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        family=st.booleans(),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_opens_as_the_dict_oracle_or_raises(
        self, tmp_path_factory, data, family, seed
    ):
        rects = random_rects(60, seed=seed)
        tree = build_prtree(BlockStore(), rects, 6)
        directory = tmp_path_factory.mktemp("hostile")
        if family:
            path = directory / "index.manifest"
            shard_pack(tree, path, shards=4, block_size=512)
        else:
            path = directory / "index.pack"
            pack_tree(tree, path, block_size=512)
        values = data.draw(
            st.dictionaries(HOSTILE_KEYS, st.integers(), max_size=12)
        )
        oracle = dict(values)
        valid = all(
            type(key) in (int, bool) and 0 <= key < 2**32 for key in values
        )
        openers = [ShardedTree.open if family else PagedTree.open, open_index]
        if not valid:
            for opener in openers:
                with pytest.raises(ValueError, match="not an object id"):
                    opener(path, values=values)
            return
        for opener in openers:
            with opener(path, values=values) as index:
                for window in random_windows(4, seed=seed):
                    got = index.query(window)
                    want = [
                        (rect, oracle.get(oid))
                        for (rect, _), oid in zip(got, got.ids)
                    ]
                    assert list(got) == want
                    assert sorted(got.ids) == sorted(
                        oid for oid, (rect, _) in enumerate(rects)
                        if rect.intersects(window)
                    )
                    near = nearest(index, window.center(), 7)
                    assert list(near.values) == [oracle.get(i) for i in near.ids]
        assert values == oracle  # the caller's dict is never touched

    def test_callable_values_keep_the_writable_check(self, tmp_path):
        path = tmp_path / "index.pack"
        pack_tree(build_prtree(BlockStore(), random_rects(20), 6), path)
        with PagedTree.open(path, values=lambda oid: oid) as paged:
            with pytest.raises(StorageError, match="supplied as a callable"):
                paged.insert(Rect((0, 0), (1, 1)), 1)
        with PagedTree.open(path, values={0: "a"}) as paged:
            assert paged.insert(Rect((0, 0), (1, 1)), "x") == 20
            assert paged.objects[20] == "x" and paged.objects[0] == "a"


# ----------------------------------------------------------------------
# Result equality and kNN distances
# ----------------------------------------------------------------------


class TestEqualityAndDistances:
    def test_unequal_lengths_build_no_pair(self, monkeypatch):
        tree = build_prtree(BlockStore(), DATA, 8)
        matches = QueryEngine(tree).query(WINDOWS[0])[0]
        neighbors = KNNEngine(tree).knn(WINDOWS[0].center(), 5)[0]
        for result in (matches, neighbors):
            monkeypatch.setattr(
                type(result), "_build",
                lambda self: pytest.fail("pairs built for a length mismatch"),
            )
            assert result != list(result._values) + [None]
            assert result != []
            assert not result == [None] * (len(result) + 1)

    def test_equal_lengths_still_compare_pairs(self):
        tree = build_prtree(BlockStore(), DATA, 8)
        matches = QueryEngine(tree).query(WINDOWS[0])[0]
        want = brute_force_query(DATA, WINDOWS[0])
        assert sorted(matches, key=lambda p: p[1]) == sorted(
            want, key=lambda p: p[1]
        )
        assert matches != [(rect, "other") for rect, _ in matches]
        assert Matches(dim=2) == [] and Neighbors() == ()

    @pytest.mark.parametrize("seed", range(4))
    def test_distances_are_bit_identical_to_math_sqrt(self, seed):
        rng = random.Random(seed)
        data = random_rects(300, seed=seed)
        tree = build_prtree(BlockStore(), data, 8)
        target = (rng.uniform(-1, 2), rng.uniform(-1, 2))
        neighbors, _ = KNNEngine(tree).knn(target, 40)
        squared = [hit[0] for hit in neighbors._hits]
        want = tuple(math.sqrt(d) for d in squared)
        assert neighbors.distances == want
        assert all(type(d) is float for d in neighbors.distances)
        assert [n.distance for n in neighbors] == list(want)
        assert list(want) == [
            n.distance for n in brute_force_knn(data, target, 40)
        ]
