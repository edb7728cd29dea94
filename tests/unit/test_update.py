"""Unit tests for dynamic insert/delete (Guttman updates)."""

import random

import pytest

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.rtree.node import Node
from repro.rtree.query import QueryEngine, brute_force_query
from repro.rtree.split import linear_split
from repro.rtree.tree import RTree
from repro.rtree.update import delete, insert
from repro.rtree.validate import validate_rtree

from tests.conftest import assert_same_matches, random_rects, random_windows


def grow_tree(store, data, fanout=8, splitter=None):
    tree = RTree.create_empty(store, dim=2, fanout=fanout)
    for rect, value in data:
        if splitter is None:
            insert(tree, rect, value)
        else:
            insert(tree, rect, value, splitter=splitter)
    return tree


class TestInsert:
    def test_single_insert(self, store):
        tree = RTree.create_empty(store, fanout=8)
        oid = insert(tree, Rect((0, 0), (1, 1)), "a")
        assert len(tree) == 1 and tree.objects[oid] == "a"

    def test_insert_returns_distinct_oids(self, store):
        tree = RTree.create_empty(store, fanout=8)
        oids = [insert(tree, Rect((i, i), (i + 1, i + 1)), i) for i in range(5)]
        assert len(set(oids)) == 5

    def test_root_split_grows_height(self, store):
        tree = RTree.create_empty(store, fanout=4)
        for i in range(5):
            insert(tree, Rect((i, 0), (i + 1, 1)), i)
        assert tree.height == 2

    def test_wrong_dim_raises(self, store):
        tree = RTree.create_empty(store, dim=2, fanout=8)
        with pytest.raises(ValueError):
            insert(tree, Rect((0,), (1,)), "x")

    def test_structure_valid_after_many_inserts(self, store):
        data = random_rects(400, seed=3)
        tree = grow_tree(store, data)
        validate_rtree(tree, expect_size=400, min_node_fill=tree.min_fill)

    def test_linear_splitter_variant(self, store):
        data = random_rects(300, seed=4)
        tree = grow_tree(store, data, splitter=linear_split)
        validate_rtree(tree, expect_size=300, min_node_fill=tree.min_fill)

    def test_queries_correct_after_inserts(self, store):
        data = random_rects(350, seed=5)
        tree = grow_tree(store, data)
        engine = QueryEngine(tree)
        for window in random_windows(20, seed=6):
            got, _ = engine.query(window)
            assert_same_matches(got, brute_force_query(data, window))

    def test_duplicate_rectangles_coexist(self, store):
        tree = RTree.create_empty(store, fanout=4)
        r = Rect((0, 0), (1, 1))
        for i in range(10):
            insert(tree, r, i)
        assert tree.count_query(r) == 10

    def test_insert_costs_ios(self, store):
        tree = RTree.create_empty(store, fanout=8)
        before = store.counters.total
        insert(tree, Rect((0, 0), (1, 1)), "a")
        assert store.counters.total > before


class TestDelete:
    def test_delete_existing(self, store):
        tree = RTree.create_empty(store, fanout=8)
        r = Rect((0, 0), (1, 1))
        insert(tree, r, "a")
        assert delete(tree, r, "a")
        assert len(tree) == 0
        assert tree.query(r) == []

    def test_delete_missing_returns_false(self, store):
        tree = RTree.create_empty(store, fanout=8)
        insert(tree, Rect((0, 0), (1, 1)), "a")
        assert not delete(tree, Rect((0, 0), (1, 1)), "b")
        assert not delete(tree, Rect((5, 5), (6, 6)), "a")
        assert len(tree) == 1

    def test_wrong_dim_raises_and_deletes_nothing(self, store):
        # FindLeaf compares the tree's axes only: unchecked, a 3-d rect
        # deleted the 2-d entry it agreed with on those, and a 1-d rect
        # ran off the end of the query tuple.
        tree = RTree.create_empty(store, dim=2, fanout=8)
        insert(tree, Rect((3, 3), (4, 4)), 3)
        for rect in (Rect((3, 3, 0), (4, 4, 5)), Rect((3,), (4,))):
            with pytest.raises(
                ValueError, match=f"{rect.dim}-d argument against a 2-d index"
            ):
                delete(tree, rect, 3)
        assert len(tree) == 1
        assert [v for _, v in tree.query(Rect((3, 3), (4, 4)))] == [3]

    def test_delete_from_empty_tree(self, store):
        tree = RTree.create_empty(store, fanout=8)
        assert not delete(tree, Rect((0, 0), (1, 1)), "a")

    def test_delete_only_one_of_duplicates(self, store):
        tree = RTree.create_empty(store, fanout=8)
        r = Rect((0, 0), (1, 1))
        insert(tree, r, "same")
        insert(tree, r, "same")
        assert delete(tree, r, "same")
        assert len(tree) == 1

    def test_root_collapses_after_mass_delete(self, store):
        data = random_rects(200, seed=8)
        tree = grow_tree(store, data, fanout=6)
        tall = tree.height
        for rect, value in data[:195]:
            assert delete(tree, rect, value)
        assert tree.height < tall
        validate_rtree(tree, expect_size=5)

    def test_delete_everything(self, store):
        data = random_rects(120, seed=9)
        tree = grow_tree(store, data, fanout=5)
        rng = random.Random(0)
        shuffled = data[:]
        rng.shuffle(shuffled)
        for rect, value in shuffled:
            assert delete(tree, rect, value)
        assert len(tree) == 0 and tree.height == 1

    def test_structure_valid_during_interleaved_ops(self, store):
        rng = random.Random(12)
        tree = RTree.create_empty(store, fanout=6)
        live = []
        for i in range(500):
            if live and rng.random() < 0.4:
                rect, value = live.pop(rng.randrange(len(live)))
                assert delete(tree, rect, value)
            else:
                x, y = rng.random(), rng.random()
                rect = Rect((x, y), (x + 0.02, y + 0.02))
                insert(tree, rect, i)
                live.append((rect, i))
            if i % 100 == 99:
                validate_rtree(tree, expect_size=len(live))
        engine = QueryEngine(tree)
        for window in random_windows(15, seed=13):
            got, _ = engine.query(window)
            assert_same_matches(got, brute_force_query(live, window))

    def test_delete_then_reinsert(self, store):
        data = random_rects(100, seed=14)
        tree = grow_tree(store, data, fanout=5)
        for rect, value in data[:50]:
            delete(tree, rect, value)
        for rect, value in data[:50]:
            insert(tree, rect, value)
        validate_rtree(tree, expect_size=100)
        window = Rect((0.0, 0.0), (1.0, 1.0))
        assert tree.count_query(window) == 100


def _unit_rect(i):
    return Rect((float(i), float(i)), (i + 1.0, i + 1.0))


def _hand_built_tree(store, single_child_subtree=True):
    """A height-3 tree whose root has a minimum-fill subtree A and a
    subtree B with a single child — the shape packed (bulk-loaded)
    files legitimately produce for awkward sizes.  Deleting one entry
    under A dissolves its leaf and A itself, leaving the root with only
    B: the root then collapses *twice*, below the level of A's
    surviving subtree orphans.
    """
    values = {}
    oid = 0

    def mk_leaf(base):
        nonlocal oid
        entries = []
        for j in range(3):
            entries.append((_unit_rect(base + j), oid))
            values[oid] = f"v{oid}"
            oid += 1
        return store.allocate(Node(True, entries)), entries

    a_entries = []
    for base in (0, 10, 20):
        leaf_id, entries = mk_leaf(base)
        a_entries.append((Node(True, entries).mbr(), leaf_id))
    a_id = store.allocate(Node(False, a_entries))

    b_children = [mk_leaf(30)] if single_child_subtree else [
        mk_leaf(30), mk_leaf(40), mk_leaf(50)
    ]
    b_entries = [
        (Node(True, entries).mbr(), leaf_id)
        for leaf_id, entries in b_children
    ]
    b_id = store.allocate(Node(False, b_entries))

    root_id = store.allocate(
        Node(
            False,
            [
                (store.peek(a_id).mbr(), a_id),
                (store.peek(b_id).mbr(), b_id),
            ],
        )
    )
    size = len(values)
    tree = RTree(store, root_id, dim=2, fanout=8, height=3, size=size)
    tree.objects.update(values)
    tree._next_oid = size
    return tree


class TestCondenseRootCollapse:
    """Regression: orphaned *subtree* entries must be reinserted at
    their recorded level before the root collapse can shrink the tree
    below it — the old clamp ``min(entry_level, height - 1)`` grafted
    internal pointers as data entries after a double collapse."""

    def test_double_collapse_with_surviving_subtree_orphans(self, store):
        tree = _hand_built_tree(store)
        validate_rtree(tree, expect_size=12)
        assert delete(tree, _unit_rect(0), "v0")
        validate_rtree(tree, expect_size=11)
        got, _ = QueryEngine(tree).query(Rect((0.0, 0.0), (60.0, 60.0)))
        assert sorted(v for _, v in got) == sorted(
            f"v{i}" for i in range(1, 12)
        )

    def test_single_collapse_still_works(self, store):
        tree = _hand_built_tree(store, single_child_subtree=False)
        validate_rtree(tree, expect_size=18)
        assert delete(tree, _unit_rect(0), "v0")
        validate_rtree(tree, expect_size=17)

    def test_drain_hand_built_tree_completely(self, store):
        tree = _hand_built_tree(store)
        while tree.size:
            rect, value = next(tree.all_data())
            assert delete(tree, rect, value)
            validate_rtree(tree, expect_size=tree.size)
        assert tree.height == 1
        assert tree.root().is_leaf

    def test_delete_through_single_child_chain(self, store):
        # root -> internal -> leaf, every node single-entry: deleting
        # the only rectangle must leave a valid empty tree.
        leaf_id = store.allocate(Node(True, [(_unit_rect(0), 0)]))
        mid_id = store.allocate(
            Node(False, [(_unit_rect(0), leaf_id)])
        )
        root_id = store.allocate(
            Node(False, [(_unit_rect(0), mid_id)])
        )
        tree = RTree(store, root_id, dim=2, fanout=8, height=3, size=1)
        tree.objects[0] = "only"
        tree._next_oid = 1
        assert delete(tree, _unit_rect(0), "only")
        assert tree.size == 0
        assert tree.height == 1
        validate_rtree(tree, expect_size=0)
        insert(tree, _unit_rect(5), "again")
        validate_rtree(tree, expect_size=1)


class TestDuplicateEntries:
    """Regression: N identical ``(rect, value)`` pairs are deleted one
    per call, deterministically, with the tree valid after every step."""

    @pytest.mark.parametrize("n", [5, 17, 40])
    def test_insert_n_identical_then_delete_n(self, store, n):
        tree = RTree.create_empty(store, fanout=8)
        rect = Rect((0.2, 0.2), (0.4, 0.4))
        for _ in range(n):
            insert(tree, rect, "dup")
        validate_rtree(tree, expect_size=n)
        for remaining in range(n, 0, -1):
            assert delete(tree, rect, "dup")
            assert tree.size == remaining - 1
            validate_rtree(tree, expect_size=remaining - 1)
        assert not delete(tree, rect, "dup")

    def test_duplicates_interleaved_with_data(self, store):
        rng = random.Random(99)
        tree = RTree.create_empty(store, fanout=6)
        rect = Rect((0.2, 0.2), (0.4, 0.4))
        data = random_rects(80, seed=98)
        for rc, value in data:
            insert(tree, rc, value)
        for _ in range(15):
            insert(tree, rect, "dup")
        plan = ["dup"] * 15 + ["data"] * 80
        rng.shuffle(plan)
        live = list(data)
        dup_left = 15
        for kind in plan:
            if kind == "dup":
                assert delete(tree, rect, "dup")
                dup_left -= 1
            else:
                rc, value = live.pop()
                assert delete(tree, rc, value)
            validate_rtree(tree, expect_size=len(live) + dup_left)

    def test_failed_delete_leaves_bookkeeping_intact(self, store):
        data = random_rects(60, seed=97)
        tree = grow_tree(store, data, fanout=6)
        size_before = tree.size
        objects_before = dict(tree.objects)
        assert not delete(tree, Rect((2, 2), (3, 3)), "missing")
        assert tree.size == size_before
        assert tree.objects == objects_before
