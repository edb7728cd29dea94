"""Unit tests for ``Matches``, the columnar query result.

Runs under both kernel backends (the no-numpy CI leg re-executes it with
``REPRO_NO_NUMPY=1``).
"""

from collections.abc import Sequence

import pytest

from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries.base import Matches as reexported_matches
from repro.queries.point import PointQueryEngine
from repro.rtree import query as query_module
from repro.rtree.node import NodeFrame
from repro.rtree.query import Matches, QueryEngine, brute_force_query
from repro.storage import PagedTree, pack_tree

from tests.conftest import random_rects, random_windows


def rows_of(table):
    """A coordinate table as a list of float tuples, either backend."""
    return [tuple(row) for row in kernels.table_tuples(table)]


@pytest.fixture
def entries():
    return list(random_rects(12, seed=3))


@pytest.fixture
def no_rects(monkeypatch):
    """Fail the test if anything asks ``Matches`` for a ``Rect``."""

    def refuse(lo, hi):
        raise AssertionError("a Rect was materialized")

    monkeypatch.setattr(query_module, "rects_of", refuse)


def two_leaf_result(entries):
    """A hand-built result over two frames, with its expected pairs."""
    first = NodeFrame.from_entries(True, entries[:7])
    second = NodeFrame.from_entries(True, entries[7:])
    parts = [(first, [1, 4, 6]), (second, [0, 3])]
    picked = [entries[1], entries[4], entries[6], entries[7], entries[10]]
    values = [f"v{pointer}" for _, pointer in picked]
    want = [(rect, value) for (rect, _), value in zip(picked, values)]
    return Matches(parts, values, dim=2), want, picked


class TestColumns:
    def test_columns_never_build_a_rect(self, entries, no_rects):
        result, want, picked = two_leaf_result(entries)
        assert len(result) == 5
        assert result.values == tuple(value for _, value in want)
        assert result.ids == tuple(pointer for _, pointer in picked)
        assert rows_of(result.lo) == [rect.lo for rect, _ in want]
        assert rows_of(result.hi) == [rect.hi for rect, _ in want]
        assert repr(result) == "Matches(5 rows from 2 leaves)"
        assert result._pairs is None

    def test_tables_have_the_backend_shape(self, entries):
        result, _, _ = two_leaf_result(entries)
        if kernels.HAVE_NUMPY:
            assert result.lo.shape == result.hi.shape == (5, 2)
        else:
            assert isinstance(result.lo, tuple) and len(result.lo) == 5

    def test_empty_result(self):
        empty = Matches(dim=3)
        assert len(empty) == 0 and not empty
        assert empty.values == () and empty.ids == ()
        assert kernels.table_len(empty.lo) == 0
        if kernels.HAVE_NUMPY:
            assert empty.lo.shape == empty.hi.shape == (0, 3)
        assert list(empty) == [] and empty == []

    @pytest.mark.parametrize(
        "rows", [[4], [0, 3, 11], list(range(12)), [11, 2, 7, 2] * 3]
    )
    def test_rows_in_the_order_given(self, entries, rows):
        # Unsorted and repeated rows: the same pairs a row-at-a-time
        # materialization gives, as plain Python floats.
        frame = NodeFrame.from_entries(True, entries)
        values = [f"v{frame.ptrs[i]}" for i in rows]
        got = list(Matches([(frame, rows)], values, dim=2))
        assert got == [(frame.rect(i), v) for i, v in zip(rows, values)]
        for rect, _ in got:
            assert type(rect.lo) is tuple and type(rect.hi) is tuple
            assert all(type(c) is float for c in rect.lo + rect.hi)
            with pytest.raises(AttributeError):
                rect.lo = (0.0, 0.0)


class TestSequenceContract:
    def test_is_a_sequence(self, entries):
        result, want, _ = two_leaf_result(entries)
        assert isinstance(result, Sequence)
        assert reexported_matches is Matches

    def test_len_index_slice(self, entries):
        result, want, _ = two_leaf_result(entries)
        assert len(result) == len(want)
        assert result[0] == want[0]
        assert result[-1] == want[-1]
        assert result[1:4] == want[1:4]
        assert result[::-1] == want[::-1]
        with pytest.raises(IndexError):
            result[5]

    def test_iteration_membership_and_search(self, entries):
        result, want, _ = two_leaf_result(entries)
        assert list(result) == want
        assert list(reversed(result)) == want[::-1]
        assert want[2] in result
        assert (Rect((9, 9), (10, 10)), "nope") not in result
        assert result.index(want[3]) == 3
        assert result.count(want[3]) == 1
        assert sorted(v for _, v in result) == sorted(v for _, v in want)

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

    def test_pairs_are_built_once(self, entries):
        result, _, _ = two_leaf_result(entries)
        assert list(result)[0][0] is result[0][0] is next(iter(result))[0]

    def test_no_mutating_method(self, entries):
        result, want, _ = two_leaf_result(entries)
        for name in ("append", "extend", "insert", "pop", "remove", "sort",
                     "clear", "reverse", "__setitem__", "__delitem__",
                     "__iadd__"):
            assert not hasattr(result, name)
        with pytest.raises(AttributeError):
            result.values = ()
        # A slice is the caller's own list; editing it changes nothing.
        head = result[:2]
        head.clear()
        assert list(result) == want

    def test_concat(self, entries, no_rects):
        result, want, picked = two_leaf_result(entries)
        empty = Matches(dim=2)
        merged = Matches.concat([empty, result, empty, result], dim=2)
        assert len(merged) == 10
        assert merged.values == result.values * 2
        assert merged.ids == result.ids * 2
        assert rows_of(merged.lo) == rows_of(result.lo) * 2
        assert len(Matches.concat([], dim=2)) == 0
        assert Matches.concat([result], dim=2) is result


class TestEngines:
    """What the engines hand back, in memory and from pages."""

    @pytest.fixture(scope="class")
    def data(self):
        return random_rects(900, seed=81)

    @pytest.fixture(scope="class")
    def tree(self, data):
        return build_prtree(BlockStore(), data, 16)

    def test_window_result_reads_as_pairs(self, tree, data):
        engine = QueryEngine(tree)
        for window in random_windows(10, seed=82):
            result, stats = engine.query(window)
            assert isinstance(result, Matches)
            assert len(result) == stats.reported
            want = brute_force_query(data, window)
            assert sorted(result.values) == sorted(v for _, v in want)
            assert sorted(result, key=lambda p: p[1]) == sorted(
                want, key=lambda p: p[1]
            )
            # Object ids were handed out in input order by the loader.
            assert result.ids == result.values
            assert rows_of(result.lo) == [rect.lo for rect, _ in result]
            assert rows_of(result.hi) == [rect.hi for rect, _ in result]

    def test_engines_build_no_rect(self, tree, no_rects):
        window = Rect((0.2, 0.2), (0.6, 0.6))
        result, stats = QueryEngine(tree).query(window)
        batch, _ = QueryEngine(tree).query_batch([window, window])
        point = PointQueryEngine(tree)
        inside, _ = point.containment_query(window)
        stabbed, _ = point.point_query((0.4, 0.4))
        assert len(result) == stats.reported > len(inside) > 0
        assert [len(b) for b in batch] == [len(result)] * 2
        assert tree.query(window).values == result.values
        assert len(stabbed) == len(stabbed.values)

    def test_values_are_resolved_at_query_time(self, data):
        tree = build_prtree(BlockStore(), data, 16)
        window = Rect((0.0, 0.0), (1.0, 1.0))
        result, _ = QueryEngine(tree).query(window)
        tree.objects.clear()
        assert sorted(result.values) == sorted(v for _, v in data)


class TestSnapshot:
    """A result taken before a write still reads as the pre-write answer."""

    WINDOW = Rect((0.3, 0.3), (0.5, 0.5))

    @pytest.fixture
    def paged(self, tmp_path):
        data = random_rects(600, seed=91)
        tree = build_prtree(BlockStore(), data, 8)
        path = tmp_path / "snapshot.pack"
        pack_tree(tree, path, block_size=512)
        with PagedTree.open(
            path, values=dict(tree.objects), cache_pages=4
        ) as opened:
            yield opened, data

    def test_survives_writes_eviction_and_clear_cache(self, paged):
        tree, data = paged
        engine = QueryEngine(tree)
        want = brute_force_query(data, self.WINDOW)
        result, _ = engine.query(self.WINDOW)
        assert len(result) == len(want) > 0
        # Insert into a leaf the result reads from until it splits
        # (packed leaves are full, so the first insert already does),
        # then delete two of the reported rectangles.
        leaves_before = tree.leaf_count()
        inside = Rect((0.39, 0.39), (0.41, 0.41))
        for i in range(12):
            tree.insert(inside, f"new{i}")
        assert tree.leaf_count() > leaves_before
        for rect, value in want[:2]:
            assert tree.delete(rect, value)
        # Evict every page the result came from, then go fully cold.
        for window in random_windows(12, seed=92):
            engine.query(window)
        assert tree.page_stats.evictions > 0
        tree.page_store.clear_cache()
        tree.sync()
        after, _ = QueryEngine(tree).query(self.WINDOW)
        assert len(after) == len(want) + 12 - 2
        # Nothing has been materialized yet: the columns are the snapshot.
        assert result._pairs is None
        assert sorted(result, key=lambda p: p[1]) == sorted(
            want, key=lambda p: p[1]
        )
        assert sorted(result.values) == sorted(v for _, v in want)

    def test_survives_in_memory_writes(self):
        data = random_rects(300, seed=93)
        tree = build_prtree(BlockStore(), data, 8)
        want = brute_force_query(data, self.WINDOW)
        result, _ = QueryEngine(tree).query(self.WINDOW)
        for i in range(10):
            tree.insert(Rect((0.39, 0.39), (0.41, 0.41)), f"new{i}")
        for rect, value in want[:3]:
            assert tree.delete(rect, value)
        assert sorted(result, key=lambda p: p[1]) == sorted(
            want, key=lambda p: p[1]
        )
