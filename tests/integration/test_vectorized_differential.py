"""Differential suite: vectorized kernels vs the pre-refactor scalar path.

The array-native read path (structure-of-arrays ``NodeFrame`` +
:mod:`repro.geometry.kernels`) must be a pure representation change:
**bit-identical results** (same matches, same order, same floats) and
**identical logical I/O** (same ``QueryStats``/``JoinStats``, same page
traffic) as the historical entry-at-a-time engines.

The oracles below are verbatim copies of the pre-refactor per-entry
traversal code — ``Rect`` method calls over ``node.entries`` — over
``DFSOracleEngine``'s ``_read`` (``tests/dfs_oracle.py``: the per-engine
LRU pool the engines counted I/O through before the level descent).  Every engine (window, point,
containment, count, kNN, join, window batches) is compared across every
tree variant, plus a tight-cache :class:`~repro.storage.PagedTree` where
the comparison extends to the physical
:class:`~repro.storage.paged.PageCacheStats`.
"""

import heapq
import math
import random
import tempfile
import pathlib

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from repro.bulk.hilbert import build_hilbert, build_hilbert4
from repro.bulk.str_pack import build_str
from repro.bulk.tgs import build_tgs
from repro.geometry import kernels
from repro.geometry.rect import Rect, mbr_of
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries.join import JoinStats, SpatialJoinEngine
from repro.queries.knn import KNNEngine, Neighbor, target_dist_sq as _dist_sq
from repro.queries.point import PointQueryEngine
from repro.rtree.node import Node
from repro.rtree.query import QueryEngine, QueryStats
from repro.rtree.tree import RTree
from repro.rtree.update import _choose_subtree
from repro.rtree.query import TraversalEngine
from repro.server import QueryServer, WindowRequest
from tests import lohi_kernels
from tests.dfs_oracle import DFSOracleEngine
from repro.storage import PagedTree, pack_tree

from tests.conftest import matches_of, random_rects, random_windows

ALL_BUILDERS = [build_hilbert, build_hilbert4, build_tgs, build_str, build_prtree]
BUILDER_IDS = ["H", "H4", "TGS", "STR", "PR"]

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def rect_datasets(draw, dim=2, max_size=60):
    n = draw(st.integers(min_value=0, max_value=max_size))
    data = []
    for i in range(n):
        lo = [draw(unit) for _ in range(dim)]
        hi = [min(1.0, c + draw(st.floats(min_value=0.0, max_value=0.3))) for c in lo]
        data.append((Rect(lo, hi), i))
    return data


@st.composite
def windows(draw, dim=2):
    lo = [draw(unit) for _ in range(dim)]
    hi = [min(1.0, c + draw(st.floats(min_value=0.0, max_value=0.6))) for c in lo]
    return Rect(lo, hi)


# ----------------------------------------------------------------------
# Scalar oracles: the pre-refactor per-entry engines, copied verbatim.
# ----------------------------------------------------------------------


class ScalarWindowEngine(DFSOracleEngine):
    """The historical entry-at-a-time window query."""

    def query(self, window):
        tree = self.tree
        stats = QueryStats(queries=1)
        matches = []
        stack = [tree.root_id]
        while stack:
            node = self._read(stack.pop(), stats)
            if node.is_leaf:
                for rect, pointer in node.entries:
                    if rect.intersects(window):
                        matches.append((rect, tree.objects.get(pointer)))
                        stats.reported += 1
            else:
                for rect, pointer in node.entries:
                    if rect.intersects(window):
                        stack.append(pointer)
        self.totals.merge(stats)
        return matches, stats


class ScalarPointEngine(DFSOracleEngine):
    """The historical per-entry point / containment / count queries."""

    def point_query(self, point):
        point = tuple(float(c) for c in point)
        return self._run(
            descend=lambda rect: rect.contains_point(point),
            report=lambda rect: rect.contains_point(point),
        )

    def containment_query(self, window):
        return self._run(
            descend=lambda rect: rect.intersects(window),
            report=lambda rect: window.contains_rect(rect),
        )

    def count(self, window):
        _, stats = self._run(
            descend=lambda rect: rect.intersects(window),
            report=lambda rect: rect.intersects(window),
            materialize=False,
        )
        return stats.reported, stats

    def _run(self, descend, report, materialize=True):
        tree = self.tree
        stats = QueryStats(queries=1)
        matches = []
        stack = [tree.root_id]
        while stack:
            node = self._read(stack.pop(), stats)
            if node.is_leaf:
                for rect, pointer in node.entries:
                    if report(rect):
                        stats.reported += 1
                        if materialize:
                            matches.append((rect, tree.objects.get(pointer)))
            else:
                for rect, pointer in node.entries:
                    if descend(rect):
                        stack.append(pointer)
        self.totals.merge(stats)
        return matches, stats


_NODE, _DATA = 0, 1


class ScalarKNNEngine(DFSOracleEngine):
    """The historical best-first kNN over entry tuples."""

    def knn(self, target, k):
        self.totals.queries += 1
        neighbors = []
        heap = [(0.0, 0, _NODE, self.tree.root_id)]
        counter = 0
        while heap and len(neighbors) < k:
            dist_sq, _, kind, payload = heapq.heappop(heap)
            if kind == _DATA:
                rect, pointer = payload
                self.totals.reported += 1
                neighbors.append(
                    Neighbor(
                        math.sqrt(dist_sq),
                        rect,
                        self.tree.objects.get(pointer),
                    )
                )
                continue
            node = self._read(payload, self.totals)
            kind = _DATA if node.is_leaf else _NODE
            for rect, pointer in node.entries:
                counter += 1
                payload = (rect, pointer) if node.is_leaf else pointer
                heapq.heappush(
                    heap, (_dist_sq(rect, target), counter, kind, payload)
                )
        return neighbors


class ScalarJoinEngine:
    """The synchronized join entry by entry: a nested loop of
    ``Rect.intersects`` per node pair, in the engine's documented order
    — an internal pair's left rows ascending, each left child read once
    and joined with its right partners ascending; a leaf pair's pairs
    row-major."""

    def __init__(self, left, right):
        self._left = DFSOracleEngine(left)
        self._right = DFSOracleEngine(right)
        self.totals = JoinStats()

    def join(self):
        out = []
        stats = JoinStats(joins=1)
        left_root_id = self._left.tree.root_id
        right_root_id = self._right.tree.root_id
        left_root = self._left._read(left_root_id, stats.left)
        right_root = self._right._read(right_root_id, stats.right)
        if left_root.entries and right_root.entries:
            if left_root.mbr().intersects(right_root.mbr()):
                self._join_pair(
                    left_root_id, left_root, right_root_id, right_root,
                    out, stats,
                )
        self.totals.merge(stats)
        return out, stats

    def _join_pair(self, id_a, node_a, id_b, node_b, out, stats):
        stats.node_pairs += 1
        if node_a.is_leaf and node_b.is_leaf:
            left_objects = self._left.tree.objects
            right_objects = self._right.tree.objects
            for rect_a, ptr_a in node_a.entries:
                for rect_b, ptr_b in node_b.entries:
                    if rect_a.intersects(rect_b):
                        stats.pairs += 1
                        out.append(
                            (
                                (rect_a, left_objects.get(ptr_a)),
                                (rect_b, right_objects.get(ptr_b)),
                            )
                        )
        elif node_a.is_leaf:
            mbr_a = node_a.mbr()
            for rect, child_id in node_b.entries:
                if rect.intersects(mbr_a):
                    child = self._right._read(child_id, stats.right)
                    self._join_pair(id_a, node_a, child_id, child, out, stats)
        elif node_b.is_leaf:
            mbr_b = node_b.mbr()
            for rect, child_id in node_a.entries:
                if rect.intersects(mbr_b):
                    child = self._left._read(child_id, stats.left)
                    self._join_pair(child_id, child, id_b, node_b, out, stats)
        else:
            for rect_a, child_a_id in node_a.entries:
                partners = [
                    child_b_id
                    for rect_b, child_b_id in node_b.entries
                    if rect_a.intersects(rect_b)
                ]
                if not partners:
                    continue
                child_a = self._left._read(child_a_id, stats.left)
                for child_b_id in partners:
                    child_b = self._right._read(child_b_id, stats.right)
                    self._join_pair(
                        child_a_id, child_a, child_b_id, child_b, out, stats
                    )


def build_all(data, fanout):
    return [
        (name, builder(BlockStore(), data, fanout))
        for builder, name in zip(ALL_BUILDERS, BUILDER_IDS)
    ]


# ----------------------------------------------------------------------
# The differential sweeps
# ----------------------------------------------------------------------


class TestWindowDifferential:
    @settings(max_examples=25, deadline=None)
    @given(rect_datasets(), windows(), st.integers(min_value=2, max_value=9))
    def test_window_query_identical(self, data, window, fanout):
        for name, tree in build_all(data, fanout):
            got_m, got_s = QueryEngine(tree).query(window)
            want_m, want_s = ScalarWindowEngine(tree).query(window)
            assert got_m == want_m, f"{name}: matches differ"
            assert got_s == want_s, f"{name}: logical I/O differs"

    @settings(max_examples=10, deadline=None)
    @given(rect_datasets(dim=3, max_size=40), windows(dim=3))
    def test_window_query_identical_3d(self, data, window):
        for name, tree in build_all(data, 4):
            got_m, got_s = QueryEngine(tree).query(window)
            want_m, want_s = ScalarWindowEngine(tree).query(window)
            assert (got_m, got_s) == (want_m, want_s), name


class TestPointDifferential:
    @settings(max_examples=20, deadline=None)
    @given(
        rect_datasets(),
        st.tuples(unit, unit),
        st.integers(min_value=2, max_value=9),
    )
    def test_point_query_identical(self, data, point, fanout):
        for name, tree in build_all(data, fanout):
            got = PointQueryEngine(tree).point_query(point)
            want = ScalarPointEngine(tree).point_query(point)
            assert got == want, name

    @settings(max_examples=20, deadline=None)
    @given(rect_datasets(), windows(), st.integers(min_value=2, max_value=9))
    def test_containment_and_count_identical(self, data, window, fanout):
        for name, tree in build_all(data, fanout):
            engine = PointQueryEngine(tree)
            oracle = ScalarPointEngine(tree)
            assert engine.containment_query(window) == oracle.containment_query(
                window
            ), name
            # Fresh engines: the shared internal pools must not leak
            # state between the two operators under comparison.
            got_n, got_s = PointQueryEngine(tree).count(window)
            want_n, want_s = ScalarPointEngine(tree).count(window)
            assert (got_n, got_s) == (want_n, want_s), name


class TestKNNDifferential:
    @settings(max_examples=20, deadline=None)
    @given(
        rect_datasets(max_size=50),
        st.tuples(unit, unit),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=2, max_value=9),
    )
    def test_knn_point_target_identical(self, data, point, k, fanout):
        for name, tree in build_all(data, fanout):
            engine = KNNEngine(tree)
            got, _ = engine.knn(point, k)
            oracle = ScalarKNNEngine(tree)
            want = oracle.knn(point, k)
            assert got == want, f"{name}: neighbors differ"
            assert engine.totals == oracle.totals, f"{name}: I/O differs"

    @settings(max_examples=15, deadline=None)
    @given(
        rect_datasets(max_size=40),
        windows(),
        st.integers(min_value=1, max_value=8),
    )
    def test_knn_rect_target_identical(self, data, target, k):
        for name, tree in build_all(data, 5):
            engine = KNNEngine(tree)
            got, _ = engine.knn(target, k)
            oracle = ScalarKNNEngine(tree)
            want = oracle.knn(target, k)
            assert got == want, name
            assert engine.totals == oracle.totals, name


class TestJoinDifferential:
    @settings(max_examples=15, deadline=None)
    @given(
        rect_datasets(max_size=40),
        rect_datasets(max_size=40),
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=2, max_value=7),
    )
    def test_join_identical(self, left_data, right_data, fan_l, fan_r):
        left = build_prtree(BlockStore(), left_data, fan_l)
        right = build_hilbert(BlockStore(), right_data, fan_r)
        got_pairs, got_stats = SpatialJoinEngine(left, right).join()
        want_pairs, want_stats = ScalarJoinEngine(left, right).join()
        assert got_pairs == want_pairs
        assert got_stats == want_stats

    @settings(max_examples=15, deadline=None)
    @given(rect_datasets(max_size=40), rect_datasets(max_size=40))
    def test_pair_count_identical(self, left_data, right_data):
        left = build_tgs(BlockStore(), left_data, 4)
        right = build_str(BlockStore(), right_data, 6)
        got_pairs, got_stats = SpatialJoinEngine(left, right).join()
        want_pairs, want_stats = ScalarJoinEngine(left, right).join()
        assert len(got_pairs) == got_stats.pairs == len(want_pairs)
        assert got_stats == want_stats

    @settings(max_examples=10, deadline=None)
    @given(rect_datasets(max_size=30))
    def test_self_join_identical(self, data):
        tree = build_prtree(BlockStore(), data, 4)
        got_pairs, got_stats = SpatialJoinEngine(tree, tree).join()
        want_pairs, want_stats = ScalarJoinEngine(tree, tree).join()
        assert got_pairs == want_pairs
        assert got_stats == want_stats


class TestStoreLevelIO:
    @settings(max_examples=10, deadline=None)
    @given(rect_datasets(max_size=50), windows())
    def test_logical_store_reads_identical(self, data, window):
        for name, tree in build_all(data, 5):
            counters = tree.store.counters
            before = counters.reads
            QueryEngine(tree).query(window)
            vector_reads = counters.reads - before
            before = counters.reads
            ScalarWindowEngine(tree).query(window)
            scalar_reads = counters.reads - before
            assert vector_reads == scalar_reads, name


class TestPagedTreeDifferential:
    """Tight-cache paged trees: logical stats AND physical page traffic."""

    @pytest.fixture(scope="class")
    def packed(self, tmp_path_factory):
        data = random_rects(700, seed=51)
        tree = build_prtree(BlockStore(), data, 16)
        path = tmp_path_factory.mktemp("diff") / "index.pack"
        pack_tree(tree, path, block_size=1024)
        return path, dict(tree.objects)

    def _compare_workload(self, packed, run_vector, run_scalar):
        path, values = packed
        # Two independent handles: each side gets its own page cache so
        # the physical hit/miss/eviction sequences are comparable.
        with PagedTree.open(
            path, values=values, cache_pages=4, readonly=True
        ) as vec_tree, PagedTree.open(
            path, values=values, cache_pages=4, readonly=True
        ) as sca_tree:
            got = run_vector(vec_tree)
            want = run_scalar(sca_tree)
            assert got == want
            assert vec_tree.page_stats == sca_tree.page_stats

    def test_window_workload(self, packed):
        queries = random_windows(15, seed=52)

        def vector(tree):
            engine = QueryEngine(tree, cache_internal=False)
            return [engine.query(w) for w in queries]

        def scalar(tree):
            engine = ScalarWindowEngine(tree, cache_internal=False)
            return [engine.query(w) for w in queries]

        self._compare_workload(packed, vector, scalar)

    def test_mixed_operator_workload(self, packed):
        queries = random_windows(6, seed=53)
        points = [(w.lo[0], w.lo[1]) for w in queries]

        def vector(tree):
            engine = PointQueryEngine(tree, cache_internal=False)
            out = [engine.point_query(p) for p in points]
            out += [engine.containment_query(w) for w in queries]
            out += [engine.count(w) for w in queries]
            knn_engine = KNNEngine(tree, cache_internal=False)
            out += [knn_engine.knn(p, 5) for p in points]
            return out

        def scalar(tree):
            engine = ScalarPointEngine(tree, cache_internal=False)
            out = [engine.point_query(p) for p in points]
            out += [engine.containment_query(w) for w in queries]
            out += [engine.count(w) for w in queries]
            knn_engine = ScalarKNNEngine(tree, cache_internal=False)
            out += [(knn_engine.knn(p, 5), None) for p in points]
            return out

        # kNN return shapes differ between engine and oracle; compare
        # neighbor lists separately below instead of via _compare_workload.
        path, values = packed
        with PagedTree.open(
            path, values=values, cache_pages=4, readonly=True
        ) as vec_tree, PagedTree.open(
            path, values=values, cache_pages=4, readonly=True
        ) as sca_tree:
            engine = PointQueryEngine(vec_tree, cache_internal=False)
            oracle = ScalarPointEngine(sca_tree, cache_internal=False)
            for p in points:
                assert engine.point_query(p) == oracle.point_query(p)
            for w in queries:
                assert engine.containment_query(w) == oracle.containment_query(w)
                assert engine.count(w) == oracle.count(w)
            knn_engine = KNNEngine(vec_tree, cache_internal=False)
            knn_oracle = ScalarKNNEngine(sca_tree, cache_internal=False)
            for p in points:
                got, _ = knn_engine.knn(p, 5)
                assert got == knn_oracle.knn(p, 5)
            assert knn_engine.totals == knn_oracle.totals
            assert vec_tree.page_stats == sca_tree.page_stats

    def test_batch_workload(self, packed):
        # One server batch of windows runs in arrival order: each answer
        # and the physical page traffic equal solo scalar queries.
        queries = random_windows(10, seed=54)
        path, values = packed
        with PagedTree.open(
            path, values=values, cache_pages=4, readonly=True
        ) as vec_tree, PagedTree.open(
            path, values=values, cache_pages=4, readonly=True
        ) as sca_tree:
            report = QueryServer(vec_tree).submit(
                [WindowRequest(w) for w in queries]
            )
            oracle = ScalarWindowEngine(sca_tree)
            for window, result in zip(queries, report.results):
                want_m, want_s = oracle.query(window)
                assert result.value == want_m
                assert result.stats.leaf_reads == want_s.leaf_reads
                assert result.stats.reported == want_s.reported
            assert vec_tree.page_stats == sca_tree.page_stats


# ----------------------------------------------------------------------
# Write path: Guttman insert/delete on whole-node kernels vs the
# pre-refactor entry-at-a-time code.
#
# The oracles are verbatim copies of ``rtree/update.py`` and
# ``rtree/split.py::quadratic_split`` as they stood before the write
# path moved onto frames (``Rect`` calls over ``node.entries``, scalar
# ``mbr_of`` boxes, ``path + [...]`` per pushed child), with one
# deliberate difference shared by every implementation: PickSeeds
# starts from ``-inf`` instead of ``-1.0``.
#
# ``Node`` no longer keeps a mutable entry list, so the oracles edit a
# :class:`ListNode` instead: ``read_node`` hands out a list-backed copy
# of a counted read and ``write_node`` packs it back into a ``Node`` at
# the counted write.  Nothing else about the oracles changed.
# ----------------------------------------------------------------------


class ListNode:
    """A node whose geometry is a mutable ``(Rect, pointer)`` list."""

    def __init__(self, is_leaf, entries=None):
        self.is_leaf = is_leaf
        self.entries = list(entries if entries is not None else ())

    def __len__(self):
        return len(self.entries)

    def mbr(self):
        if not self.entries:
            raise ValueError("empty node has no bounding box")
        return mbr_of(rect for rect, _ in self.entries)

    def add(self, rect, pointer):
        self.entries.append((rect, pointer))


def read_node(tree, block_id):
    """A counted read, as a list-backed copy."""
    node = tree.read_node(block_id)
    return ListNode(node.is_leaf, node.entries)


def write_node(tree, block_id, node):
    """A counted write of a list-backed node."""
    tree.write_node(block_id, Node(node.is_leaf, node.entries))


def oracle_mbr(node):
    """``Node.mbr`` as it was: a scalar scan over the entry list."""
    if not node.entries:
        raise ValueError("empty node has no bounding box")
    return mbr_of(rect for rect, _ in node.entries)


def oracle_quadratic_split(entries, min_fill):
    if len(entries) < 2:
        raise ValueError("cannot split fewer than 2 entries")
    if min_fill < 1 or 2 * min_fill > len(entries):
        raise ValueError(
            f"min_fill {min_fill} infeasible for {len(entries)} entries"
        )

    n = len(entries)
    los = [entry[0].lo for entry in entries]
    his = [entry[0].hi for entry in entries]
    areas = [entry[0].area() for entry in entries]

    def union_area(box_lo, box_hi, k):
        acc = 1.0
        for a, b, c, d in zip(box_lo, box_hi, los[k], his[k]):
            acc *= (b if b >= d else d) - (a if a <= c else c)
        return acc

    # PickSeeds: the most wasteful pair.
    worst = float("-inf")
    seed_a = 0
    seed_b = 1
    for i in range(n):
        lo_i, hi_i, area_i = los[i], his[i], areas[i]
        for j in range(i + 1, n):
            waste = union_area(lo_i, hi_i, j) - area_i - areas[j]
            if waste > worst:
                worst = waste
                seed_a, seed_b = i, j

    group_a = [entries[seed_a]]
    group_b = [entries[seed_b]]
    box_a_lo, box_a_hi, box_a_area = los[seed_a], his[seed_a], areas[seed_a]
    box_b_lo, box_b_hi, box_b_area = los[seed_b], his[seed_b], areas[seed_b]
    remaining = [k for k in range(n) if k != seed_a and k != seed_b]
    enl_a = {
        k: union_area(box_a_lo, box_a_hi, k) - box_a_area for k in remaining
    }
    enl_b = {
        k: union_area(box_b_lo, box_b_hi, k) - box_b_area for k in remaining
    }

    while remaining:
        if len(group_a) + len(remaining) <= min_fill:
            group_a.extend(entries[k] for k in remaining)
            break
        if len(group_b) + len(remaining) <= min_fill:
            group_b.extend(entries[k] for k in remaining)
            break
        best_pos = 0
        best_diff = -1.0
        for pos, k in enumerate(remaining):
            diff = abs(enl_a[k] - enl_b[k])
            if diff > best_diff:
                best_diff = diff
                best_pos = pos
        k = remaining.pop(best_pos)
        grow_a = enl_a.pop(k)
        grow_b = enl_b.pop(k)
        if grow_a < grow_b:
            choose_a = True
        elif grow_b < grow_a:
            choose_a = False
        elif box_a_area != box_b_area:
            choose_a = box_a_area < box_b_area
        else:
            choose_a = len(group_a) <= len(group_b)
        if choose_a:
            group_a.append(entries[k])
            new_lo = tuple(
                a if a <= c else c for a, c in zip(box_a_lo, los[k])
            )
            new_hi = tuple(
                b if b >= d else d for b, d in zip(box_a_hi, his[k])
            )
            if new_lo != box_a_lo or new_hi != box_a_hi:
                box_a_lo, box_a_hi = new_lo, new_hi
                box_a_area = 1.0
                for a, b in zip(new_lo, new_hi):
                    box_a_area *= b - a
                for kk in remaining:
                    enl_a[kk] = (
                        union_area(box_a_lo, box_a_hi, kk) - box_a_area
                    )
        else:
            group_b.append(entries[k])
            new_lo = tuple(
                a if a <= c else c for a, c in zip(box_b_lo, los[k])
            )
            new_hi = tuple(
                b if b >= d else d for b, d in zip(box_b_hi, his[k])
            )
            if new_lo != box_b_lo or new_hi != box_b_hi:
                box_b_lo, box_b_hi = new_lo, new_hi
                box_b_area = 1.0
                for a, b in zip(new_lo, new_hi):
                    box_b_area *= b - a
                for kk in remaining:
                    enl_b[kk] = (
                        union_area(box_b_lo, box_b_hi, kk) - box_b_area
                    )
    return group_a, group_b


def oracle_insert(tree, rect, value):
    oid = tree.register_object(value)
    _oracle_insert_at_level(tree, rect, oid, target_level=0)
    tree.size += 1
    return oid


def oracle_choose_subtree(node, rect):
    best_idx = 0
    best_growth = float("inf")
    best_area = float("inf")
    for idx, (box, _) in enumerate(node.entries):
        growth = box.enlargement(rect)
        area = box.area()
        if growth < best_growth or (growth == best_growth and area < best_area):
            best_idx = idx
            best_growth = growth
            best_area = area
    return best_idx


def _oracle_insert_at_level(tree, rect, pointer, target_level):
    path = []
    block_id = tree.root_id
    node = read_node(tree, block_id)
    level = tree.height - 1
    while level > target_level:
        child_idx = oracle_choose_subtree(node, rect)
        path.append((block_id, node, child_idx))
        block_id = node.entries[child_idx][1]
        node = read_node(tree, block_id)
        level -= 1

    node.entries.append((rect, pointer))
    _oracle_propagate_up(tree, path, block_id, node)


def _oracle_propagate_up(tree, path, block_id, node):
    split_sibling = None

    if len(node) > tree.fanout:
        group_a, group_b = oracle_quadratic_split(node.entries, tree.min_fill)
        node.entries = group_a
        sibling = Node(node.is_leaf, group_b)
        sibling_id = tree.store.allocate(sibling)
        split_sibling = (oracle_mbr(sibling), sibling_id)
    write_node(tree, block_id, node)

    child_mbr = oracle_mbr(node)
    child_id = block_id

    for parent_id, parent, child_idx in reversed(path):
        parent.entries[child_idx] = (child_mbr, child_id)
        if split_sibling is not None:
            parent.entries.append(split_sibling)
            split_sibling = None
        if len(parent) > tree.fanout:
            group_a, group_b = oracle_quadratic_split(
                parent.entries, tree.min_fill
            )
            parent.entries = group_a
            sibling = Node(parent.is_leaf, group_b)
            sibling_id = tree.store.allocate(sibling)
            split_sibling = (oracle_mbr(sibling), sibling_id)
        write_node(tree, parent_id, parent)
        child_mbr = oracle_mbr(parent)
        child_id = parent_id

    if split_sibling is not None:
        old_root = tree.store.peek(tree.root_id)
        new_root = Node(
            is_leaf=False,
            entries=[(oracle_mbr(old_root), tree.root_id), split_sibling],
        )
        tree.root_id = tree.store.allocate(new_root)
        tree.height += 1


def oracle_delete(tree, rect, value):
    found = oracle_find_leaf(tree, rect, value)
    if found is None:
        return False
    path, leaf_id, leaf, entry_idx = found
    oid = leaf.entries[entry_idx][1]
    del leaf.entries[entry_idx]
    _oracle_condense_tree(tree, path, leaf_id, leaf)
    tree.objects.pop(oid, None)
    tree.size -= 1
    return True


def oracle_find_leaf(tree, rect, value):
    stack = [(tree.root_id, [])]
    while stack:
        block_id, path = stack.pop()
        node = read_node(tree, block_id)
        if node.is_leaf:
            for idx, (box, oid) in enumerate(node.entries):
                if box == rect and tree.objects.get(oid) == value:
                    return path, block_id, node, idx
        else:
            for child_idx, (box, child_id) in enumerate(node.entries):
                if box.contains_rect(rect):
                    stack.append((child_id, path + [(block_id, node, child_idx)]))
    return None


def _oracle_condense_tree(tree, path, block_id, node):
    orphans = []
    level = 0
    current_id, current = block_id, node

    for parent_id, parent, child_idx in reversed(path):
        if len(current) < tree.min_fill:
            del parent.entries[child_idx]
            if current.entries:
                orphans.append((list(current.entries), level))
            tree.store.free(current_id)
        else:
            parent.entries[child_idx] = (oracle_mbr(current), current_id)
            write_node(tree, current_id, current)
        current_id, current = parent_id, parent
        level += 1

    write_node(tree, current_id, current)

    root = tree.store.peek(tree.root_id)
    if not root.is_leaf and not root.entries:
        tree.store.free(tree.root_id)
        tree.root_id = tree.store.allocate(Node(is_leaf=True))
        tree.height = 1

    for entries, entry_level in orphans:
        for rect, pointer in entries:
            _oracle_reinsert(tree, rect, pointer, entry_level)

    while True:
        root = tree.store.peek(tree.root_id)
        if root.is_leaf or len(root) != 1:
            break
        old_root_id = tree.root_id
        tree.root_id = root.entries[0][1]
        tree.store.free(old_root_id)
        tree.height -= 1


def _oracle_reinsert(tree, rect, pointer, level):
    if level <= tree.height - 1:
        _oracle_insert_at_level(tree, rect, pointer, level)
        return
    node = tree.read_node(pointer)
    children = list(node.entries)
    tree.store.free(pointer)
    for child_rect, child_pointer in children:
        _oracle_reinsert(tree, child_rect, child_pointer, level - 1)


def tree_image(tree):
    """Everything the write path can change, block for block."""
    blocks = {
        block_id: (
            node.is_leaf,
            [(rect.lo, rect.hi, pointer) for rect, pointer in node.entries],
        )
        for block_id, node, _ in tree.iter_nodes()
    }
    return (
        tree.root_id,
        tree.height,
        tree.size,
        blocks,
        dict(tree.objects),
        tree.store.counters.snapshot(),
    )


@st.composite
def update_scripts(draw, dim=2, max_ops=40, scale=1.0):
    """A seed dataset plus a list of insert / delete-the-k-th-live ops.

    A third of the inserted boxes are points drawn from a short list of
    coordinates, so duplicates, zero-area boxes and exact enlargement
    ties all occur; ``scale`` > 1 leaves the unit square, where nested
    boxes waste less than -1.
    """
    grid = [0.0, 0.25 * scale, 0.5 * scale, scale]

    def box():
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            point = [draw(st.sampled_from(grid)) for _ in range(dim)]
            return Rect(point, point)
        lo = [draw(unit) * scale for _ in range(dim)]
        side = st.floats(min_value=0.0, max_value=0.3 * scale)
        return Rect(lo, [c + draw(side) for c in lo])

    data = [(box(), i) for i in range(draw(st.integers(0, 50)))]
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        if draw(st.booleans()):
            ops.append(("insert", box()))
        else:
            ops.append(("delete", draw(st.integers(min_value=0, max_value=10**6))))
    return data, ops


@st.composite
def grid_nodes(draw):
    """An overfull node's boxes on a small integer grid, 1-4 axes, 2-230 rows.

    Coordinates are small integers, so wastes, enlargements and areas
    tie exactly; rows are drawn from a pool that may be far smaller than
    the node, so duplicates are common, and a side of 0 makes zero-area
    boxes.  One drawn seed generates the rows: a 230-row node would
    otherwise cost hypothesis a thousand draws.
    """
    dim = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=2, max_value=230))
    grid = draw(st.integers(min_value=1, max_value=8))
    distinct = draw(st.integers(min_value=1, max_value=n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pool = []
    for _ in range(distinct):
        lo = [rng.randint(0, grid) for _ in range(dim)]
        pool.append(Rect(lo, [c + rng.choice((0, 0, 1, 2)) for c in lo]))
    return [rng.choice(pool) for _ in range(n)]


def run_script(tree, ops, data, do_insert, do_delete):
    """Apply ``ops``; deletes pick the k-th live entry (mod the count)."""
    live = list(data)
    results = []
    for i, (kind, arg) in enumerate(ops):
        if kind == "insert":
            value = 1_000_000 + i
            results.append(do_insert(tree, arg, value))
            live.append((arg, value))
        elif live:
            rect, value = live.pop(arg % len(live))
            results.append(do_delete(tree, rect, value))
    return results


def assert_same_updates(build, data, ops):
    kernel_tree = build()
    oracle_tree = build()
    assert tree_image(kernel_tree) == tree_image(oracle_tree)
    got = run_script(
        kernel_tree, ops, data,
        lambda tree, rect, value: tree.insert(rect, value),
        lambda tree, rect, value: tree.delete(rect, value),
    )
    want = run_script(oracle_tree, ops, data, oracle_insert, oracle_delete)
    assert got == want
    assert tree_image(kernel_tree) == tree_image(oracle_tree)
    return kernel_tree, oracle_tree


class TestUpdateDifferential:
    """Kernel-driven and scalar-oracle trees stay block-for-block equal."""

    @pytest.mark.parametrize("builder", ALL_BUILDERS, ids=BUILDER_IDS)
    @settings(max_examples=25, deadline=None)
    @given(update_scripts(), st.integers(min_value=4, max_value=16))
    def test_update_sequences_identical(self, builder, script, fanout):
        data, ops = script
        assert_same_updates(
            lambda: builder(BlockStore(), data, fanout), data, ops
        )

    @pytest.mark.parametrize("builder", ALL_BUILDERS, ids=BUILDER_IDS)
    @settings(max_examples=10, deadline=None)
    @given(update_scripts(scale=40.0), st.integers(min_value=4, max_value=16))
    def test_outside_the_unit_square(self, builder, script, fanout):
        data, ops = script
        assert_same_updates(
            lambda: builder(BlockStore(), data, fanout), data, ops
        )

    @settings(max_examples=10, deadline=None)
    @given(update_scripts(dim=3), st.integers(min_value=4, max_value=9))
    def test_three_dimensions(self, script, fanout):
        data, ops = script
        assume(data)  # an empty load is 2-d: it cannot take a 3-d insert
        assert_same_updates(
            lambda: build_prtree(BlockStore(), data, fanout), data, ops
        )

    @pytest.mark.parametrize("builder", ALL_BUILDERS, ids=BUILDER_IDS)
    def test_paper_fanout(self, builder):
        """B = 113, enough churn to split and condense at both levels."""
        data = random_rects(1500, seed=61)
        rng = random.Random(62)
        ops = []
        for _ in range(600):
            if rng.random() < 0.5:
                ops.append(("delete", rng.randrange(10**6)))
            else:
                lo = [rng.random() * 0.95, rng.random() * 0.95]
                if rng.random() < 0.3:
                    ops.append(("insert", Rect(lo, lo)))
                else:
                    ops.append(
                        ("insert", Rect(lo, [c + rng.random() * 0.05 for c in lo]))
                    )
        assert_same_updates(
            lambda: builder(BlockStore(), data, 113), data, ops
        )

    def test_grown_from_empty(self):
        data = random_rects(400, seed=63)
        ops = [("insert", rect) for rect, _ in data]
        ops += [("delete", 7 * i) for i in range(350)]
        kernel_tree, _ = assert_same_updates(
            lambda: RTree.create_empty(BlockStore(), dim=2, fanout=6), [], ops
        )
        assert kernel_tree.size == 50


class TestPagedUpdateDifferential:
    """Decoded pages never hold entry lists on the kernel side; the
    oracle materializes them.  Trees, page traffic and the bytes on disk
    must still agree."""

    @pytest.mark.parametrize("cache_pages", [0, 6, 400])
    def test_paged_updates_identical(self, tmp_path, cache_pages):
        data = random_rects(900, seed=64)
        source = build_prtree(BlockStore(), data, 16)
        values = dict(source.objects)
        rng = random.Random(65)
        ops = []
        for _ in range(300):
            if rng.random() < 0.5:
                ops.append(("delete", rng.randrange(10**6)))
            else:
                lo = [rng.random() * 0.95, rng.random() * 0.95]
                ops.append(("insert", Rect(lo, [c + rng.random() * 0.05 for c in lo])))
        images = []
        for name, do_insert, do_delete in (
            ("kernel", lambda t, r, v: t.insert(r, v), lambda t, r, v: t.delete(r, v)),
            ("oracle", oracle_insert, oracle_delete),
        ):
            path = tmp_path / f"{name}.pack"
            pack_tree(source, path, block_size=1024)
            with PagedTree.open(
                path, values=dict(values), cache_pages=cache_pages
            ) as tree:
                results = run_script(tree, ops, data, do_insert, do_delete)
                tree.sync()
                images.append(
                    (results, tree_image(tree), tree.page_stats)
                )
            images[-1] += (path.read_bytes(),)
        assert images[0] == images[1]


class TestWriteKernels:
    """Direct cases for the kernels the write path added."""

    @staticmethod
    def tables(rects):
        dim = rects[0].dim
        return (
            kernels.coord_table([r.lo for r in rects], dim),
            kernels.coord_table([r.hi for r in rects], dim),
        )

    def split_both_ways(self, rects, min_fill):
        entries = [(rect, i) for i, rect in enumerate(rects)]
        want_a, want_b = oracle_quadratic_split(entries, min_fill)
        got_a, got_b = kernels.quadratic_split(*self.tables(rects), min_fill)
        assert got_a == [p for _, p in want_a]
        assert got_b == [p for _, p in want_b]
        return got_a, got_b

    def test_seeds_below_minus_one(self):
        rects = [
            Rect((0, 0), (10, 10)),
            Rect((0, 0), (10, 5)),
            Rect((1, 1), (3, 3)),
            Rect((2, 2), (3, 3)),
        ]
        group_a, group_b = self.split_both_ways(rects, 1)
        assert (group_a[0], group_b[0]) == (0, 3)

    def test_all_duplicates(self):
        rects = [Rect((0.5, 0.5), (0.5, 0.5))] * 9
        group_a, group_b = self.split_both_ways(rects, 3)
        assert (group_a[0], group_b[0]) == (0, 1)
        assert sorted(group_a + group_b) == list(range(9))

    def test_zero_area_lines_and_points(self):
        rects = [Rect((x / 8, 0.0), (x / 8, 1.0)) for x in range(6)]
        rects += [Rect((0.25, y / 4), (0.25, y / 4)) for y in range(5)]
        self.split_both_ways(rects, 4)

    def test_min_fill_absorb_branch(self):
        # One far outlier: everything prefers the big cluster's group,
        # so the outlier's group must absorb the tail to reach min_fill.
        rects = [Rect((x / 100, 0.0), (x / 100 + 0.01, 0.01)) for x in range(9)]
        rects.append(Rect((50.0, 50.0), (51.0, 51.0)))
        group_a, group_b = self.split_both_ways(rects, 5)
        assert len(group_a) >= 5 and len(group_b) >= 5

    def test_three_dimensions(self):
        rects = [rect for rect, _ in random_rects(40, seed=66, dim=3)]
        self.split_both_ways(rects, 16)

    @settings(max_examples=60, deadline=None)
    @given(update_scripts(max_ops=1), st.integers(min_value=1, max_value=20))
    def test_random_nodes(self, script, min_fill):
        rects = [rect for rect, _ in script[0]]
        if len(rects) < 2:
            return
        self.split_both_ways(rects, min(min_fill, len(rects) // 2))

    @settings(max_examples=60, deadline=None)
    @given(update_scripts(max_ops=1), update_scripts(max_ops=1))
    def test_choose_subtree_and_find_rows(self, script, queries):
        rects = [rect for rect, _ in script[0]]
        if not rects:
            return
        node = Node(False, [(rect, i) for i, rect in enumerate(rects)])
        box = kernels.box_of(*self.tables(rects))
        for query, _ in queries[0] + script[0][:5]:
            assert _choose_subtree(node, query) == oracle_choose_subtree(
                node, query
            )
            bound = kernels.box_bound(query.lo, query.hi)
            assert kernels.frame_rows(kernels.LE, box, bound).tolist() == [
                i for i, rect in enumerate(rects) if rect.contains_rect(query)
            ]
            assert kernels.frame_rows(kernels.EQ, box, bound).tolist() == [
                i for i, rect in enumerate(rects) if rect == query
            ]

    def test_choose_subtree_ties_break_on_area_then_order(self):
        # The query lies inside all four boxes: zero enlargement each.
        boxes = [
            Rect((0, 0), (4, 4)),
            Rect((1, 1), (3, 3)),
            Rect((0, 0), (2, 8)),
            Rect((1, 1), (3, 3)),
        ]
        node = Node(False, [(box, i) for i, box in enumerate(boxes)])
        query = Rect((1.5, 1.5), (2, 2))
        assert oracle_choose_subtree(node, query) == 1
        assert _choose_subtree(node, query) == 1

    @seed(20040613)
    @settings(max_examples=150, deadline=None, database=None)
    @given(grid_nodes(), st.data())
    def test_grid_nodes_split_like_the_oracle(self, rects, data):
        # Ties everywhere: PickSeeds' first pair in row-major order,
        # PickNext's first row, growth on several axes at once.
        min_fill = data.draw(st.integers(1, len(rects) // 2), label="min_fill")
        self.split_both_ways(rects, min_fill)

    @seed(20040613)
    @settings(max_examples=150, deadline=None, database=None)
    @given(grid_nodes(), st.data())
    def test_grid_nodes_choose_like_the_oracle(self, rects, data):
        # Queries that equal, sit inside or stick out of a row's box:
        # duplicates tie on growth and area, and the first row wins.
        lo, hi = self.tables(rects)
        node = ListNode(False, [(rect, i) for i, rect in enumerate(rects)])
        for _ in range(8):
            box = data.draw(st.sampled_from(rects), label="row")
            stretch = data.draw(st.integers(-1, 2), label="stretch")
            if stretch < 0:
                query = Rect(box.lo, box.lo)
            else:
                query = Rect(box.lo, [c + stretch for c in box.hi])
            assert kernels.frame_least_enlargement(
                lo, hi, query.lo, query.hi
            ) == oracle_choose_subtree(node, query)


# ----------------------------------------------------------------------
# Bulk loading: the PR-tree build, the Hilbert keys and the pack on
# coordinate tables vs the pre-refactor entry-at-a-time loaders.
#
# The oracles are verbatim copies of the code as it stood before bulk
# loading moved onto tables: ``PseudoPRTree._extract_extreme`` /
# ``_build`` (one ``list.sort`` by ``(corner coordinate, pointer)`` per
# selection) and ``build_prtree``'s stage loop; Skilling's scalar
# ``_axes_to_transpose`` / ``_transpose_to_index``, ``_quantize`` and the
# two per-rectangle key functions; ``pack_leaf_level`` / ``pack_ordered``
# with scalar ``mbr_of`` boxes; ``pack_tree``'s ``codec.encode`` loop;
# ``shard_pack`` with its (key, rect, oid) tuple list.  Boxes are
# compared bit for bit (``-0.0`` is not ``0.0`` on disk).
# ----------------------------------------------------------------------

import json
import struct

from repro.bulk.base import pack_ordered
from repro.geometry import hilbert
from repro.iomodel.codec import NodeCodec
from repro.obs import health
from repro.prtree import pseudo
from repro.prtree.pseudo import PseudoLeaf, PseudoNode, PseudoPRTree
from repro.storage import shard_pack
from repro.storage import paged as paged_module
from repro.storage import shard as shard_module
from repro.storage.filestore import FileBlockStore
from repro.storage.paged import PackStats
from repro.storage.shard import ShardInfo, ShardPackStats


def rect_tables(rects, dim):
    """The ``(lo, hi)`` coordinate tables of ``rects``."""
    return (
        kernels.coord_table([rect.lo for rect in rects], dim),
        kernels.coord_table([rect.hi for rect in rects], dim),
    )


def oracle_snap_to_multiple(value, base, lo, hi):
    snapped = max(base, round(value / base) * base)
    return max(lo, min(hi, snapped))


class OraclePseudoPRTree(PseudoPRTree):
    """The sort-based construction; traversal is inherited."""

    def __init__(self, items, capacity, dim=None, snap_splits=True, priority_size=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        items = list(items)
        if not items:
            raise ValueError("cannot build a pseudo-PR-tree on no items")
        self.capacity = capacity
        self.priority_size = priority_size if priority_size is not None else capacity
        if self.priority_size < 1:
            raise ValueError("priority_size must be >= 1")
        self.dim = dim if dim is not None else items[0][0].dim
        self.snap_splits = snap_splits
        self.size = len(items)
        self.root = self._build(items, depth=0)

    def _extract_extreme(self, items, axis):
        b = self.priority_size
        reverse = axis >= self.dim
        items.sort(key=lambda item: (item[0].corner_coord(axis), item[1]), reverse=reverse)
        return items[:b], items[b:]

    def _build(self, items, depth):
        b = self.capacity
        if len(items) <= b:
            return PseudoLeaf(items, kind="normal")

        axes = 2 * self.dim
        priority_leaves = []
        remaining = items
        for axis in range(axes):
            if not remaining:
                break
            extreme, remaining = self._extract_extreme(remaining, axis)
            priority_leaves.append(PseudoLeaf(extreme, kind=f"priority:{axis}"))

        split_axis = depth % axes
        subtrees = []
        n_rest = len(remaining)
        if n_rest:
            if n_rest <= b:
                subtrees.append(PseudoLeaf(remaining, kind="normal"))
            else:
                remaining.sort(
                    key=lambda item: (item[0].corner_coord(split_axis), item[1])
                )
                half = n_rest // 2
                if self.snap_splits:
                    half = oracle_snap_to_multiple(half, b, 1, n_rest - 1)
                subtrees.append(self._build(remaining[:half], depth + 1))
                subtrees.append(self._build(remaining[half:], depth + 1))
        return PseudoNode(priority_leaves, subtrees, split_axis)


def oracle_build_prtree(store, data, fanout, snap_splits=True, priority_size=None):
    dim = data[0][0].dim if data else 2
    tree = RTree(store, root_id=-1, dim=dim, fanout=fanout, height=1, size=len(data))
    items = [(rect, tree.register_object(value)) for rect, value in data]
    if not items:
        tree.root_id = store.allocate(Node(is_leaf=True))
        return tree

    level_items = items
    is_leaf = True
    height = 1
    while len(level_items) > fanout:
        pseudo_tree = OraclePseudoPRTree(
            level_items,
            capacity=fanout,
            dim=dim,
            snap_splits=snap_splits,
            priority_size=priority_size,
        )
        next_level = []
        for leaf in pseudo_tree.leaves():
            block_id = store.allocate(Node(is_leaf, list(leaf.items)))
            next_level.append((leaf.mbr, block_id))
        level_items = next_level
        is_leaf = False
        height += 1

    tree.root_id = store.allocate(Node(is_leaf, list(level_items)))
    tree.height = height
    return tree


def oracle_axes_to_transpose(coords, order):
    x = list(coords)
    n = len(x)
    m = 1 << (order - 1)
    # Inverse undo excess work.
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[n - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(n):
        x[i] ^= t
    return x


def oracle_transpose_to_index(transposed, order):
    n = len(transposed)
    index = 0
    for bit in range(order - 1, -1, -1):
        for i in range(n):
            index = (index << 1) | ((transposed[i] >> bit) & 1)
    return index


def oracle_hilbert_index(coords, order):
    if order < 1:
        raise ValueError("order must be >= 1")
    limit = 1 << order
    for c in coords:
        if not 0 <= c < limit:
            raise ValueError(
                f"coordinate {c} outside grid [0, {limit}) for order {order}"
            )
    return oracle_transpose_to_index(oracle_axes_to_transpose(coords, order), order)


def oracle_quantize(value, lo, hi, order):
    cells = 1 << order
    if hi <= lo:
        return 0
    cell = int((value - lo) / (hi - lo) * cells)
    if cell < 0:
        return 0
    if cell >= cells:
        return cells - 1
    return cell


def oracle_key_for_center(rect, bounds, order=hilbert.DEFAULT_ORDER):
    side = max(hi - lo for lo, hi in zip(bounds.lo, bounds.hi))
    coords = [
        oracle_quantize(c, lo, lo + side, order)
        for c, lo in zip(rect.center(), bounds.lo)
    ]
    return oracle_hilbert_index(coords, order)


def oracle_key_for_corners(rect, bounds, order=hilbert.DEFAULT_ORDER):
    side = max(hi - lo for lo, hi in zip(bounds.lo, bounds.hi))
    point = rect.corner_point()
    anchors = list(bounds.lo) * 2
    coords = [
        oracle_quantize(c, lo, lo + side, order) for c, lo in zip(point, anchors)
    ]
    return oracle_hilbert_index(coords, order)


def oracle_pack_leaf_level(store, entries, fanout, is_leaf):
    level = []
    for start in range(0, len(entries), fanout):
        chunk = list(entries[start : start + fanout])
        block_id = store.allocate(Node(is_leaf, chunk))
        level.append((mbr_of(r for r, _ in chunk), block_id))
    return level


def oracle_pack_ordered(store, data, fanout, dim=None):
    if dim is None:
        dim = data[0][0].dim if data else 2
    tree = RTree(store, root_id=-1, dim=dim, fanout=fanout, height=1, size=len(data))
    entries = []
    for rect, value in data:
        if rect.dim != dim:
            raise ValueError(f"rect of dim {rect.dim} in a dim-{dim} load")
        entries.append((rect, tree.register_object(value)))

    if not entries:
        tree.root_id = store.allocate(Node(is_leaf=True))
        return tree

    level = oracle_pack_leaf_level(store, entries, fanout, is_leaf=True)
    height = 1
    while len(level) > 1:
        level = oracle_pack_leaf_level(store, level, fanout, is_leaf=False)
        height += 1
    tree.root_id = level[0][1]
    tree.height = height
    return tree


def oracle_build_by_key(store, data, fanout, key):
    if not data:
        return oracle_pack_ordered(store, data, fanout)
    bounds = mbr_of(rect for rect, _ in data)
    decorated = sorted(data, key=lambda item: key(item[0], bounds))
    return oracle_pack_ordered(store, decorated, fanout)


def oracle_build_hilbert(store, data, fanout, order=hilbert.DEFAULT_ORDER):
    return oracle_build_by_key(
        store, data, fanout,
        lambda rect, bounds: oracle_key_for_center(rect, bounds, order),
    )


def oracle_build_hilbert4(store, data, fanout, order=hilbert.DEFAULT_ORDER):
    return oracle_build_by_key(
        store, data, fanout,
        lambda rect, bounds: oracle_key_for_corners(rect, bounds, order),
    )


def oracle_pack_tree(tree, path, block_size):
    codec = NodeCodec(dim=tree.dim, block_size=block_size)
    order = [(bid, node) for bid, node, _ in tree.iter_nodes()]
    index_of = {bid: i for i, (bid, _) in enumerate(order)}
    baseline_blob = health.encode_baseline(
        health.quality_baseline(health.tree_quality(tree))
    )
    meta = struct.pack(
        paged_module._TREE_META,
        paged_module._TREE_MAGIC,
        tree.dim,
        tree.fanout,
        tree.height,
        tree.size,
        index_of[tree.root_id],
        max(tree._next_oid, tree.size),
    ) + baseline_blob
    with FileBlockStore.create(path, block_size, meta=meta) as file_store:
        for _, node in order:
            if node.is_leaf:
                entries = node.entries
            else:
                entries = [
                    (rect, index_of[child]) for rect, child in node.entries
                ]
            file_store.allocate(codec.encode(node.is_leaf, entries))
        n_blocks = file_store.allocated_ever
        file_store.flush()
        file_bytes = file_store.file_bytes()
        commit_epoch = file_store.commit_epoch
        write_ios = file_store.counters.writes
        seq_writes = file_store.counters.seq_writes
    return PackStats(
        n_blocks=n_blocks,
        block_size=block_size,
        file_bytes=file_bytes,
        height=tree.height,
        size=tree.size,
        write_ios=write_ios,
        seq_writes=seq_writes,
        commit_epoch=commit_epoch,
    )


def oracle_pack_preserving_oids(entries, source, next_oid):
    store = BlockStore()
    shard = RTree(
        store,
        root_id=-1,
        dim=source.dim,
        fanout=source.fanout,
        height=1,
        size=len(entries),
    )
    if not entries:
        shard.root_id = store.allocate(Node(is_leaf=True))
    else:
        # A family leaf holds ⌊0.9·B⌋ rows, the levels above B.
        leaf_capacity = (9 * source.fanout) // 10
        level = oracle_pack_leaf_level(store, entries, leaf_capacity, is_leaf=True)
        height = 1
        while len(level) > 1:
            level = oracle_pack_leaf_level(store, level, source.fanout, is_leaf=False)
            height += 1
        shard.root_id = level[0][1]
        shard.height = height
    shard.objects = {oid: source.objects.get(oid) for _, oid in entries}
    shard._next_oid = next_oid
    return shard


def oracle_shard_pack(tree, path, shards, block_size):
    manifest_path = pathlib.Path(path)
    bounds = tree.root().mbr() if tree.root().entries else None

    entries = []
    for _, leaf in tree.iter_leaves():
        for rect, oid in leaf.entries:
            entries.append((oracle_key_for_center(rect, bounds), rect, oid))
    entries.sort(key=lambda item: (item[0], item[2]))

    k = max(1, min(shards, len(entries)))
    next_oid = max(tree._next_oid, tree.size)

    infos = []
    per_shard = []
    shard_qualities = []
    base, extra = divmod(len(entries), k)
    start = 0
    for i in range(k):
        stop = start + base + (1 if i < extra else 0)
        chunk = entries[start:stop]
        start = stop
        file_name = shard_module._shard_file_name(manifest_path, i, k)
        shard_tree = oracle_pack_preserving_oids(
            [(rect, oid) for _, rect, oid in chunk], tree, next_oid
        )
        shard_qualities.append(health.tree_quality(shard_tree))
        stats = oracle_pack_tree(
            shard_tree, manifest_path.with_name(file_name), block_size
        )
        per_shard.append(stats)
        infos.append(
            ShardInfo(
                file=file_name,
                size=len(chunk),
                height=shard_tree.height,
                mbr=mbr_of(rect for _, rect, _ in chunk) if chunk else None,
                n_blocks=stats.n_blocks,
                epoch=stats.commit_epoch,
            )
        )

    shard_module._write_manifest(
        manifest_path,
        dim=tree.dim,
        fanout=tree.fanout,
        block_size=block_size,
        size=len(entries),
        next_oid=next_oid,
        infos=infos,
        health_baseline=health.quality_baseline(
            health.family_quality(shard_qualities)
        ),
    )
    return ShardPackStats(
        manifest=str(manifest_path),
        shards=k,
        size=len(entries),
        per_shard=tuple(per_shard),
    )


# -- data heavy in ties -------------------------------------------------


def tied_boxes(dim=2, scale=1.0):
    """Boxes whose coordinates mostly come off a five-value grid (both
    zeros on it): points, shared edges and exact duplicates abound."""
    on_grid = st.sampled_from([-0.0, 0.0, 0.25 * scale, 0.5 * scale, scale])
    coordinate = st.one_of(on_grid, on_grid, unit.map(lambda c: c * scale))
    extent = st.one_of(
        coordinate.map(lambda c: (c, c)),
        st.tuples(coordinate, coordinate).map(lambda pair: tuple(sorted(pair))),
    )
    return st.lists(extent, min_size=dim, max_size=dim).map(
        lambda axes: Rect([a for a, _ in axes], [b for _, b in axes])
    )


@st.composite
def tied_datasets(draw, dim=2, scale=1.0, max_size=90):
    rects = draw(st.lists(tied_boxes(dim, scale), max_size=max_size))
    if rects:
        again = draw(st.lists(st.integers(0, len(rects) - 1), max_size=20))
        rects += [rects[i] for i in again]
    return [(rect, i) for i, rect in enumerate(rects)]


def grid_dataset(n=4000, cells=30, seed=71):
    """Boxes snapped to a coarse grid: almost every coordinate ties."""
    rng = random.Random(seed)
    data = []
    for i in range(n):
        lo = [rng.randrange(cells) / cells for _ in range(2)]
        hi = [c + rng.randrange(3) / cells for c in lo]
        data.append((Rect(lo, hi), i))
    return data


def exact(rect):
    """A box's coordinates as bytes, so the two zeros differ."""
    return struct.pack(f"<{2 * rect.dim}d", *rect.lo, *rect.hi)


def pseudo_image(tree):
    return (
        [(leaf.items, leaf.kind, exact(leaf.mbr)) for leaf in tree.leaves()],
        [(node.split_axis, exact(node.mbr)) for node in tree.nodes()],
    )


def assert_same_pseudo(items, capacity, **options):
    got = PseudoPRTree(items, capacity, **options)
    want = OraclePseudoPRTree(items, capacity, **options)
    assert pseudo_image(got) == pseudo_image(want)
    return got


def exact_tree_image(tree):
    """``tree_image`` with bit-exact boxes, checked on both node views."""
    blocks = {}
    for block_id, node, _ in tree.iter_nodes():
        frame = node.frame()
        rows = [
            (exact(Rect(lo, hi)), pointer)
            for lo, hi, pointer in zip(
                kernels.table_tuples(frame.lo),
                kernels.table_tuples(frame.hi),
                frame.ptrs,
            )
        ]
        assert rows == [(exact(rect), pointer) for rect, pointer in node.entries]
        blocks[block_id] = (node.is_leaf, rows)
    return (
        tree.root_id,
        tree.height,
        tree.size,
        blocks,
        dict(tree.objects),
        tree.store.counters.snapshot(),
    )


LOADERS = [
    (build_prtree, oracle_build_prtree),
    (build_hilbert, oracle_build_hilbert),
    (build_hilbert4, oracle_build_hilbert4),
]
LOADER_IDS = ["PR", "H", "H4"]


def assert_same_load(build, oracle, data, fanout, **options):
    got = build(BlockStore(), list(data), fanout, **options)
    want = oracle(BlockStore(), list(data), fanout, **options)
    assert exact_tree_image(got) == exact_tree_image(want)
    return got, want


def directory_bytes(directory):
    return {
        path.name: path.read_bytes() for path in sorted(directory.iterdir())
    }


def assert_same_files(got_tree, want_tree, block_size, shards):
    """``pack_tree`` and ``shard_pack`` of the kernel-built tree against
    the oracles' of the oracle-built one: stats and every byte."""
    with tempfile.TemporaryDirectory() as scratch:
        got_dir = pathlib.Path(scratch, "got")
        want_dir = pathlib.Path(scratch, "want")
        got_dir.mkdir()
        want_dir.mkdir()
        assert pack_tree(
            got_tree, got_dir / "index.pack", block_size
        ) == oracle_pack_tree(want_tree, want_dir / "index.pack", block_size)
        got_stats = shard_pack(
            got_tree, got_dir / "index.manifest", shards, block_size
        )
        want_stats = oracle_shard_pack(
            want_tree, want_dir / "index.manifest", shards, block_size
        )
        assert got_stats.per_shard == want_stats.per_shard
        assert (got_stats.shards, got_stats.size) == (
            want_stats.shards, want_stats.size
        )
        assert directory_bytes(got_dir) == directory_bytes(want_dir)


class TestPseudoPRTreeDifferential:
    """Leaf for leaf: items in order, kind, box; node for node: split axis."""

    @settings(max_examples=60, deadline=None)
    @given(
        tied_datasets(),
        st.integers(min_value=4, max_value=16),
        st.booleans(),
    )
    def test_ties_in_the_unit_square(self, data, capacity, snap_splits):
        if data:
            assert_same_pseudo(data, capacity, snap_splits=snap_splits)

    @settings(max_examples=25, deadline=None)
    @given(
        tied_datasets(scale=40.0),
        st.integers(min_value=4, max_value=16),
        st.booleans(),
    )
    def test_ties_outside_the_unit_square(self, data, capacity, snap_splits):
        if data:
            assert_same_pseudo(data, capacity, snap_splits=snap_splits)

    @pytest.mark.parametrize("dim", [1, 3])
    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.integers(min_value=4, max_value=9), st.booleans())
    def test_other_dimensions(self, dim, draw, capacity, snap_splits):
        data = draw.draw(tied_datasets(dim=dim))
        if data:
            assert_same_pseudo(data, capacity, snap_splits=snap_splits)

    @settings(max_examples=25, deadline=None)
    @given(tied_datasets(), st.integers(min_value=4, max_value=16))
    def test_priority_leaves_of_size_one(self, data, capacity):
        if data:
            assert_same_pseudo(data, capacity, priority_size=1)

    @pytest.mark.parametrize("snap_splits", [True, False])
    def test_paper_fanout_on_a_grid(self, snap_splits):
        tree = assert_same_pseudo(grid_dataset(), 113, snap_splits=snap_splits)
        assert sum(1 for _ in tree.nodes()) > 3

    @pytest.mark.parametrize(
        "pointer",
        [lambda i: i % 7, lambda i: f"object-{i:03d}", lambda i: i / 2],
        ids=["repeated", "strings", "floats"],
    )
    def test_pointers_must_be_distinct_integers(self, pointer):
        """Only distinct integers break every tie the way the tuple sort
        does; anything else is rejected before construction starts."""
        rects = [rect for rect, _ in grid_dataset(300, cells=4)]
        items = [(rect, pointer(i)) for i, rect in enumerate(rects)]
        with pytest.raises(ValueError, match="distinct integers"):
            PseudoPRTree(items, 8)

    def test_unsigned_integer_pointers_break_ties(self):
        rects = [rect for rect, _ in grid_dataset(300, cells=4)]
        unsigned = [kernels.np.uint32(300 - i) for i in range(300)]
        assert_same_pseudo(list(zip(rects, unsigned)), 8)

    def test_leaf_nodes_carry_their_frame(self):
        data = grid_dataset(200, cells=6)
        tree = PseudoPRTree(data, 8)
        for leaf in tree.leaves():
            node = leaf.node(is_leaf=True)
            assert node.entries == leaf.items
            assert node.mbr() == leaf.mbr
            assert node.frame().ptrs.tolist() == [
                pointer for _, pointer in leaf.items
            ]


class TestBulkLoadDifferential:
    """``build_prtree`` / ``build_hilbert`` / ``build_hilbert4`` trees
    equal block for block (entries in order, exact boxes, object table,
    ``IOCounters``), and so do the files packed from them."""

    @pytest.mark.parametrize("build, oracle", LOADERS, ids=LOADER_IDS)
    @settings(max_examples=40, deadline=None)
    @given(tied_datasets(), st.integers(min_value=4, max_value=16))
    def test_ties_in_the_unit_square(self, build, oracle, data, fanout):
        assert_same_load(build, oracle, data, fanout)

    @pytest.mark.parametrize("build, oracle", LOADERS, ids=LOADER_IDS)
    @settings(max_examples=15, deadline=None)
    @given(tied_datasets(scale=40.0), st.integers(min_value=4, max_value=16))
    def test_ties_outside_the_unit_square(self, build, oracle, data, fanout):
        assert_same_load(build, oracle, data, fanout)

    @pytest.mark.parametrize("build, oracle", LOADERS, ids=LOADER_IDS)
    @pytest.mark.parametrize("dim", [1, 3])
    @settings(max_examples=15, deadline=None)
    @given(st.data(), st.integers(min_value=4, max_value=9))
    def test_other_dimensions(self, build, oracle, dim, draw, fanout):
        # H4 in 3-d is a 96-bit index: the scalar key route.
        assert_same_load(build, oracle, draw.draw(tied_datasets(dim=dim)), fanout)

    @settings(max_examples=20, deadline=None)
    @given(
        tied_datasets(),
        st.integers(min_value=4, max_value=16),
        st.booleans(),
        st.sampled_from([None, 1, 3]),
    )
    def test_prtree_options(self, data, fanout, snap_splits, priority_size):
        # Singleton priority leaves under a fan-out of 4 or 5 can leave a
        # stage with as many nodes as entries: the stage loop never ends.
        assume(priority_size is None or fanout >= 6)
        assert_same_load(
            build_prtree, oracle_build_prtree, data, fanout,
            snap_splits=snap_splits, priority_size=priority_size,
        )

    @pytest.mark.parametrize("build, oracle", LOADERS, ids=LOADER_IDS)
    def test_paper_fanout(self, build, oracle, tmp_path):
        data = grid_dataset(3000) + random_rects(1500, seed=72)
        data = [(rect, i) for i, (rect, _) in enumerate(data)]
        got, want = assert_same_load(build, oracle, data, 113)
        assert got.height == 2
        assert_same_files(got, want, 4096, shards=4)

    @pytest.mark.parametrize("build, oracle", LOADERS[1:], ids=LOADER_IDS[1:])
    @pytest.mark.parametrize("order", [1, 5, 32])
    def test_hilbert_orders(self, build, oracle, order):
        assert_same_load(build, oracle, grid_dataset(500), 8, order=order)

    @pytest.mark.parametrize("build, oracle", LOADERS, ids=LOADER_IDS)
    @settings(max_examples=12, deadline=None)
    @given(
        tied_datasets(),
        st.integers(min_value=4, max_value=16),
        st.integers(min_value=1, max_value=5),
    )
    def test_packed_files_identical(self, build, oracle, data, fanout, shards):
        got, want = assert_same_load(build, oracle, data, fanout)
        assert_same_files(got, want, 1024, shards)

    def test_packed_files_identical_in_three_dimensions(self):
        data = random_rects(400, seed=73, dim=3)
        got, want = assert_same_load(build_prtree, oracle_build_prtree, data, 9)
        assert_same_files(got, want, 1024, shards=3)

    def test_packing_an_updated_tree(self):
        """Nodes the write path rebuilt hold either view; the packed
        bytes do not depend on which."""
        data = grid_dataset(600, cells=12)
        got, want = assert_same_load(build_prtree, oracle_build_prtree, data, 8)
        for tree in (got, want):
            for rect, value in data[:150]:
                assert tree.delete(rect, value)
            for i, (rect, _) in enumerate(data[:60]):
                tree.insert(rect, 10_000 + i)
        assert_same_files(got, want, 1024, shards=3)

    def test_mixed_dimensions_rejected_up_front(self):
        data = random_rects(50, seed=74) + [(Rect((0, 0, 0), (1, 1, 1)), 50)]
        for build in (build_prtree, build_hilbert, build_hilbert4):
            for fanout in (8, 64):
                store = BlockStore()
                with pytest.raises(ValueError, match="rect of dim 3 in a dim-2 load"):
                    build(store, data, fanout)
                assert store.allocated_ever == 0


class TestHilbertKeyColumns:
    """The key columns against Skilling's scalar transform."""

    @staticmethod
    def grid_tables(points):
        table = kernels.coord_table([tuple(map(float, p)) for p in points], len(points[0]))
        return table, table

    @staticmethod
    def pairs(limit):
        return [
            (dim, order)
            for dim in range(1, limit + 1)
            for order in range(1, limit // dim + 1)
        ]

    def test_every_word_sized_curve(self):
        """Every (dim, order) with ``dim * order <= 64``, on grid points
        (a float holds 53 bits: past that, whatever the float names)."""
        rng = random.Random(75)
        for dim, order in self.pairs(64):
            cells = 1 << order
            points = [[0] * dim, [cells - 1] * dim, [cells] * dim]
            points += [
                [rng.randrange(cells) for _ in range(dim)] for _ in range(12)
            ]
            bounds = Rect([0.0] * dim, [float(cells)] * dim)
            lo, hi = self.grid_tables(points)
            got = hilbert.hilbert_keys_for_centers(lo, hi, bounds, order)
            want = [
                oracle_hilbert_index(
                    [oracle_quantize(float(c), 0.0, float(cells), order) for c in p],
                    order,
                )
                for p in points
            ]
            assert got == want, (dim, order)
            if order <= 53:
                for key, point in zip(got[3:], points[3:]):
                    assert hilbert.hilbert_point(key, dim, order) == tuple(point)

    @pytest.mark.parametrize("dim, order", [(5, 13), (6, 16), (3, 22), (65, 1)])
    def test_wider_curves_take_the_scalar_route(self, dim, order):
        rng = random.Random(76)
        cells = 1 << order
        points = [[rng.randrange(cells) for _ in range(dim)] for _ in range(20)]
        bounds = Rect([0.0] * dim, [float(cells)] * dim)
        lo, hi = self.grid_tables(points)
        got = hilbert.hilbert_keys_for_centers(lo, hi, bounds, order)
        assert got == [oracle_hilbert_index(p, order) for p in points]
        for key, point in zip(got, points):
            assert hilbert.hilbert_point(key, dim, order) == tuple(point)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([1, 3, 10, 16]))
    def test_float_quantization(self, dim, draw, order):
        """Rectangles inside, on and outside arbitrary bounds (clamps),
        flat and degenerate bounds included."""
        data = draw.draw(tied_datasets(dim=dim, scale=draw.draw(st.sampled_from([1.0, 40.0]))))
        bounds = draw.draw(tied_boxes(dim, draw.draw(st.sampled_from([0.5, 1.0, 40.0]))))
        rects = [rect for rect, _ in data]
        lo, hi = rect_tables(rects, dim)
        for column, oracle in (
            (hilbert.hilbert_keys_for_centers, oracle_key_for_center),
            (hilbert.hilbert_keys_for_corners, oracle_key_for_corners),
        ):
            try:
                want = [oracle(rect, bounds, order) for rect in rects]
            except OverflowError:
                # A subnormal side: a quotient is infinite, int() raises.
                with pytest.raises(OverflowError):
                    column(lo, hi, bounds, order)
                return
            assert column(lo, hi, bounds, order) == want
        for rect in rects[:5]:
            assert hilbert.hilbert_key_for_center(
                rect, bounds, order
            ) == oracle_key_for_center(rect, bounds, order)
            assert hilbert.hilbert_key_for_corners(
                rect, bounds, order
            ) == oracle_key_for_corners(rect, bounds, order)

    def test_subnormal_side_raises_as_the_scalar_route_does(self):
        bounds = Rect((-0.0,), (1.1125369292535e-311,))
        lo, hi = rect_tables([Rect((1.0,), (1.0,))], 1)
        with pytest.raises(OverflowError):
            oracle_key_for_center(Rect((1.0,), (1.0,)), bounds, 1)
        with pytest.raises(OverflowError):
            hilbert.hilbert_keys_for_centers(lo, hi, bounds, 1)

    def test_order_zero_rejected(self):
        lo, hi = self.grid_tables([[0, 0]])
        with pytest.raises(ValueError):
            hilbert.hilbert_keys_for_centers(lo, hi, Rect((0, 0), (1, 1)), 0)


class TestBoundingBoxZeros:
    """``frame_mbr`` keeps the first row's zero, as ``mbr_of`` does."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(tied_boxes(), min_size=1, max_size=40))
    def test_frame_mbr_is_mbr_of(self, rects):
        lo, hi = rect_tables(rects, 2)
        assert exact(Rect(*kernels.frame_mbr(lo, hi))) == exact(mbr_of(rects))

    def test_both_zeros_both_orders(self):
        for zeros in ([-0.0, 0.0], [0.0, -0.0], [0.0, -0.0] * 20, [-0.0, 0.0] * 20):
            rects = [Rect((z, 0.5), (z, 0.5)) for z in zeros]
            lo, hi = rect_tables(rects, 2)
            assert exact(Rect(*kernels.frame_mbr(lo, hi))) == exact(mbr_of(rects))


# -- seeded mutations: each must be caught ------------------------------


def mutant_wrong_side_for_max_axes(column, pointers, k, largest):
    """``_extreme_mask`` admitting the *lowest* tied pointers on a
    max-axis (the tuple sort, reversed, admits the highest)."""
    np = kernels.np
    n = len(column)
    if largest:
        pivot = column[np.argpartition(column, n - k)[n - k]]
        mask = column > pivot
    else:
        pivot = column[np.argpartition(column, k - 1)[k - 1]]
        mask = column < pivot
    tied = np.flatnonzero(column == pivot)
    missing = k - np.count_nonzero(mask)
    if missing < len(tied):
        tied = tied[np.argsort(pointers[tied])[:missing]]
    mask[tied] = True
    return mask


def mutant_ties_in_input_order(column, pointers, k, largest):
    """``_extreme_mask`` admitting tied rows in row order."""
    np = kernels.np
    n = len(column)
    if largest:
        pivot = column[np.argpartition(column, n - k)[n - k]]
        mask = column > pivot
    else:
        pivot = column[np.argpartition(column, k - 1)[k - 1]]
        mask = column < pivot
    tied = np.flatnonzero(column == pivot)
    mask[tied[: k - np.count_nonzero(mask)]] = True
    return mask


def mutant_half_off_by_one(value, base, lo, hi):
    return min(hi, oracle_snap_to_multiple(value, base, lo, hi) + 1)


class TestSeededMutations:
    """The differential check fails on each plausible mis-step."""

    @staticmethod
    def shuffled_grid():
        # Pointers in an order unrelated to the rows', so "input order"
        # and "pointer order" pick different ties.
        data = grid_dataset(1500, cells=10)
        rng = random.Random(77)
        pointers = list(range(len(data)))
        rng.shuffle(pointers)
        return [(rect, pointer) for (rect, _), pointer in zip(data, pointers)]

    def check(self):
        items = self.shuffled_grid()
        assert_same_pseudo(items, 8)
        assert_same_load(build_prtree, oracle_build_prtree, items, 8)

    def test_unmutated_code_passes(self):
        self.check()

    @pytest.mark.parametrize(
        "mutant", [mutant_wrong_side_for_max_axes, mutant_ties_in_input_order]
    )
    def test_tie_mutants_caught(self, monkeypatch, mutant):
        monkeypatch.setattr(pseudo, "_extreme_mask", mutant)
        with pytest.raises(AssertionError):
            self.check()

    def test_half_off_by_one_caught(self, monkeypatch):
        monkeypatch.setattr(pseudo, "_snap_to_multiple", mutant_half_off_by_one)
        with pytest.raises(AssertionError):
            self.check()


# ----------------------------------------------------------------------
# Query results: the columnar ``Matches`` vs the list of pairs it
# replaced.
#
# The oracles are verbatim copies of the report paths as they stood
# before results became columns: ``QueryEngine.query`` and
# ``PointQueryEngine._run`` with their ``cached_entries()`` fork
# (an in-memory node reports its existing ``Rect`` objects, a decoded
# page goes through ``NodeFrame.report``), ``NodeFrame.report`` with its
# gather threshold, ``kernels.table_rows``, and the sharded facades'
# ``matches.extend(found)`` merge.  A result must read pair for pair,
# in order, as the oracle's list; ``QueryStats``, ``IOCounters`` and the
# page-cache statistics must be equal.
# ----------------------------------------------------------------------

from repro.rtree.node import _trusted_rect
from repro.rtree.query import Matches
from repro.storage import open_index
from tests.sharded_oracle import FanoutPointEngine, FanoutQueryEngine

_ORACLE_GATHER_MIN_ROWS = 8


def cached_entries(node):
    """The entry list an in-memory node kept beside its frame.  A node
    holds only its frame now, so every oracle below reports from it."""
    return None


def oracle_table_rows(table, rows):
    if kernels.HAVE_NUMPY and isinstance(table, kernels.np.ndarray):
        return map(tuple, table[rows].tolist())
    return [table[i] for i in rows]


def oracle_report(frame, rows, objects):
    ptrs = frame.ptrs
    get = objects.get
    if len(rows) < _ORACLE_GATHER_MIN_ROWS:
        return [(frame.rect(i), get(ptrs[i])) for i in rows]
    return [
        (_trusted_rect(lo, hi), get(ptrs[i]))
        for i, lo, hi in zip(
            rows,
            oracle_table_rows(frame.lo, rows),
            oracle_table_rows(frame.hi, rows),
        )
    ]


class OracleQueryEngine(DFSOracleEngine):
    """``QueryEngine`` as it reported before ``Matches``."""

    def query(self, window):
        tree = self.tree
        recorder = self._recorder
        stats = QueryStats(queries=1)
        matches = []
        q_lo = kernels.as_coords(window.lo)
        q_hi = kernels.as_coords(window.hi)
        stack = [self.tree.root_id]
        while stack:
            block_id = stack.pop()
            node = self._read(block_id, stats)
            frame = node.frame()
            rows = lohi_kernels.frame_intersecting(
                frame.lo, frame.hi, q_lo, q_hi
            ).tolist()
            if recorder is not None:
                recorder.note_matched(block_id, len(rows))
            if frame.is_leaf:
                entries = cached_entries(node)
                if entries is None:
                    matches += oracle_report(frame, rows, tree.objects)
                else:
                    for i in rows:
                        rect, pointer = entries[i]
                        matches.append((rect, tree.objects.get(pointer)))
                stats.reported += len(rows)
            else:
                ptrs = frame.ptrs.tolist()
                for i in rows:
                    stack.append(ptrs[i])
        self.totals.merge(stats)
        return matches, stats


class OraclePointEngine(DFSOracleEngine, PointQueryEngine):
    """``PointQueryEngine`` with the ``_run`` it had before ``Matches``
    (the three operators only choose its kernels)."""

    def _run(self, descend_rows, report_rows, count_rows=None):
        tree = self.tree
        recorder = self._recorder
        stats = QueryStats(queries=1)
        matches = []
        stack = [tree.root_id]
        while stack:
            block_id = stack.pop()
            node = self._read(block_id, stats)
            frame = node.frame()
            if frame.is_leaf:
                if report_rows is None:
                    kept = count_rows(frame.lo, frame.hi)
                    stats.reported += kept
                    if recorder is not None:
                        recorder.note_matched(block_id, kept)
                    continue
                rows = report_rows(frame.lo, frame.hi).tolist()
                stats.reported += len(rows)
                if recorder is not None:
                    recorder.note_matched(block_id, len(rows))
                entries = cached_entries(node)
                if entries is None:
                    matches += oracle_report(frame, rows, tree.objects)
                else:
                    for i in rows:
                        rect, pointer = entries[i]
                        matches.append((rect, tree.objects.get(pointer)))
            else:
                ptrs = frame.ptrs.tolist()
                rows = descend_rows(frame.lo, frame.hi).tolist()
                if recorder is not None:
                    recorder.note_matched(block_id, len(rows))
                for i in rows:
                    stack.append(ptrs[i])
        self.totals.merge(stats)
        return matches, stats


def _oracle_shards(engine, hits):
    """The shards a request routes to: those whose box ``hits``."""
    sharded = engine.sharded
    return [
        i
        for i in range(sharded.n_shards)
        if (mbr := sharded.shard_mbr(i)) is not None and hits(mbr)
    ]


def _oracle_merge(engine, parts):
    matches = []
    for found, _ in parts:
        matches.extend(found)
    return matches, engine._merge_stats([stats for _, stats in parts])


class OracleShardedQueryEngine(FanoutQueryEngine):
    """The facade's routing over oracle sub-engines, merged by ``extend``."""

    def __init__(self, sharded):
        super().__init__(sharded)
        self._subs = [OracleQueryEngine(shard) for shard in sharded.shards]

    def query(self, window):
        indices = _oracle_shards(self, window.intersects)
        parts = self._fan_out(indices, lambda sub: sub.query(window))
        return _oracle_merge(self, parts)


class OracleShardedPointEngine(FanoutPointEngine):
    def __init__(self, sharded):
        super().__init__(sharded)
        self._subs = [OraclePointEngine(shard) for shard in sharded.shards]

    def point_query(self, point):
        point = tuple(float(c) for c in point)
        indices = _oracle_shards(self, lambda mbr: mbr.contains_point(point))
        parts = self._fan_out(indices, lambda sub: sub.point_query(point))
        return _oracle_merge(self, parts)

    def containment_query(self, window):
        indices = _oracle_shards(self, window.intersects)
        parts = self._fan_out(
            indices, lambda sub: sub.containment_query(window)
        )
        return _oracle_merge(self, parts)


def assert_same_result(got, want):
    """One ``(Matches, stats)`` answer against the oracle's ``(list,
    stats)``: pair for pair, in order, through every way of reading it."""
    (got_matches, got_stats), (want_matches, want_stats) = got, want
    assert type(got_matches) is Matches
    assert got_stats == want_stats
    assert len(got_matches) == len(want_matches)
    assert got_matches.values == tuple(value for _, value in want_matches)
    for side in ("lo", "hi"):
        assert [
            tuple(row)
            for row in kernels.table_tuples(getattr(got_matches, side))
        ] == [getattr(rect, side) for rect, _ in want_matches]
    assert list(got_matches) == want_matches
    assert [exact(rect) for rect, _ in got_matches] == [
        exact(rect) for rect, _ in want_matches
    ]
    assert got_matches == want_matches and want_matches == got_matches


def result_probes(dim, seed, count=8):
    """Windows (some far outside the data: empty answers; one covering
    everything) and stabbing points for a ``dim``-d unit-cube data set."""
    windows = random_windows(count, seed=seed, dim=dim, side=0.3)
    windows.append(Rect([5.0] * dim, [6.0] * dim))
    windows.append(Rect([-1.0] * dim, [2.0] * dim))
    windows.append(Rect([0.5] * dim, [0.5] * dim))
    points = [w.center() for w in windows]
    return windows, points


def assert_same_results(got_tree, want_tree, seed, sharded=False):
    """Every reporting operator over two handles on the same index."""
    window_engine = QueryEngine(got_tree)
    point_engine = PointQueryEngine(got_tree)
    if sharded:
        window_oracle = OracleShardedQueryEngine(want_tree)
        point_oracle = OracleShardedPointEngine(want_tree)
    else:
        window_oracle = OracleQueryEngine(want_tree)
        point_oracle = OraclePointEngine(want_tree)
    windows, points = result_probes(got_tree.dim, seed)
    reported = 0
    for window in windows:
        got = window_engine.query(window)
        assert_same_result(got, window_oracle.query(window))
        assert_same_result(
            point_engine.containment_query(window),
            point_oracle.containment_query(window),
        )
        assert point_engine.count(window) == point_oracle.count(window)
        reported += len(got[0])
    for point in points:
        assert_same_result(
            point_engine.point_query(point), point_oracle.point_query(point)
        )
    assert window_engine.totals == window_oracle.totals
    assert point_engine.totals == point_oracle.totals
    assert got_tree.store.counters.snapshot() == want_tree.store.counters.snapshot()
    if hasattr(got_tree, "page_stats"):
        assert got_tree.page_stats == want_tree.page_stats
    # The convenience wrappers hand the engines' result through.
    assert list(got_tree.query(windows[0])) == window_oracle.query(windows[0])[0]
    return reported


def assert_same_results_on_disk(fanout_tree, directory, cache_pages, shards, seed):
    """Pack ``fanout_tree`` (one file or a K-shard family), open it
    twice — each side its own page cache — and compare."""
    values = dict(fanout_tree.objects)
    if shards == 1:
        path = pathlib.Path(directory) / "index.pack"
        pack_tree(fanout_tree, path, block_size=1024)
    else:
        path = pathlib.Path(directory) / "index.manifest"
        shard_pack(fanout_tree, path, shards=shards, block_size=1024)
    with open_index(
        path, values=values, cache_pages=cache_pages, readonly=True
    ) as got_tree, open_index(
        path, values=dict(values), cache_pages=cache_pages, readonly=True
    ) as want_tree:
        return assert_same_results(got_tree, want_tree, seed, sharded=shards > 1)


class TestResultsDifferential:
    """``Matches`` reads as the list of pairs the engines used to build."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("builder", [build_prtree, build_hilbert], ids=["PR", "H"])
    def test_in_memory(self, builder, dim):
        data = random_rects(500, seed=60 + dim, dim=dim)
        got_tree = builder(BlockStore(), data, 8)
        want_tree = builder(BlockStore(), data, 8)
        assert assert_same_results(got_tree, want_tree, seed=61) > 500

    def test_single_row_leaves(self):
        # priority_size=1: every priority leaf holds exactly one row, so
        # most parts of a result are one-row gathers.
        data = random_rects(200, seed=62)
        trees = [
            build_prtree(BlockStore(), data, 8, priority_size=1)
            for _ in range(2)
        ]
        singles = sum(len(leaf) == 1 for _, leaf in trees[0].iter_leaves())
        assert singles > 50
        assert_same_results(*trees, seed=63)

    def test_after_updates(self):
        # Nodes edited by the write path hold a frame, an entry list or
        # both; whichever it is, the result is the same.
        data = random_rects(300, seed=64)
        trees = [build_prtree(BlockStore(), data, 8) for _ in range(2)]
        for tree in trees:
            for i, (rect, value) in enumerate(random_rects(60, seed=65)):
                tree.insert(rect, f"new{value}")
            for rect, value in data[:40]:
                assert tree.delete(rect, value)
        assert_same_results(*trees, seed=66)

    def test_tiny_and_empty_trees(self):
        for data in ([], random_rects(1, seed=67), random_rects(3, seed=67)):
            trees = [build_prtree(BlockStore(), data, 8) for _ in range(2)]
            assert_same_results(*trees, seed=68)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("cache_pages", [0, 32, 1024])
    def test_paged(self, tmp_path, cache_pages, dim):
        data = random_rects(900, seed=70 + dim, dim=dim)
        tree = build_prtree(BlockStore(), data, 16)
        reported = assert_same_results_on_disk(
            tree, tmp_path, cache_pages, shards=1, seed=71
        )
        assert reported > 900

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("cache_pages", [0, 32])
    def test_sharded_family(self, tmp_path, cache_pages, dim):
        data = random_rects(900, seed=80 + dim, dim=dim)
        tree = build_prtree(BlockStore(), data, 16)
        reported = assert_same_results_on_disk(
            tree, tmp_path, cache_pages, shards=4, seed=81
        )
        assert reported > 900

    @settings(max_examples=25)
    @given(data=rect_datasets(max_size=80), window=windows())
    def test_property(self, data, window):
        trees = [build_prtree(BlockStore(), data, 4) for _ in range(2)]
        assert_same_result(
            QueryEngine(trees[0]).query(window),
            OracleQueryEngine(trees[1]).query(window),
        )
        assert_same_result(
            PointQueryEngine(trees[0]).containment_query(window),
            OraclePointEngine(trees[1]).containment_query(window),
        )


# -- seeded mutations of the result path: each must be caught ------------


_matches_init = Matches.__init__


def mutant_values_shifted(self, frame=None, rows=(), values=(), dim=0):
    """The values column one row out of step with the coordinates."""
    values = list(values)
    _matches_init(self, frame, rows, values[1:] + values[:1], dim)


class TestResultMutations:
    """The results check fails on each plausible mis-step."""

    def check(self, directory):
        data = random_rects(900, seed=82)
        tree = build_prtree(BlockStore(), data, 16)
        other = build_prtree(BlockStore(), data, 16)
        assert_same_results(tree, other, seed=81)
        assert_same_results_on_disk(
            tree, directory, cache_pages=32, shards=4, seed=81
        )

    def test_unmutated_code_passes(self, tmp_path):
        self.check(tmp_path)

    @pytest.mark.parametrize(
        "name,mutant",
        [
            ("__init__", mutant_values_shifted),
        ],
        ids=["values-shifted"],
    )
    def test_mutant_caught(self, tmp_path, monkeypatch, name, mutant):
        monkeypatch.setattr(Matches, name, mutant)
        with pytest.raises(AssertionError):
            self.check(tmp_path)


# ----------------------------------------------------------------------
# Reads without per-row Python: kNN keeps one sorted run per expanded
# node on its heap and returns ``Neighbors``; the leaves under one
# parent are read as a group and tested in one kernel call.
#
# The oracles are verbatim copies of the read paths as they stood
# before: ``KNNEngine.nearest`` / ``_nearest`` / ``knn`` with the
# ``_snapshot`` / ``_delta`` count (one heap entry per row, ``Neighbor``
# tuples), ``ShardedKNNEngine.nearest`` / ``_nearest`` / ``knn`` over
# those streams, and ``TraversalEngine._run`` (one block id per stack
# entry, one kernel call per leaf).  Results must agree in order, to the
# bit; ``QueryStats``, ``IOCounters``, the store access sequence,
# ``PageCacheStats``, the ghost-LRU access log and EXPLAIN plans must be
# equal.
# ----------------------------------------------------------------------

import dataclasses
import inspect
import textwrap
import time

from repro.obs import ReuseDistanceTracker
from repro.queries import explain
from repro.queries.knn import Neighbors
from tests.sharded_oracle import FanoutKNNEngine, assert_knn_as_good

_ORACLE_NODE, _ORACLE_DATA = 0, 1
_ORACLE_SHARD, _ORACLE_STREAM = 0, 1


def _oracle_snapshot(stats):
    return dataclasses.replace(stats)


def _oracle_delta(after, before):
    return QueryStats(
        **{
            f.name: getattr(after, f.name) - getattr(before, f.name)
            for f in dataclasses.fields(QueryStats)
        }
    )


class RowHeapKNNOracle(DFSOracleEngine, KNNEngine):
    """``KNNEngine`` as it was: every row of an expanded node on the heap."""

    def nearest(self, target):
        # Validate eagerly, before the lazy generator is first advanced.
        target_dim = target.dim if isinstance(target, Rect) else len(target)
        if target_dim != self.tree.dim:
            raise ValueError(
                f"{target_dim}-d target against a {self.tree.dim}-d tree"
            )
        return self._nearest(target)

    def _nearest(self, target):
        self.totals.queries += 1
        # Every popped node's per-row MINDISTs come from one frame kernel
        # call; data rows go on the heap as (frame, row) so the Rect is
        # only materialized if the row is actually reported.
        if isinstance(target, Rect):
            q_lo = kernels.as_coords(target.lo)
            q_hi = kernels.as_coords(target.hi)

            def frame_dists(frame):
                return lohi_kernels.frame_dist_sq_to_rect(
                    frame.lo, frame.hi, q_lo, q_hi
                )
        else:
            p = kernels.as_coords(target)

            def frame_dists(frame):
                return lohi_kernels.frame_dist_sq_to_point(frame.lo, frame.hi, p)

        # (squared distance, insertion counter, kind, payload); the counter
        # breaks ties so heapq never compares frames or Nodes.
        heap = []
        counter = 0
        heap.append((0.0, counter, _ORACLE_NODE, self.tree.root_id))
        while heap:
            dist_sq, _, kind, payload = heapq.heappop(heap)
            if kind == _ORACLE_DATA:
                frame, i = payload
                self.totals.reported += 1
                yield Neighbor(
                    math.sqrt(dist_sq),
                    frame.rect(i),
                    self.tree.objects.get(frame.ptrs[i]),
                )
                continue
            node = self._read(payload, self.totals)
            frame = node.frame()
            if self._recorder is not None:
                # Best-first search prunes at node granularity (entries
                # of a read node all become live candidates); unread
                # nodes are the pruning the plan's per-level node counts
                # show.
                self._recorder.note_matched(payload, len(frame))
            dists = frame_dists(frame)
            if frame.is_leaf:
                for i, d in enumerate(dists):
                    counter += 1
                    heapq.heappush(heap, (d, counter, _ORACLE_DATA, (frame, i)))
            else:
                ptrs = frame.ptrs
                for i, d in enumerate(dists):
                    counter += 1
                    heapq.heappush(heap, (d, counter, _ORACLE_NODE, ptrs[i]))

    def knn(self, target, k):
        if k < 0:
            raise ValueError("k must be >= 0")
        before = _oracle_snapshot(self.totals)
        neighbors = []
        it = self.nearest(target)  # validates the target even when k == 0
        if k > 0:
            for neighbor in it:
                neighbors.append(neighbor)
                if len(neighbors) == k:
                    break
        else:
            self.totals.queries += 1  # count the (empty) query anyway
        return neighbors, _oracle_delta(self.totals, before)


class LeafAtATimeRun:
    """``TraversalEngine._run`` as it was: one kernel call per leaf."""

    def _run(self, descend_rows, report_rows, count_rows=None):
        tree = self.tree
        recorder = self._recorder
        get = tree.objects.get
        stats = QueryStats(queries=1)
        parts = []
        values = []
        stack = [tree.root_id]
        while stack:
            block_id = stack.pop()
            frame = self._read(block_id, stats).frame()
            ptrs = frame.ptrs.tolist()
            if not frame.is_leaf:
                rows = descend_rows(frame.lo, frame.hi).tolist()
                matched = len(rows)
                for i in rows:
                    stack.append(ptrs[i])
            elif report_rows is None:
                matched = count_rows(frame.lo, frame.hi)
                stats.reported += matched
            else:
                rows = report_rows(frame.lo, frame.hi).tolist()
                matched = len(rows)
                if rows:
                    parts.append((frame, rows))
                    values += [get(ptrs[i]) for i in rows]
                    stats.reported += matched
            if recorder is not None:
                recorder.note_matched(block_id, matched)
        self.totals.merge(stats)
        return matches_of(parts, values, tree.dim), stats


class LeafAtATimeQueryOracle(LeafAtATimeRun, DFSOracleEngine, QueryEngine):
    pass


class LeafAtATimePointOracle(LeafAtATimeRun, DFSOracleEngine, PointQueryEngine):
    pass


class ShardedRowHeapKNNOracle(FanoutKNNEngine):
    """``ShardedKNNEngine`` as it was, over row-heap sub-engines."""

    def __init__(self, sharded):
        super().__init__(sharded)
        self._subs = [RowHeapKNNOracle(shard) for shard in sharded.shards]

    def nearest(self, target):
        target_dim = target.dim if isinstance(target, Rect) else len(target)
        if target_dim != self.sharded.dim:
            raise ValueError(
                f"{target_dim}-d target against a {self.sharded.dim}-d index"
            )
        return self._nearest(target)

    def _nearest(self, target):
        target_rect = target if isinstance(target, Rect) else None
        heap = []
        counter = 0
        for i in range(self.sharded.n_shards):
            mbr = self.sharded.shard_mbr(i)
            if mbr is None:
                continue
            dist_sq = (
                mbr.dist_sq_to_rect(target_rect)
                if target_rect is not None
                else mbr.dist_sq_to_point(target)
            )
            heap.append((math.sqrt(dist_sq), counter, _ORACLE_SHARD, i))
            counter += 1
        heapq.heapify(heap)
        while heap:
            _, _, kind, payload = heapq.heappop(heap)
            if kind == _ORACLE_SHARD:
                start = time.perf_counter()
                stream = self._subs[payload].nearest(target)
                head = next(stream, None)
                self._note_shard_time(
                    payload, time.perf_counter() - start
                )
                if head is not None:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (head.distance, counter, _ORACLE_STREAM, (payload, head, stream)),
                    )
                continue
            shard, head, stream = payload
            yield head
            start = time.perf_counter()
            following = next(stream, None)
            self._note_shard_time(
                shard, time.perf_counter() - start
            )
            if following is not None:
                counter += 1
                heapq.heappush(
                    heap,
                    (following.distance, counter, _ORACLE_STREAM,
                     (shard, following, stream)),
                )

    def knn(self, target, k):
        if k < 0:
            raise ValueError("k must be >= 0")
        before = [dataclasses.replace(sub.totals) for sub in self._subs]
        neighbors = []
        it = self.nearest(target)  # validates the target even when k == 0
        if k > 0:
            for neighbor in it:
                neighbors.append(neighbor)
                if len(neighbors) == k:
                    break
        deltas = [
            QueryStats(
                leaf_reads=sub.totals.leaf_reads - b.leaf_reads,
                internal_reads=sub.totals.internal_reads - b.internal_reads,
                internal_visits=sub.totals.internal_visits - b.internal_visits,
                reported=sub.totals.reported - b.reported,
            )
            for sub, b in zip(self._subs, before)
        ]
        return neighbors, self._merge_stats(deltas)


class ShardedLeafAtATimeQueryOracle(FanoutQueryEngine):
    def __init__(self, sharded):
        super().__init__(sharded)
        self._subs = [LeafAtATimeQueryOracle(s) for s in sharded.shards]


class ShardedLeafAtATimePointOracle(FanoutPointEngine):
    def __init__(self, sharded):
        super().__init__(sharded)
        self._subs = [LeafAtATimePointOracle(s) for s in sharded.shards]


# -- data and probes ----------------------------------------------------


def tie_heavy(n, dim, seed, cells=6):
    """Grid points, grid-snapped boxes and exact duplicates: most
    distances from a grid-aligned target tie with many others."""
    rng = random.Random(seed)
    data = []
    for i in range(n):
        lo = [rng.randrange(cells) / cells for _ in range(dim)]
        if i % 3 == 0:
            hi = list(lo)
        else:
            hi = [c + rng.randrange(1, 3) / cells for c in lo]
        data.append((Rect(lo, hi), i))
    for j in rng.sample(range(n), n // 5):
        data.append((data[j][0], n + j))
    return data


def knn_targets(dim, seed, cells=6):
    """Points on and off the grid (some outside the data) and boxes."""
    rng = random.Random(seed)
    points = [tuple(rng.randrange(cells + 1) / cells for _ in range(dim))
              for _ in range(4)]
    points.append(tuple([0.5 / cells] * dim))
    points.append(tuple([-1.0] * dim))
    points.append(tuple(float(i) for i in range(dim)))
    boxes = [Rect(p, [c + 1 / cells for c in p]) for p in points[:3]]
    boxes.append(Rect([2.0] * dim, [3.0] * dim))
    return points + boxes


def probe_windows(dim, seed):
    windows = random_windows(5, seed=seed, dim=dim, side=0.35)
    windows.append(Rect([0.5] * dim, [0.5] * dim))
    windows.append(Rect([-1.0] * dim, [2.0] * dim))
    windows.append(Rect([4.0] * dim, [5.0] * dim))
    return windows


def log_store_accesses(tree):
    """Record every ``peek`` / ``read`` the engines make on ``tree`` (on
    each shard of a family), in order; a ``read_many`` logs each of its
    ids as the ``peek`` then ``read`` pair it stands for (and not the
    calls it makes itself)."""
    log, inside = [], []
    for i, part in enumerate(getattr(tree, "shards", [tree])):
        store = part.store

        def logged(method, op, i=i):
            def call(block_id):
                if not inside:
                    log.append((i, op, block_id))
                return method(block_id)
            return call

        def logged_many(method, i=i):
            def call(block_ids, physical=None):
                for block_id in block_ids:
                    log.extend(((i, "peek", block_id), (i, "read", block_id)))
                inside.append(True)
                try:
                    return method(block_ids, physical)
                finally:
                    inside.pop()
            return call

        store.peek = logged(store.peek, "peek")
        store.read = logged(store.read, "read")
        store.read_many = logged_many(store.read_many)
    return log


def assert_same_neighbors(got, want):
    """One ``(Neighbors, stats)`` answer against the oracle's ``(list,
    stats)``: neighbor for neighbor, through every way of reading it."""
    (got_nbs, got_stats), (want_nbs, want_stats) = got, want
    assert type(got_nbs) is Neighbors
    assert got_stats == want_stats
    assert len(got_nbs) == len(want_nbs)
    assert got_nbs.distances == tuple(nb.distance for nb in want_nbs)
    assert got_nbs.values == tuple(nb.value for nb in want_nbs)
    assert list(got_nbs) == want_nbs
    assert [exact(nb.rect) for nb in got_nbs] == [
        exact(nb.rect) for nb in want_nbs
    ]
    assert got_nbs == want_nbs and want_nbs == got_nbs


def assert_same_matches(got, want):
    """Two ``(Matches, stats)`` answers, pair for pair and column for
    column."""
    (got_m, got_stats), (want_m, want_stats) = got, want
    assert got_stats == want_stats
    assert len(got_m) == len(want_m)
    assert got_m.values == want_m.values
    assert got_m.ids == want_m.ids
    for side in ("lo", "hi"):
        assert (
            getattr(got_m, side).tobytes() == getattr(want_m, side).tobytes()
        )
    assert list(got_m) == list(want_m)


class ReadEngines:
    """The engines (or their oracles) a read workload runs on."""

    def __init__(self, tree, oracle):
        family = hasattr(tree, "shards")
        if oracle:
            kinds = (
                (ShardedLeafAtATimeQueryOracle, ShardedLeafAtATimePointOracle,
                 ShardedRowHeapKNNOracle)
                if family
                else (LeafAtATimeQueryOracle, LeafAtATimePointOracle,
                      RowHeapKNNOracle)
            )
        else:  # a family is one tree to the engines
            kinds = (QueryEngine, PointQueryEngine, KNNEngine)
        self.window, self.point, self.knn = (kind(tree) for kind in kinds)
        self.oracle = oracle

    def run(self, windows, targets, ks):
        """Every answer, in workload order: window, containment, count,
        point, then kNN for each ``k``."""
        out = []
        for window in windows:
            out.append(("window", self.window.query(window)))
            out.append(("containment", self.point.containment_query(window)))
            out.append(("count", self.point.count(window)))
            out.append(("point", self.point.point_query(window.center())))
        for target in targets:
            for k in ks:
                out.append(("knn", self.knn.knn(target, k)))
        return out

    def totals(self):
        return [engine.totals for engine in (self.window, self.point, self.knn)]


def assert_same_workload(got_tree, want_tree, windows, targets, ks):
    got_log = log_store_accesses(got_tree)
    want_log = log_store_accesses(want_tree)
    engines = ReadEngines(got_tree, oracle=False)
    oracles = ReadEngines(want_tree, oracle=True)
    got_all = engines.run(windows, targets, ks)
    want_all = oracles.run(windows, targets, ks)
    assert [kind for kind, _ in got_all] == [kind for kind, _ in want_all]
    for (kind, got), (_, want) in zip(got_all, want_all):
        if kind == "knn":
            assert_same_neighbors(got, want)
        elif kind == "count":
            assert got == want
        else:
            assert_same_matches(got, want)
    assert engines.totals() == oracles.totals()
    assert got_log == want_log
    assert (
        got_tree.store.counters.snapshot() == want_tree.store.counters.snapshot()
    )
    return got_all


KS = (0, 1, 5, 37)


class TestReadPathDifferential:
    """The grouped traversal and the run heap against the oracles."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("fanout", [4, 7, 16, 113])
    @pytest.mark.parametrize(
        "builder", [build_prtree, build_hilbert, build_str],
        ids=["PR", "H", "STR"],
    )
    def test_in_memory_tie_heavy(self, builder, fanout, dim):
        data = tie_heavy(400, dim, seed=fanout * 10 + dim)
        trees = [builder(BlockStore(), data, fanout) for _ in range(2)]
        ks = KS + (len(data) + 5,)
        answers = assert_same_workload(
            *trees, probe_windows(dim, seed=fanout), knn_targets(dim, seed=3), ks
        )
        # The tie-heavy data really ties: some answer has equal
        # distances at different rows.
        distances = [
            nbs.distances for kind, (nbs, _) in answers if kind == "knn"
        ]
        assert any(len(set(d)) < len(d) for d in distances)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_boxes(self, dim):
        data = random_rects(700, seed=90 + dim, dim=dim)
        trees = [build_prtree(BlockStore(), data, 8) for _ in range(2)]
        assert_same_workload(
            *trees,
            probe_windows(dim, seed=91),
            [w.center() for w in probe_windows(dim, seed=92)],
            KS + (800,),
        )

    @pytest.mark.parametrize(
        "n,height", [(0, 1), (1, 1), (50, 1), (94, 1), (95, 2), (600, 2)]
    )
    def test_heights_one_and_two_at_the_paper_fanout(self, n, height):
        # tie_heavy(n) holds n + n // 5 boxes: 94 fill one 113-entry
        # root leaf to 112, 95 overflow it into a second level.
        data = tie_heavy(n, 2, seed=n) if n > 5 else random_rects(n, seed=5)
        trees = [build_prtree(BlockStore(), data, 113) for _ in range(2)]
        assert trees[0].height == height
        assert_same_workload(
            *trees, probe_windows(2, seed=7), knn_targets(2, seed=8),
            KS + (len(data) + 1,),
        )

    def test_after_updates(self):
        # Edited nodes hold a frame, an entry list or both.
        data = tie_heavy(500, 2, seed=95)
        trees = [build_prtree(BlockStore(), data, 8) for _ in range(2)]
        for tree in trees:
            for rect, value in tie_heavy(80, 2, seed=96)[:80]:
                tree.insert(rect, f"new{value}")
            for rect, value in data[:60]:
                assert tree.delete(rect, value)
        assert_same_workload(
            *trees, probe_windows(2, seed=97), knn_targets(2, seed=98), KS
        )

    @pytest.mark.parametrize("cache_pages", [0, 6, 32])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_paged_cache_traffic(self, tmp_path, cache_pages, dim):
        data = tie_heavy(900, dim, seed=99 + dim)
        tree = build_prtree(BlockStore(), data, 16)
        path = tmp_path / "index.pack"
        pack_tree(tree, path, block_size=1024)
        values = dict(tree.objects)
        with PagedTree.open(
            path, values=values, cache_pages=cache_pages, readonly=True
        ) as got_tree, PagedTree.open(
            path, values=dict(values), cache_pages=cache_pages, readonly=True
        ) as want_tree:
            for handle in (got_tree, want_tree):
                handle.page_store.tracker = ReuseDistanceTracker(
                    budgets=[1, 8], keep_log=True
                )
            assert_same_workload(
                got_tree, want_tree, probe_windows(dim, seed=100),
                knn_targets(dim, seed=101), KS + (100,),
            )
            assert got_tree.page_stats == want_tree.page_stats
            got_log = got_tree.page_store.tracker.log
            assert got_log == want_tree.page_store.tracker.log
            assert len(got_log) > 100

    @pytest.mark.parametrize("cache_pages", [0, 6, 32])
    def test_sharded_family(self, tmp_path, cache_pages):
        data = tie_heavy(1200, 2, seed=102)
        tree = build_prtree(BlockStore(), data, 16)
        path = tmp_path / "index.manifest"
        shard_pack(tree, path, shards=4, block_size=1024)
        values = dict(tree.objects)
        with open_index(
            path, values=values, cache_pages=cache_pages, readonly=True
        ) as got_tree, open_index(
            path, values=dict(values), cache_pages=cache_pages, readonly=True
        ) as want_tree:
            for handle in (got_tree, want_tree):
                for shard in handle.shards:
                    shard.page_store.tracker = ReuseDistanceTracker(
                        budgets=[1, 8], keep_log=True
                    )
            # The window family reads exactly what the fan-out read, shard
            # by shard; kNN is one best-first search over every shard
            # instead of a merge of per-shard streams, so it is held to
            # the same answer for no more leaf reads, after the rest.
            assert_same_workload(
                got_tree, want_tree, probe_windows(2, seed=103), (), KS,
            )
            for got_shard, want_shard in zip(got_tree.shards, want_tree.shards):
                assert got_shard.page_stats == want_shard.page_stats
                assert (
                    got_shard.page_store.tracker.log
                    == want_shard.page_store.tracker.log
                )
            engine = KNNEngine(got_tree)
            oracle = ShardedRowHeapKNNOracle(want_tree)
            for target in knn_targets(2, seed=104):
                for k in KS + (100,):
                    assert_knn_as_good(
                        engine.knn(target, k), oracle.knn(target, k)
                    )

    def test_nearest_streams_identical(self):
        data = tie_heavy(600, 2, seed=105)
        trees = [build_prtree(BlockStore(), data, 8) for _ in range(2)]
        engine, oracle = KNNEngine(trees[0]), RowHeapKNNOracle(trees[1])
        for target in knn_targets(2, seed=106):
            got = list(engine.nearest(target))
            want = list(oracle.nearest(target))
            assert got == want and len(got) == len(data)
            assert [exact(nb.rect) for nb in got] == [
                exact(nb.rect) for nb in want
            ]
        assert engine.totals == oracle.totals

    @pytest.mark.parametrize("fanout", [4, 16])
    def test_explain_plans_identical(self, fanout):
        data = tie_heavy(700, 2, seed=107)
        trees = [build_prtree(BlockStore(), data, fanout) for _ in range(2)]
        engines = ReadEngines(trees[0], oracle=False)
        oracles = ReadEngines(trees[1], oracle=True)
        calls = []
        for window in probe_windows(2, seed=108):
            calls.append(("window", lambda e, w=window: e.window.query(w)))
            calls.append(("count", lambda e, w=window: e.point.count(w)))
            calls.append(
                ("containment", lambda e, w=window: e.point.containment_query(w))
            )
            calls.append(
                ("point", lambda e, w=window: e.point.point_query(w.center()))
            )
        for target in knn_targets(2, seed=109):
            calls.append(("knn", lambda e, t=target: e.knn.knn(t, 30)))
        engine_of = {"window": "window", "count": "point",
                     "containment": "point", "point": "point", "knn": "knn"}
        for kind, call in calls:
            plans = []
            for side in (engines, oracles):
                engine = getattr(side, engine_of[kind])
                recorder = explain.install(engine)
                _, stats = call(side)
                plans.append(explain.uninstall(engine, recorder, kind, stats))
            assert plans[0] == plans[1]
            assert plans[0].levels

    @settings(max_examples=30, deadline=None)
    @given(
        tied_datasets(max_size=120),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=140),
        windows(),
    )
    def test_property(self, data, fanout, k, window):
        trees = [build_prtree(BlockStore(), data, fanout) for _ in range(2)]
        assert_same_workload(
            *trees, [window], [window.center(), window], (k,)
        )


# -- seeded mutations of the read path: each must be caught -------------


def _mutant(function, old, new):
    """``function`` recompiled from its own source with ``old`` replaced
    by ``new`` (which must occur exactly once)."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


READ_MUTANTS = {
    # The surviving leaves read first row first: the concatenated
    # frame's rows and the page accesses come in the wrong order.
    "group-in-row-order": (
        TraversalEngine, "_read_leaves", TraversalEngine._read_leaves,
        "(-r - 1, len(steps), -r, ptrs[r])", "(r + 1, len(steps), r, ptrs[r])",
    ),
    # The counter advances one short of the node's size, so the next
    # expansion's first row shares a counter with this one's last row.
    # (Numbering rows from the counter itself would only shift every
    # key by one: an equivalent mutant.)
    "counter-off-by-one": (
        KNNEngine, "_hits", KNNEngine._hits,
        "counter += len(rows)", "counter += len(rows) - 1",
    ),
    # Equal distances within a run come out in reverse row order, as an
    # unstable sort may leave them.
    "unstable-run-sort": (
        kernels, "frame_nearest_run", kernels.frame_nearest_run,
        'order = dist.argsort(kind="stable")',
        "order = np.lexsort((-np.arange(len(dist)), dist))",
    ),
}


class TestReadPathMutations:
    """The read-path checks fail on each plausible mis-step."""

    def check(self, directory):
        data = tie_heavy(800, 2, seed=110)
        trees = [build_prtree(BlockStore(), data, 8) for _ in range(2)]
        assert_same_workload(
            *trees, probe_windows(2, seed=111), knn_targets(2, seed=112),
            KS + (60,),
        )
        tree = build_prtree(BlockStore(), data, 16)
        path = pathlib.Path(directory) / "index.pack"
        pack_tree(tree, path, block_size=1024)
        with PagedTree.open(
            path, values=dict(tree.objects), cache_pages=6, readonly=True
        ) as got_tree, PagedTree.open(
            path, values=dict(tree.objects), cache_pages=6, readonly=True
        ) as want_tree:
            assert_same_workload(
                got_tree, want_tree, probe_windows(2, seed=113),
                knn_targets(2, seed=114), (10, 100),
            )
            assert got_tree.page_stats == want_tree.page_stats

    def test_unmutated_code_passes(self, tmp_path):
        self.check(tmp_path)

    @pytest.mark.parametrize("name", sorted(READ_MUTANTS))
    def test_mutant_caught(self, tmp_path, monkeypatch, name):
        owner, attribute, function, old, new = READ_MUTANTS[name]
        monkeypatch.setattr(owner, attribute, _mutant(function, old, new))
        with pytest.raises(AssertionError):
            self.check(tmp_path)


# ----------------------------------------------------------------------
# Routing from a table of live shard boxes.
#
# The oracle is a verbatim copy of the sharded fan-out as it stood
# before: ``ShardedTree.shard_mbr`` peeked a shard's live root on every
# call (counted here as ``root_lookups``), ``_intersecting`` tested
# every shard through it, ``_fan_out`` gave each touched shard its own
# child tap whenever any tap was active, and ``_merge`` concatenated and
# re-summed even a single shard's answer.  Results and their order,
# ``QueryStats``, per-shard totals, ``IOCounters``, batch and span I/O
# must agree.  ``PageCacheStats`` may differ only in ``hits``, by exactly
# the oracle's root lookups, at cache sizes that keep the roots resident.
# ----------------------------------------------------------------------

from contextlib import nullcontext

from repro.experiments.serving import mixed_requests
from repro.obs.tap import active_tap, scoped_tap
from repro.obs.trace import Trace, activate_trace, current_trace
from repro.server import QueryServer
from repro.storage import ShardedTree
from tests.sharded_oracle import concat


class VerbatimRouting:
    """``_ShardedFanout``'s routing and merge before the routing table."""

    root_lookups = 0

    def shard_mbr(self, i):
        self.root_lookups += 1
        root = self.sharded.shards[i].root()
        return root.mbr() if len(root) else None

    def _intersecting(self, predicate):
        """Shard indices whose live MBR satisfies ``predicate``."""
        return [
            i
            for i in range(self.sharded.n_shards)
            if (mbr := self.shard_mbr(i)) is not None
            and predicate(mbr)
        ]

    def _fan_out(self, indices, task):
        trace = current_trace()
        observed = trace is not None or active_tap() is not None

        def timed(i: int):
            start = time.perf_counter()
            try:
                if not observed:
                    return task(i)
                with scoped_tap() as tap:
                    try:
                        return task(i)
                    finally:
                        if trace is not None:
                            trace.add_span(
                                f"shard:{i}",
                                start,
                                time.perf_counter(),
                                cat="shard",
                                track=i + 1,
                                io=tap.snapshot(),
                            )
            finally:
                self._note_shard_time(i, time.perf_counter() - start)

        return [timed(i) for i in indices]

    def _merge(self, parts):
        return (
            concat((found for found, _ in parts), self.sharded.dim),
            self._merge_stats([stats for _, stats in parts]),
        )


class VerbatimShardedQueryEngine(VerbatimRouting, FanoutQueryEngine):
    def query(self, window):
        if window.dim != self.sharded.dim:
            raise ValueError(
                f"{window.dim}-d window against a {self.sharded.dim}-d index"
            )
        indices = self._intersecting(window.intersects)
        parts = self._fan_out(indices, lambda i: self._subs[i].query(window))
        return self._merge(parts)


class VerbatimShardedPointEngine(VerbatimRouting, FanoutPointEngine):
    def point_query(self, point):
        point = tuple(float(c) for c in point)
        if len(point) != self.sharded.dim:
            raise ValueError(
                f"{len(point)}-d point against a {self.sharded.dim}-d index"
            )
        indices = self._intersecting(lambda mbr: mbr.contains_point(point))
        parts = self._fan_out(
            indices, lambda i: self._subs[i].point_query(point)
        )
        return self._merge(parts)

    def containment_query(self, window):
        if window.dim != self.sharded.dim:
            raise ValueError(
                f"{window.dim}-d window against a {self.sharded.dim}-d index"
            )
        indices = self._intersecting(window.intersects)
        parts = self._fan_out(
            indices, lambda i: self._subs[i].containment_query(window)
        )
        return self._merge(parts)

    def count(self, window):
        if window.dim != self.sharded.dim:
            raise ValueError(
                f"{window.dim}-d window against a {self.sharded.dim}-d index"
            )
        indices = self._intersecting(window.intersects)
        parts = self._fan_out(indices, lambda i: self._subs[i].count(window))
        total = sum(count for count, _ in parts)
        return total, self._merge_stats([stats for _, stats in parts])


class VerbatimRoutingServer(QueryServer):
    """A ``QueryServer`` whose sharded window-family engines route the
    way they used to (kNN and joins are unchanged by the table)."""

    def _engine(self, key):
        if key not in self._engines and key[0] == "op" and key[2] != "knn":
            family = self._tree(key[1])
            if isinstance(family, ShardedTree):
                self._engines[key] = (
                    VerbatimShardedQueryEngine
                    if key[2] == "window"
                    else VerbatimShardedPointEngine
                )(family)
        return super()._engine(key)

    def root_lookups(self):
        return sum(
            getattr(engine, "root_lookups", 0)
            for engine in self._engines.values()
        )


def routing_pair(directory, cache_pages, dim=2, n=900, seed=90):
    """Two read-only handles on one K=4 family, each its own caches."""
    data = random_rects(n, seed=seed, dim=dim)
    tree = build_prtree(BlockStore(), data, 16)
    path = pathlib.Path(directory) / "route.manifest"
    shard_pack(tree, path, shards=4, block_size=1024)
    values = dict(tree.objects)
    return tuple(
        ShardedTree.open(
            path, values=dict(values), cache_pages=cache_pages, readonly=True
        )
        for _ in range(2)
    )


def one_shard_points(directory, count=3):
    """Centers of stored rectangles that lie in exactly one shard's box,
    found on a third handle so the compared ones stay untouched (one
    per shard that has one)."""
    with ShardedTree.open(
        pathlib.Path(directory) / "route.manifest", readonly=True
    ) as family:
        found = []
        for shard in family.shards:
            for rect, _ in shard.all_data():
                center = rect.center()
                inside = [
                    box for box in family._mbrs
                    if box is not None and box.contains_point(center)
                ]
                if len(inside) == 1:
                    found.append(center)
                    break
    return found[:count]


def assert_same_io(got, want, lookups):
    """Two I/O snapshots: equal, except ``want`` made ``lookups`` more
    page-cache hits (the root peeks)."""
    assert want["hits"] - got["hits"] == lookups
    assert {**got, "hits": 0} == {**want, "hits": 0}


def assert_same_answer(got, want):
    if isinstance(got[0], Matches):
        assert_same_matches(got, want)
    elif isinstance(got[0], Neighbors):
        assert got[1] == want[1]
        assert list(got[0]) == list(want[0])
    else:
        assert got == want


def reading_spans(trace):
    """A trace's spans less any ``shard:<i>`` span that did no I/O: the
    fan-out opened one for every shard it touched, a family's store
    opens one per call it makes to a shard."""
    return [
        span for span in trace.spans
        if span.cat != "shard" or any(span.args["io"].values())
    ]


def assert_same_page_stats(got_family, want_family, lookups):
    got, want = got_family.page_stats, want_family.page_stats
    assert want.hits - got.hits == lookups
    assert dataclasses.replace(got, hits=want.hits) == want


class TestRoutingTableDifferential:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("cache_pages", [32, 1024])
    def test_engines_agree_with_the_verbatim_router(
        self, tmp_path, cache_pages, dim
    ):
        got_family, want_family = routing_pair(tmp_path, cache_pages, dim)
        with got_family, want_family:
            window_engines = (
                QueryEngine(got_family),
                VerbatimShardedQueryEngine(want_family),
            )
            point_engines = (
                PointQueryEngine(got_family),
                VerbatimShardedPointEngine(want_family),
            )
            windows, points = result_probes(dim, seed=91)
            lone = one_shard_points(tmp_path)
            windows += [Rect(c, c) for c in lone]
            points += lone
            calls = [
                (window_engines, lambda e, w=w: e.query(w)) for w in windows
            ] + [
                (point_engines, lambda e, w=w: e.containment_query(w))
                for w in windows
            ] + [
                (point_engines, lambda e, w=w: e.count(w)) for w in windows
            ] + [
                (point_engines, lambda e, p=p: e.point_query(p))
                for p in points
            ]
            oracles = (window_engines[1], point_engines[1])
            # Some probes touch one shard (its answer is returned as
            # is), others several, others none.
            touched = {
                sum(box is not None and box.intersects(w) for box in
                    got_family._mbrs)
                for w in windows
            }
            assert {0, 1} < touched
            # Cold, then warm; untapped, then under a batch-style tap
            # (where the oracle opened a child tap per shard).
            for tapped in (False, True, False, True):
                for (engine, oracle), call in calls:
                    before = oracle.root_lookups
                    with scoped_tap() if tapped else nullcontext() as got_tap:
                        got = call(engine)
                    with scoped_tap() if tapped else nullcontext() as want_tap:
                        want = call(oracle)
                    assert_same_answer(got, want)
                    if tapped:
                        assert_same_io(
                            got_tap.snapshot(),
                            want_tap.snapshot(),
                            oracle.root_lookups - before,
                        )
            for engine, oracle in (window_engines, point_engines):
                assert engine.totals == oracle.totals
            assert [
                (load.reads, load.physical_reads)
                for load in got_family.shard_loads()
            ] == [
                (load.reads, load.physical_reads)
                for load in want_family.shard_loads()
            ]
            lookups = sum(oracle.root_lookups for oracle in oracles)
            assert lookups == 4 * 4 * len(calls)
            assert (
                got_family.counters.snapshot()
                == want_family.counters.snapshot()
            )
            assert_same_page_stats(got_family, want_family, lookups)

    def test_a_traced_batch_agrees_with_the_verbatim_router(self, tmp_path):
        got_family, want_family = routing_pair(tmp_path, cache_pages=32)
        with got_family, want_family:
            got_server = QueryServer({"f": got_family})
            want_server = VerbatimRoutingServer({"f": want_family})
            bounds = got_family.root().mbr()
            for batch_no in range(4):
                requests = mixed_requests(
                    bounds, count=40, seed=300 + batch_no, index="f"
                )
                traced = batch_no % 2 == 1
                got_traces = want_traces = None
                if traced:
                    got_traces, want_traces = (
                        [
                            Trace(i, r.kind, r.kind, sampled=True)
                            for i, r in enumerate(requests)
                        ]
                        for _ in range(2)
                    )
                lookups = want_server.root_lookups()
                got = got_server.submit(requests, got_traces)
                want = want_server.submit(requests, want_traces)
                lookups = want_server.root_lookups() - lookups
                assert lookups > 0
                for a, b in zip(got.results, want.results):
                    assert a.deduped == b.deduped
                    assert_same_answer((a.value, a.stats), (b.value, b.stats))
                for field in (
                    "executed", "dedup_hits", "leaf_ios", "internal_reads",
                    "reported", "physical_reads", "pages_flushed",
                ):
                    assert getattr(got, field) == getattr(want, field), field
                assert_same_io(got.io, want.io, lookups)
                if not traced:
                    continue
                for a, b in zip(got_traces, want_traces):
                    shard_spans = [
                        [
                            (s.name, s.cat, s.track, s.args)
                            for s in reading_spans(trace)
                            if s.cat == "shard"
                        ]
                        for trace in (a, b)
                    ]
                    assert shard_spans[0] == shard_spans[1]
                    assert [s.name for s in reading_spans(a)] == [
                        s.name for s in reading_spans(b)
                    ]
                    assert [e[0] for e in a.events] == [
                        e[0] for e in b.events
                    ]
                    # The oracle's four root peeks, when it routed.
                    a_io, b_io = a.io.snapshot(), b.io.snapshot()
                    extra = b_io["hits"] - a_io["hits"]
                    assert extra in (0, 4)
                    assert_same_io(a_io, b_io, extra)
                    for sa, sb in zip(reading_spans(a), reading_spans(b)):
                        if sa.cat == "engine":
                            assert_same_io(
                                sa.args["io"], sb.args["io"], extra
                            )
            assert (
                got_family.counters.snapshot()
                == want_family.counters.snapshot()
            )
            assert_same_page_stats(
                got_family, want_family, want_server.root_lookups()
            )

    def test_a_one_shard_read_makes_only_its_sub_engines_lookups(
        self, tmp_path
    ):
        got_family, want_family = routing_pair(tmp_path, cache_pages=32)
        with got_family, want_family:
            (center,) = one_shard_points(tmp_path, count=1)
            window = Rect(center, center)
            (owner,) = [
                i for i, box in enumerate(got_family._mbrs)
                if box.contains_point(center)
            ]
            for family, make in (
                (got_family, QueryEngine),
                (want_family, VerbatimShardedQueryEngine),
            ):
                engine = make(family)
                direct_engine = (
                    QueryEngine(family.shards[owner])
                    if make is QueryEngine
                    else engine._subs[owner]
                )
                engine.query(window)  # warm: the root sits in the pool
                direct_engine.query(window)
                log = log_store_accesses(family)
                for i, shard in enumerate(family.shards):
                    store = shard.page_store
                    quiet = store.quiet_peek
                    store.quiet_peek = (
                        lambda block_id, i=i, quiet=quiet:
                        log.append((i, "quiet_peek", block_id))
                        or quiet(block_id)
                    )
                hits = family.page_stats.hits
                routed, routed_stats = engine.query(window)
                routed_log, routed_hits = list(log), family.page_stats.hits - hits
                del log[:]
                hits = family.page_stats.hits
                direct, direct_stats = direct_engine.query(window)
                direct_hits = family.page_stats.hits - hits
                assert routed_stats == direct_stats
                assert routed.values == direct.values
                roots = [
                    (i, "peek", shard.root_id)
                    for i, shard in enumerate(family.shards)
                ]
                if make is QueryEngine:
                    # The router makes no lookup of its own.
                    assert routed_log == log
                    assert routed_hits == direct_hits
                    assert {i for i, _, _ in routed_log} == {owner}
                else:
                    # The old router peeked every root first.
                    assert routed_log == roots + log
                    assert routed_hits == direct_hits + len(roots)

    def test_a_shard_gets_its_own_tap_only_when_traced(
        self, tmp_path, monkeypatch
    ):
        opened = []
        real = shard_module.scoped_tap

        def counting(*args, **kwargs):
            opened.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(shard_module, "scoped_tap", counting)
        family, other = routing_pair(tmp_path, cache_pages=32)
        other.close()
        with family:
            engine = QueryEngine(family)
            everything = family.root().mbr()
            engine.query(everything)  # warm
            with scoped_tap() as batch:
                engine.query(everything)
            assert opened == []
            assert batch.reads > 0
            trace = Trace(1, "window", "window", sampled=True)
            with activate_trace(trace), scoped_tap(trace) as request:
                engine.query(everything)
            assert len(opened) == 4
            spans = [s for s in trace.spans if s.cat == "shard"]
            assert [s.name for s in spans] == [f"shard:{i}" for i in range(4)]
            assert sum(s.args["io"]["reads"] for s in spans) == request.reads
            assert request.reads == batch.reads
