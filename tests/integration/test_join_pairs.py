"""The join's pairs come out of the pair mask as two row-aligned columns.

Three oracles pin it down:

* :class:`~tests.sweep_join_oracle.SweepJoinEngine`, the engine as it
  was with its plane sweep, for the pair multiset and every per-side
  statistic, on PR, H, H4 and TGS trees in memory, as a paged file with
  a small cache and as a K = 4 family;
* ``ScalarJoinEngine`` (``test_vectorized_differential``), a nested
  loop per node pair, for the documented order, pair for pair;
* :func:`~repro.queries.join.brute_force_join` for the answer.

Seeded mutants of the engine must each be caught by them.
"""

import inspect
import pathlib
import textwrap

import numpy as np
import pytest

from repro.bulk.hilbert import build_hilbert, build_hilbert4
from repro.bulk.tgs import build_tgs
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries.join import JoinPairs, SpatialJoinEngine, brute_force_join
from repro.rtree.levels import levels_of
from repro.rtree.query import Matches
from repro.server import InsertRequest, JoinRequest, QueryServer
from repro.storage import PagedTree, ShardedTree, pack_tree, shard_pack
from tests.conftest import random_rects
from tests.integration.test_vectorized_differential import ScalarJoinEngine
from tests.sweep_join_oracle import SweepJoinEngine

LOADERS = {
    "PR": build_prtree,
    "H": build_hilbert,
    "H4": build_hilbert4,
    "TGS": build_tgs,
}
KINDS = ["memory", "paged", "K4"]
FANOUT = 4
LEFT = random_rects(300, seed=51, max_side=0.08)
RIGHT = [(rect, ("r", value)) for rect, value in random_rects(200, seed=52, max_side=0.1)]


def open_kind(kind, tree, directory):
    """``tree`` itself, or an index packed from it with a page cache of
    three pages (per shard for a family)."""
    if kind == "memory":
        return tree
    directory = pathlib.Path(directory)
    values = dict(tree.objects)
    if kind == "paged":
        path = directory / "index.pack"
        pack_tree(tree, path, block_size=512)
        return PagedTree.open(path, values=values, cache_pages=3)
    path = directory / "index.manifest"
    shard_pack(tree, path, shards=int(kind[1:]), block_size=512)
    return ShardedTree.open(path, values=values, cache_pages=3)


def value_pairs(pairs):
    return sorted((a[1], b[1]) for a, b in pairs)


def assert_aligned(pairs):
    """Row ``r`` of ``.left`` meets row ``r`` of ``.right``, and the
    columns agree with the pairs and their values."""
    left, right = pairs.left, pairs.right
    assert len(left) == len(right) == len(pairs)
    assert np.all(left.lo <= right.hi) and np.all(right.lo <= left.hi)
    assert pairs.values == tuple(zip(left.values, right.values))
    assert [(a[1], b[1]) for a, b in pairs] == list(pairs.values)
    for (rect_a, _), (rect_b, _) in pairs:
        assert rect_a.intersects(rect_b)


class TestAgainstTheSweep:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_pairs_and_stats(self, tmp_path, loader, kind):
        build = LOADERS[loader]
        index = open_kind(kind, build(BlockStore(), LEFT, FANOUT), tmp_path)
        other = build(BlockStore(), RIGHT, FANOUT + 1)
        try:
            sides = [
                (index, other, LEFT, RIGHT),
                (other, index, RIGHT, LEFT),
                (index, index, LEFT, LEFT),
            ]
            for a, b, data_a, data_b in sides:
                engine, oracle = SpatialJoinEngine(a, b), SweepJoinEngine(a, b)
                for _ in range(2):  # cold, then warm
                    (pairs, stats), (want, want_stats) = engine.join(), oracle.join()
                    assert isinstance(pairs, JoinPairs)
                    assert value_pairs(pairs) == value_pairs(want)
                    assert value_pairs(pairs) == sorted(brute_force_join(data_a, data_b))
                    assert stats == want_stats
                    assert len(pairs) == stats.pairs
                    assert_aligned(pairs)
        finally:
            close = getattr(index, "close", None)
            if close is not None:
                close()


# ----------------------------------------------------------------------
# Seeded mutants
# ----------------------------------------------------------------------


def check_join():
    """The engine against all three oracles on trees of two loaders
    and fan-outs, both ways round and as a self-join."""
    left = build_prtree(BlockStore(), LEFT, 4)
    right = build_hilbert(BlockStore(), RIGHT, 5)
    for a, b in ((left, right), (right, left), (left, left)):
        pairs, stats = SpatialJoinEngine(a, b).join()
        want, want_stats = ScalarJoinEngine(a, b).join()
        assert pairs == want
        assert stats == want_stats
        sweep, sweep_stats = SweepJoinEngine(a, b).join()
        assert value_pairs(pairs) == value_pairs(sweep)
        assert stats == sweep_stats
        assert_aligned(pairs)


def shifted(matches):
    """``matches`` with its rows (and values) moved down one row."""
    rows = np.roll(matches._rows, 1)
    values = matches.values[-1:] + matches.values[:-1]
    return Matches(matches._frame, rows, values, matches._dim)


def _mutant(function, old, new):
    """``function`` recompiled from its own source with ``old`` replaced
    by ``new`` (which must occur exactly once)."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__, shifted=shifted)
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


MUTANTS = {
    # A leaf pair's pairs come out right row first.
    "right-row-first": (
        "_join_pair",
        "stats.pairs += len(rows_a)",
        "order = np.lexsort((rows_a, rows_b)); "
        "rows_a, rows_b = rows_a[order], rows_b[order]; "
        "stats.pairs += len(rows_a)",
    ),
    # An internal pair reads its left child once per partner.
    "internal-pair-not-grouped-by-left-child": (
        "_join_pair", "if left_id != child_a_id:", "if True:",
    ),
    # A leaf pair's last matching row is lost.
    "last-leaf-row-dropped": (
        "_join_pair",
        "stats.pairs += len(rows_a)",
        "rows_a, rows_b = rows_a[:-1], rows_b[:-1]; stats.pairs += len(rows_a)",
    ),
    # ``.right`` is one row off ``.left``.
    "columns-misaligned-by-one-row": (
        "join",
        "out[1].matches(self._right.tree)",
        "shifted(out[1].matches(self._right.tree))",
    ),
}


def test_unmutated_code_passes():
    check_join()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_caught(monkeypatch, name):
    attribute, old, new = MUTANTS[name]
    function = getattr(SpatialJoinEngine, attribute)
    monkeypatch.setattr(SpatialJoinEngine, attribute, _mutant(function, old, new))
    with pytest.raises(AssertionError):
        check_join()


# ----------------------------------------------------------------------
# The result as a value
# ----------------------------------------------------------------------


class TestJoinPairs:
    def test_a_retained_result_is_a_snapshot(self):
        left = build_prtree(BlockStore(), LEFT, FANOUT)
        right = build_hilbert(BlockStore(), RIGHT, FANOUT)
        pairs, _ = SpatialJoinEngine(left, right).join()
        columns = lambda: (
            pairs.left.ids, pairs.right.ids, pairs.values,
            pairs.left.lo.tolist(), pairs.left.hi.tolist(),
            pairs.right.lo.tolist(), pairs.right.hi.tolist(),
        )
        before = columns()
        for rect, value in random_rects(60, seed=53, max_side=0.2):
            left.insert(rect, ("late", value))
            right.insert(rect, ("late", value))
        assert columns() == before
        assert value_pairs(pairs) == sorted(brute_force_join(LEFT, RIGHT))
        assert_aligned(pairs)

    def test_empty_join(self):
        left = build_prtree(BlockStore(), LEFT, FANOUT)
        right = build_prtree(BlockStore(), [], FANOUT)
        pairs, stats = SpatialJoinEngine(left, right).join()
        assert pairs == [] and stats.pairs == 0
        assert pairs.left.ids == pairs.right.ids == pairs.values == ()

    def test_one_batch_shares_one_result(self):
        left = build_prtree(BlockStore(), LEFT, FANOUT)
        right = build_hilbert(BlockStore(), RIGHT, FANOUT)
        server = QueryServer({"a": left, "b": right})
        report = server.submit([JoinRequest("a", "b"), JoinRequest("a", "b")])
        first, second = report.results
        assert isinstance(first.value, JoinPairs)
        assert second.value is first.value and second.stats is first.stats
        assert value_pairs(first.value) == sorted(brute_force_join(LEFT, RIGHT))

    def test_warm_family_join_after_writes_is_a_fresh_one(self, tmp_path):
        family = open_kind("K4", build_prtree(BlockStore(), LEFT, FANOUT), tmp_path)
        try:
            warm = SpatialJoinEngine(family, family)
            warm.join()
            tables = [levels_of(shard) for shard in family.shards]
            server = QueryServer(family)
            server.submit([
                InsertRequest(rect, ("new", value))
                for rect, value in random_rects(160, seed=54, max_side=0.05)
            ])
            # The batch split a node in every shard, so each shard's
            # table was rebuilt and no paid read carries over.
            assert all(
                levels_of(shard) is not table
                for shard, table in zip(family.shards, tables)
            )
            (got, got_stats), (want, want_stats) = (
                warm.join(), SpatialJoinEngine(family, family).join()
            )
            assert got == want
            assert got_stats == want_stats
            assert_aligned(got)
        finally:
            family.close()
