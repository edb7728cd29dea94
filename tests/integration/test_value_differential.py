"""Value resolution against the per-row dictionary lookups it replaced.

Every result resolves its values with one gather: the id column of its
rows, one ``take`` over the tree's :class:`~repro.rtree.tree.ObjectColumn`.
The oracle is the resolution as it was: the depth-first read path of
``tests/dfs_oracle.py`` and the pre-change ``knn`` and sharded merge,
each resolving ``map(get)`` over a plain dict copy of the values (one
per shard, as each shard opened with its own copy).  Over
insert/delete scripts on every loader, on the simulated store, a paged
tree and a K=4 family, results must match in pairs, ids, values (the
very same objects), order, ``QueryStats``, ``IOCounters`` and
``PageCacheStats``.  Three seeded mutations must each be caught.
"""

import inspect
import pathlib
import random
import tempfile
import textwrap
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk.hilbert import build_hilbert, build_hilbert4
from repro.bulk.str_pack import build_str
from repro.bulk.tgs import build_tgs
from repro.geometry.rect import Rect, check_dim
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries.knn import KNNEngine, Neighbors
from repro.queries.point import PointQueryEngine
from repro.rtree.query import QueryEngine, QueryStats, TraversalEngine
from repro.rtree.tree import ObjectColumn
from repro.storage import open_index, pack_tree
from repro.storage.shard import shard_pack

from tests.conftest import matches_of, random_rects, random_windows
from tests.dfs_oracle import (
    DFSOracleKNNEngine,
    DFSOraclePointEngine,
    DFSOracleQueryEngine,
)
from tests.sharded_oracle import (
    FanoutKNNEngine,
    FanoutPointEngine,
    FanoutQueryEngine,
    assert_knn_as_good,
)

LOADERS = {
    "PR": build_prtree,
    "H": build_hilbert,
    "H4": build_hilbert4,
    "TGS": build_tgs,
    "STR": build_str,
}

# Every value a distinct object, so "the same value" can be checked by
# identity.
DATA = [(rect, ("v", i)) for i, (rect, _) in enumerate(random_rects(150, seed=51))]


# ----------------------------------------------------------------------
# The oracle: the pre-change value resolution, verbatim, adapted only
# at its node edge (row kernels return index arrays, pointers a column)
# ----------------------------------------------------------------------


class OracleKNN(DFSOracleKNNEngine):
    def knn(self, target, k):
        if k < 0:
            raise ValueError("k must be >= 0")
        check_dim(target, self.tree.dim)
        stats = QueryStats()
        hits = list(islice(self._hits(target, stats), k))
        stats.queries = 1  # also when k == 0 never starts the stream
        self.totals.merge(stats)
        return Neighbors(
            hits, map(self.tree.objects.get, map(lambda hit: hit[3], hits))
        ), stats


def oracle_concat(results, dim):
    results = list(results)
    if len(results) == 1:
        return results[0]
    return matches_of(
        [(result._frame, result._rows) for result in results if result],
        [value for result in results for value in result._values],
        dim,
    )


class OracleFanout:
    def _scatter(self, shape, hits, call, merge=None):
        if merge is None:
            merge = lambda found: oracle_concat(found, self.sharded.dim)
        return super()._scatter(shape, hits, call, merge)


class OracleShardedQuery(OracleFanout, FanoutQueryEngine):
    _SUB_ENGINE = DFSOracleQueryEngine


class OracleShardedPoint(OracleFanout, FanoutPointEngine):
    _SUB_ENGINE = DFSOraclePointEngine


class OracleShardedKNN(FanoutKNNEngine):
    _SUB_ENGINE = OracleKNN

    def knn(self, target, k):
        if k < 0:
            raise ValueError("k must be >= 0")
        check_dim(target, self.sharded.dim)
        stats = [QueryStats() for _ in self._subs]
        found = list(islice(self._hits(target, stats), k))
        for sub, part in zip(self._subs, stats):
            sub.totals.merge(part)
        values = [
            self._subs[shard].tree.objects.get(hit[3]) for shard, hit in found
        ]
        return (
            Neighbors([hit for _, hit in found], values),
            self._merge_stats(stats),
        )


def engines_for(index, oracle):
    if hasattr(index, "shards") and oracle:
        kinds = (OracleShardedQuery, OracleShardedPoint, OracleShardedKNN)
    else:  # a family is one tree to the engines
        kinds = (
            (DFSOracleQueryEngine, DFSOraclePointEngine, OracleKNN)
            if oracle
            else (QueryEngine, PointQueryEngine, KNNEngine)
        )
    return [kind(index) for kind in kinds]


# ----------------------------------------------------------------------
# Index pairs: the engines' copy and the oracle's (values in dicts)
# ----------------------------------------------------------------------


def parts_of(index):
    return getattr(index, "shards", [index])


def index_pair(kind, loader, directory):
    tree = loader(BlockStore(), DATA, 6)
    if kind == "memory":
        pair = [tree, loader(BlockStore(), DATA, 6)]
    else:
        # Each side writes its own files: two writers on one file would
        # each place write-backs in slots the other thinks free.
        values = dict(tree.objects)
        pair = []
        for side in ("got", "want"):
            side_dir = pathlib.Path(directory) / side
            side_dir.mkdir()
            if kind == "paged":
                path = side_dir / "index.pack"
                pack_tree(tree, path, block_size=512)
            else:
                path = side_dir / "index.manifest"
                shard_pack(tree, path, shards=4, block_size=512)
            pair.append(open_index(path, values=values, cache_pages=8))
    for part in parts_of(pair[1]):
        part.objects = dict(part.objects)  # the oracle's dict copy
    return pair


def run_script(pair, script):
    """The same script on both sides, with the same value objects."""
    fresh = [("new", step) for step in range(len(script))]
    for index in pair:
        pairs = list(DATA)
        for step, (insert, seed) in enumerate(script):
            if insert or not pairs:
                rng = random.Random(seed)
                x, y = rng.random(), rng.random()
                side = rng.random() * 0.1
                rect = Rect((x, y), (x + side, y + side))
                index.insert(rect, fresh[step])
                pairs.append((rect, fresh[step]))
            else:
                rect, value = pairs.pop(seed % len(pairs))
                assert index.delete(rect, value)


def same_result(got, want):
    (got_result, got_stats), (want_result, want_stats) = got, want
    assert type(got_result) is type(want_result)
    assert got_stats == want_stats
    assert len(got_result) == len(want_result)
    assert got_result.ids == want_result.ids
    assert all(type(oid) is int for oid in got_result.ids)
    assert len(got_result.values) == len(want_result.values)
    assert all(a is b for a, b in zip(got_result.values, want_result.values))
    assert list(got_result) == list(want_result)


def io_state(index):
    return [
        (part.store.counters.snapshot(), getattr(part, "page_stats", None))
        for part in parts_of(index)
    ]


def assert_same_answers(pair, windows):
    got, want = pair
    engines = engines_for(got, oracle=False)
    oracles = engines_for(want, oracle=True)
    (query, point, knn), (o_query, o_point, o_knn) = engines, oracles
    # A family's kNN is one best-first search, not the fan-out's merged
    # streams: held to the same neighbors for no more leaf reads, after
    # the rest (it may leave the page caches in another state).
    family = hasattr(got, "shards")
    for window in windows:
        same_result(query.query(window), o_query.query(window))
        same_result(
            point.point_query(window.center()),
            o_point.point_query(window.center()),
        )
        same_result(
            point.containment_query(window), o_point.containment_query(window)
        )
        assert point.count(window) == o_point.count(window)
        for k in () if family else (1, 7, 40):
            target = window.center()
            same_result(knn.knn(target, k), o_knn.knn(target, k))
    assert [e.totals for e in engines] == [e.totals for e in oracles]
    assert io_state(got) == io_state(want)
    for window in windows if family else ():
        for k in (1, 7, 40):
            got_knn = knn.knn(window.center(), k)
            assert_knn_as_good(got_knn, o_knn.knn(window.center(), k))
            nbs = got_knn[0]
            assert all(
                value is got.objects.get(oid)
                for value, oid in zip(nbs.values, nbs.ids)
            )


def close_all(pair):
    for index in pair:
        close = getattr(index, "close", None)
        if close is not None:
            close()


SCRIPTS = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=10**6)),
    max_size=30,
)


class TestAgainstDictResolution:
    @pytest.mark.parametrize("kind", ["memory", "paged", "sharded"])
    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @settings(max_examples=10, deadline=None)
    @given(script=SCRIPTS, seed=st.integers(min_value=0, max_value=50))
    def test_scripts(self, kind, loader, script, seed):
        with tempfile.TemporaryDirectory() as directory:
            pair = index_pair(kind, LOADERS[loader], directory)
            try:
                run_script(pair, script)
                windows = random_windows(4, seed=seed, side=0.35)
                assert_same_answers(pair, windows)
            finally:
                close_all(pair)


# ----------------------------------------------------------------------
# Seeded mutations: each must be caught
# ----------------------------------------------------------------------


def _mutant(function, old, new):
    """``function`` recompiled from its own source with ``old`` replaced
    by ``new`` (which must occur exactly once)."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


MUTANTS = {
    # The gather takes each row's neighbour's id.
    "gather-off-by-one-row": (
        TraversalEngine, "_run", TraversalEngine._run,
        "tree.objects.take(frame.ptrs[rows])",
        "tree.objects.take(frame.ptrs[rows - 1])",
    ),
    # An insert past the column's capacity stores nothing, so the fresh
    # value resolves to None.
    "column-not-grown-on-insert": (
        ObjectColumn, "__setitem__", ObjectColumn.__setitem__,
        "    self._reserve(key + 1)\n",
        "    if key >= len(self._present):\n        return\n",
    ),
}

MUTATION_SCRIPT = [(True, seed) for seed in range(12)] + [
    (False, seed) for seed in range(0, 60, 7)
]
BIG_WINDOWS = [Rect((0.0, 0.0), (1.0, 1.0)), Rect((0.1, 0.2), (0.9, 0.7))]


class TestMutations:
    def check(self):
        for kind in ("memory", "paged", "sharded"):
            with tempfile.TemporaryDirectory() as directory:
                pair = index_pair(kind, build_prtree, directory)
                try:
                    run_script(pair, MUTATION_SCRIPT)
                    assert_same_answers(pair, BIG_WINDOWS)
                finally:
                    close_all(pair)

    def test_unmutated_code_passes(self):
        self.check()

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_caught(self, monkeypatch, name):
        owner, attribute, function, old, new = MUTANTS[name]
        monkeypatch.setattr(owner, attribute, _mutant(function, old, new))
        with pytest.raises(AssertionError):
            self.check()
