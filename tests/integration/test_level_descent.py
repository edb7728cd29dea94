"""The level descent against the depth-first traversal it replaced.

``TraversalEngine`` reads internal nodes from the tree's pinned level
table (:mod:`repro.rtree.levels`) and descends it one level — one kernel
call — at a time.  ``tests/dfs_oracle.py`` keeps the engine it replaced:
an LRU pool of internal nodes per engine and a depth-first traversal.
On every loader, on the simulated store, a paged tree and a K=4 sharded
family, with ``cache_internal`` on and off, every operator must give the
same answers in the same order, the same ``QueryStats``/``JoinStats``
and ``IOCounters``, the same store access sequence (each id of a
``read_many`` stands for its ``peek`` then ``read``) and the same
``PageCacheStats``; EXPLAIN plans must be equal.  Eight seeded mutations
of the new path — five of the descent, three of the page layer's batch
read — must each be caught, and engines kept warm across a
stream of writes must keep answering like fresh engines and brute force.
"""

import inspect
import pathlib
import random
import tempfile
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk.hilbert import build_hilbert, build_hilbert4
from repro.bulk.str_pack import build_str
from repro.bulk.tgs import build_tgs
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries import explain
from repro.queries.join import SpatialJoinEngine
from repro.queries.knn import KNNEngine, brute_force_knn
from repro.queries.point import PointQueryEngine
from repro.rtree import levels
from repro.rtree import query as query_module
from repro.rtree.query import QueryEngine, TraversalEngine
from repro.rtree.rstar import rstar_insert
from repro.storage import open_index, pack_tree
from repro.storage.filestore import FileBlockStore
from repro.storage.paged import PagedNodeStore
from repro.storage.shard import shard_pack

from tests.conftest import random_rects, random_windows
from tests.dfs_oracle import (
    DFSOracleJoinEngine,
    DFSOracleKNNEngine,
    DFSOraclePointEngine,
    DFSOracleQueryEngine,
)
from tests.sharded_oracle import (
    FanoutJoinEngine,
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


class OracleShardedQuery(FanoutQueryEngine):
    _SUB_ENGINE = DFSOracleQueryEngine


class OracleShardedPoint(FanoutPointEngine):
    _SUB_ENGINE = DFSOraclePointEngine


class OracleShardedKNN(FanoutKNNEngine):
    _SUB_ENGINE = DFSOracleKNNEngine


class OracleShardedJoin(FanoutJoinEngine):
    def _engine(self, li, lt, ri, rt):
        engine = self._engines.get((li, ri))
        if engine is None:
            engine = self._engines[(li, ri)] = DFSOracleJoinEngine(
                lt, rt, self._cache_internal
            )
        return engine


def engines_for(index, other, cache_internal=True, oracle=False):
    """(window, point-family, kNN, join) engines on ``index``, the join
    against ``other``."""
    if hasattr(index, "shards") and oracle:
        kinds = (
            OracleShardedQuery, OracleShardedPoint, OracleShardedKNN,
            OracleShardedJoin,
        )
    else:  # a family is one tree to the engines
        kinds = (
            (DFSOracleQueryEngine, DFSOraclePointEngine, DFSOracleKNNEngine,
             DFSOracleJoinEngine)
            if oracle
            else (QueryEngine, PointQueryEngine, KNNEngine, SpatialJoinEngine)
        )
    window, point, knn, join = kinds
    return (
        window(index, cache_internal),
        point(index, cache_internal),
        knn(index, cache_internal),
        join(index, other, cache_internal),
    )


def parts_of(index):
    return getattr(index, "shards", [index])


def log_accesses(*indexes):
    """Every ``peek``/``read`` the engines make on ``indexes``, in order;
    a ``read_many`` logs each of its ids as the ``peek`` then ``read``
    pair it stands for (and not the calls it makes itself)."""
    log, inside = [], []
    for n, index in enumerate(indexes):
        for i, part in enumerate(parts_of(index)):
            store = part.store

            def logged(method, op, where=(n, i)):
                def call(block_id):
                    if not inside:
                        log.append((where, op, block_id))
                    return method(block_id)
                return call

            def logged_many(method, where=(n, i)):
                def call(block_ids, physical=None):
                    for block_id in block_ids:
                        log.extend(((where, "peek", block_id), (where, "read", block_id)))
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


def run_workload(engines, windows, ks=(1, 7)):
    """Every answer, in order, with its statistics."""
    window, point, knn, join = engines
    out = []
    for w in windows:
        out += run_window_family(engines, [w])
        for k in ks:
            neighbors, stats = knn.knn(w.center(), k)
            out.append(("knn", list(neighbors), stats))
    pairs, stats = join.join()
    out.append(("join", pairs, stats))
    return out


def run_window_family(engines, windows):
    """The window, containment, count and point answers, in order."""
    window, point = engines[:2]
    out = []
    for w in windows:
        matches, stats = window.query(w)
        out.append(("window", list(matches), stats))
        matches, stats = point.containment_query(w)
        out.append(("containment", list(matches), stats))
        out.append(("count",) + point.count(w))
        matches, stats = point.point_query(w.center())
        out.append(("point", list(matches), stats))
    return out


def io_state(index):
    """Counters and page-cache statistics of every store under ``index``."""
    return [
        (part.store.counters.snapshot(), getattr(part, "page_stats", None))
        for part in parts_of(index)
    ]


def assert_same_reads(got, want, windows, cache_internal=True, passes=2):
    """``got`` = (index, other) under the engines, ``want`` the same
    under the oracles: the workload, run ``passes`` times on one set of
    engines (cold, then warm), must agree in every observable."""
    got_log = log_accesses(*got)
    want_log = log_accesses(*want)
    engines = engines_for(*got, cache_internal=cache_internal)
    oracles = engines_for(*want, cache_internal=cache_internal, oracle=True)
    family = hasattr(got[0], "shards")
    run = run_window_family if family else run_workload
    for _ in range(passes):
        assert run(engines, windows) == run(oracles, windows)
        count = 2 if family else 4
        assert [e.totals for e in engines[:count]] == [
            e.totals for e in oracles[:count]
        ]
        assert got_log == want_log
        for g, w in zip(got, want):
            assert io_state(g) == io_state(w)
    if family:
        assert_family_knn_and_join(engines, oracles, windows, passes)
    return engines, oracles


def assert_family_knn_and_join(engines, oracles, windows, passes):
    """kNN and the join on a family, after the rest: one best-first
    search reads no more leaves than the fan-out's merged streams, and
    the join reports the fan-out's pairs for its leaf reads on each
    side (it pays each internal node once, not once per partner)."""
    for _ in range(passes):
        for w in windows:
            for k in (1, 7):
                target = w.center()
                assert_knn_as_good(
                    engines[2].knn(target, k), oracles[2].knn(target, k)
                )
        (got_pairs, got), (want_pairs, want) = engines[3].join(), oracles[3].join()
        assert sorted(map(repr, got_pairs)) == sorted(map(repr, want_pairs))
        assert (got.pairs, got.node_pairs) == (want.pairs, want.node_pairs)
        assert got.left.leaf_reads == want.left.leaf_reads
        assert got.right.leaf_reads == want.right.leaf_reads


# ----------------------------------------------------------------------
# Index pairs: the engines' copy and the oracle's, plus a join partner
# for each.
# ----------------------------------------------------------------------

DATA = random_rects(500, seed=31)
OTHER = random_rects(150, seed=32, max_side=0.1)
WINDOWS = random_windows(6, seed=33, side=0.25)


def memory_pairs(loader, data=DATA):
    return [
        (loader(BlockStore(), data, 8), loader(BlockStore(), OTHER, 8))
        for _ in range(2)
    ]


def packed_pairs(loader, directory, shards, cache_pages=6):
    directory = pathlib.Path(directory)
    paths = []
    for name, data in (("index", DATA), ("other", OTHER)):
        tree = loader(BlockStore(), data, 8)
        if shards:
            path = directory / f"{name}.manifest"
            shard_pack(tree, path, shards=shards, block_size=1024)
        else:
            path = directory / f"{name}.pack"
            pack_tree(tree, path, block_size=1024)
        paths.append((path, dict(tree.objects)))
    return [
        tuple(
            open_index(
                path, values=dict(values), cache_pages=cache_pages,
                readonly=True,
            )
            for path, values in paths
        )
        for _ in range(2)
    ]


@pytest.fixture(params=["memory", "paged", "sharded"])
def store_kind(request):
    return request.param


def index_pairs(kind, loader, directory):
    if kind == "memory":
        return memory_pairs(loader)
    return packed_pairs(loader, directory, shards=4 if kind == "sharded" else 0)


def close_all(pairs):
    for pair in pairs:
        for index in pair:
            close = getattr(index, "close", None)
            if close is not None:
                close()


class TestAgainstTheDepthFirstOracle:
    @pytest.mark.parametrize("cache_internal", [True, False])
    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_every_operator(self, tmp_path, store_kind, loader, cache_internal):
        got, want = index_pairs(store_kind, LOADERS[loader], tmp_path)
        try:
            assert_same_reads(got, want, WINDOWS, cache_internal)
        finally:
            close_all((got, want))

    @pytest.mark.parametrize("fanout,n", [(113, 0), (113, 50), (4, 1), (4, 300)])
    def test_heights(self, fanout, n):
        data = random_rects(n, seed=n)
        got, want = [
            (build_prtree(BlockStore(), data, fanout),
             build_prtree(BlockStore(), OTHER, fanout))
            for _ in range(2)
        ]
        assert_same_reads(got, want, WINDOWS)

    def test_after_writes(self):
        # Warm engines on both sides across inserts (that split leaves
        # and grow boxes) and deletes: the table is rebuilt, so both
        # sides pay for its internal nodes again.
        got, want = memory_pairs(build_prtree)
        engines, oracles = assert_same_reads(got, want, WINDOWS)
        extra = random_rects(40, seed=34)
        for (index, _), (rects, cut) in zip(
            (got, want), ((extra, DATA[:30]), (extra, DATA[:30]))
        ):
            for rect, value in rects:
                index.insert(rect, ("new", value))
            for rect, value in cut:
                assert index.delete(rect, value)
        for _ in range(2):
            assert run_workload(engines, WINDOWS) == run_workload(
                oracles, WINDOWS
            )
            assert [e.totals for e in engines] == [e.totals for e in oracles]

    @pytest.mark.parametrize("kind", ["memory", "paged"])
    def test_explain_plans(self, tmp_path, kind):
        got, want = index_pairs(kind, build_prtree, tmp_path)
        try:
            engines = engines_for(*got)
            oracles = engines_for(*want, oracle=True)
            calls = [("join", 3, lambda e, _: e.join())]
            for w in WINDOWS:
                calls += [
                    ("window", 0, lambda e, w=w: e.query(w)),
                    ("count", 1, lambda e, w=w: e.count(w)),
                    ("containment", 1, lambda e, w=w: e.containment_query(w)),
                    ("point", 1, lambda e, w=w: e.point_query(w.center())),
                    ("knn", 2, lambda e, w=w: e.knn(w.center(), 9)),
                ]
            for kind_name, slot, call in calls:
                plans = []
                for side in (engines, oracles):
                    engine = side[slot]
                    recorder = explain.install(engine)
                    _, stats = call(engine, None) if slot == 3 else call(engine)
                    plans.append(
                        explain.uninstall(engine, recorder, kind_name, stats)
                    )
                assert plans[0] == plans[1]
        finally:
            close_all((got, want))


# ----------------------------------------------------------------------
# Seeded mutations of the new path: each must be caught.
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
    "frontier-loses-last-node": (
        TraversalEngine, "_run", TraversalEngine._run,
        "frontier = rows\n", "frontier = rows[:-1] or rows\n",
    ),
    "leaves-not-reversed": (
        TraversalEngine, "_read_leaves", TraversalEngine._read_leaves,
        "(-r - 1, len(steps), -r, ptrs[r])", "(r + 1, len(steps), r, ptrs[r])",
    ),
    # A warm descent (no internal read owed) reads its leaves first row
    # first instead of depth-first.
    "warm-path-forward-order": (
        TraversalEngine, "_read_leaves", TraversalEngine._read_leaves,
        "leaves = [ptrs[r] for r in reversed(frontier)]",
        "leaves = [ptrs[r] for r in frontier]",
    ),
    "first-visit-read-not-counted": (
        TraversalEngine, "_frame", TraversalEngine._frame,
        "stats.internal_reads += 1", "pass",
    ),
    "table-kept-after-insert": (
        query_module, "levels_of", levels.levels_of,
        "table.generation != tree.store.generation", "False",
    ),
    # read_many makes only the read's lookup of each id, not its peek's.
    "batch-skips-peek-event": (
        PagedNodeStore, "read_many", PagedNodeStore.read_many,
        "tap, True, True, physical", "tap, False, True, physical",
    ),
    # Evictions wait for the batch's last id instead of each insert.
    "eviction-deferred-to-batch-end": (
        PagedNodeStore, "_lookup_locked", PagedNodeStore._lookup_locked,
        "if len(pages) > capacity:",
        "if len(pages) > capacity and len(nodes) == len(block_ids):",
    ),
    # A miss leaves the MRU pin on the page pinned before it.
    "pin-not-set-on-miss": (
        PagedNodeStore, "_lookup_locked", PagedNodeStore._lookup_locked,
        "pin_id, pin = block_id, node  # the miss is pinned", "pass",
    ),
    # A lone miss is copied out of the mapping from the next slot.
    "mapping-copies-next-slot": (
        FileBlockStore, "peek_many", FileBlockStore.peek_many,
        "self._map[start : start + size]",
        "self._map[start + size : start + 2 * size]",
    ),
    # The gather reads each miss's next block (the first after the last).
    "gather-reads-next-block": (
        FileBlockStore, "peek_many", FileBlockStore.peek_many,
        "mapped[slots]", "mapped[[(s + 1) % limit for s in slots]]",
    ),
    # The batch's pages are handed to the missed ids in reverse.
    "batch-decoded-out-of-order": (
        PagedNodeStore, "_fill_locked", PagedNodeStore._fill_locked,
        "zip(nodes, decoded)", "zip(nodes, decoded[::-1])",
    ),
}


class TestMutations:
    def check(self, directory):
        got, want = memory_pairs(build_prtree, DATA[:300])
        engines, oracles = assert_same_reads(got, want, WINDOWS)
        # Boxes outside everything indexed so far: the root's entries
        # must grow to reach them.
        far = [
            (Rect((0.96 + i * 0.001, 0.96), (0.97 + i * 0.001, 0.97)), -i)
            for i in range(5)
        ]
        for index, _ in (got, want):
            for rect, value in far:
                index.insert(rect, value)
        corner = [Rect((0.9, 0.9), (1.0, 1.0))] + WINDOWS
        assert run_workload(engines, corner) == run_workload(oracles, corner)
        got, want = packed_pairs(build_prtree, directory, shards=0)
        try:
            assert_same_reads(got, want, WINDOWS)
        finally:
            close_all((got, want))

    def test_unmutated_code_passes(self, tmp_path):
        self.check(tmp_path)

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_caught(self, tmp_path, monkeypatch, name):
        owner, attribute, function, old, new = MUTANTS[name]
        monkeypatch.setattr(owner, attribute, _mutant(function, old, new))
        with pytest.raises(AssertionError):
            self.check(tmp_path)


# ----------------------------------------------------------------------
# Warm engines across writes: an immutable table must never go stale.
# ----------------------------------------------------------------------


def open_writable(kind, tree, directory):
    if kind == "memory":
        return tree
    directory = pathlib.Path(directory)
    if kind == "paged":
        path = directory / "index.pack"
        pack_tree(tree, path, block_size=512)
    else:
        path = directory / "index.manifest"
        shard_pack(tree, path, shards=4, block_size=512)
    return open_index(path, values=dict(tree.objects))


def rstar_into(index, rect, value):
    """R* insert; into a family, on the shard its insert would pick."""
    if not hasattr(index, "shards"):
        rstar_insert(index, rect, value)
        return
    i = index.route(rect)
    shard = index.shards[i]
    shard._next_oid = max(shard._next_oid, index._next_oid)
    index._next_oid = rstar_insert(shard, rect, value) + 1
    index._refresh(i)
    index.size += 1


def probe_answers(engines, window):
    """Every operator's answer on one probe, in result order."""
    query, point, knn, join = engines
    return [
        list(query.query(window)[0]),
        list(point.point_query(window.center())[0]),
        list(point.containment_query(window)[0]),
        point.count(window)[0],
        list(knn.knn(window.center(), 3)[0]),
        join.join()[0],
    ]


def brute_answers(live, window):
    data = sorted(live.items())
    values = lambda pairs: sorted(value for _, value in pairs)
    return [
        values([(r, v) for v, r in data if r.intersects(window)]),
        values([(r, v) for v, r in data if r.contains_point(window.center())]),
        values([(r, v) for v, r in data if window.contains_rect(r)]),
        sum(1 for _, r in data if r.intersects(window)),
        [nb.distance for nb in brute_force_knn(
            [(r, v) for v, r in data], window.center(), 3
        )],
        sorted(
            (va, vb) for va, ra in data for vb, rb in data if ra.intersects(rb)
        ),
    ]


def as_brute(answers):
    return [
        sorted(value for _, value in answers[0]),
        sorted(value for _, value in answers[1]),
        sorted(value for _, value in answers[2]),
        answers[3],
        [nb.distance for nb in answers[4]],
        sorted((a[1], b[1]) for a, b in answers[5]),
    ]


class TestWarmEnginesAcrossWrites:
    @pytest.mark.parametrize("kind", ["memory", "paged", "sharded"])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), steps=st.integers(1, 40))
    def test_warm_engines_match_fresh_and_brute_force(self, kind, seed, steps):
        rng = random.Random(seed)
        n = rng.randrange(0, 12)
        data = random_rects(n, seed=seed, max_side=0.2)
        with tempfile.TemporaryDirectory() as directory:
            index = open_writable(
                kind, build_prtree(BlockStore(), data, 4), directory
            )
            live = {value: rect for rect, value in data}
            warm = engines_for(index, index)
            next_value = n
            try:
                for step in range(steps):
                    # Mostly growth for a third of the stream, then
                    # deletes only: the root splits and later collapses.
                    grow = step < steps // 3 or not live
                    op = rng.random()
                    if grow and op < 0.45 or not live:
                        rect = random_rects(1, seed=rng.random(), max_side=0.2)[0][0]
                        index.insert(rect, next_value)
                        live[next_value] = rect
                        next_value += 1
                    elif grow and op < 0.9:
                        rect = random_rects(1, seed=rng.random(), max_side=0.2)[0][0]
                        rstar_into(index, rect, next_value)
                        live[next_value] = rect
                        next_value += 1
                    else:
                        value = rng.choice(sorted(live))
                        assert index.delete(live.pop(value), value)
                    window = random_windows(
                        1, seed=rng.random(), side=rng.choice([0.1, 0.5])
                    )[0]
                    got = probe_answers(warm, window)
                    assert got == probe_answers(engines_for(index, index), window)
                    assert as_brute(got) == brute_answers(live, window)
            finally:
                close = getattr(index, "close", None)
                if close is not None:
                    close()
