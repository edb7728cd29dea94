"""``read_many`` against the ``peek``/``read`` loop it replaced.

The page layer's ``PagedNodeStore.read_many`` makes, under one lock
hold and in one pass over its ids, the page-table lookups of a ``peek``
then a ``read`` of each id, and fills its misses from one gather out of
the file's mapping and one batch decode.  ``tests/peek_read_oracle.py``
keeps the engines' old per-block access path and the page layer's old
``peek`` and ``read``, one event at a time.
On two identical writable stores — cache sizes 0, 1, 2, 32 and 1024,
ghost-LRU tracking on, dirty pages in the cache or committed —
random id lists (duplicates, internal ids, adjacent and scattered
slots), read in one ``read_many`` or as lone ``peek``s and ``read``s,
must give equal frames (values, dtypes, contiguous rows),
``PageCacheStats``, ``IOCounters``, tap ledgers, tracker logs, cache
state and EXPLAIN page misses; the engines built on both must give
equal answers, statistics and plans.  Also here: hostile page headers
fail loudly, and a miss or a lone ``peek`` on a page written back but
not yet synced reads the written bytes.  The batch's seeded mutations
live with the descent's in ``test_level_descent.py``.
"""

import random
import shutil

import pytest

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.obs.tap import scoped_tap
from repro.prtree.prtree import build_prtree
from repro.queries import explain
from repro.queries.knn import KNNEngine
from repro.queries.point import PointQueryEngine
from repro.rtree.query import QueryEngine, brute_force_query
from repro.rtree.validate import validate_rtree
from repro.storage import open_index, pack_tree
from repro.storage.filestore import FileBlockStore, StorageError

from tests.conftest import random_rects, random_windows
from tests.peek_read_oracle import (
    PeekReadKNNEngine,
    PeekReadPointEngine,
    PeekReadQueryEngine,
    as_oracle,
    peek_read_each,
)

DATA = random_rects(400, seed=71, max_side=0.08)
WINDOWS = random_windows(6, seed=72, side=0.3)


def packed(directory, data=DATA, fanout=8, block_size=512):
    tree = build_prtree(BlockStore(), data, fanout)
    path = directory / "index.pack"
    pack_tree(tree, path, block_size=block_size)
    return path, dict(tree.objects)


def twin_trees(directory, cache_pages):
    """Two identical writable trees, from two copies of one file, with
    the tracker keeping its access log; the second's store serves
    ``peek`` and ``read`` the pre-change way."""
    path, values = packed(directory)
    shutil.copy(path, directory / "twin.pack")
    trees = [
        open_index(
            p, values=dict(values), cache_pages=cache_pages,
            cache_analytics=True,
        )
        for p in (path, directory / "twin.pack")
    ]
    for tree in trees:
        tree.page_store.tracker.log = []
    as_oracle(trees[1])
    return trees


def insert_both(trees, rng, count, commit=False):
    """Insert into both trees; with ``commit``, sync them after: the
    dirty pages are written back and the shadow-map commit moves the
    written blocks to fresh slots and recycles the old ones."""
    for rect, value in random_rects(count, seed=rng.random(), max_side=0.05):
        for tree in trees:
            tree.insert(rect, ("new", value))
    if commit:
        for tree in trees:
            tree.sync()


def page_state(tree):
    """Every observable of one paged tree's store."""
    store = tree.page_store
    return (
        store.stats,
        store.counters.snapshot(),
        store.tracker.log,
        store.tracker.observed_hits,
        list(store._pages),
        sorted(store._dirty),
        None if store._mru is None else store._mru[0],
    )


def assert_same_frames(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        fa, fb = a.frame(), b.frame()
        assert a.is_leaf is b.is_leaf and fa.is_leaf is fb.is_leaf
        for side in ("box", "ptrs"):
            x, y = getattr(fa, side), getattr(fb, side)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
            # Every row contiguous (a batch decode's box is a slice).
            for z in (x, y):
                assert not z.size or z.strides[-1] == z.itemsize


def id_lists(ids, rng, count):
    """Random access lists: scattered, with duplicates, adjacent runs
    up and down, empty and single."""
    yield []
    for _ in range(count):
        shape = rng.randrange(4)
        if shape == 0:
            yield [rng.choice(ids) for _ in range(rng.randrange(1, 30))]
        elif shape == 1:
            pool = rng.sample(ids, min(4, len(ids)))
            yield [rng.choice(pool) for _ in range(rng.randrange(1, 12))]
        else:
            start = rng.randrange(len(ids))
            run = ids[start : start + rng.randrange(1, 20)]
            yield run[::-1] if shape == 3 else run


class TestAgainstThePeekReadLoop:
    @pytest.mark.parametrize("commit", [False, True])
    @pytest.mark.parametrize("cache_pages", [0, 1, 2, 32])
    def test_random_id_lists(self, tmp_path, cache_pages, commit):
        rng = random.Random(cache_pages * 2 + commit)
        got, want = twin_trees(tmp_path, cache_pages)
        try:
            for round_ in range(4):
                # Dirty pages and new blocks; committed, recycled slots.
                insert_both((got, want), rng, 6, commit)
                ids = sorted(got.page_store.block_ids())
                assert ids == sorted(want.page_store.block_ids())
                for n, block_ids in enumerate(id_lists(ids, rng, 25)):
                    armed = n % 2 == 0
                    physical = ({}, {}) if armed else (None, None)
                    ops = [rng.choice(("peek", "read")) for _ in block_ids]
                    with scoped_tap() as tap_got:
                        if n % 3:
                            nodes = got.page_store.read_many(block_ids, physical[0])
                        else:  # lone peeks and reads
                            nodes = [getattr(got.page_store, op)(block_id)
                                     for op, block_id in zip(ops, block_ids)]
                    with scoped_tap() as tap_want:
                        if n % 3:
                            oracle = peek_read_each(want, block_ids, physical[1])
                        else:
                            oracle = [getattr(want.page_store, op)(block_id)
                                      for op, block_id in zip(ops, block_ids)]
                    assert_same_frames(nodes, oracle)
                    assert tap_got.snapshot() == tap_want.snapshot()
                    assert physical[0] == physical[1]
                    assert page_state(got) == page_state(want)
            assert got.page_stats.misses > 0 and got.page_stats.hits > 0
        finally:
            got.close()
            want.close()

    @pytest.mark.parametrize("cache_pages", [0, 1, 32, 1024])
    def test_tracker_and_explain_armed(self, tmp_path, cache_pages):
        # Every batch with the ghost tracker recording and EXPLAIN's
        # physical map armed, dirty pages flushed as they are evicted,
        # and batches that come back to their first ids after turning
        # the cache over (evictions are made at each insert).
        rng = random.Random(40 + cache_pages)
        got, want = twin_trees(tmp_path, cache_pages)
        try:
            insert_both((got, want), rng, 6)
            ids = sorted(got.page_store.block_ids())
            lists = list(id_lists(ids, rng, 20))
            lists += [ids[:n] + ids[:n][::-1] for n in (2, 33, len(ids))]
            for block_ids in lists:
                physical = ({}, {})
                with scoped_tap() as tap_got:
                    nodes = got.page_store.read_many(block_ids, physical[0])
                with scoped_tap() as tap_want:
                    oracle = peek_read_each(want, block_ids, physical[1])
                assert_same_frames(nodes, oracle)
                assert tap_got.snapshot() == tap_want.snapshot()
                assert physical[0] == physical[1]
                assert page_state(got) == page_state(want)
            # The tracker saw every lookup with its real outcome.
            store = got.page_store
            assert store.tracker.observed_hits == store.stats.hits > 0
            assert store.tracker.accesses == store.stats.hits + store.stats.misses
        finally:
            got.close()
            want.close()

    def test_simulated_store(self):
        trees = [build_prtree(BlockStore(), DATA, 8) for _ in range(2)]
        ids = sorted(trees[0].store.block_ids())
        rng = random.Random(5)
        for block_ids in id_lists(ids, rng, 20):
            physical = ({}, {})
            nodes = trees[0].store.read_many(block_ids, physical[0])
            oracle = peek_read_each(trees[1], block_ids, physical[1])
            assert_same_frames(nodes, oracle)
            assert all(  # the stored payloads themselves
                node is trees[0].store.peek(block_id)
                for node, block_id in zip(nodes, block_ids)
            )
            assert physical[0] == physical[1] == dict.fromkeys(block_ids, 0)
            assert trees[0].store.counters.snapshot() == (
                trees[1].store.counters.snapshot()
            )

    @pytest.mark.parametrize("commit", [False, True])
    @pytest.mark.parametrize("cache_pages", [0, 1, 32])
    def test_engines(self, tmp_path, cache_pages, commit):
        got, want = twin_trees(tmp_path, cache_pages)
        try:
            pairs = [
                (QueryEngine(got), PeekReadQueryEngine(want)),
                (PointQueryEngine(got), PeekReadPointEngine(want)),
                (KNNEngine(got), PeekReadKNNEngine(want)),
            ]
            rng = random.Random(cache_pages)
            for n, window in enumerate(WINDOWS * 2):
                if n == len(WINDOWS):
                    insert_both((got, want), rng, 10, commit)
                calls = [
                    ("window", 0, lambda e: e.query(window)),
                    ("count", 1, lambda e: e.count(window)),
                    ("point", 1, lambda e: e.point_query(window.center())),
                    ("knn", 2, lambda e: e.knn(window.center(), 25)),
                ]
                for kind, slot, call in calls:
                    answers, plans = [], []
                    for engine in pairs[slot]:
                        recorder = explain.install(engine) if n % 2 else None
                        answer, stats = call(engine)
                        answers.append((list(answer) if kind != "count" else answer, stats))
                        if recorder is not None:
                            plans.append(
                                explain.uninstall(engine, recorder, kind, stats)
                            )
                    assert answers[0] == answers[1]
                    assert plans[:1] == plans[1:]
                    assert page_state(got) == page_state(want)
            for a, b in pairs:
                assert a.totals == b.totals
        finally:
            got.close()
            want.close()


# ----------------------------------------------------------------------
# Hostile page headers: a clear StorageError naming block and file.
# ----------------------------------------------------------------------


def corrupt(path, block_id, flag=None, count=None):
    """Rewrite one block's header in place (committed, as a torn or
    hostile file would hold it)."""
    store = FileBlockStore.open(path)
    try:
        block = bytearray(store.peek(block_id))
        if flag is not None:
            block[0] = flag
        if count is not None:
            block[1:5] = count.to_bytes(4, "little")
        store.write_back(block_id, bytes(block))
    finally:
        store.close()


def kinds(path, values):
    tree = open_index(path, values=values, readonly=True)
    try:
        return {
            block_id: tree.page_store.quiet_peek(block_id).is_leaf
            for block_id in tree.page_store.block_ids()
        }
    finally:
        tree.close()


class TestHostileHeaders:
    @pytest.mark.parametrize(
        "flag,count,message",
        [(7, None, "leaf flag 7"), (None, 1000, "entry count 1000")],
    )
    @pytest.mark.parametrize("leaf", [True, False])
    def test_raises_storage_error(self, tmp_path, flag, count, message, leaf):
        path, values = packed(tmp_path)
        block_id = max(b for b, is_leaf in kinds(path, values).items() if is_leaf == leaf)
        corrupt(path, block_id, flag, count)
        everything = Rect((-1.0, -1.0), (2.0, 2.0))
        reads = [
            lambda tree: QueryEngine(tree).query(everything),
            lambda tree: KNNEngine(tree).knn((0.5, 0.5), len(DATA)),
            lambda tree: validate_rtree(tree),
        ]
        for read in reads:
            tree = open_index(path, values=values, cache_pages=4)
            try:
                with pytest.raises(StorageError) as caught:
                    read(tree)
                text = str(caught.value)
                assert f"block {block_id}:" in text and message in text
                assert str(path) in text
                # No empty page is left behind in the cache.
                assert all(
                    hasattr(node, "_frame")
                    for node in tree.page_store._pages.values()
                )
            finally:
                tree.close()


# ----------------------------------------------------------------------
# A miss on a page written back but not synced reads the written bytes.
# ----------------------------------------------------------------------


def check_coherence(directory):
    """Inserts through a one-page cache write dirty pages back as they
    are evicted; then one leaf entry shrinks, leaving that leaf the one
    dirty page.  A window's ``read_many`` evicts it (written back, not
    synced) at its first access and misses it later in the same batch:
    the answer must hold the shrunk entry."""
    path, values = packed(directory, DATA[:120])
    tree = open_index(path, values=dict(values), cache_pages=1)
    live = {value: rect for rect, value in DATA[:120]}
    try:
        for rect, value in random_rects(40, seed=73, max_side=0.05):
            tree.insert(rect, ("new", value))
            live[("new", value)] = rect
        store = tree.page_store
        assert store.stats.flushes > 0
        leaf_id = max(b for b in store.block_ids() if store.quiet_peek(b).is_leaf)
        leaf = tree.read_node(leaf_id)
        rect, oid = leaf.entry(0)
        leaf.replace(0, Rect(rect.lo, rect.lo), oid)
        tree.write_node(leaf_id, leaf)
        live[tree.objects[oid]] = Rect(rect.lo, rect.lo)
        assert list(store._pages) == sorted(store._dirty) == [leaf_id]
        everything = Rect((-1.0, -1.0), (2.0, 2.0))
        flushes = store.stats.flushes
        answer, _ = QueryEngine(tree).query(everything)
        assert store.stats.flushes == flushes + 1 and store.file_store.dirty
        data = [(rect, value) for value, rect in live.items()]
        assert sorted(map(repr, answer)) == sorted(
            map(repr, brute_force_query(data, everything))
        )
        tree.sync()
        tree.close()
        tree = open_index(path, values=dict(values))
        again, _ = QueryEngine(tree).query(everything)
        rows = lambda m: sorted(zip(m.ids, m.lo.tolist(), m.hi.tolist()))
        assert rows(again) == rows(answer)
    finally:
        tree.close()


def check_peek_after_write_back(directory):
    """Through a one-page cache, a leaf made dirty is evicted (written
    back, not synced) by the write of another leaf, with no read between:
    a ``peek`` and a ``read`` of it must give the written bytes."""
    path, values = packed(directory, DATA[:120])
    tree = open_index(path, values=dict(values), cache_pages=1)
    try:
        store = tree.page_store
        leaf_id, other_id = [
            b for b in store.block_ids() if store.quiet_peek(b).is_leaf
        ][:2]
        other = tree.read_node(other_id)
        leaf = tree.read_node(leaf_id)
        rect, oid = leaf.entry(0)
        leaf.replace(0, Rect(rect.lo, rect.lo), oid)
        tree.write_node(leaf_id, leaf)
        flushes = store.stats.flushes
        tree.write_node(other_id, other)
        assert store.stats.flushes == flushes + 1 and store.file_store.dirty
        frame = leaf.frame()
        written = store.codec.encode_arrays(frame.is_leaf, frame.box, frame.ptrs)
        assert store.file_store.peek(leaf_id) == written
        assert store.file_store.read(leaf_id) == written
    finally:
        tree.close()


class TestReadAfterWriteBack:
    def test_unsynced_write_back_is_read(self, tmp_path):
        check_coherence(tmp_path)

    def test_unsynced_write_back_is_peeked(self, tmp_path):
        check_peek_after_write_back(tmp_path)
