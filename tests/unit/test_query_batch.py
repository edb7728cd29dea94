"""Window batches: ``QueryEngine.query_batch`` and the server path.

The contract under test (``docs/query-engine.md``): a batch traversal
returns **bit-identical** results to running each window solo, per-query
``leaf_reads``/``internal_visits``/``reported`` equal the solo run
(as-if-solo accounting), and the store sees *fewer* logical reads
because shared pages are fetched once per batch. The server executes a
batch of windows one request at a time, in arrival order, and must
answer each exactly as a batch of one would.
"""

import pytest

from repro.bulk.hilbert import build_hilbert
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.rtree.query import QueryEngine
from repro.server import CountRequest, QueryServer, WindowRequest

from tests.conftest import random_rects, random_windows


@pytest.fixture(scope="module")
def tree():
    return build_prtree(BlockStore(), random_rects(1500, seed=41), 16)


@pytest.fixture(scope="module")
def windows():
    return random_windows(12, seed=42)


class TestQueryBatch:
    def test_results_identical_to_solo(self, tree, windows):
        batch_matches, _ = QueryEngine(tree).query_batch(windows)
        for window, got in zip(windows, batch_matches):
            want, _ = QueryEngine(tree).query(window)
            assert got == want  # same matches, same order

    def test_stats_are_as_if_solo(self, tree, windows):
        _, batch_stats = QueryEngine(tree).query_batch(windows)
        for window, got in zip(windows, batch_stats):
            _, want = QueryEngine(tree).query(window)
            assert got.leaf_reads == want.leaf_reads
            assert got.internal_visits == want.internal_visits
            assert got.reported == want.reported
            assert got.queries == 1

    def test_store_reads_deduplicated(self, tree, windows):
        counters = tree.store.counters
        before = counters.reads
        QueryEngine(tree).query_batch(windows)
        batch_reads = counters.reads - before
        before = counters.reads
        for window in windows:
            QueryEngine(tree).query(window)
        solo_reads = counters.reads - before
        assert batch_reads < solo_reads

    def test_internal_misses_attributed_once(self, tree, windows):
        _, batch_stats = QueryEngine(tree).query_batch(windows)
        solo_total = 0
        for window in windows:
            _, stats = QueryEngine(tree).query(window)
            solo_total += stats.internal_reads
        assert sum(s.internal_reads for s in batch_stats) <= solo_total
        # The root miss lands on exactly one query of the batch.
        assert sum(s.internal_reads for s in batch_stats) >= 1

    def test_totals_accumulate(self, tree, windows):
        engine = QueryEngine(tree)
        _, batch_stats = engine.query_batch(windows)
        assert engine.totals.queries == len(windows)
        assert engine.totals.reported == sum(
            s.reported for s in batch_stats
        )

    def test_empty_and_singleton_batches(self, tree, windows):
        engine = QueryEngine(tree)
        matches, stats = engine.query_batch([])
        assert matches == [] and stats == []
        (matches,), (stats,) = engine.query_batch(windows[:1])
        want_matches, want_stats = QueryEngine(tree).query(windows[0])
        assert matches == want_matches
        assert stats.leaf_reads == want_stats.leaf_reads

    def test_disjoint_window_matches_nothing(self, tree):
        far = Rect((5.0, 5.0), (6.0, 6.0))
        (matches,), (stats,) = QueryEngine(tree).query_batch([far])
        assert matches == []
        assert stats.reported == 0

    def test_other_tree_variant(self, windows):
        hil = build_hilbert(BlockStore(), random_rects(800, seed=43), 9)
        batch_matches, batch_stats = QueryEngine(hil).query_batch(windows)
        for window, got_m, got_s in zip(windows, batch_matches, batch_stats):
            want_m, want_s = QueryEngine(hil).query(window)
            assert got_m == want_m
            assert got_s.leaf_reads == want_s.leaf_reads


class TestServerBatchWindows:
    """A server batch of window requests runs one request at a time, in
    arrival order; ``query_batch`` has no serving caller."""

    def _window_batch(self, windows):
        return [WindowRequest(w) for w in windows]

    def test_results_match_per_request_execution(self, tree, windows):
        server = QueryServer(tree)
        requests = self._window_batch(windows)
        got = server.submit(list(requests))
        want = [server.submit([r]).results[0] for r in requests]
        for a, b in zip(got.results, want):
            assert a.value == b.value
            assert a.stats.leaf_reads == b.stats.leaf_reads
            assert a.stats.internal_visits == b.stats.internal_visits
            assert a.stats.reported == b.stats.reported
        assert got.leaf_ios == sum(r.stats.leaf_reads for r in want)

    def test_batch_path_reduces_store_reads(self, tree, windows):
        # The price of arrival order: the server fetches a page once per
        # query that visits it, ``query_batch`` once per batch.
        counters = tree.store.counters
        before = counters.reads
        QueryServer(tree).submit(self._window_batch(windows))
        server_reads = counters.reads - before
        before = counters.reads
        QueryEngine(tree).query_batch(windows)
        batch_reads = counters.reads - before
        assert batch_reads < server_reads

    def test_dedup_still_applies(self, tree, windows):
        server = QueryServer(tree)
        repeated = self._window_batch(windows) + self._window_batch(windows)
        report = server.submit(repeated)
        assert report.dedup_hits == len(windows)
        for i, result in enumerate(report.results):
            assert result.value == report.results[i % len(windows)].value

    def test_mixed_batches_fall_back_per_request(self, tree, windows):
        server = QueryServer(tree)
        requests = [
            WindowRequest(windows[0]),
            CountRequest(windows[1]),
            WindowRequest(windows[2]),
        ]
        report = server.submit(requests)
        want_w0, _ = QueryEngine(tree).query(windows[0])
        assert report.results[0].value == want_w0
        count = report.results[1].value
        want_count, _ = QueryEngine(tree).query(windows[1])
        assert count == len(want_count)
        want_w2, _ = QueryEngine(tree).query(windows[2])
        assert report.results[2].value == want_w2

    def test_single_window_runs_solo(self, tree, windows):
        server = QueryServer(tree)
        report = server.submit([WindowRequest(windows[0])])
        want, _ = QueryEngine(tree).query(windows[0])
        assert report.results[0].value == want

