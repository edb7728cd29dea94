"""End-to-end cache analytics through the serving stack.

The exactness contract under real concurrency: the ghost-LRU tracker
hangs off :class:`~repro.storage.paged.PagedNodeStore` and observes the
same page-table lookups :class:`~repro.storage.paged.PageCacheStats`
counts — so after any workload (sharded fan-out, worker threads,
overlapping batches) the tracker's observed hit ratio must equal the
store's measured ratio exactly, and the miss-ratio-curve point at the
configured budget must match it within the 2% the docs promise.  The
``keep_log`` replay closes the loop: a brute-force LRU oracle replayed
over the recorded stream must reproduce the predicted hit counts at
every boundary budget.
"""

import asyncio
import pathlib
import re
import tempfile
from collections import OrderedDict

import pytest

from repro.experiments import cli
from repro.experiments.serving import mixed_requests, pack_index
from repro.obs import MetricsRegistry, ReuseDistanceTracker
from repro.server import QueryServer
from repro.service import AsyncQueryService
from repro.storage import ShardedTree, open_index

CACHE_PAGES = 32


@pytest.fixture(scope="module")
def sharded_index():
    with tempfile.TemporaryDirectory(prefix="repro-cachean-") as tmp:
        index = pathlib.Path(tmp) / "index.manifest"
        pack_index(index, n=6000, shards=3, seed=0)
        yield index


def run_overlapping_batches(tree, batches: int = 6) -> None:
    """Mixed batches whose query regions deliberately revisit earlier
    ones (consecutive seeds share windows)."""
    server = QueryServer(tree)
    bounds = tree.root().mbr()
    for i in range(batches):
        batch = mixed_requests(bounds, count=150, seed=10 + i // 2)
        server.submit(batch)


class TestTrackerMatchesRealCache:
    def test_sharded_fanout_observed_equals_measured(self, sharded_index):
        with open_index(
            sharded_index,
            cache_pages=CACHE_PAGES,
            readonly=True,
            cache_analytics=True,
        ) as tree:
            assert isinstance(tree, ShardedTree)
            run_overlapping_batches(tree)
            for shard in tree.shards:
                store = shard.page_store
                tracker = store.tracker
                stats = store.stats
                lookups = stats.hits + stats.misses
                assert lookups > 0
                assert tracker.accesses == lookups
                # Same lock, same stream: exact agreement, not approx.
                assert tracker.observed_hits == stats.hits
                measured = stats.hits / lookups
                # The acceptance bar: the curve point at the configured
                # budget predicts the real cache within 2 points.
                predicted = tracker.predicted_hits(CACHE_PAGES) / lookups
                assert abs(predicted - measured) <= 0.02

    def test_keep_log_oracle_replay_at_every_budget(self, sharded_index):
        with open_index(
            sharded_index,
            cache_pages=CACHE_PAGES,
            readonly=True,
            cache_analytics=True,
        ) as tree:
            # Swap in logging trackers before any traffic.
            for shard in tree.shards:
                shard.page_store.tracker = ReuseDistanceTracker(
                    capacity=CACHE_PAGES, keep_log=True
                )
            run_overlapping_batches(tree)
            for shard in tree.shards:
                tracker = shard.page_store.tracker
                assert tracker.log, "no accesses logged"
                for budget in tracker.budgets:
                    cache: OrderedDict[int, None] = OrderedDict()
                    hits = 0
                    for block_id, _ in tracker.log:
                        if block_id in cache:
                            hits += 1
                            cache.move_to_end(block_id)
                            continue
                        cache[block_id] = None
                        if len(cache) > budget:
                            cache.popitem(last=False)
                    assert tracker.predicted_hits(budget) == hits, (
                        f"budget {budget}"
                    )

    def test_leaf_internal_split_is_plausible(self, sharded_index):
        with open_index(
            sharded_index,
            cache_pages=CACHE_PAGES,
            readonly=True,
            cache_analytics=True,
        ) as tree:
            for shard in tree.shards:
                shard.page_store.tracker = ReuseDistanceTracker(
                    capacity=CACHE_PAGES, keep_log=True
                )
            run_overlapping_batches(tree, batches=2)
            leaf = internal = 0
            for shard in tree.shards:
                for _, is_leaf in set(shard.page_store.tracker.log):
                    leaf += is_leaf
                    internal += not is_leaf
            # A height-2 tree: many leaves, few internal nodes — but
            # both levels must be observed.
            assert leaf > internal > 0


class TestFamilyAnalytics:
    def test_family_curve_at_the_budget_matches_measured(self, sharded_index):
        with open_index(
            sharded_index,
            cache_pages=CACHE_PAGES,
            readonly=True,
            cache_analytics=True,
        ) as tree:
            run_overlapping_batches(tree)
            stores = [shard.page_store for shard in tree.shards]
            hits = sum(store.stats.hits for store in stores)
            lookups = hits + sum(store.stats.misses for store in stores)
            # Each shard owns a CACHE_PAGES cache, so the family's
            # prediction at that budget sums the per-shard curves.
            predicted = sum(
                store.tracker.predicted_hits(CACHE_PAGES) for store in stores
            )
            assert predicted / lookups == pytest.approx(
                hits / lookups, abs=0.02
            )
            assert all(store.tracker.working_set_sizes() for store in stores)
            assert sum(
                store.tracker.unique_blocks for store in stores
            ) == sum(store.tracker.cold_misses for store in stores)

    def test_registry_is_refreshed_while_the_service_runs(
        self, sharded_index
    ):
        registry = MetricsRegistry()

        async def drive(tree):
            requests = mixed_requests(tree.root().mbr(), count=40, seed=2)
            async with AsyncQueryService(
                tree, metrics=registry, metrics_interval=0.01
            ) as service:
                await service.submit_many(requests)
                await asyncio.sleep(0.1)
                # Read mid-run, before close's final snapshot.
                return registry.render_prometheus()

        with open_index(
            sharded_index, readonly=True, cache_analytics=True
        ) as tree:
            text = asyncio.run(drive(tree))
        assert "repro_requests_completed_total 40" in text
        # The ghost-LRU trackers export their metric families too.
        assert "repro_cache_events_total" in text
        assert "repro_cache_predicted_hit_ratio" in text
        assert "repro_cache_working_set_blocks" in text


class TestStatusGates:
    def test_status_explain_on_a_family(self, sharded_index, capsys):
        assert cli.main(["status", str(sharded_index), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "3 shards" in out
        measured, predicted = re.search(
            r"\(([\d.]+)% measured\); ghost-LRU predicts ([\d.]+)%", out
        ).groups()
        assert measured == predicted

    def test_status_explain_writes_nothing_beside_the_index(
        self, sharded_index, capsys
    ):
        before = sorted(sharded_index.parent.iterdir())
        assert cli.main(["status", str(sharded_index), "--explain"]) == 0
        capsys.readouterr()
        assert sorted(sharded_index.parent.iterdir()) == before

    def test_trace_health_gate_passes_on_good_capture(
        self, sharded_index, tmp_path, capsys
    ):
        out = tmp_path / "t.jsonl"
        assert cli.main(
            ["status", str(sharded_index), "--trace", str(out)]
        ) == 0
        assert out.exists()
        capsys.readouterr()

    def test_trace_health_gate_rejects_low_coverage(
        self, sharded_index, tmp_path, capsys, monkeypatch
    ):
        # The capture loses all but one request.
        monkeypatch.setattr(cli, "load_trace_events", lambda path: [
            {"ph": "X", "pid": 1, "tid": 1, "name": "request:knn",
             "cat": "request", "ts": 0, "dur": 10},
        ])
        code = cli.main(
            ["status", str(sharded_index), "--trace", str(tmp_path / "t")]
        )
        assert code == 1
        assert "only 1 of 8" in capsys.readouterr().err

    def test_trace_health_gate_rejects_broken_nesting(
        self, sharded_index, tmp_path, capsys, monkeypatch
    ):
        # Two spans on one row that overlap without nesting.
        monkeypatch.setattr(cli, "load_trace_events", lambda path: [
            {"ph": "X", "pid": 1, "tid": 1, "name": "a",
             "cat": "service", "ts": 0, "dur": 100},
            {"ph": "X", "pid": 1, "tid": 1, "name": "b",
             "cat": "service", "ts": 50, "dur": 100},
        ])
        code = cli.main(
            ["status", str(sharded_index), "--trace", str(tmp_path / "t")]
        )
        assert code == 1
        assert "span-nesting" in capsys.readouterr().err
