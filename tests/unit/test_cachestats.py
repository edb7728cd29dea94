"""Unit tests for the ghost-LRU reuse-distance tracker.

The load-bearing property is **exactness**: at every boundary budget,
``predicted_hits(budget)`` must equal the hit count of a brute-force
LRU cache of that size replaying the same access stream.  The bucketed
Mattson stack makes that O(#budgets) per access instead of O(stack
depth), but any ordering mistake in the bucket cascade shows up as a
count drift — so the oracle comparison runs over skewed, uniform and
adversarial streams.
"""

import random
from collections import OrderedDict

import pytest

from repro.obs import ReuseDistanceTracker, default_budgets
from repro.storage.paged import PageCacheStats


class LRUOracle:
    """Textbook LRU cache that only counts hits."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.hits = 0
        self._cache: OrderedDict[int, None] = OrderedDict()

    def touch(self, block_id: int) -> None:
        if block_id in self._cache:
            self.hits += 1
            self._cache.move_to_end(block_id)
            return
        self._cache[block_id] = None
        if len(self._cache) > self.capacity:
            self._cache.popitem(last=False)


def pareto_stream(rng: random.Random, blocks: int, length: int) -> list[int]:
    """A skewed access stream: low block ids are hot."""
    return [
        min(blocks - 1, int(rng.paretovariate(1.2)) - 1)
        for _ in range(length)
    ]


class TestDefaultBudgets:
    def test_ladder_brackets_capacity(self):
        budgets = default_budgets(256)
        assert 256 in budgets
        assert budgets == tuple(sorted(set(budgets)))
        assert budgets[0] >= 1
        assert budgets[-1] == 2048

    def test_tiny_capacity(self):
        budgets = default_budgets(1)
        assert budgets[0] == 1
        assert all(b >= 1 for b in budgets)


class TestGhostExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "blocks,budgets",
        [
            (20, (2, 4, 8, 16)),
            (100, (1, 3, 7, 50, 200)),
            (7, (2, 5, 9)),
        ],
    )
    def test_matches_brute_force_at_every_boundary(
        self, seed, blocks, budgets
    ):
        rng = random.Random(seed)
        stream = pareto_stream(rng, blocks, 4000)
        tracker = ReuseDistanceTracker(budgets=budgets)
        oracles = {b: LRUOracle(b) for b in budgets}
        for block in stream:
            tracker.record(block, is_leaf=True)
            for oracle in oracles.values():
                oracle.touch(block)
        for budget, oracle in oracles.items():
            assert tracker.predicted_hits(budget) == oracle.hits, (
                f"budget {budget}"
            )

    def test_sequential_scan_never_hits_below_working_set(self):
        tracker = ReuseDistanceTracker(budgets=(2, 4))
        for _ in range(3):
            for block in range(10):  # cyclic scan over 10 > 4 blocks
                tracker.record(block, is_leaf=True)
        assert tracker.predicted_hits(2) == 0
        assert tracker.predicted_hits(4) == 0

    def test_hot_loop_all_hits_at_capacity(self):
        tracker = ReuseDistanceTracker(budgets=(4, 8))
        for _ in range(5):
            for block in range(4):
                tracker.record(block, is_leaf=True)
        # First pass is cold; every later access hits in a 4-page cache.
        assert tracker.predicted_hits(4) == 16
        assert tracker.predicted_hits(8) == 16

    def test_non_boundary_budget_is_floor(self):
        tracker = ReuseDistanceTracker(budgets=(2, 8))
        for _ in range(3):
            for block in range(4):
                tracker.record(block, is_leaf=True)
        assert tracker.predicted_hits(5) == tracker.predicted_hits(2)


class TestTrackerViews:
    def test_curve_points_are_cumulative_and_bounded(self):
        rng = random.Random(7)
        tracker = ReuseDistanceTracker(capacity=16)
        for block in pareto_stream(rng, 60, 2000):
            tracker.record(block, is_leaf=block % 3 != 0)
        curve = tracker.miss_ratio_curve()
        assert [p.budget for p in curve] == list(tracker.budgets)
        hits = [p.hits for p in curve]
        assert hits == sorted(hits)  # bigger budget never hits less
        for point in curve:
            assert point.hits + point.misses == tracker.accesses
            assert 0.0 <= point.hit_ratio <= 1.0
            assert point.miss_ratio == pytest.approx(1 - point.hit_ratio)

    def test_observed_hits_reported_by_caller(self):
        tracker = ReuseDistanceTracker(capacity=4)
        tracker.record(1, is_leaf=True, hit=False)
        tracker.record(1, is_leaf=True, hit=True)
        tracker.record(2, is_leaf=True, hit=False)
        assert tracker.observed_hits == 1

    def test_working_set_windows(self):
        tracker = ReuseDistanceTracker(capacity=4)
        for i in range(2000):
            tracker.record(i, is_leaf=True)  # never repeats
        sizes = tracker.working_set_sizes()
        assert sizes[1000] == 1000
        assert sizes[10_000] == 2000
        assert tracker.unique_blocks == 2000
        assert tracker.cold_misses == 2000

    def test_keep_log_records_stream(self):
        tracker = ReuseDistanceTracker(capacity=2, keep_log=True)
        tracker.record(5, is_leaf=True)
        tracker.record(6, is_leaf=False)
        assert tracker.log == [(5, True), (6, False)]

    def test_rejects_empty_budgets(self):
        with pytest.raises(ValueError):
            ReuseDistanceTracker(budgets=(0, -3))


class TestPageCacheStats:
    def test_snapshot_is_independent_copy(self):
        stats = PageCacheStats(hits=5, misses=2, evictions=1, flushes=3)
        snap = stats.snapshot()
        stats.hits += 10
        assert snap.hits == 5
        assert snap.misses == 2
        assert snap.evictions == 1
        assert snap.flushes == 3

    def test_subtract_gives_interval_delta(self):
        before = PageCacheStats(hits=5, misses=2, evictions=1, flushes=3)
        after = PageCacheStats(hits=9, misses=4, evictions=1, flushes=7)
        delta = after - before
        assert (delta.hits, delta.misses) == (4, 2)
        assert (delta.evictions, delta.flushes) == (0, 4)
        assert delta.physical_reads == 2
        assert delta.physical_writes == 4
