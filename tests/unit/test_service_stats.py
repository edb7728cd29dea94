"""Unit tests for the serving layer's streaming latency statistics."""

import math
import random

import pytest

from repro.service import LatencyHistogram, ServiceStats


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert len(h) == 0
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0

    def test_single_sample_percentiles_are_exact(self):
        h = LatencyHistogram()
        h.observe(0.0123)
        # min/max clamping makes a single-sample histogram exact.
        for p in (0, 50, 99, 100):
            assert h.percentile(p) == pytest.approx(0.0123)

    def test_percentile_relative_error_bound(self):
        # Geometric buckets with growth 1.2 guarantee <= ~10% relative
        # error against the exact empirical percentile.
        rng = random.Random(7)
        samples = [rng.uniform(1e-5, 2.0) for _ in range(5000)]
        h = LatencyHistogram()
        for s in samples:
            h.observe(s)
        ordered = sorted(samples)
        for p in (50, 90, 95, 99):
            exact = ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]
            estimate = h.percentile(p)
            assert abs(estimate - exact) / exact < 0.11, (p, exact, estimate)

    def test_percentiles_monotone(self):
        rng = random.Random(3)
        h = LatencyHistogram()
        for _ in range(500):
            h.observe(rng.expovariate(100.0))
        values = [h.percentile(p) for p in (1, 25, 50, 75, 95, 99, 100)]
        assert values == sorted(values)

    def test_mean_min_max_exact(self):
        h = LatencyHistogram()
        for s in (0.001, 0.002, 0.009):
            h.observe(s)
        assert h.mean == pytest.approx(0.004)
        assert h.min == pytest.approx(0.001)
        assert h.max == pytest.approx(0.009)

    def test_sub_floor_and_huge_samples_clamp(self):
        h = LatencyHistogram()
        h.observe(0.0)
        h.observe(1e-9)
        h.observe(10_000.0)  # beyond the last bucket boundary
        assert len(h) == 3
        assert h.percentile(100) == pytest.approx(10_000.0)
        assert h.percentile(1) <= 1e-6  # inside the floor bucket

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for s in (0.001, 0.004):
            a.observe(s)
        for s in (0.002, 0.1):
            b.observe(s)
        a.merge(b)
        assert len(a) == 4
        assert a.max == pytest.approx(0.1)
        assert a.total == pytest.approx(0.107)

    def test_sub_microsecond_observations_share_the_floor_bucket(self):
        # Observations under the 1 µs floor all land in bucket 0, but
        # min/max clamping keeps the percentile inside the observed
        # range — never a negative or zero fabrication.
        h = LatencyHistogram()
        for s in (2e-7, 5e-7, 9e-7):
            h.observe(s)
        assert h.counts[0] == 3
        for p in (1, 50, 99):
            assert 2e-7 <= h.percentile(p) <= 9e-7
        assert h.min == pytest.approx(2e-7)
        assert h.mean == pytest.approx((2e-7 + 5e-7 + 9e-7) / 3)

    def test_overflow_bucket_reports_observed_max(self):
        # The last bucket is open-ended, so a geometric midpoint would
        # be a fabrication; any rank landing there must report the
        # exact observed max.
        h = LatencyHistogram()
        h.observe(5_000.0)
        h.observe(50_000.0)
        assert h.counts[-1] == 2
        for p in (1, 50, 100):
            assert h.percentile(p) == pytest.approx(50_000.0)

    def test_empty_histogram_percentiles_are_zero(self):
        h = LatencyHistogram()
        for p in (0, 1, 50, 99, 100):
            assert h.percentile(p) == 0.0
        # Merging two empties stays empty and well-defined.
        other = LatencyHistogram()
        h.merge(other)
        assert len(h) == 0
        assert h.percentile(50) == 0.0

    def test_merge_equals_observing_the_union(self):
        rng = random.Random(11)
        left = [rng.expovariate(50.0) for _ in range(300)]
        right = [rng.uniform(1e-7, 100.0) for _ in range(300)]
        a, b, union = (
            LatencyHistogram(),
            LatencyHistogram(),
            LatencyHistogram(),
        )
        for s in left:
            a.observe(s)
            union.observe(s)
        for s in right:
            b.observe(s)
            union.observe(s)
        a.merge(b)
        assert a.counts == union.counts
        assert a.count == union.count
        assert a.total == pytest.approx(union.total)
        assert a.min == union.min
        assert a.max == union.max
        for p in (50, 95, 99):
            assert a.percentile(p) == pytest.approx(union.percentile(p))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().observe(-0.001)

    def test_bad_percentile_rejected(self):
        h = LatencyHistogram()
        h.observe(0.001)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)


class TestServiceStats:
    def test_observe_tracks_kind_and_overall(self):
        stats = ServiceStats()
        stats.observe("window", 0.002)
        stats.observe("window", 0.004)
        stats.observe("knn", 0.05)
        assert stats.completed == 3
        assert stats.overall.count == 3
        assert stats.by_kind["window"].count == 2
        assert stats.by_kind["knn"].count == 1

    def test_kind_summaries_sorted_and_in_ms(self):
        stats = ServiceStats()
        stats.observe("window", 0.010)
        stats.observe("knn", 0.020)
        summaries = stats.kind_summaries()
        assert [s.kind for s in summaries] == ["knn", "window"]
        assert summaries[1].p50_ms == pytest.approx(10.0, rel=0.11)
        assert summaries[0].count == 1

    def test_queue_depth_high_water(self):
        stats = ServiceStats()
        stats.note_queue_depth(3)
        stats.note_queue_depth(9)
        stats.note_queue_depth(1)
        assert stats.queue_depth == 1
        assert stats.max_queue_depth == 9

    def test_rejected_total(self):
        stats = ServiceStats()
        stats.rejected_reads += 2
        stats.rejected_writes += 1
        assert stats.rejected == 3

    def test_throughput_window(self):
        stats = ServiceStats()
        assert stats.throughput_rps == 0.0
        stats.observe("window", 0.001)
        stats.finished_at = stats.started_at + 2.0
        stats.completed = 10
        assert stats.throughput_rps == pytest.approx(5.0)
