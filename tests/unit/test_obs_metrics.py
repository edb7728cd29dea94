"""MetricsRegistry exposition and the slow-query log ring.

The registry's contract is Prometheus text format 0.0.4: families with
HELP/TYPE headers, labeled samples with escaped values, histograms as
summaries with quantile labels plus exact _sum/_count.  The slow log's
contract is a bounded ring that never loses the *count* of threshold
crossings even when it drops old records.
"""

import pytest

from repro.obs import MetricsRegistry, SlowQueryLog
from repro.service.stats import LatencyHistogram


class TestCountersAndGauges:
    def test_counter_inc_and_negative_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total").labels()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_set_total_mirrors_and_rejects_regression(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total").labels()
        counter.set_total(10)
        counter.set_total(10)
        with pytest.raises(ValueError):
            counter.set_total(9)

    def test_gauge_moves_freely(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_depth").labels()
        gauge.set(5)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 3


class TestFamilies:
    def test_labeled_children_are_distinct_and_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_reqs_total", "", ("kind",))
        a = family.labels("knn")
        b = family.labels("window")
        assert a is not b
        assert family.labels("knn") is a

    def test_label_arity_enforced(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_reqs_total", "", ("kind", "lane"))
        with pytest.raises(ValueError):
            family.labels("knn")

    def test_re_registration_must_match(self):
        registry = MetricsRegistry()
        registry.counter("repro_reqs_total", "", ("kind",))
        # Same name+type+labels: the same family comes back.
        again = registry.counter("repro_reqs_total", "", ("kind",))
        assert again.name == "repro_reqs_total"
        with pytest.raises(ValueError):
            registry.gauge("repro_reqs_total", "", ("kind",))
        with pytest.raises(ValueError):
            registry.counter("repro_reqs_total", "", ("lane",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("repro_ok", "", ("bad-label",))


class TestExposition:
    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_requests_total", "Requests.", ("kind",)
        ).labels("knn").inc(3)
        registry.gauge("repro_queue_depth", "Depth.").labels().set(7)
        hist = LatencyHistogram()
        for v in (0.001, 0.002, 0.004):
            hist.observe(v)
        registry.histogram(
            "repro_latency_seconds", "Latency.", ("kind",)
        ).labels("knn").set_from(hist)

        text = registry.render_prometheus()
        assert "# HELP repro_requests_total Requests.\n" in text
        assert "# TYPE repro_requests_total counter\n" in text
        assert 'repro_requests_total{kind="knn"} 3\n' in text
        assert "repro_queue_depth 7\n" in text
        assert "# TYPE repro_latency_seconds summary\n" in text
        for q in ("0.5", "0.9", "0.95", "0.99"):
            assert f'repro_latency_seconds{{kind="knn",quantile="{q}"}}' in text
        assert 'repro_latency_seconds_sum{kind="knn"} 0.007' in text
        assert 'repro_latency_seconds_count{kind="knn"} 3' in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_odd_total", "", ("detail",)).labels(
            'a"b\\c\nd'
        ).inc()
        text = registry.render_prometheus()
        assert 'detail="a\\"b\\\\c\\nd"' in text

    def test_set_from_has_snapshot_semantics(self):
        registry = MetricsRegistry()
        hist = LatencyHistogram()
        hist.observe(0.001)
        metric = registry.histogram("repro_lat_seconds").labels()
        metric.set_from(hist)
        hist.observe(10.0)  # keeps accumulating elsewhere
        assert metric.hist.count == 1
        metric.set_from(hist)
        assert metric.hist.count == 2

    def test_dump_writes_the_rendering(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").labels().inc()
        path = tmp_path / "out.prom"
        registry.dump(path)
        assert path.read_text() == registry.render_prometheus()


class TestSlowQueryLog:
    def test_threshold_gates_recording(self):
        log = SlowQueryLog(threshold_s=0.010)
        assert log.note("window", 0.005) is False
        assert log.note("window", 0.010) is True
        assert log.total == 1
        assert len(log) == 1

    def test_ring_is_bounded_but_total_is_not(self):
        log = SlowQueryLog(threshold_s=0.0, capacity=4)
        for i in range(10):
            log.note("knn", float(i))
        assert len(log) == 4
        assert log.total == 10
        # Newest records win.
        assert [r.latency_s for r in log.records()] == [6.0, 7.0, 8.0, 9.0]

    def test_detail_is_truncated(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.note("window", 1.0, detail="x" * 1000)
        assert len(log.records()[0].detail) == 200

    def test_render_mentions_worst_and_trace_id(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.note("window", 0.020, trace_id=7, io={"reads": 3})
        log.note("knn", 0.500, queue_s=0.4, engine_s=0.1, batch_size=8)
        text = log.render()
        assert "2 over 0.0 ms" in text
        assert text.index("knn") < text.index("window")  # worst-first
        assert "trace=#7" in text

    def test_empty_render_and_invalid_ctor(self):
        assert "empty" in SlowQueryLog(threshold_s=0.5).render()
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_s=-1.0)
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_s=0.0, capacity=0)
