"""End-to-end cache analytics and profiling through the serving stack.

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

import json
import pathlib
import tempfile
from collections import OrderedDict

import pytest

from repro.experiments.cli import _check_trace_health, main as cli_main
from repro.experiments.serving import (
    cache_report,
    mixed_requests,
    pack_index,
    serve_async_bench,
    serve_bench,
)
from repro.obs import ReuseDistanceTracker
from repro.server import QueryServer
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
            run_overlapping_batches(tree, batches=2)
            leaf = internal = 0
            for shard in tree.shards:
                for band in shard.page_store.tracker.frequency_histogram():
                    leaf += band.leaf_blocks
                    internal += band.internal_blocks
            # A height-2 tree: many leaves, few internal nodes — but
            # both levels must be observed.
            assert leaf > internal > 0


class TestServingEntrypoints:
    def test_cache_report_table(self, sharded_index):
        table = cache_report(
            index=sharded_index,
            requests=400,
            cache_pages=CACHE_PAGES,
        )
        starred = [
            row for row in table.rows if str(row[0]) == f"{CACHE_PAGES}*"
        ]
        assert len(starred) == 1
        notes = "\n".join(table.notes)
        assert "measured:" in notes
        assert "working set:" in notes
        # The starred prediction and the measured ratio agree within 2%.
        import re

        measured = float(re.search(r"\((\d+\.\d+)%\)", notes).group(1)) / 100
        assert starred[0][3] == pytest.approx(measured, abs=0.02)

    def test_serve_bench_profile_and_cache_notes(self, sharded_index, tmp_path):
        out = tmp_path / "p.collapsed"
        table = serve_bench(
            index=sharded_index,
            requests=300,
            batch_size=100,
            cache_pages=CACHE_PAGES,
            profile=out,
            cache_analytics=True,
        )
        notes = "\n".join(table.notes)
        assert f"profile: {out}" in notes
        assert "page cache:" in notes
        assert "miss-ratio curve" in notes
        text = out.read_text()
        for line in text.splitlines():
            frames, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert ";" in frames

    def test_serve_async_profiled_sharded_phase_accounting(self, tmp_path):
        # The acceptance scenario: a profiled serve-async run over a
        # sharded index yields a collapsed-stack file whose per-phase
        # self time accounts for >= 90% of the sampled wall time.  The
        # phase table includes every sample by construction ((other)
        # catches unattributed ones), so the check is that the notes
        # parse back to ~100%.
        out = tmp_path / "async.collapsed"
        table = serve_async_bench(
            rates=(500.0,),
            requests=250,
            n=6000,
            shards=4,
            profile=out,
            cache_analytics=True,
            metrics=tmp_path / "m.prom",
        )
        notes = [n for n in table.notes if n.startswith("phase ")]
        total = sum(
            float(note.split(": ", 1)[1].split("%")[0]) for note in notes
        )
        if notes:  # a very fast run can be sample-free; phases then absent
            assert total >= 90.0
        prom = (tmp_path / "m.prom").read_text()
        assert "repro_cache_events_total" in prom
        assert "repro_cache_predicted_hit_ratio" in prom
        assert "repro_cache_working_set_blocks" in prom

    def test_metrics_port_note(self, tmp_path):
        table = serve_async_bench(
            rates=(800.0,), requests=100, n=4000, metrics_port=0
        )
        notes = "\n".join(table.notes)
        assert "metrics served live at http://127.0.0.1:" in notes


class TestCliGates:
    def test_cache_report_subcommand(self, sharded_index, capsys):
        code = cli_main(
            [
                "cache-report",
                "--index", str(sharded_index),
                "--requests", "200",
                "--cache-pages", str(CACHE_PAGES),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache-report:" in out
        assert f"{CACHE_PAGES}*" in out

    def test_profile_subcommand(self, tmp_path, capsys):
        out = tmp_path / "cli.collapsed"
        code = cli_main(
            [
                "profile", str(out),
                "--requests", "120",
                "--rate", "600",
                "--n", "4000",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "profile:" in capsys.readouterr().out

    def test_trace_health_gate_passes_on_good_capture(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = cli_main(
            [
                "trace", str(out),
                "--requests", "100",
                "--rate", "600",
                "--n", "4000",
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_trace_health_gate_rejects_low_coverage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps([
            {"ph": "X", "pid": 1, "tid": 1, "name": "request:knn",
             "cat": "request", "ts": 0, "dur": 10},
        ]))
        assert _check_trace_health(bad, requests=5, sample_rate=1.0) == 1
        assert "only 1 of 5" in capsys.readouterr().err
        # Sampled captures are exempt from the coverage bar.
        assert _check_trace_health(bad, requests=5, sample_rate=0.2) == 0

    def test_trace_health_gate_rejects_broken_nesting(self, tmp_path, capsys):
        bad = tmp_path / "overlap.jsonl"
        bad.write_text(json.dumps([
            {"ph": "X", "pid": 1, "tid": 1, "name": "a",
             "cat": "service", "ts": 0, "dur": 100},
            {"ph": "X", "pid": 1, "tid": 1, "name": "b",
             "cat": "service", "ts": 50, "dur": 100},
        ]))
        assert _check_trace_health(bad, requests=0, sample_rate=1.0) == 1
        assert "span-nesting" in capsys.readouterr().err
