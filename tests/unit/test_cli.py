"""Unit tests for the experiment CLI, and the public serving API over
the files ``repro pack`` writes."""

import asyncio
import re

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main
from repro.experiments.serving import (
    DATASETS,
    index_status,
    mixed_requests,
    mixed_update_requests,
    pack_index,
)
from repro.iomodel.blockstore import BlockStore
from repro.obs import MetricsRegistry
from repro.rtree.tree import RTree
from repro.rtree.validate import validate_rtree
from repro.server import QueryServer
from repro.service import AsyncQueryService
from repro.storage import (
    PagedTree,
    ShardedTree,
    StorageError,
    open_index,
    pack_tree,
    shard_pack,
)


def _score(out: str) -> float:
    """The degradation score ``repro status`` printed."""
    return float(re.search(r"degradation score: ([0-9.]+)", out).group(1))


async def _serve(tree, requests, **kwargs):
    """Every request through one service, submitted without waiting."""
    async with AsyncQueryService(tree, **kwargs) as service:
        responses = await service.submit_many(requests)
    return responses, service.stats


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure99"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_panel_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure15", "--panel", "bogus"])

    def test_help_lists_exactly_the_five_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "{list,run,pack,status,crash-bench}" in capsys.readouterr().out

    def test_the_folded_subcommands_are_gone(self, capsys):
        parser = build_parser()
        for name in (
            "serve-bench", "serve-async", "update-bench", "trace",
            "profile", "cache-report", "health", "explain",
        ):
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args([name, "x.pack"])
            assert exit_info.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


class TestRun:
    def test_run_theorem3_stdout(self, capsys):
        assert main(["run", "theorem3", "--n", "256", "--fanout", "8",
                     "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3" in out
        assert "PR" in out

    def test_run_writes_file(self, tmp_path, capsys):
        assert main([
            "run", "theorem3", "--n", "256", "--fanout", "8",
            "--queries", "2", "--out", str(tmp_path),
        ]) == 0
        written = tmp_path / "theorem3.txt"
        assert written.exists()
        assert "Theorem 3" in written.read_text()

    def test_run_markdown(self, tmp_path):
        main([
            "run", "theorem3", "--n", "256", "--fanout", "8",
            "--queries", "2", "--out", str(tmp_path), "--markdown",
        ])
        text = (tmp_path / "theorem3.md").read_text()
        assert text.startswith("**")
        assert "|" in text

    def test_run_figure15_panel(self, capsys):
        assert main([
            "run", "figure15", "--n", "400", "--fanout", "8",
            "--queries", "3", "--panel", "skewed",
        ]) == 0
        out = capsys.readouterr().out
        assert "skewed" in out


class TestPack:
    def test_pack_writes_index(self, tmp_path, capsys):
        out = tmp_path / "idx.pack"
        assert main([
            "pack", str(out), "--variant", "PR", "--dataset", "uniform",
            "--n", "500", "--fanout", "16",
        ]) == 0
        assert out.exists()
        assert "pack: PR over uniform" in capsys.readouterr().out

    def test_pack_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["pack", "x.pack", "--dataset", "bogus"]
            )

    def test_pack_shards_writes_manifest_and_shard_files(
        self, tmp_path, capsys
    ):
        out = tmp_path / "idx.manifest"
        assert main([
            "pack", str(out), "--variant", "PR", "--dataset", "uniform",
            "--n", "600", "--fanout", "16", "--shards", "3",
        ]) == 0
        assert out.exists()
        assert len(list(tmp_path.glob("idx.manifest.shard*"))) == 3
        text = capsys.readouterr().out
        assert "3 shards" in text
        assert "shard manifest" in text

    @pytest.mark.parametrize("shards", [0, -2])
    def test_pack_rejects_shard_counts_below_one(self, tmp_path, shards):
        out = tmp_path / "idx.pack"
        with pytest.raises(ValueError, match="shards must be >= 1"):
            main([
                "pack", str(out), "--dataset", "uniform", "--n", "300",
                "--fanout", "16", "--shards", str(shards),
            ])
        with pytest.raises(ValueError, match="shards must be >= 1"):
            pack_index(out, dataset="uniform", n=300, shards=shards)
        assert not out.exists()

    def test_pack_one_shard_writes_a_single_file(self, tmp_path, capsys):
        out = tmp_path / "idx.pack"
        assert main([
            "pack", str(out), "--dataset", "uniform", "--n", "300",
            "--fanout", "16", "--shards", "1",
        ]) == 0
        assert "shard manifest" not in capsys.readouterr().out
        assert [f.name for f in tmp_path.iterdir()] == ["idx.pack"]
        with open_index(out, readonly=True) as tree:
            assert isinstance(tree, PagedTree) and tree.size == 300

    def test_run_figure12_small(self, capsys):
        assert main([
            "run", "figure12", "--n", "500", "--fanout", "8", "--queries", "3",
        ]) == 0
        assert "Figure 12" in capsys.readouterr().out

    def test_memory_option_for_bulkload(self, capsys):
        assert main([
            "run", "figure9", "--fanout", "8", "--memory", "128",
        ]) == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_run_knn_with_k(self, capsys):
        assert main([
            "run", "knn", "--n", "400", "--fanout", "8",
            "--k", "3", "--queries", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "kNN" in out and "k=3" in out

    def test_run_join(self, capsys):
        assert main(["run", "join", "--n", "300", "--fanout", "8"]) == 0
        out = capsys.readouterr().out
        assert "Spatial join" in out and "uniform_join" in out

    def test_run_point(self, capsys):
        assert main([
            "run", "point", "--n", "400", "--fanout", "8", "--queries", "5",
        ]) == 0
        assert "stabbing" in capsys.readouterr().out


@pytest.fixture
def index(tmp_path, capsys):
    path = tmp_path / "idx.pack"
    assert main([
        "pack", str(path), "--dataset", "uniform", "--n", "800",
        "--fanout", "16",
    ]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def manifest(tmp_path, capsys):
    path = tmp_path / "fam.manifest"
    assert main([
        "pack", str(path), "--shards", "2", "--dataset", "uniform",
        "--n", "800", "--fanout", "16",
    ]) == 0
    capsys.readouterr()
    return path


class TestStatus:
    def test_only_the_three_settings(self):
        parser = build_parser()
        args = parser.parse_args(["status", "x.pack", "--explain"])
        assert (args.index.name, args.explain, args.trace) == (
            "x.pack", True, None,
        )
        with pytest.raises(SystemExit):
            parser.parse_args(["status"])
        for removed in ("--score-only", "--cache-pages", "--mmap"):
            with pytest.raises(SystemExit):
                parser.parse_args(["status", "x.pack", removed])

    def test_reports_epoch_verdict_health_and_score(self, index, capsys):
        assert main(["status", str(index)]) == 0
        out = capsys.readouterr().out
        assert "idx.pack" in out and "clean" in out
        assert "index health" in out and "occupancy" in out
        assert 0.0 <= _score(out) < 1e-9
        assert "explain:" not in out  # the batch runs only on request

    def test_reports_a_rolled_back_epoch(self, index, capsys):
        # Two blocks past the committed extent: the debris an
        # uncommitted epoch leaves when a crash interrupts it.
        with open(index, "ab") as handle:
            handle.write(b"\0" * 8192)
        assert main(["status", str(index)]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("idx.pack")
        )
        assert row.split()[3] == "2"
        assert "rolled back an uncommitted epoch" in row

    def test_shard_manifest_lists_every_shard_file(self, manifest, capsys):
        assert main(["status", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        assert "fam.manifest.shard00" in out and "fam.manifest.shard01" in out
        assert "manifest generation 0" in out
        assert "per-shard size" in out
        assert _score(out) < 1e-9

    def test_explain_renders_plans_and_cache_prediction(self, index, capsys):
        assert main(["status", str(index), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "explain: 8 mixed requests" in out
        assert "efficiency" in out
        assert "worst plan" in out and "L0 root" in out
        measured, predicted = re.search(
            r"\(([\d.]+)% measured\); ghost-LRU predicts ([\d.]+)%", out
        ).groups()
        assert measured == predicted

    def test_explain_sharded_has_plans(self, manifest, capsys):
        assert main(["status", str(manifest), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "worst plan (lowest pruning efficiency)" in out
        assert "ghost-LRU predicts" in out

    def test_trace_self_check(self, index, tmp_path, capsys):
        trace = tmp_path / "status.jsonl"
        assert main(["status", str(index), "--trace", str(trace)]) == 0
        assert trace.exists()
        out = capsys.readouterr().out
        assert f"wrote {trace}" in out
        assert "trace: 8 of 8 requests emitted" in out

    def test_status_leaves_the_files_untouched(
        self, manifest, tmp_path, capsys
    ):
        before = {
            f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())
        }
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        assert main([
            "status", str(manifest), "--explain",
            "--trace", str(trace_dir / "t.jsonl"),
        ]) == 0
        capsys.readouterr()
        after = {
            f.name: f.read_bytes()
            for f in sorted(tmp_path.iterdir())
            if f.is_file()
        }
        assert after == before

    def test_missing_index_raises_and_writes_nothing(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with pytest.raises(StorageError, match="no index file"):
            main([
                "status", str(tmp_path / "absent.pack"), "--explain",
                "--trace", str(trace),
            ])
        assert list(tmp_path.iterdir()) == []

    def test_directory_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="is not a file"):
            main(["status", str(tmp_path)])

    def test_four_shard_manifest(self, tmp_path, capsys):
        path = tmp_path / "k4.manifest"
        assert main([
            "pack", str(path), "--shards", "4", "--dataset", "uniform",
            "--n", "1200", "--fanout", "16",
        ]) == 0
        capsys.readouterr()
        assert main(["status", str(path), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "4 shards" in out
        rows = [
            line for line in out.splitlines()
            if line.startswith("k4.manifest.shard")
        ]
        assert len(rows) == 4 and all("clean" in row for row in rows)
        assert _score(out) < 1e-9
        assert "worst plan (lowest pruning efficiency)" in out

    @pytest.mark.parametrize("shards", [1, 4])
    def test_explain_skips_an_empty_index(self, tmp_path, capsys, shards):
        empty = RTree.create_empty(BlockStore(), dim=2, fanout=16)
        if shards == 1:
            path = tmp_path / "empty.pack"
            pack_tree(empty, path)
        else:
            path = tmp_path / "empty.manifest"
            shard_pack(empty, path, shards=shards)
        assert main(["status", str(path), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "explain: skipped, the index is empty" in out
        assert "mixed requests" not in out
        trace = tmp_path / "t.jsonl"
        assert main(["status", str(path), "--trace", str(trace)]) == 0
        assert "explain: skipped" in capsys.readouterr().out
        assert not trace.exists()

    def test_library_tables_and_trace_without_explain(self, index, tmp_path):
        plain = index_status(index)
        assert [table.title.split(":")[0] for table in plain] == [
            "status", "index health",
        ]
        # A trace alone runs (and traces) the fixed batch.
        trace = tmp_path / "only.jsonl"
        traced = index_status(index, trace=trace)
        assert len(traced) == 3
        assert traced[2].title.startswith("explain: 8 mixed requests")
        assert trace.stat().st_size > 0
        assert [t.render() for t in traced[:2]] == [
            t.render() for t in plain
        ]

    def test_score_rises_after_an_update_stream(self, index, capsys):
        data = DATASETS["uniform"](800, 0)
        fresh = DATASETS["uniform"](200, 7)
        requests, live = mixed_update_requests(data[:200], fresh, seed=4)
        values = dict(enumerate(v for _, v in data))
        with PagedTree.open(index, values=values) as tree:
            report = QueryServer(tree).submit(requests)
            assert report.writes == len(requests)
            assert 0 < report.pages_flushed < report.write_ios
            live += data[200:]
            validate_rtree(tree, expect_size=len(live))
        assert main(["status", str(index)]) == 0
        out = capsys.readouterr().out
        assert _score(out) > 1e-4
        assert "epoch" in out and "clean" in out

    def test_family_score_rises_after_an_update_stream(
        self, manifest, capsys
    ):
        data = DATASETS["uniform"](800, 0)
        fresh = DATASETS["uniform"](200, 7)
        requests, live = mixed_update_requests(data[:200], fresh, seed=4)
        values = dict(enumerate(v for _, v in data))
        with open_index(manifest, values=values) as family:
            report = QueryServer(family).submit(requests)
            assert report.writes == len(requests)
            assert family.size == len(live) + len(data) - 200
        assert main(["status", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert _score(out) > 1e-4
        assert "manifest generation 0" not in out


class TestServingPackedIndexes:
    """The server and the service over ``repro pack`` outputs, through
    the public API."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_server_batches_over_a_pack(self, tmp_path, capsys, shards):
        path = tmp_path / ("idx.manifest" if shards > 1 else "idx.pack")
        assert main([
            "pack", str(path), "--variant", "H", "--dataset", "uniform",
            "--n", "500", "--fanout", "16", "--shards", str(shards),
        ]) == 0
        capsys.readouterr()
        with open_index(path, cache_pages=16, readonly=True) as tree:
            assert isinstance(tree, ShardedTree) == (shards > 1)
            server = QueryServer(tree)
            stream = mixed_requests(tree.root().mbr(), count=60, seed=1)
            reports = [
                server.submit(stream[b : b + 20]) for b in range(0, 60, 20)
            ]
        for report in reports:
            assert report.executed + report.dedup_hits == report.requests
            assert report.leaf_ios > 0

    def test_server_explain_plans_every_executed_read(self, index):
        with open_index(index, readonly=True) as tree:
            server = QueryServer(tree, explain=True)
            stream = mixed_requests(tree.root().mbr(), count=60, seed=1)
            report = server.submit(stream)
        executed = [r for r in report.results if not r.deduped]
        assert executed
        for result in executed:
            plan = result.plan
            assert plan is not None and plan.kind == result.request.kind
            assert plan.nodes_visited > 0
            assert 0.0 <= plan.pruning_efficiency <= 1.0

    def test_service_percentiles_over_a_pack(self, index):
        with open_index(index, readonly=True) as tree:
            requests = mixed_requests(tree.root().mbr(), count=40, seed=2)
            responses, stats = asyncio.run(
                _serve(tree, requests, max_batch=16)
            )
        assert len(responses) == 40
        assert stats.completed == 40 and stats.rejected == 0
        overall = stats.overall
        assert 0 < overall.percentile(50) <= overall.percentile(99)
        assert stats.batches >= 40 // 16

    def test_service_leaves_a_readonly_pack_untouched(
        self, manifest, tmp_path
    ):
        before = {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())}
        with open_index(manifest, readonly=True) as family:
            requests = mixed_requests(family.root().mbr(), count=30, seed=7)
            responses, stats = asyncio.run(_serve(family, requests))
        assert stats.completed == 30 and len(responses) == 30
        after = {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())}
        assert after == before

    def test_service_update_stream_is_committed_at_close(
        self, index, capsys
    ):
        data = DATASETS["uniform"](800, 0)
        fresh = DATASETS["uniform"](120, 9)
        requests, live = mixed_update_requests(data[:120], fresh, seed=3)
        live += data[120:]
        values = dict(enumerate(v for _, v in data))
        with PagedTree.open(index, values=values) as tree:
            responses, stats = asyncio.run(
                _serve(tree, requests, max_batch=16, sync_every_n=2)
            )
            assert stats.completed == len(requests)
            assert all(response.value for response in responses)
            objects = dict(tree.objects)
        with PagedTree.open(index, values=objects, readonly=True) as reopened:
            validate_rtree(reopened, expect_size=len(live))
            assert reopened.recovery.epoch > 0
        assert main(["status", str(index)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_service_exports_health_and_explain_families(self, index):
        registry = MetricsRegistry()
        with open_index(index, readonly=True) as tree:
            requests = mixed_requests(tree.root().mbr(), count=40, seed=5)
            asyncio.run(
                _serve(
                    tree,
                    requests,
                    metrics=registry,
                    explain=True,
                    health_interval=30.0,
                )
            )
        text = registry.render_prometheus()
        assert "repro_health_score" in text
        assert "repro_health_leaf_occupancy" in text
        assert "repro_explain_plans_total" in text
