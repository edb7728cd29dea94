"""Unit tests for the experiment CLI."""

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main


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


class TestPackAndServe:
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

    def test_serve_bench_over_packed_index(self, tmp_path, capsys):
        out = tmp_path / "idx.pack"
        assert main([
            "pack", str(out), "--variant", "H", "--dataset", "uniform",
            "--n", "500", "--fanout", "16",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve-bench", "--index", str(out), "--requests", "60",
            "--batch-size", "20", "--cache-pages", "16",
        ]) == 0
        text = capsys.readouterr().out
        assert "serve-bench: 60 mixed requests" in text
        assert "req_per_s" in text

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

    def test_serve_bench_over_shard_manifest(self, tmp_path, capsys):
        out = tmp_path / "idx.manifest"
        assert main([
            "pack", str(out), "--dataset", "uniform", "--n", "600",
            "--fanout", "16", "--shards", "3",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve-bench", "--index", str(out), "--requests", "40",
            "--batch-size", "20", "--cache-pages", "16",
        ]) == 0
        text = capsys.readouterr().out
        assert "3 shards" in text
        assert "per-shard balance" in text

    def test_serve_bench_builds_temporary_sharded_index(self, capsys):
        assert main([
            "serve-bench", "--requests", "30", "--batch-size", "15",
            "--dataset", "uniform", "--n", "400", "--shards", "2",
        ]) == 0
        text = capsys.readouterr().out
        assert "2 shards" in text

    def test_serve_bench_builds_temporary_index(self, capsys):
        assert main([
            "serve-bench", "--requests", "30", "--batch-size", "15",
            "--dataset", "uniform", "--n", "400",
        ]) == 0
        assert "serve-bench: 30 mixed requests" in capsys.readouterr().out

    def test_update_bench(self, capsys):
        assert main([
            "update-bench", "--updates", "60", "--queries", "10",
            "--batch-size", "30", "--dataset", "uniform", "--n", "400",
            "--cache-pages", "64",
        ]) == 0
        text = capsys.readouterr().out
        assert "update-bench: 60 mixed inserts/deletes" in text
        assert "pages_flushed" in text
        assert "write-back:" in text
        assert "fresh bulk-load query" in text

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


class TestServeAsync:
    def test_serve_async_sweep_prints_percentiles(self, capsys):
        assert main([
            "serve-async", "--rates", "400", "--requests", "40",
            "--n", "1500", "--max-batch", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "p50_ms" in out and "p99_ms" in out
        assert "rejected" in out

    def test_serve_async_mmap_sharded(self, capsys):
        assert main([
            "serve-async", "--rates", "600", "--requests", "30",
            "--n", "1500", "--shards", "2", "--mmap",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 shards" in out and "mmap" in out

    def test_serve_async_bad_rates(self, capsys):
        assert main([
            "serve-async", "--rates", "fast", "--n", "1500",
        ]) == 2
        assert "invalid --rates" in capsys.readouterr().err

    def test_serve_async_empty_rates(self, capsys):
        assert main(["serve-async", "--rates", ",", "--n", "1500"]) == 2
        assert "no rates" in capsys.readouterr().err

    def test_serve_bench_mmap_flag(self, capsys):
        assert main([
            "serve-bench", "--requests", "40", "--batch-size", "20",
            "--n", "1500", "--mmap",
        ]) == 0
        out = capsys.readouterr().out
        assert "mmap" in out and "p95_ms" in out

    def test_serve_async_nonpositive_rates(self, capsys):
        assert main([
            "serve-async", "--rates", "0,500", "--n", "1500",
        ]) == 2
        assert "positive" in capsys.readouterr().err

    def test_serve_async_user_index_untouched_by_default(
        self, tmp_path, capsys
    ):
        # Without an explicit --write-frac, serving a user-supplied
        # index must leave its bytes exactly as packed.
        index = tmp_path / "user.manifest"
        assert main([
            "pack", str(index), "--shards", "2", "--n", "1500",
        ]) == 0
        files = sorted(tmp_path.iterdir())
        before = {f.name: f.read_bytes() for f in files}
        assert main([
            "serve-async", "--index", str(index), "--rates", "800",
            "--requests", "30",
        ]) == 0
        capsys.readouterr()
        assert {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())} == before


class TestHealthAndExplain:
    @pytest.fixture
    def index(self, tmp_path, capsys):
        path = tmp_path / "idx.pack"
        assert main([
            "pack", str(path), "--dataset", "uniform", "--n", "800",
            "--fanout", "16",
        ]) == 0
        capsys.readouterr()
        return path

    def test_health_reports_score(self, index, capsys):
        assert main(["health", "--index", str(index)]) == 0
        out = capsys.readouterr().out
        assert "index health" in out
        assert "degradation score" in out
        assert "occupancy" in out

    def test_health_score_only(self, index, capsys):
        assert main([
            "health", "--index", str(index), "--score-only",
        ]) == 0
        score = float(capsys.readouterr().out.strip())
        assert 0.0 <= score < 1e-6

    def test_health_requires_index(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["health"])

    def test_explain_renders_plans(self, index, capsys):
        assert main([
            "explain", "--index", str(index), "--kind", "window",
            "--queries", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "explain: 4 window requests" in out
        assert "efficiency" in out
        assert "worst plan" in out and "L0 root" in out

    def test_explain_trace_self_check(self, index, tmp_path, capsys):
        trace = tmp_path / "explain.jsonl"
        assert main([
            "explain", "--index", str(index), "--queries", "3",
            "--trace", str(trace),
        ]) == 0
        assert trace.exists()
        assert f"wrote {trace}" in capsys.readouterr().out

    def test_explain_sharded_has_no_plans(self, tmp_path, capsys):
        manifest = tmp_path / "fam.manifest"
        assert main([
            "pack", str(manifest), "--shards", "2", "--dataset",
            "uniform", "--n", "800", "--fanout", "16",
        ]) == 0
        capsys.readouterr()
        assert main([
            "explain", "--index", str(manifest), "--queries", "3",
        ]) == 0
        assert "no per-query plans" in capsys.readouterr().out

    def test_serve_bench_explain_notes(self, index, capsys):
        assert main([
            "serve-bench", "--index", str(index), "--requests", "60",
            "--batch-size", "30", "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "explain window:" in out
        assert "mean pruning efficiency" in out

    def test_serve_async_health_metrics(self, index, tmp_path, capsys):
        prom = tmp_path / "health.prom"
        assert main([
            "serve-async", "--index", str(index), "--rates", "800",
            "--requests", "40",
            "--explain", "--health-interval", "30",
            "--metrics", str(prom),
        ]) == 0
        capsys.readouterr()
        text = prom.read_text()
        assert "repro_health_score" in text
        assert "repro_health_leaf_occupancy" in text
        assert "repro_explain_plans_total" in text
