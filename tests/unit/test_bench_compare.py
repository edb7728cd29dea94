"""Unit tests for tools/bench_compare.py (the CI regression gate)."""

import importlib.util
import json
import pathlib
import sys

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    pathlib.Path(__file__).resolve().parents[2] / "tools" / "bench_compare.py",
)
bench_compare = importlib.util.module_from_spec(_SPEC)
# Register before exec: @dataclass resolves annotations through
# sys.modules[cls.__module__].
sys.modules["bench_compare"] = bench_compare
_SPEC.loader.exec_module(bench_compare)


def table_json(headers, rows, title="t") -> str:
    return json.dumps(
        {
            "schema": "repro-table/1",
            "title": title,
            "headers": headers,
            "rows": rows,
            "notes": [],
        }
    )


@pytest.fixture
def trees(tmp_path):
    base = tmp_path / "base"
    cur = tmp_path / "cur"
    base.mkdir()
    cur.mkdir()
    return base, cur


class TestClassify:
    def test_directions(self):
        classify = bench_compare.classify
        assert classify("req_per_s").direction == +1
        assert classify("achieved_rps").direction == +1
        assert classify("p99_ms").direction == -1
        assert classify("leaf_ios").direction == -1
        assert classify("pack_s").direction == -1
        assert classify("hit_ratio").direction == +1
        assert classify("vs_scalar").direction == +1
        assert classify("n").direction == 0
        assert classify("shards").direction == 0  # input parameter
        assert classify("score").direction == -1  # degradation score
        assert classify("io_vs_fresh").direction == -1

    def test_timing_vs_deterministic(self):
        classify = bench_compare.classify
        assert classify("req_per_s").timing
        assert classify("p50_ms").timing
        assert not classify("leaf_ios").timing
        assert not classify("hits").timing
        assert not classify("score").timing
        assert not classify("io_vs_fresh").timing

    def test_unknown_is_reported_not_gated(self):
        column = bench_compare.classify("flux_capacitance")
        assert column.unknown
        assert column.direction == 0


class TestCompareAndGate:
    def test_identical_trees_pass(self, trees, capsys):
        base, cur = trees
        doc = table_json(
            ["batch", "req_per_s", "leaf_ios"], [[0, 100.0, 50], [1, 110.0, 48]]
        )
        (base / "a.json").write_text(doc)
        (cur / "a.json").write_text(doc)
        assert bench_compare.main([str(base), str(cur)]) == 0
        assert "no gated regressions" in capsys.readouterr().out

    def test_detects_30pct_throughput_regression(self, trees, capsys):
        base, cur = trees
        (base / "a.json").write_text(
            table_json(["batch", "req_per_s"], [[0, 1000.0]])
        )
        (cur / "a.json").write_text(
            table_json(["batch", "req_per_s"], [[0, 700.0]])
        )
        assert bench_compare.main([str(base), str(cur)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "req_per_s" in out

    def test_within_tolerance_passes(self, trees):
        base, cur = trees
        (base / "a.json").write_text(
            table_json(["batch", "req_per_s"], [[0, 1000.0]])
        )
        (cur / "a.json").write_text(
            table_json(["batch", "req_per_s"], [[0, 800.0]])
        )
        # -20% is inside the default 25% band...
        assert bench_compare.main([str(base), str(cur)]) == 0
        # ...but outside a tighter one.
        assert (
            bench_compare.main(
                [str(base), str(cur), "--tolerance", "0.1"]
            )
            == 1
        )

    def test_improvement_is_not_a_regression(self, trees):
        base, cur = trees
        (base / "a.json").write_text(
            table_json(["batch", "leaf_ios"], [[0, 100]])
        )
        (cur / "a.json").write_text(
            table_json(["batch", "leaf_ios"], [[0, 40]])
        )
        assert bench_compare.main([str(base), str(cur)]) == 0

    def test_lower_better_regression(self, trees):
        base, cur = trees
        (base / "a.json").write_text(
            table_json(["batch", "leaf_ios"], [[0, 100]])
        )
        (cur / "a.json").write_text(
            table_json(["batch", "leaf_ios"], [[0, 150]])
        )
        assert bench_compare.main([str(base), str(cur)]) == 1

    def test_ratio_only_demotes_timing_columns(self, trees, capsys):
        base, cur = trees
        (base / "a.json").write_text(
            table_json(["batch", "req_per_s", "leaf_ios"], [[0, 1000.0, 50]])
        )
        (cur / "a.json").write_text(
            table_json(["batch", "req_per_s", "leaf_ios"], [[0, 500.0, 50]])
        )
        assert (
            bench_compare.main([str(base), str(cur), "--ratio-only"]) == 0
        )
        assert "report-only" in capsys.readouterr().out
        # The same deterministic regression still gates in ratio-only.
        (cur / "a.json").write_text(
            table_json(["batch", "req_per_s", "leaf_ios"], [[0, 1000.0, 90]])
        )
        assert (
            bench_compare.main([str(base), str(cur), "--ratio-only"]) == 1
        )

    def test_rows_matched_by_label_not_position(self, trees):
        base, cur = trees
        (base / "a.json").write_text(
            table_json(
                ["variant", "leaf_ios"], [["PR", 100], ["H", 200]]
            )
        )
        # Current run reordered rows and added one; still no regression.
        (cur / "a.json").write_text(
            table_json(
                ["variant", "leaf_ios"],
                [["H", 200], ["STR", 999], ["PR", 100]],
            )
        )
        assert bench_compare.main([str(base), str(cur)]) == 0

    def test_columns_matched_by_header(self, trees):
        base, cur = trees
        (base / "a.json").write_text(
            table_json(["batch", "leaf_ios"], [[0, 100]])
        )
        # Current table gained a column in front; leaf_ios still found.
        (cur / "a.json").write_text(
            table_json(["batch", "extra", "leaf_ios"], [[0, 7, 300]])
        )
        assert bench_compare.main([str(base), str(cur)]) == 1

    def test_missing_current_file_is_reported_not_fatal(self, trees, capsys):
        base, cur = trees
        (base / "gone.json").write_text(
            table_json(["batch", "leaf_ios"], [[0, 1]])
        )
        (base / "kept.json").write_text(
            table_json(["batch", "leaf_ios"], [[0, 1]])
        )
        (cur / "kept.json").write_text(
            table_json(["batch", "leaf_ios"], [[0, 1]])
        )
        assert bench_compare.main([str(base), str(cur)]) == 0
        assert "missing from current: gone.json" in capsys.readouterr().out

    def test_markdown_report(self, trees, tmp_path):
        base, cur = trees
        (base / "a.json").write_text(
            table_json(["batch", "req_per_s"], [[0, 1000.0]])
        )
        (cur / "a.json").write_text(
            table_json(["batch", "req_per_s"], [[0, 600.0]])
        )
        report = tmp_path / "delta.md"
        assert (
            bench_compare.main(
                [str(base), str(cur), "--report", str(report)]
            )
            == 1
        )
        text = report.read_text()
        assert "## Regressions (1)" in text
        assert "req_per_s" in text
        assert "-40.0%" in text

    def test_bad_directory_exits_2(self, tmp_path):
        assert (
            bench_compare.main(
                [str(tmp_path / "nope"), str(tmp_path / "nope2")]
            )
            == 2
        )

    def test_non_table_json_skipped(self, trees, capsys):
        base, cur = trees
        (base / "a.json").write_text('{"something": "else"}')
        (base / "b.json").write_text(
            table_json(["batch", "leaf_ios"], [[0, 1]])
        )
        (cur / "b.json").write_text(
            table_json(["batch", "leaf_ios"], [[0, 1]])
        )
        assert bench_compare.main([str(base), str(cur)]) == 0
        assert "not repro-table/1" in capsys.readouterr().err
