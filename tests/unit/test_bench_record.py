"""The pure parts of ``tools/bench_record.py``: the record it assembles
from ``bench run`` result files, the count gate, and the parent check.
The runs themselves (minutes each) are CI's ``bench-counts`` job."""

import json
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_record  # noqa: E402


def result_file(path, workload, section, metrics, failed=0):
    """A ``bench run`` result file with one workload section."""
    path.write_text(json.dumps({
        "header": "fake",
        "seed": 0,
        "n": 10,
        "workloads": {workload: {section: {
            "correct": failed == 0,
            "attempted": 100,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": "count", "iqr": 0.0}
                for name, value in metrics.items()
            },
            "rounds": 1,
        }}},
    }))
    return path


def side(tmp_path, name, cpu, leaf_ios, calls):
    return [
        result_file(tmp_path / f"{name}-e2e-{seed}.json", "point_hot",
                    "end_to_end",
                    {"cpu_ms_per_req": cpu + seed, "leaf_ios_per_read": 3.5})
        for seed in range(3)
    ] + [
        result_file(tmp_path / f"{name}-layers.json", "point_hot",
                    "per_layer",
                    {"engines.leaf_ios_per_read": leaf_ios,
                     "kernels.calls_per_read": calls,
                     "ref.sqlite_window_us": 100.0})
    ]


def test_assemble_from_two_sides(tmp_path):
    parent = side(tmp_path, "parent", cpu=1.0, leaf_ios=4.0, calls=9.0)
    change = side(tmp_path, "change", cpu=2.0, leaf_ios=4.0, calls=8.0)
    doc = bench_record.assemble(
        7, {"commit": "aaa"}, {"commit": "bbb", "dirty": False},
        parent, change, ["0 row(s) regressed"],
    )
    assert doc["pr"] == 7
    assert doc["environment"]["cpu_count"] >= 1
    before, after = doc["sides"]["parent"], doc["sides"]["change"]
    assert (before["commit"], after["commit"]) == ("aaa", "bbb")
    cpu = after["metrics"]["point_hot"]["end_to_end"]["cpu_ms_per_req"]
    assert (cpu["median"], cpu["runs"]) == (3.0, 3)
    assert cpu["q1"] <= cpu["median"] <= cpu["q3"]
    assert after["counts"]["point_hot"] == {
        "end_to_end.leaf_ios_per_read": [3.5, 3.5, 3.5],
        "per_layer.engines.leaf_ios_per_read": [4.0],
        "per_layer.kernels.calls_per_read": [8.0],
    }
    assert after["speed_probe"]["ref.sqlite_window_us"]["median"] == 100.0
    assert (after["failed"], after["correct"]) == (0, True)
    assert doc["count_rows_differing"] == [
        "point_hot per_layer.kernels.calls_per_read"
    ]
    assert doc["compare"] == ["0 row(s) regressed"]
    json.dumps(doc)  # the record is plain JSON


def test_count_gate_compares_the_change_side_exactly(tmp_path):
    recorded = bench_record.assemble(
        7, {"commit": "a"}, {"commit": "b"},
        side(tmp_path, "p", 1.0, 4.0, 9.0), side(tmp_path, "c", 1.0, 4.0, 9.0),
        [],
    )
    same = bench_record.summarise(side(tmp_path, "x", 5.0, 4.0, 9.0))
    assert bench_record.count_mismatches(recorded, same) == []
    moved = bench_record.summarise(side(tmp_path, "y", 1.0, 4.0, 9.5))
    assert bench_record.count_mismatches(recorded, moved) == [
        "point_hot kernels.calls_per_read: recorded 9.0, now 9.5"
    ]


def test_newest_record_is_the_largest_number(tmp_path):
    for n in (9, 36, 100, 12):
        (tmp_path / f"BENCH_{n}.json").write_text("{}")
    (tmp_path / "BENCH_x.json").write_text("{}")
    assert bench_record.newest_record(tmp_path).name == "BENCH_100.json"
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SystemExit):
        bench_record.newest_record(empty)


def test_parent_must_be_a_commit(tmp_path):
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True, text=True,
        ).stdout.strip()

    git("init", "-q")
    (tmp_path / "f").write_text("x")
    git("add", "f")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD")
    assert bench_record.resolve_commit("HEAD", cwd=tmp_path) == head
    for rev in ("HEAD~1", "no-such-branch", git("rev-parse", "HEAD^{tree}")):
        with pytest.raises(SystemExit, match="is not a commit"):
            bench_record.resolve_commit(rev, cwd=tmp_path)
