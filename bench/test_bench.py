"""Self-test of the benchmark harness (``python -m pytest bench -q``).

Runs the ``--smoke`` miniature (n=5,000, one round), so it checks that
the harness measures and judges correctly — never a performance number.
Not part of the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from bench import cli, e2e, spans
from bench.oracle import WriteLedger, check_dynamic, check_static
from bench.spec import OUT_DIR, SMOKE, WORKLOADS, load_benchmark_json
from repro.geometry.rect import Rect
from repro.queries.knn import Neighbor
from repro.server import (
    CountRequest,
    DeleteRequest,
    InsertRequest,
    KNNRequest,
    WindowRequest,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
READ_ONLY = [name for name, w in WORKLOADS.items() if not w.writes]
SEED_COUNTS = ("leaf_ios_per_read", "leaf_io_bound_ratio")


@pytest.fixture(scope="module")
def declared() -> dict:
    return load_benchmark_json()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """One full smoke run: all workloads, end to end and layer pass."""
    out = tmp_path_factory.mktemp("bench") / "result.json"
    assert cli.main(["run", "--smoke", "--seed", "0", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_benchmark_json_is_well_formed(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert declared["paths"] == ["bench"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(declared["per_layer"]) <= 128
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])


def test_every_declared_metric_is_emitted_with_its_unit(smoke, declared):
    for name in WORKLOADS:
        for section in ("end_to_end", "per_layer"):
            body = smoke["workloads"][name][section]
            assert body["correct"] and body["failed"] == 0
            assert body["attempted"] >= 1
            for metric in declared[section]:
                cell = body["metrics"][metric["name"]]
                assert cell["unit"] == metric["unit"]
                assert math.isfinite(cell["value"])
            if section == "end_to_end":
                assert all(
                    body["metrics"][m["name"]]["value"] > 0
                    for m in declared[section]
                )


def test_write_rows_are_zero_only_without_writes(smoke):
    for name, workload in WORKLOADS.items():
        layer = smoke["workloads"][name]["per_layer"]["metrics"]
        for metric in ("service.write_p50_ms", "service.write_p95_ms",
                       "service.commits"):
            assert (layer[metric]["value"] > 0) == workload.writes


def test_trace_files_load_and_nest(smoke):
    for name in WORKLOADS:
        rows = spans.load(OUT_DIR / f"trace-{name}.jsonl")
        assert rows
        by_id = {row["id"]: row for row in rows}
        assert len(by_id) == len(rows)
        layers_seen = {row["name"].split(".")[0] for row in rows}
        assert {
            "kernels", "codec", "engines", "filestore", "paged", "shard",
            "server", "service", "update",
        } <= layers_seen
        for row in rows:
            assert row["end"] >= row["start"]
            if row["parent"]:
                parent = by_id[row["parent"]]
                assert parent["start"] <= row["start"]
                assert row["end"] <= parent["end"]
        roots = [r for r in rows if r["name"] == "service.submit"]
        kids = {r["parent"] for r in rows if r["name"] == "service.engine"}
        assert roots and kids <= {r["id"] for r in roots}
        assert all(v >= -1e-9 for v in spans.self_times(rows).values())


def test_counts_repeat_for_a_seed_and_differ_for_another(smoke):
    for name in READ_ONLY:
        first = smoke["workloads"][name]["end_to_end"]["metrics"]
        again = e2e.run(WORKLOADS[name], 0, 1.0, SMOKE, max_passes=1).metrics
        other = e2e.run(WORKLOADS[name], 1, 1.0, SMOKE, max_passes=1).metrics
        for metric in SEED_COUNTS:
            assert again[metric][0] == first[metric]["value"]
        assert any(
            other[metric][0] != first[metric]["value"] for metric in SEED_COUNTS
        )


@pytest.mark.parametrize("name", ["point_hot", "mixed_rw"])
def test_a_corrupted_oracle_answer_is_a_failed_operation(name):
    result = e2e.run(
        WORKLOADS[name], 0, 1.0, SMOKE, max_passes=1, corrupt_oracle=True
    )
    assert result.failed == 1 and not result.correct
    assert any("fails the oracle" in note for note in result.notes)


def test_compare_same_and_regression(smoke, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(smoke))
    slower = json.loads(json.dumps(smoke))
    cell = slower["workloads"]["point_hot"]["end_to_end"]["metrics"]
    cell["req_per_s"]["value"] *= 0.5
    b.write_text(json.dumps(slower))
    assert cli.main(["compare", "--same", str(a), str(a)]) == 0
    assert cli.main(["compare", str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert cli.main(["compare", "--same", str(a), str(b)]) == 1
    # --pairs refuses to call a gain from fewer than ten pairs.
    assert cli.main(["compare", "--pairs", str(b), str(a)]) == 0
    assert "need>=10pairs" in capsys.readouterr().out


def test_self_time_subtracts_covered_children_once():
    rows = [
        dict(id=1, parent=0, request=-1, name="a", start=0.0, end=10.0),
        dict(id=2, parent=1, request=-1, name="b", start=1.0, end=4.0),
        dict(id=3, parent=1, request=-1, name="b", start=3.0, end=6.0),
    ]
    assert spans.self_times(rows) == {"a": 5.0, "b": 6.0}


def _square(x: float, y: float, side: float = 1.0) -> Rect:
    return Rect((x, y), (x + side, y + side))


def test_dynamic_oracle_tracks_what_must_and_may_be_visible():
    insert = InsertRequest(_square(0, 0), "own-0")
    delete = DeleteRequest(_square(0, 0), "own-0")
    window = WindowRequest(_square(-1, -1, 5))
    hit = (insert.rect, "own-0")
    base = (_square(2, 2), 7)

    ledger = WriteLedger([insert, delete])
    assert ledger.note(insert, t_sub=1.0, t_done=2.0, value=100)
    # Read after the acknowledged insert: the rectangle must be there.
    assert check_dynamic(window, [7], [base, hit], ledger, 3.0, 4.0)
    assert not check_dynamic(window, [7], [base], ledger, 3.0, 4.0)
    # Read overlapping the insert: either answer is right.
    assert check_dynamic(window, [7], [base], ledger, 1.5, 1.8)
    assert check_dynamic(window, [7], [base, hit], ledger, 1.5, 1.8)
    # Read before the insert was submitted: it must not be there.
    assert not check_dynamic(window, [7], [base, hit], ledger, 0.1, 0.5)
    # A wrong base answer fails whatever the writes did.
    assert not check_dynamic(window, [7], [hit], ledger, 3.0, 4.0)
    assert check_dynamic(CountRequest(window.window), 1, 2, ledger, 3.0, 4.0)

    assert ledger.note(delete, t_sub=5.0, t_done=6.0, value=True)
    assert check_dynamic(window, [7], [base], ledger, 7.0, 8.0)
    assert not check_dynamic(window, [7], [base, hit], ledger, 7.0, 8.0)
    assert ledger.live() == {}


def test_dynamic_oracle_merges_visible_inserts_into_knn():
    insert = InsertRequest(_square(0, 0, 0.0), "own-0")
    knn = KNNRequest((0.0, 0.0), k=2)
    expected = [(1.0, 11), (2.0, 12)]
    ledger = WriteLedger([insert])
    ledger.note(insert, 1.0, 2.0, 100)
    near, far = Neighbor(1.0, None, 11), Neighbor(2.0, None, 12)
    own = Neighbor(0.0, insert.rect, "own-0")
    assert check_dynamic(knn, expected, [own, near], ledger, 3.0, 4.0)
    assert not check_dynamic(knn, expected, [near, far], ledger, 3.0, 4.0)
    assert check_dynamic(knn, expected, [near, far], ledger, 0.1, 0.5)
    assert check_static(knn, expected, [near, far])
    assert not check_static(knn, expected, [far, near])
