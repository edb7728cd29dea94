"""One status, live and offline.

* **Metrics differential.**  A scripted service over a single file, a
  K=4 family and a simulated tree, with EXPLAIN, cache analytics, the
  health walk and group commit, exports through
  :func:`repro.obs.status.export_metrics`.  At every snapshot the
  pre-change exporter (``tests/metrics_oracle.py``) runs beside it on
  its own registry, and the two Prometheus texts must agree: every
  family, help text and label set, and every value except the four
  families that read the clock.  Three seeded mutations must be caught.
* **Live equals offline.**  A K=4 service's ``status()`` after
  ``aclose`` reports each file's epoch, header slot and verdict and the
  degradation score that ``repro status`` reports for its manifest.
* **The docs list what is exported.**  The metric table in
  ``docs/observability.md`` is :data:`~repro.obs.status.METRIC_FAMILIES`.
"""

from __future__ import annotations

import asyncio
import inspect
import pathlib
import re
import textwrap

import pytest

from repro import BlockStore, build_prtree
from repro.experiments.serving import (
    DATASETS,
    index_status,
    mixed_requests,
    mixed_update_requests,
    pack_index,
)
from repro.obs import MetricsRegistry, status as status_module
from repro.service import AsyncQueryService, service as service_module
from repro.storage import open_index
from repro.storage.filestore import RecoveryInfo
from tests.metrics_oracle import OracleExporter

DOCS = pathlib.Path(__file__).parents[2] / "docs" / "observability.md"

#: Families whose values read the clock: compared by label set only.
CLOCK = (
    "repro_throughput_rps",
    "repro_shard_busy_seconds_total",
    "repro_commit_seconds_total",
    "repro_request_latency_seconds",
)

N = 600


def pack_pair(directory):
    """A single file and a K=4 family over the same data."""
    single = directory / "single.pack"
    family = directory / "k4.manifest"
    pack_index(single, dataset="uniform", n=N, fanout=16)
    pack_index(family, dataset="uniform", n=N, fanout=16, shards=4)
    return single, family


def parse(text: str) -> tuple[set[str], dict[str, str]]:
    """Prometheus text as (HELP/TYPE lines, series -> value)."""
    meta, values = set(), {}
    for line in text.splitlines():
        if line.startswith("#"):
            meta.add(line)
        else:
            series, value = line.rsplit(" ", 1)
            values[series] = value
    return meta, values


def assert_same_exposition(got: str, want: str) -> None:
    got_meta, got_values = parse(got)
    want_meta, want_values = parse(want)
    assert got_meta == want_meta
    assert got_values.keys() == want_values.keys()
    for series, value in want_values.items():
        if not series.startswith(CLOCK):
            assert got_values[series] == value, series


async def serve_script(service, reads, writes):
    """Reads, a snapshot, then writes and reads under group commit."""
    async with service:
        await service.submit_many(reads)
        service.snapshot_metrics()
        await service.submit_many(writes)
        await service.submit_many(reads)


def run_differential(directory, health_interval: float) -> None:
    single, manifest = pack_pair(directory)
    data = DATASETS["uniform"](N, 0)
    values = dict(enumerate(v for _, v in data))
    fresh = DATASETS["uniform"](80, 7)
    memory = build_prtree(BlockStore(), data[:200], fanout=16)
    with open_index(single, values=values, cache_analytics=True) as tree, \
            open_index(manifest, values=values, cache_analytics=True) as family:
        indexes = {"single": tree, "family": family, "mem": memory}
        reads, writes = [], []
        for name, index in indexes.items():
            reads += mixed_requests(
                index.root().mbr(), count=40, seed=1, index=name
            )
        for name in ("single", "family"):
            writes += mixed_update_requests(
                data[:40], fresh, seed=4, index=name
            )[0]
        registry = MetricsRegistry()
        service = AsyncQueryService(
            indexes,
            max_batch=16,
            admission="backpressure",
            sync_every_n=2,
            metrics=registry,
            metrics_interval=3600.0,
            explain=True,
            health_interval=health_interval,
        )
        oracle = OracleExporter(service, MetricsRegistry())
        snapshot = service.snapshot_metrics

        def both() -> None:
            snapshot()
            oracle.snapshot_metrics()

        service.snapshot_metrics = both
        asyncio.run(serve_script(service, reads, writes))
        assert service.stats.commits >= 2
    want = oracle.metrics.render_prometheus()
    # The run reaches every family of the table.
    for name, *_ in status_module.METRIC_FAMILIES:
        assert f"# TYPE {name} " in want, name
    assert_same_exposition(registry.render_prometheus(), want)


def _mutant(function, old, new):
    """``function`` recompiled from its own source with ``old`` replaced
    by ``new`` (which must occur exactly once)."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


MUTANTS = {
    "shard-label-off-by-one": (
        "read_status", status_module.read_status,
        "(str(i), tree)", "(str(i + 1), tree)",
    ),
    "delta-re-adds-the-total": (
        "export_metrics", status_module.export_metrics,
        "child.inc(value - previous)", "child.inc(value)",
    ),
    "score-without-a-baseline": (
        "read_status", status_module.read_status,
        'getattr(index, "health_baseline", None)',
        'getattr(index, "health_baseline", None) or {}',
    ),
}


class TestMetricsDifferential:
    @pytest.mark.parametrize("health_interval", [1e-9, 3600.0])
    def test_matches_the_pre_change_exporter(self, tmp_path, health_interval):
        run_differential(tmp_path, health_interval)

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_caught(self, tmp_path, monkeypatch, name):
        attribute, function, old, new = MUTANTS[name]
        monkeypatch.setattr(
            service_module, attribute, _mutant(function, old, new)
        )
        with pytest.raises(AssertionError):
            run_differential(tmp_path, 1e-9)


def test_group_commit_exports_every_commit_family(tmp_path):
    single, _ = pack_pair(tmp_path)
    data = DATASETS["uniform"](N, 0)
    requests, _ = mixed_update_requests(
        data[:60], DATASETS["uniform"](60, 9), seed=3
    )
    registry = MetricsRegistry()

    async def run(tree):
        async with AsyncQueryService(
            tree, max_batch=8, admission="backpressure", sync_every_n=3,
            metrics=registry,
        ) as service:
            for start in range(0, len(requests), 8):
                await service.submit_many(requests[start : start + 8])
        return service.stats

    values = dict(enumerate(v for _, v in data))
    with open_index(single, values=values) as tree:
        stats = asyncio.run(run(tree))
    _, series = parse(registry.render_prometheus())
    assert stats.commits >= 2 and stats.commit_failures == 0
    assert series["repro_commits_total"] == str(stats.commits)
    assert series["repro_commit_batches_total"] == str(stats.batches)
    assert series["repro_commit_failures_total"] == "0"
    assert float(series["repro_commit_seconds_total"]) > 0.0


def test_live_status_after_aclose_equals_offline(tmp_path):
    _, manifest = pack_pair(tmp_path)
    data = DATASETS["uniform"](N, 0)
    requests, _ = mixed_update_requests(
        data[:150], DATASETS["uniform"](150, 7), seed=4
    )

    async def run(family):
        async with AsyncQueryService(
            family, max_batch=16, admission="backpressure", sync_every_n=2
        ) as service:
            await service.submit_many(requests)
        return service

    values = dict(enumerate(v for _, v in data))
    with open_index(manifest, values=values) as family:
        live = asyncio.run(run(family)).status().indexes["default"]

    def files(status):
        return [
            (f.name, f.epoch, f.header_slot, f.verdict) for f in status.files
        ]

    with open_index(manifest, readonly=True) as family:
        offline = status_module.read_status(family)
    assert len(live.files) == 4 and live.files[0].epoch > 1
    assert files(live) == files(offline)
    assert live.score == offline.score and live.score > 1e-4
    # ... which is what ``repro status`` prints for the manifest.
    shown = index_status(manifest)
    assert shown[0].column("epoch") == [f.epoch for f in live.files]
    assert shown[0].column("verdict") == [f.verdict for f in live.files]
    assert f"degradation score: {live.score:.9f}" in shown[1].render()


def test_docs_table_is_the_exported_family_table():
    rows = re.findall(
        r"^\| `(repro_\w+)` \| (\w+) \| ([^|]+) \|", DOCS.read_text(), re.M
    )
    documented = [
        (name, kind, tuple(re.findall(r"`(\w+)`", labels.split("(+")[0])))
        for name, kind, labels in rows
    ]
    exported = [
        (name, kind, labels)
        for name, kind, labels, _, _ in status_module.METRIC_FAMILIES
    ]
    assert sorted(documented) == sorted(exported)
    assert len(documented) == len(set(documented))


@pytest.mark.parametrize(
    "info, verdict",
    [
        (RecoveryInfo(3, 1, 0), "clean"),
        (RecoveryInfo(3, 1, 2), "rolled back an uncommitted epoch"),
        (
            RecoveryInfo(3, 1, 0, discarded_epoch=4),
            "rolled back to manifest (epoch 4 discarded)",
        ),
    ],
)
def test_file_verdicts(info, verdict):
    file = status_module.FileStatus("f", "0", 3, 1, info)
    assert file.verdict == verdict
    assert file.rolled_back_blocks == info.rolled_back_blocks
