"""Observability overhead: what each introspection layer costs.

The observability stack (docs/observability.md) promises a near-free
disabled path: with no tracer, profiler or cache tracker installed the
only added work per I/O is one contextvar read returning None (tracing)
plus one ``None`` check (ghost tracker) plus one module-level int check
(profiler phases), so serve-bench throughput must stay within noise of
an uninstrumented build.  This benchmark records the same mixed
serve-bench workload over one shared packed index five ways — all
observability off, 100% trace sampling, trace + metrics + slow-log,
sampling profiler on, and ghost-cache analytics on — and pins the
measured throughputs in `results/obs_overhead.txt` / `.json` so the
cost is tracked across PRs (`tools/bench_compare.py` diffs the JSON).

Wall-clock ratios between two in-process runs are noisy (page-cache
state is reset by reopening the index, but CPU contention is not), so
each config reports the median of RUNS runs and nothing wall-clock is
asserted: the ratio each layer is expected to stay above is a column
(``expected_min``) next to the measured one, and the recorded numbers
are the deliverable.
"""

import pathlib
import statistics
import tempfile

from conftest import run_once

from repro.experiments.report import Table
from repro.experiments.serving import pack_index, serve_bench

REQUESTS = 600
BATCH = 200
N = 8_000
RUNS = 5


def _throughput(index, **kwargs) -> float:
    """Median overall req/s over RUNS serve-bench runs (fresh cache each)."""
    samples = []
    for _ in range(RUNS):
        table = serve_bench(
            index=index,
            requests=REQUESTS,
            batch_size=BATCH,
            seed=0,
            **kwargs,
        )
        latency_s = sum(table.column("latency_ms")) / 1000.0
        samples.append(sum(table.column("requests")) / latency_s)
    return statistics.median(samples)


def test_observability_overhead(benchmark, record_table):
    with tempfile.TemporaryDirectory(prefix="repro-obs-overhead-") as tmp:
        tmpdir = pathlib.Path(tmp)
        index = tmpdir / "index.pack"
        pack_index(index, n=N, seed=0)

        def measure():
            # Untimed warm-up: the first serve run pays OS page-cache
            # and CPU-frequency ramp-up that would bias whichever
            # config happens to run first.
            serve_bench(index=index, requests=REQUESTS, batch_size=BATCH)
            off = _throughput(index)
            traced = _throughput(index, trace=tmpdir / "t.jsonl")
            full = _throughput(
                index,
                trace=tmpdir / "f.jsonl",
                metrics=tmpdir / "f.prom",
                slow_ms=0.0,
            )
            profiled = _throughput(index, profile=tmpdir / "p.collapsed")
            ghost = _throughput(index, cache_analytics=True)
            explained = _throughput(index, explain=True)
            return off, traced, full, profiled, ghost, explained

        off, traced, full, profiled, ghost, explained = run_once(
            benchmark, measure
        )

    table = Table(
        title=f"observability overhead: serve-bench, {REQUESTS} requests",
        headers=["config", "req_per_s", "vs_off", "expected_min"],
    )
    # expected_min: 100% sampling writes every span to disk and still
    # keeps the bulk of the throughput; the profiler only reads frames
    # 200x/s from a separate thread and the ghost tracker is
    # O(#budgets) dict moves per page lookup, so both must stay far
    # cheaper than full tracing; plan capture is pure in-memory counter
    # work on nodes the query already read.
    table.add_row("off", off, 1.0, 1.0)
    table.add_row("trace 100%", traced, traced / off, 0.25)
    table.add_row("trace+metrics+slowlog", full, full / off, 0.20)
    table.add_row("profiler 5ms", profiled, profiled / off, 0.5)
    table.add_row("ghost cache", ghost, ghost / off, 0.5)
    table.add_row("explain plans", explained, explained / off, 0.4)
    table.add_note(
        "off = no tracer/profiler/tracker installed (the shipping "
        "default): the hot path's only obs cost is a contextvar read "
        "returning None, a None check and one int check, within noise "
        "of an uninstrumented build"
    )
    table.add_note(
        "profiler 5ms = wall-clock sampling profiler attributing stacks "
        "to serving phases; ghost cache = reuse-distance tracker on "
        "every page-table lookup (miss-ratio curve + working sets)"
    )
    table.add_note(
        "explain plans = per-request EXPLAIN capture (per-level visit "
        "counters + plan objects); disables window batching.  With "
        "explain off the server pays one boolean check per request and "
        "the plan field stays None — the disabled path is the 'off' row"
    )
    table.add_note(
        f"median of {RUNS} runs per config over one shared packed index "
        f"(n={N}, fresh page cache per run)"
    )
    table.add_note(
        "expected_min = the vs_off each layer is built to stay above; "
        "reported, not asserted — two in-process wall-clock runs share "
        "a noisy machine (a re-run of 'ghost cache' has read 0.46)"
    )
    record_table(table, "obs_overhead")

    # Every configuration served the whole workload.
    assert min(off, traced, full, profiled, ghost, explained) > 0
