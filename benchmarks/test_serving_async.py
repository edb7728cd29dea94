"""Async-serving benchmark: open-loop latency percentiles vs arrival rate.

Not a paper figure — the paper stops at one synchronous query loop;
this measures the asyncio serving layer the ROADMAP's "heavy traffic"
north star asks for.  Expected shape: below saturation the p50 sits
near the engine's own execution time (dispatch is work-conserving: a
request that finds a read server idle ships at once, alone), and as
the arrival rate crosses what the executor sustains, queue depth — and
therefore p95/p99 — grows sharply while achieved throughput flattens.  That
knee, not the mean, is the serving capacity of the index; the recorded
table (`results/serving_async_latency.txt`) pins it for a K=4 sharded
TIGER index under a 10%-write mixed workload.

The run also exercises admission control end to end: the final sweep
row offers far past saturation, where the bounded queue sheds load
(rejections > 0) instead of letting latency grow without bound.
"""

from conftest import run_once

from repro.experiments.serving import serve_async_bench

RATES = (250.0, 1000.0, 4000.0, 16000.0)
REQUESTS = 400
N = 20_000
SHARDS = 4


def test_async_latency_percentiles_vs_rate(benchmark, record_table):
    table = run_once(
        benchmark,
        serve_async_bench,
        rates=RATES,
        requests=REQUESTS,
        write_frac=0.1,
        max_batch=64,
        max_pending_reads=256,
        max_pending_writes=64,
        admission="reject",
        n=N,
        shards=SHARDS,
        mmap=True,
        seed=0,
    )
    record_table(table, "serving_async_latency")

    assert len(table.rows) == len(RATES)
    completed = table.column("completed")
    rejected = table.column("rejected")
    offered = table.column("offered")
    p50 = table.column("p50_ms")
    p99 = table.column("p99_ms")
    for row in range(len(RATES)):
        # Zero errors: every offered request either completed or was
        # cleanly rejected by admission control.
        assert completed[row] + rejected[row] == offered[row]
    # Percentiles are coherent and present at every rate.
    assert all(0 < p50[i] <= p99[i] for i in range(len(RATES)))
    # Below saturation nothing is shed...
    assert rejected[0] == 0
    # ...and the tail orders itself: an unsaturated service answers in
    # milliseconds, a saturated one visibly queues.
    assert p99[0] < p99[-1]
