"""End-to-end measurement: one workload through ``AsyncQueryService``,
tracing off, every reply checked.

A run sets up ``SETUPS`` times from nothing (``setup_s`` is the median)
and then makes passes.  Each pass replays the workload's whole request
list from the same state and yields one value per metric; passes repeat
until ``--seconds`` of timed work is done and the reported value is the
median over passes.  Clock metrics are scaled by the machine speed probed
between slices of each pass (``bench.drive.probe``).
"""

from __future__ import annotations

import asyncio
import gc
import math
import pathlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.rtree.validate import RTreeInvariantError, validate_rtree
from repro.server import Request
from repro.storage import StorageError, open_index

from bench import stack
from bench.drive import (
    PROBE_REF_S,
    WRITES,
    Recorder,
    closed_loop,
    judge,
    median_iqr,
    open_loop,
    percentile,
    poisson_offsets,
    probe,
)
from bench.oracle import Engines, WriteLedger, expected_answers
from bench.spec import LIMIT_MS, Scale, Workload

UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "cpu_ms_per_req": "ms",
    "read_p50_ms": "ms",
    "within_limit_frac": "ratio",
    "leaf_ios_per_read": "count",
    "leaf_io_bound_ratio": "ratio",
    "page_hit_ratio": "ratio",
    "file_bytes_per_rect": "B",
}
#: Full set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Passes a run makes even when ``--seconds`` is over sooner: a median
#: over fewer does not shed a disturbed pass.
MIN_PASSES = 3


@dataclass
class RunResult:
    """What one invocation measured, in the contract's vocabulary."""

    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit, interquartile distance over passes).
    metrics: dict[str, tuple[float, str, float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: name -> the per-pass values behind a median (end to end only).
    rounds: dict[str, list[float]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def make_requests(
    workload: Workload, built: stack.Built, seed: int, scale: Scale
) -> list[Request]:
    count = max(20, workload.list_len // scale.shrink)
    return workload.make(built.bounds, built.centers, count, seed)


def reads_of(requests: Sequence[Request], limit: int) -> list[int]:
    """Indexes of the first ``limit`` read requests of a list."""
    picked = [i for i, r in enumerate(requests) if not isinstance(r, WRITES)]
    return picked[:limit]


def check_durable(
    path: pathlib.Path, built: stack.Built, ledger: WriteLedger
) -> str | None:
    """Reopen the index from disk only; None when it validates and holds
    exactly the base data plus every acknowledged, undeleted insert."""
    own = ledger.live()
    try:
        with open_index(path, values=lambda oid: oid, readonly=True) as index:
            for tree in getattr(index, "shards", [index]):
                validate_rtree(tree, expect_size=tree.size)
            seen = 0
            for rect, oid in index.all_data():
                want = built.base_rects[oid] if oid < built.n else own.get(oid)
                if rect != want:
                    return f"object {oid} holds {rect}, expected {want}"
                seen += 1
    except (StorageError, RTreeInvariantError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if seen != built.n + len(own):
        return f"{seen} live rectangles, expected {built.n + len(own)}"
    return None


@dataclass
class PassTotals:
    """What one replay of the whole request list added up to."""

    attempted: int = 0
    #: Answered, and the answer passed the oracle.
    answered: int = 0
    #: ... within ``LIMIT_MS`` of submit/due time, by the wall clock.
    within: int = 0
    reads: int = 0
    leaf: int = 0
    bound: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Seconds of every machine-speed probe taken during the pass.
    probes: list[float] = field(default_factory=list)
    read_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def add_slice(
        self, requests, rec: Recorder, ok, wall_s, cpu_s, fanout, at
    ) -> None:
        self.attempted += len(requests)
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        limit_s = LIMIT_MS / 1000.0
        for i, request in enumerate(requests):
            if not ok[i]:
                # Failed: missing from throughput, misses the limit.
                if len(self.errors) < 3:
                    self.errors.append(
                        f"request {at + i}: {rec.error[i]!r}"
                        if rec.error[i] is not None
                        else f"request {at + i}: answer fails the oracle"
                    )
                continue
            latency = rec.t_done[i] - rec.t_sub[i]
            self.answered += 1
            self.within += latency <= limit_s
            if isinstance(request, WRITES):
                continue
            stats = rec.resp[i].stats
            self.reads += 1
            self.read_ms.append(latency * 1000.0)
            self.leaf += stats.leaf_reads
            self.bound += max(1, math.ceil(stats.reported / fanout))

    def values(self, workload: Workload, pages) -> dict[str, float]:
        """This pass's value of every per-pass end-to-end metric, then
        under ``info.`` names what is printed but not declared: the
        clocks as measured, and the read tail (too unsteady on a shared
        host for a bound; the layer pass reports it as
        ``service.read_p95_ms``).

        The clock metrics are quoted at the reference machine speed.
        Processor time divides by the pass's speed.  Of wall time only
        the share the process spent on the processor stretches with the
        machine's speed; the rest is waiting on timers (the service's
        flush interval, an open loop's schedule) and is kept as measured.
        """
        speed = statistics.fmean(self.probes) / PROBE_REF_S
        busy = min(1.0, self.cpu_s / self.wall_s)
        stretch = (1.0 - busy) + busy / speed
        answered = max(1, self.answered)
        rate = self.answered / self.wall_s
        cpu_ms = self.cpu_s * 1000.0 / answered
        p50 = percentile(self.read_ms, 50)
        return {
            # An open loop's clock is its schedule, not the processor.
            "req_per_s": rate if workload.loop == "open" else rate / stretch,
            "cpu_ms_per_req": cpu_ms / speed,
            "read_p50_ms": p50 * stretch,
            "within_limit_frac": self.within / self.attempted,
            "leaf_ios_per_read": self.leaf / max(1, self.reads),
            "leaf_io_bound_ratio": self.leaf / max(1, self.bound),
            "page_hit_ratio": pages.hits / max(1, pages.hits + pages.misses),
            "info.read_p95_ms": percentile(self.read_ms, 95) * stretch,
            "info.unscaled_req_per_s": rate,
            "info.unscaled_cpu_ms_per_req": cpu_ms,
            "info.unscaled_read_p50_ms": p50,
        }


async def _warm_up(service, workload, requests) -> None:
    warm = [requests[i] for i in reads_of(requests, workload.warm_reads)]
    await closed_loop(service, warm, workload.in_flight or 8)


async def _timed_pass(
    service, workload, requests, expected, offsets, ledger, fanout
) -> PassTotals:
    """Replay the list slice by slice.  Between slices, with the service
    idle: probe the machine speed, judge the slice's replies and drop
    them, collect garbage — so every slice starts from the same state and
    the harness's own retained replies never trigger a full collection
    inside timed work."""
    totals = PassTotals()
    gc.collect()
    totals.probes.append(probe())
    for lo in range(0, len(requests), workload.slice_len):
        part = requests[lo : lo + workload.slice_len]
        cpu0, t0 = time.process_time(), time.perf_counter()
        if offsets is None:
            rec = await closed_loop(service, part, workload.in_flight)
        else:
            base = offsets[lo - 1] if lo else 0.0
            due = [at - base for at in offsets[lo : lo + len(part)]]
            rec = await open_loop(service, part, due)
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        totals.probes.append(probe())
        ok = judge(part, expected[lo : lo + len(part)], rec, ledger)
        totals.add_slice(part, rec, ok, wall_s, cpu_s, fanout, lo)
        del rec
        gc.collect()
    return totals


class _Passes:
    """Per-pass values and the operation counts of a run."""

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = {}
        self.count = self.attempted = self.failed = 0
        self.timed_s = 0.0
        self.errors: list[str] = []

    def add(self, totals: PassTotals, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.values.setdefault(name, []).append(value)
        self.count += 1
        self.attempted += totals.attempted
        self.failed += totals.attempted - totals.answered
        self.timed_s += totals.wall_s
        self.errors.extend(totals.errors[: 3 - len(self.errors)])

    def more(self, seconds: float, max_passes: int) -> bool:
        return self.count < max_passes and (
            self.count < MIN_PASSES or self.timed_s < seconds
        )


async def _read_only_passes(
    workload, tree, requests, expected, offsets, seconds, max_passes
) -> _Passes:
    passes = _Passes()
    async with stack.new_service(tree, workload) as service:
        await _warm_up(service, workload, requests)
        stack.settle_gc()
        while passes.more(seconds, max_passes):
            before = stack.page_stats(tree)
            totals = await _timed_pass(
                service, workload, requests, expected, offsets, None,
                tree.fanout,
            )
            pages = stack.page_stats(tree) - before
            passes.add(totals, totals.values(workload, pages))
    return passes


async def _write_pass(workload, tree, requests, expected, ledger):
    """Warm-up then one timed replay on a freshly opened family; the
    service's close performs the final group commit."""
    async with stack.new_service(tree, workload) as service:
        await _warm_up(service, workload, requests)
        stack.settle_gc()
        before = stack.page_stats(tree)
        totals = await _timed_pass(
            service, workload, requests, expected, None, ledger, stack.FANOUT
        )
        return totals, stack.page_stats(tree) - before


def _write_passes(
    workload, built, requests, expected, seconds, max_passes, directory
) -> tuple[_Passes, float]:
    """Every pass starts from a fresh copy of the packed family (a
    just-packed tree has full leaves, so early inserts split far more
    than late ones) and ends with the durability check."""
    passes = _Passes()
    bytes_per_rect = []
    while passes.more(seconds, max_passes):
        path = stack.copy_index(built.family, directory / "live")
        ledger = WriteLedger(list(requests))
        tree = stack.open_for(workload, path, built)
        try:
            totals, pages = asyncio.run(
                _write_pass(workload, tree, requests, expected, ledger)
            )
            live = tree.size
        finally:
            tree.close()
        passes.add(totals, totals.values(workload, pages))
        bytes_per_rect.append(stack.index_bytes(path) / live)
        problem = check_durable(path, built, ledger)
        passes.attempted += 1
        if problem is not None:
            passes.failed += 1
            passes.errors.append(f"durability: {problem}")
    return passes, statistics.median(bytes_per_rect)


def set_up(
    workload: Workload, seed: int, scale: Scale, directory: pathlib.Path
) -> tuple[stack.Built, list[Request]]:
    """Everything between "here is the data" and "the service answers
    warm": dataset, bulk-load, pack, ``open_index``, service start and the
    warm-up reads, each stage timed into ``built.timings``."""
    built = stack.build(seed, scale)
    if workload.sharded:
        stack.pack_family(built, directory)
    else:
        stack.pack_single(built, directory)
    requests = make_requests(workload, built, seed, scale)

    async def warm(tree) -> None:
        async with stack.new_service(tree, workload) as service:
            await _warm_up(service, workload, requests)

    with built.timings.stage("serve_s"):
        path = built.single
        if workload.sharded:
            path = stack.copy_index(built.family, directory / "live")
        tree = stack.open_for(workload, path, built)
        try:
            asyncio.run(warm(tree))
        finally:
            tree.close()
    return built, requests


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    scale: Scale,
    max_passes: int = 1_000,
    corrupt_oracle: bool = False,
) -> RunResult:
    """Set up ``workload`` from ``seed`` and measure it for ``seconds``.

    ``corrupt_oracle`` swaps one expected answer for a wrong one — the
    harness's self-test that a wrong reply is counted as a failed
    operation.
    """
    stack.require_numpy()
    result = RunResult()
    with stack.scratch_dir() as directory:
        # Set up SETUPS times from nothing; setup_s is the median and the
        # last set-up's index is the one measured.
        setups: list[stack.Stages] = []
        for attempt in range(SETUPS):
            home = directory / f"setup{attempt}"
            home.mkdir()
            built, requests = set_up(workload, seed, scale, home)
            setups.append(built.timings)
            if attempt < SETUPS - 1:
                shutil.rmtree(home)

        oracle_start = time.perf_counter()
        expected, _ = expected_answers(Engines.over(built.tree), requests)
        if corrupt_oracle:
            victim = next(i for i, e in enumerate(expected) if e is not None)
            expected[victim] = "not the answer"
        oracle_s = time.perf_counter() - oracle_start
        offsets = (
            poisson_offsets(len(requests), workload.rate, seed)
            if workload.loop == "open"
            else None
        )

        if workload.writes:
            passes, bytes_per_rect = _write_passes(
                workload, built, requests, expected, seconds, max_passes, home
            )
        else:
            tree = stack.open_for(workload, built.single, built)
            try:
                passes = asyncio.run(
                    _read_only_passes(
                        workload, tree, requests, expected, offsets, seconds,
                        max_passes,
                    )
                )
            finally:
                tree.close()
            bytes_per_rect = stack.index_bytes(built.single) / built.n

    result.attempted, result.failed = passes.attempted, passes.failed
    result.rounds = passes.values
    result.rounds["setup_s"] = [sum(s.scaled.values()) for s in setups]
    result.rounds["info.unscaled_setup_s"] = [
        sum(s.raw.values()) for s in setups
    ]
    for name, values in result.rounds.items():
        med, iqr = median_iqr(values)
        if name in UNITS:
            result.metrics[name] = (med, UNITS[name], iqr)
        else:
            result.notes.append(f"{name} = {med:.6g}")
    result.metrics["file_bytes_per_rect"] = (bytes_per_rect, "B", 0.0)
    last = setups[-1]
    result.notes.append(
        f"{passes.count} passes of {len(requests)} requests, "
        f"{passes.timed_s:.1f}s timed; last set-up "
        + " ".join(f"{k}={v:.2f}" for k, v in last.raw.items())
        + f"; oracle {oracle_s:.2f}s (not in setup_s)"
    )
    result.notes.extend(passes.errors)
    return result
