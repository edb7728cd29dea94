"""Load generation against ``AsyncQueryService`` and judging replies.

One asyncio thread generates all load.  A closed loop keeps a fixed
number of clients each awaiting its reply before taking the next request
of the list; the open loop submits on a seeded Poisson schedule whether
or not earlier requests finished and times each request from the moment
it was *due*, so a stall is charged to every request it delays.
"""

from __future__ import annotations

import asyncio
import math
import random
import statistics
import time
from typing import Any, Sequence

import numpy as np

from repro.server import DeleteRequest, InsertRequest, Request
from repro.service import AsyncQueryService

from bench.oracle import WriteLedger, check_dynamic, check_static
from bench.spans import SpanLog

WRITES = (InsertRequest, DeleteRequest)

#: Seconds :func:`probe` takes at the speed every scaled time is quoted
#: at (this box's median when the benchmark was defined).
PROBE_REF_S = 0.022
_PROBE_LO = np.linspace(0.0, 1.0, 226).reshape(113, 2)
_PROBE_HI = _PROBE_LO + 0.01
_PROBE_AT = np.array([0.5, 0.5])


def probe() -> float:
    """Seconds a fixed loop of interpreter and small-array numpy work
    takes right now.

    The host's speed drifts by up to 2x within a minute (neighbours on
    the same cores), in plateaus of a few seconds.  The probe runs
    between slices of timed work while the service is idle, and a
    slice's times are divided by ``probe / PROBE_REF_S`` so that drift
    cancels instead of being read as a change in the program.  It uses
    nothing from ``src/``: a change to the program cannot move it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
        if not i % 16:
            acc += int(
                ((_PROBE_LO <= _PROBE_AT) & (_PROBE_HI >= _PROBE_AT))
                .all(1).sum()
            )
    return time.perf_counter() - start


class Recorder:
    """Client-side record of one replay of a request list."""

    def __init__(self, n: int) -> None:
        #: Submit time (closed loop) or due time (open loop).
        self.t_sub = [0.0] * n
        self.t_done = [0.0] * n
        self.resp: list[Any] = [None] * n
        #: The exception of a rejected or failed request.
        self.error: list[BaseException | None] = [None] * n
        #: Open loop only: how late after its due time each was submitted.
        self.late = [0.0] * n


def _note_spans(spans: SpanLog, parent: int, i: int, rec: Recorder) -> None:
    """The request's root span plus queue/engine children rebuilt from
    the public ``ServiceResponse.queue_s`` / ``engine_s``."""
    root = spans.add("service.submit", rec.t_sub[i], rec.t_done[i], parent, i)
    resp = rec.resp[i]
    if resp is None:
        return
    # The reply's latency is measured from admission, which in the open
    # loop is later than the due time the root span starts at.
    admitted = rec.t_done[i] - resp.latency_s
    queue_end = admitted + resp.queue_s
    spans.add("service.queue", admitted, queue_end, root, i)
    spans.add(
        "service.engine", queue_end,
        min(queue_end + resp.engine_s, rec.t_done[i]), root, i,
    )


async def closed_loop(
    service: AsyncQueryService,
    requests: Sequence[Request],
    in_flight: int,
    spans: SpanLog | None = None,
    parent: int = 0,
) -> Recorder:
    rec = Recorder(len(requests))
    todo = iter(range(len(requests)))

    async def client() -> None:
        for i in todo:  # shared iterator: list order is submit order
            rec.t_sub[i] = time.perf_counter()
            try:
                rec.resp[i] = await service.submit(requests[i])
            except Exception as exc:  # noqa: BLE001 - a failed operation
                rec.error[i] = exc
            rec.t_done[i] = time.perf_counter()
            if spans is not None:
                _note_spans(spans, parent, i, rec)

    await asyncio.gather(*(client() for _ in range(in_flight)))
    return rec


def poisson_offsets(count: int, rate: float, seed: int) -> list[float]:
    """Due times (seconds from start) of ``count`` Poisson arrivals,
    stretched so the last falls at ``count / rate``: seeds differ in
    where the bursts fall, not in how much load is offered."""
    rng = random.Random(seed)
    at, offsets = 0.0, []
    for _ in range(count):
        at += rng.expovariate(rate)
        offsets.append(at)
    stretch = count / rate / at
    return [offset * stretch for offset in offsets]


async def open_loop(
    service: AsyncQueryService,
    requests: Sequence[Request],
    offsets: Sequence[float],
    spans: SpanLog | None = None,
    parent: int = 0,
) -> Recorder:
    rec = Recorder(len(requests))
    loop = asyncio.get_running_loop()

    async def one(i: int) -> None:
        try:
            rec.resp[i] = await service.submit(requests[i])
        except Exception as exc:  # noqa: BLE001 - a failed operation
            rec.error[i] = exc
        rec.t_done[i] = time.perf_counter()
        if spans is not None:
            _note_spans(spans, parent, i, rec)

    start = time.perf_counter()
    tasks = []
    for i, offset in enumerate(offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        rec.t_sub[i] = due
        rec.late[i] = time.perf_counter() - due
        tasks.append(loop.create_task(one(i)))
    await asyncio.gather(*tasks)
    return rec


def judge(
    requests: Sequence[Request],
    expected: Sequence[Any],
    rec: Recorder,
    ledger: WriteLedger | None = None,
) -> list[bool]:
    """Per-request verdict: answered, and the answer passes the oracle."""
    ok = [False] * len(requests)
    if ledger is not None:
        # Writes first: reads are judged against the finished timeline.
        for i, request in enumerate(requests):
            if not isinstance(request, WRITES):
                continue
            if rec.resp[i] is None:
                ledger.note_submitted(request, rec.t_sub[i])
            else:
                ok[i] = ledger.note(
                    request, rec.t_sub[i], rec.t_done[i], rec.resp[i].value
                )
    for i, request in enumerate(requests):
        if isinstance(request, WRITES) or rec.resp[i] is None:
            continue
        if ledger is None:
            ok[i] = check_static(request, expected[i], rec.resp[i].value)
        else:
            ok[i] = check_dynamic(
                request, expected[i], rec.resp[i].value, ledger,
                rec.t_sub[i], rec.t_done[i],
            )
    return ok


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; nan for an empty sample."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median_iqr(values: Sequence[float]) -> tuple[float, float]:
    """Median and interquartile distance (0 below two values)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1
