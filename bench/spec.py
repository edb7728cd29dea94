"""Fixed inputs, the four workloads, and the metric vocabulary.

``BENCHMARK.json`` at the repo root is the single source for metric
names, units, directions and bounds; this module loads it and defines
what it cannot hold: how each workload's index is opened and how its
request list is generated from ``--seed``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.geometry.rect import Rect
from repro.experiments.serving import mixed_requests
from repro.server import (
    CountRequest,
    DeleteRequest,
    InsertRequest,
    KNNRequest,
    PointRequest,
    Request,
    WindowRequest,
)
from repro.workloads.queries import square_queries

from bench import ROOT

DATASET = "tiger-east"
VARIANT = "PR"
BLOCK_SIZE = 4096
SHARDS = 4
#: Latency limit from due/submit time, milliseconds (within_limit_frac).
LIMIT_MS = 50.0
#: The service runs with shipping defaults except the executor width.
EXECUTOR_WORKERS = 2
#: Open-loop ladder for service.max_rate_ok_rps.
RATE_LADDER = (150, 300, 450, 600, 750, 900)

OUT_DIR = ROOT / "bench" / "out"


@dataclass(frozen=True)
class Scale:
    """Problem size: the full benchmark or the ``--smoke`` miniature."""

    n: int
    #: Request lists are this many times shorter than the full ones.
    shrink: int
    #: Seconds per rate of the max_rate ladder.
    ladder_s: float


#: n = 50,000 and not the 100,000 the workloads were first sized for: a
#: run sets up three times (``setup_s`` is their median) and the driver
#: makes 92 runs inside one hour, which three 100k bulk-loads do not fit.
FULL = Scale(n=50_000, shrink=1, ladder_s=2.5)
SMOKE = Scale(n=5_000, shrink=10, ladder_s=0.4)


def load_benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Request lists (everything below is a pure function of its arguments)
# ----------------------------------------------------------------------


def _uniform_point(rng: random.Random, bounds: Rect) -> tuple[float, ...]:
    return tuple(
        lo + rng.random() * (hi - lo) for lo, hi in zip(bounds.lo, bounds.hi)
    )


def point_hot_requests(
    bounds: Rect, centers: Sequence[tuple[float, ...]], count: int, seed: int
) -> list[Request]:
    """70 % stabbing queries at data-rectangle centers (every one answers
    at least one rectangle), 30 % counts over 0.01 %-area windows."""
    rng = random.Random(seed)
    windows = square_queries(bounds, 0.01, count=count, seed=seed).windows
    requests: list[Request] = []
    for i in range(count):
        if rng.random() < 0.70:
            requests.append(PointRequest(centers[rng.randrange(len(centers))]))
        else:
            requests.append(CountRequest(windows[i]))
    return requests


def scan_cold_requests(
    bounds: Rect, centers: Sequence[tuple[float, ...]], count: int, seed: int
) -> list[Request]:
    """80 % windows of 2 % area (T ~ n/50), 20 % kNN with k=100."""
    rng = random.Random(seed)
    windows = square_queries(bounds, 2.0, count=count, seed=seed).windows
    requests: list[Request] = []
    for i in range(count):
        if rng.random() < 0.80:
            requests.append(WindowRequest(windows[i]))
        else:
            requests.append(KNNRequest(_uniform_point(rng, bounds), k=100))
    return requests


def canonical_reads(bounds: Rect, count: int, seed: int) -> list[Request]:
    """The repo's canonical read mix: 40/20/20/10/10 window/point/kNN/
    count/containment, 0.25 % windows, k=10, 10 % exact repeats."""
    return mixed_requests(
        bounds, count=count, area_percent=0.25, k=10, duplicate_frac=0.1,
        seed=seed,
    )


#: The first writes of ``mixed_rw`` that are all inserts, so that every
#: later delete has a pool of the stream's own rectangles to pick from.
WRITE_POOL = 20


def mixed_rw_requests(
    bounds: Rect, centers: Sequence[tuple[float, ...]], count: int, seed: int
) -> list[Request]:
    """The canonical read mix with every fifth request replaced by a
    write: small fresh rectangles inserted, and rectangles this stream
    inserted earlier deleted, alternately once the pool is filled.

    The shape is ``mixed_service_stream(write_frac=0.2)``'s with the two
    coin flips per request made exact.  With the coins, a 1,500-request
    list had 123 to 159 deletes depending on the seed, and a delete costs
    ten times a read: ``cpu_ms_per_req`` followed the delete count (1.27
    to 1.60 ms over ten seeds) instead of the program.
    """
    rng = random.Random(seed)
    stream = canonical_reads(bounds, count, seed)
    live: list[tuple[Rect, str]] = []
    for serial, at in enumerate(range(4, count, 5)):
        if serial >= WRITE_POOL and serial % 2:
            rect, value = live.pop(rng.randrange(len(live)))
            stream[at] = DeleteRequest(rect, value)
            continue
        lo = tuple(
            low + rng.random() * (high - low) * 0.99
            for low, high in zip(bounds.lo, bounds.hi)
        )
        hi = tuple(
            c + (high - low) * 0.002
            for c, low, high in zip(lo, bounds.lo, bounds.hi)
        )
        live.append((Rect(lo, hi), f"bench-{seed}-{serial}"))
        stream[at] = InsertRequest(*live[-1])
    return stream


def arrivals_requests(
    bounds: Rect, centers: Sequence[tuple[float, ...]], count: int, seed: int
) -> list[Request]:
    return canonical_reads(bounds, count, seed)


@dataclass(frozen=True)
class Workload:
    name: str
    #: K=4 ``shard_pack`` family instead of one ``pack_tree`` file.
    sharded: bool
    #: ``open_index(cache_pages=...)`` (per shard for a family).
    cache_pages: int
    #: "closed": ``in_flight`` clients each await their reply before the
    #: next request; "open": Poisson arrivals at ``rate`` req/s.
    loop: str
    in_flight: int
    rate: float
    #: Requests per pass at full scale; a pass replays the whole list.
    list_len: int
    #: Requests per slice: a pass runs slice by slice (about 0.4 s each)
    #: with the machine-speed probe between slices.
    slice_len: int
    #: Reads replayed untimed before the first timed request.
    warm_reads: int
    #: Reads replayed at every boundary by the traced layer pass.
    layer_reads: int
    #: ``AsyncQueryService(sync_every_n=...)``.
    sync_every_n: int | None
    make: Callable[..., list[Request]]

    @property
    def writes(self) -> bool:
        return self.sync_every_n is not None

    @property
    def total_cache_pages(self) -> int:
        """Page budget over the whole index (a family splits it evenly)."""
        return self.cache_pages * (SHARDS if self.sharded else 1)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "point_hot", sharded=False, cache_pages=1024, loop="closed",
            in_flight=8, rate=0.0, list_len=3600, slice_len=600,
            warm_reads=1000, layer_reads=1000, sync_every_n=None,
            make=point_hot_requests,
        ),
        Workload(
            "scan_cold", sharded=False, cache_pages=32, loop="closed",
            in_flight=2, rate=0.0, list_len=540, slice_len=60,
            warm_reads=100, layer_reads=300, sync_every_n=None,
            make=scan_cold_requests,
        ),
        Workload(
            "mixed_rw", sharded=True, cache_pages=256, loop="closed",
            in_flight=8, rate=0.0, list_len=1500, slice_len=150,
            warm_reads=300, layer_reads=1000, sync_every_n=8,
            make=mixed_rw_requests,
        ),
        Workload(
            "arrivals", sharded=False, cache_pages=1024, loop="open",
            in_flight=0, rate=300.0, list_len=1200, slice_len=150,
            warm_reads=1200, layer_reads=600, sync_every_n=None,
            make=arrivals_requests,
        ),
    )
}
