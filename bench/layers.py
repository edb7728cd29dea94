"""The traced layer pass: one workload's request list replayed from
outside at every public boundary of the stack.

Bottom to top — kernels, codec, in-memory engines, ``FileBlockStore``,
``PagedTree``, ``ShardedTree``, ``QueryServer``, ``AsyncQueryService`` —
each call sits inside a benchmark-owned span and every answer is compared
with the in-memory engines'.  A single caller drives every boundary below
the service, so counts repeat exactly for a seed.  ``added_us`` rows are
one boundary's cost per read minus the boundary's below it.  End-to-end
numbers never come from this pass.
"""

from __future__ import annotations

import asyncio
import math
import random
import sqlite3
import time
from typing import Any, Callable, Sequence

from repro.experiments.harness import build_variant_external
from repro.external.memory import MemoryModel
from repro.geometry import kernels
from repro.iomodel.codec import NodeCodec
from repro.obs import Tracer
from repro.server import InsertRequest, QueryServer, Request
from repro.storage import (
    FaultInjector,
    FileBlockStore,
    ShardedKNNEngine,
    ShardedPointEngine,
    ShardedQueryEngine,
)

from bench import stack
from bench.drive import (
    WRITES,
    closed_loop,
    judge,
    open_loop,
    percentile,
    poisson_offsets,
)
from bench.e2e import RunResult, check_durable, make_requests, reads_of
from bench.oracle import (
    Engines,
    WriteLedger,
    check_static,
    expected_answers,
)
from bench.spans import SpanLog
from bench.spec import (
    BLOCK_SIZE,
    LIMIT_MS,
    OUT_DIR,
    RATE_LADDER,
    SHARDS,
    VARIANT,
    Scale,
    Workload,
    canonical_reads,
    mixed_rw_requests,
)

#: Write batches between commits wherever this pass commits (matches the
#: ``sync_every_n`` the ``mixed_rw`` service runs with).
COMMIT_EVERY = 8
#: Frames / blocks sampled by the kernel, codec and filestore sections.
SAMPLE = 200


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _us(seconds: float) -> float:
    return seconds * 1e6


class LayerPass:
    """State shared by the sections of one traced pass."""

    def __init__(
        self, workload: Workload, seed: int, scale: Scale, directory
    ) -> None:
        self.workload, self.seed, self.scale = workload, seed, scale
        self.dir = directory
        self.spans = SpanLog()
        self.result = RunResult()
        self.m: dict[str, tuple[float, str]] = {}
        self.rng = random.Random(seed)

    def put(self, name: str, value: float, unit: str) -> None:
        self.m[name] = (float(value), unit)

    def verdict(self, ok: bool, what: str) -> None:
        """Count one checked operation."""
        self.result.attempted += 1
        if not ok:
            self.result.failed += 1
            if len(self.result.notes) < 5:
                self.result.notes.append(f"FAILED {what}")

    # ------------------------------------------------------------------
    # Set-up: everything every section needs, timed as the bulk layer
    # ------------------------------------------------------------------

    def set_up(self) -> None:
        built = self.built = stack.build(self.seed, self.scale)
        stack.pack_single(built, self.dir)
        stack.pack_family(built, self.dir)
        data = [(rect, oid) for oid, rect in enumerate(built.base_rects)]
        # Simulated external-memory build: exact I/O count of the paper's
        # bulk-loading algorithm with M = n/8 records of memory.
        memory = MemoryModel(
            memory_records=max(4 * stack.FANOUT, self.scale.n // 8),
            block_records=stack.FANOUT,
        )
        _, ext = build_variant_external(VARIANT, data, stack.FANOUT, memory)
        del data
        t = built.timings.raw
        self.put("bulk.build_s", t["build_s"], "s")
        self.put("bulk.build_ios", ext.io.reads + ext.io.writes, "count")
        self.put("bulk.pack_s", t["pack_s"], "s")
        self.put("bulk.shard_pack_s", t["shard_pack_s"], "s")

        workload = self.workload
        self.requests = make_requests(workload, built, self.seed, self.scale)
        limit = max(20, workload.layer_reads // self.scale.shrink)
        self.reads = [
            self.requests[i] for i in reads_of(self.requests, limit)
        ]
        #: The workload's list up to its ``limit``-th read, writes kept.
        self.prefix = self.requests[
            : reads_of(self.requests, limit)[-1] + 1
        ]
        own_writes = [r for r in self.requests if isinstance(r, WRITES)]
        # A read-only workload still gets the write rows: the standard
        # seeded stream's writes stand in for the ones it does not have.
        self.writes = own_writes or [
            r
            for r in mixed_rw_requests(
                built.bounds, built.centers, 1500 // self.scale.shrink,
                self.seed,
            )
            if isinstance(r, WRITES)
        ]
        self.canonical = canonical_reads(
            built.bounds, max(50, 1000 // self.scale.shrink), self.seed
        )

    # ------------------------------------------------------------------
    # Replaying a read list at one boundary
    # ------------------------------------------------------------------

    def replay(
        self,
        layer: str,
        label: str,
        call: Callable[[Request], tuple[Any, Any]],
        requests: Sequence[Request],
        expected: Sequence[Any] | None,
        around: Callable[[], Any] | None = None,
    ) -> tuple[list[float], list[Any], list[Any]]:
        """Call ``call(request)`` for each read inside a span named
        ``<layer>.<kind>``; returns durations, stats and, when ``around``
        is given, its value sampled before and after every call."""
        durations, all_stats, probes = [], [], []
        with self.spans.span(f"pass.{layer}.{label}") as parent:
            for i, request in enumerate(requests):
                if around is not None:
                    probes.append(around())
                start = time.perf_counter()
                value, stats = call(request)
                end = time.perf_counter()
                self.spans.add(f"{layer}.{request.kind}", start, end, parent, i)
                durations.append(end - start)
                all_stats.append(stats)
                if expected is not None:
                    self.verdict(
                        check_static(request, expected[i], value),
                        f"{layer}.{label} request {i} ({request.kind})",
                    )
            if around is not None:
                probes.append(around())
        return durations, all_stats, probes

    # ------------------------------------------------------------------
    # Sections
    # ------------------------------------------------------------------

    def engines(self) -> None:
        built, reads = self.built, self.reads
        engines = Engines.over(built.tree)
        self.expected, _ = expected_answers(engines, reads)  # also warms
        durations, stats, _ = self.replay(
            "engines", "reads", engines.answer, reads, self.expected
        )
        self.engines_us = _us(_mean(durations))
        self.put("engines.us_per_read", self.engines_us, "us")
        leaf = sum(s.leaf_reads for s in stats)
        self.put("engines.leaf_ios_per_read", leaf / len(reads), "count")
        self.put(
            "engines.internal_visits_per_read",
            sum(s.internal_visits for s in stats) / len(reads), "count",
        )
        self.put(
            "kernels.calls_per_read",
            sum(s.nodes_visited for s in stats) / len(reads), "count",
        )
        # The paper's window-query bound, sqrt(N/B) + T/B, summed over
        # the window-shaped reads (window, count, containment).
        root_term = math.sqrt(built.n / stack.FANOUT)
        shaped = [
            s for r, s in zip(reads, stats) if hasattr(r, "window")
        ]
        self.put(
            "engines.leaf_ios_over_bound",
            sum(s.leaf_reads for s in shaped)
            / sum(root_term + s.reported / stack.FANOUT for s in shaped),
            "ratio",
        )

        canonical = self.canonical
        self.canonical_expected, _ = expected_answers(engines, canonical)
        durations, _, _ = self.replay(
            "engines", "canonical", engines.answer, canonical,
            self.canonical_expected,
        )
        for kind in ("window", "point", "knn", "count", "containment"):
            self.put(
                f"engines.{kind}_us",
                _us(_mean([
                    d for r, d in zip(canonical, durations) if r.kind == kind
                ])),
                "us",
            )

    def kernels_and_codec(self) -> None:
        built = self.built
        full = [
            node for _, node in built.tree.iter_leaves()
            if len(node) == stack.FANOUT
        ]
        nodes = self.rng.sample(full, min(SAMPLE, len(full)))
        frames = [node.frame() for node in nodes]
        queries = (self.reads + self.canonical)[:SAMPLE]
        windows = [
            (kernels.as_coords(r.window.lo), kernels.as_coords(r.window.hi))
            for r in queries if hasattr(r, "window")
        ]
        points = [
            kernels.as_coords(getattr(r, "point", None) or r.target)
            for r in queries if not hasattr(r, "window")
        ]
        with self.spans.span("pass.kernels") as parent:
            for name, fn, args in (
                ("intersect", kernels.frame_intersecting, windows),
                ("dist", kernels.frame_dist_sq_to_point, points),
            ):
                total = 0.0
                for query in args:
                    start = time.perf_counter()
                    for frame in frames:
                        fn(frame.lo, frame.hi, *(
                            query if name == "intersect" else (query,)
                        ))
                    end = time.perf_counter()
                    self.spans.add(f"kernels.frame_{name}", start, end, parent)
                    total += end - start
                self.put(
                    f"kernels.{name}_us",
                    _us(total / max(1, len(args) * len(frames))), "us",
                )

        codec = NodeCodec(dim=2, block_size=BLOCK_SIZE)
        with FileBlockStore.open(built.single, readonly=True) as store:
            ids = self.rng.sample(
                list(store.block_ids()), min(SAMPLE, len(store))
            )
            blocks = [store.peek(block_id) for block_id in ids]
        with self.spans.span("pass.codec") as parent:
            decode, encode = [], []
            for block in blocks:
                start = time.perf_counter()
                codec.decode_arrays(block)
                end = time.perf_counter()
                self.spans.add("codec.decode_arrays", start, end, parent)
                decode.append(end - start)
            for node in nodes:
                entries = node.entries
                start = time.perf_counter()
                encoded = codec.encode(True, entries)
                end = time.perf_counter()
                self.spans.add("codec.encode", start, end, parent)
                encode.append(end - start)
                self.verdict(
                    codec.decode(encoded) == (True, entries),
                    "codec round trip",
                )
        self.put("codec.decode_us", _us(_mean(decode)), "us")
        self.put("codec.encode_us", _us(_mean(encode)), "us")

    def filestore(self) -> None:
        built = self.built
        with FileBlockStore.open(built.single, readonly=True) as store:
            ids = list(store.block_ids())
            originals = {b: store.peek(b) for b in ids}
            picks = [self.rng.choice(ids) for _ in range(SAMPLE * 2)]
            with self.spans.span("pass.filestore.read") as parent:
                durations = []
                for block_id in picks:
                    start = time.perf_counter()
                    block = store.read(block_id)
                    end = time.perf_counter()
                    self.spans.add("filestore.read", start, end, parent)
                    durations.append(end - start)
                    self.verdict(len(block) == BLOCK_SIZE, "filestore.read")
        self.put("filestore.read_us", _us(_mean(durations)), "us")

        # Commit cost at the raw store: rewrite 8 blocks in place, then
        # flush.  An unarmed FaultInjector on the public ``injector=``
        # parameter counts the physical writes; whatever the flush writes
        # beyond the 8 dirty blocks is the commit's own overhead.
        copy = stack.copy_index(built.single, self.dir / "commit")
        injector = FaultInjector()
        commits, per_commit, overhead = [], [], []
        with FileBlockStore.open(copy, injector=injector) as store:
            bytes_before = store.file_bytes()
            with self.spans.span("pass.filestore.commit") as parent:
                for _ in range(20):
                    w0 = injector.writes
                    for block_id in self.rng.sample(ids, COMMIT_EVERY):
                        store.write(block_id, store.peek(block_id))
                    w1 = injector.writes
                    start = time.perf_counter()
                    store.flush()
                    end = time.perf_counter()
                    self.spans.add("filestore.flush", start, end, parent)
                    commits.append(end - start)
                    per_commit.append(injector.writes - w0)
                    overhead.append(injector.writes - w1)
            growth = store.file_bytes() / bytes_before - 1.0
        with FileBlockStore.open(copy, readonly=True) as store:
            self.verdict(
                all(store.peek(b) == block for b, block in originals.items()),
                "filestore commits preserved block contents",
            )
        self.put("filestore.commit_us", _us(_mean(commits)), "us")
        self.put("filestore.writes_per_commit", _mean(per_commit), "count")
        self.put("filestore.commit_overhead_blocks", _mean(overhead), "count")
        self.put("filestore.growth_frac", growth, "ratio")

    def _apply_writes(self, layer: str, tree, path) -> tuple[float, float, float]:
        """Apply the write list to a writable handle with a commit every
        ``COMMIT_EVERY`` operations; returns mean insert, delete and sync
        seconds.  Afterwards the index is reopened from disk and must
        hold exactly the base data plus the surviving inserts."""
        ledger = WriteLedger(self.writes)
        inserts, deletes, syncs = [], [], []
        with self.spans.span(f"pass.{layer}.writes") as parent:
            for i, request in enumerate(self.writes):
                start = time.perf_counter()
                if isinstance(request, InsertRequest):
                    value = tree.insert(request.rect, request.value)
                else:
                    value = tree.delete(request.rect, request.value)
                end = time.perf_counter()
                self.spans.add(f"{layer}.{request.kind}", start, end, parent, i)
                (inserts if request.kind == "insert" else deletes).append(
                    end - start
                )
                self.verdict(
                    ledger.note(request, start, end, value),
                    f"{layer}.{request.kind} {i}",
                )
                if (i + 1) % COMMIT_EVERY == 0:
                    start = time.perf_counter()
                    tree.sync()
                    end = time.perf_counter()
                    self.spans.add(f"{layer}.sync", start, end, parent)
                    syncs.append(end - start)
        flushes = tree.page_stats.flushes
        tree.close()
        problem = check_durable(path, self.built, ledger)
        self.verdict(problem is None, f"{layer} durability: {problem}")
        self.flushes_per_write = flushes / len(self.writes)
        return _mean(inserts), _mean(deletes), _mean(syncs)

    def _miss_us(self) -> float:
        """Cost of one page miss: on a handle whose cache holds the whole
        index, the reads replayed from an empty cache (every first touch
        misses) minus the same reads replayed again (every touch hits),
        per miss of the first replay."""
        built = self.built
        with stack.open_tree(
            built, built.single, 4 * built.n // stack.FANOUT, readonly=True
        ) as tree:
            engines = Engines.over(tree)
            tree.page_store.clear_cache()
            before = stack.page_stats(tree)
            cold, _, _ = self.replay(
                "paged", "fit_cold", engines.answer, self.reads, self.expected
            )
            misses = (stack.page_stats(tree) - before).misses
            warm, _, _ = self.replay(
                "paged", "fit_warm", engines.answer, self.reads, self.expected
            )
        return _us((sum(cold) - sum(warm)) / max(1, misses))

    def paged(self) -> None:
        workload, built, reads = self.workload, self.built, self.reads
        with built.timings.stage("open_s"):
            tree = stack.open_tree(
                built, built.single, workload.total_cache_pages, readonly=True
            )
        self.put("bulk.open_s", built.timings.raw["open_s"], "s")
        with tree:
            engines = Engines.over(tree)
            tree.page_store.clear_cache()
            cold, _, _ = self.replay(
                "paged", "cold", engines.answer, reads, self.expected
            )
            mid = stack.page_stats(tree)
            warm, _, _ = self.replay(
                "paged", "warm", engines.answer, reads, self.expected
            )
            pages = stack.page_stats(tree) - mid
        self.put("paged.miss_us", self._miss_us(), "us")
        self.paged_us = _us(_mean(warm))
        self.put("paged.warm_us_per_read", self.paged_us, "us")
        self.put("paged.cold_us_per_read", _us(_mean(cold)), "us")
        self.put("paged.added_us", self.paged_us - self.engines_us, "us")
        self.put(
            "paged.hit_ratio",
            pages.hits / max(1, pages.hits + pages.misses), "ratio",
        )
        self.put(
            "paged.physical_reads_per_read", pages.misses / len(reads), "count"
        )
        self.put(
            "paged.evictions_per_read", pages.evictions / len(reads), "count"
        )
        copy = stack.copy_index(built.single, self.dir / "paged-writes")
        writable = stack.open_tree(built, copy, workload.total_cache_pages)
        insert_s, _, sync_s = self._apply_writes("paged", writable, copy)
        self.put("paged.insert_us", _us(insert_s), "us")
        self.put("paged.sync_us", _us(sync_s), "us")
        self.put(
            "paged.pages_flushed_per_write", self.flushes_per_write, "count"
        )

    def shard(self) -> None:
        built, reads = self.built, self.reads
        pages = max(1, self.workload.total_cache_pages // SHARDS)
        with stack.open_tree(
            built, built.family, pages, readonly=True
        ) as family:
            engines = Engines(
                ShardedQueryEngine(family),
                ShardedPointEngine(family),
                ShardedKNNEngine(family),
            )
            for request in reads:  # warm
                engines.answer(request)
            durations, stats, loads = self.replay(
                "shard", "reads", engines.answer, reads, self.expected,
                around=lambda: [load.reads for load in family.shard_loads()],
            )
        touched = sum(
            sum(a != b for a, b in zip(loads[i], loads[i + 1]))
            for i in range(len(reads))
        )
        self.shard_us = _us(_mean(durations))
        self.put("shard.us_per_read", self.shard_us, "us")
        self.put("shard.added_us", self.shard_us - self.paged_us, "us")
        self.put("shard.shards_touched_per_read", touched / len(reads), "count")
        self.put(
            "shard.leaf_ios_per_read",
            sum(s.leaf_reads for s in stats) / len(reads), "count",
        )
        copy = stack.copy_index(built.family, self.dir / "shard-writes")
        writable = stack.open_tree(built, copy, pages)
        insert_s, _, sync_s = self._apply_writes("shard", writable, copy)
        self.put("shard.insert_us", _us(insert_s), "us")
        self.put("shard.sync_us", _us(sync_s), "us")

    def update(self) -> None:
        """Guttman insert/delete on the in-memory tree (run last: it
        mutates the tree every earlier section read)."""
        tree = self.built.tree
        before = tree.store.counters.writes
        inserts, deletes = [], []
        with self.spans.span("pass.update") as parent:
            for i, request in enumerate(self.writes):
                start = time.perf_counter()
                if isinstance(request, InsertRequest):
                    ok = isinstance(tree.insert(request.rect, request.value), int)
                else:
                    ok = tree.delete(request.rect, request.value)
                end = time.perf_counter()
                self.spans.add(f"update.{request.kind}", start, end, parent, i)
                (inserts if request.kind == "insert" else deletes).append(
                    end - start
                )
                self.verdict(ok, f"update.{request.kind} {i}")
        self.put("update.insert_us", _us(_mean(inserts)), "us")
        self.put("update.delete_us", _us(_mean(deletes)), "us")
        self.put(
            "update.write_ios_per_op",
            (tree.store.counters.writes - before) / len(self.writes), "count",
        )

    # -- server ---------------------------------------------------------

    def _served_path(self):
        """The packed index of the kind the workload itself serves."""
        return self.built.family if self.workload.sharded else self.built.single

    def _open_served(self, path=None, **kwargs):
        """The handle type the workload itself serves: read-only on the
        packed index, writable on a copy of it."""
        workload, built = self.workload, self.built
        if path is None:
            path = self._served_path()
            kwargs.setdefault("readonly", True)
        return stack.open_tree(built, path, workload.cache_pages, **kwargs)

    def server(self) -> None:
        reads = self.reads
        below = self.shard_us if self.workload.sharded else self.paged_us
        with self._open_served() as tree:
            server = QueryServer(tree)
            server.submit(reads)  # warm engines and pages

            def one(request):
                result = server.submit([request]).results[0]
                return result.value, result.stats

            durations, _, _ = self.replay(
                "server", "b1", one, reads, self.expected
            )
            b1 = _us(_mean(durations))

            batched, dedup = [], 0
            with self.spans.span("pass.server.b64") as parent:
                for at in range(0, len(reads), 64):
                    chunk = reads[at : at + 64]
                    start = time.perf_counter()
                    report = server.submit(chunk)
                    end = time.perf_counter()
                    self.spans.add("server.submit_b64", start, end, parent)
                    batched.append(end - start)
                    dedup += report.dedup_hits
                    for j, result in enumerate(report.results):
                        self.verdict(
                            check_static(
                                chunk[j], self.expected[at + j], result.value
                            ),
                            f"server.b64 request {at + j}",
                        )
        self.server_b1 = b1
        self.server_b64 = _us(sum(batched) / len(reads))
        self.put("server.b1_us_per_read", b1, "us")
        self.put("server.b64_us_per_read", self.server_b64, "us")
        self.put("server.added_us_b1", b1 - below, "us")
        self.put("server.added_us_b64", self.server_b64 - below, "us")
        self.put("server.dedup_frac", dedup / len(reads), "ratio")

        # Writes through the server's shipping default: every batch of
        # writes is followed by a sync of the mutated index.
        copy = stack.copy_index(self._served_path(), self.dir / "server-writes")
        ledger = WriteLedger(self.writes)
        durations = []
        tree = self._open_served(copy)
        try:
            server = QueryServer(tree)
            with self.spans.span("pass.server.writes") as parent:
                for at in range(0, len(self.writes), COMMIT_EVERY):
                    chunk = self.writes[at : at + COMMIT_EVERY]
                    start = time.perf_counter()
                    report = server.submit(chunk)
                    end = time.perf_counter()
                    self.spans.add("server.submit_writes", start, end, parent)
                    durations.append(end - start)
                    for request, result in zip(chunk, report.results):
                        self.verdict(
                            ledger.note(request, start, end, result.value),
                            f"server.{request.kind}",
                        )
        finally:
            tree.close()
        problem = check_durable(copy, self.built, ledger)
        self.verdict(problem is None, f"server durability: {problem}")
        self.put(
            "server.write_us", _us(sum(durations) / len(self.writes)), "us"
        )

    # -- service --------------------------------------------------------

    async def _service_replay(
        self, tree, requests, label, in_flight=0, offsets=None,
        spans=True, expected=None, ledger=None, **service_kwargs,
    ):
        """One replay through a fresh service; returns the recorder, the
        wall and processor seconds and the service's stats."""
        log = self.spans if spans else None
        async with stack.new_service(
            tree, self.workload, **service_kwargs
        ) as service:
            # Warm the pool's engines the way the timed runs are warmed.
            await closed_loop(service, self.reads[:64], 8)
            stack.settle_gc()
            with self.spans.span(f"pass.service.{label}") as parent:
                cpu0, start = time.process_time(), time.perf_counter()
                if offsets is not None:
                    rec = await open_loop(service, requests, offsets, log, parent)
                else:
                    rec = await closed_loop(
                        service, requests, in_flight, log, parent
                    )
                wall = time.perf_counter() - start
                cpu = time.process_time() - cpu0
            stats = service.stats
        if expected is not None:
            for i, good in enumerate(judge(requests, expected, rec, ledger)):
                self.verdict(good, f"service.{label} request {i}")
        return rec, wall, cpu, stats

    def service(self) -> None:
        reads = self.reads
        run = asyncio.run

        def c8(tree, label, **kwargs) -> float:
            """Processor seconds of one 8-in-flight replay of the reads."""
            kwargs.setdefault("spans", False)
            _, _, cpu, _ = run(self._service_replay(
                tree, reads, label, in_flight=8, **kwargs
            ))
            return cpu

        with self._open_served() as tree:
            _, wall, _, _ = run(self._service_replay(
                tree, reads, "c1", in_flight=1, expected=self.expected
            ))
            self.put("service.c1_us_per_read", _us(wall / len(reads)), "us")
            # The c8 replay is also the base of the obs rows, so it runs
            # without the harness's own spans.
            _, wall, before, stats = run(self._service_replay(
                tree, reads, "c8", in_flight=8, spans=False,
                expected=self.expected,
            ))
            c8_us = _us(wall / len(reads))
            self.put("service.c8_us_per_read", c8_us, "us")
            batch = stats.completed / max(1, stats.batches)
            # The server's cost per read at the batch size the service
            # actually formed, between its measured b1 and b64 costs.
            share = min(1.0, max(0.0, (batch - 1.0) / 63.0))
            at_batch = self.server_b1 + share * (self.server_b64 - self.server_b1)
            self.put("service.added_us", c8_us - at_batch, "us")

            # An instrument's rent is processor time (the closed loop's
            # wall clock is mostly the flush timer); the base is the mean
            # of a plain replay before and after the instrumented ones.
            instrumented = {
                "obs.bench_span_overhead_frac": c8(tree, "c8_spans", spans=True),
                "obs.trace_overhead_frac": c8(
                    tree, "c8_traced", tracer=Tracer(sample_rate=1.0)
                ),
                "obs.explain_overhead_frac": c8(tree, "c8_explain", explain=True),
            }
            with self._open_served(None, cache_analytics=True) as ghost_tree:
                c8(ghost_tree, "c8_ghost_warm")
                instrumented["obs.ghost_overhead_frac"] = c8(
                    ghost_tree, "c8_ghost"
                )
            base = (before + c8(tree, "c8_again")) / 2.0
            for name, cpu in instrumented.items():
                self.put(name, cpu / base - 1.0, "ratio")
            self._ladder(tree)
        self._service_as_workload()

    def _ladder(self, tree) -> None:
        """Highest open-loop rate of the workload's reads that keeps p95
        within the limit with no failure and no backlog at the end."""
        reads, limit_s = self.reads, LIMIT_MS / 1000.0
        best, late = 0.0, []
        for rate in RATE_LADDER:
            count = max(20, int(rate * self.scale.ladder_s))
            requests = [reads[i % len(reads)] for i in range(count)]
            expected = [self.expected[i % len(reads)] for i in range(count)]
            rec, _, _, _ = asyncio.run(self._service_replay(
                tree, requests, f"rate{rate}", spans=False,
                offsets=poisson_offsets(count, rate, self.seed),
                expected=expected,
            ))
            if not late:
                late = [x * 1000.0 for x in rec.late]
            latency = [
                rec.t_done[i] - rec.t_sub[i] if rec.resp[i] is not None
                else math.inf
                for i in range(count)
            ]
            tail = latency[-max(1, count // 3):]
            if percentile(latency, 95) > limit_s or _mean(tail) > limit_s:
                break
            best = float(rate)
        self.put("service.max_rate_ok_rps", best, "1/s")
        self.ladder_late_p95 = percentile(late, 95)

    def _service_as_workload(self) -> None:
        """The workload's own loop shape over its list prefix, writes
        included, with spans on: where a request's time goes."""
        workload, requests = self.workload, self.prefix
        expected, _ = expected_answers(Engines.over(self.built.tree), requests)
        ledger = WriteLedger(list(requests)) if workload.writes else None
        if workload.writes:
            copy = stack.copy_index(self._served_path(), self.dir / "svc-writes")
            tree = self._open_served(copy)
        else:
            copy, tree = None, self._open_served()
        offsets = (
            poisson_offsets(len(requests), workload.rate, self.seed)
            if workload.loop == "open" else None
        )
        try:
            rec, wall, _, stats = asyncio.run(self._service_replay(
                tree, requests, "workload", in_flight=workload.in_flight,
                offsets=offsets, expected=expected, ledger=ledger,
            ))
        finally:
            tree.close()
        if ledger is not None:
            problem = check_durable(copy, self.built, ledger)
            self.verdict(problem is None, f"service durability: {problem}")

        def ms(select, is_write: bool) -> list[float]:
            return [
                select(i) * 1000.0
                for i, r in enumerate(requests)
                if rec.resp[i] is not None and isinstance(r, WRITES) == is_write
            ]

        def latency(i):
            return rec.t_done[i] - rec.t_sub[i]

        answered = [r for r in rec.resp if r is not None]
        self.put(
            "service.queue_ms_p50",
            percentile(ms(lambda i: rec.resp[i].queue_s, False), 50), "ms",
        )
        self.put(
            "service.engine_ms_p50",
            percentile(ms(lambda i: rec.resp[i].engine_s, False), 50), "ms",
        )
        self.put(
            "service.engine_busy_frac",
            sum(r.engine_s for r in answered) / wall, "ratio",
        )
        self.put(
            "service.batch_size_mean",
            stats.completed / max(1, stats.batches), "count",
        )
        self.put("service.read_p95_ms", percentile(ms(latency, False), 95), "ms")
        self.put("service.read_p99_ms", percentile(ms(latency, False), 99), "ms")
        # No write is offered on a read-only workload: its write rows are 0.
        writes = ms(latency, True)
        self.put(
            "service.write_queue_ms_p50",
            percentile(ms(lambda i: rec.resp[i].queue_s, True), 50)
            if writes else 0.0, "ms",
        )
        self.put(
            "service.write_p50_ms", percentile(writes, 50) if writes else 0.0,
            "ms",
        )
        self.put(
            "service.write_p95_ms", percentile(writes, 95) if writes else 0.0,
            "ms",
        )
        self.put("service.commits", stats.commits, "count")
        self.put("service.rejected", stats.rejected, "count")
        self.put(
            "service.generator_late_ms_p95",
            percentile([x * 1000.0 for x in rec.late], 95)
            if workload.loop == "open" else self.ladder_late_p95,
            "ms",
        )

    # -- external reference ----------------------------------------------

    def sqlite_reference(self) -> None:
        """stdlib sqlite3 R*Tree over the same rectangles answering the
        canonical list's window requests.  Its coordinates are 32-bit
        floats rounded outward, so its hits are refined with the exact
        predicate before the count is compared with the oracle's."""
        rects = self.built.base_rects
        db = sqlite3.connect(":memory:")
        try:
            try:
                db.execute(
                    "CREATE VIRTUAL TABLE r USING rtree(id, x0, x1, y0, y1)"
                )
            except sqlite3.OperationalError:
                self.result.notes.append(
                    "ref.sqlite_window_us skipped: sqlite3 has no rtree module"
                )
                return
            db.executemany(
                "INSERT INTO r VALUES (?, ?, ?, ?, ?)",
                (
                    (i, r.lo[0], r.hi[0], r.lo[1], r.hi[1])
                    for i, r in enumerate(rects)
                ),
            )
            durations = []
            with self.spans.span("pass.ref") as parent:
                for request, want in zip(self.canonical, self.canonical_expected):
                    if request.kind != "window":
                        continue
                    w = request.window
                    start = time.perf_counter()
                    hits = db.execute(
                        "SELECT id FROM r WHERE x1 >= ? AND x0 <= ? "
                        "AND y1 >= ? AND y0 <= ?",
                        (w.lo[0], w.hi[0], w.lo[1], w.hi[1]),
                    ).fetchall()
                    end = time.perf_counter()
                    self.spans.add("ref.sqlite_window", start, end, parent)
                    durations.append(end - start)
                    exact = sum(rects[i].intersects(w) for (i,) in hits)
                    self.verdict(exact == len(want), "ref.sqlite_window count")
        finally:
            db.close()
        self.put("ref.sqlite_window_us", _us(_mean(durations)), "us")


def run(workload: Workload, seed: int, scale: Scale) -> RunResult:
    """The traced layer pass for one workload; writes
    ``bench/out/trace-<workload>.jsonl`` when it ends."""
    stack.require_numpy()
    with stack.scratch_dir() as directory:
        layer_pass = LayerPass(workload, seed, scale, directory)
        layer_pass.set_up()
        layer_pass.engines()
        layer_pass.kernels_and_codec()
        layer_pass.filestore()
        layer_pass.paged()
        layer_pass.shard()
        layer_pass.server()
        layer_pass.service()
        layer_pass.sqlite_reference()
        layer_pass.update()
    layer_pass.spans.write(OUT_DIR / f"trace-{workload.name}.jsonl")
    result = layer_pass.result
    for name, (value, unit) in layer_pass.m.items():
        result.metrics[name] = (value, unit, 0.0)
    return result
