"""Storage-engine entry points: packing, request streams, index status.

* :func:`pack_index` (``repro pack``) — bulk-load one variant on the
  chosen dataset and write it to an index file with
  :func:`repro.storage.paged.pack_tree`, reporting the pack's size and
  (almost entirely sequential) write I/O.  With ``shards > 1`` the tree
  is instead split into K Hilbert-range shard files plus a manifest
  (:func:`repro.storage.shard.shard_pack`), one table row per shard.
* :func:`mixed_requests` / :func:`mixed_update_requests` — the
  reproducible read mix and write stream the tests, the CI smokes and
  ``bench/`` drive through :class:`~repro.server.QueryServer` and
  :class:`~repro.service.AsyncQueryService`.
* :func:`index_status` (``repro status``) — one read-only snapshot of a
  packed index: each file's committed epoch and recovery verdict, the
  per-level health table with the degradation score, and optionally
  the EXPLAIN plans and page-cache hit ratio of one fixed mixed batch.
"""

from __future__ import annotations

import pathlib
import random
import time
from collections import Counter

from repro.datasets.synthetic import uniform_rects
from repro.datasets.tiger import tiger_dataset
from repro.experiments.harness import build_variant
from repro.experiments.report import Table
from repro.geometry.rect import Rect
from repro.iomodel.codec import fanout_for_block
from repro.obs import TraceWriter, Tracer
from repro.obs.status import IndexStatus, read_status
from repro.server import (
    DEFAULT_INDEX,
    ContainmentRequest,
    CountRequest,
    DeleteRequest,
    InsertRequest,
    KNNRequest,
    PointRequest,
    QueryServer,
    Request,
    WindowRequest,
)
from repro.storage import ShardedTree, open_index, pack_tree, shard_pack
from repro.workloads.queries import square_queries

__all__ = [
    "pack_index",
    "index_status",
    "mixed_requests",
    "mixed_update_requests",
    "DATASETS",
    "STATUS_REQUESTS",
]

#: Dataset generators accepted by ``repro pack``.
DATASETS = {
    "tiger-east": lambda n, seed: tiger_dataset(n, "eastern", seed=seed),
    "tiger-west": lambda n, seed: tiger_dataset(n, "western", seed=seed),
    "uniform": lambda n, seed: uniform_rects(n, max_side=0.01, seed=seed),
}

#: Size of the fixed mixed batch ``repro status --explain`` runs.
STATUS_REQUESTS = 8


def pack_index(
    out: str | pathlib.Path,
    variant: str = "PR",
    dataset: str = "tiger-east",
    n: int = 50_000,
    fanout: int | None = None,
    block_size: int = 4096,
    seed: int = 0,
    shards: int = 1,
) -> Table:
    """Bulk-load one variant and pack it to an index file.

    With ``shards > 1`` the bulk-loaded tree is split by Hilbert rank
    into that many shard files plus a manifest at ``out`` (see
    :func:`repro.storage.shard.shard_pack`); the table then carries one
    row per shard.  ``shards < 1`` is a :class:`ValueError`.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if dataset not in DATASETS:
        raise ValueError(
            f"unknown dataset {dataset!r}; choose from {sorted(DATASETS)}"
        )
    if fanout is None:
        fanout = fanout_for_block(block_size, 2)
    data = DATASETS[dataset](n, seed)

    build_start = time.perf_counter()
    tree = build_variant(variant, data, fanout)
    build_s = time.perf_counter() - build_start

    table = Table(
        title=f"pack: {variant} over {dataset}"
        + (f", {shards} shards" if shards > 1 else ""),
        headers=[
            "variant", "n", "fanout", "height", "blocks",
            "file_MB", "write_ios", "seq_frac", "build_s", "pack_s",
        ],
    )
    if shards > 1:
        pack_start = time.perf_counter()
        family = shard_pack(tree, out, shards=shards, block_size=block_size)
        pack_s = time.perf_counter() - pack_start
        for i, stats in enumerate(family.per_shard):
            table.add_row(
                f"{variant}[{i}]",
                stats.size,
                fanout,
                stats.height,
                stats.n_blocks,
                stats.file_bytes / 2**20,
                stats.write_ios,
                stats.seq_writes / stats.write_ios if stats.write_ios else 0.0,
                build_s if i == 0 else 0.0,
                pack_s if i == 0 else 0.0,
            )
        table.add_note(
            f"shard manifest: {out} ({family.shards} shard files, "
            f"{block_size}-byte blocks)"
        )
        return table

    pack_start = time.perf_counter()
    stats = pack_tree(tree, out, block_size=block_size)
    pack_s = time.perf_counter() - pack_start
    table.add_row(
        variant,
        n,
        fanout,
        stats.height,
        stats.n_blocks,
        stats.file_bytes / 2**20,
        stats.write_ios,
        stats.seq_writes / stats.write_ios if stats.write_ios else 0.0,
        build_s,
        pack_s,
    )
    table.add_note(f"index file: {out} ({block_size}-byte blocks)")
    return table


def mixed_requests(
    bounds: Rect,
    count: int = 1000,
    area_percent: float = 0.25,
    k: int = 10,
    duplicate_frac: float = 0.1,
    seed: int = 0,
    index: str = DEFAULT_INDEX,
) -> list[Request]:
    """A reproducible mixed batch: ~40% window, 20% point, 20% kNN,
    10% count, 10% containment, plus ``duplicate_frac`` exact repeats
    (real query streams repeat hot requests; the server dedups them).
    """
    rng = random.Random(seed)
    windows = square_queries(
        bounds, area_percent, count=max(count, 1), seed=seed
    ).windows

    def random_point() -> tuple[float, ...]:
        return tuple(
            lo + rng.random() * (hi - lo)
            for lo, hi in zip(bounds.lo, bounds.hi)
        )

    requests: list[Request] = []
    for i in range(count):
        roll = rng.random()
        window = windows[i % len(windows)]
        if roll < 0.40:
            requests.append(WindowRequest(window, index=index))
        elif roll < 0.60:
            requests.append(PointRequest(random_point(), index=index))
        elif roll < 0.80:
            requests.append(KNNRequest(random_point(), k=k, index=index))
        elif roll < 0.90:
            requests.append(CountRequest(window, index=index))
        else:
            requests.append(ContainmentRequest(window, index=index))
    n_dupes = int(len(requests) * duplicate_frac)
    for _ in range(n_dupes):
        requests.append(requests[rng.randrange(len(requests))])
    rng.shuffle(requests)
    return requests[:count]


def mixed_update_requests(
    data: list,
    fresh: list,
    delete_frac: float = 0.5,
    seed: int = 0,
    index: str = DEFAULT_INDEX,
) -> tuple[list[Request], list]:
    """A reproducible mixed write stream over an existing dataset.

    Draws deletes from ``data`` (each entry at most once) and inserts
    from ``fresh``, shuffled with ``delete_frac`` deletes.  Returns the
    request list plus the expected live ``(rect, value)`` set after
    applying it — the oracle for post-update query checks.
    """
    rng = random.Random(seed)
    deletable = list(data)
    rng.shuffle(deletable)
    insertable = list(fresh)
    requests: list[Request] = []
    removed: Counter = Counter()
    inserted: list = []
    while deletable or insertable:
        use_delete = deletable and (
            not insertable or rng.random() < delete_frac
        )
        if use_delete:
            rect, value = deletable.pop()
            removed[(rect, value)] += 1
            requests.append(DeleteRequest(rect, value, index=index))
        else:
            rect, value = insertable.pop()
            inserted.append((rect, value))
            requests.append(InsertRequest(rect, value, index=index))
    # One tree entry disappears per DeleteRequest, so a duplicated
    # (rect, value) pair leaves the live set only as often as it was
    # drawn — not wholesale.
    live = []
    for pair in data:
        if removed[pair] > 0:
            removed[pair] -= 1
            continue
        live.append(pair)
    return requests, live + inserted


def index_status(
    index: str | pathlib.Path,
    explain: bool = False,
    trace: str | pathlib.Path | None = None,
) -> list[Table]:
    """One read-only snapshot of a packed index (``repro status``).

    Opens a single index file or a shard manifest read-only and renders
    its :class:`~repro.obs.status.IndexStatus` as two tables: every
    file's committed epoch and recovery verdict, and the per-level
    health table of the cache-neutral quality walk
    (:func:`repro.obs.health.index_quality`) whose notes carry the
    degradation score against the pack-time baseline.

    With ``explain`` (or ``trace``) a third table runs a fixed mixed
    batch of :data:`STATUS_REQUESTS` requests through
    ``QueryServer(explain=True)`` on a store opened with
    ``cache_analytics=True``: one row per plan, the worst plan rendered,
    and the measured page-hit ratio beside the ghost-LRU prediction at
    the same budget.  ``trace=OUT.jsonl`` traces that batch at 100%
    sampling.  An empty index has no bounds to draw the batch from: the
    batch is skipped, a note on the health table says so, and no trace
    is written.
    """
    run_batch = explain or trace is not None
    with open_index(index, readonly=True, cache_analytics=run_batch) as tree:
        status = read_status(tree)
        tables = [_files_table(index, tree, status), _health_table(status)]
        if run_batch and not len(tree.root()):
            # No bounds to draw the batch's requests from.
            tables[-1].add_note("explain: skipped, the index is empty")
        elif run_batch:
            # Opened only once the index has: a missing index writes
            # no empty trace beside the error.
            writer = TraceWriter(trace) if trace is not None else None
            try:
                tables.append(
                    _explain_table(
                        tree, Tracer(writer) if writer is not None else None
                    )
                )
            finally:
                if writer is not None:
                    writer.close()
        return tables


def _files_table(index, tree, status: IndexStatus) -> Table:
    """Committed epoch and recovery verdict of every file behind ``tree``."""
    sharded = isinstance(tree, ShardedTree)
    table = Table(
        title=(
            f"status: {index} (size={tree.size}, height={tree.height}, "
            f"fanout={tree.fanout}"
            + (f", {tree.n_shards} shards" if sharded else "")
            + ")"
        ),
        headers=["file", "epoch", "header_slot", "rolled_back", "verdict"],
    )
    for file in status.files:
        table.add_row(
            file.name,
            file.epoch,
            file.header_slot,
            file.rolled_back_blocks,
            file.verdict,
        )
    if sharded:
        table.add_note(f"manifest generation {tree.generation}")
    return table


def _health_table(status: IndexStatus) -> Table:
    """Per-level quality table; the notes carry the degradation score."""
    quality = status.quality
    table = Table(
        title=f"index health: {quality.nodes} nodes",
        headers=[
            "level", "kind", "nodes", "entries", "occupancy",
            "overlap_area", "dead_area", "perimeter",
        ],
    )
    for lvl in quality.levels:
        table.add_row(
            lvl.level,
            "leaf" if lvl.leaf
            else ("root" if lvl.level == 0 else "internal"),
            lvl.nodes,
            lvl.entries,
            lvl.occupancy,
            lvl.overlap,
            lvl.dead,
            lvl.perimeter,
        )
    table.add_note(
        f"aggregate: leaf occupancy {quality.leaf_occupancy:.4f}, "
        f"directory overlap ratio {quality.overlap_ratio:.6f}, "
        f"dead-space ratio {quality.dead_ratio:.6f}, "
        f"mean directory margin {quality.mean_margin:.4f}"
    )
    table.add_note(
        f"store: {quality.free_blocks} freelist blocks, "
        f"{quality.pending_reclaim} pending reclaim, "
        f"fragmentation {quality.fragmentation:.4f}"
    )
    if status.per_shard:
        table.add_note(
            "per-shard size / leaf occupancy: "
            + ", ".join(
                f"shard{i}: {q.size}/{q.leaf_occupancy:.3f}"
                for i, q in enumerate(status.per_shard)
            )
            + f" (imbalance {quality.imbalance:.4f})"
        )
    score = status.score
    if score is None:
        table.add_note(
            "degradation score: none (no pack-time baseline; re-pack "
            "to record one)"
        )
    else:
        table.add_note(
            f"degradation score: {score:.9f} (0 = freshly packed; "
            "weighted relative drift per "
            "repro.obs.health.DEGRADATION_WEIGHTS)"
        )
    return table


def _explain_table(tree, tracer: Tracer | None) -> Table:
    """Run the fixed mixed batch with plan capture; tabulate the plans."""
    requests = mixed_requests(
        tree.root().mbr(), count=STATUS_REQUESTS, seed=1
    )
    traces = (
        [tracer.begin(req.kind, req.kind) for req in requests]
        if tracer is not None
        else None
    )
    report = QueryServer(tree, explain=True).submit(requests, traces=traces)
    for pending in traces or ():
        tracer.finish(pending)

    table = Table(
        title=f"explain: {len(requests)} mixed requests",
        headers=[
            "query", "kind", "nodes", "entries", "pruned",
            "leaf_ios", "lower_bound", "efficiency", "physical_reads",
        ],
    )
    worst = None
    for i, result in enumerate(report.results):
        plan = result.plan
        if plan is None:
            continue
        table.add_row(
            i,
            result.request.kind,
            plan.nodes_visited,
            plan.entries_examined,
            plan.entries_pruned,
            plan.leaf_reads,
            plan.leaf_lower_bound,
            plan.pruning_efficiency,
            plan.physical_reads,
        )
        if worst is None or plan.pruning_efficiency < worst.pruning_efficiency:
            worst = plan
    table.add_note(
        "worst plan (lowest pruning efficiency):\n" + worst.render()
    )
    stores = read_status(tree, health=False).stores
    hits = sum(store.hits for store in stores)
    lookups = hits + sum(store.misses for store in stores)
    predicted = sum(store.predicted_hits for store in stores)
    accesses = sum(store.accesses for store in stores)
    if lookups and accesses:
        table.add_note(
            f"page cache: {hits}/{lookups} lookups hit "
            f"({hits / lookups:.1%} measured); ghost-LRU predicts "
            f"{predicted / accesses:.1%} at the {stores[0].capacity}-page "
            "budget"
        )
    if tracer is not None:
        table.add_note(
            f"trace: {tracer.emitted} of {tracer.started} requests emitted"
        )
    return table
