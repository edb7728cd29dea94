"""Command-line interface for the experiment harness.

Usage (installed or from a checkout)::

    python -m repro list
    python -m repro run figure12 --n 8000 --fanout 16
    python -m repro run theorem3 --n 16384
    python -m repro run all --out results/
    python -m repro pack index.pack --variant PR --n 50000
    python -m repro pack index.manifest --shards 4 --n 50000
    python -m repro serve-bench --index index.pack --requests 1000
    python -m repro serve-bench --shards 4 --requests 1000
    python -m repro serve-async --shards 4 --rates 200,1000,4000 --mmap
    python -m repro serve-async --trace out.jsonl --metrics out.prom
    python -m repro trace out.jsonl --requests 200 --rate 500
    python -m repro profile out.collapsed --requests 400 --shards 4
    python -m repro cache-report --cache-pages 64 --requests 2000
    python -m repro health --index index.pack
    python -m repro health --index index.pack --score-only
    python -m repro explain --index index.pack --kind window --queries 8
    python -m repro update-bench --updates 1000 --n 20000
    python -m repro crash-bench --variants file,shard --stride 2

``run all`` executes every experiment with its defaults and writes each
rendered table to the output directory (or stdout when none is given).
``pack`` bulk-loads a variant and writes it to an on-disk index file —
or, with ``--shards K``, to K Hilbert-range shard files behind a
manifest; ``serve-bench`` reopens either shape as a lazily paged tree
and drives a mixed batched workload through the query server;
``serve-async`` sweeps open-loop arrival rates through the asyncio
serving layer and reports p50/p95/p99 end-to-end latency per rate;
``trace`` captures one live workload as a Chrome trace-event file for
Perfetto (and exits non-zero when the capture fails its own health
checks — span nesting, full request coverage); ``profile`` captures a
collapsed-stack CPU profile attributed to serving phases;
``cache-report`` tabulates the ghost-LRU what-if analytics of the page
cache; ``health`` runs the cache-neutral tree-quality walk and reports
the degradation score against the pack-time baseline
(``--score-only`` prints just the number for scripting); ``explain``
runs a small workload with per-query plan capture and renders the
plans (``docs/observability.md``); ``crash-bench`` runs the
crash-recovery matrix of
``tools/crashtest.py`` (kill at every write offset, reopen, require the
last committed state back — exit 1 on any failure);
``update-bench`` measures dynamic inserts/deletes on a packed
index (dirty-page write-back) and the post-update query degradation
versus a fresh bulk-load.  The serving subcommands share ``--trace``,
``--metrics``, ``--sample-rate``, ``--slow-ms``, ``--profile`` and
``--cache-analytics`` (docs/observability.md).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable

from repro.experiments.figures import (
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
)
from repro.experiments.operators import (
    join_experiment,
    knn_experiment,
    point_experiment,
)
from repro.experiments.report import Table
from repro.experiments.serving import (
    DATASETS,
    cache_report,
    explain_report,
    health_report,
    health_score,
    pack_index,
    profile_capture,
    serve_async_bench,
    serve_bench,
    trace_capture,
    update_bench,
)
from repro.obs import check_span_nesting, load_trace_events
from repro.experiments.tables import table1, theorem3_demo
from repro.external.memory import MemoryModel

#: name -> (runner, accepted scale kwargs, description)
EXPERIMENTS: dict[str, tuple[Callable[..., Table], tuple[str, ...], str]] = {
    "figure9": (figure9, ("fanout",), "bulk-loading I/Os + time, TIGER-like data"),
    "figure10": (figure10, ("max_n", "fanout"), "bulk-loading I/Os vs dataset size"),
    "figure11": (figure11, ("n", "fanout"), "TGS bulk-load cost by distribution"),
    "figure12": (figure12, ("n", "fanout", "queries"), "query cost vs area, Western"),
    "figure13": (figure13, ("n", "fanout", "queries"), "query cost vs area, Eastern"),
    "figure14": (figure14, ("max_n", "fanout", "queries"), "query cost vs dataset size"),
    "figure15": (figure15, ("n", "fanout", "queries", "panel"), "extreme synthetic data"),
    "table1": (table1, ("n", "fanout", "queries"), "CLUSTER line queries"),
    "theorem3": (theorem3_demo, ("n", "fanout", "queries"), "worst-case lower bound"),
    "knn": (knn_experiment, ("n", "fanout", "k", "queries"), "best-first kNN cost by variant"),
    "join": (join_experiment, ("n", "fanout"), "spatial-join cost by variant"),
    "point": (point_experiment, ("n", "fanout", "queries"), "stabbing-query cost by variant"),
}


def _add_serving_index_args(
    parser: argparse.ArgumentParser,
    obs: bool = True,
    metrics: bool = True,
    profile: bool = False,
) -> None:
    """Arguments shared by the serving subcommands: which index to
    serve (or how to pack the temporary one), the page-cache budget,
    mmap, the workload seed, and the observability flags — ``obs``
    gates ``--trace``, ``metrics`` gates the metrics/sampling trio,
    ``profile`` adds ``--profile``/``--cache-analytics``."""
    parser.add_argument(
        "--index",
        type=pathlib.Path,
        help=(
            "a `repro pack` output (single file or shard manifest, "
            "auto-detected); omitted: pack a temporary index first"
        ),
    )
    parser.add_argument(
        "--cache-pages",
        dest="cache_pages",
        type=int,
        default=256,
        help="decoded-page budget of the LRU page cache",
    )
    parser.add_argument(
        "--variant", default="PR", choices=["H", "H4", "PR", "TGS", "STR"],
        help="variant for the temporary index (no --index)",
    )
    parser.add_argument(
        "--dataset", default="tiger-east", choices=sorted(DATASETS),
        help="dataset for the temporary index (no --index)",
    )
    parser.add_argument(
        "--n", type=int, default=20_000,
        help="size of the temporary index (no --index)",
    )
    parser.add_argument(
        "--block-size", dest="block_size", type=int, default=4096,
        help="block size of the temporary index (no --index)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="shard count of the temporary index (no --index)",
    )
    parser.add_argument(
        "--mmap",
        action="store_true",
        help="serve the index file(s) from memory mappings",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    if obs:
        parser.add_argument(
            "--trace",
            type=pathlib.Path,
            metavar="OUT.jsonl",
            help=(
                "write sampled request spans as a Chrome trace-event "
                "file (load at ui.perfetto.dev)"
            ),
        )
    if profile:
        parser.add_argument(
            "--profile",
            type=pathlib.Path,
            metavar="OUT.collapsed",
            help=(
                "sample the run with the phase-attributed wall-clock "
                "profiler and write collapsed stacks "
                "(flamegraph.pl/speedscope input)"
            ),
        )
        parser.add_argument(
            "--cache-analytics",
            dest="cache_analytics",
            action="store_true",
            help=(
                "attach the ghost-LRU reuse-distance tracker to every "
                "page store: miss-ratio-vs-budget and working-set "
                "footnotes (`repro cache-report` for the full table)"
            ),
        )
    if metrics:
        parser.add_argument(
            "--metrics",
            type=pathlib.Path,
            metavar="OUT.prom",
            help="dump final metrics in Prometheus text format",
        )
        parser.add_argument(
            "--sample-rate",
            dest="sample_rate",
            type=float,
            default=1.0,
            help="head-sampling fraction of requests to trace (default 1.0)",
        )
        parser.add_argument(
            "--slow-ms",
            dest="slow_ms",
            type=float,
            help=(
                "slow-query threshold in ms: over-threshold requests are "
                "logged and always traced, even below --sample-rate"
            ),
        )


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the PR-tree paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument("--n", type=int, help="dataset size")
    run.add_argument("--max-n", dest="max_n", type=int, help="largest subset size")
    run.add_argument("--fanout", type=int, help="node capacity B")
    run.add_argument("--queries", type=int, help="queries per measurement point")
    run.add_argument("--k", type=int, help="neighbors per query (knn experiment)")
    run.add_argument(
        "--panel",
        choices=["all", "size", "aspect", "skewed"],
        help="figure15 panel selection",
    )
    run.add_argument("--memory", type=int, help="M in records (external loads)")
    run.add_argument("--seed", type=int, default=0, help="generation seed")
    run.add_argument(
        "--out", type=pathlib.Path, help="directory to write rendered tables to"
    )
    run.add_argument(
        "--markdown", action="store_true", help="emit markdown instead of text"
    )

    pack = sub.add_parser(
        "pack", help="bulk-load a variant and write an on-disk index file"
    )
    pack.add_argument("out", type=pathlib.Path, help="index file to write")
    pack.add_argument(
        "--variant",
        default="PR",
        choices=["H", "H4", "PR", "TGS", "STR"],
        help="bulk loader (default PR)",
    )
    pack.add_argument(
        "--dataset",
        default="tiger-east",
        choices=sorted(DATASETS),
        help="dataset family",
    )
    pack.add_argument("--n", type=int, default=50_000, help="dataset size")
    pack.add_argument(
        "--fanout",
        type=int,
        help="node capacity B (default: derived from --block-size)",
    )
    pack.add_argument(
        "--block-size",
        dest="block_size",
        type=int,
        default=4096,
        help="bytes per block (default 4096, the paper's)",
    )
    pack.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "split into this many Hilbert-range shard files behind a "
            "manifest written at OUT (default 1: a single index file)"
        ),
    )
    pack.add_argument("--seed", type=int, default=0, help="generation seed")

    serve = sub.add_parser(
        "serve-bench",
        help="drive a mixed batched workload through a paged index",
    )
    serve.add_argument(
        "--requests", type=int, default=1000, help="total requests"
    )
    serve.add_argument(
        "--batch-size",
        dest="batch_size",
        type=int,
        default=250,
        help="requests per batch",
    )
    serve.add_argument(
        "--explain",
        action="store_true",
        help=(
            "arm per-request plan capture: footnotes digest mean "
            "pruning efficiency per kind"
        ),
    )
    _add_serving_index_args(serve, profile=True)

    serve_async = sub.add_parser(
        "serve-async",
        help=(
            "open-loop latency-vs-arrival-rate sweep through the asyncio "
            "serving layer (queueing, admission control, percentiles)"
        ),
    )
    serve_async.add_argument(
        "--rates",
        default="200,500,1000,2000",
        help="comma-separated arrival rates (requests/second) to sweep",
    )
    serve_async.add_argument(
        "--requests", type=int, default=500, help="requests per rate"
    )
    serve_async.add_argument(
        "--write-frac",
        dest="write_frac",
        type=float,
        default=None,
        help=(
            "fraction of the stream that is inserts/deletes (default "
            "0.1 for a temporary index, 0 when --index is given — "
            "writes permanently mutate the served index, so mutating "
            "a user-supplied file requires asking for it)"
        ),
    )
    serve_async.add_argument(
        "--max-batch",
        dest="max_batch",
        type=int,
        default=64,
        help="most requests coalesced into one batch",
    )
    serve_async.add_argument(
        "--max-queue-reads",
        dest="max_pending_reads",
        type=int,
        default=256,
        help="read-lane admission bound (queued requests)",
    )
    serve_async.add_argument(
        "--max-queue-writes",
        dest="max_pending_writes",
        type=int,
        default=64,
        help="write-lane admission bound (queued requests)",
    )
    serve_async.add_argument(
        "--admission",
        choices=["reject", "backpressure"],
        default="reject",
        help="behaviour at the admission bound",
    )
    serve_async.add_argument(
        "--sync-every-n",
        dest="sync_every_n",
        type=int,
        default=None,
        metavar="N",
        help=(
            "group commit: sync mutated indexes after every N write "
            "batches, on the commit thread (docs/durability.md)"
        ),
    )
    serve_async.add_argument(
        "--sync-interval-ms",
        dest="sync_interval_ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "group commit: sync mutated indexes at most MS milliseconds "
            "after the first un-synced write batch"
        ),
    )
    serve_async.add_argument(
        "--metrics-port",
        dest="metrics_port",
        type=int,
        metavar="PORT",
        help=(
            "serve the live registry over HTTP at /metrics for the "
            "duration of the sweep (0 picks a free port; 127.0.0.1 only)"
        ),
    )
    serve_async.add_argument(
        "--explain",
        action="store_true",
        help=(
            "arm per-request plan capture: repro_explain_* metric "
            "families and plan summaries on slow-log entries"
        ),
    )
    serve_async.add_argument(
        "--health-interval",
        dest="health_interval",
        type=float,
        metavar="SECONDS",
        help=(
            "export the repro_health_* tree-quality families with each "
            "metrics snapshot, re-walking the index at most every "
            "SECONDS seconds"
        ),
    )
    _add_serving_index_args(serve_async, profile=True)

    trace = sub.add_parser(
        "trace",
        help=(
            "capture a Chrome trace-event file (Perfetto-loadable) from "
            "a live async workload"
        ),
    )
    trace.add_argument(
        "out", type=pathlib.Path, help="trace-event file to write (.jsonl)"
    )
    trace.add_argument(
        "--requests", type=int, default=200, help="requests to trace"
    )
    trace.add_argument(
        "--rate",
        type=float,
        default=500.0,
        help="open-loop arrival rate (requests/second)",
    )
    trace.add_argument(
        "--write-frac",
        dest="write_frac",
        type=float,
        default=None,
        help=(
            "fraction of the stream that is inserts/deletes (default "
            "0.1 for a temporary index, 0 when --index is given)"
        ),
    )
    _add_serving_index_args(trace, obs=False)

    profile = sub.add_parser(
        "profile",
        help=(
            "capture a collapsed-stack CPU profile (flamegraph.pl/"
            "speedscope input) from a live async workload"
        ),
    )
    profile.add_argument(
        "out",
        type=pathlib.Path,
        help="collapsed-stack file to write (.collapsed)",
    )
    profile.add_argument(
        "--requests", type=int, default=400, help="requests to profile"
    )
    profile.add_argument(
        "--rate",
        type=float,
        default=500.0,
        help="open-loop arrival rate (requests/second)",
    )
    profile.add_argument(
        "--write-frac",
        dest="write_frac",
        type=float,
        default=None,
        help=(
            "fraction of the stream that is inserts/deletes (default "
            "0.1 for a temporary index, 0 when --index is given)"
        ),
    )
    _add_serving_index_args(profile, metrics=False)

    cache = sub.add_parser(
        "cache-report",
        help=(
            "ghost-LRU page-cache analytics: miss-ratio-vs-budget "
            "curve, access-frequency histogram, working-set sizes"
        ),
    )
    cache.add_argument(
        "--requests", type=int, default=2000, help="total requests"
    )
    cache.add_argument(
        "--batch-size",
        dest="batch_size",
        type=int,
        default=250,
        help="requests per batch",
    )
    _add_serving_index_args(cache, obs=False, metrics=False)

    health = sub.add_parser(
        "health",
        help=(
            "tree-quality analytics for a packed index: per-level "
            "occupancy/overlap/dead space and the degradation score "
            "against the pack-time baseline"
        ),
    )
    health.add_argument(
        "--index",
        type=pathlib.Path,
        required=True,
        help="a `repro pack` output (single file or shard manifest)",
    )
    health.add_argument(
        "--cache-pages",
        dest="cache_pages",
        type=int,
        default=64,
        help="decoded-page budget while walking (reads are quiet)",
    )
    health.add_argument(
        "--mmap",
        action="store_true",
        help="open the index file(s) from memory mappings",
    )
    health.add_argument(
        "--score-only",
        dest="score_only",
        action="store_true",
        help=(
            "print only the degradation score (or 'none' when the "
            "index has no baseline) — for scripts and CI"
        ),
    )

    explain = sub.add_parser(
        "explain",
        help=(
            "run a small workload with per-query plan capture and "
            "render the plans (nodes visited, pruning efficiency vs "
            "the leaf-I/O lower bound, physical reads)"
        ),
    )
    explain.add_argument(
        "--kind",
        default="window",
        choices=["window", "count", "containment", "point", "knn", "mixed"],
        help="request kind to explain (default window)",
    )
    explain.add_argument(
        "--queries", type=int, default=8, help="requests to run"
    )
    explain.add_argument(
        "--area-percent",
        dest="area_percent",
        type=float,
        default=1.0,
        help="query-window area as a percent of the data MBR",
    )
    explain.add_argument(
        "--k", type=int, default=10, help="neighbors per kNN request"
    )
    _add_serving_index_args(explain, metrics=False)

    update = sub.add_parser(
        "update-bench",
        help=(
            "measure dynamic inserts/deletes on a packed index "
            "(dirty-page write-back) and post-update query degradation"
        ),
    )
    update.add_argument(
        "--updates", type=int, default=1000, help="total inserts + deletes"
    )
    update.add_argument(
        "--queries",
        type=int,
        default=100,
        help="window queries per measurement phase",
    )
    update.add_argument(
        "--batch-size",
        dest="batch_size",
        type=int,
        default=250,
        help="updates per server batch",
    )
    update.add_argument(
        "--cache-pages",
        dest="cache_pages",
        type=int,
        default=256,
        help="decoded-page budget of the LRU page cache",
    )
    update.add_argument(
        "--variant", default="PR", choices=["H", "H4", "PR", "TGS", "STR"],
        help="bulk loader for the packed index (default PR)",
    )
    update.add_argument(
        "--dataset", default="tiger-east", choices=sorted(DATASETS),
        help="dataset family",
    )
    update.add_argument("--n", type=int, default=20_000, help="dataset size")
    update.add_argument(
        "--block-size", dest="block_size", type=int, default=4096,
        help="bytes per block (default 4096, the paper's)",
    )
    update.add_argument("--seed", type=int, default=0, help="workload seed")

    crash = sub.add_parser(
        "crash-bench",
        help=(
            "crash-recovery matrix: kill a scripted update workload at "
            "every write offset, reopen, require the last committed "
            "state back (exit 1 on any failure)"
        ),
    )
    crash.add_argument("--n", type=int, default=250, help="packed dataset size")
    crash.add_argument(
        "--updates", type=int, default=30, help="inserts+deletes to replay"
    )
    crash.add_argument(
        "--sync-every", dest="sync_every", type=int, default=10,
        help="updates per sync() commit point",
    )
    crash.add_argument("--fanout", type=int, default=12)
    crash.add_argument(
        "--block-size", dest="block_size", type=int, default=512,
        help="bytes per block (small blocks = more write offsets)",
    )
    crash.add_argument(
        "--shards", type=int, default=4,
        help="shard count for the family variant",
    )
    crash.add_argument(
        "--modes", default="clean,torn,omit",
        help="comma-separated subset of clean,torn,omit",
    )
    crash.add_argument(
        "--variants", default="file,mmap,shard",
        help="comma-separated subset of file,mmap,shard",
    )
    crash.add_argument(
        "--stride", type=int, default=1,
        help="test every k-th write offset (1 = exhaustive)",
    )
    crash.add_argument("--seed", type=int, default=0, help="injector seed")
    return parser


def _kwargs_for(name: str, args: argparse.Namespace) -> dict:
    _, accepted, _ = EXPERIMENTS[name]
    kwargs: dict = {"seed": args.seed}
    for key in accepted:
        value = getattr(args, key, None)
        if value is not None:
            kwargs[key] = value
    if args.memory is not None and name in ("figure9", "figure10", "figure11"):
        fanout = args.fanout or 16
        kwargs["memory"] = MemoryModel(
            memory_records=args.memory, block_records=fanout
        )
    return kwargs


def _emit(table: Table, name: str, args: argparse.Namespace) -> None:
    text = table.to_markdown() if args.markdown else table.render()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        suffix = "md" if args.markdown else "txt"
        path = args.out / f"{name}.{suffix}"
        path.write_text(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)
        print()


def _check_trace_health(
    out: pathlib.Path, requests: int, sample_rate: float
) -> int:
    """Validate a just-captured trace; the ``repro trace`` exit code.

    Two machine-checkable invariants guard the capture: every (pid,
    tid) row's duration events must nest properly
    (:func:`~repro.obs.check_span_nesting` — partial overlap means
    broken timestamps), and at full head sampling every offered request
    must appear as a ``cat="request"`` summary event (fewer means
    requests were dropped from the trace — or rejected by admission
    control, which the default rate/bounds never hit).  A failing
    capture still leaves the file on disk for inspection; the non-zero
    exit makes ``repro trace`` usable as a CI smoke check.
    """
    events = load_trace_events(out)
    errors = check_span_nesting(events)
    for error in errors[:10]:
        print(f"trace check: {error}", file=sys.stderr)
    if errors:
        print(
            f"trace check: {len(errors)} span-nesting violation(s)",
            file=sys.stderr,
        )
        return 1
    if sample_rate >= 1.0:
        traced = sum(
            1 for event in events if event.get("cat") == "request"
        )
        if traced < requests:
            print(
                f"trace check: only {traced} of {requests} requests "
                "covered at sample-rate 1.0",
                file=sys.stderr,
            )
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (_, _, description) in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {description}")
        return 0

    if args.command == "pack":
        table = pack_index(
            args.out,
            variant=args.variant,
            dataset=args.dataset,
            n=args.n,
            fanout=args.fanout,
            block_size=args.block_size,
            seed=args.seed,
            shards=args.shards,
        )
        print(table.render())
        return 0

    if args.command == "serve-bench":
        table = serve_bench(
            index=args.index,
            requests=args.requests,
            batch_size=args.batch_size,
            cache_pages=args.cache_pages,
            variant=args.variant,
            dataset=args.dataset,
            n=args.n,
            block_size=args.block_size,
            seed=args.seed,
            shards=args.shards,
            mmap=args.mmap,
            trace=args.trace,
            metrics=args.metrics,
            sample_rate=args.sample_rate,
            slow_ms=args.slow_ms,
            profile=args.profile,
            cache_analytics=args.cache_analytics,
            explain=args.explain,
        )
        print(table.render())
        return 0

    if args.command == "serve-async":
        try:
            rates = tuple(
                float(rate) for rate in args.rates.split(",") if rate.strip()
            )
        except ValueError:
            print(f"invalid --rates {args.rates!r}", file=sys.stderr)
            return 2
        if not rates:
            print("--rates lists no rates", file=sys.stderr)
            return 2
        if any(rate <= 0 for rate in rates):
            print(
                f"--rates must be positive, got {args.rates!r}",
                file=sys.stderr,
            )
            return 2
        write_frac = args.write_frac
        if write_frac is None:
            # A temporary index is disposable; a user-supplied one must
            # not be mutated without an explicit --write-frac.
            write_frac = 0.1 if args.index is None else 0.0
        table = serve_async_bench(
            index=args.index,
            rates=rates,
            requests=args.requests,
            write_frac=write_frac,
            max_batch=args.max_batch,
            max_pending_reads=args.max_pending_reads,
            max_pending_writes=args.max_pending_writes,
            admission=args.admission,
            sync_every_n=args.sync_every_n,
            sync_interval_s=(
                args.sync_interval_ms / 1000.0
                if args.sync_interval_ms is not None
                else None
            ),
            cache_pages=args.cache_pages,
            variant=args.variant,
            dataset=args.dataset,
            n=args.n,
            block_size=args.block_size,
            seed=args.seed,
            shards=args.shards,
            mmap=args.mmap,
            trace=args.trace,
            metrics=args.metrics,
            sample_rate=args.sample_rate,
            slow_ms=args.slow_ms,
            profile=args.profile,
            cache_analytics=args.cache_analytics,
            metrics_port=args.metrics_port,
            explain=args.explain,
            health_interval=args.health_interval,
        )
        print(table.render())
        return 0

    if args.command == "trace":
        write_frac = args.write_frac
        if write_frac is None:
            write_frac = 0.1 if args.index is None else 0.0
        table = trace_capture(
            args.out,
            index=args.index,
            requests=args.requests,
            rate=args.rate,
            write_frac=write_frac,
            sample_rate=args.sample_rate,
            slow_ms=args.slow_ms,
            metrics=args.metrics,
            cache_pages=args.cache_pages,
            variant=args.variant,
            dataset=args.dataset,
            n=args.n,
            block_size=args.block_size,
            seed=args.seed,
            shards=args.shards,
            mmap=args.mmap,
        )
        print(table.render())
        print(f"wrote {args.out}")
        return _check_trace_health(
            args.out, args.requests, args.sample_rate
        )

    if args.command == "profile":
        write_frac = args.write_frac
        if write_frac is None:
            write_frac = 0.1 if args.index is None else 0.0
        table = profile_capture(
            args.out,
            index=args.index,
            requests=args.requests,
            rate=args.rate,
            write_frac=write_frac,
            trace=args.trace,
            cache_pages=args.cache_pages,
            variant=args.variant,
            dataset=args.dataset,
            n=args.n,
            block_size=args.block_size,
            seed=args.seed,
            shards=args.shards,
            mmap=args.mmap,
        )
        print(table.render())
        print(f"wrote {args.out}")
        return 0

    if args.command == "cache-report":
        table = cache_report(
            index=args.index,
            requests=args.requests,
            batch_size=args.batch_size,
            cache_pages=args.cache_pages,
            variant=args.variant,
            dataset=args.dataset,
            n=args.n,
            block_size=args.block_size,
            seed=args.seed,
            shards=args.shards,
            mmap=args.mmap,
        )
        print(table.render())
        return 0

    if args.command == "health":
        if args.score_only:
            score = health_score(
                args.index, cache_pages=args.cache_pages, mmap=args.mmap
            )
            print("none" if score is None else f"{score:.9f}")
            return 0
        table = health_report(
            args.index, cache_pages=args.cache_pages, mmap=args.mmap
        )
        print(table.render())
        return 0

    if args.command == "explain":
        table = explain_report(
            index=args.index,
            kind=args.kind,
            queries=args.queries,
            area_percent=args.area_percent,
            k=args.k,
            cache_pages=args.cache_pages,
            variant=args.variant,
            dataset=args.dataset,
            n=args.n,
            block_size=args.block_size,
            seed=args.seed,
            shards=args.shards,
            mmap=args.mmap,
            trace=args.trace,
        )
        print(table.render())
        if args.trace is not None:
            print(f"wrote {args.trace}")
            return _check_trace_health(args.trace, args.queries, 1.0)
        return 0

    if args.command == "update-bench":
        table = update_bench(
            updates=args.updates,
            queries=args.queries,
            batch_size=args.batch_size,
            cache_pages=args.cache_pages,
            variant=args.variant,
            dataset=args.dataset,
            n=args.n,
            block_size=args.block_size,
            seed=args.seed,
        )
        print(table.render())
        return 0

    if args.command == "crash-bench":
        from repro.experiments.crashbench import crash_matrix

        table = crash_matrix(
            n=args.n,
            updates=args.updates,
            fanout=args.fanout,
            block_size=args.block_size,
            shards=args.shards,
            sync_every=args.sync_every,
            modes=tuple(m for m in args.modes.split(",") if m),
            variants=tuple(v for v in args.variants.split(",") if v),
            stride=args.stride,
            seed=args.seed,
        )
        print(table.render())
        return 1 if sum(table.column("failures")) else 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner, _, _ = EXPERIMENTS[name]
        table = runner(**_kwargs_for(name, args))
        _emit(table, name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
