"""Command-line interface for the experiment harness.

Usage (installed or from a checkout)::

    python -m repro list
    python -m repro run figure12 --n 8000 --fanout 16
    python -m repro run theorem3 --n 16384
    python -m repro run all --out results/
    python -m repro pack index.pack --variant PR --n 50000
    python -m repro pack index.manifest --shards 4 --n 50000
    python -m repro status index.pack
    python -m repro status index.manifest --explain --trace out.jsonl
    python -m repro crash-bench --variants file,shard --stride 2

``run all`` executes every experiment with its defaults and writes each
rendered table to the output directory (or stdout when none is given).
``pack`` bulk-loads a variant and writes it to an on-disk index file —
or, with ``--shards K``, to K Hilbert-range shard files behind a
manifest.  ``status`` opens either shape read-only and prints each
file's committed epoch and recovery verdict, the per-level health table
and the degradation score; ``--explain`` adds the plans and page-hit
ratio of a fixed mixed batch (skipped on an empty index), and
``--trace`` captures that batch as a Chrome trace-event file and exits
1 when the capture fails its own checks (span nesting, full request
coverage).  ``crash-bench`` runs the crash-recovery matrix of
``tools/crashtest.py`` (kill at every write offset, reopen, require the
last committed state back — exit 1 on any failure).  Serving is measured by ``python3 -m bench run``, not here
(``docs/benchmarks.md``).
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
    STATUS_REQUESTS,
    index_status,
    pack_index,
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

    status = sub.add_parser(
        "status",
        help=(
            "read-only snapshot of a packed index: committed epoch and "
            "recovery verdict per file, per-level health and the "
            "degradation score"
        ),
    )
    status.add_argument(
        "index",
        type=pathlib.Path,
        help="a `repro pack` output (single file or shard manifest)",
    )
    status.add_argument(
        "--explain",
        action="store_true",
        help=(
            f"also run a fixed batch of {STATUS_REQUESTS} mixed requests "
            "with plan capture: plans, the worst plan, and the page-hit "
            "ratio beside the ghost-LRU prediction"
        ),
    )
    status.add_argument(
        "--trace",
        type=pathlib.Path,
        metavar="OUT.jsonl",
        help=(
            "trace that batch as a Chrome trace-event file; exit 1 when "
            "the capture's spans do not nest or a request is missing"
        ),
    )

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
        "--variants", default="file,shard",
        help="comma-separated subset of file,shard",
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


def _check_trace_health(out: pathlib.Path, requests: int) -> int:
    """Validate a just-captured trace; the ``repro status --trace`` exit code.

    Two machine-checkable invariants guard the capture: every (pid,
    tid) row's duration events must nest properly
    (:func:`~repro.obs.check_span_nesting` — partial overlap means
    broken timestamps), and every traced request must appear as a
    ``cat="request"`` summary event (fewer means requests were dropped
    from the trace).  A failing capture still leaves the file on disk
    for inspection; the non-zero exit makes the command a CI gate.
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
    traced = sum(1 for event in events if event.get("cat") == "request")
    if traced < requests:
        print(
            f"trace check: only {traced} of {requests} requests covered",
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

    if args.command == "status":
        tables = index_status(
            args.index, explain=args.explain, trace=args.trace
        )
        for table in tables:
            print(table.render())
            print()
        # An empty index skips the batch: two tables, no trace.
        if args.trace is not None and len(tables) == 3:
            print(f"wrote {args.trace}")
            return _check_trace_health(args.trace, STATUS_REQUESTS)
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
