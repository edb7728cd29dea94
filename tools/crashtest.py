#!/usr/bin/env python
"""Crash-recovery gate: exhaustively kill-and-reopen the storage layer.

Runs the deterministic crash matrix of
:func:`repro.experiments.crashbench.crash_matrix` — a scripted update
workload killed at every physical write offset, in every crash mode,
over a single-file index and a sharded family (both served from
memory-mapped files, the store's one access path) — and exits non-zero
if any crash point fails to recover to its last committed state.  CI runs
this next to the test suite (`.github/workflows/ci.yml`, job
``crash-recovery``); ``repro crash-bench`` is the same matrix behind
the experiments CLI.

Usage::

    PYTHONPATH=src python tools/crashtest.py              # full matrix
    PYTHONPATH=src python tools/crashtest.py --quick      # CI subset
    PYTHONPATH=src python tools/crashtest.py --variants shard
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.crashbench import CRASH_VARIANTS, crash_matrix
from repro.storage.faults import CRASH_MODES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "kill a scripted update workload at every write offset, "
            "reopen, and require the last committed state back"
        )
    )
    parser.add_argument("--n", type=int, default=250, help="packed dataset size")
    parser.add_argument(
        "--updates", type=int, default=30, help="inserts+deletes to replay"
    )
    parser.add_argument(
        "--sync-every", dest="sync_every", type=int, default=10,
        help="updates per sync() commit point",
    )
    parser.add_argument("--fanout", type=int, default=12)
    parser.add_argument(
        "--block-size", dest="block_size", type=int, default=512,
        help="bytes per block (small blocks = more write offsets)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="shard count for the family variant"
    )
    parser.add_argument(
        "--modes", default=",".join(CRASH_MODES),
        help=f"comma-separated subset of {CRASH_MODES}",
    )
    parser.add_argument(
        "--variants", default=",".join(CRASH_VARIANTS),
        help=f"comma-separated subset of {CRASH_VARIANTS}",
    )
    parser.add_argument(
        "--stride", type=int, default=1,
        help="test every k-th write offset (1 = exhaustive)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="small deterministic matrix for CI (still every offset)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.n, args.updates, args.sync_every = 120, 20, 10
    modes = tuple(m for m in args.modes.split(",") if m)
    variants = tuple(v for v in args.variants.split(",") if v)
    table = crash_matrix(
        n=args.n,
        updates=args.updates,
        fanout=args.fanout,
        block_size=args.block_size,
        shards=args.shards,
        sync_every=args.sync_every,
        modes=modes,
        variants=variants,
        stride=args.stride,
        seed=args.seed,
    )
    print(table.render())
    failures = sum(table.column("failures"))
    if failures:
        print(f"crashtest: {failures} crash point(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
