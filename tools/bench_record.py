#!/usr/bin/env python3
"""Record one change's benchmark numbers beside its parent's.

``--pr N`` checks the parent revision out into a temporary ``git
worktree`` and runs the benchmark of record (``python3 -m bench run``,
see ``BENCHMARK.json``) on it and on the current checkout, alternating
the two: seeds 0-2 of every workload end to end, then one traced layer
pass (``--trace 1``) per workload at seed 0.  Both sides run in the
same session on the same machine, so session drift cannot pass for a
change.  It writes ``BENCH_<N>.json`` at the repository root:

* per side and per (workload, section, metric): the median and the
  quartiles over that side's runs;
* per side, the count rows (:data:`COUNT_ROWS` from the traced pass,
  :data:`EXACT_ROWS` per seed), which must be identical unless the
  change means to move them;
* both commits (the change's with a ``dirty`` flag when the checkout
  has uncommitted edits), the Python and numpy versions, the CPU count
  and ``ref.sqlite_window_us`` as the session's speed probe;
* the ``python3 -m bench compare`` table, which it also prints.

``--check`` is the CI gate: it runs the traced pass at seed 0 per
workload on the checkout and requires every row in
:data:`COUNT_ROWS` to equal, exactly, the change side of the newest
``BENCH_*.json``.  No clock row is gated.

Run from the repository root, with nothing else loading the machine::

    python3 tools/bench_record.py --pr N                # parent HEAD~1
    python3 tools/bench_record.py --pr N --parent main
    python3 tools/bench_record.py --check

A full recording is 32 runs, about twelve minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import tempfile

import numpy

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("point_hot", "scan_cold", "mixed_rw", "arrivals")
SEEDS = (0, 1, 2)
#: Traced-pass rows a seed fixes exactly; ``--check`` gates on them.
COUNT_ROWS = (
    "engines.leaf_ios_per_read",
    "engines.internal_visits_per_read",
    "kernels.calls_per_read",
    "paged.physical_reads_per_read",
    "paged.hit_ratio",
    "shard.leaf_ios_per_read",
    "shard.shards_touched_per_read",
    "update.write_ios_per_op",
    "filestore.writes_per_commit",
)
#: End-to-end rows a seed fixes on the read-only workloads.
EXACT_ROWS = ("leaf_ios_per_read", "leaf_io_bound_ratio", "file_bytes_per_rect")
#: (section, metric) of every count row a side records.
_COUNTED = {("per_layer", row) for row in COUNT_ROWS} | {
    ("end_to_end", row) for row in EXACT_ROWS
}
PROBE = "ref.sqlite_window_us"
_BENCH_FILE = re.compile(r"BENCH_(\d+)\.json")


def git(*args: str, cwd: pathlib.Path = REPO_ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def resolve_commit(rev: str, cwd: pathlib.Path = REPO_ROOT) -> str:
    """The full hash of the commit ``rev`` names; SystemExit otherwise."""
    proc = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        cwd=cwd,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"--parent {rev!r} is not a commit")
    return proc.stdout.strip()


def bench_run(
    checkout: pathlib.Path, workload: str, seed: int, trace: int,
    out: pathlib.Path,
) -> pathlib.Path:
    """One ``python3 -m bench run`` in ``checkout``; its result file."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [
        sys.executable, "-m", "bench", "run", "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--out", str(out),
    ]
    print("+", " ".join(cmd[1:]), f"  [{checkout}]", flush=True)
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"bench run failed in {checkout} (exit {proc.returncode}):\n"
            + proc.stdout[-2000:] + proc.stderr[-2000:]
        )
    return out


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(files: list[pathlib.Path]) -> dict:
    """One side's statistics from its ``bench run`` result files.

    ``files`` are in run order (seed order within a workload); the
    count rows keep that order so two sides compare value for value.
    """
    values: dict[tuple[str, str, str], list[float]] = {}
    units: dict[tuple[str, str, str], str] = {}
    failed = 0
    correct = True
    for path in files:
        document = json.loads(pathlib.Path(path).read_text())
        for workload, sections in document["workloads"].items():
            for section, body in sections.items():
                failed += body["failed"]
                correct &= body["correct"]
                for metric, cell in body["metrics"].items():
                    key = (workload, section, metric)
                    values.setdefault(key, []).append(cell["value"])
                    units[key] = cell["unit"]
    metrics: dict = {}
    counts: dict = {}
    for (workload, section, metric), runs in sorted(values.items()):
        metrics.setdefault(workload, {}).setdefault(section, {})[metric] = {
            **_quartiles(runs), "unit": units[workload, section, metric],
            "runs": len(runs),
        }
        if (section, metric) in _COUNTED:
            counts.setdefault(workload, {})[f"{section}.{metric}"] = runs
    probe = [
        v for (_, section, metric), runs in values.items()
        if (section, metric) == ("per_layer", PROBE) for v in runs
    ]
    return {
        "files": len(files),
        "failed": failed,
        "correct": correct,
        "speed_probe": {PROBE: _quartiles(probe)} if probe else None,
        "counts": counts,
        "metrics": metrics,
    }


def assemble(
    pr: int,
    parent: dict,
    change: dict,
    parent_files: list[pathlib.Path],
    change_files: list[pathlib.Path],
    compare_lines: list[str],
) -> dict:
    """The ``BENCH_<N>.json`` document.

    ``parent`` and ``change`` are ``{"commit": ..., ...}`` descriptions
    of the two sides; their statistics come from the result files.
    """
    sides = {
        "parent": {**parent, **summarise(parent_files)},
        "change": {**change, **summarise(change_files)},
    }
    before, after = sides["parent"]["counts"], sides["change"]["counts"]
    return {
        "format": "repro-bench-record/1",
        "pr": pr,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "workloads": list(WORKLOADS),
        "seeds": list(SEEDS),
        "sides": sides,
        "count_rows_differing": sorted(
            f"{workload} {row}"
            for workload in before.keys() | after.keys()
            for row in before.get(workload, {}).keys()
            | after.get(workload, {}).keys()
            if before.get(workload, {}).get(row)
            != after.get(workload, {}).get(row)
        ),
        "compare": compare_lines,
    }


def newest_record(root: pathlib.Path = REPO_ROOT) -> pathlib.Path:
    """The ``BENCH_<N>.json`` with the largest ``N``."""
    found = [
        (int(m.group(1)), path)
        for path in root.glob("BENCH_*.json")
        if (m := _BENCH_FILE.fullmatch(path.name))
    ]
    if not found:
        raise SystemExit(f"no BENCH_*.json in {root}")
    return max(found)[1]


def count_mismatches(record: dict, fresh: dict) -> list[str]:
    """One line per :data:`COUNT_ROWS` value of ``fresh`` (a side
    summary of one traced seed-0 run per workload) that differs from
    the recorded change side's seed-0 value."""
    recorded = record["sides"]["change"]["counts"]
    errors = []
    for workload in WORKLOADS:
        for row in COUNT_ROWS:
            key = f"per_layer.{row}"
            want = recorded.get(workload, {}).get(key, [None])[0]
            got = fresh["counts"].get(workload, {}).get(key, [None])[0]
            if want != got:
                errors.append(f"{workload} {row}: recorded {want}, now {got}")
    return errors


def cmd_check() -> int:
    path = newest_record()
    record = json.loads(path.read_text())
    with tempfile.TemporaryDirectory(prefix="bench-check-") as tmp:
        files = [
            bench_run(REPO_ROOT, w, 0, 1, pathlib.Path(tmp) / f"{w}.json")
            for w in WORKLOADS
        ]
        fresh = summarise(files)
    errors = count_mismatches(record, fresh)
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print(
        f"{len(COUNT_ROWS)} count rows x {len(WORKLOADS)} workloads vs "
        f"{path.name}: " + ("OK" if not errors else f"{len(errors)} differ")
    )
    return 1 if errors else 0


def cmd_record(pr: int, parent_rev: str) -> int:
    parent_sha = resolve_commit(parent_rev)
    change = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        tmp_path = pathlib.Path(tmp)
        worktree = tmp_path / "parent"
        git("worktree", "add", "--detach", str(worktree), parent_sha)
        try:
            sides = {"parent": worktree, "change": REPO_ROOT}
            files: dict[str, list[pathlib.Path]] = {"parent": [], "change": []}
            plan = [(w, s, 0) for s in SEEDS for w in WORKLOADS]
            plan += [(w, 0, 1) for w in WORKLOADS]
            for workload, seed, trace in plan:
                for side, checkout in sides.items():
                    out = tmp_path / f"{side}-{workload}-s{seed}-t{trace}.json"
                    files[side].append(
                        bench_run(checkout, workload, seed, trace, out)
                    )
            proc = subprocess.run(
                [sys.executable, "-m", "bench", "compare",
                 "--base", *map(str, files["parent"]),
                 "--change", *map(str, files["change"])],
                cwd=REPO_ROOT, capture_output=True, text=True,
            )
            print(proc.stdout, end="")
            document = assemble(
                pr,
                {"commit": parent_sha},
                change,
                files["parent"],
                files["change"],
                proc.stdout.splitlines(),
            )
        finally:
            git("worktree", "remove", "--force", str(worktree))
    out = REPO_ROOT / f"BENCH_{pr}.json"
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pr", type=int, help="record BENCH_<PR>.json")
    mode.add_argument(
        "--check", action="store_true",
        help="gate the count rows against the newest BENCH_*.json",
    )
    parser.add_argument(
        "--parent", default="HEAD~1", help="parent revision (default HEAD~1)"
    )
    args = parser.parse_args(argv)
    if args.check:
        return cmd_check()
    return cmd_record(args.pr, args.parent)


if __name__ == "__main__":
    sys.exit(main())
