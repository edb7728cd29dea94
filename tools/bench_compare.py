#!/usr/bin/env python3
"""Compare two trees of ``repro-table/1`` benchmark results.

The regression harness behind the CI ``bench-regression`` job (see
``docs/benchmarks.md``)::

    python tools/bench_compare.py BASELINE_DIR CURRENT_DIR \
        --tolerance 0.25 --report bench-delta.md

Both directories hold the ``*.json`` files the benchmark suite writes
next to its ``.txt`` tables (``benchmarks/results/``).  Files are
matched by relative name, rows by their first column (the label), and
columns by header name — so a baseline from an older checkout still
compares cleanly when a table gained a column or a row.

Every numeric column is classified two ways:

* **direction** — whether bigger is better (throughput, hit ratios,
  dedup), worse (latencies, I/Os, misses, flushes), or neither (sizes,
  input parameters, row labels).  Only directional columns can regress,
  and answer sizes (``pairs``), which regress on any change at all.
* **timing** — whether the number is wall-clock-derived (latency,
  throughput, build time) or deterministic (I/O counts, hit ratios,
  block counts).  Timing numbers are noisy on shared CI runners;
  ``--ratio-only`` gates on deterministic columns only and demotes
  timing regressions to report-only notes.

A change beyond ``--tolerance`` (relative, default 0.25) in the bad
direction is a regression; the exit code is 1 when any gated column
regressed, so the script doubles as a CI gate.  ``--report OUT.md``
writes a markdown delta table (regressions first) for the job artifact.
Unknown column names are compared but never gated — they are listed in
the report so a silently unclassified metric is visible, not skipped.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass

#: Row-label / input-parameter columns: never compared numerically.
_NEUTRAL = {
    "config", "variant", "n", "fanout", "height", "blocks", "n_blocks",
    "requests", "executed", "ops", "size", "k", "queries", "area",
    "panel", "dataset", "shards", "updates", "dims",
}

#: Deterministic lower-is-better counters.
_LOWER_COUNTS = {
    "leaf_ios", "internal_reads", "physical_reads", "reads", "write_ios",
    "flushes", "misses", "evictions", "ios", "io", "file_mb",
    "dedup_missed", "score",
}

#: Deterministic higher-is-better counters/ratios.
_HIGHER_COUNTS = {
    "hits", "dedup", "seq_frac", "dedup_hits",
}

#: Deterministic answer sizes: any change, either way, is a wrong answer.
_EXACT_COUNTS = {"pairs"}


@dataclass(frozen=True)
class ColumnClass:
    """How one header participates in the comparison."""

    #: +1 bigger is better, -1 smaller is better, 0 informational.
    direction: int
    #: Wall-clock-derived (noisy on shared runners) vs deterministic.
    timing: bool
    #: True when the name matched no rule (reported, never gated).
    unknown: bool = False
    #: An answer size: it regresses on any change, whatever the tolerance.
    exact: bool = False


def classify(header: str) -> ColumnClass:
    """Direction + timing class for one column header."""
    h = header.strip().lower()
    if h in _NEUTRAL:
        return ColumnClass(0, False)
    if h in _EXACT_COUNTS:
        return ColumnClass(0, False, exact=True)
    if h in _LOWER_COUNTS or h.endswith(("_ios", "_reads", "_misses")):
        return ColumnClass(-1, False)
    if h in _HIGHER_COUNTS or "hit_ratio" in h:
        return ColumnClass(+1, False)
    if h == "ios_per_query" or h.endswith("_per_query"):
        return ColumnClass(-1, False)
    if h.endswith("_vs_fresh"):
        # Deterministic I/O ratios against a fresh bulk-load (e.g.
        # index_health_drift's io_vs_fresh): 1.0 is parity, bigger is
        # more degradation.
        return ColumnClass(-1, False)
    if h == "req_per_s" or h.endswith("_rps") or "throughput" in h:
        return ColumnClass(+1, True)
    if h.startswith("vs_"):
        # Normalized-against-baseline ratios (e.g. storage_node_kernels'
        # vs_scalar): 1.0 is parity, smaller is more overhead.
        return ColumnClass(+1, True)
    if h.endswith("_ms") or "latency" in h or "busy" in h:
        return ColumnClass(-1, True)
    if h.endswith("_s"):
        return ColumnClass(-1, True)
    return ColumnClass(0, False, unknown=True)


@dataclass
class Delta:
    """One compared cell."""

    file: str
    row: str
    column: str
    baseline: float
    current: float
    change: float  # relative, signed; +0.30 = grew 30%
    status: str  # "regression" | "improvement" | "ok" | "info"
    gated: bool


def _load_table(path: pathlib.Path) -> dict | None:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_compare: unreadable {path}: {exc}", file=sys.stderr)
        return None
    if doc.get("schema") != "repro-table/1":
        print(
            f"bench_compare: {path} is not repro-table/1, skipping",
            file=sys.stderr,
        )
        return None
    return doc


def _rows_by_label(doc: dict) -> dict[tuple[str, int], list]:
    """Rows keyed by (first-column label, occurrence index).

    The occurrence index disambiguates tables whose label column
    repeats (e.g. one row per batch numbered from a counter column that
    is itself the label).
    """
    seen: dict[str, int] = {}
    rows: dict[tuple[str, int], list] = {}
    for row in doc.get("rows", ()):
        label = str(row[0]) if row else ""
        index = seen.get(label, 0)
        seen[label] = index + 1
        rows[(label, index)] = row
    return rows


def compare_tables(
    name: str, baseline: dict, current: dict, tolerance: float,
    ratio_only: bool,
) -> list[Delta]:
    """Compare two repro-table/1 docs; one :class:`Delta` per cell."""
    base_headers = [str(h) for h in baseline.get("headers", ())]
    cur_headers = [str(h) for h in current.get("headers", ())]
    shared = [h for h in base_headers[1:] if h in cur_headers[1:]]
    base_rows = _rows_by_label(baseline)
    cur_rows = _rows_by_label(current)
    deltas: list[Delta] = []
    for key, base_row in base_rows.items():
        cur_row = cur_rows.get(key)
        if cur_row is None:
            continue
        for header in shared:
            base_value = base_row[base_headers.index(header)]
            cur_value = cur_row[cur_headers.index(header)]
            if not isinstance(base_value, (int, float)) or not isinstance(
                cur_value, (int, float)
            ):
                continue
            if isinstance(base_value, bool) or isinstance(cur_value, bool):
                continue
            if base_value == 0 and cur_value == 0:
                continue
            column = classify(header)
            if base_value == 0:
                change = float("inf") if cur_value > 0 else float("-inf")
            else:
                change = (cur_value - base_value) / abs(base_value)
            gated = (
                column.direction != 0 or column.exact
            ) and not (ratio_only and column.timing)
            if column.exact:
                status = "regression" if change else "ok"
            elif column.direction == 0:
                status = "info"
            elif column.direction * change < -tolerance:
                status = "regression"
            elif column.direction * change > tolerance:
                status = "improvement"
            else:
                status = "ok"
            deltas.append(
                Delta(
                    file=name,
                    row=key[0] if key[1] == 0 else f"{key[0]}#{key[1]}",
                    column=header,
                    baseline=float(base_value),
                    current=float(cur_value),
                    change=change,
                    status=status,
                    gated=gated,
                )
            )
    return deltas


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def _fmt_change(change: float) -> str:
    if change in (float("inf"), float("-inf")):
        return "new" if change > 0 else "gone"
    return f"{change:+.1%}"


def write_report(
    path: pathlib.Path,
    deltas: list[Delta],
    regressions: list[Delta],
    tolerance: float,
    ratio_only: bool,
    missing: list[str],
) -> None:
    """Markdown delta report: regressions first, then notable moves."""
    lines = ["# Benchmark comparison", ""]
    lines.append(
        f"Tolerance ±{tolerance:.0%}"
        + (", deterministic columns gated (`--ratio-only`)" if ratio_only else "")
        + f"; {len(deltas)} cells compared."
    )
    lines.append("")
    if regressions:
        lines.append(f"## Regressions ({len(regressions)}) ❌")
    else:
        lines.append("## Regressions: none ✅")
    lines.append("")
    notable = [
        d
        for d in deltas
        if d not in regressions
        and d.status != "info"
        and abs(d.change) >= min(0.05, tolerance)
    ]
    unknown_columns = sorted(
        {d.column for d in deltas if classify(d.column).unknown}
    )
    for title, rows in (
        ("", regressions),
        ("## Notable changes", notable),
    ):
        if not rows:
            continue
        if title:
            lines.append(title)
            lines.append("")
        lines.append("| file | row | metric | baseline | current | change | status |")
        lines.append("|---|---|---|---|---|---|---|")
        for d in sorted(rows, key=lambda d: -abs(d.change)):
            lines.append(
                f"| {d.file} | {d.row} | {d.column} | "
                f"{_fmt_value(d.baseline)} | {_fmt_value(d.current)} | "
                f"{_fmt_change(d.change)} | {d.status}"
                + ("" if d.gated else " (report-only)")
                + " |"
            )
        lines.append("")
    if missing:
        lines.append("## Missing from current run")
        lines.append("")
        for name in missing:
            lines.append(f"- {name}")
        lines.append("")
    if unknown_columns:
        lines.append(
            "Unclassified (never gated) columns: "
            + ", ".join(f"`{c}`" for c in unknown_columns)
        )
        lines.append("")
    path.write_text("\n".join(lines))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Compare two directories of repro-table/1 benchmark JSON "
            "and gate on regressions."
        )
    )
    parser.add_argument(
        "baseline", type=pathlib.Path, help="baseline results directory"
    )
    parser.add_argument(
        "current", type=pathlib.Path, help="current results directory"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help=(
            "relative change in the bad direction that counts as a "
            "regression (default 0.25)"
        ),
    )
    parser.add_argument(
        "--ratio-only",
        dest="ratio_only",
        action="store_true",
        help=(
            "gate only deterministic columns (I/O counts, hit ratios); "
            "wall-clock columns are compared but report-only — the CI "
            "mode for shared runners"
        ),
    )
    parser.add_argument(
        "--report",
        type=pathlib.Path,
        metavar="OUT.md",
        help="write a markdown delta report",
    )
    args = parser.parse_args(argv)

    for directory in (args.baseline, args.current):
        if not directory.is_dir():
            print(
                f"bench_compare: not a directory: {directory}",
                file=sys.stderr,
            )
            return 2

    base_files = sorted(p.name for p in args.baseline.glob("*.json"))
    if not base_files:
        print(
            f"bench_compare: no *.json under {args.baseline}",
            file=sys.stderr,
        )
        return 2

    deltas: list[Delta] = []
    missing: list[str] = []
    compared_files = 0
    for name in base_files:
        baseline = _load_table(args.baseline / name)
        if baseline is None:
            continue
        current_path = args.current / name
        if not current_path.exists():
            missing.append(name)
            continue
        current = _load_table(current_path)
        if current is None:
            missing.append(name)
            continue
        compared_files += 1
        deltas.extend(
            compare_tables(
                name, baseline, current, args.tolerance, args.ratio_only
            )
        )

    regressions = [
        d for d in deltas if d.status == "regression" and d.gated
    ]
    reported = [
        d for d in deltas if d.status == "regression" and not d.gated
    ]

    print(
        f"bench_compare: {compared_files} file(s), {len(deltas)} cells, "
        f"tolerance ±{args.tolerance:.0%}"
        + (" (ratio-only gating)" if args.ratio_only else "")
    )
    for d in sorted(regressions, key=lambda d: -abs(d.change)):
        print(
            f"REGRESSION {d.file} [{d.row}] {d.column}: "
            f"{_fmt_value(d.baseline)} -> {_fmt_value(d.current)} "
            f"({_fmt_change(d.change)})"
        )
    for d in sorted(reported, key=lambda d: -abs(d.change))[:10]:
        print(
            f"report-only {d.file} [{d.row}] {d.column}: "
            f"{_fmt_value(d.baseline)} -> {_fmt_value(d.current)} "
            f"({_fmt_change(d.change)})"
        )
    for name in missing:
        print(f"missing from current: {name}")

    if args.report is not None:
        write_report(
            args.report,
            deltas,
            regressions,
            args.tolerance,
            args.ratio_only,
            missing,
        )
        print(f"wrote {args.report}")

    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s)")
        return 1
    print("bench_compare: no gated regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
