"""``python3 -m bench compare``: judge result files against the bounds in
``BENCHMARK.json``.

Each side is a set of result files written by ``bench run`` (a file may
hold any subset of workloads).  One row is printed per (workload,
metric) with both medians, both quartile pairs, the ratio and its base,
and a verdict:

``ok``          the change's median is no worse than the base's by more
                than the metric's bound
``regressed``   it is worse by more than the bound
``better``      every run of the change reads better than every run of
                the base
``unresolved``  the run-to-run spread (either side's interquartile
                distance over the base median) exceeds the bound, so the
                runs cannot tell; never reported as unchanged

``--same`` checks two sets of runs of the *same* code against each other:
medians must agree within the bound in either direction, and the counts
that a single seed fixes must agree exactly.  ``--pairs`` applies the
rule for claiming a gain: at least ten base/change pairs, the change
wins at least nine tenths of them (ties count for neither) and the
medians differ by more than the base's interquartile distance.
"""

from __future__ import annotations

import argparse
import json
import statistics

from bench.spec import WORKLOADS, load_benchmark_json

#: End-to-end metrics a seed determines exactly on read-only workloads.
EXACT = ("leaf_ios_per_read", "leaf_io_bound_ratio", "file_bytes_per_rect")
MIN_PAIRS = 10


def add_parser(commands) -> None:
    parser = commands.add_parser(
        "compare", help="compare result files", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "files", nargs="*",
        help="exactly two files: base then change (or use --base/--change)",
    )
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--same", action="store_true")
    mode.add_argument("--pairs", action="store_true")
    parser.set_defaults(func=cmd_compare)


def _load(paths: list[str]) -> dict[tuple[str, str, str], list[float]]:
    """(workload, section, metric) -> one value per file that has it."""
    values: dict[tuple[str, str, str], list[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for workload, sections in document["workloads"].items():
            for section, body in sections.items():
                for metric, cell in body["metrics"].items():
                    values.setdefault((workload, section, metric), []).append(
                        cell["value"]
                    )
    return values


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _worse_by(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of base."""
    if base == 0:
        return 0.0 if change == base else float("inf")
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def _verdict(base, change, better, bound, same) -> str:
    bq1, bmed, bq3 = _quartiles(base)
    cq1, cmed, cq3 = _quartiles(change)
    scale = abs(bmed) or 1.0
    spread = max(bq3 - bq1, cq3 - cq1) / scale
    worse = _worse_by(bmed, cmed, better)
    if same:
        if spread > bound:
            return "unresolved"
        return "agree" if abs(worse) <= bound else "disagree"
    all_better = (
        max(change) < min(base) if better == "lower" else min(change) > max(base)
    )
    if all_better:
        return "better"
    if spread > bound:
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def _pairs_verdict(base, change, better) -> str:
    """The rule for claiming a gain from alternating pairs."""
    pairs = list(zip(base, change))
    if len(pairs) < MIN_PAIRS:
        return f"need>={MIN_PAIRS}pairs"
    wins = sum(
        (c < b) if better == "lower" else (c > b) for b, c in pairs
    )
    bq1, bmed, bq3 = _quartiles(base)
    gap = abs(statistics.median(change) - bmed)
    if wins >= 0.9 * len(pairs) and gap > bq3 - bq1:
        return f"gain({wins}/{len(pairs)})"
    return f"no-gain({wins}/{len(pairs)})"


def cmd_compare(args: argparse.Namespace) -> int:
    base_files, change_files = list(args.base), list(args.change)
    if args.files:
        if len(args.files) != 2 or base_files or change_files:
            raise SystemExit(
                "give exactly two files (base change), or --base ... --change ..."
            )
        base_files, change_files = [args.files[0]], [args.files[1]]
    if not base_files or not change_files:
        raise SystemExit("both a base and a change set are needed")

    declared = load_benchmark_json()
    spec = {
        ("end_to_end", m["name"]): m for m in declared["end_to_end"]
    } | {("per_layer", m["name"]): m for m in declared["per_layer"]}
    base, change = _load(base_files), _load(change_files)

    print(
        f"base: {len(base_files)} file(s); change: {len(change_files)} "
        "file(s); ratio = change median / base median"
    )
    header = (
        f"{'workload':10s} {'metric':34s} {'unit':6s} "
        f"{'base med [q1, q3]':>40s} {'change med [q1, q3]':>40s} "
        f"{'ratio':>8s} {'bound':>6s}  verdict"
    )
    print(header)
    bad = 0
    for key in sorted(base.keys() & change.keys()):
        workload, section, metric = key
        info = spec.get((section, metric))
        if info is None:
            continue
        b, c = base[key], change[key]
        bq1, bmed, bq3 = _quartiles(b)
        cq1, cmed, cq3 = _quartiles(c)
        ratio = cmed / bmed if bmed else float("nan")
        bound = info.get("bound")
        if bound is None:
            verdict = "-"
        elif args.pairs:
            verdict = _pairs_verdict(b, c, info["better"])
        else:
            verdict = _verdict(b, c, info["better"], bound, args.same)
        exact = (
            args.same and section == "end_to_end" and metric in EXACT
            and not WORKLOADS[workload].writes
        )
        if exact:
            verdict = "agree" if set(b) == set(c) and len(set(b)) == 1 else "disagree"
        bad += verdict in ("regressed", "disagree")
        print(
            f"{workload:10s} {metric:34s} {info['unit']:6s} "
            f"{bmed:14.5g} [{bq1:10.5g}, {bq3:10.5g}] "
            f"{cmed:14.5g} [{cq1:10.5g}, {cq3:10.5g}] "
            f"{ratio:8.4f} {'' if bound is None else format(bound, '.2f'):>6s}  "
            f"{verdict}{' (exact)' if exact else ''}"
        )
    print(f"{bad} row(s) {'disagree' if args.same else 'regressed'}")
    return 1 if bad else 0
