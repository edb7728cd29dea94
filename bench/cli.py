"""Command line: ``python3 -m bench run`` and ``python3 -m bench compare``.

``run --workload W --seed N --seconds S --trace 0|1`` is the form
``BENCHMARK.json`` names: one workload, end to end (``--trace 0``) or the
traced layer pass (``--trace 1``), every metric printed by name with its
unit and, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` it does both for all four workloads and writes one result
file for ``compare``.  The exit code is non-zero when any answer was
wrong or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import pathlib

from bench import compare, e2e, layers, stack
from bench.e2e import RunResult
from bench.spec import FULL, OUT_DIR, SMOKE, WORKLOADS, load_benchmark_json

#: Declared metrics a run may omit, with the reason printed.
OPTIONAL = {"ref.sqlite_window_us"}


def _section(result: RunResult) -> dict:
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit, "iqr": iqr}
            for name, (value, unit, iqr) in result.metrics.items()
        },
        "rounds": result.rounds,
    }


def _check_declared(result: RunResult, declared: list[dict], what: str) -> None:
    """The run must emit exactly the metrics ``BENCHMARK.json`` declares,
    with the declared units."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit, _) in result.metrics.items()}
    missing = set(want) - set(got) - OPTIONAL
    extra = set(got) - set(want)
    wrong = {n for n in set(want) & set(got) if want[n] != got[n]}
    if missing or extra or wrong:
        raise SystemExit(
            f"{what}: metrics disagree with BENCHMARK.json — missing "
            f"{sorted(missing)}, undeclared {sorted(extra)}, wrong unit "
            f"{sorted(wrong)}"
        )


def _print_result(title: str, result: RunResult) -> None:
    print(f"-- {title}: attempted {result.attempted}, failed {result.failed}")
    for name, (value, unit, iqr) in result.metrics.items():
        spread = f"  (IQR over passes {iqr:.6g})" if iqr else ""
        print(f"   {name:36s} {value:16.6f} {unit}{spread}")
    for note in result.notes:
        print(f"   note: {note}")


def _contract_line(result: RunResult) -> str:
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in result.metrics.items()
            },
        }
    )


def cmd_run(args: argparse.Namespace) -> int:
    stack.require_numpy()
    declared = load_benchmark_json()
    scale = SMOKE if args.smoke else FULL
    max_passes = 1 if args.smoke else 1_000
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.workload else [0, 1]
    print(f"bench: {stack.run_header()} seed={args.seed} n={scale.n}")

    document = {
        "header": stack.run_header(),
        "seed": args.seed,
        "n": scale.n,
        "workloads": {},
    }
    last: RunResult | None = None
    all_correct = True
    for name in names:
        workload = WORKLOADS[name]
        entry = document["workloads"].setdefault(name, {})
        for mode in modes:
            if mode == 0:
                result = e2e.run(
                    workload, args.seed, args.seconds, scale,
                    max_passes=max_passes,
                )
                key = "end_to_end"
            else:
                result = layers.run(workload, args.seed, scale)
                key = "per_layer"
            _check_declared(result, declared[key], f"{name} {key}")
            _print_result(f"{name} {key}", result)
            entry[key] = _section(result)
            all_correct &= result.correct
            last = result

    out = pathlib.Path(args.out) if args.out else OUT_DIR / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        if args.workload
        else f"result-seed{args.seed}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"bench: wrote {out}")
    if args.workload:
        print(_contract_line(last))
    else:
        print(json.dumps({"correct": all_correct}))
    return 0 if all_correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--seconds", type=float,
        default=float(load_benchmark_json()["run_seconds"]),
        help="timed seconds per end-to-end run",
    )
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument(
        "--smoke", action="store_true",
        help="n=5000, one round: checks the harness, measures nothing",
    )
    run.add_argument("--out", help="result file (default under bench/out/)")
    run.set_defaults(func=cmd_run)

    compare.add_parser(commands)
    args = parser.parse_args(argv)
    return args.func(args)
