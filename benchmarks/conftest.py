"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables or figures and
prints it (visible with ``pytest -s``).  With ``REPRO_RECORD=1`` in the
environment it also saves the rendered text under
``benchmarks/results/`` so EXPERIMENTS.md can cite the exact output,
each ``<name>.txt`` table beside a ``<name>.json`` with the same
numbers in the stable ``repro-table/1`` schema
(:meth:`repro.experiments.report.Table.to_json`), so the performance
trajectory is machine-diffable across PRs.  Recording is opt-in because
several tables embed wall-clock noise: a plain test run must leave the
committed results (and ``git status``) untouched.

Benchmarks run each experiment exactly once (``benchmark.pedantic`` with
one round): the interesting measurement is the simulated I/O inside the
experiment, not Python wall-clock jitter.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_table():
    """Print a result table; under ``REPRO_RECORD=1`` also persist
    .txt + .json under results/."""

    def _record(table, name: str):
        text = table.render()
        print()
        print(text)
        if os.environ.get("REPRO_RECORD") == "1":
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
            (RESULTS_DIR / f"{name}.json").write_text(table.to_json() + "\n")
        return table

    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
