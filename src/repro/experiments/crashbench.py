"""Crash-recovery matrix: kill the process at every write offset.

The shadow-header commit protocol (``docs/durability.md``) claims that
*any* crash — mid data block, mid map block, mid header slot, even a
torn header write — rolls the index back to its last committed state.
This module turns that claim into an exhaustive, deterministic check:

1. **Golden run** — replay a scripted update workload (interleaved
   inserts, deletes, ``sync()`` calls) against a freshly packed index
   with a counting :class:`~repro.storage.faults.FaultInjector`
   attached, recording the total number of physical writes ``W`` and
   the write indexes of every durable commit point (header-slot flips
   for a single file, manifest renames for a sharded family).
2. **Oracle** — replay the same workload without faults, snapshotting
   the full index contents right after every ``sync()``.  Snapshot
   ``j`` is the state a crash between commit ``j`` and commit ``j+1``
   must roll back to.
3. **Matrix** — for every crash mode and every write offset ``c`` in
   ``1..W`` (or a stride-sampled subset), copy the pristine index,
   replay the workload under an injector scripted to die at write
   ``c``, then *reopen* the files, run the full structural validator
   (:func:`~repro.rtree.validate.validate_rtree`) and compare the
   surviving contents against the oracle snapshot the commit protocol
   promises: for a ``clean`` crash the ``c``-th write reached the disk,
   so commits at index ``c`` count as durable (``j = #{ci <= c}``); for
   ``torn``/``omit`` the ``c``-th write was lost (``j = #{ci < c}``).

Every cell must recover — an unreadable file, a failed validation or
contents that match *no* committed state (a silently-wrong survivor) is
a failure, and :func:`crash_matrix` reports it per variant/mode.
``tools/crashtest.py`` and ``repro crash-bench`` drive this as a CI
gate.
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile
from typing import Any, Callable

from repro.experiments.report import Table
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.rtree.validate import RTreeInvariantError, validate_rtree
from repro.storage import (
    FaultInjector,
    PagedTree,
    ShardedTree,
    SimulatedCrash,
    pack_tree,
    shard_pack,
)

__all__ = ["crash_matrix", "CRASH_VARIANTS"]

#: Index shapes the matrix can exercise.
CRASH_VARIANTS = ("file", "shard")

_EVERYTHING = Rect((-1e12, -1e12), (1e12, 1e12))


def _dataset(n: int) -> list[tuple[Rect, int]]:
    """A deterministic diagonal strip of ``n`` unit squares."""
    return [
        (Rect((float(i), float(i)), (i + 1.0, i + 1.0)), i) for i in range(n)
    ]


def _contents(tree) -> list[tuple[tuple, tuple, Any]]:
    """The full stored contents, canonically ordered for comparison."""
    return sorted(
        (tuple(r.lo), tuple(r.hi), v) for r, v in tree.query(_EVERYTHING)
    )


def _workload(tree, n: int, updates: int, sync_every: int) -> None:
    """Interleaved inserts and deletes with periodic commits.

    Deterministic: insert ``updates`` rectangles far from the packed
    strip, delete every 7th original, sync every ``sync_every``
    updates and once at the end.
    """
    for i in range(updates):
        tree.insert(
            Rect((1000.0 + i, float(i)), (1001.0 + i, i + 1.0)), 10_000 + i
        )
        if i % 7 == 0 and i < n:
            tree.delete(Rect((float(i), float(i)), (i + 1.0, i + 1.0)), i)
        if i % sync_every == sync_every - 1:
            tree.sync()
    tree.sync()


def _copy_index(src_dir: pathlib.Path, dst_dir: pathlib.Path) -> None:
    if dst_dir.exists():
        shutil.rmtree(dst_dir)
    shutil.copytree(src_dir, dst_dir)


class _Variant:
    """One index shape: how to pack, open, validate and commit-tag it."""

    def __init__(
        self,
        name: str,
        work: pathlib.Path,
        data: list[tuple[Rect, int]],
        fanout: int,
        block_size: int,
        shards: int,
    ) -> None:
        self.name = name
        self.sharded = name == "shard"
        self.commit_tag = "manifest" if self.sharded else "store"
        self.golden = work / f"golden-{name}"
        self.golden.mkdir()
        tree = build_prtree(BlockStore(), data, fanout=fanout)
        if self.sharded:
            self.index_name = "index.manifest"
            shard_pack(
                tree,
                self.golden / self.index_name,
                shards=shards,
                block_size=block_size,
            )
        else:
            self.index_name = "index.pack"
            pack_tree(tree, self.golden / self.index_name, block_size=block_size)

    def open(
        self,
        directory: pathlib.Path,
        values: dict[int, Any] | Callable[[int], Any],
        injector: FaultInjector | None = None,
        readonly: bool = False,
    ):
        path = directory / self.index_name
        if self.sharded:
            return ShardedTree.open(
                path, values=values, readonly=readonly, injector=injector
            )
        return PagedTree.open(
            path, values=values, readonly=readonly, injector=injector
        )

    def validate(self, tree) -> None:
        if self.sharded:
            for shard in tree.shards:
                validate_rtree(shard)
            if sum(shard.size for shard in tree.shards) != tree.size:
                raise RTreeInvariantError(
                    "manifest size disagrees with the shard sizes"
                )
        else:
            validate_rtree(tree)


def crash_matrix(
    n: int = 250,
    updates: int = 30,
    fanout: int = 12,
    block_size: int = 512,
    shards: int = 4,
    sync_every: int = 10,
    modes: tuple[str, ...] = ("clean", "torn", "omit"),
    variants: tuple[str, ...] = CRASH_VARIANTS,
    stride: int = 1,
    seed: int = 0,
) -> Table:
    """Run the crash matrix; the returned table's ``failures`` column
    must be all zeros for the commit protocol to hold.

    Parameters
    ----------
    n, updates, fanout, block_size, shards, sync_every:
        Workload shape: a packed ``n``-rectangle index (fanout
        ``fanout``, ``block_size``-byte blocks; ``shards`` files for
        the sharded variant) receives ``updates`` interleaved
        inserts/deletes with a ``sync()`` every ``sync_every`` updates.
    modes:
        Crash modes per write offset (``clean``/``torn``/``omit``).
    variants:
        Index shapes from :data:`CRASH_VARIANTS` — a single file or a
        sharded family.
    stride:
        Test every ``stride``-th write offset (1 = exhaustive).
    seed:
        Seeds each injector's torn-write cut points (offset by the
        crash index so every cell cuts differently but remains
        deterministic).
    """
    unknown = set(variants) - set(CRASH_VARIANTS)
    if unknown:
        raise ValueError(
            f"unknown crash variants {sorted(unknown)}; "
            f"choose from {CRASH_VARIANTS}"
        )
    if stride < 1:
        raise ValueError("stride must be >= 1")
    data = _dataset(n)
    base_values = {i: i for i in range(n)}
    # Inserted object ids continue from the descriptor's high-water
    # mark, so the full table is known up front for reopen validation.
    full_values = dict(base_values)
    full_values.update({n + i: 10_000 + i for i in range(updates)})

    table = Table(
        title="Crash-recovery matrix: recover + match the last commit",
        headers=[
            "variant",
            "mode",
            "writes",
            "commits",
            "points",
            "recovered",
            "matched",
            "failures",
        ],
    )
    total_failures = 0
    with tempfile.TemporaryDirectory(prefix="crashbench-") as tmp:
        work = pathlib.Path(tmp)
        for variant_name in variants:
            variant = _Variant(
                variant_name, work, data, fanout, block_size, shards
            )

            # Golden run: learn the write count and the commit points.
            run_dir = work / "run"
            _copy_index(variant.golden, run_dir)
            injector = FaultInjector(seed=seed)
            with variant.open(run_dir, dict(base_values), injector) as tree:
                _workload(tree, n, updates, sync_every)
            writes = injector.writes
            commits = injector.commit_points(variant.commit_tag)
            if not commits:
                raise RuntimeError(
                    f"golden run recorded no {variant.commit_tag!r} commits"
                )

            # Oracle: contents right after every sync, plus the packed
            # baseline a crash before the first commit rolls back to.
            oracle_dir = work / "oracle"
            _copy_index(variant.golden, oracle_dir)
            snapshots: list[list] = []
            tree = variant.open(oracle_dir, dict(base_values))
            try:
                plain_sync = tree.sync

                def snap_sync() -> int:
                    flushed = plain_sync()
                    snapshots.append(_contents(tree))
                    return flushed

                tree.sync = snap_sync  # type: ignore[method-assign]
                _workload(tree, n, updates, sync_every)
                tree.sync = plain_sync  # type: ignore[method-assign]
            finally:
                tree.close()
            with variant.open(
                variant.golden, dict(full_values), readonly=True
            ) as packed:
                baseline = _contents(packed)

            for mode in modes:
                points = recovered = matched = 0
                failures: list[str] = []
                for crash_at in range(1, writes + 1, stride):
                    points += 1
                    cell = f"{variant_name}/{mode}@{crash_at}"
                    crash_dir = work / "crash"
                    _copy_index(variant.golden, crash_dir)
                    injector = FaultInjector(
                        crash_after=crash_at, mode=mode, seed=seed + crash_at
                    )
                    tree = variant.open(crash_dir, dict(base_values), injector)
                    try:
                        _workload(tree, n, updates, sync_every)
                        tree.close()
                    except SimulatedCrash:
                        try:
                            tree.close()
                        except SimulatedCrash:
                            pass
                    else:
                        failures.append(f"{cell}: workload never crashed")
                        continue
                    # Which committed state must the survivor show?
                    if mode == "clean":
                        committed = sum(1 for ci in commits if ci <= crash_at)
                    else:
                        committed = sum(1 for ci in commits if ci < crash_at)
                    expected = (
                        snapshots[committed - 1] if committed else baseline
                    )
                    try:
                        with variant.open(
                            crash_dir, dict(full_values)
                        ) as survivor:
                            variant.validate(survivor)
                            got = _contents(survivor)
                    except Exception as exc:  # any failure to recover
                        failures.append(f"{cell}: reopen failed: {exc!r}")
                        continue
                    recovered += 1
                    if got == expected:
                        matched += 1
                    else:
                        failures.append(
                            f"{cell}: contents do not match commit "
                            f"#{committed} ({len(got)} vs {len(expected)} "
                            "entries)"
                        )
                table.add_row(
                    variant_name,
                    mode,
                    writes,
                    len(commits),
                    points,
                    recovered,
                    matched,
                    len(failures),
                )
                for failure in failures[:5]:
                    table.add_note(failure)
                total_failures += len(failures)
    table.add_note(
        f"workload: n={n} updates={updates} sync_every={sync_every} "
        f"fanout={fanout} block_size={block_size} shards={shards} "
        f"stride={stride} seed={seed}"
    )
    table.add_note(
        "clean: crash write is durable (j = #commits <= c); torn/omit: "
        "it is lost (j = #commits < c)"
    )
    table.add_note(f"total failures: {total_failures}")
    return table
