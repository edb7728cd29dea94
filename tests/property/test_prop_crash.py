"""Property-based crash recovery: arbitrary scripts, arbitrary crashes.

The deterministic matrix (``tools/crashtest.py``) replays one scripted
workload at every write offset; this test lets Hypothesis drive the
*workload* too — random interleavings of insert / delete / sync, a
random crash offset (as a fraction of the golden run's write count) and
a random crash mode — over both index shapes.  The invariant is
the durability contract of ``docs/durability.md``: reopening after any
crash yields a structurally valid tree whose contents equal the oracle
at the last committed sync (the packed baseline when nothing
committed).
"""

import pathlib
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.rtree.validate import validate_rtree
from repro.storage import (
    FaultInjector,
    PagedTree,
    ShardedTree,
    SimulatedCrash,
    pack_tree,
    shard_pack,
)

N = 30
MAX_INSERTS = 12
EVERYTHING = Rect((-1e12, -1e12), (1e12, 1e12))
DATA = [
    (Rect((float(i), float(i)), (i + 1.0, i + 1.0)), i) for i in range(N)
]
BASE_VALUES = {i: i for i in range(N)}
FULL_VALUES = dict(BASE_VALUES)
FULL_VALUES.update({N + k: 10_000 + k for k in range(MAX_INSERTS)})
BASELINE = sorted((tuple(r.lo), tuple(r.hi), v) for r, v in DATA)


@st.composite
def crash_scripts(draw):
    n_ops = draw(st.integers(min_value=2, max_value=10))
    ops = [("insert", 0)]  # at least one write, so the run crashes
    inserts = 1
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["insert", "delete", "sync"]))
        if kind == "insert" and inserts < MAX_INSERTS:
            ops.append(("insert", inserts))
            inserts += 1
        elif kind == "delete":
            ops.append(("delete", draw(st.integers(0, N - 1))))
        else:
            ops.append(("sync",))
    frac = draw(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    )
    mode = draw(st.sampled_from(["clean", "torn", "omit"]))
    return ops, frac, mode


def _contents(tree):
    return sorted(
        (tuple(r.lo), tuple(r.hi), v) for r, v in tree.query(EVERYTHING)
    )


def _replay(tree, ops):
    for op in ops:
        if op[0] == "insert":
            k = op[1]
            tree.insert(
                Rect((1000.0 + k, float(k)), (1001.0 + k, k + 1.0)),
                10_000 + k,
            )
        elif op[0] == "delete":
            j = op[1]
            tree.delete(Rect((float(j), float(j)), (j + 1.0, j + 1.0)), j)
        else:
            tree.sync()


class _Shape:
    def __init__(self, variant: str, root: pathlib.Path):
        self.variant = variant
        self.tag = "manifest" if variant == "shard" else "store"
        self.golden = root / "golden"
        self.golden.mkdir()
        tree = build_prtree(BlockStore(), DATA, fanout=7)
        if variant == "shard":
            self.name = "i.manifest"
            shard_pack(tree, self.golden / self.name, shards=4, block_size=512)
        else:
            self.name = "i.pack"
            pack_tree(tree, self.golden / self.name, block_size=512)

    def open(self, directory, values, injector=None):
        if self.variant == "shard":
            return ShardedTree.open(
                directory / self.name, values=values, injector=injector
            )
        return PagedTree.open(
            directory / self.name, values=values, injector=injector
        )

    def epochs(self, tree):
        if self.variant == "shard":
            return tuple(
                s.page_store.file_store.commit_epoch for s in tree.shards
            )
        return tree.page_store.file_store.commit_epoch

    def validate(self, tree):
        if self.variant == "shard":
            for shard in tree.shards:
                validate_rtree(shard)
        else:
            validate_rtree(tree)


def _copy(src, dst):
    if dst.exists():
        shutil.rmtree(dst)
    shutil.copytree(src, dst)


@pytest.mark.parametrize("variant", ["file", "shard"])
@settings(max_examples=20, deadline=None)
@given(script=crash_scripts())
def test_any_crash_recovers_to_last_committed_sync(
    variant, script, tmp_path_factory
):
    ops, frac, mode = script
    root = tmp_path_factory.mktemp(f"crash-{variant}")
    shape = _Shape(variant, root)

    # Golden run: write count + commit points (close() commits too).
    run = root / "run"
    _copy(shape.golden, run)
    golden = FaultInjector()
    with shape.open(run, dict(BASE_VALUES), golden) as tree:
        _replay(tree, ops)
    writes = golden.writes
    commits = golden.commit_points(shape.tag)
    assert writes >= 1  # ops always include an insert

    # Oracle: contents at every sync that actually committed.
    oracle_dir = root / "oracle"
    _copy(shape.golden, oracle_dir)
    snapshots = []
    tree = shape.open(oracle_dir, dict(BASE_VALUES))
    try:
        plain_sync = tree.sync

        def snap_sync():
            before = shape.epochs(tree)
            flushed = plain_sync()
            if shape.epochs(tree) != before:
                snapshots.append(_contents(tree))
            return flushed

        tree.sync = snap_sync
        _replay(tree, ops)
    finally:
        tree.sync = plain_sync
        tree.close()
        # close() may commit once more (pending updates since the
        # last sync); its state is simply the final contents.
        if len(snapshots) < len(commits):
            reopened = shape.open(oracle_dir, dict(FULL_VALUES))
            snapshots.append(_contents(reopened))
            reopened.close()
    assert len(snapshots) == len(commits)

    # Crash run at a script-chosen write offset.
    crash_at = 1 + int(frac * writes)
    crash_dir = root / "crash"
    _copy(shape.golden, crash_dir)
    injector = FaultInjector(
        crash_after=crash_at, mode=mode, seed=crash_at
    )
    tree = shape.open(crash_dir, dict(BASE_VALUES), injector)
    try:
        _replay(tree, ops)
        tree.close()
    except SimulatedCrash:
        try:
            tree.close()
        except SimulatedCrash:
            pass
    else:
        pytest.fail(f"crash at write {crash_at} of {writes} never fired")

    if mode == "clean":
        committed = sum(1 for c in commits if c <= crash_at)
    else:
        committed = sum(1 for c in commits if c < crash_at)
    expected = snapshots[committed - 1] if committed else BASELINE

    survivor = shape.open(crash_dir, dict(FULL_VALUES))
    try:
        shape.validate(survivor)
        assert _contents(survivor) == expected
    finally:
        survivor.close()
