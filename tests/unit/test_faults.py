"""Fault-injection machinery and the reclaim-after-commit discipline.

Two concerns share this file: the :class:`FaultInjector` /
:class:`FaultInjectingStore` contract itself (deterministic scripted
faults on the global write sequence), and the allocator hazard the
shadow scheme must never reintroduce — a block freed in an uncommitted
epoch being handed out again before the commit flips, which would let a
crash resurrect the old block *and* keep the new one (a double life →
double free on the next reclaim, or silent corruption of committed
data).
"""

import pytest

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.iomodel.store import BlockStoreProtocol
from repro.prtree.prtree import build_prtree
from repro.rtree.query import QueryEngine, brute_force_query
from repro.storage import (
    FaultInjectingStore,
    FaultInjector,
    FileBlockStore,
    SimulatedCrash,
)
from tests.conftest import random_rects, random_windows

# ----------------------------------------------------------------------
# FaultInjector semantics
# ----------------------------------------------------------------------


def test_clean_crash_persists_the_write():
    injector = FaultInjector(crash_after=2, mode="clean")
    assert injector.filter(0, b"one") == b"one"
    with pytest.raises(SimulatedCrash) as err:
        injector.filter(1, b"two")
    assert err.value.partial_data == b"two"
    assert injector.crashed


def test_torn_crash_persists_a_strict_prefix():
    injector = FaultInjector(crash_after=1, mode="torn", seed=5)
    with pytest.raises(SimulatedCrash) as err:
        injector.filter(0, b"0123456789")
    partial = err.value.partial_data
    assert partial is not None
    assert 1 <= len(partial) < 10
    assert b"0123456789".startswith(partial)


def test_omit_crash_persists_nothing():
    injector = FaultInjector(crash_after=1, mode="omit")
    with pytest.raises(SimulatedCrash) as err:
        injector.filter(0, b"payload")
    assert err.value.partial_data is None


def test_dead_injector_stays_dead():
    injector = FaultInjector(crash_after=1)
    with pytest.raises(SimulatedCrash):
        injector.filter(0, b"x")
    writes = injector.writes
    with pytest.raises(SimulatedCrash) as err:
        injector.filter(0, b"y")
    assert err.value.partial_data is None
    assert injector.writes == writes  # a dead process issues no I/O


def test_determinism_under_seed():
    cuts = []
    for _ in range(2):
        injector = FaultInjector(crash_after=1, mode="torn", seed=42)
        with pytest.raises(SimulatedCrash) as err:
            injector.filter(0, bytes(range(100)))
        cuts.append(err.value.partial_data)
    assert cuts[0] == cuts[1]


def test_bitflip_flips_exactly_one_bit():
    injector = FaultInjector(bitflip_at=1, seed=9)
    original = bytes(64)
    flipped = injector.filter(0, original)
    diff = [
        (a ^ b) for a, b in zip(original, flipped) if a != b
    ]
    assert len(diff) == 1 and bin(diff[0]).count("1") == 1
    assert not injector.crashed  # corruption in flight, no crash


def test_commit_event_clean_runs_action_torn_skips_it():
    ran = []
    injector = FaultInjector(crash_after=1, mode="clean")
    with pytest.raises(SimulatedCrash):
        with injector.commit_event("manifest"):
            ran.append("clean")
    injector = FaultInjector(crash_after=1, mode="torn")
    with pytest.raises(SimulatedCrash):
        with injector.commit_event("manifest"):
            ran.append("torn")
    assert ran == ["clean"]  # an atomic rename is never half-done


def test_commit_points_filter_by_tag():
    injector = FaultInjector()
    injector.filter(0, b"a")
    injector.mark_commit("store")
    injector.filter(0, b"b")
    with injector.commit_event("manifest"):
        pass
    assert injector.commit_points("store") == [1]
    assert injector.commit_points("manifest") == [3]
    assert injector.writes == 3


def test_injecting_store_wraps_the_simulated_store():
    injector = FaultInjector(crash_after=2, mode="clean")
    store = FaultInjectingStore(BlockStore(), injector)
    block = store.allocate(b"first")
    assert store.read(block) == b"first"
    with pytest.raises(SimulatedCrash):
        store.write(block, b"second")
    assert injector.crashed
    # Reads keep working on the wrapper (recovery inspects state).
    assert store.read(block) == b"first"


# ----------------------------------------------------------------------
# Reclaim-after-commit (the latent double-free hazard)
# ----------------------------------------------------------------------


def test_freed_committed_block_is_pending_until_commit(tmp_path):
    path = tmp_path / "s.bin"
    store = FileBlockStore.create(path, block_size=64)
    a = store.allocate(b"a" * 64)
    b = store.allocate(b"b" * 64)
    store.flush()
    assert store.pending_reclaim == ()
    store.free(a)
    # The committed physical slot must survive until the next flip.
    assert len(store.pending_reclaim) == 1
    store.allocate(b"c" * 64)
    assert len(store.pending_reclaim) == 1
    store.flush()
    assert store.pending_reclaim == ()
    store.close()


def test_fresh_block_freed_before_commit_skips_pending(tmp_path):
    # A block allocated *and* freed inside one epoch never had a
    # committed state to protect: its slot recycles immediately.
    path = tmp_path / "s.bin"
    store = FileBlockStore.create(path, block_size=64)
    a = store.allocate(b"a" * 64)
    store.free(a)
    assert store.pending_reclaim == ()
    store.close()


def test_uncommitted_free_never_clobbers_committed_data(tmp_path):
    """Regression for the reuse-before-commit hazard, under the
    injector: free a committed block, allocate a replacement, crash
    before the commit — the committed bytes must still be there."""
    path = tmp_path / "s.bin"
    store = FileBlockStore.create(path, block_size=64)
    a = store.allocate(b"a" * 64)
    b = store.allocate(b"b" * 64)
    store.flush()  # epoch 1: a, b durable
    store.close()

    injector = FaultInjector(crash_after=1, mode="clean")
    store = FileBlockStore.open(path, injector=injector)
    store.free(a)
    with pytest.raises(SimulatedCrash):
        # If the allocator reused a's physical slot, this payload
        # would land on the committed bytes; the write completes
        # (clean mode), then the process dies, pre-commit.
        store.allocate(b"X" * 64)
        store.flush()
    store.close()

    with FileBlockStore.open(path) as survivor:
        assert survivor.commit_epoch == 1
        assert survivor.read(a) == b"a" * 64
        assert survivor.read(b) == b"b" * 64
        assert survivor.recovery.rolled_back_blocks > 0


def test_pending_slots_reused_after_the_flip(tmp_path):
    # The counterpart: after the commit, reclaimed slots do recycle —
    # steady-state update traffic must not grow the file unboundedly.
    path = tmp_path / "s.bin"
    store = FileBlockStore.create(path, block_size=64)
    ids = [store.allocate(bytes([65 + i]) * 64) for i in range(4)]
    store.flush()
    grown = store.file_bytes()
    for round_ in range(8):
        for block_id in ids:
            store.write(block_id, bytes([97 + round_]) * 64)
        store.flush()
    assert store.file_bytes() <= grown + 2 * 64 * len(ids)
    store.close()


def test_queries_run_over_the_injecting_store():
    store = FaultInjectingStore(BlockStore(), FaultInjector())
    assert isinstance(store, BlockStoreProtocol)
    data = random_rects(300, seed=5)
    tree = build_prtree(store, data, fanout=8)
    assert tree.height >= 3
    engine = QueryEngine(tree)
    for window in random_windows(20, seed=6):
        got, _ = engine.query(window)
        assert sorted(got, key=repr) == sorted(
            brute_force_query(data, window), key=repr
        )
    # A write through the wrapper bumps the generation the level table
    # is keyed on, so warm engines see it.
    before = store.generation
    rect = Rect((0.5, 0.5), (0.5, 0.5))
    tree.insert(rect, "new")
    assert store.generation > before
    got, _ = engine.query(rect)
    assert (rect, "new") in list(got)
