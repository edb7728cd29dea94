"""Header-slot arithmetic of the shadow-paged file store.

The atomic-commit story of ``docs/durability.md`` rests on a handful of
byte-level rules in ``FileBlockStore``: two alternating 2 KB header
slots, epoch parity choosing the slot, the highest checksummed epoch
choosing the state, CRC32 rejecting torn or bit-flipped slots, and a
file in the retired pre-shadow layout being refused by name.  These
tests pin each rule down, the last against a hand-built golden file.
"""

import struct

import pytest

from repro.storage import (
    FaultInjector,
    FileBlockStore,
    SimulatedCrash,
    StorageError,
)
from repro.storage.filestore import HEADER_REGION, HEADER_SLOT

_NIL = 2**64 - 1


def _commit_n(path, n, block_size=64):
    """Create a store and run ``n`` commits, each writing one block."""
    store = FileBlockStore.create(path, block_size=block_size, meta=b"m0")
    ids = []
    for i in range(n):
        ids.append(store.allocate(bytes([65 + i]) * block_size))
        store.flush()
    store.close()
    return ids


# ----------------------------------------------------------------------
# Epoch / slot selection
# ----------------------------------------------------------------------


def test_epoch_parity_selects_alternating_slots(tmp_path):
    path = tmp_path / "s.bin"
    _commit_n(path, 3)  # epochs 0 (create), 1, 2, 3
    raw = path.read_bytes()
    # Epoch 3 committed last (odd -> slot 1); slot 0 holds epoch 2.
    (epoch0,) = struct.unpack_from("<Q", raw, 10)
    (epoch1,) = struct.unpack_from("<Q", raw, HEADER_SLOT + 10)
    assert (epoch0, epoch1) == (2, 3)
    with FileBlockStore.open(path) as store:
        assert store.commit_epoch == 3
        assert store.recovery.header_slot == 1


def test_highest_valid_epoch_wins(tmp_path):
    path = tmp_path / "s.bin"
    ids = _commit_n(path, 2)
    with FileBlockStore.open(path) as store:
        assert store.commit_epoch == 2
        assert store.recovery.header_slot == 0
        assert store.read(ids[1])[:1] == b"B"


def test_corrupt_newest_slot_falls_back_one_epoch(tmp_path):
    path = tmp_path / "s.bin"
    ids = _commit_n(path, 3)  # newest epoch 3 lives in slot 1
    raw = bytearray(path.read_bytes())
    raw[HEADER_SLOT + 10] ^= 0xFF  # bend the epoch, CRC now wrong
    path.write_bytes(bytes(raw))
    with FileBlockStore.open(path) as store:
        assert store.commit_epoch == 2
        assert store.recovery.header_slot == 0
        assert store.recovery.discarded_epoch is None
        # Epoch 2's state: two blocks live, the third never allocated.
        assert len(store) == 2
        assert store.read(ids[0])[:1] == b"A"
        assert store.read(ids[1])[:1] == b"B"


def test_epoch_in_wrong_slot_is_rejected(tmp_path):
    path = tmp_path / "s.bin"
    _commit_n(path, 2)
    raw = bytearray(path.read_bytes())
    # Copy slot 0 (epoch 2) into slot 1 verbatim: the CRC is fine, but
    # an even epoch has no business in the odd slot.
    raw[HEADER_SLOT:HEADER_REGION] = raw[0:HEADER_SLOT]
    path.write_bytes(bytes(raw))
    with FileBlockStore.open(path) as store:  # slot 0 still serves
        assert store.commit_epoch == 2
        assert store.recovery.header_slot == 0


def test_both_slots_invalid_reports_both_reasons(tmp_path):
    path = tmp_path / "s.bin"
    _commit_n(path, 2)
    raw = bytearray(path.read_bytes())
    raw[HEADER_SLOT - 4 : HEADER_SLOT] = b"\x00\x00\x00\x00"
    raw[HEADER_REGION - 4 : HEADER_REGION] = b"\x00\x00\x00\x00"
    path.write_bytes(bytes(raw))
    with pytest.raises(StorageError, match="slot 0.*slot 1"):
        FileBlockStore.open(path)


def test_at_epoch_opens_the_previous_commit(tmp_path):
    path = tmp_path / "s.bin"
    ids = _commit_n(path, 2)
    with FileBlockStore.open(path, at_epoch=1, readonly=True) as store:
        assert store.commit_epoch == 1
        assert len(store) == 1
        assert store.read(ids[0])[:1] == b"A"
    with pytest.raises(StorageError, match="no committed epoch 7"):
        FileBlockStore.open(path, at_epoch=7)


# ----------------------------------------------------------------------
# Checksum vs torn / corrupted header writes
# ----------------------------------------------------------------------


def test_torn_header_write_rolls_back(tmp_path):
    """A crash mid header-slot write must not publish the new epoch."""
    path = tmp_path / "s.bin"
    golden = FaultInjector()
    store = FileBlockStore.create(
        path, block_size=64, meta=b"m", injector=golden
    )
    a = store.allocate(b"a" * 64)
    store.flush()
    store.allocate(b"b" * 64)
    store.flush()
    store.close()
    commits = golden.commit_points("store")
    assert len(commits) == 2
    # Replay, tearing exactly the second commit's header-slot write.
    path.unlink()
    injector = FaultInjector(crash_after=commits[1], mode="torn", seed=7)
    store = FileBlockStore.create(
        path, block_size=64, meta=b"m", injector=injector
    )
    a = store.allocate(b"a" * 64)
    store.flush()
    store.allocate(b"b" * 64)
    with pytest.raises(SimulatedCrash):
        store.flush()
    store.close()
    with FileBlockStore.open(path) as survivor:
        assert survivor.commit_epoch == 1  # the torn epoch-2 slot is junk
        assert len(survivor) == 1
        assert survivor.read(a) == b"a" * 64
        assert survivor.recovery.rolled_back_blocks > 0


def test_bitflipped_header_is_rejected_by_crc(tmp_path):
    """One flipped bit in flight: the checksum must disqualify the slot."""
    path = tmp_path / "s.bin"
    golden = FaultInjector()
    store = FileBlockStore.create(
        path, block_size=64, meta=b"m", injector=golden
    )
    a = store.allocate(b"a" * 64)
    store.flush()
    store.allocate(b"b" * 64)
    store.flush()
    store.close()
    commits = golden.commit_points("store")
    path.unlink()
    injector = FaultInjector(bitflip_at=commits[1], seed=3)
    store = FileBlockStore.create(
        path, block_size=64, meta=b"m", injector=injector
    )
    a = store.allocate(b"a" * 64)
    store.flush()
    store.allocate(b"b" * 64)
    store.flush()  # epoch 2's slot goes to disk with one bad bit
    store.close()
    with FileBlockStore.open(path) as survivor:
        assert survivor.commit_epoch == 1
        assert survivor.read(a) == b"a" * 64


# ----------------------------------------------------------------------
# Retired pre-shadow golden file
# ----------------------------------------------------------------------


def _retired_golden_file(tmp_path):
    """Hand-pack a byte-exact pre-shadow file: 3 blocks, block 1 freed.

    One 38-byte header (magic, version, block size, block count,
    freelist head, live count, metadata length) at offset 0, metadata
    right after, blocks from offset 4096; a freed block's first 8 bytes
    hold the next freed id (intrusive freelist).
    """
    block = 32
    meta = b"golden-meta"
    header = struct.pack("<4sHIQQQI", b"FBS1", 1, block, 3, 1, 2, len(meta))
    region = (header + meta).ljust(HEADER_REGION, b"\x00")
    blocks = (
        b"A" * block
        + struct.pack("<Q", _NIL).ljust(block, b"\x00")
        + b"C" * block
    )
    path = tmp_path / "retired.bin"
    path.write_bytes(region + blocks)
    return path


@pytest.mark.parametrize("readonly", [True, False])
def test_retired_golden_file_is_rejected_by_name(tmp_path, readonly):
    path = _retired_golden_file(tmp_path)
    before = path.read_bytes()
    with pytest.raises(StorageError, match="FBS1 files are no longer supported"):
        FileBlockStore.open(path, readonly=readonly)
    assert path.read_bytes() == before
