"""Simulated-disk substrate with I/O accounting.

The paper measures *number of 4 KB disk blocks read or written*, arguing
that "I/O is a much more robust measure of performance" than wall-clock
time (Section 3.3).  This package provides that measurement apparatus:

* :class:`repro.iomodel.counters.IOCounters` — read/write counters that
  distinguish sequential from random accesses, plus a calibrated time model
  mirroring the paper's observation that bulk loaders do mostly sequential
  I/O.
* :class:`repro.iomodel.store.BlockStoreProtocol` — the structural
  interface all disk backends share; trees and engines are generic over
  it, so the in-memory simulator and the real file-backed stores in
  :mod:`repro.storage` are interchangeable.
* :class:`repro.iomodel.blockstore.BlockStore` — an in-memory simulated
  disk of fixed-size blocks; every node of every tree and every record of
  every external-memory stream lives in one.
* :mod:`repro.iomodel.codec` — byte-exact node serialization (36-byte
  entries in 4 KB blocks, fan-out 113) used to honour the paper's node
  layout and derive fan-outs from block sizes.
"""

from repro.iomodel.counters import IOCounters, IOSnapshot, TimeModel
from repro.iomodel.blockstore import BlockStore, BlockId, FreedBlockError
from repro.iomodel.codec import NodeCodec, fanout_for_block
from repro.iomodel.store import BlockStoreProtocol

__all__ = [
    "IOCounters",
    "IOSnapshot",
    "TimeModel",
    "BlockStore",
    "BlockStoreProtocol",
    "BlockId",
    "FreedBlockError",
    "NodeCodec",
    "fanout_for_block",
]
