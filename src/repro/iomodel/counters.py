"""I/O counters and the calibrated time model.

These counters are the **logical-I/O** layer of the accounting
vocabulary pinned down in ``docs/io-accounting.md``: one counted I/O
per ``read``/``write``/``allocate`` on any backend, cached or not,
``peek``/``free`` free of charge.  Physical file traffic is reported
separately by :class:`repro.storage.paged.PageCacheStats`; the batched
server aggregates both per batch in
:class:`repro.server.server.BatchReport`.

Every access to the simulated disk is classified as *sequential* (the block
immediately following the previously accessed block) or *random* (anything
else).  The distinction matters for reproducing the paper's Figure 9/11
time story: "all algorithms we tested read and write blocks almost
exclusively by sequential I/O of large parts of the data; as a result, I/O
is much faster than if blocks were read and written in random order"
(Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IOSnapshot:
    """An immutable point-in-time copy of :class:`IOCounters`.

    Snapshots support subtraction, so measuring the cost of a phase is::

        before = counters.snapshot()
        ...  # do work
        cost = counters.snapshot() - before
    """

    reads: int = 0
    writes: int = 0
    seq_reads: int = 0
    seq_writes: int = 0

    @property
    def total(self) -> int:
        """Total block transfers (reads + writes)."""
        return self.reads + self.writes

    @property
    def rand_reads(self) -> int:
        """Reads that required a seek."""
        return self.reads - self.seq_reads

    @property
    def rand_writes(self) -> int:
        """Writes that required a seek."""
        return self.writes - self.seq_writes

    @property
    def sequential(self) -> int:
        """Total sequential transfers."""
        return self.seq_reads + self.seq_writes

    @property
    def random(self) -> int:
        """Total random (seeking) transfers."""
        return self.total - self.sequential

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            reads=self.reads - other.reads,
            writes=self.writes - other.writes,
            seq_reads=self.seq_reads - other.seq_reads,
            seq_writes=self.seq_writes - other.seq_writes,
        )

    def __add__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            seq_reads=self.seq_reads + other.seq_reads,
            seq_writes=self.seq_writes + other.seq_writes,
        )

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form (trace args, metric labels, JSON reports)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "seq_reads": self.seq_reads,
            "seq_writes": self.seq_writes,
            "rand_reads": self.rand_reads,
            "rand_writes": self.rand_writes,
        }


class IOCounters:
    """Mutable read/write counters shared by one simulated disk.

    The store calls :meth:`record_read` / :meth:`record_write` with the
    block id of each access; the counter tracks the previously touched
    block to classify accesses as sequential or random.
    """

    __slots__ = ("reads", "writes", "seq_reads", "seq_writes", "_last_block")

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.seq_reads = 0
        self.seq_writes = 0
        self._last_block: int | None = None

    def record_read(self, block_id: int) -> None:
        """Count one block read at ``block_id``."""
        self.reads += 1
        if self._last_block is not None and block_id == self._last_block + 1:
            self.seq_reads += 1
        self._last_block = block_id

    def record_reads(self, block_ids) -> None:
        """:meth:`record_read` of each of ``block_ids``, in order."""
        last, seq = self._last_block, 0
        for block_id in block_ids:
            if last is not None and block_id == last + 1:
                seq += 1
            last = block_id
        self.reads += len(block_ids)
        self.seq_reads += seq
        self._last_block = last

    def record_write(self, block_id: int) -> None:
        """Count one block write at ``block_id``."""
        self.writes += 1
        if self._last_block is not None and block_id == self._last_block + 1:
            self.seq_writes += 1
        self._last_block = block_id

    def snapshot(self) -> IOSnapshot:
        """Immutable copy of the current totals."""
        return IOSnapshot(
            reads=self.reads,
            writes=self.writes,
            seq_reads=self.seq_reads,
            seq_writes=self.seq_writes,
        )

    def reset(self) -> None:
        """Zero all counters and forget the disk-head position."""
        self.reads = 0
        self.writes = 0
        self.seq_reads = 0
        self.seq_writes = 0
        self._last_block = None

    @property
    def total(self) -> int:
        """Total block transfers so far."""
        return self.reads + self.writes

    def __repr__(self) -> str:
        return (
            f"IOCounters(reads={self.reads}, writes={self.writes}, "
            f"seq={self.seq_reads + self.seq_writes})"
        )


@dataclass(frozen=True)
class TimeModel:
    """Estimated wall-clock seconds for a batch of simulated I/Os.

    The defaults approximate the paper's year-2003 SCSI disk (IBM Ultrastar
    36LZX): ~25 MB/s sustained sequential transfer of 4 KB blocks and ~10 ms
    per random access (seek + rotational latency).  Only *ratios* between
    algorithms matter for the reproduction, and those are dominated by the
    sequential/random mix and the total transfer count.

    Attributes
    ----------
    seq_seconds:
        Seconds per sequentially transferred block.
    rand_seconds:
        Seconds per random (seeking) block access.
    """

    seq_seconds: float = 0.00016  # 4 KB / 25 MB/s
    rand_seconds: float = 0.010

    def seconds(self, snap: IOSnapshot) -> float:
        """Modelled I/O time for the accesses in ``snap``."""
        return snap.sequential * self.seq_seconds + snap.random * self.rand_seconds
