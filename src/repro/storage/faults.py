"""Deterministic fault injection for the durable write path.

The crash-safety claim of the shadow-header commit protocol
(``docs/durability.md``) is only as good as the failures it has been
tested against, so this module makes failure a first-class, *scripted*
event:

* :class:`FaultInjector` sits on a store's **physical write** path
  (every ``pwrite`` of header slots, data blocks, map blocks — and, for
  a sharded family, every manifest temp-file write and rename).  It
  counts writes globally across every store that shares it (one
  injector models one process) and, at a scripted write index, either
  lets the write complete and then *crashes* (``clean``), persists only
  a seeded-random prefix of it and crashes (``torn``), drops it
  entirely and crashes (``omit``), or silently flips one seeded-random
  bit and carries on (``bitflip_at`` — the corruption the header
  checksum must catch).
* :class:`SimulatedCrash` is the "process died here" signal.  Once
  raised, the injector stays dead: every later write through it raises
  again without touching the file, exactly like a killed process stops
  issuing I/O.  Recovery is then exercised by *reopening the files*,
  never by resuming the poisoned in-memory state.
* :class:`FaultInjectingStore` wraps any
  :class:`~repro.iomodel.store.BlockStoreProtocol` store and routes its
  payload-carrying operations through an injector — the unit-test-level
  counterpart of wiring an injector into
  :class:`~repro.storage.filestore.FileBlockStore` itself.

Determinism contract: with the same seed and the same workload, the
global write sequence, the torn-write cut points and the flipped bits
are identical run to run — the crash matrix in ``tools/crashtest.py``
relies on replaying *every* write index of a golden run.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterator

from repro.iomodel.store import BlockId

__all__ = ["SimulatedCrash", "FaultInjector", "FaultInjectingStore"]

#: Crash modes a scripted crash can use.
CRASH_MODES = ("clean", "torn", "omit")


class SimulatedCrash(RuntimeError):
    """The injected process death: raised at the scripted write.

    ``partial_data`` carries the bytes that still made it to the device
    (the whole write for a ``clean`` crash, a prefix for ``torn``,
    ``None`` for ``omit``); the store persists exactly those bytes
    before propagating, so the file is left precisely as a real kill
    would leave it.
    """

    def __init__(self, message: str, partial_data: bytes | None = None) -> None:
        super().__init__(message)
        self.partial_data = partial_data


class FaultInjector:
    """Scripted, seeded faults on a global physical-write sequence.

    Parameters
    ----------
    crash_after:
        Crash at the Nth physical write seen through this injector
        (1-based); ``None`` never crashes.
    mode:
        What happens to that Nth write: ``"clean"`` (it completes, then
        the process dies), ``"torn"`` (a seeded-random strict prefix is
        persisted), ``"omit"`` (nothing is persisted).
    bitflip_at:
        Silently flip one seeded-random bit of the Nth write and keep
        going — no crash, just corruption in flight.
    seed:
        Seeds the cut points and bit choices; same seed, same faults.
    """

    def __init__(
        self,
        crash_after: int | None = None,
        mode: str = "clean",
        bitflip_at: int | None = None,
        seed: int = 0,
    ) -> None:
        if mode not in CRASH_MODES:
            raise ValueError(f"mode must be one of {CRASH_MODES}, not {mode!r}")
        if crash_after is not None and crash_after < 1:
            raise ValueError("crash_after is 1-based: must be >= 1")
        if bitflip_at is not None and bitflip_at < 1:
            raise ValueError("bitflip_at is 1-based: must be >= 1")
        self.crash_after = crash_after
        self.mode = mode
        self.bitflip_at = bitflip_at
        self.seed = seed
        self._rng = random.Random(seed)
        #: Physical writes seen so far (across every store sharing this
        #: injector).
        self.writes = 0
        #: ``(write_index, tag)`` commit points, in order — a store
        #: records ``"store"`` right after its header-slot flip, a
        #: sharded family records ``"manifest"`` after the manifest
        #: rename.  The crash harness reads these off a golden
        #: (crash-free) run to learn where the durable states lie.
        self.commits: list[tuple[int, str]] = []
        self.crashed = False

    # ------------------------------------------------------------------

    def _die(self, partial: bytes | None, what: str) -> SimulatedCrash:
        self.crashed = True
        return SimulatedCrash(
            f"simulated crash at physical write {self.writes} ({what})",
            partial_data=partial,
        )

    def filter(self, offset: int | BlockId | None, data: bytes) -> bytes:
        """Pass one physical write through the fault script.

        Returns the (possibly corrupted) bytes to persist, or raises
        :class:`SimulatedCrash` — whose ``partial_data`` the caller must
        persist before propagating.  After a crash, every call raises
        immediately with nothing to persist.
        """
        if self.crashed:
            raise SimulatedCrash(
                "simulated crash: the process is already dead",
                partial_data=None,
            )
        self.writes += 1
        if self.bitflip_at is not None and self.writes == self.bitflip_at and data:
            bit = self._rng.randrange(len(data) * 8)
            corrupted = bytearray(data)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            data = bytes(corrupted)
        if self.crash_after is not None and self.writes >= self.crash_after:
            if self.mode == "torn" and len(data) > 1:
                cut = self._rng.randrange(1, len(data))
                raise self._die(data[:cut], f"torn after {cut} bytes")
            if self.mode == "omit":
                raise self._die(None, "write dropped")
            raise self._die(data, "write completed, then died")
        return data

    def mark_commit(self, tag: str = "store") -> None:
        """Record that a commit point just became durable.

        Called by the store right after its header-slot write (and by
        the sharded layer after the manifest rename); a crashed process
        never reaches it.
        """
        if not self.crashed:
            self.commits.append((self.writes, tag))

    @contextmanager
    def commit_event(self, tag: str) -> Iterator[None]:
        """Guard an *atomic* commit action (e.g. ``os.replace``).

        The action occupies one write index of its own: a ``clean``
        crash scripted at that index runs the action first and dies
        after it (the rename made it to disk); ``torn``/``omit`` crash
        *before* it (an atomic rename is never half-done).  Otherwise
        the action runs and is recorded as a ``tag`` commit point.
        """
        if self.crashed:
            raise SimulatedCrash(
                "simulated crash: the process is already dead",
                partial_data=None,
            )
        self.writes += 1
        crash = self.crash_after is not None and self.writes >= self.crash_after
        if crash and self.mode != "clean":
            raise self._die(None, f"before {tag} commit")
        yield
        if crash:
            raise self._die(None, f"after {tag} commit")
        self.commits.append((self.writes, tag))

    def commit_points(self, tag: str) -> list[int]:
        """The write indexes at which ``tag`` commits became durable."""
        return [w for w, t in self.commits if t == tag]

    def __repr__(self) -> str:
        return (
            f"FaultInjector(writes={self.writes}, crash_after="
            f"{self.crash_after}, mode={self.mode!r}, crashed={self.crashed})"
        )


class FaultInjectingStore:
    """A :class:`~repro.iomodel.store.BlockStoreProtocol` wrapper that
    routes every payload-carrying operation through a
    :class:`FaultInjector`.

    Reads and frees pass straight through (a crash stops *writes*);
    ``allocate``/``write``/``write_back`` filter their payload first, so
    a scripted crash surfaces exactly at the operation that would have
    issued the doomed write.  Wraps the in-memory simulated store as
    readily as a file-backed one — unit tests can script crashes
    without ever touching a file.
    """

    def __init__(self, inner, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    # -- protocol attributes ------------------------------------------

    @property
    def block_size(self) -> int:
        return self.inner.block_size

    @property
    def counters(self):
        return self.inner.counters

    @property
    def generation(self) -> int:
        return self.inner.generation

    @property
    def reshaped_at(self) -> int:
        return self.inner.reshaped_at

    def internal_writes_since(self, generation: int) -> list[BlockId]:
        return self.inner.internal_writes_since(generation)

    # -- payload-carrying operations (fault-filtered) ------------------

    def allocate(self, payload=None) -> BlockId:
        filtered = self.injector.filter(None, payload or b"")
        return self.inner.allocate(filtered if payload is not None else None)

    def write(self, block_id: BlockId, payload) -> None:
        self.inner.write(block_id, self.injector.filter(block_id, payload))

    def write_back(self, block_id: BlockId, payload) -> None:
        self.inner.write_back(
            block_id, self.injector.filter(block_id, payload)
        )

    # -- pass-through --------------------------------------------------

    def read(self, block_id: BlockId):
        return self.inner.read(block_id)

    def read_many(self, block_ids, physical=None):
        return self.inner.read_many(block_ids, physical)

    def peek(self, block_id: BlockId):
        return self.inner.peek(block_id)

    def quiet_peek(self, block_id: BlockId):
        return self.inner.quiet_peek(block_id)

    def free(self, block_id: BlockId) -> None:
        self.inner.free(block_id)

    def __len__(self) -> int:
        return len(self.inner)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self.inner

    def block_ids(self):
        return self.inner.block_ids()

    @property
    def allocated_ever(self) -> int:
        return self.inner.allocated_ever

    def bytes_used(self) -> int:
        return self.inner.bytes_used()

    def __repr__(self) -> str:
        return f"FaultInjectingStore({self.inner!r}, {self.injector!r})"
