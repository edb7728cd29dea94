"""Byte-exact R-tree node layout.

The paper fixes the physical layout precisely: "we used 36 bytes to
represent each input rectangle; 8 bytes for each coordinate and 4 bytes to
be able to hold a pointer ... The disk block size was chosen to be 4KB,
resulting in a maximum fanout of 113" (Section 3.1).

:func:`fanout_for_block` derives the fan-out from a block size the same
way (``floor(block_size / entry_size)`` with 8-byte coordinates and a
4-byte pointer), and :class:`NodeCodec` round-trips node payloads through
real ``bytes`` of exactly one block, so the layout assumption is honoured
and testable.  The hot paths of the simulator keep nodes decoded — the
codec exists to *validate* the layout (and compute fan-outs), not to slow
every access down.
"""

from __future__ import annotations

import struct

from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import DEFAULT_BLOCK_SIZE

#: Bytes per coordinate (the paper uses 8-byte doubles).
COORD_BYTES = 8
#: Bytes per child/object pointer.
POINTER_BYTES = 4
#: Header: 1-byte leaf flag + 4-byte entry count.  The paper's fan-out of
#: 113 leaves 4096 - 113*36 = 28 slack bytes per block, so the header fits
#: without reducing fan-out.
HEADER_FORMAT = "<BI"
HEADER_BYTES = struct.calcsize(HEADER_FORMAT)


def entry_size(dim: int) -> int:
    """On-disk bytes per entry: 2*dim coordinates plus one pointer.

    For dim = 2 this is the paper's 36 bytes.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return 2 * dim * COORD_BYTES + POINTER_BYTES


def fanout_for_block(block_size: int = DEFAULT_BLOCK_SIZE, dim: int = 2) -> int:
    """Maximum entries per block, the paper's fan-out derivation.

    ``fanout_for_block(4096, 2) == 113``, matching Section 3.1 exactly.
    """
    size = entry_size(dim)
    fanout = block_size // size
    if fanout < 2:
        raise ValueError(
            f"block size {block_size} holds fewer than 2 entries of "
            f"{size} bytes; use a larger block"
        )
    return fanout


class NodeCodec:
    """Serialize node payloads to single disk blocks and back.

    An encoded node is ``header || entry*``, where each entry is
    ``2*dim`` little-endian float64 coordinates (``lo`` then ``hi``)
    followed by a uint32 pointer — a child block id for internal nodes or
    an opaque object id for leaves.
    """

    def __init__(self, dim: int = 2, block_size: int = DEFAULT_BLOCK_SIZE):
        self.dim = dim
        self.block_size = block_size
        self.fanout = fanout_for_block(block_size, dim)
        self._entry_format = "<" + "d" * (2 * dim) + "I"
        self._entry_size = struct.calcsize(self._entry_format)
        #: One on-disk entry as a packed numpy record (numpy backend only).
        self._record_dtype = (
            kernels.np.dtype([("coords", "<f8", (2 * dim,)), ("ptr", "<u4")])
            if kernels.HAVE_NUMPY
            else None
        )

    def encode(self, is_leaf: bool, entries: list[tuple[Rect, int]]) -> bytes:
        """Pack a node into exactly one block of bytes.

        Raises ``ValueError`` when the node holds more entries than the
        block's fan-out allows or a rectangle of the wrong dimension.
        """
        if len(entries) > self.fanout:
            raise ValueError(
                f"{len(entries)} entries exceed block fan-out {self.fanout}"
            )
        parts = [struct.pack(HEADER_FORMAT, 1 if is_leaf else 0, len(entries))]
        for rect, pointer in entries:
            if rect.dim != self.dim:
                raise ValueError(
                    f"rect has dimension {rect.dim}, codec expects {self.dim}"
                )
            parts.append(
                struct.pack(self._entry_format, *rect.lo, *rect.hi, pointer)
            )
        encoded = b"".join(parts)
        return encoded.ljust(self.block_size, b"\x00")

    def encode_arrays(self, is_leaf: bool, lo, hi, ptrs: list[int]) -> bytes:
        """Pack a node held as coordinate tables into one block.

        The inverse of :meth:`decode_arrays` and byte-for-byte what
        :meth:`encode` produces for the same rows — the write-back path
        of a page that was decoded (and updated) as a frame, so flushing
        it never builds a ``Rect``.
        """
        count = len(ptrs)
        if count > self.fanout:
            raise ValueError(
                f"{count} entries exceed block fan-out {self.fanout}"
            )
        dim = self.dim
        header = struct.pack(HEADER_FORMAT, 1 if is_leaf else 0, count)
        if kernels.HAVE_NUMPY and isinstance(lo, kernels.np.ndarray):
            if count and lo.shape[1] != dim:
                raise ValueError(
                    f"rows have dimension {lo.shape[1]}, codec expects {dim}"
                )
            raw = kernels.np.empty(count, dtype=self._record_dtype)
            if count:
                raw["coords"][:, :dim] = lo
                raw["coords"][:, dim:] = hi
                raw["ptr"] = ptrs
            body = raw.tobytes()
        else:
            if count and len(lo[0]) != dim:
                raise ValueError(
                    f"rows have dimension {len(lo[0])}, codec expects {dim}"
                )
            body = b"".join(
                struct.pack(self._entry_format, *lo[i], *hi[i], ptrs[i])
                for i in range(count)
            )
        return (header + body).ljust(self.block_size, b"\x00")

    def decode(self, block: bytes) -> tuple[bool, list[tuple[Rect, int]]]:
        """Inverse of :meth:`encode`."""
        if len(block) != self.block_size:
            raise ValueError(
                f"block is {len(block)} bytes, expected {self.block_size}"
            )
        leaf_flag, count = struct.unpack_from(HEADER_FORMAT, block, 0)
        entries: list[tuple[Rect, int]] = []
        offset = HEADER_BYTES
        for _ in range(count):
            *coords, pointer = struct.unpack_from(
                self._entry_format, block, offset
            )
            offset += self._entry_size
            rect = Rect(coords[: self.dim], coords[self.dim :])
            entries.append((rect, pointer))
        return bool(leaf_flag), entries

    def decode_arrays(self, block: bytes):
        """Decode a block straight into structure-of-arrays form.

        Returns ``(is_leaf, lo_table, hi_table, ptrs)`` where the tables
        are :func:`repro.geometry.kernels.coord_table`-shaped (an
        ``(n, dim)`` float64 array each under numpy, tuples of row tuples
        under the fallback) and ``ptrs`` is a plain ``list[int]``.  No
        ``Rect`` objects are materialized — this is the read path's
        decoder; ``storage/paged.py`` wraps the result in a
        ``NodeFrame``.  Byte layout is exactly :meth:`decode`'s.
        """
        if len(block) != self.block_size:
            raise ValueError(
                f"block is {len(block)} bytes, expected {self.block_size}"
            )
        leaf_flag, count = struct.unpack_from(HEADER_FORMAT, block, 0)
        dim = self.dim
        if kernels.HAVE_NUMPY:
            np = kernels.np
            raw = np.frombuffer(
                block,
                dtype=self._record_dtype,
                count=count,
                offset=HEADER_BYTES,
            )
            coords = np.ascontiguousarray(raw["coords"], dtype=np.float64)
            lo = coords[:, :dim].copy()
            hi = coords[:, dim:].copy()
            ptrs = raw["ptr"].tolist()
            return bool(leaf_flag), lo, hi, ptrs
        lo_rows: list[tuple[float, ...]] = []
        hi_rows: list[tuple[float, ...]] = []
        ptrs = []
        offset = HEADER_BYTES
        for _ in range(count):
            *coords, pointer = struct.unpack_from(
                self._entry_format, block, offset
            )
            offset += self._entry_size
            lo_rows.append(tuple(coords[:dim]))
            hi_rows.append(tuple(coords[dim:]))
            ptrs.append(pointer)
        return bool(leaf_flag), tuple(lo_rows), tuple(hi_rows), ptrs
