"""R-tree node payloads: one structure-of-arrays frame per node.

A node is what one disk block holds: a leaf flag and up to ``fanout``
entries.  Each entry pairs a rectangle with a pointer — for an internal
node the rectangle is the minimal bounding box of a child's subtree and the
pointer is that child's block id; for a leaf the rectangle is an input
(data) rectangle and the pointer identifies the original object (the
paper's "pointer to the original data").

One representation
------------------

A :class:`Node` holds exactly one thing besides its leaf flag: a
:class:`NodeFrame`, the node's box table — one ``(2d, n)`` float64
array whose rows are ``lo_0 .. lo_{d-1}, -hi_0 .. -hi_{d-1}`` (see
:mod:`repro.geometry.kernels`) — plus an ``int64`` pointer column, so
every containment test on a whole node (a window, point, containment
or count query, FindLeaf) is one compare and one fold.  The ``(n, d)``
``lo`` and ``hi`` tables ChooseLeaf, the splitters and the health walk
read are derived from it, not stored.

* ``Node.from_frame(frame)`` — what the codec's array decoder and the
  bulk loaders build (the loaders cut each node's columns out of one
  box table per level).
* ``Node(is_leaf, entries)`` — packs an entry list into a frame at
  once and keeps no list.

Every edit — :meth:`Node.add`, :meth:`Node.replace`,
:meth:`Node.extend_entry`, :meth:`Node.remove_at`, :meth:`Node.split_off`
— swaps in a new frame (frames are never edited in place).  ``Rect``
objects are built from the frame only on demand: :attr:`Node.entries`
and :meth:`Node.entry` for code at the API edge, :func:`rects_of` for
the scalar R* and linear splitters.  Editing the list
:attr:`Node.entries` returns changes nothing.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from repro.geometry import kernels
from repro.geometry.rect import Rect

#: One node entry: (bounding rectangle, child block id or data object id).
Entry = tuple[Rect, int]


def _trusted_rect(lo: tuple[float, ...], hi: tuple[float, ...]) -> Rect:
    """Build a Rect from already-validated coordinate tuples.

    Frame rows round-tripped through the codec (or built from existing
    rects) are valid by construction; skipping ``Rect.__init__``'s
    per-coordinate conversion keeps entry materialization off the hot
    path's flame graph.
    """
    rect = Rect.__new__(Rect)
    object.__setattr__(rect, "lo", lo)
    object.__setattr__(rect, "hi", hi)
    return rect


def rects_of(lo, hi) -> list[Rect]:
    """One trusted :class:`Rect` per row of two ``(n, d)`` coordinate
    tables (a frame's derived ``lo`` and ``hi``).

    The bulk :func:`_trusted_rect`: one ``tolist`` per table, and three
    ``map`` passes allocate the objects and fill their slots without
    re-entering the interpreter loop per row.
    """
    rects = list(map(Rect.__new__, repeat(Rect, len(lo))))
    deque(map(Rect.lo.__set__, rects, kernels.table_tuples(lo)), maxlen=0)
    deque(map(Rect.hi.__set__, rects, kernels.table_tuples(hi)), maxlen=0)
    return rects


def pointer_column(pointers: Sequence[int]):
    """``pointers`` as a frame's ``(n,)`` int64 pointer column."""
    return np.array(pointers, dtype=np.int64)


class NodeFrame:
    """Structure-of-arrays view of one node's geometry.

    ``box`` is the node's ``(2d, n)`` float64 box table (see
    :func:`repro.geometry.kernels.box_table`), ``ptrs`` the pointer
    column (an ``(n,)`` int64 array): a query gathers its rows' object
    ids from it in one index.  Frames are never edited in place: the
    edit methods below return a new frame, so one handed out earlier
    stays valid.  A single pointer leaves a frame as a Python ``int``
    (``ptrs.item(i)``, ``ptrs.tolist()``).
    """

    __slots__ = ("is_leaf", "box", "ptrs")

    def __init__(self, is_leaf: bool, box, ptrs) -> None:
        self.is_leaf = is_leaf
        self.box = box
        self.ptrs = ptrs

    @classmethod
    def from_entries(cls, is_leaf: bool, entries: Sequence[Entry], dim: int | None = None) -> "NodeFrame":
        """Pack an entry list into a box table."""
        if dim is None:
            dim = entries[0][0].dim if entries else 0
        box = kernels.box_table([rect.lo + rect.hi for rect, _ in entries], dim)
        return cls(is_leaf, box, pointer_column([p for _, p in entries]))

    @classmethod
    def concat(cls, frames: Sequence["NodeFrame"]) -> "NodeFrame":
        """A new frame holding every row of ``frames`` (nodes of one
        level), in order."""
        return cls(
            frames[0].is_leaf,
            np.concatenate([frame.box for frame in frames], axis=1),
            np.concatenate([frame.ptrs for frame in frames]),
        )

    def __len__(self) -> int:
        return len(self.ptrs)

    @property
    def lo(self):
        """The rows' lower corners, an ``(n, d)`` read-only view."""
        lo = self.box[: len(self.box) // 2].T
        lo.flags.writeable = False
        return lo

    @property
    def hi(self):
        """The rows' upper corners, a fresh ``(n, d)`` table."""
        return np.negative(self.box[len(self.box) // 2 :].T)

    def rect(self, i: int) -> Rect:
        """Materialize row ``i`` as a :class:`Rect` (lazy, per row)."""
        column = self.box[:, i].tolist()
        half = len(column) // 2
        return _trusted_rect(tuple(column[:half]), tuple([-c for c in column[half:]]))

    def entry(self, i: int) -> Entry:
        """Materialize row ``i`` as a classic ``(Rect, pointer)`` entry."""
        return self.rect(i), self.ptrs.item(i)

    def entries(self) -> list[Entry]:
        """Materialize every row (the codec's encode path)."""
        return list(zip(rects_of(self.lo, self.hi), self.ptrs.tolist()))

    def mbr(self) -> Rect:
        """Tight bounding box of all rows, computed on the tables."""
        lo, hi = kernels.frame_mbr(self.lo, self.hi)
        return _trusted_rect(lo, hi)

    # -- edits (each returns a new frame) -------------------------------

    def appended(self, rect: Rect, pointer: int) -> "NodeFrame":
        """This frame plus one row at the end."""
        column = kernels.box_bound(rect.lo, rect.hi)
        # An empty node's table may have no rows yet: the column sizes it.
        box = np.concatenate((self.box, column), axis=1) if len(self) else column
        return NodeFrame(self.is_leaf, box, np.concatenate((self.ptrs, (pointer,))))

    def replaced(self, i: int, rect: Rect, pointer: int) -> "NodeFrame":
        """This frame with row ``i`` set to ``(rect, pointer)``; it shares
        this frame's pointer column when ``pointer`` is row ``i``'s."""
        box, ptrs = self.box.copy(), self.ptrs
        box[:, i : i + 1] = kernels.box_bound(rect.lo, rect.hi)
        if ptrs[i] != pointer:
            ptrs = ptrs.copy()
            ptrs[i] = pointer
        return NodeFrame(self.is_leaf, box, ptrs)

    def without(self, i: int) -> "NodeFrame":
        """This frame minus row ``i``."""
        return NodeFrame(
            self.is_leaf,
            np.concatenate((self.box[:, :i], self.box[:, i + 1 :]), axis=1),
            np.concatenate((self.ptrs[:i], self.ptrs[i + 1 :])),
        )

    def take(self, rows: Sequence[int]) -> "NodeFrame":
        """A frame of rows ``rows``, in that order (one side of a split)."""
        return NodeFrame(
            self.is_leaf, np.take(self.box, rows, axis=1), self.ptrs[rows]
        )

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"NodeFrame({kind}, {len(self.ptrs)} rows)"


class Node:
    """A decoded R-tree node (the payload of exactly one block).

    Nodes are plain mutable containers; all structure maintenance lives in
    the builders and :mod:`repro.rtree.update`.  The geometry lives in
    one :class:`NodeFrame`, replaced whole by every edit.
    """

    __slots__ = ("is_leaf", "_frame")

    def __init__(self, is_leaf: bool, entries: Iterable[Entry] = ()):
        self.is_leaf = is_leaf
        self._frame = NodeFrame.from_entries(is_leaf, list(entries))

    @classmethod
    def from_frame(cls, frame: NodeFrame) -> "Node":
        """Wrap a frame without materializing any ``Rect``."""
        node = cls.__new__(cls)
        node.is_leaf = frame.is_leaf
        node._frame = frame
        return node

    def frame(self) -> NodeFrame:
        """The node's structure-of-arrays geometry.

        For a node decoded from disk this is the representation that was
        decoded; no entry tuple or ``Rect`` exists unless someone asks.
        """
        return self._frame

    # -- entry-level reads (the API edge) -------------------------------

    @property
    def entries(self) -> list[Entry]:
        """A fresh ``(Rect, pointer)`` list built from the frame.

        Read-only: mutating the returned list leaves the node as it was.
        """
        return self._frame.entries()

    def entry(self, i: int) -> Entry:
        """Entry ``i`` without materializing the rest of the node."""
        return self._frame.entry(i)

    def mbr(self) -> Rect:
        """Minimal bounding box of all entries (the node's outward face)."""
        if not len(self._frame):
            raise ValueError("empty node has no bounding box")
        return self._frame.mbr()

    # -- whole-node edits (the write path) -----------------------------

    def add(self, rect: Rect, pointer: int) -> None:
        """Append one entry."""
        self._frame = self._frame.appended(rect, pointer)

    def replace(self, i: int, rect: Rect, pointer: int) -> None:
        """Set entry ``i`` to ``(rect, pointer)``."""
        self._frame = self._frame.replaced(i, rect, pointer)

    def extend_entry(self, i: int, rect: Rect) -> None:
        """Grow entry ``i``'s box just enough to also cover ``rect``.

        AdjustTree above a child that took ``rect`` without splitting:
        the child's new bounding box is exactly its old one (this
        entry, by the tight-box invariant) united with ``rect`` — no
        need to scan the child.
        """
        box, pointer = self.entry(i)
        lo = tuple(a if a <= c else c for a, c in zip(box.lo, rect.lo))
        hi = tuple(b if b >= d else d for b, d in zip(box.hi, rect.hi))
        if lo != box.lo or hi != box.hi:
            self.replace(i, _trusted_rect(lo, hi), pointer)

    def remove_at(self, i: int) -> None:
        """Delete entry ``i``."""
        self._frame = self._frame.without(i)

    def split_off(self, keep: Sequence[int], move: Sequence[int]) -> "Node":
        """Keep rows ``keep`` here; return a new node holding ``move``.

        Both in the given order — a splitter's two groups as row lists.
        """
        frame = self._frame
        self._frame = frame.take(keep)
        return Node.from_frame(frame.take(move))

    def child_ids(self) -> list[int]:
        """Block ids of all children (internal nodes only)."""
        if self.is_leaf:
            raise ValueError("leaves have no children")
        return self._frame.ptrs.tolist()

    def __len__(self) -> int:
        return len(self._frame)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"Node({kind}, {len(self)} entries)"
