"""R-tree node payloads: entry lists backed by structure-of-arrays frames.

A node is what one disk block holds: a leaf flag and up to ``fanout``
entries.  Each entry pairs a rectangle with a pointer — for an internal
node the rectangle is the minimal bounding box of a child's subtree and the
pointer is that child's block id; for a leaf the rectangle is an input
(data) rectangle and the pointer identifies the original object (the
paper's "pointer to the original data").

Two representations, one node
-----------------------------

The read path *and* the Guttman write path want geometry as contiguous
arrays — a :class:`NodeFrame` holds the node's ``lo``/``hi`` coordinates
as two ``(n, d)`` tables plus a pointer list, so the kernels in
:mod:`repro.geometry.kernels` evaluate a whole node (a window test,
ChooseLeaf, FindLeaf, a quadratic split) in one operation.  The
builders, the R* update path and custom splitters want a mutable
``list[(Rect, int)]``.  :class:`Node` keeps both:

* ``Node(is_leaf, entries)`` — the classic constructor; the frame is
  materialized lazily on first kernel access and cached.
* ``Node.from_frame(frame)`` — what the codec's array decoder builds;
  the entry list is materialized lazily on first entry-level access
  (``Rect`` objects are only ever created for entries somebody reads).
* ``Node.from_frame(frame, entries)`` — what the bulk loaders build:
  they cut each node's rows out of one coordinate table per level and
  already hold the input ``Rect`` objects, so neither view is ever
  converted from the other.

A node is edited in one of two ways, and either keeps the views
coherent:

* **Whole-node edits** — :meth:`Node.add`, :meth:`Node.replace`,
  :meth:`Node.extend_entry`, :meth:`Node.remove_at`,
  :meth:`Node.split_off`, what :mod:`repro.rtree.update` uses — apply
  to every representation the node holds.  A page decoded from disk is
  inserted into, split and written back as a frame without one
  ``Rect`` being built; an in-memory node keeps its cached frame.
* **List edits** — ``node.entries`` stays a real mutable list (append,
  ``del``, slice assignment, ``sort``), a :class:`_TrackedEntries`
  that drops the cached frame on any mutation, so code written against
  the entry list can never observe a stale frame.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Iterable, Sequence

from repro.geometry import kernels
from repro.geometry.rect import Rect, mbr_of

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
    """One trusted :class:`Rect` per row of two coordinate tables.

    The bulk :func:`_trusted_rect`: one ``tolist`` per table, and three
    ``map`` passes allocate the objects and fill their slots without
    re-entering the interpreter loop per row.
    """
    rects = list(map(Rect.__new__, repeat(Rect, len(lo))))
    deque(map(Rect.lo.__set__, rects, kernels.table_tuples(lo)), maxlen=0)
    deque(map(Rect.hi.__set__, rects, kernels.table_tuples(hi)), maxlen=0)
    return rects


class NodeFrame:
    """Structure-of-arrays view of one node's geometry.

    ``lo``/``hi`` are coordinate tables (``(n, d)`` float64 arrays under
    numpy, tuples of row tuples under the pure-Python fallback — see
    :func:`repro.geometry.kernels.coord_table`), ``ptrs`` is the plain
    Python pointer list.  Frames are never edited in place: the edit
    methods below return a new frame, so one handed out earlier stays
    valid.
    """

    __slots__ = ("is_leaf", "lo", "hi", "ptrs")

    def __init__(self, is_leaf: bool, lo, hi, ptrs: list[int]) -> None:
        self.is_leaf = is_leaf
        self.lo = lo
        self.hi = hi
        self.ptrs = ptrs

    @classmethod
    def from_entries(cls, is_leaf: bool, entries: Sequence[Entry], dim: int | None = None) -> "NodeFrame":
        """Pack an entry list into coordinate tables."""
        if dim is None:
            dim = entries[0][0].dim if entries else 0
        lo = kernels.coord_table([rect.lo for rect, _ in entries], dim)
        hi = kernels.coord_table([rect.hi for rect, _ in entries], dim)
        return cls(is_leaf, lo, hi, [pointer for _, pointer in entries])

    def __len__(self) -> int:
        return len(self.ptrs)

    def rect(self, i: int) -> Rect:
        """Materialize row ``i`` as a :class:`Rect` (lazy, per row)."""
        return _trusted_rect(
            kernels.table_row(self.lo, i), kernels.table_row(self.hi, i)
        )

    def entry(self, i: int) -> Entry:
        """Materialize row ``i`` as a classic ``(Rect, pointer)`` entry."""
        return self.rect(i), self.ptrs[i]

    def entries(self) -> list[Entry]:
        """Materialize every row (the codec's encode path)."""
        return list(zip(rects_of(self.lo, self.hi), self.ptrs))

    def mbr(self) -> Rect:
        """Tight bounding box of all rows, computed on the tables."""
        lo, hi = kernels.frame_mbr(self.lo, self.hi)
        return _trusted_rect(lo, hi)

    # -- edits (each returns a new frame; see kernels.table_append) -----

    def appended(self, rect: Rect, pointer: int) -> "NodeFrame":
        """This frame plus one row at the end."""
        return NodeFrame(
            self.is_leaf,
            kernels.table_append(self.lo, rect.lo),
            kernels.table_append(self.hi, rect.hi),
            self.ptrs + [pointer],
        )

    def replaced(self, i: int, rect: Rect, pointer: int) -> "NodeFrame":
        """This frame with row ``i`` set to ``(rect, pointer)``."""
        ptrs = list(self.ptrs)
        ptrs[i] = pointer
        return NodeFrame(
            self.is_leaf,
            kernels.table_replace(self.lo, i, rect.lo),
            kernels.table_replace(self.hi, i, rect.hi),
            ptrs,
        )

    def without(self, i: int) -> "NodeFrame":
        """This frame minus row ``i``."""
        return NodeFrame(
            self.is_leaf,
            kernels.table_delete(self.lo, i),
            kernels.table_delete(self.hi, i),
            self.ptrs[:i] + self.ptrs[i + 1 :],
        )

    def take(self, rows: Sequence[int]) -> "NodeFrame":
        """A frame of rows ``rows``, in that order (one side of a split)."""
        ptrs = self.ptrs
        return NodeFrame(
            self.is_leaf,
            kernels.table_take(self.lo, rows),
            kernels.table_take(self.hi, rows),
            [ptrs[i] for i in rows],
        )

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"NodeFrame({kind}, {len(self.ptrs)} rows)"


class _TrackedEntries(list):
    """Entry list that drops the owning node's cached frame on mutation.

    Covers every mutating ``list`` operation the builders and update
    algorithms use; read operations (indexing, iteration, slicing — a
    copy) go straight to ``list``.
    """

    __slots__ = ("_node",)

    def __init__(self, node: "Node", iterable: Iterable[Entry] = ()) -> None:
        super().__init__(iterable)
        self._node = node

    def _touch(self) -> None:
        self._node._frame = None

    def append(self, item):
        self._touch()
        super().append(item)

    def extend(self, items):
        self._touch()
        super().extend(items)

    def insert(self, index, item):
        self._touch()
        super().insert(index, item)

    def remove(self, item):
        self._touch()
        super().remove(item)

    def pop(self, index=-1):
        self._touch()
        return super().pop(index)

    def clear(self):
        self._touch()
        super().clear()

    def sort(self, *args, **kwargs):
        self._touch()
        super().sort(*args, **kwargs)

    def reverse(self):
        self._touch()
        super().reverse()

    def __setitem__(self, index, value):
        self._touch()
        super().__setitem__(index, value)

    def __delitem__(self, index):
        self._touch()
        super().__delitem__(index)

    def __iadd__(self, other):
        self._touch()
        return super().__iadd__(other)

    def __imul__(self, factor):
        self._touch()
        return super().__imul__(factor)


class Node:
    """A decoded R-tree node (the payload of exactly one block).

    Nodes are plain mutable containers; all structure maintenance lives in
    the builders and :mod:`repro.rtree.update`.  The geometry is served
    two ways — :attr:`entries` for entry-at-a-time code and :meth:`frame`
    for the whole-node kernels — and the two views are kept coherent
    automatically (the whole-node edits update both; mutating the entry
    list invalidates the cached frame; a frame-built node materializes
    entries on demand).
    """

    __slots__ = ("is_leaf", "_entries", "_frame")

    def __init__(self, is_leaf: bool, entries: Iterable[Entry] | None = None):
        self.is_leaf = is_leaf
        self._entries: _TrackedEntries | None = _TrackedEntries(
            self, entries if entries is not None else ()
        )
        self._frame: NodeFrame | None = None

    @classmethod
    def from_frame(
        cls, frame: NodeFrame, entries: Iterable[Entry] | None = None
    ) -> "Node":
        """Wrap a frame without materializing any ``Rect``.

        ``entries`` is the same rows as an entry list, for a caller that
        already holds one (the bulk loaders): the node then starts with
        both views.
        """
        node = cls.__new__(cls)
        node.is_leaf = frame.is_leaf
        node._entries = (
            None if entries is None else _TrackedEntries(node, entries)
        )
        node._frame = frame
        return node

    # -- the two views -------------------------------------------------

    @property
    def entries(self) -> list[Entry]:
        """The mutable entry list (materialized from the frame if needed)."""
        if self._entries is None:
            self._entries = _TrackedEntries(self, self._frame.entries())
        return self._entries

    @entries.setter
    def entries(self, value: Iterable[Entry]) -> None:
        self._entries = _TrackedEntries(self, value)
        self._frame = None

    def frame(self) -> NodeFrame:
        """The structure-of-arrays view (built from the entries if needed).

        Cached until the entry list next mutates; for nodes decoded from
        disk this is the representation that was decoded, and no entry
        tuple or ``Rect`` ever exists unless someone asks.
        """
        frame = self._frame
        if frame is None:
            frame = self._frame = NodeFrame.from_entries(
                self.is_leaf, self._entries
            )
        return frame

    # -- entry-level API ------------------------------------------------

    def mbr(self) -> Rect:
        """Minimal bounding box of all entries (the node's outward face)."""
        if self._entries is None or self._frame is not None:
            frame = self.frame()
            if not len(frame):
                raise ValueError("empty node has no bounding box")
            return frame.mbr()
        if not self._entries:
            raise ValueError("empty node has no bounding box")
        return mbr_of(rect for rect, _ in self._entries)

    def entry(self, i: int) -> Entry:
        """Entry ``i`` without materializing the rest of a decoded page."""
        if self._entries is not None:
            return self._entries[i]
        return self._frame.entry(i)

    # -- whole-node edits (the write path) -----------------------------
    #
    # Each applies to whichever representation the node currently holds
    # — both, when both are materialized — so a page decoded from disk
    # is updated without ever building a ``Rect`` list, and a cached
    # frame survives the edit instead of being rebuilt from entries.

    def add(self, rect: Rect, pointer: int) -> None:
        """Append one entry."""
        if self._entries is not None:
            list.append(self._entries, (rect, pointer))
        if self._frame is not None:
            self._frame = self._frame.appended(rect, pointer)

    def replace(self, i: int, rect: Rect, pointer: int) -> None:
        """Set entry ``i`` to ``(rect, pointer)``."""
        if self._entries is not None:
            list.__setitem__(self._entries, i, (rect, pointer))
        if self._frame is not None:
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
        if self._entries is not None:
            list.__delitem__(self._entries, i)
        if self._frame is not None:
            self._frame = self._frame.without(i)

    def split_off(self, keep: Sequence[int], move: Sequence[int]) -> "Node":
        """Keep entries ``keep`` here; return a new node holding ``move``.

        Both in the given order — a splitter's two groups as row lists.
        """
        sibling = Node.__new__(Node)
        sibling.is_leaf = self.is_leaf
        entries, frame = self._entries, self._frame
        sibling._entries = sibling._frame = None
        if entries is not None:
            sibling._entries = _TrackedEntries(
                sibling, [entries[i] for i in move]
            )
            self._entries = _TrackedEntries(self, [entries[i] for i in keep])
        if frame is not None:
            sibling._frame = frame.take(move)
            self._frame = frame.take(keep)
        return sibling

    def remove(self, rect: Rect, pointer: int) -> bool:
        """Remove the first entry equal to ``(rect, pointer)``.

        Returns True when an entry was removed.
        """
        try:
            self.entries.remove((rect, pointer))
        except ValueError:
            return False
        return True

    def child_ids(self) -> list[int]:
        """Block ids of all children (internal nodes only)."""
        if self.is_leaf:
            raise ValueError("leaves have no children")
        if self._entries is None:
            return list(self._frame.ptrs)
        return [pointer for _, pointer in self._entries]

    def __len__(self) -> int:
        if self._entries is None:
            return len(self._frame)
        return len(self._entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"Node({kind}, {len(self)} entries)"
