"""R-tree node payloads: entry lists backed by structure-of-arrays frames.

A node is what one disk block holds: a leaf flag and up to ``fanout``
entries.  Each entry pairs a rectangle with a pointer — for an internal
node the rectangle is the minimal bounding box of a child's subtree and the
pointer is that child's block id; for a leaf the rectangle is an input
(data) rectangle and the pointer identifies the original object (the
paper's "pointer to the original data").

Two representations, one node
-----------------------------

The read path wants geometry as contiguous arrays — a
:class:`NodeFrame` holds the node's ``lo``/``hi`` coordinates as two
``(n, d)`` tables plus a pointer list, so the vectorized kernels in
:mod:`repro.geometry.kernels` evaluate a whole node (or a whole batch of
queries against it) in one operation.  The write path and the builders
want a mutable ``list[(Rect, int)]``.  :class:`Node` keeps both:

* ``Node(is_leaf, entries)`` — the classic constructor; the frame is
  materialized lazily on first kernel access and cached.
* ``Node.from_frame(frame)`` — what the codec's array decoder builds;
  the entry list is materialized lazily on first entry-level access
  (``Rect`` objects are only ever created for entries somebody reads).

``node.entries`` stays a real mutable list (append, ``del``, slice
assignment, ``sort`` — everything the Guttman/R* update paths do), but
it is a :class:`_TrackedEntries` list that invalidates the cached frame
on any mutation, so builders and :mod:`repro.rtree.update` run unchanged
and can never observe a stale frame.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.geometry import kernels
from repro.geometry.rect import Rect, mbr_of

#: One node entry: (bounding rectangle, child block id or data object id).
Entry = tuple[Rect, int]


#: Below this many rows a gather's fixed cost (two fancy-index copies,
#: ~2 us each) exceeds what it saves over per-row materialization.
_GATHER_MIN_ROWS = 8


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


class NodeFrame:
    """Structure-of-arrays view of one node's geometry.

    ``lo``/``hi`` are coordinate tables (``(n, d)`` float64 arrays under
    numpy, tuples of row tuples under the pure-Python fallback — see
    :func:`repro.geometry.kernels.coord_table`), ``ptrs`` is the plain
    Python pointer list.  Frames are read-only by convention: mutation
    happens on the entry list, which drops its cached frame.
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

    def report(self, rows: Sequence[int], objects) -> list[tuple[Rect, Any]]:
        """``(Rect, value)`` result pairs for leaf rows ``rows``, in order.

        Past a handful of rows, one table gather per side replaces two
        :func:`~repro.geometry.kernels.table_row` calls per row: on
        paged trees materializing the results, not missing pages, is
        most of a large window's cost.
        """
        ptrs = self.ptrs
        get = objects.get
        if len(rows) < _GATHER_MIN_ROWS:
            return [(self.rect(i), get(ptrs[i])) for i in rows]
        return [
            (_trusted_rect(lo, hi), get(ptrs[i]))
            for i, lo, hi in zip(
                rows,
                kernels.table_rows(self.lo, rows),
                kernels.table_rows(self.hi, rows),
            )
        ]

    def entries(self) -> list[Entry]:
        """Materialize every row (the codec's encode path)."""
        return [self.entry(i) for i in range(len(self.ptrs))]

    def mbr(self) -> Rect:
        """Tight bounding box of all rows, computed on the tables."""
        lo, hi = kernels.frame_mbr(self.lo, self.hi)
        return _trusted_rect(lo, hi)

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
    two ways — :attr:`entries` for the entry-at-a-time write path and
    :meth:`frame` for the vectorized read path — and the two views are
    kept coherent automatically (mutating the entries invalidates the
    cached frame; a frame-built node materializes entries on demand).
    """

    __slots__ = ("is_leaf", "_entries", "_frame")

    def __init__(self, is_leaf: bool, entries: Iterable[Entry] | None = None):
        self.is_leaf = is_leaf
        self._entries: _TrackedEntries | None = _TrackedEntries(
            self, entries if entries is not None else ()
        )
        self._frame: NodeFrame | None = None

    @classmethod
    def from_frame(cls, frame: NodeFrame) -> "Node":
        """Wrap a decoded frame without materializing any ``Rect``."""
        node = cls.__new__(cls)
        node.is_leaf = frame.is_leaf
        node._entries = None
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

    def cached_entries(self) -> list[Entry] | None:
        """The already-materialized entry list, or None.

        Read paths use this to report matches from existing ``Rect``
        objects instead of rebuilding them row by row from the frame;
        for disk-decoded nodes it stays None so a query touching three
        rows of a 113-entry page never materializes the other 110.
        Callers must not mutate the returned list.
        """
        return self._entries

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

    # -- entry-level API (unchanged) -----------------------------------

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

    def add(self, rect: Rect, pointer: int) -> None:
        """Append one entry."""
        self.entries.append((rect, pointer))

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
