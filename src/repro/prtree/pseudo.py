"""The pseudo-PR-tree (paper Section 2.1).

Definition, for a set S of N rectangles in the plane (generalized to d
dimensions per Section 2.3):

* if S contains at most B rectangles, the tree is a single leaf;
* otherwise the root node ν has 2d + 2 children: 2d **priority leaves**
  and two recursive pseudo-PR-trees.  Priority leaf ``ν_p^{xmin}`` holds
  the B rectangles with minimal xmin; from the remainder, ``ν_p^{ymin}``
  takes the B with minimal ymin; then ``ν_p^{xmax}`` the B with *maximal*
  xmax; then ``ν_p^{ymax}`` the B with maximal ymax (in d dimensions the
  2d directions cycle min-axes first, then max-axes, matching the corner
  mapping's axis order).  The remaining rectangles are split into two
  halves S_< and S_> by the median of one corner coordinate, round-robin
  through the 2d coordinates by depth, "as if we were building a
  four-dimensional kd-tree on S*".

The priority leaves hold the "extreme" rectangles — leftmost left edges,
bottommost bottom edges, rightmost right edges, topmost top edges — which
is what makes the query bound work (Lemma 2): a visited node whose
priority leaves are *not* fully reported pins the query's boundary
hyperplanes to the node's kd-cell, and a kd-tree argument bounds how many
cells a (2d−2)-dimensional plane can cut.

The class below is a faithful in-memory construction.  It is both a
queryable index in its own right (used by the Lemma 2 tests) and the
building block of the real PR-tree: :meth:`PseudoPRTree.leaves` yields
exactly the leaf set (priority and normal) that becomes one level of the
PR-tree.

To reach the near-100 % space utilization the paper reports, the split
index is snapped to a multiple of B ("we can make slightly unbalanced
divisions, so that we have a multiple of B points on one side of each
dividing hyperplane") — every leaf except at most one per subtree is
full.

Ties
----

"The B rectangles with minimal xmin" is not a set when coordinates
repeat, so every selection orders by ``(coordinate, pointer)``: equal
coordinates (``-0.0`` equals ``0.0``) break on the pointer, ascending
for the min-axes and the kd split, descending for the max-axes.  A
priority leaf lists its rectangles in that order, most extreme first; a
normal leaf lists them in the order of the last selection that produced
it (its parent's kd split — or, for the remainder of a node too small to
split, the last max-axis).

Two constructions, one structure
--------------------------------

:meth:`PseudoPRTree._build` is the definition spelled out — a full
``list.sort`` by that key per selection.  With numpy it is used only
when the pointers cannot break ties in a column (they are not distinct
machine integers); otherwise :class:`_TableBuild` makes the same
selections on one ``(n, 2d)`` corner table plus a pointer column:
``argpartition`` finds the pivot coordinate, one exact pass over the
rows tied on it takes those the pointer order admits, and only the rows
kept are ever sorted.  Same leaves, same items in the same order, same
boxes (``tests/integration/test_vectorized_differential.py`` holds the
sort-based body as the oracle); its leaves also carry their rows of the
table, so the R-tree node each becomes (:meth:`PseudoLeaf.node`) is
stored with its frame attached.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.bulk.base import require_dim
from repro.geometry import kernels
from repro.geometry.kernels import np
from repro.geometry.rect import Rect, mbr_of
from repro.rtree.node import Node, NodeFrame

#: A working item: (rectangle, opaque pointer).
Item = tuple[Rect, int]


class PseudoLeaf:
    """A leaf of the pseudo-PR-tree: at most B items.

    ``kind`` records provenance: ``"priority:<k>"`` for the priority leaf
    in corner-axis direction k, ``"normal"`` for a recursion-bottom leaf.
    """

    __slots__ = ("items", "kind", "_mbr", "_tables")

    def __init__(self, items: list[Item], kind: str):
        if not items:
            raise ValueError("pseudo-PR-tree leaves are never empty")
        self.items = items
        self.kind = kind
        self._mbr = mbr_of(rect for rect, _ in items)
        self._tables = None

    @classmethod
    def from_tables(cls, items: list[Item], kind: str, lo, hi) -> "PseudoLeaf":
        """A leaf whose construction already holds the items' ``lo`` /
        ``hi`` coordinate tables (at least one row)."""
        leaf = cls.__new__(cls)
        leaf.items = items
        leaf.kind = kind
        leaf._mbr = Rect(*kernels.frame_mbr(lo, hi))
        leaf._tables = (lo, hi)
        return leaf

    @property
    def mbr(self) -> Rect:
        """Minimal bounding box of the leaf's rectangles."""
        return self._mbr

    def node(self, is_leaf: bool) -> Node:
        """The R-tree node this leaf becomes on one level of a PR-tree."""
        entries = list(self.items)
        if self._tables is None:
            return Node(is_leaf, entries)
        lo, hi = self._tables
        frame = NodeFrame(is_leaf, lo, hi, [pointer for _, pointer in entries])
        return Node.from_frame(frame, entries)

    @property
    def is_priority(self) -> bool:
        """True for priority leaves."""
        return self.kind.startswith("priority")

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return f"PseudoLeaf({self.kind}, {len(self.items)} items)"


class PseudoNode:
    """An internal pseudo-PR-tree node: 2d priority leaves + ≤2 subtrees.

    ``split_axis`` is the corner-coordinate axis (0..2d-1) used to divide
    the remainder, recorded for the structural tests of the round-robin
    discipline.
    """

    __slots__ = ("priority_leaves", "subtrees", "split_axis", "_mbr")

    def __init__(
        self,
        priority_leaves: list[PseudoLeaf],
        subtrees: list["PseudoNode | PseudoLeaf"],
        split_axis: int,
    ):
        self.priority_leaves = priority_leaves
        self.subtrees = subtrees
        self.split_axis = split_axis
        boxes = [leaf.mbr for leaf in priority_leaves]
        boxes.extend(child.mbr for child in subtrees)
        self._mbr = mbr_of(boxes)

    @property
    def mbr(self) -> Rect:
        """Minimal bounding box of everything below this node."""
        return self._mbr

    @property
    def children(self) -> list["PseudoNode | PseudoLeaf"]:
        """All children: priority leaves first, then the subtrees."""
        return [*self.priority_leaves, *self.subtrees]

    def __repr__(self) -> str:
        return (
            f"PseudoNode(axis={self.split_axis}, "
            f"{len(self.priority_leaves)}p+{len(self.subtrees)}s)"
        )


def _snap_to_multiple(value: int, base: int, lo: int, hi: int) -> int:
    """Nearest multiple of ``base`` to ``value`` within [lo, hi]."""
    snapped = max(base, round(value / base) * base)
    return max(lo, min(hi, snapped))


class PseudoPRTree:
    """A pseudo-PR-tree over items, built per the paper's definition.

    Parameters
    ----------
    items:
        ``(Rect, pointer)`` pairs (pointers are opaque to the structure).
    capacity:
        B — the priority-leaf and leaf capacity.
    dim:
        Spatial dimension d (corner space has 2d axes).
    snap_splits:
        Snap kd split positions to multiples of B for near-full leaves
        (the paper's space-utilization refinement).  Disable to get the
        textbook exact-median structure.
    priority_size:
        Capacity of the priority leaves only; defaults to ``capacity``.
        Agarwal et al. [2] "used priority leaves of size one rather than
        B" — the ablation benchmark explores this knob.
    """

    def __init__(
        self,
        items: Sequence[Item],
        capacity: int,
        dim: int | None = None,
        snap_splits: bool = True,
        priority_size: int | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        items = list(items)
        if not items:
            raise ValueError("cannot build a pseudo-PR-tree on no items")
        self.capacity = capacity
        self.priority_size = priority_size if priority_size is not None else capacity
        if self.priority_size < 1:
            raise ValueError("priority_size must be >= 1")
        self.dim = dim if dim is not None else items[0][0].dim
        require_dim((rect for rect, _ in items), self.dim)
        self.snap_splits = snap_splits
        self.size = len(items)
        pointers = _pointer_column(items) if kernels.HAVE_NUMPY else None
        if pointers is None:
            self.root = self._build(items, depth=0)
        else:
            self.root = _TableBuild(self, items, pointers).build(
                np.arange(len(items)), depth=0
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _extract_extreme(
        self, items: list[Item], axis: int
    ) -> tuple[list[Item], list[Item]]:
        """Remove and return the B most extreme items in direction ``axis``.

        Axes 0..d-1 are min-coordinates (most extreme = smallest), axes
        d..2d-1 are max-coordinates (most extreme = largest).
        """
        b = self.priority_size
        reverse = axis >= self.dim
        items.sort(key=lambda item: (item[0].corner_coord(axis), item[1]), reverse=reverse)
        return items[:b], items[b:]

    def _build(self, items: list[Item], depth: int) -> PseudoNode | PseudoLeaf:
        b = self.capacity
        if len(items) <= b:
            return PseudoLeaf(items, kind="normal")

        axes = 2 * self.dim
        priority_leaves: list[PseudoLeaf] = []
        remaining = items
        for axis in range(axes):
            if not remaining:
                break
            extreme, remaining = self._extract_extreme(remaining, axis)
            priority_leaves.append(PseudoLeaf(extreme, kind=f"priority:{axis}"))

        split_axis = depth % axes
        subtrees: list[PseudoNode | PseudoLeaf] = []
        n_rest = len(remaining)
        if n_rest:
            if n_rest <= b:
                subtrees.append(PseudoLeaf(remaining, kind="normal"))
            else:
                remaining.sort(
                    key=lambda item: (item[0].corner_coord(split_axis), item[1])
                )
                half = self._split_size(n_rest)
                # The median split: each side gets at most half the
                # remainder (plus snapping slack), preserving the kd-tree
                # depth argument of Lemma 2.
                subtrees.append(self._build(remaining[:half], depth + 1))
                subtrees.append(self._build(remaining[half:], depth + 1))
        return PseudoNode(priority_leaves, subtrees, split_axis)

    def _split_size(self, n_rest: int) -> int:
        """Rows on the low side of the kd split of ``n_rest`` rows."""
        half = n_rest // 2
        if self.snap_splits:
            half = _snap_to_multiple(half, self.capacity, 1, n_rest - 1)
        return half

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def leaves(self) -> Iterator[PseudoLeaf]:
        """All leaves (priority and normal) — one level of a PR-tree."""
        stack: list[PseudoNode | PseudoLeaf] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, PseudoLeaf):
                yield node
            else:
                stack.extend(node.children)

    def nodes(self) -> Iterator[PseudoNode]:
        """All internal (kd) nodes."""
        stack: list[PseudoNode | PseudoLeaf] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, PseudoNode):
                yield node
                stack.extend(node.subtrees)

    # ------------------------------------------------------------------
    # Querying (the Lemma 2 object of study)
    # ------------------------------------------------------------------

    def query(self, window: Rect) -> tuple[list[Item], "PseudoQueryStats"]:
        """Window query, visiting every child whose box intersects.

        Returns matches and the visit counts Lemma 2 bounds: on N items
        with capacity B, ``leaves_visited`` is O(sqrt(N/B) + T/B) in 2D.
        """
        stats = PseudoQueryStats()
        matches: list[Item] = []
        stack: list[PseudoNode | PseudoLeaf] = []
        if self.root.mbr.intersects(window):
            stack.append(self.root)
        while stack:
            node = stack.pop()
            if isinstance(node, PseudoLeaf):
                stats.leaves_visited += 1
                for rect, pointer in node.items:
                    if rect.intersects(window):
                        matches.append((rect, pointer))
                        stats.reported += 1
            else:
                stats.nodes_visited += 1
                for child in node.children:
                    if child.mbr.intersects(window):
                        stack.append(child)
        return matches, stats

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"PseudoPRTree(size={self.size}, B={self.capacity}, d={self.dim})"


# ----------------------------------------------------------------------
# The same construction on one corner table (numpy backend)
# ----------------------------------------------------------------------


def _pointer_column(items: list[Item]):
    """The pointers as an integer column, or None when a column cannot
    break ties the way the tuple sort does: they are not machine
    integers, or not distinct (equal keys then fall back on the order
    the previous sort left, which only a full sort tracks)."""
    try:
        column = np.asarray([pointer for _, pointer in items])
    except (ValueError, TypeError):
        return None
    if column.ndim != 1 or column.dtype.kind != "i":
        return None
    if len(np.unique(column)) != len(column):
        return None
    return column


def _extreme_mask(column, pointers, k: int, largest: bool):
    """Mask of the ``k`` first rows by ``(column, pointers)``.

    Ascending order, or descending with ``largest``; ``0 < k < n`` and
    the pointers are distinct.  ``argpartition`` settles every row off
    the pivot coordinate; of the rows tied on it, the pointer order
    admits exactly as many as are still missing.
    """
    n = len(column)
    if largest:
        pivot = column[np.argpartition(column, n - k)[n - k]]
        mask = column > pivot
    else:
        pivot = column[np.argpartition(column, k - 1)[k - 1]]
        mask = column < pivot
    tied = np.flatnonzero(column == pivot)
    missing = k - np.count_nonzero(mask)
    if missing < len(tied):
        by_pointer = np.argsort(pointers[tied])
        tied = tied[by_pointer[-missing:] if largest else by_pointer[:missing]]
    mask[tied] = True
    return mask


class _TableBuild:
    """:meth:`PseudoPRTree._build` over row numbers of one corner table."""

    def __init__(self, tree: "PseudoPRTree", items: list[Item], pointers) -> None:
        self.tree = tree
        self.items = items
        self.pointers = pointers
        dim = tree.dim
        self.lo, self.hi = kernels.batch_windows([rect for rect, _ in items], dim)
        #: Corner axis k as a column: ``columns[k][rows]``.
        self.columns = [self.lo[:, k] for k in range(dim)] + [
            self.hi[:, k] for k in range(dim)
        ]

    def _ordered(self, rows, axis: int, descending: bool):
        """``rows`` sorted by ``(corner coordinate, pointer)``."""
        order = np.lexsort((self.pointers[rows], self.columns[axis][rows]))
        return rows[order[::-1] if descending else order]

    def _take(self, rows, axis: int, k: int, largest: bool):
        """Split ``rows`` into its ``k`` extreme rows on ``axis`` (all of
        them when there are no more) and the rest, neither ordered."""
        if len(rows) <= k:
            return rows, rows[:0]
        mask = _extreme_mask(
            self.columns[axis][rows], self.pointers[rows], k, largest
        )
        return rows[mask], rows[~mask]

    def _leaf(self, rows, kind: str) -> PseudoLeaf:
        items = self.items
        return PseudoLeaf.from_tables(
            [items[i] for i in rows.tolist()], kind, self.lo[rows], self.hi[rows]
        )

    def build(self, rows, depth: int, order=None) -> PseudoNode | PseudoLeaf:
        """Subtree on ``rows``.  ``order`` is the ``(axis, descending)``
        sort the scalar construction would hand them over in; it matters
        only if they become one leaf."""
        tree = self.tree
        b = tree.capacity
        if len(rows) <= b:
            if order is not None:
                rows = self._ordered(rows, *order)
            return self._leaf(rows, "normal")

        dim = tree.dim
        axes = 2 * dim
        priority_leaves: list[PseudoLeaf] = []
        for axis in range(axes):
            if not len(rows):
                break
            largest = axis >= dim
            extreme, rows = self._take(rows, axis, tree.priority_size, largest)
            priority_leaves.append(
                self._leaf(
                    self._ordered(extreme, axis, largest), f"priority:{axis}"
                )
            )

        split_axis = depth % axes
        subtrees: list[PseudoNode | PseudoLeaf] = []
        n_rest = len(rows)
        if n_rest:
            if n_rest <= b:
                # Left in the order of the last priority extraction.
                subtrees.append(
                    self._leaf(self._ordered(rows, axes - 1, True), "normal")
                )
            else:
                below, above = self._take(
                    rows, split_axis, tree._split_size(n_rest), False
                )
                subtrees.append(self.build(below, depth + 1, (split_axis, False)))
                subtrees.append(self.build(above, depth + 1, (split_axis, False)))
        return PseudoNode(priority_leaves, subtrees, split_axis)


class PseudoQueryStats:
    """Visit counts for one pseudo-PR-tree query."""

    __slots__ = ("nodes_visited", "leaves_visited", "reported")

    def __init__(self) -> None:
        self.nodes_visited = 0
        self.leaves_visited = 0
        self.reported = 0

    @property
    def total_visited(self) -> int:
        """kd nodes plus leaves touched."""
        return self.nodes_visited + self.leaves_visited

    def __repr__(self) -> str:
        return (
            f"PseudoQueryStats(nodes={self.nodes_visited}, "
            f"leaves={self.leaves_visited}, reported={self.reported})"
        )
