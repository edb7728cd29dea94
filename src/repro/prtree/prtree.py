"""The PR-tree: a real R-tree from pseudo-PR-trees (paper Section 2.2).

"The PR-tree is built in stages bottom-up: In stage 0 we construct the
leaves V_0 of the tree from the set S_0 = S of N input rectangles; in
stage i ≥ 1 we construct the nodes V_i on level i of the tree from a set
S_i of O(N/B^i) rectangles, consisting of the minimal bounding boxes of
all nodes in V_{i-1}.  Stage i consists of constructing a pseudo-PR-tree
T_{S_i} on S_i; V_i then simply consists of the (priority as well as
normal) leaves of T_{S_i}; the internal nodes are discarded.  The
bottom-up construction ends when the set S_i is small enough so that the
rectangles in S_i and the pointers to the corresponding subtrees fit into
one block, which is then the root of the PR-tree."

The result has all leaves on one level and fan-out Θ(B), is queried by the
standard engine, and inherits the pseudo-PR-tree's query bound
(Theorem 1): O((N/B)^(1-1/d) + T/B) I/Os per window query.

Each stage's pseudo-PR-tree is built on one corner table
(:mod:`repro.prtree.pseudo` says how, and how ties are resolved), and a
pseudo-leaf becomes its node with the rows it was cut from attached as
the node's frame (:meth:`~repro.prtree.pseudo.PseudoLeaf.node`), so
neither the loader nor a later ``pack_tree`` converts a node between its
entry list and its coordinate tables.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.bulk.base import require_dim
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.pseudo import Item, PseudoPRTree
from repro.rtree.node import Node
from repro.rtree.tree import RTree


def build_prtree(
    store: BlockStore,
    data: Sequence[tuple[Rect, Any]],
    fanout: int,
    snap_splits: bool = True,
    priority_size: int | None = None,
) -> RTree:
    """Bulk-load a PR-tree (in-memory construction).

    Parameters
    ----------
    store:
        Block store receiving one block per node.
    data:
        ``(Rect, value)`` pairs to index.
    fanout:
        B — node capacity (and pseudo-tree leaf/priority-leaf capacity).
    snap_splits:
        Snap kd splits to multiples of B for near-full leaves (paper's
        space-utilization refinement); the ablation benches toggle this.
    priority_size:
        Override the priority-leaf capacity (defaults to ``fanout``).
        Setting it to 1 recovers the structure of Agarwal et al. [2],
        which the ablation benchmark compares against; it needs
        ``fanout > 2 * dim`` (``ValueError`` otherwise).

    Footnote 3 of the paper notes the leaf and internal fan-outs may
    differ by a constant; this implementation uses the same B for both,
    which the paper says "does not matter" for the analysis.
    """
    dim = data[0][0].dim if data else 2
    if priority_size == 1 and fanout <= 2 * dim:
        # fanout + 1 entries become 2d singleton priority leaves plus
        # the rest: as many nodes as entries, at every later stage too.
        raise ValueError(
            f"priority_size=1 needs fanout > 2 * dim = {2 * dim}, got "
            f"fanout={fanout}: the stages would stop shrinking"
        )
    tree = RTree(store, root_id=-1, dim=dim, fanout=fanout, height=1, size=len(data))
    require_dim((rect for rect, _ in data), dim)
    items: list[Item] = [(rect, tree.register_object(value)) for rect, value in data]
    if not items:
        tree.root_id = store.allocate(Node(is_leaf=True))
        return tree

    # Stage 0 packs data rectangles into leaves; stages i > 0 pack the
    # previous level's (mbr, block_id) entries into internal nodes.
    level_items = items
    is_leaf = True
    height = 1
    while len(level_items) > fanout:
        pseudo = PseudoPRTree(
            level_items,
            capacity=fanout,
            dim=dim,
            snap_splits=snap_splits,
            priority_size=priority_size,
        )
        next_level: list[Item] = []
        for leaf in pseudo.leaves():
            next_level.append((leaf.mbr, store.allocate(leaf.node(is_leaf))))
        level_items = next_level
        is_leaf = False
        height += 1

    tree.root_id = store.allocate(Node(is_leaf, list(level_items)))
    tree.height = height
    return tree


def prtree_query_bound(
    n: int, fanout: int, reported: int, dim: int = 2, constant: float = 6.0
) -> float:
    """The Theorem 2 bound: ``c·((N/B)^(1-1/d) + T/B)`` leaf visits.

    Used by tests and the Theorem-3 benchmark to assert the PR-tree's
    measured query cost stays within a constant of optimal while the
    heuristic R-trees blow up to Θ(N/B).  The default constant absorbs
    the 2d priority-leaf factor and the kd-tree constants of Lemma 2.
    """
    leaves = max(1.0, n / fanout)
    return constant * (leaves ** (1.0 - 1.0 / dim) + reported / fanout + 1.0)


def stage_sets(
    data: Sequence[tuple[Rect, Any]], fanout: int, dim: int = 2
) -> list[int]:
    """Sizes |S_i| of the bottom-up stages for a dataset of this size.

    Diagnostic helper mirroring the proof of Theorem 1: |S_i| shrinks by
    a factor Θ(B) per stage, which is why construction totals
    O((N/B) log_{M/B} (N/B)) I/Os.
    """
    sizes = []
    n = len(data)
    while n > fanout:
        sizes.append(n)
        n = math.ceil(n / fanout)
    sizes.append(n)
    return sizes
