"""Shared I/O-accounted traversal plumbing for every query operator.

The window engine established the accounting convention this package
follows: internal nodes are served from the tree's pinned level table
(the paper caches "all internal nodes since they never occupied more
than 6MB", footnote 5), each costing one counted read the first time an
engine visits it, while every leaf access hits the store and is counted
individually.  Reported query cost is therefore the number of *leaf*
blocks read, with those first-visit internal reads tracked separately.

The implementation lives in :mod:`repro.rtree.query` as
:class:`~repro.rtree.query.TraversalEngine`, which both the window
engine and every operator engine here — kNN, spatial join,
point/containment/count — derive from, so all of them count I/O through
the identical code path and their numbers are directly comparable.  The
engines work on any :class:`~repro.rtree.tree.RTree` handle regardless
of how it was built: a PR-tree, a packed Hilbert tree and a TGS tree are
all just block-resident R-trees, queried "exactly as on an R-tree"
(paper Section 2.2).
"""

from repro.rtree.query import Matches, QueryStats, TraversalEngine

__all__ = ["TraversalEngine", "QueryStats", "Matches"]
