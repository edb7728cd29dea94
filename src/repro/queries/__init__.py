"""Query operators beyond the paper's window query.

The paper evaluates its trees on one operation — the window query — but
every tree in this reproduction is an ordinary block-resident R-tree
(the PR-tree is queried "exactly as on an R-tree"), so the classic
R-tree query repertoire applies unchanged.  This package supplies it:

* :mod:`repro.queries.knn` — best-first k-nearest-neighbor search with
  an incremental ``nearest()`` iterator (Hjaltason & Samet); ``knn()``
  returns the columnar :class:`~repro.queries.knn.Neighbors`.
* :mod:`repro.queries.join` — intersection spatial join by synchronized
  dual-tree traversal (Brinkhoff et al.); ``join()`` returns the
  columnar :class:`~repro.queries.join.JoinPairs`.
* :mod:`repro.queries.point` — point (stabbing), containment and count
  queries.

All engines derive from :class:`repro.queries.base.TraversalEngine` and
report I/O with the window engine's convention (leaf reads counted,
internal nodes read from the tree's pinned level table, one counted read
each per engine), so operator costs are directly comparable
with the paper's figures.
"""

from repro.queries.base import TraversalEngine
from repro.queries.knn import KNNEngine, Neighbor, Neighbors, brute_force_knn, knn
from repro.queries.join import (
    JoinPairs,
    JoinStats,
    SpatialJoinEngine,
    brute_force_join,
    spatial_join,
)
from repro.queries.point import (
    PointQueryEngine,
    brute_force_containment,
    brute_force_point_query,
    containment_query,
    count_query,
    point_query,
)

__all__ = [
    "TraversalEngine",
    "KNNEngine",
    "Neighbor",
    "Neighbors",
    "knn",
    "brute_force_knn",
    "JoinPairs",
    "JoinStats",
    "SpatialJoinEngine",
    "spatial_join",
    "brute_force_join",
    "PointQueryEngine",
    "point_query",
    "containment_query",
    "count_query",
    "brute_force_point_query",
    "brute_force_containment",
]
