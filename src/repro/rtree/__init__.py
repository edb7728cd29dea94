"""The disk-resident R-tree all index variants share.

Every bulk loader in this reproduction — packed Hilbert, four-dimensional
Hilbert, TGS, STR, and the PR-tree itself — produces the same structure: an
:class:`~repro.rtree.tree.RTree` whose nodes live one-per-block in a
:class:`~repro.iomodel.blockstore.BlockStore`.  Queries, update algorithms,
validation and all experiment measurements therefore apply uniformly, which
is what makes the paper's cross-variant comparisons meaningful.

Contents:

* :mod:`repro.rtree.node` — the node payload (leaf flag + one coordinate-table frame).
* :mod:`repro.rtree.tree` — the tree handle: root pointer, fan-out,
  object table, convenience queries.
* :mod:`repro.rtree.query` — the window-query engine with the paper's
  I/O accounting (internal nodes cached, leaf reads counted).
* :mod:`repro.rtree.split` — Guttman's linear and quadratic node splits.
* :mod:`repro.rtree.update` — standard R-tree insert/delete ("after
  bulk-loading, a PR-tree can be updated in O(log_B N) I/Os using the
  standard R-tree updating algorithms").
* :mod:`repro.rtree.validate` — structural invariant checks and space
  utilization statistics.
"""

from repro.rtree.node import Node, Entry
from repro.rtree.tree import RTree
from repro.rtree.query import QueryEngine, QueryStats
from repro.rtree.update import insert, delete
from repro.rtree.validate import validate_rtree, utilization, RTreeInvariantError

__all__ = [
    "Node",
    "Entry",
    "RTree",
    "QueryEngine",
    "QueryStats",
    "insert",
    "delete",
    "validate_rtree",
    "utilization",
    "RTreeInvariantError",
]
