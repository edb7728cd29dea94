"""repro — a reproduction of the Priority R-tree (Arge, de Berg, Haverkort, Yi; SIGMOD 2004).

The package implements the paper's contribution (the PR-tree and
pseudo-PR-tree), every baseline it evaluates against (packed Hilbert,
four-dimensional Hilbert, TGS, plus STR), and the substrate the
experiments run on (a simulated block disk with I/O accounting and
external-memory primitives).

Quickstart
----------
>>> from repro import Rect, BlockStore, build_prtree, QueryEngine
>>> store = BlockStore()
>>> data = [(Rect((i, i), (i + 1.0, i + 1.0)), f"box{i}") for i in range(100)]
>>> tree = build_prtree(store, data, fanout=8)
>>> engine = QueryEngine(tree)
>>> matches, stats = engine.query(Rect((0, 0), (3.5, 3.5)))
>>> sorted(value for _, value in matches)
['box0', 'box1', 'box2', 'box3']

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure and table.
"""

from repro.geometry.rect import Rect, mbr_of, point_rect
from repro.geometry.hilbert import hilbert_index, hilbert_point
from repro.iomodel.blockstore import BlockStore
from repro.iomodel.counters import IOCounters, IOSnapshot, TimeModel
from repro.iomodel.codec import NodeCodec, fanout_for_block
from repro.external.memory import MemoryModel
from repro.external.stream import BlockStream, StreamWriter
from repro.external.sort import external_sort
from repro.rtree.tree import RTree
from repro.rtree.node import Node
from repro.rtree.query import Matches, QueryEngine, QueryStats
from repro.rtree.update import insert, delete
from repro.rtree.rstar import rstar_insert, rstar_split
from repro.rtree.validate import validate_rtree, utilization
from repro.bulk.hilbert import build_hilbert, build_hilbert4
from repro.bulk.tgs import build_tgs
from repro.bulk.str_pack import build_str
from repro.prtree.pseudo import PseudoPRTree
from repro.prtree.prtree import build_prtree, prtree_query_bound
from repro.prtree.gridbuild import build_prtree_external
from repro.prtree.logmethod import LogMethodPRTree
from repro.queries.knn import KNNEngine, Neighbor, Neighbors, knn
from repro.queries.join import JoinPairs, SpatialJoinEngine, spatial_join
from repro.queries.point import (
    PointQueryEngine,
    containment_query,
    count_query,
    point_query,
)
from repro.storage import FileBlockStore, PagedTree, pack_tree
from repro.server import (
    BatchReport,
    ContainmentRequest,
    CountRequest,
    DeleteRequest,
    InsertRequest,
    JoinRequest,
    KNNRequest,
    PointRequest,
    QueryServer,
    WindowRequest,
)

__version__ = "1.0.0"

__all__ = [
    "Rect",
    "mbr_of",
    "point_rect",
    "hilbert_index",
    "hilbert_point",
    "BlockStore",
    "IOCounters",
    "IOSnapshot",
    "TimeModel",
    "NodeCodec",
    "fanout_for_block",
    "MemoryModel",
    "BlockStream",
    "StreamWriter",
    "external_sort",
    "RTree",
    "Node",
    "QueryEngine",
    "QueryStats",
    "Matches",
    "insert",
    "delete",
    "rstar_insert",
    "rstar_split",
    "validate_rtree",
    "utilization",
    "build_hilbert",
    "build_hilbert4",
    "build_tgs",
    "build_str",
    "PseudoPRTree",
    "build_prtree",
    "prtree_query_bound",
    "build_prtree_external",
    "LogMethodPRTree",
    "KNNEngine",
    "Neighbor",
    "Neighbors",
    "knn",
    "JoinPairs",
    "SpatialJoinEngine",
    "spatial_join",
    "PointQueryEngine",
    "point_query",
    "containment_query",
    "count_query",
    "FileBlockStore",
    "PagedTree",
    "pack_tree",
    "QueryServer",
    "BatchReport",
    "WindowRequest",
    "ContainmentRequest",
    "CountRequest",
    "PointRequest",
    "KNNRequest",
    "JoinRequest",
    "InsertRequest",
    "DeleteRequest",
]
