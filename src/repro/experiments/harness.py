"""Shared machinery for the evaluation experiments.

The paper compares four bulk-loaded indexes — H, H4, PR and TGS — under
identical physical assumptions; this module pins those assumptions down
once:

* :data:`QUERY_VARIANTS` / :data:`EXTERNAL_VARIANTS` — the loader
  registries keyed by the paper's names.
* :func:`build_variant` — build any variant on a fresh simulated disk.
* :func:`measure_workload` — run a query workload with internal-node
  caching and report the paper's metric: blocks read divided by the
  output lower bound T/B ("the performance is given as the number of
  blocks read divided by the output size T/B").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.bulk.hilbert import (
    build_hilbert,
    build_hilbert4,
    build_hilbert_external,
    build_hilbert4_external,
)
from repro.bulk.str_pack import build_str
from repro.bulk.tgs import build_tgs, build_tgs_external
from repro.external.memory import MemoryModel
from repro.external.stream import BlockStream
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.gridbuild import build_prtree_external
from repro.prtree.prtree import build_prtree
from repro.bulk.base import BuildStats
from repro.queries.join import SpatialJoinEngine
from repro.queries.knn import KNNEngine
from repro.queries.point import PointQueryEngine
from repro.rtree.query import QueryEngine
from repro.rtree.tree import RTree
from repro.workloads.knn import KNNWorkload
from repro.workloads.queries import QueryWorkload

Dataset = Sequence[tuple[Rect, Any]]

#: In-memory loaders for the query experiments, keyed by paper name.
QUERY_VARIANTS: dict[str, Callable[[BlockStore, Dataset, int], RTree]] = {
    "H": build_hilbert,
    "H4": build_hilbert4,
    "PR": build_prtree,
    "TGS": build_tgs,
}

#: Extra loaders available in ablations (not in the paper's comparison).
EXTRA_VARIANTS: dict[str, Callable[[BlockStore, Dataset, int], RTree]] = {
    "STR": build_str,
}

#: External (I/O-counted) loaders for the bulk-loading experiments.
EXTERNAL_VARIANTS: dict[str, Callable[..., tuple[RTree, BuildStats]]] = {
    "H": build_hilbert_external,
    "H4": build_hilbert4_external,
    "PR": build_prtree_external,
    "TGS": build_tgs_external,
}

#: The order variants appear in result tables, as in the paper's legends.
VARIANT_ORDER = ["H", "H4", "PR", "TGS"]


def build_variant(name: str, data: Dataset, fanout: int) -> RTree:
    """Bulk-load one named variant on a fresh block store."""
    try:
        builder = QUERY_VARIANTS.get(name) or EXTRA_VARIANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown variant {name!r}; choose from "
            f"{sorted(QUERY_VARIANTS | EXTRA_VARIANTS)}"
        ) from None
    return builder(BlockStore(), data, fanout)


def build_variant_external(
    name: str, data: Dataset, fanout: int, memory: MemoryModel
) -> tuple[RTree, BuildStats]:
    """Bulk-load one variant externally, counting I/Os.

    The input is first written to a stream (the "input file on disk",
    excluded from the measured cost exactly as the paper excludes reading
    the TIGER distribution media).
    """
    try:
        builder = EXTERNAL_VARIANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown external variant {name!r}; choose from "
            f"{sorted(EXTERNAL_VARIANTS)}"
        ) from None
    store = BlockStore()
    input_stream = BlockStream.from_records(store, list(data), memory.block_records)
    return builder(store, input_stream, fanout, memory)


@dataclass(frozen=True)
class WorkloadMetrics:
    """Aggregated query-workload measurements for one tree.

    ``cost_ratio`` is the paper's y-axis: total leaf blocks read divided
    by total ⌈T/B⌉-ish output lower bound (computed as T/B exactly, like
    the figures' "number of blocks read divided by the output size T/B").
    """

    queries: int
    leaf_ios: int
    reported: int
    leaf_count: int
    fanout: int

    @property
    def cost_ratio(self) -> float:
        """Leaf I/Os over the output bound T/B (1.0 = unbeatable)."""
        bound = self.reported / self.fanout
        return self.leaf_ios / bound if bound > 0 else float("inf")

    @property
    def avg_ios(self) -> float:
        """Mean leaf I/Os per query."""
        return self.leaf_ios / self.queries if self.queries else 0.0

    @property
    def avg_reported(self) -> float:
        """Mean output size per query."""
        return self.reported / self.queries if self.queries else 0.0

    @property
    def visited_fraction(self) -> float:
        """Mean fraction of all leaves visited per query (Table 1 row)."""
        if not self.queries or not self.leaf_count:
            return 0.0
        return self.leaf_ios / (self.queries * self.leaf_count)


def measure_workload(tree: RTree, workload: QueryWorkload) -> WorkloadMetrics:
    """Run every window in the workload and aggregate the paper metrics.

    A single engine is reused so internal nodes stay cached across
    queries (the paper's setup); reported cost is leaf reads only.
    """
    engine = QueryEngine(tree, cache_internal=True)
    for window in workload:
        engine.query(window)
    totals = engine.totals
    return WorkloadMetrics(
        queries=totals.queries,
        leaf_ios=totals.leaf_reads,
        reported=totals.reported,
        leaf_count=tree.leaf_count(),
        fanout=tree.fanout,
    )


# ----------------------------------------------------------------------
# Operator workloads (repro.queries): kNN, spatial join, point queries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorMetrics:
    """Aggregated per-query measurements for one operator workload.

    Shared by the kNN and point-query measurement loops (``k`` is None
    for operators without a k parameter).
    """

    queries: int
    leaf_ios: int
    internal_reads: int
    reported: int
    leaf_count: int
    k: int | None = None

    @property
    def avg_ios(self) -> float:
        """Mean leaf I/Os per query."""
        return self.leaf_ios / self.queries if self.queries else 0.0

    @property
    def visited_fraction(self) -> float:
        """Mean fraction of all leaves read per query."""
        if not self.queries or not self.leaf_count:
            return 0.0
        return self.leaf_ios / (self.queries * self.leaf_count)


def _operator_metrics(engine, tree: RTree, k: int | None = None) -> OperatorMetrics:
    """Collect a warm-cache engine's totals into :class:`OperatorMetrics`."""
    totals = engine.totals
    return OperatorMetrics(
        queries=totals.queries,
        leaf_ios=totals.leaf_reads,
        internal_reads=totals.internal_reads,
        reported=totals.reported,
        leaf_count=tree.leaf_count(),
        k=k,
    )


def measure_knn_workload(tree: RTree, workload: KNNWorkload) -> OperatorMetrics:
    """Run every kNN query in the workload on a shared warm-cache engine."""
    engine = KNNEngine(tree, cache_internal=True)
    for point in workload:
        engine.knn(point, workload.k)
    return _operator_metrics(engine, tree, k=workload.k)


@dataclass(frozen=True)
class JoinMetrics:
    """Measurements for one spatial join between two trees."""

    pairs: int
    leaf_ios_left: int
    leaf_ios_right: int
    internal_reads: int
    node_pairs: int
    leaf_count_left: int
    leaf_count_right: int

    @property
    def leaf_ios(self) -> int:
        """Total leaf reads, both trees (the paper-convention cost)."""
        return self.leaf_ios_left + self.leaf_ios_right

    @property
    def ios_per_pair(self) -> float:
        """Leaf reads per reported pair (∞ for an empty join)."""
        return self.leaf_ios / self.pairs if self.pairs else float("inf")


def measure_join(left: RTree, right: RTree) -> JoinMetrics:
    """Run one synchronized-traversal join and collect its costs."""
    engine = SpatialJoinEngine(left, right, cache_internal=True)
    pairs, stats = engine.join()
    return JoinMetrics(
        pairs=len(pairs),
        leaf_ios_left=stats.left.leaf_reads,
        leaf_ios_right=stats.right.leaf_reads,
        internal_reads=stats.left.internal_reads + stats.right.internal_reads,
        node_pairs=stats.node_pairs,
        leaf_count_left=left.leaf_count(),
        leaf_count_right=right.leaf_count(),
    )


def measure_point_workload(
    tree: RTree, points: Sequence[Sequence[float]]
) -> OperatorMetrics:
    """Run a batch of stabbing queries on a shared warm-cache engine."""
    engine = PointQueryEngine(tree, cache_internal=True)
    for point in points:
        engine.point_query(point)
    return _operator_metrics(engine, tree)
