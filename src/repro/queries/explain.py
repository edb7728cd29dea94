"""Per-query EXPLAIN: plan capture for every operator.

An opt-in :class:`PlanRecorder` threads through
:class:`~repro.rtree.query.TraversalEngine` — the level descent and the
node-at-a-time ``_frame`` path every operator (window/point-family, kNN,
join) counts I/O through — and attributes each visited node to its tree
level (the root is level 0; an internal node at level L registers its
children at L+1, and a parent is always recorded before its children
within one query).  The
result is a :class:`QueryPlan`: per-level nodes visited, entries
examined, entries matched (the rest were pruned by the node's MBR
test), physical page reads, plus the query's logical I/O split and a
**pruning efficiency** — the paper's leaf-I/O lower bound
``ceil(T/B)`` (Section 1.1's Θ(N/B) query bound's output term) over
the leaf reads actually paid, so 1.0 means the traversal read only
leaves that were required to report the answer.

Recording is per-engine and explicitly installed/uninstalled by the
server around one request; the disabled path costs one attribute load
and branch per node.  A shard family is one tree to the engines
(:class:`~repro.storage.shard.ShardedTree`), so its plan is a tree's:
the family root and the pass-through rows above a shorter shard are
virtual and never a plan node, so level 0 is the root's children and
every leaf sits on the deepest level.  A one-shard family's plan is its
file's.

``repro status --explain`` renders plans as an indented tree;
:meth:`QueryPlan.summary` is the compact one-liner the
:class:`~repro.obs.slowlog.SlowQueryLog` attaches to slow entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.queries.join import SpatialJoinEngine

__all__ = [
    "LevelPlan",
    "QueryPlan",
    "JoinPlan",
    "PlanRecorder",
    "install",
    "uninstall",
]


@dataclass(frozen=True)
class LevelPlan:
    """What one traversal did at one tree level (0 = root)."""

    level: int
    nodes: int              #: nodes visited
    entries: int            #: entries examined (all rows of each node)
    matched: int            #: entries the query predicate kept
    physical_reads: int     #: page-cache misses attributed to this level
    leaf: bool

    @property
    def pruned(self) -> int:
        """Entries the node-level predicate eliminated."""
        return max(0, self.entries - self.matched)


@dataclass(frozen=True)
class QueryPlan:
    """One query's captured plan over a single tree."""

    kind: str
    height: int
    fanout: int
    levels: tuple[LevelPlan, ...]
    leaf_reads: int
    internal_reads: int
    internal_visits: int
    reported: int
    physical_reads: int

    @property
    def nodes_visited(self) -> int:
        return sum(l.nodes for l in self.levels)

    @property
    def entries_examined(self) -> int:
        return sum(l.entries for l in self.levels)

    @property
    def entries_pruned(self) -> int:
        return sum(l.pruned for l in self.levels)

    @property
    def leaf_lower_bound(self) -> int:
        """Fewest leaf reads that could report this answer: ceil(T/B)."""
        if self.reported <= 0:
            return 0
        return math.ceil(self.reported / max(1, self.fanout))

    @property
    def pruning_efficiency(self) -> float:
        """Leaf-I/O lower bound over leaf reads paid (1.0 = optimal).

        Both zero (an empty answer found without touching a leaf) is
        optimal by convention.
        """
        if self.leaf_reads <= 0:
            return 1.0
        return self.leaf_lower_bound / self.leaf_reads

    def summary(self) -> str:
        """The compact form slow-query log entries carry."""
        return (
            f"nodes={self.nodes_visited} leaf_ios={self.leaf_reads} "
            f"pruned={self.entries_pruned}/{self.entries_examined} "
            f"eff={self.pruning_efficiency:.2f}"
        )

    def render(self) -> str:
        """The indented plan tree ``repro status --explain`` prints."""
        lines = [
            f"plan: {self.kind}  height={self.height}  fanout={self.fanout}"
        ]
        for lvl in self.levels:
            label = "leaf" if lvl.leaf else ("root" if lvl.level == 0 else "internal")
            lines.append(
                f"{'  ' * (lvl.level + 1)}L{lvl.level} {label:<8} "
                f"nodes={lvl.nodes:<5} entries={lvl.entries:<7} "
                f"matched={lvl.matched:<7} pruned={lvl.pruned:<7} "
                f"physical={lvl.physical_reads}"
            )
        lines.append(
            f"  leaf I/O={self.leaf_reads} (lower bound "
            f"{self.leaf_lower_bound}, pruning efficiency "
            f"{self.pruning_efficiency:.2f})  internal reads="
            f"{self.internal_reads} visits={self.internal_visits}  "
            f"physical={self.physical_reads}  reported={self.reported}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class JoinPlan:
    """A spatial join's plan: one sub-plan per input tree."""

    kind: str
    left: QueryPlan
    right: QueryPlan
    pairs: int

    @property
    def nodes_visited(self) -> int:
        return self.left.nodes_visited + self.right.nodes_visited

    @property
    def pruning_efficiency(self) -> float:
        return min(
            self.left.pruning_efficiency, self.right.pruning_efficiency
        )

    def summary(self) -> str:
        return (
            f"nodes={self.nodes_visited} pairs={self.pairs} "
            f"eff={self.pruning_efficiency:.2f}"
        )

    def render(self) -> str:
        return "\n".join(
            [
                f"plan: {self.kind}  pairs={self.pairs}",
                "left:",
                self.left.render(),
                "right:",
                self.right.render(),
            ]
        )


class _LevelAcc:
    __slots__ = ("nodes", "entries", "matched", "physical", "leaf")

    def __init__(self) -> None:
        self.nodes = 0
        self.entries = 0
        self.matched = 0
        self.physical = 0
        self.leaf = False


class PlanRecorder:
    """Collects one engine's per-level traversal while installed.

    Level attribution needs no per-node tree metadata: the root is
    seeded at level 0 and every visited internal node registers its
    children one level down before any of them can be read.
    """

    def __init__(self, tree) -> None:
        self.tree = tree
        # A family's root is virtual: its children are level 0.
        self._level = {tree.root_id: -1 if tree.root_id < 0 else 0}
        self._acc: dict[int, _LevelAcc] = {}

    def on_node(self, block_id: int, frame, physical: int) -> None:
        """Called by the engines for every node a query visits.  A
        virtual node (negative id: a family's root or pass-through row)
        only places its children."""
        level = self._level.get(block_id, 0)
        if block_id < 0:
            for child in frame.ptrs.tolist():
                self._level[child] = level + 1
            return
        acc = self._acc.get(level)
        if acc is None:
            acc = self._acc[level] = _LevelAcc()
        n = len(frame)
        acc.nodes += 1
        acc.entries += n
        acc.physical += physical
        if frame.is_leaf:
            acc.leaf = True
        else:
            child_level = level + 1
            ptrs = frame.ptrs
            levels = self._level
            for i in range(n):
                levels[int(ptrs[i])] = child_level

    def note_matched(self, block_id: int, count: int) -> None:
        """Entries of ``block_id`` the operator's predicate kept."""
        if block_id < 0:
            return
        acc = self._acc.get(self._level.get(block_id, 0))
        if acc is not None:
            acc.matched += count

    def plan(self, kind: str, stats, reported: int | None = None) -> QueryPlan:
        """Freeze the recording into a :class:`QueryPlan`.

        ``stats`` is the operator's :class:`~repro.rtree.query.QueryStats`
        for the recorded query (or accumulated queries); ``reported``
        overrides its output count when the operator tracks output
        elsewhere (the join's pair count lives on ``JoinStats``).
        """
        levels = tuple(
            LevelPlan(
                level=level,
                nodes=acc.nodes,
                entries=acc.entries,
                matched=min(acc.matched, acc.entries),
                physical_reads=acc.physical,
                leaf=acc.leaf,
            )
            for level, acc in sorted(self._acc.items())
        )
        return QueryPlan(
            kind=kind,
            height=self.tree.height,
            fanout=self.tree.fanout,
            levels=levels,
            leaf_reads=stats.leaf_reads,
            internal_reads=stats.internal_reads,
            internal_visits=stats.internal_visits,
            reported=stats.reported if reported is None else reported,
            physical_reads=sum(l.physical_reads for l in levels),
        )


def install(engine):
    """Arm plan capture on ``engine`` for the next executed query.

    Returns the recorder handle to pass to :func:`uninstall` — a
    single :class:`PlanRecorder` for ``TraversalEngine`` subclasses (on
    a tree or a shard family alike), or a ``(left, right)`` recorder
    pair for the spatial join.
    """
    if isinstance(engine, SpatialJoinEngine):
        left, right = engine._left, engine._right
        pair = (PlanRecorder(left.tree), PlanRecorder(right.tree))
        left._recorder, right._recorder = pair
        return pair
    recorder = PlanRecorder(engine.tree)
    engine._recorder = recorder
    return recorder


def uninstall(engine, recorder, kind: str, stats):
    """Disarm capture and build the plan for the executed request.

    ``stats`` is whatever the operator returned —
    :class:`~repro.rtree.query.QueryStats` or a join's ``JoinStats``.
    Returns a :class:`QueryPlan`, :class:`JoinPlan`, or None when
    ``recorder`` is None.
    """
    if recorder is None:
        return None
    if isinstance(recorder, tuple):
        left_rec, right_rec = recorder
        engine._left._recorder = None
        engine._right._recorder = None
        pairs = getattr(stats, "pairs", 0)
        # Each side's output term is the join's pair count: the leaf-I/O
        # lower bound of reporting T pairs is ceil(T/B) per tree.
        return JoinPlan(
            kind=kind,
            left=left_rec.plan("join:left", stats.left, reported=pairs),
            right=right_rec.plan("join:right", stats.right, reported=pairs),
            pairs=pairs,
        )
    engine._recorder = None
    return recorder.plan(kind, stats)
