"""Tree-quality analytics and the index degradation score.

The paper's whole argument is structural: bulk loaders differ in the
MBR overlap, dead space and occupancy they leave behind, and those
properties — not the data — determine query I/O.  This module turns
"how structurally degraded is this index?" into one cache-neutral
peek-walk over the tree (``quiet_peek``: no counters, no cache
perturbation, no ghost-LRU noise) that aggregates per level:

* **occupancy** — entries per node over the fan-out (splits and
  condense-tree leave half-full nodes behind);
* **overlap** — pairwise intersection area of sibling child MBRs in
  directory nodes (the multi-path-descent driver);
* **dead space** — directory MBR area not covered by the sum of its
  children's areas (a lower-bound proxy: overlapping children can hide
  dead space it does not see);
* **perimeter** — mean directory-MBR margin (the R*-tree's "prefer
  squares" signal);

plus store **fragmentation** (freelist + pending-reclaim blocks over
every block ever allocated) and tree height.

:func:`quality_baseline` compresses a fresh pack's
:class:`TreeQuality` into a tiny JSON blob that
:func:`~repro.storage.paged.pack_tree` / ``shard_pack`` record in the
index descriptor / shard manifest; :func:`degradation_score` then
folds the live tree's *relative* drift from that baseline into one
normalized number — 0.0 for the freshly packed index, growing as
updates erode it.  It is the trigger input the ROADMAP's
degradation-triggered re-pack needs: cheap (one walk, no queries),
monotone under structural decay, and comparable across index sizes.

Per-node sums run on the frame's coordinate tables through
:mod:`repro.geometry.kernels` — the sibling-overlap term is O(B^2) per
node and was most of ``pack_tree``'s time as an interpreter loop.  Every
kernel adds its terms one at a time in entry order (pairs in row-major
``i < j`` order), so each field is the float the entry-at-a-time walk
kept as the oracle in ``tests/unit/test_health.py`` produces, under
either kernel backend: stored baselines do not move.

This module deliberately imports nothing from :mod:`repro.storage`
(which imports :mod:`repro.obs`): trees, stores and shard families are
duck-typed via the attributes they expose.
"""

from __future__ import annotations

import json
import math
from typing import Sequence
from dataclasses import dataclass

from repro.geometry import kernels

__all__ = [
    "LevelQuality",
    "TreeQuality",
    "tree_quality",
    "index_quality",
    "family_quality",
    "quality_baseline",
    "encode_baseline",
    "decode_baseline",
    "degradation_score",
    "DEGRADATION_WEIGHTS",
]

#: Relative-drift weights of :func:`degradation_score` (they sum to 1.0
#: for a single tree; ``imb`` only contributes for sharded families).
DEGRADATION_WEIGHTS = {
    "occ": 0.35,   # leaf occupancy drop
    "ovr": 0.25,   # directory overlap growth
    "dead": 0.15,  # directory dead-space growth
    "frag": 0.10,  # store fragmentation growth
    "height": 0.10,  # tree height growth
    "per": 0.05,   # mean directory margin growth
    "imb": 0.05,   # per-shard size imbalance growth (families only)
}

#: Floor for relative-growth denominators: a freshly packed index can
#: legitimately have ~zero overlap/dead space, and dividing drift by
#: that would explode the score.
_RATIO_FLOOR = 0.01


@dataclass(frozen=True)
class LevelQuality:
    """Aggregated structural quality of one tree level (0 = root)."""

    level: int
    nodes: int
    entries: int
    occupancy: float      #: entries / (nodes * fanout)
    area: float           #: sum of entry-MBR areas
    overlap: float        #: sum of pairwise sibling-entry intersections
    dead: float           #: sum of max(0, node area - covered area)
    perimeter: float      #: sum of entry-MBR margins
    leaf: bool


@dataclass(frozen=True)
class TreeQuality:
    """One quiet walk's structural summary of a (paged) R-tree."""

    height: int
    size: int
    fanout: int
    nodes: int
    levels: tuple[LevelQuality, ...]
    leaf_occupancy: float    #: leaf entries / (leaf nodes * fanout)
    overlap_ratio: float     #: directory overlap / directory entry area
    dead_ratio: float        #: directory dead space / directory node area
    mean_margin: float       #: mean directory-entry margin
    free_blocks: int         #: freelist slots (allocated_ever - live)
    pending_reclaim: int     #: blocks awaiting epoch-safe reclamation
    fragmentation: float     #: (free + pending) / allocated_ever
    shard_sizes: tuple[int, ...] = ()

    @property
    def imbalance(self) -> float:
        """Population coefficient of variation of per-shard sizes."""
        sizes = self.shard_sizes
        if len(sizes) < 2:
            return 0.0
        mean = sum(sizes) / len(sizes)
        if mean <= 0:
            return 0.0
        var = sum((s - mean) ** 2 for s in sizes) / len(sizes)
        return math.sqrt(var) / mean


class _LevelAcc:
    __slots__ = ("nodes", "entries", "area", "overlap", "dead", "perimeter", "leaf")

    def __init__(self) -> None:
        self.nodes = 0
        self.entries = 0
        self.area = 0.0
        self.overlap = 0.0
        self.dead = 0.0
        self.perimeter = 0.0
        self.leaf = False


def _quiet_reader(store):
    """The most side-effect-free node reader the store offers.

    :class:`~repro.storage.paged.PagedNodeStore` exposes ``quiet_peek``
    (no stats, no tracker, no MRU pin); the in-memory block store's
    ``peek`` is already silent.
    """
    return getattr(store, "quiet_peek", None) or store.peek


def tree_quality(tree) -> TreeQuality:
    """Compute the structural quality of one tree by a quiet peek-walk.

    Accepts any :class:`~repro.rtree.tree.RTree`-shaped object — the
    in-memory trees the bulk loaders build and
    :class:`~repro.storage.paged.PagedTree` handles alike.  The walk
    reads via the quiet peek path only, so neither
    :class:`~repro.storage.paged.PageCacheStats` nor the ghost-LRU
    tracker move, and deterministically: node order never affects the
    per-level sums.
    """
    read = _quiet_reader(tree.store)
    fanout = tree.fanout
    levels: dict[int, _LevelAcc] = {}
    stack: list[tuple[int, int]] = [(tree.root_id, 0)]
    while stack:
        block_id, level = stack.pop()
        frame = read(block_id).frame()
        acc = levels.get(level)
        if acc is None:
            acc = levels[level] = _LevelAcc()
        n = len(frame)
        acc.nodes += 1
        acc.entries += n
        acc.leaf = bool(frame.is_leaf)
        lo, hi = frame.lo, frame.hi
        covered = 0.0
        for entry_area in kernels.frame_areas(lo, hi):
            covered += entry_area
        for margin in kernels.frame_margins(lo, hi):
            acc.perimeter += margin
        acc.area += covered
        if n:
            dead = kernels.area(*kernels.frame_mbr(lo, hi)) - covered
            if dead > 0.0:
                acc.dead += dead
        acc.overlap = kernels.frame_overlap_sum(lo, hi, acc.overlap)
        if not frame.is_leaf:
            child_level = level + 1
            for i in range(n):
                stack.append((int(frame.ptrs[i]), child_level))

    out = tuple(
        LevelQuality(
            level=level,
            nodes=acc.nodes,
            entries=acc.entries,
            occupancy=acc.entries / max(1, acc.nodes * fanout),
            area=acc.area,
            overlap=acc.overlap,
            dead=acc.dead,
            perimeter=acc.perimeter,
            leaf=acc.leaf,
        )
        for level, acc in sorted(levels.items())
    )
    leaf_levels = [l for l in out if l.leaf]
    dir_levels = [l for l in out if not l.leaf]
    leaf_entries = sum(l.entries for l in leaf_levels)
    leaf_slots = sum(l.nodes for l in leaf_levels) * fanout
    dir_entries = sum(l.entries for l in dir_levels)
    dir_area = sum(l.area for l in dir_levels)
    dir_overlap = sum(l.overlap for l in dir_levels)
    dir_dead = sum(l.dead for l in dir_levels)
    dir_perimeter = sum(l.perimeter for l in dir_levels)

    free_blocks, pending, frag = _store_fragmentation(tree.store)
    return TreeQuality(
        height=tree.height,
        size=tree.size,
        fanout=fanout,
        nodes=sum(l.nodes for l in out),
        levels=out,
        leaf_occupancy=leaf_entries / max(1, leaf_slots),
        overlap_ratio=dir_overlap / dir_area if dir_area > 0.0 else 0.0,
        dead_ratio=dir_dead / dir_area if dir_area > 0.0 else 0.0,
        mean_margin=dir_perimeter / dir_entries if dir_entries else 0.0,
        free_blocks=free_blocks,
        pending_reclaim=pending,
        fragmentation=frag,
    )


def _store_fragmentation(store) -> tuple[int, int, float]:
    """Freelist/pending-reclaim occupancy of the store behind a tree.

    Duck-typed: a :class:`~repro.storage.paged.PagedNodeStore` fronts a
    :class:`~repro.storage.filestore.FileBlockStore` with
    ``allocated_ever`` and ``pending_reclaim``; in-memory stores report
    zero fragmentation.
    """
    file_store = getattr(store, "file_store", None)
    target = file_store if file_store is not None else store
    allocated = getattr(target, "allocated_ever", None)
    if allocated is None or allocated <= 0:
        return 0, 0, 0.0
    live = len(target)
    free = max(0, allocated - live)
    pending = len(getattr(target, "pending_reclaim", ()))
    return free, pending, (free + pending) / allocated


def index_quality(index) -> tuple[TreeQuality, tuple[TreeQuality, ...]]:
    """Quality of a single tree *or* a sharded family.

    Returns ``(aggregate, per_shard)``; for a single tree the aggregate
    is its own quality and ``per_shard`` is empty.  A family (an object
    with a ``shards`` sequence of trees) aggregates per-level sums over
    all shards and carries the per-shard sizes for the imbalance term.
    """
    shards = getattr(index, "shards", None)
    if not shards:
        return tree_quality(index), ()
    per_shard = tuple(tree_quality(shard) for shard in shards)
    return family_quality(per_shard), per_shard


def family_quality(per_shard: Sequence[TreeQuality]) -> TreeQuality:
    """Merge per-shard qualities into one family-level aggregate."""
    fanout = per_shard[0].fanout
    # Align shard levels by distance from the leaves so equally deep
    # structure merges together even when shard heights differ.
    merged: dict[int, _LevelAcc] = {}
    for quality in per_shard:
        for lvl in quality.levels:
            from_leaf = (quality.height - 1) - lvl.level
            acc = merged.get(from_leaf)
            if acc is None:
                acc = merged[from_leaf] = _LevelAcc()
            acc.nodes += lvl.nodes
            acc.entries += lvl.entries
            acc.area += lvl.area
            acc.overlap += lvl.overlap
            acc.dead += lvl.dead
            acc.perimeter += lvl.perimeter
            acc.leaf = lvl.leaf
    height = max(q.height for q in per_shard)
    levels = tuple(
        LevelQuality(
            level=(height - 1) - from_leaf,
            nodes=acc.nodes,
            entries=acc.entries,
            occupancy=acc.entries / max(1, acc.nodes * fanout),
            area=acc.area,
            overlap=acc.overlap,
            dead=acc.dead,
            perimeter=acc.perimeter,
            leaf=acc.leaf,
        )
        for from_leaf, acc in sorted(merged.items(), reverse=True)
    )
    leaf_entries = sum(q.size for q in per_shard)
    leaf_nodes = sum(l.nodes for q in per_shard for l in q.levels if l.leaf)
    dir_entries = sum(l.entries for l in levels if not l.leaf)
    dir_area = sum(l.area for l in levels if not l.leaf)
    dir_overlap = sum(l.overlap for l in levels if not l.leaf)
    dir_dead = sum(l.dead for l in levels if not l.leaf)
    dir_perimeter = sum(l.perimeter for l in levels if not l.leaf)
    free = sum(q.free_blocks for q in per_shard)
    pending = sum(q.pending_reclaim for q in per_shard)
    frags = [q.fragmentation for q in per_shard]
    return TreeQuality(
        height=height,
        size=leaf_entries,
        fanout=fanout,
        nodes=sum(q.nodes for q in per_shard),
        levels=levels,
        leaf_occupancy=leaf_entries / max(1, leaf_nodes * fanout),
        overlap_ratio=dir_overlap / dir_area if dir_area > 0.0 else 0.0,
        dead_ratio=dir_dead / dir_area if dir_area > 0.0 else 0.0,
        mean_margin=dir_perimeter / dir_entries if dir_entries else 0.0,
        free_blocks=free,
        pending_reclaim=pending,
        fragmentation=sum(frags) / len(frags),
        shard_sizes=tuple(q.size for q in per_shard),
    )


# -- baseline (de)serialization ---------------------------------------


def quality_baseline(quality: TreeQuality) -> dict:
    """Compress a pack-time quality into the tiny persisted baseline.

    Rounded to 12 significant digits: small enough to live in the index
    descriptor's metadata region, stable across platforms.
    """
    def r(x: float) -> float:
        return float(f"{x:.12g}")

    base = {
        "v": 1,
        "h": quality.height,
        "n": quality.size,
        "occ": r(quality.leaf_occupancy),
        "ovr": r(quality.overlap_ratio),
        "dead": r(quality.dead_ratio),
        "per": r(quality.mean_margin),
        "frag": r(quality.fragmentation),
    }
    if quality.shard_sizes:
        base["imb"] = r(quality.imbalance)
    return base


def encode_baseline(baseline: dict) -> bytes:
    """The baseline as the compact JSON bytes the descriptor stores."""
    return json.dumps(
        baseline, separators=(",", ":"), sort_keys=True
    ).encode("ascii")


def decode_baseline(blob: bytes | str | dict | None) -> dict | None:
    """Parse a stored baseline; None for absent/foreign trailing bytes."""
    if blob is None:
        return None
    if isinstance(blob, dict):
        return blob if blob.get("v") == 1 else None
    if isinstance(blob, bytes):
        blob = blob.decode("ascii", errors="replace")
    blob = blob.strip()
    if not blob.startswith("{"):
        return None
    try:
        doc = json.loads(blob)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and doc.get("v") == 1 else None


# -- the degradation score --------------------------------------------


def degradation_score(
    quality: TreeQuality, baseline: dict | None
) -> float | None:
    """Normalized structural drift of ``quality`` from its baseline.

    0.0 for the freshly packed index; each component is the *relative*
    worsening of one structural metric (clamped at 0 so improvements
    never mask decay elsewhere), weighted per
    :data:`DEGRADATION_WEIGHTS`.  Every component is non-decreasing in
    its metric's decay, so the score is monotone under compounding
    structural degradation.  Returns None when the index carries no
    baseline (pre-PR-10 packs).
    """
    if baseline is None:
        return None
    w = DEGRADATION_WEIGHTS

    def growth(current: float, base: float, floor: float) -> float:
        return max(0.0, current - base) / max(base, floor)

    base_occ = float(baseline.get("occ", 0.0))
    occ_drop = (
        max(0.0, base_occ - quality.leaf_occupancy) / base_occ
        if base_occ > 0.0
        else 0.0
    )
    score = (
        w["occ"] * occ_drop
        + w["ovr"] * growth(
            quality.overlap_ratio, float(baseline.get("ovr", 0.0)), _RATIO_FLOOR
        )
        + w["dead"] * growth(
            quality.dead_ratio, float(baseline.get("dead", 0.0)), _RATIO_FLOOR
        )
        + w["frag"] * max(
            0.0, quality.fragmentation - float(baseline.get("frag", 0.0))
        )
        + w["height"] * growth(
            float(quality.height), float(baseline.get("h", quality.height)), 1.0
        )
        + w["per"] * growth(
            quality.mean_margin, float(baseline.get("per", 0.0)), _RATIO_FLOOR
        )
    )
    if quality.shard_sizes:
        score += w["imb"] * max(
            0.0, quality.imbalance - float(baseline.get("imb", 0.0))
        )
    return score
