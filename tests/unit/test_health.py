"""Unit tests for tree-quality analytics and the degradation score.

The pinned numbers on the hand-built tree are exact in plain float
arithmetic, so they must hold bit-identically under both kernel
backends (the CI matrix runs this file with and without
``REPRO_NO_NUMPY=1``).
"""

import asyncio
import dataclasses

import pytest

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.obs import MetricsRegistry
from repro.obs.health import (
    DEGRADATION_WEIGHTS,
    decode_baseline,
    degradation_score,
    encode_baseline,
    family_quality,
    index_quality,
    quality_baseline,
    tree_quality,
)
from repro.prtree.prtree import build_prtree
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.server import WindowRequest
from repro.service import AsyncQueryService
from repro.storage import PagedTree, ShardedTree, pack_tree, shard_pack

from tests.conftest import random_rects


def hand_tree() -> RTree:
    """Two half-full leaves under one root, with known geometry.

    Directory entry MBRs are (0,0)-(2,1) and (0,0.5)-(2,1.5): overlap
    area 1.0 over 4.0 of entry area, zero dead space everywhere, margin
    3.0 per directory entry.
    """
    store = BlockStore()
    leaf1 = Node(
        True,
        [(Rect((0.0, 0.0), (1.0, 1.0)), 0), (Rect((1.0, 0.0), (2.0, 1.0)), 1)],
    )
    leaf2 = Node(
        True,
        [(Rect((0.0, 0.5), (1.0, 1.5)), 2), (Rect((1.0, 0.5), (2.0, 1.5)), 3)],
    )
    id1 = store.allocate(leaf1)
    id2 = store.allocate(leaf2)
    root = Node(False, [(leaf1.mbr(), id1), (leaf2.mbr(), id2)])
    root_id = store.allocate(root)
    return RTree(store, root_id, dim=2, fanout=4, height=2, size=4)


def scalar_level_sums(tree):
    """Per-level (area, overlap, dead, perimeter) by the entry-at-a-time
    walk ``tree_quality`` used before its per-node sums moved onto the
    frame kernels — verbatim, kept as the oracle: every sibling pair
    through a Python ``_intersection_area``, every sum accumulated one
    term at a time in entry order."""

    def _area(lo, hi):
        out = 1.0
        for a, b in zip(lo, hi):
            out *= b - a
        return out

    def _margin(lo, hi):
        return sum(b - a for a, b in zip(lo, hi))

    def _intersection_area(a_lo, a_hi, b_lo, b_hi):
        out = 1.0
        for al, ah, bl, bh in zip(a_lo, a_hi, b_lo, b_hi):
            lo = al if al > bl else bl
            hi = ah if ah < bh else bh
            if hi <= lo:
                return 0.0
            out *= hi - lo
        return out

    levels = {}
    stack = [(tree.root_id, 0)]
    while stack:
        block_id, level = stack.pop()
        node = tree.store.peek(block_id)
        acc = levels.setdefault(
            level, {"area": 0.0, "overlap": 0.0, "dead": 0.0, "perimeter": 0.0}
        )
        rects = [(rect.lo, rect.hi) for rect, _ in node.entries]
        n = len(rects)
        covered = 0.0
        node_lo = []
        node_hi = []
        for lo, hi in rects:
            covered += _area(lo, hi)
            acc["perimeter"] += _margin(lo, hi)
            if not node_lo:
                node_lo, node_hi = list(lo), list(hi)
            else:
                for k in range(len(lo)):
                    if lo[k] < node_lo[k]:
                        node_lo[k] = lo[k]
                    if hi[k] > node_hi[k]:
                        node_hi[k] = hi[k]
        acc["area"] += covered
        if node_lo:
            dead = _area(tuple(node_lo), tuple(node_hi)) - covered
            if dead > 0.0:
                acc["dead"] += dead
        for i in range(n):
            a_lo, a_hi = rects[i]
            for j in range(i + 1, n):
                b_lo, b_hi = rects[j]
                acc["overlap"] += _intersection_area(a_lo, a_hi, b_lo, b_hi)
        if not node.is_leaf:
            for _, child in node.entries:
                stack.append((child, level + 1))
    return [levels[level] for level in sorted(levels)]


class TestTreeQuality:
    @pytest.mark.parametrize("dim, fanout", [(2, 5), (2, 16), (2, 113), (3, 9)])
    def test_level_sums_equal_the_scalar_walk_exactly(self, dim, fanout):
        # Coordinates up to 10 with a sprinkling of points and duplicates:
        # areas above 1, zero-area boxes, boxes that only touch.
        data = [
            (rect.scaled(10.0), value)
            for rect, value in random_rects(1500, seed=fanout, dim=dim, max_side=0.3)
        ]
        data += [(Rect(rect.lo, rect.lo), 5000 + i) for i, (rect, _) in enumerate(data[:200])]
        data += [(rect, 9000 + i) for i, (rect, _) in enumerate(data[:100])]
        tree = build_prtree(BlockStore(), data, fanout)
        for i, (rect, _) in enumerate(data[:150]):  # leave some half-full nodes
            tree.insert(rect.translated((0.5,) * dim), 20_000 + i)
        quality = tree_quality(tree)
        want = scalar_level_sums(tree)
        assert len(quality.levels) == len(want)
        for level, sums in zip(quality.levels, want):
            got = {
                "area": level.area,
                "overlap": level.overlap,
                "dead": level.dead,
                "perimeter": level.perimeter,
            }
            assert got == sums, level.level

    def test_hand_built_numbers_exact(self):
        q = tree_quality(hand_tree())
        assert q.height == 2 and q.size == 4 and q.fanout == 4
        assert q.nodes == 3
        assert len(q.levels) == 2

        root = q.levels[0]
        assert (root.level, root.nodes, root.entries) == (0, 1, 2)
        assert not root.leaf
        assert root.occupancy == 0.5
        assert root.area == 4.0
        assert root.overlap == 1.0
        assert root.dead == 0.0
        assert root.perimeter == 6.0

        leaves = q.levels[1]
        assert (leaves.level, leaves.nodes, leaves.entries) == (1, 2, 4)
        assert leaves.leaf
        assert leaves.occupancy == 0.5
        assert leaves.area == 4.0
        assert leaves.overlap == 0.0
        assert leaves.dead == 0.0
        assert leaves.perimeter == 8.0

        assert q.leaf_occupancy == 0.5
        assert q.overlap_ratio == 0.25
        assert q.dead_ratio == 0.0
        assert q.mean_margin == 3.0
        # An in-memory BlockStore has no freelist accounting.
        assert q.free_blocks == 0 and q.pending_reclaim == 0
        assert q.fragmentation == 0.0

    def test_walk_is_deterministic(self):
        assert tree_quality(hand_tree()) == tree_quality(hand_tree())

    def test_bulk_loaded_tree_is_tight(self):
        tree = build_prtree(BlockStore(), random_rects(1000, seed=3), 16)
        q = tree_quality(tree)
        assert q.leaf_occupancy > 0.95
        assert q.overlap_ratio >= 0.0
        assert q.dead_ratio >= 0.0
        assert sum(l.nodes for l in q.levels) == q.nodes == tree.node_count()

    def test_single_tree_index_quality(self):
        tree = hand_tree()
        aggregate, per_shard = index_quality(tree)
        assert aggregate == tree_quality(tree)
        assert per_shard == ()


class TestBaseline:
    def test_roundtrip(self):
        base = quality_baseline(tree_quality(hand_tree()))
        assert base["v"] == 1
        assert base["occ"] == 0.5 and base["ovr"] == 0.25
        assert decode_baseline(encode_baseline(base)) == base

    def test_decode_rejects_garbage(self):
        assert decode_baseline(None) is None
        assert decode_baseline(b"") is None
        assert decode_baseline(b"\x00\xff junk") is None
        assert decode_baseline(b"[1,2]") is None
        assert decode_baseline({"v": 99}) is None


class TestDegradationScore:
    def test_fresh_tree_scores_zero(self):
        q = tree_quality(hand_tree())
        score = degradation_score(q, quality_baseline(q))
        assert score == pytest.approx(0.0, abs=1e-9)

    def test_none_without_baseline(self):
        q = tree_quality(hand_tree())
        assert degradation_score(q, None) is None

    def test_component_weights_pinned(self):
        q = tree_quality(hand_tree())
        base = quality_baseline(q)
        # Halving occupancy is a relative drop of 0.5.
        damaged = dataclasses.replace(q, leaf_occupancy=0.25)
        assert degradation_score(damaged, base) == pytest.approx(
            DEGRADATION_WEIGHTS["occ"] * 0.5, abs=1e-9
        )
        # Doubling overlap is a relative growth of 1.0 on top.
        damaged = dataclasses.replace(
            q, leaf_occupancy=0.25, overlap_ratio=0.5
        )
        assert degradation_score(damaged, base) == pytest.approx(
            DEGRADATION_WEIGHTS["occ"] * 0.5 + DEGRADATION_WEIGHTS["ovr"],
            abs=1e-9,
        )

    def test_monotone_under_compounding_damage(self):
        q = tree_quality(hand_tree())
        base = quality_baseline(q)
        scores = []
        damaged = q
        for step in range(1, 6):
            damaged = dataclasses.replace(
                damaged,
                leaf_occupancy=q.leaf_occupancy * (1 - 0.1 * step),
                overlap_ratio=q.overlap_ratio * (1 + 0.5 * step),
                fragmentation=0.02 * step,
            )
            scores.append(degradation_score(damaged, base))
        assert scores == sorted(scores)
        assert scores[0] > 0.0

    def test_improvement_never_goes_negative(self):
        q = tree_quality(hand_tree())
        base = quality_baseline(q)
        improved = dataclasses.replace(
            q, leaf_occupancy=0.9, overlap_ratio=0.0
        )
        assert degradation_score(improved, base) == pytest.approx(
            0.0, abs=1e-9
        )


class TestPagedBaseline:
    def test_pack_records_baseline_and_scores_zero(self, tmp_path):
        tree = build_prtree(BlockStore(), random_rects(600, seed=5), 16)
        path = tmp_path / "health.pack"
        pack_tree(tree, path, block_size=1024)
        with PagedTree.open(path, values=dict(tree.objects)) as paged:
            base = paged.health_baseline
            assert base is not None and base["v"] == 1
            assert base == quality_baseline(tree_quality(tree))
            score = degradation_score(tree_quality(paged), base)
            assert score == pytest.approx(0.0, abs=1e-9)

    def test_baseline_disabled(self, tmp_path):
        tree = build_prtree(BlockStore(), random_rects(100, seed=6), 8)
        path = tmp_path / "nobase.pack"
        pack_tree(tree, path, block_size=1024, baseline=False)
        with PagedTree.open(path, values=dict(tree.objects)) as paged:
            assert paged.health_baseline is None
            assert degradation_score(tree_quality(paged), None) is None

    def test_baseline_survives_sync(self, tmp_path):
        data = random_rects(400, seed=7)
        tree = build_prtree(BlockStore(), data, 16)
        path = tmp_path / "sync.pack"
        pack_tree(tree, path, block_size=1024)
        with PagedTree.open(path, values=dict(tree.objects)) as paged:
            base = paged.health_baseline
            paged.insert(Rect((0.1, 0.1), (0.2, 0.2)), "new")
            paged.sync()
        with PagedTree.open(path) as reopened:
            assert reopened.health_baseline == base

    def test_updates_worsen_the_score(self, tmp_path):
        data = random_rects(800, seed=8)
        tree = build_prtree(BlockStore(), data, 16)
        path = tmp_path / "decay.pack"
        pack_tree(tree, path, block_size=1024)
        with PagedTree.open(path, values=dict(tree.objects)) as paged:
            base = paged.health_baseline
            for rect, value in data[:300]:
                assert paged.delete(rect, value)
            score = degradation_score(tree_quality(paged), base)
        assert score is not None and score > 1e-3

    def test_sharded_baseline(self, tmp_path):
        data = random_rects(500, seed=9)
        tree = build_prtree(BlockStore(), data, 16)
        manifest = tmp_path / "fam.manifest"
        shard_pack(tree, manifest, shards=3, block_size=1024)
        with ShardedTree.open(manifest) as family:
            base = family.health_baseline
            assert base is not None and "imb" in base
            aggregate, per_shard = index_quality(family)
            assert len(per_shard) == family.n_shards
            assert aggregate.size == len(data)
            assert aggregate == family_quality(per_shard)
            score = degradation_score(aggregate, base)
            assert score == pytest.approx(0.0, abs=1e-9)


class TestServiceHealthMetrics:
    def test_health_and_explain_families_exported(self, tmp_path):
        data = random_rects(500, seed=12)
        tree = build_prtree(BlockStore(), data, 16)
        path = tmp_path / "svc.pack"
        pack_tree(tree, path, block_size=1024)
        registry = MetricsRegistry()

        async def drive():
            with PagedTree.open(path, values=dict(tree.objects)) as paged:
                async with AsyncQueryService(
                    paged,
                    metrics=registry,
                    explain=True,
                    health_interval=60.0,
                ) as service:
                    for _ in range(4):
                        await service.submit(
                            WindowRequest(Rect((0.1, 0.1), (0.6, 0.6)))
                        )

        asyncio.run(drive())
        text = registry.render_prometheus()
        assert 'repro_explain_plans_total{kind="window"}' in text
        assert 'repro_explain_nodes_visited_total{kind="window"}' in text
        assert 'repro_explain_pruning_efficiency{kind="window"}' in text
        assert 'repro_health_score{index="default"}' in text
        assert 'repro_health_leaf_occupancy{index="default"}' in text
        assert 'repro_health_fragmentation{index="default"}' in text

    def test_health_interval_validation(self):
        tree = build_prtree(BlockStore(), random_rects(50, seed=1), 8)
        with pytest.raises(ValueError):
            AsyncQueryService(tree, health_interval=0.0)
