"""Property tests: tree-quality analytics are a pure function of the
committed tree structure.

The same packed index must report bit-identical health metrics across
close/reopen and historical ``at_epoch`` opens — anything else would make the degradation score drift with how
the index happens to be served rather than with what updates did to it.
"""

import dataclasses
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk.hilbert import build_hilbert
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.obs.health import degradation_score, quality_baseline, tree_quality
from repro.prtree.prtree import build_prtree
from repro.storage import PagedTree, pack_tree

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def datasets(draw, min_size=4, max_size=60):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    data = []
    for i in range(n):
        lo = [draw(unit), draw(unit)]
        hi = [
            min(1.0, c + draw(st.floats(min_value=0.0, max_value=0.3)))
            for c in lo
        ]
        data.append((Rect(lo, hi), i))
    return data


def structural(quality):
    """Quality with the store-layout fields normalized away.

    A historical ``at_epoch`` open sees today's file allocation, so only
    the structural components must match the fresh pack exactly.
    """
    return dataclasses.replace(
        quality, free_blocks=0, pending_reclaim=0, fragmentation=0.0
    )


class TestHealthProperties:
    @settings(max_examples=10, deadline=None)
    @given(data=datasets(), builder=st.sampled_from([build_prtree, build_hilbert]))
    def test_identical_across_close_and_reopen(self, data, builder):
        tree = builder(BlockStore(), data, 8)
        with tempfile.TemporaryDirectory() as tmpdir:
            path = os.path.join(tmpdir, "prop.pack")
            pack_tree(tree, path, block_size=512)
            with PagedTree.open(path, readonly=True) as first:
                q1 = tree_quality(first)
            with PagedTree.open(path, readonly=True) as second:
                q2 = tree_quality(second)
            assert q1 == q2
            # And both match the in-memory tree the pack came from.
            assert structural(q1) == structural(tree_quality(tree))

    @settings(max_examples=8, deadline=None)
    @given(data=datasets(min_size=10))
    def test_at_epoch_open_reports_the_old_structure(self, data):
        tree = build_prtree(BlockStore(), data, 8)
        with tempfile.TemporaryDirectory() as tmpdir:
            path = os.path.join(tmpdir, "prop.pack")
            pack_tree(tree, path, block_size=512)
            with PagedTree.open(path, readonly=True) as fresh:
                q_fresh = tree_quality(fresh)
            with PagedTree.open(path, values=dict(tree.objects)) as live:
                for rect, value in data[: len(data) // 2]:
                    assert live.delete(rect, value)
                live.sync()
                q_after = tree_quality(live)
            # Epoch 1 is the pack's commit: its health is the fresh one.
            with PagedTree.open(path, readonly=True, at_epoch=1) as old:
                assert structural(tree_quality(old)) == structural(q_fresh)
            with PagedTree.open(path, readonly=True) as newest:
                assert tree_quality(newest) == q_after

    @settings(max_examples=10, deadline=None)
    @given(data=datasets())
    def test_fresh_pack_scores_approximately_zero(self, data):
        tree = build_prtree(BlockStore(), data, 8)
        with tempfile.TemporaryDirectory() as tmpdir:
            path = os.path.join(tmpdir, "prop.pack")
            pack_tree(tree, path, block_size=512)
            with PagedTree.open(path, readonly=True) as paged:
                score = degradation_score(
                    tree_quality(paged), paged.health_baseline
                )
            assert score is not None
            assert 0.0 <= score < 1e-9

    @settings(max_examples=10, deadline=None)
    @given(data=datasets())
    def test_baseline_roundtrips_through_the_descriptor(self, data):
        tree = build_prtree(BlockStore(), data, 8)
        want = quality_baseline(tree_quality(tree))
        with tempfile.TemporaryDirectory() as tmpdir:
            path = os.path.join(tmpdir, "prop.pack")
            pack_tree(tree, path, block_size=512)
            with PagedTree.open(path, readonly=True) as paged:
                got = paged.health_baseline
        # Structural components come from the identical walk; the
        # store-fragmentation component of a fresh pack is always 0.
        assert got == want or {
            k: v for k, v in got.items() if k != "frag"
        } == {k: v for k, v in want.items() if k != "frag"}
