"""Property-based equivalence: a PagedTree answers exactly like the
in-memory tree it was packed from, for every bulk-loading variant.

This is the storage engine's core guarantee — moving a tree through
``pack_tree`` onto a real file and paging it back lazily through a
bounded cache changes *where* nodes live, never *what* any query
answers or how many leaf I/Os the paper's accounting reports.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk.hilbert import build_hilbert, build_hilbert4
from repro.bulk.str_pack import build_str
from repro.bulk.tgs import build_tgs
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries.knn import KNNEngine
from repro.queries.point import PointQueryEngine
from repro.rtree.query import QueryEngine
from repro.rtree.validate import validate_rtree
from repro.storage import PagedTree, pack_tree

BUILDERS = {
    "PR": build_prtree,
    "H": build_hilbert,
    "H4": build_hilbert4,
    "TGS": build_tgs,
    "STR": build_str,
}

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def datasets(draw, max_size=60):
    n = draw(st.integers(min_value=1, max_value=max_size))
    data = []
    for i in range(n):
        lo = [draw(unit), draw(unit)]
        hi = [
            min(1.0, c + draw(st.floats(min_value=0.0, max_value=0.3)))
            for c in lo
        ]
        data.append((Rect(lo, hi), i))
    return data


def paged_copy(tree, tmpdir, cache_pages):
    path = os.path.join(tmpdir, "prop.pack")
    pack_tree(tree, path, block_size=512)
    return PagedTree.open(
        path, values=dict(tree.objects), cache_pages=cache_pages
    )


class TestPackRoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(data=datasets(max_size=40), variant=st.sampled_from(["PR", "H"]))
    def test_packs_are_byte_deterministic(self, data, variant):
        """Two packs of one tree, and a pack of its reopened file, are
        the same bytes; the reopened tree keeps height and values."""
        tree = BUILDERS[variant](BlockStore(), data, 8)
        with tempfile.TemporaryDirectory() as tmpdir:
            paths = [os.path.join(tmpdir, f"{i}.pack") for i in range(3)]
            pack_tree(tree, paths[0], block_size=512)
            pack_tree(tree, paths[1], block_size=512)
            with PagedTree.open(
                paths[0], values=dict(tree.objects), readonly=True
            ) as paged:
                assert paged.height == tree.height
                assert sorted(v for _, v in paged.all_data()) == sorted(
                    v for _, v in tree.all_data()
                )
                pack_tree(paged, paths[2], block_size=512)
            images = []
            for path in paths:
                with open(path, "rb") as handle:
                    images.append(handle.read())
            assert images[0] == images[1] == images[2]


@pytest.mark.parametrize("variant", sorted(BUILDERS))
class TestPagedEqualsInMemory:
    @settings(max_examples=12, deadline=None)
    @given(data=datasets(), x=unit, y=unit, cache=st.integers(0, 6))
    def test_window_query_identical(self, variant, data, x, y, cache):
        window = Rect((x * 0.7, y * 0.7), (x * 0.7 + 0.3, y * 0.7 + 0.3))
        tree = BUILDERS[variant](BlockStore(), data, 8)
        with tempfile.TemporaryDirectory() as tmpdir:
            with paged_copy(tree, tmpdir, cache) as paged:
                validate_rtree(paged, expect_size=len(data))
                got, got_stats = QueryEngine(paged).query(window)
                want, want_stats = QueryEngine(tree).query(window)
                assert sorted(v for _, v in got) == sorted(
                    v for _, v in want
                )
                assert got_stats.leaf_reads == want_stats.leaf_reads

    @settings(max_examples=12, deadline=None)
    @given(data=datasets(), x=unit, y=unit)
    def test_point_query_identical(self, variant, data, x, y):
        tree = BUILDERS[variant](BlockStore(), data, 8)
        with tempfile.TemporaryDirectory() as tmpdir:
            with paged_copy(tree, tmpdir, cache_pages=4) as paged:
                got, _ = PointQueryEngine(paged).point_query((x, y))
                want, _ = PointQueryEngine(tree).point_query((x, y))
                assert sorted(v for _, v in got) == sorted(
                    v for _, v in want
                )

    @settings(max_examples=12, deadline=None)
    @given(data=datasets(), x=unit, y=unit, k=st.integers(0, 12))
    def test_knn_identical(self, variant, data, x, y, k):
        tree = BUILDERS[variant](BlockStore(), data, 8)
        with tempfile.TemporaryDirectory() as tmpdir:
            with paged_copy(tree, tmpdir, cache_pages=4) as paged:
                got, got_stats = KNNEngine(paged).knn((x, y), k)
                want, want_stats = KNNEngine(tree).knn((x, y), k)
                assert [n.distance for n in got] == [
                    n.distance for n in want
                ]
                assert got_stats.leaf_reads == want_stats.leaf_reads
