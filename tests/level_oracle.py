"""The level-table oracle: a table kept up to date across writes must
equal one built afresh from the tree.

A pinned table (:func:`repro.rtree.levels.levels_of`) follows writes by
patching rows in place; :meth:`~repro.rtree.tree.RTree.level_table`
builds one from the tree's nodes as they are now.  They must agree
level by level: node ids, row offsets, child pointers, the stacked box
table and every node's frame, and the id -> frame map the operators
read.
"""

import numpy as np


def assert_same_levels(got, want, context=""):
    """``got`` (a maintained table) equals ``want`` (a fresh one)."""
    assert (got.root_id, got.height, got.virtual) == (
        want.root_id, want.height, want.virtual
    ), context
    assert len(got.levels) == len(want.levels), context
    for k, (a, b) in enumerate(zip(got.levels, want.levels)):
        where = f"{context} level {k}"
        assert a.ids == b.ids, where
        assert a.start == b.start, where
        assert a.ptrs == b.ptrs, where
        assert np.array_equal(a.box, b.box), where
        assert len(a.frames) == len(b.frames), where
        for block_id, fa, fb in zip(a.ids, a.frames, b.frames):
            assert fa.is_leaf == fb.is_leaf, f"{where} node {block_id}"
            assert np.array_equal(fa.box, fb.box), f"{where} node {block_id}"
            assert np.array_equal(fa.ptrs, fb.ptrs), f"{where} node {block_id}"
            assert got.frames[block_id] is fa, f"{where} node {block_id}"
    assert got.frames.keys() == want.frames.keys(), context
