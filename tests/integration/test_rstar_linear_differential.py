"""Differential suite: R* insertion and Guttman's linear split on frames
vs the entry-list code they replaced.

``Node`` once kept a mutable entry list beside its frame, and R*
insertion and the linear splitter edited that list: ``sort``, slice
assignment, ``del`` and item assignment.  Both now run on frames and
return row lists (:mod:`repro.rtree.split`), and every split or
eviction is a ``Node.split_off``.  The oracles below are verbatim copies
of ``rtree/rstar.py`` (insert, ChooseSubtree, forced reinsertion,
``rstar_split``) and ``rtree/split.py::linear_split`` as they stood
then.  They run on :class:`ListNode`, a test-local node backed by a
list; only the edge where a node is read from, written to or allocated
in the store converts between it and a library ``Node``.

Every loader's tree takes the same insert/delete script twice, once per
implementation, on the simulated store and on a paged single-file tree.
Trees block for block, results, ``IOCounters``, ``PageCacheStats`` and
the synced bytes must agree.  Deletes run the library's Guttman delete
on both sides.  Seeded mutations of the frame code must be caught.
"""

import pathlib
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import mbr_of
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.rtree import rstar, split
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.rtree.update import delete, insert
from repro.storage import PagedTree, pack_tree

from tests.conftest import random_rects
from tests.integration import test_vectorized_differential as guttman
from tests.integration.test_vectorized_differential import (
    ALL_BUILDERS,
    BUILDER_IDS,
    ListNode,
    _mutant,
    read_node,
    run_script,
    tree_image,
    update_scripts,
    write_node,
)

REINSERT_FRACTION = 0.3


# ----------------------------------------------------------------------
# The node edge: a list-backed node, converted at the store (the
# Guttman oracle's ``ListNode``/``read_node``/``write_node``, plus the
# two other store calls R* makes).
# ----------------------------------------------------------------------


def peek_node(tree, block_id):
    node = tree.store.peek(block_id)
    return ListNode(node.is_leaf, node.entries)


def allocate(tree, node):
    return tree.store.allocate(Node(node.is_leaf, node.entries))


# ----------------------------------------------------------------------
# The oracles, verbatim but for the node edge above.
# ----------------------------------------------------------------------


def oracle_linear_split(entries, min_fill):
    if len(entries) < 2:
        raise ValueError("cannot split fewer than 2 entries")
    if min_fill < 1 or 2 * min_fill > len(entries):
        raise ValueError(
            f"min_fill {min_fill} infeasible for {len(entries)} entries"
        )

    dim = entries[0][0].dim
    total = mbr_of(rect for rect, _ in entries)
    best_sep = -1.0
    seed_a = 0
    seed_b = 1
    for axis in range(dim):
        # Entry with the highest low side and entry with the lowest high side.
        high_low = max(range(len(entries)), key=lambda k: entries[k][0].lo[axis])
        low_high = min(range(len(entries)), key=lambda k: entries[k][0].hi[axis])
        if high_low == low_high:
            continue
        width = total.side(axis)
        if width <= 0:
            continue
        sep = (
            entries[high_low][0].lo[axis] - entries[low_high][0].hi[axis]
        ) / width
        if sep > best_sep:
            best_sep = sep
            seed_a, seed_b = high_low, low_high
    if seed_a == seed_b:  # all rectangles identical along every axis
        seed_b = (seed_a + 1) % len(entries)

    group_a = [entries[seed_a]]
    group_b = [entries[seed_b]]
    box_a = entries[seed_a][0]
    box_b = entries[seed_b][0]
    remaining = [e for k, e in enumerate(entries) if k not in (seed_a, seed_b)]

    for idx, (rect, pointer) in enumerate(remaining):
        left = len(remaining) - idx
        if len(group_a) + left <= min_fill:
            group_a.append((rect, pointer))
            box_a = box_a.union(rect)
            continue
        if len(group_b) + left <= min_fill:
            group_b.append((rect, pointer))
            box_b = box_b.union(rect)
            continue
        if box_a.enlargement(rect) <= box_b.enlargement(rect):
            group_a.append((rect, pointer))
            box_a = box_a.union(rect)
        else:
            group_b.append((rect, pointer))
            box_b = box_b.union(rect)
    return group_a, group_b


def oracle_linear_insert(tree, rect, value):
    """The Guttman oracle of ``test_vectorized_differential`` with the
    linear split in place of the quadratic one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(guttman, "oracle_quadratic_split", oracle_linear_split)
        return guttman.oracle_insert(tree, rect, value)


def _distributions(entries, min_fill):
    """All legal (first-group-size) cut points."""
    return range(min_fill, len(entries) - min_fill + 1)


def oracle_rstar_split(entries, min_fill):
    """The R*-tree split: margin-minimal axis, overlap-minimal cut."""
    if len(entries) < 2:
        raise ValueError("cannot split fewer than 2 entries")
    if min_fill < 1 or 2 * min_fill > len(entries):
        raise ValueError(
            f"min_fill {min_fill} infeasible for {len(entries)} entries"
        )
    dim = entries[0][0].dim

    best_axis_margin = float("inf")
    best_axis_orderings = []
    for axis in range(dim):
        by_lo = sorted(entries, key=lambda e: (e[0].lo[axis], e[0].hi[axis]))
        by_hi = sorted(entries, key=lambda e: (e[0].hi[axis], e[0].lo[axis]))
        margin = 0.0
        for ordering in (by_lo, by_hi):
            for cut in _distributions(ordering, min_fill):
                margin += mbr_of(r for r, _ in ordering[:cut]).margin()
                margin += mbr_of(r for r, _ in ordering[cut:]).margin()
        if margin < best_axis_margin:
            best_axis_margin = margin
            best_axis_orderings = [by_lo, by_hi]

    best = None
    best_key = (float("inf"), float("inf"))
    for ordering in best_axis_orderings:
        # Prefix/suffix boxes for O(n) evaluation per ordering.
        prefixes = []
        box = None
        for rect, _ in ordering:
            box = rect if box is None else box.union(rect)
            prefixes.append(box)
        suffixes = [None] * len(ordering)
        box = None
        for i in range(len(ordering) - 1, -1, -1):
            rect = ordering[i][0]
            box = rect if box is None else box.union(rect)
            suffixes[i] = box
        for cut in _distributions(ordering, min_fill):
            left_box = prefixes[cut - 1]
            right_box = suffixes[cut]
            inter = left_box.intersection(right_box)
            overlap = inter.area() if inter is not None else 0.0
            key = (overlap, left_box.area() + right_box.area())
            if key < best_key:
                best_key = key
                best = (list(ordering[:cut]), list(ordering[cut:]))
    assert best is not None
    return best


def _overlap_with_siblings(node, candidate, box):
    """Total overlap of ``box`` with the other children's boxes."""
    total = 0.0
    for idx, (other, _) in enumerate(node.entries):
        if idx == candidate:
            continue
        inter = box.intersection(other)
        if inter is not None:
            total += inter.area()
    return total


def _choose_subtree(tree, node, rect, children_are_leaves):
    if children_are_leaves:
        # Minimize overlap enlargement; ties by area enlargement, then area.
        best_idx = 0
        best_key = None
        for idx, (box, _) in enumerate(node.entries):
            grown = box.union(rect)
            overlap_delta = _overlap_with_siblings(
                node, idx, grown
            ) - _overlap_with_siblings(node, idx, box)
            key = (overlap_delta, grown.area() - box.area(), box.area())
            if best_key is None or key < best_key:
                best_key = key
                best_idx = idx
        return best_idx
    best_idx = 0
    best_key = None
    for idx, (box, _) in enumerate(node.entries):
        key = (box.enlargement(rect), box.area())
        if best_key is None or key < best_key:
            best_key = key
            best_idx = idx
    return best_idx


def oracle_rstar_insert(tree, rect, value):
    """Insert with the R*-tree algorithm; returns the object id."""
    if rect.dim != tree.dim:
        raise ValueError(f"rect has dim {rect.dim}, tree indexes dim {tree.dim}")
    oid = tree.register_object(value)
    _insert(tree, rect, oid, target_level=0, reinserted_levels=set())
    tree.size += 1
    return oid


def _insert(tree, rect, pointer, target_level, reinserted_levels):
    path = []
    block_id = tree.root_id
    node = read_node(tree, block_id)
    level = tree.height - 1
    while level > target_level:
        children_are_leaves = level == 1 and target_level == 0
        child_idx = _choose_subtree(tree, node, rect, children_are_leaves)
        path.append((block_id, node, child_idx))
        block_id = node.entries[child_idx][1]
        node = read_node(tree, block_id)
        level -= 1

    node.add(rect, pointer)
    _overflow_treatment(tree, path, block_id, node, target_level, reinserted_levels)


def _overflow_treatment(tree, path, block_id, node, level, reinserted_levels):
    """Write back, handling overflow by reinsertion or split (bottom-up)."""
    split_sibling = None
    to_reinsert = []

    if len(node) > tree.fanout:
        is_root = block_id == tree.root_id
        if level not in reinserted_levels and not is_root:
            # Forced reinsertion: evict the entries farthest from the
            # node's center (once per level per insertion).
            reinserted_levels.add(level)
            center = node.mbr().center()

            def distance(entry):
                c = entry[0].center()
                return sum((a - b) ** 2 for a, b in zip(c, center))

            node.entries.sort(key=distance)
            count = max(1, int(len(node.entries) * REINSERT_FRACTION))
            evicted = node.entries[-count:]
            node.entries = node.entries[:-count]
            to_reinsert = [(entry, level) for entry in evicted]
        else:
            group_a, group_b = oracle_rstar_split(node.entries, tree.min_fill)
            node.entries = group_a
            sibling = ListNode(node.is_leaf, group_b)
            sibling_id = allocate(tree, sibling)
            split_sibling = (sibling.mbr(), sibling_id)

    write_node(tree, block_id, node)
    child_mbr = node.mbr() if node.entries else None
    child_id = block_id

    for parent_id, parent, child_idx in reversed(path):
        level += 1
        if child_mbr is not None:
            parent.entries[child_idx] = (child_mbr, child_id)
        else:  # node emptied by reinsertion; drop the entry
            del parent.entries[child_idx]
        if split_sibling is not None:
            parent.add(*split_sibling)
            split_sibling = None
        if len(parent) > tree.fanout:
            group_a, group_b = oracle_rstar_split(parent.entries, tree.min_fill)
            parent.entries = group_a
            sibling = ListNode(parent.is_leaf, group_b)
            sibling_id = allocate(tree, sibling)
            split_sibling = (sibling.mbr(), sibling_id)
        write_node(tree, parent_id, parent)
        child_mbr = parent.mbr() if parent.entries else None
        child_id = parent_id

    if split_sibling is not None:
        old_root = peek_node(tree, tree.root_id)
        new_root = ListNode(
            is_leaf=False,
            entries=[(old_root.mbr(), tree.root_id), split_sibling],
        )
        tree.root_id = allocate(tree, new_root)
        tree.height += 1

    for (rect, pointer), entry_level in to_reinsert:
        _insert(tree, rect, pointer, entry_level, reinserted_levels)


# ----------------------------------------------------------------------
# The differential: same script, both implementations, both stores.
# ----------------------------------------------------------------------


def library_rstar_insert(tree, rect, value):
    # Looked up per call, so a seeded mutant of the module takes effect.
    return rstar.rstar_insert(tree, rect, value)


def library_linear_insert(tree, rect, value):
    return insert(tree, rect, value, splitter=split.linear_split)


UPDATERS = {
    "rstar": (library_rstar_insert, oracle_rstar_insert),
    "linear": (library_linear_insert, oracle_linear_insert),
}


def assert_same_in_memory(build, data, ops, updater):
    """Both implementations on the simulated store, block for block."""
    got_insert, want_insert = UPDATERS[updater]
    got_tree, want_tree = build(), build()
    got = run_script(got_tree, ops, data, got_insert, delete)
    want = run_script(want_tree, ops, data, want_insert, delete)
    assert got == want
    assert tree_image(got_tree) == tree_image(want_tree)


def assert_same_paged(source, data, ops, updater, directory, cache_pages):
    """Both implementations on a paged single-file tree: trees, page
    traffic and the bytes on disk."""
    images = []
    for name, do_insert in zip(("got", "want"), UPDATERS[updater]):
        path = pathlib.Path(directory) / f"{name}.pack"
        pack_tree(source, path, block_size=1024)
        with PagedTree.open(
            path, values=dict(source.objects), cache_pages=cache_pages
        ) as tree:
            results = run_script(tree, ops, data, do_insert, delete)
            tree.sync()
            images.append((results, tree_image(tree), tree.page_stats))
        images[-1] += (path.read_bytes(),)
    assert images[0] == images[1]


@pytest.mark.parametrize("updater", sorted(UPDATERS))
@pytest.mark.parametrize("builder", ALL_BUILDERS, ids=BUILDER_IDS)
class TestRStarAndLinearDifferential:
    @settings(max_examples=25, deadline=None)
    @given(update_scripts(), st.integers(min_value=4, max_value=12))
    def test_in_memory(self, builder, updater, script, fanout):
        data, ops = script
        assert_same_in_memory(
            lambda: builder(BlockStore(), data, fanout), data, ops, updater
        )

    @settings(max_examples=10, deadline=None)
    @given(
        update_scripts(),
        st.integers(min_value=4, max_value=12),
        st.sampled_from([0, 5, 400]),
    )
    def test_paged(self, builder, updater, script, fanout, cache_pages):
        data, ops = script
        source = builder(BlockStore(), data, fanout)
        with tempfile.TemporaryDirectory() as directory:
            assert_same_paged(source, data, ops, updater, directory, cache_pages)


@pytest.mark.parametrize("updater", sorted(UPDATERS))
class TestLargerTrees:
    @settings(max_examples=5, deadline=None)
    @given(update_scripts(dim=3, max_ops=30), st.integers(min_value=4, max_value=9))
    def test_three_dimensions(self, updater, script, fanout):
        data, ops = script
        if not data:
            return  # an empty load is 2-d: it cannot take a 3-d insert
        assert_same_in_memory(
            lambda: build_prtree(BlockStore(), data, fanout), data, ops, updater
        )

    def test_grown_from_empty(self, updater):
        data = random_rects(300, seed=120)
        ops = [("insert", rect) for rect, _ in data]
        ops += [("delete", 7 * i) for i in range(150)]
        ops += [("insert", rect) for rect, _ in data[:100]]
        assert_same_in_memory(
            lambda: RTree.create_empty(BlockStore(), dim=2, fanout=6),
            [], ops, updater,
        )


# ----------------------------------------------------------------------
# Seeded mutations of the frame code: each must be caught.
# ----------------------------------------------------------------------


def mutation_workload(directory, updater):
    data = random_rects(500, seed=121)
    rng = random.Random(122)
    ops = []
    for _ in range(250):
        if rng.random() < 0.2:
            ops.append(("delete", rng.randrange(10**6)))
        else:
            rect, _ = random_rects(1, seed=rng.randrange(10**6))[0]
            ops.append(("insert", rect))
    assert_same_in_memory(
        lambda: build_prtree(BlockStore(), data, 8), data, ops, updater
    )
    source = build_prtree(BlockStore(), data, 12)
    assert_same_paged(source, data, ops, updater, directory, cache_pages=5)


MUTANTS = {
    # The evicted rows go back in row order, not farthest-last.
    "reinsert-in-row-order": (
        "rstar", rstar, "_overflow_treatment", rstar._overflow_treatment,
        "rows[-count:]).entries", "sorted(rows[-count:])).entries",
    ),
    # The node keeps the group it should have moved.
    "rstar-groups-swapped": (
        "rstar", rstar, "rstar_split", rstar.rstar_split,
        "best = (ordering[:cut], ordering[cut:])",
        "best = (ordering[cut:], ordering[:cut])",
    ),
    # Each group starts from the other's seed.
    "linear-seeds-swapped": (
        "linear", split, "linear_split", split.linear_split,
        "seed_a, seed_b = high_low, low_high",
        "seed_a, seed_b = low_high, high_low",
    ),
}


class TestSeededMutations:
    @pytest.mark.parametrize("updater", sorted(UPDATERS))
    def test_unmutated_code_passes(self, tmp_path, updater):
        mutation_workload(tmp_path, updater)

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_caught(self, tmp_path, monkeypatch, name):
        updater, owner, attribute, function, old, new = MUTANTS[name]
        monkeypatch.setattr(owner, attribute, _mutant(function, old, new))
        with pytest.raises(AssertionError):
            mutation_workload(tmp_path, updater)
