"""A pinned level table that follows writes equals one built afresh.

:func:`~repro.rtree.levels.levels_of` keeps a tree's table across
writes: it leaves it as it is after writes to leaves, patches the rows
of an internal node rewritten with its child pointers unchanged, and
rebuilds after an allocate or free, a pointer change or a new root; a
shard family patches the written shard's rows and its routing row, and
restacks when a shard's own table was rebuilt.  Random insert, delete
and R*-insert scripts, with now and then an internal node written back
with its rows reversed (a pointer change with no allocate), run on an
in-memory tree, on a paged tree with a tiny page cache and on K = 1
and K = 4 families, and after each write the maintained table must
equal :meth:`level_table`'s, level by level
(``tests/level_oracle.py``).  A warm join engine must answer as a fresh
one, since its sweep-order cache is keyed to the writes the table saw.

Seeded mutants of the follow path must each make a script fail.
"""

import inspect
import pathlib
import random
import tempfile
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries.join import SpatialJoinEngine
from repro.rtree.levels import LevelTable, levels_of
from repro.rtree.node import Node
from repro.rtree.rstar import rstar_insert
from repro.storage import PagedTree, ShardedTree, pack_tree, shard_pack
from tests.conftest import random_rects
from tests.level_oracle import assert_same_levels

FANOUT = 4
KINDS = ["memory", "paged", "K1", "K4"]


def open_kind(kind, tree, directory):
    """``tree`` itself, or a writable index packed from it with a page
    cache of three pages (per shard for a family)."""
    if kind == "memory":
        return tree
    directory = pathlib.Path(directory)
    values = dict(tree.objects)
    if kind == "paged":
        path = directory / "index.pack"
        pack_tree(tree, path, block_size=512)
        return PagedTree.open(path, values=values, cache_pages=3)
    path = directory / "index.manifest"
    shard_pack(tree, path, shards=int(kind[1:]), block_size=512)
    return ShardedTree.open(path, values=values, cache_pages=3)


def rstar_into(index, rect, value):
    """R* insert; into a family, on the shard its insert would pick."""
    if not hasattr(index, "shards"):
        rstar_insert(index, rect, value)
        return
    i = index.route(rect)
    shard = index.shards[i]
    shard._next_oid = max(shard._next_oid, index._next_oid)
    index._next_oid = rstar_insert(shard, rect, value) + 1
    index._refresh(i)
    index.size += 1


def reverse_a_node(index, rng):
    """Write an internal node back with its rows reversed: a valid tree
    whose pointer column changed with no allocate or free."""
    trees = [
        (i, shard) for i, shard in enumerate(getattr(index, "shards", [index]))
        if shard.height > 1
    ]
    if not trees:
        return
    i, tree = rng.choice(trees)
    block_id = rng.choice(sorted(levels_of(tree).frames))
    frame = tree.peek_node(block_id).frame()
    tree.write_node(block_id, Node.from_frame(frame.take(range(len(frame))[::-1])))
    if tree is not index:
        index._refresh(i)


def check_table(index, context):
    """The maintained table equals a fresh one; for a family, so does
    each live shard's (the fresh family table is stacked from them)."""
    got = levels_of(index)
    for i, shard in enumerate(getattr(index, "shards", ())):
        if index.shard_mbr(i) is not None:
            assert_same_levels(
                shard._levels, LevelTable(shard), f"{context} shard {i}"
            )
    assert_same_levels(got, index.level_table(), context)


def pairs(join_engine):
    return sorted((a[1], b[1]) for a, b in join_engine.join()[0])


def run_script(kind, seed, steps, every, directory):
    """Apply ``steps`` random writes to a ``kind`` index, checking the
    table (and a warm join) after every ``every``-th write."""
    rng = random.Random(seed)
    data = random_rects(rng.randrange(0, 40), seed=seed, max_side=0.2)
    index = open_kind(kind, build_prtree(BlockStore(), data, FANOUT), directory)
    live = {value: rect for rect, value in data}
    next_value = len(data)
    try:
        warm = SpatialJoinEngine(index, index)
        check_table(index, "opened")
        for step in range(steps):
            op = rng.random()
            if op > 0.9:
                reverse_a_node(index, rng)
            elif op < 0.55 or not live:
                # Now and then far outside the data, so shard boxes move.
                rect = random_rects(1, seed=rng.random(), max_side=0.1)[0][0]
                if rng.random() < 0.2:
                    shift = rng.choice([-1.5, 1.5])
                    rect = type(rect)(
                        tuple(c + shift for c in rect.lo),
                        tuple(c + shift for c in rect.hi),
                    )
                if op < 0.3:
                    index.insert(rect, next_value)
                else:
                    rstar_into(index, rect, next_value)
                live[next_value] = rect
                next_value += 1
            else:
                value = rng.choice(sorted(live))
                assert index.delete(live.pop(value), value)
            if step % every == 0 or step == steps - 1:
                context = f"{kind} seed {seed} step {step}"
                check_table(index, context)
                fresh = SpatialJoinEngine(index, index)
                assert pairs(warm) == pairs(fresh), context
    finally:
        close = getattr(index, "close", None)
        if close is not None:
            close()


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    steps=st.integers(1, 40),
    every=st.sampled_from([1, 1, 3]),
)
def test_the_maintained_table_equals_a_fresh_one(kind, seed, steps, every):
    with tempfile.TemporaryDirectory() as directory:
        run_script(kind, seed, steps, every, directory)


def _mutant(function, old, new):
    """``function`` recompiled from its own source with ``old`` replaced
    by ``new`` (which must occur exactly once)."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


MUTANTS = {
    # A shard's box moved, and the virtual rows above it kept the old one.
    "routing-row-unpatched": (
        ShardedTree, "follow_writes", "if box != routed:", "if False:",
    ),
    # Each of a node's new rows lands in its neighbour's column.
    "patch-into-neighbouring-column": (
        LevelTable, "patch",
        "= frame.box\n",
        "= np.roll(frame.box, 1, axis=1)\n",
    ),
    # A rewrite that reordered or replaced child pointers is patched.
    "pointer-change-patched": (
        LevelTable, "patch",
        "if old is not frame.ptrs and not np.array_equal(old, frame.ptrs):",
        "if len(old) != len(frame.ptrs):",
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_caught(monkeypatch, name):
    owner, attribute, old, new = MUTANTS[name]
    monkeypatch.setattr(
        owner, attribute, _mutant(getattr(owner, attribute), old, new)
    )
    with pytest.raises(Exception):
        for seed in range(8):
            for kind in ("K4", "memory"):
                with tempfile.TemporaryDirectory() as directory:
                    run_script(kind, seed, 40, 1, directory)
