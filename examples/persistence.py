#!/usr/bin/env python3
"""Persistence: ship a bulk-loaded index as real bytes.

The simulator keeps nodes decoded for speed, but the paper's physical
layout (36-byte entries, 4 KB blocks, fan-out 113 — Section 3.1) is
fully specified.  `pack_tree` writes a tree into that exact layout,
one block per node; `PagedTree.open` serves the file back as a live
tree that pages nodes in on demand.

Run with:  python examples/persistence.py
"""

import tempfile
import pathlib
import random

from repro import (
    BlockStore,
    PagedTree,
    QueryEngine,
    Rect,
    build_prtree,
    fanout_for_block,
    pack_tree,
    validate_rtree,
)


def main() -> None:
    rng = random.Random(1)
    n = 5_000
    data = []
    for i in range(n):
        x, y = rng.random(), rng.random()
        data.append((Rect((x, y), (x + 0.005, y + 0.005)), i))

    # The paper's physical parameters: 4 KB blocks hold 113 entries.
    fanout = fanout_for_block(4096, dim=2)
    print(f"fan-out derived from 4 KB blocks: {fanout}")

    tree = build_prtree(BlockStore(), data, fanout)
    window = Rect((0.25, 0.25), (0.30, 0.30))
    original, _ = QueryEngine(tree).query(window)

    # Round-trip through an actual file.
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "roads.prtree"
        stats = pack_tree(tree, path, block_size=4096)
        print(f"packed {stats.n_blocks} nodes "
              f"into {stats.file_bytes:,} bytes "
              f"({stats.file_bytes / n:.0f} B/rect)")
        with PagedTree.open(
            path, values=dict(tree.objects), readonly=True
        ) as loaded:
            validate_rtree(loaded, expect_size=n)
            reloaded, _ = QueryEngine(loaded).query(window)

    assert sorted(v for _, v in original) == sorted(v for _, v in reloaded)
    print(f"reloaded tree answers identically: "
          f"{len(reloaded)} matches for {window}")


if __name__ == "__main__":
    main()
