#!/usr/bin/env python3
"""kNN and spatial join: the query operators beyond the window query.

Builds two PR-trees on a simulated disk, then:

1. answers batched k-nearest-neighbor queries with the best-first engine,
2. browses neighbors incrementally (stop whenever you have enough),
3. joins the two datasets with a synchronized dual-tree traversal,
4. runs point / containment / count queries,

printing the leaf-I/O cost of each operator — the same accounting the
paper uses for window queries.

Run with:  python examples/knn_and_join.py
"""

import random

from repro import (
    BlockStore,
    KNNEngine,
    PointQueryEngine,
    Rect,
    SpatialJoinEngine,
    build_prtree,
)


def make_rects(n: int, max_side: float, seed: int):
    rng = random.Random(seed)
    data = []
    for i in range(n):
        x, y = rng.random(), rng.random()
        w, h = rng.random() * max_side, rng.random() * max_side
        data.append((Rect((x, y), (min(1, x + w), min(1, y + h))), f"obj-{i}"))
    return data


def main() -> None:
    # Two datasets: "restaurants" and "hotels", say.
    restaurants = make_rects(5_000, 0.01, seed=1)
    hotels = make_rects(2_000, 0.01, seed=2)

    r_tree = build_prtree(BlockStore(), restaurants, fanout=32)
    h_tree = build_prtree(BlockStore(), hotels, fanout=32)
    print(f"built PR-trees: {len(r_tree)} restaurants, {len(h_tree)} hotels")

    # 1. Batched kNN: the 5 restaurants nearest to the city center.
    knn_engine = KNNEngine(r_tree)
    neighbors, stats = knn_engine.knn((0.5, 0.5), k=5)
    print(f"\n5 nearest restaurants to (0.5, 0.5) — {stats.leaf_reads} leaf I/Os:")
    for nb in neighbors:
        print(f"  {nb.value:>9} at distance {nb.distance:.4f}")

    # 2. Incremental browsing: walk outward until we pass distance 0.02.
    print("\nincremental browse until distance > 0.02:")
    found = 0
    for nb in knn_engine.nearest((0.5, 0.5)):
        if nb.distance > 0.02:
            break
        found += 1
    print(f"  {found} restaurants within distance 0.02")

    # 3. Spatial join: every (restaurant, hotel) pair whose boxes meet.
    #    The pairs are two row-aligned columns: row r of .left and of
    #    .right is pair r's restaurant and hotel.
    join_engine = SpatialJoinEngine(r_tree, h_tree)
    pairs, jstats = join_engine.join()
    print(
        f"\nspatial join: {len(pairs)} overlapping pairs, "
        f"{jstats.ios} leaf I/Os "
        f"({jstats.left.leaf_reads} left + {jstats.right.leaf_reads} right)"
    )
    hotels_near = {}
    for restaurant, hotel in zip(pairs.left.ids, pairs.right.ids):
        hotels_near.setdefault(restaurant, []).append(hotel)
    busiest = max(hotels_near, key=lambda oid: len(hotels_near[oid]))
    print(
        f"  {len(hotels_near)} restaurants meet a hotel; "
        f"{r_tree.objects.get(busiest)} meets {len(hotels_near[busiest])}"
    )

    # 4. Point, containment and count queries share one engine (and one
    #    warm internal-node cache).
    point_engine = PointQueryEngine(r_tree)
    stabbed, pstats = point_engine.point_query((0.25, 0.25))
    print(
        f"\nstabbing (0.25, 0.25): {len(stabbed)} restaurants cover it "
        f"({pstats.leaf_reads} leaf I/Os)"
    )
    downtown = Rect((0.4, 0.4), (0.6, 0.6))
    contained, _ = point_engine.containment_query(downtown)
    count, cstats = point_engine.count(downtown)
    print(
        f"downtown window: {count} intersecting, {len(contained)} fully "
        f"inside ({cstats.leaf_reads} leaf I/Os for the count)"
    )


if __name__ == "__main__":
    main()
