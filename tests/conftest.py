"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.rtree.node import NodeFrame
from repro.rtree.query import Matches

# Tree builds inside @given bodies make per-example wall-clock noisy on
# slow CI runners; the property tests assert I/O counts, not time.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


def random_rects(n: int, seed: int = 0, dim: int = 2, max_side: float = 0.05):
    """Deterministic random rectangles in the unit cube, with index values."""
    rng = random.Random(seed)
    data = []
    for i in range(n):
        lo = [rng.random() * (1 - max_side) for _ in range(dim)]
        hi = [c + rng.random() * max_side for c in lo]
        data.append((Rect(lo, hi), i))
    return data


def random_windows(count: int, seed: int = 0, dim: int = 2, side: float = 0.2):
    """Deterministic random query windows in the unit cube."""
    rng = random.Random(seed)
    windows = []
    for _ in range(count):
        lo = [rng.random() * (1 - side) for _ in range(dim)]
        windows.append(Rect(lo, [c + side for c in lo]))
    return windows


def split_entries(splitter, entries, min_fill):
    """Run a row-returning splitter on an entry list; the two groups
    as entry lists."""
    frame = NodeFrame.from_entries(
        False, [(rect, row) for row, (rect, _) in enumerate(entries)]
    )
    keep, move = splitter(frame.lo, frame.hi, min_fill)
    return [entries[k] for k in keep], [entries[k] for k in move]


def assert_same_matches(got, want, context=""):
    """Compare query results by their attached values."""
    got_values = sorted(value for _, value in got)
    want_values = sorted(value for _, value in want)
    assert got_values == want_values, (
        f"{context}: got {len(got_values)} matches, want {len(want_values)}"
    )


@pytest.fixture
def store() -> BlockStore:
    """A fresh simulated disk."""
    return BlockStore()


@pytest.fixture
def small_data():
    """300 small random rectangles (fast default dataset)."""
    return random_rects(300, seed=7)


@pytest.fixture
def medium_data():
    """2000 small random rectangles."""
    return random_rects(2000, seed=11)


def matches_of(parts, values, dim):
    """A ``Matches`` of several ``(frame, rows)`` parts, as the one part
    a result holds: the frames concatenated, each part's rows moved
    past the rows of the frames before it."""
    parts = list(parts)
    if not parts:
        return Matches(dim=dim)
    rows, start = [], 0
    for frame, part_rows in parts:
        rows.extend(start + int(i) for i in part_rows)
        start += len(frame)
    return Matches(
        NodeFrame.concat([frame for frame, _ in parts]), rows, values, dim
    )
