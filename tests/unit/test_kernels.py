"""Unit tests for the vectorized geometry kernels.

Every frame kernel is compared row by row with the scalar kernels
(which stay in ``src/`` because ``Rect`` delegates to them), bit for
bit: exact float equality, not approximate.  The claim is asserted
again end to end by ``tests/integration/test_vectorized_differential.py``.
"""

import math
import random

import numpy as np
import pytest

from repro.geometry import kernels
from repro.geometry.rect import Rect, mbr_of

from tests.integration.test_vectorized_differential import (
    oracle_quadratic_split,
)


def make_table(rows, dim):
    return np.array(rows, dtype=np.float64).reshape(len(rows), dim)


def random_boxes(n, seed=0, dim=2):
    rng = random.Random(seed)
    lo_rows, hi_rows = [], []
    for _ in range(n):
        lo = [rng.uniform(0, 0.9) for _ in range(dim)]
        hi = [c + rng.uniform(0, 0.4) for c in lo]
        lo_rows.append(lo)
        hi_rows.append(hi)
    return lo_rows, hi_rows


def scalar_least_enlargement(lo_rows, hi_rows, q_lo, q_hi):
    """ChooseLeaf row by row: least growth, then least area, first row."""
    best, best_key = None, None
    for i, (lo, hi) in enumerate(zip(lo_rows, hi_rows)):
        key = (kernels.enlargement(lo, hi, q_lo, q_hi), kernels.area(lo, hi))
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best


def widen(coords, dim):
    """``coords`` repeated axis by axis out to ``dim`` (2-d unchanged)."""
    return tuple(coords[k % len(coords)] for k in range(dim))


@pytest.fixture(params=[2, 3], ids=["2d", "3d"])
def tables(request):
    """A 40-row random frame, as coordinate rows and as tables."""
    dim = request.param
    lo_rows, hi_rows = random_boxes(40, seed=5, dim=dim)
    return lo_rows, hi_rows, make_table(lo_rows, dim), make_table(hi_rows, dim)


QUERY = ((0.2, 0.3), (0.7, 0.8))


def query(lo, box=QUERY):
    """``box`` widened to the dimension of the frame ``lo``."""
    dim = lo.shape[1]
    return widen(box[0], dim), widen(box[1], dim)


class TestScalarKernels:
    def test_intersects_matches_interval_logic(self):
        assert kernels.intersects((0, 0), (1, 1), (1, 1), (2, 2))  # corner touch
        assert not kernels.intersects((0, 0), (1, 1), (1.01, 0), (2, 1))
        assert kernels.intersects((0, 0), (2, 2), (0.5, 0.5), (1, 1))

    def test_contains_and_contains_point(self):
        assert kernels.contains((0, 0), (2, 2), (0.5, 0.5), (1, 1))
        assert not kernels.contains((0, 0), (2, 2), (0.5, 0.5), (3, 1))
        assert kernels.contains_point((0, 0), (1, 1), (1.0, 0.0))  # boundary
        assert not kernels.contains_point((0, 0), (1, 1), (1.5, 0.5))

    def test_distances(self):
        assert kernels.dist_sq_to_point((0, 0), (1, 1), (0.5, 0.5)) == 0.0
        assert kernels.dist_sq_to_point((0, 0), (1, 1), (2.0, 1.0)) == 1.0
        assert kernels.dist_sq_to_rect((0, 0), (1, 1), (2, 2), (3, 3)) == 2.0
        assert kernels.dist_sq_to_rect((0, 0), (1, 1), (0.5, 0), (2, 1)) == 0.0

    def test_area_and_enlargement_match_rect_methods(self):
        a = Rect((0.0, 0.0), (2.0, 1.0))
        b = Rect((1.0, 0.5), (3.0, 3.0))
        assert kernels.area(a.lo, a.hi) == a.area()
        want = a.union(b).area() - a.area()
        assert kernels.enlargement(a.lo, a.hi, b.lo, b.hi) == want


def as_rows(rows):
    """A row kernel's index array, checked and made a list."""
    assert isinstance(rows, np.ndarray) and rows.dtype.kind == "i"
    return rows.tolist()


class TestFrameKernels:
    def test_frame_intersecting_matches_scalar(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        q_lo, q_hi = query(lo)
        got = as_rows(kernels.frame_intersecting(lo, hi, q_lo, q_hi))
        want = [
            i
            for i in range(len(lo_rows))
            if kernels.intersects(lo_rows[i], hi_rows[i], q_lo, q_hi)
        ]
        assert got == want

    def test_frame_containing_point_matches_scalar(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        p = widen((0.45, 0.55), lo.shape[1])
        got = as_rows(kernels.frame_containing_point(lo, hi, p))
        want = [
            i
            for i in range(len(lo_rows))
            if kernels.contains_point(lo_rows[i], hi_rows[i], p)
        ]
        assert got == want

    def test_frame_contained_in_matches_scalar(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        q_lo, q_hi = query(lo, ((0.1, 0.1), (0.9, 0.9)))
        got = as_rows(kernels.frame_contained_in(lo, hi, q_lo, q_hi))
        want = [
            i
            for i in range(len(lo_rows))
            if kernels.contains(q_lo, q_hi, lo_rows[i], hi_rows[i])
        ]
        assert got == want
        assert got  # the window is big enough that the test is not vacuous

    def test_frame_count_matches_index_list(self, tables):
        _, _, lo, hi = tables
        q_lo, q_hi = query(lo)
        assert kernels.frame_count_intersecting(lo, hi, q_lo, q_hi) == len(
            kernels.frame_intersecting(lo, hi, q_lo, q_hi)
        )

    def test_frame_dist_sq_to_point_bit_identical(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        p = widen((1.7, -0.3), lo.shape[1])
        got = kernels.frame_dist_sq_to_point(lo, hi, p)
        want = [
            kernels.dist_sq_to_point(lo_rows[i], hi_rows[i], p)
            for i in range(len(lo_rows))
        ]
        assert got == want  # exact float equality, not approx

    def test_frame_dist_sq_to_rect_bit_identical(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        q_lo, q_hi = query(lo, ((1.2, 1.2), (1.5, 1.6)))
        got = kernels.frame_dist_sq_to_rect(lo, hi, q_lo, q_hi)
        want = [
            kernels.dist_sq_to_rect(lo_rows[i], hi_rows[i], q_lo, q_hi)
            for i in range(len(lo_rows))
        ]
        assert got == want

    def test_frame_nearest_run_orders_by_distance_then_row(self, tables):
        lo_rows, hi_rows, lo, _ = tables
        dim = lo.shape[1]
        # Every row twice, the copies reversed: each distance ties with
        # at least one other row, far apart in the frame.
        lo_rows, hi_rows = lo_rows + lo_rows[::-1], hi_rows + hi_rows[::-1]
        lo, hi = make_table(lo_rows, dim), make_table(hi_rows, dim)
        p = kernels.as_coords(widen((0.5, 0.45), dim))
        q_lo, q_hi = map(kernels.as_coords, query(lo, ((1.2, 1.2), (1.5, 1.6))))
        for t_lo, t_hi, scalar in (
            (p, p, lambda i: kernels.dist_sq_to_point(lo_rows[i], hi_rows[i], p)),
            (q_lo, q_hi,
             lambda i: kernels.dist_sq_to_rect(lo_rows[i], hi_rows[i], q_lo, q_hi)),
        ):
            dists, order = kernels.frame_nearest_run(lo, hi, t_lo, t_hi)
            want = sorted((scalar(i), i) for i in range(len(lo_rows)))
            assert list(zip(dists, order)) == want  # exact, ties by row
        empty = make_table([], dim)
        assert kernels.frame_nearest_run(empty, empty, p, p) == ([], [])

    def test_frame_least_enlargement_matches_scalar(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        dim = lo.shape[1]
        # Every row twice, the copies reversed: growth and area both tie
        # between rows far apart, so the first-row rule decides.
        twice_lo, twice_hi = lo_rows + lo_rows[::-1], hi_rows + hi_rows[::-1]
        for rows_lo, rows_hi in ((lo_rows, hi_rows), (twice_lo, twice_hi)):
            t_lo, t_hi = make_table(rows_lo, dim), make_table(rows_hi, dim)
            for q_lo, q_hi in (
                query(lo),
                query(lo, ((0.5, 0.5), (0.5, 0.5))),
                (rows_lo[7], rows_hi[7]),
                query(lo, ((-1.0, -1.0), (3.0, 3.0))),
            ):
                got = kernels.frame_least_enlargement(t_lo, t_hi, q_lo, q_hi)
                assert got == scalar_least_enlargement(
                    rows_lo, rows_hi, q_lo, q_hi
                )

    def test_frame_mbr_matches_mbr_of(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        got_lo, got_hi = kernels.frame_mbr(lo, hi)
        want = mbr_of(
            Rect(lo_rows[i], hi_rows[i]) for i in range(len(lo_rows))
        )
        assert (got_lo, got_hi) == (want.lo, want.hi)

    def test_find_leaf_row_kernels_match_scalar(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        inside = (lo_rows[7], [c + 1e-3 for c in lo_rows[7]])
        for q_lo, q_hi in (query(lo), inside, (lo_rows[3], hi_rows[3])):
            assert as_rows(
                kernels.frame_containing_rect(lo, hi, q_lo, q_hi)
            ) == [
                i
                for i in range(len(lo_rows))
                if kernels.contains(lo_rows[i], hi_rows[i], q_lo, q_hi)
            ]
            assert as_rows(kernels.frame_equal_to(lo, hi, q_lo, q_hi)) == [
                i
                for i in range(len(lo_rows))
                if (lo_rows[i], hi_rows[i]) == (list(q_lo), list(q_hi))
            ]
        assert as_rows(
            kernels.frame_equal_to(lo, hi, lo_rows[3], hi_rows[3])
        ) == [3]

    def test_frame_areas_and_margins_bit_identical(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        rects = [Rect(lo_rows[i], hi_rows[i]) for i in range(len(lo_rows))]
        assert kernels.frame_areas(lo, hi) == [r.area() for r in rects]
        assert kernels.frame_margins(lo, hi) == [r.margin() for r in rects]

    def test_frame_overlap_sum_is_the_sequential_double_loop(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        want = 0.125
        for i in range(len(lo_rows)):
            for j in range(i + 1, len(lo_rows)):
                want += kernels.intersection_area(
                    lo_rows[i], hi_rows[i], lo_rows[j], hi_rows[j]
                )
        assert kernels.frame_overlap_sum(lo, hi, 0.125) == want
        assert kernels.frame_overlap_sum(lo[:1], hi[:1], 0.5) == 0.5

    def test_intersection_area_touching_boxes_share_nothing(self):
        assert kernels.intersection_area((0, 0), (2, 2), (1, 1), (3, 3)) == 1.0
        assert kernels.intersection_area((0, 0), (1, 1), (1, 0), (2, 1)) == 0.0
        assert kernels.intersection_area((0, 0), (1, 1), (5, 5), (6, 6)) == 0.0

    def test_empty_frames(self):
        lo = make_table([], 2)
        hi = make_table([], 2)
        assert as_rows(kernels.frame_intersecting(lo, hi, (0, 0), (1, 1))) == []
        assert as_rows(kernels.frame_containing_point(lo, hi, (0, 0))) == []
        assert as_rows(kernels.frame_contained_in(lo, hi, (0, 0), (1, 1))) == []
        assert kernels.frame_count_intersecting(lo, hi, (0, 0), (1, 1)) == 0
        assert kernels.frame_dist_sq_to_point(lo, hi, (0, 0)) == []
        assert kernels.frame_dist_sq_to_rect(lo, hi, (0, 0), (1, 1)) == []
        with pytest.raises(ValueError):
            kernels.frame_least_enlargement(lo, hi, (0, 0), (1, 1))
        assert as_rows(kernels.frame_containing_rect(lo, hi, (0, 0), (1, 1))) == []
        assert as_rows(kernels.frame_equal_to(lo, hi, (0, 0), (1, 1))) == []
        assert kernels.frame_areas(lo, hi) == []
        assert kernels.frame_margins(lo, hi) == []
        assert kernels.frame_overlap_sum(lo, hi) == 0.0
        with pytest.raises(ValueError):
            kernels.frame_mbr(lo, hi)

    def test_frame_pair_mask_matches_pairwise_intersects(self):
        a_lo_rows, a_hi_rows = random_boxes(12, seed=1)
        b_lo_rows, b_hi_rows = random_boxes(9, seed=2)
        mask = kernels.frame_pair_mask(
            make_table(a_lo_rows, 2),
            make_table(a_hi_rows, 2),
            make_table(b_lo_rows, 2),
            make_table(b_hi_rows, 2),
        )
        assert mask.shape == (12, 9)
        for i in range(12):
            for j in range(9):
                assert bool(mask[i, j]) == kernels.intersects(
                    a_lo_rows[i], a_hi_rows[i], b_lo_rows[j], b_hi_rows[j]
                )

    def test_frame_pair_mask_of_an_empty_frame_is_an_empty_mask(self):
        # The count-only join sums the mask, so an empty leaf needs a
        # zero-sized mask, never a missing one.
        lo_rows, hi_rows = random_boxes(9, seed=2)
        lo, hi = make_table(lo_rows, 2), make_table(hi_rows, 2)
        empty = make_table([], 2)
        for shape, mask in (
            ((0, 9), kernels.frame_pair_mask(empty, empty, lo, hi)),
            ((9, 0), kernels.frame_pair_mask(lo, hi, empty, empty)),
        ):
            assert mask.shape == shape
            assert mask.dtype == np.bool_
            assert int(mask.sum()) == 0


class TestTables:
    def test_coord_table_round_trip(self):
        table = make_table([(0.25, 0.5), (0.75, 1.0)], 2)
        assert kernels.table_len(table) == 2
        assert kernels.table_row(table, 1) == (0.75, 1.0)
        assert isinstance(kernels.table_row(table, 0)[0], float)
        assert kernels.table_column(table, 0) == [0.25, 0.75]

    def test_row_edits_return_new_tables(self):
        rows = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        table = make_table(rows, 2)

        def as_rows(t):
            return [list(kernels.table_row(t, i)) for i in range(len(t))]

        assert as_rows(kernels.table_append(table, (6.0, 7.0))) == rows + [
            [6.0, 7.0]
        ]
        assert as_rows(kernels.table_replace(table, 1, (9.0, 9.0))) == [
            rows[0], [9.0, 9.0], rows[2]
        ]
        assert as_rows(kernels.table_delete(table, 0)) == rows[1:]
        assert as_rows(kernels.table_delete(table, 2)) == rows[:2]
        assert as_rows(kernels.table_take(table, [2, 0])) == [rows[2], rows[0]]
        assert as_rows(table) == rows  # the source is never edited in place
        # An empty node's table has no width until its first row.
        empty = kernels.coord_table([], 0)
        assert as_rows(kernels.table_append(empty, (1.0, 2.0))) == [[1.0, 2.0]]

    def test_coord_table_uses_active_backend(self):
        table = kernels.coord_table([(0.0, 1.0)], 2)
        assert isinstance(table, np.ndarray)
        assert table.dtype == np.float64 and table.flags.c_contiguous
        assert table.shape == (1, 2)
        empty = kernels.coord_table([], 3)
        assert empty.shape == (0, 3)

    def test_backend_tag_consistent(self):
        # The two constants bench/stack.py still reads.
        assert kernels.HAVE_NUMPY is True
        assert kernels.BACKEND == "numpy"


class TestThreeDimensionalBitIdentity:
    """In 3-d too, every frame kernel equals the scalar kernels exactly."""

    def test_distance_and_enlargement_values(self):
        lo_rows, hi_rows = random_boxes(64, seed=17, dim=3)
        lo = make_table(lo_rows, 3)
        hi = make_table(hi_rows, 3)
        rows = range(len(lo_rows))
        p = (1.3, -0.2, 0.7)
        q_lo, q_hi = (0.4, 0.4, 0.4), (0.6, 0.6, 0.6)
        assert kernels.frame_dist_sq_to_point(lo, hi, p) == [
            kernels.dist_sq_to_point(lo_rows[i], hi_rows[i], p) for i in rows
        ]
        assert kernels.frame_dist_sq_to_rect(lo, hi, q_lo, q_hi) == [
            kernels.dist_sq_to_rect(lo_rows[i], hi_rows[i], q_lo, q_hi)
            for i in rows
        ]
        assert kernels.frame_least_enlargement(
            lo, hi, q_lo, q_hi
        ) == scalar_least_enlargement(lo_rows, hi_rows, q_lo, q_hi)
        rects = [Rect(lo_rows[i], hi_rows[i]) for i in rows]
        box = mbr_of(rects)
        assert kernels.frame_mbr(lo, hi) == (box.lo, box.hi)
        assert kernels.frame_areas(lo, hi) == [
            kernels.area(lo_rows[i], hi_rows[i]) for i in rows
        ]
        assert kernels.frame_margins(lo, hi) == [r.margin() for r in rects]
        want = 0.3
        for i in rows:
            for j in range(i + 1, len(lo_rows)):
                want += kernels.intersection_area(
                    lo_rows[i], hi_rows[i], lo_rows[j], hi_rows[j]
                )
        assert kernels.frame_overlap_sum(lo, hi, 0.3) == want
        entries = [(rect, i) for i, rect in enumerate(rects)]
        for min_fill in (1, 20, 32):
            want_a, want_b = oracle_quadratic_split(entries, min_fill)
            assert kernels.quadratic_split(lo, hi, min_fill) == (
                [i for _, i in want_a],
                [i for _, i in want_b],
            )

    def test_predicates_and_distances_vs_math(self):
        # Sanity: the shared arithmetic really is the textbook formulas.
        r = Rect((0.0, 0.0), (1.0, 1.0))
        assert r.min_dist_to_point((2.0, 1.0)) == 1.0
        assert r.min_dist_to_rect(Rect((2, 2), (3, 3))) == math.sqrt(2.0)
