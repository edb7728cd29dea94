"""Unit tests for the vectorized geometry kernels.

Every frame kernel is compared row by row with the scalar kernels
(which stay in ``src/`` because ``Rect`` delegates to them), bit for
bit: exact float equality, not approximate.  The box kernels are also
compared with the ``(lo, hi)`` kernels they replaced
(``tests/lohi_kernels.py``) in dimensions 1-4, on empty tables and on
±0.0, subnormals, infinities and NaN, and seeded mutations of the box
layout must fail that comparison.  The claim is asserted again end to
end by ``tests/integration/test_vectorized_differential.py``.
"""

import inspect
import itertools
import math
import random
import textwrap

import numpy as np
import pytest

from repro.geometry import kernels
from repro.geometry.rect import Rect, mbr_of

from tests import lohi_kernels
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


def meeting(box, q_lo, q_hi):
    return kernels.frame_rows(kernels.LE, box, kernels.meet_bound(q_lo, q_hi))


def run_in_row_order(box, reach):
    """:func:`kernels.frame_nearest_run`'s distances put back in row
    order."""
    dists, order = kernels.frame_nearest_run(box, reach)
    by_row = [None] * len(order)
    for dist, row in zip(dists, order):
        by_row[row] = dist
    return by_row


class TestFrameKernels:
    def test_frame_intersecting_matches_scalar(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        q_lo, q_hi = query(lo)
        got = as_rows(meeting(kernels.box_of(lo, hi), q_lo, q_hi))
        want = [
            i
            for i in range(len(lo_rows))
            if kernels.intersects(lo_rows[i], hi_rows[i], q_lo, q_hi)
        ]
        assert got == want
        # The (lo, hi) entry point runs the same kernel.
        assert as_rows(kernels.frame_intersecting(lo, hi, q_lo, q_hi)) == want

    def test_frame_containing_point_matches_scalar(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        p = widen((0.45, 0.55), lo.shape[1])
        got = as_rows(meeting(kernels.box_of(lo, hi), p, p))
        want = [
            i
            for i in range(len(lo_rows))
            if kernels.contains_point(lo_rows[i], hi_rows[i], p)
        ]
        assert got == want

    def test_frame_contained_in_matches_scalar(self, tables):
        lo_rows, hi_rows, lo, hi = tables
        q_lo, q_hi = query(lo, ((0.1, 0.1), (0.9, 0.9)))
        bound = kernels.box_bound(q_lo, q_hi)
        got = as_rows(kernels.frame_rows(kernels.GE, kernels.box_of(lo, hi), bound))
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
        box, reach = kernels.box_of(lo, hi), kernels.meet_bound(q_lo, q_hi)
        assert kernels.frame_count(kernels.LE, box, reach) == len(
            meeting(box, q_lo, q_hi)
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
        got = run_in_row_order(kernels.box_of(lo, hi), kernels.meet_bound(q_lo, q_hi))
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
        box = kernels.box_of(make_table(lo_rows, dim), make_table(hi_rows, dim))
        p = widen((0.5, 0.45), dim)
        q_lo, q_hi = query(lo, ((1.2, 1.2), (1.5, 1.6)))
        for t_lo, t_hi, scalar in (
            (p, p, lambda i: kernels.dist_sq_to_point(lo_rows[i], hi_rows[i], p)),
            (q_lo, q_hi,
             lambda i: kernels.dist_sq_to_rect(lo_rows[i], hi_rows[i], q_lo, q_hi)),
        ):
            reach = kernels.meet_bound(t_lo, t_hi)
            dists, order = kernels.frame_nearest_run(box, reach)
            want = sorted((scalar(i), i) for i in range(len(lo_rows)))
            assert list(zip(dists, order)) == want  # exact, ties by row
        empty = kernels.box_table([], dim)
        assert kernels.frame_nearest_run(empty, kernels.meet_bound(p, p)) == ([], [])

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
        box = kernels.box_of(lo, hi)
        inside = (lo_rows[7], [c + 1e-3 for c in lo_rows[7]])
        for q_lo, q_hi in (query(lo), inside, (lo_rows[3], hi_rows[3])):
            bound = kernels.box_bound(q_lo, q_hi)
            assert as_rows(kernels.frame_rows(kernels.LE, box, bound)) == [
                i
                for i in range(len(lo_rows))
                if kernels.contains(lo_rows[i], hi_rows[i], q_lo, q_hi)
            ]
            assert as_rows(kernels.frame_rows(kernels.EQ, box, bound)) == [
                i
                for i in range(len(lo_rows))
                if (lo_rows[i], hi_rows[i]) == (list(q_lo), list(q_hi))
            ]
        bound = kernels.box_bound(lo_rows[3], hi_rows[3])
        assert as_rows(kernels.frame_rows(kernels.EQ, box, bound)) == [3]

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
        reach = kernels.meet_bound((0, 0), (1, 1))
        # A table with rows but no columns, and one with neither (a node
        # built with no entry does not know its dimension).
        for box in (kernels.box_table([], 2), kernels.box_table([], 0)):
            for test in (kernels.LE, kernels.GE, kernels.EQ):
                assert as_rows(kernels.frame_rows(test, box, reach)) == []
                assert kernels.frame_count(test, box, reach) == 0
            assert kernels.frame_nearest_run(box, reach) == ([], [])
        assert as_rows(kernels.frame_intersecting(lo, hi, (0, 0), (1, 1))) == []
        assert kernels.frame_dist_sq_to_point(lo, hi, (0, 0)) == []
        with pytest.raises(ValueError):
            kernels.frame_least_enlargement(lo, hi, (0, 0), (1, 1))
        assert kernels.frame_areas(lo, hi) == []
        assert kernels.frame_margins(lo, hi) == []
        assert kernels.frame_overlap_sum(lo, hi) == 0.0
        with pytest.raises(ValueError):
            kernels.frame_mbr(lo, hi)

    def test_frame_pair_mask_matches_pairwise_intersects(self):
        a_lo_rows, a_hi_rows = random_boxes(12, seed=1)
        b_lo_rows, b_hi_rows = random_boxes(9, seed=2)
        mask = kernels.frame_pair_mask(
            kernels.box_of(make_table(a_lo_rows, 2), make_table(a_hi_rows, 2)),
            kernels.box_of(make_table(b_lo_rows, 2), make_table(b_hi_rows, 2)),
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
        box = kernels.box_of(make_table(lo_rows, 2), make_table(hi_rows, 2))
        empty = kernels.box_table([], 2)
        for shape, mask in (
            ((0, 9), kernels.frame_pair_mask(empty, box)),
            ((9, 0), kernels.frame_pair_mask(box, empty)),
        ):
            assert mask.shape == shape
            assert mask.dtype == np.bool_
            assert int(mask.sum()) == 0


class TestTables:
    def test_box_table_layout(self):
        box = kernels.box_table([(0.25, 0.5, 0.75, 1.0), (-0.0, 2.0, 0.0, 3.0)], 2)
        assert box.dtype == np.float64 and box.flags.c_contiguous
        assert box.tolist() == [[0.25, -0.0], [0.5, 2.0], [-0.75, -0.0], [-1.0, -3.0]]
        # The sign of a zero flips too: -(0.0) is -0.0.
        assert math.copysign(1.0, box[2, 1]) == -1.0
        lo = make_table([(0.25, 0.5), (-0.0, 2.0)], 2)
        hi = make_table([(0.75, 1.0), (0.0, 3.0)], 2)
        assert kernels.box_of(lo, hi).tobytes() == box.tobytes()
        assert kernels.box_table([], 3).shape == (6, 0)

    def test_bounds(self):
        assert kernels.box_bound((1.0, 2.0), (3.0, 4.0)).tolist() == [
            [1.0], [2.0], [-3.0], [-4.0]
        ]
        assert kernels.meet_bound((1.0, 2.0), (3.0, 4.0)).tolist() == [
            [3.0], [4.0], [-1.0], [-2.0]
        ]

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
        reach = kernels.meet_bound(q_lo, q_hi)
        assert run_in_row_order(kernels.box_of(lo, hi), reach) == [
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


# ----------------------------------------------------------------------
# The box kernels against the (lo, hi) kernels they replaced
# ----------------------------------------------------------------------

#: Coordinates from a small pool, so rows and queries touch exactly
#: (boundary contact) and every special value meets every other.
SPECIAL = [-math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.5, 1.0, math.inf]


def special_boxes(n, dim, rng, nan):
    """``n`` boxes over :data:`SPECIAL`; with ``nan``, about one
    coordinate in ten is NaN instead."""
    lo_rows, hi_rows = [], []
    for _ in range(n):
        sides = [sorted(rng.choice(SPECIAL) for _ in range(2)) for _ in range(dim)]
        lo, hi = [a for a, _ in sides], [b for _, b in sides]
        if nan and rng.random() < 0.3:
            (lo if rng.random() < 0.5 else hi)[rng.randrange(dim)] = math.nan
        lo_rows.append(lo)
        hi_rows.append(hi)
    return lo_rows, hi_rows


def reprs(values):
    """Floats compared by ``repr``: every NaN alike, -0.0 apart from 0.0."""
    return [repr(float(v)) for v in values]


def box_differential(dim, seed, nan):
    """Every box kernel equals its ``(lo, hi)`` kernel on one random
    special-value frame, and the scalar kernels where all is finite."""
    rng = random.Random(seed)
    lo_rows, hi_rows = special_boxes(30, dim, rng, nan)
    lo, hi = make_table(lo_rows, dim), make_table(hi_rows, dim)
    box = kernels.box_table([a + b for a, b in zip(lo_rows, hi_rows)], dim)
    q_los, q_his = special_boxes(12, dim, rng, nan)
    queries = list(zip(lo_rows[:6] + q_los, hi_rows[:6] + q_his))
    queries.append(([-math.inf] * dim, [math.inf] * dim))
    finite = all(map(math.isfinite, itertools.chain(*lo_rows, *hi_rows)))
    rows = range(len(lo_rows))
    LE, GE, EQ = kernels.LE, kernels.GE, kernels.EQ
    for q_lo, q_hi in queries:
        reach = kernels.meet_bound(q_lo, q_hi)
        inner = kernels.box_bound(q_lo, q_hi)
        point = kernels.meet_bound(q_lo, q_lo)
        ql, qh = kernels.as_coords(q_lo), kernels.as_coords(q_hi)
        pairs = [
            (kernels.frame_rows(LE, box, reach),
             lohi_kernels.frame_intersecting(lo, hi, ql, qh)),
            (kernels.frame_rows(LE, box, point),
             lohi_kernels.frame_containing_point(lo, hi, ql)),
            (kernels.frame_rows(GE, box, inner),
             lohi_kernels.frame_contained_in(lo, hi, ql, qh)),
            (kernels.frame_rows(LE, box, inner),
             lohi_kernels.frame_containing_rect(lo, hi, ql, qh)),
            (kernels.frame_rows(EQ, box, inner),
             lohi_kernels.frame_equal_to(lo, hi, ql, qh)),
        ]
        for got, want in pairs:
            assert as_rows(got) == as_rows(want)
        assert kernels.frame_count(LE, box, reach) == (
            lohi_kernels.frame_count_intersecting(lo, hi, ql, qh)
        )
        dists, order = kernels.frame_nearest_run(box, reach)
        want_dists, want_order = lohi_kernels.frame_nearest_run(lo, hi, ql, qh)
        assert (reprs(dists), order) == (reprs(want_dists), want_order)
        dists, order = kernels.frame_nearest_run(box, point)
        want_dists, want_order = lohi_kernels.frame_nearest_run(lo, hi, ql, ql)
        assert (reprs(dists), order) == (reprs(want_dists), want_order)
        assert reprs(kernels.frame_dist_sq_to_point(lo, hi, ql)) == reprs(
            lohi_kernels.frame_dist_sq_to_point(lo, hi, ql)
        )
        if not finite or not all(map(math.isfinite, q_lo + q_hi)):
            continue
        assert as_rows(pairs[0][0]) == [
            i for i in rows
            if kernels.intersects(lo_rows[i], hi_rows[i], q_lo, q_hi)
        ]
        assert as_rows(pairs[1][0]) == [
            i for i in rows if kernels.contains_point(lo_rows[i], hi_rows[i], q_lo)
        ]
        assert as_rows(pairs[2][0]) == [
            i for i in rows if kernels.contains(q_lo, q_hi, lo_rows[i], hi_rows[i])
        ]
        assert as_rows(pairs[3][0]) == [
            i for i in rows if kernels.contains(lo_rows[i], hi_rows[i], q_lo, q_hi)
        ]
        assert as_rows(pairs[4][0]) == [
            i for i in rows if (lo_rows[i], hi_rows[i]) == (q_lo, q_hi)
        ]
        assert run_in_row_order(box, reach) == [
            kernels.dist_sq_to_rect(lo_rows[i], hi_rows[i], q_lo, q_hi) for i in rows
        ]


def check_box_kernels():
    # inf - inf is NaN in both kernels alike: nothing to warn about.
    with np.errstate(invalid="ignore"):
        for dim, seed, nan in itertools.product((1, 2, 3, 4), range(4), (False, True)):
            box_differential(dim, seed, nan)


class TestBoxKernelDifferential:
    def test_box_kernels_equal_the_lohi_kernels(self):
        check_box_kernels()

    def test_pair_mask_equals_the_lohi_kernel(self):
        rng = random.Random(9)
        for dim in (1, 2, 3, 4):
            a_lo, a_hi = special_boxes(11, dim, rng, nan=True)
            b_lo, b_hi = special_boxes(7, dim, rng, nan=True)
            tables = [make_table(rows, dim) for rows in (a_lo, a_hi, b_lo, b_hi)]
            got = kernels.frame_pair_mask(
                kernels.box_of(*tables[:2]), kernels.box_of(*tables[2:])
            )
            assert got.tolist() == lohi_kernels.frame_pair_mask(*tables).tolist()


def _mutant(function, old, new):
    """``function`` recompiled from its own source with ``old`` replaced
    by ``new`` (which must occur exactly once)."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


BOX_MUTANTS = {
    "hi-half-not-negated": lambda: {"box_table": _mutant(
        kernels.box_table, "np.negative(box[dim:], out=box[dim:])", "pass"
    )},
    # Boundary contact no longer counts.
    "strict-less": lambda: {"LE": np.less},
    "inner-and-outer-bounds-swapped": lambda: {
        "box_bound": kernels.meet_bound, "meet_bound": kernels.box_bound,
    },
    "fold-over-wrong-axis": lambda: {"frame_rows": _mutant(
        kernels.frame_rows, "axis=0", "axis=1"
    )},
}


class TestBoxKernelMutations:
    @pytest.mark.parametrize("name", sorted(BOX_MUTANTS))
    def test_mutant_caught(self, monkeypatch, name):
        for attribute, value in BOX_MUTANTS[name]().items():
            monkeypatch.setattr(kernels, attribute, value)
        with pytest.raises(AssertionError):
            check_box_kernels()
