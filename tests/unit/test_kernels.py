"""Unit tests for the vectorized geometry kernels.

Every kernel is exercised on both table representations — numpy arrays
(when available) and the pure-Python tuple-of-rows fallback — because
dispatch is by table type: frames built under either backend must
evaluate correctly regardless of which backend built them.  The
bit-identical claim (numpy results == scalar-loop results, exact float
equality) is asserted here at the kernel level and again end-to-end by
``tests/integration/test_vectorized_differential.py``.
"""

import math
import random

import pytest

from repro.geometry import kernels
from repro.geometry.rect import Rect, mbr_of

pytestmark = []

#: Table builders under test: always the tuple fallback, plus numpy
#: arrays when the backend is available.
BACKENDS = ["python"] + (["numpy"] if kernels.HAVE_NUMPY else [])


def make_table(rows, dim, kind):
    if kind == "numpy":
        out = kernels.np.array(rows, dtype=kernels.np.float64)
        return out.reshape(len(rows), dim)
    return tuple(tuple(float(c) for c in row) for row in rows)


def random_boxes(n, seed=0, dim=2):
    rng = random.Random(seed)
    lo_rows, hi_rows = [], []
    for _ in range(n):
        lo = [rng.uniform(0, 0.9) for _ in range(dim)]
        hi = [c + rng.uniform(0, 0.4) for c in lo]
        lo_rows.append(lo)
        hi_rows.append(hi)
    return lo_rows, hi_rows


@pytest.fixture(params=BACKENDS)
def tables(request):
    """A 40-row random frame plus a query box, in one representation."""
    kind = request.param
    lo_rows, hi_rows = random_boxes(40, seed=5)
    lo = make_table(lo_rows, 2, kind)
    hi = make_table(hi_rows, 2, kind)
    return kind, lo_rows, hi_rows, lo, hi


QUERY = ((0.2, 0.3), (0.7, 0.8))


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


class TestFrameKernels:
    def test_frame_intersecting_matches_scalar(self, tables):
        _, lo_rows, hi_rows, lo, hi = tables
        q_lo, q_hi = QUERY
        got = kernels.frame_intersecting(lo, hi, q_lo, q_hi)
        want = [
            i
            for i in range(len(lo_rows))
            if kernels.intersects(lo_rows[i], hi_rows[i], q_lo, q_hi)
        ]
        assert got == want

    def test_frame_containing_point_matches_scalar(self, tables):
        _, lo_rows, hi_rows, lo, hi = tables
        p = (0.45, 0.55)
        got = kernels.frame_containing_point(lo, hi, p)
        want = [
            i
            for i in range(len(lo_rows))
            if kernels.contains_point(lo_rows[i], hi_rows[i], p)
        ]
        assert got == want

    def test_frame_contained_in_matches_scalar(self, tables):
        _, lo_rows, hi_rows, lo, hi = tables
        q_lo, q_hi = (0.1, 0.1), (0.9, 0.9)
        got = kernels.frame_contained_in(lo, hi, q_lo, q_hi)
        want = [
            i
            for i in range(len(lo_rows))
            if kernels.contains(q_lo, q_hi, lo_rows[i], hi_rows[i])
        ]
        assert got == want
        assert got  # the window is big enough that the test is not vacuous

    def test_frame_count_matches_index_list(self, tables):
        _, _, _, lo, hi = tables
        q_lo, q_hi = QUERY
        assert kernels.frame_count_intersecting(lo, hi, q_lo, q_hi) == len(
            kernels.frame_intersecting(lo, hi, q_lo, q_hi)
        )

    def test_frame_dist_sq_to_point_bit_identical(self, tables):
        _, lo_rows, hi_rows, lo, hi = tables
        p = (1.7, -0.3)
        got = kernels.frame_dist_sq_to_point(lo, hi, p)
        want = [
            kernels.dist_sq_to_point(lo_rows[i], hi_rows[i], p)
            for i in range(len(lo_rows))
        ]
        assert got == want  # exact float equality, not approx

    def test_frame_dist_sq_to_rect_bit_identical(self, tables):
        _, lo_rows, hi_rows, lo, hi = tables
        q_lo, q_hi = (1.2, 1.2), (1.5, 1.6)
        got = kernels.frame_dist_sq_to_rect(lo, hi, q_lo, q_hi)
        want = [
            kernels.dist_sq_to_rect(lo_rows[i], hi_rows[i], q_lo, q_hi)
            for i in range(len(lo_rows))
        ]
        assert got == want

    def test_frame_enlargement_bit_identical(self, tables):
        _, lo_rows, hi_rows, lo, hi = tables
        q_lo, q_hi = QUERY
        got = kernels.frame_enlargement(lo, hi, q_lo, q_hi)
        want = [
            kernels.enlargement(lo_rows[i], hi_rows[i], q_lo, q_hi)
            for i in range(len(lo_rows))
        ]
        assert got == want

    def test_frame_mbr_matches_mbr_of(self, tables):
        _, lo_rows, hi_rows, lo, hi = tables
        got_lo, got_hi = kernels.frame_mbr(lo, hi)
        want = mbr_of(
            Rect(lo_rows[i], hi_rows[i]) for i in range(len(lo_rows))
        )
        assert (got_lo, got_hi) == (want.lo, want.hi)

    def test_find_leaf_row_kernels_match_scalar(self, tables):
        _, lo_rows, hi_rows, lo, hi = tables
        inside = (lo_rows[7], [lo_rows[7][0] + 1e-3, lo_rows[7][1] + 1e-3])
        for q_lo, q_hi in (QUERY, inside, (lo_rows[3], hi_rows[3])):
            assert kernels.frame_containing_rect(lo, hi, q_lo, q_hi) == [
                i
                for i in range(len(lo_rows))
                if kernels.contains(lo_rows[i], hi_rows[i], q_lo, q_hi)
            ]
            assert kernels.frame_equal_to(lo, hi, q_lo, q_hi) == [
                i
                for i in range(len(lo_rows))
                if (lo_rows[i], hi_rows[i]) == (list(q_lo), list(q_hi))
            ]
        assert kernels.frame_equal_to(lo, hi, lo_rows[3], hi_rows[3]) == [3]

    def test_frame_areas_and_margins_bit_identical(self, tables):
        _, lo_rows, hi_rows, lo, hi = tables
        rects = [Rect(lo_rows[i], hi_rows[i]) for i in range(len(lo_rows))]
        assert kernels.frame_areas(lo, hi) == [r.area() for r in rects]
        assert kernels.frame_margins(lo, hi) == [r.margin() for r in rects]

    def test_frame_overlap_sum_is_the_sequential_double_loop(self, tables):
        _, lo_rows, hi_rows, lo, hi = tables
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
        for kind in BACKENDS:
            lo = make_table([], 2, kind)
            hi = make_table([], 2, kind)
            assert kernels.frame_intersecting(lo, hi, (0, 0), (1, 1)) == []
            assert kernels.frame_containing_point(lo, hi, (0, 0)) == []
            assert kernels.frame_contained_in(lo, hi, (0, 0), (1, 1)) == []
            assert kernels.frame_count_intersecting(lo, hi, (0, 0), (1, 1)) == 0
            assert kernels.frame_dist_sq_to_point(lo, hi, (0, 0)) == []
            assert kernels.frame_dist_sq_to_rect(lo, hi, (0, 0), (1, 1)) == []
            assert kernels.frame_enlargement(lo, hi, (0, 0), (1, 1)) == []
            assert kernels.frame_containing_rect(lo, hi, (0, 0), (1, 1)) == []
            assert kernels.frame_equal_to(lo, hi, (0, 0), (1, 1)) == []
            assert kernels.frame_areas(lo, hi) == []
            assert kernels.frame_margins(lo, hi) == []
            assert kernels.frame_overlap_sum(lo, hi) == 0.0
            with pytest.raises(ValueError):
                kernels.frame_mbr(lo, hi)

    @pytest.mark.skipif(not kernels.HAVE_NUMPY, reason="needs numpy")
    def test_frame_pair_mask_matches_pairwise_intersects(self):
        a_lo_rows, a_hi_rows = random_boxes(12, seed=1)
        b_lo_rows, b_hi_rows = random_boxes(9, seed=2)
        mask = kernels.frame_pair_mask(
            make_table(a_lo_rows, 2, "numpy"),
            make_table(a_hi_rows, 2, "numpy"),
            make_table(b_lo_rows, 2, "numpy"),
            make_table(b_hi_rows, 2, "numpy"),
        )
        assert mask.shape == (12, 9)
        for i in range(12):
            for j in range(9):
                assert bool(mask[i, j]) == kernels.intersects(
                    a_lo_rows[i], a_hi_rows[i], b_lo_rows[j], b_hi_rows[j]
                )

    def test_frame_pair_mask_fallback_returns_none(self):
        a_lo_rows, a_hi_rows = random_boxes(3, seed=1)
        assert (
            kernels.frame_pair_mask(
                make_table(a_lo_rows, 2, "python"),
                make_table(a_hi_rows, 2, "python"),
                make_table(a_lo_rows, 2, "python"),
                make_table(a_hi_rows, 2, "python"),
            )
            is None
        )


class TestBatchKernels:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_batch_matches_per_query_frame_scans(self, kind):
        lo_rows, hi_rows = random_boxes(30, seed=9)
        lo = make_table(lo_rows, 2, kind)
        hi = make_table(hi_rows, 2, kind)
        windows = [
            Rect((0.1, 0.1), (0.4, 0.4)),
            Rect((0.5, 0.5), (0.9, 0.9)),
            Rect((2.0, 2.0), (3.0, 3.0)),  # matches nothing
        ]
        q_lo, q_hi = kernels.batch_windows(windows, 2)
        if kind == "python" and kernels.HAVE_NUMPY:
            # Force the fallback pairing: tuple query tables too.
            q_lo = make_table([w.lo for w in windows], 2, "python")
            q_hi = make_table([w.hi for w in windows], 2, "python")
        got = kernels.batch_intersecting(lo, hi, q_lo, q_hi, [0, 1, 2])
        for q, w in enumerate(windows):
            want = kernels.frame_intersecting(lo, hi, w.lo, w.hi)
            if want:
                assert got[q] == want
            else:
                assert q not in got

    def test_batch_respects_active_subset(self):
        lo_rows, hi_rows = random_boxes(20, seed=3)
        lo = make_table(lo_rows, 2, BACKENDS[-1])
        hi = make_table(hi_rows, 2, BACKENDS[-1])
        windows = [Rect((0, 0), (1, 1)), Rect((0, 0), (1, 1))]
        q_lo, q_hi = kernels.batch_windows(windows, 2)
        got = kernels.batch_intersecting(lo, hi, q_lo, q_hi, [1])
        assert set(got) == {1}
        assert got[1] == list(range(20))

    def test_batch_empty_frame(self):
        windows = [Rect((0, 0), (1, 1))]
        q_lo, q_hi = kernels.batch_windows(windows, 2)
        lo = make_table([], 2, BACKENDS[-1])
        hi = make_table([], 2, BACKENDS[-1])
        assert kernels.batch_intersecting(lo, hi, q_lo, q_hi, [0]) == {}


class TestTables:
    def test_coord_table_round_trip(self):
        rows = [(0.25, 0.5), (0.75, 1.0)]
        for kind in BACKENDS:
            table = make_table(rows, 2, kind)
            assert kernels.table_len(table) == 2
            assert kernels.table_row(table, 1) == (0.75, 1.0)
            assert isinstance(kernels.table_row(table, 0)[0], float)
            assert kernels.table_column(table, 0) == [0.25, 0.75]

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_row_edits_return_new_tables(self, kind):
        rows = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        table = make_table(rows, 2, kind)

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
        if kernels.HAVE_NUMPY:
            assert isinstance(table, kernels.np.ndarray)
            assert table.shape == (1, 2)
        else:
            assert table == ((0.0, 1.0),)
        empty = kernels.coord_table([], 3)
        assert kernels.table_len(empty) == 0

    def test_backend_tag_consistent(self):
        assert kernels.BACKEND == (
            "numpy" if kernels.HAVE_NUMPY else "python"
        )


class TestKernelPhases:
    def test_kernels_push_their_phase_when_profiling(self, monkeypatch):
        events = []

        def fake_push(name):
            events.append(("push", name))
            return True

        monkeypatch.setattr(kernels, "push_phase", fake_push)
        monkeypatch.setattr(
            kernels, "pop_phase", lambda: events.append(("pop", None))
        )
        lo_rows, hi_rows = random_boxes(4, seed=0)
        lo = make_table(lo_rows, 2, BACKENDS[-1])
        hi = make_table(hi_rows, 2, BACKENDS[-1])
        kernels.frame_intersecting(lo, hi, (0, 0), (1, 1))
        assert events == [
            ("push", "kernel:frame_intersecting"),
            ("pop", None),
        ]

    def test_kernels_skip_phase_bookkeeping_when_idle(self, monkeypatch):
        pops = []
        monkeypatch.setattr(kernels, "push_phase", lambda name: False)
        monkeypatch.setattr(kernels, "pop_phase", lambda: pops.append(1))
        lo_rows, hi_rows = random_boxes(4, seed=0)
        lo = make_table(lo_rows, 2, BACKENDS[-1])
        hi = make_table(hi_rows, 2, BACKENDS[-1])
        kernels.frame_intersecting(lo, hi, (0, 0), (1, 1))
        assert pops == []

    def test_vocabulary_lists_kernel_prefix(self):
        from repro.obs.profiler import PHASE_VOCABULARY

        assert "kernel:*" in PHASE_VOCABULARY

    def test_wrapped_kernels_keep_their_names(self):
        assert kernels.frame_intersecting.__name__ == "frame_intersecting"
        assert kernels.frame_intersecting.__wrapped__ is not None


@pytest.mark.skipif(not kernels.HAVE_NUMPY, reason="needs numpy")
class TestCrossBackendBitIdentity:
    """numpy and tuple tables produce exactly equal floats."""

    def test_distance_and_enlargement_values(self):
        lo_rows, hi_rows = random_boxes(64, seed=17, dim=3)
        lo_np = make_table(lo_rows, 3, "numpy")
        hi_np = make_table(hi_rows, 3, "numpy")
        lo_py = make_table(lo_rows, 3, "python")
        hi_py = make_table(hi_rows, 3, "python")
        p = (1.3, -0.2, 0.7)
        q_lo, q_hi = (0.4, 0.4, 0.4), (0.6, 0.6, 0.6)
        assert kernels.frame_dist_sq_to_point(
            lo_np, hi_np, p
        ) == kernels.frame_dist_sq_to_point(lo_py, hi_py, p)
        assert kernels.frame_dist_sq_to_rect(
            lo_np, hi_np, q_lo, q_hi
        ) == kernels.frame_dist_sq_to_rect(lo_py, hi_py, q_lo, q_hi)
        assert kernels.frame_enlargement(
            lo_np, hi_np, q_lo, q_hi
        ) == kernels.frame_enlargement(lo_py, hi_py, q_lo, q_hi)
        assert kernels.frame_mbr(lo_np, hi_np) == kernels.frame_mbr(
            lo_py, hi_py
        )
        assert kernels.frame_areas(lo_np, hi_np) == kernels.frame_areas(
            lo_py, hi_py
        )
        assert kernels.frame_margins(lo_np, hi_np) == kernels.frame_margins(
            lo_py, hi_py
        )
        assert kernels.frame_overlap_sum(
            lo_np, hi_np, 0.3
        ) == kernels.frame_overlap_sum(lo_py, hi_py, 0.3)
        for min_fill in (1, 20, 32):
            assert kernels.quadratic_split(
                lo_np, hi_np, min_fill
            ) == kernels.quadratic_split(lo_py, hi_py, min_fill)

    def test_predicates_and_distances_vs_math(self):
        # Sanity: the shared arithmetic really is the textbook formulas.
        r = Rect((0.0, 0.0), (1.0, 1.0))
        assert r.min_dist_to_point((2.0, 1.0)) == 1.0
        assert r.min_dist_to_rect(Rect((2, 2), (3, 3))) == math.sqrt(2.0)
