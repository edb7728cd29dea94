"""Unit tests for per-query EXPLAIN plan capture."""

import itertools

import pytest

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.obs.slowlog import SlowQueryLog
from repro.prtree.prtree import build_prtree
from repro.queries.explain import JoinPlan, QueryPlan, install, uninstall
from repro.queries.join import SpatialJoinEngine
from repro.queries.knn import KNNEngine
from repro.queries.point import PointQueryEngine
from repro.rtree.query import QueryEngine
from repro.server import (
    CountRequest,
    JoinRequest,
    KNNRequest,
    PointRequest,
    QueryServer,
    WindowRequest,
)
from repro.storage import PagedTree, open_index, pack_tree, shard_pack

from tests.conftest import random_rects

WINDOW = Rect((0.2, 0.2), (0.6, 0.6))


@pytest.fixture
def paged(tmp_path):
    data = random_rects(800, seed=31)
    tree = build_prtree(BlockStore(), data, 16)
    path = tmp_path / "explain.pack"
    pack_tree(tree, path, block_size=1024)
    with PagedTree.open(path, values=dict(tree.objects)) as handle:
        yield handle


def check_plan_shape(plan: QueryPlan, stats) -> None:
    """Invariants every captured single-tree plan satisfies."""
    assert plan.leaf_reads == stats.leaf_reads
    assert plan.internal_reads == stats.internal_reads
    assert plan.internal_visits == stats.internal_visits
    assert [l.level for l in plan.levels] == sorted(
        l.level for l in plan.levels
    )
    assert plan.levels[0].level == 0 and plan.levels[0].nodes == 1
    assert plan.levels[-1].leaf
    # Leaf-level node visits are exactly the paper's counted leaf I/Os.
    assert sum(l.nodes for l in plan.levels if l.leaf) == stats.leaf_reads
    assert plan.nodes_visited == sum(l.nodes for l in plan.levels)
    for level in plan.levels:
        assert 0 <= level.matched <= level.entries
        assert level.pruned == level.entries - level.matched
    assert plan.pruning_efficiency >= 0.0


class TestWindowPlan:
    def test_plan_matches_stats(self, paged):
        engine = QueryEngine(paged)
        recorder = install(engine)
        rows, stats = engine.query(WINDOW)
        plan = uninstall(engine, recorder, "window", stats)
        assert isinstance(plan, QueryPlan)
        assert plan.kind == "window"
        assert plan.height == paged.height and plan.fanout == paged.fanout
        check_plan_shape(plan, stats)
        assert plan.reported == stats.reported == len(rows)
        leaf = plan.levels[-1]
        assert leaf.matched == len(rows)

    def test_uninstall_disarms(self, paged):
        engine = QueryEngine(paged)
        recorder = install(engine)
        _, stats = engine.query(WINDOW)
        uninstall(engine, recorder, "window", stats)
        assert engine._recorder is None
        # The next query runs clean and identically.
        rows_again, _ = engine.query(WINDOW)
        rows_recorded, _ = QueryEngine(paged).query(WINDOW)
        assert sorted(v for _, v in rows_again) == sorted(
            v for _, v in rows_recorded
        )

    def test_results_identical_under_recording(self, paged):
        plain, _ = QueryEngine(paged).query(WINDOW)
        engine = QueryEngine(paged)
        recorder = install(engine)
        recorded, stats = engine.query(WINDOW)
        uninstall(engine, recorder, "window", stats)
        assert sorted(v for _, v in recorded) == sorted(
            v for _, v in plain
        )

    def test_lower_bound_and_efficiency(self, paged):
        engine = QueryEngine(paged)
        recorder = install(engine)
        _, stats = engine.query(WINDOW)
        plan = uninstall(engine, recorder, "window", stats)
        assert plan.leaf_lower_bound == -(-plan.reported // plan.fanout)
        if plan.leaf_reads:
            assert plan.pruning_efficiency == (
                plan.leaf_lower_bound / plan.leaf_reads
            )

    def test_summary_and_render(self, paged):
        engine = QueryEngine(paged)
        recorder = install(engine)
        _, stats = engine.query(WINDOW)
        plan = uninstall(engine, recorder, "window", stats)
        summary = plan.summary()
        assert f"leaf_ios={plan.leaf_reads}" in summary
        assert f"nodes={plan.nodes_visited}" in summary
        text = plan.render()
        assert "plan: window" in text
        assert "L0 root" in text
        assert "pruning efficiency" in text

    def test_install_rejects_foreign_engines(self):
        assert install(object()) is None

    def test_uninstall_none_recorder(self, paged):
        engine = QueryEngine(paged)
        _, stats = engine.query(WINDOW)
        assert uninstall(engine, None, "window", stats) is None


class TestOperatorPlans:
    def test_point_plan(self, paged):
        engine = PointQueryEngine(paged)
        recorder = install(engine)
        rows, stats = engine.point_query((0.4, 0.4))
        plan = uninstall(engine, recorder, "point", stats)
        check_plan_shape(plan, stats)
        assert plan.reported == len(rows)

    def test_count_plan(self, paged):
        engine = PointQueryEngine(paged)
        recorder = install(engine)
        count, stats = engine.count(WINDOW)
        plan = uninstall(engine, recorder, "count", stats)
        check_plan_shape(plan, stats)
        assert plan.reported == count
        assert plan.levels[-1].matched == count

    def test_containment_plan(self, paged):
        engine = PointQueryEngine(paged)
        recorder = install(engine)
        rows, stats = engine.containment_query(WINDOW)
        plan = uninstall(engine, recorder, "containment", stats)
        check_plan_shape(plan, stats)
        assert plan.reported == len(rows)

    def test_knn_plan(self, paged):
        engine = KNNEngine(paged)
        recorder = install(engine)
        neighbors = list(itertools.islice(engine.nearest((0.5, 0.5)), 5))
        plan = uninstall(engine, recorder, "knn", engine.totals)
        assert len(neighbors) == 5
        check_plan_shape(plan, engine.totals)
        assert plan.reported == 5


class TestJoinPlan:
    @pytest.fixture
    def trees(self):
        left = build_prtree(
            BlockStore(), random_rects(400, seed=41, max_side=0.1), 8
        )
        right = build_prtree(
            BlockStore(), random_rects(300, seed=42, max_side=0.1), 8
        )
        return left, right

    def test_join_plan_sides(self, trees):
        left, right = trees
        engine = SpatialJoinEngine(left, right)
        recorder = install(engine)
        pairs, stats = engine.join()
        plan = uninstall(engine, recorder, "join", stats)
        assert isinstance(plan, JoinPlan)
        assert plan.pairs == stats.pairs == len(pairs)
        assert plan.left.leaf_reads == stats.left.leaf_reads
        assert plan.right.leaf_reads == stats.right.leaf_reads
        # Both sides' lower bound is ceil(pairs / fanout).
        assert plan.left.reported == plan.right.reported == plan.pairs
        assert plan.nodes_visited == (
            plan.left.nodes_visited + plan.right.nodes_visited
        )
        assert engine._left._recorder is None
        assert engine._right._recorder is None
        assert "left:" in plan.render() and "right:" in plan.render()

    def test_join_pairs_identical_under_recording(self, trees):
        left, right = trees
        plain, _ = SpatialJoinEngine(left, right).join()
        engine = SpatialJoinEngine(left, right)
        recorder = install(engine)
        recorded, stats = engine.join()
        uninstall(engine, recorder, "join", stats)
        key = lambda pair: (pair[0][1], pair[1][1])
        assert sorted(recorded, key=key) == sorted(plain, key=key)

    def test_count_only_join_matches(self, trees):
        left, right = trees
        plain_count, _ = SpatialJoinEngine(left, right).pair_count()
        engine = SpatialJoinEngine(left, right)
        recorder = install(engine)
        count, stats = engine.pair_count()
        plan = uninstall(engine, recorder, "join", stats)
        assert count == plain_count
        assert plan.pairs == count


class TestServerExplain:
    def requests(self):
        return [
            WindowRequest(WINDOW),
            CountRequest(WINDOW),
            PointRequest((0.4, 0.4)),
            KNNRequest((0.5, 0.5), 5),
        ]

    def test_plans_attached(self, paged):
        server = QueryServer(paged, explain=True)
        report = server.submit(self.requests())
        for result in report.results:
            assert result.plan is not None
            assert result.plan.nodes_visited > 0
        # Per-request logical I/O is what the stats already said.
        window_result = report.results[0]
        assert (
            window_result.plan.leaf_reads
            == window_result.stats.leaf_reads
        )

    def test_disabled_by_default(self, paged):
        server = QueryServer(paged)
        report = server.submit(self.requests())
        assert all(result.plan is None for result in report.results)

    def test_join_touching_a_sharded_index_has_no_plan(self, tmp_path):
        # A sharded join engine's ``_left`` / ``_right`` are trees, not
        # traversal engines: plan capture must skip it, not crash.
        data = random_rects(400, seed=52)
        tree = build_prtree(BlockStore(), data, 16)
        plain = build_prtree(
            BlockStore(), random_rects(200, seed=53, max_side=0.1), 16
        )
        manifest = tmp_path / "fam.manifest"
        shard_pack(tree, manifest, shards=4, block_size=1024)
        with open_index(manifest, readonly=True) as family:
            indexes = {"fam": family, "plain": plain}
            join = [JoinRequest("fam", "plain"), JoinRequest("plain", "fam")]
            want = QueryServer(indexes).submit(join)
            got = QueryServer(indexes, explain=True).submit(join)
            for a, b in zip(got.results, want.results):
                assert a.plan is None
                assert sorted(map(repr, a.value)) == sorted(
                    map(repr, b.value)
                )
            assert got.results[0].value

    def test_sharded_index_has_no_plan(self, tmp_path):
        data = random_rects(400, seed=51)
        tree = build_prtree(BlockStore(), data, 16)
        manifest = tmp_path / "fam.manifest"
        shard_pack(tree, manifest, shards=3, block_size=1024)
        with open_index(manifest, readonly=True) as family:
            server = QueryServer(family, explain=True)
            report = server.submit(
                [WindowRequest(WINDOW), CountRequest(WINDOW)]
            )
            want = sum(1 for r, _ in data if r.intersects(WINDOW))
            assert report.results[0].plan is None
            assert len(report.results[0].value) == want
            assert report.results[1].plan is None
            assert report.results[1].value == want


class TestSlowLogExplain:
    def test_render_includes_plan_summary(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.note(
            "window",
            0.5,
            detail="WindowRequest(...)",
            explain="nodes=7 leaf_ios=4 pruned=10/64 eff=0.25",
        )
        text = log.render()
        assert "plan[nodes=7 leaf_ios=4 pruned=10/64 eff=0.25]" in text

    def test_render_without_plan_unchanged(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.note("window", 0.5, detail="WindowRequest(...)")
        assert "plan[" not in log.render()

    def test_record_field_default(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.note("point", 0.1)
        assert log.records()[0].explain is None
