"""Unit tests for sharded indexes.

Covers :func:`repro.storage.shard.shard_pack` round-trips, the manifest
hardening contract (corrupt / truncated manifests rejected with clear
errors, hostile field types refused, shard-file count and MBR
mismatches detected on open), read-only families
rejecting updates up front, the single-tree engines on a family
against brute-force oracles, writes routed by ChooseLeaf at the
family's virtual root, and a family as one tree against the fan-out
engines it replaced (``tests/sharded_oracle.py``).
"""

import itertools
import json
import pathlib
import tempfile
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import uniform_rects
from repro.geometry import kernels
from repro.geometry.hilbert import DEFAULT_ORDER, hilbert_keys_for_centers
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries.join import SpatialJoinEngine
from repro.queries.knn import KNNEngine, brute_force_knn
from repro.queries.point import (
    PointQueryEngine,
    brute_force_containment,
    brute_force_point_query,
)
from repro.rtree.node import Node
from repro.rtree import update
from repro.rtree.query import QueryEngine, brute_force_query
from repro.rtree.validate import validate_rtree
from repro.storage import (
    FileBlockStore,
    PagedTree,
    ShardError,
    ShardedTree,
    StorageError,
    open_index,
    pack_tree,
    shard_pack,
)

N = 1200
FANOUT = 16


@pytest.fixture()
def data():
    return uniform_rects(N, max_side=0.02, seed=3)


@pytest.fixture()
def tree(data):
    return build_prtree(BlockStore(), data, FANOUT)


@pytest.fixture()
def manifest(tmp_path, tree):
    path = tmp_path / "family.manifest"
    shard_pack(tree, path, shards=4)
    return path


def open_family(manifest, tree, **kwargs):
    return ShardedTree.open(manifest, values=dict(tree.objects), **kwargs)


class TestShardPack:
    def test_partitions_all_entries_across_shards(self, manifest, tree, data):
        with open_family(manifest, tree) as family:
            assert family.n_shards == 4
            assert family.size == N
            assert sum(shard.size for shard in family.shards) == N
            # Near-equal cardinality split.
            sizes = [shard.size for shard in family.shards]
            assert max(sizes) - min(sizes) <= 1
            for shard in family.shards:
                validate_rtree(shard)
            assert sorted(v for _, v in family.all_data()) == sorted(
                v for _, v in data
            )

    def test_hilbert_ranges_are_contiguous(self, manifest, tree):
        # The pack cuts the Hilbert order of the tree's leaf entries:
        # each shard's keys are one range, ranges in shard order.
        bounds = tree.root().mbr()
        with open_family(manifest, tree) as family:
            ranges = []
            for shard in family.shards:
                rects = [rect for rect, _ in shard.all_data()]
                keys = hilbert_keys_for_centers(
                    np.array([r.lo for r in rects]),
                    np.array([r.hi for r in rects]),
                    bounds,
                    DEFAULT_ORDER,
                )
                ranges.append((min(keys), max(keys)))
            for prev, cur in zip(ranges, ranges[1:]):
                assert prev[1] <= cur[0]

    def test_shard_count_clamped_to_entries(self, tmp_path):
        small = uniform_rects(3, seed=1)
        tree = build_prtree(BlockStore(), small, FANOUT)
        path = tmp_path / "tiny.manifest"
        stats = shard_pack(tree, path, shards=10)
        assert stats.shards == 3
        with ShardedTree.open(path, values=dict(tree.objects)) as family:
            assert family.n_shards == 3
            assert family.size == 3

    def test_single_shard_family(self, tmp_path, tree, data):
        path = tmp_path / "one.manifest"
        stats = shard_pack(tree, path, shards=1)
        assert stats.shards == 1
        with open_family(path, tree) as family:
            window = Rect((0.2, 0.2), (0.6, 0.6))
            got, _ = QueryEngine(family).query(window)
            assert sorted(v for _, v in got) == sorted(
                v for _, v in brute_force_query(data, window)
            )

    def test_rejects_nonpositive_shards(self, tmp_path, tree):
        with pytest.raises(ValueError, match="shards"):
            shard_pack(tree, tmp_path / "x.manifest", shards=0)

    def test_pack_stats_aggregate(self, manifest, tree, tmp_path):
        stats = shard_pack(tree, tmp_path / "again.manifest", shards=4)
        assert stats.write_ios == sum(s.write_ios for s in stats.per_shard)
        assert stats.file_bytes == sum(s.file_bytes for s in stats.per_shard)
        assert stats.size == N


class TestManifestHardening:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ShardError, match="no shard manifest"):
            ShardedTree.open(tmp_path / "nope.manifest")

    def test_invalid_json_rejected(self, manifest):
        manifest.write_text("this is not json {")
        with pytest.raises(ShardError, match="invalid JSON"):
            ShardedTree.open(manifest)

    def test_truncated_manifest_rejected(self, manifest):
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])
        with pytest.raises(ShardError, match="invalid JSON"):
            ShardedTree.open(manifest)

    def test_foreign_json_rejected(self, manifest):
        manifest.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ShardError, match="not a shard manifest"):
            ShardedTree.open(manifest)

    def test_unsupported_version_rejected(self, manifest):
        doc = json.loads(manifest.read_text())
        doc["version"] = 99
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ShardError, match="version"):
            ShardedTree.open(manifest)

    def test_version_2_manifest_rejected(self, manifest):
        # Version 2 routed writes by a Hilbert key on a pack-time grid.
        doc = json.loads(manifest.read_text())
        doc["version"] = 2
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ShardError, match="unsupported manifest version 2"):
            ShardedTree.open(manifest)

    def test_written_manifest_has_no_routing_fields(self, manifest):
        doc = json.loads(manifest.read_text())
        assert doc["version"] == 3
        assert not {"order", "bounds"} & set(doc)
        for entry in doc["shard_files"]:
            assert not {"hilbert_lo", "hilbert_hi"} & set(entry)

    def test_version_1_manifest_rejected(self, manifest):
        doc = json.loads(manifest.read_text())
        doc["version"] = 1
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ShardError, match="unsupported manifest version 1"):
            ShardedTree.open(manifest)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("next_oid", "7"),
            ("next_oid", 7.5),
            ("dim", True),
            ("generation", None),
            ("shards", [4]),
            ("health_baseline", [1, 2]),
            ("health_baseline", 5),
            ("shard_files.0.mbr", "everywhere"),
            ("shard_files.0.file", 5),
            ("shard_files.0.file", None),
            ("shard_files.0.file", ""),
            ("shard_files.0.file", "a/b"),
            ("shard_files.0.file", ".."),
            ("shard_files.0.epoch", "1"),
            ("shard_files.0.n_blocks", 1.5),
            ("shard_files.0.mbr", {"lo": ["a", "b"], "hi": ["c", "d"]}),
            ("shard_files.0", "shard00"),
        ],
    )
    def test_hostile_field_rejected(self, manifest, field, bad):
        doc = json.loads(manifest.read_text())
        *parents, leaf = field.split(".")
        node = doc
        for key in parents:
            node = node[int(key) if key.isdigit() else key]
        node[int(leaf) if leaf.isdigit() else leaf] = bad
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ShardError):
            ShardedTree.open(manifest)

    def test_missing_key_rejected(self, manifest):
        doc = json.loads(manifest.read_text())
        del doc["next_oid"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ShardError, match="missing 'next_oid'"):
            ShardedTree.open(manifest)

    def test_shard_file_count_mismatch_detected(self, manifest):
        doc = json.loads(manifest.read_text())
        doc["shard_files"].pop()
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ShardError, match="count mismatch"):
            ShardedTree.open(manifest)

    def test_missing_shard_file_detected(self, manifest):
        doc = json.loads(manifest.read_text())
        victim = manifest.with_name(doc["shard_files"][2]["file"])
        victim.unlink()
        with pytest.raises(ShardError, match="shard 2"):
            ShardedTree.open(manifest)

    def test_mbr_mismatch_detected(self, manifest):
        doc = json.loads(manifest.read_text())
        doc["shard_files"][1]["mbr"]["hi"][0] += 10.0
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ShardError, match="MBR mismatch"):
            ShardedTree.open(manifest)

    def test_size_mismatch_detected(self, manifest):
        doc = json.loads(manifest.read_text())
        doc["shard_files"][0]["size"] += 5
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ShardError, match="entries"):
            ShardedTree.open(manifest)

    def test_total_size_mismatch_detected(self, manifest):
        doc = json.loads(manifest.read_text())
        doc["size"] += 7
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ShardError, match="promises"):
            ShardedTree.open(manifest)

    def test_swapped_shard_file_detected(self, manifest):
        # Pointing one manifest entry at a sibling shard's file must trip
        # the cross-checks (size or MBR) rather than open silently.
        doc = json.loads(manifest.read_text())
        doc["shard_files"][0]["file"] = doc["shard_files"][3]["file"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ShardError):
            ShardedTree.open(manifest)

    def test_shard_error_is_a_storage_error(self):
        assert issubclass(ShardError, StorageError)


class TestReadonlyFamilies:
    def test_readonly_rejects_insert_and_delete(self, manifest, tree, data):
        with open_family(manifest, tree, readonly=True) as family:
            assert family.readonly
            rect, value = data[0]
            with pytest.raises(StorageError, match="read-only"):
                family.insert(rect, "new")
            with pytest.raises(StorageError, match="read-only"):
                family.delete(rect, value)
            # Reads still work, and sync is a no-op.
            assert family.count_query(rect) >= 1
            assert family.sync() == 0

    def test_readonly_leaves_manifest_untouched(self, manifest, tree):
        before = manifest.read_text()
        with open_family(manifest, tree, readonly=True):
            pass
        assert manifest.read_text() == before


def read_deltas(family, call):
    """``call()``'s answer and each shard's logical reads during it."""
    before = family.shard_loads()
    answer = call()
    return answer, [
        (after - start).reads for after, start in zip(family.shard_loads(), before)
    ]


class TestShardedEngines:
    def test_window_matches_brute_force(self, manifest, tree, data):
        with open_family(manifest, tree) as family:
            engine = QueryEngine(family)
            for window in (
                Rect((0.1, 0.1), (0.4, 0.3)),
                Rect((0.0, 0.0), (1.0, 1.0)),
                Rect((0.95, 0.95), (0.96, 0.96)),
            ):
                got, stats = engine.query(window)
                want = brute_force_query(data, window)
                assert sorted(v for _, v in got) == sorted(
                    v for _, v in want
                )
                assert stats.queries == 1
                assert stats.reported == len(want)

    def test_fanout_skips_nonintersecting_shards(self, manifest, tree):
        with open_family(manifest, tree) as family:
            engine = QueryEngine(family)
            # A window inside a single shard's MBR only reads that shard.
            target = family.shard_mbr(0)
            lone = Rect(target.lo, target.lo)
            _, reads = read_deltas(family, lambda: engine.query(lone))
            touched = [i for i, n in enumerate(reads) if n > 0]
            assert touched  # someone answered
            untouched_mbrs = [
                family.shard_mbr(i)
                for i in range(family.n_shards)
                if i not in touched
            ]
            assert all(
                not mbr.intersects(lone) for mbr in untouched_mbrs if mbr
            )

    def test_point_count_containment_match_brute_force(
        self, manifest, tree, data
    ):
        with open_family(manifest, tree) as family:
            engine = PointQueryEngine(family)
            window = Rect((0.2, 0.3), (0.7, 0.8))
            count, _ = engine.count(window)
            assert count == len(brute_force_query(data, window))
            got, _ = engine.containment_query(window)
            assert sorted(v for _, v in got) == sorted(
                v for _, v in brute_force_containment(data, window)
            )
            point = (0.5, 0.5)
            got, _ = engine.point_query(point)
            assert sorted(v for _, v in got) == sorted(
                v for _, v in brute_force_point_query(data, point)
            )

    def test_knn_is_one_search_in_distance_order(self, manifest, tree, data):
        with open_family(manifest, tree) as family:
            engine = KNNEngine(family)
            for target in ((0.5, 0.5), (0.0, 1.0), (0.99, 0.01)):
                got, stats = engine.knn(target, 15)
                want = brute_force_knn(data, target, 15)
                assert [n.distance for n in got] == pytest.approx(
                    [n.distance for n in want]
                )
                distances = [n.distance for n in got]
                assert distances == sorted(distances)
                assert stats.queries == 1

    def test_knn_skips_far_shards(self, manifest, tree):
        with open_family(manifest, tree) as family:
            engine = KNNEngine(family)
            # One neighbor of a corner point should not read every shard.
            corner = family.shard_mbr(0).lo
            _, reads = read_deltas(family, lambda: engine.knn(corner, 1))
            assert 0 < sum(n > 0 for n in reads) < family.n_shards

    def test_join_sharded_vs_plain_sides(self, manifest, tree, data):
        minor_data = uniform_rects(150, max_side=0.05, seed=9)
        minor = build_prtree(BlockStore(), minor_data, FANOUT)
        expected = sorted(
            (va, vb)
            for ra, va in data
            for rb, vb in minor_data
            if ra.intersects(rb)
        )
        with open_family(manifest, tree) as family:
            pairs, stats = SpatialJoinEngine(family, minor).join()
            assert (
                sorted((a[1], b[1]) for a, b in pairs) == expected
            )
            assert stats.pairs == len(expected)
            # Sharded on the right as well.
            pairs, _ = SpatialJoinEngine(minor, family).join()
            assert (
                sorted((b[1], a[1]) for a, b in pairs) == expected
            )
            # Sharded self-join reports ordered pairs like the plain one.
            pairs, _ = SpatialJoinEngine(family, family).join()
            self_expected = sorted(
                (va, vb)
                for ra, va in data
                for rb, vb in data
                if ra.intersects(rb)
            )
            assert (
                sorted((a[1], b[1]) for a, b in pairs) == self_expected
            )

    @pytest.mark.parametrize(
        "make", [QueryEngine, PointQueryEngine, KNNEngine]
    )
    def test_reset_clears_totals_and_keeps_caches(
        self, manifest, tree, make
    ):
        with open_family(manifest, tree) as family:
            engine = make(family)
            window = Rect((0.0, 0.0), (1.0, 1.0))

            def run():
                if make is QueryEngine:
                    return engine.query(window)
                if make is PointQueryEngine:
                    return engine.containment_query(window)
                return engine.knn((0.5, 0.5), 40)

            run()
            engine.reset()
            assert engine.totals.queries == 0
            (_, stats), reads = read_deltas(family, run)
            # The paid internal reads survived the reset.
            assert stats.internal_reads == 0
            assert sum(reads) == stats.leaf_reads
            assert engine.totals.leaf_reads == stats.leaf_reads

    def test_dimension_mismatch_raises(self, manifest, tree):
        with open_family(manifest, tree) as family:
            bad = Rect((0, 0, 0), (1, 1, 1))
            with pytest.raises(ValueError, match="3-d"):
                QueryEngine(family).query(bad)
            with pytest.raises(ValueError, match="3-d"):
                KNNEngine(family).knn((0.0, 0.0, 0.0), 3)
            with pytest.raises(ValueError, match="3-d"):
                PointQueryEngine(family).point_query((0.0, 0.0, 0.0))
            with pytest.raises(ValueError, match="3-d"):
                family.route(bad)


class TestUpdatesAndSync:
    def test_insert_routes_to_owning_shard(self, manifest, tree, data):
        with open_family(manifest, tree) as family:
            rect = Rect((0.25, 0.25), (0.26, 0.26))
            owner = family.route(rect)
            before = [shard.size for shard in family.shards]
            oid = family.insert(rect, "routed")
            assert oid == N  # family-wide ids continue the packed space
            after = [shard.size for shard in family.shards]
            assert after[owner] == before[owner] + 1
            assert sum(after) == N + 1 == family.size
            # The same rectangle always routes identically.
            assert family.route(rect) == owner

    def test_delete_broadcasts_and_updates_size(self, manifest, tree, data):
        with open_family(manifest, tree) as family:
            rect, value = data[37]
            assert family.delete(rect, value)
            assert family.size == N - 1
            assert not family.delete(rect, value)  # already gone
            assert family.size == N - 1

    def test_writes_of_another_dimension_raise_before_routing(
        self, manifest, tree, data, monkeypatch
    ):
        rect, value = data[37]
        wider = Rect(rect.lo + (0.0,), rect.hi + (1.0,))
        with open_family(manifest, tree) as family:

            def no_route(rect):
                raise AssertionError("routed a rect of another dimension")

            monkeypatch.setattr(family, "route", no_route)
            for write in (family.delete, family.insert):
                with pytest.raises(
                    ValueError, match="3-d argument against a 2-d index"
                ):
                    write(wider, value)
            monkeypatch.undo()
            assert family.size == N
            assert family.delete(rect, value)

    def test_sync_rewrites_manifest_atomically(self, manifest, tree, data):
        with open_family(manifest, tree) as family:
            family.insert(Rect((0.5, 0.5), (0.51, 0.51)), "fresh")
            family.delete(*data[0])
            flushed = family.sync()
            assert flushed > 0
            doc = json.loads(manifest.read_text())
            assert doc["size"] == N  # +1 insert, -1 delete
            assert doc["next_oid"] == N + 1
            assert sum(e["size"] for e in doc["shard_files"]) == N
            assert not manifest.with_name(
                manifest.name + ".tmp"
            ).exists()

    def test_cold_reopen_after_updates(self, manifest, tree, data):
        fresh = uniform_rects(40, max_side=0.02, seed=11)
        with open_family(manifest, tree) as family:
            for rect, value in fresh:
                family.insert(rect, value)
            for pair in data[:40]:
                assert family.delete(*pair)
            merged = {}
            for shard in family.shards:
                merged.update(shard.objects)
        live = data[40:] + fresh
        with ShardedTree.open(
            manifest, values=merged, readonly=True
        ) as family:
            for shard in family.shards:
                validate_rtree(shard)
            assert family.size == N
            window = Rect((0.0, 0.0), (1.0, 1.0))
            got, _ = QueryEngine(family).query(window)
            assert sorted(v for _, v in got) == sorted(v for _, v in live)

    def test_close_is_idempotent(self, manifest, tree):
        family = open_family(manifest, tree)
        family.close()
        family.close()


class TestOpenIndex:
    def test_open_index_sniffs_both_shapes(self, tmp_path, tree, manifest):
        single = tmp_path / "single.pack"
        pack_tree(tree, single)
        with open_index(single) as handle:
            assert isinstance(handle, PagedTree)
        with open_index(manifest) as handle:
            assert isinstance(handle, ShardedTree)

    def test_open_index_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="no index file"):
            open_index(tmp_path / "ghost.pack")

    @pytest.mark.parametrize(
        "opener",
        [FileBlockStore.open, PagedTree.open, ShardedTree.open, open_index],
        ids=lambda opener: opener.__qualname__,
    )
    def test_directory_is_not_a_file(self, tmp_path, opener):
        with pytest.raises(StorageError, match="is not a file"):
            opener(tmp_path)

    def test_open_index_answers_as_the_family_does(self, tree, manifest):
        with open_index(
            manifest, values=dict(tree.objects), readonly=True
        ) as family:
            assert isinstance(family, ShardedTree)
            plain = ShardedTree.open(
                manifest, values=dict(tree.objects), readonly=True
            )
            try:
                window = tree.root().mbr()
                got = sorted(family.query(window), key=lambda rv: rv[1])
                want = sorted(plain.query(window), key=lambda rv: rv[1])
                assert got == want
            finally:
                plain.close()


# ----------------------------------------------------------------------
# The routing table: each shard's live root MBR, kept by the facade's
# own writes
# ----------------------------------------------------------------------

SMALL_FANOUT = 4


def live_mbr(family, i):
    """Shard ``i``'s root MBR read straight from its page store."""
    shard = family.shards[i]
    root = shard.page_store.quiet_peek(shard.root_id)
    return root.mbr() if len(root) else None


def assert_table_is_live(family):
    assert [family.shard_mbr(i) for i in range(family.n_shards)] == [
        live_mbr(family, i) for i in range(family.n_shards)
    ]


def pack_small_family(directory, n=24, seed=5):
    """A K=4 family at fan-out 4: two-level shards of six rows, so a few
    writes split or collapse a shard's root."""
    data = uniform_rects(n, max_side=0.05, seed=seed)
    tree = build_prtree(BlockStore(), data, SMALL_FANOUT)
    path = pathlib.Path(directory) / "small.manifest"
    shard_pack(tree, path, shards=4)
    return path, data, dict(tree.objects)


def apply_op(family, op, live, owned, serial):
    """Apply one scripted write through the facade, mirroring it in
    ``live`` (the brute-force oracle's rows)."""
    kind, arg = op
    if kind == "insert":  # a fresh rectangle anywhere
        x, y = arg
        rects = [Rect((x, y), (x + 0.03, y + 0.03))]
    elif kind == "grow":  # five rows into one shard: splits
        rects = (owned[arg] * 5)[:5]
    elif kind == "delete":
        if live:
            rect, value = live.pop(arg % len(live))
            assert family.delete(rect, value)
        return
    else:  # "drain": empty one shard, collapsing its root on the way
        for rect, value in list(family.shards[arg].all_data()):
            assert family.delete(rect, value)
            live.remove((rect, value))
        return
    for rect in rects:
        value = 1000 + next(serial)
        family.insert(rect, value)
        live.append((rect, value))


def check_family(family, path, live):
    """Table equals the live roots, answers equal the oracle, and the
    family syncs and reopens."""
    assert_table_is_live(family)
    for window in (
        Rect((0.0, 0.0), (1.0, 1.0)),
        Rect((0.2, 0.1), (0.6, 0.5)),
        Rect((0.7, 0.7), (0.75, 0.75)),
    ):
        assert sorted(v for _, v in family.query(window)) == sorted(
            v for _, v in brute_force_query(live, window)
        )
        assert family.count_query(window) == len(
            brute_force_query(live, window)
        )
    k = min(5, len(live))
    assert [n.distance for n in family.knn((0.4, 0.6), k)] == pytest.approx(
        [n.distance for n in brute_force_knn(live, (0.4, 0.6), k)]
    )
    family.sync()
    with ShardedTree.open(path, readonly=True) as again:
        assert [again.shard_mbr(i) for i in range(again.n_shards)] == [
            family.shard_mbr(i) for i in range(family.n_shards)
        ]


def run_script(directory, ops):
    """Apply ``ops`` to a fresh K=4 family, checking after every op;
    returns the shard heights and routing tables seen, op by op."""
    path, data, values = pack_small_family(directory)
    live = list(data)
    serial = itertools.count()
    heights, tables = [], []
    with ShardedTree.open(path, values=values) as family:
        owned = [
            [rect for rect, _ in data if family.route(rect) == s]
            for s in range(family.n_shards)
        ]
        check_family(family, path, live)
        for op in ops:
            apply_op(family, op, live, owned, serial)
            heights.append([shard.height for shard in family.shards])
            tables.append(list(family._mbrs))
            check_family(family, path, live)
    return heights, tables


#: Root splits (shard 0 grows past a full root), a root collapse and an
#: emptied shard (shard 1 drains), inserts into that empty shard, and
#: plain deletes.
SCRIPT = (
    [("grow", 0)] * 4
    + [("drain", 1), ("grow", 1), ("delete", 3), ("delete", 11)]
    + [("insert", (0.9, 0.1)), ("drain", 2), ("delete", 7)]
)

ops = st.one_of(
    st.tuples(
        st.just("insert"),
        st.tuples(st.floats(0.0, 0.97), st.floats(0.0, 0.97)),
    ),
    st.tuples(st.just("grow"), st.integers(0, 3)),
    st.tuples(st.just("delete"), st.integers(0, 100)),
    st.tuples(st.just("drain"), st.integers(0, 3)),
)


@contextmanager
def refresh_suppressed(family):
    family._refresh = lambda i: None
    try:
        yield
    finally:
        del family._refresh


_real_insert = ShardedTree.insert
_real_delete = ShardedTree.delete


def mutant_delete_without_refresh(self, rect, value):
    with refresh_suppressed(self):
        return _real_delete(self, rect, value)


def mutant_insert_refreshes_on_return_only(self, rect, value):
    with refresh_suppressed(self):
        oid = _real_insert(self, rect, value)
    self._refresh(self.route(rect))
    return oid


class SplitFailed(RuntimeError):
    pass


def raise_midway(directory):
    """A split that raises after the row landed in a leaf root: the
    table still equals the live root, which now holds that row."""
    data = [
        (Rect((x / 4, y / 3), (x / 4 + 0.1, y / 3 + 0.1)), 3 * x + y)
        for x in range(4)
        for y in range(3)
    ]
    tree = build_prtree(BlockStore(), data, SMALL_FANOUT)
    path = pathlib.Path(directory) / "leafroots.manifest"
    shard_pack(tree, path, shards=4)
    with ShardedTree.open(path, values=dict(tree.objects)) as family:
        assert [shard.height for shard in family.shards] == [1] * 4
        far = Rect((5.0, 5.0), (5.1, 5.1))
        wider = Rect((4.9, 4.9), (5.2, 5.2))
        s = family.route(far)
        family.insert(far, "far")  # the fourth row: no split
        assert_table_is_live(family)
        assert family.route(wider) == s  # the box that reached far grows least

        def boom(*args):
            raise SplitFailed("splitter failed")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Node, "split_off", boom)
            with pytest.raises(SplitFailed):
                family.insert(wider, "wider")
        assert live_mbr(family, s).contains_rect(wider)
        assert_table_is_live(family)


class TestRoutingTable:
    def test_open_fills_the_table_from_the_live_roots(self, manifest, tree):
        with open_family(manifest, tree) as family:
            assert_table_is_live(family)
            assert all(mbr is not None for mbr in family._mbrs)

    def test_scripted_writes_keep_the_table_live(self, tmp_path):
        heights, tables = run_script(tmp_path, SCRIPT)
        assert heights[3][0] > heights[0][0]  # shard 0's root split
        assert heights[3][1] > heights[4][1] == 1  # shard 1's root collapsed
        assert tables[4][1] is None  # ...down to an empty shard
        # An empty shard has no row at the virtual root, so it takes no
        # insert while another shard is live.
        assert all(table[1] is None for table in tables[4:])
        assert all(table[2] is None for table in tables[9:])

    def test_an_all_empty_family_refills_shard_zero(self, tmp_path):
        drains = [("drain", i) for i in range(4)]
        inserts = [("insert", (0.7, 0.2)), ("insert", (0.1, 0.9))]
        heights, tables = run_script(tmp_path, drains + inserts)
        assert tables[3] == [None] * 4 and heights[3] == [1] * 4
        assert tables[4][0] is not None and tables[4][1:] == [None] * 3
        assert tables[5][0].contains_rect(Rect((0.1, 0.2), (0.73, 0.93)))
        assert tables[5][1:] == [None] * 3

    @settings(max_examples=20, deadline=None)
    @given(script=st.lists(ops, max_size=10))
    def test_random_write_scripts_keep_the_table_live(self, script):
        with tempfile.TemporaryDirectory() as directory:
            run_script(directory, script)

    def test_a_write_that_raises_midway_leaves_the_table_live(self, tmp_path):
        raise_midway(tmp_path)

    def test_reads_touch_no_root_for_routing(self, manifest, tree):
        # The table is read, never the shards' roots: routing a request
        # moves no page-cache counter.
        with open_family(manifest, tree) as family:
            engine = QueryEngine(family)
            window = Rect((0.3, 0.3), (0.4, 0.4))
            engine.query(window)  # warm
            before = family.page_stats
            roots = [family.shard_mbr(i) for i in range(family.n_shards)]
            family.root()
            assert family.page_stats == before
            assert roots == family._mbrs

    def test_mutant_no_refresh_after_delete_is_caught(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            ShardedTree, "delete", mutant_delete_without_refresh
        )
        with pytest.raises(AssertionError):
            run_script(tmp_path, SCRIPT)

    def test_mutant_no_refresh_on_the_raise_path_is_caught(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            ShardedTree, "insert", mutant_insert_refreshes_on_return_only
        )
        with pytest.raises(AssertionError):
            raise_midway(tmp_path)


# ----------------------------------------------------------------------
# Writes choose shards as a tree's writes choose children: an insert
# takes ChooseLeaf over the live shard boxes, a delete tries only the
# shards whose box contains the victim.
# ----------------------------------------------------------------------


def chooseleaf(family, rect):
    """Guttman's ChooseLeaf over the family's live shard boxes, in
    scalar arithmetic: least enlargement, then least area, then the
    lowest shard; shard 0 when every shard is empty."""
    live = [
        i for i in range(family.n_shards) if family.shard_mbr(i) is not None
    ]
    if not live:
        return 0

    def cost(i):
        box = family.shard_mbr(i)
        return box.enlargement(rect), box.area(), i

    return min(live, key=cost)


#: Points on a grid over the data and past it, and boxes of three sizes
#: centred on them: many lie in two or more shard boxes at once.
GRID = [i / 10 - 0.1 for i in range(13)]
ROUTE_PROBES = [
    Rect((x - side, y - side), (x + side, y + side))
    for x in GRID
    for y in GRID
    for side in (0.0, 0.01, 0.2)
]


def routing_family(directory, shards):
    data = uniform_rects(300, max_side=0.05, seed=21)
    tree = build_prtree(BlockStore(), data, 8)
    path = pathlib.Path(directory) / f"route{shards}.manifest"
    shard_pack(tree, path, shards=shards, block_size=1024)
    return ShardedTree.open(path, values=dict(tree.objects)), data


def assert_routes_by_chooseleaf(family):
    """:meth:`ShardedTree.route` agrees with the oracle on every probe;
    returns how many probes met a tie in enlargement between boxes of
    different area (where the tie-break decides)."""
    ties = 0
    for probe in ROUTE_PROBES:
        assert family.route(probe) == chooseleaf(family, probe), probe
        costs = [
            (box.enlargement(probe), box.area())
            for box in map(family.shard_mbr, range(family.n_shards))
            if box is not None
        ]
        least = min(costs)[0] if costs else None
        ties += len({area for grown, area in costs if grown == least}) > 1
    return ties


def shard_meters(family):
    return [
        (shard.store.counters.snapshot(), shard.page_stats.snapshot())
        for shard in family.shards
    ]


def assert_delete_reads_only_containing_shards(family, rect, value):
    """Delete ``rect``; every shard whose live box did not contain it
    keeps its counters and page-cache statistics."""
    boxes = [family.shard_mbr(i) for i in range(family.n_shards)]
    before = shard_meters(family)
    found = family.delete(rect, value)
    for box, was, now in zip(boxes, before, shard_meters(family)):
        if box is None or not box.contains_rect(rect):
            assert now == was, (rect, box)
    return found


def check_routing(directory, shards):
    """Route every probe on a fresh family, then after far inserts that
    stretch live boxes past their pack-time ones, deletes (present and
    absent rectangles) and a drained shard."""
    family, data = routing_family(directory, shards)
    with family:
        ties = assert_routes_by_chooseleaf(family)
        assert shards == 1 or ties > 0
        for n, corner in enumerate([(3.0, -2.0), (-1.5, 0.4), (0.5, 2.5)]):
            far = Rect(corner, (corner[0] + 0.1, corner[1] + 0.1))
            assert family.route(far) == chooseleaf(family, far)
            family.insert(far, ("far", n))
            assert_routes_by_chooseleaf(family)
        absent = [
            (Rect((0.3, 0.3), (0.7, 0.7)), "absent"),
            (Rect((0.45, -0.2), (0.55, 1.2)), "absent"),
            (Rect((9.0, 9.0), (9.5, 9.5)), "absent"),
        ]
        for rect, value in absent:
            assert not assert_delete_reads_only_containing_shards(
                family, rect, value
            )
        for rect, value in data[::20]:
            assert assert_delete_reads_only_containing_shards(
                family, rect, value
            )
        assert_routes_by_chooseleaf(family)
        drained = shards // 2
        for rect, value in list(family.shards[drained].all_data()):
            assert assert_delete_reads_only_containing_shards(
                family, rect, value
            )
        assert family.shard_mbr(drained) is None
        assert_routes_by_chooseleaf(family)
        if shards > 1:  # an empty shard takes no insert while one is live
            assert drained not in {family.route(p) for p in ROUTE_PROBES}


ROUTING_MUTANTS = {
    # A delete tries every shard its victim meets, not only those
    # whose box contains it.
    "delete-tries-intersecting-shards": (
        ShardedTree, "delete", ShardedTree.delete,
        "mbr.contains_rect(rect)", "mbr.intersects(rect)",
    ),
    # Inserts route over the boxes the manifest recorded, not the live
    # ones the family's writes keep.
    "route-over-pack-time-boxes": (
        ShardedTree, "route", ShardedTree.route,
        "frame = self.root().frame()",
        "frame = Node(False, [(info.mbr, i) for i, info in "
        "enumerate(self.infos) if info.mbr is not None]).frame()",
    ),
    # A tie in enlargement goes to the larger box.
    "ties-to-the-larger-box": (
        kernels, "frame_least_enlargement", kernels.frame_least_enlargement,
        "areas[rows].argmin()", "areas[rows].argmax()",
    ),
}


class TestChooseLeafRouting:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_route_is_chooseleaf_over_the_live_boxes(self, tmp_path, shards):
        check_routing(tmp_path, shards)

    @settings(max_examples=15, deadline=None)
    @given(
        shards=st.sampled_from([1, 2, 4, 7]),
        writes=st.lists(
            st.tuples(
                st.booleans(),
                st.floats(-1.0, 2.0),
                st.floats(-1.0, 2.0),
                st.floats(0.0, 0.5),
            ),
            max_size=8,
        ),
        probes=st.lists(
            st.tuples(
                st.floats(-1.5, 2.5), st.floats(-1.5, 2.5), st.floats(0.0, 1.0)
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_route_property(self, shards, writes, probes):
        with tempfile.TemporaryDirectory() as directory:
            family, data = routing_family(directory, shards)
            with family:
                live = list(data)
                for insert, x, y, side in writes:
                    if insert:
                        rect = Rect((x, y), (x + side, y + side))
                        assert family.route(rect) == chooseleaf(family, rect)
                        family.insert(rect, ("new", len(live)))
                        live.append((rect, ("new", len(live))))
                    elif live:
                        rect, value = live.pop(int(x * 1000) % len(live))
                        assert assert_delete_reads_only_containing_shards(
                            family, rect, value
                        )
                    for x0, y0, side0 in probes:
                        probe = Rect((x0, y0), (x0 + side0, y0 + side0))
                        assert family.route(probe) == chooseleaf(family, probe)

    @pytest.mark.parametrize("name", sorted(ROUTING_MUTANTS))
    def test_mutant_caught(self, tmp_path, monkeypatch, name):
        owner, attribute, function, old, new = ROUTING_MUTANTS[name]
        monkeypatch.setattr(owner, attribute, _mutant(function, old, new))
        with pytest.raises(AssertionError):
            check_routing(tmp_path, 4)


# ----------------------------------------------------------------------
# A family is one tree: the single-tree engines over its level table
# against the fan-out engines they replaced (tests/sharded_oracle.py).
#
# Fixtures: K in {1, 2, 4, 7}, shards of unequal height (one shard
# grown until its root splits), and an emptied shard.  Each is opened
# twice, engines run cold, the fixture's writes land on both handles,
# and engines run again warm.  The window family must answer the same
# ids with identical QueryStats and leave every shard's counters,
# page-cache statistics, loads and page-event sequence identical; kNN
# must give the same distances and members strictly inside the k-th
# distance for no more leaf reads.
# ----------------------------------------------------------------------

import inspect
from dataclasses import replace
import textwrap

from repro.obs import ReuseDistanceTracker
from repro.rtree.query import TraversalEngine
from repro.server import (
    ContainmentRequest,
    CountRequest,
    JoinRequest,
    KNNRequest,
    PointRequest,
    QueryServer,
    WindowRequest,
)
from repro.storage import shard as shard_module

from tests.level_oracle import assert_same_levels
from tests.sharded_oracle import (
    FanoutKNNEngine,
    FanoutPointEngine,
    FanoutQueryEngine,
    assert_knn_as_good,
)

FIXTURE_FANOUT = 8


def family_fixture(directory, name):
    """``(path, values, writes)``: a packed family and the writes that
    make it the named fixture (``writes(family)`` applies them)."""
    data = uniform_rects(360, max_side=0.04, seed=17)
    tree = build_prtree(BlockStore(), data, FIXTURE_FANOUT)
    shards = {"K1": 1, "K2": 2, "K4": 4, "K7": 7}.get(name, 4)
    path = pathlib.Path(directory) / f"{name}.manifest"
    shard_pack(tree, path, shards=shards, block_size=1024)
    fresh = uniform_rects(40, max_side=0.04, seed=18)

    def writes(family):
        if name == "unequal":  # one shard grows until its root splits
            owned = [rect for rect, _ in data if family.route(rect) == 0]
            height = family.shards[0].height
            for n, rect in enumerate(owned * 8):
                family.insert(rect, ("grown", n))
                if family.shards[0].height > height:
                    break
            heights = {shard.height for shard in family.shards}
            assert len(heights) > 1, heights
        elif name == "emptied":  # every row of shard 2 deleted
            for rect, value in list(family.shards[2].all_data()):
                assert family.delete(rect, value)
            assert family.shard_mbr(2) is None
        else:  # a few inserts and deletes anywhere
            for rect, value in fresh:
                family.insert(rect, ("fresh", value))
            for rect, value in data[::25]:
                assert family.delete(rect, value)

    return path, dict(tree.objects), writes


FIXTURES = ["K1", "K2", "K4", "K7", "unequal", "emptied"]
PROBES = [
    Rect((0.1, 0.1), (0.4, 0.3)),
    Rect((0.0, 0.0), (1.0, 1.0)),
    Rect((0.45, 0.45), (0.55, 0.55)),
    Rect((0.9, 0.02), (0.98, 0.3)),
    Rect((3.0, 3.0), (4.0, 4.0)),
    Rect((0.5, 0.5), (0.5, 0.5)),
]


def shard_state(family):
    """Each shard's counters, page-cache statistics, load (less its
    busy time) and page-event sequence."""
    return [
        (
            shard.store.counters.snapshot(),
            shard.page_stats.snapshot(),
            replace(load, busy_s=0.0),
            list(shard.page_store.tracker.log),
        )
        for shard, load in zip(family.shards, family.shard_loads())
    ]


def state_since(before, after):
    """Per shard, what moved between two :func:`shard_state` s."""
    return [
        (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3][len(b[3]):])
        for b, a in zip(before, after)
    ]


def window_family(engines, probe):
    window, point = engines
    return [
        window.query(probe),
        point.containment_query(probe),
        point.point_query(probe.center()),
        point.count(probe),
    ]


def assert_same_window_family(got, want):
    for (got_answer, got_stats), (want_answer, want_stats) in zip(got, want):
        assert got_stats == want_stats
        if isinstance(got_answer, int):
            assert got_answer == want_answer
        else:
            assert sorted(got_answer.ids) == sorted(want_answer.ids)


def check_fixture(directory, name, cache_pages=6):
    """Run one fixture; return the kNN leaf reads saved.  Each side
    writes its own copy of the family: a file has one writer."""
    paths = []
    for side in ("got", "want"):
        where = pathlib.Path(directory) / side
        where.mkdir(parents=True)
        path, values, writes = family_fixture(where, name)
        paths.append(path)
    saved = 0
    with ShardedTree.open(
        paths[0], values=dict(values), cache_pages=cache_pages
    ) as got, ShardedTree.open(
        paths[1], values=dict(values), cache_pages=cache_pages
    ) as want:
        for family in (got, want):
            for shard in family.shards:
                shard.page_store.tracker = ReuseDistanceTracker(
                    budgets=[1, 4], keep_log=True
                )
        engines = (QueryEngine(got), PointQueryEngine(got))
        oracles = (FanoutQueryEngine(want), FanoutPointEngine(want))
        knn, knn_oracle = KNNEngine(got), FanoutKNNEngine(want)
        for round in range(2):
            # kNN may have left other pages cached: both sides start
            # each round of exact comparisons cold.
            for family in (got, want):
                for shard in family.shards:
                    shard.page_store.clear_cache()
            before = shard_state(got), shard_state(want)
            if round:
                writes(got)
                writes(want)
            for probe in PROBES:
                assert_same_window_family(
                    window_family(engines, probe), window_family(oracles, probe)
                )
            assert state_since(before[0], shard_state(got)) == state_since(
                before[1], shard_state(want)
            )
            for probe in PROBES:
                for k in (1, 10, 60):
                    saved += assert_knn_as_good(
                        knn.knn(probe.center(), k),
                        knn_oracle.knn(probe.center(), k),
                    )
    return saved


def _mutant(function, old, new):
    """``function`` recompiled from its own source with ``old`` replaced
    by ``new`` (which must occur exactly once)."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


FAMILY_MUTANTS = {
    # The virtual root's row is owed a read like a node's.
    "root-charged-as-read": (
        TraversalEngine, "_read_leaves", TraversalEngine._read_leaves,
        "not in self._counted and level.ids[j] >= 0", "not in self._counted",
    ),
    # Only the root is discounted: pass-through rows count as visits.
    "pass-through-counted-as-visit": (
        TraversalEngine, "_run", TraversalEngine._run,
        "level.ids[j] < 0", "level.ids[j] == -1",
    ),
    # Shard 0's child pointers land in shard 1's id space.
    "child-pointer-into-wrong-shard": (
        ShardedTree, "level_table", ShardedTree.level_table,
        "frame.ptrs + base", "frame.ptrs + (base or 1 << _SHARD_SHIFT)",
    ),
    # A write to a shard leaves the family's table as it was.
    "stale-table-after-write": (
        ShardedTree, "_refresh", ShardedTree._refresh,
        "self.store.generation += 1", "pass",
    ),
}


class TestFamilyAsOneTree:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_against_the_fanout(self, tmp_path, name):
        assert check_fixture(tmp_path, name) >= 0

    @pytest.mark.parametrize("cache_pages", [0, 1024])
    def test_cache_sizes(self, tmp_path, cache_pages):
        check_fixture(tmp_path, "unequal", cache_pages)

    def test_unequal_heights_get_pass_through_rows(self, tmp_path):
        path, values, writes = family_fixture(tmp_path, "unequal")
        with ShardedTree.open(path, values=values) as family:
            writes(family)
            table = shard_module.levels_of(family)
            short = sum(
                family.height - shard.height for shard in family.shards
            )
            assert short > 0 and table.virtual == 1 + short
            assert len(table.levels) == family.height
            ids = [i for level in table.levels for i in level.ids]
            assert sorted(i for i in ids if i < 0) == list(range(-short - 1, 0))

    def test_a_write_patches_only_the_written_shards_rows(self, tmp_path):
        path, values, _ = family_fixture(tmp_path, "K4")
        with ShardedTree.open(path, values=values) as family:
            QueryEngine(family).query(PROBES[1])
            table = shard_module.levels_of(family)
            own = [shard._levels for shard in family.shards]
            frames = dict(table.frames)
            rect = Rect((0.5, 0.5), (0.51, 0.51))
            owner = family.route(rect)
            store = family.shards[owner].store
            reshaped = store.reshaped_at
            family.insert(rect, "new")
            assert store.reshaped_at == reshaped  # the leaf had room
            QueryEngine(family).query(PROBES[1])
            # The family's table and every shard's own are kept; only
            # the owner's nodes and the virtual rows above it changed.
            assert shard_module.levels_of(family) is table
            assert [shard._levels for shard in family.shards] == own
            changed = {
                block_id >> 40 if block_id >= 0 else "virtual"
                for block_id, frame in table.frames.items()
                if frame is not frames[block_id]
            }
            assert changed <= {owner, "virtual"} and owner in changed
            assert_same_levels(table, family.level_table())
            # A split in the owner rebuilds its table alone, and the
            # family restacks.
            for n in range(2 * family.fanout):
                family.insert(rect, ("more", n))
                if store.reshaped_at != reshaped:
                    break
            assert store.reshaped_at != reshaped
            restacked = shard_module.levels_of(family)
            assert restacked is not table
            after = [shard._levels for shard in family.shards]
            assert [a is b for a, b in zip(after, own)] == [
                i != owner for i in range(family.n_shards)
            ]
            assert_same_levels(restacked, family.level_table())

    @pytest.mark.parametrize("name", sorted(FAMILY_MUTANTS))
    def test_mutant_caught(self, tmp_path, monkeypatch, name):
        owner, attribute, function, old, new = FAMILY_MUTANTS[name]
        monkeypatch.setattr(owner, attribute, _mutant(function, old, new))
        with pytest.raises(Exception):
            for fixture in ("unequal", "K4"):
                check_fixture(tmp_path / fixture, fixture)


def requests_for(bounds):
    center = bounds.center()
    window = Rect(
        tuple(c - 0.1 for c in center), tuple(c + 0.1 for c in center)
    )
    return [
        WindowRequest(window),
        PointRequest(center),
        ContainmentRequest(window),
        CountRequest(window),
        KNNRequest(center, 5),
        JoinRequest(),
    ]


class TestFamilyExplain:
    def test_every_read_kind_has_a_plan(self, tmp_path):
        path, values, _ = family_fixture(tmp_path, "K4")
        with ShardedTree.open(path, values=values) as family:
            server = QueryServer(family, explain=True)
            report = server.submit(requests_for(family.root().mbr()))
            assert all(result.plan is not None for result in report.results)
            plan = report.results[0].plan
            assert len(plan.levels) == family.height
            assert plan.levels[-1].leaf and not plan.levels[0].leaf

    def test_a_one_shard_family_plans_like_its_file(self, tmp_path):
        path, values, _ = family_fixture(tmp_path, "K1")
        with ShardedTree.open(path, values=values) as family, open_index(
            path.with_name(family.infos[0].file), values=values, readonly=True
        ) as single:
            requests = requests_for(family.root().mbr())
            plans = [
                [
                    result.plan
                    for result in QueryServer(index, explain=True)
                    .submit(requests)
                    .results
                ]
                for index in (family, single)
            ]
            assert plans[0] == plans[1]


class TestNonFiniteWrites:
    def test_insert_and_delete_raise_before_any_shard(self, tmp_path):
        data = uniform_rects(200, max_side=0.02, seed=4)
        tree = build_prtree(BlockStore(), data, FANOUT)
        path = tmp_path / "two.manifest"
        shard_pack(tree, path, shards=2)
        bad = Rect((0.0, 0.0), (float("inf"), 1.0))
        with ShardedTree.open(path, values=dict(tree.objects)) as family:
            generations = [s.page_store.generation for s in family.shards]
            for write in (family.insert, family.delete):
                with pytest.raises(ValueError, match="non-finite"):
                    write(bad, "x")
            assert family.size == 200
            assert [s.page_store.generation for s in family.shards] == generations


def levels_of_shard(shard):
    """Each depth's node sizes, root first."""
    sizes = {}
    for _, node, depth in shard.iter_nodes():
        sizes.setdefault(depth, []).append(len(node))
    return [sizes[depth] for depth in sorted(sizes)]


def paper_family(directory, n=4000, shards=4):
    """A family of the paper's fan-out, B = 113 at 4 KB."""
    data = uniform_rects(n, max_side=0.01, seed=8)
    tree = build_prtree(BlockStore(), data, 113)
    path = pathlib.Path(directory) / "paper.manifest"
    shard_pack(tree, path, shards=shards)
    return path, dict(tree.objects), data


class TestLeafFill:
    """``shard_pack`` leaves room for writes: every shard leaf but one
    holds ⌊0.9·B⌋ rows, the levels above are full, and a fresh family
    takes an insert and a delete per leaf without a split or a
    CondenseTree reinsertion."""

    @pytest.mark.parametrize("fanout, rows", [(16, 14), (113, 101), (6, 5)])
    def test_leaves_hold_nine_tenths_and_internal_nodes_are_full(
        self, tmp_path, fanout, rows
    ):
        data = uniform_rects(2000, max_side=0.01, seed=6)
        tree = build_prtree(BlockStore(), data, fanout)
        path = tmp_path / "fill.manifest"
        shard_pack(tree, path, shards=3)
        with ShardedTree.open(path, readonly=True) as family:
            for shard in family.shards:
                *internal, leaves = levels_of_shard(shard)
                assert len(leaves) == -(-shard.size // rows)
                assert sorted(leaves)[1:] == [rows] * (len(leaves) - 1)
                below = len(leaves)
                for level in reversed(internal):
                    assert len(level) == -(-below // fanout)
                    assert sorted(level)[1:] == [fanout] * (len(level) - 1)
                    below = len(level)
                assert internal and len(internal[0]) == 1

    def test_a_fresh_family_writes_without_splits_or_reinsertions(
        self, tmp_path, monkeypatch
    ):
        reinserted = []
        reinsert = update._reinsert
        monkeypatch.setattr(
            update,
            "_reinsert",
            lambda *args: reinserted.append(args) or reinsert(*args),
        )
        path, values, _ = paper_family(tmp_path)
        with ShardedTree.open(path, values=values) as family:
            victims = []
            for shard in family.shards:
                for _, leaf in shard.iter_leaves():
                    frame = leaf.frame()
                    victims.append(
                        (frame.rect(0), frame.rect(1), values[int(frame.ptrs[1])])
                    )
            blocks = [s.page_store.file_store.allocated_ever for s in family.shards]
            for serial, (twin, rect, value) in enumerate(victims):
                family.insert(twin, ("twin", serial))
                assert family.delete(rect, value)
            family.sync()
            assert [
                s.page_store.file_store.allocated_ever for s in family.shards
            ] == blocks
            assert reinserted == []
            assert family.size == len(values)

    def test_a_family_with_full_leaves_opens_answers_and_takes_writes(
        self, tmp_path, monkeypatch
    ):
        # The leaves every family had before the fill: B rows each.
        monkeypatch.setattr(shard_module, "LEAF_FILL", 1.0)
        path, values, data = paper_family(tmp_path, n=2000, shards=2)
        monkeypatch.undo()
        window = Rect((0.2, 0.3), (0.7, 0.6))
        fresh = uniform_rects(60, max_side=0.01, seed=9)
        with ShardedTree.open(path, values=values) as family:
            for shard in family.shards:
                leaves = levels_of_shard(shard)[-1]
                assert sorted(leaves)[1:] == [113] * (len(leaves) - 1)
            got, _ = QueryEngine(family).query(window)
            assert sorted(v for _, v in got) == sorted(
                v for _, v in brute_force_query(data, window)
            )
            for (rect, value), pair in zip(fresh, data):
                family.insert(rect, ("fresh", value))
                assert family.delete(*pair)
            objects = dict(family.objects)
        live = data[len(fresh):] + [(r, ("fresh", v)) for r, v in fresh]
        with ShardedTree.open(path, values=objects, readonly=True) as family:
            for shard in family.shards:
                validate_rtree(shard, expect_size=len(shard))
            got, _ = QueryEngine(family).query(window)
            assert sorted(map(repr, (v for _, v in got))) == sorted(
                repr(v) for r, v in live if r.intersects(window)
            )
