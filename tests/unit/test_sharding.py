"""Unit tests for Hilbert-range sharded indexes.

Covers :func:`repro.storage.shard.shard_pack` round-trips, the manifest
hardening contract (corrupt / truncated manifests rejected with clear
errors, hostile field types refused, shard-file count and MBR
mismatches detected on open), read-only families
rejecting updates up front, and the fan-out engines against brute-force
oracles.
"""

import itertools
import json
import pathlib
import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import uniform_rects
from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.queries.knn import brute_force_knn
from repro.queries.point import (
    brute_force_containment,
    brute_force_point_query,
)
from repro.rtree.query import brute_force_query
from repro.rtree.validate import validate_rtree
from repro.storage import (
    FileBlockStore,
    PagedTree,
    ShardError,
    ShardedJoinEngine,
    ShardedKNNEngine,
    ShardedPointEngine,
    ShardedQueryEngine,
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
        with open_family(manifest, tree) as family:
            infos = family.infos
            for info in infos:
                assert info.hilbert_lo <= info.hilbert_hi
            for prev, cur in zip(infos, infos[1:]):
                assert prev.hilbert_hi <= cur.hilbert_lo

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
            got, _ = ShardedQueryEngine(family).query(window)
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
            ("bounds", "everywhere"),
            ("shard_files.0.file", 5),
            ("shard_files.0.file", None),
            ("shard_files.0.file", ""),
            ("shard_files.0.file", "a/b"),
            ("shard_files.0.file", ".."),
            ("shard_files.0.epoch", "1"),
            ("shard_files.0.hilbert_hi", 1.5),
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


class TestShardedEngines:
    def test_window_matches_brute_force(self, manifest, tree, data):
        with open_family(manifest, tree) as family:
            engine = ShardedQueryEngine(family)
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
            engine = ShardedQueryEngine(family)
            # A window inside a single shard's MBR only reads that shard.
            target = family.shard_mbr(0)
            lone = Rect(target.lo, target.lo)
            engine.query(lone)
            touched = [
                i
                for i, totals in enumerate(engine.per_shard_totals())
                if totals.queries > 0
            ]
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
            engine = ShardedPointEngine(family)
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

    def test_knn_streams_merge_in_distance_order(self, manifest, tree, data):
        with open_family(manifest, tree) as family:
            engine = ShardedKNNEngine(family)
            for target in ((0.5, 0.5), (0.0, 1.0), (0.99, 0.01)):
                got, stats = engine.knn(target, 15)
                want = brute_force_knn(data, target, 15)
                assert [n.distance for n in got] == pytest.approx(
                    [n.distance for n in want]
                )
                distances = [n.distance for n in got]
                assert distances == sorted(distances)
                assert stats.queries == 1

    def test_knn_lazy_streams_skip_far_shards(self, manifest, tree):
        with open_family(manifest, tree) as family:
            engine = ShardedKNNEngine(family)
            # One neighbor of a corner point should not open every shard.
            corner = family.shard_mbr(0).lo
            engine.knn(corner, 1)
            opened = sum(
                1 for t in engine.per_shard_totals() if t.queries > 0
            )
            assert opened < family.n_shards

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
            pairs, stats = ShardedJoinEngine(family, minor).join()
            assert (
                sorted((a[1], b[1]) for a, b in pairs) == expected
            )
            assert stats.pairs == len(expected)
            # Sharded on the right as well.
            pairs, _ = ShardedJoinEngine(minor, family).join()
            assert (
                sorted((b[1], a[1]) for a, b in pairs) == expected
            )
            # Sharded self-join reports ordered pairs like the plain one.
            pairs, _ = ShardedJoinEngine(family, family).join()
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
        "make", [ShardedQueryEngine, ShardedPointEngine, ShardedKNNEngine]
    )
    def test_reset_clears_per_shard_totals_and_keeps_caches(
        self, manifest, tree, make
    ):
        with open_family(manifest, tree) as family:
            engine = make(family)
            window = Rect((0.0, 0.0), (1.0, 1.0))

            def run():
                if make is ShardedQueryEngine:
                    return engine.query(window)
                if make is ShardedPointEngine:
                    return engine.containment_query(window)
                return engine.knn((0.5, 0.5), 40)

            run()
            engine.reset()
            assert engine.totals.queries == 0
            assert all(
                totals.queries == 0 and totals.leaf_reads == 0
                for totals in engine.per_shard_totals()
            )
            _, stats = run()
            # The internal-node pools survived the reset.
            assert stats.internal_reads == 0
            per_shard = engine.per_shard_totals()
            assert sum(t.leaf_reads for t in per_shard) == stats.leaf_reads
            assert engine.totals.leaf_reads == stats.leaf_reads

    def test_dimension_mismatch_raises(self, manifest, tree):
        with open_family(manifest, tree) as family:
            bad = Rect((0, 0, 0), (1, 1, 1))
            with pytest.raises(ValueError, match="3-d"):
                ShardedQueryEngine(family).query(bad)
            with pytest.raises(ValueError, match="3-d"):
                ShardedKNNEngine(family).knn((0.0, 0.0, 0.0), 3)
            with pytest.raises(ValueError, match="3-d"):
                ShardedPointEngine(family).point_query((0.0, 0.0, 0.0))
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
            got, _ = ShardedQueryEngine(family).query(window)
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


class TestMmapFamilies:
    def test_open_index_mmap_plumbs_to_every_shard(self, tree, manifest):
        with open_index(
            manifest, values=dict(tree.objects), readonly=True, mmap=True
        ) as family:
            assert isinstance(family, ShardedTree)
            assert all(
                shard.page_store.file_store.mmapped
                for shard in family.shards
            )
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
        wider = Rect((4.9, 4.9), (5.2, 5.2))  # same center: same shard
        s = family.route(far)
        assert family.route(wider) == s
        family.insert(far, "far")  # the fourth row: no split
        assert_table_is_live(family)

        def boom(*args):
            raise SplitFailed("splitter failed")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "quadratic_split", boom)
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
        assert tables[5][1] is not None  # which then took inserts

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
            engine = ShardedQueryEngine(family)
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
