"""Unit tests for the dual node representation (entries <-> frame)."""

import pytest

from repro.geometry import kernels
from repro.geometry.rect import Rect, mbr_of
from repro.rtree.node import Node, NodeFrame

from tests.conftest import random_rects


@pytest.fixture
def entries():
    return [(rect, value) for rect, value in random_rects(12, seed=3)]


class TestNodeFrame:
    def test_from_entries_round_trip(self, entries):
        frame = NodeFrame.from_entries(True, entries)
        assert frame.is_leaf
        assert len(frame) == len(entries)
        for i, (rect, pointer) in enumerate(entries):
            assert frame.rect(i) == rect
            assert frame.entry(i) == (rect, pointer)
        assert frame.entries() == entries
        assert frame.ptrs == [pointer for _, pointer in entries]

    def test_rect_materializes_python_floats(self, entries):
        frame = NodeFrame.from_entries(False, entries)
        rect = frame.rect(0)
        assert all(type(c) is float for c in rect.lo + rect.hi)
        # The materialized Rect behaves like a normal immutable Rect.
        with pytest.raises(AttributeError):
            rect.lo = (0.0, 0.0)

    def test_entries_are_python_float_tuples(self, entries):
        for rect, _ in NodeFrame.from_entries(True, entries).entries():
            assert type(rect.lo) is tuple and type(rect.hi) is tuple
            assert all(type(c) is float for c in rect.lo + rect.hi)

    def test_mbr_matches_mbr_of(self, entries):
        frame = NodeFrame.from_entries(True, entries)
        assert frame.mbr() == mbr_of(rect for rect, _ in entries)

    def test_empty_frame(self):
        frame = NodeFrame.from_entries(True, [])
        assert len(frame) == 0
        assert frame.entries() == []
        with pytest.raises(ValueError):
            frame.mbr()

    def test_table_representation_matches_backend(self, entries):
        frame = NodeFrame.from_entries(True, entries)
        if kernels.HAVE_NUMPY:
            assert isinstance(frame.lo, kernels.np.ndarray)
            assert frame.lo.shape == (len(entries), 2)
        else:
            assert isinstance(frame.lo, tuple)


class TestNodeFrameCoherence:
    def test_frame_is_cached_until_mutation(self, entries):
        node = Node(True, entries)
        first = node.frame()
        assert node.frame() is first
        node.add(Rect((0, 0), (0.1, 0.1)), 99)
        second = node.frame()
        assert second is not first
        assert len(second) == len(entries) + 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda e: e.append((Rect((0, 0), (1, 1)), 7)),
            lambda e: e.extend([(Rect((0, 0), (1, 1)), 7)]),
            lambda e: e.insert(0, (Rect((0, 0), (1, 1)), 7)),
            lambda e: e.pop(),
            lambda e: e.remove(e[0]),
            lambda e: e.clear(),
            lambda e: e.sort(key=lambda entry: entry[1]),
            lambda e: e.reverse(),
            lambda e: e.__setitem__(0, (Rect((0, 0), (1, 1)), 7)),
            lambda e: e.__delitem__(0),
            lambda e: e.__iadd__([(Rect((0, 0), (1, 1)), 7)]),
            lambda e: e.__imul__(2),
        ],
        ids=[
            "append", "extend", "insert", "pop", "remove", "clear",
            "sort", "reverse", "setitem", "delitem", "iadd", "imul",
        ],
    )
    def test_every_list_mutation_invalidates_the_frame(
        self, entries, mutate
    ):
        node = Node(True, entries)
        cached = node.frame()
        mutate(node.entries)
        fresh = node.frame()
        assert fresh is not cached
        assert len(fresh) == len(node.entries)
        assert fresh.entries() == list(node.entries)

    def test_entries_setter_drops_the_frame(self, entries):
        node = Node(True, entries)
        cached = node.frame()
        node.entries = entries[:3]
        assert len(node) == 3
        assert node.frame() is not cached

    def test_slice_read_does_not_invalidate(self, entries):
        node = Node(True, entries)
        cached = node.frame()
        _ = node.entries[:4]
        _ = list(node.entries)
        assert node.frame() is cached


class TestNodeFromFrame:
    def test_lazy_entry_materialization(self, entries):
        frame = NodeFrame.from_entries(False, entries)
        node = Node.from_frame(frame)
        assert node.is_leaf is False
        # Frame-level access works without any entry list.
        assert len(node) == len(entries)
        assert node.child_ids() == [pointer for _, pointer in entries]
        assert node.mbr() == mbr_of(rect for rect, _ in entries)
        assert node.frame() is frame
        # First entry-level access materializes the classic list.
        assert node.entries == entries

    def test_mutating_a_frame_built_node(self, entries):
        node = Node.from_frame(NodeFrame.from_entries(True, entries))
        node.add(Rect((0, 0), (0.5, 0.5)), 123)
        assert len(node) == len(entries) + 1
        assert node.frame().entries() == list(node.entries)

    def test_remove_returns_whether_entry_existed(self, entries):
        node = Node.from_frame(NodeFrame.from_entries(True, entries))
        rect, pointer = entries[0]
        assert node.remove(rect, pointer)
        assert not node.remove(rect, pointer)
        assert len(node) == len(entries) - 1

    def test_child_ids_rejects_leaves(self, entries):
        node = Node.from_frame(NodeFrame.from_entries(True, entries))
        with pytest.raises(ValueError):
            node.child_ids()

    def test_empty_node_mbr_raises(self):
        assert len(Node(True)) == 0
        with pytest.raises(ValueError):
            Node(True).mbr()
        with pytest.raises(ValueError):
            Node.from_frame(NodeFrame.from_entries(True, [])).mbr()


def _nodes(entries):
    """The same node in each state the write path can meet it in."""
    both = Node(True, entries)
    both.frame()
    return {
        "entries only": Node(True, entries),
        "frame only": Node.from_frame(NodeFrame.from_entries(True, entries)),
        "both": both,
    }


def _assert_coherent(node, want):
    """Whatever the node holds matches ``want``, and the views agree."""
    held = node._entries
    if held is not None:
        assert list(held) == want
    assert node.frame().entries() == want
    assert len(node) == len(want)
    assert list(node.entries) == want


def _assert_coherent_without_materializing(node, want, had_entries):
    """A frame-only node stays frame-only through an edit."""
    assert (node._entries is not None) == had_entries
    if had_entries:
        assert list(node._entries) == want
    if node._frame is not None:
        assert node._frame.entries() == want
    assert len(node) == len(want)


class TestWholeNodeEdits:
    """``add``/``replace``/``extend_entry``/``remove_at``/``split_off``
    edit every representation the node holds and build neither anew."""

    def test_edits_apply_to_every_representation(self, entries):
        extra = (Rect((0.0, 0.0), (0.5, 0.5)), 123)
        other = (Rect((0.25, 0.25), (0.75, 0.75)), 456)
        for state, node in _nodes(entries).items():
            had_entries = node._entries is not None
            want = list(entries)
            node.add(*extra)
            want.append(extra)
            _assert_coherent_without_materializing(node, want, had_entries)
            node.replace(2, *other)
            want[2] = other
            _assert_coherent_without_materializing(node, want, had_entries)
            node.remove_at(0)
            del want[0]
            _assert_coherent_without_materializing(node, want, had_entries)
            assert node.entry(1) == want[1]
            _assert_coherent(node, want)

    def test_a_cached_frame_survives_edits(self, entries):
        node = Node(True, entries)
        before = node.frame()
        node.add(Rect((0.0, 0.0), (0.5, 0.5)), 99)
        assert node._frame is not None and node._frame is not before
        # Frames are never edited in place: the old one still reads as it did.
        assert before.entries() == entries

    def test_extend_entry_grows_the_box_minimally(self, entries):
        for node in _nodes(entries).values():
            box, pointer = entries[4]
            inside = Rect(box.lo, box.lo)
            node.extend_entry(4, inside)
            assert node.entry(4) == (box, pointer)
            outside = Rect((2.0, -1.0), (3.0, -0.5))
            node.extend_entry(4, outside)
            assert node.entry(4) == (box.union(outside), pointer)
            want = list(entries)
            want[4] = (box.union(outside), pointer)
            _assert_coherent(node, want)

    def test_split_off_keeps_and_moves_rows_in_order(self, entries):
        keep, move = [5, 0, 7], [11, 1, 2, 3, 4, 6, 8, 9, 10]
        for state, node in _nodes(entries).items():
            had_entries = node._entries is not None
            sibling = node.split_off(keep, move)
            assert sibling.is_leaf == node.is_leaf
            for part, rows in ((node, keep), (sibling, move)):
                _assert_coherent_without_materializing(
                    part, [entries[i] for i in rows], had_entries
                )
                _assert_coherent(part, [entries[i] for i in rows])
            # The two halves are independent nodes.
            sibling.add(Rect((0, 0), (1, 1)), 77)
            assert len(node) == len(keep)

    def test_add_to_an_empty_node(self):
        first = (Rect((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 5)
        for node in (Node(True), Node.from_frame(NodeFrame.from_entries(True, []))):
            node.frame()
            node.add(*first)
            _assert_coherent(node, [first])
            assert node.mbr() == first[0]
