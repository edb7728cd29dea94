"""Unit tests for the node representation: one frame per node."""

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
        assert frame.ptrs.tolist() == [pointer for _, pointer in entries]

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
        assert isinstance(frame.lo, kernels.np.ndarray)
        assert frame.lo.shape == (len(entries), 2)

    def test_one_stored_box_and_derived_corners(self, entries):
        frame = NodeFrame.from_entries(True, entries)
        assert NodeFrame.__slots__ == ("is_leaf", "box", "ptrs")
        assert frame.box.shape == (4, len(entries))
        assert frame.box.flags.c_contiguous
        assert frame.box.tolist() == [
            [rect.lo[0] for rect, _ in entries],
            [rect.lo[1] for rect, _ in entries],
            [-rect.hi[0] for rect, _ in entries],
            [-rect.hi[1] for rect, _ in entries],
        ]
        # lo is a read-only view of the box, hi a fresh negated copy.
        assert frame.lo.base is not None and not frame.lo.flags.writeable
        assert frame.lo.tolist() == [list(rect.lo) for rect, _ in entries]
        hi = frame.hi
        assert hi.tolist() == [list(rect.hi) for rect, _ in entries]
        hi[0, 0] = 99.0
        assert frame.rect(0) == entries[0][0]


class TestNodeHoldsOnlyAFrame:
    def test_slots(self):
        assert Node.__slots__ == ("is_leaf", "_frame")

    def test_constructor_packs_the_frame_and_keeps_no_list(self, entries):
        for node in (Node(True, entries), Node(is_leaf=True)):
            assert not hasattr(node, "__dict__")
            assert type(node._frame) is NodeFrame
        node = Node(True, entries)
        assert node.frame().entries() == entries
        assert Node(is_leaf=True).frame().entries() == []

    def test_entries_is_a_fresh_list_per_call(self, entries):
        node = Node(True, entries)
        first, second = node.entries, node.entries
        assert first == second == entries
        assert first is not second

    def test_mutating_the_list_changes_nothing(self, entries):
        node = Node.from_frame(NodeFrame.from_entries(True, entries))
        frame = node.frame()
        listed = node.entries
        listed.append((Rect((0, 0), (1, 1)), 7))
        listed.sort(key=lambda entry: -entry[1])
        del listed[0]
        listed[0] = (Rect((5, 5), (6, 6)), 8)
        assert node.frame() is frame
        assert frame.entries() == entries
        assert node.entries == entries and len(node) == len(entries)

    def test_entries_cannot_be_assigned(self, entries):
        node = Node(True, entries)
        with pytest.raises(AttributeError):
            node.entries = entries[:3]
        assert len(node) == len(entries)


class TestNodeFromFrame:
    def test_wraps_the_frame(self, entries):
        frame = NodeFrame.from_entries(False, entries)
        node = Node.from_frame(frame)
        assert node.is_leaf is False
        assert len(node) == len(entries)
        assert node.child_ids() == [pointer for _, pointer in entries]
        assert node.mbr() == mbr_of(rect for rect, _ in entries)
        assert node.frame() is frame
        assert node.entries == entries

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


class TestWholeNodeEdits:
    """``add``/``replace``/``extend_entry``/``remove_at``/``split_off``
    swap in a new frame and never edit one in place."""

    def test_edits(self, entries):
        extra = (Rect((0.0, 0.0), (0.5, 0.5)), 123)
        other = (Rect((0.25, 0.25), (0.75, 0.75)), 456)
        node = Node(True, entries)
        want = list(entries)
        node.add(*extra)
        want.append(extra)
        assert node.entries == want
        node.replace(2, *other)
        want[2] = other
        assert node.entries == want
        node.remove_at(0)
        del want[0]
        assert node.entries == want
        assert node.entry(1) == want[1] and len(node) == len(want)

    def test_an_old_frame_survives_edits(self, entries):
        node = Node(True, entries)
        before = node.frame()
        node.add(Rect((0.0, 0.0), (0.5, 0.5)), 99)
        assert node.frame() is not before
        # Frames are never edited in place: the old one still reads as it did.
        assert before.entries() == entries

    def test_extend_entry_grows_the_box_minimally(self, entries):
        node = Node(True, entries)
        box, pointer = entries[4]
        inside = Rect(box.lo, box.lo)
        node.extend_entry(4, inside)
        assert node.entry(4) == (box, pointer)
        outside = Rect((2.0, -1.0), (3.0, -0.5))
        node.extend_entry(4, outside)
        assert node.entry(4) == (box.union(outside), pointer)
        want = list(entries)
        want[4] = (box.union(outside), pointer)
        assert node.entries == want

    def test_split_off_keeps_and_moves_rows_in_order(self, entries):
        keep, move = [5, 0, 7], [11, 1, 2, 3, 4, 6, 8, 9, 10]
        node = Node.from_frame(NodeFrame.from_entries(True, entries))
        sibling = node.split_off(keep, move)
        assert sibling.is_leaf == node.is_leaf
        assert node.entries == [entries[i] for i in keep]
        assert sibling.entries == [entries[i] for i in move]
        # The two halves are independent nodes.
        sibling.add(Rect((0, 0), (1, 1)), 77)
        assert len(node) == len(keep)

    def test_add_to_an_empty_node(self):
        first = (Rect((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 5)
        for node in (Node(True), Node.from_frame(NodeFrame.from_entries(True, []))):
            node.add(*first)
            assert node.entries == [first]
            assert node.mbr() == first[0]
