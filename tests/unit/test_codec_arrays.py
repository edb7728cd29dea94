"""Codec array decoding and golden-block layout tests.

The on-disk node layout is a format contract (the paper's 36-byte
entries, Section 3.1): the structure-of-arrays decoder must read exactly
the bytes :meth:`NodeCodec.encode` writes, and the encoded bytes must
never drift — the golden constants below are the recorded layout, so any
change to the format fails here before it corrupts an existing index.
"""

import hashlib

import pytest

from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.iomodel.codec import HEADER_BYTES, NodeCodec, entry_size
from repro.rtree.node import Node, NodeFrame

from tests.conftest import random_rects

#: Fixed nodes with exactly representable coordinates, and the recorded
#: bytes they encode to (hex prefix of the occupied region + sha256 of
#: the full zero-padded 4096-byte block).
GOLDEN_LEAF_ENTRIES = [
    (Rect((0.0, 0.25), (0.5, 1.0)), 7),
    (Rect((0.125, 0.125), (0.375, 0.875)), 42),
    (Rect((0.5, 0.0), (1.0, 0.75)), 4294967295),  # max uint32 pointer
]
GOLDEN_LEAF_PREFIX = (
    "01030000000000000000000000000000000000d03f000000000000e03f"
    "000000000000f03f07000000000000000000c03f000000000000c03f"
    "000000000000d83f000000000000ec3f2a000000000000000000e03f"
    "0000000000000000000000000000f03f000000000000e83fffffffff"
)
GOLDEN_LEAF_SHA256 = (
    "4fec00cc5d03f35a6fcfbf3312b0d82a54cbab423adcd82b07baefabe4af6852"
)
GOLDEN_INTERNAL_ENTRIES = [
    (Rect((0.0, 0.0), (0.5, 0.5)), 2),
    (Rect((0.25, 0.5), (1.0, 1.0)), 3),
]
GOLDEN_INTERNAL_PREFIX = (
    "000200000000000000000000000000000000000000000000000000e03f"
    "000000000000e03f02000000000000000000d03f000000000000e03f"
    "000000000000f03f000000000000f03f03000000"
)
GOLDEN_INTERNAL_SHA256 = (
    "86647ade40406a37accb466a55c218e8ef4335384d195a68fefbb7e1b62ad28a"
)


@pytest.fixture
def codec():
    return NodeCodec(dim=2, block_size=4096)


class TestGoldenBlocks:
    def test_leaf_block_bytes_are_stable(self, codec):
        block = codec.encode(True, GOLDEN_LEAF_ENTRIES)
        used = HEADER_BYTES + 3 * entry_size(2)
        assert block[:used].hex() == GOLDEN_LEAF_PREFIX
        assert block[used:] == b"\x00" * (4096 - used)
        assert hashlib.sha256(block).hexdigest() == GOLDEN_LEAF_SHA256

    def test_internal_block_bytes_are_stable(self, codec):
        block = codec.encode(False, GOLDEN_INTERNAL_ENTRIES)
        used = HEADER_BYTES + 2 * entry_size(2)
        assert block[:used].hex() == GOLDEN_INTERNAL_PREFIX
        assert hashlib.sha256(block).hexdigest() == GOLDEN_INTERNAL_SHA256

    @pytest.mark.parametrize(
        "is_leaf,entries",
        [(True, GOLDEN_LEAF_ENTRIES), (False, GOLDEN_INTERNAL_ENTRIES)],
        ids=["leaf", "internal"],
    )
    def test_golden_blocks_round_trip_byte_exact(
        self, codec, is_leaf, entries
    ):
        block = codec.encode(is_leaf, entries)
        # Entry-level decode.
        got_leaf, got_entries = codec.decode(block)
        assert (got_leaf, got_entries) == (is_leaf, entries)
        assert codec.encode(got_leaf, got_entries) == block
        # Array decode, re-encoded through a frame-built node.
        flag, lo, hi, ptrs = codec.decode_arrays(block)
        node = Node.from_frame(NodeFrame(flag, lo, hi, ptrs))
        assert codec.encode(node.is_leaf, node.entries) == block


class TestDecodeArrays:
    def test_matches_entry_decode(self, codec):
        entries = random_rects(40, seed=21)
        block = codec.encode(True, entries)
        is_leaf, lo, hi, ptrs = codec.decode_arrays(block)
        assert is_leaf is True
        assert ptrs == [pointer for _, pointer in entries]
        frame = NodeFrame(is_leaf, lo, hi, ptrs)
        assert frame.entries() == codec.decode(block)[1]

    def test_empty_node(self, codec):
        block = codec.encode(False, [])
        is_leaf, lo, hi, ptrs = codec.decode_arrays(block)
        assert is_leaf is False
        assert kernels.table_len(lo) == 0
        assert ptrs == []

    def test_rejects_wrong_block_size(self, codec):
        with pytest.raises(ValueError, match="expected 4096"):
            codec.decode_arrays(b"\x00" * 100)

    def test_table_kind_matches_backend(self, codec):
        block = codec.encode(True, random_rects(5, seed=2))
        _, lo, _, _ = codec.decode_arrays(block)
        if kernels.HAVE_NUMPY:
            assert isinstance(lo, kernels.np.ndarray)
            assert lo.dtype == kernels.np.float64
            assert lo.flags["C_CONTIGUOUS"]
            assert lo.flags["WRITEABLE"]  # copied out of the frombuffer view
        else:
            assert isinstance(lo, tuple)

    def test_non_power_of_two_coordinates_round_trip(self, codec):
        # Arbitrary doubles (not exactly representable decimals) must
        # survive encode -> decode_arrays -> encode bit-for-bit.
        entries = random_rects(60, seed=33)
        block = codec.encode(True, entries)
        flag, lo, hi, ptrs = codec.decode_arrays(block)
        node = Node.from_frame(NodeFrame(flag, lo, hi, ptrs))
        assert codec.encode(flag, node.entries) == block

    def test_other_dimensions(self):
        for dim in (1, 3, 4):
            codec = NodeCodec(dim=dim, block_size=4096)
            entries = [
                (Rect((0.25,) * dim, (0.75,) * dim), 11),
                (Rect((0.0,) * dim, (1.0,) * dim), 12),
            ]
            block = codec.encode(True, entries)
            flag, lo, hi, ptrs = codec.decode_arrays(block)
            frame = NodeFrame(flag, lo, hi, ptrs)
            assert frame.entries() == entries
            assert codec.encode(flag, frame.entries()) == block


class TestEncodeArrays:
    """``encode_arrays`` writes what ``encode`` writes, from tables."""

    @pytest.mark.parametrize(
        "is_leaf, entries, sha256",
        [
            (True, GOLDEN_LEAF_ENTRIES, GOLDEN_LEAF_SHA256),
            (False, GOLDEN_INTERNAL_ENTRIES, GOLDEN_INTERNAL_SHA256),
        ],
    )
    def test_golden_blocks(self, codec, is_leaf, entries, sha256):
        frame = NodeFrame.from_entries(is_leaf, entries)
        block = codec.encode_arrays(is_leaf, frame.lo, frame.hi, frame.ptrs)
        assert block == codec.encode(is_leaf, entries)
        assert hashlib.sha256(block).hexdigest() == sha256

    def test_inverse_of_decode_arrays(self, codec):
        for n in (0, 1, 60, codec.fanout):
            block = codec.encode(True, random_rects(n, seed=34))
            assert codec.encode_arrays(*codec.decode_arrays(block)) == block

    def test_tuple_tables_encode_under_either_backend(self, codec):
        entries = random_rects(9, seed=35)
        lo = tuple(rect.lo for rect, _ in entries)
        hi = tuple(rect.hi for rect, _ in entries)
        ptrs = [pointer for _, pointer in entries]
        assert codec.encode_arrays(False, lo, hi, ptrs) == codec.encode(
            False, entries
        )

    def test_other_dimensions(self):
        for dim in (1, 3, 4):
            codec = NodeCodec(dim=dim, block_size=4096)
            block = codec.encode(True, random_rects(20, seed=36, dim=dim))
            assert codec.encode_arrays(*codec.decode_arrays(block)) == block

    def test_rejects_overfull_and_wrong_dimension(self, codec):
        frame = NodeFrame.from_entries(True, random_rects(codec.fanout + 1))
        with pytest.raises(ValueError, match="exceed block fan-out"):
            codec.encode_arrays(True, frame.lo, frame.hi, frame.ptrs)
        frame = NodeFrame.from_entries(True, random_rects(3, dim=3))
        with pytest.raises(ValueError, match="dimension 3"):
            codec.encode_arrays(True, frame.lo, frame.hi, frame.ptrs)
