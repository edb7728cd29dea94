"""Codec array decoding and golden-block layout tests.

The on-disk node layout is a format contract (the paper's 36-byte
entries, Section 3.1): the structure-of-arrays decoder must read exactly
the bytes :meth:`NodeCodec.encode` writes, and the encoded bytes must
never drift — the golden constants below are the recorded layout, so any
change to the format fails here before it corrupts an existing index.
"""

import hashlib
import struct

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
        flag, box, ptrs = codec.decode_arrays(block)
        node = Node.from_frame(NodeFrame(flag, box, ptrs))
        assert codec.encode(node.is_leaf, node.entries) == block
        assert codec.encode_arrays(flag, box, ptrs) == block


#: Coordinate bit patterns a box must carry through its negated half
#: unchanged: both zeros, the smallest and largest subnormals, both
#: infinities, and quiet and signalling NaNs of either sign with payloads.
SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000,
    0x0000000000000001, 0x800FFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000001234, 0xFFF8000000000001,
    0x7FF0000000000001, 0xFFF4000000ABCDEF,
    0x3FF0000000000000, 0xC00921FB54442D18,
]


def special_block(codec, count, seed):
    """A block of ``count`` entries whose coordinates are drawn from
    :data:`SPECIAL_BITS` — written as raw bytes, as no ``Rect`` is."""
    dim = codec.dim
    parts = [struct.pack("<BI", seed % 2, count)]
    for i in range(count):
        bits = [SPECIAL_BITS[(seed + 5 * i + 7 * k) % len(SPECIAL_BITS)]
                for k in range(2 * dim)]
        parts.append(struct.pack(f"<{2 * dim}QI", *bits, i * 7919 % 2**32))
    return b"".join(parts).ljust(codec.block_size, b"\x00")


class TestSpecialValueBlocks:
    """Decode then encode is byte-identical for blocks holding -0.0,
    subnormals, infinities and NaN payloads: negation is a sign flip."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_round_trip_byte_exact(self, dim):
        codec = NodeCodec(dim=dim, block_size=1024)
        room = (codec.block_size - HEADER_BYTES) // entry_size(dim)
        blocks = [special_block(codec, n, seed) for seed, n in
                  enumerate((0, 1, 5, room))]
        for block in blocks:
            assert codec.encode_arrays(*codec.decode_arrays(block)) == block
        for is_leaf, box, ptrs in codec.decode_many(b"".join(blocks), len(blocks)):
            encoded = codec.encode_arrays(is_leaf, box, ptrs)
            assert encoded in blocks

    def test_hi_rows_are_the_negated_bits(self):
        codec = NodeCodec(dim=2, block_size=1024)
        block = special_block(codec, 9, 3)
        _, box, _ = codec.decode_arrays(block)
        raw = [struct.unpack_from("<4Q", block, HEADER_BYTES + i * entry_size(2))
               for i in range(9)]
        got = [struct.unpack("<4Q", box[:, i].tobytes()) for i in range(9)]
        sign = 1 << 63
        assert got == [(a, b, c ^ sign, d ^ sign) for a, b, c, d in raw]


class TestDecodeArrays:
    def test_matches_entry_decode(self, codec):
        entries = random_rects(40, seed=21)
        block = codec.encode(True, entries)
        is_leaf, box, ptrs = codec.decode_arrays(block)
        assert is_leaf is True
        assert ptrs.dtype == kernels.np.int64
        assert ptrs.tolist() == [pointer for _, pointer in entries]
        frame = NodeFrame(is_leaf, box, ptrs)
        assert frame.entries() == codec.decode(block)[1]

    def test_empty_node(self, codec):
        block = codec.encode(False, [])
        is_leaf, box, ptrs = codec.decode_arrays(block)
        assert is_leaf is False
        assert box.shape == (4, 0)
        assert ptrs.dtype == kernels.np.int64 and ptrs.tolist() == []

    def test_rejects_wrong_block_size(self, codec):
        with pytest.raises(ValueError, match="expected 4096"):
            codec.decode_arrays(b"\x00" * 100)

    def test_box_is_a_fresh_float64_table(self, codec):
        block = codec.encode(True, random_rects(5, seed=2))
        _, box, _ = codec.decode_arrays(block)
        assert isinstance(box, kernels.np.ndarray)
        assert box.dtype == kernels.np.float64 and box.shape == (4, 5)
        assert box.flags["C_CONTIGUOUS"]
        assert box.flags["WRITEABLE"]  # copied out of the frombuffer view

    def test_non_power_of_two_coordinates_round_trip(self, codec):
        # Arbitrary doubles (not exactly representable decimals) must
        # survive encode -> decode_arrays -> encode bit-for-bit.
        entries = random_rects(60, seed=33)
        block = codec.encode(True, entries)
        flag, box, ptrs = codec.decode_arrays(block)
        node = Node.from_frame(NodeFrame(flag, box, ptrs))
        assert codec.encode(flag, node.entries) == block

    def test_other_dimensions(self):
        for dim in (1, 3, 4):
            codec = NodeCodec(dim=dim, block_size=4096)
            entries = [
                (Rect((0.25,) * dim, (0.75,) * dim), 11),
                (Rect((0.0,) * dim, (1.0,) * dim), 12),
            ]
            block = codec.encode(True, entries)
            flag, box, ptrs = codec.decode_arrays(block)
            frame = NodeFrame(flag, box, ptrs)
            assert frame.entries() == entries
            assert codec.encode(flag, frame.entries()) == block


class TestDecodeMany:
    @pytest.mark.parametrize("dim,block_size", [(2, 4096), (2, 1024), (3, 512), (2, 256)])
    def test_matches_decode_arrays(self, dim, block_size):
        codec = NodeCodec(dim=dim, block_size=block_size)
        room = (block_size - HEADER_BYTES) // entry_size(dim)
        blocks = [
            codec.encode(n % 2 == 0, [
                (Rect(r.lo[:1] * dim, r.hi[:1] * dim), i)
                for i, (r, _) in enumerate(random_rects(n, seed=n))
            ])
            for n in (0, 1, room, 2, min(room, 7))
        ]
        for m in range(len(blocks) + 1):
            got = codec.decode_many(b"".join(blocks[:m]), m)
            assert len(got) == m
            for block, (is_leaf, box, ptrs) in zip(blocks, got):
                want = codec.decode_arrays(block)
                assert is_leaf is want[0]
                for x, y in zip((box, ptrs), want[1:]):
                    assert x.dtype == y.dtype and x.shape == y.shape
                    assert x.tobytes() == y.tobytes()
                    # A slice of the batch table: each row contiguous.
                    assert not x.size or x.strides[-1] == x.itemsize

    @pytest.mark.parametrize(
        "offset,value,message",
        [(0, 7, "leaf flag 7"), (1, 114, "entry count 114"), (4, 1, "entry count")],
    )
    def test_hostile_headers_raise(self, codec, offset, value, message):
        good = codec.encode(True, GOLDEN_LEAF_ENTRIES)
        bad = bytearray(good)
        bad[offset] = value
        with pytest.raises(ValueError, match=message):
            codec.decode_arrays(bytes(bad))
        with pytest.raises(ValueError, match=f"block 1 of 3: {message}"):
            codec.decode_many(good + bytes(bad) + good, 3)


class TestEncodeArrays:
    """``encode_arrays`` writes what ``encode`` writes, from a box."""

    @pytest.mark.parametrize(
        "is_leaf, entries, sha256",
        [
            (True, GOLDEN_LEAF_ENTRIES, GOLDEN_LEAF_SHA256),
            (False, GOLDEN_INTERNAL_ENTRIES, GOLDEN_INTERNAL_SHA256),
        ],
    )
    def test_golden_blocks(self, codec, is_leaf, entries, sha256):
        frame = NodeFrame.from_entries(is_leaf, entries)
        block = codec.encode_arrays(is_leaf, frame.box, frame.ptrs)
        assert block == codec.encode(is_leaf, entries)
        assert hashlib.sha256(block).hexdigest() == sha256

    def test_inverse_of_decode_arrays(self, codec):
        for n in (0, 1, 60, codec.fanout):
            block = codec.encode(True, random_rects(n, seed=34))
            assert codec.encode_arrays(*codec.decode_arrays(block)) == block

    def test_other_dimensions(self):
        for dim in (1, 3, 4):
            codec = NodeCodec(dim=dim, block_size=4096)
            block = codec.encode(True, random_rects(20, seed=36, dim=dim))
            assert codec.encode_arrays(*codec.decode_arrays(block)) == block

    def test_rejects_overfull_and_wrong_dimension(self, codec):
        frame = NodeFrame.from_entries(True, random_rects(codec.fanout + 1))
        with pytest.raises(ValueError, match="exceed block fan-out"):
            codec.encode_arrays(True, frame.box, frame.ptrs)
        frame = NodeFrame.from_entries(True, random_rects(3, dim=3))
        with pytest.raises(ValueError, match="dimension 3"):
            codec.encode_arrays(True, frame.box, frame.ptrs)
