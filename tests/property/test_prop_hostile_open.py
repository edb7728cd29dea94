"""Property: opening hostile bytes either works or raises StorageError.

``open_index`` has exactly one parser per input: the header slot of a
packed file and the JSON manifest of a sharded family.  Both inputs
come from outside the program, so every malformed value must surface
as a :class:`~repro.storage.StorageError` (a :class:`ShardError` for
the manifest) — never as a ``TypeError``, ``KeyError`` or
``AttributeError`` from deep inside the open.  The other permitted
outcome is an index that opens and answers a full-extent window query.

Two inputs are mutated one field at a time:

* a packed file with one header-slot field set to a hostile value and
  the slot's CRC recomputed, so the checksum cannot be what rejects it;
* a manifest with one field replaced by a JSON value of another type.

Data pages carry no checksums yet, so page bit flips are out of scope.
"""

import json
import shutil
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.iomodel.blockstore import BlockStore
from repro.prtree.prtree import build_prtree
from repro.storage import StorageError, open_index, pack_tree, shard_pack
from repro.storage.filestore import HEADER_SLOT, _SLOT_STRUCT

from tests.conftest import random_rects

_EVERYTHING = Rect((-1e12, -1e12), (1e12, 1e12))

#: Header-slot fields in ``_SLOT_STRUCT`` order, after the magic.
_SLOT_FIELDS = (
    "version", "block_size", "epoch", "n_logical", "freelist_head",
    "live_count", "phys_high", "map_index", "meta_len",
)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """One packed file and one K=2 family, never modified."""
    root = tmp_path_factory.mktemp("golden")
    tree = build_prtree(BlockStore(), random_rects(200, seed=5), 8)
    pack_tree(tree, root / "index.pack", block_size=512)
    shard_pack(tree, root / "index.manifest", shards=2, block_size=512)
    return root


def _opens_or_storage_error(path) -> None:
    try:
        tree = open_index(path, readonly=True)
    except StorageError:
        return
    with tree:
        tree.query(_EVERYTHING)


def _hostile_int(fmt: str):
    top = 2 ** (8 * struct.calcsize("<" + fmt)) - 1
    return st.one_of(
        st.sampled_from([0, 1, 2, 15, 16, top, top - 1, (top + 1) // 2]),
        st.integers(0, top),
    )


@st.composite
def header_mutations(draw):
    slot = draw(st.sampled_from([0, 1]))
    field = draw(st.sampled_from(_SLOT_FIELDS))
    fmt = _SLOT_STRUCT[len("<4s") + _SLOT_FIELDS.index(field)]
    return slot, field, draw(_hostile_int(fmt))


@seed(30)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutation=header_mutations())
def test_resealed_header_field(golden, tmp_path, mutation):
    slot, field, value = mutation
    raw = bytearray((golden / "index.pack").read_bytes())
    base = slot * HEADER_SLOT
    fields = list(struct.unpack_from(_SLOT_STRUCT, raw, base))
    fields[1 + _SLOT_FIELDS.index(field)] = value
    struct.pack_into(_SLOT_STRUCT, raw, base, *fields)
    crc = zlib.crc32(raw[base : base + HEADER_SLOT - 4])
    struct.pack_into("<I", raw, base + HEADER_SLOT - 4, crc)
    path = tmp_path / "hostile.pack"
    path.write_bytes(bytes(raw))
    _opens_or_storage_error(path)


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _field_paths(doc: dict) -> list[tuple]:
    paths = [(key,) for key in doc]
    for i, entry in enumerate(doc["shard_files"]):
        paths += [("shard_files", i, key) for key in entry]
    return paths


@seed(30)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_manifest_field_of_the_wrong_type(golden, tmp_path, data):
    # Read-only opens never write the shard files: one copy serves all.
    family = tmp_path / "family"
    if not family.exists():
        shutil.copytree(golden, family)
    manifest = family / "index.manifest"
    doc = json.loads((golden / "index.manifest").read_text())
    *parents, leaf = data.draw(st.sampled_from(_field_paths(doc)))
    node = doc
    for key in parents:
        node = node[key]
    original = node[leaf]
    node[leaf] = data.draw(
        _json_values.filter(lambda v: type(v) is not type(original))
    )
    manifest.write_text(json.dumps(doc))
    _opens_or_storage_error(manifest)
