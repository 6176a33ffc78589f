"""Run files and checkpoint blobs keep their framing, byte for byte.

``pack_pairs`` frames a batch with C-level maps and ``_parse`` unpacks a
chunk of same-width records with one ``iter_unpack``; both are held to
the record-at-a-time loops of :mod:`tests.hyracks.per_tuple_reference`:
the same bytes written, and the same records, end, shortfall and
exception read back, whatever the widths and wherever a chunk is cut.
"""

import random
import types

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.common import serde
from repro.common.errors import StorageError
from repro.common.serde import encode_key
from repro.hyracks.storage import run_file
from repro.hyracks.storage.file_manager import FileManager
from tests.hyracks import per_tuple_reference as reference

SEEDS = range(8)


def uniform(rng, count, key_len=8, value_len=8):
    return [
        (rng.randbytes(key_len), rng.randbytes(value_len)) for _ in range(count)
    ]


def mixed(rng, count):
    return [
        (rng.randbytes(rng.randrange(12)), rng.randbytes(rng.randrange(20)))
        for _ in range(count)
    ]


def with_an_odd_header(rng, count):
    """Same-width records but one, in the middle."""
    records = uniform(rng, count)
    records[count // 2] = (b"k" * 8, b"v" * 9)
    return records


def with_an_odd_width_same_size(rng, count):
    """One record as long as the others, split differently."""
    records = uniform(rng, count)
    records[count // 2] = (b"k" * 7, b"v" * 9)
    return records


SHAPES = {
    "uniform": lambda rng: uniform(rng, 300),
    "empty values": lambda rng: uniform(rng, 50, value_len=0),
    "empty keys": lambda rng: uniform(rng, 50, key_len=0),
    "one record": lambda rng: uniform(rng, 1),
    "mixed": lambda rng: mixed(rng, 200),
    "odd header": lambda rng: with_an_odd_header(rng, 101),
    "odd split": lambda rng: with_an_odd_width_same_size(rng, 101),
    "none": lambda rng: [],
}


def reference_bytes(tmp_path, records):
    files = FileManager(str(tmp_path))
    path = reference.write_run(types.SimpleNamespace(files=files), "ref", records)
    with open(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", SEEDS)
def test_pack_pairs_writes_the_per_record_bytes(tmp_path, seed, shape):
    records = SHAPES[shape](random.Random(seed))
    want = reference_bytes(tmp_path, records)
    assert run_file.pack_pairs(records) == want
    assert run_file.pack_pairs(iter(records)) == want
    assert run_file.pack_pairs(tuple(records)) == want


#: Batches whose keys share one length and whose values share one, and
#: batches of any widths: the two ways ``pack_pairs`` frames a batch.
uniform_batches = st.tuples(
    st.integers(0, 12), st.integers(0, 12), st.integers(0, 40)
).flatmap(lambda shape: st.lists(
    st.tuples(
        st.binary(min_size=shape[0], max_size=shape[0]),
        st.binary(min_size=shape[1], max_size=shape[1]),
    ),
    max_size=shape[2],
))
mixed_batches = st.lists(
    st.tuples(st.binary(max_size=12), st.binary(max_size=20)), max_size=40
)


@seed(51)
@settings(max_examples=300, deadline=None)
@given(records=st.one_of(uniform_batches, mixed_batches))
def test_pack_pairs_is_the_per_record_framing(records):
    want = b"".join(reference.framed(records))
    assert run_file.pack_pairs(records) == want
    assert run_file.pack_pairs(iter(records)) == want
    assert list(run_file.iter_pairs(want)) == records


def outcome(parse, data):
    try:
        return parse(data)
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", SEEDS)
def test_parse_reads_what_the_per_record_loop_read(seed, shape):
    rng = random.Random(seed)
    blob = run_file.pack_pairs(SHAPES[shape](rng))
    # Whole, cut inside a header, inside a key or value, on a boundary.
    cuts = {0, len(blob), 1, 7, 8, 9} | {rng.randrange(len(blob) + 1) for _ in range(40)}
    for cut in sorted(cut for cut in cuts if cut <= len(blob)):
        data = blob[:cut]
        assert outcome(run_file._parse, data) == outcome(reference.parse, data), cut


def test_parse_of_an_empty_blob():
    assert run_file._parse(b"") == reference.parse(b"") == ([], 0, 0)
    assert list(run_file.iter_pairs(b"")) == []


@pytest.mark.parametrize("tail", [b"\x00" * 3, b"\x00\x00\x00\x08\x00\x00\x00\x08" + b"x" * 5])
def test_a_uniform_chunk_cut_inside_a_record(tail):
    blob = run_file.pack_pairs([(b"k" * 8, b"v" * 8)] * 10) + tail
    records, end, short = run_file._parse(blob)
    assert (records, end, short) == reference.parse(blob)
    assert len(records) == 10 and end == 240 and short > 0
    with pytest.raises(StorageError, match="cut inside a record"):
        list(run_file.iter_pairs(blob))


def test_a_parsed_record_is_a_pair_of_bytes():
    (record,) = run_file._parse(run_file.pack_pairs([(b"ab", b"cd")] * 3))[0][:1]
    assert type(record) is tuple and all(type(part) is bytes for part in record)


def test_a_checkpoint_blob_is_the_per_record_framing(tmp_path):
    """What a checkpoint stores of a relation partition is its scan, framed:
    the same bytes, and read back the same rows."""
    rng = random.Random(3)
    codec = serde.TupleSerde(serde.FLOAT64, serde.ListSerde(serde.INT64))
    rows = [
        (encode_key(vid), codec.dumps((rng.random(), list(range(vid % 5)))))
        for vid in range(400)
    ]
    blob = run_file.pack_pairs(iter(rows))
    assert blob == reference_bytes(tmp_path, rows)
    assert list(run_file.iter_pairs(blob)) == rows
