"""Seeded random round-trip tests for the serialization layer.

Complements the hypothesis suites with explicit ``random.Random(seed)``
generation: the exact byte streams exercised are reproducible from the
seed alone (the same property the chaos harness relies on), and the
generator is shaped like real Pregelix data — vertex ids, optional
float/int values, and edge lists including empty ones — plus the
boundary-length payloads the fuzzers tend to find last.
"""

import math
import random

import pytest

from repro.common import serde

SEEDS = [0, 7, 1234, 987654321]

#: The wire shape of a vertex record: (vid, optional value, edge list).
VERTEX_CODEC = serde.TupleSerde(
    serde.INT64,
    serde.OptionalSerde(serde.FLOAT64),
    serde.ListSerde(serde.PairSerde(serde.INT64, serde.FLOAT64)),
)

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def random_vid(rng):
    # Mix small dense ids (the common case) with full-range boundary ids.
    if rng.random() < 0.8:
        return rng.randrange(0, 1 << 20)
    return rng.choice([0, 1, -1, INT64_MIN, INT64_MAX, rng.randrange(INT64_MIN, INT64_MAX)])


def random_value(rng):
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.3:
        return rng.choice([0.0, -0.0, math.inf, -math.inf, 1e-308, 1e308])
    return rng.uniform(-1e6, 1e6)


def random_edges(rng, max_degree=40):
    # Degree 0 (an empty edge list) must stay a first-class citizen.
    degree = rng.choice([0, 0, 1, rng.randrange(0, max_degree)])
    return [(random_vid(rng), rng.uniform(0.0, 100.0)) for _ in range(degree)]


@pytest.mark.parametrize("seed", SEEDS)
def test_vertex_record_roundtrip(seed):
    rng = random.Random(seed)
    for _ in range(200):
        record = (random_vid(rng), random_value(rng), random_edges(rng))
        blob = VERTEX_CODEC.dumps(record)
        assert VERTEX_CODEC.loads(blob) == record
        assert VERTEX_CODEC.sizeof(record) == len(blob)


@pytest.mark.parametrize("seed", SEEDS)
def test_vid_roundtrip_and_order(seed):
    rng = random.Random(seed)
    vids = [random_vid(rng) for _ in range(500)]
    encoded = [serde.INT64.dumps(v) for v in vids]
    for vid, blob in zip(vids, encoded):
        assert serde.INT64.loads(blob) == vid
        assert len(blob) == 8
    # Byte order must agree with numeric order (index keys rely on it).
    paired = sorted(zip(vids, encoded))
    assert [blob for _v, blob in paired] == sorted(encoded)


@pytest.mark.parametrize("seed", SEEDS)
def test_float_value_roundtrip(seed):
    rng = random.Random(seed)
    for _ in range(500):
        value = random_value(rng)
        codec = serde.OptionalSerde(serde.FLOAT64)
        loaded = codec.loads(codec.dumps(value))
        if value is None:
            assert loaded is None
        else:
            assert loaded == value and math.copysign(1, loaded) == math.copysign(1, value)


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_list_roundtrip_including_empty(seed):
    rng = random.Random(seed)
    codec = serde.ListSerde(serde.PairSerde(serde.INT64, serde.FLOAT64))
    saw_empty = False
    for _ in range(200):
        edges = random_edges(rng)
        saw_empty = saw_empty or not edges
        assert codec.loads(codec.dumps(edges)) == edges
    assert saw_empty, "generator never produced an empty edge list"
    assert codec.loads(codec.dumps([])) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_string_and_bytes_boundary_lengths(seed):
    rng = random.Random(seed)
    # Explicit boundaries around typical length-prefix/page granularities.
    lengths = [0, 1, 2, 255, 256, 257, 4095, 4096, 4097]
    lengths += [rng.randrange(0, 1 << 14) for _ in range(20)]
    for length in lengths:
        payload = bytes(rng.getrandbits(8) for _ in range(length))
        assert serde.BYTES.loads(serde.BYTES.dumps(payload)) == payload
        text = "".join(rng.choice("aé☃z0 ") for _ in range(length))
        assert serde.STRING.loads(serde.STRING.dumps(text)) == text


@pytest.mark.parametrize("seed", SEEDS)
def test_packed_edge_list_roundtrip(seed):
    rng = random.Random(seed)
    codec = serde.PackedListSerde(
        serde.FixedPairSerde(serde.INT64, serde.FLOAT64)
    )
    for _ in range(100):
        degree = rng.choice([0, 1, rng.randrange(0, 64)])
        edges = [
            (rng.randrange(INT64_MIN, INT64_MAX), rng.uniform(-1e9, 1e9))
            for _ in range(degree)
        ]
        blob = codec.dumps(edges)
        assert codec.loads(blob) == edges
        assert len(blob) == codec.sizeof(edges)


def test_same_seed_generates_same_stream():
    """The generator itself must be replayable — one seed, one dataset."""

    def dataset(seed):
        rng = random.Random(seed)
        return [
            (random_vid(rng), random_value(rng), random_edges(rng))
            for _ in range(50)
        ]

    assert dataset(42) == dataset(42)
    assert dataset(42) != dataset(43)
