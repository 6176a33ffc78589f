"""Edge-list images read and built without an element per edge: the
count off the header, the targets off a packed image, lists joined
image to image, and the flat pair sequence of a packed (INT64, FLOAT64)
list."""

import random

import pytest

from repro.common import serde
from repro.common.errors import StorageError
from repro.pregelix.types import edge_list_serde

CODECS = {
    "flat": edge_list_serde(serde.FLOAT64),
    "packed ints": edge_list_serde(serde.INT64),
    "framed fixed": serde.ListSerde(serde.PairSerde(serde.INT64, serde.FLOAT64)),
    "framed variable": edge_list_serde(serde.STRING),
}
WEIGHTS = {
    "flat": lambda rng: rng.choice([-0.0, 1.5, float("inf"), 5e-324, rng.random()]),
    "packed ints": lambda rng: rng.randint(-(2 ** 63), 2 ** 63 - 1),
    "framed fixed": lambda rng: rng.random(),
    "framed variable": lambda rng: "w" * rng.randint(0, 3),
}


def random_edges(rng, name):
    return [
        (rng.randint(-(2 ** 63), 2 ** 63 - 1), WEIGHTS[name](rng))
        for _ in range(rng.randint(0, 12))
    ]


@pytest.mark.parametrize("name", sorted(CODECS))
def test_count_and_join(name):
    codec, rng = CODECS[name], random.Random(name)
    for _ in range(50):
        lists = [random_edges(rng, name) for _ in range(rng.randint(1, 4))]
        images = [codec.dumps(edges) for edges in lists]
        assert [codec.count(image) for image in images] == list(map(len, lists))
        assert serde.join_lists(images) == codec.dumps([e for edges in lists for e in edges])
    assert codec.flat == (name == "flat")


@pytest.mark.parametrize("name", ["flat", "packed ints", "framed fixed"])
def test_count_checks_the_image(name):
    codec = CODECS[name]
    image = codec.dumps([(1, WEIGHTS[name](random.Random(1)))] * 3)
    for damaged in (image[:-1], image + b"\x00", image[:2]):
        with pytest.raises(StorageError):
            codec.count(damaged)


def test_flat_pairs_are_the_pairs():
    codec, rng = CODECS["flat"], random.Random(7)
    for _ in range(200):
        edges = random_edges(rng, "flat")
        flat = [item for edge in edges for item in edge]
        image = codec.dumps(edges)
        assert codec.dumps_flat(flat) == image
        assert [repr(item) for item in codec.loads_flat(image)] == list(map(repr, flat))
    with pytest.raises(StorageError):
        codec.loads_flat(codec.dumps([(1, 1.0)])[:-1])


def test_only_int_float_pairs_are_flat():
    codec = CODECS["packed ints"]
    with pytest.raises(TypeError):
        codec.dumps_flat([1, 2])
    with pytest.raises(TypeError):
        codec.loads_flat(codec.dumps([]))


@pytest.mark.parametrize(
    "value", [serde.NULL, serde.BOOL, serde.FLOAT64, serde.INT64, serde.FixedBytesSerde(3)]
)
def test_firsts_are_the_targets(value):
    codec = serde.PackedListSerde(serde.FixedPairSerde(serde.INT64, value))
    rng = random.Random(value.fixed_size)
    weights = {
        serde.NULL: lambda: None,
        serde.BOOL: lambda: rng.random() < 0.5,
        serde.FLOAT64: rng.random,
        serde.INT64: lambda: rng.randint(-(2 ** 63), 2 ** 63 - 1),
    }.get(value, lambda: bytes(rng.randrange(256) for _ in range(3)))
    for _ in range(100):
        edges = [
            (rng.choice([0, -1, 2 ** 63 - 1, -(2 ** 63), rng.randint(-(2 ** 63), 2 ** 63 - 1)]),
             weights())
            for _ in range(rng.randint(0, 12))
        ]
        image = codec.dumps(edges)
        assert list(codec.firsts(image)) == [target for target, _ in edges]
    for damaged in (image[:-1], image + b"\x00", image[:2]):
        with pytest.raises(StorageError):
            codec.firsts(damaged)
    scalars = serde.PackedListSerde(serde.INT64)
    with pytest.raises(TypeError):
        scalars.firsts(scalars.dumps([1]))
