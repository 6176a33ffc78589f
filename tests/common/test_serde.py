"""Unit and property tests for the typed serialization layer."""

import pytest
from hypothesis import given, strategies as st

from repro.common import serde
from repro.common.errors import StorageError


class TestInt64:
    def test_roundtrip(self):
        for value in (0, 1, -1, 42, -(1 << 62), (1 << 62)):
            assert serde.INT64.loads(serde.INT64.dumps(value)) == value

    def test_fixed_size(self):
        assert len(serde.INT64.dumps(123456789)) == 8
        assert serde.INT64.sizeof(-5) == 8

    def test_encoding_preserves_order(self):
        values = [-(1 << 40), -17, -1, 0, 1, 9, 1 << 33]
        encoded = [serde.INT64.dumps(v) for v in values]
        assert encoded == sorted(encoded)

    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_roundtrip_property(self, value):
        assert serde.INT64.loads(serde.INT64.dumps(value)) == value

    @given(
        st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
        st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    )
    def test_order_property(self, a, b):
        assert (a < b) == (serde.INT64.dumps(a) < serde.INT64.dumps(b))


class TestScalars:
    def test_float_roundtrip(self):
        for value in (0.0, -1.5, 3.14159, float("inf")):
            assert serde.FLOAT64.loads(serde.FLOAT64.dumps(value)) == value

    def test_bool_roundtrip(self):
        assert serde.BOOL.loads(serde.BOOL.dumps(True)) is True
        assert serde.BOOL.loads(serde.BOOL.dumps(False)) is False

    def test_bool_is_one_byte(self):
        assert serde.BOOL.sizeof(True) == 1

    def test_string_roundtrip(self):
        assert serde.STRING.loads(serde.STRING.dumps("héllo")) == "héllo"

    def test_bytes_passthrough(self):
        assert serde.BYTES.loads(serde.BYTES.dumps(b"\x00\xff")) == b"\x00\xff"

    def test_null_serde(self):
        assert serde.NULL.dumps(None) == b""
        assert serde.NULL.loads(b"") is None
        assert serde.NULL.sizeof(None) == 0


class TestComposites:
    def test_optional(self):
        codec = serde.OptionalSerde(serde.FLOAT64)
        assert codec.loads(codec.dumps(None)) is None
        assert codec.loads(codec.dumps(2.5)) == 2.5

    def test_tuple_roundtrip(self):
        codec = serde.TupleSerde(serde.INT64, serde.BOOL, serde.STRING)
        value = (7, True, "x")
        assert codec.loads(codec.dumps(value)) == value

    def test_tuple_arity_mismatch(self):
        codec = serde.TupleSerde(serde.INT64, serde.BOOL)
        with pytest.raises(ValueError):
            codec.dumps((1, True, "extra"))

    def test_list_roundtrip(self):
        codec = serde.ListSerde(serde.INT64)
        assert codec.loads(codec.dumps([])) == []
        assert codec.loads(codec.dumps([3, 1, 2])) == [3, 1, 2]

    def test_nested_composite(self):
        edge = serde.PairSerde(serde.INT64, serde.FLOAT64)
        codec = serde.TupleSerde(serde.INT64, serde.ListSerde(edge))
        value = (1, [(2, 0.5), (3, 1.5)])
        assert codec.loads(codec.dumps(value)) == value

    @given(st.lists(st.integers(min_value=-(1 << 62), max_value=1 << 62)))
    def test_list_property(self, values):
        codec = serde.ListSerde(serde.INT64)
        assert codec.loads(codec.dumps(values)) == values


class TestKeyHelpers:
    def test_key_roundtrip(self):
        assert serde.decode_key(serde.encode_key(99)) == 99

    def test_key_order(self):
        assert serde.encode_key(-3) < serde.encode_key(10)

    @given(st.lists(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)))
    def test_batch_decode_is_decode_key_per_key(self, vids):
        keys = [serde.encode_key(vid) for vid in vids]
        decoded = serde.INT64.loads_many(keys)
        assert decoded == [serde.decode_key(key) for key in keys] == vids

    @given(
        st.lists(st.binary(min_size=8, max_size=8)),
        st.binary(max_size=20).filter(lambda key: len(key) != 8),
        st.lists(st.binary(min_size=8, max_size=8)),
    )
    def test_batch_decode_rejects_any_key_that_is_not_eight_bytes(
        self, before, bad, after
    ):
        with pytest.raises(StorageError):
            serde.INT64.loads_many(before + [bad] + after)

    def test_batch_decode_is_not_fooled_by_the_total_width(self):
        with pytest.raises(StorageError):
            serde.INT64.loads_many([b"1234567", b"123456789"])


LOADS_MANY = {
    "int": (serde.INT64, st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)),
    "float": (serde.FLOAT64, st.floats(allow_nan=False)),
    "bool": (serde.BOOL, st.booleans()),
    "text": (serde.STRING, st.text()),
    "pair": (serde.TupleSerde(serde.INT64, serde.FLOAT64),
             st.tuples(st.integers(-100, 100), st.floats(allow_nan=False))),
}


class TestLoadsMany:
    @pytest.mark.parametrize("kind", sorted(LOADS_MANY))
    @given(data=st.data())
    def test_is_loads_per_image(self, kind, data):
        codec, values = LOADS_MANY[kind]
        images = [codec.dumps(value) for value in data.draw(st.lists(values))]
        assert codec.loads_many(images) == [codec.loads(image) for image in images]

    @pytest.mark.parametrize("codec", [serde.FLOAT64, serde.BOOL], ids=["float", "bool"])
    def test_a_scalar_refuses_an_image_of_another_width(self, codec):
        good = codec.dumps(codec.loads(bytes(codec.fixed_size)))
        for bad in (b"", good + b"\x00", good[1:]):
            with pytest.raises(StorageError):
                codec.loads_many([good, bad, good])
