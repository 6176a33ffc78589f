"""Tests for the packed/fixed-size serde extensions."""

import pytest
from hypothesis import given, strategies as st

from repro.common import serde


class TestPackedListSerde:
    def codec(self):
        return serde.PackedListSerde(
            serde.FixedPairSerde(serde.INT64, serde.FLOAT64)
        )

    def test_roundtrip(self):
        codec = self.codec()
        value = [(1, 0.5), (2, 1.5), (3, -2.0)]
        assert codec.loads(codec.dumps(value)) == value

    def test_empty(self):
        codec = self.codec()
        assert codec.loads(codec.dumps([])) == []

    def test_sizeof_exact(self):
        codec = self.codec()
        value = [(1, 1.0)] * 7
        assert codec.sizeof(value) == 4 + 7 * 16
        assert len(codec.dumps(value)) == codec.sizeof(value)

    def test_variable_width_element_rejected(self):
        with pytest.raises(ValueError):
            serde.PackedListSerde(serde.STRING)
        with pytest.raises(ValueError):
            serde.FixedPairSerde(serde.INT64, serde.STRING)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-(1 << 62), max_value=1 << 62),
                st.floats(allow_nan=False, allow_infinity=True),
            ),
            max_size=50,
        )
    )
    def test_roundtrip_property(self, value):
        codec = self.codec()
        assert codec.loads(codec.dumps(value)) == value


class TestFixedPairSerde:
    def test_roundtrip_and_size(self):
        codec = serde.FixedPairSerde(serde.INT64, serde.FLOAT64)
        assert codec.fixed_size == 16
        assert codec.loads(codec.dumps((9, 2.5))) == (9, 2.5)
        assert codec.sizeof((9, 2.5)) == 16

    def test_mixed_widths(self):
        codec = serde.FixedPairSerde(serde.INT64, serde.BOOL)
        assert codec.fixed_size == 9
        assert codec.loads(codec.dumps((3, True))) == (3, True)


class TestOptionalPadding:
    def test_fixed_inner_pads_none(self):
        codec = serde.OptionalSerde(serde.FLOAT64)
        assert len(codec.dumps(None)) == len(codec.dumps(1.5)) == 9
        assert codec.loads(codec.dumps(None)) is None
        assert codec.sizeof(None) == codec.sizeof(2.0) == 9

    def test_variable_inner_stays_compact(self):
        codec = serde.OptionalSerde(serde.STRING)
        assert codec.dumps(None) == b"\x00"
        assert codec.loads(codec.dumps("hi")) == "hi"

    @given(st.one_of(st.none(), st.floats(allow_nan=False)))
    def test_roundtrip_property(self, value):
        codec = serde.OptionalSerde(serde.FLOAT64)
        assert codec.loads(codec.dumps(value)) == value


class TestFixedSizeMarkers:
    def test_scalar_serdes_declare_fixed_size(self):
        assert serde.INT64.fixed_size == 8
        assert serde.FLOAT64.fixed_size == 8
        assert serde.BOOL.fixed_size == 1
        assert serde.STRING.fixed_size is None
        assert serde.TupleSerde(serde.INT64, serde.FLOAT64).fixed_size == 24
        assert serde.TupleSerde(serde.INT64, serde.STRING).fixed_size is None

    def test_vertex_serde_uses_packing_for_fixed_edges(self):
        from repro.pregelix.types import vertex_value_serde

        packed = vertex_value_serde(serde.FLOAT64, serde.FLOAT64)
        unpacked = vertex_value_serde(serde.FLOAT64, serde.STRING)
        edges_fixed = [(i, 1.0) for i in range(20)]
        edges_var = [(i, "w") for i in range(20)]
        packed_bytes = len(packed.dumps((False, 1.0, edges_fixed)))
        unpacked_bytes = len(unpacked.dumps((False, 1.0, edges_var)))
        # Packing saves the per-element framing: ~16B/edge vs ~25B+.
        assert packed_bytes < unpacked_bytes
        assert packed.loads(packed.dumps((False, 1.0, edges_fixed)))[2] == edges_fixed
