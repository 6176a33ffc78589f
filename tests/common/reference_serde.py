"""The field-at-a-time encoder ``repro.common.serde`` had before its
codecs were compiled (PR 15), kept verbatim as the reference the compiled
codecs are compared against byte for byte: every page, run file and
checkpoint written so far holds these bytes. Not used by ``src/``.
"""

import struct

_I64 = struct.Struct(">q")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")

#: Bias added to signed 64-bit keys so the big-endian byte order of the
#: encoding matches numeric order (needed for B-tree key comparisons).
_SIGN_BIAS = 1 << 63


class Serde:
    """Codec interface: ``dumps`` a value to bytes, ``loads`` it back."""

    def dumps(self, value):
        raise NotImplementedError

    def loads(self, data):
        raise NotImplementedError

    def sizeof(self, value):
        """Serialized size in bytes (used by memory accounting)."""
        return len(self.dumps(value))


class Int64Serde(Serde):
    """Signed 64-bit integers, order-preserving big-endian encoding."""

    fixed_size = 8

    def dumps(self, value):
        return _U64.pack(value + _SIGN_BIAS)

    def loads(self, data):
        return _U64.unpack(data)[0] - _SIGN_BIAS

    def sizeof(self, value):
        return 8


class Float64Serde(Serde):
    """IEEE-754 doubles."""

    fixed_size = 8

    def dumps(self, value):
        return _F64.pack(value)

    def loads(self, data):
        return _F64.unpack(data)[0]

    def sizeof(self, value):
        return 8


class BoolSerde(Serde):
    """Single-byte booleans."""

    fixed_size = 1

    def dumps(self, value):
        return b"\x01" if value else b"\x00"

    def loads(self, data):
        return data != b"\x00"

    def sizeof(self, value):
        return 1


class StringSerde(Serde):
    """UTF-8 strings (no prefix; composites add their own framing)."""

    def dumps(self, value):
        return value.encode("utf-8")

    def loads(self, data):
        return bytes(data).decode("utf-8")


class BytesSerde(Serde):
    """Raw byte strings, passed through untouched."""

    def dumps(self, value):
        return bytes(value)

    def loads(self, data):
        return bytes(data)

    def sizeof(self, value):
        return len(value)


class NullSerde(Serde):
    """Zero-byte codec for fields that are always ``None``."""

    def dumps(self, value):
        return b""

    def loads(self, data):
        return None

    def sizeof(self, value):
        return 0


class OptionalSerde(Serde):
    """Wraps another serde, spending one byte on a null flag.

    When the inner type is fixed-size, NULLs are padded to the same
    width, so a vertex value flipping from NULL to a real value (every
    algorithm's superstep 1) does not change the record size — which
    would otherwise force a page split for every vertex in the index.
    """

    def __init__(self, inner):
        self.inner = inner
        self._pad = getattr(inner, "fixed_size", None)

    def dumps(self, value):
        if value is None:
            if self._pad is not None:
                return b"\x00" * (1 + self._pad)
            return b"\x00"
        return b"\x01" + self.inner.dumps(value)

    def loads(self, data):
        if data[:1] == b"\x00":
            return None
        return self.inner.loads(data[1:])

    def sizeof(self, value):
        if self._pad is not None:
            return 1 + self._pad
        return len(self.dumps(value))


class TupleSerde(Serde):
    """Fixed-arity heterogeneous tuples; each field is length-prefixed."""

    def __init__(self, *field_serdes):
        self.field_serdes = field_serdes

    def dumps(self, value):
        if len(value) != len(self.field_serdes):
            raise ValueError(
                "expected %d fields, got %d" % (len(self.field_serdes), len(value))
            )
        parts = []
        for serde, field in zip(self.field_serdes, value):
            encoded = serde.dumps(field)
            parts.append(_U32.pack(len(encoded)))
            parts.append(encoded)
        return b"".join(parts)

    def loads(self, data):
        view = memoryview(data)
        fields = []
        offset = 0
        for serde in self.field_serdes:
            (length,) = _U32.unpack_from(view, offset)
            offset += 4
            fields.append(serde.loads(bytes(view[offset : offset + length])))
            offset += length
        return tuple(fields)


class PackedListSerde(Serde):
    """Homogeneous lists of *fixed-size* elements, packed back to back.

    Skips the per-element length prefixes of :class:`ListSerde`: the
    layout is a 4-byte count followed by ``count * element_size`` bytes.
    This matters for vertex rows, where the edge list dominates the
    serialized footprint.
    """

    def __init__(self, element_serde, element_size):
        self.element_serde = element_serde
        self.element_size = int(element_size)

    def dumps(self, value):
        parts = [_U32.pack(len(value))]
        for element in value:
            encoded = self.element_serde.dumps(element)
            if len(encoded) != self.element_size:
                raise ValueError(
                    "packed list element encoded to %d bytes, expected %d"
                    % (len(encoded), self.element_size)
                )
            parts.append(encoded)
        return b"".join(parts)

    def loads(self, data):
        view = memoryview(data)
        (count,) = _U32.unpack_from(view, 0)
        size = self.element_size
        elements = []
        offset = 4
        for _ in range(count):
            elements.append(self.element_serde.loads(bytes(view[offset : offset + size])))
            offset += size
        return elements

    def sizeof(self, value):
        return 4 + len(value) * self.element_size


class FixedPairSerde(Serde):
    """A two-field tuple of fixed-size fields, with no framing at all."""

    def __init__(self, first, second, first_size, second_size):
        self.first = first
        self.second = second
        self.first_size = int(first_size)
        self.second_size = int(second_size)

    @property
    def fixed_size(self):
        return self.first_size + self.second_size

    def dumps(self, value):
        a, b = value
        return self.first.dumps(a) + self.second.dumps(b)

    def loads(self, data):
        return (
            self.first.loads(data[: self.first_size]),
            self.second.loads(data[self.first_size :]),
        )

    def sizeof(self, value):
        return self.fixed_size


class ListSerde(Serde):
    """Homogeneous lists; count-prefixed, each element length-prefixed."""

    def __init__(self, element_serde):
        self.element_serde = element_serde

    def dumps(self, value):
        parts = [_U32.pack(len(value))]
        for element in value:
            encoded = self.element_serde.dumps(element)
            parts.append(_U32.pack(len(encoded)))
            parts.append(encoded)
        return b"".join(parts)

    def loads(self, data):
        view = memoryview(data)
        (count,) = _U32.unpack_from(view, 0)
        offset = 4
        elements = []
        for _ in range(count):
            (length,) = _U32.unpack_from(view, offset)
            offset += 4
            elements.append(self.element_serde.loads(bytes(view[offset : offset + length])))
            offset += length
        return elements


class PairSerde(TupleSerde):
    """Two-field tuple, a common shape for (vid, weight) edges."""

    def __init__(self, first, second):
        super().__init__(first, second)


INT64 = Int64Serde()
FLOAT64 = Float64Serde()
BOOL = BoolSerde()
STRING = StringSerde()
BYTES = BytesSerde()
NULL = NullSerde()
