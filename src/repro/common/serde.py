"""Typed serialization (the analog of Hadoop/Pregelix ``Writable`` types).

Every tuple that crosses a connector, lands in a B-tree page, or is
checkpointed to the simulated HDFS is serialized with one of these codecs.
That keeps the byte accounting honest: memory budgets, spill volumes, and
network counters all measure real serialized sizes rather than Python
object guesses.

A serde converts a single value to ``bytes`` and back:

    >>> INT64.loads(INT64.dumps(42))
    42

Layout (frozen: pages, run files and checkpoints hold these bytes).
:class:`TupleSerde` writes every field behind a big-endian ``>I`` length,
:class:`ListSerde` a ``>I`` count and then every element behind its
length, :class:`PackedListSerde` a count and then bare fixed-width
elements, :class:`FixedPairSerde` two bare fields, :class:`ArraySerde`
a fixed number of bare fixed-width elements, :class:`OptionalSerde` a
flag byte and then the value.

How the bytes are produced is decided once, at construction, from the
``fixed_size`` of the parts. A run of fixed-width parts, together with
the length prefixes around it, is one :class:`struct.Struct` — the
prefixes are constants among its arguments — so ``TupleSerde(INT64,
FLOAT64)`` is one ``pack(8, vid + bias, 8, x)`` and one ``unpack``; only
variable-width parts are encoded by their own serde, and decoded from a
``memoryview`` slice with no copy. ``sizeof`` is arithmetic throughout
and always equals ``len(dumps(value))``.

Every composite ``loads`` accounts for every byte it was given: a length
that overruns the buffer, a count that does not match it, a prefix of a
fixed-width field that is not that width, or bytes left over raise
:class:`~repro.common.errors.StorageError`.
"""

import functools
import itertools
import operator
import struct

from repro.common.errors import StorageError

_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")

#: Bias added to signed 64-bit keys so the big-endian byte order of the
#: encoding matches numeric order (needed for B-tree key comparisons).
_SIGN_BIAS = 1 << 63

#: ``bytes.translate`` table flipping the top bit of a byte: what turns
#: the leading byte of a big-endian two's-complement INT64 into (and
#: back from) that of its biased image.
_FLIP_SIGN = bytes(byte ^ 0x80 for byte in range(256))


class Serde:
    """Codec interface: ``dumps`` a value to bytes, ``loads`` it back."""

    #: Encoded width in bytes when every value has the same one.
    fixed_size = None

    #: Layout rule, frozen with the formats: :class:`OptionalSerde` pads
    #: NULL to full width, and vertex rows pack their edge list, only over
    #: the codecs that declared a width when those layouts were set
    #: (INT64, FLOAT64, BOOL, :class:`FixedPairSerde`), and
    #: :class:`ArraySerde`, which came later. ``fixed_size`` has since
    #: been stated by every codec; widening this rule with it would
    #: change stored bytes.
    layout_fixed = False

    def dumps(self, value):
        raise NotImplementedError

    def loads(self, data):
        raise NotImplementedError

    def dumps_many(self, values):
        """``dumps`` over a batch of values: an iterator of images."""
        return map(self.dumps, values)

    def loads_many(self, images):
        """``loads`` over a batch (a sequence) of images: a list."""
        return list(map(self.loads, images))

    def sizeof(self, value):
        """Serialized size in bytes, computed without encoding (used by
        memory and network accounting)."""
        raise NotImplementedError

    def sizeof_many(self, items):
        """Total serialized size of a batch (a list) of values."""
        if self.fixed_size is not None:
            return self.fixed_size * len(items)
        return sum(map(self.sizeof, items))

    # Fixed-width codecs describe their image to the composites that
    # compile them into a larger struct (see _compile).
    def _pack_fields(self, expr, shape):
        """``[(struct code, argument source)]`` encoding the value that
        the source expression ``expr`` evaluates to; an object the
        source calls is bound through ``shape``."""
        raise NotImplementedError

    def _unpack_expr(self, shape):
        """Source expression rebuilding the value from the unpacked
        names it takes, in order, from ``shape``."""
        raise NotImplementedError


class Int64Serde(Serde):
    """Signed 64-bit integers, order-preserving big-endian encoding."""

    fixed_size = 8
    layout_fixed = True

    def dumps(self, value):
        return _U64.pack(value + _SIGN_BIAS)

    def dumps_many(self, values):
        return map(_U64.pack, map(operator.add, values, itertools.repeat(_SIGN_BIAS)))

    def loads(self, data):
        return _U64.unpack(data)[0] - _SIGN_BIAS

    def loads_many(self, images):
        return [value - _SIGN_BIAS for value in _unpack_many("Q", 8, images)]

    def sizeof(self, value):
        return 8

    def _pack_fields(self, expr, shape):
        return [("Q", "%s + %d" % (expr, _SIGN_BIAS))]

    def _unpack_expr(self, shape):
        return "%s - %d" % (shape.take(), _SIGN_BIAS)


class Float64Serde(Serde):
    """IEEE-754 doubles."""

    fixed_size = 8
    layout_fixed = True

    def dumps(self, value):
        return _F64.pack(value)

    def dumps_many(self, values):
        return map(_F64.pack, values)

    def loads(self, data):
        return _F64.unpack(data)[0]

    def loads_many(self, images):
        return list(_unpack_many("d", 8, images))

    def sizeof(self, value):
        return 8

    def _pack_fields(self, expr, shape):
        return [("d", expr)]

    def _unpack_expr(self, shape):
        return shape.take()


class BoolSerde(Serde):
    """Single-byte booleans."""

    fixed_size = 1
    layout_fixed = True

    def dumps(self, value):
        return b"\x01" if value else b"\x00"

    def loads(self, data):
        if len(data) != 1:
            _corrupt("boolean of %d bytes" % len(data))
        return data != b"\x00"

    def loads_many(self, images):
        return list(_unpack_many("?", 1, images))

    def sizeof(self, value):
        return 1

    def _pack_fields(self, expr, shape):
        return [("?", expr)]

    def _unpack_expr(self, shape):
        return shape.take()


class UInt8Serde(Serde):
    """Unsigned integers below 256 in one byte (small tags)."""

    fixed_size = 1

    def dumps(self, value):
        return bytes((value,))

    def loads(self, data):
        if len(data) != 1:
            _corrupt("byte of %d bytes" % len(data))
        return data[0]

    def sizeof(self, value):
        return 1

    def _pack_fields(self, expr, shape):
        return [("B", expr)]

    def _unpack_expr(self, shape):
        return shape.take()


class StringSerde(Serde):
    """UTF-8 strings (no prefix; composites add their own framing)."""

    def dumps(self, value):
        return value.encode("utf-8")

    def loads(self, data):
        return str(data, "utf-8")

    def sizeof(self, value):
        # The one codec that cannot size without encoding: the UTF-8
        # width of a character is not a function of the string's length.
        return len(value.encode("utf-8"))


class BytesSerde(Serde):
    """Raw byte strings, passed through untouched."""

    def dumps(self, value):
        return bytes(value)

    def loads(self, data):
        return bytes(data)

    def sizeof(self, value):
        return len(value)


class FixedBytesSerde(Serde):
    """Raw byte strings of one known width (index keys)."""

    def __init__(self, width):
        self.fixed_size = int(width)

    def dumps(self, value):
        if len(value) != self.fixed_size:
            _bad_width(value, self.fixed_size)
        return bytes(value)

    def loads(self, data):
        if len(data) != self.fixed_size:
            _corrupt("%d bytes where %d were expected" % (len(data), self.fixed_size))
        return bytes(data)

    def sizeof(self, value):
        return self.fixed_size

    def _pack_fields(self, expr, shape):
        # struct's "Ns" pads or cuts silently; a key of the wrong width
        # must not be stored as a different key.
        width = self.fixed_size
        return [(
            "%ds" % width,
            "(%s if len(%s) == %d else bad_width(%s, %d))"
            % (expr, expr, width, expr, width),
        )]

    def _unpack_expr(self, shape):
        return shape.take()


class NullSerde(Serde):
    """Zero-byte codec for fields that are always ``None``."""

    fixed_size = 0

    def dumps(self, value):
        return b""

    def loads(self, data):
        if len(data):
            _corrupt("%d bytes where a NULL was expected" % len(data))
        return None

    def sizeof(self, value):
        return 0

    def _pack_fields(self, expr, shape):
        return []

    def _unpack_expr(self, shape):
        return "None"


# ----------------------------------------------------------------------
# compiling a shape
# ----------------------------------------------------------------------
def _corrupt(what):
    raise StorageError("damaged serialized value: %s" % what)


def _unpack_many(code, width, images):
    """One ``unpack`` over the joined images of a scalar of one struct
    ``code``, ``width`` bytes wide. Every image must be exactly that wide:
    a 7-byte image next to a 9-byte one must not decode as two others."""
    odd_widths = set(map(len, images)) - {width}
    if odd_widths:
        _corrupt("a value of %d bytes where %d were expected" % (min(odd_widths), width))
    return struct.unpack(">%d%s" % (len(images), code), b"".join(images))


def _bad_arity(value, expected):
    raise ValueError("expected %d fields, got %d" % (expected, len(value)))


def _bad_width(value, expected):
    raise ValueError(
        "expected a %d-byte string, got %d bytes" % (expected, len(value))
    )


def _guarded(expr, arity):
    """Source for ``expr`` that raises unless it has ``arity`` items."""
    return "(%s if len(%s) == %d else bad_arity(%s, %d))" % (
        expr, expr, arity, expr, arity
    )


#: What packs to all-zero bytes, per struct code (NULL padding).
_ZEROS = {"Q": "0", "I": "0", "B": "0", "d": "0.0", "?": "False", "s": 'b""'}


def _indent(lines):
    return ["    " + line for line in lines]


class _Shape:
    """The names the source of one compiled codec refers to."""

    def __init__(self):
        self.bound = []    # objects the code calls: b0, b1, ...
        self.formats = []  # struct formats: t0, t1, ...
        self.taken = 0     # unpacked values: v1, v2, ...
        self.checks = []   # conditions every undamaged image satisfies

    def bind(self, obj):
        self.bound.append(obj)
        return "b%d" % (len(self.bound) - 1)

    def struct(self, codes):
        self.formats.append(">" + "".join(codes))
        return "t%d" % (len(self.formats) - 1)

    def take(self):
        self.taken += 1
        return "v%d" % self.taken

    def taken_since(self, mark):
        return ["v%d" % i for i in range(mark + 1, self.taken + 1)]

    def build(self, functions, names=("dumps", "loads", "sizeof")):
        """The functions ``names`` that the lines of ``functions`` define."""
        lines = ["t%d = Struct(%r)" % item for item in enumerate(self.formats)]
        lines.append(
            "def build(%s):" % ", ".join("b%d" % i for i in range(len(self.bound)))
        )
        lines += _indent(functions + ["return " + ", ".join(names)])
        return _builder("\n".join(lines))(*self.bound)


@functools.lru_cache(maxsize=512)
def _builder(source):
    """The ``build`` function that ``source`` defines. Plans construct the
    same few shapes again every superstep; the source *is* the shape (the
    sub-codecs it calls are arguments of ``build``), so each shape is
    compiled once."""
    namespace = {
        "Struct": struct.Struct,
        "pack_count": _U32.pack,
        "unpack_count": _U32.unpack_from,
        "new_tuple": tuple.__new__,
        "struct_error": struct.error,
        "corrupt": _corrupt,
        "bad_arity": _bad_arity,
        "bad_width": _bad_width,
    }
    exec(source, namespace)
    return namespace["build"]


def _compile(parts, result, arity=None):
    """``(dumps, loads, sizeof, fixed_size, dumps_many, loads_many)`` for a
    sequence of parts; the batch forms run the same statements per item
    inside one frame, with the same checks and errors.

    A part is ``("prefix", width)`` — the ``>I`` length in front of a
    fixed-width field, a constant —, ``("fixed", serde, expr)`` — a
    fixed-width codec packed in line from ``expr``, the source expression
    of its value — or ``("variable", serde, expr)`` — a length and then
    whatever ``serde.dumps`` gives (``bytes(...)`` in line for a
    :class:`BytesSerde`, both ways). Prefixes and fixed parts that touch
    form one struct. ``result`` is a ``%`` template over the decoded
    fixed and variable parts; ``arity`` is the length ``value`` must have.
    """
    shape = _Shape()
    variable = any(kind == "variable" for kind, *_ in parts)
    encode = []    # statements of dumps before its return
    pieces = []    # the bytes-valued expressions it concatenates
    walk = []      # statements of loads that consume the buffer
    decoded = []   # source of each decoded part
    sizes = []     # terms of sizeof
    run = []       # (code, argument) of the struct being collected
    names = []     # what unpacking it binds

    def close_run():
        codes = [code for code, _ in run]
        packer = shape.struct(codes)
        width = struct.calcsize(">" + "".join(codes))
        pieces.append("%s.pack(%s)" % (packer, ", ".join(arg for _, arg in run)))
        if variable:
            walk.append("%s, = %s.unpack_from(view, off)" % (", ".join(names), packer))
            walk.append("off += %d" % width)
        else:
            walk.append("%s, = %s.unpack(data)" % (", ".join(names), packer))
        sizes.append(str(width))
        del run[:], names[:]

    for kind, *rest in parts:
        mark = shape.taken
        if kind == "prefix":
            (width,) = rest
            run.append(("I", str(width)))
            shape.checks.append("%s == %d" % (shape.take(), width))
        elif kind == "fixed":
            serde, expr = rest
            run.extend(serde._pack_fields(expr, shape))
            decoded.append(serde._unpack_expr(shape))
        else:
            serde, expr = rest
            index, length = len(decoded), shape.take()
            if type(serde) is BytesSerde:
                dump, load, size = "bytes(%s)", "bytes(%s)", "len(%s)"
            else:
                codec = shape.bind(serde)
                dump, load, size = (codec + call for call in (
                    ".dumps(%s)", ".loads(%s)", ".sizeof(%s)"
                ))
            encode.append("e%d = %s" % (index, dump % expr))
            run.append(("I", "len(e%d)" % index))
            names.append(length)
            close_run()
            pieces.append("e%d" % index)
            walk += [
                "end = off + %s" % length,
                "if end > size:",
                "    corrupt('a length of %%d overruns the buffer' %% %s)" % length,
                "r%d = %s" % (index, load % "view[off:end]"),
                "off = end",
            ]
            decoded.append("r%d" % index)
            sizes.append(size % expr)
            continue
        names.extend(shape.taken_since(mark))
    if run:
        close_run()

    check = []
    if arity is not None:
        check = ["if len(value) != %d:" % arity, "    bad_arity(value, %d)" % arity]
    if len(pieces) == 1:
        image = pieces[0]
    else:
        image = 'b"".join((%s))' % "".join(p + ", " for p in pieces)
    dumps = ["def dumps(value):"] + _indent(check + encode + ["return " + image])
    dumps_many = [
        "def dumps_many(values):",
        "    images = []",
        "    for value in values:",
    ] + _indent(_indent(check + encode + ["images.append(%s)" % image])) + [
        "    return images",
    ]

    opening = []  # what loads does to ``data`` before its walk
    checks = list(shape.checks)
    if variable:
        opening = ["view = memoryview(data)", "size = len(view)", "off = 0"]
        checks.insert(0, "off == size")
    if not walk:
        checks.insert(0, "not len(data)")
    closing = []
    if checks:
        closing = [
            "if not (%s):" % " and ".join(checks),
            "    corrupt('framing does not add up to the %d bytes given' % len(data))",
        ]
    value = result % tuple(decoded)
    loads = ["def loads(data):"] + _indent(opening)
    if walk:
        loads += ["    try:"] + _indent(_indent(walk))
        loads += ["    except struct_error as exc:", "        corrupt(exc)"]
    loads += _indent(closing + ["return " + value])
    loads_many = [
        "def loads_many(images):",
        "    values = []",
        "    try:",
        "        for data in images:",
    ] + _indent(_indent(_indent(opening + walk + closing + ["values.append(%s)" % value]))) + [
        "    except struct_error as exc:",
        "        corrupt(exc)",
        "    return values",
    ]

    sizeof = ["def sizeof(value):", "    return " + (" + ".join(sizes) or "0")]
    fixed_size = None if variable else sum(int(term) for term in sizes)
    dumps, loads, sizeof, dumps_many, loads_many = shape.build(
        dumps + loads + sizeof + dumps_many + loads_many,
        ("dumps", "loads", "sizeof", "dumps_many", "loads_many"),
    )
    return dumps, loads, sizeof, fixed_size, dumps_many, loads_many


def _compile_repeated(element, framed):
    """``(dumps, loads, sizeof, None)`` for a ``>I`` count and then that
    many records of one fixed-width ``element`` codec, each behind its
    (constant) length when ``framed``: one ``pack`` per record, one
    ``iter_unpack`` per list.
    """
    shape = _Shape()
    fields = element._pack_fields("e", shape)
    if framed:
        fields.insert(0, ("I", str(element.fixed_size)))
        shape.checks.append("%s == %d" % (shape.take(), element.fixed_size))
    rebuilt = element._unpack_expr(shape)
    record = shape.struct(code for code, _ in fields)
    width = struct.calcsize(shape.formats[-1])
    if not width:
        raise ValueError("a packed list needs elements wider than 0 bytes")
    if shape.checks:
        rebuilt = "%s if %s else corrupt('an element length')" % (
            rebuilt, " and ".join(shape.checks)
        )
    return shape.build([
        "def dumps(value):",
        "    return pack_count(len(value)) + b''.join([",
        "        %s.pack(%s) for e in value])" % (record, ", ".join(a for _, a in fields)),
        "def loads(data):",
        "    view = memoryview(data)",
        "    try:",
        "        count, = unpack_count(view, 0)",
        "        if 4 + %d * count != len(view):" % width,
        "            corrupt('a count of %d does not match %d bytes' % (count, len(view)))",
        "        return [%s for %s, in %s.iter_unpack(view[4:])]"
        % (rebuilt, ", ".join(shape.taken_since(0)), record),
        "    except struct_error as exc:",
        "        corrupt(exc)",
        "def sizeof(value):",
        "    return 4 + %d * len(value)" % width,
    ]) + (None,)


def _framed_list(element):
    """The same layout as ``_compile_repeated(element, framed=True)`` for
    a variable-width ``element`` codec: element by element."""

    def dumps(value):
        parts = [_U32.pack(len(value))]
        for item in value:
            encoded = element.dumps(item)
            parts.append(_U32.pack(len(encoded)))
            parts.append(encoded)
        return b"".join(parts)

    def loads(data):
        view = memoryview(data)
        size = len(view)
        items = []
        try:
            (count,) = _U32.unpack_from(view, 0)
            offset = 4
            for _ in range(count):
                (length,) = _U32.unpack_from(view, offset)
                offset += 4
                if offset + length > size:
                    _corrupt("a length of %d overruns the buffer" % length)
                items.append(element.loads(view[offset : offset + length]))
                offset += length
        except struct.error as exc:
            _corrupt(exc)
        if offset != size:
            _corrupt("%d bytes after the last element" % (size - offset))
        return items

    def sizeof(value):
        return 4 + 4 * len(value) + element.sizeof_many(value)

    return dumps, loads, sizeof, None


def _flagged(inner):
    """A flag byte, then the ``inner`` codec's bytes unless NULL."""

    def dumps(value):
        if value is None:
            return b"\x00"
        return b"\x01" + inner.dumps(value)

    def loads(data):
        view = memoryview(data)
        if len(view) and view[0]:
            return inner.loads(view[1:])
        if len(view) != 1:
            _corrupt("NULL flag in a value of %d bytes" % len(view))
        return None

    def sizeof(value):
        return 1 if value is None else 1 + inner.sizeof(value)

    return dumps, loads, sizeof, None


# ----------------------------------------------------------------------
# composites
# ----------------------------------------------------------------------
class _Composite(Serde):
    """A codec whose shape was compiled when it was constructed.

    ``dumps``/``loads``/``sizeof`` stay ordinary class attributes (that
    is where instrumentation wraps them); the compiled functions sit
    behind them. A shape :func:`_compile` built also has its batch forms,
    and they *are* the instance's ``dumps_many``/``loads_many``: one frame
    per batch.
    """

    def _adopt(self, compiled):
        self._dumps, self._loads, self._sizeof, self.fixed_size = compiled[:4]
        if len(compiled) > 4:
            self.dumps_many, self.loads_many = compiled[4:]

    def dumps(self, value):
        return self._dumps(value)

    def loads(self, data):
        return self._loads(data)

    def sizeof(self, value):
        return self._sizeof(value)


class OptionalSerde(_Composite):
    """Wraps another serde, spending one byte on a null flag.

    When the inner type is one of the ``layout_fixed`` codecs, NULLs are
    padded to the same width, so a vertex value flipping from NULL to a
    real value (every algorithm's superstep 1) does not change the record
    size — which would otherwise force a page split for every vertex in
    the index.
    """

    def __init__(self, inner):
        self.inner = inner
        if inner.layout_fixed:
            self._adopt(_compile([("fixed", self, "value")], "%s"))
        else:
            self._adopt(_flagged(inner))

    def _pack_fields(self, expr, shape):
        present = "%s is not None" % expr
        return [("?", present)] + [
            (code, "(%s if %s else %s)" % (arg, present, _ZEROS[code[-1]]))
            for code, arg in self.inner._pack_fields(expr, shape)
        ]

    def _unpack_expr(self, shape):
        flag = shape.take()
        mark = len(shape.checks)
        inner = self.inner._unpack_expr(shape)
        # Under a NULL the padding is zeros, whatever the inner framing.
        shape.checks[mark:] = [
            "(not %s or %s)" % (flag, check) for check in shape.checks[mark:]
        ]
        return "(%s if %s else None)" % (inner, flag)


class TupleSerde(_Composite):
    """Fixed-arity heterogeneous tuples; each field behind its length."""

    def __init__(self, *field_serdes):
        self.field_serdes = field_serdes
        parts = []
        for index, field in enumerate(field_serdes):
            item = "value[%d]" % index
            if field.fixed_size is None:
                parts.append(("variable", field, item))
            else:
                parts += [("prefix", field.fixed_size), ("fixed", field, item)]
        result = "(%s)" % ("%s, " * len(field_serdes))
        self._adopt(_compile(parts, result, arity=len(field_serdes)))

    def _pack_fields(self, expr, shape):
        fields = []
        item = _guarded(expr, len(self.field_serdes)) + "[%d]"
        for index, field in enumerate(self.field_serdes):
            fields.append(("I", str(field.fixed_size)))
            fields.extend(field._pack_fields(item % index, shape))
            item = expr + "[%d]"
        return fields

    def _unpack_expr(self, shape):
        items = []
        for field in self.field_serdes:
            shape.checks.append("%s == %d" % (shape.take(), field.fixed_size))
            items.append(field._unpack_expr(shape) + ", ")
        return "(%s)" % "".join(items)


class FixedPairSerde(_Composite):
    """A two-field tuple of fixed-width fields, with no framing at all.

    :param pair_type: the ``tuple`` subclass (e.g. a namedtuple) that
        ``loads`` returns.
    """

    layout_fixed = True

    def __init__(self, first, second, pair_type=tuple):
        if first.fixed_size is None or second.fixed_size is None:
            raise ValueError("a fixed pair needs two fixed-width codecs")
        self.first = first
        self.second = second
        self.pair_type = pair_type
        self._adopt(_compile([("fixed", self, "value")], "%s"))

    def _pack_fields(self, expr, shape):
        first = self.first._pack_fields(_guarded(expr, 2) + "[0]", shape)
        return first + self.second._pack_fields(expr + "[1]", shape)

    def _unpack_expr(self, shape):
        pair = "(%s, %s)" % (
            self.first._unpack_expr(shape), self.second._unpack_expr(shape)
        )
        if self.pair_type is tuple:
            return pair
        return "new_tuple(%s, %s)" % (shape.bind(self.pair_type), pair)


class ArraySerde(_Composite):
    """Sequences of exactly ``length`` fixed-width elements, back to back
    with no count and no framing: one struct packs or unpacks the whole
    sequence, and ``loads`` returns a tuple. An array is ``layout_fixed``
    (a NULL pads to full width, and the same object encodes to the same
    bytes): it is newer than the formats that rule was frozen with.

    A composite holding an array packs and unpacks it as its bytes, with
    a call to the array's own compiled codec: the ``length`` elements are
    compiled once, into the array, not again into every shape around it.
    """

    layout_fixed = True

    def __init__(self, element_serde, length):
        if element_serde.fixed_size is None:
            raise ValueError("an array needs a fixed-width element codec")
        if length < 1:
            raise ValueError("an array holds at least one element")
        self.element_serde = element_serde
        self.length = int(length)
        self._adopt(_compile([("fixed", _Unrolled(self), "value")], "%s"))

    def _pack_fields(self, expr, shape):
        return [("%ds" % self.fixed_size, "%s(%s)" % (shape.bind(self._dumps), expr))]

    def _unpack_expr(self, shape):
        return "%s(%s)" % (shape.bind(self._loads), shape.take())


class _Unrolled:
    """An array's elements as the parts of its own shape. Its length is
    checked once, by a zero-width field ahead of the elements."""

    def __init__(self, array):
        self.array = array

    def _pack_fields(self, expr, shape):
        array = self.array
        fields = [("0s", "(b'' if len(%s) == %d else bad_arity(%s, %d))"
                   % (expr, array.length, expr, array.length))]
        for index in range(array.length):
            fields.extend(array.element_serde._pack_fields("%s[%d]" % (expr, index), shape))
        return fields

    def _unpack_expr(self, shape):
        array = self.array
        shape.take()  # the zero-width field's b""
        return "(%s)" % "".join(
            array.element_serde._unpack_expr(shape) + ", " for _ in range(array.length)
        )


class PackedListSerde(_Composite):
    """Homogeneous lists of *fixed-width* elements, packed back to back.

    Skips the per-element length prefixes of :class:`ListSerde`: the
    layout is a 4-byte count followed by ``count * element_size`` bytes.
    This matters for vertex rows, where the edge list dominates the
    serialized footprint.

    Lists of ``(INT64, FLOAT64)`` pairs — weighted edges — are ``flat``:
    :meth:`dumps_flat` and :meth:`loads_flat` move them as one flat
    sequence with one ``struct`` call and no pair built.
    """

    def __init__(self, element_serde):
        if element_serde.fixed_size is None:
            raise ValueError("a packed list needs a fixed-width element codec")
        self.element_serde = element_serde
        self._adopt(_compile_repeated(element_serde, framed=False))
        self._width = element_serde.fixed_size
        self._firsts = None
        pair = isinstance(element_serde, FixedPairSerde) and element_serde.first is INT64
        if pair:
            self._firsts = "q%dx" % element_serde.second.fixed_size
        self.flat = pair and element_serde.second is FLOAT64

    def count(self, data):
        """The element count of the image ``data``, read off it with the
        count × width check :meth:`loads` makes: no element is decoded."""
        try:
            (count,) = _U32.unpack_from(data, 0)
        except struct.error as exc:
            _corrupt(exc)
        if 4 + self._width * count != len(data):
            _corrupt("a count of %d does not match %d bytes" % (count, len(data)))
        return count

    def firsts(self, data):
        """The leading INT64 of every element — the targets of an edge
        list — read off the image as a tuple: :meth:`count`'s check, then
        the sign bits flipped back (as :meth:`loads_flat` does) and one
        ``unpack`` that skips the rest of each element. Elements must be
        :class:`FixedPairSerde` pairs led by :data:`INT64`."""
        first = self._firsts
        if first is None:
            raise TypeError("elements of %r are not pairs led by INT64" % self.element_serde)
        count = self.count(data)
        image = bytearray(data)
        image[4::self._width] = image[4::self._width].translate(_FLIP_SIGN)
        return struct.unpack_from(">" + first * count, image, 4)

    def dumps_flat(self, flat):
        """The image of the pairs ``(flat[0], flat[1]), (flat[2],
        flat[3]), ...`` — the bytes :meth:`dumps` gives them —: one
        ``pack`` with each INT64 as a signed integer, then the sign bit
        of each flipped, which is INT64's bias. The list must be
        :attr:`flat`; a value either codec refuses raises
        ``struct.error``."""
        if not self.flat:
            self._not_flat()
        count = len(flat) >> 1
        image = bytearray(struct.pack(">I" + "qd" * count, count, *flat))
        image[4::16] = image[4::16].translate(_FLIP_SIGN)
        return bytes(image)

    def loads_flat(self, data):
        """The pairs of the image ``data`` as one flat tuple ``(first,
        second, first, second, ...)``: :meth:`count`'s check, then the
        sign bits flipped back and one ``unpack``."""
        if not self.flat:
            self._not_flat()
        count = self.count(data)
        image = bytearray(data)
        image[4::16] = image[4::16].translate(_FLIP_SIGN)
        return struct.unpack_from(">" + "qd" * count, image, 4)

    def _not_flat(self):
        raise TypeError("elements of %r are not (INT64, FLOAT64) pairs" % self.element_serde)


class ListSerde(_Composite):
    """Homogeneous lists; count-prefixed, each element length-prefixed."""

    #: Never moved as one flat sequence (see :class:`PackedListSerde`).
    flat = False

    def __init__(self, element_serde):
        self.element_serde = element_serde
        if element_serde.fixed_size is None:
            self._adopt(_framed_list(element_serde))
        else:
            self._adopt(_compile_repeated(element_serde, framed=True))

    def count(self, data):
        """The element count of the image ``data``: the count × framed
        width check of fixed-width elements, one decode otherwise."""
        width = self.element_serde.fixed_size
        if width is None:
            return len(self.loads(data))
        try:
            (count,) = _U32.unpack_from(data, 0)
        except struct.error as exc:
            _corrupt(exc)
        if 4 + (4 + width) * count != len(data):
            _corrupt("a count of %d does not match %d bytes" % (count, len(data)))
        return count


def join_lists(images):
    """The image of the lists whose images are ``images`` (a sequence),
    concatenated: the counts summed, the bodies joined. Both list layouts
    are a ``>I`` count and then the elements; no element is checked."""
    if len(images) == 1:
        return images[0]
    count = sum(_U32.unpack_from(image, 0)[0] for image in images)
    return _U32.pack(count) + b"".join(image[4:] for image in images)


class PairSerde(TupleSerde):
    """Two-field tuple, a common shape for (vid, weight) edges."""

    def __init__(self, first, second):
        super().__init__(first, second)


#: Shared singleton codecs for the common field types.
INT64 = Int64Serde()
FLOAT64 = Float64Serde()
BOOL = BoolSerde()
UINT8 = UInt8Serde()
STRING = StringSerde()
BYTES = BytesSerde()
NULL = NullSerde()
#: The 8-byte :func:`encode_key` image, as a field of a tuple.
KEY = FixedBytesSerde(8)


def encode_key(vid):
    """Order-preserving key encoding used by every vid-keyed index."""
    return INT64.dumps(vid)


def decode_key(data):
    """Inverse of :func:`encode_key`."""
    return INT64.loads(data)
