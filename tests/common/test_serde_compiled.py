"""The compiled codecs against the field-at-a-time reference encoder.

``repro.common.serde`` compiles each codec's shape into a few ``struct``
calls; :mod:`tests.common.reference_serde` is the encoder it replaced,
verbatim. Stored pages, run files and checkpoints hold the reference's
bytes, so the contract is equality byte for byte, for every shape the
plans build and for random ones. Sizes are arithmetic and never encode;
damaged input never decodes.
"""

import math
import random

import pytest

from repro.common import serde
from repro.common.errors import StorageError
from repro.pregelix import aggregators, multiquery, physical, types
from repro.pregelix.api import DefaultListCombiner, MinCombiner, PregelixJob, Vertex

from tests.common import reference_serde as ref
from tests.common.test_serde_seeded import SEEDS, random_vid

# ----------------------------------------------------------------------
# random shapes: (compiled codec, reference codec, value generator)
# ----------------------------------------------------------------------
def random_float(rng):
    if rng.random() < 0.2:
        return rng.choice([0.0, -0.0, math.inf, -math.inf, 1e-308, 1e308])
    return rng.uniform(-1e6, 1e6)


def random_text(rng):
    return "".join(rng.choice("aé☃z0 ,") for _ in range(rng.randrange(0, 12)))


def random_bytes(rng, length=None):
    length = rng.randrange(0, 12) if length is None else length
    return bytes(rng.getrandbits(8) for _ in range(length))


class ReferenceArray(ref.Serde):
    """``ArraySerde``: ``length`` reference images of ``width`` bytes back
    to back, decoded to a tuple."""

    def __init__(self, element, width, length):
        self.element, self.width, self.length = element, width, length
        self.fixed_size = width * length  # a NULL array pads (layout_fixed)

    def dumps(self, value):
        if len(value) != self.length:
            raise ValueError("expected %d fields, got %d" % (self.length, len(value)))
        return b"".join(self.element.dumps(item) for item in value)

    def loads(self, data):
        width = self.width
        return tuple(
            self.element.loads(bytes(data[lane * width:(lane + 1) * width]))
            for lane in range(self.length)
        )


class ReferenceUInt8(ref.Serde):
    """``UINT8``: the byte itself (no ``fixed_size``: not layout_fixed)."""

    def dumps(self, value):
        return bytes((value,))

    def loads(self, data):
        return data[0]


LEAVES = [
    (serde.INT64, ref.INT64, random_vid),
    (serde.FLOAT64, ref.FLOAT64, random_float),
    (serde.BOOL, ref.BOOL, lambda rng: rng.random() < 0.5),
    (serde.STRING, ref.STRING, random_text),
    (serde.BYTES, ref.BYTES, random_bytes),
    (serde.NULL, ref.NULL, lambda rng: None),
    # A fixed-width key travels as the bytes it is.
    (serde.KEY, ref.BYTES, lambda rng: random_bytes(rng, 8)),
    (serde.UINT8, ReferenceUInt8(), lambda rng: rng.randrange(256)),
]


def random_list(rng, item):
    return [item(rng) for _ in range(rng.choice([0, 0, 1, rng.randrange(0, 9)]))]


def fixed_shape(rng, depth):
    """A shape whose compiled codec is fixed-width."""
    while True:
        shape = random_shape(rng, depth)
        if shape[0].fixed_size is not None:
            return shape


def random_shape(rng, depth=3):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(LEAVES)
    kind = rng.choice(
        ["optional", "tuple", "pair", "list", "packed", "fixed-pair", "array"]
    )
    if kind == "tuple":
        fields = [random_shape(rng, depth - 1) for _ in range(rng.randrange(0, 5))]
        return (
            serde.TupleSerde(*[f[0] for f in fields]),
            ref.TupleSerde(*[f[1] for f in fields]),
            lambda rng: tuple(f[2](rng) for f in fields),
        )
    if kind in ("pair", "fixed-pair"):
        make = fixed_shape if kind == "fixed-pair" else random_shape
        (a, ra, ga), (b, rb, gb) = make(rng, depth - 1), make(rng, depth - 1)
        if kind == "pair":
            codecs = serde.PairSerde(a, b), ref.PairSerde(ra, rb)
        else:
            codecs = (
                serde.FixedPairSerde(a, b),
                ref.FixedPairSerde(ra, rb, a.fixed_size, b.fixed_size),
            )
        return codecs + (lambda rng: (ga(rng), gb(rng)),)
    if kind == "array":
        inner, rinner, gen = fixed_shape(rng, depth - 1)
        length = rng.randrange(1, 9)
        return (
            serde.ArraySerde(inner, length),
            ReferenceArray(rinner, inner.fixed_size, length),
            lambda rng: [gen(rng) for _ in range(length)],
        )
    if kind == "packed":
        while True:
            inner, rinner, gen = fixed_shape(rng, depth - 1)
            if inner.fixed_size:
                break
        return (
            serde.PackedListSerde(inner),
            ref.PackedListSerde(rinner, inner.fixed_size),
            lambda rng: random_list(rng, gen),
        )
    inner, rinner, gen = random_shape(rng, depth - 1)
    if kind == "optional":
        return (
            serde.OptionalSerde(inner),
            ref.OptionalSerde(rinner),
            lambda rng: None if rng.random() < 0.3 else gen(rng),
        )
    return (
        serde.ListSerde(inner), ref.ListSerde(rinner),
        lambda rng: random_list(rng, gen),
    )


def shown(value):
    """``repr`` of ``value`` with every tuple subclass (``Edge``) a plain
    tuple: it tells apart what ``==`` does not — a ``memoryview`` from the
    ``bytes`` it views, ``-0.0`` from ``0.0``."""
    def plain(item):
        if isinstance(item, tuple):
            return tuple(map(plain, item))
        if isinstance(item, list):
            return list(map(plain, item))
        if isinstance(item, dict):
            return {key: plain(inner) for key, inner in item.items()}
        return item

    return repr(plain(value))


def assert_same_codec(compiled, reference, values):
    """Byte for byte, one value at a time and as a batch; decoded values
    are the reference's down to their types."""
    blobs = [reference.dumps(value) for value in values]
    decoded = [reference.loads(blob) for blob in blobs]
    for value, blob, expected in zip(values, blobs, decoded):
        assert compiled.dumps(value) == blob
        assert shown(compiled.loads(blob)) == shown(expected)
        assert shown(compiled.loads(memoryview(blob))) == shown(expected)
        assert compiled.sizeof(value) == len(blob)
    assert list(compiled.dumps_many(values)) == blobs
    assert shown(compiled.loads_many(blobs)) == shown(decoded)
    assert compiled.sizeof_many(values) == sum(map(len, blobs))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_shapes_encode_like_the_reference(seed):
    rng = random.Random(seed)
    for _ in range(150):
        compiled, reference, gen = random_shape(rng)
        assert_same_codec(compiled, reference, [gen(rng) for _ in range(8)])


# ----------------------------------------------------------------------
# the shapes the plans build
# ----------------------------------------------------------------------
def reference_edges(edge):
    if getattr(edge, "fixed_size", None) is not None:
        return ref.PackedListSerde(
            ref.FixedPairSerde(ref.INT64, edge, 8, edge.fixed_size),
            8 + edge.fixed_size,
        )
    return ref.ListSerde(ref.PairSerde(ref.INT64, edge))


def plan_codecs():
    """``name -> (compiled, reference, value generator)`` for the vertex,
    raw-vertex, raw-message, combined-message and GS codecs."""
    scc_value = (
        serde.TupleSerde(serde.INT64, serde.INT64, serde.INT64,
                         serde.ListSerde(serde.INT64)),
        ref.TupleSerde(ref.INT64, ref.INT64, ref.INT64, ref.ListSerde(ref.INT64)),
        lambda rng: (random_vid(rng), random_vid(rng), random_vid(rng),
                     random_list(rng, random_vid)),
    )
    rank_value = (
        serde.TupleSerde(serde.INT64, serde.INT64),
        ref.TupleSerde(ref.INT64, ref.INT64),
        lambda rng: (random_vid(rng), random_vid(rng)),
    )
    floats = (serde.FLOAT64, ref.FLOAT64, random_float)
    texts = (serde.STRING, ref.STRING, random_text)
    codecs = {}
    for label, (value, rvalue, gvalue), (edge, redge, gedge) in [
        ("float/float", floats, floats),
        ("float/text", floats, texts),
        ("tuple/float", rank_value, floats),
        ("scc/bool", scc_value, (serde.BOOL, ref.BOOL, lambda rng: True)),
        # A fixed-width tuple is not layout_fixed: no packing, no padding.
        ("float/tuple", floats, rank_value),
    ]:
        def optional(rng, gvalue=gvalue):
            return None if rng.random() < 0.2 else gvalue(rng)

        def edges(rng, gedge=gedge):
            return random_list(rng, lambda rng: (random_vid(rng), gedge(rng)))

        codecs["vertex " + label] = (
            types.vertex_value_serde(value, edge),
            ref.TupleSerde(ref.BOOL, ref.OptionalSerde(rvalue), reference_edges(redge)),
            lambda rng, o=optional, e=edges: (rng.random() < 0.5, o(rng), e(rng)),
        )
        # A loader tuple carries the row's images: (key, value, edge image).
        codecs["raw vertex " + label] = (
            physical.PlanGenerator(
                PregelixJob("j", Vertex, value_serde=value, edge_serde=edge),
                None, "r", None,
            )._raw_vertex_serde(),
            ref.TupleSerde(ref.BYTES, ref.OptionalSerde(rvalue), ref.BYTES),
            lambda rng, o=optional, e=edges, r=reference_edges(redge): (
                serde.encode_key(random_vid(rng)), o(rng), r.dumps(e(rng))
            ),
        )
    for label, (msg, rmsg, gmsg) in [("float", floats), ("text", texts)]:
        codecs["raw message " + label] = (
            serde.TupleSerde(serde.INT64, msg),
            ref.TupleSerde(ref.INT64, rmsg),
            lambda rng, g=gmsg: (random_vid(rng), g(rng)),
        )
        codecs["combined message " + label] = (
            serde.TupleSerde(serde.KEY, msg),
            ref.TupleSerde(ref.BYTES, rmsg),
            lambda rng, g=gmsg: (serde.encode_key(random_vid(rng)), g(rng)),
        )
        codecs["combined message list of " + label] = (
            serde.TupleSerde(serde.KEY, DefaultListCombiner().bundle_serde(msg)),
            ref.TupleSerde(ref.BYTES, ref.ListSerde(rmsg)),
            lambda rng, g=gmsg: (
                serde.encode_key(random_vid(rng)), random_list(rng, g)
            ),
        )
    # The multi-query lanes: the (halted, value) column, the tagged
    # message and the lane bundle, as a batch of 6 sssp queries has them.
    lanes = 6
    codecs["lane column float"] = (
        multiquery.lane_column_serde(serde.FLOAT64, lanes),
        ReferenceArray(
            ref.FixedPairSerde(ref.BOOL, ref.OptionalSerde(ref.FLOAT64), 1, 9), 10, lanes
        ),
        lambda rng: [
            (rng.random() < 0.5, None if rng.random() < 0.3 else random_float(rng))
            for _ in range(lanes)
        ],
    )
    codecs["lane message float"] = (
        multiquery.lane_message_serde(serde.FLOAT64),
        ref.FixedPairSerde(ReferenceUInt8(), ref.FLOAT64, 1, 8),
        lambda rng: (rng.randrange(multiquery.MAX_LANES), random_float(rng)),
    )
    codecs["lane bundle int"] = (
        multiquery.MultiQueryCombiner(MinCombiner(), serde.INT64, lanes).bundle_serde(None),
        ReferenceArray(ref.OptionalSerde(ref.INT64), 9, lanes),
        lambda rng: [None if rng.random() < 0.6 else random_vid(rng) for _ in range(lanes)],
    )
    named = aggregators.NamedValuesSerde({"b": serde.FLOAT64, "a": serde.INT64})

    class ReferenceNamed(ref.Serde):
        """``NamedValuesSerde`` wraps a tuple of the name list and the
        values in name order; its reference wraps the reference tuple."""

        fields = ref.TupleSerde(ref.STRING, ref.INT64, ref.FLOAT64)

        def dumps(self, value):
            return self.fields.dumps(("a,b", value["a"], value["b"]))

        def loads(self, data):
            return dict(zip("ab", self.fields.loads(data)[1:]))

    for label, agg, ragg, gagg in [
        ("none", serde.NULL, ref.NULL, lambda rng: None),
        ("float", serde.FLOAT64, ref.FLOAT64, random_float),
        ("named", named, ReferenceNamed(),
         lambda rng: {"a": random_vid(rng), "b": random_float(rng)}),
    ]:
        def gs(rng, gagg=gagg):
            aggregate = None if rng.random() < 0.3 else gagg(rng)
            return (rng.random() < 0.5, aggregate, rng.randrange(1 << 20),
                    rng.randrange(1 << 40), rng.randrange(1 << 40))

        codecs["gs " + label] = (
            types.global_state_serde(agg),
            ref.TupleSerde(ref.BOOL, ref.OptionalSerde(ragg),
                           ref.INT64, ref.INT64, ref.INT64),
            gs,
        )
    return codecs


PLAN_CODECS = plan_codecs()


@pytest.mark.parametrize("name", sorted(PLAN_CODECS))
def test_plan_codecs_encode_like_the_reference(name):
    compiled, reference, gen = PLAN_CODECS[name]
    rng = random.Random(name)
    assert_same_codec(compiled, reference, [gen(rng) for _ in range(300)])


def test_a_job_builds_the_compared_codecs():
    """The plan codecs above are the ones a job really hands its plans."""
    job = PregelixJob("j", Vertex, value_serde=serde.FLOAT64,
                      edge_serde=serde.FLOAT64, msg_serde=serde.FLOAT64)
    rng = random.Random(5)
    for codec, name in [(job.vertex_codec(), "vertex float/float"),
                        (job.gs_codec(), "gs none")]:
        _, reference, gen = PLAN_CODECS[name]
        assert_same_codec(codec, reference, [gen(rng) for _ in range(50)])


# ----------------------------------------------------------------------
# sizes never encode
# ----------------------------------------------------------------------
def all_serde_classes():
    seen, todo = [], [serde.Serde]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    # The reference encoder's classes are not repro's.
    return [cls for cls in seen if cls.__module__.startswith("repro.")]


def test_no_codec_sizes_a_value_by_encoding_it(monkeypatch):
    edges = serde.PackedListSerde(serde.FixedPairSerde(serde.INT64, serde.FLOAT64))
    samples = [
        (serde.INT64, 5), (serde.FLOAT64, 0.5), (serde.BOOL, True),
        (serde.STRING, "é"), (serde.BYTES, b"abc"), (serde.NULL, None),
        (serde.KEY, b"12345678"),
        (serde.OptionalSerde(serde.FLOAT64), None),
        (serde.OptionalSerde(serde.STRING), "x"),
        (serde.TupleSerde(serde.INT64, serde.FLOAT64), (1, 2.0)),
        (serde.TupleSerde(serde.INT64, serde.STRING, edges), (1, "a", [(2, 0.5)])),
        (serde.PairSerde(serde.INT64, serde.BYTES), (1, b"abc")),
        (serde.FixedPairSerde(serde.INT64, serde.BOOL), (1, False)),
        (edges, [(1, 0.5), (2, 1.5)]),
        (serde.ListSerde(serde.FLOAT64), [0.5, 1.5]),
        (serde.ListSerde(serde.PairSerde(serde.INT64, serde.STRING)), [(1, "a")]),
        (serde.UINT8, 7),
        (serde.ArraySerde(serde.OptionalSerde(serde.FLOAT64), 3), (None, 1.5, None)),
        (aggregators.NamedValuesSerde({"a": serde.INT64}), {"a": 1}),
    ]
    expected = [(codec, value, len(codec.dumps(value))) for codec, value in samples]
    concrete = [
        cls for cls in all_serde_classes()
        if cls is not serde.Serde and not cls.__name__.startswith("_")
    ]
    assert {type(codec) for codec, _ in samples} == set(concrete)

    def forbidden(self, value):
        raise AssertionError("%s.sizeof encoded the value" % type(self).__name__)

    for cls in all_serde_classes():
        if "dumps" in cls.__dict__:
            monkeypatch.setattr(cls, "dumps", forbidden)
    for codec, value, size in expected:
        assert codec.sizeof(value) == size
        assert codec.sizeof_many([value, value]) == 2 * size


# ----------------------------------------------------------------------
# damaged input never decodes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(PLAN_CODECS))
def test_truncated_or_padded_input_is_rejected(name):
    """One image at a time and in a batch."""
    compiled, _, gen = PLAN_CODECS[name]
    rng = random.Random(name)
    for _ in range(12):
        blob = compiled.dumps(gen(rng))
        damaged = [blob[:cut] for cut in range(len(blob))]
        damaged += [blob + random_bytes(rng, extra) for extra in range(1, 9)]
        for data in damaged:
            with pytest.raises(StorageError) as one:
                compiled.loads(data)
            # In a batch, after an intact image: the same error.
            with pytest.raises(StorageError) as batch:
                compiled.loads_many([blob, data])
            assert str(batch.value) == str(one.value)


def test_damaged_framing_is_rejected():
    codec = serde.TupleSerde(serde.INT64, serde.BYTES)
    blob = codec.dumps((5, b"abcdefgh"))
    with pytest.raises(StorageError):
        codec.loads(blob[:-3])  # the parent answered (5, b"abcde")
    with pytest.raises(StorageError):
        serde.TupleSerde(serde.BYTES, serde.FLOAT64).loads(
            serde.TupleSerde(serde.BYTES, serde.FLOAT64).dumps((b"k", 1.0)) + b"junk"
        )
    # A fixed-width field behind a length that is not its width.
    fixed = serde.TupleSerde(serde.INT64, serde.FLOAT64)
    damaged = bytearray(fixed.dumps((1, 2.0)))
    damaged[3] = 7
    with pytest.raises(StorageError):
        fixed.loads(bytes(damaged))
    # An element count that does not match the bytes that follow.
    packed = serde.PackedListSerde(serde.FixedPairSerde(serde.INT64, serde.FLOAT64))
    damaged = bytearray(packed.dumps([(1, 0.5), (2, 1.5)]))
    damaged[3] = 3
    with pytest.raises(StorageError):
        packed.loads(bytes(damaged))
    framed = serde.ListSerde(serde.FLOAT64)
    damaged = bytearray(framed.dumps([0.5, 1.5]))
    damaged[7] = 4  # first element's length
    with pytest.raises(StorageError):
        framed.loads(bytes(damaged))


def test_wrong_arity_and_wrong_key_width_are_rejected_when_encoding():
    with pytest.raises(ValueError):
        serde.TupleSerde(serde.INT64, serde.FLOAT64).dumps((1, 2.0, 3))
    nested = serde.OptionalSerde(serde.FixedPairSerde(serde.INT64, serde.INT64))
    with pytest.raises(ValueError):
        nested.dumps((1, 2, 3))
    with pytest.raises(ValueError):
        serde.PackedListSerde(serde.FixedPairSerde(serde.INT64, serde.INT64)).dumps(
            [(1, 2), (3,)]
        )
    with pytest.raises(ValueError):
        serde.TupleSerde(serde.KEY, serde.FLOAT64).dumps((b"short", 1.0))
