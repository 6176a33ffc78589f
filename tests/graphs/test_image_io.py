"""The loader and the dump move a vertex as its images.

``image_parser`` must load exactly what ``parse_adjacency_line`` followed
by ``encode_key`` and the edge codec's ``dumps`` loads (and raise what
they raise); ``image_formatter`` must write exactly what the record
formatter writes of the decoded row. The golden digests pin the dumped
output of three algorithms and the rows an edge-list input loads to the
values the per-edge loader and dump produced.
"""

import hashlib
import math
import random

import pytest

from repro.algorithms import algorithm_module, sssp
from repro.common import serde
from repro.common.serde import encode_key
from repro.graphs.generators import btc_graph
from repro.graphs.io import (
    format_vertex_record,
    image_formatter,
    image_parser,
    parse_adjacency_line,
    parse_edge_line,
    typed_formatter,
    typed_parser,
    write_graph_to_dfs,
)
from repro.hyracks.engine import HyracksCluster
from repro.hyracks.operators.index_ops import find_index
from repro.pregelix import PregelixDriver, PregelixJob, Vertex
from repro.pregelix.physical import PartitionMap, PlanGenerator, _MergeSameVidOperator
from repro.pregelix.relations import RunRelations
from repro.pregelix.types import VertexRecord, edge_list_serde

FLAT = edge_list_serde(serde.FLOAT64)
#: Edge images of a non-flat codec that holds a NULL weight.
NULLABLE = edge_list_serde(serde.OptionalSerde(serde.FLOAT64))

NUMBERS = [
    "0", "1", "-1", "7", "+3", "1_000", "0.5", "-2.25", "1e5", "1E-3", "-1.5e+300",
    "inf", "-inf", "nan", "-0.0", "0.0", "5e-324", "1.7976931348623157e308",
    "12345678901234567890", "9223372036854775807", "-9223372036854775808",
    "9223372036854775808", "0x10", "abc", "1.2.3", "", "٣",
]


def random_number(rng):
    if rng.random() < 0.5:
        return rng.choice(NUMBERS)
    if rng.random() < 0.5:
        return str(rng.randint(-10 ** 6, 10 ** 6))
    return repr(rng.uniform(-1e3, 1e3))


def random_edge_token(rng):
    roll = rng.random()
    if roll < 0.8:
        return "%s:%s" % (rng.randint(-50, 5000), random_number(rng))
    return rng.choice([
        "%d:" % rng.randint(0, 9),          # NULL weight
        "1:2:3",                            # two colons
        str(rng.randint(0, 9)),             # no colon
        ":5",                               # no target
        "::",
        "%s:%s" % (random_number(rng), random_number(rng)),
    ])


def random_line(rng):
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(["", "   ", "\t", ":", "5", "5:1"])
    vid = rng.choice([str(rng.randint(-100, 10 ** 6)), random_number(rng)])
    value = rng.choice(["_", "_", random_number(rng), "a:b"])
    tokens = [vid, value] + [random_edge_token(rng) for _ in range(rng.randint(0, 12))]
    if rng.random() < 0.85:
        line = " ".join(tokens)
    else:
        line = "".join(token + rng.choice([" ", "  ", "\t", " \x0c"]) for token in tokens)
    if rng.random() < 0.1:
        line = rng.choice([" ", "\t"]) + line
    return line


def outcome(parse, lines):
    """What loading ``lines`` gives: its tuples, or the error it raises.
    Values are compared by ``repr`` (NaN is not equal to itself)."""
    try:
        return [(key, repr(value), image) for key, value, image in parse(lines)]
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return (type(error), str(error))


def reference(parse_line, codec):
    """The per-line reference: the parser, then ``encode_key`` and the
    edge codec's ``dumps``."""

    def parse(lines):
        tuples = []
        for line in lines:
            if line.strip():
                parsed = parse_line(line)
                if parsed is not None:
                    vid, value, edges = parsed
                    tuples.append((encode_key(vid), value, codec.dumps(edges)))
        return tuples

    return parse


PARSERS = {
    "default": parse_adjacency_line,
    "int values": typed_parser(int),
    "float values": typed_parser(float),
    "str values": typed_parser(str),
    "int weights": typed_parser(float, int),
}


@pytest.mark.parametrize("codec", [FLAT, NULLABLE], ids=["flat", "nullable"])
@pytest.mark.parametrize("parser", sorted(PARSERS))
@pytest.mark.parametrize("seed", range(4))
def test_the_image_parser_is_the_reference_parser(seed, parser, codec):
    rng = random.Random(repr((seed, parser)))
    parse_line = PARSERS[parser]
    fast, slow = image_parser(parse_line, codec), reference(parse_line, codec)
    # A part file's lines, CRLF endings included.
    text = "".join(random_line(rng) + rng.choice(["\n", "\r\n"]) for _ in range(300))
    lines = text.splitlines()
    for line in lines:
        assert outcome(fast, [line]) == outcome(slow, [line]), line
    loadable = [line for line in lines if isinstance(outcome(slow, [line]), list)]
    assert len(loadable) > 30
    assert outcome(fast, loadable) == outcome(slow, loadable)


def test_the_fast_path_loads_special_weights_bit_for_bit():
    line = "-7 _ 1:1e300 2:inf 3:-inf 4:nan 5:-0.0 6:5e-324 -9:0.1 9223372036854775807:2"
    (key, value, image), = image_parser(parse_adjacency_line, FLAT)([line])
    vid, _, edges = parse_adjacency_line(line)
    assert key == encode_key(vid) and value is None
    assert image == FLAT.dumps(edges)
    assert math.copysign(1.0, FLAT.loads(image)[4].value) == -1.0


@pytest.mark.parametrize("line", [
    "5", "x _ 1:2.0", "1 _ 1:2:3", "1 _ 2", "1 _ :2", "1 a:b 2:1.0", "1 _ 1:x",
    "1 2:3 4", "5 _ 5 1:2:3", "1 _ 2:", "99999999999999999999 _ 1:1.0",
    "1 _ 99999999999999999999:1.0",
])
def test_a_refused_line_raises_what_the_reference_raises(line):
    got = outcome(image_parser(parse_adjacency_line, FLAT), [line])
    want = outcome(reference(parse_adjacency_line, FLAT), [line])
    assert isinstance(want, tuple)  # every one of these fails to load
    assert got == want


def test_a_null_weight_loads_under_a_codec_that_holds_it():
    (_, _, image), = image_parser(parse_adjacency_line, NULLABLE)(["1 _ 2: 3:1.5"])
    assert NULLABLE.loads(image) == [(2, None), (3, 1.5)]


def test_a_custom_parser_is_called_per_line_and_may_skip():
    def parse(line):
        return None if line.startswith("#") else parse_edge_line(line)

    tuples = image_parser(parse, FLAT)(["# header", "3 4 2.5", "", "3 5"])
    assert tuples == [
        (encode_key(3), None, FLAT.dumps([(4, 2.5)])),
        (encode_key(3), None, FLAT.dumps([(5, 1.0)])),
    ]


# ----------------------------------------------------------------------
# the dump
# ----------------------------------------------------------------------
WEIGHTS = [0.0, -0.0, 1.0, 0.1, 1e300, 5e-324, float("inf"), float("-inf"), float("nan")]


def random_record(rng, value_kind):
    vid = rng.choice([0, -1, rng.randint(-(2 ** 63), 2 ** 63 - 1), rng.randint(0, 999)])
    if rng.random() < 0.2:
        value = None
    elif value_kind == "float":
        value = rng.choice(WEIGHTS + [rng.uniform(-9, 9)])
    else:
        value = rng.randint(-(2 ** 63), 2 ** 63 - 1)
    edges = [
        (rng.randint(-(2 ** 63), 2 ** 63 - 1), rng.choice(WEIGHTS + [rng.uniform(-1e6, 1e6)]))
        for _ in range(rng.randint(0, 50))
    ]
    return VertexRecord(vid, rng.random() < 0.5, value, edges)


@pytest.mark.parametrize("value_kind", ["float", "int"])
@pytest.mark.parametrize("seed", range(3))
def test_the_row_formatter_writes_what_the_record_formatter_writes(seed, value_kind):
    rng = random.Random(repr((seed, value_kind)))
    value_serde = serde.FLOAT64 if value_kind == "float" else serde.INT64
    job = PregelixJob("dump", Vertex, value_serde=value_serde, edge_serde=serde.FLOAT64)
    relations = RunRelations(job, None, "dump")
    for format_record in (format_vertex_record, typed_formatter(str), typed_formatter(repr)):
        format_row = image_formatter(format_record, relations.edge_codec)
        for _ in range(60):
            record = random_record(rng, value_kind)
            row = (encode_key(record.vid), relations.encode_vertex(record))
            line = format_row(relations.stored_vertex(row))
            assert line == format_record(relations.vertex_record(row))
            if format_record is format_vertex_record:
                assert line == format_vertex_record(record)


def test_only_flat_images_of_the_record_formatters_are_formatted_as_images():
    assert image_formatter(format_vertex_record, NULLABLE) is None
    assert image_formatter(typed_formatter(str), NULLABLE) is None
    assert image_formatter(lambda record: "", FLAT) is None


def test_a_custom_formatter_gets_the_decoded_record(tmp_path):
    seen = []

    def format_record(record):
        seen.append(record)
        return "%d %s" % (record.vid, len(record.edges))

    with HyracksCluster(num_nodes=2, root_dir=str(tmp_path)) as cluster:
        write_graph_to_dfs(cluster.dfs, "/in", btc_graph(20, seed=1), num_files=2)
        driver = PregelixDriver(cluster, cluster.dfs)
        driver.run(sssp.build_job(source_id=0), "/in", output_path="/out",
                   format_record=format_record)
        lines = driver.read_output("/out")
    assert len(seen) == len(lines) == 20
    assert all(isinstance(record, VertexRecord) for record in seen)
    assert sorted(lines) == sorted("%d %d" % (r.vid, len(r.edges)) for r in seen)


# ----------------------------------------------------------------------
# golden digests, taken from the loader and dump that built an object
# per edge
# ----------------------------------------------------------------------
GOLDEN_DUMPS = {
    "pagerank": ({"iterations": 3},
                 "cc35af2fbcc148d28dd1306ecd807c626fa464c5c7cbb5fc3e5105a492282cd0"),
    "sssp": ({"source_id": 0},
             "5a47d2d22b42a3959496bcb08079261b6438dd6faeeb3c70211aabb0b3b00ade"),
    "cc": ({}, "ab3702c3d69a51fad33f723f4fb18e8836f328853f1a9cc525c49af5c375882c"),
}


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_DUMPS))
def test_the_dumped_output_is_unchanged(algorithm, tmp_path):
    params, digest = GOLDEN_DUMPS[algorithm]
    module = algorithm_module(algorithm)
    with HyracksCluster(num_nodes=3, root_dir=str(tmp_path)) as cluster:
        write_graph_to_dfs(cluster.dfs, "/in", btc_graph(60, seed=5), num_files=3)
        driver = PregelixDriver(cluster, cluster.dfs)
        driver.run(
            module.build_job(**params), "/in", output_path="/out",
            parse_line=getattr(module, "parse_line", None),
            format_record=getattr(module, "format_record", None),
        )
        lines = driver.read_output("/out")
    assert hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest() == digest


EDGES = [(3, 1, 1.5), (0, 2, 2.0), (3, 0, 0.25), (1, 3, 1.0), (0, 1, 4.0),
         (3, 2, -0.0), (2, 0, 7.0), (0, 3, 1e-3), (3, 1, 2.5), (-4, 3, 1.0)]


def test_an_edge_list_loads_the_rows_it_loaded_before(tmp_path):
    lines = ["%d %d %r" % edge for edge in EDGES] + ["5 6"]
    with HyracksCluster(num_nodes=3, root_dir=str(tmp_path)) as cluster:
        dfs = cluster.dfs
        for part in range(3):
            dfs.write_text_lines("/in/part-%d" % part, lines[part::3])
        partition_map = PartitionMap.balanced(cluster.node_ids(), cluster.num_partitions)
        generator = PlanGenerator(sssp.build_job(source_id=0), dfs, "load-test", partition_map)
        result = cluster.execute(generator.loading_plan("/in", parse_edge_line))
        rows = []
        for partition, node_id in enumerate(partition_map.locations):
            index = find_index(cluster.nodes[node_id], generator.relations.vertex, partition)
            rows.extend(index.scan())
    gs = result.collected["gs"][0][0]
    assert (gs.num_vertices, gs.num_edges) == (6, 11)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "52f0ace0383e9c203b980dd2a9f7393d362d7ae579b7edd8e9e20f0f1aca9c7e"
    )


def test_merge_same_vid_joins_the_edge_images_in_order():
    key = encode_key(3)
    stream = [
        (encode_key(1), 0.5, FLAT.dumps([(9, 1.0)])),
        (key, None, FLAT.dumps([(4, 2.5)])),
        (key, 7.0, FLAT.dumps([])),
        (key, 8.0, FLAT.dumps([(5, 1.0), (6, -0.0)])),
        (encode_key(4), None, FLAT.dumps([])),
    ]
    merged = _MergeSameVidOperator().run(None, 0, [stream])[_MergeSameVidOperator.OUT]
    assert merged[0] is stream[0] and merged[2] is stream[4]
    assert merged[1] == (key, 7.0, FLAT.dumps([(4, 2.5), (5, 1.0), (6, -0.0)]))
