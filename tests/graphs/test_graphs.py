"""Tests for graph generators, IO, sampling, and the dataset registry."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.datasets import DATASETS, SCALE_ORDER, graph_statistics, materialize
from repro.graphs.generators import (
    btc_graph,
    chain_graph,
    de_bruijn_path_graph,
    star_graph,
    webmap_graph,
)
from repro.graphs.io import (
    format_graph_line,
    format_vertex_record,
    parse_adjacency_line,
    read_graph_from_dfs,
    typed_parser,
    write_graph_to_dfs,
)
from repro.graphs.sampling import random_walk_sample, scale_up_copy
from repro.hdfs import MiniDFS
from repro.pregelix.api import Edge
from repro.pregelix.types import VertexRecord


class TestGenerators:
    def test_webmap_vertex_count_and_determinism(self):
        a = list(webmap_graph(300, seed=5))
        b = list(webmap_graph(300, seed=5))
        assert len(a) == 300
        assert a == b

    def test_webmap_different_seeds_differ(self):
        assert list(webmap_graph(100, seed=1)) != list(webmap_graph(100, seed=2))

    def test_webmap_power_law_in_degree(self):
        """Low vertex ids should accumulate many more in-edges."""
        indeg = {}
        for _vid, _value, edges in webmap_graph(2000, seed=7):
            for dest, _w in edges:
                indeg[dest] = indeg.get(dest, 0) + 1
        top = sum(indeg.get(v, 0) for v in range(200))
        bottom = sum(indeg.get(v, 0) for v in range(1800, 2000))
        assert top > 5 * max(bottom, 1)

    def test_webmap_no_self_loops(self):
        for vid, _value, edges in webmap_graph(200, seed=3):
            assert all(dest != vid for dest, _w in edges)

    def test_btc_is_undirected(self):
        adjacency = {
            vid: {d for d, _w in edges} for vid, _v, edges in btc_graph(150, seed=2)
        }
        for vid, neighbors in adjacency.items():
            for neighbor in neighbors:
                assert vid in adjacency[neighbor]

    def test_btc_average_degree_close_to_target(self):
        _size, n, e, avg = graph_statistics(btc_graph(2000, avg_degree=8.94, seed=1))
        assert n == 2000
        assert avg == pytest.approx(8.94, rel=0.1)

    def test_chain_and_star(self):
        chain = list(chain_graph(5))
        assert chain[0][2] == [(1, 1.0)]
        assert chain[-1][2] == []
        star = list(star_graph(4))
        assert len(star[0][2]) == 4
        assert all(v[2] == [(0, 1.0)] for v in star[1:])

    def test_de_bruijn_paths(self):
        vertices = list(de_bruijn_path_graph(3, 5, seed=1))
        assert len(vertices) >= 15
        out_degrees = [len(edges) for _vid, _v, edges in vertices]
        assert max(out_degrees) <= 1

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            list(webmap_graph(0))
        with pytest.raises(ValueError):
            list(btc_graph(-1))


#: Weights whose text is easy to get wrong: both zeros, the infinities,
#: NaN, the smallest subnormal, and ints and bools, which print with str.
FLOAT_WEIGHTS = [-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 5e-324, None]
OTHER_WEIGHTS = [0, -7, 1 << 40, True, False]


def random_weight(rng, floats_only):
    if rng.random() < 0.3:
        return rng.uniform(-1e6, 1e6)
    return rng.choice(FLOAT_WEIGHTS + ([] if floats_only else OTHER_WEIGHTS))


def generator_format(record, value_formatter=None):
    """The per-edge generator the edge formatter replaced, byte for byte."""

    def number(value):
        return repr(value) if isinstance(value, float) else str(value)

    if record.value is None:
        value = "_"
    elif value_formatter is not None:
        value = value_formatter(record.value)
    else:
        value = number(record.value)
    edges = " ".join(
        "%d:%s" % (edge[0], number(edge[1]) if edge[1] is not None else "")
        for edge in record.edges
    )
    return ("%d %s %s" % (record.vid, value, edges)).rstrip()


class TestIO:
    def test_line_roundtrip(self):
        line = format_graph_line(3, 1.5, [(4, 0.5), (9, 2.0)])
        assert parse_adjacency_line(line) == (3, 1.5, [(4, 0.5), (9, 2.0)])

    def test_null_value(self):
        line = format_graph_line(3, None, [])
        vid, value, edges = parse_adjacency_line(line)
        assert value is None and edges == []

    def test_typed_parser(self):
        parse = typed_parser(int)
        assert parse("5 7 2:1.0") == (5, 7, [(2, 1.0)])

    def test_vertex_record_formatting(self):
        record = VertexRecord(vid=2, value=0.5, edges=[(3, 1.0)])
        assert format_vertex_record(record) == "2 0.5 3:1.0"

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            parse_adjacency_line("42")

    def test_read_graph_skips_what_the_parser_skips(self):
        dfs = MiniDFS(datanodes=["a"])
        dfs.write_text_lines("/g/part-0", ["# comment", "1 _ 2:1.0", "", "2 0.5"])

        def skip_comments(line):
            return None if line.startswith("#") else parse_adjacency_line(line)

        assert read_graph_from_dfs(dfs, "/g", skip_comments) == [
            (1, None, [(2, 1.0)]),
            (2, 0.5, []),
        ]

    def test_dfs_write_read_roundtrip(self):
        dfs = MiniDFS(datanodes=["a", "b"])
        vertices = list(chain_graph(10))
        count = write_graph_to_dfs(dfs, "/g", iter(vertices), num_files=3)
        assert count == 10
        assert len(dfs.list_files("/g")) == 3
        loaded = sorted(read_graph_from_dfs(dfs, "/g"))
        assert loaded == vertices

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 30),
                st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=1 << 30),
                        st.floats(allow_nan=False, allow_infinity=False),
                    ),
                    max_size=5,
                ),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_line_roundtrip_property(self, rows):
        for vid, value, edges in rows:
            parsed = parse_adjacency_line(format_graph_line(vid, value, edges))
            assert parsed == (vid, value, edges)

    @pytest.mark.parametrize("seed", range(10))
    def test_edges_are_formatted_as_the_generator_formatted_them(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            floats_only = rng.random() < 0.5
            edges = [
                Edge(rng.randrange(-5, 1 << 40), random_weight(rng, floats_only))
                for _ in range(rng.randrange(6))
            ]
            value = random_weight(rng, floats_only)
            record = VertexRecord(vid=rng.randrange(1 << 40), value=value, edges=edges)
            for formatter in (None, lambda v: "<%r>" % (v,)):
                line = format_vertex_record(record, formatter)
                assert line == generator_format(record, formatter)
            assert format_graph_line(record.vid, value, edges) == generator_format(record)
            if floats_only:
                # What a float/NULL line parses back to formats to the line.
                line = format_vertex_record(record)
                assert format_graph_line(*parse_adjacency_line(line)) == line


class TestSampling:
    def test_sample_size_and_renumbering(self):
        vertices = list(webmap_graph(500, seed=3))
        sample = random_walk_sample(vertices, 100, seed=1)
        assert 0 < len(sample) <= 100
        ids = [vid for vid, _v, _e in sample]
        assert ids == list(range(len(sample)))

    def test_sample_edges_stay_inside(self):
        sample = random_walk_sample(webmap_graph(300, seed=2), 50, seed=4)
        ids = {vid for vid, _v, _e in sample}
        for _vid, _value, edges in sample:
            assert all(dest in ids for dest, _w in edges)

    def test_empty_graph(self):
        assert random_walk_sample([], 10) == []

    def test_scale_up_copies_and_renumbers(self):
        base = list(chain_graph(5))
        scaled = scale_up_copy(base, 3)
        assert len(scaled) == 15
        _s, n, e, avg = graph_statistics(iter(scaled))
        _s0, n0, e0, avg0 = graph_statistics(iter(base))
        assert avg == pytest.approx(avg0)
        ids = {vid for vid, _v, _e in scaled}
        assert len(ids) == 15

    def test_scale_up_keeps_copies_disjoint(self):
        base = list(chain_graph(4))
        scaled = scale_up_copy(base, 2)
        first = {vid for vid, _v, _e in scaled[:4]}
        second = {vid for vid, _v, _e in scaled[4:]}
        for _vid, _value, edges in scaled[:4]:
            assert all(dest in first for dest, _w in edges)
        for _vid, _value, edges in scaled[4:]:
            assert all(dest in second for dest, _w in edges)

    def test_scale_up_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            scale_up_copy(chain_graph(3), 0)


class TestDatasetRegistry:
    def test_all_table_rows_present(self):
        for family in ("webmap", "btc"):
            for name in SCALE_ORDER:
                assert (family, name) in DATASETS

    def test_ladder_is_increasing(self):
        for family in ("webmap", "btc"):
            sizes = [DATASETS[(family, name)].num_vertices for name in SCALE_ORDER]
            assert sizes == sorted(sizes)

    def test_materialize_idempotent(self):
        dfs = MiniDFS(datanodes=["a", "b", "c"])
        spec = DATASETS[("webmap", "tiny")]
        path1 = materialize(spec, dfs)
        files = dfs.list_files(path1)
        path2 = materialize(spec, dfs)
        assert path1 == path2
        assert dfs.list_files(path2) == files

    def test_btc_scaleups_preserve_degree(self):
        dfs = MiniDFS(datanodes=["a"])
        small = DATASETS[("btc", "small")]
        materialize(small, dfs)
        loaded = read_graph_from_dfs(dfs, small.path)
        _s, n, _e, avg = graph_statistics(iter(loaded))
        base = DATASETS[("btc", "x-small")]
        materialize(base, dfs)
        _s2, n2, _e2, avg2 = graph_statistics(iter(read_graph_from_dfs(dfs, base.path)))
        assert avg == pytest.approx(avg2, rel=0.01)
        assert n == 2 * n2

    def test_statistics_shape(self):
        size, n, e, avg = graph_statistics(chain_graph(10))
        assert n == 10 and e == 9
        assert avg == pytest.approx(0.9)
        assert size > 0


class TestPartFileDirectories:
    def test_ingest_then_export_round_trips(self, tmp_path):
        from repro.graphs.io import export_part_files, ingest_part_files
        from repro.hdfs import MiniDFS

        source = tmp_path / "in"
        source.mkdir()
        (source / "part-00000").write_text("0 _ 1:1.0\n")
        (source / "part-00001").write_text("1 _\n")
        (source / "nested").mkdir()  # directories are not part files
        dfs = MiniDFS(datanodes=["node0"])
        ingest_part_files(dfs, str(source), "/data/g")
        assert dfs.list_files("/data/g") == [
            "/data/g/part-00000", "/data/g/part-00001"
        ]
        export_part_files(dfs, "/data/g", str(tmp_path / "out" / "deep"))
        assert (tmp_path / "out" / "deep" / "part-00000").read_text() == "0 _ 1:1.0\n"
        assert (tmp_path / "out" / "deep" / "part-00001").read_text() == "1 _\n"

    def test_ingest_of_an_empty_directory_raises(self, tmp_path):
        from repro.common.errors import ReproError
        from repro.graphs.io import ingest_part_files
        from repro.hdfs import MiniDFS

        with pytest.raises(ReproError, match="no input files in"):
            ingest_part_files(MiniDFS(datanodes=["node0"]), str(tmp_path), "/x")
