"""Tests for the NetworkX adapters."""

import networkx as nx
import pytest

from repro.graphs.generators import btc_graph, chain_graph
from repro.graphs.nxadapter import from_networkx, results_to_networkx, to_networkx


class TestFromNetworkx:
    def test_digraph_conversion(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b", weight=2.0)
        graph.add_edge("b", "c")
        vertices, id_map = from_networkx(graph)
        assert len(vertices) == 3
        by_vid = {vid: edges for vid, _value, edges in vertices}
        assert by_vid[id_map["a"]] == [(id_map["b"], 2.0)]
        assert by_vid[id_map["b"]] == [(id_map["c"], 1.0)]
        assert by_vid[id_map["c"]] == []

    def test_undirected_produces_both_directions(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        vertices, id_map = from_networkx(graph)
        adjacency = {vid: {d for d, _w in edges} for vid, _v, edges in vertices}
        assert id_map[1] in adjacency[id_map[0]]
        assert id_map[0] in adjacency[id_map[1]]

    def test_node_values_carried(self):
        graph = nx.DiGraph()
        graph.add_node("x", value=3.5)
        vertices, id_map = from_networkx(graph)
        assert vertices[0][1] == 3.5

    def test_dense_renumbering(self):
        graph = nx.DiGraph()
        graph.add_edge(1000, 2000)
        vertices, id_map = from_networkx(graph)
        assert sorted(id_map.values()) == [0, 1]


class TestToNetworkx:
    def test_roundtrip_structure(self):
        original = list(btc_graph(60, seed=2))
        graph = to_networkx(original, directed=False)
        assert graph.number_of_nodes() == 60
        back, id_map = from_networkx(graph)
        back_adjacency = {vid: {d for d, _w in edges} for vid, _v, edges in back}
        # Adjacency is preserved modulo the (dense) renumbering map.
        for vid, _value, edges in original:
            expected = {id_map[d] for d, _w in edges}
            assert back_adjacency[id_map[vid]] == expected

    def test_weights_preserved(self):
        graph = to_networkx([(0, None, [(1, 2.5)]), (1, None, [])])
        assert graph[0][1]["weight"] == 2.5


class TestResultsAttachment:
    def test_attach_results(self):
        graph = to_networkx(list(chain_graph(4)))
        results_to_networkx(graph, {0: 0.0, 1: 1.0, 99: 5.0}, attribute="dist")
        assert graph.nodes[1]["dist"] == 1.0
        assert "dist" not in graph.nodes[3]


class TestEndToEndWithPregelix:
    def test_networkx_graph_through_sssp(self, tmp_path):
        from repro.algorithms import sssp
        from repro.graphs.io import write_graph_to_dfs
        from repro.hyracks.engine import HyracksCluster
        from repro.pregelix import PregelixDriver

        nx_graph = nx.path_graph(8, create_using=nx.DiGraph)
        vertices, id_map = from_networkx(nx_graph)
        with HyracksCluster(num_nodes=2, root_dir=str(tmp_path / "c")) as cluster:
            write_graph_to_dfs(cluster.dfs, "/in", iter(vertices), num_files=2)
            driver = PregelixDriver(cluster, cluster.dfs)
            driver.run(
                sssp.build_job(source_id=id_map[0]), "/in", output_path="/out"
            )
            distances = {
                int(l.split()[0]): float(l.split()[1])
                for l in driver.read_output("/out")
            }
        assert distances[id_map[7]] == pytest.approx(7.0)
