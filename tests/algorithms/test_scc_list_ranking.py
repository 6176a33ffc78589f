"""Tests for the SCC and list-ranking building blocks (Section 6)."""

import random

import networkx as nx
import pytest

from repro.algorithms import list_ranking, scc
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver


@pytest.fixture
def cluster(tmp_path):
    with HyracksCluster(num_nodes=3, root_dir=str(tmp_path / "c")) as c:
        yield c


@pytest.fixture
def dfs(cluster):
    return cluster.dfs


@pytest.fixture
def driver(cluster, dfs):
    return PregelixDriver(cluster, dfs)


def run_job(driver, dfs, module, job, vertices, name):
    write_graph_to_dfs(dfs, "/in/%s" % name, iter(vertices), num_files=3)
    outcome = driver.run(
        job,
        "/in/%s" % name,
        output_path="/out/%s" % name,
        parse_line=module.parse_line,
        format_record=module.format_record,
    )
    values = {}
    for line in driver.read_output("/out/%s" % name):
        fields = line.split()
        values[int(fields[0])] = int(fields[1])
    return outcome, values


def digraph(edges, num_vertices):
    adjacency = {v: [] for v in range(num_vertices)}
    for u, v in edges:
        adjacency[u].append((v, 1.0))
    return [(v, None, targets) for v, targets in adjacency.items()]


def reference_scc(edges, num_vertices):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(num_vertices))
    graph.add_edges_from(edges)
    labels = {}
    for component in nx.strongly_connected_components(graph):
        for vertex in component:
            labels[vertex] = frozenset(component)
    return labels


def assert_matches_reference(values, edges, num_vertices):
    expected = reference_scc(edges, num_vertices)
    # Same partition: two vertices share a reproduction label iff they
    # share a reference component.
    by_label = {}
    for vertex, label in values.items():
        by_label.setdefault(label, set()).add(vertex)
    for members in by_label.values():
        reference_components = {expected[v] for v in members}
        assert len(reference_components) == 1
        assert members == set(next(iter(reference_components)))


class TestSCC:
    def test_single_cycle(self, driver, dfs):
        edges = [(0, 1), (1, 2), (2, 0)]
        _outcome, values = run_job(
            driver, dfs, scc, scc.build_job(), digraph(edges, 3), "cycle"
        )
        assert len(set(values.values())) == 1

    def test_two_cycles_and_a_bridge(self, driver, dfs):
        edges = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]
        _outcome, values = run_job(
            driver, dfs, scc, scc.build_job(), digraph(edges, 4), "two"
        )
        assert values[0] == values[1]
        assert values[2] == values[3]
        assert values[0] != values[2]
        assert_matches_reference(values, edges, 4)

    def test_dag_is_all_singletons(self, driver, dfs):
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        _outcome, values = run_job(
            driver, dfs, scc, scc.build_job(), digraph(edges, 4), "dag"
        )
        assert len(set(values.values())) == 4
        # Every vertex labels itself (singleton SCC root is the vertex).
        assert all(values[v] == v for v in range(4))

    def test_matches_networkx_on_random_digraph(self, driver, dfs):
        rng = random.Random(7)
        n = 60
        edges = []
        for _ in range(150):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
        _outcome, values = run_job(
            driver, dfs, scc, scc.build_job(), digraph(edges, n), "rand"
        )
        assert_matches_reference(values, edges, n)

    def test_isolated_vertices(self, driver, dfs):
        _outcome, values = run_job(
            driver, dfs, scc, scc.build_job(), digraph([], 5), "iso"
        )
        assert values == {v: v for v in range(5)}

    def test_all_vertices_assigned(self, driver, dfs):
        rng = random.Random(3)
        n = 40
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(100)]
        edges = [(u, v) for u, v in edges if u != v]
        _outcome, values = run_job(
            driver, dfs, scc, scc.build_job(), digraph(edges, n), "assigned"
        )
        assert len(values) == n
        assert all(label >= 0 for label in values.values())


def linked_list(order):
    """A list graph visiting ``order``; returns (vertices, expected ranks)."""
    vertices = []
    ranks = {}
    for position, vid in enumerate(order):
        successor = order[position + 1] if position + 1 < len(order) else None
        edges = [(successor, 1.0)] if successor is not None else []
        vertices.append((vid, None, edges))
        ranks[vid] = len(order) - 1 - position
    return vertices, ranks


class TestListRanking:
    def test_sequential_list(self, driver, dfs):
        vertices, expected = linked_list(list(range(10)))
        _outcome, values = run_job(
            driver, dfs, list_ranking, list_ranking.build_job(), vertices, "seq"
        )
        assert values == expected

    def test_shuffled_list(self, driver, dfs):
        order = list(range(40))
        random.Random(11).shuffle(order)
        vertices, expected = linked_list(order)
        _outcome, values = run_job(
            driver, dfs, list_ranking, list_ranking.build_job(), vertices, "shuf"
        )
        assert values == expected

    def test_logarithmic_rounds(self, driver, dfs):
        """Pointer jumping finishes in O(log n) rounds, not O(n)."""
        order = list(range(64))
        vertices, _expected = linked_list(order)
        outcome, values = run_job(
            driver, dfs, list_ranking, list_ranking.build_job(), vertices, "log"
        )
        assert values[0] == 63
        # 64-element list: ~6 jump rounds at 2 supersteps each, plus
        # startup/termination; far below the 64 a sequential walk needs.
        assert outcome.supersteps <= 20

    def test_single_vertex(self, driver, dfs):
        vertices, expected = linked_list([5])
        _outcome, values = run_job(
            driver, dfs, list_ranking, list_ranking.build_job(), vertices, "one"
        )
        assert values == {5: 0}

    def test_two_lists(self, driver, dfs):
        first, ranks_a = linked_list([0, 1, 2])
        second, ranks_b = linked_list([10, 11, 12, 13])
        _outcome, values = run_job(
            driver,
            dfs,
            list_ranking,
            list_ranking.build_job(),
            first + second,
            "two",
        )
        assert values == {**ranks_a, **ranks_b}
