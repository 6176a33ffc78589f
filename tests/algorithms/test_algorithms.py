"""Correctness tests for the built-in algorithm library (Section 6)."""

import itertools

import pytest

from repro.algorithms import (
    bfs_spanning_tree,
    graph_cleaning,
    graph_sampling,
    maximal_cliques,
    reachability,
    triangle_counting,
)
from repro.graphs.generators import btc_graph, chain_graph, de_bruijn_path_graph
from repro.graphs.io import format_graph_line, write_graph_to_dfs
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


def run(driver, dfs, module, job, vertices, name):
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
        values[int(fields[0])] = None if fields[1] == "_" else int(fields[1])
    return outcome, values


def undirected_clique(ids):
    """A fully connected undirected vertex set."""
    ids = list(ids)
    return [
        (v, None, [(u, 1.0) for u in ids if u != v])
        for v in ids
    ]


class TestReachability:
    def test_chain_reachability(self, driver, dfs):
        vertices = list(chain_graph(8))
        outcome, values = run(
            driver, dfs, reachability, reachability.build_job(sources=(3,)), vertices, "reach"
        )
        for vid in range(8):
            assert values[vid] == (1 if vid >= 3 else 0)

    def test_multiple_sources(self, driver, dfs):
        vertices = [
            (0, None, [(1, 1.0)]),
            (1, None, []),
            (5, None, [(6, 1.0)]),
            (6, None, []),
            (9, None, []),
        ]
        outcome, values = run(
            driver, dfs, reachability, reachability.build_job(sources=(0, 5)), vertices, "multi"
        )
        assert values == {0: 1, 1: 1, 5: 1, 6: 1, 9: 0}


class TestTriangleCounting:
    def test_single_triangle(self, driver, dfs):
        vertices = undirected_clique([0, 1, 2])
        outcome, values = run(
            driver, dfs, triangle_counting, triangle_counting.build_job(), vertices, "tri1"
        )
        assert outcome.gs.aggregate == 1

    def test_clique_triangle_count(self, driver, dfs):
        n = 6
        vertices = undirected_clique(range(n))
        outcome, _values = run(
            driver, dfs, triangle_counting, triangle_counting.build_job(), vertices, "tri2"
        )
        expected = n * (n - 1) * (n - 2) // 6
        assert outcome.gs.aggregate == expected

    def test_triangle_free_graph(self, driver, dfs):
        vertices = list(chain_graph(10, bidirectional=True))
        outcome, _values = run(
            driver, dfs, triangle_counting, triangle_counting.build_job(), vertices, "tri3"
        )
        assert outcome.gs.aggregate in (None, 0)

    def test_matches_brute_force_on_random_graph(self, driver, dfs):
        vertices = list(btc_graph(60, seed=12))
        adjacency = {vid: {d for d, _w in edges} for vid, _v, edges in vertices}
        expected = 0
        for v, u, w in itertools.combinations(sorted(adjacency), 3):
            if u in adjacency[v] and w in adjacency[v] and w in adjacency[u]:
                expected += 1
        outcome, _values = run(
            driver, dfs, triangle_counting, triangle_counting.build_job(), vertices, "tri4"
        )
        assert (outcome.gs.aggregate or 0) == expected


class TestMaximalCliques:
    def test_single_clique(self, driver, dfs):
        vertices = undirected_clique([0, 1, 2, 3])
        outcome, values = run(
            driver, dfs, maximal_cliques, maximal_cliques.build_job(), vertices, "clique1"
        )
        assert values[0] == 4  # the 4-clique is anchored at its min id
        assert outcome.gs.aggregate == 1

    def test_two_disjoint_triangles(self, driver, dfs):
        vertices = undirected_clique([0, 1, 2]) + undirected_clique([10, 11, 12])
        outcome, values = run(
            driver, dfs, maximal_cliques, maximal_cliques.build_job(), vertices, "clique2"
        )
        assert values[0] == 3
        assert values[10] == 3
        assert outcome.gs.aggregate == 2


class TestBFSSpanningTree:
    def test_chain_parents(self, driver, dfs):
        vertices = list(chain_graph(6, bidirectional=True))
        outcome, values = run(
            driver, dfs, bfs_spanning_tree, bfs_spanning_tree.build_job(root=0), vertices, "bfs"
        )
        assert values[0] == 0
        for vid in range(1, 6):
            assert values[vid] == vid - 1

    def test_parents_form_valid_bfs_tree(self, driver, dfs):
        vertices = list(btc_graph(80, seed=4))
        outcome, values = run(
            driver, dfs, bfs_spanning_tree, bfs_spanning_tree.build_job(root=0), vertices, "bfs2"
        )
        # BFS levels from a reference traversal.
        from collections import deque

        adjacency = {vid: [d for d, _w in edges] for vid, _v, edges in vertices}
        level = {0: 0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    queue.append(v)
        for vid, parent in values.items():
            if vid == 0 or parent == -1:
                continue
            assert level[vid] == level[parent] + 1


class TestGraphSampling:
    def test_sample_is_subset_and_nonempty(self, driver, dfs):
        vertices = list(btc_graph(100, seed=3))
        job = graph_sampling.build_job(num_walkers=10, walk_length=8, seed=1)
        outcome, values = run(driver, dfs, graph_sampling, job, vertices, "sample")
        visited = {vid for vid, flag in values.items() if flag}
        assert 0 < len(visited) < 100

    def test_walk_terminates(self, driver, dfs):
        vertices = list(chain_graph(20))
        job = graph_sampling.build_job(num_walkers=3, walk_length=5, seed=2)
        outcome, _values = run(driver, dfs, graph_sampling, job, vertices, "sample2")
        assert outcome.supersteps <= 7


class TestPathMerging:
    def test_single_chain_merges_fully(self, driver, dfs):
        vertices = list(chain_graph(9))
        outcome, values = run(
            driver, dfs, graph_cleaning, graph_cleaning.build_job(), vertices, "merge1"
        )
        assert len(values) == 1
        assert list(values.values()) == [9]

    def test_total_length_preserved(self, driver, dfs):
        vertices = list(de_bruijn_path_graph(5, 6, seed=2))
        total = len(vertices)
        outcome, values = run(
            driver, dfs, graph_cleaning, graph_cleaning.build_job(), vertices, "merge2"
        )
        assert sum(values.values()) == total
        assert len(values) < total

    def test_branching_vertex_blocks_merge(self, driver, dfs):
        # 0 -> 1 and 2 -> 1: vertex 1 has two predecessors, so only the
        # tail merge below it may happen; 1 itself must survive.
        vertices = [
            (0, None, [(1, 1.0)]),
            (2, None, [(1, 1.0)]),
            (1, None, [(3, 1.0)]),
            (3, None, []),
        ]
        outcome, values = run(
            driver, dfs, graph_cleaning, graph_cleaning.build_job(), vertices, "merge3"
        )
        assert sum(values.values()) == 4
        assert 0 in values and 2 in values  # branch sources never merge away
