"""Tests for the Euler tour / pre-ordering composition (Section 6)."""

import random

import pytest

from repro.algorithms.euler_tour import (
    build_arc_graph,
    compute_preorder,
    preorder_from_ranks,
)
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver


def undirected_tree(parent_of):
    """Tree from ``{child: parent}``; returns (vid, value, edges) tuples."""
    adjacency = {}
    vertices = set(parent_of) | set(parent_of.values())
    for vertex in vertices:
        adjacency[vertex] = set()
    for child, parent in parent_of.items():
        adjacency[child].add(parent)
        adjacency[parent].add(child)
    return [
        (vertex, None, [(n, 1.0) for n in sorted(neighbors)])
        for vertex, neighbors in sorted(adjacency.items())
    ]


def reference_preorder(tree_vertices, root):
    """Recursive DFS visiting children in sorted adjacency order."""
    adjacency = {vid: [d for d, _w in edges] for vid, _v, edges in tree_vertices}
    order = {}
    stack = [root]
    seen = {root}
    while stack:
        vertex = stack.pop()
        order[vertex] = len(order)
        for neighbor in reversed(sorted(adjacency[vertex])):
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return order


class TestArcGraph:
    def test_path_tree_arcs(self):
        tree = undirected_tree({1: 0, 2: 1})
        arc_vertices, arcs, start = build_arc_graph(tree, root=0)
        assert len(arcs) == 4  # two undirected edges -> four arcs
        # Exactly one arc has no successor (the broken cycle end).
        tails = [vid for vid, _v, edges in arc_vertices if not edges]
        assert len(tails) == 1
        assert arcs[start] == (0, 1)

    def test_tour_visits_every_arc_once(self):
        tree = undirected_tree({1: 0, 2: 0, 3: 1, 4: 1})
        arc_vertices, arcs, start = build_arc_graph(tree, root=0)
        successor = {vid: edges[0][0] if edges else None for vid, _v, edges in arc_vertices}
        visited = []
        arc = start
        while arc is not None:
            visited.append(arc)
            arc = successor[arc]
        assert sorted(visited) == sorted(arcs)

    def test_single_vertex_tree(self):
        arc_vertices, arcs, start = build_arc_graph([(0, None, [])], root=0)
        assert arc_vertices == [] and arcs == {} and start is None

    def test_unknown_root_rejected(self):
        with pytest.raises(ValueError):
            build_arc_graph([(0, None, [])], root=9)


class TestPreorderMath:
    def test_manual_path(self):
        # Tree 0-1-2: tour (0,1)(1,2)(2,1)(1,0); ranks: end at (1,0).
        tree = undirected_tree({1: 0, 2: 1})
        _arc_vertices, arcs, _start = build_arc_graph(tree, root=0)
        # positions: rank r -> position (n-1-r)
        ranks = {}
        order = [(0, 1), (1, 2), (2, 1), (1, 0)]
        ids = {arc: aid for aid, arc in arcs.items()}
        for position, arc in enumerate(order):
            ranks[ids[arc]] = len(order) - 1 - position
        preorder = preorder_from_ranks(ranks, arcs, root=0)
        assert preorder == {0: 0, 1: 1, 2: 2}


@pytest.fixture
def driver(tmp_path):
    with HyracksCluster(num_nodes=2, root_dir=str(tmp_path / "c")) as cluster:
        yield PregelixDriver(cluster, cluster.dfs)


class TestEndToEnd:
    def test_path_tree(self, driver):
        tree = undirected_tree({1: 0, 2: 1, 3: 2})
        preorder = compute_preorder(driver, tree, root=0)
        assert preorder == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_branching_tree(self, driver):
        tree = undirected_tree({1: 0, 2: 0, 3: 1, 4: 1, 5: 2})
        preorder = compute_preorder(driver, tree, root=0)
        assert preorder == reference_preorder(tree, 0)

    def test_random_tree_matches_dfs(self, driver):
        rng = random.Random(13)
        parent_of = {child: rng.randrange(child) for child in range(1, 40)}
        tree = undirected_tree(parent_of)
        preorder = compute_preorder(driver, tree, root=0)
        assert preorder == reference_preorder(tree, 0)

    def test_nonzero_root(self, driver):
        tree = undirected_tree({0: 1, 2: 1})
        preorder = compute_preorder(driver, tree, root=1, workspace="/euler2")
        assert preorder[1] == 0
        assert preorder == reference_preorder(tree, 1)

    def test_single_vertex(self, driver):
        assert compute_preorder(driver, [(7, None, [])], root=7) == {7: 0}
