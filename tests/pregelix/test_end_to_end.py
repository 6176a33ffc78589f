"""End-to-end Pregelix runs checked against independent references."""

import itertools
import math

import pytest

from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank, sssp
from repro.common import serde
from repro.graphs.generators import btc_graph, chain_graph, star_graph, webmap_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.storage.lsm_btree import LSMBTree
from repro.pregelix import (
    ConnectorPolicy,
    GroupByStrategy,
    JoinStrategy,
    PregelixJob,
    Vertex,
    VertexStorage,
)
from repro.pregelix.api import GlobalAggregator


def reference_sssp(vertices, source):
    """Dijkstra over the same (vid, value, edges) tuples."""
    import heapq

    graph = {vid: edges for vid, _value, edges in vertices}
    dist = {vid: math.inf for vid in graph}
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in graph.get(u, []):
            if v in dist and d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def reference_components(vertices):
    """Union-find over undirected edges."""
    parent = {vid: vid for vid, _v, _e in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for vid, _value, edges in vertices:
        for dest, _w in edges:
            if dest in parent:
                ra, rb = find(vid), find(dest)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    return {vid: find(vid) for vid in parent}


def reference_pagerank(vertices, iterations, damping=0.85):
    graph = {vid: [d for d, _w in edges] for vid, _value, edges in vertices}
    n = len(graph)
    ranks = {vid: 1.0 / n for vid in graph}
    for _ in range(iterations - 1):
        incoming = {vid: 0.0 for vid in graph}
        for vid, targets in graph.items():
            if targets:
                share = ranks[vid] / len(targets)
                for t in targets:
                    if t in incoming:
                        incoming[t] += share
        ranks = {vid: (1 - damping) / n + damping * incoming[vid] for vid in graph}
    return ranks


class TestSSSP:
    def test_chain_distances(self, driver, dfs):
        vertices = list(chain_graph(12))
        write_graph_to_dfs(dfs, "/in/chain", iter(vertices), num_files=3)
        outcome = driver.run(sssp.build_job(source_id=0), "/in/chain", output_path="/out/c")
        got = _read_values(driver, "/out/c")
        assert got == {vid: float(vid) for vid in range(12)}

    def test_matches_dijkstra_on_random_graph(self, driver, dfs):
        vertices = list(btc_graph(150, seed=3))
        write_graph_to_dfs(dfs, "/in/rand", iter(vertices), num_files=3)
        outcome = driver.run(sssp.build_job(source_id=0), "/in/rand", output_path="/out/r")
        expected = reference_sssp(vertices, 0)
        got = _read_values(driver, "/out/r")
        for vid, dist in expected.items():
            if math.isinf(dist):
                assert math.isinf(got[vid])
            else:
                assert got[vid] == pytest.approx(dist)

    def test_unreachable_vertices_stay_infinite(self, driver, dfs):
        lines = [(0, None, [(1, 1.0)]), (1, None, []), (5, None, [(6, 2.0)]), (6, None, [])]
        write_graph_to_dfs(dfs, "/in/two", iter(lines), num_files=2)
        driver.run(sssp.build_job(source_id=0), "/in/two", output_path="/out/two")
        got = _read_values(driver, "/out/two")
        assert got[1] == 1.0
        assert math.isinf(got[5]) and math.isinf(got[6])


class TestPageRank:
    def test_ranks_sum_to_one(self, driver, dfs):
        write_graph_to_dfs(dfs, "/in/web", webmap_graph(150, seed=1), num_files=3)
        driver.run(pagerank.build_job(iterations=5), "/in/web", output_path="/out/pr")
        got = _read_values(driver, "/out/pr")
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-6)

    def test_matches_reference_implementation(self, driver, dfs):
        vertices = list(webmap_graph(120, seed=4))
        write_graph_to_dfs(dfs, "/in/web2", iter(vertices), num_files=3)
        driver.run(pagerank.build_job(iterations=6), "/in/web2", output_path="/out/pr2")
        expected = reference_pagerank(vertices, 6)
        got = _read_values(driver, "/out/pr2")
        for vid, rank in expected.items():
            assert got[vid] == pytest.approx(rank, abs=1e-9)

    def test_star_graph_hub_dominates(self, driver, dfs):
        write_graph_to_dfs(dfs, "/in/star", star_graph(20), num_files=2)
        driver.run(pagerank.build_job(iterations=8), "/in/star", output_path="/out/star")
        got = _read_values(driver, "/out/star")
        assert got[0] == max(got.values())


class TestConnectedComponents:
    def test_matches_union_find(self, driver, dfs):
        vertices = list(btc_graph(200, seed=9))
        write_graph_to_dfs(dfs, "/in/btc", iter(vertices), num_files=3)
        driver.run(
            cc.build_job(),
            "/in/btc",
            output_path="/out/cc",
            parse_line=cc.parse_line,
            format_record=cc.format_record,
        )
        expected = reference_components(vertices)
        got = {int(l.split()[0]): int(l.split()[1]) for l in driver.read_output("/out/cc")}
        assert got == expected

    def test_lsm_full_scans_retire_the_bulk_load(self, cluster, driver, dfs):
        """Superstep 1 rewrites every vertex, so superstep 2's full-outer
        join scan proves each partition's loaded component dead and
        retires it; the output is the B-tree run's."""
        write_graph_to_dfs(dfs, "/in/lsm", btc_graph(200, seed=9), num_files=3)
        components = {}

        def look(superstep, gs):
            components[superstep] = [
                index.num_disk_components
                for node in cluster.nodes.values()
                for index in node.services.get("indexes", {}).values()
                if isinstance(index, LSMBTree)
            ]

        outputs = []
        for storage in (VertexStorage.LSM_BTREE, VertexStorage.BTREE):
            out = "/out/cc-%s" % storage.value
            driver.run(cc.build_job(vertex_storage=storage), "/in/lsm", output_path=out,
                       boundary_hook=look if storage is VertexStorage.LSM_BTREE else None)
            outputs.append(sorted(driver.read_output(out)))
        assert components[1] == [1, 1, 1]
        assert components[2] == [0, 0, 0]
        assert outputs[0] == outputs[1]


class TestPlanEquivalence:
    """All sixteen physical plans must produce identical results."""

    @pytest.mark.parametrize(
        "join_strategy,groupby_strategy",
        list(itertools.product(JoinStrategy, GroupByStrategy)),
    )
    def test_join_and_groupby_combos(self, driver, dfs, join_strategy, groupby_strategy):
        vertices = list(btc_graph(80, seed=6))
        path = "/in/plan-%s-%s" % (join_strategy.name, groupby_strategy.name)
        write_graph_to_dfs(dfs, path, iter(vertices), num_files=3)
        results = []
        for connector_policy in ConnectorPolicy:
            for storage in VertexStorage:
                job = sssp.build_job(
                    source_id=0,
                    join_strategy=join_strategy,
                    groupby_strategy=groupby_strategy,
                    connector_policy=connector_policy,
                    vertex_storage=storage,
                )
                out = "/out/%s-%s-%s" % (path.strip("/"), connector_policy.name, storage.name)
                driver.run(job, path, output_path=out)
                results.append(tuple(sorted(driver.read_output(out))))
        assert len(set(results)) == 1
        expected = reference_sssp(vertices, 0)
        got = _read_values_from_lines(results[0])
        for vid, dist in expected.items():
            if not math.isinf(dist):
                assert got[vid] == pytest.approx(dist)


class MessageToGhostVertex(Vertex):
    """Sends a message to a vertex that does not exist (left-outer case)."""

    def compute(self, messages):
        if self.superstep == 1:
            self.value = 0.0
            if self.vertex_id == 0:
                self.send_message(999, 7.0)
        else:
            incoming = list(messages)
            if incoming:
                self.value = incoming[0]
        self.vote_to_halt()


class TestPregelSemantics:
    def test_message_to_missing_vertex_creates_it(self, driver, dfs):
        write_graph_to_dfs(dfs, "/in/ghost", chain_graph(3), num_files=2)
        job = PregelixJob("ghost", MessageToGhostVertex)
        driver.run(job, "/in/ghost", output_path="/out/ghost")
        got = _read_values(driver, "/out/ghost")
        assert 999 in got  # auto-created with NULL fields, then computed
        assert got[999] == 7.0

    def test_num_vertices_includes_created(self, driver, dfs):
        write_graph_to_dfs(dfs, "/in/ghost2", chain_graph(3), num_files=2)
        job = PregelixJob("ghost2", MessageToGhostVertex)
        outcome = driver.run(job, "/in/ghost2")
        assert outcome.gs.num_vertices == 4

    def test_halted_vertex_reactivated_by_message(self, driver, dfs):
        class WakeUp(Vertex):
            def compute(self, messages):
                if self.superstep == 1:
                    self.value = 0.0
                    if self.vertex_id == 0:
                        self.send_message(1, 1.0)
                else:
                    self.value = (self.value or 0.0) + sum(messages)
                self.vote_to_halt()

        write_graph_to_dfs(dfs, "/in/wake", chain_graph(2), num_files=1)
        job = PregelixJob("wake", WakeUp)
        outcome = driver.run(job, "/in/wake", output_path="/out/wake")
        got = _read_values(driver, "/out/wake")
        assert got[1] == 1.0
        assert outcome.supersteps == 2

    def test_max_supersteps_caps_execution(self, driver, dfs):
        class Forever(Vertex):
            def compute(self, messages):
                self.value = float(self.superstep)
                self.send_message_to_all_edges(1.0)

        write_graph_to_dfs(dfs, "/in/loop", chain_graph(4, bidirectional=True), num_files=2)
        job = PregelixJob("forever", Forever, max_supersteps=5)
        outcome = driver.run(job, "/in/loop")
        assert outcome.supersteps == 5


class VoteCountAggregator(GlobalAggregator):
    def init(self):
        return 0.0

    def accumulate(self, state, contribution):
        return state + contribution

    def merge(self, left, right):
        return left + right

    def value_serde(self):
        return serde.FLOAT64


class TestGlobalAggregation:
    def test_aggregate_visible_next_superstep(self, driver, dfs):
        observed = []

        class Contributor(Vertex):
            def compute(self, messages):
                if self.superstep == 1:
                    self.value = 0.0
                    self.aggregate(1.0)
                    self.send_message(self.vertex_id, 0.0)  # stay alive
                elif self.superstep == 2:
                    observed.append(self.global_aggregate)
                    list(messages)
                self.vote_to_halt()

        write_graph_to_dfs(dfs, "/in/agg", chain_graph(5), num_files=2)
        job = PregelixJob("agg", Contributor, aggregator=VoteCountAggregator())
        driver.run(job, "/in/agg")
        assert observed == [5.0] * 5


class TestStatistics:
    def test_superstep_stats_recorded(self, driver, dfs):
        write_graph_to_dfs(dfs, "/in/st", chain_graph(10), num_files=2)
        outcome = driver.run(sssp.build_job(source_id=0), "/in/st")
        assert outcome.stats.num_supersteps == outcome.supersteps
        assert outcome.stats.total_messages_sent >= 9
        assert outcome.stats.avg_iteration_seconds > 0
        assert outcome.stats.live_machines  # cluster snapshot happened

    def test_gs_tracks_counts(self, driver, dfs):
        vertices = list(chain_graph(10))
        write_graph_to_dfs(dfs, "/in/cnt", iter(vertices), num_files=2)
        outcome = driver.run(sssp.build_job(source_id=0), "/in/cnt")
        assert outcome.gs.num_vertices == 10
        assert outcome.gs.num_edges == 9


def _read_values(driver, path):
    return _read_values_from_lines(driver.read_output(path))


def _read_values_from_lines(lines):
    values = {}
    for line in lines:
        fields = line.split()
        values[int(fields[0])] = float(fields[1]) if fields[1] != "_" else None
    return values
