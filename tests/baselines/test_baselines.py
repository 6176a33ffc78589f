"""Tests for the process-centric baseline engines.

Two things matter: (1) every engine computes the same answers as
Pregelix (they run the same vertex programs), and (2) each engine's
memory model fails in the architecture-specific order the paper
observed — Hama/GraphLab first, then Giraph, while Pregelix survives.
"""

import math

import pytest

from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank, sssp
from repro.baselines import (
    GiraphLikeEngine,
    GraphLabLikeEngine,
    GraphXLikeEngine,
    HamaLikeEngine,
)
from repro.common.errors import MemoryBudgetExceeded, ReproError
from repro.graphs.generators import btc_graph, chain_graph, webmap_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hdfs import MiniDFS

BIG = 64 << 20

ENGINE_FACTORIES = [
    ("giraph-mem", lambda n, b: GiraphLikeEngine(n, b, mode="mem")),
    ("giraph-ooc", lambda n, b: GiraphLikeEngine(n, b, mode="ooc")),
    ("graphlab", lambda n, b: GraphLabLikeEngine(n, b)),
    ("hama", lambda n, b: HamaLikeEngine(n, b)),
    ("graphx", lambda n, b: GraphXLikeEngine(n, b)),
]


@pytest.fixture(scope="module")
def dfs():
    dfs = MiniDFS(datanodes=["n0", "n1", "n2"])
    write_graph_to_dfs(dfs, "/in/btc", btc_graph(120, seed=2), num_files=3)
    write_graph_to_dfs(dfs, "/in/web", webmap_graph(150, seed=1), num_files=3)
    write_graph_to_dfs(dfs, "/in/chain", chain_graph(15), num_files=2)
    return dfs


class TestSemanticEquivalence:
    @pytest.mark.parametrize("name,factory", ENGINE_FACTORIES)
    def test_sssp_distances(self, dfs, name, factory):
        outcome = factory(3, BIG).run(sssp.build_job(source_id=0), dfs, "/in/chain")
        for vid in range(15):
            assert outcome.vertices[vid] == pytest.approx(float(vid))

    @pytest.mark.parametrize("name,factory", ENGINE_FACTORIES)
    def test_pagerank_matches_across_engines(self, dfs, name, factory):
        reference = GiraphLikeEngine(3, BIG).run(
            pagerank.build_job(iterations=5), dfs, "/in/web"
        )
        outcome = factory(3, BIG).run(pagerank.build_job(iterations=5), dfs, "/in/web")
        for vid, rank in reference.vertices.items():
            assert outcome.vertices[vid] == pytest.approx(rank, abs=1e-12)

    @pytest.mark.parametrize("name,factory", ENGINE_FACTORIES)
    def test_cc_labels(self, dfs, name, factory):
        outcome = factory(3, BIG).run(
            cc.build_job(), dfs, "/in/btc", parse_line=cc.parse_line
        )
        # Each component's label must be the component's minimum vid.
        labels = outcome.vertices
        assert all(labels[vid] <= vid for vid in labels)

    def test_matches_pregelix_output(self, dfs, tmp_path):
        from repro.hyracks.engine import HyracksCluster
        from repro.pregelix import PregelixDriver

        with HyracksCluster(num_nodes=3, root_dir=str(tmp_path / "c")) as cluster:
            pdfs = cluster.dfs
            write_graph_to_dfs(pdfs, "/in/btc", btc_graph(120, seed=2), num_files=3)
            driver = PregelixDriver(cluster, pdfs)
            driver.run(sssp.build_job(source_id=0), "/in/btc", output_path="/out/px")
            px = {}
            for line in driver.read_output("/out/px"):
                fields = line.split()
                px[int(fields[0])] = float(fields[1])
        outcome = GiraphLikeEngine(3, BIG).run(sssp.build_job(source_id=0), dfs, "/in/btc")
        for vid, dist in px.items():
            if math.isinf(dist):
                assert math.isinf(outcome.vertices[vid])
            else:
                assert outcome.vertices[vid] == pytest.approx(dist)


    @pytest.mark.parametrize("name,factory", ENGINE_FACTORIES)
    def test_a_parser_may_skip_lines(self, name, factory):
        """``parse_line`` answering ``None`` skips the line, as the
        Pregelix scan does."""
        from repro.graphs.io import format_graph_line, parse_adjacency_line

        def skip_comments(line):
            return None if line.startswith("#") else parse_adjacency_line(line)

        cdfs = MiniDFS(datanodes=["n0"])
        lines = ["# a chain of 6"] + [format_graph_line(*row) for row in chain_graph(6)]
        cdfs.write_text_lines("/in/commented/part-0", lines)
        outcome = factory(2, BIG).run(
            sssp.build_job(source_id=0), cdfs, "/in/commented", parse_line=skip_comments
        )
        assert outcome.vertices == {vid: float(vid) for vid in range(6)}


class TestMemoryModels:
    def find_failure_budget(self, factory, dfs, path, job_factory, budgets):
        """Largest budget (from the sorted list) at which the engine dies."""
        failing = 0
        for budget in budgets:
            try:
                factory(3, budget).run(job_factory(), dfs, path, parse_line=None)
            except MemoryBudgetExceeded:
                failing = budget
        return failing

    def test_each_engine_oome_under_pressure(self, dfs):
        for name, factory in ENGINE_FACTORIES:
            with pytest.raises(MemoryBudgetExceeded):
                factory(3, 8_000).run(
                    pagerank.build_job(iterations=5), dfs, "/in/web"
                )

    def test_failure_threshold_ordering(self, dfs):
        """GraphX/Hama/GraphLab die at larger budgets than Giraph-mem.

        (A larger failing budget = fails on smaller datasets, the paper's
        ordering on the x-axis of Figure 10.)
        """
        budgets = [8_000, 16_000, 32_000, 64_000, 128_000, 256_000, 512_000]
        thresholds = {}
        for name, factory in ENGINE_FACTORIES:
            thresholds[name] = self.find_failure_budget(
                factory, dfs, "/in/web", lambda: pagerank.build_job(iterations=5), budgets
            )
        assert thresholds["hama"] >= thresholds["giraph-mem"]
        assert thresholds["graphlab"] >= thresholds["giraph-mem"]
        assert thresholds["graphx"] >= thresholds["giraph-mem"]

    def test_giraph_ooc_outlives_mem_on_vertex_heavy_data(self, dfs):
        """Spilled vertices buy ooc mode headroom over mem mode."""
        budgets = [8_000, 16_000, 32_000, 64_000, 128_000]
        mem_fail = self.find_failure_budget(
            lambda n, b: GiraphLikeEngine(n, b, mode="mem"),
            dfs,
            "/in/btc",
            lambda: sssp.build_job(source_id=0),
            budgets,
        )
        ooc_fail = self.find_failure_budget(
            lambda n, b: GiraphLikeEngine(n, b, mode="ooc"),
            dfs,
            "/in/btc",
            lambda: sssp.build_job(source_id=0),
            budgets,
        )
        assert ooc_fail <= mem_fail

    def test_failed_budget_reports_component(self, dfs):
        with pytest.raises(MemoryBudgetExceeded) as info:
            GiraphLikeEngine(3, 8_000).run(sssp.build_job(), dfs, "/in/btc")
        assert info.value.budget == 8_000

    def test_peak_memory_reported(self, dfs):
        outcome = GiraphLikeEngine(3, BIG).run(sssp.build_job(), dfs, "/in/chain")
        assert 0 < outcome.peak_memory_bytes < BIG


class TestOutcomeAccounting:
    def test_superstep_timing(self, dfs):
        outcome = GiraphLikeEngine(3, BIG).run(sssp.build_job(), dfs, "/in/chain")
        assert len(outcome.superstep_seconds) == outcome.supersteps
        assert outcome.total_seconds >= outcome.load_seconds
        assert outcome.avg_iteration_seconds > 0

    def test_max_supersteps_respected(self, dfs):
        outcome = GiraphLikeEngine(3, BIG).run(
            sssp.build_job(source_id=0), dfs, "/in/chain", max_supersteps=3
        )
        assert outcome.supersteps == 3

    def test_aggregate_surfaced(self, dfs):
        from repro.algorithms import triangle_counting as tri

        write_graph_to_dfs(
            dfs,
            "/in/tri",
            iter(
                [
                    (0, None, [(1, 1.0), (2, 1.0)]),
                    (1, None, [(0, 1.0), (2, 1.0)]),
                    (2, None, [(0, 1.0), (1, 1.0)]),
                ]
            ),
            num_files=1,
        )
        outcome = GiraphLikeEngine(2, BIG).run(
            tri.build_job(), dfs, "/in/tri", parse_line=tri.parse_line
        )
        assert outcome.aggregate == 1

    @pytest.mark.parametrize("name,factory", ENGINE_FACTORIES)
    def test_mutations_supported(self, dfs, name, factory):
        """Mutations are applied, or refused loudly — never dropped."""
        from repro.algorithms import graph_cleaning as gc

        write_graph_to_dfs(dfs, "/in/path", chain_graph(8), num_files=2)
        engine = factory(2, BIG)
        if engine.built_at_load:
            with pytest.raises(ReproError, match=r"%s .* superstep \d+" % name):
                engine.run(gc.build_job(), dfs, "/in/path", parse_line=gc.parse_line)
            return
        outcome = engine.run(gc.build_job(), dfs, "/in/path", parse_line=gc.parse_line)
        assert list(outcome.vertices.values()) == [8]
        assert outcome.supersteps == 29
