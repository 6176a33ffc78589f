"""Lifecycle tests: cleanup, pipeline outcomes, keep_state."""

import pytest

from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank, sssp
from repro.graphs.generators import btc_graph, chain_graph
from repro.graphs.io import write_graph_to_dfs
from repro.pregelix.pipelining import run_pipeline


class TestCleanup:
    def test_cleanup_drops_indexes_and_files(self, cluster, dfs, driver):
        write_graph_to_dfs(dfs, "/in/g", chain_graph(20), num_files=3)
        outcome = driver.run(sssp.build_job(source_id=0), "/in/g", keep_state=True)
        generator = outcome.generator
        registries = [
            node.services.get("indexes", {}) for node in cluster.nodes.values()
        ]
        assert any(registries)  # indexes exist while state is kept
        assert dfs.list_files("/pregelix/%s" % outcome.run_id)
        driver.cleanup(generator)
        for node in cluster.nodes.values():
            registry = node.services.get("indexes", {})
            assert not any(
                key[0].startswith(("vertex:", "vid:", "msg:")) for key in registry
            )
        assert not dfs.list_files("/pregelix/%s" % outcome.run_id)

    def test_default_run_cleans_up(self, cluster, dfs, driver):
        write_graph_to_dfs(dfs, "/in/h", chain_graph(10), num_files=2)
        outcome = driver.run(sssp.build_job(source_id=0), "/in/h")
        assert not hasattr(outcome, "generator")
        for node in cluster.nodes.values():
            assert not node.services.get("indexes")

    def test_repeated_runs_do_not_leak_dfs_state(self, dfs, driver):
        write_graph_to_dfs(dfs, "/in/r", chain_graph(10), num_files=2)
        before = len(dfs.list_files("/pregelix"))
        for _ in range(3):
            driver.run(sssp.build_job(source_id=0), "/in/r")
        assert len(dfs.list_files("/pregelix")) == before


class TestPipelineOutcome:
    def test_total_seconds_and_final_gs(self, driver, dfs):
        write_graph_to_dfs(dfs, "/in/p", btc_graph(80, seed=3), num_files=2)
        outcome = run_pipeline(
            driver,
            [cc.build_job(), cc.build_job()],
            "/in/p",
            parse_line=cc.parse_line,
            format_record=cc.format_record,
        )
        assert outcome.total_seconds > 0
        assert outcome.final_gs.halt
        assert outcome.final_gs.num_vertices == 80

    def test_pipeline_with_loj_jobs(self, driver, dfs):
        """Reactivation must rebuild Vid between left-outer-join jobs."""
        write_graph_to_dfs(dfs, "/in/l", btc_graph(80, seed=9), num_files=2)
        first = sssp.build_job(source_id=0)
        second = sssp.build_job(source_id=5)
        outcome = run_pipeline(
            driver, [first, second], "/in/l", output_path="/out/l"
        )
        # The second job ran from the other source over the same loaded
        # relation; its distances replace the first job's.
        values = {
            int(l.split()[0]): float(l.split()[1])
            for l in driver.read_output("/out/l")
        }
        assert values[5] == 0.0
        assert len(outcome.outcomes) == 2


class TestBoundaryHook:
    def test_hook_gets_every_boundary_and_the_in_memory_gs(self, driver, dfs):
        """One call shape, `hook(superstep, gs)`, before each superstep
        and never after the job's final one."""
        write_graph_to_dfs(dfs, "/in/b", chain_graph(10), num_files=2)
        seen = []
        outcome = driver.run(
            pagerank.build_job(iterations=3), "/in/b",
            boundary_hook=lambda superstep, gs: seen.append(
                (superstep, gs.superstep, gs.halt)
            ),
        )
        assert outcome.supersteps == 3
        assert seen == [(0, 0, False), (1, 1, False), (2, 2, False)]
