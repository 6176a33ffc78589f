"""Multiple partitions per node (the paper's partitions-per-core policy).

The Pregelix scheduler "assigns as many partitions to a selected machine
as the number of its cores" (Section 5.7); the simulated cluster models
cores with ``partitions_per_node``. Everything — sticky placement,
message routing, checkpointing — must hold when each node owns several
vertex partitions.
"""

import pytest

from repro.algorithms import pagerank, sssp
from repro.chaos import FaultPlan, FaultSpec
from repro.graphs.generators import btc_graph, webmap_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver


@pytest.fixture
def multicore_cluster(tmp_path):
    with HyracksCluster(
        num_nodes=2, partitions_per_node=3, root_dir=str(tmp_path / "mc")
    ) as cluster:
        yield cluster


@pytest.fixture
def multicore_driver(multicore_cluster):
    return PregelixDriver(multicore_cluster, multicore_cluster.dfs)


def reference_run(tmp_path_factory, job_factory, vertices):
    root = tmp_path_factory.mktemp("ref")
    with HyracksCluster(num_nodes=2, root_dir=str(root)) as cluster:
        write_graph_to_dfs(cluster.dfs, "/in", iter(vertices), num_files=2)
        driver = PregelixDriver(cluster, cluster.dfs)
        driver.run(job_factory(), "/in", output_path="/out")
        return sorted(driver.read_output("/out"))


def values_of(lines):
    return {int(l.split()[0]): float(l.split()[1]) for l in lines}


def assert_values_close(got, expected):
    got_values = values_of(got)
    expected_values = values_of(expected)
    assert got_values.keys() == expected_values.keys()
    for vid, value in expected_values.items():
        # Message-sum order differs across partition counts; only the
        # last float ulps may move.
        assert got_values[vid] == pytest.approx(value, rel=1e-12)


class TestMultiplePartitionsPerNode:
    def test_six_partitions_on_two_nodes(self, multicore_cluster):
        assert multicore_cluster.num_partitions == 6

    def test_pagerank_matches_single_partition_run(
        self, multicore_driver, tmp_path_factory
    ):
        vertices = list(webmap_graph(200, seed=8))
        write_graph_to_dfs(multicore_driver.dfs, "/in", iter(vertices), num_files=3)
        multicore_driver.run(
            pagerank.build_job(iterations=5), "/in", output_path="/out"
        )
        got = sorted(multicore_driver.read_output("/out"))
        expected = reference_run(
            tmp_path_factory, lambda: pagerank.build_job(iterations=5), vertices
        )
        assert_values_close(got, expected)

    def test_sssp_with_loj_plan(self, multicore_driver, tmp_path_factory):
        vertices = list(btc_graph(150, seed=4))
        write_graph_to_dfs(multicore_driver.dfs, "/in2", iter(vertices), num_files=3)
        multicore_driver.run(
            sssp.build_job(source_id=0), "/in2", output_path="/out2"
        )
        got = sorted(multicore_driver.read_output("/out2"))
        expected = reference_run(
            tmp_path_factory, lambda: sssp.build_job(source_id=0), vertices
        )
        assert got == expected

    def test_recovery_with_multiple_partitions(self, multicore_cluster, multicore_driver, tmp_path_factory):
        vertices = list(btc_graph(120, seed=6))
        write_graph_to_dfs(multicore_driver.dfs, "/in3", iter(vertices), num_files=2)
        expected = reference_run(
            tmp_path_factory,
            lambda: pagerank.build_job(iterations=6),
            vertices,
        )
        multicore_cluster.fault_injector.arm(FaultPlan(
            [FaultSpec("operator.open", node="node1", at_hit=161)]
        ))
        job = pagerank.build_job(iterations=6, checkpoint_interval=2)
        outcome = multicore_driver.run(job, "/in3", output_path="/out3")
        assert outcome.recoveries >= 1
        # All six partitions now live on the surviving node.
        assert_values_close(sorted(multicore_driver.read_output("/out3")), expected)
