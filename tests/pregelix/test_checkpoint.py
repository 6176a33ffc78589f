"""Checkpoint / recovery tests (paper Section 5.5)."""

import os

import pytest

from repro.algorithms import pagerank, sssp
from repro.chaos import FaultPlan, FaultSpec
from repro.common.errors import CheckpointNotFound, JobFailure
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import (
    ConnectorPolicy,
    GroupByStrategy,
    JoinStrategy,
    PregelixDriver,
)
from repro.hyracks.storage.run_file import iter_pairs, pack_pairs
from repro.pregelix.checkpoint import Checkpointer
from repro.pregelix.physical import PartitionMap, PlanGenerator


class TestBlobFraming:
    def test_roundtrip(self):
        pairs = [(b"a", b"1"), (b"bb", b""), (b"", b"payload")]
        assert list(iter_pairs(pack_pairs(pairs))) == pairs

    def test_empty(self):
        assert list(iter_pairs(pack_pairs([]))) == []

    def test_large(self):
        pairs = [(b"%06d" % i, b"v" * (i % 50)) for i in range(2000)]
        assert list(iter_pairs(pack_pairs(pairs))) == pairs


@pytest.fixture
def env(tmp_path):
    cluster = HyracksCluster(num_nodes=3, root_dir=str(tmp_path / "c"))
    write_graph_to_dfs(cluster.dfs, "/in/g", btc_graph(120, seed=5), num_files=3)
    driver = PregelixDriver(cluster, cluster.dfs)
    yield cluster, cluster.dfs, driver
    cluster.close()


def run_reference(tmp_path_factory, job_factory):
    root = tmp_path_factory.mktemp("ref")
    cluster = HyracksCluster(num_nodes=3, root_dir=str(root))
    write_graph_to_dfs(cluster.dfs, "/in/g", btc_graph(120, seed=5), num_files=3)
    driver = PregelixDriver(cluster, cluster.dfs)
    driver.run(job_factory(), "/in/g", output_path="/out/ref")
    lines = sorted(driver.read_output("/out/ref"))
    cluster.close()
    return lines


class TestCheckpointing:
    def test_checkpoints_written_at_interval(self, env):
        cluster, dfs, driver = env
        job = pagerank.build_job(iterations=6, checkpoint_interval=2)
        outcome = driver.run(job, "/in/g", keep_state=True)
        generator = outcome.generator
        checkpointer = Checkpointer(generator, cluster.telemetry)
        assert checkpointer.latest_checkpoint() == 4
        assert dfs.exists(checkpointer.manifest_path(2))
        assert dfs.exists(checkpointer.path(4, "vertex", 0))
        assert dfs.exists(checkpointer.path(4, "msg", 2))
        # Commit leaves no staging debris behind.
        assert not [
            p for p in dfs.list_files(checkpointer.root()) if "/_tmp." in p
        ]
        # Every committed checkpoint passes its own audit.
        assert checkpointer.verify(2) == []
        assert checkpointer.verify(4) == []
        driver.cleanup(generator)

    def test_no_checkpoint_without_interval(self, env):
        cluster, dfs, driver = env
        outcome = driver.run(pagerank.build_job(iterations=4), "/in/g", keep_state=True)
        checkpointer = Checkpointer(outcome.generator, cluster.telemetry)
        assert checkpointer.latest_checkpoint() is None
        driver.cleanup(outcome.generator)

    def test_loj_checkpoint_includes_vid(self, env):
        cluster, dfs, driver = env
        job = sssp.build_job(source_id=0, checkpoint_interval=1)
        outcome = driver.run(job, "/in/g", keep_state=True)
        checkpointer = Checkpointer(outcome.generator, cluster.telemetry)
        latest = checkpointer.latest_checkpoint()
        assert latest is not None
        assert dfs.exists(checkpointer.path(latest, "vid", 0))
        driver.cleanup(outcome.generator)


class TestRecovery:
    def test_results_identical_after_machine_loss(self, env, tmp_path_factory):
        cluster, dfs, driver = env
        expected = run_reference(
            tmp_path_factory, lambda: pagerank.build_job(iterations=8)
        )
        cluster.fault_injector.arm(FaultPlan(
            [FaultSpec("operator.open", node="node1", at_hit=41)]
        ))
        job = pagerank.build_job(iterations=8, checkpoint_interval=2)
        outcome = driver.run(job, "/in/g", output_path="/out/rec")
        assert outcome.recoveries >= 1
        assert "node1" not in cluster.alive_node_ids()
        assert sorted(driver.read_output("/out/rec")) == expected

    def test_loj_plan_recovers(self, env, tmp_path_factory):
        cluster, dfs, driver = env
        expected = run_reference(tmp_path_factory, lambda: sssp.build_job(source_id=0))
        cluster.fault_injector.arm(FaultPlan(
            [FaultSpec("operator.open", node="node2", at_hit=31)]
        ))
        job = sssp.build_job(source_id=0, checkpoint_interval=1)
        outcome = driver.run(job, "/in/g", output_path="/out/rec2")
        assert outcome.recoveries >= 1
        assert sorted(driver.read_output("/out/rec2")) == expected

    def test_failure_without_checkpoint_raises(self, env):
        cluster, dfs, driver = env
        cluster.fault_injector.arm(FaultPlan(
            [FaultSpec("operator.open", node="node0", at_hit=26)]
        ))
        job = pagerank.build_job(iterations=8)  # no checkpoint interval
        with pytest.raises(CheckpointNotFound):
            driver.run(job, "/in/g")

    def test_application_error_not_recovered(self, env):
        cluster, dfs, driver = env
        from repro.pregelix import PregelixJob, Vertex

        class Crash(Vertex):
            def compute(self, messages):
                raise ValueError("application bug")

        job = PregelixJob("crash", Crash, checkpoint_interval=1)
        with pytest.raises(ValueError):
            driver.run(job, "/in/g")

    def test_torn_checkpoint_not_selected(self, env):
        cluster, dfs, driver = env
        outcome = driver.run(
            pagerank.build_job(iterations=6, checkpoint_interval=2),
            "/in/g",
            keep_state=True,
        )
        checkpointer = Checkpointer(outcome.generator, cluster.telemetry)
        # Simulate a torn checkpoint at superstep 6: files but no manifest.
        dfs.write(checkpointer.path(6, "vertex", 0), b"")
        assert 6 not in checkpointer.committed_supersteps()
        assert checkpointer.latest_checkpoint() == 4
        driver.cleanup(outcome.generator)

class TestKillRecoveryAcrossGroupBys:
    """A mid-superstep machine kill must recover under every group-by.

    The paper's four group-by strategies (sender group-by x connector
    policy) buffer in-flight messages differently; recovery must replay
    to the identical fault-free answer for all of them. The kill is
    driven by the chaos injector so it lands *inside* a superstep plan
    (at an operator-clone open), not between supersteps.
    """

    @pytest.mark.parametrize(
        "groupby,connector",
        [
            (GroupByStrategy.SORT, ConnectorPolicy.UNMERGED),
            (GroupByStrategy.SORT, ConnectorPolicy.MERGED),
            (GroupByStrategy.HASHSORT, ConnectorPolicy.UNMERGED),
            (GroupByStrategy.HASHSORT, ConnectorPolicy.MERGED),
        ],
    )
    def test_mid_superstep_kill_recovers(
        self, env, tmp_path_factory, groupby, connector
    ):
        cluster, dfs, driver = env
        expected = run_reference(
            tmp_path_factory,
            lambda: pagerank.build_job(
                iterations=6, groupby_strategy=groupby, connector_policy=connector
            ),
        )
        plan = FaultPlan(
            [
                FaultSpec(
                    site="operator.open",
                    action="kill",
                    node="node1",
                    at_hit=3,
                    min_superstep=3,
                )
            ]
        )
        injector = cluster.fault_injector.arm(plan)
        job = pagerank.build_job(
            iterations=6,
            checkpoint_interval=1,
            groupby_strategy=groupby,
            connector_policy=connector,
        )
        outcome = driver.run(job, "/in/g", output_path="/out/kill")
        assert outcome.recoveries >= 1
        assert [f.action for f in injector.fired] == ["kill"]
        assert injector.fired[0].node == "node1"
        assert "node1" not in cluster.alive_node_ids()
        assert sorted(driver.read_output("/out/kill")) == expected
        # The machine is lost with everything on it: no index or temp
        # file stays behind in its directory, no handle stays open.
        dead = cluster.nodes["node1"]
        assert os.listdir(dead.files.root) == []
        assert not dead.files._paged_files and not dead.services


class TestRecoveryPartitionMap:
    def test_recovery_replaces_partition_map(self, env):
        cluster, dfs, driver = env
        cluster.fault_injector.arm(FaultPlan(
            [FaultSpec("operator.open", node="node1", at_hit=41)]
        ))
        job = pagerank.build_job(iterations=8, checkpoint_interval=2)
        outcome = driver.run(job, "/in/g", keep_state=True)
        locations = outcome.generator.partition_map.locations
        assert "node1" not in locations
        assert len(locations) == 3  # partition count is preserved
        driver.cleanup(outcome.generator)
