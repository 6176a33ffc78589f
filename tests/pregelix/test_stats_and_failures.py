"""Tests for the statistics report and failure-kind handling."""

import pytest

from repro.algorithms import pagerank, sssp
from repro.chaos import FaultPlan, FaultSpec
from repro.common.errors import WorkerFailure
from repro.graphs.generators import btc_graph, chain_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver
from repro.pregelix.failure import FailureManager


class TestStatsReport:
    def test_report_prints_superstep_rows(self, driver, dfs):
        write_graph_to_dfs(dfs, "/in/g", chain_graph(10), num_files=2)
        outcome = driver.run(sssp.build_job(source_id=0), "/in/g")
        lines = []
        outcome.stats.report(out=lines.append)
        assert "superstep" in lines[0]
        assert len(lines) >= outcome.supersteps + 1
        assert any("live machines" in line for line in lines)

    def test_report_includes_optimizer_trace(self, driver, dfs):
        write_graph_to_dfs(dfs, "/in/o", chain_graph(20), num_files=2)
        job = sssp.build_job(source_id=0, auto_optimize=True)
        outcome = driver.run(job, "/in/o")
        lines = []
        outcome.stats.report(out=lines.append)
        assert any(line.startswith("plan ss") for line in lines)

    def test_optimizer_lines_name_the_whole_plan(self, tmp_path):
        """Each ``plan ssN:`` line spells join/groupby/connector, so a
        group-by switch the optimizer makes shows in the report."""
        with HyracksCluster(num_nodes=2, root_dir=str(tmp_path / "two")) as cluster:
            write_graph_to_dfs(cluster.dfs, "/in/b", btc_graph(300), num_files=2)
            job = sssp.build_job(source_id=0, auto_optimize=True)
            outcome = PregelixDriver(cluster, cluster.dfs).run(job, "/in/b")
        lines = []
        outcome.stats.report(out=lines.append)
        plans = [line.split()[2] for line in lines if line.startswith("plan ss")]
        assert {plan.count("/") for plan in plans} == {2}
        assert any(plan.split("/")[1] == "hashsort" for plan in plans)


class TestFailureKinds:
    def test_io_failure_is_recoverable(self, cluster, dfs, driver):
        write_graph_to_dfs(dfs, "/in/g", btc_graph(120, seed=5), num_files=3)
        cluster.fault_injector.arm(FaultPlan(
            [FaultSpec("operator.open", action="io", node="node1", at_hit=41)]
        ))
        job = pagerank.build_job(iterations=6, checkpoint_interval=2)
        outcome = driver.run(job, "/in/g")
        assert outcome.recoveries >= 1
        assert "node1" not in cluster.alive_node_ids()

    def test_unknown_kind_is_forwarded(self, cluster, dfs, driver):
        """A worker failure of a kind the manager does not recover is
        forwarded to the user, even with a checkpoint to replay from."""
        from repro.common.errors import JobFailure
        from repro.pregelix import PregelixJob, Vertex

        class CosmicRays(Vertex):
            def compute(self, messages):
                if self.superstep == 3:
                    raise WorkerFailure("node0", kind="cosmic-rays")

        write_graph_to_dfs(dfs, "/in/h", btc_graph(120, seed=5), num_files=3)
        job = PregelixJob("cosmic-rays", CosmicRays, checkpoint_interval=2)
        with pytest.raises(JobFailure) as caught:
            driver.run(job, "/in/h")
        assert caught.value.cause.kind == "cosmic-rays"

    def test_blacklist_excluded_from_healthy(self, cluster):
        from repro.common.errors import JobFailure

        manager = FailureManager(cluster)
        failure = JobFailure("x", cause=WorkerFailure("node2"))
        manager.record(failure)
        assert "node2" in manager.blacklist
        assert "node2" not in manager.healthy_nodes()


class TestUnattributedFailures:
    """record() must tolerate failures whose cause has no node_id."""

    def test_record_without_node_id_returns_none(self, cluster):
        from repro.common.errors import JobFailure

        manager = FailureManager(cluster)
        assert manager.record(JobFailure("boom", cause=ValueError("app bug"))) is None
        assert manager.blacklist == set()
        assert sorted(manager.healthy_nodes()) == sorted(cluster.alive_node_ids())

    def test_record_without_cause_returns_none(self, cluster):
        from repro.common.errors import JobFailure

        manager = FailureManager(cluster)
        assert manager.record(JobFailure("no cause at all")) is None
        assert manager.record(ValueError("not even a JobFailure")) is None
        assert manager.blacklist == set()

    def test_unattributed_failure_emits_telemetry_event(self, cluster):
        from repro.common.errors import JobFailure

        manager = FailureManager(cluster)
        manager.record(JobFailure("boom", cause=ValueError("app bug")))
        events = cluster.telemetry.events.snapshot(name="failure.unattributed")
        assert len(events) == 1
        assert "boom" in events[0].args["error"]

    def test_attributed_failure_still_blacklists(self, cluster):
        from repro.common.errors import JobFailure

        manager = FailureManager(cluster)
        failure = JobFailure("x", cause=WorkerFailure("node1", kind="io"))
        assert manager.record(failure) == "node1"
        assert "node1" in manager.blacklist
        assert not cluster.telemetry.events.snapshot(name="failure.unattributed")
