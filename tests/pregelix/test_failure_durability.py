"""Unit tests for the durability substrate: retry, liveness, classes."""

import pytest

from repro.common.errors import JobFailure, TransientIOError, WorkerFailure
from repro.hdfs.retry import RetryPolicy, failure_cause, is_transient
from repro.hyracks.engine import HyracksCluster
from repro.pregelix.failure import FailureManager, failure_kind
from repro.telemetry import Telemetry


@pytest.fixture
def cluster(tmp_path):
    with HyracksCluster(num_nodes=3, root_dir=str(tmp_path / "c")) as c:
        yield c


class TestClassification:
    def test_failure_cause_unwraps_job_failure(self):
        worker = WorkerFailure("node1", kind="io")
        assert failure_cause(JobFailure("boom", cause=worker)) is worker
        assert failure_cause(worker) is worker
        assert failure_cause(ValueError("app bug")) is None
        assert failure_cause(JobFailure("no cause")) is None

    def test_is_transient(self):
        assert is_transient(TransientIOError("node0", site="dfs.write"))
        assert is_transient(
            JobFailure("x", cause=TransientIOError("node0", site="dfs.write"))
        )
        assert not is_transient(WorkerFailure("node0", kind="io"))
        assert not is_transient(ValueError("nope"))

    @pytest.mark.parametrize("error, kind", [
        (JobFailure("t", cause=TransientIOError("node0")), "transient"),
        (TransientIOError("node0", site="dfs.write"), "transient"),
        (JobFailure("m", cause=WorkerFailure("node1")), "recoverable"),
        (JobFailure("m", cause=WorkerFailure("node1", kind="interruption")), "recoverable"),
        (JobFailure("d", cause=WorkerFailure("node1", kind="io")), "recoverable"),
        (WorkerFailure("node1", kind="io"), "recoverable"),
        (JobFailure("a", cause=WorkerFailure("node1", kind="application")), "fatal"),
        (JobFailure("c", cause=WorkerFailure("node0", kind="cosmic-rays")), "fatal"),
        (JobFailure("v", cause=ValueError()), "fatal"),
        (JobFailure("no cause"), "fatal"),
        (ValueError("app bug"), "fatal"),
    ])
    def test_failure_kind(self, error, kind):
        """The one classifier the driver and the serve tier share."""
        assert failure_kind(error) == kind

    def test_exhausted_transient_recovers_without_blacklist(self, cluster):
        manager = FailureManager(cluster)
        failure = JobFailure(
            "flaky", cause=TransientIOError("node2", site="dfs.write")
        )
        assert manager.record(failure) is None
        assert manager.blacklist == set()
        assert "node2" in cluster.alive_node_ids()  # machine kept
        events = cluster.telemetry.events.snapshot(name="failure.transient_exhausted")
        assert len(events) == 1
        assert events[0].args["site"] == "dfs.write"

    def test_suspect_blacklists_and_kills_once(self, cluster):
        manager = FailureManager(cluster)
        manager.suspect("node1", reason="heartbeat")
        manager.suspect("node1", reason="heartbeat")  # idempotent
        assert manager.blacklist == {"node1"}
        assert "node1" not in cluster.alive_node_ids()
        events = cluster.telemetry.events.snapshot(name="failure.blacklist")
        assert len(events) == 1
        assert events[0].args["kind"] == "heartbeat"

    def test_record_blames_a_machine_once(self, cluster):
        """A task failure on a machine a superstep boundary already
        blamed is the same machine loss, counted once."""
        manager = FailureManager(cluster)
        manager.record(JobFailure("m", cause=WorkerFailure("node2", kind="io")))
        manager.suspect("node1", reason="heartbeat")
        manager.record(JobFailure("m", cause=WorkerFailure("node1")))
        assert manager.blacklist == {"node1", "node2"}
        events = cluster.telemetry.events.snapshot(name="failure.blacklist")
        assert [(e.args["node"], e.args["kind"]) for e in events] == [
            ("node2", "io"), ("node1", "heartbeat"),
        ]
        assert cluster.telemetry.registry.counter("pregelix.failures").value == 2

    def test_healthy_nodes_sorted(self, cluster):
        manager = FailureManager(cluster)
        manager.blacklist.add("node1")
        assert manager.healthy_nodes() == ["node0", "node2"]
        assert manager.healthy_nodes() == sorted(manager.healthy_nodes())


class TestRetryPolicy:
    def test_no_retry_on_success(self):
        policy = RetryPolicy(telemetry=Telemetry())
        calls = []
        assert policy.call(lambda: calls.append(1) or "ok") == "ok"
        assert policy.retries_made == 0 and policy.attempts_made == 1

    def test_retries_transient_until_success(self):
        telemetry = Telemetry()
        policy = RetryPolicy(telemetry=telemetry)
        state = {"left": 2}

        def flaky():
            if state["left"]:
                state["left"] -= 1
                raise TransientIOError("node0", site="dfs.write")
            return "landed"

        before = telemetry.sim_clock.seconds
        assert policy.call(flaky, describe="dfs.write /f") == "landed"
        assert policy.retries_made == 2
        events = telemetry.events.snapshot(name="retry.attempt")
        assert [e.args["attempt"] for e in events] == [1, 2]
        assert all(e.args["what"] == "dfs.write /f" for e in events)
        assert telemetry.sim_clock.seconds > before  # backoff is simulated

    def test_non_transient_not_retried(self):
        policy = RetryPolicy(telemetry=Telemetry())
        state = {"calls": 0}

        def broken():
            state["calls"] += 1
            raise WorkerFailure("node0", kind="io")

        with pytest.raises(WorkerFailure):
            policy.call(broken)
        assert state["calls"] == 1

    def test_exhaustion_reraises(self):
        policy = RetryPolicy(telemetry=Telemetry())

        def always():
            raise TransientIOError("node0", site="dfs.write")

        with pytest.raises(TransientIOError):
            policy.call(always)
        assert policy.attempts_made == RetryPolicy.MAX_ATTEMPTS == 4
        assert policy.retries_made == 3

    def test_backoff_grows_and_caps(self):
        # 0.05 s doubling, capped at 2 s, each stretched by up to 25 %.
        policy = RetryPolicy()
        for attempt, floor in ((1, 0.05), (2, 0.1), (3, 0.2), (7, 2.0), (9, 2.0)):
            assert floor <= policy.backoff_seconds(attempt) <= floor * 1.25

    def test_backoff_deterministic(self):
        a, b = RetryPolicy(), RetryPolicy()
        seq_a = [a.backoff_seconds(n) for n in range(1, 5)]
        assert seq_a == [b.backoff_seconds(n) for n in range(1, 5)]
        assert len(set(seq_a)) == 4

    def test_custom_classifier(self):
        policy = RetryPolicy(telemetry=Telemetry())
        state = {"calls": 0}

        def flaky_value_error():
            state["calls"] += 1
            if state["calls"] == 1:
                raise ValueError("retry me")
            return "ok"

        result = policy.call(
            flaky_value_error, classify=lambda e: isinstance(e, ValueError)
        )
        assert result == "ok" and state["calls"] == 2


class TestLostMachines:
    def test_lost_lists_dead_pinned_locations_once(self, cluster):
        manager = FailureManager(cluster)
        pinned = ("node0", "node2", "node1", "node2")
        assert manager.lost(pinned) == []
        cluster.kill_node("node2")
        cluster.kill_node("node1")
        assert manager.lost(pinned) == ["node2", "node1"]
        assert manager.lost(("node0", "node9")) == ["node9"]  # retired

    def test_machine_dead_before_the_run_is_never_blamed(self, cluster):
        """A machine already down when a run pins its map is not the
        run's loss: runs after it blame nobody and recover nothing."""
        from repro.algorithms import pagerank
        from repro.graphs.generators import chain_graph
        from repro.graphs.io import write_graph_to_dfs
        from repro.pregelix import PregelixDriver

        cluster.kill_node("node2")
        write_graph_to_dfs(cluster.dfs, "/in/g", chain_graph(12), num_files=3)
        driver = PregelixDriver(cluster, cluster.dfs)
        for run in range(3):
            outcome = driver.run(
                pagerank.build_job(iterations=3), "/in/g",
                output_path="/out/r%d" % run,
            )
            assert outcome.recoveries == 0
        assert cluster.telemetry.registry.counter("pregelix.failures").value == 0
        assert cluster.telemetry.events.snapshot(name="failure.blacklist") == []

    @staticmethod
    def _pagerank_output(cluster, fault=None):
        from repro.algorithms import pagerank
        from repro.chaos import FaultPlan
        from repro.graphs.generators import chain_graph
        from repro.graphs.io import write_graph_to_dfs
        from repro.pregelix import PregelixDriver

        write_graph_to_dfs(cluster.dfs, "/in/g", chain_graph(12), num_files=3)
        driver = PregelixDriver(cluster, cluster.dfs)
        job = pagerank.build_job(iterations=6, checkpoint_interval=1)
        if fault is not None:
            cluster.fault_injector.arm(FaultPlan([fault]))
        outcome = driver.run(job, "/in/g", output_path="/out/r")
        return outcome, sorted(driver.read_output("/out/r"))

    def test_loss_caught_only_at_a_boundary(self, cluster, tmp_path):
        """node1 powers off at its last operator of superstep 2, so no
        task fails: the next boundary finds the pinned machine gone,
        blames it once as ``heartbeat``, and recovery replays the latest
        checkpoint to the fault-free output."""
        from repro.chaos import FaultSpec

        outcome, output = self._pagerank_output(cluster, FaultSpec(
            "operator.open", action="kill", node="node1", at_hit=31,
            min_superstep=2,
        ))
        assert outcome.recoveries >= 1
        blamed = cluster.telemetry.events.snapshot(name="failure.blacklist")
        assert [(e.args["node"], e.args["kind"]) for e in blamed] == [
            ("node1", "heartbeat"),
        ]
        with HyracksCluster(num_nodes=3, root_dir=str(tmp_path / "clean")) as clean:
            assert output == self._pagerank_output(clean)[1]

    def test_driver_blacklists_heartbeat_deaths(self, cluster):
        """End to end: a between-superstep power loss is blamed on the
        machine, blacklisted, and recovered from checkpoint."""
        from repro.algorithms import pagerank
        from repro.chaos import FaultPlan, FaultSpec
        from repro.graphs.generators import chain_graph
        from repro.graphs.io import write_graph_to_dfs
        from repro.pregelix import PregelixDriver

        write_graph_to_dfs(cluster.dfs, "/in/g", chain_graph(12), num_files=3)
        driver = PregelixDriver(cluster, cluster.dfs)
        job = pagerank.build_job(iterations=6, checkpoint_interval=2)
        cluster.fault_injector.arm(FaultPlan(
            [FaultSpec("operator.open", node="node1", at_hit=41)]
        ))
        outcome = driver.run(job, "/in/g", output_path="/out/r")
        assert outcome.recoveries >= 1
        blamed = cluster.telemetry.events.snapshot(name="failure.blacklist")
        assert [e.args["node"] for e in blamed] == ["node1"]
