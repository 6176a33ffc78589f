"""Restart recovery: a crashed service's journal replays into live state."""

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.chaos.serve_drill import DRILL_CONFIG
from repro.hyracks.engine import HyracksCluster
from repro.serve import JobService, JobState, ServiceCrashed
from repro.serve.journal import RECORD_SUBMITTED

WAIT = 120


@pytest.fixture
def harness(serve_graph):
    cluster = HyracksCluster(num_nodes=3)

    def make_service(**overrides):
        """One 'process start' over the shared cluster and journal."""
        service = JobService(DRILL_CONFIG, cluster=cluster, **overrides)
        service.add_dataset("g", vertices=list(serve_graph))
        return service

    yield cluster, make_service
    cluster.close()


REQUEST = {
    "tenant": "alice", "algorithm": "pagerank", "dataset": "g",
    "params": {"iterations": 4},
}


def crash(cluster, make_service, phase, at_hit=1):
    """Run one service until the injected crash at ``phase`` fires."""
    import time

    plan = FaultPlan([
        FaultSpec(site="service.crash", action="io", node=phase,
                  at_hit=at_hit, min_superstep=0),
    ])
    injector = cluster.fault_injector.arm(plan)
    service = make_service()
    service.start()
    try:
        service.submit(dict(REQUEST))
    except ServiceCrashed:
        pass  # crash at the "queued" phase kills the submitting thread
    deadline = time.monotonic() + WAIT
    while service.state != "crashed" and time.monotonic() < deadline:
        time.sleep(0.02)
    assert service.state == "crashed", "crash never fired at %r" % phase
    injector.disarm(reason="process dead")
    return service


class TestCrashRecovery:
    @pytest.mark.parametrize(
        "phase,at_hit,expect",
        [("queued", 1, "requeued"), ("running", 2, "resumed"),
         ("finishing", 1, "resumed")],
    )
    def test_crash_then_restart_completes_bit_identical(
        self, harness, phase, at_hit, expect
    ):
        cluster, make_service = harness
        crash(cluster, make_service, phase, at_hit)

        second = make_service()
        summary = second.recover()
        assert summary["jobs"] == 1
        assert summary[expect] == 1
        assert summary["finished"] == 0
        second.start()
        (record,) = second.jobs.values()
        assert record.recovered is True
        assert record.wait(WAIT) is JobState.SUCCEEDED

        # Bit-identity bar: an uninterrupted run of the same request.
        rerun = second.submit(dict(REQUEST, use_cache=False))
        assert rerun.wait(WAIT) is JobState.SUCCEEDED
        assert record.result_digest == rerun.result_digest
        assert record.result_digest is not None
        second.shutdown(drain=True, timeout=WAIT)

    def test_crashed_service_refuses_restart_in_place(self, harness):
        cluster, make_service = harness
        service = crash(cluster, make_service, "running")
        from repro.common.errors import ReproError

        with pytest.raises(ReproError, match="fresh JobService"):
            service.start()
        assert service.drain(timeout=1) is False

    def test_resumed_job_pins_the_journaled_plan(self, harness):
        cluster, make_service = harness
        crash(cluster, make_service, "running", at_hit=2)
        second = make_service()
        second.recover()
        (record,) = second.jobs.values()
        # The interrupted run's resolved plan came back from the WAL so
        # the resume rebuilds the identical physical plan.
        assert record.plan_signature is not None
        assert record.resume_run_id is not None
        second.start()
        assert record.wait(WAIT) is JobState.SUCCEEDED
        second.shutdown(drain=True, timeout=WAIT)


class TestFinishedJobs:
    def test_finished_job_never_reexecuted(self, harness):
        cluster, make_service = harness
        first = make_service()
        first.start()
        record = first.submit(dict(REQUEST))
        assert record.wait(WAIT) is JobState.SUCCEEDED
        digest = record.result_digest
        first.shutdown(drain=True, timeout=WAIT)

        executed = cluster.jobs_executed
        second = make_service()
        summary = second.recover()
        assert summary["finished"] == 1
        second.start()
        recovered = second.get(record.job_id)
        assert recovered.state is JobState.SUCCEEDED
        assert recovered.result_digest == digest
        assert recovered.result is not None

        # The replayed result re-seeded the cache: a re-submission is a
        # hit and the cluster never executes the job again.
        repeat = second.submit(dict(REQUEST))
        assert repeat.cache_hit is True
        assert repeat.state is JobState.SUCCEEDED
        assert cluster.jobs_executed == executed
        second.shutdown(drain=True, timeout=WAIT)

    def test_failed_job_stays_failed(self, harness):
        _cluster, make_service = harness
        first = make_service()
        first.start()
        record = first.submit(dict(
            REQUEST, params={"iterations": 40}, deadline_seconds=0.01,
            use_cache=False,
        ))
        assert record.wait(WAIT) is JobState.FAILED
        first.shutdown(drain=True, timeout=WAIT)

        second = make_service()
        summary = second.recover()
        assert summary["finished"] == 1
        recovered = second.get(record.job_id)
        assert recovered.state is JobState.FAILED
        assert recovered.error_kind == "timeout"
        second.shutdown(drain=False)


class TestReplayBookkeeping:
    def test_job_ids_advance_past_journaled_ids(self, harness):
        _cluster, make_service = harness
        first = make_service()
        first.start()
        record = first.submit(dict(REQUEST))
        assert record.wait(WAIT) is JobState.SUCCEEDED
        first.shutdown(drain=True, timeout=WAIT)

        second = make_service()
        second.recover()
        second.start()
        fresh = second.submit(dict(REQUEST, use_cache=False))
        assert fresh.job_id != record.job_id
        assert int(fresh.job_id.rsplit("-", 1)[1]) > int(
            record.job_id.rsplit("-", 1)[1]
        )
        second.shutdown(drain=True, timeout=WAIT)

    def test_unparseable_submission_is_skipped_not_fatal(self, harness):
        _cluster, make_service = harness
        first = make_service()
        first.journal.append(RECORD_SUBMITTED, "job-090909",
                             request={"bogus": True})
        summary = first.recover()
        assert summary["skipped"] == 1
        assert "job-090909" not in first.jobs
        first.shutdown(drain=False)

    def test_a_request_submit_would_refuse_is_skipped(self, harness):
        """A journaled submission whose parameter has the wrong type
        (journaled before submit checked it) is refused at replay too."""
        _cluster, make_service = harness
        first = make_service()
        first.journal.append(RECORD_SUBMITTED, "job-090910",
                             request=dict(REQUEST, params={"iterations": "x"}))
        summary = first.recover()
        assert summary["skipped"] == 1
        assert "job-090910" not in first.jobs
        first.shutdown(drain=False)

    def test_torn_tail_reported_in_recover_summary(self, harness):
        _cluster, make_service = harness
        first = make_service()
        first.start()
        record = first.submit(dict(REQUEST))
        assert record.wait(WAIT) is JobState.SUCCEEDED
        first.shutdown(drain=True, timeout=WAIT)
        # Tear mid-way into the final (finished) record: the classic
        # crash-during-append shape.
        storage = first.journal.storage
        storage.damage_tear(storage.size() - 8)

        second = make_service()
        summary = second.recover()
        assert summary["torn_bytes"] > 0
        # The finished record was the casualty: the job replays as
        # interrupted and runs to the same digest.
        assert summary["finished"] == 0
        assert summary["resumed"] + summary["requeued"] == 1
        second.start()
        recovered = second.get(record.job_id)
        assert recovered.wait(WAIT) is JobState.SUCCEEDED
        assert recovered.result_digest == record.result_digest
        second.shutdown(drain=True, timeout=WAIT)


class TestClusterInjectorReachesTheServicesHosts:
    def test_faults_armed_on_the_cluster_fire_in_the_services_own_dfs_and_journal(
        self, serve_graph
    ):
        """The service's DFS is its cluster's, and its journal holds the
        cluster's injector: both faults fire, the job still succeeds and
        the torn tail shows up on the next replay."""
        with HyracksCluster(num_nodes=3) as cluster:
            service = JobService(DRILL_CONFIG, cluster=cluster)
            service.add_dataset("g", vertices=list(serve_graph))
            injector = cluster.fault_injector.arm(FaultPlan([
                FaultSpec("journal.append", "torn_write", at_hit=2),
                FaultSpec("dfs.write", "transient_io", at_hit=1),
            ]))
            service.start()
            record = service.submit(dict(REQUEST))
            assert record.wait(timeout=WAIT) is JobState.SUCCEEDED
            service.shutdown(drain=True, timeout=WAIT)
            fired = sorted((f.site, f.action) for f in injector.fired)
            assert fired == [
                ("dfs.write", "transient_io"), ("journal.append", "torn_write"),
            ]
            assert service.journal.replay().torn_bytes > 0

    def test_a_bench_driver_fires_the_clusters_dfs_write_spec(self):
        from repro.algorithms import pagerank
        from repro.bench.reporting import graph_driver

        with graph_driver(3, 40, 1) as driver:
            injector = driver.cluster.fault_injector.arm(dfs_write())
            driver.run(pagerank.build_job(iterations=3), "/in/g", output_path="/o")
        assert [f.site for f in injector.fired] == ["dfs.write"]

    def test_repro_run_fires_the_clusters_dfs_write_spec(self, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.hyracks import engine

        main(["generate", "--family", "chain", "--vertices", "15",
              "--out", str(tmp_path)], out=lambda line: None)
        injectors = []

        class Armed(engine.HyracksCluster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                injectors.append(self.fault_injector.arm(dfs_write()))

        monkeypatch.setattr(engine, "HyracksCluster", Armed)
        argv = ["run", "pagerank", "--input", str(tmp_path), "--nodes", "3"]
        assert main(argv, out=lambda line: None) == 0
        [injector] = injectors
        assert [f.site for f in injector.fired] == ["dfs.write"]

    def test_a_restarted_service_writes_the_first_ones_dfs(self, serve_graph):
        """Two process starts over one cluster, as the drill makes them:
        the second replays the first's ``dfs:`` journal and its writes
        fire the cluster's spec."""
        with HyracksCluster(num_nodes=3) as cluster:
            first = JobService(DRILL_CONFIG, cluster=cluster)
            first.add_dataset("g", vertices=list(serve_graph))
            first.start()
            assert first.submit(dict(REQUEST)).wait(WAIT) is JobState.SUCCEEDED
            first.shutdown(drain=True, timeout=WAIT)
            injector = cluster.fault_injector.arm(dfs_write())
            second = JobService(DRILL_CONFIG, cluster=cluster)
            assert second.recover()["finished"] == 1
            second.add_dataset("g", vertices=list(serve_graph))
            second.shutdown(drain=False)
        assert [f.site for f in injector.fired] == ["dfs.write"]


def dfs_write():
    """A plan whose one transient ``dfs.write`` fault the DFS's retry absorbs."""
    return FaultPlan([FaultSpec("dfs.write", "transient_io", at_hit=1)])
