"""JobService end to end: lifecycle, caching, rejection, failure, drain."""

import pathlib
import re
import sys
import threading
import time

import pytest

import repro.serve

from repro.common.errors import TransientIOError
from repro.serve import (
    AdmissionRejected,
    AutoscalePolicy,
    JobRequest,
    JobService,
    JobState,
    TenantQuota,
)

WAIT = 120  # generous terminal-state timeout for CI machines


@pytest.fixture
def service(serve_graph):
    svc = JobService(
        num_nodes=3,
        workers=2,
        quotas={
            "alice": TenantQuota(weight=2.0),
            "bob": TenantQuota(memory_fraction=1e-9),
        },
    )
    svc.add_dataset("g", vertices=serve_graph)
    svc.start()
    yield svc
    svc.shutdown(timeout=WAIT)


def submit(svc, algorithm="cc", tenant="alice", **overrides):
    doc = {"tenant": tenant, "algorithm": algorithm, "dataset": "g"}
    doc.update(overrides)
    return svc.submit(doc)


class TestLifecycle:
    def test_submit_executes_bit_identical_to_direct_driver(
        self, service, reference_results
    ):
        record = submit(service, "cc")
        assert record.wait(WAIT) is JobState.SUCCEEDED
        assert record.cache_hit is False
        assert record.run_id is not None
        doc = record.result
        assert sorted(doc["results"]) == reference_results["cc"]
        assert doc["algorithm"] == "cc"
        assert doc["num_vertices"] == 40
        assert service.get(record.job_id) is record
        assert service.get("job-does-not-exist") is None

    def test_explicit_plan_is_honored(self, service, reference_results):
        record = submit(service, "cc", plan="loj/hashsort/unmerged/lsm")
        assert record.wait(WAIT) is JobState.SUCCEEDED
        assert record.result["plan"] == "loj/hashsort/unmerged/lsm"
        # Join strategy and storage never change result bits.
        assert sorted(record.result["results"]) == reference_results["cc"]

    def test_max_supersteps_caps_the_run(self, service):
        record = submit(service, "pagerank",
                        params={"iterations": 5}, max_supersteps=2,
                        use_cache=False)
        assert record.wait(WAIT) is JobState.SUCCEEDED
        assert record.result["supersteps"] <= 2

    def test_record_projection(self, service):
        record = submit(service, "cc", use_cache=False)
        record.wait(WAIT)
        doc = record.to_dict()
        assert doc["state"] == "succeeded"
        assert doc["has_result"] is True
        assert doc["request"]["algorithm"] == "cc"


class TestResultCache:
    def test_repeat_query_is_served_from_cache(self, service):
        first = submit(service, "cc")
        assert first.wait(WAIT) is JobState.SUCCEEDED
        executed = service.cluster.jobs_executed
        repeat = submit(service, "cc")
        # Already terminal at submit time: no queue, no execution.
        assert repeat.state is JobState.SUCCEEDED
        assert repeat.cache_hit is True
        assert repeat.result["results"] == first.result["results"]
        assert service.cluster.jobs_executed == executed
        assert (
            service.telemetry.registry.counter("serve.cache_hit").value >= 1
        )

    def test_different_params_miss(self, service):
        first = submit(service, "pagerank", params={"iterations": 2})
        assert first.wait(WAIT) is JobState.SUCCEEDED
        other = submit(service, "pagerank", params={"iterations": 3})
        assert other.cache_hit is False
        assert other.wait(WAIT) is JobState.SUCCEEDED

    def test_use_cache_false_always_executes(self, service):
        first = submit(service, "cc", use_cache=False)
        assert first.wait(WAIT) is JobState.SUCCEEDED
        repeat = submit(service, "cc", use_cache=False)
        assert repeat.cache_hit is False
        assert repeat.wait(WAIT) is JobState.SUCCEEDED

    def test_plan_cache_remembers_the_proven_plan(self, service):
        record = submit(service, "cc", plan="loj/hashsort/unmerged/lsm",
                        use_cache=False)
        assert record.wait(WAIT) is JobState.SUCCEEDED
        digest = service.datasets["g"].digest
        remembered = service.plan_cache.lookup(digest, "cc")
        assert remembered is not None
        assert remembered.storage.value == "lsm"


class TestRejections:
    def test_over_memory_is_structured(self, service):
        with pytest.raises(AdmissionRejected) as excinfo:
            submit(service, "cc", tenant="bob", use_cache=False)
        rejection = excinfo.value.rejection
        assert rejection.code == "over_memory"
        assert rejection.details["estimated_bytes"] > rejection.details["allowed_bytes"]

    def test_unknown_algorithm(self, service):
        with pytest.raises(AdmissionRejected) as excinfo:
            submit(service, "quicksort")
        assert excinfo.value.rejection.code == "unknown_algorithm"

    def test_unknown_dataset(self, service):
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(
                {"tenant": "alice", "algorithm": "cc", "dataset": "nope"}
            )
        assert excinfo.value.rejection.code == "unknown_dataset"

    def test_unknown_params_rejected_up_front(self, service):
        with pytest.raises(AdmissionRejected) as excinfo:
            submit(service, "cc", params={"iterations": 5})
        assert excinfo.value.rejection.code == "bad_request"

    def test_bad_plan_signature(self, service):
        with pytest.raises(AdmissionRejected) as excinfo:
            submit(service, "cc", plan="quantum/sort/unmerged/btree")
        assert excinfo.value.rejection.code == "bad_request"
        assert "join must be one of foj, loj, got 'quantum'" in (
            excinfo.value.rejection.reason
        )

    def test_rejections_counted_in_stats(self, service):
        with pytest.raises(AdmissionRejected):
            submit(service, "quicksort")
        assert service.stats()["rejected"] == 1

    def test_concurrent_rejections_are_all_counted(self, service):
        # HTTP threads reject concurrently; the count is a locked
        # registry counter, so no increment may be lost.
        threads, each = 8, 50

        def reject_many():
            for _ in range(each):
                with pytest.raises(AdmissionRejected):
                    submit(service, "quicksort")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=reject_many)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(WAIT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert service.stats()["rejected"] == threads * each


@pytest.mark.parametrize("count", [1, 3], ids=["solo", "shared"])
class TestFailureHandling:
    """A lone job retries in place; a shared run's survivors go back to
    the queue and run alone — same seam, same per-member outcomes."""

    @pytest.fixture
    def point_service(self, serve_graph):
        svc = JobService(num_nodes=3, workers=1, watchdog=False,
                         batch_max=8, batch_window=0.3)
        svc.add_dataset("g", vertices=serve_graph)
        svc.start()
        yield svc
        svc.shutdown(timeout=WAIT)

    @staticmethod
    def submit_members(svc, count):
        return [
            submit(svc, "sssp", params={"source_id": source}, use_cache=False)
            for source in range(count)
        ]

    def test_fatal_failure_fails_only_that_job(self, point_service, count):
        service = point_service
        original = service.executor._run
        sizes = []

        def explode(members, dataset):
            sizes.append(len(members))
            raise RuntimeError("application bug")

        service.executor._run = explode
        try:
            records = self.submit_members(service, count)
            for record in records:
                assert record.wait(WAIT) is JobState.FAILED
                assert record.error_kind == "fatal"
                assert record.attempts == 1
                assert "application bug" in record.error
        finally:
            service.executor._run = original
        # One engine fault never fails N jobs at once: the shared run
        # gave its members back and each failed on its own run.
        assert sizes == ([1] if count == 1 else [3, 1, 1, 1])
        # The service survived: the next job runs normally.
        healthy = submit(service, "cc", use_cache=False)
        assert healthy.wait(WAIT) is JobState.SUCCEEDED
        assert service.healthy()

    def test_transient_failure_is_retried(self, point_service, count):
        service = point_service
        original = service.executor._run
        sizes = []

        def flaky(members, dataset):
            sizes.append(len(members))
            if len(sizes) == 1:
                raise TransientIOError("node0", site="serve-test")
            return original(members, dataset)

        service.executor._run = flaky
        try:
            records = self.submit_members(service, count)
            for record in records:
                assert record.wait(WAIT) is JobState.SUCCEEDED
        finally:
            service.executor._run = original
        if count == 1:
            assert records[0].attempts == 2  # retried in place
            assert sizes == [1, 1]
        else:
            assert sizes == [3, 1, 1, 1]  # re-queued to run alone
            assert all(r.no_batch and r.attempts == 1 for r in records)
            assert service.stats()["batch"]["requeued"] == 3


class TestDrainAndCancel:
    def test_drain_completes_inflight_jobs(self, service):
        records = [submit(service, "cc", use_cache=False) for _ in range(3)]
        assert service.drain(timeout=WAIT) is True
        assert all(r.state is JobState.SUCCEEDED for r in records)
        with pytest.raises(AdmissionRejected) as excinfo:
            submit(service, "cc")
        assert excinfo.value.rejection.code == "draining"

    def test_cancel_queued_job(self, service):
        release = threading.Event()
        original = service.executor._run

        def blocked(members, dataset):
            release.wait(WAIT)

        service.executor._run = blocked
        try:
            # Two blocked jobs occupy both workers; the third stays queued.
            blockers = [submit(service, "cc", use_cache=False) for _ in range(2)]
            deadline = time.monotonic() + WAIT
            while (
                any(r.state is not JobState.RUNNING for r in blockers)
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            queued = submit(service, "cc", use_cache=False)
            assert queued.state is JobState.QUEUED
            assert service.cancel(queued.job_id) is True
            assert queued.state is JobState.CANCELLED
            # Cancelling anything non-queued is refused.
            assert service.cancel(queued.job_id) is False
            assert service.cancel(blockers[0].job_id) is False
        finally:
            release.set()
            service.executor._run = original
        for record in blockers:
            assert record.wait(WAIT) is JobState.SUCCEEDED

    def test_stats_shape(self, service):
        record = submit(service, "cc")
        record.wait(WAIT)
        stats = service.stats()
        assert stats["state"] == "serving"
        assert stats["workers"] == 2
        assert stats["nodes"] == 3
        assert stats["jobs"]["succeeded"] >= 1
        assert stats["datasets"]["g"]["files"] == 3
        assert "result_cache" in stats
        assert stats["queue_depth"] == 0


class TestRequestValidation:
    def test_missing_fields(self):
        with pytest.raises(ValueError):
            JobRequest.from_dict({"tenant": "a"})

    def test_params_must_be_object(self):
        with pytest.raises(ValueError):
            JobRequest.from_dict(
                {"tenant": "a", "algorithm": "cc", "dataset": "g",
                 "params": [1, 2]}
            )

    def test_params_key_is_order_independent(self):
        a = JobRequest("t", "pagerank", "g", params={"a": 1, "b": 2})
        b = JobRequest("t", "pagerank", "g", params={"b": 2, "a": 1})
        assert a.params_key() == b.params_key()
        c = JobRequest("t", "pagerank", "g", params={"a": 1, "b": 2},
                       max_supersteps=4)
        assert a.params_key() != c.params_key()


class TestOverloadShedding:
    def test_queue_depth_threshold_sheds_with_retry_hint(self, serve_graph):
        svc = JobService(num_nodes=2, workers=1, shed_queue_depth=0)
        svc.add_dataset("g", vertices=serve_graph)
        svc.start()
        try:
            with pytest.raises(AdmissionRejected) as excinfo:
                submit(svc, "cc")
            rejection = excinfo.value.rejection
            assert rejection.code == "overloaded"
            assert rejection.details["retry_after_seconds"] == 1
            assert rejection.details["queue_depth"] == 0
            assert svc.stats()["shed"] == 1
            # Shedding happens before validation: even garbage is shed
            # cheaply instead of building a throwaway job.
            with pytest.raises(AdmissionRejected) as excinfo:
                submit(svc, "quicksort")
            assert excinfo.value.rejection.code == "overloaded"
            assert svc.stats()["shed"] == 2
        finally:
            svc.shutdown(timeout=WAIT)

    def test_journal_append_latency_sheds(self, serve_graph, tmp_path):
        svc = JobService(num_nodes=2, workers=1,
                         journal="file:%s" % tmp_path,
                         shed_append_seconds=0.0)
        svc.add_dataset("g", vertices=serve_graph)
        svc.start()
        try:
            # The first submission is admitted (no appends yet, so the
            # rolling average is 0.0); its WAL write moves the average
            # above the zero threshold and the next submission sheds.
            first = submit(svc, "cc", use_cache=False)
            assert first.wait(WAIT) is JobState.SUCCEEDED
            with pytest.raises(AdmissionRejected) as excinfo:
                submit(svc, "cc", use_cache=False)
            rejection = excinfo.value.rejection
            assert rejection.code == "overloaded"
            assert rejection.details["retry_after_seconds"] == 2
            assert rejection.details["avg_append_seconds"] > 0.0
        finally:
            svc.shutdown(timeout=WAIT)


class TestCancelStatusDocument:
    def test_not_found(self, service):
        outcome = service.cancel_job("job-999999")
        assert outcome == {"job_id": "job-999999", "status": "not_found",
                           "cancelled": False}

    def test_terminal_reports_the_winner(self, service):
        record = submit(service, "cc")
        assert record.wait(WAIT) is JobState.SUCCEEDED
        outcome = service.cancel_job(record.job_id)
        assert outcome["status"] == "terminal"
        assert outcome["state"] == "succeeded"
        assert outcome["cancelled"] is False
        assert record.state is JobState.SUCCEEDED

    def test_queued_cancel_is_terminal_and_journals_nothing_twice(
        self, service
    ):
        release = threading.Event()
        original = service.executor._run
        service.executor._run = lambda members, dataset: release.wait(WAIT)
        try:
            blockers = [submit(service, "cc", use_cache=False)
                        for _ in range(2)]
            deadline = time.monotonic() + WAIT
            while (
                any(r.state is not JobState.RUNNING for r in blockers)
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            queued = submit(service, "pagerank", use_cache=False)
            outcome = service.cancel_job(queued.job_id, reason="operator")
            assert outcome["status"] == "cancelled"
            assert outcome["cancelled"] is True
            assert queued.state is JobState.CANCELLED
            assert queued.error_kind == "cancelled"
            # The losing repeat observes the terminal state.
            assert service.cancel_job(queued.job_id)["status"] == "terminal"
        finally:
            release.set()
            service.executor._run = original
        for record in blockers:
            record.wait(WAIT)


class TestThreads:
    def test_one_housekeeping_thread_beside_the_dispatchers(self):
        before = set(threading.enumerate())
        svc = JobService(num_nodes=2, workers=2, watchdog=True,
                         autoscale=AutoscalePolicy(2, 3))
        svc.start()
        try:
            started = sorted(
                t.name for t in threading.enumerate() if t not in before
            )
            assert started == [
                "serve-housekeeping", "serve-worker-0", "serve-worker-1"
            ]
        finally:
            svc.shutdown(timeout=WAIT)
        assert not [t for t in threading.enumerate() if t not in before]


class TestStatsSurfaces:
    def test_journal_watchdog_and_quarantine_sections(
        self, serve_graph, tmp_path
    ):
        svc = JobService(num_nodes=2, workers=1,
                         journal="file:%s" % tmp_path)
        svc.add_dataset("g", vertices=serve_graph)
        svc.start()
        try:
            record = submit(svc, "cc", use_cache=False)
            assert record.wait(WAIT) is JobState.SUCCEEDED
            # The finished append lands just after the terminal mark;
            # drain synchronizes with the worker before reading stats.
            assert svc.drain(timeout=WAIT) is True
            stats = svc.stats()
            assert stats["journal"]["records_appended"] == 3
            assert stats["journal"]["frozen"] is False
            assert stats["journal"]["location"].startswith("file:")
            assert stats["watchdog"]["running"] is True
            assert stats["quarantine"] == {}
            assert stats["deadline_exceeded"] == 0
            assert stats["shed"] == 0
        finally:
            svc.shutdown(timeout=WAIT)

    def test_watchdog_disabled_leaves_no_section(self, service):
        assert "watchdog" in service.stats()  # default service has one
        assert "journal" not in service.stats()  # but no journal


def test_serve_modules_reach_collaborators_through_public_names_only():
    """State has one owner per module: nothing under ``repro/serve``
    touches a ``_``-prefixed attribute of the service, its lifecycle or
    its executor from outside (``self._x`` inside the owner is fine)."""
    private_reach = re.compile(
        r"\b(?:service|lifecycle|executor|batcher|queue|journal)\._(?!_)\w+"
    )
    offenders = []
    for path in sorted(pathlib.Path(repro.serve.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if private_reach.search(line.split("#", 1)[0]):
                offenders.append("%s:%d: %s" % (path.name, number, line.strip()))
    assert not offenders, "\n".join(offenders)
