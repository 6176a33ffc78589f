"""The stuck-job watchdog and the poison-job quarantine it feeds."""

import pytest

from repro.common.errors import JobCancelled
from repro.serve import AdmissionRejected, JobService, JobState
from repro.serve.api import REJECT_QUARANTINED, JobRecord, JobRequest
from repro.serve.watchdog import StuckJobWatchdog

WAIT = 120


class FakeService:
    """Just enough surface for deterministic scan() tests."""

    def __init__(self, records):
        self.records = records
        self.flagged = []

    def executing_records(self):
        return list(self.records)

    def flag_stuck(self, record, stall_seconds, threshold_seconds):
        self.flagged.append(record.job_id)
        record.cancel_requested = "stuck"
        return True


def record_with_rhythm(job_id="job-000001", supersteps=5, avg=0.1,
                       last_boundary=100.0):
    record = JobRecord(job_id=job_id, request=JobRequest("t", "cc", "g"))
    record.progress_superstep = supersteps
    record.progress_avg_seconds = avg
    record.progress_boundary_at = last_boundary
    return record


class TestScan:
    """scan(now=...) against crafted records — no clocks, no sleeps."""

    def test_job_on_rhythm_is_not_flagged(self):
        # avg 0.1s, threshold max(8*0.1, 1.0)=1.0s; stalled only 0.5s.
        service = FakeService([record_with_rhythm()])
        watchdog = StuckJobWatchdog(service)
        assert watchdog.scan(now=100.5) == []
        assert service.flagged == []

    def test_job_past_threshold_is_flagged(self):
        service = FakeService([record_with_rhythm()])
        watchdog = StuckJobWatchdog(service)
        assert watchdog.scan(now=101.5) == ["job-000001"]
        assert watchdog.flagged == 1
        assert service.records[0].cancel_requested == "stuck"

    def test_threshold_is_a_multiple_of_the_jobs_own_average(self):
        # A legitimately slow job (avg 2s) is fine 10s into a superstep;
        # a fast job (avg 0.2s) with the same stall is wedged.
        slow = record_with_rhythm("job-000001", avg=2.0)
        fast = record_with_rhythm("job-000002", avg=0.2)
        service = FakeService([slow, fast])
        watchdog = StuckJobWatchdog(service)
        assert watchdog.scan(now=110.0) == ["job-000002"]

    def test_min_stall_floor_protects_subsecond_supersteps(self):
        # avg 1ms => 8*avg = 8ms, but the 1s floor wins.
        service = FakeService([record_with_rhythm(avg=0.001)])
        watchdog = StuckJobWatchdog(service)
        assert watchdog.scan(now=100.9) == []
        assert watchdog.scan(now=101.1) == ["job-000001"]

    def test_young_jobs_are_not_trusted(self):
        service = FakeService([record_with_rhythm(supersteps=2)])
        watchdog = StuckJobWatchdog(service)
        assert watchdog.scan(now=200.0) == []

    def test_already_cancelled_jobs_are_skipped(self):
        record = record_with_rhythm()
        record.cancel_requested = "user"
        service = FakeService([record])
        watchdog = StuckJobWatchdog(service)
        assert watchdog.scan(now=200.0) == []

    def test_job_before_first_boundary_is_skipped(self):
        record = record_with_rhythm()
        record.progress_boundary_at = None
        service = FakeService([record])
        assert StuckJobWatchdog(service).scan(now=200.0) == []

    def test_state_shape(self):
        watchdog = StuckJobWatchdog(FakeService([]), multiple=4.0)
        state = watchdog.state()
        assert state["multiple"] == 4.0
        assert state["flagged"] == 0


@pytest.fixture
def service(serve_graph):
    svc = JobService(num_nodes=3, workers=1, watchdog=False)
    svc.add_dataset("g", vertices=serve_graph)
    svc.start()
    yield svc
    svc.shutdown(timeout=WAIT)


REQUEST = {"tenant": "alice", "algorithm": "cc", "dataset": "g",
           "use_cache": False}


def wedge(service, times):
    """Patch the run seam to raise a stuck-cancel for the first ``times``
    executions, then behave normally."""
    original = service.executor._run
    calls = []

    def wedged(members, dataset):
        calls.append(members[0].job_id)
        if len(calls) <= times:
            raise JobCancelled("wedged in superstep 3", reason="stuck")
        return original(members, dataset)

    service.executor._run = wedged
    return calls


class TestStuckRetryAndQuarantine:
    def test_first_stuck_cancel_gets_one_free_retry(self, service):
        calls = wedge(service, times=1)
        record = service.submit(dict(REQUEST))
        assert record.wait(WAIT) is JobState.SUCCEEDED
        assert record.attempts == 2
        assert len(calls) == 2
        assert service.stats()["quarantine"] == {}

    def test_double_stuck_fails_and_quarantines(self, service):
        wedge(service, times=2)
        record = service.submit(dict(REQUEST))
        assert record.wait(WAIT) is JobState.FAILED
        assert record.error_kind == "stuck"
        quarantine = service.stats()["quarantine"]
        key = record.request.poison_key()
        assert key in quarantine
        assert quarantine[key]["strikes"] == 2
        assert quarantine[key]["algorithm"] == "cc"

    def test_quarantined_request_is_refused_until_cleared(self, service):
        wedge(service, times=2)
        record = service.submit(dict(REQUEST))
        assert record.wait(WAIT) is JobState.FAILED
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(dict(REQUEST))
        assert excinfo.value.rejection.code == REJECT_QUARANTINED
        assert excinfo.value.rejection.details["strikes"] == 2
        # Tenant is not part of the poison identity.
        with pytest.raises(AdmissionRejected):
            service.submit(dict(REQUEST, tenant="bob"))

        assert service.clear_quarantine(record.request.poison_key()) == 1
        healthy = service.submit(dict(REQUEST))
        assert healthy.wait(WAIT) is JobState.SUCCEEDED

    def test_clear_quarantine_all(self, service):
        wedge(service, times=2)
        record = service.submit(dict(REQUEST))
        assert record.wait(WAIT) is JobState.FAILED
        assert service.clear_quarantine() == 1
        assert service.stats()["quarantine"] == {}
        assert service.clear_quarantine() == 0

    def test_user_cancel_is_never_a_strike(self, service):
        original = service.executor._run

        def user_cancelled(members, dataset):
            raise JobCancelled("user said stop", reason="user")

        service.executor._run = user_cancelled
        try:
            record = service.submit(dict(REQUEST))
            assert record.wait(WAIT) is JobState.CANCELLED
            assert record.attempts == 1
            assert service.stats()["quarantine"] == {}
        finally:
            service.executor._run = original


class TestFlagStuck:
    def test_flag_sets_the_cooperative_cancel(self, service):
        record = JobRecord(job_id="job-000042",
                           request=JobRequest("t", "cc", "g"))
        assert service.flag_stuck(record, 5.0, 1.0) is True
        assert record.cancel_requested == "stuck"

    def test_terminal_or_cancelled_records_are_left_alone(self, service):
        record = JobRecord(job_id="job-000043",
                           request=JobRequest("t", "cc", "g"))
        record.mark(JobState.SUCCEEDED)
        assert service.flag_stuck(record, 5.0, 1.0) is False
        assert record.cancel_requested is None
