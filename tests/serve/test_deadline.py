"""Per-job wall-clock deadlines, enforced at superstep boundaries."""

import time

import pytest

from repro.common.errors import DeadlineExceeded, JobCancelled
from repro.pregelix.multiquery import LaneControl
from repro.serve import JobService, JobState
from repro.serve.api import ERROR_KIND_TIMEOUT, JobRecord, JobRequest

WAIT = 120

# Enough supersteps that a tiny budget always trips mid-run.
SLOW = {"tenant": "alice", "algorithm": "pagerank", "dataset": "g",
        "params": {"iterations": 60}, "use_cache": False}
# A batchable point query: three of these share one run.
POINT = {"tenant": "alice", "algorithm": "sssp", "dataset": "g",
         "use_cache": False}

#: Member counts every run-level case is checked at: a lone job and a
#: shared run take the same dispatch → run → boundary → commit path.
COUNTS = pytest.mark.parametrize("count", [1, 3], ids=["solo", "shared"])


@pytest.fixture
def service(serve_graph):
    svc = JobService(num_nodes=3, workers=1, batch_max=8, batch_window=0.3)
    svc.add_dataset("g", vertices=serve_graph)
    svc.start()
    yield svc
    svc.shutdown(timeout=WAIT)


class TestDeadlineEnforcement:
    @COUNTS
    def test_exceeded_deadline_fails_with_structured_timeout(
        self, service, count
    ):
        # The budget is shorter than the load phase, so the run's first
        # boundary is already past it.
        records = [
            service.submit(dict(POINT, params={"source_id": source},
                                deadline_seconds=0.001))
            for source in range(count)
        ]
        for record in records:
            assert record.wait(WAIT) is JobState.FAILED
            assert record.error_kind == ERROR_KIND_TIMEOUT
            assert record.deadline_seconds == 0.001
            assert "deadline" in record.error
            assert record.attempts == 1  # a timeout is never retried
        assert service.stats()["deadline_exceeded"] == count
        assert service.stats()["batch"]["formed"] == (1 if count > 1 else 0)
        exceeded = [
            event for event in service.telemetry.events
            if event.name == "serve.deadline.exceeded"
        ]
        assert {e.args["job_id"] for e in exceeded} == {
            r.job_id for r in records
        }

    def test_timed_out_job_frees_its_worker_slot(self, service):
        # workers=1: if the deadline did not release the slot, the
        # follow-up job could never run.
        doomed = service.submit(dict(SLOW, deadline_seconds=0.02))
        follow_up = service.submit({
            "tenant": "alice", "algorithm": "cc", "dataset": "g",
            "use_cache": False,
        })
        assert doomed.wait(WAIT) is JobState.FAILED
        assert follow_up.wait(WAIT) is JobState.SUCCEEDED

    def test_generous_deadline_does_not_fire(self, service):
        record = service.submit({
            "tenant": "alice", "algorithm": "cc", "dataset": "g",
            "use_cache": False, "deadline_seconds": WAIT,
        })
        assert record.wait(WAIT) is JobState.SUCCEEDED
        assert service.stats()["deadline_exceeded"] == 0


class TestDeadlineDefaults:
    def test_service_default_applies_when_request_is_silent(self, serve_graph):
        svc = JobService(num_nodes=3, workers=1,
                         default_deadline_seconds=0.02)
        svc.add_dataset("g", vertices=serve_graph)
        svc.start()
        try:
            record = svc.submit(dict(SLOW))
            assert record.deadline_seconds == 0.02
            assert record.wait(WAIT) is JobState.FAILED
            assert record.error_kind == ERROR_KIND_TIMEOUT
        finally:
            svc.shutdown(timeout=WAIT)

    def test_request_deadline_overrides_service_default(self, serve_graph):
        svc = JobService(num_nodes=3, workers=1,
                         default_deadline_seconds=0.001)
        svc.add_dataset("g", vertices=serve_graph)
        svc.start()
        try:
            record = svc.submit({
                "tenant": "alice", "algorithm": "cc", "dataset": "g",
                "use_cache": False, "deadline_seconds": WAIT,
            })
            assert record.deadline_seconds == WAIT
            assert record.wait(WAIT) is JobState.SUCCEEDED
        finally:
            svc.shutdown(timeout=WAIT)

    def test_no_deadline_anywhere_means_none(self, service):
        record = service.submit({
            "tenant": "alice", "algorithm": "cc", "dataset": "g",
        })
        assert record.deadline_seconds is None


class TestDeadlineValidation:
    @pytest.mark.parametrize("bad", [0, -1, "soon", True])
    def test_bad_deadline_rejected_at_parse(self, bad):
        with pytest.raises(ValueError):
            JobRequest.from_dict({
                "tenant": "a", "algorithm": "cc", "dataset": "g",
                "deadline_seconds": bad,
            })

    def test_string_number_is_coerced(self):
        request = JobRequest.from_dict({
            "tenant": "a", "algorithm": "cc", "dataset": "g",
            "deadline_seconds": "2.5",
        })
        assert request.deadline_seconds == 2.5


@COUNTS
class TestBoundaryHook:
    """The hook itself, deterministically — no timing races."""

    def hook(self, service, count, **kwargs):
        members = []
        for index in range(count):
            record = JobRecord(job_id="job-%06d" % (index + 1),
                               request=JobRequest("t", "sssp", "g"))
            for key, value in kwargs.items():
                setattr(record, key, value)
            members.append(record)
        control = LaneControl(count) if count > 1 else None
        return members, service.executor._boundary_hook(members, control)

    def test_hook_raises_past_budget(self, service, count):
        _members, hook = self.hook(
            service, count, deadline_seconds=0.01,
            deadline_base=time.monotonic() - 1.0,
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            hook(3)
        assert excinfo.value.budget_seconds == 0.01
        assert excinfo.value.elapsed_seconds >= 1.0

    def test_hook_quiet_within_budget(self, service, count):
        _members, hook = self.hook(service, count, deadline_seconds=60.0,
                                   deadline_base=time.monotonic())
        hook(1)  # does not raise

    def test_hook_quiet_with_no_deadline(self, service, count):
        _members, hook = self.hook(
            service, count, deadline_base=time.monotonic() - 100.0
        )
        hook(1)  # does not raise

    def test_hook_counts_progress_for_the_watchdog(self, service, count):
        members, hook = self.hook(service, count)
        hook(1)
        hook(2)
        for record in members:
            assert record.progress_superstep == 2
            assert record.progress_boundary_at is not None

    @pytest.mark.parametrize("reason", ["user", "stuck"])
    def test_hook_honors_a_cancel_flag(self, service, count, reason):
        members, hook = self.hook(service, count)
        flagged = members[-1]
        flagged.cancel_requested = reason
        if count == 1:
            # A lone run stops; _execute decides cancel vs strike/retry.
            with pytest.raises(JobCancelled) as excinfo:
                hook(2)
            assert excinfo.value.reason == reason
            return
        survivors = members[:-1]
        hook(2)  # the other lanes run on
        assert members == survivors
        if reason == "user":
            assert flagged.state is JobState.CANCELLED
        else:
            # Retired unfinished: it is re-queued to run alone, where
            # the watchdog's strike/retry policy applies.
            assert not flagged.state.terminal
            assert flagged.cancel_requested is None
        # Once every lane has left, the run itself stops.
        for record in survivors:
            record.cancel_requested = "user"
        with pytest.raises(JobCancelled):
            hook(3)
        assert members == []
