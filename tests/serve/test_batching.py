"""Batched point queries in the serve layer (DESIGN.md §6).

Covers batch formation, per-member result fan-out (digests identical to
solo runs), result/plan cache seeding under batched completion,
``ResultCache.invalidate``, journal ``batch`` markers, and mid-batch
crash recovery (never a half-batch).
"""

import time
from dataclasses import replace

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.chaos.serve_drill import DRILL_CONFIG
from repro.hyracks.engine import HyracksCluster
from repro.serve import JobService, JobState, ServiceCrashed
from repro.serve.batching import BATCHABLE_ALGORITHMS, BatchFormer
from repro.serve.journal import RECORD_STARTED

WAIT = 120
SOURCES = (0, 3, 7, 11)


def _submit_sssp(service, sources, tenant_of=lambda s: "alice", **extra):
    records = []
    for source in sources:
        body = {
            "tenant": tenant_of(source), "algorithm": "sssp", "dataset": "g",
            "params": {"source_id": source},
        }
        body.update(extra)
        records.append(service.submit(body))
    return records


@pytest.fixture(scope="module")
def solo_digests(serve_graph):
    """Unbatched-service digests per source: the fan-out equivalence bar."""
    service = JobService(num_nodes=3, workers=1, watchdog=False)
    service.add_dataset("g", vertices=list(serve_graph))
    service.start()
    try:
        digests = {}
        for source in SOURCES:
            record = _submit_sssp(service, [source])[0]
            assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
            digests[source] = record.result_digest
        return digests
    finally:
        service.shutdown(timeout=WAIT)


@pytest.fixture
def batched_service(serve_graph):
    service = JobService(
        num_nodes=3, workers=1, watchdog=False,
        batch_max=8, batch_window=0.4,
    )
    service.add_dataset("g", vertices=list(serve_graph))
    service.start()
    yield service
    service.shutdown(timeout=WAIT)


class TestBatchedCompletion:
    def test_batch_fans_out_solo_identical_results_and_seeds_caches(
        self, batched_service, solo_digests
    ):
        service = batched_service
        records = _submit_sssp(
            service, SOURCES,
            tenant_of=lambda s: "alice" if s % 2 == 0 else "bob",
        )
        for record, source in zip(records, SOURCES):
            assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
            assert record.result_digest == solo_digests[source], (
                "batched lane for source %d diverged from solo" % source
            )
        stats = service.stats()
        assert stats["batch"]["formed"] >= 1
        assert stats["batch"]["batched_jobs"] >= 2
        batched = [r for r in records if r.result.get("batch")]
        assert len(batched) >= 2, "no jobs actually shared a run"
        shared = batched[0].result["batch"]["run_id"]
        assert all(r.result["batch"]["run_id"] == shared for r in batched)

        # a batch of N seeds N result-cache entries...
        assert stats["result_cache"]["entries"] == len(SOURCES)
        # ...and the plan cache learned the proven plan once
        dataset = service.datasets["g"]
        assert service.plan_cache.lookup(dataset.digest, "sssp") is not None

        # an identical later query is a cache hit, never touching the cluster
        executed_before = service.cluster.jobs_executed
        hits_before = service.telemetry.registry.counter(
            "serve.cache_hit"
        ).value
        repeat = _submit_sssp(service, [SOURCES[1]],
                              tenant_of=lambda s: "carol")[0]
        assert repeat.wait(WAIT) is JobState.SUCCEEDED
        assert repeat.cache_hit
        assert repeat.result_digest == solo_digests[SOURCES[1]]
        assert service.cluster.jobs_executed == executed_before
        assert service.telemetry.registry.counter(
            "serve.cache_hit"
        ).value > hits_before

    def test_result_cache_invalidate_forces_reexecution(
        self, batched_service, solo_digests
    ):
        service = batched_service
        records = _submit_sssp(service, SOURCES)
        for record in records:
            assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
        dataset = service.datasets["g"]
        assert len(service.result_cache) == len(SOURCES)
        # drop exactly this dataset's entries by key predicate
        removed = service.result_cache.invalidate(
            lambda key: key[0] == dataset.digest
        )
        assert removed == len(SOURCES)
        assert len(service.result_cache) == 0
        executed_before = service.cluster.jobs_executed
        repeat = _submit_sssp(service, [SOURCES[0]])[0]
        assert repeat.wait(WAIT) is JobState.SUCCEEDED
        assert not repeat.cache_hit
        assert repeat.result_digest == solo_digests[SOURCES[0]]
        assert service.cluster.jobs_executed > executed_before

    def test_unbatchable_algorithms_run_solo(self, batched_service):
        assert "pagerank" not in BATCHABLE_ALGORITHMS
        service = batched_service
        records = [
            service.submit({
                "tenant": "alice", "algorithm": "pagerank", "dataset": "g",
                "params": {"iterations": 3}, "use_cache": False,
            })
            for _ in range(2)
        ]
        for record in records:
            assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
        assert service.stats()["batch"]["formed"] == 0
        assert all(not r.result.get("batch") for r in records)


@pytest.mark.parametrize("count", [1, 3], ids=["solo", "shared"])
class TestBoundaryControl:
    """Cancel flags honored at the run's first boundary, for a lone job
    and for one lane of a shared run, through the one run seam."""

    @staticmethod
    def flag_last_member_once(service, flag):
        original = service.executor._run
        sizes = []

        def flagging(members, dataset):
            sizes.append(len(members))
            if len(sizes) == 1:
                flag(members[-1])
            return original(members, dataset)

        service.executor._run = flagging
        return sizes

    def test_user_cancel_retires_only_that_member(
        self, batched_service, solo_digests, count
    ):
        service = batched_service
        self.flag_last_member_once(
            service, lambda record: service.cancel_job(record.job_id)
        )
        records = _submit_sssp(service, SOURCES[:count])
        assert records[-1].wait(WAIT) is JobState.CANCELLED
        assert records[-1].error_kind == "cancelled"
        for record, source in zip(records[:-1], SOURCES):
            assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
            assert record.result_digest == solo_digests[source]
        assert service.telemetry.registry.counter(
            "serve.batch.lane_cancelled"
        ).value == (1 if count > 1 else 0)

    def test_stuck_member_gets_the_retry_policy_not_a_cancel(
        self, batched_service, solo_digests, count
    ):
        # The watchdog's verdict is "this run wedged", never "the user
        # gave up": a lone job gets its free retry, and a flagged lane
        # is given back to run alone under that same policy (it used to
        # be finalized CANCELLED with no strike and no retry).
        service = batched_service
        sizes = self.flag_last_member_once(
            service, lambda record: service.flag_stuck(record, 5.0, 1.0)
        )
        records = _submit_sssp(service, SOURCES[:count])
        for record, source in zip(records, SOURCES):
            assert record.wait(WAIT) is JobState.SUCCEEDED, record.error
            assert record.result_digest == solo_digests[source]
        stuck = records[-1]
        assert service.stats()["quarantine"] == {}
        if count == 1:
            assert sizes == [1, 1] and stuck.attempts == 2
        else:
            assert sizes == [3, 1]
            assert [r.no_batch for r in records] == [False, False, True]
            assert service.stats()["batch"]["requeued"] == 1


class TestBatchFormerUnits:
    def test_merged_estimate_charges_lanes_not_copies(self):
        class Stub:
            def __init__(self, estimated_bytes):
                self.estimated_bytes = estimated_bytes

        former = BatchFormer(service=None, batch_max=8, lane_growth=0.25)
        assert former.merged_estimate([]) == 0
        assert former.merged_estimate([Stub(1000)]) == 1000
        # base = max; each extra lane adds lane_growth of its own estimate
        assert former.merged_estimate(
            [Stub(1000), Stub(800), Stub(400)]
        ) == 1000 + 200 + 100


class TestMidBatchCrash:
    @pytest.fixture
    def harness(self, serve_graph):
        cluster = HyracksCluster(num_nodes=3)

        def make_service(**overrides):
            service = JobService(
                replace(DRILL_CONFIG, batch_max=8), cluster=cluster, **overrides
            )
            service.add_dataset("g", vertices=list(serve_graph))
            return service

        yield cluster, make_service
        cluster.close()

    def _crash_mid_batch(self, cluster, make_service, phase, at_hit):
        plan = FaultPlan([
            FaultSpec(site="service.crash", action="io", node=phase,
                      at_hit=at_hit, min_superstep=0),
        ])
        injector = cluster.fault_injector.arm(plan)
        service = make_service()
        service.start()
        try:
            records = _submit_sssp(service, SOURCES)
        except ServiceCrashed:
            pytest.fail("crash fired before the batch dispatched")
        deadline = time.monotonic() + WAIT
        while service.state != "crashed" and time.monotonic() < deadline:
            time.sleep(0.02)
        assert service.state == "crashed", "crash never fired at %r" % phase
        injector.disarm(reason="process dead")
        return service, records

    @pytest.mark.parametrize(
        "phase,at_hit", [("running", 1), ("finishing", 2)],
        ids=["mid-run", "mid-fanout"],
    )
    def test_crash_recovers_every_member_never_half_a_batch(
        self, harness, solo_digests, phase, at_hit
    ):
        cluster, make_service = harness
        crashed, records = self._crash_mid_batch(
            cluster, make_service, phase, at_hit
        )
        # journal marked every batched dispatch, so recovery knows these
        # STARTED records must restart fresh (solo), never resume a
        # wrapped checkpoint
        started = [
            r for r in crashed.journal.replay().records
            if r.get("type") == RECORD_STARTED
        ]
        assert started and all(r.get("batch") for r in started)

        restarted = make_service()
        summary = restarted.recover()
        # every member is either terminal-with-digest or re-queued —
        # no member may be lost or resumed into a half-batch
        assert (
            summary["finished"] + summary["requeued"] + summary["resumed"]
            == len(SOURCES)
        )
        assert summary["resumed"] == 0, "batch members must restart fresh"
        requeued_ids = {
            job_id for job_id, record in restarted.jobs.items()
            if record.state is JobState.QUEUED
        }
        for job_id in requeued_ids:
            # the never-a-half-batch invariant: recovered members restart
            # solo, they do not wait for a batch that no longer exists
            assert restarted.jobs[job_id].no_batch
        restarted.start()
        try:
            for record, source in zip(records, SOURCES):
                replayed = restarted.jobs[record.job_id]
                assert replayed.wait(WAIT) is JobState.SUCCEEDED, (
                    replayed.error
                )
                assert replayed.result_digest == solo_digests[source]
        finally:
            restarted.shutdown(timeout=WAIT)
