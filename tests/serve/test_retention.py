"""What a terminal job keeps: its record for good, its result document
only while it is among the ``RETAINED_RESULTS`` most recently finalized
jobs — live and after a restart alike."""

import json
import os
import sys
import threading
import time

from repro.serve import JobRequest, JobService, JobState, ServeHTTPServer
from repro.serve.client import ServeClient
from repro.serve.lifecycle import RETAINED_RESULTS

WAIT = 60
JOBS = 3 * RETAINED_RESULTS + 5
SOURCES = 24  # distinct sssp sources: the rest of the jobs are repeats
BLOCKED, CANCELLED, POISON = 20, 21, JOBS - 10  # positions in the feed


def request_for(position):
    request = {"tenant": "alice", "algorithm": "sssp", "dataset": "g",
               "params": {"source_id": position % SOURCES}}
    if position in (BLOCKED, CANCELLED, POISON):
        request["use_cache"] = False  # these must reach the executor
    return request


def resident(service):
    # Under the job-state lock: a finalize retains the newest document
    # and drops the oldest atomically, but an unlocked scan can count a
    # document before the drop and the newest one after it (65 of 64).
    with service._lock:
        return sum(
            record.result is not None
            for record in service.list_jobs() if record.state.terminal
        )


def journal_bytes(directory):
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


def answers(service, job_ids):
    """``{job_id: (job document, result status, result document)}`` over
    one keep-alive connection to a throwaway listener."""
    with ServeHTTPServer(service, port=0) as server:
        client = ServeClient("http://%s:%d" % server.address, timeout=WAIT)
        try:
            return {
                job_id: (client.json("GET", "/jobs/" + job_id)[1],)
                + client.json("GET", "/jobs/%s/result" % job_id)
                for job_id in job_ids
            }
        finally:
            client.close()


def new_service(serve_graph, journal_dir):
    service = JobService(num_nodes=3, workers=1,
                         journal="file:%s" % journal_dir)
    service.add_dataset("g", vertices=serve_graph)
    return service


def test_result_documents_are_bounded_live_and_after_restart(
    serve_graph, tmp_path
):
    journal_dir = str(tmp_path / "journal")
    service = new_service(serve_graph, journal_dir)
    gate = threading.Event()
    original = service.executor._run
    blocked = JobRequest.from_dict(request_for(BLOCKED))
    poison = JobRequest.from_dict(request_for(POISON))

    def run(members, dataset):
        request = members[0].request
        if request == blocked:
            gate.wait(WAIT)
        if request == poison:
            raise RuntimeError("compute raised")
        return original(members, dataset)

    service.executor._run = run
    service.start()
    feed = {}       # position -> record
    finalized = []  # records, in the order they became terminal
    produced = {}   # job id -> (digest, document) at the time it finished
    try:
        for position in range(JOBS):
            record = feed[position] = service.submit(request_for(position))
            if position == BLOCKED:
                continue  # holds the only worker until CANCELLED is gone
            if position == CANCELLED:
                assert service.cancel_job(record.job_id)["status"] == "cancelled"
                finalized.append(record)
                gate.set()
                record = feed[BLOCKED]
            assert record.wait(WAIT) is not None
            finalized.append(record)
            if record.state is JobState.SUCCEEDED:
                produced[record.job_id] = (
                    record.result_digest,
                    json.loads(json.dumps(record.result)),
                )
            assert resident(service) <= RETAINED_RESULTS, position
        assert len(finalized) == JOBS
        assert feed[POISON].state is JobState.FAILED
        assert feed[CANCELLED].state is JobState.CANCELLED
        assert len(produced) == JOBS - 2
        assert sum(r.cache_hit for r in finalized) >= JOBS - SOURCES - 3

        job_ids = [record.job_id for record in finalized]
        newest = set(job_ids[-RETAINED_RESULTS:])
        before = answers(service, job_ids)
        for job_id, (job, status, document) in before.items():
            if job_id not in produced:  # failed / cancelled: never had one
                assert status == 410
                assert document["error"]["code"] == "no_result"
                assert job["has_result"] is False
                continue
            digest, original_document = produced[job_id]
            assert job["result_digest"] == digest
            assert job["state"] == "succeeded"
            if job_id in newest:
                assert status == 200 and job["has_result"] is True
                assert {k: document[k] for k in original_document} == original_document
            else:
                assert status == 410 and job["has_result"] is False
                assert document["error"]["code"] == "expired"
                assert document["error"]["details"]["result_digest"] == digest
        assert feed[POISON].job_id in newest and feed[0].job_id not in newest

        # An expired job's answer is one cheap re-submission away while
        # the result cache holds it.
        again = service.submit(request_for(0))
        assert again.cache_hit and again.state is JobState.SUCCEEDED
        assert again.result_digest == produced[feed[0].job_id][0]
        assert resident(service) <= RETAINED_RESULTS
        before = answers(service, job_ids + [again.job_id])
    finally:
        gate.set()
        service.executor._run = original
        service.shutdown(timeout=WAIT)

    # Restart over the same journal: same bound, same answers.
    on_disk = journal_bytes(journal_dir)
    restarted = new_service(serve_graph, journal_dir)
    try:
        summary = restarted.recover()
        assert summary["finished"] + summary["cancelled"] == JOBS + 1
        assert resident(restarted) <= RETAINED_RESULTS
        assert journal_bytes(journal_dir) == on_disk
        restarted.start()
        after = answers(restarted, list(before))
        for job_id, (job, status, document) in before.items():
            recovered_job, recovered_status, recovered_document = after[job_id]
            assert recovered_status == status, job_id
            assert recovered_job["has_result"] == job["has_result"]
            assert recovered_job["result_digest"] == job["result_digest"]
            if status == 200:
                assert recovered_document == document
            else:
                assert (recovered_document["error"]["code"]
                        == document["error"]["code"])
        # The result cache was re-seeded from the journal whatever the
        # records retain: an expired source is still never re-executed.
        again = restarted.submit(request_for(0))
        assert again.cache_hit
        assert again.result_digest == produced[feed[0].job_id][0]
        assert resident(restarted) <= RETAINED_RESULTS
    finally:
        restarted.shutdown(timeout=WAIT)


def test_concurrent_finalizers_and_readers_keep_the_bound(serve_graph):
    """More finalizing threads than cores, a reader fetching results the
    whole time: a lost update on the retention window would leave more
    than ``RETAINED_RESULTS`` documents resident, a torn read a 500."""
    service = JobService(num_nodes=3, workers=1)
    service.add_dataset("g", vertices=serve_graph)
    service.start()
    request = request_for(0)
    assert service.submit(request).wait(WAIT) is JobState.SUCCEEDED
    stop = threading.Event()
    seen = []

    def finalizer():
        while not stop.is_set():
            service.submit(request)  # a cache hit: finalized inline

    def reader(address):
        # Only records already terminal: a listed job still running
        # answers 409, the documented answer and no race. Newest first,
        # so each pass reads a document that is still resident (a 200).
        client = ServeClient("http://%s:%d" % address, timeout=WAIT)
        try:
            while not stop.is_set():
                recent = service.list_jobs()[-2 * RETAINED_RESULTS:]
                finished = [record for record in recent if record.state.terminal]
                for record in finished[::-7]:
                    seen.append(client.request(
                        "GET", "/jobs/%s/result" % record.job_id)[0])
        finally:
            client.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServeHTTPServer(service, port=0) as server:
            threads = [threading.Thread(target=finalizer) for _ in range(8)]
            threads.append(threading.Thread(target=reader, args=(server.address,)))
            for thread in threads:
                thread.start()
            # At least 1 s of churn, and on until the reader has seen a
            # resident result and an expired one (bounded by WAIT): how
            # soon it reaches a 200 depends on how the interpreter
            # schedules one reader against eight finalizers.
            started = time.monotonic()
            while time.monotonic() - started < 1.0 or (
                set(seen) != {200, 410} and time.monotonic() - started < WAIT
            ):
                assert resident(service) <= RETAINED_RESULTS
                time.sleep(0.01)
            stop.set()
            for thread in threads:
                thread.join(WAIT)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        service.shutdown(timeout=WAIT)
    assert len(service.list_jobs()) > 2 * RETAINED_RESULTS
    assert resident(service) == RETAINED_RESULTS
    assert set(seen) == {200, 410}
