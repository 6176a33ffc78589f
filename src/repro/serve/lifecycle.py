"""The job table and every job-state transition that must be durable.

:class:`JobLifecycle` owns the ``jobs`` table, the single terminal
transition (:meth:`finalize`), the three write-ahead journal writers
(``submitted`` / ``started`` / ``finished``), their inverse
(:meth:`recover`, which replays the journal into live state after a
restart), the ``service.crash`` chaos site, and the poison-job
quarantine ledger. Nothing else in the serve tier writes the journal or
marks a job terminal, so "what does a crash at this instant leave
behind?" is answered by this module alone.

It also decides what a terminal job keeps resident: its record
(metadata, timings, ``result_digest``) for good, its result document
only while it is among the :data:`RETAINED_RESULTS` most recently
finalized jobs — live and after :meth:`~JobLifecycle.recover` alike.
"""

from collections import deque

from repro.common.errors import ReproError
from repro.serve.api import (
    REJECT_OVERLOADED,
    JobRecord,
    JobRequest,
    JobState,
    Rejection,
    ServiceCrashed,
    advance_job_ids,
)
from repro.serve.journal import (
    RECORD_CANCELLED,
    RECORD_FINISHED,
    RECORD_STARTED,
    RECORD_SUBMITTED,
)

#: How many of the most recently finalized jobs keep their result
#: document; an older one answers ``GET /jobs/<id>/result`` with
#: ``410 expired``. The journal still holds every result.
RETAINED_RESULTS = 64


class JobLifecycle:
    """Job table + durable transitions for one :class:`JobService`.

    :param service: the owning service (telemetry, journal, queue,
        result cache, and the DFS/cluster the fault injector hangs off).
    :param lock: the service-wide job-state lock; this object guards
        only its own fields (``jobs``, the quarantine ledger, each
        record's terminal transition) with it.
    """

    def __init__(self, service, lock):
        self.service = service
        self.jobs = {}
        #: Set by the ``service.crash`` chaos site: the "process" died.
        self.crashed = False
        self._lock = lock
        # The most recently finalized records, oldest first.
        self._retained = deque()
        # Poison-job quarantine: request identity -> strike bookkeeping.
        self._poison_strikes = {}
        self._quarantine = {}

    # ------------------------------------------------------------------
    # the job table
    # ------------------------------------------------------------------
    def get(self, job_id):
        with self._lock:
            return self.jobs.get(job_id)

    def listing(self):
        """Snapshot of every job record (for ``GET /jobs`` and stats)."""
        with self._lock:
            return list(self.jobs.values())

    def register(self, record):
        with self._lock:
            self.jobs[record.job_id] = record

    def enqueue(self, record):
        """Make ``record`` visible as QUEUED and hand it to the queue —
        the one way into the queue for submissions, journal replay, and
        members a shared run gives back."""
        with self._lock:
            self.jobs[record.job_id] = record
            record.mark(JobState.QUEUED)
            self.service.queue.push(record.request.tenant, record)
            self.service.observe_queue_depth()

    # ------------------------------------------------------------------
    # restart recovery
    # ------------------------------------------------------------------
    def recover(self):
        """Replay the journal into live state — the restart half.

        Call on a fresh service (datasets re-registered first) built
        over the previous process's journal. Per journaled job:

        * ``finished`` → a terminal record; a succeeded one re-seeds the
          result cache from its journaled key, so the job is never
          re-executed, and keeps its result document under the same
          retention rule as a live finalize.
        * ``cancelled`` → stays cancelled.
        * ``started`` with no terminal record → re-queued carrying its
          run id and plan signature; it resumes from its last verified
          checkpoint (or restarts fresh under the same pinned plan when
          no checkpoint committed).
        * ``submitted`` only → simply re-queued.
        * no ``submitted`` record, or one whose request submit would
          refuse (a field or a parameter of the wrong type) → skipped.

        Also advances the job-id counter past every journaled id.
        Returns a summary document.
        """
        service = self.service
        if service.journal is None:
            raise ReproError("recover() requires a journal")
        replay = service.journal.replay()
        jobs = replay.by_job()
        summary = {
            "jobs": len(jobs), "finished": 0, "cancelled": 0,
            "resumed": 0, "requeued": 0, "skipped": 0,
            "torn_bytes": replay.torn_bytes,
        }
        for job_id, entry in jobs.items():
            advance_job_ids(job_id)
            submitted = entry.get(RECORD_SUBMITTED)
            if submitted is None:
                summary["skipped"] += 1
                continue  # cannot reconstruct a request that never logged
            try:
                request = JobRequest.from_dict(submitted.get("request"))
                request.check_params()
            except ValueError:
                summary["skipped"] += 1
                continue
            record = JobRecord(job_id=job_id, request=request)
            record.trace_first_span_id = service.telemetry.tracer.next_id()
            record.recovered = True
            record.deadline_seconds = submitted.get("deadline_seconds")
            record.estimated_bytes = int(submitted.get("estimated_bytes") or 0)
            finished = entry.get(RECORD_FINISHED)
            cancelled = entry.get(RECORD_CANCELLED)
            started = entry.get(RECORD_STARTED)
            self.register(record)
            if finished is not None:
                record.run_id = finished.get("run_id")
                record.cache_hit = bool(finished.get("cache_hit"))
                if finished.get("state") == JobState.SUCCEEDED.value:
                    record.result = finished.get("result")
                    record.result_digest = finished.get("digest")
                    key = finished.get("cache_key")
                    if (
                        key is not None
                        and record.result is not None
                        and service.result_cache is not None
                        and request.use_cache
                    ):
                        record.cache_key = tuple(key)
                        service.result_cache.put(record.cache_key, record.result)
                    record.mark(JobState.SUCCEEDED)
                else:
                    record.error = finished.get("error")
                    record.error_kind = finished.get("error_kind")
                    record.mark(JobState.FAILED)
                summary["finished"] += 1
            elif cancelled is not None:
                record.error = cancelled.get("error") or "cancelled"
                record.error_kind = "cancelled"
                record.mark(JobState.CANCELLED)
                summary["cancelled"] += 1
            else:
                if started is None:
                    summary["requeued"] += 1
                elif started.get("batch"):
                    # A shared run's checkpoints hold wrapped multi-lane
                    # state, so a member interrupted mid-batch is never
                    # resumed — it re-runs solo under the journaled plan
                    # pin, landing in the same bit-identity class (hence
                    # same digest). This is the "never a half-batch"
                    # invariant: every member is individually terminal
                    # or individually re-queued.
                    record.plan_signature = started.get("plan")
                    record.no_batch = True
                    summary["requeued"] += 1
                else:
                    record.resume_run_id = started.get("run_id")
                    record.plan_signature = started.get("plan")
                    summary["resumed"] += 1
                self.enqueue(record)
        with self._lock:
            # Journal order is the order the jobs were finalized in.
            for payload in replay.records:
                if payload.get("type") in (RECORD_FINISHED, RECORD_CANCELLED):
                    record = self.jobs.get(payload.get("job_id"))
                    if record is not None:
                        self._retain(record)
        service.telemetry.event("serve.recover", category="serve", **summary)
        return summary

    # ------------------------------------------------------------------
    # crash simulation (the service.crash chaos site)
    # ------------------------------------------------------------------
    def crash_check(self, phase, **info):
        """Consult the ``service.crash`` chaos site; die if it fires.

        The injector's ``node`` field carries the lifecycle phase
        (``queued`` / ``dispatch`` / ``running`` / ``finishing``) so a
        drill can pick exactly where the process dies.
        """
        try:
            self.service.cluster.fault_injector.check(
                "service.crash", node=phase, **info
            )
        except ReproError as failure:
            self._simulate_crash(phase)
            raise ServiceCrashed(phase) from failure

    def _simulate_crash(self, phase):
        """Everything a SIGKILL does, minus exiting the test process:
        no more admissions, no more journal writes, worker threads
        unwind at their next control point, queued work is abandoned in
        place. Only the journal (and committed checkpoints) carry the
        service's obligations forward."""
        service = self.service
        with self._lock:
            if self.crashed:
                return
            self.crashed = True
        if service.journal is not None:
            service.journal.freeze()
        service.queue.close()
        service.telemetry.event("serve.crash", category="serve", phase=phase)
        service.telemetry.registry.counter("serve.crashes").inc()

    # ------------------------------------------------------------------
    # terminal transitions
    # ------------------------------------------------------------------
    def finalize(self, record, state, error=None, error_kind=None, reason=None):
        """The single path to a terminal state: idempotent mark + WAL.

        Returns ``False`` with no side effects when the record is
        already terminal — this is what makes a cancel racing a
        completion deterministic: whichever transition gets here first
        wins, and the loser observes the winner's state instead of
        silently overwriting it.
        """
        with self._lock:
            if record.state.terminal:
                return False
            if error is not None:
                record.error = error
                record.error_kind = error_kind
            # The journal gets the document as it was at this instant,
            # whatever retention does to the record afterwards.
            result = record.result
            self._retain(record)
            record.mark(state)
        tenant = record.request.tenant
        registry = self.service.telemetry.registry
        # serve.succeeded / serve.failed / serve.cancelled
        registry.counter("serve.%s" % state.value, tenant=tenant).inc()
        # Per-tenant latency histograms, recorded exactly once per job
        # at this single terminal seam. Phases the job never entered (a
        # cache hit has no queue wait or run) are simply absent.
        breakdown = record.span_breakdown()
        for which, key in (
            ("e2e", "end_to_end_seconds"),
            ("queue_wait", "queue_wait_seconds"),
            ("run", "run_seconds"),
        ):
            if breakdown[key] is not None:
                registry.histogram(
                    "serve.latency.%s_seconds" % which, tenant=tenant
                ).observe(breakdown[key])
        self._journal_finished(record, state, result, reason=reason)
        return True

    def _retain(self, record):
        """Count ``record`` as the newest finalized job and drop the
        result document of the one that falls out of the window (caller
        holds the lock)."""
        self._retained.append(record)
        if len(self._retained) > RETAINED_RESULTS:
            self._retained.popleft().result = None

    def journal_submitted(self, record):
        """WAL the submission; a down journal sheds instead of enqueueing
        work the service could not recover after a crash."""
        journal = self.service.journal
        if journal is None:
            return None
        try:
            journal.append(
                RECORD_SUBMITTED, record.job_id,
                request=record.request.to_dict(),
                estimated_bytes=record.estimated_bytes,
                deadline_seconds=record.deadline_seconds,
            )
            return None
        except ServiceCrashed:
            raise
        except ReproError as error:
            self._journal_error(record, error)
            return Rejection(
                code=REJECT_OVERLOADED,
                reason="journal unavailable: %s" % error,
                details={"retry_after_seconds": 1},
            )

    def journal_started(self, record, run_id, **extra):
        """WAL the dispatch (run id + resolved plan). A failed append
        fails this attempt — running work the journal does not know
        about would be invisible to a post-crash recovery. Shared runs
        add ``batch=True`` so recovery re-queues interrupted members
        for solo re-runs instead of resuming wrapped state."""
        if self.service.journal is None:
            return
        self.service.journal.append(
            RECORD_STARTED, record.job_id, run_id=run_id,
            plan=record.plan_signature, attempt=record.attempts, **extra,
        )

    def _journal_finished(self, record, state, result, reason=None):
        journal = self.service.journal
        if journal is None:
            return
        try:
            if state is JobState.CANCELLED:
                journal.append(
                    RECORD_CANCELLED, record.job_id,
                    reason=reason or record.cancel_requested or "user",
                    error=record.error,
                )
                return
            fields = {
                "state": state.value,
                "run_id": record.run_id,
                "cache_hit": record.cache_hit,
            }
            if state is JobState.SUCCEEDED:
                fields["result"] = result
                fields["digest"] = record.result_digest
                if record.cache_key is not None:
                    fields["cache_key"] = list(record.cache_key)
            else:
                fields["error"] = record.error
                fields["error_kind"] = record.error_kind
            journal.append(RECORD_FINISHED, record.job_id, **fields)
        except ServiceCrashed:
            pass  # frozen journal: the restart will re-drive this job
        except ReproError as error:
            # A journal fault must not turn a finished job into a failed
            # one; worst case the restart re-executes it, landing on the
            # same digest.
            self._journal_error(record, error)

    def _journal_error(self, record, error):
        self.service.telemetry.event(
            "serve.journal.error", category="serve",
            job_id=record.job_id, error=str(error),
        )

    # ------------------------------------------------------------------
    # poison-job quarantine
    # ------------------------------------------------------------------
    def strike(self, record, error):
        """Count one deterministic failure; quarantine at two strikes."""
        key = record.request.poison_key()
        with self._lock:
            strikes = self._poison_strikes.get(key, 0) + 1
            self._poison_strikes[key] = strikes
            newly_quarantined = strikes >= 2 and key not in self._quarantine
            if newly_quarantined:
                self._quarantine[key] = {
                    "algorithm": record.request.algorithm,
                    "dataset": record.request.dataset,
                    "params_key": record.request.params_key(),
                    "strikes": strikes,
                    "last_error": str(error),
                    "job_id": record.job_id,
                }
            elif key in self._quarantine:
                self._quarantine[key]["strikes"] = strikes
        if newly_quarantined:
            self.service.telemetry.event(
                "serve.quarantine", category="serve", job_id=record.job_id,
                key=key, strikes=strikes,
            )
            self.service.telemetry.registry.counter("serve.quarantined").inc()
        return strikes

    def quarantine(self, key=None):
        """One key's ledger entry (``None`` when clean), or — with no
        key — a copy of the whole ledger for ``/stats``."""
        with self._lock:
            if key is not None:
                return self._quarantine.get(key)
            return {k: dict(info) for k, info in self._quarantine.items()}

    def clear_quarantine(self, key=None):
        """Operator hook: forgive one poison key (or all of them)."""
        with self._lock:
            if key is None:
                cleared = len(self._quarantine)
                self._quarantine.clear()
                self._poison_strikes.clear()
            else:
                cleared = 1 if self._quarantine.pop(key, None) is not None else 0
                self._poison_strikes.pop(key, None)
        return cleared
