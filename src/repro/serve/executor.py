"""Dispatch and execution: queue → gate → run → boundary → commit.

:class:`Executor` owns the capacity accounting (``_reserved_bytes``,
``_running``, ``_executing`` under the ``_capacity`` condition) and the
one path every dequeued job takes. The unit of execution is a *member
list*: the batch former may hand back several compatible point queries
to share one dataflow run (:mod:`repro.pregelix.multiquery`), and a lone
job is simply the one-member case of the same path — same gate, same
journal records, same boundary hook, same commit. The two cases differ
in exactly two places: how the dataflow is driven (``_dataflow``) and
what happens to work a failed run leaves unfinished (a lone job retries
in place; the survivors of a shared run go back to the queue to run
alone, which is their retry).
"""

import collections
import contextlib
import threading
import time

from repro.algorithms import algorithm_module
from repro.common.errors import DeadlineExceeded, JobCancelled
from repro.pregelix.failure import failure_kind
from repro.pregelix.multiquery import MultiQueryProgram
from repro.pregelix.relations import RunRelations
from repro.pregelix.runtime import PregelixDriver
from repro.serve import plans
from repro.serve.api import (
    ERROR_KIND_TIMEOUT,
    JobState,
    ServiceCrashed,
    result_document,
)
from repro.serve.cache import result_digest

#: Executions of a lone job before a transient failure becomes its final
#: FAILED state. Transients inside a run are already retried by the
#: driver; this covers whole-run replays.
JOB_ATTEMPTS = 2


class Executor:
    """Runs dequeued jobs for one :class:`JobService`.

    :param service: the owning service (queue, batcher, admission,
        datasets, caches, cluster, telemetry, lifecycle).
    :param lock: the service-wide job-state lock the capacity condition
        is built over; this object guards only its own accounting with it.
    """

    def __init__(self, service, lock):
        self.service = service
        self._capacity = threading.Condition(lock)
        self._reserved_bytes = 0
        self._running = {}  # job_id -> JobRecord popped off the queue
        self._executing = {}  # job_id -> JobRecord past the dispatch gate

    # ------------------------------------------------------------------
    # what collaborators may know about the load
    # ------------------------------------------------------------------
    def load(self):
        """One consistent snapshot of the dispatched work."""
        with self._capacity:
            return {
                "running": sorted(self._running),
                "executing": len(self._executing),
                "executing_by_tenant": self._executing_by_tenant(),
                "reserved_bytes": self._reserved_bytes,
            }

    def executing_records(self):
        """Snapshot of jobs past the dispatch gate (for the watchdog)."""
        with self._capacity:
            return list(self._executing.values())

    def _executing_by_tenant(self):
        return collections.Counter(
            record.request.tenant for record in self._executing.values()
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def worker_loop(self):
        service = self.service
        while True:
            record = service.queue.pop(timeout=0.1)
            state = service.state
            if state == "crashed":
                # The "process" died. Anything still queued — even a
                # record just popped — is abandoned in place; only the
                # journal carries it across the restart.
                return
            if record is None:
                if state in ("draining", "stopped") and len(service.queue) == 0:
                    return
                continue
            if record.state is not JobState.QUEUED:
                continue  # cancelled while queued but before removal
            record.mark_trace("dequeued")
            service.observe_queue_depth()
            members = None
            if service.batcher is not None:
                members = service.batcher.form(record)
            try:
                self._dispatch(members or [record])
            except ServiceCrashed:
                return  # this worker thread died with the process

    def _dispatch(self, members):
        """Gate + execute + release for one member list.

        A shared run reserves its *merged* working-set estimate (one
        dataset scan plus per-lane growth) and occupies one execution
        slot, but every member shows in ``_running``/``_executing`` so
        drain, stats, and the watchdog keep seeing N independent jobs.
        """
        if len(members) > 1:
            estimate = self.service.batcher.merged_estimate(members)
        else:
            estimate = members[0].estimated_bytes
        with self._capacity:
            for record in members:
                record.mark_trace("dequeued")  # companions left the queue too
                # Visible to drain() from the moment it left the queue.
                self._running[record.job_id] = record
            while not self._may_start(members, estimate):
                self._capacity.wait(timeout=0.5)
            self._reserved_bytes += estimate
            for record in members:
                self._executing[record.job_id] = record
        unfinished = ()
        try:
            unfinished = self._execute(members)
        finally:
            with self._capacity:
                self._reserved_bytes -= estimate
                for record in members:
                    del self._executing[record.job_id]
                    del self._running[record.job_id]
                self._capacity.notify_all()
        # Only after the slot is released: a re-queued member may be
        # picked up by another worker at once.
        for record in unfinished:
            self.service.batcher.requeue(record)

    def _may_start(self, members, estimate):
        """Dispatch gate: never over-commit memory or a tenant's run cap."""
        if self._reserved_bytes == 0 and not self._executing:
            return True  # a lone run may always start (it passed admission)
        admission = self.service.admission
        executing = self._executing_by_tenant()
        for tenant in {record.request.tenant for record in members}:
            if executing[tenant] >= admission.quota(tenant).max_running:
                return False
        capacity = admission.aggregate_capacity()
        free = min(admission.aggregate_free(), capacity - self._reserved_bytes)
        return estimate <= free

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, members):
        """Run ``members`` as one dataflow; bring each to a terminal state.

        Terminal outcomes are always *per member*: a deadline fails every
        still-live member with ``timeout``, a user cancel retires only
        that member, a crash leaves the journal's per-member ``started``
        records to drive individual recovery. Any other failure is
        retried: a lone job in place (up to :data:`JOB_ATTEMPTS`, the
        watchdog's ``stuck`` verdict counting a poison strike), a shared
        run by handing its survivors back instead of failing N jobs for
        one engine fault. Returns the members left unfinished — the
        caller re-queues them to run alone.
        """
        service, lifecycle = self.service, self.service.lifecycle
        event = service.telemetry.event
        leader, solo = members[0], len(members) == 1
        request = leader.request
        live = list(members)  # _run drops members that leave the run early
        now = time.monotonic()
        for record in members:
            record.mark(JobState.RUNNING)
            record.deadline_base = now
        if solo:
            started, failed = "serve.job_start", "serve.job_failure"
            who = {"job_id": leader.job_id, "tenant": request.tenant}
        else:
            started, failed = "serve.batch.start", "serve.batch.failure"
            who = {"leader": leader.job_id, "size": len(members),
                   "members": [r.job_id for r in members]}
        event(started, category="serve", algorithm=request.algorithm,
              deadline_seconds=leader.deadline_seconds, **who)
        dataset = service.datasets[request.dataset]
        attempts = JOB_ATTEMPTS if solo else 1
        for attempt in range(1, attempts + 1):
            for record in live:
                record.attempts = attempt
            retry = None
            try:
                self._run(live, dataset)
                for record in live:
                    self._commit(record, shared=not solo)
            except ServiceCrashed:
                # The "process" died mid-run: no terminal mark, no WAL
                # record — exactly the amnesia a real crash leaves. The
                # checkpoints and the journal's `started` records survive
                # for the restarted service to recover from.
                raise
            except DeadlineExceeded as error:
                for record in live:
                    tenant = record.request.tenant
                    event(
                        "serve.deadline.exceeded", category="serve",
                        job_id=record.job_id, tenant=tenant,
                        budget_seconds=record.deadline_seconds,
                        elapsed_seconds=error.elapsed_seconds,
                    )
                    service.telemetry.registry.counter(
                        "serve.deadline_exceeded", tenant=tenant
                    ).inc()
                    lifecycle.finalize(record, JobState.FAILED, error=str(error),
                                       error_kind=ERROR_KIND_TIMEOUT)
            except JobCancelled as error:
                if error.reason != "stuck":
                    for record in live:
                        lifecycle.finalize(
                            record, JobState.CANCELLED, error=str(error),
                            error_kind="cancelled", reason=error.reason,
                        )
                elif solo:
                    strikes = lifecycle.strike(leader, error)
                    if strikes < 2 and attempt < attempts:
                        # One free retry: a wedged superstep may have
                        # been bad luck (overloaded machine, noisy I/O),
                        # not a property of the job.
                        leader.cancel_requested = None
                        retry = "stuck"
                    else:
                        lifecycle.finalize(leader, JobState.FAILED,
                                           error=str(error), error_kind="stuck")
            except Exception as error:  # one run's failure never kills the service
                # Only a transient earns a whole-run replay (the machine
                # is healthy); a machine loss already went through the
                # driver's checkpoint recovery, so here it is final.
                kind = failure_kind(error)
                event(failed, category="serve", kind=kind, attempt=attempt,
                      error=str(error), **who)
                if solo:
                    leader.error, leader.error_kind = str(error), kind
                    if kind == "transient" and attempt < attempts:
                        retry = kind
                    else:
                        lifecycle.finalize(leader, JobState.FAILED,
                                           error=str(error), error_kind=kind)
            if retry is None:
                break
            event("serve.retry", category="serve", job_id=leader.job_id,
                  attempt=attempt, kind=retry)
        return [record for record in members if not record.state.terminal]

    def _run(self, members, dataset):
        """One dataflow run over ``members``; leaves each live member's
        result document, digest and cache key on its record.

        ``members`` is the run's live list: a member cancelled or
        retired at a superstep boundary is removed from it, and only
        what remains is committed by the caller. This is the one seam
        tests stub to make a run block, fail, or be observed.
        """
        service, lifecycle = self.service, self.service.lifecycle
        lanes = list(members)  # lane i is lanes[i] for the whole run
        leader, shared = lanes[0], len(lanes) > 1
        request = leader.request
        # A journaled plan signature (set on replay of an interrupted
        # run) pins the physical plan, so the re-run lands in the same
        # bit-identity class as the original despite the restarted
        # process's empty plan cache.
        job = service.build_job(request, plan_signature=leader.plan_signature)
        interval = service.config.checkpoint_interval
        if (
            service.journal is not None
            and interval
            and not getattr(job, "checkpoint_interval", 0)
        ):
            # Resume needs checkpoints to land on.
            job.checkpoint_interval = interval
        plan_signature = job.plan_signature()
        if shared:
            run_id = "serve-batch-%s-x%d" % (leader.job_id, len(lanes))
        else:
            run_id = leader.resume_run_id or (
                "serve-%s-a%d" % (leader.job_id, leader.attempts)
            )
        for record in lanes:
            record.plan_signature = plan_signature
            record.trace_run_ids.add(run_id)
            if shared:
                record.run_id = run_id
                lifecycle.journal_started(record, run_id, batch=True)
            else:
                lifecycle.journal_started(record, run_id)
        lifecycle.crash_check("dispatch", job_id=leader.job_id,
                              members=len(lanes))
        scratch = "/serve/jobs/%s" % leader.job_id
        crashed = False
        try:
            executed, outcome, document = self._dataflow(
                lanes, members, job, dataset, run_id, scratch + "/out"
            )
            for lane, record in enumerate(lanes):
                if record not in members:
                    continue  # left the run at a boundary
                lane_span = contextlib.nullcontext()
                if shared:
                    record.mark_trace("fanout_begin")
                    lane_span = service.telemetry.span(
                        "lane:%d" % lane, category="serve", run_id=run_id,
                        job_id=record.job_id,
                    )
                with lane_span:
                    record.result = document(lane)
                    record.result_digest = result_digest(record.result)
                    record.cache_key = plans.cache_key(
                        record.request, dataset, executed
                    )
                if shared:
                    service.telemetry.event(
                        "serve.batch.lane", category="serve",
                        job_id=record.job_id, lane=lane, run_id=run_id,
                        digest=record.result_digest,
                        supersteps=record.result["supersteps"],
                    )
            service.plan_cache.remember(dataset.digest, request.algorithm, executed)
        except ServiceCrashed:
            crashed = True
            raise
        finally:
            # The run's DFS scratch is not needed once the documents are
            # built, and the driver already released what the run held
            # on the nodes. What a *failed* run keeps for a resume — GS
            # and its checkpoints — is released here: the next attempt
            # runs under a new run id, so nobody will come back for it.
            # A dead process, though, cleans nothing.
            if not crashed:
                service.cluster.dfs.delete(scratch, recursive=True)
                RunRelations(job, service.cluster.dfs, run_id).release(service.cluster)

    def _dataflow(self, lanes, members, job, dataset, run_id, output_path):
        """Drive the engine: the only place a lone job and a shared run
        differ. Returns ``(executed job, outcome, lane -> document)``."""
        service = self.service
        leader = lanes[0]
        algorithm = leader.request.algorithm
        module = algorithm_module(algorithm)
        driver = PregelixDriver(service.cluster, service.cluster.dfs)
        if len(lanes) > 1:
            program = MultiQueryProgram(
                module, [record.request.params for record in lanes],
                template_job=job,
            )
            outcome, lane_lines = program.run(
                driver, dataset.path, output_path, run_id=run_id,
                boundary_chain=self._boundary_hook(members, program.control),
            )
            steps = program.lane_supersteps(outcome)
            return program.job, outcome, lambda lane: program.lane_document(
                lane, algorithm, outcome, lane_lines[lane],
                lane_supersteps=steps[lane],
            )
        io = {
            "run_id": run_id,
            "output_path": output_path,
            "parse_line": getattr(module, "parse_line", None),
            "format_record": getattr(module, "format_record", None),
            "boundary_hook": self._boundary_hook(members),
        }
        # Scoped tracer context: every span this run records — driver
        # phases and supersteps, task spans, storage ops,
        # even spans from pool worker threads — is stamped with this
        # job's id, which keeps the shared session's trace separable per
        # job. (A shared run's spans carry only the run id: the engine
        # work belongs to every member.)
        with service.telemetry.tracer.context(
            job_id=leader.job_id, tenant=leader.request.tenant
        ):
            if leader.resume_run_id:
                outcome = driver.resume(job, dataset.path, **io)
                leader.resume_run_id = None
            else:
                outcome = driver.run(job, dataset.path, **io)
        leader.run_id = outcome.run_id
        return job, outcome, lambda lane: result_document(
            algorithm, job, outcome, results=driver.read_output(output_path)
        )

    def _commit(self, record, shared):
        """Publish one member's result: the crash point between "result
        computed" and "result durable", the result cache, the terminal
        transition (which journals ``finished``)."""
        service = self.service
        service.lifecycle.crash_check("finishing", job_id=record.job_id)
        if service.result_cache is not None and record.request.use_cache:
            service.result_cache.put(record.cache_key, record.result)
        if shared:
            # End the fan-out phase before finalizing: finalize stamps
            # "finished", and the synthetic fan-out span must nest
            # inside the run span, not straddle it.
            record.mark_trace("fanout_end")
        service.lifecycle.finalize(record, JobState.SUCCEEDED)
        service.telemetry.event(
            "serve.complete", category="serve", job_id=record.job_id,
            tenant=record.request.tenant, cache_hit=False,
            attempts=record.attempts, batched=shared,
        )

    def _boundary_hook(self, members, control=None):
        """The cooperative control point, run at every superstep boundary.

        Order matters: progress first (the watchdog must see the
        boundary), then crash simulation (no cleanup — checkpoints must
        survive), then cancellation, then the deadline.

        ``control`` is the shared run's lane control; without it a
        cancel stops the whole (one-member) run. With it a cancel
        retires just that lane and the others run on: a ``user`` cancel
        is finalized CANCELLED right here, a watchdog ``stuck`` verdict
        only drops the member from the live list — unfinished, it is
        re-queued to run alone, where the strike/retry policy applies.
        The deadline budget is equal across members by batch
        compatibility, so one check covers the run.
        """
        service, lifecycle = self.service, self.service.lifecycle
        lanes = list(members)
        leader = lanes[0]

        def hook(superstep, gs=None):
            for record in members:
                record.note_boundary()
            if lifecycle.crashed:
                # Another thread's fault killed the "process"; every
                # running job stops at its next boundary, uncleaned.
                raise ServiceCrashed("running")
            lifecycle.crash_check(
                "running", job_id=leader.job_id, superstep=superstep,
                members=len(lanes),
            )
            for record in list(members):
                reason = record.cancel_requested
                if not reason:
                    continue
                message = "job %s cancelled (%s) at superstep %d" % (
                    record.job_id, reason, superstep)
                if control is None:
                    raise JobCancelled(message, reason=reason)
                lane = lanes.index(record)
                control.cancel(lane)
                members.remove(record)
                if reason == "stuck":
                    record.cancel_requested = None
                else:
                    lifecycle.finalize(
                        record, JobState.CANCELLED, error=message,
                        error_kind="cancelled", reason=reason,
                    )
                service.telemetry.registry.counter(
                    "serve.batch.lane_cancelled"
                ).inc()
                service.telemetry.event(
                    "serve.batch.cancel_lane", category="serve",
                    job_id=record.job_id, lane=lane, reason=reason,
                    superstep=superstep,
                )
            if not members:
                raise JobCancelled(
                    "all %d lanes left the run by superstep %d"
                    % (len(lanes), superstep),
                    reason="user",
                )
            budget = leader.deadline_seconds
            if budget is not None and leader.deadline_base is not None:
                elapsed = time.monotonic() - leader.deadline_base
                if elapsed > budget:
                    raise DeadlineExceeded(
                        "job %s exceeded its %.3fs deadline at superstep %d "
                        "(%.3fs elapsed)"
                        % (leader.job_id, budget, superstep, elapsed),
                        budget_seconds=budget, elapsed_seconds=elapsed,
                    )

        return hook
