"""The multi-tenant job service: one resident cluster, many jobs.

:class:`JobService` turns the one-shot driver into a long-running server
(the Quegel move: a Pregel engine becomes a query service once jobs
share the loaded infrastructure). It serves on a single
:class:`~repro.hyracks.engine.HyracksCluster`, keeps named datasets
resident in that cluster's :class:`~repro.hdfs.MiniDFS`, and executes
submitted jobs concurrently on a pool of dispatcher threads. Each job
gets its own driver and a run-id-scoped temp namespace (indexes,
message files, DFS scratch) over the *shared*, thread-safe buffer
caches and file managers from DESIGN.md §3 — so concurrent jobs are
bit-identical to the same jobs run back to back.
These dispatcher threads, one housekeeping thread (autoscaler, watchdog,
history) and the HTTP listener are the only concurrency in the system:
within one job, the engine runs a stage's clones one after another.

The class is the front door and the wiring; the state behind it is
split by owner. This module keeps construction, datasets,
start/drain/shutdown, submission (shed → validate → result cache →
admission → queue), cancellation and the stats/health documents.
:mod:`repro.serve.lifecycle` owns the job table, terminal transitions,
the write-ahead journal records and restart recovery;
:mod:`repro.serve.executor` owns capacity accounting and the one
dispatch → run → boundary → commit path every dequeued job takes (a
lone job is a batch of one). See DESIGN.md §6.
"""

import dataclasses
import threading
import time

from repro.common.errors import ReproError
from repro.hyracks.engine import HyracksCluster
from repro.pregelix.api import PlanChoice
from repro.serve.autoscale import Autoscaler
from repro.serve import plans
from repro.serve.batching import BatchFormer
from repro.serve.admission import REJECT, AdmissionController
from repro.serve.api import (
    REJECT_BAD_REQUEST,
    REJECT_DRAINING,
    REJECT_OVERLOADED,
    REJECT_QUARANTINED,
    REJECT_UNKNOWN_ALGORITHM,
    REJECT_UNKNOWN_DATASET,
    SERVABLE_ALGORITHMS,
    AdmissionRejected,
    JobRecord,
    JobRequest,
    JobState,
    Rejection,
    next_job_id,
)
from repro.serve.cache import PlanCache, ResultCache, result_digest
from repro.serve.config import ServeConfig
from repro.serve.datasets import load_dataset
from repro.serve.documents import ServiceDocuments
from repro.serve.executor import Executor
from repro.serve.history import INTERVAL_SECONDS, HistorySampler
from repro.serve.journal import open_journal
from repro.serve.lifecycle import JobLifecycle
from repro.serve.queue import FairShareQueue
from repro.serve.watchdog import StuckJobWatchdog

#: Fair-share aging at the service: pass units forgiven per second a
#: tenant's head job has waited (DESIGN.md §6 "Fair share").
AGING_RATE = 1.0

#: The housekeeping thread's period: the autoscaler and the watchdog run
#: every tick, the history sampler every ``HISTORY_TICKS``-th.
TICK_SECONDS = 0.25
HISTORY_TICKS = int(INTERVAL_SECONDS / TICK_SECONDS)

#: The largest manual ``scale_to`` target without an autoscaler: each
#: added node is a ``NodeContext`` (a directory, a buffer cache, registry
#: exposures) built on the caller's thread. Twice the paper's 32 machines.
MAX_SCALE_NODES = 64


class JobService(ServiceDocuments):
    """A long-running, multi-tenant Pregelix job service.

    :param config: the :class:`~repro.serve.config.ServeConfig` (every
        knob, its default and its range live there); keyword ``changes``
        are applied to it with :func:`dataclasses.replace`, so
        ``JobService(workers=1)`` reads as ``JobService(ServeConfig(workers=1))``.
    :param cluster: a :class:`~repro.hyracks.engine.HyracksCluster` to
        serve on instead of an owned one (the service does not close it).

    The service keeps its datasets (and a ``dfs:`` journal) in its
    cluster's DFS and reports into its cluster's telemetry session.
    """

    def __init__(self, config=ServeConfig(), *, cluster=None, **changes):
        if changes:
            config = dataclasses.replace(config, **changes)
        self.config = config
        self._owns_cluster = cluster is None
        if cluster is None:
            cluster = HyracksCluster(
                num_nodes=config.num_nodes,
                node_memory_bytes=config.node_memory_bytes,
            )
        self.cluster = cluster
        self.telemetry = cluster.telemetry
        self.autoscaler = Autoscaler(self, config.autoscale) if config.autoscale else None
        self.admission = AdmissionController(cluster, config.quotas)
        self.queue = FairShareQueue(aging_rate=AGING_RATE)
        for tenant, quota in self.admission.quotas.items():
            self.queue.set_weight(tenant, quota.weight)
        self.result_cache = (
            ResultCache(config.result_cache_capacity, telemetry=self.telemetry)
            if config.result_cache_capacity
            else None
        )
        self.plan_cache = PlanCache()
        self.datasets = {}
        self.started_at = None
        self._threads = []
        self._housekeeper = None
        self._stop_housekeeping = threading.Event()
        # One lock serialises job-state transitions across the three
        # owners; each guards only its own fields with it.
        self._lock = threading.RLock()
        self._state = "new"  # new / serving / draining / stopped
        self.lifecycle = JobLifecycle(self, self._lock)
        self.jobs = self.lifecycle.jobs
        self.executor = Executor(self, self._lock)
        self.journal = None
        if config.journal is not None:
            self.journal = open_journal(
                config.journal,
                telemetry=self.telemetry,
                fault_injector=cluster.fault_injector,
                dfs=cluster.dfs,
            )
        self.watchdog = StuckJobWatchdog(self) if config.watchdog else None
        self.batcher = None
        if config.batch_max > 1:
            self.batcher = BatchFormer(
                self, batch_max=config.batch_max, batch_window=config.batch_window
            )
        self.history = HistorySampler(self)

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------
    def add_dataset(self, name, vertices=None, local_dir=None, num_files=None):
        """Load a graph into the resident DFS under ``/serve/datasets/``.

        :param vertices: an iterable of ``(vid, value, edges)`` tuples, or
        :param local_dir: a directory of part files to ingest verbatim.
        """
        if num_files is None:
            num_files = max(len(self.cluster.alive_node_ids()), 1)
        dataset = load_dataset(self.cluster.dfs, name, vertices, local_dir, num_files)
        with self._lock:
            self.datasets[name] = dataset
        self.telemetry.event(
            "serve.dataset", category="serve", dataset=name,
            bytes=dataset.nbytes, digest=dataset.digest,
        )
        return dataset

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        with self._lock:
            if self.state == "crashed":
                raise ReproError(
                    "service crashed; build a fresh JobService over the "
                    "same journal and call recover()"
                )
            if self._state == "serving":
                return self
            if self._state == "stopped":
                raise ReproError("service already stopped")
            self._state = "serving"
            self.started_at = time.time()
            for i in range(self.config.workers):
                thread = threading.Thread(
                    target=self.executor.worker_loop,
                    name="serve-worker-%d" % i,
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        if self.autoscaler is not None:
            # Enter the configured band before serving traffic.
            policy = self.autoscaler.policy
            current = len(self.cluster.schedulable_node_ids())
            target = min(max(current, policy.min_nodes), policy.max_nodes)
            if target != current:
                self.cluster.scale_to(target)
        self._housekeeper = threading.Thread(
            target=self._housekeep, name="serve-housekeeping", daemon=True
        )
        self._housekeeper.start()
        self.telemetry.event(
            "serve.start", category="serve", workers=self.config.workers,
            nodes=len(self.cluster.nodes),
        )
        return self

    def drain(self, timeout=None):
        """Stop admitting, finish every queued and in-flight job.

        Returns ``True`` when everything completed within ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            if self._state == "serving":
                self._state = "draining"
        self.telemetry.event("serve.drain", category="serve")
        while True:
            if self.state == "crashed":
                return False  # nothing will finish; the journal has it
            if not self.executor.load()["running"] and len(self.queue) == 0:
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.01)

    def shutdown(self, drain=True, timeout=None):
        """Drain (optionally), stop the workers, release the cluster."""
        self._stop_housekeeping.set()
        if self._housekeeper is not None:
            self._housekeeper.join(timeout=5.0)
        drained = self.drain(timeout=timeout) if drain else False
        with self._lock:
            self._state = "draining"
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        with self._lock:
            self._state = "stopped"
        if self._owns_cluster:
            self.cluster.close()
        self.telemetry.event("serve.stop", category="serve", drained=drained)
        return drained

    @property
    def state(self):
        """``new`` / ``serving`` / ``draining`` / ``stopped``, or
        ``crashed`` once the ``service.crash`` chaos site has fired."""
        return "crashed" if self.lifecycle.crashed else self._state

    def recover(self):
        """Replay the journal into live state (see
        :meth:`repro.serve.lifecycle.JobLifecycle.recover`)."""
        return self.lifecycle.recover()

    def clear_quarantine(self, key=None):
        """Operator hook: forgive one poison key (or all of them)."""
        return self.lifecycle.clear_quarantine(key)

    def _housekeep(self):
        """The housekeeping thread: one pass of the periodic duties every
        ``TICK_SECONDS``; a duty that throws is skipped for that tick."""
        tick = 0
        while not self._stop_housekeeping.wait(TICK_SECONDS):
            tick += 1
            duties = []
            if self.autoscaler is not None:  # may be attached after __init__
                duties.append(self.autoscaler.tick)
            if self.watchdog is not None:
                duties.append(self.watchdog.scan)
            if tick % HISTORY_TICKS == 0:
                duties.append(self.history.sample)
            for duty in duties:
                try:
                    duty()
                except Exception:  # periodic work must never stop serving
                    pass

    def housekeeping_state(self):
        """The housekeeping tick and whether its thread is alive (the
        ``interval``/``running`` of the watchdog and autoscaler sections)."""
        thread = self._housekeeper
        return {
            "interval": TICK_SECONDS,
            "running": thread is not None and thread.is_alive(),
        }

    def observe_queue_depth(self):
        self.telemetry.registry.gauge("serve.queue_depth").set(len(self.queue))

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.shutdown()
        return False

    # ------------------------------------------------------------------
    # watchdog surface
    # ------------------------------------------------------------------
    def executing_records(self):
        """Snapshot of jobs past the dispatch gate (for the watchdog)."""
        return self.executor.executing_records()

    def flag_stuck(self, record, stall_seconds, threshold_seconds):
        """Watchdog callback: cooperatively cancel a wedged run."""
        with self._lock:
            if record.state.terminal or record.cancel_requested:
                return False
            record.cancel_requested = "stuck"
        self.telemetry.event(
            "serve.watchdog.flag", category="serve", job_id=record.job_id,
            stall_seconds=round(stall_seconds, 3),
            threshold_seconds=round(threshold_seconds, 3),
        )
        self.telemetry.registry.counter("serve.watchdog_flagged").inc()
        return True

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request):
        """Admit ``request``; returns its :class:`JobRecord`.

        Raises :class:`AdmissionRejected` (with a structured
        :class:`Rejection`) instead of queueing work that cannot run.
        A result-cache hit returns an already-SUCCEEDED record without
        touching the queue.
        """
        if isinstance(request, dict):
            request = JobRequest.from_dict(request)
        self.telemetry.event(
            "serve.submit", category="serve", tenant=request.tenant,
            algorithm=request.algorithm, dataset=request.dataset,
        )
        self.telemetry.registry.counter("serve.submitted", tenant=request.tenant).inc()
        # Overload shedding runs first: when the service is drowning,
        # the cheapest possible answer — before validation even builds a
        # throwaway job — is the retryable 503.
        rejection = self._shed_check()
        if rejection is not None:
            self.telemetry.registry.counter("serve.shed").inc()
            return self._reject(request, rejection)
        rejection = self._validate(request)
        if rejection is not None:
            return self._reject(request, rejection)
        quarantined = self.lifecycle.quarantine(request.poison_key())
        if quarantined is not None:
            return self._reject(request, Rejection(
                code=REJECT_QUARANTINED,
                reason="request matches a quarantined poison job "
                       "(%d deterministic failures)" % quarantined["strikes"],
                details=dict(quarantined),
            ))

        dataset = self.datasets[request.dataset]
        record = JobRecord(job_id=next_job_id(), request=request)
        record.trace_first_span_id = self.telemetry.tracer.next_id()
        record.deadline_seconds = (
            request.deadline_seconds
            if request.deadline_seconds is not None
            else self.config.default_deadline_seconds
        )

        # Serve repeats straight from the cache — no admission, no queue.
        cached = self._cached_result(request, dataset)
        if cached is not None:
            record.cache_hit = True
            record.result = dict(cached)
            record.result_digest = result_digest(record.result)
            rejection = self.lifecycle.journal_submitted(record)
            if rejection is not None:
                return self._reject(request, rejection)
            self.lifecycle.register(record)
            self.lifecycle.finalize(record, JobState.SUCCEEDED)
            self.telemetry.event(
                "serve.complete", category="serve", job_id=record.job_id,
                tenant=request.tenant, cache_hit=True,
            )
            return record

        rejection = None
        with self.telemetry.span(
            "admission", category="serve", job_id=record.job_id,
            tenant=request.tenant,
        ), self._lock:
            load = self.executor.load()
            decision = self.admission.decide(
                request,
                dataset_bytes=dataset.nbytes,
                running_estimated_bytes=load["reserved_bytes"],
                running_by_tenant=load["executing_by_tenant"][request.tenant],
                queued_by_tenant=self.queue.depth(request.tenant),
            )
            if decision.action == REJECT:
                rejection = decision.rejection
            else:
                record.estimated_bytes = decision.estimated_bytes
                # The WAL write happens before the job becomes visible:
                # once a client can observe QUEUED, a crash can no
                # longer lose the submission.
                rejection = self.lifecycle.journal_submitted(record)
                if rejection is None:
                    self.lifecycle.enqueue(record)
        if rejection is not None:
            return self._reject(request, rejection)
        self.lifecycle.crash_check("queued", job_id=record.job_id)
        self.telemetry.event(
            "serve.admit", category="serve", job_id=record.job_id,
            tenant=request.tenant, action=decision.action,
            estimated_bytes=decision.estimated_bytes, reason=decision.reason,
        )
        return record

    def _shed_check(self):
        """Overload shedding (DESIGN.md §6): a retryable rejection when
        the queue is too deep or the journal's rolling append latency
        says durable writes can no longer keep up with arrivals."""
        depth, limit = len(self.queue), self.config.shed_queue_depth
        if limit is not None and depth >= limit:
            return _overloaded(
                "queue depth %d at shed threshold %d" % (depth, limit), 1,
                queue_depth=depth, threshold=limit,
            )
        limit = self.config.shed_append_seconds
        if self.journal is not None and limit is not None:
            avg = self.journal.avg_append_seconds()
            if avg > limit:
                return _overloaded(
                    "journal append latency %.4fs over shed threshold %.4fs"
                    % (avg, limit), 2,
                    avg_append_seconds=avg, threshold_seconds=limit,
                )
        return None

    def _validate(self, request):
        state = self.state
        if state != "serving":
            return Rejection(
                code=REJECT_DRAINING,
                reason="service is %s and not accepting jobs" % state,
                details={"state": state},
            )
        if request.algorithm not in SERVABLE_ALGORITHMS:
            return Rejection(
                code=REJECT_UNKNOWN_ALGORITHM,
                reason="unknown algorithm %r" % request.algorithm,
                details={"known": sorted(SERVABLE_ALGORITHMS)},
            )
        if request.dataset not in self.datasets:
            return Rejection(
                code=REJECT_UNKNOWN_DATASET,
                reason="unknown dataset %r" % request.dataset,
                details={"known": sorted(self.datasets)},
            )
        if request.plan is not None:
            try:
                PlanChoice.parse(request.plan)
            except ValueError as error:
                return Rejection(
                    code=REJECT_BAD_REQUEST,
                    reason=str(error),
                    details={"plan": request.plan},
                )
        try:
            # Front-load parameter errors: a job that cannot even be
            # constructed must never consume a queue slot.
            request.check_params()
            self.build_job(request)
        except (ReproError, TypeError, ValueError) as error:
            return Rejection(
                code=REJECT_BAD_REQUEST,
                reason=str(error),
                details={"params": dict(request.params)},
            )
        return None

    def _reject(self, request, rejection):
        self.telemetry.event(
            "serve.reject", category="serve", tenant=request.tenant,
            code=rejection.code, reason=rejection.reason,
        )
        self.telemetry.registry.counter(
            "serve.rejected", tenant=request.tenant, code=rejection.code
        ).inc()
        raise AdmissionRejected(rejection)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, job_id):
        return self.lifecycle.get(job_id)

    def list_jobs(self):
        """Snapshot of every job record (the ``GET /jobs`` listing)."""
        return self.lifecycle.listing()

    def cancel_job(self, job_id, reason="user"):
        """Cancel a job; returns a structured status document.

        ``status`` is one of:

        * ``cancelled`` — the job was still queued; it is now terminal.
        * ``cancelling`` — the job is running; the cooperative cancel
          flag is set and honored at its next superstep boundary.
        * ``terminal`` — the job already finished. Its final state is
          included, so a cancel racing a completion is deterministic:
          whichever transition committed first wins and the caller is
          told exactly what won, never a false ``cancelled``.
        * ``not_found`` — no such job.
        """
        with self._lock:
            record = self.jobs.get(job_id)
            if record is None:
                return {"job_id": job_id, "status": "not_found",
                        "cancelled": False}
            if record.state.terminal:
                return {"job_id": job_id, "status": "terminal",
                        "state": record.state.value, "cancelled": False}
            removed = 0
            if record.state is JobState.QUEUED:
                removed = self.queue.remove(lambda item: item.job_id == job_id)
                if removed:
                    self.observe_queue_depth()
            if not removed:
                # Running, or queued-but-already-popped: cooperative.
                record.cancel_requested = record.cancel_requested or reason
                self.telemetry.event(
                    "serve.cancel", category="serve", job_id=job_id,
                    status="cancelling", reason=reason,
                )
                return {"job_id": job_id, "status": "cancelling",
                        "state": record.state.value, "cancelled": False}
        self.lifecycle.finalize(record, JobState.CANCELLED,
                                error="cancelled while queued",
                                error_kind="cancelled", reason=reason)
        self.telemetry.event(
            "serve.cancel", category="serve", job_id=job_id,
            status="cancelled", reason=reason,
        )
        return {"job_id": job_id, "status": "cancelled",
                "state": record.state.value, "cancelled": True}

    def cancel(self, job_id):
        """Boolean convenience: ``True`` only for a queued-job cancel."""
        return self.cancel_job(job_id)["status"] == "cancelled"

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def scale_to(self, target):
        """Manually resize the cluster (the ``POST /cluster/scale`` path).

        Takes effect at running jobs' next superstep boundaries; new
        jobs see the new size immediately. Returns a summary document.
        """
        target = int(target)
        if self.autoscaler is not None:
            policy = self.autoscaler.policy
            if not policy.min_nodes <= target <= policy.max_nodes:
                raise ValueError(
                    "target %d outside the autoscale range %d:%d"
                    % (target, policy.min_nodes, policy.max_nodes)
                )
        elif target > MAX_SCALE_NODES:
            raise ValueError(
                "target %d above the %d node limit" % (target, MAX_SCALE_NODES)
            )
        added, draining = self.cluster.scale_to(target)
        self.telemetry.event(
            "serve.scale", category="serve", direction="manual", target=target,
            added=len(added), draining=len(draining),
        )
        return {
            "target": target,
            "added": added,
            "draining": draining,
            "schedulable": len(self.cluster.schedulable_node_ids()),
        }

    # ------------------------------------------------------------------
    # request -> job
    # ------------------------------------------------------------------
    def build_job(self, request, plan_signature=None):
        """``request`` as a job with its physical plan resolved (see
        :func:`repro.serve.plans.build_job`)."""
        return plans.build_job(
            request, self.datasets[request.dataset], self.plan_cache,
            plan_signature,
        )

    def _cached_result(self, request, dataset):
        if self.result_cache is None or not request.use_cache:
            return None
        if request.optimize:
            return None  # the optimizer may end on any plan class
        return self.result_cache.get(
            plans.cache_key(request, dataset, self.build_job(request))
        )


def _overloaded(reason, retry_after, **details):
    details["retry_after_seconds"] = retry_after
    return Rejection(code=REJECT_OVERLOADED, reason=reason, details=details)
