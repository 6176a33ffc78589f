"""The serve protocol: requests, records, rejections, result documents.

Everything that crosses the service boundary is a plain dataclass with a
``to_dict`` JSON projection, so the stdlib HTTP front end
(:mod:`repro.serve.http`), the CLI, and in-process callers all speak the
same shapes. The result document formatter is shared with
``repro run --json`` — a job executed directly and the same job served
over HTTP produce byte-identical JSON payloads (modulo serving metadata).
"""

import enum
import json
import threading
import time
from dataclasses import dataclass, field

from repro.algorithms import ALGORITHMS
from repro.common.errors import ProcessCrashed, ReproError

#: Algorithms the service can execute: name -> (module path, accepted
#: request params) — the servable rows of :data:`repro.algorithms.ALGORITHMS`.
SERVABLE_ALGORITHMS = {
    name: (entry.module, entry.params)
    for name, entry in ALGORITHMS.items()
    if entry.servable
}


class JobState(enum.Enum):
    """Lifecycle of a served job."""

    SUBMITTED = "submitted"
    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self):
        return self in (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED)


#: Structured rejection codes emitted by admission control.
REJECT_UNKNOWN_ALGORITHM = "unknown_algorithm"
REJECT_UNKNOWN_DATASET = "unknown_dataset"
REJECT_OVER_MEMORY = "over_memory"
REJECT_QUEUE_FULL = "queue_full"
REJECT_DRAINING = "draining"
REJECT_BAD_REQUEST = "bad_request"
#: The service is shedding load (queue depth / journal latency over
#: threshold) — retry later; mapped to HTTP 503 + Retry-After.
REJECT_OVERLOADED = "overloaded"
#: The submission matches a poison job that failed deterministically
#: twice; re-submission is refused until an operator clears it.
REJECT_QUARANTINED = "quarantined"

#: ``error_kind`` a deadline-exceeded job fails with.
ERROR_KIND_TIMEOUT = "timeout"


@dataclass(frozen=True)
class Rejection:
    """Why a submission was refused, machine-readably.

    :param code: one of the ``REJECT_*`` constants.
    :param reason: a human-readable sentence.
    :param details: structured context (budgets, quotas, estimates).
    """

    code: str
    reason: str
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"code": self.code, "reason": self.reason, "details": dict(self.details)}


class AdmissionRejected(ReproError):
    """Raised by :meth:`JobService.submit` when admission refuses a job."""

    def __init__(self, rejection):
        self.rejection = rejection
        super().__init__("%s: %s" % (rejection.code, rejection.reason))


class ServiceCrashed(ProcessCrashed):
    """The simulated service process died (the ``service.crash`` site).

    Deliberately outside the driver's recoverable set: a crashed
    *service* must not be absorbed by a running job's checkpoint
    recovery — the whole process is gone, and only a restarted service
    replaying the journal may continue the work.
    """

    def __init__(self, phase=""):
        self.phase = phase
        super().__init__(
            "service crashed%s" % (" during %s" % phase if phase else "")
        )


#: The ``build_job`` parameters a request may set that take an integer,
#: and the one that takes a list of them.
_INT_PARAMS = ("iterations", "source_id", "root")
_INT_LIST_PARAMS = ("sources",)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class JobRequest:
    """One tenant's ask: run ``algorithm`` over a pre-loaded ``dataset``.

    :param plan: optional explicit plan signature
        (``join/groupby/connector/storage``, e.g. ``loj/sort/merged/btree``);
        ``None`` lets the service pick (plan cache, then job defaults).
    :param optimize: run under the cost-based optimizer.
    :param use_cache: consult/populate the result cache.
    :param deadline_seconds: wall-clock budget for the run, enforced
        cooperatively at superstep boundaries; ``None`` applies the
        service default (which may also be ``None`` — no deadline).
    """

    tenant: str
    algorithm: str
    dataset: str
    params: dict = field(default_factory=dict)
    plan: str = None
    optimize: bool = False
    use_cache: bool = True
    max_supersteps: int = None
    deadline_seconds: float = None

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        missing = [key for key in ("tenant", "algorithm", "dataset") if not doc.get(key)]
        if missing:
            raise ValueError("missing required field(s): %s" % ", ".join(missing))
        for key in ("tenant", "algorithm", "dataset", "plan"):
            if doc.get(key) is not None and not isinstance(doc[key], str):
                raise ValueError("%s must be a string" % key)
        for key in ("optimize", "use_cache"):
            if key in doc and not isinstance(doc[key], bool):
                raise ValueError("%s must be true or false" % key)
        steps = doc.get("max_supersteps")
        if steps is not None and (
            isinstance(steps, bool) or not isinstance(steps, int) or steps < 1
        ):
            raise ValueError("max_supersteps must be a positive integer")
        params = doc.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("params must be an object")
        deadline = doc.get("deadline_seconds")
        if isinstance(deadline, bool):
            raise ValueError("deadline_seconds must be a number")
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                raise ValueError("deadline_seconds must be a number")
            if deadline <= 0:
                raise ValueError("deadline_seconds must be positive")
        return cls(
            tenant=doc["tenant"],
            algorithm=doc["algorithm"],
            dataset=doc["dataset"],
            params=dict(params),
            plan=doc.get("plan"),
            optimize=doc.get("optimize", False),
            use_cache=doc.get("use_cache", True),
            max_supersteps=steps,
            deadline_seconds=deadline,
        )

    def check_params(self):
        """Raise ``ValueError`` naming the first parameter whose value
        has the wrong type: a bool, float, string or list where an
        integer belongs is refused, not coerced."""
        for name, value in sorted(self.params.items()):
            if name in _INT_PARAMS and not _is_int(value):
                raise ValueError("param %s must be an integer" % name)
            if name in _INT_LIST_PARAMS and not (
                isinstance(value, list) and all(map(_is_int, value))
            ):
                raise ValueError("param %s must be a list of integers" % name)

    def to_dict(self):
        return {
            "tenant": self.tenant,
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "params": dict(self.params),
            "plan": self.plan,
            "optimize": self.optimize,
            "use_cache": self.use_cache,
            "max_supersteps": self.max_supersteps,
            "deadline_seconds": self.deadline_seconds,
        }

    def poison_key(self):
        """The quarantine identity: what makes a re-submission "the same
        job" for poison-job purposes. Tenant is excluded — a poison job
        is poison no matter who submits it."""
        return "%s|%s|%s" % (self.algorithm, self.dataset, self.params_key())

    def params_key(self):
        """Canonical, order-independent params rendering for cache keys."""
        extras = {}
        if self.max_supersteps is not None:
            extras["max_supersteps"] = self.max_supersteps
        merged = dict(self.params)
        merged.update(extras)
        return json.dumps(merged, sort_keys=True, separators=(",", ":"))


_job_id_counter = 0
_job_ids_lock = threading.Lock()


def next_job_id():
    global _job_id_counter
    with _job_ids_lock:
        _job_id_counter += 1
        return "job-%06d" % _job_id_counter


def advance_job_ids(past):
    """Ensure future job ids start after ``past`` (an id or a number).

    Journal replay calls this with the highest journaled id so a
    restarted process — whose module-level counter reset to zero —
    never re-issues an id that already names a journaled job.
    """
    global _job_id_counter
    if isinstance(past, str):
        digits = past.rsplit("-", 1)[-1]
        past = int(digits) if digits.isdigit() else 0
    with _job_ids_lock:
        _job_id_counter = max(_job_id_counter, int(past))


@dataclass
class JobRecord:
    """Everything the service tracks about one submitted job."""

    job_id: str
    request: JobRequest
    state: JobState = JobState.SUBMITTED
    submitted_at: float = field(default_factory=time.time)
    started_at: float = None
    finished_at: float = None
    error: str = None
    error_kind: str = None
    attempts: int = 0
    cache_hit: bool = False
    run_id: str = None
    estimated_bytes: int = 0
    result: dict = None  # the shared result document (see result_document)
    #: Effective wall-clock budget (request value or the service default).
    deadline_seconds: float = None
    #: Cooperative-cancel flag: ``None`` until someone asks, then the
    #: reason (``"user"`` / ``"stuck"``); honored at the next boundary.
    cancel_requested: str = None
    #: sha256 digest of the deterministic part of the result document.
    result_digest: str = None
    #: Set on journal replay of an interrupted run: resume this run id
    #: from its last verified checkpoint instead of starting fresh.
    resume_run_id: str = None
    #: The resolved physical plan the run executed (short signature),
    #: journaled so a resumed run rebuilds the identical plan even
    #: though the restarted process's plan cache is empty.
    plan_signature: str = None
    #: Was this record reconstructed by journal replay?
    recovered: bool = False
    #: Must run alone: set on a member given back by a shared run (or
    #: replayed from one), so it can never wait for another batch.
    no_batch: bool = False

    def __post_init__(self):
        self._done = threading.Event()
        # Boundary progress, fed by the driver's boundary hook and read
        # by the stuck-job watchdog: (superstep, monotonic stamp of the
        # last boundary, rolling mean seconds per superstep).
        self.progress_superstep = 0
        self.progress_boundary_at = None
        self.progress_avg_seconds = 0.0
        # Monotonic stamp the deadline clock runs from (set when the job
        # enters RUNNING; spans retries — the budget is per job, not per
        # attempt) and the resolved result-cache key of a finished run.
        self.deadline_base = None
        self.cache_key = None
        # Distributed-tracing bookkeeping: perf_counter lifecycle stamps
        # (same timebase as the tracer's spans, so the per-job trace's
        # synthetic queue-wait/run/fan-out spans land on the engine
        # spans' timeline) and every run id this job executed under —
        # solo attempts and shared batch runs alike.
        self.trace_marks = {"submitted": time.perf_counter()}
        self.trace_run_ids = set()
        # Tracer.next_id() when the job was submitted (1, the first id
        # ever, until set): a span ring that has evicted this id or a
        # later one may have lost spans of this job.
        self.trace_first_span_id = 1

    def mark_trace(self, name, stamp=None):
        """Record a lifecycle trace stamp; the first occurrence wins
        (a re-queued or retried job keeps its original phase edges)."""
        self.trace_marks.setdefault(
            name, time.perf_counter() if stamp is None else stamp
        )

    def span_breakdown(self):
        """Queue-wait / run / fan-out wall seconds from the trace marks.

        Phases a job never entered (e.g. ``run`` for a cache hit,
        ``fanout`` for a solo run) report ``None``.
        """
        marks = self.trace_marks

        def seconds(begin, end):
            if begin in marks and end in marks:
                return max(marks[end] - marks[begin], 0.0)
            return None

        return {
            "queue_wait_seconds": seconds("queued", "dequeued"),
            "run_seconds": seconds("running", "finished"),
            "fanout_seconds": seconds("fanout_begin", "fanout_end"),
            "end_to_end_seconds": seconds("submitted", "finished"),
        }

    def mark(self, state):
        self.state = state
        if state == JobState.QUEUED:
            self.mark_trace("queued")
        if state == JobState.RUNNING:
            self.mark_trace("running")
            if self.started_at is None:
                self.started_at = time.time()
        if state.terminal:
            self.mark_trace("finished")
            self.finished_at = time.time()
            self._done.set()

    def wait(self, timeout=None):
        """Block until the job reaches a terminal state; returns it or None."""
        if not self._done.wait(timeout):
            return None
        return self.state

    def note_boundary(self, now=None):
        """Record one superstep boundary for deadline/watchdog bookkeeping."""
        now = time.monotonic() if now is None else now
        if self.progress_boundary_at is not None:
            elapsed = max(now - self.progress_boundary_at, 0.0)
            steps = self.progress_superstep
            self.progress_avg_seconds = (
                (self.progress_avg_seconds * steps + elapsed) / (steps + 1)
            )
        self.progress_superstep += 1
        self.progress_boundary_at = now

    def to_dict(self):
        return {
            "job_id": self.job_id,
            "request": self.request.to_dict(),
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "error_kind": self.error_kind,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "run_id": self.run_id,
            "has_result": self.result is not None,
            "deadline_seconds": self.deadline_seconds,
            "cancel_requested": self.cancel_requested,
            "result_digest": self.result_digest,
            "recovered": self.recovered,
            "spans": self.span_breakdown(),
        }


# ----------------------------------------------------------------------
# the shared result document (repro run --json and GET /jobs/<id>/result)
# ----------------------------------------------------------------------
def result_document(algorithm, job, outcome, results=None):
    """The machine-readable projection of one finished run.

    :param algorithm: algorithm name as submitted/invoked.
    :param job: the executed :class:`~repro.pregelix.api.PregelixJob`
        (read for the final plan signature).
    :param outcome: the driver's :class:`~repro.pregelix.runtime.JobOutcome`.
    :param results: optional list of dumped output lines.
    """
    stats = outcome.stats
    doc = {
        "algorithm": algorithm,
        "run_id": outcome.run_id,
        "plan": job.plan_signature(),
        "supersteps": outcome.supersteps,
        "total_seconds": outcome.total_seconds,
        "load_seconds": outcome.load_seconds,
        "dump_seconds": outcome.dump_seconds,
        "avg_iteration_seconds": outcome.avg_iteration_seconds,
        "recoveries": outcome.recoveries,
        "num_vertices": outcome.gs.num_vertices,
        "num_edges": outcome.gs.num_edges,
        "aggregate": _jsonable(outcome.gs.aggregate),
        "messages_sent": stats.total_messages_sent,
        "superstep_stats": [
            {
                "superstep": record.superstep,
                "elapsed": record.elapsed,
                "vertices_processed": record.vertices_processed,
                "messages_sent": record.messages_sent,
                "combined_messages": record.combined_messages,
                "network_bytes": record.network_bytes,
                "disk_read_bytes": record.disk_read_bytes,
                "disk_write_bytes": record.disk_write_bytes,
            }
            for record in stats.supersteps
        ],
    }
    if results is not None:
        doc["results"] = list(results)
    return doc


def _jsonable(value):
    """Best-effort JSON projection for aggregate values."""
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        if isinstance(value, dict):
            return {str(k): _jsonable(v) for k, v in value.items()}
        if isinstance(value, (list, tuple, set)):
            return [_jsonable(v) for v in value]
        return repr(value)
