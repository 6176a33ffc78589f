"""repro.serve — a multi-tenant job service over one shared cluster.

The serving layer (DESIGN.md §14): a long-running
:class:`~repro.serve.service.JobService` keeps a
:class:`~repro.hyracks.engine.HyracksCluster` and its datasets resident
and executes submitted Pregel jobs concurrently, instead of the one-shot
build/load/run/tear-down of ``repro run``. Submissions flow through
admission control (:mod:`repro.serve.admission`), weighted fair-share
scheduling (:mod:`repro.serve.queue`), one dispatch → run → commit path
(:mod:`repro.serve.executor` — a lone job is a batch of one), and a
result cache (:mod:`repro.serve.cache`); :mod:`repro.serve.http` exposes
the whole thing over plain HTTP.

Crash safety (DESIGN.md §16): :mod:`repro.serve.lifecycle` writes every
job lifecycle transition ahead to :mod:`repro.serve.journal` so a
restarted service recovers every journaled job; :mod:`repro.serve.watchdog` flags wedged runs; the
service enforces per-job deadlines cooperatively and sheds load when
the queue or the journal falls behind.

Observability (DESIGN.md §18): every job carries a distributed trace
assembled on demand (:mod:`repro.serve.jobtrace`, ``GET
/jobs/<id>/trace``); :mod:`repro.serve.history` ring-buffers the
service's vitals for ``GET /stats/history`` and ``repro serve top``;
and ``GET /metrics`` exposes the shared registry in Prometheus text
format (:mod:`repro.telemetry.prometheus`).
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    TenantQuota,
    estimate_job_bytes,
)
from repro.serve.api import (
    SERVABLE_ALGORITHMS,
    AdmissionRejected,
    JobRecord,
    JobRequest,
    JobState,
    Rejection,
    ServiceCrashed,
    advance_job_ids,
    result_document,
)
from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.cache import (
    LRUCache,
    PlanCache,
    ResultCache,
    plan_class,
    result_digest,
)
from repro.serve.datasets import Dataset
from repro.serve.history import HistorySampler
from repro.serve.http import ServeHTTPServer
from repro.serve.jobtrace import job_trace_document
from repro.serve.journal import (
    DFSJournalStorage,
    Journal,
    JournalReplay,
    LocalJournalStorage,
    open_journal,
)
from repro.serve.queue import FairShareQueue
from repro.serve.service import JobService
from repro.serve.watchdog import StuckJobWatchdog

__all__ = [
    "SERVABLE_ALGORITHMS",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionRejected",
    "AutoscalePolicy",
    "Autoscaler",
    "DFSJournalStorage",
    "Dataset",
    "FairShareQueue",
    "HistorySampler",
    "JobRecord",
    "JobRequest",
    "JobService",
    "JobState",
    "Journal",
    "JournalReplay",
    "LRUCache",
    "LocalJournalStorage",
    "PlanCache",
    "Rejection",
    "ResultCache",
    "ServeHTTPServer",
    "ServiceCrashed",
    "StuckJobWatchdog",
    "TenantQuota",
    "advance_job_ids",
    "estimate_job_bytes",
    "job_trace_document",
    "open_journal",
    "plan_class",
    "result_digest",
    "result_document",
]
