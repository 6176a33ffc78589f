"""repro.serve — a multi-tenant job service over one shared cluster.

The serving layer (DESIGN.md §6): a long-running
:class:`~repro.serve.service.JobService` keeps a
:class:`~repro.hyracks.engine.HyracksCluster` and its datasets resident
and executes submitted Pregel jobs concurrently, instead of the one-shot
build/load/run/tear-down of ``repro run``. Submissions flow through
admission control (:mod:`repro.serve.admission`), weighted fair-share
scheduling (:mod:`repro.serve.queue`), one dispatch → run → commit path
(:mod:`repro.serve.executor` — a lone job is a batch of one), and a
result cache (:mod:`repro.serve.cache`); :mod:`repro.serve.http` exposes
the whole thing over plain HTTP, and :mod:`repro.serve.client` is its
client.

Crash safety (DESIGN.md §6): :mod:`repro.serve.lifecycle` writes every
job lifecycle transition ahead to :mod:`repro.serve.journal` so a
restarted service recovers every journaled job; :mod:`repro.serve.watchdog` flags wedged runs; the
service enforces per-job deadlines cooperatively and sheds load when
the queue or the journal falls behind.

Observability (DESIGN.md §8): every job carries a distributed trace
assembled on demand (:mod:`repro.serve.jobtrace`, ``GET
/jobs/<id>/trace``); :mod:`repro.serve.history` ring-buffers the
service's vitals for ``GET /stats/history`` and ``repro serve top``;
and ``GET /metrics`` exposes the shared registry in Prometheus text
format (:mod:`repro.telemetry.prometheus`).
"""

import importlib

#: Public name -> the submodule that defines it, loaded on first use: a
#: caller importing one submodule (the CLI parser and the chaos drill
#: table read ``repro.serve.config``) does not pay for the HTTP tier.
_EXPORTS = {
    name: "repro.serve." + module
    for module, names in (
        ("admission", "AdmissionController AdmissionDecision TenantQuota "
                      "estimate_job_bytes"),
        ("api", "SERVABLE_ALGORITHMS AdmissionRejected JobRecord JobRequest "
                "JobState Rejection ServiceCrashed advance_job_ids "
                "result_document"),
        ("autoscale", "AutoscalePolicy Autoscaler"),
        ("cache", "LRUCache PlanCache ResultCache result_digest"),
        ("client", "ServeClient"),
        ("config", "ServeConfig"),
        ("datasets", "Dataset"),
        ("history", "HistorySampler"),
        ("http", "ServeHTTPServer"),
        ("jobtrace", "job_trace_document"),
        ("journal", "DFSJournalStorage Journal JournalReplay "
                    "LocalJournalStorage open_journal"),
        ("queue", "FairShareQueue"),
        ("service", "JobService"),
        ("watchdog", "StuckJobWatchdog"),
    )
    for name in names.split()
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
