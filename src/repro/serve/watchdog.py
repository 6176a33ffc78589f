"""The stuck-job watchdog: flag runs whose current superstep wedged.

A served job reports every superstep boundary into its
:class:`~repro.serve.api.JobRecord` (``note_boundary``), which maintains
a rolling mean seconds-per-superstep. On every housekeeping tick the
watchdog compares each executing job's time since its last boundary against a multiple of
that mean: a job that has gone ``multiple`` × its own average without
reaching a boundary is *stuck* — wedged in one superstep while holding a
worker slot — and gets a cooperative cancel through the existing cancel
path (``cancel_requested = "stuck"``, honored at the boundary the job
eventually reaches, or unwound by the engine's own failure handling).

The service's execute loop treats the first stuck cancellation as a
transient (the machine may have been briefly overloaded) and retries the
job once; a second deterministic failure quarantines the request — the
poison-job ledger surfaced in ``/stats`` — so a wedging workload cannot
chew through worker slots forever.

The per-job average — not a global constant — is the threshold, so a
legitimately slow algorithm is never flagged just for being slow; only a
job that deviates from *its own* established rhythm is.
"""

import time


class StuckJobWatchdog:
    """Scans executing jobs for wedged supersteps.

    :param service: the owning :class:`~repro.serve.service.JobService`.
    :param multiple: how many rolling-average superstep durations a job
        may spend in one superstep before it is flagged.
    """

    #: boundaries a job must have reported before its average is trusted
    #: (young jobs have noisy means).
    min_supersteps = 3
    #: absolute floor on the stall threshold so fast jobs (sub-millisecond
    #: supersteps) aren't flagged by jitter.
    min_stall_seconds = 1.0

    def __init__(self, service, multiple=8.0):
        self.service = service
        self.multiple = float(multiple)
        self.flagged = 0

    def scan(self, now=None):
        """One pass over the executing jobs; returns the ids flagged."""
        now = time.monotonic() if now is None else now
        flagged = []
        for record in self.service.executing_records():
            if record.cancel_requested:
                continue
            if record.progress_boundary_at is None:
                continue
            if record.progress_superstep < self.min_supersteps:
                continue
            avg = record.progress_avg_seconds
            if avg <= 0.0:
                continue
            stall = now - record.progress_boundary_at
            threshold = max(self.multiple * avg, self.min_stall_seconds)
            if stall > threshold:
                self.flagged += 1
                flagged.append(record.job_id)
                self.service.flag_stuck(record, stall, threshold)
        return flagged

    def state(self):
        return {
            "multiple": self.multiple,
            "min_supersteps": self.min_supersteps,
            "min_stall_seconds": self.min_stall_seconds,
            "flagged": self.flagged,
        }
