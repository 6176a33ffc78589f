"""Client-side retry with seeded exponential backoff.

Real HDFS clients absorb transient pipeline failures themselves —
retrying the write against another replica set with growing backoff —
before any error surfaces to the application (Hadoop's
``RetryPolicies``). :class:`RetryPolicy` is that client-side machinery
for the simulation, shared by :class:`~repro.hdfs.MiniDFS` (around
writes) and the Pregelix driver (around superstep-boundary faults and
checkpoint reads).

Determinism: the jitter stream comes from a fixed seed and
backoff "sleeps" advance the telemetry *sim clock* instead of real time,
so a retried run is fast and replays bit-identically from the seed.
Every retry is emitted as a ``retry.attempt`` telemetry event.
"""

import random

from repro.common.errors import JobFailure, WorkerFailure
from repro.telemetry import Telemetry


def failure_cause(failure):
    """The :class:`WorkerFailure` behind ``failure``, or ``None``."""
    cause = failure.cause if isinstance(failure, JobFailure) else failure
    return cause if isinstance(cause, WorkerFailure) else None


def is_transient(failure):
    """Whether ``failure`` is a retry-in-place transient I/O fault."""
    cause = failure_cause(failure)
    return cause is not None and cause.kind == "transient_io"


class RetryPolicy:
    """Seeded-deterministic exponential backoff for transient faults.

    ``call`` runs a callable, retrying while the raised error satisfies
    ``classify`` (default: :func:`is_transient`). The backoff sequence —
    ``BASE_SECONDS * MULTIPLIER**attempt``, capped at ``MAX_SECONDS``,
    stretched by up to ``JITTER`` drawn from ``random.Random(SEED)`` —
    is fully determined, and every sleep advances the telemetry sim
    clock, so a retried run replays bit-identically. Retries land in
    ``telemetry``: the owner's session, or a private disabled one when
    none is given.
    """

    MAX_ATTEMPTS = 4
    BASE_SECONDS = 0.05
    MULTIPLIER = 2.0
    MAX_SECONDS = 2.0
    JITTER = 0.25
    SEED = 0

    def __init__(self, telemetry=None):
        self.telemetry = telemetry or Telemetry(enabled=False)
        self._rng = random.Random(self.SEED)
        self.attempts_made = 0
        self.retries_made = 0

    def backoff_seconds(self, attempt):
        """Simulated sleep before retrying after the Nth (1-based) failure."""
        delay = min(
            self.BASE_SECONDS * self.MULTIPLIER ** (attempt - 1), self.MAX_SECONDS
        )
        return delay * (1.0 + self.JITTER * self._rng.random())

    def call(self, fn, describe="", classify=None):
        """Run ``fn`` with retries; re-raises on a non-matching error or
        once ``MAX_ATTEMPTS`` is exhausted."""
        classify = classify if classify is not None else is_transient
        attempt = 0
        while True:
            attempt += 1
            self.attempts_made += 1
            try:
                return fn()
            except Exception as error:
                if attempt >= self.MAX_ATTEMPTS or not classify(error):
                    raise
                delay = self.backoff_seconds(attempt)
                self.retries_made += 1
                self.telemetry.event(
                    "retry.attempt",
                    category="failure",
                    what=describe,
                    attempt=attempt,
                    backoff_seconds=round(delay, 6),
                    error=str(error),
                )
                self.telemetry.registry.counter("failure.retries").inc()
                self.telemetry.sim_clock.advance(delay)
