"""Client-side retry with seeded exponential backoff.

Real HDFS clients absorb transient pipeline failures themselves —
retrying the write against another replica set with growing backoff —
before any error surfaces to the application (Hadoop's
``RetryPolicies``). :class:`RetryPolicy` is that client-side machinery
for the simulation, shared by :class:`~repro.hdfs.MiniDFS` (around
writes) and the Pregelix driver (around superstep-boundary faults and
checkpoint reads).

Determinism: the jitter stream comes from ``random.Random(seed)`` and
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
    ``base * multiplier**attempt``, capped at ``max_seconds``, stretched
    by up to ``jitter`` drawn from ``random.Random(seed)`` — is fully
    determined by the seed, and every sleep advances the telemetry sim
    clock, so a retried run replays bit-identically. Retries land in
    ``telemetry`` (the owner's session, or a private disabled one when
    none is given) unless ``call`` names another.
    """

    def __init__(
        self,
        max_attempts=4,
        base_seconds=0.05,
        multiplier=2.0,
        max_seconds=2.0,
        jitter=0.25,
        seed=0,
        telemetry=None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = int(max_attempts)
        self.base_seconds = float(base_seconds)
        self.multiplier = float(multiplier)
        self.max_seconds = float(max_seconds)
        self.jitter = float(jitter)
        self.seed = seed
        self.telemetry = telemetry or Telemetry(enabled=False)
        self._rng = random.Random(seed)
        self.attempts_made = 0
        self.retries_made = 0

    def backoff_seconds(self, attempt):
        """Simulated sleep before retrying after the Nth (1-based) failure."""
        delay = min(
            self.base_seconds * self.multiplier ** (attempt - 1), self.max_seconds
        )
        if self.jitter:
            delay *= 1.0 + self.jitter * self._rng.random()
        return delay

    def call(self, fn, describe="", classify=None, telemetry=None):
        """Run ``fn`` with retries; re-raises on a non-matching error or
        once ``max_attempts`` is exhausted."""
        classify = classify if classify is not None else is_transient
        telemetry = telemetry or self.telemetry
        attempt = 0
        while True:
            attempt += 1
            self.attempts_made += 1
            try:
                return fn()
            except Exception as error:
                if attempt >= self.max_attempts or not classify(error):
                    raise
                delay = self.backoff_seconds(attempt)
                self.retries_made += 1
                telemetry.event(
                    "retry.attempt",
                    category="failure",
                    what=describe,
                    attempt=attempt,
                    backoff_seconds=round(delay, 6),
                    error=str(error),
                )
                telemetry.registry.counter("failure.retries").inc()
                telemetry.sim_clock.advance(delay)
