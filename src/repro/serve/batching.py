"""The batch former: coalesce compatible queued point queries.

Sits between the fair-share queue and dispatch. When a worker pops a
batchable job, the former waits out the remainder of the leader's
``batch_window`` (measured from its queue entry), then pulls up to
``batch_max - 1`` more queued jobs from the *same compatibility class*:

    dataset × algorithm × plan bit-identity class ×
    max_supersteps × deadline budget

Same class means the members can legally share supersteps (one plan,
one superstep cap, one deadline budget) and — because the bit-identity
class pins (group-by, connector) — every lane's result document is
bit-identical to its solo run. Tenants may differ: fan-out restores
each member to its own tenant's lifecycle record, so cross-tenant
batching amortizes engine overhead without changing anyone's bill of
results.

The merged working-set estimate is admission-checked against aggregate
cluster capacity before the batch is allowed to form; members that do
not fit are pushed back to the queue (the batch *shrinks* rather than
over-committing memory).
"""

import time

from repro.pregelix.api import PlanChoice
from repro.serve.api import JobState

#: Algorithm families whose message combiners are order-independent
#: (min/max), making batched lanes *exactly* equivalent to solo runs.
#: Sum-style combiners (pagerank) would reassociate floating-point adds
#: across lanes and are deliberately excluded.
BATCHABLE_ALGORITHMS = frozenset({"sssp", "reachability", "bfs-tree"})


class BatchFormer:
    """Forms multi-query batches for a :class:`JobService`.

    :param service: the owning service (queue, admission, datasets).
    :param batch_max: max member jobs per batch (1 disables batching).
    :param batch_window: seconds of queue time the leader waits for
        companions before dispatching (0 = take only what is already
        queued).
    :param lane_growth: per-extra-lane working-set growth factor used in
        the merged admission estimate — each extra lane adds one value
        column and one message lane, not a full dataset copy.
    """

    def __init__(self, service, batch_max=1, batch_window=0.0,
                 lane_growth=0.25):
        self.service = service
        self.batch_max = max(int(batch_max), 1)
        self.batch_window = max(float(batch_window), 0.0)
        self.lane_growth = float(lane_growth)
        self.formed = 0
        self.batched_jobs = 0
        self.requeued = 0

    # ------------------------------------------------------------------
    def eligible(self, record):
        """Can this record participate in any batch at all?"""
        request = record.request
        return (
            request.algorithm in BATCHABLE_ALGORITHMS
            and record.state is JobState.QUEUED
            and not record.cancel_requested
            and not record.resume_run_id  # checkpointed solo state: resume solo
            and not request.optimize  # optimizer may re-plan mid-run
            and not record.no_batch
        )

    def compat_key(self, record):
        """The compatibility class, or ``None`` when unresolvable.

        Resolves the record's physical plan the same way dispatch would
        (explicit plan > journaled pin > plan cache > defaults) and
        keeps only its bit-identity class — jobs whose plans differ in
        join strategy or storage still produce identical bytes and may
        share a run.
        """
        request = record.request
        try:
            job = self.service.build_job(
                request, plan_signature=record.plan_signature
            )
        except Exception:
            return None  # let the solo path surface the error
        return (
            request.dataset,
            request.algorithm,
            PlanChoice.of(job).identity_class,
            request.max_supersteps,
            record.deadline_seconds,
        )

    # ------------------------------------------------------------------
    def merged_estimate(self, records):
        """Working-set estimate for the members sharing one run."""
        if not records:
            return 0
        base = max(r.estimated_bytes for r in records)
        extra = sum(
            int(r.estimated_bytes * self.lane_growth) for r in records[1:]
        )
        return base + extra

    # ------------------------------------------------------------------
    def form(self, leader):
        """Collect a batch around ``leader``; ``None`` means run solo.

        Returns the member list (leader first) only when at least one
        companion joined. Members are removed from the queue in QUEUED
        state; the caller owns their lifecycle from here.
        """
        if self.batch_max <= 1 or not self.eligible(leader):
            return None
        key = self.compat_key(leader)
        if key is None:
            return None
        self._wait_window(leader)
        service = self.service
        matched = service.queue.remove(
            lambda r: self.eligible(r) and self.compat_key(r) == key
        )
        members = [leader] + matched[: self.batch_max - 1]
        overflow = matched[self.batch_max - 1:]
        # Shrink to what aggregate memory can hold — never over-commit.
        capacity = service.admission.aggregate_capacity()
        while len(members) > 1 and self.merged_estimate(members) > capacity:
            overflow.append(members.pop())
        for record in overflow:
            service.queue.push(record.request.tenant, record)
        if len(members) < 2:
            return None
        self.formed += 1
        self.batched_jobs += len(members)
        service.telemetry.registry.counter("serve.batch.formed").inc()
        service.telemetry.registry.counter(
            "serve.batch.members"
        ).inc(len(members))
        service.telemetry.event(
            "serve.batch.form", category="serve",
            leader=leader.job_id, size=len(members),
            members=[r.job_id for r in members],
            dataset=key[0], algorithm=key[1], identity_class=key[2],
            estimated_bytes=self.merged_estimate(members),
        )
        return members

    def requeue(self, record):
        """Push a member a shared run left unfinished back to run alone."""
        record.no_batch = True
        self.requeued += 1
        self.service.telemetry.registry.counter("serve.batch.requeued").inc()
        self.service.lifecycle.enqueue(record)

    def stats(self):
        return {
            "max": self.batch_max,
            "window_seconds": self.batch_window,
            "formed": self.formed,
            "batched_jobs": self.batched_jobs,
            "requeued": self.requeued,
        }

    # ------------------------------------------------------------------
    def _wait_window(self, leader):
        """Sleep out the rest of the leader's batch window, abandoning
        the wait if the service stops serving."""
        deadline = leader.submitted_at + self.batch_window
        while True:
            remaining = deadline - time.time()
            if remaining <= 0:
                return
            if self.service.state != "serving":
                return
            time.sleep(min(remaining, 0.01))
