"""Admission control: refuse work that cannot run instead of OOMing it.

The controller sits in front of the fair-share queue and answers one
question per submission: *admit now, queue for later, or reject with a
structured reason?* It consults two sources:

* the cluster's :class:`~repro.common.accounting.MemoryBudget`\\ s — a
  job whose estimated working set can never fit the aggregate budget is
  rejected up front (the serving analog of the paper's observation that
  process-centric engines fail mid-superstep once data outgrows RAM);
  a job that fits the cluster but not the *currently free* share is
  queued, not run, so concurrent admissions cannot over-commit; and
* a per-tenant quota table — weight (consumed by the fair-share queue),
  a running-jobs cap, a queued-jobs cap, and the fraction of aggregate
  memory one submission may demand.

Estimates are deliberately conservative and cheap: the Pregelix engine
spills past its budgets, so the working-set model here is about
protecting *latency* for everyone sharing the cluster, not correctness.
"""

from dataclasses import dataclass

from repro.serve.api import (
    REJECT_OVER_MEMORY,
    REJECT_QUEUE_FULL,
    Rejection,
)

#: Bytes of simulated working set per input byte: vertex records are
#: B-tree-resident plus message/group-by state of the same order.
WORKING_SET_FACTOR = 2.0

#: Admission actions.
ADMIT, QUEUE, REJECT = "admit", "queue", "reject"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant limits and fair-share weight."""

    weight: float = 1.0
    max_running: int = 4
    max_queued: int = 16
    #: Largest share of aggregate cluster memory one job may demand.
    memory_fraction: float = 1.0

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError("quota weight must be > 0, got %r" % self.weight)
        if not 0 < self.memory_fraction <= 1:
            raise ValueError("quota memory_fraction must be in (0, 1], got %r"
                             % self.memory_fraction)

    @classmethod
    def parse(cls, text):
        """``weight[:max_running[:max_queued[:memory_fraction]]]``."""
        parts = text.split(":")
        names = ("weight", "max_running", "max_queued", "memory_fraction")
        if len(parts) > len(names):
            raise ValueError("quota takes at most %s, got %r"
                             % (":".join(names), text))
        kwargs = {}
        casts = (float, int, int, float)
        for name, cast, part in zip(names, casts, parts):
            if part:
                kwargs[name] = cast(part)
        return cls(**kwargs)


@dataclass(frozen=True)
class AdmissionDecision:
    """What admission decided, with the numbers that decided it."""

    action: str  # admit / queue / reject
    estimated_bytes: int = 0
    reason: str = ""
    rejection: Rejection = None

    @property
    def admitted(self):
        return self.action in (ADMIT, QUEUE)


def estimate_job_bytes(dataset_bytes, groupby_memory_bytes=0):
    """Conservative resident working-set estimate for one job."""
    return int(dataset_bytes * WORKING_SET_FACTOR) + int(groupby_memory_bytes)


class AdmissionController:
    """Decides admit/queue/reject for submissions against shared budgets.

    :param cluster: the :class:`~repro.hyracks.engine.HyracksCluster`
        whose per-node :class:`MemoryBudget`\\ s back the decisions.
    :param quotas: ``{tenant: TenantQuota}``; unknown tenants get
        ``TenantQuota()`` (open admission with sane caps).
    """

    def __init__(self, cluster, quotas=None):
        self.cluster = cluster
        self.quotas = dict(quotas or {})
        self.default_quota = TenantQuota()

    def quota(self, tenant):
        return self.quotas.get(tenant, self.default_quota)

    # ------------------------------------------------------------------
    # budget views
    # ------------------------------------------------------------------
    def _countable_nodes(self):
        """Workers admission may plan against: alive and not draining.

        A draining node still serves its pinned partitions, but new jobs
        will not land on it — counting its RAM would over-admit against
        capacity that is on its way out. Re-evaluated per decision, so
        admission always reflects the *current* elastic node set.
        """
        return [
            node
            for node in self.cluster.nodes.values()
            if node.alive and not node.draining
        ]

    def aggregate_capacity(self):
        """Total simulated RAM across schedulable workers."""
        return sum(node.budget.capacity for node in self._countable_nodes())

    def aggregate_free(self):
        """Currently uncharged simulated RAM across schedulable workers."""
        return sum(node.budget.remaining for node in self._countable_nodes())

    # ------------------------------------------------------------------
    def decide(self, request, dataset_bytes, running_estimated_bytes=0,
               running_by_tenant=0, queued_by_tenant=0,
               groupby_memory_bytes=0):
        """One submission's admission decision.

        :param dataset_bytes: stored size of the requested dataset.
        :param running_estimated_bytes: sum of estimates of jobs
            currently admitted/running (the service's own ledger; the
            live ``MemoryBudget`` charge lags admission, so admission
            must double-book against its own reservations too).
        :param running_by_tenant: the tenant's running-job count.
        :param queued_by_tenant: the tenant's queued-job count.
        """
        quota = self.quota(request.tenant)
        estimate = estimate_job_bytes(dataset_bytes, groupby_memory_bytes)
        capacity = self.aggregate_capacity()
        allowed = int(capacity * quota.memory_fraction)
        if estimate > allowed:
            return AdmissionDecision(
                action=REJECT,
                estimated_bytes=estimate,
                reason="estimated working set can never fit",
                rejection=Rejection(
                    code=REJECT_OVER_MEMORY,
                    reason=(
                        "estimated working set %d bytes exceeds the %d-byte "
                        "cap (%.0f%% of %d bytes aggregate memory) for "
                        "tenant %r" % (
                            estimate,
                            allowed,
                            quota.memory_fraction * 100.0,
                            capacity,
                            request.tenant,
                        )
                    ),
                    details={
                        "estimated_bytes": estimate,
                        "allowed_bytes": allowed,
                        "aggregate_memory_bytes": capacity,
                        "memory_fraction": quota.memory_fraction,
                        "dataset_bytes": int(dataset_bytes),
                    },
                ),
            )
        if queued_by_tenant >= quota.max_queued:
            return AdmissionDecision(
                action=REJECT,
                estimated_bytes=estimate,
                reason="tenant queue is full",
                rejection=Rejection(
                    code=REJECT_QUEUE_FULL,
                    reason="tenant %r already has %d queued jobs (cap %d)"
                    % (request.tenant, queued_by_tenant, quota.max_queued),
                    details={
                        "queued": int(queued_by_tenant),
                        "max_queued": quota.max_queued,
                    },
                ),
            )
        free = min(self.aggregate_free(),
                   capacity - int(running_estimated_bytes))
        if running_by_tenant >= quota.max_running:
            return AdmissionDecision(
                action=QUEUE,
                estimated_bytes=estimate,
                reason="tenant %r at running cap %d"
                % (request.tenant, quota.max_running),
            )
        if estimate > free:
            return AdmissionDecision(
                action=QUEUE,
                estimated_bytes=estimate,
                reason="estimated %d bytes > %d free; deferred"
                % (estimate, max(free, 0)),
            )
        return AdmissionDecision(
            action=ADMIT,
            estimated_bytes=estimate,
            reason="fits: %d bytes of %d free" % (estimate, free),
        )
