"""Admission control: structured rejects, queue-vs-admit, quota parsing."""

import pytest

from repro.hyracks.engine import HyracksCluster
from repro.serve.admission import (
    ADMIT,
    QUEUE,
    REJECT,
    AdmissionController,
    TenantQuota,
    estimate_job_bytes,
)
from repro.serve.api import (
    REJECT_OVER_MEMORY,
    REJECT_QUEUE_FULL,
    JobRequest,
)

NODE_BYTES = 1 << 20  # 1 MiB per node


@pytest.fixture
def cluster():
    cluster = HyracksCluster(num_nodes=2, node_memory_bytes=NODE_BYTES)
    yield cluster
    cluster.close()


def request(tenant="alice"):
    return JobRequest(tenant=tenant, algorithm="cc", dataset="g")


class TestQuotaParse:
    def test_weight_only(self):
        assert TenantQuota.parse("2.5") == TenantQuota(weight=2.5)

    def test_all_fields(self):
        assert TenantQuota.parse("2:1:5:0.5") == TenantQuota(
            weight=2.0, max_running=1, max_queued=5, memory_fraction=0.5
        )

    def test_empty_positions_keep_defaults(self):
        quota = TenantQuota.parse("::8")
        assert quota.weight == 1.0
        assert quota.max_running == 4
        assert quota.max_queued == 8

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            TenantQuota.parse("fast")

    @pytest.mark.parametrize("text", [
        "0", "-1", "1:2:3:0", "1:2:3:4", "1:2:3:0.5:5", "1:2:3:4:5:6",
    ])
    def test_out_of_range_or_extra_fields_raise(self, text):
        with pytest.raises(ValueError):
            TenantQuota.parse(text)


class TestDecide:
    def test_fitting_job_is_admitted(self, cluster):
        controller = AdmissionController(cluster)
        decision = controller.decide(request(), dataset_bytes=1000)
        assert decision.action == ADMIT
        assert decision.admitted
        assert decision.estimated_bytes == estimate_job_bytes(1000)

    def test_impossible_job_is_rejected_structurally(self, cluster):
        controller = AdmissionController(cluster)
        decision = controller.decide(request(), dataset_bytes=10 * NODE_BYTES)
        assert decision.action == REJECT
        assert not decision.admitted
        rejection = decision.rejection
        assert rejection.code == REJECT_OVER_MEMORY
        details = rejection.details
        assert details["aggregate_memory_bytes"] == 2 * NODE_BYTES
        assert details["estimated_bytes"] > details["allowed_bytes"]
        assert details["dataset_bytes"] == 10 * NODE_BYTES

    def test_tenant_memory_fraction_caps_one_job(self, cluster):
        controller = AdmissionController(
            cluster, quotas={"bob": TenantQuota(memory_fraction=0.01)}
        )
        # Fits the cluster easily, but not bob's 1% share.
        decision = controller.decide(request("bob"), dataset_bytes=NODE_BYTES // 8)
        assert decision.action == REJECT
        assert decision.rejection.code == REJECT_OVER_MEMORY
        # The same job sails through for a default tenant.
        assert controller.decide(request(), dataset_bytes=NODE_BYTES // 8).admitted

    def test_full_tenant_queue_rejects(self, cluster):
        controller = AdmissionController(
            cluster, quotas={"alice": TenantQuota(max_queued=2)}
        )
        decision = controller.decide(request(), dataset_bytes=100, queued_by_tenant=2)
        assert decision.action == REJECT
        assert decision.rejection.code == REJECT_QUEUE_FULL
        assert decision.rejection.details == {"queued": 2, "max_queued": 2}

    def test_running_cap_queues_not_rejects(self, cluster):
        controller = AdmissionController(
            cluster, quotas={"alice": TenantQuota(max_running=1)}
        )
        decision = controller.decide(request(), dataset_bytes=100, running_by_tenant=1)
        assert decision.action == QUEUE
        assert decision.admitted
        assert decision.rejection is None

    def test_busy_cluster_queues_not_rejects(self, cluster):
        controller = AdmissionController(cluster)
        decision = controller.decide(
            request(),
            dataset_bytes=NODE_BYTES // 2,  # fits an idle cluster
            running_estimated_bytes=2 * NODE_BYTES - 1000,  # but not this one
        )
        assert decision.action == QUEUE
        assert decision.admitted

    def test_dead_nodes_shrink_capacity(self, cluster):
        controller = AdmissionController(cluster)
        full = controller.aggregate_capacity()
        next(iter(cluster.nodes.values())).alive = False
        assert controller.aggregate_capacity() == full // 2


class TestEstimate:
    def test_working_set_factor(self):
        assert estimate_job_bytes(1000) == 2000
        assert estimate_job_bytes(1000, groupby_memory_bytes=500) == 2500
