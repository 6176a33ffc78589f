"""Autoscaling the serve cluster: policy, ticks, manual scaling, liveness.

The autoscaler is tested tick-by-tick (never via its thread) so every
decision is deterministic: backlog above threshold grows the cluster by
one node per decision up to ``max_nodes``; sustained idleness drains
back down to ``min_nodes``; a cooldown separates consecutive actions.
Manual scaling (``POST /cluster/scale``) is validated against the band,
admission capacity ignores draining nodes, and ``/stats``/``healthz``
surface per-node heartbeat liveness.
"""

import pytest

from repro.serve import JobService, TenantQuota
from repro.serve.autoscale import AutoscalePolicy, Autoscaler

WAIT = 120


class TestPolicy:
    def test_parse(self):
        policy = AutoscalePolicy.parse("2:5")
        assert (policy.min_nodes, policy.max_nodes) == (2, 5)

    @pytest.mark.parametrize("text", ["3", "a:b", "1:2:3", ""])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            AutoscalePolicy.parse(text)

    def test_validates_band(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(0, 3)
        with pytest.raises(ValueError):
            AutoscalePolicy(4, 3)

    def test_to_dict_round_trips_the_band(self):
        policy = AutoscalePolicy(1, 4, up_backlog=0, down_idle_ticks=2)
        doc = policy.to_dict()
        assert doc["min_nodes"] == 1 and doc["max_nodes"] == 4
        assert doc["up_backlog"] == 0 and doc["down_idle_ticks"] == 2


@pytest.fixture
def idle_service():
    """An unstarted service: the queue and executing set stay empty, so
    every autoscaler decision is driven purely by what the test does."""
    service = JobService(num_nodes=2, workers=1)
    yield service
    service.shutdown(drain=False)


def make_scaler(service, **kwargs):
    kwargs.setdefault("up_backlog", 0)
    kwargs.setdefault("down_idle_ticks", 2)
    kwargs.setdefault("cooldown_ticks", 1)
    policy = AutoscalePolicy(kwargs.pop("min_nodes", 2),
                             kwargs.pop("max_nodes", 4), **kwargs)
    scaler = Autoscaler(service, policy)
    service.autoscaler = scaler
    return scaler


class TestTicks:
    def test_backlog_scales_up_one_node_per_decision(self, idle_service):
        scaler = make_scaler(idle_service, cooldown_ticks=0)
        idle_service.queue.push("alice", object())
        assert scaler.tick() == ("up", "node2")
        assert scaler.tick() == ("up", "node3")
        assert scaler.tick() is None  # at max_nodes
        assert len(idle_service.cluster.schedulable_node_ids()) == 4
        assert scaler.scale_ups == 2

    def test_cooldown_separates_decisions(self, idle_service):
        scaler = make_scaler(idle_service, cooldown_ticks=2)
        idle_service.queue.push("alice", object())
        assert scaler.tick() == ("up", "node2")
        assert scaler.tick() is None  # cooling down
        assert scaler.tick() is None
        assert scaler.tick() == ("up", "node3")

    def test_sustained_idle_drains_down_to_min(self, idle_service):
        idle_service.cluster.add_node()  # node2: three schedulable
        scaler = make_scaler(idle_service, min_nodes=1, max_nodes=4,
                             down_idle_ticks=2, cooldown_ticks=0)
        assert scaler.tick() is None  # idle tick 1
        assert scaler.tick() == ("down", "node2")
        assert scaler.tick() is None  # the drain reset the idle streak
        assert scaler.tick() == ("down", "node1")
        # At min_nodes: idleness no longer drains anything.
        assert scaler.tick() is None
        assert scaler.tick() is None
        assert idle_service.cluster.schedulable_node_ids() == ["node0"]
        assert scaler.scale_downs == 2

    def test_backlog_resets_the_idle_streak(self, idle_service):
        scaler = make_scaler(idle_service, min_nodes=1, up_backlog=5,
                             down_idle_ticks=2, cooldown_ticks=0)
        assert scaler.tick() is None  # idle tick 1
        idle_service.queue.push("alice", object())  # activity
        assert scaler.tick() is None  # busy: streak resets
        idle_service.queue.pop(timeout=0)
        assert scaler.tick() is None  # idle tick 1 again
        assert scaler.tick() == ("down", "node1")

    def test_scale_emits_telemetry(self, idle_service):
        scaler = make_scaler(idle_service, cooldown_ticks=0)
        idle_service.queue.push("alice", object())
        scaler.tick()
        events = idle_service.telemetry.events.snapshot(name="serve.scale")
        assert events and events[-1].args["direction"] == "up"
        counter = idle_service.telemetry.registry.counter("serve.scale_up")
        assert counter.value == 1

    def test_state_snapshot(self, idle_service):
        scaler = make_scaler(idle_service)
        state = scaler.state()
        assert state["policy"]["min_nodes"] == 2
        assert state["scale_ups"] == 0


class TestManualScale:
    def test_scale_to_within_band(self, idle_service):
        make_scaler(idle_service, min_nodes=1, max_nodes=4)
        doc = idle_service.scale_to(3)
        assert doc["added"] == ["node2"]
        assert doc["schedulable"] == 3

    def test_scale_outside_band_rejected(self, idle_service):
        make_scaler(idle_service, min_nodes=2, max_nodes=4)
        with pytest.raises(ValueError):
            idle_service.scale_to(5)
        with pytest.raises(ValueError):
            idle_service.scale_to(1)

    def test_scale_without_policy_is_unbounded(self, idle_service):
        doc = idle_service.scale_to(5)
        assert doc["schedulable"] == 5

    def test_admission_capacity_tracks_schedulable_nodes(self, idle_service):
        per_node = idle_service.cluster.node_memory_bytes
        assert idle_service.admission.aggregate_capacity() == 2 * per_node
        idle_service.scale_to(4)
        assert idle_service.admission.aggregate_capacity() == 4 * per_node
        # A draining node stops counting immediately, even though it is
        # still alive and serving its pinned partitions.
        idle_service.cluster.register_placement("r", ("node3",))
        idle_service.cluster.drain_node("node3")
        assert idle_service.admission.aggregate_capacity() == 3 * per_node

    def test_virtual_partitions_pinned_at_construction(self, idle_service):
        assert idle_service.cluster.virtual_partitions == 2
        idle_service.scale_to(4)
        assert idle_service.cluster.num_partitions == 2


class TestLivenessSurfacing:
    def test_stats_cluster_section_lists_every_node(self, idle_service):
        doc = idle_service.stats()["cluster"]
        assert [n["node"] for n in doc["nodes"]] == ["node0", "node1"]
        assert all(
            n["alive"] and not n["suspect"] and n["missed_heartbeats"] == 0
            for n in doc["nodes"]
        )
        assert doc["schedulable"] == 2 and doc["epoch"] == 0

    def test_dead_node_becomes_suspect_in_stats(self, idle_service):
        idle_service.cluster.kill_node("node1")
        doc = idle_service.stats()["cluster"]
        node1 = next(n for n in doc["nodes"] if n["node"] == "node1")
        assert node1["suspect"] and node1["missed_heartbeats"] >= 1

    def test_documents_read_liveness_without_side_effects(self, idle_service):
        """``/stats`` and ``/healthz`` only read: a downed node shows as
        suspect, but neither document declares it dead or reaps."""
        cluster = idle_service.cluster
        cluster.kill_node("node1")
        events = len(idle_service.telemetry.events)
        epoch = cluster.membership_epoch
        nodes = idle_service.stats()["cluster"]["nodes"]
        node1 = next(n for n in nodes if n["node"] == "node1")
        assert node1["suspect"] is True and node1["missed_heartbeats"] == 1
        health = idle_service.health_document()
        assert health["suspect_nodes"] == ["node1"]
        assert len(idle_service.telemetry.events) == events
        assert cluster.membership_epoch == epoch

    def test_healthz_degrades_without_failing(self, idle_service):
        idle_service.start()
        assert idle_service.health_document()["degraded"] is False
        idle_service.cluster.kill_node("node1")
        doc = idle_service.health_document()
        assert doc["ok"] is True  # still serving on the survivor
        assert doc["degraded"] is True
        assert doc["suspect_nodes"] == ["node1"]
        assert doc["nodes_schedulable"] == 1

    def test_autoscaler_state_in_stats(self, idle_service):
        make_scaler(idle_service)
        doc = idle_service.stats()["cluster"]
        assert doc["autoscaler"]["policy"]["max_nodes"] == 4


class TestServiceIntegration:
    def test_start_clamps_into_band_and_runs_jobs(self, serve_graph,
                                                  reference_results):
        service = JobService(num_nodes=1, workers=2,
                             autoscale=AutoscalePolicy.parse("2:4"))
        try:
            service.add_dataset("g", vertices=serve_graph)
            service.start()
            # Clamped up to min_nodes before serving.
            assert len(service.cluster.schedulable_node_ids()) == 2
            record = service.submit({
                "tenant": "alice", "algorithm": "cc", "dataset": "g",
            })
            state = record.wait(WAIT)
            assert state is not None and state.value == "succeeded"
            assert sorted(record.result["results"]) == sorted(
                line for line in reference_results["cc"]
            )
        finally:
            service.shutdown(timeout=WAIT)
            autoscaler = service.stats()["cluster"]["autoscaler"]
            assert autoscaler["running"] is False
