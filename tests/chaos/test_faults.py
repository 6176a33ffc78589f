"""Unit tests for the fault plan / injector machinery."""

import pytest

from repro.chaos import (
    CORE_ACTIONS,
    FAULT_ACTIONS,
    FAULT_SITES,
    ChaosError,
    FaultPlan,
    FaultSpec,
)
from repro.common.errors import JobFailure, WorkerFailure
from repro.hyracks.engine import HyracksCluster
from repro.telemetry import Telemetry


@pytest.fixture
def cluster(tmp_path):
    with HyracksCluster(num_nodes=3, root_dir=str(tmp_path / "c")) as c:
        yield c


class TestFaultSpec:
    def test_validates_site(self):
        with pytest.raises(ChaosError):
            FaultSpec(site="nonsense")

    def test_validates_action(self):
        with pytest.raises(ChaosError):
            FaultSpec(site="operator.open", action="explode")

    def test_validates_hit(self):
        with pytest.raises(ChaosError):
            FaultSpec(site="operator.open", at_hit=0)

    def test_describe_mentions_site_and_action(self):
        spec = FaultSpec(site="page.read", action="io", node="node2", at_hit=4)
        text = spec.describe()
        assert "page.read" in text and "io" in text and "node2" in text

    def test_taxonomy_covers_every_layer(self):
        layers = {site.split(".")[0] for site in FAULT_SITES}
        assert layers == {
            "superstep", "operator", "page", "checkpoint", "dfs", "rebalance",
            "journal", "service",
        }
        assert set(FAULT_ACTIONS) == {
            "interruption",
            "io",
            "kill",
            "delay",
            "transient_io",
            "corrupt",
            "torn_write",
        }
        # Seeded schedules default to the original pool, so pre-existing
        # seeds keep replaying the exact same schedules.
        assert set(CORE_ACTIONS) == {"interruption", "io", "kill", "delay"}


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        nodes = ["node0", "node1", "node2"]
        a = FaultPlan.random(99, nodes, num_faults=4)
        b = FaultPlan.random(99, nodes, num_faults=4)
        assert a.specs == b.specs

    def test_different_seed_different_plan(self):
        nodes = ["node0", "node1", "node2"]
        plans = [FaultPlan.random(seed, nodes, num_faults=4).specs for seed in range(20)]
        assert any(plans[0] != other for other in plans[1:])

    def test_reset_clears_hits(self):
        plan = FaultPlan([FaultSpec(site="operator.open", at_hit=1)])
        plan.specs[0].hits = 5
        plan.specs[0].fired = True
        plan.reset()
        assert plan.specs[0].hits == 0 and not plan.specs[0].fired

    def test_lethal_faults_capped_below_cluster_size(self):
        nodes = ["node0", "node1", "node2"]
        for seed in range(30):
            plan = FaultPlan.random(seed, nodes, num_faults=6)
            lethal = sum(1 for s in plan if s.action != "delay")
            assert lethal <= len(nodes) - 2

    def test_min_superstep_defaults_survivable(self):
        plan = FaultPlan.random(5, ["node0"], num_faults=3)
        assert all(spec.min_superstep >= 2 for spec in plan)

    def test_empty_nodes_rejected(self):
        with pytest.raises(ChaosError):
            FaultPlan.random(1, [])


class TestFaultInjector:
    def test_cluster_holds_one_unarmed_injector(self, cluster):
        injector = cluster.fault_injector
        assert injector.cluster.nodes is cluster.nodes
        assert injector.telemetry is cluster.telemetry
        for node in cluster.nodes.values():
            assert node.fault_injector is injector
            assert node.buffer_cache.fault_injector is injector
        assert not injector.armed
        injector.begin_superstep(3)
        assert injector.check("page.read", node="node0") is None
        assert injector.checks == 0 and injector.current_superstep == 0
        assert cluster.telemetry.events.snapshot(name="chaos.armed") == []

    def test_arm_starts_from_a_clean_count(self, cluster):
        injector = cluster.fault_injector
        injector.arm(FaultPlan([FaultSpec(site="operator.open", action="io")]))
        injector.begin_superstep(4)
        with pytest.raises(WorkerFailure):
            injector.check("operator.open", node="node0")
        injector.disarm(reason="engine", scope="engine")
        plan = FaultPlan([FaultSpec(site="page.read", action="io")], seed=5)
        assert injector.arm(plan) is injector
        assert (injector.plan, injector.checks, injector.fired) == (plan, 0, [])
        assert injector.current_superstep == 0 and not injector._engine_disarmed
        with pytest.raises(WorkerFailure):
            injector.check("page.read", node="node0")
        armed = cluster.telemetry.events.snapshot(name="chaos.armed")
        assert [e.args["seed"] for e in armed] == [None, 5]

    def test_standalone_hosts_hold_private_unarmed_injectors(self, tmp_path):
        from repro.hdfs import MiniDFS
        from repro.hyracks.storage.buffer_cache import BufferCache
        from repro.hyracks.storage.file_manager import FileManager
        from repro.serve.journal import open_journal

        dfs = MiniDFS()
        cache = BufferCache(1 << 16, 4096, FileManager(str(tmp_path / "f")))
        journal = open_journal("file:%s" % tmp_path)
        injectors = [dfs.fault_injector, cache.fault_injector, journal.fault_injector]
        assert len({id(i) for i in injectors}) == 3
        assert all(i.cluster is None and not i.armed for i in injectors)
        assert dfs.retry_policy.telemetry is dfs.fault_injector.telemetry

    def test_fires_at_exact_hit(self, cluster):
        plan = FaultPlan([FaultSpec(site="operator.open", action="io", at_hit=3)])
        injector = cluster.fault_injector.arm(plan)
        injector.begin_superstep(1)
        injector.check("operator.open", node="node0")
        injector.check("operator.open", node="node0")
        with pytest.raises(WorkerFailure) as exc:
            injector.check("operator.open", node="node0")
        assert exc.value.kind == "io"
        assert len(injector.fired) == 1
        assert injector.fired[0].hit == 3

    def test_spec_fires_once(self, cluster):
        plan = FaultPlan([FaultSpec(site="operator.open", action="io", at_hit=1)])
        injector = cluster.fault_injector.arm(plan)
        injector.begin_superstep(1)
        with pytest.raises(WorkerFailure):
            injector.check("operator.open", node="node0")
        injector.check("operator.open", node="node0")  # no second firing
        assert len(injector.fired) == 1

    def test_node_filter(self, cluster):
        plan = FaultPlan(
            [FaultSpec(site="page.read", action="io", node="node1", at_hit=1)]
        )
        injector = cluster.fault_injector.arm(plan)
        injector.begin_superstep(1)
        injector.check("page.read", node="node0")  # wrong node: no hit
        assert plan.specs[0].hits == 0
        with pytest.raises(WorkerFailure) as exc:
            injector.check("page.read", node="node1")
        assert exc.value.node_id == "node1"

    def test_min_superstep_gates_counting(self, cluster):
        plan = FaultPlan(
            [FaultSpec(site="operator.next", action="io", at_hit=1, min_superstep=3)]
        )
        injector = cluster.fault_injector.arm(plan)
        injector.begin_superstep(1)
        injector.check("operator.next", node="node0")
        injector.begin_superstep(2)
        injector.check("operator.next", node="node0")
        assert plan.specs[0].hits == 0
        injector.begin_superstep(3)
        with pytest.raises(WorkerFailure):
            injector.check("operator.next", node="node0")

    def test_kill_powers_off_target(self, cluster):
        plan = FaultPlan(
            [FaultSpec(site="operator.open", action="kill", node="node2", at_hit=1)]
        )
        injector = cluster.fault_injector.arm(plan)
        injector.begin_superstep(2)
        # The check runs on node0; node2 dies silently.
        injector.check("operator.open", node="node0")
        assert "node2" not in cluster.alive_node_ids()
        assert injector.fired[0].action == "kill"

    def test_kill_on_own_node_raises(self, cluster):
        plan = FaultPlan(
            [FaultSpec(site="operator.open", action="kill", node="node1", at_hit=1)]
        )
        injector = cluster.fault_injector.arm(plan)
        injector.begin_superstep(2)
        with pytest.raises(WorkerFailure):
            injector.check("operator.open", node="node1")
        assert "node1" not in cluster.alive_node_ids()

    def test_delay_advances_sim_clock(self, cluster):
        plan = FaultPlan(
            [
                FaultSpec(
                    site="operator.close", action="delay", at_hit=1, delay_seconds=1.5
                )
            ]
        )
        injector = cluster.fault_injector.arm(plan)
        injector.begin_superstep(1)
        before = cluster.telemetry.sim_clock.seconds
        injector.check("operator.close", node="node0")
        assert cluster.telemetry.sim_clock.seconds == pytest.approx(before + 1.5)
        assert len(injector.fired) == 1

    def test_superstep_begin_wraps_into_job_failure(self, cluster):
        plan = FaultPlan([FaultSpec(site="superstep.begin", action="interruption")])
        injector = cluster.fault_injector.arm(plan)
        with pytest.raises(JobFailure):
            injector.begin_superstep(1)

    def test_disarmed_injector_is_inert(self, cluster):
        plan = FaultPlan([FaultSpec(site="operator.open", action="io", at_hit=1)])
        injector = cluster.fault_injector.arm(plan)
        injector.disarm(reason="test")
        injector.begin_superstep(5)
        injector.check("operator.open", node="node0")
        assert injector.fired == [] and plan.specs[0].hits == 0

    def test_firing_emits_telemetry(self, cluster):
        plan = FaultPlan([FaultSpec(site="page.write", action="io", at_hit=1)])
        injector = cluster.fault_injector.arm(plan)
        injector.begin_superstep(1)
        with pytest.raises(WorkerFailure):
            injector.check("page.write", node="node0")
        events = cluster.telemetry.events.snapshot(name="chaos.fault")
        assert len(events) == 1
        assert events[0].args["site"] == "page.write"
        assert events[0].args["action"] == "io"

    def test_summary_lists_pending_and_fired(self, cluster):
        plan = FaultPlan(
            [
                FaultSpec(site="operator.open", action="io", at_hit=1),
                FaultSpec(site="page.read", action="io", at_hit=99),
            ],
            seed=123,
        )
        injector = cluster.fault_injector.arm(plan)
        injector.begin_superstep(1)
        with pytest.raises(WorkerFailure):
            injector.check("operator.open", node="node0")
        summary = injector.summary()
        assert summary["seed"] == 123
        assert len(summary["fired"]) == 1
        assert len(summary["pending"]) == 1


class TestHooksReachInjector:
    """The engine, buffer cache, and checkpoint paths consult the hooks."""

    def test_engine_operator_hooks_fire(self, cluster, tmp_path):
        from repro.algorithms import sssp
        from repro.graphs.generators import chain_graph
        from repro.graphs.io import write_graph_to_dfs
        from repro.pregelix import PregelixDriver

        write_graph_to_dfs(cluster.dfs, "/in/g", chain_graph(12), num_files=3)
        plan = FaultPlan(
            [FaultSpec(site="operator.open", action="io", at_hit=2, min_superstep=2)]
        )
        injector = cluster.fault_injector.arm(plan)
        job = sssp.build_job(source_id=0, checkpoint_interval=1)
        driver = PregelixDriver(cluster, cluster.dfs)
        outcome = driver.run(job, "/in/g", output_path="/out/r")
        assert len(injector.fired) == 1
        assert outcome.recoveries == 1
        assert injector.checks > 0

    def test_checkpoint_write_hook_fires(self, cluster):
        from repro.algorithms import pagerank
        from repro.graphs.generators import chain_graph
        from repro.graphs.io import write_graph_to_dfs
        from repro.pregelix import PregelixDriver

        write_graph_to_dfs(cluster.dfs, "/in/g", chain_graph(12), num_files=3)
        plan = FaultPlan(
            [
                FaultSpec(
                    site="checkpoint.write", action="io", at_hit=1, min_superstep=2
                )
            ]
        )
        injector = cluster.fault_injector.arm(plan)
        job = pagerank.build_job(iterations=4, checkpoint_interval=1)
        driver = PregelixDriver(cluster, cluster.dfs)
        outcome = driver.run(job, "/in/g")
        assert [f.site for f in injector.fired] == ["checkpoint.write"]
        assert outcome.recoveries >= 1
