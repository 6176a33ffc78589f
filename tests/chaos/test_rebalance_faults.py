"""Chaos at the elastic handoff: faults mid-rebalance must be invisible.

The ``rebalance`` fault site fires inside the superstep-boundary
handoff, at its two interesting moments: just before the handoff
checkpoint is written (``phase="checkpoint"``) and just before the
restore onto the new assignment (``phase="restore"``). A kill or
transient there lands in the driver's normal recovery path, which falls
back to the latest *verified* checkpoint — so a run that lost a machine
in the middle of rebalancing still finishes bit-identical to a
fault-free static run.

The site is deliberately excluded from :meth:`FaultPlan.random`'s
default pool: pre-existing seeded schedules must keep replaying the
exact plans they produced before the site existed.
"""

import pytest

from repro.algorithms import pagerank
from repro.chaos import ChaosError, FaultPlan, FaultSpec
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver

VERTICES = 80
GRAPH_SEED = 5
VIRTUAL_PARTITIONS = 6


def run_pagerank(root_dir, plan=None, scale_at=None):
    cluster = HyracksCluster(
        num_nodes=3,
        root_dir=str(root_dir),
        virtual_partitions=VIRTUAL_PARTITIONS,
    )
    try:
        write_graph_to_dfs(
            cluster.dfs, "/in/g", btc_graph(VERTICES, seed=GRAPH_SEED), num_files=3
        )
        driver = PregelixDriver(cluster, cluster.dfs)
        injector = cluster.fault_injector
        if plan is not None:
            injector.arm(plan)
        job = pagerank.build_job(iterations=6, checkpoint_interval=1)
        outcome = driver.run(
            job, "/in/g", output_path="/out/r",
            scale_at=dict(scale_at) if scale_at else None,
        )
        lines = sorted(driver.read_output("/out/r"))
        return lines, outcome, injector, cluster.telemetry
    finally:
        cluster.close()


class TestRebalanceFaults:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        lines, outcome, _, _ = run_pagerank(tmp_path_factory.mktemp("ref"))
        return lines, outcome.supersteps

    @pytest.mark.parametrize("phase_hit", [1, 2], ids=["checkpoint", "restore"])
    def test_kill_mid_handoff_recovers_bit_identical(
        self, reference, tmp_path, phase_hit
    ):
        """Losing a machine during the handoff falls back to the last
        verified checkpoint; hit 1 is the pre-checkpoint probe, hit 2
        the pre-restore probe."""
        expected, supersteps = reference
        plan = FaultPlan(
            [FaultSpec(site="rebalance", action="kill", node="node1",
                       at_hit=phase_hit)]
        )
        lines, outcome, injector, telemetry = run_pagerank(
            tmp_path, plan=plan, scale_at={3: 4}
        )
        assert [f.site for f in injector.fired] == ["rebalance"]
        assert outcome.recoveries >= 1
        assert outcome.supersteps == supersteps
        assert lines == expected
        assert telemetry.events.snapshot(name="failure.recovered")

    def test_transient_mid_handoff_recovers_bit_identical(
        self, reference, tmp_path
    ):
        expected, _ = reference
        plan = FaultPlan(
            [FaultSpec(site="rebalance", action="transient_io", at_hit=2)]
        )
        lines, outcome, injector, _ = run_pagerank(
            tmp_path, plan=plan, scale_at={3: 2}
        )
        assert [f.action for f in injector.fired] == ["transient_io"]
        assert outcome.recoveries >= 1
        assert lines == expected

    def test_faultfree_elastic_matches_reference(self, reference, tmp_path):
        """Control: the same schedule without faults is also identical."""
        expected, _ = reference
        lines, outcome, _, _ = run_pagerank(tmp_path, scale_at={3: 4})
        assert outcome.recoveries == 0
        assert outcome.stats.rebalances
        assert lines == expected


class TestSiteStability:
    def test_random_plans_never_draw_rebalance(self):
        """Seeded default schedules predate the site and must not change."""
        nodes = ["node0", "node1", "node2"]
        for seed in range(40):
            plan = FaultPlan.random(seed, nodes, num_faults=5)
            assert all(spec.site != "rebalance" for spec in plan)

    def test_rebalance_spec_validates(self):
        FaultSpec(site="rebalance", action="kill")
        FaultSpec(site="rebalance", action="transient_io")
        with pytest.raises(ChaosError):
            FaultSpec(site="rebalance", action="corrupt")
