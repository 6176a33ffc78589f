"""Durable-recovery chaos tests: corruption, torn writes, transients.

The acceptance story for the durability work, end to end:

* a chaos schedule that corrupts or tears the latest checkpoint makes
  recovery fall back to the previous *verified* checkpoint, and the
  recovered run stays bit-identical to the fault-free run;
* transient I/O faults are absorbed in place by seeded backoff — no
  recovery, no blacklist, identical output;
* every decision (retry, verify failure, fallback) is visible in
  telemetry and replayable from the seed.
"""

import pytest

from repro.algorithms import pagerank
from repro.chaos import FaultPlan, FaultSpec, PlanChoice
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver


@pytest.fixture
def env(tmp_path):
    cluster = HyracksCluster(num_nodes=3, root_dir=str(tmp_path / "c"))
    write_graph_to_dfs(cluster.dfs, "/in/g", btc_graph(120, seed=5), num_files=3)
    driver = PregelixDriver(cluster, cluster.dfs)
    yield cluster, cluster.dfs, driver
    cluster.close()


def run_reference(tmp_path_factory, job_factory):
    root = tmp_path_factory.mktemp("ref")
    with HyracksCluster(num_nodes=3, root_dir=str(root)) as cluster:
        write_graph_to_dfs(cluster.dfs, "/in/g", btc_graph(120, seed=5), num_files=3)
        driver = PregelixDriver(cluster, cluster.dfs)
        driver.run(job_factory(), "/in/g", output_path="/out/ref")
        return sorted(driver.read_output("/out/ref"))


def event_names(cluster):
    return [e.name for e in cluster.telemetry.events.snapshot()]


class TestCorruptedCheckpointFallback:
    def _damage_then_kill(self, damage_action):
        """Damage a checkpoint blob written at superstep 3, then lose a
        machine in superstep 4, forcing recovery to choose a checkpoint."""
        return FaultPlan(
            [
                # dfs.write hits from superstep 3: 1 = the GS primary
                # copy, 2-4 = staged vertex blobs; hit 3 lands on a
                # checkpoint partition file.
                FaultSpec(
                    site="dfs.write", action=damage_action, at_hit=3, min_superstep=3
                ),
                FaultSpec(
                    site="operator.open",
                    action="kill",
                    node="node1",
                    at_hit=2,
                    min_superstep=4,
                ),
            ]
        )

    @pytest.mark.parametrize("damage", ["corrupt", "torn_write"])
    def test_falls_back_to_verified_checkpoint_bit_identical(
        self, env, tmp_path_factory, damage
    ):
        cluster, dfs, driver = env
        expected = run_reference(
            tmp_path_factory, lambda: pagerank.build_job(iterations=6)
        )
        injector = cluster.fault_injector.arm(self._damage_then_kill(damage))
        job = pagerank.build_job(iterations=6, checkpoint_interval=1)
        outcome = driver.run(job, "/in/g", output_path="/out/rec")
        assert outcome.recoveries >= 1
        fired = {f.action for f in injector.fired}
        assert damage in fired and "kill" in fired
        # The damage landed on a checkpoint blob, not some other file.
        (damage_event,) = cluster.telemetry.events.snapshot(name="chaos.fault")[:1]
        assert "/ckpt/" in damage_event.args["path"]
        # The damaged newest checkpoint was detected and skipped ...
        failed = cluster.telemetry.events.snapshot(name="checkpoint.verify_failed")
        assert failed and failed[0].args["superstep"] == 3
        fallbacks = cluster.telemetry.events.snapshot(name="recovery.fallback")
        assert fallbacks and fallbacks[0].args["superstep"] == 2
        # ... and the recovered run reproduces the fault-free answer.
        assert sorted(driver.read_output("/out/rec")) == expected

    def test_all_checkpoints_damaged_means_none_selectable(self, env):
        from repro.pregelix.checkpoint import Checkpointer

        cluster, dfs, driver = env
        job = pagerank.build_job(iterations=4, checkpoint_interval=1)
        outcome = driver.run(job, "/in/g", keep_state=True)
        checkpointer = Checkpointer(outcome.generator, cluster.telemetry)
        committed = checkpointer.committed_supersteps()
        assert committed  # retention kept at least the newest generations
        for superstep in committed:
            dfs.corrupt(checkpointer.path(superstep, "vertex", 0))
        assert checkpointer.latest_checkpoint() is None
        assert len(
            cluster.telemetry.events.snapshot(name="checkpoint.verify_failed")
        ) == len(committed)
        driver.cleanup(outcome.generator)

    def test_gc_retains_fallback_generations_only(self, env):
        from repro.pregelix.checkpoint import Checkpointer

        cluster, dfs, driver = env
        job = pagerank.build_job(iterations=6, checkpoint_interval=1)
        outcome = driver.run(job, "/in/g", keep_state=True)
        checkpointer = Checkpointer(outcome.generator, cluster.telemetry)
        # interval=1 over 6 supersteps commits 1..5 (none at halt), but
        # GC keeps only the newest two generations.
        assert checkpointer.committed_supersteps() == [4, 5]
        assert checkpointer.superstep_directories() == [4, 5]
        assert cluster.telemetry.events.snapshot(name="checkpoint.gc")
        driver.cleanup(outcome.generator)


class TestKilledMidCheckpoint:
    def test_uncommitted_checkpoint_invisible_to_recovery(
        self, env, tmp_path_factory
    ):
        """A machine lost *during* the checkpoint plan leaves staging
        debris but no manifest; recovery must use the previous commit."""
        cluster, dfs, driver = env
        expected = run_reference(
            tmp_path_factory, lambda: pagerank.build_job(iterations=6)
        )
        plan = FaultPlan(
            [
                FaultSpec(
                    site="checkpoint.write",
                    action="kill",
                    node="node1",
                    at_hit=2,
                    min_superstep=3,
                )
            ]
        )
        injector = cluster.fault_injector.arm(plan)
        job = pagerank.build_job(iterations=6, checkpoint_interval=1)
        outcome = driver.run(job, "/in/g", output_path="/out/mid")
        assert outcome.recoveries >= 1
        fallbacks = cluster.telemetry.events.snapshot(name="recovery.fallback")
        assert not fallbacks  # newest *committed* checkpoint was intact
        assert sorted(driver.read_output("/out/mid")) == expected

    def test_differential_cell_stays_in_its_equivalence_class(
        self, differential_checker
    ):
        """The same scenario through the differential harness: a faulted
        cell must reproduce its fault-free twin bit for bit."""
        checker = differential_checker("pagerank")
        plan = PlanChoice.parse("foj/sort/unmerged/btree")
        baseline = checker.run_cell(plan, budget="roomy", fault_seed=None)
        fault_plan = FaultPlan(
            [
                FaultSpec(
                    site="dfs.write", action="corrupt", at_hit=3, min_superstep=3
                ),
                FaultSpec(
                    site="checkpoint.write",
                    action="kill",
                    node="node2",
                    at_hit=1,
                    min_superstep=4,
                ),
            ]
        )
        faulted = checker.run_cell(plan, budget="roomy", fault_plan=fault_plan)
        assert baseline.ok and faulted.ok, (baseline.error, faulted.error)
        assert faulted.recoveries >= 1
        assert faulted.lines == baseline.lines


class TestTransientFaults:
    def test_dfs_write_transient_absorbed_in_place(self, env, tmp_path_factory):
        cluster, dfs, driver = env
        expected = run_reference(
            tmp_path_factory, lambda: pagerank.build_job(iterations=4)
        )
        plan = FaultPlan(
            [FaultSpec(site="dfs.write", action="transient_io", at_hit=2, min_superstep=2)]
        )
        injector = cluster.fault_injector.arm(plan)
        job = pagerank.build_job(iterations=4, checkpoint_interval=1)
        outcome = driver.run(job, "/in/g", output_path="/out/tr")
        # Absorbed by DFS-level retry: no recovery, no machine lost.
        assert outcome.recoveries == 0
        assert sorted(cluster.alive_node_ids()) == ["node0", "node1", "node2"]
        retries = cluster.telemetry.events.snapshot(name="retry.attempt")
        assert retries and retries[0].args["what"].startswith("dfs.write")
        assert retries[0].args["backoff_seconds"] > 0
        assert sorted(driver.read_output("/out/tr")) == expected

    def test_transient_on_the_loads_first_write_absorbed(
        self, env, tmp_path_factory
    ):
        """The DFS retries from construction: hit 1 is the load's GS
        write, before any checkpointer exists."""
        cluster, dfs, driver = env
        expected = run_reference(
            tmp_path_factory, lambda: pagerank.build_job(iterations=4)
        )
        plan = FaultPlan([FaultSpec(site="dfs.write", action="transient_io", at_hit=1)])
        injector = cluster.fault_injector.arm(plan)
        outcome = driver.run(
            pagerank.build_job(iterations=4), "/in/g", output_path="/out/tl"
        )
        assert injector.fired and outcome.recoveries == 0
        retries = cluster.telemetry.events.snapshot(name="retry.attempt")
        assert [e.args["what"].split()[0] for e in retries] == ["dfs.write"]
        assert cluster.telemetry.registry.value("failure.retries") == 1
        assert sorted(driver.read_output("/out/tl")) == expected

    def test_superstep_begin_transient_retries_whole_plan(
        self, env, tmp_path_factory
    ):
        cluster, dfs, driver = env
        expected = run_reference(
            tmp_path_factory, lambda: pagerank.build_job(iterations=4)
        )
        plan = FaultPlan(
            [
                FaultSpec(
                    site="superstep.begin",
                    action="transient_io",
                    at_hit=1,
                    min_superstep=3,
                )
            ]
        )
        injector = cluster.fault_injector.arm(plan)
        job = pagerank.build_job(iterations=4, checkpoint_interval=2)
        outcome = driver.run(job, "/in/g", output_path="/out/trb")
        assert outcome.recoveries == 0
        retries = cluster.telemetry.events.snapshot(name="retry.attempt")
        assert retries and retries[0].args["what"] == "superstep 3"
        assert outcome.supersteps == 4  # the retried superstep completed
        assert sorted(driver.read_output("/out/trb")) == expected


class TestSeededDurabilitySchedules:
    def test_durability_actions_replay_identically(self):
        nodes = ["node0", "node1", "node2"]
        actions = ("corrupt", "torn_write", "transient_io")
        a = FaultPlan.random(11, nodes, num_faults=4, actions=actions)
        b = FaultPlan.random(11, nodes, num_faults=4, actions=actions)
        assert a.specs == b.specs
        # Mutations are forced onto the DFS surface; transients onto
        # retry-safe sites.
        for spec in a:
            if spec.action in ("corrupt", "torn_write"):
                assert spec.site == "dfs.write"
            if spec.action == "transient_io":
                assert spec.site in ("dfs.write", "superstep.begin")

    def test_core_seeds_unchanged_by_new_actions(self):
        """Adding durability actions must not re-shuffle pre-existing
        seeded schedules (they default to the original action pool)."""
        plan = FaultPlan.random(7, ["node0", "node1", "node2"])
        assert all(
            spec.action in ("interruption", "io", "kill", "delay") for spec in plan
        )
        assert all(spec.site != "dfs.write" for spec in plan)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_seeded_durability_matrix_cell(self, differential_checker, seed):
        checker = differential_checker(
            "sssp", fault_actions=("corrupt", "torn_write", "transient_io")
        )
        plan = PlanChoice.parse("foj/sort/unmerged/btree")
        baseline = checker.run_cell(plan, budget="roomy", fault_seed=None)
        faulted = checker.run_cell(plan, budget="roomy", fault_seed=seed)
        assert baseline.ok and faulted.ok, (baseline.error, faulted.error)
        assert faulted.lines == baseline.lines
        assert "--actions corrupt,torn_write,transient_io" in faulted.repro_command()
