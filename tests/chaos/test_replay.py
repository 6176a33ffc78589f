"""Replayability: one seed -> one failure scenario, bit for bit.

The acceptance bar for the chaos harness: running the same (job, graph,
fault seed) twice on fresh clusters must produce the identical sequence
of chaos/failure telemetry events and the identical final vertex values
after recovery. ``run_id`` is the one intentionally run-scoped field
(a process-wide counter) and is stripped before comparison.
"""

import pytest

from repro.algorithms import pagerank, sssp
from repro.chaos import FaultPlan
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver

#: A seed chosen (by trying a handful) so the schedule actually fires
#: against the pagerank job below — replay of a no-op schedule proves
#: nothing. test_chosen_seed_fires guards against silent drift.
FIRING_SEED = 5


def run_faulted(tmp_path, seed, job_factory, num_faults=2):
    cluster = HyracksCluster(num_nodes=3, root_dir=str(tmp_path))
    try:
        write_graph_to_dfs(cluster.dfs, "/in/g", btc_graph(100, seed=4), num_files=3)
        plan = FaultPlan.random(seed, cluster.node_ids(), num_faults=num_faults)
        injector = cluster.fault_injector.arm(plan)
        driver = PregelixDriver(cluster, cluster.dfs)
        outcome = driver.run(job_factory(), "/in/g", output_path="/out/r")
        lines = tuple(sorted(driver.read_output("/out/r")))
        events = [
            (event.name, event.category, _scrub(event.args))
            for event in cluster.telemetry.events.snapshot()
            if event.category in ("chaos", "failure")
        ]
        return {
            "lines": lines,
            "events": events,
            "fired": [
                (f.spec_index, f.site, f.action, f.node, f.hit, f.superstep)
                for f in injector.fired
            ],
            "recoveries": outcome.recoveries,
        }
    finally:
        cluster.close()


def _scrub(args):
    return tuple(sorted((k, v) for k, v in args.items() if k != "run_id"))


def job_factory():
    return pagerank.build_job(iterations=6, checkpoint_interval=1)


class TestReplay:
    def test_chosen_seed_fires(self, tmp_path):
        run = run_faulted(tmp_path / "probe", FIRING_SEED, job_factory)
        assert run["fired"], (
            "FIRING_SEED no longer fires any fault against this job; "
            "pick a new seed so the replay test keeps meaning something"
        )

    def test_same_seed_identical_failure_events_and_results(self, tmp_path):
        first = run_faulted(tmp_path / "a", FIRING_SEED, job_factory)
        second = run_faulted(tmp_path / "b", FIRING_SEED, job_factory)
        assert first["fired"] == second["fired"]
        assert first["events"] == second["events"]
        assert first["recoveries"] == second["recoveries"]
        assert first["lines"] == second["lines"]

    def test_faulted_run_matches_fault_free_run(self, tmp_path):
        faulted = run_faulted(tmp_path / "f", FIRING_SEED, job_factory)
        cluster = HyracksCluster(num_nodes=3, root_dir=str(tmp_path / "clean"))
        try:
            dfs = cluster.dfs
            write_graph_to_dfs(dfs, "/in/g", btc_graph(100, seed=4), num_files=3)
            driver = PregelixDriver(cluster, dfs)
            driver.run(job_factory(), "/in/g", output_path="/out/r")
            clean = tuple(sorted(driver.read_output("/out/r")))
        finally:
            cluster.close()
        assert faulted["lines"] == clean

    def test_different_seeds_differ_somewhere(self, tmp_path):
        """Not a hard guarantee per pair, but across a few seeds the
        schedules must not all collapse to the same behaviour."""
        runs = [
            run_faulted(tmp_path / ("s%d" % seed), seed, job_factory)
            for seed in (1, 2, 5, 9)
        ]
        assert len({tuple(r["fired"]) for r in runs}) > 1
        # Results still all agree — faults never change the answer.
        assert len({r["lines"] for r in runs}) == 1

    def test_replay_with_loj_plan(self, tmp_path):
        def loj_factory():
            return sssp.build_job(source_id=0, checkpoint_interval=1)

        first = run_faulted(tmp_path / "x", 3, loj_factory, num_faults=3)
        second = run_faulted(tmp_path / "y", 3, loj_factory, num_faults=3)
        assert first["events"] == second["events"]
        assert first["lines"] == second["lines"]
