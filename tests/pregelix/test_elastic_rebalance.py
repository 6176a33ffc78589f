"""Elastic membership: join/drain/retire mechanics and the boundary handoff.

The contract under test (DESIGN.md §5): ``add_node``/``drain_node``/
``scale_to`` change *membership* immediately but change *placement* only
at the next superstep boundary, where the driver hands partitions off
through the checkpoint/restore path. Draining nodes stay alive — never
a run's lost machine — until every pinned run has handed off, then
retire with their storage wiped.
"""

import pytest

from repro.algorithms import pagerank
from repro.common.errors import SchedulingError
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver
from repro.pregelix.failure import FailureManager

VERTICES = 60
GRAPH_SEED = 3


class TestMembership:
    def test_add_node_is_schedulable_immediately(self, cluster):
        node_id = cluster.add_node()
        assert node_id == "node3"
        assert node_id in cluster.schedulable_node_ids()
        assert node_id in cluster.alive_node_ids()
        assert cluster.nodes[node_id].alive

    def test_node_ids_never_reused(self, cluster):
        first = cluster.add_node()
        cluster.drain_node(first)  # unpinned: retires immediately
        assert first not in cluster.nodes
        second = cluster.add_node()
        assert second != first

    def test_duplicate_node_id_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.add_node("node0")

    def test_unpinned_drain_retires_immediately(self, cluster):
        cluster.drain_node("node2")
        assert "node2" not in cluster.nodes
        assert "node2" in cluster.retired_nodes

    def test_drain_keeps_pinned_node_alive_until_handoff(self, cluster):
        cluster.register_placement("run1", ("node0", "node1", "node2"))
        cluster.drain_node("node2")
        # Healthy-until-handoff: still a member, still alive, but no
        # new placements may land on it.
        assert "node2" in cluster.nodes
        assert "node2" in cluster.alive_node_ids()
        assert "node2" in cluster.draining_node_ids()
        assert "node2" not in cluster.schedulable_node_ids()
        cluster.release_placement("run1")
        assert "node2" not in cluster.nodes
        assert "node2" in cluster.retired_nodes

    def test_inflight_job_blocks_retirement(self, cluster):
        cluster.nodes["node2"].inflight += 1
        cluster.drain_node("node2")
        assert "node2" in cluster.nodes
        cluster.nodes["node2"].inflight -= 1
        assert cluster.reap_draining_nodes() == ["node2"]

    def test_retirement_wipes_node_state(self, cluster):
        node = cluster.nodes["node2"]
        cluster.drain_node("node2")
        assert not node.alive
        assert not node.files._paged_files
        events = cluster.telemetry.events.snapshot(name="cluster.scale")
        assert [e.args["action"] for e in events] == ["drain", "retire"]

    def test_scale_to_adds_fresh_nodes(self, cluster):
        added, draining = cluster.scale_to(5)
        assert len(added) == 2 and draining == []
        assert len(cluster.schedulable_node_ids()) == 5

    def test_scale_to_drains_newest_first(self, cluster):
        cluster.add_node()  # node3
        added, draining = cluster.scale_to(2)
        assert added == []
        assert draining == ["node3", "node2"]
        assert cluster.schedulable_node_ids() == ["node0", "node1"]

    def test_scale_below_one_raises(self, cluster):
        with pytest.raises(ValueError):
            cluster.scale_to(0)

    def test_membership_epoch_tracks_changes(self, cluster):
        epoch = cluster.membership_epoch
        cluster.add_node()
        assert cluster.membership_epoch == epoch + 1
        cluster.drain_node("node0")  # drain + immediate retire
        assert cluster.membership_epoch == epoch + 3

    def test_placement_on_retired_node_raises(self, cluster):
        cluster.drain_node("node2")
        with pytest.raises(SchedulingError):
            cluster.register_placement("run1", ("node0", "node2"))

    def test_draining_pinned_node_is_not_lost(self, cluster):
        cluster.register_placement("run1", ("node2",))
        cluster.drain_node("node2")
        assert FailureManager(cluster).lost(("node2",)) == []

    def test_virtual_partitions_pin_the_count(self, tmp_path):
        with HyracksCluster(
            num_nodes=2, root_dir=str(tmp_path / "vc"), virtual_partitions=6
        ) as cluster:
            assert cluster.num_partitions == 6
            cluster.add_node()
            assert cluster.num_partitions == 6

    def test_joined_node_and_rebuilt_cache_fire_the_armed_plan(self, tmp_path):
        """A node joined after ``arm`` and a cache ``kill_node`` rebuilt
        both hold the cluster's one injector, so its page.read specs
        fire there."""
        from repro.chaos import FaultPlan, FaultSpec
        from repro.common.errors import WorkerFailure
        from repro.hyracks.storage.pages import PageKind

        # No cache room: every unpinned page is written back and evicted,
        # so the next pin is a miss that reads it.
        with HyracksCluster(
            num_nodes=2, buffer_cache_bytes=0, root_dir=str(tmp_path / "c")
        ) as cluster:
            injector = cluster.fault_injector.arm(FaultPlan([
                FaultSpec("page.read", action="io", node=node_id)
                for node_id in ("node9", "node0")
            ]))
            cluster.add_node("node9")
            cluster.kill_node("node0")
            for node_id in ("node9", "node0"):
                cache = cluster.nodes[node_id].buffer_cache
                assert cache.fault_injector is injector
                page = cache.new_page(cache.create_file(), PageKind.LEAF)
                cache.unpin(page, dirty=True)
                with pytest.raises(WorkerFailure):
                    cache.pin(page.page_id)
            assert [f.node for f in injector.fired] == ["node9", "node0"]


#: Over-decomposition for the driver tests: with more partitions than
#: nodes, a joining node deterministically takes a share of the data.
VIRTUAL_PARTITIONS = 6


def run_pagerank(cluster, scale_at=None, iterations=5):
    write_graph_to_dfs(
        cluster.dfs, "/in/g", iter(btc_graph(VERTICES, seed=GRAPH_SEED)), num_files=3
    )
    driver = PregelixDriver(cluster, cluster.dfs)
    job = pagerank.build_job(iterations=iterations)
    outcome = driver.run(job, "/in/g", output_path="/out/r", scale_at=scale_at)
    return tuple(sorted(driver.read_output("/out/r"))), outcome


class TestDriverRebalance:
    def test_scale_up_rebalances_at_the_boundary(self, tmp_path):
        with HyracksCluster(
            num_nodes=3, root_dir=str(tmp_path / "static"),
            virtual_partitions=VIRTUAL_PARTITIONS
        ) as cluster:
            reference, _ = run_pagerank(cluster)
        with HyracksCluster(
            num_nodes=3, root_dir=str(tmp_path / "up"),
            virtual_partitions=VIRTUAL_PARTITIONS
        ) as cluster:
            lines, outcome = run_pagerank(cluster, scale_at={3: 4})
            assert lines == reference
            assert len(outcome.stats.rebalances) == 1
            superstep, seconds, moved = outcome.stats.rebalances[0]
            assert superstep == 3 and seconds > 0 and moved > 0
            assert sorted(cluster.nodes) == ["node0", "node1", "node2", "node3"]
            events = cluster.telemetry.events.snapshot(name="cluster.rebalance")
            assert [e.args["phase"] for e in events] == ["begin", "commit"]
            spans = [
                s for s in cluster.telemetry.tracer.spans
                if s.category == "rebalance"
            ]
            assert len(spans) == 1

    def test_scale_down_retires_the_drained_node(self, tmp_path):
        with HyracksCluster(
            num_nodes=3, root_dir=str(tmp_path / "static"),
            virtual_partitions=VIRTUAL_PARTITIONS
        ) as cluster:
            reference, _ = run_pagerank(cluster)
        with HyracksCluster(
            num_nodes=3, root_dir=str(tmp_path / "down"),
            virtual_partitions=VIRTUAL_PARTITIONS
        ) as cluster:
            lines, outcome = run_pagerank(cluster, scale_at={2: 2})
            assert lines == reference
            assert len(outcome.stats.rebalances) == 1
            # The drained node handed off and retired during the run.
            assert sorted(cluster.nodes) == ["node0", "node1"]
            assert cluster.retired_nodes == ["node2"]
            # No pinned pages leaked onto the survivors.
            for node in cluster.nodes.values():
                assert all(
                    page.pin_count == 0
                    for page in node.buffer_cache._pages.values()
                )

    def test_noop_scale_skips_the_handoff(self, tmp_path):
        with HyracksCluster(
            num_nodes=3, root_dir=str(tmp_path / "noop"),
            virtual_partitions=VIRTUAL_PARTITIONS
        ) as cluster:
            _lines, outcome = run_pagerank(cluster, scale_at={2: 3})
            assert outcome.stats.rebalances == []
            assert cluster.telemetry.events.snapshot(name="cluster.rebalance") == []
