"""Unit tests for the throughput experiment machinery."""

import pytest

from repro.algorithms import pagerank
from repro.bench.throughput import SteppedPregelixJob, _disk_bytes
from repro.graphs.generators import webmap_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster


@pytest.fixture
def cluster(tmp_path):
    cluster = HyracksCluster(num_nodes=2, root_dir=str(tmp_path / "tc"))
    write_graph_to_dfs(cluster.dfs, "/in/g", webmap_graph(150, seed=3), num_files=2)
    yield cluster
    cluster.close()


class TestSteppedJob:
    def test_step_until_done(self, cluster):
        job = pagerank.build_job(iterations=4)
        stepped = SteppedPregelixJob(cluster, job, "/in/g", run_id="t1")
        steps = 0
        while stepped.step(paper_machines=8):
            steps += 1
        assert steps == 4
        assert stepped.done
        assert not stepped.step(paper_machines=8)  # idempotent when done

    def test_costs_recorded_per_superstep(self, cluster):
        job = pagerank.build_job(iterations=3)
        stepped = SteppedPregelixJob(cluster, job, "/in/g", run_id="t2")
        while stepped.step(paper_machines=8):
            pass
        assert len(stepped.costs) == 3
        cpu, disk, net, supersteps = stepped.totals(scale=10.0)
        assert supersteps == 3
        assert cpu > 0

    def test_interleaved_jobs_share_cluster(self, cluster):
        jobs = [
            SteppedPregelixJob(
                cluster, pagerank.build_job(iterations=3), "/in/g",
                run_id="t3-%d" % i,
            )
            for i in range(2)
        ]
        progressed = True
        while progressed:
            progressed = any(stepped.step(8) for stepped in jobs)
        assert all(stepped.done for stepped in jobs)
        # Both runs' state lives side by side on the shared nodes.
        assert all(stepped.gs.num_vertices == 150 for stepped in jobs)

    def test_disk_bytes_counter(self, cluster):
        before = _disk_bytes(cluster)
        job = pagerank.build_job(iterations=2)
        stepped = SteppedPregelixJob(cluster, job, "/in/g", run_id="t4")
        while stepped.step(8):
            pass
        assert _disk_bytes(cluster) >= before
