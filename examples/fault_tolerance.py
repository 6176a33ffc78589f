"""Fault tolerance: checkpointing and recovery from a machine loss.

The paper's Section 5.5: Vertex, Msg (and Vid) are checkpointed to HDFS
at user-selected superstep boundaries, and after a machine failure the
run replays from the latest committed checkpoint on the surviving nodes
— with the user program none the wiser. This script kills a worker mid
PageRank and verifies the final ranks are bit-identical to a failure-
free run.

    python examples/fault_tolerance.py
"""

from repro.algorithms import pagerank
from repro.chaos import FaultPlan, FaultSpec
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver


def run(kill_worker):
    cluster = HyracksCluster(num_nodes=4)
    dfs = cluster.dfs
    write_graph_to_dfs(dfs, "/input/g", btc_graph(500, seed=9), num_files=4)
    driver = PregelixDriver(cluster, dfs)
    if kill_worker:
        # node2 fails at the open of its 61st operator task; the
        # failure manager blacklists it and powers it off.
        cluster.fault_injector.arm(FaultPlan(
            [FaultSpec("operator.open", node="node2", at_hit=61)]
        ))
    job = pagerank.build_job(iterations=10, checkpoint_interval=2)
    outcome = driver.run(job, "/input/g", output_path="/output/ranks")
    lines = sorted(driver.read_output("/output/ranks"))
    alive = cluster.alive_node_ids()
    cluster.close()
    return outcome, lines, alive


def main():
    print("reference run (no failures)...")
    reference_outcome, reference, _alive = run(kill_worker=False)
    print("  %d supersteps, %d vertices" % (reference_outcome.supersteps, len(reference)))

    print("run with node2 powered off mid-job...")
    outcome, recovered, alive = run(kill_worker=True)
    print(
        "  %d supersteps, %d recovery(ies); surviving machines: %s"
        % (outcome.supersteps, outcome.recoveries, ", ".join(alive))
    )

    assert outcome.recoveries >= 1, "the failure should have triggered recovery"
    assert recovered == reference, "results must be identical after recovery"
    print("final ranks are bit-identical to the failure-free run.")


if __name__ == "__main__":
    main()
