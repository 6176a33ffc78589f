"""Writes ``parent_checkpoint.json``: the DFS files of an interrupted run.

Run once, against the commit *before* the serde codecs were compiled
(2b2aec7), to record what that code wrote:

    PYTHONPATH=<that checkout>/src python tests/pregelix/data/make_parent_checkpoint.py

A PageRank run with a checkpoint every second superstep is killed at the
boundary after superstep 5; everything under ``/pregelix/<run_id>/`` —
checkpointed ``Vertex`` and ``Msg`` partitions, GS, manifests — is stored
base64-encoded beside the finished output of an uninterrupted run.
``test_parent_checkpoint.py`` resumes from it.
"""

import base64
import json
import os

from repro.algorithms import pagerank
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix.runtime import PregelixDriver

RUN_ID = "parent-ckpt"
VERTICES, GRAPH_SEED, NODES, ITERATIONS, INTERVAL, CRASH_AFTER = 60, 15, 2, 8, 2, 5


class Crash(Exception):
    """Stands in for the process dying."""


def run(crash):
    with HyracksCluster(num_nodes=NODES) as cluster:
        dfs = cluster.dfs
        write_graph_to_dfs(
            dfs, "/in/g", btc_graph(VERTICES, seed=GRAPH_SEED), num_files=NODES
        )
        driver = PregelixDriver(cluster, dfs)
        job = pagerank.build_job(iterations=ITERATIONS, checkpoint_interval=INTERVAL)

        def hook(superstep, gs):
            if crash and superstep == CRASH_AFTER:
                raise Crash()

        try:
            driver.run(job, "/in/g", output_path="/out/r", run_id=RUN_ID,
                       boundary_hook=hook)
        except Crash:
            return {
                path: base64.b64encode(dfs.read(path)).decode("ascii")
                for path in dfs.list_files("/pregelix/%s" % RUN_ID)
            }
        return sorted(driver.read_output("/out/r"))


if __name__ == "__main__":
    fixture = {"files": run(crash=True), "output": run(crash=False)}
    target = os.path.join(os.path.dirname(__file__), "parent_checkpoint.json")
    with open(target, "w") as handle:
        json.dump(fixture, handle, indent=0, sort_keys=True)
    print("%d files, %d output lines -> %s" % (
        len(fixture["files"]), len(fixture["output"]), target))
