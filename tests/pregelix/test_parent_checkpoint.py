"""A checkpoint written before the codecs were compiled still restores.

``data/parent_checkpoint.json`` holds the DFS files the previous commit
left behind when a PageRank run was killed after superstep 5 (see
``data/make_parent_checkpoint.py``). The compiled codecs write the same
bytes, so they must also read them: ``resume`` restores the newest of
those checkpoints and finishes with the output that commit produced.
"""

import base64
import json
import os

from repro.algorithms import pagerank
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix.runtime import PregelixDriver

from tests.pregelix.data import make_parent_checkpoint as parent


def test_resume_from_a_checkpoint_the_parent_commit_wrote():
    path = os.path.join(os.path.dirname(parent.__file__), "parent_checkpoint.json")
    with open(path) as handle:
        fixture = json.load(handle)
    with HyracksCluster(num_nodes=parent.NODES) as cluster:
        write_graph_to_dfs(
            cluster.dfs, "/in/g", btc_graph(parent.VERTICES, seed=parent.GRAPH_SEED),
            num_files=parent.NODES,
        )
        for name, blob in fixture["files"].items():
            cluster.dfs.write(name, base64.b64decode(blob))
        job = pagerank.build_job(
            iterations=parent.ITERATIONS, checkpoint_interval=parent.INTERVAL
        )
        driver = PregelixDriver(cluster, cluster.dfs)
        outcome = driver.resume(job, "/in/g", parent.RUN_ID, output_path="/out/r")
        # Restored, not reloaded: only the supersteps after the newest
        # checkpoint (superstep 4) ran.
        assert outcome.recoveries == 1
        assert [s.superstep for s in outcome.stats.supersteps][0] == 5
        assert sorted(driver.read_output("/out/r")) == fixture["output"]
    # ... and the same run today writes the parent's bytes: every
    # checkpointed partition, GS, and the manifests' sizes and CRCs.
    assert parent.run(crash=True) == fixture["files"]
