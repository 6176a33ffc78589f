"""Quickstart: run PageRank on a synthetic web graph with Pregelix.

This is the 60-second tour: build a simulated cluster and DFS, generate
a graph, run the built-in PageRank job, and read the ranks back.

    python examples/quickstart.py
"""

from repro.algorithms import pagerank
from repro.graphs.generators import webmap_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver


def main():
    # A 4-worker shared-nothing cluster and its distributed file system.
    cluster = HyracksCluster(num_nodes=4)
    dfs = cluster.dfs

    # Generate a 2,000-vertex power-law web graph into the DFS.
    count = write_graph_to_dfs(dfs, "/input/web", webmap_graph(2000, seed=7))
    print("generated %d vertices" % count)

    # Run 10 iterations of PageRank with the paper's default physical
    # plan (index full outer join, sort-based group-by, B-tree storage).
    driver = PregelixDriver(cluster, dfs)
    job = pagerank.build_job(iterations=10)
    outcome = driver.run(job, "/input/web", output_path="/output/ranks")

    print(
        "ran %d supersteps in %.2fs (avg %.3fs/superstep) using plan %s"
        % (
            outcome.supersteps,
            outcome.total_seconds,
            outcome.avg_iteration_seconds,
            job.plan_signature(),
        )
    )

    # Read the top-10 ranked pages back from the DFS.
    ranks = []
    for line in driver.read_output("/output/ranks"):
        fields = line.split()
        ranks.append((float(fields[1]), int(fields[0])))
    ranks.sort(reverse=True)
    print("top pages by rank:")
    for rank, vid in ranks[:10]:
        print("  vertex %6d  rank %.6f" % (vid, rank))
    print("rank mass (should be ~1.0): %.6f" % sum(r for r, _ in ranks))

    cluster.close()


if __name__ == "__main__":
    main()
