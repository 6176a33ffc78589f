"""Writing your own vertex program: B2B influence scores.

Shows the full user-facing API surface beyond the built-in library:
a custom :class:`Vertex` subclass, a custom combiner, a custom global
aggregator, and typed serdes — the same pieces the paper's Figure 9
shows in Java.

The algorithm is a two-hop "influence" measure: each account sends its
follower count to its followees; a followee's influence is its own
degree plus the decayed influence mass it received. A global aggregator
tracks the maximum influence seen, which every vertex can read in the
next superstep (used here for normalized early stopping).

    python examples/custom_algorithm.py
"""

from repro.common import serde
from repro.graphs.generators import webmap_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import (
    GlobalAggregator,
    PregelixDriver,
    PregelixJob,
    SumCombiner,
    Vertex,
)


class MaxInfluenceAggregator(GlobalAggregator):
    """Tracks the largest influence value across the graph."""

    def init(self):
        return 0.0

    def accumulate(self, state, contribution):
        return max(state, contribution)

    def merge(self, left, right):
        return max(left, right)

    def value_serde(self):
        return serde.FLOAT64


class InfluenceVertex(Vertex):
    """Two-hop decayed influence propagation."""

    DECAY = 0.5
    ROUNDS = 4

    def compute(self, messages):
        if self.superstep == 1:
            self.value = float(len(self.edges))
        else:
            received = sum(messages)
            self.value = float(len(self.edges)) + self.DECAY * received
        self.aggregate(self.value)
        if self.superstep < self.ROUNDS and self.edges:
            share = self.value / len(self.edges)
            self.send_message_to_all_edges(share)
        else:
            self.vote_to_halt()


def main():
    cluster = HyracksCluster(num_nodes=4)
    dfs = cluster.dfs
    write_graph_to_dfs(dfs, "/input/social", webmap_graph(1500, seed=42))

    job = PregelixJob(
        name="influence",
        vertex_class=InfluenceVertex,
        value_serde=serde.FLOAT64,
        msg_serde=serde.FLOAT64,
        combiner=SumCombiner(),
        aggregator=MaxInfluenceAggregator(),
    )
    driver = PregelixDriver(cluster, dfs)
    outcome = driver.run(job, "/input/social", output_path="/output/influence")

    print(
        "%d supersteps; global max influence = %.3f"
        % (outcome.supersteps, outcome.gs.aggregate)
    )
    scores = []
    for line in driver.read_output("/output/influence"):
        fields = line.split()
        scores.append((float(fields[1]), int(fields[0])))
    scores.sort(reverse=True)
    print("most influential accounts:")
    for score, vid in scores[:5]:
        print("  vertex %6d  influence %.3f" % (vid, score))
    cluster.close()


if __name__ == "__main__":
    main()
