"""PageRank — the paper's message-intensive workload (run on Webmap).

Standard damped PageRank: every vertex distributes its rank over its
out-edges each superstep and recombines with the damping factor. The
message volume equals the edge count per superstep, which is why the
paper pairs it with the index *full outer join* plan (every vertex is
live) and why its combiner (a sum) matters so much for network volume.
"""

from repro.common import serde
from repro.pregelix.api import (
    GroupByStrategy,
    JoinStrategy,
    PregelixJob,
    SumCombiner,
    Vertex,
)

#: Config key for the iteration count (the paper runs fixed rounds).
ITERATIONS = "pagerank.iterations"
#: Config key for the damping factor.
DAMPING = "pagerank.damping"


class PageRankVertex(Vertex):
    """One PageRank vertex; value is its current rank."""

    def configure(self, config):
        self.iterations = int(config.get(ITERATIONS, 10))
        self.damping = float(config.get(DAMPING, 0.85))

    def compute(self, messages):
        if self.superstep == 1:
            self.value = 1.0 / max(self.num_vertices, 1)
        else:
            incoming = sum(messages)
            self.value = (
                (1.0 - self.damping) / max(self.num_vertices, 1)
                + self.damping * incoming
            )
        if self.superstep < self.iterations:
            # Out-degree and targets come off the stored edge list: no
            # edge is decoded, and the row is written back spliced.
            out_degree = self.num_out_edges
            if out_degree:
                self.send_message_to_all_edges(self.value / out_degree)
        else:
            self.vote_to_halt()


def build_job(
    iterations=10,
    damping=0.85,
    join_strategy=JoinStrategy.FULL_OUTER,
    groupby_strategy=GroupByStrategy.SORT,
    **overrides,
):
    """A configured PageRank job (paper-default plan unless overridden)."""
    return PregelixJob(
        name="pagerank",
        vertex_class=PageRankVertex,
        value_serde=serde.FLOAT64,
        edge_serde=serde.FLOAT64,
        msg_serde=serde.FLOAT64,
        combiner=SumCombiner(),
        join_strategy=join_strategy,
        groupby_strategy=groupby_strategy,
        config={ITERATIONS: iterations, DAMPING: damping},
        **overrides,
    )
