"""A GraphX-like engine: Pregel as joins over immutable RDD snapshots.

GraphX implements Pregel on Spark by joining a vertex collection with an
edge-triplet collection every iteration. Two architectural signatures
matter for the paper's results:

* **Load-time materialization** — building a graph materializes the raw
  line RDD, the edge collection, the vertex collection, and per-partition
  routing tables *simultaneously*, with per-vertex costs (boxed ids, hash
  maps, routing bitsets replicated per referencing partition) that dwarf
  the columnar edge storage. That is why the paper's GraphX could not
  even load BTC-Tiny (vertex-heavy) while running Webmap-X-Small
  (edge-heavy but vertex-light).
* **Whole-graph scans per iteration** — each superstep scans the full
  triplet collection regardless of how few vertices are active, so
  message-sparse algorithms pay the message-dense price.
"""

from repro.common import costmodel
from repro.baselines.base import ProcessCentricBase

#: Heap bytes per vertex across the simultaneously materialized vertex
#: RDD generations, routing tables, and replicated-vertex views (boxed
#: ids, open hash maps, per-partition bitsets). Calibrated at simulation
#: scale — each simulated vertex stands for tens of thousands of real
#: ones — so that the load-failure boundary of the paper holds: GraphX
#: loads the edge-heavy Webmap-X-Small but cannot load the vertex-heavy
#: BTC-Tiny (Figure 10's caption).
PER_VERTEX_RDD_BYTES = 2100
#: Columnar (primitive-array) edge storage is compact relative to our
#: length-prefixed serialized records.
EDGE_COLUMNAR_FACTOR = 0.4


class GraphXLikeEngine(ProcessCentricBase):
    """RDD-style join-based Pregel with heavyweight graph loading."""

    name = "graphx"
    built_at_load = "edge triplets"

    def load(self, partitions):
        self.triplets = [[] for _ in range(self.num_workers)]
        super().load(partitions)

    def charge_vertex(self, worker, nbytes, state):
        # Load path: the simultaneous materializations are charged
        # first; the engine dies here on vertex-heavy graphs (the
        # paper's BTC-Tiny).
        self.charge(
            worker,
            PER_VERTEX_RDD_BYTES + nbytes * EDGE_COLUMNAR_FACTOR,
            "graph loading",
        )

    def admit(self, worker, state):
        super().admit(worker, state)
        self.triplets[worker].extend(
            (state.vid, target, weight) for target, weight in state.edges
        )

    def work(self, touched, computes, messages):
        # The join-based runtime scans every triplet each iteration
        # (mapReduceTriplets has no live-vertex index) — the work that
        # makes GraphX slow on message-sparse algorithms.
        scanned = sum(len(triplets) for triplets in self.triplets)
        cpu = (
            scanned * costmodel.GRAPHX_EDGE_SCAN
            + computes * costmodel.BASELINE_COMPUTE
            + messages * costmodel.GRAPHX_MESSAGE
        )
        return cpu, 0.0
