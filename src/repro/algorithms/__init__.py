"""The Pregelix built-in algorithm library (paper Section 6).

Every algorithm is a :class:`~repro.pregelix.api.Vertex` subclass plus a
``build_job`` factory that bundles the right serdes, combiner, and
physical-plan hints (mirroring the paper's Figure 9, where the job's
``main`` sets the join/group-by/connector choices).

:data:`ALGORITHMS` is the one name table the CLI and the serve tier
both read.
"""

import importlib
from collections import namedtuple

from repro.algorithms.pagerank import PageRankVertex, build_job as pagerank_job
from repro.algorithms.sssp import ShortestPathsVertex, build_job as sssp_job
from repro.algorithms.connected_components import (
    ConnectedComponentsVertex,
    build_job as connected_components_job,
)
from repro.algorithms.reachability import ReachabilityVertex, build_job as reachability_job
from repro.algorithms.triangle_counting import (
    TriangleCountingVertex,
    build_job as triangle_counting_job,
)
from repro.algorithms.maximal_cliques import (
    MaximalCliquesVertex,
    build_job as maximal_cliques_job,
)
from repro.algorithms.graph_sampling import (
    RandomWalkSampleVertex,
    build_job as graph_sampling_job,
)
from repro.algorithms.bfs_spanning_tree import (
    BFSSpanningTreeVertex,
    build_job as bfs_spanning_tree_job,
)
from repro.algorithms.graph_cleaning import (
    PathMergingVertex,
    build_job as path_merging_job,
)
from repro.algorithms.scc import (
    StronglyConnectedComponentsVertex,
    build_job as scc_job,
)
from repro.algorithms.list_ranking import (
    ListRankingVertex,
    build_job as list_ranking_job,
)
from repro.algorithms.euler_tour import (
    build_arc_graph,
    compute_preorder,
    preorder_from_ranks,
)

Algorithm = namedtuple("Algorithm", ["module", "params", "servable"])

#: name -> the module holding its ``build_job`` (and, where its text
#: format is not the default, ``parse_line`` / ``format_record``), the
#: ``build_job`` parameters a CLI flag or a serve request may set, and
#: whether ``repro serve`` accepts it.
ALGORITHMS = {
    "pagerank": Algorithm("repro.algorithms.pagerank", ("iterations",), True),
    "sssp": Algorithm("repro.algorithms.sssp", ("source_id",), True),
    "cc": Algorithm("repro.algorithms.connected_components", (), True),
    "reachability": Algorithm("repro.algorithms.reachability", ("sources",), True),
    "triangles": Algorithm("repro.algorithms.triangle_counting", (), True),
    "cliques": Algorithm("repro.algorithms.maximal_cliques", (), False),
    "sampling": Algorithm("repro.algorithms.graph_sampling", (), False),
    "bfs-tree": Algorithm("repro.algorithms.bfs_spanning_tree", ("root",), True),
    "path-merging": Algorithm("repro.algorithms.graph_cleaning", (), False),
    "scc": Algorithm("repro.algorithms.scc", (), True),
    "list-ranking": Algorithm("repro.algorithms.list_ranking", (), True),
}


def algorithm_module(name):
    """The module of built-in algorithm ``name``."""
    return importlib.import_module(ALGORITHMS[name].module)


__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "algorithm_module",
    "PageRankVertex",
    "pagerank_job",
    "ShortestPathsVertex",
    "sssp_job",
    "ConnectedComponentsVertex",
    "connected_components_job",
    "ReachabilityVertex",
    "reachability_job",
    "TriangleCountingVertex",
    "triangle_counting_job",
    "MaximalCliquesVertex",
    "maximal_cliques_job",
    "RandomWalkSampleVertex",
    "graph_sampling_job",
    "BFSSpanningTreeVertex",
    "bfs_spanning_tree_job",
    "PathMergingVertex",
    "path_merging_job",
    "StronglyConnectedComponentsVertex",
    "scc_job",
    "ListRankingVertex",
    "list_ranking_job",
    "build_arc_graph",
    "compute_preorder",
    "preorder_from_ranks",
]
