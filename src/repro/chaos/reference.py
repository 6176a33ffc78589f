"""Independent reference implementations for differential checking.

Each :class:`AlgorithmCase` packages one algorithm for the chaos
harness: how to build its :class:`~repro.pregelix.api.PregelixJob`, how
to parse its dumped output lines, and an independent single-machine
reference computed through the :mod:`repro.graphs.nxadapter` graph view
(networkx when it is installed; an equivalent pure-Python fallback
otherwise, so the harness works in minimal environments).

The references intentionally do *not* reuse any Pregelix operator code —
a shared bug would cancel out. PageRank is the one case where a stock
``networkx.pagerank`` call would be wrong rather than independent: it
redistributes dangling-vertex mass and normalizes, while Pregel-style
PageRank (both the paper's Figure 3 and this repo's
:mod:`repro.algorithms.pagerank`) lets dangling mass evaporate. Its
reference is therefore a direct power iteration with the same update
rule, compared under a small floating-point tolerance.
"""

import bisect
import math

from repro.graphs import io as graph_io


def _has_networkx():
    try:
        import networkx  # noqa: F401
    except ImportError:
        return False
    return True


class AlgorithmCase:
    """One differential-checkable algorithm.

    :param tolerance: relative/absolute tolerance for reference
        comparison; 0 demands exact equality (integer-valued results).
    """

    name = None
    tolerance = 0.0
    value_parser = float

    def build_job(self):
        raise NotImplementedError

    def reference(self, vertices):
        """``{vid: expected final value}`` for the input graph."""
        raise NotImplementedError

    # The three built-in cases all use the adjacency text format.
    @property
    def parse_line(self):
        return graph_io.typed_parser(self.value_parser)

    @property
    def format_record(self):
        return None  # driver default (repr for floats, str otherwise)

    def parse_values(self, lines):
        """Parse dumped output lines into ``{vid: value}``."""
        values = {}
        for line in lines:
            vid, value, _edges = graph_io.parse_adjacency_line(
                line, value_parser=self.value_parser
            )
            values[vid] = value
        return values

    def compare(self, got, expected):
        """Human-readable mismatch descriptions (empty when equal)."""
        problems = []
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        if missing:
            problems.append("%s: missing vertices in output: %s" % (self.name, missing[:10]))
        if extra:
            problems.append("%s: unexpected vertices in output: %s" % (self.name, extra[:10]))
        from repro.chaos.differential import values_close

        for vid in sorted(set(got) & set(expected)):
            if not values_close(got[vid], expected[vid], self.tolerance):
                problems.append(
                    "%s: vertex %d: got %r, reference says %r"
                    % (self.name, vid, got[vid], expected[vid])
                )
                if len(problems) >= 20:
                    problems.append("%s: ... further mismatches elided" % self.name)
                    break
        return problems


class SsspCase(AlgorithmCase):
    """Single-source shortest paths vs Dijkstra."""

    name = "sssp"
    # Distances accumulate along identical shortest paths in both
    # implementations, but ties between equal-length paths may round
    # differently; allow a hair of float slack.
    tolerance = 1e-9

    def __init__(self, source_id=0):
        self.source_id = source_id

    def build_job(self):
        from repro.algorithms import sssp

        return sssp.build_job(source_id=self.source_id)

    def reference(self, vertices):
        if _has_networkx():
            import networkx as nx

            from repro.graphs.nxadapter import to_networkx

            graph = to_networkx(vertices, directed=True)
            lengths = nx.single_source_dijkstra_path_length(
                graph, self.source_id, weight="weight"
            )
        else:
            lengths = _dijkstra(vertices, self.source_id)
        return {
            vid: float(lengths.get(vid, math.inf)) for vid, _value, _edges in vertices
        }


class ConnectedComponentsCase(AlgorithmCase):
    """Min-label components vs (weakly) connected components.

    Min-label propagation along directed edges converges to per-weak-
    component minima only when the input contains both edge directions —
    the convention of the BTC-style datasets this case is run on.
    """

    name = "cc"
    tolerance = 0.0
    value_parser = int

    def build_job(self):
        from repro.algorithms import connected_components

        return connected_components.build_job()

    @property
    def parse_line(self):
        from repro.algorithms import connected_components

        return connected_components.parse_line

    @property
    def format_record(self):
        from repro.algorithms import connected_components

        return connected_components.format_record

    def reference(self, vertices):
        if _has_networkx():
            import networkx as nx

            from repro.graphs.nxadapter import to_networkx

            graph = to_networkx(vertices, directed=False)
            return {
                vid: min(component)
                for component in nx.connected_components(graph)
                for vid in component
            }
        return _union_find_components(vertices)


class PageRankCase(AlgorithmCase):
    """Pregel-style damped PageRank vs direct power iteration."""

    name = "pagerank"
    tolerance = 1e-9

    def __init__(self, iterations=5, damping=0.85):
        self.iterations = iterations
        self.damping = damping

    def build_job(self):
        from repro.algorithms import pagerank

        return pagerank.build_job(iterations=self.iterations, damping=self.damping)

    def reference(self, vertices):
        n = max(len(vertices), 1)
        out_edges = {vid: [dest for dest, _w in edges] for vid, _v, edges in vertices}
        ranks = {vid: 1.0 / n for vid in out_edges}
        for _round in range(self.iterations - 1):
            incoming = {vid: 0.0 for vid in out_edges}
            for vid in sorted(out_edges):
                targets = out_edges[vid]
                if not targets:
                    continue  # dangling mass evaporates, as in the vertex program
                share = ranks[vid] / len(targets)
                for dest in targets:
                    incoming[dest] += share
            ranks = {
                vid: (1.0 - self.damping) / n + self.damping * incoming[vid]
                for vid in out_edges
            }
        return ranks


_CASES = {
    "sssp": SsspCase,
    "cc": ConnectedComponentsCase,
    "pagerank": PageRankCase,
}


def algorithm_case(name, **params):
    """Look up an :class:`AlgorithmCase` by name (``sssp``/``cc``/``pagerank``)."""
    try:
        factory = _CASES[name]
    except KeyError:
        raise ValueError(
            "unknown chaos algorithm %r (choose from %s)"
            % (name, ", ".join(sorted(_CASES)))
        )
    return factory(**params)


def algorithm_names():
    """The chaos algorithms, in table order (``repro chaos``'s default order)."""
    return list(_CASES)


# ----------------------------------------------------------------------
# pure-Python fallbacks (no networkx)
# ----------------------------------------------------------------------
def _dijkstra(vertices, source):
    adjacency = {
        vid: [(dest, weight if weight is not None else 1.0) for dest, weight in edges]
        for vid, _value, edges in vertices
    }
    distances = {}
    frontier = [(-0.0, source)]  # (-distance, vid), sorted: nearest last
    while frontier:
        negated, vid = frontier.pop()
        if vid in distances:
            continue
        dist = distances[vid] = -negated
        for dest, weight in adjacency.get(vid, ()):
            if dest not in distances:
                bisect.insort(frontier, (-(dist + weight), dest))
    return distances


def _union_find_components(vertices):
    parent = {vid: vid for vid, _value, _edges in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for vid, _value, edges in vertices:
        for dest, _weight in edges:
            if dest in parent:
                root_a, root_b = find(vid), find(dest)
                if root_a != root_b:
                    # Union by minimum: the final root IS the min label.
                    parent[max(root_a, root_b)] = min(root_a, root_b)
    return {vid: find(vid) for vid in parent}
