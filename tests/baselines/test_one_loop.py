"""The baselines' one BSP loop: same numbers as the four it replaced,
and the same answers as an independent reference.

``parent_outcomes.json`` was written by :func:`record_cell` running on
the commit *before* the loops were merged (``python
tests/baselines/test_one_loop.py <out.json>`` with that tree on
``PYTHONPATH``); the replay demands every float bit for bit, so it is
regenerated only when an engine's cost model is changed on purpose.
"""

import hashlib
import json
import os
import sys

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.bench.harness import BASELINES
from repro.chaos.reference import algorithm_case
from repro.common.errors import MemoryBudgetExceeded
from repro.graphs.generators import btc_graph, webmap_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hdfs import MiniDFS

FIXTURE = os.path.join(os.path.dirname(__file__), "parent_outcomes.json")
WORKERS = 3
BUDGETS = (64 << 20, 200_000, 60_000)
#: algorithm -> input graph of the fixture cells.
GRAPHS = {
    "pagerank": lambda: webmap_graph(150, seed=1),
    "sssp": lambda: btc_graph(120, seed=2),
    "cc": lambda: btc_graph(120, seed=2),
}
CELLS = [
    (engine, algorithm, budget)
    for engine in sorted(BASELINES)
    for algorithm in sorted(GRAPHS)
    for budget in BUDGETS
]


def run_engine(engine, algorithm, vertices, budget):
    """One engine run over ``vertices``; returns the ``BaselineOutcome``."""
    case = algorithm_case(algorithm)
    dfs = MiniDFS(datanodes=["n%d" % i for i in range(WORKERS)])
    write_graph_to_dfs(dfs, "/in/g", iter(vertices), num_files=WORKERS)
    return BASELINES[engine](WORKERS, budget).run(
        case.build_job(), dfs, "/in/g", parse_line=case.parse_line
    )


def record_cell(engine, algorithm, budget):
    """Everything deterministic one run reports, floats by ``repr``."""
    try:
        outcome = run_engine(engine, algorithm, list(GRAPHS[algorithm]()), budget)
    except MemoryBudgetExceeded as failure:
        return {"error": str(failure)}
    vertices = repr(sorted(outcome.vertices.items()))
    return {
        "supersteps": outcome.supersteps,
        "peak_memory_bytes": outcome.peak_memory_bytes,
        "load_cost": [repr(part) for part in outcome.load_cost],
        "superstep_costs": [
            [repr(part) for part in cost] for cost in outcome.superstep_costs
        ],
        "aggregate": repr(outcome.aggregate),
        "vertices_sha256": hashlib.sha256(vertices.encode()).hexdigest(),
    }


def cell_key(engine, algorithm, budget):
    return "%s/%s/%d" % (engine, algorithm, budget)


@pytest.fixture(scope="module")
def parent_outcomes():
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_fixture_covers_every_cell(parent_outcomes):
    assert sorted(parent_outcomes) == sorted(cell_key(*cell) for cell in CELLS)
    assert sum("error" in cell for cell in parent_outcomes.values()) == 6


@pytest.mark.parametrize("engine,algorithm,budget", CELLS)
def test_replays_parent_outcome(parent_outcomes, engine, algorithm, budget):
    expected = parent_outcomes[cell_key(engine, algorithm, budget)]
    assert record_cell(engine, algorithm, budget) == expected


# ----------------------------------------------------------------------
# every engine configuration against the independent references
# ----------------------------------------------------------------------
@st.composite
def small_graphs(draw):
    """A symmetric weighted graph on vids ``0..n-1`` (cc needs both
    edge directions; vid 0 is the sssp source)."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda pair: pair[0] < pair[1]
            ),
            max_size=3 * n,
        )
    )
    edges = {vid: [] for vid in range(n)}
    for a, b in sorted(pairs):
        weight = float(draw(st.integers(min_value=1, max_value=9)))
        edges[a].append((b, weight))
        edges[b].append((a, weight))
    return [(vid, None, edges[vid]) for vid in range(n)]


@seed(21)
@settings(max_examples=25, deadline=None, database=None)
@given(graph=small_graphs(), algorithm=st.sampled_from(sorted(GRAPHS)))
def test_engines_agree_with_reference(graph, algorithm):
    case = algorithm_case(algorithm)
    expected = case.reference(graph)
    supersteps = {}
    for engine in sorted(BASELINES):
        outcome = run_engine(engine, algorithm, graph, BUDGETS[0])
        assert case.compare(outcome.vertices, expected) == [], engine
        supersteps[engine] = outcome.supersteps
    assert len(set(supersteps.values())) == 1, supersteps


if __name__ == "__main__":
    with open(sys.argv[1], "w") as handle:
        json.dump(
            {cell_key(*cell): record_cell(*cell) for cell in CELLS},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
