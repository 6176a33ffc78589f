"""Seeded property suite: elastic rebalancing never changes the answer.

The determinism claim of DESIGN.md §5: for a fixed ``(budget,
group-by, connector)`` class, a run whose cluster scales up or down at
*any* superstep boundary produces output byte-for-byte identical to a
run on static membership. The partition count is fixed at load, so
rebalancing only re-derives the partition→node assignment — placement
must be invisible in every dumped byte.

Each (algorithm × group-by × connector) cell runs a static reference,
then seeded random membership schedules: a scale-up and a scale-down at
a randomly drawn in-run boundary per seed, plus one up-then-down
schedule. Floats are compared exactly; a last-ulp divergence (e.g. from
messages combined in a different order after the handoff) fails.
"""

import random

import pytest

from repro.chaos.reference import algorithm_case
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import ConnectorPolicy, GroupByStrategy, PregelixDriver

NUM_NODES = 3
#: Over-decomposition: more partitions than nodes, so a joining node
#: deterministically takes a share (otherwise a scale-up has nothing to
#: move and the assignment would depend on the run-id rotation).
VIRTUAL_PARTITIONS = 6
VERTICES = 60
GRAPH_SEED = 3
SEEDS = (0, 1)

COMBOS = [
    pytest.param(groupby, connector,
                 id="%s-%s" % (groupby.value, connector.value))
    for groupby in (GroupByStrategy.SORT, GroupByStrategy.HASHSORT)
    for connector in (ConnectorPolicy.MERGED, ConnectorPolicy.UNMERGED)
]


def run_case(algorithm, groupby, connector, root_dir, scale_at=None):
    case = algorithm_case(algorithm)
    cluster = HyracksCluster(
        num_nodes=NUM_NODES,
        root_dir=str(root_dir),
        virtual_partitions=VIRTUAL_PARTITIONS,
    )
    try:
        write_graph_to_dfs(
            cluster.dfs,
            "/in/g",
            iter(btc_graph(VERTICES, seed=GRAPH_SEED)),
            num_files=NUM_NODES,
        )
        job = case.build_job()
        job.groupby_strategy = groupby
        job.connector_policy = connector
        driver = PregelixDriver(cluster, cluster.dfs)
        outcome = driver.run(
            job,
            "/in/g",
            output_path="/out/r",
            parse_line=case.parse_line,
            format_record=case.format_record,
            scale_at=dict(scale_at) if scale_at else None,
        )
        return tuple(sorted(driver.read_output("/out/r"))), outcome
    finally:
        cluster.close()


@pytest.mark.parametrize("groupby,connector", COMBOS)
@pytest.mark.parametrize("algorithm", ["pagerank", "sssp", "cc"])
def test_rebalanced_run_bit_identical_to_static(
    algorithm, groupby, connector, tmp_path
):
    reference, ref_outcome = run_case(
        algorithm, groupby, connector, tmp_path / "static"
    )
    assert reference
    # A mid-run boundary exists for every case on this graph.
    assert ref_outcome.supersteps >= 3
    for seed in SEEDS:
        rng = random.Random(
            "%s:%s:%s:%d" % (algorithm, groupby.value, connector.value, seed)
        )
        boundary = rng.randrange(2, ref_outcome.supersteps)
        for direction, target in (
            ("up", rng.choice((NUM_NODES + 1, NUM_NODES + 2))),
            ("down", rng.choice((1, NUM_NODES - 1))),
        ):
            label = "seed%d-%s" % (seed, direction)
            lines, outcome = run_case(
                algorithm, groupby, connector, tmp_path / label,
                scale_at={boundary: target},
            )
            assert outcome.stats.rebalances, (
                "%s: no handoff happened at superstep %d" % (label, boundary)
            )
            assert outcome.supersteps == ref_outcome.supersteps
            assert lines == reference, (
                "%s %s diverged scaling %s to %d nodes at superstep %d"
                % (algorithm, label, direction, target, boundary)
            )


def test_up_then_down_schedule_bit_identical(tmp_path):
    """Membership may move twice in one run; both handoffs stay invisible."""
    reference, ref_outcome = run_case(
        "pagerank", GroupByStrategy.SORT, ConnectorPolicy.MERGED,
        tmp_path / "static",
    )
    lines, outcome = run_case(
        "pagerank", GroupByStrategy.SORT, ConnectorPolicy.MERGED,
        tmp_path / "updown",
        scale_at={2: NUM_NODES + 2, 4: NUM_NODES - 1},
    )
    assert [step for step, _, _ in outcome.stats.rebalances] == [2, 4]
    assert lines == reference
