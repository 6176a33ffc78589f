"""Which node runs a partition does not change a byte of the output.

With the data-partition count fixed (``virtual_partitions``), a run on
one node and a run spread over six execute the same clones over the same
per-partition streams, merged in partition order (DESIGN.md §4), so the
dumped output of every algorithm must be byte-for-byte the same — floats
included, so even a last-ulp divergence from reordered message
combination fails the test. Elastic scaling relies on exactly this.
"""

import pytest

from repro.chaos.reference import algorithm_case
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix.runtime import PregelixDriver

PARTITIONS = 6
NODE_COUNTS = (1, 2, 3, 6)
VERTICES = 80
GRAPH_SEED = 3


def run_algorithm(case, num_nodes, tmp_path):
    cluster = HyracksCluster(
        num_nodes=num_nodes,
        virtual_partitions=PARTITIONS,
        root_dir=str(tmp_path / ("%s-n%d" % (case.name, num_nodes))),
    )
    try:
        write_graph_to_dfs(
            cluster.dfs,
            "/in/g",
            iter(btc_graph(VERTICES, seed=GRAPH_SEED)),
            num_files=3,
        )
        driver = PregelixDriver(cluster, cluster.dfs)
        outcome = driver.run(
            case.build_job(),
            "/in/g",
            output_path="/out/r",
            parse_line=case.parse_line,
            format_record=case.format_record,
        )
        return tuple(sorted(driver.read_output("/out/r"))), outcome.supersteps
    finally:
        cluster.close()


@pytest.mark.parametrize("algorithm", ["pagerank", "sssp", "cc"])
def test_output_bit_identical_across_node_counts(algorithm, tmp_path):
    case = algorithm_case(algorithm)
    reference_lines, reference_supersteps = run_algorithm(
        case, NODE_COUNTS[0], tmp_path
    )
    assert reference_lines  # the one-node run actually produced output
    for num_nodes in NODE_COUNTS[1:]:
        lines, supersteps = run_algorithm(case, num_nodes, tmp_path)
        assert supersteps == reference_supersteps, (
            "%d nodes took a different superstep count" % num_nodes
        )
        assert lines == reference_lines, (
            "%d nodes diverged from the one-node run" % num_nodes
        )


def test_spread_run_matches_reference_values(tmp_path):
    """Spot check: the answer is also *correct*, not just stable."""
    case = algorithm_case("cc")
    lines, _supersteps = run_algorithm(case, NODE_COUNTS[-1], tmp_path)
    parsed = {}
    for line in lines:
        vid, value, _rest = case.parse_line(line)
        parsed[vid] = value
    expected = case.reference(list(btc_graph(VERTICES, seed=GRAPH_SEED)))
    assert parsed == expected
