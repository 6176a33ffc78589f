"""Shared serve-test fixtures: a small graph and direct-driver references."""

import importlib

import pytest

from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver
from repro.serve.api import SERVABLE_ALGORITHMS

#: (algorithm, request params) workloads the serve tests submit.
WORKLOADS = {
    "pagerank": {"iterations": 5},
    "sssp": {"source_id": 0},
    "cc": {},
}


@pytest.fixture(scope="session")
def serve_graph():
    return list(btc_graph(40, seed=3))


def run_direct(vertices, algorithm, params, num_nodes=3):
    """One-shot driver run on a private cluster; returns sorted lines."""
    module = importlib.import_module(SERVABLE_ALGORITHMS[algorithm][0])
    cluster = HyracksCluster(num_nodes=num_nodes)
    try:
        write_graph_to_dfs(cluster.dfs, "/in/g", iter(vertices), num_files=num_nodes)
        driver = PregelixDriver(cluster, cluster.dfs)
        driver.run(
            module.build_job(**params),
            "/in/g",
            output_path="/out/r",
            parse_line=getattr(module, "parse_line", None),
            format_record=getattr(module, "format_record", None),
        )
        return sorted(driver.read_output("/out/r"))
    finally:
        cluster.close()


@pytest.fixture(scope="session")
def reference_results(serve_graph):
    """Sequential direct-driver output per workload: the bit-identity bar."""
    return {
        algorithm: run_direct(serve_graph, algorithm, params)
        for algorithm, params in WORKLOADS.items()
    }
