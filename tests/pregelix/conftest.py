"""Fixtures for Pregelix tests: a small cluster, DFS, and driver."""

import pytest

from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver


@pytest.fixture
def cluster(tmp_path):
    with HyracksCluster(num_nodes=3, root_dir=str(tmp_path / "cluster")) as c:
        yield c


@pytest.fixture
def dfs(cluster):
    return cluster.dfs


@pytest.fixture
def driver(cluster, dfs):
    return PregelixDriver(cluster, dfs)
