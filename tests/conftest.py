"""Shared fixtures: node-local storage plumbing, graphs, and chaos tools."""

import pytest

from repro.common.accounting import IOCounters
from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.file_manager import FileManager


@pytest.fixture
def file_manager(tmp_path):
    manager = FileManager(str(tmp_path / "node0"), IOCounters())
    yield manager
    manager.destroy()


@pytest.fixture
def buffer_cache(file_manager):
    """A cache big enough to hold small test trees entirely in memory."""
    return BufferCache(capacity_bytes=1 << 20, page_size=4096, file_manager=file_manager)


@pytest.fixture
def tiny_buffer_cache(file_manager):
    """A cache that can only hold a few pages, forcing eviction/spill."""
    return BufferCache(capacity_bytes=4096 * 3, page_size=4096, file_manager=file_manager)


# ---------------------------------------------------------------------
# chaos harness (repro.chaos)
# ---------------------------------------------------------------------
@pytest.fixture
def chaos_graph():
    """The small BTC-style graph the chaos suites share."""
    from repro.graphs.generators import btc_graph

    return list(btc_graph(80, seed=3))


@pytest.fixture
def differential_checker(chaos_graph):
    """``differential_checker("sssp")`` -> a ready DifferentialChecker."""
    from repro.chaos import DifferentialChecker

    def make(algorithm, **kwargs):
        kwargs.setdefault("num_nodes", 3)
        return DifferentialChecker(algorithm, chaos_graph, **kwargs)

    return make
