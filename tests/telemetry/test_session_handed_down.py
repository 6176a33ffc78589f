"""Every reporting component holds a telemetry session, and every fault
site its fault injector, from construction.

A component gets its session from its owner: the cluster's for the
engine, storage, driver, service and fault injector, or a private
disabled one for a class built on its own. The cluster's one injector
reaches its nodes, caches, DFS and the service's journal the same way;
the cluster builds its DFS, so no caller wires one beside it. No report
site asks whether it has a session, and no fault site whether it has an
injector. This file checks both halves: the source holds no such fork,
and each class that can be built standalone records into its own
session, without raising, on the paths that emit events.
"""

import os
import re
from operator import itemgetter

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.common import serde
from repro.common.accounting import IOCounters
from repro.common.errors import TransientIOError
from repro.hdfs import RetryPolicy
from repro.hyracks.connectors import MToNPartitioningMergingConnector
from repro.hyracks.engine import HyracksCluster, JobContext
from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.file_manager import FileManager
from repro.hyracks.storage.lsm_btree import LSMBTree
from repro.hyracks.storage.pages import PageKind
from repro.pregelix.failure import FailureManager
from repro.serve import JobService
from repro.serve.journal import RECORD_SUBMITTED, open_journal
from repro.telemetry import Telemetry

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
#: A site asking whether it has a session, or a fault injector (or a
#: journal retry policy), at all; or building a DFS beside a cluster.
FORKS = {
    "session": re.compile(
        r'telemetry is (not )?None|getattr\([^)]*"telemetry", None\)'
    ),
    "injector": re.compile(
        r"injector is (not )?None|getattr\([^)]*fault_injector"
        r"|callable\(injector|self\.retry is (not )?None"
    ),
    "dfs": re.compile(r"MiniDFS\("),
}
#: Where a fork is the thing itself: the DFS and the cluster that builds it.
HOMES = {"dfs": ("hdfs" + os.sep, os.path.join("hyracks", "engine.py"))}


def test_no_module_asks_whether_it_has_a_session_or_an_injector():
    hits = {fork: [] for fork in FORKS}
    for root, _dirs, names in os.walk(SRC):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            module = os.path.relpath(path, os.path.join(SRC, "repro"))
            with open(path, encoding="utf-8") as handle:
                for number, line in enumerate(handle, 1):
                    for fork, pattern in FORKS.items():
                        if pattern.search(line) and not module.startswith(
                            HOMES.get(fork, ())
                        ):
                            hits[fork].append("%s:%d" % (module, number))
    assert hits == {fork: [] for fork in FORKS}


def private_session(component):
    """The disabled session a standalone ``component`` built for itself."""
    session = component.telemetry
    assert isinstance(session, Telemetry) and not session.enabled
    return session


@pytest.fixture
def files(tmp_path):
    manager = FileManager(str(tmp_path / "node"), IOCounters())
    yield manager
    manager.destroy()


def test_buffer_cache_evicts_and_spills_into_its_own_session(files):
    cache = BufferCache(2 * 4096, 4096, files)
    file_id = cache.create_file()
    for i in range(6):
        page = cache.new_page(file_id, PageKind.LEAF)
        page.put(b"k%d" % i, b"v")
        cache.unpin(page, dirty=True)
    assert cache.stats.evictions == cache.stats.writebacks == 4
    assert private_session(cache) is not BufferCache(4096, 4096, files).telemetry


def test_lsm_flushes_and_merges_into_its_caches_session(files):
    cache = BufferCache(1 << 20, 4096, files)
    lsm = LSMBTree(cache, memory_budget_bytes=256, max_components=2)
    for i in range(300):
        lsm.insert(b"%05d" % i, b"value")
    lsm.flush_memory_component()
    assert lsm.telemetry is cache.telemetry
    registry = private_session(lsm).registry
    assert registry.value("storage.lsm.flushes") == lsm.flushes > 0
    assert registry.value("storage.lsm.merges") == lsm.merges > 0


def test_connector_accounts_under_a_bare_job_context():
    ctx = JobContext("bare")
    connector = MToNPartitioningMergingConnector(
        key_fn=itemgetter(0), tuple_serde=serde.PairSerde(serde.INT64, serde.INT64)
    )
    connector.route([[(0, 1), (1, 2)], [(2, 3)]], 2, ctx)
    registry = private_session(ctx).registry
    kind = "MToNPartitioningMergingConnector"
    assert registry.value("connector.tuples", kind=kind) == 3
    assert registry.value("connector.bytes", kind=kind) > 0


def test_retry_policy_retries_into_its_own_session():
    policy = RetryPolicy()
    attempts = []

    def flaky():
        attempts.append(None)
        if len(attempts) == 1:
            raise TransientIOError("node0", site="dfs.write")
        return "ok"

    assert policy.call(flaky, describe="flaky") == "ok"
    session = private_session(policy)
    assert session.registry.value("failure.retries") == 1
    assert session.sim_clock.seconds > 0


def test_journal_append_counts_in_its_own_session(tmp_path):
    journal = open_journal("file:%s" % tmp_path)
    journal.append(RECORD_SUBMITTED, "job-1")
    assert private_session(journal).registry.value("serve.journal.appends") == 1


def test_fault_injector_holds_the_clusters_session_from_construction():
    private_session(FaultInjector())
    with HyracksCluster(num_nodes=2) as cluster:
        injector = cluster.fault_injector
        assert injector.telemetry is cluster.telemetry
        assert cluster.dfs.retry_policy.telemetry is cluster.telemetry
        injector.arm(FaultPlan([FaultSpec("dfs.write", "transient_io")]))
        assert cluster.telemetry.events.snapshot(name="chaos.armed")
        cluster.dfs.write("/f", b"x")
        assert cluster.telemetry.registry.value("failure.retries") == 1


def test_components_over_a_handed_cluster_share_its_session():
    with HyracksCluster(num_nodes=2) as cluster:
        service = JobService(cluster=cluster)
        session = cluster.telemetry
        assert service.telemetry is session
        assert FailureManager(cluster).telemetry is session


def test_event_and_span_are_the_collectors_own_methods():
    for session in (Telemetry(), Telemetry(enabled=False)):
        assert session.event == session.events.emit
        assert session.span == session.tracer.span
