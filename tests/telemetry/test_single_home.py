"""Every count has one home, and the registry agrees with it.

The resident holders (a node's ``IOCounters``, its buffer cache's stats)
are exported by reference, so ``node.io.*`` / ``storage.cache.*`` must
equal the live holder at any moment; a job's private holders are added
to ``engine.network.*`` / ``engine.counters.*`` once per ``JobResult``,
so those series must equal the sums over every result the cluster
returned. Checked as a seeded property over cluster shapes rather than
on one example: one or two partitions per node, in-memory and out-of-core,
across a node loss, and under two served jobs overlapping on shared
nodes (where before/after deltas of shared counters double-count).
"""

import random
import threading

import pytest

from repro.algorithms import connected_components, pagerank, sssp
from repro.common.accounting import IOCounters
from repro.graphs.generators import btc_graph, webmap_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver
from repro.pregelix.api import ConnectorPolicy, VertexStorage
from repro.serve import JobService, JobState

IN_MEMORY = {}
OUT_OF_CORE = {"node_memory_bytes": 1 << 20, "buffer_cache_bytes": 64 << 10}
#: The out-of-core plan: LSM vertex storage behind a cache the graph
#: overflows, plus the merging connector (which charges sender-side
#: materialization to the job's own holder as disk traffic).
OUT_OF_CORE_PLAN = {
    "vertex_storage": VertexStorage.LSM_BTREE,
    "connector_policy": ConnectorPolicy.MERGED,
    "groupby_memory_bytes": 4 << 10,
}


def record_results(cluster):
    """Collect every ``JobResult`` ``cluster.execute`` returns from now on."""
    results = []
    execute = cluster.execute

    def recording(job_spec):
        result = execute(job_spec)
        results.append(result)
        return result

    cluster.execute = recording
    return results


def assert_single_home(cluster, results):
    registry = cluster.telemetry.registry
    for node_id, node in cluster.nodes.items():
        for field in IOCounters.DISK_FIELDS:
            assert registry.value("node.io.%s" % field, node=node_id) == getattr(
                node.io, field
            ), (node_id, field)
        for field, count in node.buffer_cache.stats.snapshot().items():
            assert (
                registry.value("storage.cache.%s" % field, node=node_id) == count
            ), (node_id, field)
        # A node's holder never sees network traffic: no such series.
        assert registry.get("node.io.network_bytes", node=node_id) is None
        assert registry.get("node.io.network_messages", node=node_id) is None
    for field in IOCounters.FIELDS:
        assert registry.value("engine.network.%s" % field) == sum(
            getattr(result.network_io, field) for result in results
        ), field
    totals = {}
    for result in results:
        for name, amount in result.counters.snapshot().items():
            totals[name] = totals.get(name, 0) + amount
    exported = {
        metric.name: metric.value
        for metric in registry.iter_metrics()
        if metric.name.startswith("engine.counters.")
    }
    assert exported == {
        "engine.counters.%s" % name: amount
        for name, amount in totals.items()
        if amount
    }
    assert registry.value("engine.jobs_executed") == len(results)
    assert cluster.jobs_executed == len(results)


def random_run(rng, driver, dfs, plan):
    """One seeded job: algorithm, graph and length drawn from ``rng``."""
    path = "/in/g%d" % rng.randrange(1 << 30)
    # The out-of-core plan needs a graph its 64 KiB caches overflow.
    size = rng.randrange(1500, 2500) if plan else rng.randrange(150, 400)
    algorithm = rng.choice(("pagerank", "sssp", "cc"))
    if algorithm == "pagerank":
        graph = webmap_graph(size, seed=rng.randrange(1000))
        job = pagerank.build_job(iterations=rng.randrange(2, 5), **plan)
        options = {}
    else:
        graph = btc_graph(size, seed=rng.randrange(1000))
        module = sssp if algorithm == "sssp" else connected_components
        job = module.build_job(**plan)
        options = {
            "parse_line": getattr(module, "parse_line", None),
            "format_record": getattr(module, "format_record", None),
        }
    write_graph_to_dfs(dfs, path, graph, num_files=2)
    return driver.run(job, path, output_path=path + ".out", **options)


@pytest.mark.parametrize("per_node", [1, 2])
@pytest.mark.parametrize(
    "shape,plan", [(IN_MEMORY, {}), (OUT_OF_CORE, OUT_OF_CORE_PLAN)],
    ids=["in-memory", "out-of-core"],
)
def test_registry_equals_the_holders_after_any_run(
    tmp_path, per_node, shape, plan
):
    rng = random.Random(1600 + per_node + len(shape))
    with HyracksCluster(
        num_nodes=3, root_dir=str(tmp_path / "c"),
        virtual_partitions=3 * per_node, **shape
    ) as cluster:
        results = record_results(cluster)
        driver = PregelixDriver(cluster, cluster.dfs)
        for _ in range(3):
            random_run(rng, driver, cluster.dfs, plan)
            assert_single_home(cluster, results)
        if shape is OUT_OF_CORE:
            # The case is what it claims to be: pages were evicted and
            # written back, and the merging connector charged the job.
            assert sum(
                node.buffer_cache.stats.writebacks for node in cluster.nodes.values()
            ) > 0
            registry = cluster.telemetry.registry
            assert registry.value("engine.network.disk_write_bytes") > 0


def test_node_loss_neither_rewinds_nor_detaches_the_exported_cache_counts(tmp_path):
    rng = random.Random(1616)
    with HyracksCluster(
        num_nodes=3, root_dir=str(tmp_path / "c"), **OUT_OF_CORE
    ) as cluster:
        results = record_results(cluster)
        registry = cluster.telemetry.registry
        driver = PregelixDriver(cluster, cluster.dfs)
        random_run(rng, driver, cluster.dfs, OUT_OF_CORE_PLAN)
        before = {
            field: registry.value("storage.cache.%s" % field, node="node1")
            for field in ("hits", "misses", "evictions", "writebacks")
        }
        assert before["misses"] > 0
        cluster.kill_node("node1")
        for field, count in before.items():  # history survives the wipe
            assert registry.value("storage.cache.%s" % field, node="node1") == count
        assert_single_home(cluster, results)
        cluster.revive_node("node1")
        random_run(rng, driver, cluster.dfs, OUT_OF_CORE_PLAN)
        # Still attached to the live cache: the revived node's new pins
        # show up in the exported series.
        assert registry.value("storage.cache.hits", node="node1") > before["hits"]
        assert_single_home(cluster, results)


def test_two_served_jobs_overlapping_on_shared_nodes():
    service = JobService(num_nodes=3, workers=2)
    cluster = service.cluster
    results = record_results(cluster)
    # Hold each worker's first engine job until the other worker has one
    # too, so the two served jobs are provably in flight together.
    together = threading.Barrier(2)
    met = set()
    recording = cluster.execute

    def overlapping(job_spec):
        if threading.get_ident() not in met:
            met.add(threading.get_ident())
            together.wait(timeout=60)
        return recording(job_spec)

    cluster.execute = overlapping
    try:
        service.add_dataset("g", vertices=list(btc_graph(60, seed=16)))
        service.start()
        records = [
            service.submit({
                "tenant": "t", "algorithm": algorithm, "dataset": "g",
                "params": params, "use_cache": False,
            })
            for algorithm, params in (("pagerank", {"iterations": 4}), ("cc", {}))
        ]
        for record in records:
            assert record.wait(240) is JobState.SUCCEEDED, record.error
        assert len(met) == 2 and not together.broken
        assert_single_home(cluster, results)
    finally:
        service.shutdown(timeout=240)
