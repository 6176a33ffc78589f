"""Ablations of the DESIGN.md design choices beyond the paper's figures.

* group-by strategy x connector: all four produce identical results;
* vertex storage: B-tree vs LSM B-tree under the mutation-heavy
  Genomix-style path-merging workload;
* buffer cache size: the in-memory-to-out-of-core crossover;
* checkpointing: overhead of enabling per-superstep checkpoints.
"""

import itertools

from repro.algorithms import graph_cleaning, pagerank, sssp
from repro.bench.harness import run_pregelix
from repro.graphs.io import write_graph_to_dfs
from repro.graphs.generators import de_bruijn_path_graph
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import (
    ConnectorPolicy,
    GroupByStrategy,
    PregelixDriver,
    VertexStorage,
)


def test_groupby_strategy_ablation(env, benchmark):
    """4 group-by/connector combos: identical answers, different work."""

    def sweep():
        results = {}
        for strategy, policy in itertools.product(GroupByStrategy, ConnectorPolicy):
            job = pagerank.build_job(
                iterations=5, groupby_strategy=strategy
            )
            job.connector_policy = policy
            m = run_pregelix(
                env,
                job,
                "webmap",
                "x-small",
                system_label="%s/%s" % (strategy.value, policy.value),
            )
            results[(strategy, policy)] = m
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert all(m.ok for m in results.values())
    supersteps = {m.supersteps for m in results.values()}
    assert len(supersteps) == 1  # identical convergence


def test_storage_ablation_mutation_heavy(benchmark):
    """LSM B-tree vs B-tree under Genomix-style path merging.

    The paper recommends the LSM B-tree for mutation-heavy workloads;
    both must produce the identical cleaned graph, with the LSM variant
    turning the mutation churn into sequential component writes.
    """

    def run_with(storage):
        cluster = HyracksCluster(num_nodes=2)
        try:
            dfs = cluster.dfs
            write_graph_to_dfs(
                dfs, "/in/genome", de_bruijn_path_graph(6, 8, seed=4), num_files=2
            )
            driver = PregelixDriver(cluster, dfs)
            job = graph_cleaning.build_job(vertex_storage=storage)
            driver.run(
                job,
                "/in/genome",
                output_path="/out/clean",
                parse_line=graph_cleaning.parse_line,
                format_record=graph_cleaning.format_record,
            )
            lines = sorted(driver.read_output("/out/clean"))
            io_bytes = sum(
                node.io.disk_write_bytes for node in cluster.nodes.values()
            )
            return lines, io_bytes
        finally:
            cluster.close()

    def both():
        return run_with(VertexStorage.BTREE), run_with(VertexStorage.LSM_BTREE)

    (btree_lines, _btree_io), (lsm_lines, _lsm_io) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    assert btree_lines == lsm_lines  # identical cleaned graph


def test_buffercache_crossover(env, benchmark):
    """Shrinking the buffer cache moves PageRank from memory to disk.

    The sim-time disk component should be ~zero with a big cache and
    dominate with a tiny one — the graceful degradation the paper's
    out-of-core story depends on.
    """
    from repro.hyracks.engine import HyracksCluster
    from repro.pregelix import PregelixDriver
    from repro.bench.harness import fold_costs, pregelix_costs
    from repro.common import costmodel

    spec, path, _nbytes = env.dataset("webmap", "x-small")
    node_memory = env.node_memory("webmap")

    def run_with_cache(fraction):
        cluster = HyracksCluster(
            num_nodes=env.num_nodes,
            node_memory_bytes=node_memory,
            buffer_cache_bytes=max(int(node_memory * fraction), 8 * 4096),
        )
        try:
            env.stage(path, cluster)
            driver = PregelixDriver(cluster, cluster.dfs)
            job = pagerank.build_job(iterations=5)
            outcome = driver.run(job, path)
            scale = spec.paper_vertices / spec.num_vertices
            return fold_costs(
                *pregelix_costs(env, outcome, job, 32, path),
                scale,
                costmodel.PREGELIX_BARRIER_SECONDS,
            )["sim_costs"]  # (cpu, disk, net)
        finally:
            cluster.close()

    def sweep():
        return {fraction: run_with_cache(fraction) for fraction in (0.55, 0.02)}

    totals = benchmark.pedantic(sweep, rounds=1, iterations=1)
    disk = {fraction: t[1] for fraction, t in totals.items()}
    # A generous cache keeps the sweep (near-)memory-resident; a tiny
    # one pays paged I/O for the whole index every superstep. (LRU under
    # a cyclic scan degrades to full misses as soon as the working set
    # exceeds the cache, so intermediate sizes plateau — the classic
    # sequential-flooding behaviour.)
    assert disk[0.02] > 5 * max(disk[0.55], 1e-9)


def test_checkpoint_overhead(benchmark):
    """Per-superstep checkpointing writes extra DFS state but leaves the
    answer alone. (Counted bytes, not wall-clock: two ~50 ms runs are
    decided by which one pays the cold start.)"""

    def run_with(checkpoint_interval):
        cluster = HyracksCluster(num_nodes=2)
        try:
            dfs = cluster.dfs
            from repro.graphs.generators import btc_graph

            write_graph_to_dfs(dfs, "/in/g", btc_graph(400, seed=3), num_files=2)
            driver = PregelixDriver(cluster, dfs)
            job = sssp.build_job(source_id=0, checkpoint_interval=checkpoint_interval)
            outcome = driver.run(job, "/in/g", output_path="/out/g", keep_state=True)
            ckpt_bytes = dfs.total_bytes("/pregelix/%s/ckpt" % outcome.run_id)
            return sorted(driver.read_output("/out/g")), ckpt_bytes
        finally:
            cluster.close()

    def both():
        return run_with(None), run_with(1)

    (plain_lines, plain_bytes), (ckpt_lines, ckpt_bytes) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    assert plain_lines == ckpt_lines
    assert ckpt_bytes > plain_bytes == 0  # checkpointing is not free
