"""The multi-user throughput experiment (paper Figure 13).

Concurrent PageRank jobs run with their supersteps *interleaved* on one
shared cluster, so resource interference is real: every job's vertex
index competes for the same per-node buffer caches, and a working set
that fits alone can thrash when two or three jobs share the cache — the
paper's Webmap-Medium cliff.

Completed-jobs-per-hour uses a resource-overlap makespan model: each
job's simulated demand splits into CPU, disk, and network seconds;
concurrent jobs overlap different resources (a job can compute while
another waits on disk), so the makespan is the largest single-resource
total plus the non-overlappable per-superstep barriers. Serial execution
instead pays every job's full (cpu + disk + net + barriers) in sequence.
This is what makes concurrency *help* for always-in-memory and
always-disk-based workloads (higher utilization, the paper's (a) and (d)
panels) and *hurt* exactly at the in-memory-to-spilling boundary
(panel (c)).
"""

from repro.algorithms import pagerank
from repro.bench.harness import BASELINES, PAPER_MACHINES, fold_costs
from repro.common import costmodel
from repro.common.errors import MemoryBudgetExceeded
from repro.graphs.io import parse_adjacency_line
from repro.hyracks.engine import HyracksCluster
from repro.pregelix.physical import PartitionMap, PlanGenerator
from repro.pregelix.stats import StatisticsCollector, pregelix_sim_cost


class SteppedPregelixJob:
    """A Pregelix run the caller advances one superstep at a time."""

    def __init__(self, cluster, job, input_path, run_id, parse_line=None):
        self.cluster = cluster
        self.job = job
        partition_map = PartitionMap.balanced(
            cluster.alive_node_ids(), cluster.num_partitions
        )
        self.generator = PlanGenerator(job, cluster.dfs, run_id, partition_map)
        load_result = cluster.execute(
            self.generator.loading_plan(input_path, parse_line or parse_adjacency_line)
        )
        self.gs = load_result.collected["gs"][0][0]
        self.stats = StatisticsCollector()
        self.costs = []  # (cpu, disk, net) per superstep, sim scale
        self.num_workers = partition_map.num_partitions

    @property
    def done(self):
        if self.gs.halt:
            return True
        max_supersteps = self.job.max_supersteps
        return max_supersteps is not None and self.gs.superstep >= max_supersteps

    def step(self, paper_machines):
        """Run one superstep; record its simulated cost components."""
        if self.done:
            return False
        result = self.cluster.execute(self.generator.superstep_plan(self.gs))
        self.gs = result.collected["gs"][0][0]
        record = self.stats.record_superstep(self.gs.superstep, result)
        self.costs.append(pregelix_sim_cost(record, self.job, paper_machines))
        return True

    def totals(self, scale):
        cpu = sum(c[0] for c in self.costs) * scale
        disk = sum(c[1] for c in self.costs) * scale
        net = sum(c[2] for c in self.costs) * scale
        return cpu, disk, net, len(self.costs)


def concurrent_pagerank_jph(
    env,
    dataset_name,
    num_jobs,
    iterations=5,
    paper_machines=None,
    family="webmap",
):
    """Jobs-per-hour for ``num_jobs`` concurrent PageRank jobs.

    Returns ``(jph, per_job_io_bytes)`` — the second value is the real
    spill traffic each job induced, the quantity the paper quotes when
    explaining each panel.
    """
    paper_machines = paper_machines or PAPER_MACHINES
    spec, path, _nbytes = env.dataset(family, dataset_name)
    scale = spec.paper_vertices / spec.num_vertices
    node_memory = env.node_memory(family, paper_machines)
    cluster = HyracksCluster(
        num_nodes=env.num_nodes,
        node_memory_bytes=node_memory,
        buffer_cache_bytes=int(node_memory * 0.55),
    )
    try:
        env.stage(path, cluster)
        disk_before = _disk_bytes(cluster)
        jobs = []
        for j in range(num_jobs):
            job = pagerank.build_job(iterations=iterations)
            job.groupby_memory_bytes = max(node_memory // 128, 1 << 13)
            jobs.append(
                SteppedPregelixJob(
                    cluster, job, path, run_id="tp-%s-%d" % (dataset_name, j)
                )
            )
        # Interleave supersteps round-robin: cache contention is real.
        progressed = True
        while progressed:
            progressed = False
            for stepped in jobs:
                if stepped.step(paper_machines):
                    progressed = True
        per_job_io = (_disk_bytes(cluster) - disk_before) * scale / max(num_jobs, 1)

        totals = [stepped.totals(scale) for stepped in jobs]
        barrier = costmodel.PREGELIX_BARRIER_SECONDS
        if num_jobs == 1:
            cpu, disk, net, supersteps = totals[0]
            makespan = cpu + disk + net + supersteps * barrier
        else:
            sum_cpu = sum(t[0] for t in totals)
            sum_disk = sum(t[1] for t in totals)
            sum_net = sum(t[2] for t in totals)
            avg_supersteps = sum(t[3] for t in totals) / len(totals)
            makespan = max(sum_cpu, sum_disk, sum_net) + avg_supersteps * barrier
        jph = num_jobs / makespan * 3600.0
        return jph, per_job_io
    finally:
        cluster.close()


def baseline_concurrent_jph(env, engine_name, dataset_name, num_jobs, iterations=5, family="webmap"):
    """Baseline jobs-per-hour under concurrency, or None on failure.

    Concurrent jobs split each worker's RAM Hadoop-slot style, less the
    daemons' and per-job framework (master, sort space) overhead — about
    half of the nominal share survives for graph data — which is why the
    paper's process-centric systems could not sustain multi-job
    workloads in any of the four cases. GraphX's admission control
    serializes jobs instead, so its jph never improves.
    """
    spec, path, _nbytes = env.dataset(family, dataset_name)
    scale = (
        spec.paper_vertices / spec.num_vertices * env.num_nodes / PAPER_MACHINES
    )
    node_memory = env.node_memory(family, PAPER_MACHINES)
    if num_jobs > 1:
        if engine_name == "graphx":
            # Admission control: jobs run one after another.
            single = baseline_concurrent_jph(
                env, engine_name, dataset_name, 1, iterations, family
            )
            return single
        node_memory = int(node_memory * 0.5 / num_jobs)
    engine = BASELINES[engine_name](env.num_nodes, node_memory)
    job = pagerank.build_job(iterations=iterations)
    try:
        outcome = engine.run(job, env.dfs, path, max_supersteps=iterations)
    except MemoryBudgetExceeded:
        return None
    total = fold_costs(
        outcome.load_cost,
        outcome.superstep_costs,
        scale,
        costmodel.SUPERSTEP_BARRIER_SECONDS,
    )["sim_total_seconds"]
    return 3600.0 / total if total else None


def _disk_bytes(cluster):
    return sum(
        node.io.disk_read_bytes + node.io.disk_write_bytes
        for node in cluster.nodes.values()
    )
