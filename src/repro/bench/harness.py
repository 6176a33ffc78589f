"""Shared machinery for the figure/table experiments.

Scaling rule (see DESIGN.md §1): the paper's cluster is 32 machines with
8 GB RAM each. We compute ``scale = our_large_bytes / paper_large_bytes``
from the materialized Large dataset of each family, and give every
simulated *paper machine* ``8 GB x scale`` of RAM. A sweep that the paper
ran on 32 machines runs here on fewer simulated worker nodes holding the
same *aggregate* budget, so every dataset-size/aggregate-RAM ratio on a
figure's x-axis is preserved exactly.
"""

import math
from dataclasses import dataclass, field

from repro.common import costmodel

from repro.baselines import (
    GiraphLikeEngine,
    GraphLabLikeEngine,
    GraphXLikeEngine,
    HamaLikeEngine,
)
from repro.common.errors import JobFailure, MemoryBudgetExceeded
from repro.graphs.datasets import DATASETS, materialize
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver
from repro.pregelix.stats import pregelix_sim_cost

GB = 1 << 30
#: The paper's testbed: 32 workers, 8 GB RAM each.
PAPER_MACHINES = 32
PAPER_RAM_PER_MACHINE_GB = 8.0

#: Baseline engine registry used by the sweeps.
BASELINES = {
    "giraph-mem": lambda workers, ram: GiraphLikeEngine(workers, ram, mode="mem"),
    "giraph-ooc": lambda workers, ram: GiraphLikeEngine(workers, ram, mode="ooc"),
    "graphlab": GraphLabLikeEngine,
    "graphx": GraphXLikeEngine,
    "hama": HamaLikeEngine,
}


@dataclass
class Measurement:
    """One figure data point.

    ``sim_*`` fields report simulated paper-scale seconds derived from
    the cost model (:mod:`repro.common.costmodel`); the raw ``*_seconds``
    fields are Python wall-clock at simulation scale.
    """

    system: str
    dataset: str
    ratio: float  # dataset size / aggregated RAM (the figures' x-axis)
    status: str  # "ok" or "fail"
    total_seconds: float = math.nan
    avg_iteration_seconds: float = math.nan
    sim_total_seconds: float = math.nan
    sim_avg_iteration_seconds: float = math.nan
    sim_costs: tuple = (0.0, 0.0, 0.0)  # (cpu, disk, net) totals, scaled
    supersteps: int = 0
    fail_reason: str = ""

    @property
    def ok(self):
        return self.status == "ok"

    def point(self, metric="sim_total_seconds"):
        """An ``(x, y)`` figure point; y is ``"FAIL"`` for failures."""
        if not self.ok:
            return (round(self.ratio, 4), "FAIL")
        return (round(self.ratio, 4), round(getattr(self, metric), 4))


class ExperimentEnv:
    """Materialized datasets plus the paper-equivalent memory scaling.

    The baselines read the datasets here; a Pregelix run reads the copy
    :meth:`stage` puts in its own cluster's DFS.
    """

    def __init__(self, num_nodes=4, seed=0):
        self.num_nodes = num_nodes
        with HyracksCluster(num_nodes=num_nodes) as cluster:
            self.dfs = cluster.dfs
        self.seed = seed
        self._scales = {}

    # ------------------------------------------------------------------
    def dataset(self, family, name):
        """Materialize (once) and return the dataset's path and bytes."""
        spec = DATASETS[(family, name)]
        path = materialize(spec, self.dfs, seed=self.seed, num_files=self.num_nodes)
        return spec, path, self.dfs.total_bytes(path)

    def stage(self, path, cluster):
        """Copy the files under ``path`` into ``cluster.dfs``."""
        for name in self.dfs.list_files(path):
            cluster.dfs.write(name, self.dfs.read(name))

    def scale(self, family):
        """``our_large_bytes / paper_large_bytes`` for one family."""
        if family not in self._scales:
            spec, _path, nbytes = self.dataset(family, "large")
            self._scales[family] = nbytes / (spec.paper_size_gb * GB)
        return self._scales[family]

    def node_memory(self, family, paper_machines=PAPER_MACHINES, num_nodes=None):
        """Per-simulated-node RAM equal to ``paper_machines`` real ones."""
        num_nodes = num_nodes or self.num_nodes
        aggregate = (
            PAPER_RAM_PER_MACHINE_GB * GB * self.scale(family) * paper_machines
        )
        return max(int(aggregate / num_nodes), 1 << 14)

    def ratio(self, family, name, paper_machines=PAPER_MACHINES):
        """The figure x-axis value for one dataset at one cluster size."""
        spec, _path, nbytes = self.dataset(family, name)
        aggregate = (
            PAPER_RAM_PER_MACHINE_GB * GB * self.scale(family) * paper_machines
        )
        return nbytes / aggregate


def fold_costs(load_cost, superstep_costs, scale, barrier):
    """A run's ``(cpu, disk, net)`` tuples at simulation scale -> the
    ``sim_*`` fields of its :class:`Measurement`, for every system."""
    supersteps = [sum(cost) * scale + barrier for cost in superstep_costs]
    return dict(
        sim_total_seconds=sum(load_cost) * scale + sum(supersteps),
        sim_avg_iteration_seconds=(
            sum(supersteps) / len(supersteps) if supersteps else 0.0
        ),
        sim_costs=tuple(
            sum(cost[i] for cost in superstep_costs) * scale + load_cost[i] * scale
            for i in range(3)
        ),
    )


def pregelix_costs(env, outcome, job, workers, input_path):
    """``(load_cost, superstep_costs)`` of a finished Pregelix run, the
    shape a :class:`~repro.baselines.BaselineOutcome` carries."""
    load_cost = costmodel.load_cost(
        outcome.gs.num_vertices, env.dfs.total_bytes(input_path), workers
    )
    return load_cost, [
        pregelix_sim_cost(record, job, workers) for record in outcome.stats.supersteps
    ]


def run_system(
    env,
    system,
    job,
    family,
    dataset_name,
    parse_line=None,
    format_record=None,
    paper_machines=PAPER_MACHINES,
    num_nodes=None,
    system_label=None,
    telemetry=None,
):
    """Run ``system`` ("pregelix" or a :data:`BASELINES` name) on one
    dataset; running out of memory becomes a FAIL point.

    ``format_record`` and ``telemetry`` (a :class:`repro.telemetry.Telemetry`)
    reach the Pregelix cluster only: a sweep that passes one session
    across calls gets all its runs on a single timeline.
    """
    spec, path, _nbytes = env.dataset(family, dataset_name)
    num_nodes = num_nodes or env.num_nodes
    node_memory = env.node_memory(family, paper_machines, num_nodes)
    point = dict(
        system=system_label or system,
        dataset=dataset_name,
        ratio=env.ratio(family, dataset_name, paper_machines),
    )
    scale = spec.paper_vertices / spec.num_vertices
    try:
        if system == "pregelix":
            outcome = _run_pregelix_job(
                env, job, path, node_memory, num_nodes,
                parse_line, format_record, telemetry,
            )
            load_cost, superstep_costs = pregelix_costs(
                env, outcome, job, paper_machines, path
            )
            barrier = costmodel.PREGELIX_BARRIER_SECONDS
        else:
            outcome = BASELINES[system](num_nodes, node_memory).run(
                job, env.dfs, path, parse_line=parse_line,
                max_supersteps=job.max_supersteps,
            )
            load_cost, superstep_costs = outcome.load_cost, outcome.superstep_costs
            # Engines divide per-worker costs by the simulated node
            # count; renormalize so the reported seconds correspond to
            # the paper's machine count for this sweep point.
            scale = scale * num_nodes / paper_machines
            barrier = costmodel.SUPERSTEP_BARRIER_SECONDS
    except (MemoryBudgetExceeded, JobFailure) as failure:
        return Measurement(status="fail", fail_reason=str(failure), **point)
    return Measurement(
        status="ok",
        total_seconds=outcome.total_seconds,
        avg_iteration_seconds=outcome.avg_iteration_seconds,
        supersteps=outcome.supersteps,
        **fold_costs(load_cost, superstep_costs, scale, barrier),
        **point,
    )


def run_pregelix(
    env,
    job,
    family,
    dataset_name,
    parse_line=None,
    format_record=None,
    paper_machines=PAPER_MACHINES,
    num_nodes=None,
    system_label="pregelix",
    telemetry=None,
):
    """One Pregelix measurement on a fresh cluster, labelled
    ``system_label`` (the plan ablations run Pregelix under many names)."""
    return run_system(
        env, "pregelix", job, family, dataset_name,
        parse_line=parse_line, format_record=format_record,
        paper_machines=paper_machines, num_nodes=num_nodes,
        system_label=system_label, telemetry=telemetry,
    )


def _run_pregelix_job(
    env, job, path, node_memory, num_nodes, parse_line, format_record, telemetry
):
    job.groupby_memory_bytes = max(node_memory // 128, 1 << 13)
    # Buffer cache: the paper's default is RAM/4, holding its compact
    # binary vertex storage (~1.15x the text size). Our paged storage is
    # ~2.5-3x the text size, so format parity needs a proportionally
    # larger share of the simulated node memory (fit boundary at
    # dataset/RAM ~ 0.22, as on the paper's testbed).
    cluster = HyracksCluster(
        num_nodes=num_nodes,
        node_memory_bytes=node_memory,
        buffer_cache_bytes=int(node_memory * 0.55),
        telemetry=telemetry,
    )
    try:
        env.stage(path, cluster)
        return PregelixDriver(cluster, cluster.dfs).run(
            job, path, parse_line=parse_line, format_record=format_record
        )
    finally:
        cluster.close()
