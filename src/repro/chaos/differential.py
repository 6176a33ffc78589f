"""Differential plan-equivalence checking across the 16 physical plans.

The paper's core correctness claim is that every physical plan — 2 join
strategies x 4 group-by strategies (2 sender group-bys x 2 connector
policies) x 2 vertex storages — computes the *same answer* while trading
performance. :class:`DifferentialChecker` turns that claim into a
mechanical check: run one algorithm across a configurable matrix of

    plans x memory budgets ({roomy, spill-forcing}) x fault schedules,

assert every cell produced bit-identical final vertex values, and check
the values against an independent reference computed through
:mod:`repro.graphs.nxadapter` (networkx when installed, a pure-Python
equivalent otherwise). Any divergence is reported with the exact
``(plan, budget, fault seed)`` triple needed to reproduce it::

    repro chaos --algorithm sssp --plans loj/hashsort/unmerged/lsm \\
        --budgets spill --fault-seed 7

Faulted cells run with ``checkpoint_interval=1`` and a seeded
:class:`~repro.chaos.faults.FaultPlan`, so they also verify that
checkpoint/blacklist recovery reproduces the fault-free answer.

A cell also fails if a spilled sorted run (``sort-run``/``groupby-run``
temp file) or a ``Msg`` run file survives the run on any node, whatever
faults interrupted it.
"""

import math
import os
from dataclasses import dataclass, field

from repro.chaos.faults import FaultPlan
from repro.pregelix.api import PlanChoice, all_plans

@dataclass(frozen=True)
class BudgetProfile:
    """Memory sizing for one matrix column.

    ``spill`` shrinks the per-node buffer cache to a handful of pages, the
    group-by/sort budget to under a kilobyte and the node memory to
    nothing, forcing page eviction, run-file spills (every ``Msg``
    partition included) and multiway merges even on test-sized graphs —
    the out-of-core machinery must not change a single output bit.
    ``roomy`` keeps ``Msg`` in memory.
    """

    name: str
    node_memory_bytes: int = 64 << 20
    buffer_cache_bytes: int = None
    groupby_memory_bytes: int = 64 << 20


BUDGETS = {
    "roomy": BudgetProfile("roomy"),
    "spill": BudgetProfile(
        "spill",
        node_memory_bytes=0,
        buffer_cache_bytes=8 * 4096,
        groupby_memory_bytes=512,
    ),
}


@dataclass
class CellResult:
    """One matrix cell: a full Pregelix run under one configuration."""

    algorithm: str
    plan: PlanChoice
    budget: str
    fault_seed: object  # int seed or None for the fault-free schedule
    fault_actions: tuple = None  # action pool the schedule drew from
    lines: tuple = None
    recoveries: int = 0
    faults_fired: int = 0
    error: str = None

    @property
    def ok(self):
        return self.error is None

    def repro_command(self):
        parts = [
            "repro chaos",
            "--algorithm %s" % self.algorithm,
            "--plans %s" % self.plan.signature(),
            "--budgets %s" % self.budget,
        ]
        if self.fault_seed is not None:
            parts.append("--fault-seed %d" % self.fault_seed)
        if self.fault_actions is not None:
            parts.append("--actions %s" % ",".join(self.fault_actions))
        return " ".join(parts)

    def describe(self):
        state = "ok" if self.ok else "ERROR(%s)" % self.error
        extras = ""
        if self.fault_seed is not None:
            extras = " faults=%d recoveries=%d" % (self.faults_fired, self.recoveries)
        return "%-28s budget=%-5s seed=%-4s %s%s" % (
            self.plan.signature(),
            self.budget,
            self.fault_seed,
            state,
            extras,
        )


@dataclass
class DifferentialReport:
    """What a matrix run found; ``ok`` means the claim held everywhere."""

    algorithm: str
    cells: list = field(default_factory=list)
    divergences: list = field(default_factory=list)
    reference_mismatches: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.divergences and not self.reference_mismatches

    def summary_lines(self):
        lines = [
            "differential %s: %d cells, %d divergences, %d reference mismatches"
            % (
                self.algorithm,
                len(self.cells),
                len(self.divergences),
                len(self.reference_mismatches),
            )
        ]
        for cell in self.cells:
            lines.append("  " + cell.describe())
        for message in self.divergences + self.reference_mismatches:
            lines.append("  DIVERGENCE: %s" % message)
        return lines


class DifferentialChecker:
    """Runs one algorithm across a plan/budget/fault matrix.

    :param algorithm: name of the algorithm case (``pagerank``, ``sssp``,
        ``cc`` — see :mod:`repro.chaos.reference` for the case registry).
    :param vertices: the input graph as ``(vid, value, edges)`` tuples.
    :param num_nodes: simulated cluster size per cell.
    :param num_faults: faults per seeded schedule.
    :param checkpoint_interval: checkpoint cadence for faulted cells
        (1 guarantees every fault armed from superstep 2 is recoverable).
    :param fault_actions: action pool seeded schedules draw from
        (``None`` = the core pool; pass e.g. ``("corrupt",
        "transient_io")`` to exercise the durable-recovery surface).
    """

    def __init__(
        self,
        algorithm,
        vertices,
        num_nodes=3,
        num_faults=2,
        checkpoint_interval=1,
        fault_actions=None,
    ):
        from repro.chaos.reference import algorithm_case

        self.algorithm = algorithm
        self.case = algorithm_case(algorithm)
        self.vertices = list(vertices)
        self.num_nodes = num_nodes
        self.num_faults = num_faults
        self.checkpoint_interval = checkpoint_interval
        self.fault_actions = tuple(fault_actions) if fault_actions else None

    # ------------------------------------------------------------------
    # one cell
    # ------------------------------------------------------------------
    def run_cell(self, plan, budget="roomy", fault_seed=None, root_dir=None, fault_plan=None):
        """Run one full Pregelix job under one matrix configuration.

        ``fault_plan`` overrides the seeded schedule with an explicit
        :class:`~repro.chaos.faults.FaultPlan` (used by targeted
        durability tests that need a specific fault at a specific site).
        """
        from repro.hyracks.engine import HyracksCluster
        from repro.pregelix.runtime import PregelixDriver

        profile = BUDGETS[budget] if isinstance(budget, str) else budget
        cluster = HyracksCluster(
            num_nodes=self.num_nodes,
            node_memory_bytes=profile.node_memory_bytes,
            buffer_cache_bytes=profile.buffer_cache_bytes,
            root_dir=root_dir,
        )
        cell = CellResult(
            algorithm=self.algorithm,
            plan=plan,
            budget=profile.name,
            fault_seed=fault_seed,
            fault_actions=self.fault_actions if fault_seed is not None else None,
        )
        injector = cluster.fault_injector
        try:
            from repro.graphs.io import write_graph_to_dfs

            write_graph_to_dfs(
                cluster.dfs, "/in/g", iter(self.vertices), num_files=self.num_nodes
            )
            job = plan.apply(self.case.build_job())
            job.groupby_memory_bytes = profile.groupby_memory_bytes
            if fault_plan is not None or fault_seed is not None:
                job.checkpoint_interval = self.checkpoint_interval
                schedule = fault_plan
                if schedule is None:
                    schedule = FaultPlan.random(
                        fault_seed,
                        cluster.node_ids(),
                        num_faults=self.num_faults,
                        actions=self.fault_actions,
                    )
                injector.arm(schedule)
            driver = PregelixDriver(cluster, cluster.dfs)
            outcome = driver.run(
                job,
                "/in/g",
                output_path="/out/r",
                parse_line=self.case.parse_line,
                format_record=self.case.format_record,
            )
            cell.lines = tuple(sorted(driver.read_output("/out/r")))
            cell.recoveries = outcome.recoveries
            cell.faults_fired = len(injector.fired)
            survivors = sorted(
                "%s/%s" % (node_id, name)
                for node_id, node in cluster.nodes.items()
                for name in os.listdir(node.files.root)
                if name.startswith(("sort-run-", "groupby-run-", "msg-"))
            )
            if survivors:
                cell.error = "run files survive the run: " + ", ".join(survivors)
        except Exception as error:  # a divergence *is* the finding
            cell.error = "%s: %s" % (type(error).__name__, error)
        finally:
            cluster.close()
        return cell

    # ------------------------------------------------------------------
    # the matrix
    # ------------------------------------------------------------------
    def run_matrix(
        self,
        plans=None,
        budgets=("roomy",),
        fault_seeds=(None,),
        progress=None,
    ):
        """Run every (plan, budget, fault seed) cell and compare them.

        Bit-identity is asserted within each *(budget, group-by
        strategy)* equivalence class, where "group-by strategy" is the
        paper's four-way taxonomy (sender group-by x connector policy):
        any plan varying only in join strategy or vertex storage —
        faulted or not — must produce byte-equal output lines. That is
        the paper's plan-equivalence claim made literal, and it makes
        fault recovery provably exact: a faulted cell must reproduce its
        fault-free twin bit for bit. Across classes the aggregation
        *order* changes (spilled sort runs, pre-merged connector
        streams, and in-memory hash-sort tables accumulate floats in
        different orders), which legally perturbs the last ulp of float
        sums — so every class's agreed answer is instead checked against
        the independent reference under the algorithm's tolerance (exact
        for integer-valued algorithms).
        """
        plans = list(plans) if plans is not None else all_plans()
        report = DifferentialReport(algorithm=self.algorithm)
        baselines = {}  # (budget, identity class) -> first ok cell
        for plan in plans:
            for budget in budgets:
                for fault_seed in fault_seeds:
                    cell = self.run_cell(plan, budget=budget, fault_seed=fault_seed)
                    report.cells.append(cell)
                    if progress is not None:
                        progress(cell.describe())
                    if not cell.ok:
                        report.divergences.append(
                            "%s failed: %s (reproduce: %s)"
                            % (cell.describe(), cell.error, cell.repro_command())
                        )
                        continue
                    key = (cell.budget, plan.identity_class)
                    baseline = baselines.setdefault(key, cell)
                    if cell is not baseline and cell.lines != baseline.lines:
                        report.divergences.append(
                            "%s diverges from %s under the same budget "
                            "(reproduce: %s)"
                            % (
                                cell.describe(),
                                baseline.plan.signature(),
                                cell.repro_command(),
                            )
                        )
        if baselines:
            expected = self.case.reference(self.vertices)
            for (budget, identity_class), baseline in sorted(baselines.items()):
                got = self.case.parse_values(baseline.lines)
                report.reference_mismatches.extend(
                    "budget %s, %s group-by: %s"
                    % (budget, identity_class, problem)
                    for problem in self.case.compare(got, expected)
                )
        return report


def values_close(got, expected, tolerance=0.0):
    """Compare two scalar result values; ``inf`` matches ``inf``."""
    if got is None or expected is None:
        return got is expected
    if isinstance(expected, float):
        if math.isinf(expected) or math.isinf(got):
            return math.isinf(expected) and math.isinf(got)
        if tolerance == 0.0:
            return got == expected
        return math.isclose(got, expected, rel_tol=tolerance, abs_tol=tolerance)
    return got == expected
