"""A cost-based physical plan optimizer (the paper's stated future work).

Section 9: *"we plan to automate physical plan selection via a
cost-based optimizer."* Section 7.5 shows why: the best join strategy,
group-by strategy, and connector depend on the dataset, the algorithm,
and the cluster — no single static plan wins everywhere.

:class:`CostBasedOptimizer` chooses among the sixteen physical plans
using the same per-operation cost constants the benchmark harness uses
(:mod:`repro.common.costmodel`), fed by two kinds of statistics:

* **static** statistics from the loading plan (vertex count, edge count,
  average degree, cluster size), which select the initial plan; and
* **runtime feedback** from the statistics collector after every
  superstep (live-vertex fraction, message volume, combiner reduction),
  which lets the optimizer *re-optimize between supersteps* — a Pregel
  job is an iterative query, so each superstep is a fresh chance to pick
  a better plan. SSSP starts message-dense (superstep 1 touches every
  vertex) and sparsifies; the optimizer starts with the full outer join
  and switches to the left outer join when the frontier shrinks below
  the scan/probe break-even point.

Switching joins mid-job requires the ``Vid`` live-vertex index, so when
the optimizer is enabled the compute operator always maintains it (the
paper's left-outer-join machinery), and the first left-outer superstep
can start immediately.
"""

from dataclasses import dataclass, field

from repro.common import costmodel
from repro.pregelix.api import (
    ConnectorPolicy,
    GroupByStrategy,
    JoinStrategy,
    PlanChoice,
)


@dataclass
class PlanDecision:
    """One superstep's physical plan choice, with its cost estimates."""

    join_strategy: JoinStrategy
    groupby_strategy: GroupByStrategy
    connector_policy: ConnectorPolicy
    scan_cost: float = 0.0
    probe_cost: float = 0.0
    reason: str = ""

    def plan_for(self, job):
        """This decision as ``job``'s whole plan: the optimizer never
        changes vertex storage."""
        return PlanChoice(
            self.join_strategy, self.groupby_strategy,
            self.connector_policy, job.vertex_storage,
        )


@dataclass
class OptimizerTrace:
    """Every decision the optimizer made during a run (for inspection)."""

    decisions: list = field(default_factory=list)

    def switches(self):
        """Supersteps at which the join strategy changed."""
        flips = []
        for i in range(1, len(self.decisions)):
            if self.decisions[i].join_strategy != self.decisions[i - 1].join_strategy:
                flips.append(i + 1)
        return flips


class CostBasedOptimizer:
    """Per-superstep physical plan selection from observed statistics.

    :param num_partitions: cluster partition count (fixes the connector
        choice: receiver-side merging coordinates one stream per sender,
        so it only wins on small clusters).
    :param live_decay: smoothing for the live-fraction estimate; Pregel
        activity can oscillate (e.g. two-phase algorithms), and the plan
        should not flap with it.
    """

    #: Receiver-side merging beats re-grouping only below this many
    #: partitions (the Section 7.5 / tech-report tradeoff).
    MERGING_CONNECTOR_LIMIT = 6

    def __init__(self, num_partitions, live_decay=0.5):
        self.num_partitions = num_partitions
        self.live_decay = live_decay
        self.trace = OptimizerTrace()
        self._smoothed_live_fraction = 1.0

    # ------------------------------------------------------------------
    def initial_plan(self, num_vertices, num_edges):
        """The plan for superstep 1, from loading statistics alone.

        Superstep 1 activates every vertex (all are live), so the full
        outer join is always right; the group-by choice follows the
        expected message fan-in (average degree): high fan-in means many
        messages per distinct receiver, where hash aggregation shines.
        """
        avg_degree = num_edges / num_vertices if num_vertices else 0.0
        decision = PlanDecision(
            join_strategy=JoinStrategy.FULL_OUTER,
            groupby_strategy=(
                GroupByStrategy.HASHSORT if avg_degree >= 4.0 else GroupByStrategy.SORT
            ),
            connector_policy=self._connector_choice(),
            reason="superstep 1: all vertices live",
        )
        self.trace.decisions.append(decision)
        return decision

    def next_plan(self, previous_stats, num_vertices):
        """Re-optimize from the superstep that just finished.

        :param previous_stats: the finished superstep's
            :class:`~repro.pregelix.stats.SuperstepStats`.
        :param num_vertices: current vertex count (from GS).
        """
        live = self._estimate_live(previous_stats, num_vertices)
        scan_cost = num_vertices * costmodel.PREGELIX_SCAN_TUPLE
        # The probe-side input is the merged (live ∪ messaged) stream;
        # approximate it with the live estimate (they coincide for
        # halting algorithms, where messages reactivate their targets).
        probe_cost = live * num_vertices * costmodel.PREGELIX_PROBE
        # Out-of-core term: the buffer-cache misses the last superstep
        # actually paid are what a full scan will pay again, while probes
        # touch only the live share of the pages (which then stay hot).
        # This is where the left outer join wins big once the index
        # outgrows the cache (the paper's Figure 14a at ratios > 0.2).
        observed_page_bytes = previous_stats.cache_misses * 4096
        scan_cost += costmodel.paged_disk_seconds(observed_page_bytes)
        probe_cost += costmodel.paged_disk_seconds(live * observed_page_bytes)
        join = (
            JoinStrategy.LEFT_OUTER
            if probe_cost < scan_cost
            else JoinStrategy.FULL_OUTER
        )

        messages = previous_stats.messages_sent
        combined = previous_stats.combined_messages
        reduction = messages / combined if combined else 1.0
        groupby = (
            GroupByStrategy.HASHSORT if reduction >= 2.0 else GroupByStrategy.SORT
        )

        decision = PlanDecision(
            join_strategy=join,
            groupby_strategy=groupby,
            connector_policy=self._connector_choice(),
            scan_cost=scan_cost,
            probe_cost=probe_cost,
            reason="live fraction %.3f, combiner reduction %.1fx"
            % (live, reduction),
        )
        self.trace.decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    def _estimate_live(self, stats, num_vertices):
        if num_vertices <= 0:
            return 1.0
        observed = min(stats.vertices_processed / num_vertices, 1.0)
        # Next superstep's activity is bounded by this superstep's
        # message receivers plus whatever stayed unhalted; the combined
        # message count is the sharper signal when available.
        if stats.combined_messages:
            observed = min(
                max(observed, stats.combined_messages / num_vertices), 1.0
            )
        self._smoothed_live_fraction = (
            self.live_decay * self._smoothed_live_fraction
            + (1.0 - self.live_decay) * observed
        )
        return self._smoothed_live_fraction

    def _connector_choice(self):
        if self.num_partitions < self.MERGING_CONNECTOR_LIMIT:
            return ConnectorPolicy.MERGED
        return ConnectorPolicy.UNMERGED
