"""Deterministic fault injection for the simulated cluster.

The failure-handling claims of the paper (Section 5.7: machine
interruptions and I/O errors are recoverable via checkpoint replay on
the surviving machines) are only trustworthy if they can be exercised
*systematically*. This module provides that machinery:

* a **fault-point taxonomy** (:data:`FAULT_SITES`): named places in the
  runtime where a fault can fire — superstep boundaries in the driver,
  operator clone open/next/close in the Hyracks engine, page reads and
  writebacks in the buffer cache, and checkpoint blob writes;
* a :class:`FaultSpec` describing one fault: where, on which node, at
  which occurrence of the site, and what happens (a recoverable
  ``interruption`` or ``io`` worker failure, a ``kill`` of a machine, or
  a ``delay`` that only slows the node);
* a :class:`FaultPlan` — an ordered list of specs.  ``FaultPlan.random``
  derives the whole schedule from ``random.Random(seed)``, so a failure
  scenario is *one integer*: the same seed always produces the same
  plan, and because the simulated engine executes deterministically, the
  same plan always fires at the same execution points;
* a :class:`FaultInjector` that arms a plan on a cluster.  Every check
  and every fired fault is counted, and fired faults are recorded as
  ``chaos.fault`` telemetry events, so a trace shows exactly when each
  fault hit.

Hook sites call :meth:`FaultInjector.check`; the injector either returns
(no matching spec), raises :class:`~repro.common.errors.WorkerFailure`
(which the engine wraps into a recoverable
:class:`~repro.common.errors.JobFailure`), kills a machine through the
cluster, or advances the simulated clock for a delay.
"""

import random
import threading
from dataclasses import dataclass, field

from repro.common.errors import JobFailure, ReproError, TransientIOError, WorkerFailure

#: The fault-point taxonomy: every named place a fault can fire.
FAULT_SITES = (
    # driver level: entering superstep N (before its plan is generated)
    "superstep.begin",
    # engine level: an operator clone about to run / produced output /
    # registered its output with the job
    "operator.open",
    "operator.next",
    "operator.close",
    # storage level: buffer-cache page miss read / dirty-page writeback
    "page.read",
    "page.write",
    # checkpoint level: writing a Vertex/Msg/Vid blob to HDFS
    "checkpoint.write",
    # DFS level: any MiniDFS.write (GS primary copy, checkpoint blobs,
    # the checkpoint manifest) — the durable-recovery fault surface
    "dfs.write",
    # driver level: an elastic partition handoff at a superstep boundary
    # (checked before the handoff checkpoint and before the restore)
    "rebalance",
    # serve level: one WAL record about to be framed into the job journal
    "journal.append",
    # serve level: the whole JobService process dies. Checked at job
    # lifecycle phases (submit / dispatch / boundary / finishing); the
    # check's ``node`` is the *phase name*, so specs target a phase by
    # setting ``node`` (use action io/interruption, never kill — there
    # is no cluster machine to power off).
    "service.crash",
)

#: Sites excluded from FaultPlan.random's *default* pool. dfs.write is
#: unattributed (driver-side); rebalance only exists when a run actually
#: scales; journal.append/service.crash only exist under a journaled
#: JobService. All stay opt-in so pre-existing seeds keep producing the
#: exact same schedules they did before these sites were added.
_NON_DEFAULT_SITES = ("dfs.write", "rebalance", "journal.append", "service.crash")

#: The original action set seeded schedules are drawn from by default.
#: Kept separate from FAULT_ACTIONS so pre-existing seeds replay the
#: exact same schedules after new actions were added.
CORE_ACTIONS = (
    "interruption",  # raise WorkerFailure(kind="interruption") at the site
    "io",            # raise WorkerFailure(kind="io") at the site
    "kill",          # power off a machine (possibly another node) mid-job
    "delay",         # slow the node: advance the sim clock, no failure
)

#: What a fired fault does.
FAULT_ACTIONS = CORE_ACTIONS + (
    "transient_io",  # raise TransientIOError: retryable-in-place with backoff
    "corrupt",       # let the write land, then flip stored bits (stale CRC)
    "torn_write",    # let the write land, then truncate to a clean prefix
)

#: Actions that damage stored bytes instead of raising; only meaningful
#: where MiniDFS applies them.
MUTATION_ACTIONS = ("corrupt", "torn_write")

#: Sites transient faults may target: both are idempotent to re-execute,
#: so a retry-with-backoff wrapper can safely absorb them. Kept at two
#: entries — FaultPlan.random draws from this tuple, so growing it would
#: silently change every pre-existing seeded schedule.
TRANSIENT_SITES = ("dfs.write", "superstep.begin")

#: Sites where transient_io is additionally *allowed* (hand-written
#: specs only): a transient during a rebalance handoff is absorbed by
#: falling back to the last verified checkpoint, not by in-place retry;
#: a transient journal append is retried by the journal's own policy
#: before the record is considered lost.
_EXTRA_TRANSIENT_SITES = ("rebalance", "journal.append")

#: Sites where the mutation actions are meaningful: MiniDFS applies them
#: to the just-landed bytes. journal.append maps a torn_write onto the
#: WAL tail — exactly the partial-final-record shape replay must absorb.
_MUTATION_SITES = ("dfs.write", "journal.append")

#: Sites that model the serving *process* rather than one engine run.
#: The driver's end-of-run disarm (scope="engine") leaves these live:
#: a service outlives the runs it executes, so a crash scheduled at the
#: "finishing" phase or on a post-run journal append must still fire.
SERVICE_SITES = ("journal.append", "service.crash")

class ChaosError(ReproError):
    """A fault plan or injector was configured inconsistently."""


@dataclass
class FaultSpec:
    """One scheduled fault.

    :param site: a member of :data:`FAULT_SITES`.
    :param action: a member of :data:`FAULT_ACTIONS`.
    :param node: restrict the fault to checks reporting this node
        (``None`` matches any node). For ``kill`` this is also the
        machine that gets powered off.
    :param at_hit: fire at the Nth (1-based) matching check.
    :param min_superstep: only count hits once the driver has entered
        this superstep — scheduling faults after the first committed
        checkpoint (superstep >= 2 with ``checkpoint_interval=1``)
        guarantees the run is recoverable.
    :param delay_seconds: simulated seconds a ``delay`` fault adds.
    """

    site: str
    action: str = "interruption"
    node: str = None
    at_hit: int = 1
    min_superstep: int = 0
    delay_seconds: float = 0.0
    hits: int = field(default=0, repr=False, compare=False)
    fired: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ChaosError("unknown fault site %r (choose from %r)" % (self.site, FAULT_SITES))
        if self.action not in FAULT_ACTIONS:
            raise ChaosError("unknown fault action %r (choose from %r)" % (self.action, FAULT_ACTIONS))
        if self.at_hit < 1:
            raise ChaosError("at_hit is 1-based and must be >= 1")
        if self.action in MUTATION_ACTIONS and self.site not in _MUTATION_SITES:
            raise ChaosError(
                "%r only makes sense at %r, not %r"
                % (self.action, _MUTATION_SITES, self.site)
            )
        if self.action == "kill" and self.site == "service.crash":
            raise ChaosError(
                "service.crash has no cluster machine to power off; "
                "use action 'io' or 'interruption' to down the service"
            )
        if self.action == "transient_io" and self.site not in (
            TRANSIENT_SITES + _EXTRA_TRANSIENT_SITES
        ):
            raise ChaosError(
                "transient_io is only retry-safe at %r, not %r"
                % (TRANSIENT_SITES + _EXTRA_TRANSIENT_SITES, self.site)
            )

    def describe(self):
        target = self.node or "any-node"
        tail = " +%.3fs" % self.delay_seconds if self.action == "delay" else ""
        return "%s@%s hit=%d ss>=%d -> %s%s" % (
            self.site, target, self.at_hit, self.min_superstep, self.action, tail
        )


class FaultPlan:
    """An ordered, replayable schedule of :class:`FaultSpec`\\ s."""

    def __init__(self, specs=(), seed=None):
        self.specs = list(specs)
        self.seed = seed

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    def add(self, spec):
        self.specs.append(spec)
        return self

    def reset(self):
        """Clear hit/fired state so the same plan can replay a run."""
        for spec in self.specs:
            spec.hits = 0
            spec.fired = False
        return self

    def describe(self):
        header = "fault plan (seed=%r, %d faults)" % (self.seed, len(self.specs))
        return [header] + ["  %d: %s" % (i, s.describe()) for i, s in enumerate(self.specs)]

    @classmethod
    def random(
        cls,
        seed,
        node_ids,
        num_faults=2,
        sites=None,
        actions=None,
        max_hit=20,
        min_superstep=2,
        max_kills=None,
        delay_seconds=0.05,
    ):
        """Derive a whole fault schedule from one integer seed.

        Every choice — site, node, occurrence, action — comes from
        ``random.Random(seed)``, so the schedule is fully replayable.
        Defaults keep schedules *survivable*: faults arm only from
        ``min_superstep`` (after the first committed checkpoint when the
        job checkpoints every superstep) and machine-losing faults are
        capped below the cluster size so recovery always has survivors.
        """
        node_ids = list(node_ids)
        if not node_ids:
            raise ChaosError("fault plan needs at least one node id")
        sites = list(
            sites
            if sites is not None
            else [s for s in FAULT_SITES[1:] if s not in _NON_DEFAULT_SITES]
        )  # node-attributed engine/storage sites
        actions = list(actions if actions is not None else CORE_ACTIONS)
        if max_kills is None:
            max_kills = max(len(node_ids) - 2, 0)
        rng = random.Random(seed)
        specs = []
        lethal = 0
        for _ in range(num_faults):
            site = rng.choice(sites)
            action = rng.choice(actions)
            if action in MUTATION_ACTIONS:
                site = "dfs.write"  # the only site these are meaningful at
            elif action == "transient_io":
                site = rng.choice(TRANSIENT_SITES)
            elif action != "delay":
                if lethal >= max_kills:
                    action = "delay"
                else:
                    lethal += 1
            specs.append(
                FaultSpec(
                    site=site,
                    action=action,
                    node=rng.choice(node_ids),
                    at_hit=rng.randint(1, max_hit),
                    min_superstep=min_superstep,
                    delay_seconds=delay_seconds if action == "delay" else 0.0,
                )
            )
        return cls(specs, seed=seed)


@dataclass
class FiredFault:
    """The record an injector keeps for every fault that fired."""

    spec_index: int
    site: str
    action: str
    node: str
    hit: int
    superstep: int


class FaultInjector:
    """Arms a :class:`FaultPlan` on a simulated cluster.

    Usage::

        plan = FaultPlan.random(seed=7, node_ids=cluster.node_ids())
        injector = FaultInjector(plan).attach(cluster)
        driver.run(job, ...)          # faults fire deterministically
        injector.fired                # what happened, in order

    The injector is consulted from the engine (operator clones), the
    buffer cache (page I/O), the checkpoint operators (blob writes), and
    the driver (superstep boundaries). The driver disarms it once the
    superstep loop completes so the final dump is not torn by leftover
    faults — the harness targets the iterative phase the paper's
    recovery story covers.
    """

    def __init__(self, plan, telemetry=None):
        self.plan = plan
        self.telemetry = telemetry
        self.cluster = None
        self.dfs = None
        self.armed = True
        self._engine_disarmed = False
        self.current_superstep = 0
        self.fired = []
        self.checks = 0
        # Concurrent jobs hit sites concurrently; checks/hits/fired are
        # read-modify-writes, so matching must be serialized or one fault
        # could fire twice (two threads passing ``hits >= at_hit``).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, cluster, dfs=None):
        """Install this injector on ``cluster`` (and optionally a DFS)."""
        self.cluster = cluster
        if self.telemetry is None:
            self.telemetry = getattr(cluster, "telemetry", None)
        cluster.fault_injector = self
        for node in cluster.nodes.values():
            node.fault_injector = self
            node.buffer_cache.fault_injector = self
        if dfs is not None:
            self.dfs = dfs
            dfs.fault_injector = self
        if self.telemetry is not None:
            self.telemetry.event(
                "chaos.armed",
                category="chaos",
                seed=self.plan.seed,
                faults=len(self.plan),
            )
        return self

    def detach(self):
        """Remove the injector from the attached cluster (and DFS)."""
        if self.cluster is not None:
            self.cluster.fault_injector = None
            for node in self.cluster.nodes.values():
                node.fault_injector = None
                node.buffer_cache.fault_injector = None
            self.cluster = None
        if self.dfs is not None:
            self.dfs.fault_injector = None
            self.dfs = None
        return self

    def disarm(self, reason="", scope="all"):
        """Stop firing (and counting); the plan's state is preserved.

        ``scope="engine"`` disarms only the engine/storage sites and
        leaves the :data:`SERVICE_SITES` live — the driver uses it at
        the end of a superstep loop, where leftover *engine* faults must
        not tear the result dump but the serving process the run belongs
        to is still very much crashable.
        """
        if self.armed and self.telemetry is not None:
            self.telemetry.event(
                "chaos.disarmed", category="chaos", reason=reason, scope=scope
            )
        if scope == "engine":
            self._engine_disarmed = True
        else:
            self.armed = False

    # ------------------------------------------------------------------
    # hook entry points
    # ------------------------------------------------------------------
    def begin_superstep(self, superstep):
        """Driver hook: entering ``superstep``. May raise JobFailure."""
        self.current_superstep = superstep
        # A new superstep means a new run's loop is live again: an
        # engine-scoped disarm only ever protects the dump phase between
        # a loop's end and the next run.
        self._engine_disarmed = False
        try:
            self.check("superstep.begin")
        except WorkerFailure as failure:
            # The driver's recovery loop catches JobFailure; wrap here
            # because no engine frame sits between us and the driver.
            raise JobFailure(str(failure), cause=failure) from failure

    def check(self, site, node=None, **info):
        """Site hook: fire any matching armed spec.

        Raises :class:`WorkerFailure` for ``interruption``/``io``
        actions (:class:`TransientIOError` for ``transient_io``) and for
        a ``kill`` that targets the node the check is running on; a
        ``kill`` aimed at another machine powers it off silently (its
        next task will observe the loss). Mutation actions (``corrupt``,
        ``torn_write``) do not raise: the action name is *returned* so
        the storage layer can apply the damage after the write lands.
        """
        if not self.armed:
            return None
        with self._lock:
            return self._check_locked(site, node, info)

    def _check_locked(self, site, node, info):
        self.checks += 1
        mutation = None
        for index, spec in enumerate(self.plan):
            if spec.fired or spec.site != site:
                continue
            if self._engine_disarmed and spec.site not in SERVICE_SITES:
                continue
            # For a kill, spec.node names the *victim*, not a filter on
            # the checking node: any machine's progress past the site
            # can coincide with another machine's power loss.
            if (
                spec.action != "kill"
                and spec.node is not None
                and node is not None
                and spec.node != node
            ):
                continue
            if self.current_superstep < spec.min_superstep:
                continue
            spec.hits += 1
            if spec.hits >= spec.at_hit:
                spec.fired = True
                fired_action = self._fire(index, spec, node, info)
                if fired_action in MUTATION_ACTIONS:
                    mutation = fired_action
        return mutation

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def _fire(self, index, spec, node, info):
        target = spec.node or node or self._first_alive()
        record = FiredFault(
            spec_index=index,
            site=spec.site,
            action=spec.action,
            node=target,
            hit=spec.at_hit,
            superstep=self.current_superstep,
        )
        self.fired.append(record)
        if self.telemetry is not None:
            reserved = {"spec", "site", "action", "node", "hit", "superstep"}
            extra = {k: v for k, v in info.items() if k not in reserved}
            self.telemetry.event(
                "chaos.fault",
                category="chaos",
                spec=index,
                site=spec.site,
                action=spec.action,
                node=target,
                hit=spec.at_hit,
                superstep=self.current_superstep,
                **extra,
            )
            self.telemetry.registry.counter("chaos.faults_fired").inc()
        if spec.action == "delay":
            if self.telemetry is not None and spec.delay_seconds:
                self.telemetry.sim_clock.advance(spec.delay_seconds)
            return spec.action
        if spec.action in MUTATION_ACTIONS:
            return spec.action  # applied by the storage layer, no raise
        if spec.action == "transient_io":
            raise TransientIOError(target, site=spec.site)
        if spec.action == "kill":
            if self.cluster is not None and target in self.cluster.nodes:
                cluster_node = self.cluster.nodes[target]
                if cluster_node.alive:
                    self.cluster.kill_node(target)
            if node is None or node == target:
                raise WorkerFailure(target, kind="interruption")
            return spec.action  # another machine died; this clone keeps running
        raise WorkerFailure(target, kind=spec.action)

    def _first_alive(self):
        if self.cluster is not None:
            alive = self.cluster.alive_node_ids()
            if alive:
                return alive[0]
        return "node0"

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self):
        return {
            "seed": self.plan.seed,
            "checks": self.checks,
            "fired": [
                (f.spec_index, f.site, f.action, f.node, f.superstep)
                for f in self.fired
            ],
            "pending": [s.describe() for s in self.plan if not s.fired],
        }


def check_fault(owner, site, node=None, **info):
    """Consult ``owner.fault_injector`` if one is attached (hook helper)."""
    injector = getattr(owner, "fault_injector", None)
    if injector is not None:
        injector.check(site, node=node, **info)
