"""The Pregelix driver: load, iterate supersteps, dump, recover.

This is the client-side control loop that the paper's master performs:
generate a physical plan per superstep, submit it to the Hyracks cluster,
read back the revised GS tuple, and stop when the global halt state is
reached. Checkpoints are taken at the user-selected interval, and
recoverable failures (machine interruptions, disk I/O errors) trigger
checkpoint replay on the surviving machines.
"""

import contextlib
import itertools
import time
import zlib

from repro.common import costmodel
from repro.common.errors import (
    CheckpointNotFound,
    DeadlineExceeded,
    JobCancelled,
    JobFailure,
    ProcessCrashed,
    SchedulingError,
    WorkerFailure,
)
from repro.hdfs.retry import failure_cause, is_transient
from repro.pregelix.checkpoint import Checkpointer
from repro.pregelix.failure import FailureManager, failure_kind
from repro.pregelix.physical import PartitionMap, PlanGenerator
from repro.pregelix.relations import RunRelations
from repro.pregelix.stats import (
    StatisticsCollector,
    pregelix_sim_cost,
    seconds_by_kind,
)
from repro.pregelix.types import GlobalState

_run_ids = itertools.count(1)


class JobOutcome:
    """Everything a client learns from a completed Pregelix run."""

    def __init__(self, job, run_id, gs, stats, load_seconds, dump_seconds, recoveries, output_path):
        self.job = job
        self.run_id = run_id
        self.gs = gs
        self.stats = stats
        self.load_seconds = load_seconds
        self.dump_seconds = dump_seconds
        self.recoveries = recoveries
        self.output_path = output_path

    @property
    def supersteps(self):
        return self.gs.superstep

    @property
    def total_seconds(self):
        return self.load_seconds + self.stats.total_elapsed + self.dump_seconds

    @property
    def avg_iteration_seconds(self):
        return self.stats.avg_iteration_seconds

    def __repr__(self):
        return "JobOutcome(%s: %d supersteps, %.3fs)" % (
            self.job.name,
            self.supersteps,
            self.total_seconds,
        )


class PregelixDriver:
    """Runs :class:`~repro.pregelix.api.PregelixJob` instances on a cluster.

    :param cluster: the :class:`~repro.hyracks.HyracksCluster` to run on.
    :param dfs: the :class:`~repro.hdfs.MiniDFS` holding inputs, outputs,
        GS, and checkpoints.
    """

    def __init__(self, cluster, dfs):
        self.cluster = cluster
        self.dfs = dfs
        self.telemetry = cluster.telemetry

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def run(
        self,
        job,
        input_path,
        output_path=None,
        parse_line=None,
        format_record=None,
        keep_state=False,
        scale_at=None,
        run_id=None,
        boundary_hook=None,
    ):
        """Execute ``job`` end to end; returns a :class:`JobOutcome`.

        :param parse_line: input-line parser; defaults to the adjacency
            text format of :mod:`repro.graphs.io`.
        :param format_record: output formatter for the final vertices.
        :param keep_state: leave the finished run's indexes, DFS state
            (checkpoints included) and placement pin in place and hand
            the final plan generator back as ``outcome.generator``; the
            caller owns ``cleanup(outcome.generator)``. ``repro
            checkpoints`` and the checkpoint tests audit a finished
            run's checkpoints this way.
        :param scale_at: ``{superstep: target_nodes}`` — resize the
            cluster when that superstep boundary is reached; the run
            rebalances onto the new node set at the same boundary.
        :param run_id: explicit run id (the serve layer pre-allocates
            one so it can be journaled before execution starts);
            ``None`` draws from the driver's counter.
        :param boundary_hook: called as ``hook(superstep, gs)`` at every
            superstep boundary before the next superstep is attempted —
            the cooperative enforcement point for deadlines, cancels,
            and crash drills, and (through ``gs``, the driver's
            in-memory global state) the place observers such as
            multi-query lane tracking read the superstep's global
            aggregate without a DFS race. Exceptions it raises that are
            not part of the recoverable set unwind the run without
            checkpoint recovery absorbing them.
        """
        if run_id is None:
            run_id = "%s-%04d" % (_sanitize(job.name), next(_run_ids))
        return self._execute(
            [job], run_id, input_path, output_path, parse_line, format_record,
            keep_state=keep_state, scale_at=scale_at, boundary_hook=boundary_hook,
        )[0]

    def read_output(self, output_path):
        """The final vertex lines written by a run's dump plan."""
        lines = []
        for path in self.dfs.list_files(output_path):
            lines.extend(self.dfs.read_text_lines(path))
        return lines

    def resume(
        self,
        job,
        input_path,
        run_id,
        output_path=None,
        parse_line=None,
        format_record=None,
        boundary_hook=None,
    ):
        """Continue interrupted run ``run_id`` from its last checkpoint.

        The crash-recovery entry point for the serve layer: a journal
        replay knows a job was ``started`` under ``run_id`` but never
        ``finished``, so the restarted service asks the driver to pick
        the run back up. The newest *verified* checkpoint under
        ``/pregelix/<run_id>/ckpt`` is restored in place of the load
        and the superstep loop continues from there; when no verified
        checkpoint exists (the crash predates the first commit, or the
        DFS died with the process) the job is simply loaded again from
        ``input_path`` under the same run id — results are deterministic
        per plan class, so both paths end bit-identical.
        """
        return self._execute(
            [job], run_id, input_path, output_path, parse_line, format_record,
            boundary_hook=boundary_hook, resume=True,
        )[0]

    def run_jobs(self, jobs, input_path, output_path=None, parse_line=None,
                 format_record=None):
        """Run pipeline-compatible ``jobs`` back to back over one resident
        ``Vertex`` relation (paper Section 5.6): one :class:`JobOutcome`
        per job, the load charged to the first and the dump to the last.
        :func:`repro.pregelix.pipelining.run_pipeline` is the checked
        front door.
        """
        run_id = "pipeline-%s-%04d" % (_sanitize(jobs[0].name), next(_run_ids))
        return self._execute(
            jobs, run_id, input_path, output_path, parse_line, format_record
        )

    # ------------------------------------------------------------------
    # the run skeleton
    # ------------------------------------------------------------------
    def _execute(self, jobs, run_id, input_path, output_path, parse_line,
                 format_record, keep_state=False, scale_at=None,
                 boundary_hook=None, resume=False):
        """The one skeleton every run follows.

        State in place (the load plan — or, when ``resume`` finds a
        verified checkpoint, the restore step) → for each job: the job
        boundary if it is not the first, then the superstep loop → the
        optional dump → one :class:`JobOutcome` per job, all inside one
        ``run_id`` tracer context and under one placement pin.
        :meth:`run` is the one-job case, :meth:`resume` the
        restore-instead-of-load case, :meth:`run_jobs` the N-job case.

        Every way out goes through ``RunRelations.release``: success
        and a cooperative stop drop everything; any other failure drops
        what this process holds (indexes, run files, the pin) and keeps
        GS and the checkpoints for a retry. Only ``keep_state`` and a
        dead process leave the run in place.
        """
        parse_line, format_record = _default_formats(parse_line, format_record)
        telemetry = self.telemetry
        # Scoped tracer context: every span below (supersteps, engine
        # job/task spans, storage ops — including on pool worker
        # threads) is stamped with this run's id without plumbing it
        # through the engine call graph.
        with telemetry.tracer.context(run_id=run_id), telemetry.span(
            "pregelix:%s" % jobs[0].name, category="pregelix", run_id=run_id
        ), self._released_on_failure(jobs[0], run_id):
            partition_map = self._pin_initial_map(run_id)
            outcomes = []
            for job in jobs:
                generator = PlanGenerator(job, self.dfs, run_id, partition_map)
                checkpointer = Checkpointer(
                    generator, telemetry, retain=job.checkpoint_retain
                )
                load_seconds, recoveries = 0.0, 0
                superstep = None
                if resume and not outcomes:
                    superstep = checkpointer.latest_checkpoint()
                if outcomes:
                    gs = self._job_boundary(generator, checkpointer, gs)
                elif superstep is None:
                    gs, load_seconds = self._load(generator, input_path, parse_line)
                else:
                    gs, generator = self._resume(generator, checkpointer, superstep)
                    # The crash that made this a resume was itself a recovery.
                    recoveries = 1
                gs, generator, stats, recovered = self._superstep_loop(
                    generator, checkpointer, gs, scale_at, boundary_hook
                )
                partition_map = generator.partition_map
                outcomes.append(JobOutcome(
                    job=job, run_id=run_id, gs=gs, stats=stats,
                    load_seconds=load_seconds, dump_seconds=0.0,
                    recoveries=recoveries + recovered, output_path=None,
                ))

            # The chaos harness targets the iterative phase; leftover
            # faults must not tear the final result dump.
            self.cluster.fault_injector.disarm(
                reason="superstep loop complete", scope="engine"
            )
            last = outcomes[-1]
            if output_path is not None:
                with telemetry.span("dump", category="phase", run_id=run_id):
                    dump_started = time.perf_counter()
                    self.cluster.execute(
                        generator.dump_plan(output_path, format_record)
                    )
                    last.dump_seconds = time.perf_counter() - dump_started
                last.output_path = output_path
            if keep_state:
                last.generator = generator
            else:
                self.cleanup(generator)
            return outcomes

    @contextlib.contextmanager
    def _released_on_failure(self, job, run_id):
        """The exit rule for a run that does not complete."""
        try:
            yield
        except ProcessCrashed:
            raise  # a dead process cleans nothing; its successor resumes
        except Exception as error:
            RunRelations(job, self.dfs, run_id).release(
                self.cluster,
                durable=isinstance(error, (DeadlineExceeded, JobCancelled)),
            )
            raise

    def _load(self, generator, input_path, parse_line):
        """The load phase: bulk load ``Vertex`` from ``input_path``."""
        with self.telemetry.span(
            "load", category="phase", run_id=generator.run_id
        ) as load_span:
            load_started = time.perf_counter()
            load_result = self.cluster.execute(
                generator.loading_plan(input_path, parse_line)
            )
            load_seconds = time.perf_counter() - load_started
            gs = load_result.collected["gs"][0][0]
            self._advance_sim_load(input_path, gs, load_span)
        return gs, load_seconds

    def _resume(self, generator, checkpointer, superstep):
        """State in place from verified checkpoint ``superstep`` instead
        of the load: re-pin at the partition count the checkpoint was
        written with (restored partitions must line up), then restore."""
        run_id = generator.run_id
        partition_map = self._pin_initial_map(
            run_id, checkpointer.num_partitions(superstep)
        )
        with self.telemetry.span("resume", category="recovery", run_id=run_id):
            generator = self._restore(
                generator, checkpointer, superstep, partition_map
            )
            gs = checkpointer.restore_gs(superstep)
        self.telemetry.event(
            "recovery.resume", category="recovery", run_id=run_id,
            superstep=superstep, partitions=partition_map.num_partitions,
        )
        return gs, generator

    def _job_boundary(self, generator, checkpointer, gs):
        """Between two pipelined jobs: fresh Pregel semantics for the
        next one — all vertices active, superstep counter reset, counts
        carried over — over the relation the previous job left resident.

        Superstep numbers restart, so the previous job's checkpoints go
        first: the paper's stated trade is no checkpoint coverage across
        job boundaries, and recovery must only see the current job's.
        """
        self.dfs.delete(checkpointer.root(), recursive=True)
        self.cluster.execute(generator.reactivation_plan())
        gs = GlobalState(
            halt=False,
            aggregate=None,
            superstep=0,
            num_vertices=gs.num_vertices,
            num_edges=gs.num_edges,
        )
        generator.relations.write_gs(gs)
        return gs

    def _restore(self, generator, checkpointer, superstep, partition_map):
        """Move the run onto ``partition_map`` from checkpoint ``superstep``.

        The one restore step behind resume (same map, new process),
        rebalancing (the map current membership wants) and failure
        recovery (a map over the survivors): bulk load the checkpointed
        partitions on their new owners, leave nothing of the run on
        nodes the map vacated — a drained node must hold nothing before
        it can retire — and re-pin the run. Returns the plan generator
        for the new map; the caller's stays valid if anything raises.
        """
        restored = generator.moved_to(partition_map)
        self.cluster.execute(checkpointer.recovery_plan(superstep, restored))
        vacated = set(generator.partition_map.locations) - set(partition_map.locations)
        generator.relations.release(self.cluster, nodes=vacated)
        self.cluster.register_placement(generator.run_id, partition_map.locations)
        return restored

    # ------------------------------------------------------------------
    # partition maps on an elastic cluster
    # ------------------------------------------------------------------
    def _balanced_map(self, run_id, num_partitions=None, nodes=None):
        """The run's canonical map over ``nodes`` (default: the current
        schedulable nodes).

        The partition count is the cluster's ``num_partitions`` (fixed
        when it was built), so ``hash(vid) % num_partitions`` — and
        therefore every byte of every run — is independent of membership
        changes; elasticity and recovery only move partitions between
        nodes. ``num_partitions`` overrides it for a run that keeps
        another count (one resumed from a checkpoint written with it).
        When there are more nodes than partitions, the assignment is
        rotated by a run-id hash so concurrent runs spread out.
        """
        cluster = self.cluster
        nodes = nodes or cluster.schedulable_node_ids() or cluster.alive_node_ids()
        if not nodes:
            raise SchedulingError("cluster has no alive nodes")
        num_partitions = num_partitions or cluster.num_partitions
        offset = 0
        if len(nodes) > num_partitions:
            offset = zlib.crc32(run_id.encode("utf-8")) % len(nodes)
        return PartitionMap.balanced(nodes, num_partitions, offset=offset)

    def _pin_initial_map(self, run_id, num_partitions=None):
        """Build the run's partition map and pin it against retirement.

        An autoscaler may retire a node between map construction and the
        pin; registration validates membership, so losing that race just
        means rebuilding over the survivors. ``num_partitions`` overrides
        the cluster-derived count — resume passes the count the checkpoint
        it restores was written with.
        """
        while True:
            partition_map = self._balanced_map(run_id, num_partitions=num_partitions)
            try:
                self.cluster.register_placement(run_id, partition_map.locations)
            except SchedulingError:
                continue
            return partition_map

    # ------------------------------------------------------------------
    # the superstep loop
    # ------------------------------------------------------------------
    def _superstep_loop(self, generator, checkpointer, gs, scale_at,
                        boundary_hook):
        """Iterate ``generator.job`` from ``gs`` to its global halt.

        Returns ``(gs, generator, stats, recoveries)``; the generator
        comes back because rebalancing and recovery replace it.
        """
        job = generator.job
        telemetry = self.telemetry
        retry = checkpointer.retry
        failures = FailureManager(self.cluster)
        stats = StatisticsCollector(registry=telemetry.registry)
        recoveries = 0
        optimizer = None
        if job.auto_optimize:
            from repro.pregelix.optimizer import CostBasedOptimizer

            optimizer = CostBasedOptimizer(generator.partition_map.num_partitions)
            optimizer.apply(
                job, optimizer.initial_plan(gs.num_vertices, gs.num_edges)
            )
            stats.optimizer_trace = optimizer.trace
            self._record_replan(optimizer.trace.decisions[-1], superstep=0)
        scale_at = dict(scale_at) if scale_at else {}
        while True:
            try:
                # Liveness check: one superstep boundary is one heartbeat
                # interval. A pinned machine lost without surfacing a task
                # failure (e.g. powered off just after its last clone of
                # the superstep ran) is blamed here; its partitions are
                # gone, so recover before declaring the loop complete or
                # continuing.
                lost = failures.lost(generator.partition_map.locations)
                if lost:
                    for node_id in lost:
                        failures.suspect(node_id, reason="heartbeat")
                    raise JobFailure(
                        "machine %s lost between supersteps" % lost[0],
                        cause=WorkerFailure(lost[0]),
                    )
                if gs.superstep in scale_at:
                    # CLI-driven elasticity: resize the cluster at this
                    # boundary; the rebalance below performs the handoff.
                    self.cluster.scale_to(scale_at.pop(gs.superstep))
                if gs.halt:
                    break
                if job.max_supersteps is not None and gs.superstep >= job.max_supersteps:
                    break
                if boundary_hook is not None:
                    # Cooperative control point: deadlines, cancels, and
                    # crash drills fire here — after the completion
                    # checks above, so a job that just finished is never
                    # killed at its own final boundary. Anything the
                    # hook raises outside the recoverable set below
                    # unwinds the run instead of re-entering recovery.
                    boundary_hook(gs.superstep, gs)
                generator = self._rebalance(generator, checkpointer, gs, stats)
                with telemetry.span(
                    "superstep:%d" % (gs.superstep + 1),
                    category="superstep",
                    run_id=generator.run_id,
                ) as ss_span:
                    # A transient fault at the superstep *boundary* (before
                    # any operator has mutated vertex state) is safe to
                    # retry whole; mid-plan transients are not, and are
                    # handled by DFS-level retry or checkpoint replay.
                    result = retry.call(
                        lambda: self._attempt_superstep(generator, gs),
                        describe="superstep %d" % (gs.superstep + 1),
                        classify=_retryable_at_boundary,
                    )
                    gs = result.collected["gs"][0][0]
                    record = stats.record_superstep(gs.superstep, result)
                    self._advance_sim_superstep(job, record, ss_span)
                    # Where the superstep's time went, per operator kind:
                    # a stage clone opens no span of its own by default.
                    ss_span.annotate(
                        operators=seconds_by_kind(record.operator_seconds)
                    )
                if optimizer is not None and not gs.halt:
                    optimizer.apply(
                        job,
                        optimizer.next_plan(stats.supersteps[-1], gs.num_vertices),
                    )
                    self._record_replan(
                        optimizer.trace.decisions[-1], superstep=gs.superstep
                    )
                if (
                    job.checkpoint_interval
                    and gs.superstep % job.checkpoint_interval == 0
                    and not gs.halt
                ):
                    with telemetry.span(
                        "checkpoint:%d" % gs.superstep,
                        category="checkpoint",
                        run_id=generator.run_id,
                    ):
                        self._checkpoint(generator, checkpointer, gs)
            except (JobFailure, WorkerFailure, SchedulingError) as failure:
                failure = self._classify_failure(failure, generator, failures)
                if failure_kind(failure) == "fatal":
                    raise failure
                failures.record(failure)
                with telemetry.span(
                    "recovery", category="recovery", run_id=generator.run_id
                ):
                    gs, generator = self._recover(generator, checkpointer, failures)
                recoveries += 1
                telemetry.event(
                    "failure.recovered",
                    category="failure",
                    run_id=generator.run_id,
                    superstep=gs.superstep,
                )
        stats.record_cluster(self.cluster)
        return gs, generator, stats, recoveries

    def _attempt_superstep(self, generator, gs):
        """One try at superstep ``gs.superstep + 1``: enter it at the
        fault injector, execute.

        Kept as a unit so a boundary retry re-enters the superstep at
        the injector — a one-shot ``superstep.begin`` fault consumed on
        attempt N must not leave attempt N+1 seeing a half-spent schedule.
        """
        self.cluster.fault_injector.begin_superstep(gs.superstep + 1)
        return self.cluster.execute(generator.superstep_plan(gs))

    def _checkpoint(self, generator, checkpointer, gs):
        """Snapshot the run at ``gs.superstep`` and commit it."""
        self.cluster.execute(checkpointer.checkpoint_plan(gs.superstep, generator))
        # Commit from the in-memory GS tuple — the DFS primary copy may
        # have been corrupted by a storage fault; the driver's copy
        # cannot be.
        checkpointer.commit(gs.superstep, gs=gs)

    # ------------------------------------------------------------------
    # superstep-boundary rebalancing (elastic membership)
    # ------------------------------------------------------------------
    def _rebalance(self, generator, checkpointer, gs, stats):
        """Hand partitions off to the current node set, if it changed.

        Membership changes (``add_node``/``drain_node``/``scale_to``)
        take effect here and only here: the boundary forces a verified
        checkpoint at the current superstep and restores it onto the new
        assignment (:meth:`_restore`); the returned plan generator
        replaces the caller's. The partition *count* never changes, so
        the restored run is bit-identical to one that never moved. A
        failure anywhere in the handoff propagates to the normal
        recovery handler, which falls back to the latest verified
        checkpoint.
        """
        desired = self._balanced_map(
            generator.run_id,
            num_partitions=generator.partition_map.num_partitions,
        )
        old_locations = generator.partition_map.locations
        if desired.locations == old_locations:
            return generator
        telemetry = self.telemetry
        injector = self.cluster.fault_injector
        moved = sum(1 for a, b in zip(old_locations, desired.locations) if a != b)
        with telemetry.span(
            "rebalance:%d" % gs.superstep,
            category="rebalance",
            run_id=generator.run_id,
        ) as span:
            started = time.perf_counter()
            telemetry.event(
                "cluster.rebalance",
                category="cluster",
                run_id=generator.run_id,
                superstep=gs.superstep,
                phase="begin",
                moved_partitions=moved,
                nodes=len(set(desired.locations)),
            )
            injector.check("rebalance", phase="checkpoint")
            self._checkpoint(generator, checkpointer, gs)
            injector.check("rebalance", phase="restore")
            generator = self._restore(generator, checkpointer, gs.superstep, desired)
            seconds = time.perf_counter() - started
            span.annotate(moved_partitions=moved, seconds=seconds)
            telemetry.event(
                "cluster.rebalance",
                category="cluster",
                run_id=generator.run_id,
                superstep=gs.superstep,
                phase="commit",
                moved_partitions=moved,
                seconds=round(seconds, 6),
            )
            stats.record_rebalance(gs.superstep, seconds, moved)
        return generator

    # ------------------------------------------------------------------
    # telemetry helpers
    # ------------------------------------------------------------------
    def _record_replan(self, decision, superstep):
        self.telemetry.event(
            "optimizer.replan",
            category="optimizer",
            superstep=superstep,
            join_strategy=decision.join_strategy.value,
            reason=decision.reason,
        )

    def _advance_sim_load(self, input_path, gs, span):
        """Advance the sim clock by the cost model's load estimate."""
        workers = max(len(self.cluster.alive_node_ids()), 1)
        input_bytes = self.dfs.total_bytes(input_path)
        sim = sum(costmodel.load_cost(gs.num_vertices, input_bytes, workers))
        self.telemetry.sim_clock.advance(sim)
        span.annotate(sim_seconds=sim, input_bytes=input_bytes)

    def _advance_sim_superstep(self, job, record, span):
        """Advance the sim clock by one superstep's cost-model seconds."""
        workers = max(len(self.cluster.alive_node_ids()), 1)
        cpu, disk, net = pregelix_sim_cost(record, job, workers)
        sim = cpu + disk + net + costmodel.PREGELIX_BARRIER_SECONDS
        self.telemetry.sim_clock.advance(sim)
        span.annotate(
            sim_seconds=sim,
            superstep=record.superstep,
            vertices=record.vertices_processed,
            messages=record.messages_sent,
        )

    def _classify_failure(self, failure, generator, failures):
        """Map a mid-loop error to the :class:`JobFailure` it stands for.

        A :class:`SchedulingError` after a machine died between jobs is
        the same machine interruption the paper recovers from — the
        sticky partition map pins operators to a node that no longer
        exists — so attribute it to the first dead pinned machine. Any
        other scheduling problem is a real bug and propagates.
        """
        if isinstance(failure, JobFailure):
            return failure
        if isinstance(failure, WorkerFailure):
            # Raised driver-side (a DFS write during checkpoint commit,
            # or a boundary fault that exhausted its retries) — no
            # engine wrapped it, so wrap it here.
            return JobFailure(str(failure), cause=failure)
        lost = failures.lost(generator.partition_map.locations)
        if lost:
            return JobFailure(str(failure), cause=WorkerFailure(lost[0]))
        raise failure

    def _recover(self, generator, checkpointer, failures):
        """Reload the latest checkpoint onto the surviving machines.

        Recovery itself may be hit by another recoverable failure (a
        second machine dies, or a fault fires during the restore plan);
        each such loss blacklists the machine and recovery restarts on
        the remaining survivors. Returns ``(gs, generator)``.
        """
        superstep = checkpointer.latest_checkpoint()
        if superstep is None:
            raise CheckpointNotFound(
                "worker failed and no checkpoint exists for %s" % generator.run_id
            )
        while True:
            healthy = failures.healthy_nodes()
            if not healthy:
                raise JobFailure(
                    "no healthy machines left to recover %s" % generator.run_id
                )
            # Prefer schedulable survivors: a draining node should not
            # receive recovered partitions it would only hand off again.
            schedulable = set(self.cluster.schedulable_node_ids())
            preferred = [n for n in healthy if n in schedulable] or healthy
            new_map = self._balanced_map(
                generator.run_id,
                num_partitions=generator.partition_map.num_partitions,
                nodes=preferred,
            )
            try:
                generator = self._restore(generator, checkpointer, superstep, new_map)
            except JobFailure as failure:
                if failure_kind(failure) == "fatal":
                    raise
                failures.record(failure)
                continue
            return checkpointer.restore_gs(superstep), generator

    # ------------------------------------------------------------------
    # cleanup
    # ------------------------------------------------------------------
    def cleanup(self, generator):
        """Release everything a finished run holds (what ``keep_state``
        handed to the caller): node state, DFS state, placement pin."""
        generator.relations.release(self.cluster)


def _retryable_at_boundary(error):
    """Plan-level retry is safe only for pre-plan transient faults.

    A transient raised at the ``superstep.begin`` site fired before any
    operator ran, so no vertex was mutated and the whole attempt can be
    repeated. A transient from inside the plan (a ``dfs.write`` that
    exhausted its DFS-level retries) must NOT re-run the plan — compute
    already happened against mutated indexes — and escalates to
    checkpoint recovery instead.
    """
    if not is_transient(error):
        return False
    return getattr(failure_cause(error), "site", "") == "superstep.begin"


def _sanitize(name):
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in name)


def _default_formats(parse_line, format_record):
    if parse_line is None or format_record is None:
        from repro.graphs import io as graph_io

        parse_line = parse_line or graph_io.parse_adjacency_line
        format_record = format_record or graph_io.format_vertex_record
    return parse_line, format_record
