"""Chaos drills for the serving layer's two fault sites (DESIGN.md §16).

The differential matrix (:mod:`repro.chaos.differential`) proves the
*engine* converges to the reference under injected faults; these drills
prove the *service* does: ``service.crash`` kills the simulated process
at a chosen lifecycle phase and a restarted service must replay the
journal and finish every job with a result digest bit-identical to an
uninterrupted run, and ``journal.append`` faults (absorbed transients,
torn writes, tail corruption) must never cost recovery more than the
single record the crash interrupted.

Each scenario is self-contained — its own cluster, DFS, and journal —
so a failed drill cannot poison the next one. ``repro chaos`` (including
``--quick``) runs the whole set after the differential matrix.
"""

import shutil
import tempfile
import time

from repro.chaos.faults import FaultInjector, FaultPlan, FaultSpec
from repro.common.errors import ReproError
from repro.hdfs import MiniDFS
from repro.hyracks.engine import HyracksCluster

#: Lifecycle phases the crash drill kills the service at. ``running`` is
#: drilled twice — before the first checkpoint commits (hit 1) and after
#: (hit 3) — because the two recoveries take different paths (fresh
#: re-run under the pinned plan vs. checkpoint resume).
CRASH_PHASES = (
    ("queued", 1),
    ("dispatch", 1),
    ("running", 1),
    ("running", 3),
    ("finishing", 1),
)

_REQUEST = {
    "tenant": "chaos",
    "algorithm": "pagerank",
    "dataset": "g",
    "params": {"iterations": 6},
}

#: Mid-batch crash drill points: ``dispatch`` dies after the members'
#: ``started`` records land but before the shared run begins, ``running``
#: dies at the first shared superstep boundary, and ``finishing`` dies
#: between the first and second member's fan-out finalize — the
#: half-batch shape recovery must untangle.
BATCH_CRASH_PHASES = (
    ("dispatch", 1),
    ("running", 1),
    ("finishing", 2),
)

_BATCH_SOURCES = (0, 7, 13)

_WAIT_SECONDS = 120


def _batch_request(source):
    return {
        "tenant": "chaos",
        "algorithm": "sssp",
        "dataset": "g",
        "params": {"source_id": source},
    }


def run_serve_drill(num_vertices=48, num_nodes=3, graph_seed=11, out=print,
                    verbose=False):
    """Run every serve-layer chaos scenario; returns failure labels."""
    from repro.graphs.generators import btc_graph

    vertices = list(btc_graph(num_vertices, seed=graph_seed))
    failures = []

    def report(label, problems):
        if problems:
            failures.append(label)
            for problem in problems:
                out("  chaos serve %s: FAIL %s" % (label, problem))
        elif verbose:
            out("  chaos serve %s: ok" % label)

    baseline = _baseline_digest(vertices, num_nodes)
    for phase, at_hit in CRASH_PHASES:
        label = "service.crash@%s#%d" % (phase, at_hit)
        report(label, _crash_scenario(vertices, num_nodes, baseline,
                                      phase, at_hit))
    report("journal.append/transient_io",
           _transient_scenario(vertices, num_nodes, baseline))
    report("journal.append/torn_write",
           _damage_scenario(vertices, num_nodes, baseline, "torn_write"))
    report("journal.append/corrupt",
           _damage_scenario(vertices, num_nodes, baseline, "corrupt"))
    batch_baselines = _batch_baselines(vertices, num_nodes)
    for phase, at_hit in BATCH_CRASH_PHASES:
        label = "batch/service.crash@%s#%d" % (phase, at_hit)
        report(label, _batch_crash_scenario(vertices, num_nodes,
                                            batch_baselines, phase, at_hit))
    report("batch/journal.append/torn_write",
           _batch_torn_fanout_scenario(vertices, num_nodes, batch_baselines))
    scenarios = len(CRASH_PHASES) + 3 + len(BATCH_CRASH_PHASES) + 1
    if failures:
        out("chaos serve: FAIL (%d/%d scenarios: %s)"
            % (len(failures), scenarios, ", ".join(failures)))
    else:
        out("chaos serve: OK (%d scenarios, crash at every lifecycle "
            "phase + journal transient/torn/corrupt + mid-batch crash "
            "and torn fan-out)" % scenarios)
    return failures


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def _baseline_digest(vertices, num_nodes):
    """The uninterrupted run's digest every recovery must reproduce."""
    with _Harness(vertices, num_nodes) as harness:
        service = harness.service()
        service.start()
        record = service.submit(dict(_REQUEST))
        state = record.wait(timeout=_WAIT_SECONDS)
        service.shutdown(drain=True, timeout=_WAIT_SECONDS)
        if state is None or state.value != "succeeded" or not record.result_digest:
            raise ReproError(
                "serve drill baseline run failed (state %s)" % state
            )
        return record.result_digest


def _crash_scenario(vertices, num_nodes, baseline, phase, at_hit):
    """Kill the service at ``phase``; restart, replay, compare digests."""
    from repro.serve import ServiceCrashed

    problems = []
    # min_superstep=0: queued/dispatch checks happen before any
    # superstep begins; the phase filter (node) already picks the spot.
    plan = FaultPlan([
        FaultSpec(site="service.crash", action="io", node=phase,
                  at_hit=at_hit, min_superstep=0),
    ])
    with _Harness(vertices, num_nodes) as harness:
        injector = FaultInjector(plan).attach(harness.cluster, dfs=harness.dfs)
        first = harness.service()
        first.start()
        try:
            first.submit(dict(_REQUEST))
        except ServiceCrashed:
            pass  # the submitting thread died with the process
        if not _wait_for(lambda: first.state == "crashed"):
            problems.append("crash never fired at phase %r" % phase)
            first.shutdown(drain=False)
            return problems
        injector.disarm(reason="process dead")

        second = harness.service()
        summary = second.recover()
        if summary["jobs"] != 1:
            problems.append("replay saw %d jobs, wanted 1" % summary["jobs"])
        if summary["finished"] != 0:
            problems.append("job journaled finished before the crash")
        second.start()
        problems.extend(_drain_and_compare(second, baseline))
    return problems


def _transient_scenario(vertices, num_nodes, baseline):
    """A transient append error is absorbed in place; nothing is lost."""
    problems = []
    plan = FaultPlan([
        FaultSpec(site="journal.append", action="transient_io", at_hit=1,
                  min_superstep=0),
    ])
    with _Harness(vertices, num_nodes) as harness:
        injector = FaultInjector(plan).attach(harness.cluster, dfs=harness.dfs)
        service = harness.service()
        service.start()
        record = service.submit(dict(_REQUEST))
        state = record.wait(timeout=_WAIT_SECONDS)
        service.shutdown(drain=True, timeout=_WAIT_SECONDS)
        if state is None or state.value != "succeeded":
            problems.append("job did not survive a transient append (%s)" % state)
        if record.result_digest != baseline:
            problems.append("digest drifted under a transient append")
        if len(injector.fired) != 1:
            problems.append("transient fault never fired")
        replay = service.journal.replay()
        types = sorted(r["type"] for r in replay.records)
        if types != ["finished", "started", "submitted"]:
            problems.append("journal incomplete after retry: %s" % types)
    return problems


def _damage_scenario(vertices, num_nodes, baseline, action):
    """Damage the journal tail on the job's final append, then 'crash'.

    ``torn_write`` cuts the fresh ``finished`` record in half;
    ``corrupt`` flips a bit in it. Either way the crash-restart replay
    must truncate exactly the damaged tail, treat the job as
    interrupted, and re-run it to the identical digest — a damaged
    journal costs one record, never recovery.
    """
    problems = []
    # Appends per job run submitted(1), started(2), finished(3): damage
    # the finished record, the canonical crash-mid-append shape.
    plan = FaultPlan([
        FaultSpec(site="journal.append", action=action, at_hit=3,
                  min_superstep=0),
    ])
    journal_dir = tempfile.mkdtemp(prefix="repro-chaos-journal-")
    try:
        with _Harness(vertices, num_nodes,
                      journal="file:%s" % journal_dir) as harness:
            injector = FaultInjector(plan).attach(
                harness.cluster, dfs=harness.dfs
            )
            first = harness.service()
            first.start()
            record = first.submit(dict(_REQUEST))
            state = record.wait(timeout=_WAIT_SECONDS)
            first.shutdown(drain=True, timeout=_WAIT_SECONDS)
            if state is None or state.value != "succeeded":
                problems.append("pre-damage run failed (%s)" % state)
                return problems
            if len(injector.fired) != 1:
                problems.append("%s never fired" % action)
            injector.disarm(reason="process dead")

            # The process "dies" here; the journal's tail is damaged.
            second = harness.service()
            summary = second.recover()
            if summary["torn_bytes"] <= 0:
                problems.append("replay repaired no torn tail")
            if summary["finished"] != 0 or summary["jobs"] != 1:
                problems.append(
                    "damaged finished record survived replay: %s" % summary
                )
            second.start()
            problems.extend(_drain_and_compare(second, baseline))
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
    return problems


# ----------------------------------------------------------------------
# batched-dispatch scenarios (DESIGN.md §17)
# ----------------------------------------------------------------------
def _batch_baselines(vertices, num_nodes):
    """Unbatched per-source digests every batch recovery must reproduce."""
    digests = {}
    with _Harness(vertices, num_nodes) as harness:
        service = harness.service()
        service.start()
        for source in _BATCH_SOURCES:
            record = service.submit(_batch_request(source))
            state = record.wait(timeout=_WAIT_SECONDS)
            if state is None or state.value != "succeeded":
                raise ReproError(
                    "serve drill batch baseline failed (source %d, state %s)"
                    % (source, state)
                )
            digests[source] = record.result_digest
        service.shutdown(drain=True, timeout=_WAIT_SECONDS)
    return digests


def _submit_batch(service):
    """Submit the drill's batch members; returns their records."""
    records = []
    for source in _BATCH_SOURCES:
        records.append(service.submit(_batch_request(source)))
    return records


def _batch_service(harness):
    return harness.service(batch_max=len(_BATCH_SOURCES) + 1,
                           batch_window=0.4)


def _batch_crash_scenario(vertices, num_nodes, baselines, phase, at_hit):
    """Crash mid-batch; every member must recover individually.

    The invariant: after restart each member job is either already
    terminal with its solo digest, or individually re-queued for a
    fresh solo run — never resumed into a batch that no longer exists,
    never lost with it.
    """
    from repro.serve import ServiceCrashed

    problems = []
    plan = FaultPlan([
        FaultSpec(site="service.crash", action="io", node=phase,
                  at_hit=at_hit, min_superstep=0),
    ])
    with _Harness(vertices, num_nodes) as harness:
        injector = FaultInjector(plan).attach(harness.cluster, dfs=harness.dfs)
        first = _batch_service(harness)
        first.start()
        try:
            _submit_batch(first)
        except ServiceCrashed:
            problems.append("crash fired before the batch dispatched")
            first.shutdown(drain=False)
            return problems
        if not _wait_for(lambda: first.state == "crashed"):
            problems.append("crash never fired at phase %r" % phase)
            first.shutdown(drain=False)
            return problems
        injector.disarm(reason="process dead")

        second = _batch_service(harness)
        summary = second.recover()
        if summary["jobs"] != len(_BATCH_SOURCES):
            problems.append(
                "replay saw %d jobs, wanted %d"
                % (summary["jobs"], len(_BATCH_SOURCES))
            )
        if summary["resumed"] != 0:
            problems.append(
                "a batch member resumed a wrapped checkpoint: %s" % summary
            )
        accounted = summary["finished"] + summary["requeued"]
        if accounted != len(_BATCH_SOURCES):
            problems.append(
                "half-batch after replay: %d of %d members accounted (%s)"
                % (accounted, len(_BATCH_SOURCES), summary)
            )
        for record in second.jobs.values():
            if record.state.value == "queued" and not record.no_batch:
                problems.append(
                    "requeued member %s may re-batch into a dead run"
                    % record.job_id
                )
        second.start()
        problems.extend(_drain_and_compare_batch(second, baselines))
    return problems


def _batch_torn_fanout_scenario(vertices, num_nodes, baselines):
    """Tear the journal during batch fan-out, then 'crash' and restart.

    Appends for a 3-member batch land as submitted x3, started x3,
    finished x3; tearing the last ``finished`` (hit 9) means one member
    loses its terminal record mid-fan-out. Replay must truncate exactly
    the torn tail, keep the two finished members terminal, and re-queue
    the torn one for a solo run with the same digest.
    """
    problems = []
    appends = 3 * len(_BATCH_SOURCES)
    plan = FaultPlan([
        FaultSpec(site="journal.append", action="torn_write",
                  at_hit=appends, min_superstep=0),
    ])
    with _Harness(vertices, num_nodes) as harness:
        injector = FaultInjector(plan).attach(harness.cluster, dfs=harness.dfs)
        first = _batch_service(harness)
        first.start()
        records = _submit_batch(first)
        for record in records:
            state = record.wait(timeout=_WAIT_SECONDS)
            if state is None or state.value != "succeeded":
                problems.append(
                    "pre-damage batch member ended %s (%s)"
                    % (state, record.error)
                )
        first.shutdown(drain=True, timeout=_WAIT_SECONDS)
        if problems:
            return problems
        if first.stats()["batch"]["formed"] < 1:
            problems.append("batch never formed before the torn write")
        if len(injector.fired) != 1:
            problems.append("torn_write never fired during fan-out")
        injector.disarm(reason="process dead")

        second = _batch_service(harness)
        summary = second.recover()
        if summary["torn_bytes"] <= 0:
            problems.append("replay repaired no torn tail")
        if summary["finished"] != len(_BATCH_SOURCES) - 1:
            problems.append(
                "expected %d members terminal after the torn fan-out, "
                "got %s" % (len(_BATCH_SOURCES) - 1, summary)
            )
        if summary["requeued"] != 1 or summary["resumed"] != 0:
            problems.append(
                "torn member must re-queue for a fresh solo run: %s" % summary
            )
        second.start()
        problems.extend(_drain_and_compare_batch(second, baselines))
    return problems


def _drain_and_compare_batch(service, baselines):
    """Wait for every member job; digests must match per-source solo."""
    problems = []
    records = list(service.jobs.values())
    if len(records) != len(_BATCH_SOURCES):
        problems.append(
            "recovery produced %d job records, wanted %d"
            % (len(records), len(_BATCH_SOURCES))
        )
    for record in records:
        source = record.request.params.get("source_id")
        state = record.wait(timeout=_WAIT_SECONDS)
        if state is None or state.value != "succeeded":
            problems.append(
                "member %s (source %s) ended %s (%s)"
                % (record.job_id, source, state, record.error)
            )
        elif record.result_digest != baselines.get(source):
            problems.append(
                "member %s (source %s) digest %s != solo %s"
                % (record.job_id, source, record.result_digest,
                   baselines.get(source))
            )
    service.shutdown(drain=True, timeout=_WAIT_SECONDS)
    return problems


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
class _Harness:
    """One scenario's shared cluster + DFS; services come and go."""

    def __init__(self, vertices, num_nodes, journal="dfs:/serve/journal.wal"):
        self.vertices = vertices
        self.num_nodes = num_nodes
        self.journal = journal
        self.cluster = None
        self.dfs = None

    def __enter__(self):
        self.cluster = HyracksCluster(num_nodes=self.num_nodes)
        self.dfs = MiniDFS(datanodes=self.cluster.node_ids())
        return self

    def __exit__(self, *exc):
        self.cluster.close()
        return False

    def service(self, **overrides):
        """A fresh JobService over the shared cluster/DFS/journal —
        construction models one process start."""
        from repro.serve import JobService

        kwargs = dict(
            cluster=self.cluster, dfs=self.dfs, workers=1,
            journal=self.journal, checkpoint_interval=1, watchdog=False,
        )
        kwargs.update(overrides)
        service = JobService(**kwargs)
        service.add_dataset("g", vertices=list(self.vertices))
        return service


def _wait_for(predicate, timeout=_WAIT_SECONDS):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def _drain_and_compare(service, baseline):
    """Wait for every recovered job, check digests, shut down."""
    problems = []
    records = list(service.jobs.values())
    if not records:
        problems.append("recovery produced no job records")
    for record in records:
        state = record.wait(timeout=_WAIT_SECONDS)
        if state is None or state.value != "succeeded":
            problems.append(
                "job %s ended %s (%s)" % (record.job_id, state, record.error)
            )
        elif record.result_digest != baseline:
            problems.append(
                "job %s digest %s != baseline %s"
                % (record.job_id, record.result_digest, baseline)
            )
    service.shutdown(drain=True, timeout=_WAIT_SECONDS)
    return problems
