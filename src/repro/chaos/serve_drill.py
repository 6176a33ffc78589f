"""Chaos drill for the serving layer's two fault sites (DESIGN.md §7).

The differential matrix (:mod:`repro.chaos.differential`) proves the
*engine* converges to the reference under injected faults; this drill
proves the *service* does. Every scenario is one row of
:data:`SCENARIOS`, and every row goes through the same steps
(:func:`_drill`): arm the row's fault, start a journaled service and
submit the row's requests, wait until the "process" crashed or every job
is terminal, check the fault fired exactly once, then build a second
service over the same journal, ``recover()`` it, compare the replay
summary with the row's pin, and drain it — every job must finish with
the digest an uninterrupted, unbatched run of its request produced.

A lone job is a batch of one: a row's requests run as one shared run,
so a row with one request runs unbatched. ``service.crash`` kills the
process at the lifecycle phase the spec's ``node`` names; ``running`` is
drilled before the first checkpoint commits (hit 1) and after (hit 3)
because the two take different recovery paths — a fresh re-run under
the pinned plan vs. a checkpoint resume. ``journal.append`` faults are
absorbed in place (``transient_io``) or damage the journal tail
(``torn_write``, ``corrupt``), which replay must truncate at the cost of
the one record they hit.

Each scenario is self-contained — its own cluster, DFS, and journal —
so a failed drill cannot poison the next one. ``repro chaos`` (including
``--quick``) runs the whole table after the differential matrix.
"""

import collections
import dataclasses
import shutil
import tempfile
import time

from repro.chaos.faults import FaultPlan, FaultSpec
from repro.common.errors import ReproError
from repro.hyracks.engine import HyracksCluster
from repro.serve.config import ServeConfig

#: What a restarted service's ``recover()`` reports, as a row pins it;
#: ``torn`` says whether replay truncated a damaged journal tail.
Replay = collections.namedtuple("Replay", "jobs finished resumed requeued torn")

#: One drill: its label, the fault (a template — each run arms a copy),
#: the ``(algorithm, params)`` requests submitted together, the journal
#: backend (``dfs`` or a local ``file``), and the pinned replay summary.
Scenario = collections.namedtuple("Scenario", "label fault requests journal pin")

SOLO = (("pagerank", (("iterations", 6),)),)
BATCH = tuple(("sssp", (("source_id", source),)) for source in (0, 7, 13))

SCENARIOS = (
    Scenario("service.crash@queued#1",
             FaultSpec("service.crash", "io", "queued", 1),
             SOLO, "dfs", Replay(1, 0, 0, 1, False)),
    Scenario("service.crash@dispatch#1",
             FaultSpec("service.crash", "io", "dispatch", 1),
             SOLO, "dfs", Replay(1, 0, 1, 0, False)),
    Scenario("service.crash@running#1",
             FaultSpec("service.crash", "io", "running", 1),
             SOLO, "dfs", Replay(1, 0, 1, 0, False)),
    Scenario("service.crash@running#3",
             FaultSpec("service.crash", "io", "running", 3),
             SOLO, "dfs", Replay(1, 0, 1, 0, False)),
    Scenario("service.crash@finishing#1",
             FaultSpec("service.crash", "io", "finishing", 1),
             SOLO, "dfs", Replay(1, 0, 1, 0, False)),
    # A job appends submitted (hit 1), started (2), finished (3): the
    # damage rows hit the finished record, a crash mid-append's shape.
    Scenario("journal.append/transient_io",
             FaultSpec("journal.append", "transient_io"),
             SOLO, "dfs", Replay(1, 1, 0, 0, False)),
    Scenario("journal.append/torn_write",
             FaultSpec("journal.append", "torn_write", at_hit=3),
             SOLO, "file", Replay(1, 0, 1, 0, True)),
    Scenario("journal.append/corrupt",
             FaultSpec("journal.append", "corrupt", at_hit=3),
             SOLO, "file", Replay(1, 0, 1, 0, True)),
    # Mid-batch: after the members' started records, at the first shared
    # boundary, and between the first and second member's finalize.
    Scenario("batch/service.crash@dispatch#1",
             FaultSpec("service.crash", "io", "dispatch", 1),
             BATCH, "dfs", Replay(3, 0, 0, 3, False)),
    Scenario("batch/service.crash@running#1",
             FaultSpec("service.crash", "io", "running", 1),
             BATCH, "dfs", Replay(3, 0, 0, 3, False)),
    Scenario("batch/service.crash@finishing#2",
             FaultSpec("service.crash", "io", "finishing", 2),
             BATCH, "dfs", Replay(3, 1, 0, 2, False)),
    # A batch appends submitted x3, started x3, finished x3: hit 9 tears
    # the last member's terminal record mid fan-out.
    Scenario("batch/journal.append/torn_write",
             FaultSpec("journal.append", "torn_write", at_hit=9),
             BATCH, "dfs", Replay(3, 2, 0, 1, True)),
)

#: The drill-shaped service: one worker, a checkpoint every superstep
#: (so a crash mid-run has one to resume from), no watchdog (a drill's
#: stalls are injected, not wedged), a DFS journal that outlives the
#: service object. Tests shrink or extend it with ``dataclasses.replace``.
DRILL_CONFIG = ServeConfig(
    workers=1, journal="dfs:/serve/journal.wal", checkpoint_interval=1,
    watchdog=False, batch_window=0.4,
)

_WAIT_SECONDS = 120


def run_serve_drill(num_vertices=48, num_nodes=3, graph_seed=11, out=print,
                    verbose=False):
    """Run every row of :data:`SCENARIOS`; returns the failed labels."""
    from repro.graphs.generators import btc_graph

    vertices = list(btc_graph(num_vertices, seed=graph_seed))
    baselines = _baselines(vertices, num_nodes)
    failures = []
    for row in SCENARIOS:
        problems = _drill(row, vertices, num_nodes, baselines)
        if problems:
            failures.append(row.label)
        for problem in problems:
            out("  chaos serve %s: FAIL %s" % (row.label, problem))
        if verbose and not problems:
            out("  chaos serve %s: ok" % row.label)
    if failures:
        out("chaos serve: FAIL (%d/%d scenarios: %s)"
            % (len(failures), len(SCENARIOS), ", ".join(failures)))
    else:
        out("chaos serve: OK (%d scenarios, crash at every lifecycle "
            "phase + journal transient/torn/corrupt + mid-batch crash "
            "and torn fan-out)" % len(SCENARIOS))
    return failures


def _baselines(vertices, num_nodes):
    """Every distinct request's digest from an uninterrupted solo run."""
    digests = {}
    with _Harness(vertices, num_nodes, "dfs") as harness:
        service = harness.service(batch_max=1)
        service.start()
        for request in dict.fromkeys(r for row in SCENARIOS for r in row.requests):
            record = service.submit(_request(request))
            record.wait(timeout=_WAIT_SECONDS)
            digests[request] = record.result_digest
        service.shutdown(drain=True, timeout=_WAIT_SECONDS)
    if None in digests.values():
        raise ReproError("serve drill baseline run failed: %s" % digests)
    return digests


def _drill(row, vertices, num_nodes, baselines):
    """Crash or damage, restart, replay, drain; returns the problems."""
    from repro.serve import ServiceCrashed

    problems = []
    with _Harness(vertices, num_nodes, row.journal) as harness:
        injector = harness.cluster.fault_injector.arm(
            FaultPlan([dataclasses.replace(row.fault)])
        )
        first = harness.service(batch_max=len(row.requests))
        first.start()
        try:
            for request in row.requests:
                first.submit(_request(request))
        except ServiceCrashed:
            pass  # the submitting thread died with the process
        _wait_for(lambda: first.state == "crashed" or all(
            record.state.terminal for record in first.jobs.values()
        ))
        first.shutdown(drain=True, timeout=_WAIT_SECONDS)
        if len(injector.fired) != 1:
            problems.append("fault fired %d times, wanted once" % len(injector.fired))
        injector.disarm(reason="process dead")

        second = harness.service(batch_max=len(row.requests))
        summary = second.recover()
        replay = Replay(*(summary[f] for f in Replay._fields[:-1]),
                        torn=summary["torn_bytes"] > 0)
        if replay != row.pin:
            problems.append("replay %s, pinned %s" % (replay, row.pin))
        records = list(second.jobs.values())
        # Every batch row's fault lands after dispatch, so each re-queued
        # member left a shared run that no longer exists: it runs alone.
        if len(row.requests) > 1 and any(
            record.state.value == "queued" and not record.no_batch
            for record in records
        ):
            problems.append("a re-queued member may re-batch into a dead run")
        second.start()
        for record in records:
            state = record.wait(timeout=_WAIT_SECONDS)
            baseline = baselines[_key(record.request)]
            if state is None or state.value != "succeeded":
                problems.append("job %s ended %s (%s)"
                                % (record.job_id, state, record.error))
            elif record.result_digest != baseline:
                problems.append("job %s digest %s != baseline %s"
                                % (record.job_id, record.result_digest, baseline))
        second.shutdown(drain=True, timeout=_WAIT_SECONDS)
    return problems


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
def _request(request):
    algorithm, params = request
    return {"tenant": "chaos", "algorithm": algorithm, "dataset": "g",
            "params": dict(params)}


def _key(job_request):
    """The table's ``(algorithm, params)`` form of a submitted
    :class:`~repro.serve.api.JobRequest`."""
    return job_request.algorithm, tuple(sorted(job_request.params.items()))


class _Harness:
    """One scenario's shared cluster and journal; services come and go."""

    def __init__(self, vertices, num_nodes, journal):
        self.vertices = vertices
        self.num_nodes = num_nodes
        self.backend = journal
        self.cluster = self.journal = self._journal_dir = None

    def __enter__(self):
        self.cluster = HyracksCluster(num_nodes=self.num_nodes)
        self.journal = DRILL_CONFIG.journal
        if self.backend == "file":
            self._journal_dir = tempfile.mkdtemp(prefix="repro-chaos-journal-")
            self.journal = "file:%s" % self._journal_dir
        return self

    def __exit__(self, *exc):
        self.cluster.close()
        if self._journal_dir is not None:
            shutil.rmtree(self._journal_dir, ignore_errors=True)
        return False

    def service(self, batch_max):
        """A fresh JobService over the shared cluster and journal —
        construction models one process start."""
        from repro.serve import JobService

        service = JobService(
            DRILL_CONFIG, cluster=self.cluster, journal=self.journal,
            batch_max=batch_max,
        )
        service.add_dataset("g", vertices=list(self.vertices))
        return service


def _wait_for(predicate):
    deadline = time.monotonic() + _WAIT_SECONDS
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
