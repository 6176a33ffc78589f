"""The run's relations have one owner, and every exit releases through it.

A seeded property over exit path × join strategy × vertex storage:
however a run ends, afterwards no node's service registry names it, no
file of it is left under any node's root, no byte of any node's memory
budget is charged (a resident ``Msg`` image holds a charge), no page of
it is pinned in a buffer cache (the index joins and ``compute`` hold a
B-tree leaf between calls), the cluster holds no placement pin for it,
and a node that was drained while the run had it pinned retires. Only ``keep_state=True``
(the caller takes over) and a dead process (which cleans nothing) leave
the run in place — and from what the dead process left, ``resume``
still lands bit-identical.

Plus the unit half of "``Msg`` is a relation like the other two": the
``msg-pNNNNN`` blobs a previous commit wrote restore and re-checkpoint
byte-identically through the operator pair the indexes use — held in
memory with no disk charge while the node's budget takes them, and with
the disk charges the dedicated ``Msg`` operators used to make when it
refuses them.
"""

import base64
import json
import os
import random
import zlib

import pytest

from repro.algorithms import pagerank
from repro.chaos import FaultPlan
from repro.common.errors import (
    DeadlineExceeded,
    JobCancelled,
    JobFailure,
    ProcessCrashed,
    WorkerFailure,
)
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hdfs import MiniDFS
from repro.hyracks.engine import HyracksCluster, JobContext, TaskContext
from repro.hyracks.operators.index_ops import find_index
from repro.pregelix import JoinStrategy, PregelixDriver, VertexStorage
from repro.pregelix.checkpoint import (
    Checkpointer,
    IndexCheckpointOperator,
    IndexRestoreOperator,
)
from repro.pregelix.relations import RunRelations

from tests.pregelix.data import make_parent_checkpoint as parent

RUN_ID = "released-run"
JOINS = {"foj": JoinStrategy.FULL_OUTER, "loj": JoinStrategy.LEFT_OUTER}
STORAGES = {"btree": VertexStorage.BTREE, "lsm": VertexStorage.LSM_BTREE}


def held(cluster):
    """Everything node-local or pinned that the cluster still holds."""
    found = []
    for node_id, node in cluster.nodes.items():
        found += [
            "%s registers %r" % (node_id, key)
            for registry in node.services.values()
            for key in registry
        ]
        found += [
            "%s pins %r" % (node_id, page_id)
            for page_id, page in node.buffer_cache._pages.items()
            if page.pin_count
        ]
        if node.budget.used:
            found.append("%s charges %d bytes" % (node_id, node.budget.used))
    for directory, _dirs, files in os.walk(cluster.root_dir):
        found += [os.path.join(directory, name) for name in files]
    found += ["pin %s" % run_id for run_id in cluster._placements]
    return found


def tripping(vertex_class, superstep, trip):
    class Tripping(vertex_class):
        def compute(self, messages):
            if self.superstep == superstep:
                trip()
            super().compute(messages)

    return Tripping


class World:
    """One seeded cluster + graph + job for one exit-path case."""

    def __init__(self, tmp_path, case, join, storage):
        rng = random.Random(zlib.crc32(repr((case, join, storage)).encode()))
        self.nodes = rng.choice([2, 3])
        self.at = rng.choice([1, 2, 3])  # the superstep/boundary that fails
        self.cluster = HyracksCluster(
            num_nodes=self.nodes, root_dir=str(tmp_path / "cluster"),
            **CLUSTERS.get(case, {})
        )
        self.dfs = self.cluster.dfs
        write_graph_to_dfs(
            self.dfs, "/in/g",
            btc_graph(rng.randrange(24, 60), seed=rng.randrange(100)),
            num_files=self.nodes,
        )
        self.driver = PregelixDriver(self.cluster, self.dfs)
        self.drained = "node%d" % rng.randrange(self.nodes)
        self.plan = dict(join_strategy=JOINS[join], vertex_storage=STORAGES[storage])
        self.hit = rng.randrange(1, 13)  # which check of an injected site fails

    def job(self, **overrides):
        return pagerank.build_job(iterations=5, **self.plan, **overrides)

    def fail(self, error):
        """What a failing site calls: drain a node the run has pinned
        (it cannot retire yet), then raise."""
        self.cluster.drain_node(self.drained)
        assert self.drained not in self.cluster.retired_nodes
        raise error

    def poisoned(self, error, **overrides):
        job = self.job(**overrides)
        job.vertex_class = tripping(
            job.vertex_class, self.at, lambda: self.fail(error)
        )
        return job

    def hook_raising(self, error):
        def hook(superstep, gs):
            if superstep == self.at:
                self.fail(error)

        return hook


def exit_success(world):
    def drain(superstep, gs):
        if superstep == world.at:
            world.cluster.drain_node(world.drained)

    world.driver.run(world.job(), "/in/g", output_path="/out/r", run_id=RUN_ID,
                     boundary_hook=drain)


def exit_deadline(world):
    world.driver.run(
        world.job(checkpoint_interval=1), "/in/g", run_id=RUN_ID,
        boundary_hook=world.hook_raising(DeadlineExceeded("too slow")),
    )


def exit_cancel(world):
    world.driver.run(
        world.job(), "/in/g", run_id=RUN_ID,
        boundary_hook=world.hook_raising(JobCancelled("stop")),
    )


def exit_compute_raises(world):
    world.driver.run(
        world.poisoned(RuntimeError("poison"), checkpoint_interval=1),
        "/in/g", run_id=RUN_ID,
    )


def exit_unrecoverable(world):
    # A machine failure of a kind nobody recovers from, and no
    # checkpoint to recover to either.
    world.driver.run(
        world.poisoned(WorkerFailure("node0", kind="meltdown")), "/in/g",
        run_id=RUN_ID,
    )


def exit_second_pipelined_job(world):
    world.driver.run_jobs(
        [world.job(), world.poisoned(RuntimeError("poison in job 2"))], "/in/g"
    )


def exit_injected_fault(site):
    """A fault injected at one of the chaos harness's sites in a later
    superstep — under a held B-tree leaf, when the site is a page read
    of a probe or a write-back — of a kind nobody recovers from."""

    def leave(world):
        # Armed with no specs, the injector still tracks the superstep.
        injector = world.cluster.fault_injector.arm(FaultPlan())
        hits = 0

        def check(checked, node=None, **info):
            nonlocal hits
            if checked == site and injector.current_superstep > world.at:
                hits += 1
                if hits == world.hit:
                    world.fail(WorkerFailure(node, kind="meltdown"))

        injector.check = check
        world.driver.run(world.job(), "/in/g", run_id=RUN_ID)

    return leave


def exit_rebalance_handoff(world):
    def check(site, node=None, **info):
        """Breaks the hand-off after its checkpoint."""
        if site == "rebalance" and info["phase"] == "restore":
            world.fail(RuntimeError("lost during hand-off"))

    world.cluster.fault_injector.check = check
    # Scaling down drains a pinned node, so the boundary must hand off.
    world.driver.run(
        world.job(), "/in/g", run_id=RUN_ID,
        scale_at={world.at: world.nodes - 1},
    )


EXITS = {
    "success": (exit_success, None),
    "deadline": (exit_deadline, DeadlineExceeded),
    "cancel": (exit_cancel, JobCancelled),
    "compute-raises": (exit_compute_raises, RuntimeError),
    "unrecoverable": (exit_unrecoverable, JobFailure),
    "operator-fault": (exit_injected_fault("operator.next"), JobFailure),
    "page-read-fault": (exit_injected_fault("page.read"), JobFailure),
    "pipelined-job-2": (exit_second_pipelined_job, RuntimeError),
    "rebalance-handoff": (exit_rebalance_handoff, RuntimeError),
}


#: A node whose memory budget refuses every ``Msg`` image: each one is
#: a run file.
ZERO_MEMORY = dict(node_memory_bytes=0, buffer_cache_bytes=64 << 10)
#: Pages are only read back from disk when the cache is too small for the
#: run: a few small pages, so that probes and write-backs miss.
CLUSTERS = {
    "page-read-fault": dict(page_size=256, buffer_cache_bytes=3 * 256),
    "crash-zero-memory": ZERO_MEMORY,
}


@pytest.mark.parametrize(
    "case,join,storage",
    [
        (case, join, storage)
        for case in sorted(EXITS)
        for join in sorted(JOINS)
        for storage in sorted(STORAGES)
        # An LSM run of this size never reads a page back.
        if (case, storage) != ("page-read-fault", "lsm")
    ],
)
def test_every_exit_releases_the_run(tmp_path, case, join, storage):
    leave, error = EXITS[case]
    world = World(tmp_path, case, join, storage)
    with world.cluster as cluster:
        if error is None:
            leave(world)
        else:
            with pytest.raises(error):
                leave(world)
        assert held(cluster) == []
        assert world.drained in cluster.retired_nodes
        durable = world.dfs.list_files("/pregelix")
        if case in ("success", "deadline", "cancel"):
            assert durable == []
        else:
            # What a retry could resume from is kept: GS, and the
            # checkpoints where the job took any.
            assert any(path.endswith("/gs") for path in durable)


@pytest.mark.parametrize("memory", ["roomy", "zero-memory"])
@pytest.mark.parametrize("storage", sorted(STORAGES))
@pytest.mark.parametrize("join", sorted(JOINS))
def test_a_dead_process_cleans_nothing_and_resume_lands_identical(
    tmp_path, join, storage, memory
):
    world = World(tmp_path, "crash-" + memory, join, storage)
    with world.cluster as cluster:
        straight = world.driver.run(
            world.job(), "/in/g", output_path="/out/straight"
        )
        assert held(cluster) == []

        def crash(superstep, gs):
            if superstep == 3:
                raise ProcessCrashed("the process died")

        job = world.job(checkpoint_interval=2)
        with pytest.raises(ProcessCrashed):
            world.driver.run(job, "/in/g", output_path="/out/r", run_id=RUN_ID,
                             boundary_hook=crash)
        left = held(cluster)
        relations = RunRelations(job, world.dfs, RUN_ID)
        for name in (relations.vertex, relations.msg):
            assert any(repr(name) in item for item in left)
        assert "pin %s" % RUN_ID in left
        if memory == "roomy":
            # The Msg images stay charged; nothing of the run is on disk.
            assert any(" charges " in item for item in left)
            assert not any(os.sep in item for item in left)
        else:
            assert any(RUN_ID in item and os.sep in item for item in left)  # files
            assert not any(" charges " in item for item in left)
        assert world.dfs.exists(relations.root + "/ckpt/000002/MANIFEST")

        resumed = world.driver.resume(job, "/in/g", RUN_ID, output_path="/out/r")
        assert resumed.recoveries == 1
        assert resumed.gs == straight.gs
        assert world.driver.read_output("/out/r") == world.driver.read_output(
            "/out/straight"
        )
        assert held(cluster) == []
        assert world.dfs.list_files("/pregelix") == []


def test_keep_state_hands_the_run_to_the_caller(tmp_path):
    world = World(tmp_path, "keep", "loj", "btree")
    with world.cluster as cluster:
        outcome = world.driver.run(
            world.job(checkpoint_interval=2), "/in/g", run_id=RUN_ID,
            keep_state=True,
        )
        relations = outcome.generator.relations
        left = held(cluster)
        for name in (relations.vertex, relations.vid, relations.msg):
            assert any(repr(name) in item for item in left)
        assert "pin %s" % RUN_ID in left
        assert Checkpointer(outcome.generator, cluster.telemetry).committed_supersteps()
        world.driver.cleanup(outcome.generator)
        assert held(cluster) == []
        assert world.dfs.list_files("/pregelix") == []


def test_a_poison_job_leaves_nothing_of_any_attempt(monkeypatch):
    """The serving tier retries a job whose runs fail transiently under a
    fresh run id per attempt; when it gives up, nothing of any attempt is
    left on the nodes or — checkpoints included — in the DFS."""
    from repro.algorithms import connected_components
    from repro.chaos.serve_drill import DRILL_CONFIG
    from repro.common.errors import TransientIOError
    from repro.serve import JobService, JobState
    from repro.serve.executor import JOB_ATTEMPTS

    def flaky_dump(record):
        raise TransientIOError("node0", site="dump")

    monkeypatch.setattr(connected_components, "format_record", flaky_dump)
    with HyracksCluster(num_nodes=2) as cluster:
        service = JobService(DRILL_CONFIG, cluster=cluster)
        service.add_dataset("g", vertices=list(btc_graph(40, seed=3)))
        service.start()
        try:
            record = service.submit(
                {"tenant": "t", "algorithm": "cc", "dataset": "g"}
            )
            assert record.wait(120) is JobState.FAILED
        finally:
            service.shutdown(timeout=120)
        assert JOB_ATTEMPTS == 2
        assert (record.attempts, record.error_kind) == (2, "transient")
        assert len(record.trace_run_ids) == 2
        assert held(cluster) == []
        assert cluster.dfs.list_files("/pregelix") == []
        assert cluster.dfs.list_files("/serve/jobs") == []


# ----------------------------------------------------------------------
# Msg through the shared checkpoint / restore operator pair
# ----------------------------------------------------------------------
@pytest.fixture
def node_ctx(tmp_path):
    with HyracksCluster(num_nodes=1, root_dir=str(tmp_path / "n")) as cluster:
        yield TaskContext(cluster.nodes["node0"], JobContext("unit"), 0, 1)


def parent_msg_blobs():
    path = os.path.join(os.path.dirname(parent.__file__), "parent_checkpoint.json")
    with open(path) as handle:
        files = json.load(handle)["files"]
    blobs = [
        base64.b64decode(blob)
        for name, blob in sorted(files.items())
        if "/msg-p" in name
    ]
    assert blobs and all(blobs)
    return blobs


def disk(ctx):
    io = ctx.io.snapshot()
    return (io["disk_reads"], io["disk_read_bytes"],
            io["disk_writes"], io["disk_write_bytes"])


@pytest.mark.parametrize("blob", parent_msg_blobs() + [b""])
@pytest.mark.parametrize("memory", ["roomy", "zero"])
def test_msg_blobs_round_trip_through_the_index_operators(tmp_path, blob, memory):
    cluster = HyracksCluster(
        num_nodes=1, root_dir=str(tmp_path / "n"),
        **({} if memory == "roomy" else ZERO_MEMORY)
    )
    with cluster:
        ctx = TaskContext(cluster.nodes["node0"], JobContext("unit"), 0, 1)
        dfs = MiniDFS(datanodes=["node0"])
        relations = RunRelations(pagerank.build_job(), dfs, "unit")
        dfs.write("/ckpt/in", blob)
        restore = IndexRestoreOperator(
            relations.msg, relations.new_msg, dfs, lambda p: "/ckpt/in"
        )
        checkpoint = IndexCheckpointOperator(relations.msg, dfs, lambda p: "/ckpt/out")

        restore.run(ctx, 0, [])
        if memory == "roomy" or not blob:
            # The blob is the run's image: charged to the node's budget,
            # checkpointed as it is, and never on disk. An empty image
            # fits any budget, one of 0 bytes too.
            assert ctx.budget.used == len(blob)
            checkpoint.run(ctx, 0, [])
            assert dfs.read("/ckpt/out") == blob
            assert disk(ctx) == (0, 0, 0, 0)
            assert os.listdir(ctx.files.root) == []
            restore.run(ctx, 0, [])
            assert ctx.budget.used == len(blob)  # the replaced image gave its charge back
            assert os.listdir(ctx.files.root) == []
            return

        # The dedicated Msg restore wrote one run file: one write charge
        # of the blob's size.
        assert disk(ctx) == (0, 0, 1, len(blob))
        assert ctx.budget.used == 0
        checkpoint.run(ctx, 0, [])
        assert dfs.read("/ckpt/out") == blob
        # ... and the dedicated Msg checkpoint read it back through the run
        # file reader: one read charge of the same size.
        assert disk(ctx) == (1, len(blob), 1, len(blob))

        # Restoring in place replaces the run instead of leaking its file.
        first = find_index(ctx, relations.msg, 0).path
        restore.run(ctx, 0, [])
        assert not os.path.exists(first)
        assert os.listdir(ctx.files.root) == [
            os.path.basename(find_index(ctx, relations.msg, 0).path)
        ]


def test_an_absent_msg_partition_checkpoints_as_the_empty_relation(node_ctx):
    dfs = MiniDFS(datanodes=["node0"])
    relations = RunRelations(pagerank.build_job(), dfs, "unit")
    IndexCheckpointOperator(relations.msg, dfs, lambda p: "/ckpt/out").run(
        node_ctx, 0, []
    )
    assert dfs.read("/ckpt/out") == b""
    assert disk(node_ctx) == (0, 0, 0, 0)
