"""Stages: the operators one-to-one connectors join run as one clone.

A stage clone runs its operators back to back on one partition and hands
each internal list straight on (DESIGN.md §4). These tests pin what that
must keep per operator (timings, fault probes, failure attribution), which
one-to-one edges stay stage boundaries, and that a fanned-out port gives
each consumer its own list.
"""

import random

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.common.errors import JobFailure
from repro.hyracks.connectors import (
    MToNPartitioningConnector,
    OneToOneConnector,
)
from repro.hyracks.engine import HyracksCluster
from repro.hyracks.job import JobSpec, OperatorDescriptor
from repro.hyracks.operators.func import (
    CollectSinkOperator,
    GeneratorSourceOperator,
    MapOperator,
    UnionOperator,
)
from repro.telemetry import Telemetry

NODES = 3


def _first(t):
    return t[0]


def _rows(ctx, partition):
    rng = random.Random(partition)
    return [(rng.randrange(20), partition, i) for i in range(12)]


@pytest.fixture
def cluster(tmp_path):
    with HyracksCluster(
        num_nodes=NODES, root_dir=str(tmp_path / "c"),
        telemetry=Telemetry(task_spans=True),
    ) as cluster:
        yield cluster


def _stage_names(cluster, spec):
    placement = cluster.scheduler.place(spec, cluster.alive_node_ids())
    return [[op.name for op in stage.operators] for stage in spec.stages(placement)]


def _task_spans(cluster):
    return cluster.telemetry.tracer.finished_spans(category="task")


def _chain_job():
    """source -> First -> Second -> sink, every edge one-to-one."""
    spec = JobSpec("chain")
    source = spec.add(GeneratorSourceOperator(_rows))
    first = spec.add(MapOperator(lambda t: (t[0] + 1,) + t[1:], name="First"))
    second = spec.add(MapOperator(lambda t: (t[0] * 2,) + t[1:], name="Second"))
    sink = spec.add(CollectSinkOperator("out"))
    for producer, consumer in ((source, first), (first, second), (second, sink)):
        spec.connect(OneToOneConnector(), producer, consumer)
    return spec


class TestChain:
    def test_one_clone_per_partition_and_seconds_per_operator(self, cluster):
        spec = _chain_job()
        names = ["GeneratorSource", "First", "Second", "CollectSink"]
        assert _stage_names(cluster, spec) == [names]
        result = cluster.execute(spec)
        tasks = _task_spans(cluster)
        assert [span.args["partition"] for span in tasks] == list(range(NODES))
        for span in tasks:
            assert list(span.args["operators"]) == names
            assert all(seconds >= 0.0 for seconds in span.args["operators"].values())
        assert set(result.operator_seconds) == set(names)
        assert result.gather("out") == [
            ((t[0] + 1) * 2,) + t[1:] for p in range(NODES) for t in _rows(None, p)
        ]

    def test_fault_at_the_second_operator_names_it(self, cluster):
        # node1 opens GeneratorSource (hit 1), then First (hit 2).
        cluster.fault_injector.arm(
            FaultPlan([FaultSpec("operator.open", node="node1", at_hit=2)])
        )
        with pytest.raises(JobFailure):
            cluster.execute(_chain_job())
        (event,) = cluster.telemetry.events.snapshot(name="node.failure")
        assert event.args["node"] == "node1"
        assert event.args["operator"] == "First"
        # The failing clone is partition 1: partition 2 never started.
        assert [span.args["partition"] for span in _task_spans(cluster)] == [0, 1]

    def test_every_operator_keeps_its_three_probes(self, cluster):
        seen = []
        original = cluster.fault_injector.check

        def check(site, node=None, **info):
            if site.startswith("operator."):
                seen.append((site, info["operator"], info["partition"]))
            return original(site, node=node, **info)

        cluster.fault_injector.check = check
        cluster.execute(_chain_job())
        names = ["GeneratorSource", "First", "Second", "CollectSink"]
        assert seen == [
            (site, name, partition)
            for partition in range(NODES)
            for name in names
            for site in ("operator.open", "operator.next", "operator.close")
        ]


class TestBoundaries:
    def test_a_fusion_that_would_close_a_cycle_stays_a_boundary(self, cluster):
        # source -1:1-> Left -1:1-> Union and source -m:n-> Right -1:1->
        # Union. Fusing Left with Union would need Right (fed from the
        # source's stage) inside a stage downstream of it and upstream
        # of it at once.
        spec = JobSpec("diamond")
        source = spec.add(GeneratorSourceOperator(_rows))
        left = spec.add(MapOperator(lambda t: ("L",) + t, name="Left"))
        right = spec.add(MapOperator(lambda t: ("R",) + t, name="Right"))
        union = spec.add(UnionOperator())
        sink = spec.add(CollectSinkOperator("out"))
        spec.connect(OneToOneConnector(), source, left)
        spec.connect(MToNPartitioningConnector(key_fn=_first), source, right)
        spec.connect(OneToOneConnector(), left, union)
        spec.connect(OneToOneConnector(), right, union)
        spec.connect(OneToOneConnector(), union, sink)
        assert _stage_names(cluster, spec) == [
            ["GeneratorSource", "Left"], ["Right", "Union", "CollectSink"],
        ]
        # What the per-operator engine delivered: every hand-off is the
        # connector's ``route`` of the producers' partition outputs.
        senders = [_rows(None, p) for p in range(NODES)]
        shuffled = MToNPartitioningConnector(key_fn=_first).route(
            senders, NODES, None
        )
        expected = {
            p: [("L",) + t for t in senders[p]] + [("R",) + t for t in shuffled[p]]
            for p in range(NODES)
        }
        assert cluster.execute(spec).collected["out"] == expected

    def test_a_fusion_that_would_swallow_a_shuffle_stays_a_boundary(self, cluster):
        # source -1:1-> Mid -1:1-> Union and source -m:n-> Union: one
        # stage for all three would hold the shuffle.
        spec = JobSpec("triangle")
        source = spec.add(GeneratorSourceOperator(_rows))
        mid = spec.add(MapOperator(lambda t: t[::-1], name="Mid"))
        union = spec.add(UnionOperator())
        spec.connect(OneToOneConnector(), source, mid)
        spec.connect(OneToOneConnector(), mid, union)
        spec.connect(MToNPartitioningConnector(key_fn=_first), source, union)
        sink = spec.add(CollectSinkOperator("out"))
        spec.connect(OneToOneConnector(), union, sink)
        assert _stage_names(cluster, spec) == [
            ["GeneratorSource", "Mid"], ["Union", "CollectSink"],
        ]
        senders = [_rows(None, p) for p in range(NODES)]
        shuffled = MToNPartitioningConnector(key_fn=_first).route(
            senders, NODES, None
        )
        assert cluster.execute(spec).collected["out"] == {
            p: [t[::-1] for t in senders[p]] + shuffled[p] for p in range(NODES)
        }

    def test_one_to_one_between_different_placements_stays_a_boundary(
        self, cluster
    ):
        from repro.hyracks.scheduler import AbsoluteLocationConstraint

        spec = _chain_job()
        spec.operators[-1].partition_constraint = AbsoluteLocationConstraint(
            ["node2", "node0", "node1"]
        )
        assert _stage_names(cluster, spec) == [
            ["GeneratorSource", "First", "Second"], ["CollectSink"],
        ]
        assert cluster.execute(spec).gather("out") == cluster.execute(
            _chain_job()
        ).gather("out")


class _Scribble(OperatorDescriptor):
    """Mutates its input list in place and passes it on."""

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        stream.reverse()
        stream.append(("scribbled", partition))
        return {self.OUT: stream}


def test_a_fanned_out_port_gives_each_consumer_its_own_list(cluster):
    spec = JobSpec("fan-out")
    source = spec.add(GeneratorSourceOperator(_rows))
    scribble = spec.add(_Scribble("Scribble"))
    scribbled = spec.add(CollectSinkOperator("scribbled"))
    untouched = spec.add(CollectSinkOperator("untouched"))
    spec.connect(OneToOneConnector(), source, scribble)
    spec.connect(OneToOneConnector(), scribble, scribbled)
    spec.connect(OneToOneConnector(), source, untouched)
    assert len(_stage_names(cluster, spec)) == 1
    result = cluster.execute(spec)
    for partition in range(NODES):
        rows = _rows(None, partition)
        assert result.collected["untouched"][partition] == rows
        assert result.collected["scribbled"][partition] == (
            rows[::-1] + [("scribbled", partition)]
        )


def test_a_small_superstep_makes_at_most_16_clones(tmp_path):
    # A 4-node sssp superstep: scans -> join -> Compute -> sender
    # group-by, Vid load and LocalGS; VertexMutation; receiver group-by
    # -> MsgWrite; GlobalGS. 13 stage clones; one per operator was 45.
    from repro.algorithms import sssp
    from repro.graphs.generators import chain_graph
    from repro.graphs.io import write_graph_to_dfs
    from repro.pregelix import PregelixDriver

    with HyracksCluster(
        num_nodes=4, root_dir=str(tmp_path / "c"),
        telemetry=Telemetry(task_spans=True),
    ) as cluster:
        write_graph_to_dfs(cluster.dfs, "/in/g", iter(chain_graph(30)), num_files=4)
        PregelixDriver(cluster, cluster.dfs).run(
            sssp.build_job(source_id=0), "/in/g", output_path="/out/r"
        )
        spans = cluster.telemetry.tracer.finished_spans()
    supersteps = {
        span.span_id for span in spans
        if span.category == "job" and "-superstep-" in span.name
    }
    clones = {}
    for span in spans:
        if span.category == "task" and span.parent_id in supersteps:
            clones[span.parent_id] = clones.get(span.parent_id, 0) + 1
    assert len(clones) == len(supersteps) >= 30
    assert max(clones.values()) <= 16
