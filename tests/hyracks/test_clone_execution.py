"""How the engine runs a stage's clones: hand-off and failure order.

Covers the mechanics DESIGN.md §4 relies on: a job's producer→consumer
hand-off delivers exactly ``connector.route`` for every connector family,
clones run one after another in partition order on the calling thread,
the first failing clone stops the stage, and a cluster refuses the
concurrency and latency-sleep settings it no longer has.
"""

import random
import threading

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.common import serde
from repro.common.errors import JobFailure
from repro.hyracks.connectors import (
    MToNPartitioningConnector,
    MToNPartitioningMergingConnector,
    MToOneAggregatorConnector,
    OneToOneConnector,
)
from repro.hyracks.engine import HyracksCluster, JobContext
from repro.hyracks.job import JobSpec
from repro.hyracks.operators.func import (
    CollectSinkOperator,
    GeneratorSourceOperator,
    MapOperator,
)
from repro.hyracks.scheduler import CountConstraint
from repro.telemetry import Telemetry

SEEDS = range(20)
TRIPLE = serde.TupleSerde(serde.INT64, serde.INT64, serde.INT64)


def _first(t):
    return t[0]


#: name -> (connector factory, senders must be sorted, consumers == senders)
CONNECTORS = {
    "one_to_one": (OneToOneConnector, False, True),
    "partitioning": (lambda: MToNPartitioningConnector(key_fn=_first), False, False),
    "merging": (
        lambda: MToNPartitioningMergingConnector(key_fn=_first, sort_key_fn=_first),
        True,
        False,
    ),
    "aggregator": (MToOneAggregatorConnector, False, False),
}


def _random_batches(rng, num_senders, sort):
    batches = [
        [(rng.randrange(12), sender, i) for i in range(rng.randrange(30))]
        for sender in range(num_senders)
    ]
    return [sorted(batch, key=_first) for batch in batches] if sort else batches


def _handoff_job(connector, batches, num_consumers):
    """source (one clone per batch) --[connector]--> collect sink."""
    spec = JobSpec("handoff")
    source = spec.add(GeneratorSourceOperator(lambda ctx, p: batches[p]))
    source.partition_constraint = CountConstraint(len(batches))
    sink = spec.add(CollectSinkOperator("out"))
    sink.partition_constraint = CountConstraint(num_consumers)
    spec.connect(connector, source, sink)
    return spec


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """One 4-node cluster, shared by the module."""
    root = tmp_path_factory.mktemp("handoff")
    with HyracksCluster(num_nodes=4, root_dir=str(root)) as cluster:
        yield cluster


class TestHandoffMatchesRoute:
    """Every consumer partition receives exactly what ``route`` assembles."""

    @pytest.mark.parametrize("name", sorted(CONNECTORS))
    def test_job_delivers_route(self, cluster, name):
        factory, sort, square = CONNECTORS[name]
        for seed in SEEDS:
            rng = random.Random("%s-%d" % (name, seed))
            num_senders = rng.randint(1, 4)
            num_consumers = num_senders if square else rng.randint(1, 4)
            batches = _random_batches(rng, num_senders, sort)
            expected = factory().route(batches, num_consumers, None)
            result = cluster.execute(_handoff_job(factory(), batches, num_consumers))
            delivered = [result.collected["out"][p] for p in range(num_consumers)]
            assert delivered == expected, (name, seed)

    def test_job_charges_the_network_exactly_what_route_charges(self, cluster):
        # One ``_account`` per (sender, consumer) pair, wherever it runs.
        rng = random.Random(7)
        batches = _random_batches(rng, 4, sort=True)
        for make in (
            lambda: MToNPartitioningConnector(key_fn=_first, tuple_serde=TRIPLE),
            lambda: MToNPartitioningMergingConnector(
                key_fn=_first, tuple_serde=TRIPLE
            ),
        ):
            reference = JobContext("route")
            make().route(batches, 3, reference)
            assert reference.io.network_bytes > 0
            result = cluster.execute(_handoff_job(make(), batches, 3))
            assert result.network_io.snapshot() == reference.io.snapshot()

    @pytest.mark.parametrize("name", sorted(CONNECTORS))
    def test_a_batch_is_charged_the_sum_of_its_tuples(self, name):
        # ``_account`` sizes a batch at once (a multiplication when the
        # tuple serde is fixed-width); the charge is the per-tuple sum.
        _factory, sort, square = CONNECTORS[name]
        text = serde.TupleSerde(serde.INT64, serde.STRING)
        for tuple_serde, widen in (
            (TRIPLE, lambda t: t),
            (text, lambda t: (t[0], "é" * t[2])),
        ):
            connector = {
                "one_to_one": OneToOneConnector,
                "partitioning": lambda: MToNPartitioningConnector(_first, tuple_serde),
                "merging": lambda: MToNPartitioningMergingConnector(
                    _first, tuple_serde=tuple_serde
                ),
                "aggregator": lambda: MToOneAggregatorConnector(tuple_serde),
            }[name]()
            rng = random.Random(name)
            batches = [
                [widen(t) for t in batch] for batch in _random_batches(rng, 4, sort)
            ]
            consumers = 4 if square else 3
            ctx = JobContext("route", telemetry=Telemetry())
            connector.route(batches, consumers, ctx)
            remote = total = messages = 0
            for sender, batch in enumerate(batches):
                for dest, tuples in enumerate(connector.split(sender, batch, consumers)):
                    nbytes = sum(len(tuple_serde.dumps(t)) for t in tuples)
                    total += nbytes
                    if sender != dest:
                        remote += nbytes
                        messages += len(tuples)
            if name == "one_to_one":  # a local pipe accounts nothing
                remote = total = messages = 0
            assert ctx.io.network_bytes == remote
            assert ctx.io.network_messages == messages
            counted = ctx.telemetry.registry.counter(
                "connector.bytes", kind=type(connector).__name__
            ).value
            assert counted == total

    def test_two_edges_out_of_one_operator(self, cluster):
        batches = _random_batches(random.Random(11), 4, sort=False)
        spec = JobSpec("fan-out")
        source = spec.add(GeneratorSourceOperator(lambda ctx, p: batches[p]))
        source.partition_constraint = CountConstraint(len(batches))
        shuffled = spec.add(CollectSinkOperator("shuffled"))
        shuffled.partition_constraint = CountConstraint(3)
        funnel = spec.add(CollectSinkOperator("funnel"))
        funnel.partition_constraint = CountConstraint(1)
        spec.connect(MToNPartitioningConnector(key_fn=_first), source, shuffled)
        spec.connect(MToOneAggregatorConnector(), source, funnel)
        result = cluster.execute(spec)
        assert [result.collected["shuffled"][p] for p in range(3)] == (
            MToNPartitioningConnector(key_fn=_first).route(batches, 3, None)
        )
        assert result.collected["funnel"][0] == [
            item for batch in batches for item in batch
        ]

    def test_aggregator_concatenates_in_sender_order(self, cluster):
        batches = [[(s, i) for i in range(4)] for s in range(3)]
        result = cluster.execute(
            _handoff_job(MToOneAggregatorConnector(), batches, 1)
        )
        # Sender partition-id order is the determinism contract.
        assert [t[0] for t in result.collected["out"][0]] == (
            [0] * 4 + [1] * 4 + [2] * 4
        )

    def test_merging_connector_rejects_unsorted_sender(self, cluster):
        batches = [[(1, 0)], [(3, 0), (1, 0)]]
        connector = MToNPartitioningMergingConnector(key_fn=_first)
        with pytest.raises(ValueError, match="sorted sender streams"):
            connector.route(batches, 1, None)
        with pytest.raises(ValueError, match="sorted sender streams"):
            cluster.execute(_handoff_job(connector, batches, 1))


def _square_shuffle_job():
    spec = JobSpec("squares")
    source = spec.add(
        GeneratorSourceOperator(
            lambda ctx, p: [(p * 10 + i, (p * 10 + i) ** 2) for i in range(25)]
        )
    )
    stage = spec.add(MapOperator(lambda t: t))
    sink = spec.add(CollectSinkOperator("out"))
    spec.connect(MToNPartitioningConnector(key_fn=lambda t: t[0]), source, stage)
    spec.connect(OneToOneConnector(), stage, sink)
    return spec


class TestCloneExecution:
    def test_clones_run_in_partition_order_on_the_calling_thread(self, cluster):
        seen = []

        def record(ctx, partition):
            seen.append((partition, threading.get_ident()))
            return [(partition, partition)]

        spec = JobSpec("order")
        spec.add(GeneratorSourceOperator(record)).partition_constraint = (
            CountConstraint(6)
        )
        cluster.execute(spec)
        assert seen == [(p, threading.get_ident()) for p in range(6)]

    def test_first_failing_clone_stops_the_operator(self, tmp_path):
        ran = []

        def explode(t):
            ran.append(t[0])
            if t[0] >= 1:
                raise ValueError("partition key %d" % t[0])
            return t

        spec = JobSpec("explode")
        source = spec.add(GeneratorSourceOperator(lambda ctx, p: [(p, p)]))
        stage = spec.add(MapOperator(explode))
        sink = spec.add(CollectSinkOperator("out"))
        spec.connect(OneToOneConnector(), source, stage)
        spec.connect(OneToOneConnector(), stage, sink)
        before = set(threading.enumerate())
        with HyracksCluster(num_nodes=4, root_dir=str(tmp_path / "c")) as cluster:
            with pytest.raises(ValueError, match="partition key 1"):
                cluster.execute(spec)
            assert set(threading.enumerate()) <= before  # nothing to join
        assert ran == [0, 1]  # partitions 2 and 3 never started

    def test_lowest_partition_failure_wins(self, tmp_path):
        ran = []

        def explode(t):
            ran.append(t[0])
            raise ValueError("partition key %d" % t[0])

        spec = JobSpec("explode")
        source = spec.add(GeneratorSourceOperator(lambda ctx, p: [(p, p)]))
        stage = spec.add(MapOperator(explode))
        sink = spec.add(CollectSinkOperator("out"))
        spec.connect(OneToOneConnector(), source, stage)
        spec.connect(OneToOneConnector(), stage, sink)
        with HyracksCluster(num_nodes=4, root_dir=str(tmp_path / "c")) as cluster:
            with pytest.raises(ValueError, match="partition key 0"):
                cluster.execute(spec)
        assert ran == [0]

    def test_result_does_not_depend_on_the_node_count(self, tmp_path):
        # Four clones per operator wherever they run: one node runs all
        # of them, four nodes one each, and every consumer partition
        # still receives the same tuples in the same order.
        def pinned_job():
            spec = _square_shuffle_job()
            for operator in spec.operators:
                operator.partition_constraint = CountConstraint(4)
            return spec

        collected = []
        for num_nodes in (1, 2, 4):
            with HyracksCluster(
                num_nodes=num_nodes, root_dir=str(tmp_path / ("n%d" % num_nodes))
            ) as cluster:
                collected.append(cluster.execute(pinned_job()).collected["out"])
        assert sorted(collected[0]) == [0, 1, 2, 3]
        assert collected[1] == collected[0] and collected[2] == collected[0]

    def test_every_span_is_on_the_calling_thread(self, tmp_path):
        with HyracksCluster(
            num_nodes=3, root_dir=str(tmp_path / "c"),
            telemetry=Telemetry(task_spans=True),
        ) as cluster:
            cluster.execute(_square_shuffle_job())
            spans = cluster.telemetry.tracer.finished_spans()
        tasks = [span for span in spans if span.category == "task"]
        # The source's three clones, then three of Map -> CollectSink,
        # which a one-to-one edge joins into one stage.
        assert len(tasks) == 3 + 3
        assert {span.tid for span in spans} == {threading.get_ident()}

    def test_injected_worker_failure_becomes_job_failure(self, tmp_path):
        with HyracksCluster(num_nodes=3, root_dir=str(tmp_path / "c")) as cluster:
            cluster.fault_injector.arm(FaultPlan(
                [FaultSpec("operator.open", node="node1", at_hit=2)]
            ))
            with pytest.raises(JobFailure):
                cluster.execute(_square_shuffle_job())
            events = cluster.telemetry.events.snapshot(name="node.failure")
            assert events and events[0].args["node"] == "node1"

    @pytest.mark.parametrize("options", [
        {"parallelism": 2}, {"parallelism": 0}, {"io_latency_scale": 50.0},
    ])
    def test_cluster_refuses_clone_concurrency_and_latency_sleeps(
        self, tmp_path, options
    ):
        with pytest.raises(ValueError, match="one after another"):
            HyracksCluster(num_nodes=2, root_dir=str(tmp_path / "c"), **options)

    def test_cluster_accepts_the_one_setting(self, tmp_path):
        with HyracksCluster(
            num_nodes=2, parallelism=1, io_latency_scale=0.0,
            root_dir=str(tmp_path / "c"),
        ) as cluster:
            result = cluster.execute(_square_shuffle_job())
        assert sorted(result.gather("out")) == sorted(
            (p * 10 + i, (p * 10 + i) ** 2) for p in range(2) for i in range(25)
        )
