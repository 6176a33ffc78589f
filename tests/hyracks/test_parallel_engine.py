"""Parallel (thread-pool) superstep execution: hand-off and failure order.

Covers the mechanics DESIGN.md §13 relies on: a job's producer→consumer
hand-off delivers exactly ``connector.route`` for every connector family
at any worker count, and the engine-level contracts — bit-identical job
results, lowest-partition-wins failure surfacing, no thread outliving a
failed job, and worker-thread registration in the telemetry tracer.
"""

import random
import threading
import time

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
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
from repro.hyracks.scheduler import (
    CountConstraint,
    SequentialTaskRunner,
    ThreadPoolTaskRunner,
    make_task_runner,
)
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
def clusters(tmp_path_factory):
    """One sequential and one 4-worker cluster, shared by the module."""
    root = tmp_path_factory.mktemp("handoff")
    with HyracksCluster(num_nodes=4, root_dir=str(root / "seq")) as sequential:
        with HyracksCluster(
            num_nodes=4, parallelism=4, root_dir=str(root / "par")
        ) as parallel:
            yield sequential, parallel


class TestHandoffMatchesRoute:
    """Every consumer partition receives exactly what ``route`` assembles."""

    @pytest.mark.parametrize("name", sorted(CONNECTORS))
    def test_job_delivers_route_at_parallelism_1_and_4(self, clusters, name):
        factory, sort, square = CONNECTORS[name]
        for seed in SEEDS:
            rng = random.Random("%s-%d" % (name, seed))
            num_senders = rng.randint(1, 4)
            num_consumers = num_senders if square else rng.randint(1, 4)
            batches = _random_batches(rng, num_senders, sort)
            expected = factory().route(batches, num_consumers, None)
            for cluster in clusters:
                result = cluster.execute(
                    _handoff_job(factory(), batches, num_consumers)
                )
                delivered = [
                    result.collected["out"][p] for p in range(num_consumers)
                ]
                assert delivered == expected, (name, seed, cluster.parallelism)

    def test_job_charges_the_network_exactly_what_route_charges(self, clusters):
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
            for cluster in clusters:
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

    def test_two_edges_out_of_one_operator(self, clusters):
        batches = _random_batches(random.Random(11), 4, sort=False)
        for cluster in clusters:
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

    def test_aggregator_concatenates_in_sender_order(self, clusters):
        batches = [[(s, i) for i in range(4)] for s in range(3)]
        for cluster in clusters:
            result = cluster.execute(
                _handoff_job(MToOneAggregatorConnector(), batches, 1)
            )
            # Sender partition-id order is the determinism contract.
            assert [t[0] for t in result.collected["out"][0]] == (
                [0] * 4 + [1] * 4 + [2] * 4
            )

    def test_merging_connector_rejects_unsorted_sender(self, clusters):
        batches = [[(1, 0)], [(3, 0), (1, 0)]]
        connector = MToNPartitioningMergingConnector(key_fn=_first)
        with pytest.raises(ValueError, match="sorted sender streams"):
            connector.route(batches, 1, None)
        for cluster in clusters:
            with pytest.raises(ValueError, match="sorted sender streams"):
                cluster.execute(_handoff_job(connector, batches, 1))


class TestTaskRunners:
    def test_make_task_runner_picks_mode(self):
        sequential = make_task_runner(1, None)
        assert isinstance(sequential, SequentialTaskRunner)
        assert sequential.concurrency == 1
        parallel = make_task_runner(4, None)
        try:
            assert isinstance(parallel, ThreadPoolTaskRunner)
            assert parallel.concurrency == 4
        finally:
            parallel.close()

    def test_thread_pool_preserves_partition_order(self):
        runner = make_task_runner(4, None)
        try:
            def task(partition):
                def run():
                    time.sleep(0.02 * (3 - partition))  # finish out of order
                    return partition * 10
                return run

            outcomes = runner.map([task(p) for p in range(4)])
        finally:
            runner.close()
        assert [o.partition for o in outcomes] == [0, 1, 2, 3]
        assert [o.value for o in outcomes] == [0, 10, 20, 30]
        assert not any(o.failed for o in outcomes)

    def test_thread_pool_captures_all_failures(self):
        runner = make_task_runner(2, None)
        try:
            def boom(partition):
                def run():
                    raise ValueError("clone %d" % partition)
                return run

            outcomes = runner.map([boom(p) for p in range(3)])
        finally:
            runner.close()
        assert all(o.failed for o in outcomes)
        assert [str(o.error) for o in outcomes] == [
            "clone 0", "clone 1", "clone 2"
        ]

    def test_sequential_runner_stops_at_first_failure(self):
        runner = SequentialTaskRunner()
        ran = []

        def task(partition):
            def run():
                ran.append(partition)
                if partition == 1:
                    raise ValueError("stop")
                return partition
            return run

        outcomes = runner.map([task(p) for p in range(4)])
        assert ran == [0, 1]  # partitions 2 and 3 never started
        assert len(outcomes) == 2 and outcomes[1].failed


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


class TestParallelEngine:
    def test_parallel_result_matches_sequential(self, tmp_path):
        with HyracksCluster(
            num_nodes=4, root_dir=str(tmp_path / "seq")
        ) as sequential:
            expected = sequential.execute(_square_shuffle_job())
        with HyracksCluster(
            num_nodes=4, parallelism=4, root_dir=str(tmp_path / "par")
        ) as parallel:
            assert parallel.task_runner.concurrency == 4
            actual = parallel.execute(_square_shuffle_job())
        assert actual.collected == expected.collected
        assert actual.gather("out") == expected.gather("out")

    def test_lowest_partition_failure_wins(self, tmp_path):
        def explode(t):
            raise ValueError("partition key %d" % t[0])

        spec = JobSpec("explode")
        source = spec.add(GeneratorSourceOperator(lambda ctx, p: [(p, p)]))
        stage = spec.add(MapOperator(explode))
        sink = spec.add(CollectSinkOperator("out"))
        spec.connect(OneToOneConnector(), source, stage)
        spec.connect(OneToOneConnector(), stage, sink)
        with HyracksCluster(
            num_nodes=4, parallelism=4, root_dir=str(tmp_path / "c")
        ) as cluster:
            with pytest.raises(ValueError, match="partition key 0"):
                cluster.execute(spec)

    def test_failed_job_leaves_only_the_worker_pool_behind(self, tmp_path):
        def explode_late(t):
            if t[0] >= 20:  # partitions 0 and 1 succeed, 2 and 3 fail
                raise ValueError("partition key %d" % t[0])
            return t

        spec = JobSpec("explode-mid-operator")
        source = spec.add(
            GeneratorSourceOperator(lambda ctx, p: [(p * 10 + i, p) for i in range(5)])
        )
        stage = spec.add(MapOperator(explode_late))
        sink = spec.add(CollectSinkOperator("out"))
        spec.connect(OneToOneConnector(), source, stage)
        spec.connect(MToNPartitioningConnector(key_fn=_first), stage, sink)
        before = set(threading.enumerate())
        with HyracksCluster(
            num_nodes=4, parallelism=4, root_dir=str(tmp_path / "c")
        ) as cluster:
            with pytest.raises(ValueError, match="partition key"):
                cluster.execute(spec)
            started = set(threading.enumerate()) - before
            assert threading.current_thread() in before
            assert started and all(
                thread.name.startswith("hyx-worker") for thread in started
            )
        assert set(threading.enumerate()) <= before

    def test_injected_worker_failure_becomes_job_failure(self, tmp_path):
        with HyracksCluster(
            num_nodes=3, parallelism=3, root_dir=str(tmp_path / "c")
        ) as cluster:
            FaultInjector(FaultPlan(
                [FaultSpec("operator.open", node="node1", at_hit=2)]
            )).attach(cluster)
            with pytest.raises(JobFailure):
                cluster.execute(_square_shuffle_job())
            events = cluster.telemetry.events.snapshot(name="node.failure")
            assert events and events[0].args["node"] == "node1"

    def test_worker_threads_registered_with_tracer(self, tmp_path):
        with HyracksCluster(
            num_nodes=2, parallelism=2, root_dir=str(tmp_path / "c")
        ) as cluster:
            cluster.execute(_square_shuffle_job())
            names = set(cluster.telemetry.tracer.thread_names.values())
        assert any(name.startswith("hyx-worker") for name in names)
